"""End-to-end acceptance checks.

Each test verifies one headline guarantee of the package and emits a single
PASS/FAIL line (surfaced in the summary via the -rP report option configured
in pyproject).  The suite is ordered from cheap operator identities to the
full reconstruction experiments.
"""

import dataclasses
import time

import numpy as np
import pytest

from elastinv.experiments import (
    ExperimentConfig,
    bump_centroids,
    run_example1,
    run_example2,
    run_example3,
    run_experiment,
)
from elastinv.fem import ElasticitySolver, LameField, SurfaceLoad
from elastinv.inversion import (
    constant_parameterization,
    generate_measurements,
    kohn_vogelius,
    kv_gradient,
)
from elastinv.mesh import generate_disk_mesh
from elastinv.ntd import (
    OrderedPair,
    build_ntd,
    loewner_gap,
    monotonicity_sandwich,
    quadrant_pair,
    stability_ratio_experiment,
)

LOADS = [(0.1, 0.1), (0.1, 0.2), (0.2, 0.1), (0.3, 0.5)]


def report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {criterion:2d} {status}: {detail}", flush=True)
    assert ok, detail


@pytest.fixture(scope="module")
def surface_loads():
    return [SurfaceLoad(constant=g) for g in LOADS]


@pytest.fixture(scope="module")
def op_mesh():
    return generate_disk_mesh(0.2)


def _random_field(mesh, rng):
    return LameField(rng.uniform(1.0, 4.0, mesh.n_elements), rng.uniform(2.0, 8.0, mesh.n_elements))


def test_criterion_1_constant_recovery_noise_free():
    start = time.monotonic()
    bundle = run_example1(ExperimentConfig(kind="example1"))
    elapsed = time.monotonic() - start
    row = bundle.report["table"][0]
    assert row["epsilon"] == 0.0 and row["rho"] == 0.0
    err_lam, err_mu = row["rel_error_lam"], row["rel_error_mu"]
    ok = err_lam <= 1e-3 and err_mu <= 1e-3 and elapsed <= 300.0
    report(
        1,
        ok,
        f"noise-free constant recovery rel errors lam={err_lam:.2e}, mu={err_mu:.2e} "
        f"(tol 1e-3), runtime {elapsed:.1f}s (limit 300s)",
    )


def test_criterion_2_constant_recovery_noise_bands():
    worst_lam, worst_mu = 0.0, 0.0
    for seed in range(1, 6):
        bundle = run_example1(ExperimentConfig(kind="example1", seed=seed))
        for row in bundle.report["table"][1:]:  # the two noisy settings
            worst_lam = max(worst_lam, row["rel_error_lam"])
            worst_mu = max(worst_mu, row["rel_error_mu"])
    ok = worst_lam <= 0.25 and worst_mu <= 0.05
    report(
        2,
        ok,
        f"noisy recovery over 5 seeds x 2 settings: worst rel errors "
        f"lam={worst_lam:.3f} (tol 0.25), mu={worst_mu:.3f} (tol 0.05)",
    )


def test_criterion_3_energy_identity(op_mesh, surface_loads):
    rng = np.random.default_rng(100)
    worst = 0.0
    for _ in range(10):
        field = _random_field(op_mesh, rng)
        op = build_ntd(op_mesh, field)
        solver = ElasticitySolver(op_mesh, field)
        for g in surface_loads:
            sol = solver.solve_neumann(g)
            pairing = op.pairing(g.nodal_values(op_mesh).ravel())
            energy = solver.interior_energy(sol)
            worst = max(worst, abs(pairing - energy) / abs(energy))
    ok = worst <= 1e-10
    report(3, ok, f"boundary pairing vs interior energy, worst rel defect {worst:.2e} (tol 1e-10)")


def test_criterion_4_monotonicity_sandwich(op_mesh, surface_loads):
    rng = np.random.default_rng(101)
    violations = 0
    for _ in range(20):
        pair = quadrant_pair(op_mesh, rng)
        for g in surface_loads:
            lhs, mid, rhs = monotonicity_sandwich(op_mesh, pair, g)
            slack = 1e-8 * max(abs(mid), 1e-30)
            if lhs < mid - slack or mid < rhs - slack:
                violations += 1
    ok = violations == 0
    report(4, ok, f"sandwich inequality over 20 pairs x 4 loads: {violations} violations")


def test_criterion_5_loewner_ordering(op_mesh):
    rng = np.random.default_rng(102)
    worst = np.inf
    for _ in range(20):
        pair = quadrant_pair(op_mesh, rng)
        gap = loewner_gap(
            build_ntd(op_mesh, pair.field_1), build_ntd(op_mesh, pair.field_2), pair
        )
        worst = min(worst, gap)
    ok = worst >= -1e-8
    report(5, ok, f"operator-difference eigenvalue gap over 20 pairs, min {worst:.2e} (tol -1e-8)")


def test_criterion_6_gradient_oracle(surface_loads):
    mesh = generate_disk_mesh(0.25)
    rng = np.random.default_rng(103)
    step = 1e-6
    worst = 0.0
    for _ in range(3):
        truth = _random_field(mesh, rng)
        meas = generate_measurements(mesh, truth, surface_loads)
        field = _random_field(mesh, rng)
        g_lam, g_mu = kv_gradient(field, mesh, meas, 1e-4)
        # FD differences cancel to a few ulps of J; errors below that floor
        # are unobservable by central differences at this step size
        j0 = kohn_vogelius(field, mesh, meas, 1e-4)
        floor = 20.0 * np.finfo(float).eps * j0 / (2.0 * step)
        for e in rng.choice(mesh.n_elements, 10, replace=False):
            for which, analytic in (("lam", g_lam[e]), ("mu", g_mu[e])):
                lam, mu = field.lam.copy(), field.mu.copy()
                arr = lam if which == "lam" else mu
                arr[e] += step
                j_plus = kohn_vogelius(LameField(lam, mu), mesh, meas, 1e-4)
                arr[e] -= 2 * step
                j_minus = kohn_vogelius(LameField(lam, mu), mesh, meas, 1e-4)
                fd = (j_plus - j_minus) / (2 * step)
                worst = max(worst, max(abs(fd - analytic) - floor, 0.0) / max(abs(analytic), 1e-12))
    # constant (2-parameter) variant, tighter tolerance
    truth = LameField.constant(3.0, 7.0, mesh.n_elements)
    meas = generate_measurements(mesh, truth, surface_loads)
    param = constant_parameterization(mesh)
    x = np.array([2.0, 5.0])
    g = param.reduce_gradient(*kv_gradient(param.to_field(x), mesh, meas, 0.0))
    worst_const = 0.0
    for i in range(2):
        xp, xm = x.copy(), x.copy()
        xp[i] += step
        xm[i] -= step
        fd = (
            kohn_vogelius(param.to_field(xp), mesh, meas, 0.0)
            - kohn_vogelius(param.to_field(xm), mesh, meas, 0.0)
        ) / (2 * step)
        worst_const = max(worst_const, abs(fd - g[i]) / abs(g[i]))
    ok = worst <= 1e-5 and worst_const <= 1e-6
    report(
        6,
        ok,
        f"analytic vs finite-difference gradient: per-element worst {worst:.2e} (tol 1e-5), "
        f"constant variant worst {worst_const:.2e} (tol 1e-6)",
    )


def test_criterion_7_stationarity_inverse_crime(op_mesh, surface_loads):
    truth = LameField.constant(3.0, 7.0, op_mesh.n_elements)
    meas = generate_measurements(op_mesh, truth, surface_loads)
    j = kohn_vogelius(truth, op_mesh, meas, 0.0)
    g_lam, g_mu = kv_gradient(truth, op_mesh, meas, 0.0)
    grad_sup = max(np.abs(g_lam).max(), np.abs(g_mu).max())
    ok = j <= 1e-18 and grad_sup <= 1e-9
    report(
        7,
        ok,
        f"matched-data functional J={j:.2e} (tol 1e-18), gradient sup-norm {grad_sup:.2e} (tol 1e-9)",
    )


def test_criterion_8_stability_ratios(op_mesh):
    rng = np.random.default_rng(104)
    family = [quadrant_pair(op_mesh, rng) for _ in range(30)]
    rep = stability_ratio_experiment(op_mesh, family)
    distinguishable = all(
        dop > 0.0 for dp, dop in zip(rep.parameter_distances, rep.operator_distances) if dp >= 1e-6
    )
    finite = all(np.isfinite(r) for r in rep.ratios)
    ok = distinguishable and finite and len(rep.ratios) == 30
    report(
        8,
        ok,
        f"30-pair family: all operator distances positive={distinguishable}, "
        f"all ratios finite={finite}, empirical constant max ratio={rep.max_ratio:.3f} (reported, not thresholded)",
    )


def test_criterion_9_per_element_examples():
    start = time.monotonic()
    b2 = run_example2(ExperimentConfig(kind="example2"))
    b3 = run_example3(ExperimentConfig(kind="example3"))
    elapsed = time.monotonic() - start
    row2 = b2.report["table"][0]
    row3 = b3.report["table"][0]
    drop2 = row2["initial_j"] / max(row2["final_j"], 1e-300)
    drop3 = row3["initial_j"] / max(row3["final_j"], 1e-300)
    offsets = [
        np.hypot(cx - tx, cy - ty)
        for (cx, cy), (tx, ty) in zip(row3["bump_centroids"], [(0.5, 0.5), (-0.5, -0.5)])
    ]
    # max() would skip a NaN offset (a half with no top-decile element)
    bumps_ok = all(np.isfinite(d) and d <= 0.25 for d in offsets)
    ok = drop2 >= 1e3 and drop3 >= 1e3 and bumps_ok and elapsed <= 3600.0
    report(
        9,
        ok,
        f"noise-free per-element runs: J drop {drop2:.1e} / {drop3:.1e} (min 1e3), "
        f"bump-centroid offsets {', '.join(f'{d:.3f}' for d in offsets)} (each tol 0.25), "
        f"runtime {elapsed:.0f}s",
    )


def test_criterion_10_deterministic_bundles(tmp_path):
    configs = [
        ExperimentConfig(kind="forward", target_h=0.2),
        ExperimentConfig(kind="stability", target_h=0.25, n_pairs=3, seed=7),
        ExperimentConfig(kind="monotonicity", target_h=0.25, n_pairs=2, seed=7),
        ExperimentConfig(kind="example1", target_h=0.2, seed=3),
    ]
    identical = True
    for k, config in enumerate(configs):
        a = run_experiment(dataclasses.replace(config)).write(tmp_path / f"{k}a")
        b = run_experiment(dataclasses.replace(config)).write(tmp_path / f"{k}b")
        names_a = sorted(p.name for p in a.iterdir())
        names_b = sorted(p.name for p in b.iterdir())
        if names_a != names_b:
            identical = False
            break
        if any((a / n).read_bytes() != (b / n).read_bytes() for n in names_a):
            identical = False
            break
    report(10, identical, "rerun with identical config+seed reproduces bundles byte for byte")
