import dataclasses
import functools
import itertools
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elastinv import fem, inversion
from elastinv.fem import (
    ElasticitySolver,
    LameField,
    RegionParameterization,
    SurfaceLoad,
    load_coefficients,
    quadrant_regions,
    strain_dot,
    strain_energy_density,
)
from elastinv.inversion import (
    InversionConfig,
    MeasurementSet,
    NoiseSpec,
    add_noise,
    bfgs_minimize,
    generate_measurements,
    kohn_vogelius,
    kv_gradient,
    transfer_trace,
)
from elastinv.mesh import BoundaryPartitionSpec, Mesh, generate_disk_mesh, partition_boundary
from conftest import DEFAULT_LOADS, one_region, random_field

# frozen single evaluation: (1,1) field against (3,7) data, 4 loads, h=0.2 mesh
KV_11_AGAINST_37 = 0.8071706575831231


@pytest.fixture
def loads():
    return [SurfaceLoad(constant=g) for g in DEFAULT_LOADS]


@pytest.fixture
def crime_measurements(medium_mesh, field_37, loads):
    return generate_measurements(medium_mesh, field_37, loads)


class TestNoise:
    def test_zero_epsilon_identity(self):
        f = np.arange(12.0).reshape(6, 2)
        assert np.array_equal(add_noise(f, NoiseSpec(0.0, 42)), f)

    def test_relative_bound(self):
        f = np.linspace(-1, 1, 20).reshape(10, 2)
        noisy = add_noise(f, NoiseSpec(0.03, 1))
        rel = np.abs(noisy - f) / np.maximum(np.abs(f), 1e-300)
        assert rel.max() <= 0.03 + 1e-12

    def test_noncentered_by_default(self):
        # U[0,1] noise only inflates magnitudes
        f = np.ones((50, 2))
        noisy = add_noise(f, NoiseSpec(0.1, 2))
        assert np.all(noisy >= f)

    @given(seed=st.integers(0, 2**31), eps=st.floats(0.0, 0.5))
    @settings(max_examples=25, deadline=None)
    def test_deterministic_per_seed(self, seed, eps):
        f = np.linspace(0.1, 2.0, 8).reshape(4, 2)
        spec = NoiseSpec(eps, seed)
        assert np.array_equal(add_noise(f, spec), add_noise(f, spec))

    @pytest.mark.parametrize("seed", [0, 5])
    def test_measurements_default_to_zero_noise(self, medium_mesh, field_37, loads, seed):
        """No noise argument draws epsilon 0, which scales every trace by exactly 1, whatever the seed."""
        plain = generate_measurements(medium_mesh, field_37, loads).pairs
        drawn = generate_measurements(medium_mesh, field_37, loads, NoiseSpec(0.0, seed)).pairs
        for (_, f), (_, f0) in zip(plain, drawn, strict=True):
            assert np.array_equal(f, f0) and np.array_equal(np.signbit(f), np.signbit(f0))

    def test_epsilon_range_guard(self):
        with pytest.raises(ValueError):
            NoiseSpec(1.0, 0)
        with pytest.raises(ValueError):
            NoiseSpec(-0.1, 0)


def test_measurements_must_be_nonempty():
    with pytest.raises(ValueError):
        MeasurementSet([])


def kv_without_regularizer(field, mesh, measurements):
    """(J, dJ/dlam, dJ/dmu) of kohn_vogelius with no rho terms at all, from the same solves and sums."""
    solver = ElasticitySolver(mesh, field)
    u_n = solver.solve_neumann(load_coefficients(mesh, [g for g, _ in measurements.pairs]))
    u_d = solver.solve_dirichlet(np.column_stack([np.ravel(f) for _, f in measurements.pairs]))
    (strain_n, div_n), (strain_d, div_d) = solver.disc.strains(u_n), solver.disc.strains(u_d)
    area = mesh.element_areas
    j = 0.0
    for e in strain_energy_density(field.lam, field.mu, strain_n - strain_d, div_n - div_d):
        j += float(np.dot(area, e))
    g_lam = ((div_d**2 - div_n**2) * area).sum(axis=0)
    g_mu = (2.0 * (strain_dot(strain_d) - strain_dot(strain_n)) * area).sum(axis=0)
    return j, g_lam, g_mu


class TestKohnVogelius:
    @pytest.mark.parametrize("eps", [0.0, 0.03])
    def test_zero_rho_adds_nothing(self, medium_mesh, field_37, loads, eps):
        """At rho = 0 the regularizer adds +0.0 to J and to every gradient entry: the same bits, signs
        of zero included, as an evaluation that has no rho terms."""
        data = generate_measurements(medium_mesh, field_37, loads, NoiseSpec(eps, 3))
        rng = np.random.default_rng(11)
        for field in [field_37, *(random_field(medium_mesh, rng) for _ in range(3))]:
            got = kohn_vogelius(field, medium_mesh, data, 0.0)
            ref = kv_without_regularizer(field, medium_mesh, data)
            assert got[0] == ref[0] and math.copysign(1.0, got[0]) == math.copysign(1.0, ref[0])
            for g, r in zip(got[1:], ref[1:]):
                assert np.array_equal(g, r) and np.array_equal(np.signbit(g), np.signbit(r))

    def test_inverse_crime_vanishes(self, medium_mesh, field_37, crime_measurements):
        j = kohn_vogelius(field_37, medium_mesh, crime_measurements, 0.0)[0]
        assert 0.0 <= j <= 1e-18

    def test_nonnegative(self, medium_mesh, crime_measurements):
        rng = np.random.default_rng(9)
        for _ in range(3):
            field = random_field(medium_mesh, rng)
            assert kohn_vogelius(field, medium_mesh, crime_measurements, 0.0)[0] >= 0.0
            assert kohn_vogelius(field, medium_mesh, crime_measurements, 1e-3)[0] >= 0.0

    def test_frozen_regression(self, medium_mesh, field_11, crime_measurements):
        j = kohn_vogelius(field_11, medium_mesh, crime_measurements, 0.0)[0]
        assert np.isclose(j, KV_11_AGAINST_37, rtol=1e-9)


class TestEvaluationWork:
    """One evaluation of J and its gradient builds one solver and factorizes once per partition."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"solvers": 0, "splu": 0}
        init, splu = ElasticitySolver.__init__, fem.spla.splu

        def counting_init(self, *args):
            counts["solvers"] += 1
            init(self, *args)

        def counting_splu(*args, **kwargs):
            counts["splu"] += 1
            return splu(*args, **kwargs)

        monkeypatch.setattr(ElasticitySolver, "__init__", counting_init)
        monkeypatch.setattr(fem.spla, "splu", counting_splu)
        return counts

    def test_fused_evaluation(self, medium_mesh, field_11, crime_measurements, counts):
        j, g_lam, g_mu = kohn_vogelius(field_11, medium_mesh, crime_measurements, 1e-3)
        assert counts == {"solvers": 1, "splu": 2}
        assert j == kohn_vogelius(field_11, medium_mesh, crime_measurements, 1e-3)[0]
        g_ref = kv_gradient(field_11, medium_mesh, crime_measurements, 1e-3)
        assert np.array_equal(g_lam, g_ref[0]) and np.array_equal(g_mu, g_ref[1])

    def test_optimizer_evaluation(self, medium_mesh, crime_measurements, counts):
        param = one_region(medium_mesh)
        config = InversionConfig(max_iterations=0)
        bfgs_minimize(config, medium_mesh, crime_measurements, param, np.array([1.0, 1.0]))
        assert counts == {"solvers": 1, "splu": 2}

    @pytest.mark.parametrize(
        "settings, reason",
        [
            ({"max_iterations": 0}, "max iterations reached"),
            ({"max_iterations": 3, "gradient_tolerance": 1e300}, "gradient tolerance reached"),
            ({"max_iterations": 2}, "max iterations reached"),
        ],
        ids=["no-iterations", "gradient-tolerance", "iteration-cap"],
    )
    def test_heap_released_once_per_run(self, medium_mesh, crime_measurements, monkeypatch, settings, reason):
        solvers, releases = [], []
        in_evaluation = [False]
        init, evaluate = ElasticitySolver.__init__, inversion.kohn_vogelius

        def tracking_init(self, *args):
            solvers.append(weakref.ref(self))
            init(self, *args)

        def tracking_evaluate(*args):
            in_evaluation[0] = True
            try:
                return evaluate(*args)
            finally:
                in_evaluation[0] = False

        monkeypatch.setattr(ElasticitySolver, "__init__", tracking_init)
        monkeypatch.setattr(inversion, "kohn_vogelius", tracking_evaluate)
        monkeypatch.setattr(
            inversion, "release_free_heap",
            lambda: releases.append((in_evaluation[0], [s() is not None for s in solvers])),
        )
        run = bfgs_minimize(
            InversionConfig(**settings), medium_mesh, crime_measurements, one_region(medium_mesh), np.array([1.0, 1.0])
        )
        assert run.reason == reason
        # one release, outside every evaluation, once the run's solvers (and so their factors) are gone
        assert len(solvers) >= 1 + run.iterations
        assert releases == [(False, [False] * len(solvers))]


class TestGradient:
    def test_stationary_at_truth(self, medium_mesh, field_37, crime_measurements):
        g_lam, g_mu = kv_gradient(field_37, medium_mesh, crime_measurements, 0.0)
        assert max(np.abs(g_lam).max(), np.abs(g_mu).max()) <= 1e-9

    def test_finite_difference_oracle(self, coarse_mesh, loads):
        """Central differences of the functional on random elements."""
        rng = np.random.default_rng(10)
        truth = random_field(coarse_mesh, rng)
        meas = generate_measurements(coarse_mesh, truth, loads)
        field = random_field(coarse_mesh, rng)
        g_lam, g_mu = kv_gradient(field, coarse_mesh, meas, 1e-4)
        step = 1e-6
        # cancellation in J limits what central differences can resolve
        j0 = kohn_vogelius(field, coarse_mesh, meas, 1e-4)[0]
        floor = 20.0 * np.finfo(float).eps * j0 / (2.0 * step)
        for e in rng.choice(coarse_mesh.n_elements, 10, replace=False):
            for arr_name, analytic in (("lam", g_lam[e]), ("mu", g_mu[e])):
                lam, mu = field.lam.copy(), field.mu.copy()
                arr = lam if arr_name == "lam" else mu
                arr[e] += step
                j_plus = kohn_vogelius(LameField(lam, mu), coarse_mesh, meas, 1e-4)[0]
                arr[e] -= 2 * step
                j_minus = kohn_vogelius(LameField(lam, mu), coarse_mesh, meas, 1e-4)[0]
                fd = (j_plus - j_minus) / (2 * step)
                assert abs(fd - analytic) <= 1e-5 * max(abs(analytic), 1e-12) + floor

    def test_regularizer_gradient_exact(self, medium_mesh, field_37, crime_measurements):
        # matched data: the misfit part of the gradient vanishes, leaving rho * field * area
        rho = 0.37
        g_lam, g_mu = kv_gradient(field_37, medium_mesh, crime_measurements, rho)
        area = medium_mesh.element_areas
        assert np.allclose(g_lam, rho * field_37.lam * area, rtol=1e-8)
        assert np.allclose(g_mu, rho * field_37.mu * area, rtol=1e-8)

    def test_permutation_equivariance(self, coarse_mesh, loads):
        rng = np.random.default_rng(12)
        truth = random_field(coarse_mesh, rng)
        meas = generate_measurements(coarse_mesh, truth, loads)
        field = random_field(coarse_mesh, rng)
        g_lam, g_mu = kv_gradient(field, coarse_mesh, meas, 0.0)

        perm = rng.permutation(coarse_mesh.n_elements)
        shuffled = Mesh(
            coarse_mesh.nodes.copy(),
            coarse_mesh.triangles[perm],
            coarse_mesh.boundary_edges.copy(),
            coarse_mesh.clamped.copy(),
        )
        field_p = LameField(field.lam[perm], field.mu[perm])
        truth_p = LameField(truth.lam[perm], truth.mu[perm])
        meas_p = generate_measurements(shuffled, truth_p, loads)
        gl_p, gm_p = kv_gradient(field_p, shuffled, meas_p, 0.0)
        assert np.allclose(gl_p, g_lam[perm], rtol=1e-9, atol=1e-14)
        assert np.allclose(gm_p, g_mu[perm], rtol=1e-9, atol=1e-14)


# the region maps of the constant, per-element and quadrant fields
REGION_MAPS = {
    "one": lambda mesh: np.zeros(mesh.n_elements, dtype=int),
    "element": lambda mesh: np.arange(mesh.n_elements),
    "quadrant": quadrant_regions,
}


class TestRegionParameterization:
    @pytest.mark.parametrize("name", REGION_MAPS)
    def test_roundtrip(self, medium_mesh, name):
        regions = REGION_MAPS[name](medium_mesh)
        param = RegionParameterization(regions, bounds=(0.5, 4.0, 0.5, 8.0))
        assert param.n_regions == {"one": 1, "element": medium_mesh.n_elements, "quadrant": 4}[name]
        x = np.random.default_rng(14).uniform(param.lower, param.upper)
        field = param.to_field(x)
        assert 0.5 <= field.lam.min() and field.lam.max() <= 4.0
        assert 0.5 <= field.mu.min() and field.mu.max() <= 8.0
        # every element of a region carries that region's values
        lam, mu = np.zeros(param.n_regions), np.zeros(param.n_regions)
        lam[regions], mu[regions] = field.lam, field.mu
        assert np.array_equal(np.concatenate([lam, mu]), x)
        assert np.array_equal(field.lam, lam[regions]) and np.array_equal(field.mu, mu[regions])

    @pytest.mark.parametrize(
        "box",
        [(2.0, 1.0, 0.5, 8.0), (0.5, 4.0, 8.0, 0.5), (0.0, 1.0, 0.1, 1.0), (0.5, 4.0, 0.5, 1e7),
         (math.nan, 4.0, 0.5, 8.0), (0.5, 4.0, 0.5, math.inf)],
        ids=["lam-unordered", "mu-unordered", "below", "above", "nan", "inf"],
    )
    def test_box_checked_when_built(self, box):
        """A box must be ordered and lie inside DEFAULT_BOUNDS, which bounds every field; a field
        carries no box of its own."""
        with pytest.raises(ValueError):
            RegionParameterization(np.zeros(3, dtype=int), box)

    @pytest.mark.parametrize("name", REGION_MAPS)
    def test_reduction_is_pairwise_sum(self, medium_mesh, name):
        regions = REGION_MAPS[name](medium_mesh)
        param = RegionParameterization(regions)
        rng = np.random.default_rng(13)
        g_lam = rng.standard_normal(medium_mesh.n_elements)
        g_mu = rng.standard_normal(medium_mesh.n_elements)
        reduced = param.reduce_gradient(g_lam, g_mu)
        if name == "one":
            # ndarray.sum's pairwise order, to the bit
            assert reduced.tolist() == [g_lam.sum(), g_mu.sum()]
        elif name == "element":
            assert np.array_equal(reduced, np.concatenate([g_lam, g_mu]))
        else:
            sums = [g[regions == k].sum() for g in (g_lam, g_mu) for k in range(4)]
            assert np.allclose(reduced, sums, rtol=1e-12, atol=0.0)

    # the per-element gradient is TestGradient's finite-difference oracle
    @pytest.mark.parametrize("name, tol", [("one", 1e-6), ("quadrant", 1e-5)])
    def test_finite_difference(self, coarse_mesh, loads, name, tol):
        """Central differences of J along each coordinate of x."""
        truth = LameField.constant(3.0, 7.0, coarse_mesh.n_elements)
        meas = generate_measurements(coarse_mesh, truth, loads)
        param = RegionParameterization(REGION_MAPS[name](coarse_mesh))
        rng = np.random.default_rng(15)
        x = np.repeat([2.0, 5.0], param.n_regions) + rng.uniform(0.0, 1.0, 2 * param.n_regions)
        g = param.reduce_gradient(*kv_gradient(param.to_field(x), coarse_mesh, meas, 0.0))
        step = 1e-6
        worst = 0.0
        for i in range(len(x)):
            xp, xm = x.copy(), x.copy()
            xp[i] += step
            xm[i] -= step
            fd = (
                kohn_vogelius(param.to_field(xp), coarse_mesh, meas, 0.0)[0]
                - kohn_vogelius(param.to_field(xm), coarse_mesh, meas, 0.0)[0]
            ) / (2 * step)
            worst = max(worst, abs(fd - g[i]) / abs(g[i]))
        assert worst <= tol


class TestBfgs:
    def test_starts_at_truth(self, medium_mesh, crime_measurements):
        param = one_region(medium_mesh)
        config = InversionConfig(max_iterations=50, gradient_tolerance=1e-9)
        run = bfgs_minimize(config, medium_mesh, crime_measurements, param, np.array([3.0, 7.0]))
        assert run.converged
        assert run.iterations <= 1

    def test_recovers_constants(self, medium_mesh, crime_measurements):
        param = one_region(medium_mesh)
        config = InversionConfig(max_iterations=200, gradient_tolerance=1e-11)
        run = bfgs_minimize(config, medium_mesh, crime_measurements, param, np.array([1.0, 1.0]))
        lam, mu = run.final_field.lam[0], run.final_field.mu[0]
        assert abs(lam - 3.0) / 3.0 <= 1e-3
        assert abs(mu - 7.0) / 7.0 <= 1e-3

    def test_monotone_descent(self, medium_mesh, crime_measurements):
        param = one_region(medium_mesh)
        config = InversionConfig(max_iterations=30, gradient_tolerance=1e-13)
        run = bfgs_minimize(config, medium_mesh, crime_measurements, param, np.array([1.0, 1.0]))
        j = np.array(run.j_history)
        assert np.all(np.diff(j) < 0.0)

    def test_deterministic(self, medium_mesh, field_37, loads):
        noisy = generate_measurements(medium_mesh, field_37, loads, NoiseSpec(0.03, 21))
        param = one_region(medium_mesh)
        config = InversionConfig(rho=1e-5, max_iterations=60, gradient_tolerance=1e-11)
        run_a = bfgs_minimize(config, medium_mesh, noisy, param, np.array([1.0, 1.0]))
        run_b = bfgs_minimize(config, medium_mesh, noisy, param, np.array([1.0, 1.0]))
        assert run_a.j_history == run_b.j_history
        assert np.array_equal(run_a.final_field.lam, run_b.final_field.lam)

    def test_projection_box_respected(self, medium_mesh, crime_measurements):
        # the truth (3, 7) lies outside the box, so the iterates run into it
        box = (0.5, 4.0, 0.5, 5.0)
        param = RegionParameterization(np.arange(medium_mesh.n_elements), bounds=box)
        config = InversionConfig(max_iterations=10, gradient_tolerance=1e-13)
        x0 = np.ones(2 * param.n_regions)
        run = bfgs_minimize(config, medium_mesh, crime_measurements, param, x0)
        lam, mu = run.final_field.lam, run.final_field.mu
        assert lam.min() >= box[0] and lam.max() <= box[1]
        assert mu.min() >= box[2] and mu.max() <= box[3]
        assert np.any(mu == box[3])

    @pytest.mark.parametrize(
        "bad",
        [
            {"rho": math.nan},
            {"rho": math.inf},
            {"rho": -1e-4},
            {"gradient_tolerance": math.nan},
            {"gradient_tolerance": 0.0},
            {"max_iterations": -3},
            {"max_iterations": 2.5},
            {"max_iterations": True},
        ],
    )
    def test_invalid_config_rejected(self, bad):
        with pytest.raises(ValueError):
            InversionConfig(**bad)

    def test_infeasible_start_rejected(self, medium_mesh, crime_measurements):
        param = one_region(medium_mesh)
        with pytest.raises(ValueError, match="infeasible"):
            bfgs_minimize(InversionConfig(), medium_mesh, crime_measurements, param, np.array([-1.0, 1.0]))

    @pytest.mark.parametrize("x0", [np.ones(5), np.ones(1), np.ones((2, 1))])
    def test_x0_of_wrong_shape_rejected(self, medium_mesh, crime_measurements, monkeypatch, x0):
        # rejected before the first evaluation, even when no iteration would run
        monkeypatch.setattr(inversion, "kohn_vogelius", lambda *args: pytest.fail("evaluated"))
        param = one_region(medium_mesh)
        with pytest.raises(ValueError, match=r"shape \(2,\)"):
            bfgs_minimize(InversionConfig(max_iterations=0), medium_mesh, crime_measurements, param, x0)


class TestLBfgsMemory:
    def test_push_keeps_the_last_pairs_that_pass_the_curvature_condition(self):
        lbfgs = inversion._LBfgsDirection()
        # s.y < 0, s.y = 0, and 0 < s.y <= CURVATURE_SKIP |s| |y|
        failing = [(np.array([1.0, 0.0]), np.array(y)) for y in ([-1.0, 0.0], [0.0, 1.0], [1e-13, 1.0])]
        for s, y in failing:
            lbfgs.push(s, y)
        assert (len(lbfgs.s), len(lbfgs.y)) == (0, 0)
        accepted = [(np.array([1.0, float(k)]), np.array([1.0, 0.0])) for k in range(inversion.LBFGS_MEMORY + 3)]
        for s, y in accepted:
            lbfgs.push(s, y)
        for s, y in failing:
            lbfgs.push(s, y)
        # the last LBFGS_MEMORY accepted pairs, oldest first
        kept = accepted[3:]
        assert [id(s) for s in lbfgs.s] == [id(s) for s, _ in kept]
        assert [id(y) for y in lbfgs.y] == [id(y) for _, y in kept]


class TestStopping:
    """Why a run ends: the noise floor, a projected gradient, or a failed restart."""

    @pytest.fixture
    def noisy(self, medium_mesh, field_37, loads):
        return generate_measurements(medium_mesh, field_37, loads, NoiseSpec(0.03, 21))

    def test_noise_floor_stop_is_a_prefix(self, medium_mesh, noisy):
        param = one_region(medium_mesh)
        config = InversionConfig(rho=1e-5, max_iterations=60, gradient_tolerance=1e-11)
        full = bfgs_minimize(config, medium_mesh, noisy, param, np.array([1.0, 1.0]))
        assert full.reason != "noise floor reached" and full.iterations > 6
        target = full.j_history[5]
        stopped = bfgs_minimize(dataclasses.replace(config, target_j=target), medium_mesh, noisy, param, np.array([1.0, 1.0]))
        assert stopped.reason == "noise floor reached" and not stopped.converged
        # the first iterate at or below the target ends the run; nothing else changes
        first = next(i for i, j in enumerate(full.j_history) if j <= target)
        assert stopped.j_history == full.j_history[: first + 1]
        assert stopped.step_history == full.step_history[:first]

    def test_noise_floor_at_the_start(self, medium_mesh, noisy):
        param = one_region(medium_mesh)
        config = InversionConfig(max_iterations=60, target_j=math.inf)
        run = bfgs_minimize(config, medium_mesh, noisy, param, np.array([1.0, 1.0]))
        assert (run.iterations, run.reason, run.converged) == (0, "noise floor reached", False)

    def test_projected_gradient_stops_at_an_active_bound(self, medium_mesh, crime_measurements):
        # the truth (3, 7) lies beyond the corner (4, 5) of the box, where J's
        # gradient points out of the box in both coordinates
        param = RegionParameterization(np.zeros(medium_mesh.n_elements, dtype=int), bounds=(0.5, 4.0, 0.5, 5.0))
        config = InversionConfig(max_iterations=50, gradient_tolerance=1e-10)
        run = bfgs_minimize(config, medium_mesh, crime_measurements, param, np.array([1.0, 1.0]))
        assert (run.reason, run.converged) == ("gradient tolerance reached", True)
        assert (run.final_field.lam[0], run.final_field.mu[0]) == (4.0, 5.0)
        assert run.grad_history[-1] == 0.0
        g = param.reduce_gradient(*kv_gradient(run.final_field, medium_mesh, crime_measurements))
        assert np.all(g < -1e-3)

    def test_stale_direction_restarts_from_steepest_descent(self, medium_mesh, crime_measurements, monkeypatch):
        param = one_region(medium_mesh)
        config = InversionConfig(max_iterations=6, gradient_tolerance=1e-13)
        memories, init = [], inversion._LBfgsDirection.__init__

        def counting_init(self):
            memories.append(None)
            init(self)

        monkeypatch.setattr(inversion._LBfgsDirection, "__init__", counting_init)
        # with a curvature pair stored, a direction too short to move x finds
        # no Armijo step, and an ascent direction is no descent direction
        stale = {
            "too-short": lambda self, g: 1e-300 * g if self.s else g.copy(),
            "ascent": lambda self, g: -g if self.s else g.copy(),
        }
        restarted = {}
        for name, apply in stale.items():
            monkeypatch.setattr(inversion._LBfgsDirection, "apply", apply)
            memories.clear()
            restarted[name] = bfgs_minimize(config, medium_mesh, crime_measurements, param, np.array([1.0, 1.0]))
            # one memory at the start, and a new one for each step after the first
            assert len(memories) == 1 + 5, name
        monkeypatch.setattr(inversion, "LBFGS_MEMORY", 0)
        steepest = bfgs_minimize(config, medium_mesh, crime_measurements, param, np.array([1.0, 1.0]))
        for name, run in restarted.items():
            assert (run.iterations, run.reason) == (6, "max iterations reached"), name
            assert run.j_history == steepest.j_history, name

    @pytest.mark.parametrize("accepted", [0, 1], ids=["first-step", "after-a-step"])
    def test_line_search_fails_after_the_steepest_descent_retry(
        self, medium_mesh, crime_measurements, monkeypatch, accepted
    ):
        param = one_region(medium_mesh)
        x0 = np.array([1.0, 1.0])
        calls, memories, limit = [], [], [math.inf]
        evaluate, init = inversion.kohn_vogelius, inversion._LBfgsDirection.__init__

        def capped_evaluate(*args):
            calls.append(None)
            j, g_lam, g_mu = evaluate(*args)
            return (j if len(calls) <= limit[0] else math.inf), g_lam, g_mu

        def counting_init(self):
            memories.append(len(calls))
            init(self)

        monkeypatch.setattr(inversion, "kohn_vogelius", capped_evaluate)
        # after the evaluations of the first `accepted` steps, J rejects every trial point
        bfgs_minimize(InversionConfig(max_iterations=accepted), medium_mesh, crime_measurements, param, x0)
        limit[0] = len(calls)
        calls.clear()
        monkeypatch.setattr(inversion._LBfgsDirection, "__init__", counting_init)
        run = bfgs_minimize(InversionConfig(max_iterations=10), medium_mesh, crime_measurements, param, x0)
        assert (run.iterations, run.reason) == (accepted, "line search failed")
        if accepted:
            # the L-BFGS search failed, the memory was dropped, and the
            # steepest-descent retry evaluated trial points of its own
            assert len(memories) == 2 and memories[1] < len(calls)
        else:
            # the first direction is steepest descent already: no retry
            assert len(memories) == 1 and len(calls) <= 1 + inversion.MAX_BACKTRACKS


# the program's two default clamped arcs: lower half circle, upper-left quarter
TRANSFER_ARCS = [(math.pi, 2.0 * math.pi), (math.pi / 2.0, math.pi)]


@functools.lru_cache(maxsize=None)
def _arc_mesh(h, arc):
    return partition_boundary(generate_disk_mesh(h), BoundaryPartitionSpec(*arc))


class TestTraceTransfer:
    def test_same_mesh_is_identity(self, loads):
        """Bit for bit, signs of zero included, on both default arcs and a
        wrapping one, noise-free and noisy: np.interp returns the sample
        itself at its own abscissae, so every reconstruction row may move its
        traces onto the inversion mesh, one mesh or two."""
        for h, arc, eps in itertools.product([0.3, 0.2, 0.16, 0.08], [*TRANSFER_ARCS, (5.0, 7.0)], [0.0, 0.03]):
            mesh = _arc_mesh(h, arc)
            field = LameField.constant(3.0, 7.0, mesh.n_elements)
            for _, f in generate_measurements(mesh, field, loads, NoiseSpec(eps, 1)).pairs:
                moved = transfer_trace(mesh, f, mesh)
                assert np.array_equal(moved, f) and np.array_equal(np.signbit(moved), np.signbit(f)), (h, arc, eps)

    def test_refined_to_coarse_is_close(self, medium_mesh, fine_mesh, loads):
        field_fine = LameField.constant(3.0, 7.0, fine_mesh.n_elements)
        field_med = LameField.constant(3.0, 7.0, medium_mesh.n_elements)
        f_fine = generate_measurements(fine_mesh, field_fine, [loads[0]]).pairs[0][1]
        f_med = generate_measurements(medium_mesh, field_med, [loads[0]]).pairs[0][1]
        moved = transfer_trace(fine_mesh, f_fine, medium_mesh)
        scale = np.abs(f_med).max()
        assert np.abs(moved - f_med).max() <= 0.1 * scale  # discretization-level agreement


def _arc_angle(mesh, arc, nodes):
    """Angle of nodes counted from the middle of the clamped arc, so that the
    whole Neumann arc, interface nodes included, is one increasing stretch."""
    x, y = mesh.nodes[nodes].T
    return np.mod(np.arctan2(y, x) - 0.5 * (arc[0] + arc[1]), 2.0 * math.pi)


def _beyond_span(data_mesh, f, target_mesh, arc):
    """(target row, nearest source value) of every target Neumann node
    outside the angular span of the data mesh's Neumann nodes."""
    src = _arc_angle(data_mesh, arc, data_mesh.neumann_nodes)
    tgt = _arc_angle(target_mesh, arc, target_mesh.neumann_nodes)
    first, last = np.argmin(src), np.argmax(src)
    rows = [(k, f[first]) for k in np.flatnonzero(tgt < src[first])]
    return rows + [(k, f[last]) for k in np.flatnonzero(tgt > src[last])]


def reference_transfer_trace(data_mesh, f, target_mesh):
    """The arc-by-arc transfer that transfer_trace replaced: the angle past
    the first interface node of the Neumann edge chain, over the arc's nodes
    padded with zeros at the two interface nodes, sorted."""
    a, b = data_mesh.neumann_edges.T
    x0, y0 = data_mesh.nodes[np.setdiff1d(a, b)[0]]
    start = math.atan2(y0, x0)

    def arc_angle(mesh, nodes):
        x, y = mesh.nodes[nodes].T
        return np.mod(np.arctan2(y, x) - start, 2.0 * np.pi)

    arc_nodes = np.unique(data_mesh.neumann_edges)
    values = np.zeros((len(arc_nodes), 2))
    values[np.searchsorted(arc_nodes, data_mesh.neumann_nodes)] = f
    src = arc_angle(data_mesh, arc_nodes)
    order = np.argsort(src)
    tgt = arc_angle(target_mesh, target_mesh.neumann_nodes)
    return np.column_stack([np.interp(tgt, src[order], values[order, c]) for c in (0, 1)])


class TestTraceTransferMatchesReference:
    @pytest.mark.parametrize("arc", [*TRANSFER_ARCS, (0.3, 2.0), (5.0, 7.0)])
    def test_random_traces(self, arc):
        """The periodic interpolation over the whole boundary ring agrees with
        the arc-by-arc reference up to rounding, also where the Neumann arc
        wraps through angle 0 (the upper-left default arc and (5.0, 7.0))."""
        rng = np.random.default_rng(2024)
        hs = [0.3, 0.2, 0.15, 0.1, 0.075]
        for h_data, h_target in itertools.product(hs, hs):
            data_mesh, target_mesh = _arc_mesh(h_data, arc), _arc_mesh(h_target, arc)
            f = rng.standard_normal((len(data_mesh.neumann_nodes), 2))
            moved = transfer_trace(data_mesh, f, target_mesh)
            expected = reference_transfer_trace(data_mesh, f, target_mesh)
            assert np.abs(moved - expected).max() <= 1e-13 * np.abs(f).max(), (h_data, h_target)


class TestTraceTransferAcrossClampedArc:
    @pytest.mark.parametrize("arc", TRANSFER_ARCS)
    @given(
        h_data=st.sampled_from([0.3, 0.2, 0.15, 0.1, 0.075]),
        h_target=st.sampled_from([0.3, 0.25, 0.15, 0.12, 0.1]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_values_beyond_source_span_fall_to_zero(self, arc, h_data, h_target, seed):
        data_mesh, target_mesh = _arc_mesh(h_data, arc), _arc_mesh(h_target, arc)
        f = np.random.default_rng(seed).standard_normal((len(data_mesh.neumann_nodes), 2))
        moved = transfer_trace(data_mesh, f, target_mesh)
        for k, nearest in _beyond_span(data_mesh, f, target_mesh, arc):
            lo, hi = np.minimum(nearest, 0.0), np.maximum(nearest, 0.0)
            assert np.all((lo <= moved[k]) & (moved[k] <= hi)), (k, moved[k], nearest)

    def test_refined_data_mesh_at_h_015(self):
        """The inversion mesh's last Neumann node lies past the data mesh's;
        there the data mesh's trace runs linearly to 0 at its interface node."""
        arc = TRANSFER_ARCS[0]
        data_mesh, target_mesh = _arc_mesh(0.075, arc), _arc_mesh(0.15, arc)
        f = np.ones((len(data_mesh.neumann_nodes), 2))
        f[:, 1] = -2.0
        moved = transfer_trace(data_mesh, f, target_mesh)
        src = _arc_angle(data_mesh, arc, data_mesh.neumann_nodes)
        tgt = _arc_angle(target_mesh, arc, target_mesh.neumann_nodes)
        k = int(np.argmax(tgt))
        assert [row for row, _ in _beyond_span(data_mesh, f, target_mesh, arc)] == [k]
        # the interface node ending the data mesh's Neumann edge chain
        a, b = data_mesh.neumann_edges.T
        interface = _arc_angle(data_mesh, arc, np.setdiff1d(b, a))[0]
        assert src.max() < tgt[k] < interface
        expected = (interface - tgt[k]) / (interface - src.max()) * np.array([1.0, -2.0])
        assert np.allclose(moved[k], expected, rtol=1e-12, atol=0.0)
