import math

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from elastinv import fem, ntd
from elastinv.experiments import ExperimentConfig, run_experiment
from elastinv.fem import ElasticitySolver, FemError, LameField, SurfaceLoad, load_coefficients, strain_energy_density
from elastinv.mesh import BoundaryPartitionSpec, generate_disk_mesh, partition_boundary
from elastinv.ntd import (
    ORDER_TOL,
    QUADRANT_BOUNDS,
    OrderedPair,
    OrderError,
    build_ntd,
    loewner_gap,
    monotonicity_sandwich,
    operator_distance,
    parameter_distance,
    quadrant_pair,
)
from conftest import interior_energy, random_field


def ntd_of(mesh, field):
    return build_ntd(ElasticitySolver(mesh, field))


def solvers(mesh, *fields):
    return [ElasticitySolver(mesh, field) for field in fields]


def pairing(solver, L, g):
    """M-weighted pairing <g, L g>, M the boundary mass of the solver's mesh."""
    return float(g @ (solver.disc.boundary_mass @ (L @ g)))


def sandwich(mesh, field_1, field_2, g):
    """The sandwich terms of one load for the tensors of field_1 and field_2."""
    s1, s2 = ElasticitySolver(mesh, field_1), ElasticitySolver(mesh, field_2)
    return monotonicity_sandwich(s1, s2, [g])[0]

# frozen from one evaluation on the h=0.2 mesh, default partition
SANDWICH_37_VS_11_G1 = (0.32482372998369874, 0.05017675129612491, 0.007865575523244772)
OPDIST_37_VS_11 = 1.5371237902768802


def test_build_deterministic(medium_mesh, field_37):
    a = ntd_of(medium_mesh, field_37)
    b = ntd_of(medium_mesh, field_37)
    assert a.shape == (2 * len(medium_mesh.neumann_nodes),) * 2
    assert np.array_equal(a, b)


def test_self_adjointness(medium_mesh, field_37):
    solver = ElasticitySolver(medium_mesh, field_37)
    A = solver.disc.boundary_mass @ build_ntd(solver)
    assert np.abs(A - A.T).max() / np.abs(A).max() <= 1e-10


def test_energy_identity_random_loads(medium_mesh, field_37):
    solver = ElasticitySolver(medium_mesh, field_37)
    L = build_ntd(solver)
    rng = np.random.default_rng(5)
    for _ in range(10):
        g = rng.standard_normal(2 * len(medium_mesh.neumann_nodes))
        u = solver.solve_neumann(g[:, None])[:, 0]
        boundary = pairing(solver, L, g)
        energy = interior_energy(solver, u)
        assert abs(boundary - energy) <= 1e-10 * abs(energy)
        assert boundary >= 0.0


def test_field_scaling_inverts_operator(medium_mesh, field_37):
    L = ntd_of(medium_mesh, field_37)
    scaled = ntd_of(medium_mesh, LameField.constant(7.5, 17.5, medium_mesh.n_elements))
    assert np.allclose(scaled * 2.5, L, rtol=1e-12)


def test_block_build_equals_columns(medium_mesh):
    field = random_field(medium_mesh, np.random.default_rng(12))
    L = ntd_of(medium_mesh, field)
    solver = ElasticitySolver(medium_mesh, field)
    m = len(medium_mesh.neumann_nodes)
    for j in range(2 * m):
        g = np.zeros((2 * m, 1))
        g[j] = 1.0
        col = solver.solve_neumann(g)[solver.disc.trace_dofs, 0]
        assert np.abs(L[:, j] - col).max() <= 1e-13 * np.abs(col).max()


def reference_build_ntd(solver):
    """The NtD matrix column by column: the trace of the traction solve of
    each nodal hat load, the loads solved 24 columns at a time."""
    disc = solver.disc
    coeffs = np.eye(len(disc.trace_dofs))
    traces = np.empty_like(coeffs)
    for start in range(0, coeffs.shape[1], 24):
        cols = slice(start, start + 24)
        traces[:, cols] = solver.solve_neumann(coeffs[:, cols])[disc.trace_dofs]
    return traces


LOWER_HALF, UPPER_LEFT = (math.pi, 2.0 * math.pi), (math.pi / 2.0, math.pi)


def arc_mesh(arc, target_h=0.16):
    return partition_boundary(generate_disk_mesh(target_h), BoundaryPartitionSpec(*arc))


@pytest.mark.parametrize(
    "arc, target_h, n_loads",
    [(LOWER_HALF, 0.16, 36), (LOWER_HALF, 0.08, 72), (UPPER_LEFT, 0.16, 54), (UPPER_LEFT, 0.08, 112),
     ((0.3, 5.0), 0.16, 18), ((0.3, 5.0), 0.08, 36), ((5.0, 7.0), 0.16, 50), ((5.0, 7.0), 0.08, 100)],
    ids=["lower-half-0.16", "lower-half-0.08", "upper-left-0.16", "upper-left-0.08",
         "wide-0.16", "wide-0.08", "across-zero-0.16", "across-zero-0.08"],
)
def test_trailing_block_matches_hat_load_solves(arc, target_h, n_loads):
    """The matrix off the trace-last factor's trailing block is the hat loads'
    traces to rounding: 2.1e-15 and 4.3e-15 relative on the lower half at
    h=0.16 and 0.08, 8.4e-15 and 3.5e-14 on the upper left, 9.9e-16 and
    1.3e-15 on the clamped arc (0.3, 5.0), 2.8e-15 and 1.6e-14 on (5.0, 7.0).
    A narrow clamped arc such as (1.0, 1.6) is left out: its conditioning,
    not the order, sets its error (2.8e-13 at h=0.08 in the interior block's
    order with the trace last)."""
    mesh = arc_mesh(arc, target_h)
    assert 2 * len(mesh.neumann_nodes) == n_loads
    field = random_field(mesh, np.random.default_rng(13))
    L = ntd_of(mesh, field)
    reference = reference_build_ntd(ElasticitySolver(mesh, field))
    assert np.abs(L - reference).max() <= 2e-13 * np.abs(reference).max()


def test_permuted_factor_rejected(monkeypatch):
    """A factor whose column order is not the given one no longer ends in the trace."""
    def permuted(K):
        return spla.splu(K.T, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, options={"SymmetricMode": True})

    mesh = arc_mesh(LOWER_HALF)
    solver = ElasticitySolver(mesh, random_field(mesh, np.random.default_rng(13)))
    monkeypatch.setattr(fem, "_factor_spd", permuted)
    with pytest.raises(FemError, match="permuted"):
        build_ntd(solver)


@pytest.mark.parametrize("delta", [1e-6, 1e-10])
def test_factor_of_another_block_rejected_by_the_probe(monkeypatch, delta):
    """A factor of K (1 + delta) gives a matrix off by about delta, while the
    probe's solve, judged against K itself, passes its backward-error check."""
    factor_spd = fem._factor_spd
    mesh = arc_mesh(UPPER_LEFT)
    solver = ElasticitySolver(mesh, random_field(mesh, np.random.default_rng(13)))
    monkeypatch.setattr(fem, "_factor_spd", lambda K: factor_spd(K * (1.0 + delta)))
    with pytest.raises(FemError, match="misses its probe"):
        build_ntd(solver)


def contrast_field(mesh, rng):
    """Per-element lam and mu, log-uniform over 1e-2 to 1e2."""
    return LameField(*10.0 ** rng.uniform(-2.0, 2.0, (2, mesh.n_elements)))


@pytest.mark.parametrize("target_h", [0.16, 0.08])
@pytest.mark.parametrize("arc", [LOWER_HALF, UPPER_LEFT], ids=["lower-half", "upper-left"])
def test_traction_solves_reuse_the_ntd_factor(monkeypatch, arc, target_h):
    """After build_ntd a solver's traction solves go through its trace-last
    factor: one splu call serves both, their displacements are a fresh
    solver's free-block ones to rounding (at most 2.2e-13 relative over five
    seeds), and prescribed-trace solves keep their bits."""
    mesh = arc_mesh(arc, target_h)
    rng = np.random.default_rng(33)
    field = contrast_field(mesh, rng)
    loads, traces = rng.standard_normal((2, 2 * len(mesh.neumann_nodes), 4))
    fresh = ElasticitySolver(mesh, field)
    reference, dirichlet = fresh.solve_neumann(loads), fresh.solve_dirichlet(traces)
    calls = []
    splu = fem.spla.splu

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return splu(*args, **kwargs)

    monkeypatch.setattr(fem.spla, "splu", counting)
    solver = ElasticitySolver(mesh, field)
    build_ntd(solver)
    U = solver.solve_neumann(loads)
    assert calls == [solver.trace_last.K.shape]
    assert "factor" not in vars(solver.free)
    assert np.abs(U - reference).max() <= 1e-12 * np.abs(reference).max()
    assert np.array_equal(solver.solve_dirichlet(traces), dirichlet)


def test_failed_solve_through_the_ntd_factor_raises(monkeypatch):
    """A traction solve through a kept trace-last factor that is not the
    block's own fails its backward-error check, as build_ntd's probe does,
    and does not fall back to factoring the free block."""
    factor_spd = fem._factor_spd
    mesh = arc_mesh(UPPER_LEFT)
    solver = ElasticitySolver(mesh, random_field(mesh, np.random.default_rng(13)))
    monkeypatch.setattr(fem, "_factor_spd", lambda K: factor_spd(K * 1.01))
    with pytest.raises(FemError, match="linear solve failed"):
        build_ntd(solver)
    monkeypatch.undo()
    with pytest.raises(FemError, match="linear solve failed"):
        solver.solve_neumann(np.ones((len(solver.disc.trace_dofs), 1)))
    assert "factor" not in vars(solver.free)


@pytest.mark.parametrize("missing_rows, bad", [(0, np.nan), (0, np.inf), (1, 0.0)], ids=["nan", "inf", "short"])
def test_solver_holding_the_ntd_factor_refuses_a_bad_load_block(missing_rows, bad):
    """Both solves still check their block before the kept factor is used."""
    mesh = arc_mesh(LOWER_HALF)
    solver = ElasticitySolver(mesh, random_field(mesh, np.random.default_rng(13)))
    build_ntd(solver)
    block = np.ones((len(solver.disc.trace_dofs) - missing_rows, 2))
    block[0, 1] = bad
    with pytest.raises(FemError, match="load coefficients"):
        solver.solve_neumann(block)
    with pytest.raises(FemError, match="trace data"):
        solver.solve_dirichlet(block)


class TestOrderedPair:
    def test_unordered_rejected(self, medium_mesh, field_37, field_11):
        mixed = LameField.constant(5.0, 0.5, medium_mesh.n_elements)
        with pytest.raises(OrderError):
            OrderedPair(field_37, mixed)


class TestSandwich:
    def test_identical_fields_vanish(self, medium_mesh, field_37):
        lhs, mid, rhs = sandwich(medium_mesh, field_37, field_37, SurfaceLoad(constant=(0.1, 0.1)))
        assert max(abs(lhs), abs(mid), abs(rhs)) <= 1e-12

    def test_frozen_values(self, medium_mesh, field_37, field_11):
        lhs, mid, rhs = sandwich(medium_mesh, field_37, field_11, SurfaceLoad(constant=(0.1, 0.1)))
        assert lhs >= mid >= rhs
        assert min(lhs - mid, mid - rhs) > 0.0
        expected = SANDWICH_37_VS_11_G1
        assert np.allclose((lhs, mid, rhs), expected, rtol=1e-9)

    def test_swap_negates_middle(self, medium_mesh, field_37, field_11):
        g = SurfaceLoad(constant=(0.2, 0.1))
        _, mid_ab, _ = sandwich(medium_mesh, field_37, field_11, g)
        lhs_ba, mid_ba, rhs_ba = sandwich(medium_mesh, field_11, field_37, g)
        assert np.isclose(mid_ba, -mid_ab, rtol=1e-12)
        assert lhs_ba >= mid_ba >= rhs_ba  # inequality holds in either labeling


@pytest.mark.filterwarnings("error")  # numpy's overflow warnings would print before the solver failure
def test_overflowing_sandwich_raises(medium_mesh, field_37, field_11):
    """Finite loads whose energies overflow: no term of -inf or NaN, which
    would pass the sandwich check, since NaN compares false."""
    with pytest.raises(FemError, match="not finite"):
        sandwich(medium_mesh, field_11, field_37, SurfaceLoad(constant=(1e160, -1.0)))


def reference_sandwich(s1, s2, g):
    """The sandwich terms of one load, computed load by load: the two
    (C1 - C2)-weighted energies and the difference of the two pairings."""
    disc, coeffs = s1.disc, load_coefficients(s1.mesh, [g])
    u1, u2 = s1.solve_neumann(coeffs)[:, 0], s2.solve_neumann(coeffs)[:, 0]
    dlam, dmu = s1.field.lam - s2.field.lam, s1.field.mu - s2.field.mu
    lhs, rhs = (float(disc.area @ strain_energy_density(dlam, dmu, *disc.strains(u[:, None]))[0]) for u in (u2, u1))
    g, M = coeffs[:, 0], disc.boundary_mass
    return lhs, float(g @ (M @ u2[disc.trace_dofs])) - float(g @ (M @ u1[disc.trace_dofs])), rhs


def test_sandwich_block_equals_per_load(medium_mesh, field_37, field_11):
    """The block pass over all loads agrees with one call per load and with
    the load-by-load reference; only the summation order differs."""
    field = random_field(medium_mesh, np.random.default_rng(37))
    loads = [SurfaceLoad(constant=(0.1, 0.1)), SurfaceLoad(constant=(0.3, 0.5)), SurfaceLoad(constant=(-0.2, 0.4))]
    for f1, f2 in ((field_11, field_37), (field_11, field)):
        s1, s2 = ElasticitySolver(medium_mesh, f1), ElasticitySolver(medium_mesh, f2)
        block = monotonicity_sandwich(s1, s2, loads)
        for terms, g in zip(block, loads):
            assert np.allclose(terms, sandwich(medium_mesh, f1, f2, g), rtol=1e-12, atol=0.0)
            assert np.allclose(terms, reference_sandwich(s1, s2, g), rtol=1e-12, atol=0.0)


class TestLoewner:
    def test_identical_fields(self, medium_mesh, field_37):
        solver = ElasticitySolver(medium_mesh, field_37)
        assert abs(loewner_gap(solver, solver)) <= 1e-10

    def test_constant_pair(self, medium_mesh, field_37, field_11):
        gap = loewner_gap(*solvers(medium_mesh, field_11, field_37))
        assert gap >= -1e-10

    def test_random_ordered_pairs(self, coarse_mesh):
        rng = np.random.default_rng(11)
        for _ in range(20):
            pair = quadrant_pair(coarse_mesh, rng)
            gap = loewner_gap(*solvers(coarse_mesh, pair.field_1, pair.field_2))
            assert gap >= -1e-8


class TestOperatorDistance:
    def test_identical_fields_zero(self, medium_mesh, field_37):
        solver = ElasticitySolver(medium_mesh, field_37)
        assert operator_distance(solver, solver) <= 1e-12

    def test_symmetry_and_frozen_value(self, medium_mesh, field_37, field_11):
        s1, s2 = solvers(medium_mesh, field_11, field_37)
        d12 = operator_distance(s1, s2)
        d21 = operator_distance(s2, s1)
        assert np.isclose(d12, d21, rtol=1e-12)
        assert np.isclose(d12, OPDIST_37_VS_11, rtol=1e-9)

    def test_parameter_distance(self, field_37, field_11):
        assert parameter_distance(field_37, field_11) == 6.0
        assert parameter_distance(field_11, field_37) == 6.0

    def test_quadratic_form_bounded_by_norm(self, medium_mesh, field_37, field_11):
        s1, s2 = solvers(medium_mesh, field_11, field_37)
        L1, L2 = build_ntd(s1), build_ntd(s2)
        dist = operator_distance(s1, s2)
        rng = np.random.default_rng(6)
        for _ in range(10):
            g = rng.standard_normal(L1.shape[0])
            num = abs(pairing(s1, L1, g) - pairing(s2, L2, g))
            den = g @ (s1.disc.boundary_mass @ g)
            assert num / den <= dist * (1 + 1e-10)


class TestStabilityExperiment:
    def test_identical_pair_skipped(self, monkeypatch, field_37):
        monkeypatch.setattr(ntd, "quadrant_pair", lambda mesh, rng: OrderedPair(field_37, field_37))
        rep = run_experiment(ExperimentConfig(kind="stability", target_h=0.2, n_pairs=1)).report
        assert rep["skipped"] == 1
        assert rep["ratios"] == []
        assert rep["max_ratio"] is None

    def test_quadrant_family(self):
        # the pairs of quadrant_pair(coarse_mesh, default_rng(7)), drawn on the runner's mesh
        rep = run_experiment(ExperimentConfig(kind="stability", target_h=0.25, seed=7, n_pairs=10)).report
        assert len(rep["ratios"]) == 10
        assert all(np.isfinite(r) and r > 0 for r in rep["ratios"])
        # distinguishability: distinct ordered parameters give distinct operators
        assert all(d > 0 for d in rep["operator_distances"])

    @pytest.mark.parametrize("seed", [0, 7, 104, 2024])
    def test_quadrant_pair_keeps_its_draws(self, medium_mesh, seed):
        """The pairs of the per-quadrant draw that quadrant_pair was first written with."""
        assert QUADRANT_BOUNDS == (0.5, 4.0, 0.5, 8.0)
        a, b, c, d = QUADRANT_BOUNDS
        cx, cy = medium_mesh.element_centroids.T
        quadrant = (cx < 0).astype(int) * 2 + (cy < 0).astype(int)
        ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)

        def draw():
            lam_q = ref_rng.uniform(a, b, size=4)
            mu_q = ref_rng.uniform(c, d, size=4)
            return lam_q[quadrant], mu_q[quadrant]

        for _ in range(3):
            lam_a, mu_a = draw()
            lam_b, mu_b = draw()
            pair = quadrant_pair(medium_mesh, rng)
            assert np.array_equal(pair.field_1.lam, np.minimum(lam_a, lam_b))
            assert np.array_equal(pair.field_1.mu, np.minimum(mu_a, mu_b))
            assert np.array_equal(pair.field_2.lam, np.maximum(lam_a, lam_b))
            assert np.array_equal(pair.field_2.mu, np.maximum(mu_a, mu_b))
            for field in (pair.field_1, pair.field_2):
                assert a <= field.lam.min() and field.lam.max() <= b
                assert c <= field.mu.min() and field.mu.max() <= d

    def test_quadrant_pair_is_ordered(self, coarse_mesh):
        rng = np.random.default_rng(8)
        for _ in range(5):
            pair = quadrant_pair(coarse_mesh, rng)
            assert np.all(pair.field_1.lam <= pair.field_2.lam)
            assert np.all(pair.field_1.mu <= pair.field_2.mu)
