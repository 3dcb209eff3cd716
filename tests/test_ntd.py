import numpy as np
import pytest

from elastinv.fem import ElasticitySolver, LameField, SurfaceLoad
from elastinv.mesh import generate_disk_mesh
from elastinv.ntd import (
    ORDER_TOL,
    OrderedPair,
    OrderError,
    build_ntd,
    loewner_gap,
    monotonicity_sandwich,
    operator_distance,
    parameter_distance,
    quadrant_pair,
    sandwich_from_solvers,
    stability_ratio_experiment,
)
from conftest import random_field

# frozen from one evaluation on the h=0.2 mesh, default partition
SANDWICH_37_VS_11_G1 = (0.32482372998369874, 0.05017675129612491, 0.007865575523244772)
OPDIST_37_VS_11 = 1.5371237902768802


def test_build_deterministic(medium_mesh, field_37):
    a = build_ntd(medium_mesh, field_37)
    b = build_ntd(medium_mesh, field_37)
    assert np.array_equal(a.matrix, b.matrix)
    assert np.array_equal(a.boundary_mass, b.boundary_mass)


def test_self_adjointness(medium_mesh, field_37):
    assert build_ntd(medium_mesh, field_37).symmetry_defect() <= 1e-10


def test_energy_identity_random_loads(medium_mesh, field_37):
    op = build_ntd(medium_mesh, field_37)
    solver = ElasticitySolver(medium_mesh, field_37)
    rng = np.random.default_rng(5)
    for _ in range(10):
        g = rng.standard_normal((len(medium_mesh.neumann_nodes), 2))
        sol = solver.solve_neumann(SurfaceLoad(nodal=g))
        pairing = op.pairing(g.ravel())
        energy = solver.interior_energy(sol)
        assert abs(pairing - energy) <= 1e-10 * abs(energy)
        assert pairing >= 0.0


def test_field_scaling_inverts_operator(medium_mesh, field_37):
    op = build_ntd(medium_mesh, field_37)
    scaled = build_ntd(
        medium_mesh, LameField.constant(7.5, 17.5, medium_mesh.n_elements)
    )
    assert np.allclose(scaled.matrix * 2.5, op.matrix, rtol=1e-12)


def test_custom_basis_columns(medium_mesh, field_37):
    loads = [SurfaceLoad(constant=(0.1, 0.1)), SurfaceLoad(constant=(0.0, 0.2))]
    probe = build_ntd(medium_mesh, field_37, basis=loads)
    solver = ElasticitySolver(medium_mesh, field_37)
    for j, g in enumerate(loads):
        trace = solver.solve_neumann(g).trace_on_neumann.ravel()
        assert np.array_equal(probe.matrix[:, j], trace)


def test_block_build_equals_columns(medium_mesh):
    field = random_field(medium_mesh, np.random.default_rng(12))
    op = build_ntd(medium_mesh, field)
    solver = ElasticitySolver(medium_mesh, field)
    m = len(medium_mesh.neumann_nodes)
    for j in range(2 * m):
        g = np.zeros((m, 2))
        g[j // 2, j % 2] = 1.0
        col = solver.solve_neumann(SurfaceLoad(nodal=g)).trace_on_neumann.ravel()
        assert np.abs(op.matrix[:, j] - col).max() <= 1e-13 * np.abs(col).max()


class TestOrderedPair:
    def test_unordered_rejected(self, medium_mesh, field_37, field_11):
        mixed = LameField.constant(5.0, 0.5, medium_mesh.n_elements)
        with pytest.raises(OrderError):
            OrderedPair(field_37, mixed, "LEQ")

    def test_ascending(self, field_37, field_11):
        pair = OrderedPair(field_37, field_11, "GEQ")
        lo, hi = pair.ascending()
        assert lo is field_11 and hi is field_37


class TestSandwich:
    def test_identical_fields_vanish(self, medium_mesh, field_37):
        pair = OrderedPair(field_37, field_37, "LEQ")
        lhs, mid, rhs = monotonicity_sandwich(
            medium_mesh, pair, SurfaceLoad(constant=(0.1, 0.1))
        )
        assert max(abs(lhs), abs(mid), abs(rhs)) <= 1e-12

    def test_frozen_values(self, medium_mesh, field_37, field_11):
        pair = OrderedPair(field_37, field_11, "GEQ")
        lhs, mid, rhs = monotonicity_sandwich(
            medium_mesh, pair, SurfaceLoad(constant=(0.1, 0.1))
        )
        assert lhs >= mid >= rhs
        assert min(lhs - mid, mid - rhs) > 0.0
        expected = SANDWICH_37_VS_11_G1
        assert np.allclose((lhs, mid, rhs), expected, rtol=1e-9)

    def test_swap_negates_middle(self, medium_mesh, field_37, field_11):
        g = SurfaceLoad(constant=(0.2, 0.1))
        _, mid_ab, _ = monotonicity_sandwich(
            medium_mesh, OrderedPair(field_37, field_11, "GEQ"), g
        )
        lhs_ba, mid_ba, rhs_ba = monotonicity_sandwich(
            medium_mesh, OrderedPair(field_11, field_37, "LEQ"), g
        )
        assert np.isclose(mid_ba, -mid_ab, rtol=1e-12)
        assert lhs_ba >= mid_ba >= rhs_ba  # inequality holds in either labeling


def test_sandwich_block_equals_per_load(medium_mesh, field_37, field_11):
    loads = [SurfaceLoad(constant=(0.1, 0.1)), SurfaceLoad(constant=(0.3, 0.5))]
    pair = OrderedPair(field_11, field_37, "LEQ")
    block = sandwich_from_solvers(
        ElasticitySolver(medium_mesh, field_11), ElasticitySolver(medium_mesh, field_37), loads
    )
    for terms, g in zip(block, loads):
        assert np.allclose(terms, monotonicity_sandwich(medium_mesh, pair, g), rtol=1e-12, atol=0.0)


class TestLoewner:
    def test_identical_fields(self, medium_mesh, field_37):
        op = build_ntd(medium_mesh, field_37)
        pair = OrderedPair(field_37, field_37, "LEQ")
        assert abs(loewner_gap(op, op, pair)) <= 1e-10

    def test_constant_pair(self, medium_mesh, field_37, field_11):
        pair = OrderedPair(field_11, field_37, "LEQ")
        gap = loewner_gap(
            build_ntd(medium_mesh, field_11), build_ntd(medium_mesh, field_37), pair
        )
        assert gap >= -1e-10

    def test_random_ordered_pairs(self, coarse_mesh):
        rng = np.random.default_rng(11)
        for _ in range(20):
            pair = quadrant_pair(coarse_mesh, rng)
            gap = loewner_gap(
                build_ntd(coarse_mesh, pair.field_1),
                build_ntd(coarse_mesh, pair.field_2),
                pair,
            )
            assert gap >= -1e-8


class TestOperatorDistance:
    def test_identical_fields_zero(self, medium_mesh, field_37):
        op = build_ntd(medium_mesh, field_37)
        assert operator_distance(op, op) <= 1e-12

    def test_symmetry_and_frozen_value(self, medium_mesh, field_37, field_11):
        op1 = build_ntd(medium_mesh, field_11)
        op2 = build_ntd(medium_mesh, field_37)
        d12 = operator_distance(op1, op2)
        d21 = operator_distance(op2, op1)
        assert np.isclose(d12, d21, rtol=1e-12)
        assert np.isclose(d12, OPDIST_37_VS_11, rtol=1e-9)

    def test_parameter_distance(self, field_37, field_11):
        assert parameter_distance(field_37, field_11) == 6.0
        assert parameter_distance(field_11, field_37) == 6.0

    def test_quadratic_form_bounded_by_norm(self, medium_mesh, field_37, field_11):
        op1 = build_ntd(medium_mesh, field_11)
        op2 = build_ntd(medium_mesh, field_37)
        dist = operator_distance(op1, op2)
        rng = np.random.default_rng(6)
        for _ in range(10):
            g = rng.standard_normal(op1.matrix.shape[0])
            num = abs(op1.pairing(g) - op2.pairing(g))
            den = g @ (op1.boundary_mass @ g)
            assert num / den <= dist * (1 + 1e-10)


class TestStabilityExperiment:
    def test_identical_pair_skipped(self, medium_mesh, field_37):
        pair = OrderedPair(field_37, field_37, "LEQ")
        rep = stability_ratio_experiment(medium_mesh, [pair])
        assert rep.skipped == 1
        assert rep.ratios == []
        assert rep.max_ratio is None

    def test_quadrant_family(self, coarse_mesh):
        rng = np.random.default_rng(7)
        family = [quadrant_pair(coarse_mesh, rng) for _ in range(10)]
        rep = stability_ratio_experiment(coarse_mesh, family)
        assert len(rep.ratios) == 10
        assert all(np.isfinite(r) and r > 0 for r in rep.ratios)
        # distinguishability: distinct ordered parameters give distinct operators
        assert all(d > 0 for d in rep.operator_distances)

    def test_quadrant_pair_is_ordered(self, coarse_mesh):
        rng = np.random.default_rng(8)
        for _ in range(5):
            pair = quadrant_pair(coarse_mesh, rng)
            assert np.all(pair.field_1.lam <= pair.field_2.lam)
            assert np.all(pair.field_1.mu <= pair.field_2.mu)
