import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elastinv import fem, inversion
from elastinv.fem import ElasticitySolver, LameField, SurfaceLoad
from elastinv.inversion import (
    ConstantParameterization,
    InversionConfig,
    MeasurementSet,
    NoiseSpec,
    PerElementParameterization,
    add_noise,
    bfgs_minimize,
    constant_parameterization,
    generate_measurements,
    kohn_vogelius,
    kv_gradient,
    kv_value_and_gradient,
    transfer_trace,
)
from elastinv.mesh import Mesh
from conftest import DEFAULT_LOADS, random_field

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

    def test_centered_option(self):
        f = np.ones((200, 2))
        noisy = add_noise(f, NoiseSpec(0.1, 3, centered=True))
        assert noisy.min() < 1.0 < noisy.max()
        assert np.abs(noisy - 1.0).max() <= 0.1

    @given(seed=st.integers(0, 2**31), eps=st.floats(0.0, 0.5))
    @settings(max_examples=25, deadline=None)
    def test_deterministic_per_seed(self, seed, eps):
        f = np.linspace(0.1, 2.0, 8).reshape(4, 2)
        spec = NoiseSpec(eps, seed)
        assert np.array_equal(add_noise(f, spec), add_noise(f, spec))

    def test_epsilon_range_guard(self):
        with pytest.raises(ValueError):
            NoiseSpec(1.0, 0)
        with pytest.raises(ValueError):
            NoiseSpec(-0.1, 0)


def test_measurements_must_be_nonempty():
    with pytest.raises(ValueError):
        MeasurementSet([])


class TestKohnVogelius:
    def test_inverse_crime_vanishes(self, medium_mesh, field_37, crime_measurements):
        j = kohn_vogelius(field_37, medium_mesh, crime_measurements, 0.0)
        assert 0.0 <= j <= 1e-18

    def test_nonnegative(self, medium_mesh, crime_measurements):
        rng = np.random.default_rng(9)
        for _ in range(3):
            field = random_field(medium_mesh, rng)
            assert kohn_vogelius(field, medium_mesh, crime_measurements, 0.0) >= 0.0
            assert kohn_vogelius(field, medium_mesh, crime_measurements, 1e-3) >= 0.0

    def test_frozen_regression(self, medium_mesh, field_11, crime_measurements):
        j = kohn_vogelius(field_11, medium_mesh, crime_measurements, 0.0)
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
        j, g_lam, g_mu = kv_value_and_gradient(field_11, medium_mesh, crime_measurements, 1e-3)
        assert counts == {"solvers": 1, "splu": 2}
        assert j == kohn_vogelius(field_11, medium_mesh, crime_measurements, 1e-3)
        g_ref = kv_gradient(field_11, medium_mesh, crime_measurements, 1e-3)
        assert np.array_equal(g_lam, g_ref[0]) and np.array_equal(g_mu, g_ref[1])

    def test_optimizer_evaluation(self, medium_mesh, crime_measurements, counts):
        param = ConstantParameterization(medium_mesh)
        config = InversionConfig(max_iterations=0)
        bfgs_minimize(config, medium_mesh, crime_measurements, param, np.array([1.0, 1.0]))
        assert counts == {"solvers": 1, "splu": 2}

    def test_heap_released_after_factorizations(self, medium_mesh, field_11, crime_measurements, monkeypatch):
        solvers, alive_at_release = [], []
        init = ElasticitySolver.__init__

        def tracking_init(self, *args):
            solvers.append(weakref.ref(self))
            init(self, *args)

        monkeypatch.setattr(ElasticitySolver, "__init__", tracking_init)
        monkeypatch.setattr(
            inversion, "release_free_heap", lambda: alive_at_release.append([s() is not None for s in solvers])
        )
        kv_value_and_gradient(field_11, medium_mesh, crime_measurements)
        # one release per evaluation, once its solver (and so its factors) is gone
        assert alive_at_release == [[False]]


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
        j0 = kohn_vogelius(field, coarse_mesh, meas, 1e-4)
        floor = 20.0 * np.finfo(float).eps * j0 / (2.0 * step)
        for e in rng.choice(coarse_mesh.n_elements, 10, replace=False):
            for arr_name, analytic in (("lam", g_lam[e]), ("mu", g_mu[e])):
                lam, mu = field.lam.copy(), field.mu.copy()
                arr = lam if arr_name == "lam" else mu
                arr[e] += step
                j_plus = kohn_vogelius(LameField(lam, mu), coarse_mesh, meas, 1e-4)
                arr[e] -= 2 * step
                j_minus = kohn_vogelius(LameField(lam, mu), coarse_mesh, meas, 1e-4)
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
            list(coarse_mesh.edge_tags),
        )
        field_p = LameField(field.lam[perm], field.mu[perm], bounds=field.bounds)
        truth_p = LameField(truth.lam[perm], truth.mu[perm], bounds=truth.bounds)
        meas_p = generate_measurements(shuffled, truth_p, loads)
        gl_p, gm_p = kv_gradient(field_p, shuffled, meas_p, 0.0)
        assert np.allclose(gl_p, g_lam[perm], rtol=1e-9, atol=1e-14)
        assert np.allclose(gm_p, g_mu[perm], rtol=1e-9, atol=1e-14)


class TestConstantParameterization:
    def test_roundtrip(self, medium_mesh):
        param = constant_parameterization(medium_mesh)
        x = np.array([2.5, 6.25])
        field = param.to_field(x)
        assert np.all(field.lam == 2.5) and np.all(field.mu == 6.25)
        assert np.array_equal(param.from_field(field), x)

    def test_reduction_is_sum(self, medium_mesh):
        param = constant_parameterization(medium_mesh)
        rng = np.random.default_rng(13)
        g_lam = rng.standard_normal(medium_mesh.n_elements)
        g_mu = rng.standard_normal(medium_mesh.n_elements)
        reduced = param.reduce_gradient(g_lam, g_mu)
        assert np.allclose(reduced, [g_lam.sum(), g_mu.sum()], rtol=1e-12)

    def test_finite_difference_2d(self, coarse_mesh, loads):
        truth = LameField.constant(3.0, 7.0, coarse_mesh.n_elements)
        meas = generate_measurements(coarse_mesh, truth, loads)
        param = constant_parameterization(coarse_mesh)
        x = np.array([2.0, 5.0])
        field = param.to_field(x)
        g = param.reduce_gradient(*kv_gradient(field, coarse_mesh, meas, 0.0))
        step = 1e-6
        for i in range(2):
            xp, xm = x.copy(), x.copy()
            xp[i] += step
            xm[i] -= step
            fd = (
                kohn_vogelius(param.to_field(xp), coarse_mesh, meas, 0.0)
                - kohn_vogelius(param.to_field(xm), coarse_mesh, meas, 0.0)
            ) / (2 * step)
            assert abs(fd - g[i]) <= 1e-6 * abs(g[i])


class TestBfgs:
    def test_starts_at_truth(self, medium_mesh, crime_measurements):
        param = constant_parameterization(medium_mesh)
        config = InversionConfig(max_iterations=50, gradient_tolerance=1e-9)
        run = bfgs_minimize(config, medium_mesh, crime_measurements, param, np.array([3.0, 7.0]))
        assert run.converged
        assert run.iterations <= 1

    def test_recovers_constants(self, medium_mesh, crime_measurements):
        param = constant_parameterization(medium_mesh)
        config = InversionConfig(max_iterations=200, gradient_tolerance=1e-11)
        run = bfgs_minimize(config, medium_mesh, crime_measurements, param, np.array([1.0, 1.0]))
        lam, mu = param.from_field(run.final_field)
        assert abs(lam - 3.0) / 3.0 <= 1e-3
        assert abs(mu - 7.0) / 7.0 <= 1e-3

    def test_monotone_descent(self, medium_mesh, crime_measurements):
        param = constant_parameterization(medium_mesh)
        config = InversionConfig(max_iterations=30, gradient_tolerance=1e-13)
        run = bfgs_minimize(config, medium_mesh, crime_measurements, param, np.array([1.0, 1.0]))
        j = np.array(run.j_history)
        assert np.all(np.diff(j) < 0.0)

    def test_deterministic(self, medium_mesh, field_37, loads):
        noisy = generate_measurements(medium_mesh, field_37, loads, NoiseSpec(0.03, 21))
        param = constant_parameterization(medium_mesh)
        config = InversionConfig(rho=1e-5, max_iterations=60, gradient_tolerance=1e-11)
        run_a = bfgs_minimize(config, medium_mesh, noisy, param, np.array([1.0, 1.0]))
        run_b = bfgs_minimize(config, medium_mesh, noisy, param, np.array([1.0, 1.0]))
        assert run_a.j_history == run_b.j_history
        assert np.array_equal(run_a.final_field.lam, run_b.final_field.lam)

    def test_projection_box_respected(self, medium_mesh, crime_measurements):
        param = PerElementParameterization(medium_mesh)
        box = (0.5, 4.0, 0.5, 8.0)
        config = InversionConfig(max_iterations=5, gradient_tolerance=1e-13, projection_box=box)
        x0 = np.concatenate(
            [np.full(medium_mesh.n_elements, 1.0), np.full(medium_mesh.n_elements, 1.0)]
        )
        run = bfgs_minimize(config, medium_mesh, crime_measurements, param, x0)
        assert run.final_field.lam.min() >= box[0] and run.final_field.lam.max() <= box[1]
        assert run.final_field.mu.min() >= box[2] and run.final_field.mu.max() <= box[3]


class TestTraceTransfer:
    def test_same_mesh_is_identity(self, medium_mesh, field_37, loads):
        meas = generate_measurements(medium_mesh, field_37, loads)
        f = meas.pairs[0][1]
        assert np.allclose(transfer_trace(medium_mesh, f, medium_mesh), f, rtol=1e-12)

    def test_refined_to_coarse_is_close(self, medium_mesh, fine_mesh, loads):
        field_fine = LameField.constant(3.0, 7.0, fine_mesh.n_elements)
        field_med = LameField.constant(3.0, 7.0, medium_mesh.n_elements)
        f_fine = generate_measurements(fine_mesh, field_fine, [loads[0]]).pairs[0][1]
        f_med = generate_measurements(medium_mesh, field_med, [loads[0]]).pairs[0][1]
        moved = transfer_trace(fine_mesh, f_fine, medium_mesh)
        scale = np.abs(f_med).max()
        assert np.abs(moved - f_med).max() <= 0.1 * scale  # discretization-level agreement
