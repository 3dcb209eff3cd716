import ctypes
import gc
import math
import os
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from elastinv import fem
from elastinv.fem import (
    ElasticitySolver,
    FemError,
    LameField,
    SurfaceLoad,
    assemble,
    assemble_stiffness,
    discretization,
    isotropic_stress,
    neumann_mass_matrix,
    release_free_heap,
)
from elastinv.mesh import BoundaryPartitionSpec, generate_disk_mesh, partition_boundary
from conftest import random_field, random_trace

finite = st.floats(-1e3, 1e3, allow_nan=False)
positive = st.floats(0.1, 100.0, allow_nan=False)


class TestIsotropicStress:
    def test_identity_strain(self):
        assert np.allclose(isotropic_stress(1.0, 1.0, np.eye(2)), 4.0 * np.eye(2))

    def test_zero_strain(self):
        assert np.allclose(isotropic_stress(12.3, 4.5, np.zeros((2, 2))), 0.0)

    def test_traceless_strain_kills_lam(self):
        strain = np.array([[1.0, 2.0], [2.0, -1.0]])
        expected = np.array([[14.0, 28.0], [28.0, -14.0]])
        assert np.allclose(isotropic_stress(3.0, 7.0, strain), expected)

    @given(lam=positive, mu=positive, a=finite, b=finite, c=finite, s=st.floats(-10, 10))
    @settings(max_examples=50, deadline=None)
    def test_linear_and_symmetric(self, lam, mu, a, b, c, s):
        strain = np.array([[a, c], [c, b]])
        stress = isotropic_stress(lam, mu, strain)
        assert np.allclose(stress, stress.T)
        assert np.allclose(isotropic_stress(lam, mu, s * strain), s * stress, rtol=1e-12)


class TestLameField:
    def test_bounds_guard(self):
        with pytest.raises(ValueError):
            LameField(np.array([0.0]), np.array([1.0]), bounds=(0.1, 1.0, 0.1, 1.0))
        with pytest.raises(ValueError):
            LameField(np.array([1.0]), np.array([2.0]), bounds=(0.1, 1.0, 0.1, 1.0))
        with pytest.raises(ValueError):
            LameField(np.array([1.0]), np.array([1.0]), bounds=(0.0, 1.0, 0.1, 1.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_rejected(self, bad):
        # NaN slips through min/max bound checks, so it needs its own guard
        with pytest.raises(ValueError):
            LameField([bad, 1.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            LameField([1.0, 1.0], [1.0, bad])

    def test_mesh_size_guard(self, medium_mesh):
        field = LameField.constant(1.0, 1.0, medium_mesh.n_elements + 1)
        with pytest.raises(ValueError):
            field.check_mesh(medium_mesh)


class TestAssembly:
    def test_doubling_field_doubles_stiffness(self, medium_mesh):
        K1 = assemble_stiffness(medium_mesh, LameField.constant(3.0, 7.0, medium_mesh.n_elements))
        K2 = assemble_stiffness(medium_mesh, LameField.constant(6.0, 14.0, medium_mesh.n_elements))
        assert abs(K2 - 2 * K1).max() < 1e-12 * abs(K1).max()

    def test_stiffness_exactly_symmetric(self, medium_mesh, field_37):
        K = assemble_stiffness(medium_mesh, field_37)
        assert abs(K - K.T).max() == 0.0

    def test_energy_matches_per_element_oracle(self, coarse_mesh):
        """u^T K u against an independent per-element quadrature loop."""
        rng = np.random.default_rng(3)
        field = LameField(
            rng.uniform(1, 4, coarse_mesh.n_elements),
            rng.uniform(2, 8, coarse_mesh.n_elements),
        )
        K = assemble_stiffness(coarse_mesh, field)
        u = rng.standard_normal(2 * coarse_mesh.n_nodes)

        total = 0.0
        for e, tri in enumerate(coarse_mesh.triangles):
            pts = coarse_mesh.nodes[tri]
            d1, d2 = pts[1] - pts[0], pts[2] - pts[0]
            area = 0.5 * abs(d1[0] * d2[1] - d1[1] * d2[0])
            # gradients of P1 shape functions from the affine map
            A = np.column_stack([pts[1] - pts[0], pts[2] - pts[0]])
            grads_ref = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
            grads = grads_ref @ np.linalg.inv(A)
            G = np.zeros((2, 2))
            for loc, node in enumerate(tri):
                G += np.outer(u[2 * node : 2 * node + 2], grads[loc])
            strain = 0.5 * (G + G.T)
            stress = isotropic_stress(field.lam[e], field.mu[e], strain)
            total += area * np.tensordot(stress, strain)

        assert np.isclose(u @ (K @ u), total, rtol=1e-10)

    def test_reduced_system_spd(self, coarse_mesh):
        rng = np.random.default_rng(4)
        for _ in range(3):
            field = LameField(
                rng.uniform(0.5, 5, coarse_mesh.n_elements),
                rng.uniform(0.5, 9, coarse_mesh.n_elements),
            )
            system = assemble(coarse_mesh, field, SurfaceLoad(constant=(0.1, 0.1)))
            eigs = np.linalg.eigvalsh(system.stiffness.toarray())
            assert eigs.min() > 0.0


class TestNeumannSolve:
    def test_zero_load_zero_solution(self, medium_mesh, field_37):
        sol = ElasticitySolver(medium_mesh, field_37).solve_neumann(
            SurfaceLoad(constant=(0.0, 0.0))
        )
        assert np.all(sol.displacement == 0.0)

    def test_linearity_in_load(self, medium_mesh, field_37):
        solver = ElasticitySolver(medium_mesh, field_37)
        u1 = solver.solve_neumann(SurfaceLoad(constant=(0.1, 0.1)))
        u2 = solver.solve_neumann(SurfaceLoad(constant=(0.2, 0.2)))
        assert np.allclose(u2.displacement, 2.0 * u1.displacement, rtol=1e-12, atol=1e-16)

    def test_energy_identity(self, medium_mesh, field_37):
        solver = ElasticitySolver(medium_mesh, field_37)
        g = SurfaceLoad(constant=(0.1, 0.1))
        sol = solver.solve_neumann(g)
        boundary = solver.boundary_pairing(g, sol)
        interior = solver.interior_energy(sol)
        assert abs(boundary - interior) <= 1e-10 * abs(interior)

    def test_dirichlet_nodes_exactly_zero(self, medium_mesh, field_37):
        solver = ElasticitySolver(medium_mesh, field_37)
        sol = solver.solve_neumann(SurfaceLoad(constant=(0.3, 0.5)))
        assert np.all(sol.displacement[medium_mesh.dirichlet_nodes] == 0.0)

    def test_galerkin_residual(self, medium_mesh, field_37):
        solver = ElasticitySolver(medium_mesh, field_37)
        g = SurfaceLoad(constant=(0.1, 0.2))
        b = solver.load_block(g.nodal_values(medium_mesh).reshape(-1, 1))[:, 0]
        sol = solver.solve_neumann(g)
        r = solver.K_free @ sol.displacement.ravel()[solver.disc.free_dofs] - b
        assert np.linalg.norm(r) <= 1e-12 * np.linalg.norm(b)

    def test_div_is_trace_of_strain(self, medium_mesh, field_37):
        sol = ElasticitySolver(medium_mesh, field_37).solve_neumann(
            SurfaceLoad(constant=(0.3, 0.5))
        )
        trace = np.trace(sol.per_element_strain, axis1=1, axis2=2)
        assert np.array_equal(sol.per_element_div, trace)
        assert np.array_equal(sol.per_element_strain, sol.per_element_strain.transpose(0, 2, 1))

    def test_load_size_mismatch(self, medium_mesh, field_37):
        bad = SurfaceLoad(nodal=np.zeros((3, 2)))
        with pytest.raises(ValueError):
            ElasticitySolver(medium_mesh, field_37).solve_neumann(bad)


class TestDirichletSolve:
    def test_zero_trace_zero_solution(self, medium_mesh, field_37):
        solver = ElasticitySolver(medium_mesh, field_37)
        m = len(medium_mesh.neumann_nodes)
        sol = solver.solve_dirichlet(np.zeros((m, 2)))
        assert np.all(sol.displacement == 0.0)

    def test_consistency_with_neumann(self, medium_mesh, field_37):
        solver = ElasticitySolver(medium_mesh, field_37)
        u_n = solver.solve_neumann(SurfaceLoad(constant=(0.1, 0.1)))
        u_d = solver.solve_dirichlet(u_n.trace_on_neumann)
        assert np.abs(u_d.displacement - u_n.displacement).max() <= 1e-12

    def test_scaling(self, medium_mesh, field_37):
        solver = ElasticitySolver(medium_mesh, field_37)
        trace = solver.solve_neumann(SurfaceLoad(constant=(0.1, 0.2))).trace_on_neumann
        u1 = solver.solve_dirichlet(trace)
        u3 = solver.solve_dirichlet(3.0 * trace)
        assert np.allclose(u3.displacement, 3.0 * u1.displacement, rtol=1e-12, atol=1e-16)

    def test_nonfinite_trace_rejected(self, medium_mesh, field_37):
        solver = ElasticitySolver(medium_mesh, field_37)
        m = len(medium_mesh.neumann_nodes)
        bad = np.full((m, 2), np.nan)
        with pytest.raises(FemError):
            solver.solve_dirichlet(bad)


def test_monotone_boundary_energy(medium_mesh):
    # larger parameters -> stiffer body -> smaller measured displacement energy
    g = SurfaceLoad(constant=(0.1, 0.1))
    small = ElasticitySolver(medium_mesh, LameField.constant(1.0, 1.0, medium_mesh.n_elements))
    large = ElasticitySolver(medium_mesh, LameField.constant(3.0, 7.0, medium_mesh.n_elements))
    e_small = small.boundary_pairing(g, small.solve_neumann(g))
    e_large = large.boundary_pairing(g, large.solve_neumann(g))
    assert e_large <= e_small


def _loop_boundary_mass(mesh):
    """Per-edge loop construction of the Neumann boundary mass matrix."""
    nn = mesh.neumann_nodes
    pos = {int(n): i for i, n in enumerate(nn)}
    rows, cols, vals = [], [], []
    for a, b in mesh.neumann_edges:
        length = float(np.linalg.norm(mesh.nodes[b] - mesh.nodes[a]))
        local = [(a, a, 2.0), (b, b, 2.0), (a, b, 1.0), (b, a, 1.0)]
        for u, v, w in local:
            if int(u) in pos and int(v) in pos:
                for comp in (0, 1):
                    rows.append(2 * pos[int(u)] + comp)
                    cols.append(2 * pos[int(v)] + comp)
                    vals.append(w * length / 6.0)
    m = 2 * len(nn)
    return sp.coo_matrix((vals, (rows, cols)), shape=(m, m)).tocsr()


@pytest.mark.parametrize("h", [0.25, 0.1, 0.05])
@pytest.mark.parametrize("arc", [(math.pi, 2.0 * math.pi), (math.pi / 2.0, math.pi)])
def test_boundary_mass_matches_loop_reference(h, arc):
    mesh = partition_boundary(generate_disk_mesh(h), BoundaryPartitionSpec(*arc))
    M, ref = neumann_mass_matrix(mesh), _loop_boundary_mass(mesh)
    assert np.array_equal(M.indptr, ref.indptr)
    assert np.array_equal(M.indices, ref.indices)
    assert np.array_equal(M.data, ref.data)


class TestBlockSolves:
    @pytest.fixture
    def quarter_mesh(self, fine_mesh):
        # clamped upper-left quarter: the partition of example3
        return partition_boundary(fine_mesh, BoundaryPartitionSpec(math.pi / 2.0, math.pi))

    def test_neumann_block_equals_columns(self, quarter_mesh):
        rng = np.random.default_rng(21)
        solver = ElasticitySolver(quarter_mesh, random_field(quarter_mesh, rng))
        loads = [SurfaceLoad(nodal=random_trace(quarter_mesh, rng)) for _ in range(6)]
        loads.append(SurfaceLoad(constant=(0.3, 0.5)))
        for block, g in zip(solver.solve_neumann_block(loads), loads):
            col = solver.solve_neumann(g).displacement
            assert np.abs(block.displacement - col).max() <= 1e-13 * np.abs(col).max()

    def test_dirichlet_block_equals_columns(self, quarter_mesh):
        rng = np.random.default_rng(22)
        solver = ElasticitySolver(quarter_mesh, random_field(quarter_mesh, rng))
        traces = [random_trace(quarter_mesh, rng) for _ in range(6)]
        for block, f in zip(solver.solve_dirichlet_block(traces), traces):
            col = solver.solve_dirichlet(f).displacement
            assert np.abs(block.displacement - col).max() <= 1e-13 * np.abs(col).max()

    def test_bad_column_fails_despite_block_norm(self, medium_mesh, field_37):
        """A failed small-load column raises although the block-wide residual is tiny."""
        solver = ElasticitySolver(medium_mesh, field_37)
        exact = solver._neumann_factor

        class Corrupting:
            def solve(self, b):
                x = exact.solve(b)
                x[:, 1] *= 1.0 + 1e-6
                return x

        solver._neumann_factor = Corrupting()
        loads = [SurfaceLoad(constant=(1e6, 1e6)), SurfaceLoad(constant=(1e-6, 1e-6))]
        B = solver.load_block(np.column_stack([g.nodal_values(medium_mesh).ravel() for g in loads]))
        X = Corrupting().solve(B)
        block_rel = np.linalg.norm(solver.K_free @ X - B) / np.linalg.norm(B)
        assert block_rel <= 1e-12  # one norm over the block would accept this solve
        with pytest.raises(FemError, match="column 1"):
            solver.solve_neumann_block(loads)

    def test_mesh_data_shared_between_solvers(self, medium_mesh, field_37, field_11):
        a = ElasticitySolver(medium_mesh, field_37)
        b = ElasticitySolver(medium_mesh, field_11)
        assert a.disc is b.disc is discretization(medium_mesh)

    def test_mesh_data_does_not_keep_mesh_alive(self):
        mesh = generate_disk_mesh(0.25)
        ElasticitySolver(mesh, LameField.constant(1.0, 1.0, mesh.n_elements))
        ref = weakref.ref(mesh)
        del mesh
        gc.collect()
        assert ref() is None


def _resident_bytes() -> int:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


@pytest.mark.skipif(fem._MALLOC_TRIM is None, reason="needs glibc malloc_trim")
def test_release_free_heap_returns_pages():
    # 64 KiB blocks come from the heap (glibc maps only blocks of at least
    # 128 KiB); freeing every other one leaves free chunks between live ones,
    # whose pages free() itself keeps
    libc = ctypes.CDLL(None)
    libc.malloc.restype = ctypes.c_void_p
    libc.malloc.argtypes = (ctypes.c_size_t,)
    libc.free.argtypes = (ctypes.c_void_p,)
    size = 64 << 10
    blocks = [libc.malloc(size) for _ in range(128)]
    for p in blocks:
        ctypes.memset(p, 1, size)
    for p in blocks[0::2]:
        libc.free(p)
    before = _resident_bytes()
    release_free_heap()
    after = _resident_bytes()
    for p in blocks[1::2]:
        libc.free(p)
    assert before - after >= 2 << 20  # 4 MiB were freed
