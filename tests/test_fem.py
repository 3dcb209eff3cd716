import ctypes
import gc
import math
import os
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import Delaunay

from elastinv import fem
from elastinv.fem import (
    DEFAULT_BOUNDS,
    ElasticitySolver,
    FemError,
    LameField,
    SurfaceLoad,
    discretization,
    load_coefficients,
    neumann_mass_matrix,
    release_free_heap,
)
from elastinv import experiments
from elastinv.experiments import PER_ELEMENT_BOUNDS, ExperimentConfig, build_mesh, run_experiment
from elastinv.mesh import BoundaryPartitionSpec, Mesh, generate_disk_mesh, partition_boundary
from conftest import interior_energy, random_field, random_trace

ARCS = [(math.pi, 2.0 * math.pi), (math.pi / 2.0, math.pi)]


def solve_load(solver, g):
    """The (2n,) displacement of the traction solve for one SurfaceLoad."""
    return solver.solve_neumann(load_coefficients(solver.mesh, [g]))[:, 0]


def free_rhs(solver, coeffs):
    """Free-dof right-hand sides M g of the traction solves for (2m, k) load coefficients."""
    disc = solver.disc
    B = np.zeros((disc.n_dofs, coeffs.shape[1]))
    B[disc.trace_dofs] = disc.boundary_mass @ coeffs
    return B[disc.free_pattern.rows]


def boundary_pairing(solver, g, u):
    """Boundary integral of load g . trace of u over the Neumann part."""
    coeffs = load_coefficients(solver.mesh, [g])[:, 0]
    return float(coeffs @ (solver.disc.boundary_mass @ u[solver.disc.trace_dofs]))


def isotropic_stress(lam, mu, strain):
    """Stress lam*tr(strain)*I + 2*mu*strain for a 2x2 symmetric strain."""
    strain = np.asarray(strain, dtype=float)
    return lam * np.trace(strain) * np.eye(2) + 2.0 * mu * strain


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
        a, b, c, d = DEFAULT_BOUNDS
        LameField(np.array([a, b]), np.array([c, d]))  # the box's edges are admissible
        with pytest.raises(ValueError, match="lam outside"):
            LameField(np.array([np.nextafter(a, 0.0)]), np.array([1.0]))
        with pytest.raises(ValueError, match="lam outside"):
            LameField(np.array([np.nextafter(b, np.inf)]), np.array([1.0]))
        with pytest.raises(ValueError, match="mu outside"):
            LameField(np.array([1.0]), np.array([np.nextafter(c, 0.0)]))
        with pytest.raises(ValueError, match="mu outside"):
            LameField(np.array([1.0]), np.array([np.nextafter(d, np.inf)]))

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
            ElasticitySolver(medium_mesh, field)

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            LameField([1.0, 1.0], [1.0])


def _coo_stiffness(mesh, field):
    """Full stiffness matrix by COO assembly of einsum element matrices, dofs interleaved."""
    disc = discretization(mesh)
    n_el = mesh.n_elements
    lam, mu = field.lam, field.mu
    B = np.zeros((n_el, 3, 6))
    B[:, 0, 0::2] = disc.bx
    B[:, 1, 1::2] = disc.by
    B[:, 2, 0::2] = disc.by
    B[:, 2, 1::2] = disc.bx
    D = np.zeros((n_el, 3, 3))
    D[:, 0, 0] = D[:, 1, 1] = lam + 2.0 * mu
    D[:, 0, 1] = D[:, 1, 0] = lam
    D[:, 2, 2] = mu
    ke = np.einsum("e,eji,ejk,ekl->eil", disc.area, B, D, B, optimize=True)
    ke = 0.5 * (ke + ke.transpose(0, 2, 1))
    dofs = np.empty((n_el, 6), dtype=np.int64)
    dofs[:, 0::2] = 2 * mesh.triangles
    dofs[:, 1::2] = 2 * mesh.triangles + 1
    rows = np.repeat(dofs, 6, axis=1).ravel()
    cols = np.tile(dofs, (1, 6)).ravel()
    K = sp.coo_matrix((ke.ravel(), (rows, cols)), shape=(disc.n_dofs, disc.n_dofs)).tocsr()
    return ((K + K.T) * 0.5).tocsr()


def _blocks(solver):
    """(name, scattered block, its row dofs, its column dofs) of a solver, in the block's order."""
    disc = solver.disc
    return [
        (name, K, pattern.rows, pattern.cols)
        for name, K, pattern in [
            ("K_free", solver.free.K, disc.free_pattern),
            ("K_interior", solver.interior.K, disc.interior_pattern),
            ("K_it", disc.coupling_pattern.gather(solver.free.K.data), disc.coupling_pattern),
            ("K_trace_last", solver.trace_last.K, disc.trace_last_pattern),
        ]
    ]


class TestAssembly:
    # at h=0.02 on the lower half the free order starts at an interior node,
    # so the interior block's first entry reads data index 0 of the free
    # block's position matrix, an explicit zero its slice must keep
    @pytest.mark.parametrize("h", [0.25, 0.1, 0.05, 0.02])
    @pytest.mark.parametrize("arc", ARCS)
    def test_blocks_match_coo_reference(self, h, arc):
        mesh = partition_boundary(generate_disk_mesh(h), BoundaryPartitionSpec(*arc))
        field = random_field(mesh, np.random.default_rng(5))
        K = _coo_stiffness(mesh, field)
        for name, block, rows, cols in _blocks(ElasticitySolver(mesh, field)):
            ref = K[rows][:, cols].tocsr()
            ref.sort_indices()
            assert np.array_equal(block.indptr, ref.indptr), name
            assert np.array_equal(block.indices, ref.indices), name
            assert np.abs(block.data - ref.data).max() <= 1e-15 * np.abs(ref.data).max(), name

    @pytest.mark.parametrize("h", [0.3, 0.08])
    @pytest.mark.parametrize("arc", ARCS)
    def test_gathered_blocks_match_scatter_reference(self, h, arc):
        """Every block is bit for bit an independent scatter: one np.bincount
        of the lam terms plus one of the mu terms over the element entries on
        or above the free block's diagonal, each in element order, read at
        each block entry or its mirror."""
        mesh = partition_boundary(generate_disk_mesh(h), BoundaryPartitionSpec(*arc))
        solver = ElasticitySolver(mesh, random_field(mesh, np.random.default_rng(12)))
        disc, field = solver.disc, solver.field
        # each element dof's own barycentric-gradient component g and the other one h
        g = np.stack([disc.bx, disc.by], axis=2).reshape(-1, 6)
        h = np.stack([disc.by, disc.bx], axis=2).reshape(-1, 6)
        area = disc.area[:, None, None]
        gg = area * (g[:, :, None] * g[:, None, :])
        same = np.arange(6)[:, None] % 2 == np.arange(6) % 2
        lam_terms = gg * field.lam[:, None, None]
        mu_terms = (2.0 * gg * same + area * (h[:, :, None] * h[:, None, :])) * field.mu[:, None, None]
        # free-block positions of the element dofs, -1 on the clamped part
        pos = np.full(disc.n_dofs, -1)
        pos[disc.free_pattern.rows] = np.arange(len(disc.free_pattern.rows))
        dofs = pos[(2 * mesh.triangles[:, :, None] + np.arange(2)).reshape(-1, 6)]
        p, q = np.broadcast_arrays(dofs[:, :, None], dofs[:, None, :])
        upper = (p >= 0) & (p <= q)
        # the boolean mask keeps element order, so each entry sums its terms in element order
        keys, entry = np.unique(p[upper] * disc.n_dofs + q[upper], return_inverse=True)
        ref = np.bincount(entry, weights=lam_terms[upper]) + np.bincount(entry, weights=mu_terms[upper])
        for name, block, rows, cols in _blocks(solver):
            r = pos[np.repeat(rows, np.diff(block.indptr))]
            c = pos[cols[block.indices]]
            at = np.searchsorted(keys, np.minimum(r, c) * disc.n_dofs + np.maximum(r, c))
            assert np.array_equal(keys[at], np.minimum(r, c) * disc.n_dofs + np.maximum(r, c)), name
            assert np.array_equal(block.data, ref[at]), name

    def test_doubling_field_doubles_stiffness(self, medium_mesh):
        s1 = ElasticitySolver(medium_mesh, LameField.constant(3.0, 7.0, medium_mesh.n_elements))
        s2 = ElasticitySolver(medium_mesh, LameField.constant(6.0, 14.0, medium_mesh.n_elements))
        for (name, K1, _, _), (_, K2, _, _) in zip(_blocks(s1), _blocks(s2)):
            assert abs(K2 - 2 * K1).max() < 1e-12 * abs(K1).max(), name

    def test_stiffness_exactly_symmetric(self, fine_mesh):
        rng = np.random.default_rng(6)
        for arc in ARCS:
            mesh = partition_boundary(fine_mesh, BoundaryPartitionSpec(*arc))
            solver = ElasticitySolver(mesh, random_field(mesh, rng))
            for K in (solver.free.K, solver.interior.K):
                assert (K != K.T).nnz == 0

    def test_energy_matches_per_element_oracle(self, coarse_mesh):
        """u^T K u of the free block against an independent per-element quadrature loop."""
        rng = np.random.default_rng(3)
        field = LameField(
            rng.uniform(1, 4, coarse_mesh.n_elements),
            rng.uniform(2, 8, coarse_mesh.n_elements),
        )
        solver = ElasticitySolver(coarse_mesh, field)
        rows = solver.disc.free_pattern.rows
        u = np.zeros(2 * coarse_mesh.n_nodes)
        u[rows] = rng.standard_normal(len(rows))

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

        free = u[rows]
        assert np.isclose(free @ (solver.free.K @ free), total, rtol=1e-10)

    def test_reduced_system_spd(self, coarse_mesh):
        rng = np.random.default_rng(4)
        for _ in range(3):
            field = LameField(
                rng.uniform(0.5, 5, coarse_mesh.n_elements),
                rng.uniform(0.5, 9, coarse_mesh.n_elements),
            )
            eigs = np.linalg.eigvalsh(ElasticitySolver(coarse_mesh, field).free.K.toarray())
            assert eigs.min() > 0.0

    def test_traction_only_run_builds_no_interior_pattern(self):
        mesh = generate_disk_mesh(0.25)
        solver = ElasticitySolver(mesh, LameField.constant(1.0, 1.0, mesh.n_elements))
        solve_load(solver, SurfaceLoad(constant=(0.1, 0.2)))
        built = vars(solver.disc)
        assert "free_pattern" in built
        assert "interior_pattern" not in built and "coupling_pattern" not in built

    @pytest.mark.parametrize("kind", ["stability", "monotonicity"])
    def test_operator_check_run_builds_no_interior_pattern(self, kind):
        """The trace-last block is the free block reordered, so the NtD
        matrices and the sandwich's traction solves order no interior block."""
        experiments._partitioned_mesh.cache_clear()  # a mesh of its own, so its patterns are built here
        config = ExperimentConfig(kind=kind, target_h=0.3, n_pairs=2)
        run_experiment(config)
        built = vars(discretization(build_mesh(config, 0.3)))
        assert "trace_last_pattern" in built
        assert "interior_pattern" not in built and "coupling_pattern" not in built

    def test_factor_runs_in_symmetric_mode(self, monkeypatch):
        # a mesh of its own, so its patterns and orders are built here
        mesh = generate_disk_mesh(0.2)
        calls = []
        splu = fem.spla.splu

        def recording(A, **kwargs):
            calls.append(kwargs)
            return splu(A, **kwargs)

        monkeypatch.setattr(fem.spla, "splu", recording)
        m = len(mesh.neumann_nodes)
        for lam, mu in [(3.0, 7.0), (1.0, 1.0)]:
            solver = ElasticitySolver(mesh, LameField.constant(lam, mu, mesh.n_elements))
            solver.solve_neumann(np.ones((2 * m, 1)))
            solver.solve_dirichlet(np.ones((2 * m, 1)))
        natural = {"permc_spec": "NATURAL", "diag_pivot_thresh": 0.0, "relax": 1, "panel_size": 1,
                   "options": {"SymmetricMode": True}}
        assert calls == [natural] * 4

    @pytest.mark.parametrize("arc", ARCS)
    def test_column_kernel_keeps_fill_and_solves_unrefined(self, arc):
        """Each block's factor fills as SuperLU's default panels and relaxed
        supernodes do, and its plain solves pass the backward-error check."""
        mesh = partition_boundary(generate_disk_mesh(0.16), BoundaryPartitionSpec(*arc))
        rng = np.random.default_rng(36)
        solver = ElasticitySolver(mesh, random_field(mesh, rng))
        for block in (solver.free, solver.interior, solver.trace_last):
            default = fem.spla.splu(block.K.T, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                                    options={"SymmetricMode": True})
            lu = fem._factor_spd(block.K)
            assert lu.L.nnz + lu.U.nnz == default.L.nnz + default.U.nnz
            B = rng.standard_normal((block.K.shape[0], 8))
            X = lu.solve(B)
            eta = fem._backward_errors(block.norm, X, B, B - block.K @ X)
            assert np.all(eta <= fem.BACKWARD_ERROR_TOL)


class TestOrderingReuse:
    @pytest.mark.parametrize("arc", ARCS)
    def test_reused_ordering_keeps_fill_and_solutions(self, arc, monkeypatch):
        """Each block's order belongs to the mesh: a field factors with the
        same fill and solves to the same bits whether it is the first on a
        mesh, follows another field there, or runs on a second mesh built
        from the same inputs."""
        calls = []
        splu = fem.spla.splu

        def recording(A, **kwargs):
            lu = splu(A, **kwargs)
            calls.append(lu.L.nnz + lu.U.nnz)
            return lu

        monkeypatch.setattr(fem.spla, "splu", recording)
        rng = np.random.default_rng(31)

        def fresh_mesh():
            return partition_boundary(generate_disk_mesh(0.2), BoundaryPartitionSpec(*arc))

        mesh = fresh_mesh()
        m = len(mesh.neumann_nodes)
        loads, traces = rng.standard_normal((2, 2 * m, 3))

        def solves(mesh, field):
            solver = ElasticitySolver(mesh, field)
            return solver.solve_neumann(loads), solver.solve_dirichlet(traces)

        first = solves(mesh, random_field(mesh, rng))
        field = random_field(mesh, rng)
        after = solves(mesh, field)
        fresh = solves(fresh_mesh(), field)
        assert calls[0:2] == calls[2:4] == calls[4:6]
        for X, Y, Z in zip(after, fresh, first):
            assert np.array_equal(X, Y)
            assert not np.array_equal(X, Z)

    @pytest.mark.parametrize(
        "arc, h", [(arc, h) for h in (0.08, 0.02) for arc in ARCS], ids=["arc0", "arc1", "arc0-h0.02", "arc1-h0.02"]
    )
    def test_node_order_fill_at_most_dof_search(self, arc, h):
        """On the default and the finest benchmark mesh, the node-graph order
        of each square block fills no more than SuperLU's own symmetric-mode
        search on the block's dofs.  The minimum-degree orders are not ranked
        at every size: at h=0.2 the dof-level search fills the free block
        1.5% (example3 arc) to 3.4% (lower half) less.  At h=0.02 the blocks
        are dissected, which the minimum-degree order of the nodes was not
        enough for on the example3 arc (1.91M entries against 1.89M)."""
        mesh = partition_boundary(generate_disk_mesh(h), BoundaryPartitionSpec(*arc))
        solver = ElasticitySolver(mesh, random_field(mesh, np.random.default_rng(32)))
        disc = solver.disc
        for K, pattern, lu in [
            (solver.free.K, disc.free_pattern, solver.free.factor),
            (solver.interior.K, disc.interior_pattern, solver.interior.factor),
        ]:
            natural = np.argsort(pattern.rows)  # the block back in dof order
            mmd = fem.spla.splu(
                K[natural][:, natural].tocsc(),
                permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, options={"SymmetricMode": True},
            )
            assert lu.L.nnz + lu.U.nnz <= mmd.L.nnz + mmd.U.nnz

    @pytest.mark.parametrize("h", [0.2, 0.08, 0.03])
    @pytest.mark.parametrize("arc", [*ARCS, (0.3, 5.0)])
    def test_blocks_up_to_the_threshold_keep_minimum_degree_order(self, h, arc):
        """Up to DISSECTION_MIN_NODES nodes a block keeps the minimum-degree
        order of its node graph, so every mesh at h >= 0.03 factors and
        solves as before; h=0.03 has the largest such free block (3 421 nodes
        on the lower half)."""
        disc = discretization(partition_boundary(generate_disk_mesh(h), BoundaryPartitionSpec(*arc)))
        graph = disc._node_graph()
        for pattern, nodes in [(disc.free_pattern, disc.free_nodes), (disc.interior_pattern, disc.interior_nodes)]:
            assert len(nodes) <= fem.DISSECTION_MIN_NODES
            mmd = nodes[fem._fill_reducing_order(graph[nodes][:, nodes])]
            assert np.array_equal(pattern.rows, fem._node_dofs(mmd))

    @pytest.mark.parametrize("arc", ARCS)
    def test_fine_blocks_are_dissected(self, arc):
        """At h=0.02 each block is in nested-dissection order: a permutation
        of its nodes, the same on a fresh mesh from the same inputs, and a
        factor with fewer L+U entries than the same block laid out in the
        minimum-degree order."""
        def fresh_mesh():
            return partition_boundary(generate_disk_mesh(0.02), BoundaryPartitionSpec(*arc))

        mesh = fresh_mesh()
        solver = ElasticitySolver(mesh, random_field(mesh, np.random.default_rng(33)))
        disc, again = solver.disc, discretization(fresh_mesh())
        assert len(disc.interior_nodes) > fem.DISSECTION_MIN_NODES
        assert np.array_equal(np.sort(disc.free_pattern.rows), fem._node_dofs(disc.free_nodes))
        assert np.array_equal(disc.free_pattern.rows, again.free_pattern.rows)
        assert np.array_equal(disc.interior_pattern.rows, again.interior_pattern.rows)
        graph = disc._node_graph()
        for block, pattern, nodes in [
            (solver.free, disc.free_pattern, disc.free_nodes),
            (solver.interior, disc.interior_pattern, disc.interior_nodes),
        ]:
            at = np.zeros(disc.n_dofs, dtype=np.intp)
            at[pattern.rows] = np.arange(len(pattern.rows))
            mmd = at[fem._node_dofs(nodes[fem._fill_reducing_order(graph[nodes][:, nodes])])]
            lu = fem._factor_spd(block.K[mmd][:, mmd])
            assert block.factor.L.nnz + block.factor.U.nnz < lu.L.nnz + lu.U.nnz

    def test_dissection_ends_where_a_side_comes_out_empty(self, monkeypatch):
        """Three of four nodes sit at the smallest x, which is then the
        median: no node lies left of it, and the part takes the
        minimum-degree order instead of being split again without end.
        The threshold is passed, since its default is bound at definition."""
        monkeypatch.setattr(fem, "DISSECTION_LEAF", 2)
        xy = np.array([[0.0, 0.0], [0.0, 0.1], [0.0, 0.2], [1.0, 0.0]])
        graph = sp.csr_matrix(np.ones((4, 4), dtype=np.int8))
        order = fem._block_order(graph, np.arange(4), xy, dissect_above=2)
        assert np.array_equal(order, fem._fill_reducing_order(graph))


def _per_part_block_order(graph, nodes, xy, dissect_above=fem.DISSECTION_MIN_NODES):
    """Reference nested dissection that reads each part's separator off the
    part's own extracted graph, as `fem._block_order` once did."""
    sub = graph[nodes][:, nodes]
    if len(nodes) > dissect_above:
        c = xy[nodes]
        c = c[:, np.argmax(np.ptp(c, axis=0))]
        left = c < np.median(c)
        if left.any():
            sep = left & (sub @ (~left).astype(np.intp) > 0)
            return np.concatenate([_per_part_block_order(graph, nodes[left & ~sep], xy, fem.DISSECTION_LEAF),
                                   _per_part_block_order(graph, nodes[~left], xy, fem.DISSECTION_LEAF), nodes[sep]])
    return nodes[fem._fill_reducing_order(sub)]


class TestSeparators:
    @pytest.mark.parametrize("h", [0.025, 0.02])
    @pytest.mark.parametrize("arc", [*ARCS, (0.3, 5.0)])
    def test_block_order_matches_per_part_reference(self, h, arc):
        """Separators read off one product of the full node graph order the
        dissected free and interior blocks exactly as per-part subgraphs do."""
        disc = discretization(partition_boundary(generate_disk_mesh(h), BoundaryPartitionSpec(*arc)))
        graph = disc._node_graph()
        for nodes in (disc.free_nodes, disc.interior_nodes):
            assert len(nodes) > fem.DISSECTION_MIN_NODES
            order = fem._block_order(graph, nodes, disc.coords)
            assert np.array_equal(order, _per_part_block_order(graph, nodes, disc.coords))

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(8, 400), leaf=st.integers(2, 24),
           dissect_above=st.integers(2, 48), keep=st.floats(0.3, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_random_point_sets_match_per_part_reference(self, seed, n, leaf, dissect_above, keep):
        """On the Delaunay graph of random points, a random subset of them
        dissected to small leaves: separators at several depths, each part's
        nodes with neighbours outside it."""
        rng = np.random.default_rng(seed)
        xy = rng.random((n, 2))
        t = Delaunay(xy).simplices
        i, j = np.repeat(t, 3, axis=1).ravel(), np.tile(t, (1, 3)).ravel()
        graph = sp.csr_matrix((np.ones(len(i), dtype=np.int8), (i, j)), shape=(n, n))
        nodes = np.flatnonzero(rng.random(n) < keep)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fem, "DISSECTION_LEAF", leaf)
            order = fem._block_order(graph, nodes, xy, dissect_above=dissect_above)
            assert np.array_equal(order, _per_part_block_order(graph, nodes, xy, dissect_above=dissect_above))


@pytest.mark.parametrize("arc", ARCS)
@given(seed=st.integers(0, 2**32 - 1), two_level=st.booleans())
@settings(max_examples=15, deadline=None)
def test_high_contrast_fields_solve_backward_stably(medium_mesh, arc, seed, two_level):
    """Fields over the whole per-element box (contrast 1e6) pass the solve check unpivoted."""
    lo, hi = math.log10(PER_ELEMENT_BOUNDS[0]), math.log10(PER_ELEMENT_BOUNDS[1])
    mesh = partition_boundary(medium_mesh, BoundaryPartitionSpec(*arc))
    rng = np.random.default_rng(seed)
    n = mesh.n_elements
    if two_level:
        # every element at one end of the box or the other
        lam, mu = 10.0 ** rng.choice([lo, hi], size=(2, n))
    else:
        lam, mu = 10.0 ** rng.uniform(lo, hi, size=(2, n))
    solver = ElasticitySolver(mesh, LameField(lam, mu))
    m = len(mesh.neumann_nodes)
    U = solver.solve_neumann(rng.standard_normal((2 * m, 4)))
    V = solver.solve_dirichlet(rng.standard_normal((2 * m, 4)))
    assert np.all(np.isfinite(U)) and np.all(np.isfinite(V))


class TestNeumannSolve:
    def test_zero_load_zero_solution(self, medium_mesh, field_37):
        u = solve_load(ElasticitySolver(medium_mesh, field_37), SurfaceLoad(constant=(0.0, 0.0)))
        assert np.all(u == 0.0)

    def test_linearity_in_load(self, medium_mesh, field_37):
        solver = ElasticitySolver(medium_mesh, field_37)
        u1 = solve_load(solver, SurfaceLoad(constant=(0.1, 0.1)))
        u2 = solve_load(solver, SurfaceLoad(constant=(0.2, 0.2)))
        assert np.allclose(u2, 2.0 * u1, rtol=1e-12, atol=1e-16)

    def test_energy_identity(self, medium_mesh, field_37):
        solver = ElasticitySolver(medium_mesh, field_37)
        g = SurfaceLoad(constant=(0.1, 0.1))
        u = solve_load(solver, g)
        boundary = boundary_pairing(solver, g, u)
        interior = interior_energy(solver, u)
        assert abs(boundary - interior) <= 1e-10 * abs(interior)

    def test_dirichlet_nodes_exactly_zero(self, medium_mesh, field_37):
        solver = ElasticitySolver(medium_mesh, field_37)
        u = solve_load(solver, SurfaceLoad(constant=(0.3, 0.5))).reshape(-1, 2)
        assert np.all(u[medium_mesh.dirichlet_nodes] == 0.0)

    @pytest.mark.parametrize("arc", ARCS, ids=["lower-half", "upper-left"])
    def test_fresh_solver_solves_through_the_free_factor_bit_for_bit(self, arc):
        """Without build_ntd's factor a traction solve is the free factor's
        solve of the free-row right-hand side, bit for bit: the path of the
        forward runs and the reconstructions."""
        mesh = partition_boundary(generate_disk_mesh(0.08), BoundaryPartitionSpec(*arc))
        rng = np.random.default_rng(34)
        solver = ElasticitySolver(mesh, random_field(mesh, rng))
        coeffs = rng.standard_normal((len(solver.disc.trace_dofs), 4))
        U = solver.solve_neumann(coeffs)
        assert "trace_last" not in vars(solver)
        assert np.array_equal(U[solver.disc.free_pattern.rows], solver.free.factor.solve(free_rhs(solver, coeffs)))

    def test_galerkin_residual(self, medium_mesh, field_37):
        solver = ElasticitySolver(medium_mesh, field_37)
        g = SurfaceLoad(constant=(0.1, 0.2))
        b = free_rhs(solver, load_coefficients(medium_mesh, [g]))[:, 0]
        r = solver.free.K @ solve_load(solver, g)[solver.disc.free_pattern.rows] - b
        assert np.linalg.norm(r) <= 1e-12 * np.linalg.norm(b)

    def test_div_is_trace_of_strain(self, medium_mesh, field_37):
        solver = ElasticitySolver(medium_mesh, field_37)
        u = solve_load(solver, SurfaceLoad(constant=(0.3, 0.5)))
        strain, div = solver.disc.strains(u[:, None])
        exx, eyy, _ = strain
        assert np.array_equal(div, exx + eyy)

    @pytest.mark.parametrize("arc", ARCS)
    def test_block_strains_match_columnwise_formula(self, arc):
        """Bit for bit the single-column formula that the reconstruction bundles were computed with."""
        mesh = partition_boundary(generate_disk_mesh(0.08), BoundaryPartitionSpec(*arc))
        disc = discretization(mesh)
        U = np.random.default_rng(11).standard_normal((disc.n_dofs, 4))
        strain, div = disc.strains(U)
        assert strain.shape == (3, 4, mesh.n_elements) and div.shape == (4, mesh.n_elements)
        # one contiguous row per column: a strided row takes another dot path
        assert strain.flags.c_contiguous and div.flags.c_contiguous
        for k in range(4):
            u = U[:, k].reshape(-1, 2)[mesh.triangles]  # (n_el, 3, 2)
            exx = np.einsum("ej,ej->e", disc.bx, u[..., 0])
            eyy = np.einsum("ej,ej->e", disc.by, u[..., 1])
            exy = 0.5 * (np.einsum("ej,ej->e", disc.by, u[..., 0]) + np.einsum("ej,ej->e", disc.bx, u[..., 1]))
            assert np.array_equal(strain[:, k], np.stack([exx, eyy, exy]))
            assert np.array_equal(div[k], exx + eyy)

    @pytest.mark.parametrize("arc", ARCS)
    def test_strain_dot_matches_tensor_einsum(self, arc):
        """(xx + xy) + (xy + yy) is bit for bit the einsum over the 2x2 tensor,
        which the reconstruction bundles were computed with."""
        mesh = partition_boundary(generate_disk_mesh(0.08), BoundaryPartitionSpec(*arc))
        disc = discretization(mesh)
        strain, _ = disc.strains(np.random.default_rng(13).standard_normal((disc.n_dofs, 4)))
        xx, yy, xy = strain
        tensor = np.stack([xx, xy, xy, yy], axis=-1).reshape(xx.shape + (2, 2))
        expected = np.einsum("keij,keij->ke", tensor, tensor)
        assert np.array_equal((xx * xx + xy * xy) + (xy * xy + yy * yy), expected)
        assert np.array_equal(fem.strain_dot(strain), expected)

    def test_mesh_without_clamped_part_rejected(self, medium_mesh, field_37):
        # every edge loaded: nothing fixes the rigid motions, so the stiffness is singular
        loaded = Mesh(medium_mesh.nodes, medium_mesh.triangles, medium_mesh.boundary_edges,
                      np.zeros(len(medium_mesh.boundary_edges), bool))
        with pytest.raises(FemError, match="no Dirichlet boundary"):
            ElasticitySolver(loaded, field_37)

    def test_load_size_mismatch(self, medium_mesh, field_37):
        solver = ElasticitySolver(medium_mesh, field_37)
        rows = len(solver.disc.trace_dofs)
        for bad in (np.zeros((3, 1)), np.zeros((rows + 2, 1)), np.zeros(rows)):
            with pytest.raises(FemError):
                solver.solve_neumann(bad)

    @pytest.mark.parametrize("constant", [(1.0, 2.0, 3.0), (1.0,), ((1.0, 2.0),), (np.nan, 0.0), "ab"])
    def test_load_must_be_finite_2_vector(self, constant):
        with pytest.raises(ValueError):
            SurfaceLoad(constant=constant)


class TestDirichletSolve:
    def test_zero_trace_zero_solution(self, medium_mesh, field_37):
        solver = ElasticitySolver(medium_mesh, field_37)
        m = len(medium_mesh.neumann_nodes)
        U = solver.solve_dirichlet(np.zeros((2 * m, 1)))
        assert np.all(U == 0.0)

    def test_consistency_with_neumann(self, medium_mesh, field_37):
        solver = ElasticitySolver(medium_mesh, field_37)
        u_n = solve_load(solver, SurfaceLoad(constant=(0.1, 0.1)))
        u_d = solver.solve_dirichlet(u_n[solver.disc.trace_dofs, None])[:, 0]
        assert np.abs(u_d - u_n).max() <= 1e-12

    def test_scaling(self, medium_mesh, field_37):
        solver = ElasticitySolver(medium_mesh, field_37)
        trace = solve_load(solver, SurfaceLoad(constant=(0.1, 0.2)))[solver.disc.trace_dofs, None]
        u1 = solver.solve_dirichlet(trace)
        u3 = solver.solve_dirichlet(3.0 * trace)
        assert np.allclose(u3, 3.0 * u1, rtol=1e-12, atol=1e-16)

    def test_nonfinite_trace_rejected(self, medium_mesh, field_37):
        solver = ElasticitySolver(medium_mesh, field_37)
        m = len(medium_mesh.neumann_nodes)
        bad = np.full((2 * m, 1), np.nan)
        with pytest.raises(FemError):
            solver.solve_dirichlet(bad)


def test_monotone_boundary_energy(medium_mesh):
    # larger parameters -> stiffer body -> smaller measured displacement energy
    g = SurfaceLoad(constant=(0.1, 0.1))
    small = ElasticitySolver(medium_mesh, LameField.constant(1.0, 1.0, medium_mesh.n_elements))
    large = ElasticitySolver(medium_mesh, LameField.constant(3.0, 7.0, medium_mesh.n_elements))
    e_small = boundary_pairing(small, g, solve_load(small, g))
    e_large = boundary_pairing(large, g, solve_load(large, g))
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


@pytest.mark.parametrize("h", [0.25, 0.1, 0.05, 0.02])
@pytest.mark.parametrize("arc", [*ARCS, (0.3, 5.0)])
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
        coeffs = [random_trace(quarter_mesh, rng).ravel() for _ in range(6)]
        coeffs.append(load_coefficients(quarter_mesh, [SurfaceLoad(constant=(0.3, 0.5))])[:, 0])
        coeffs = np.column_stack(coeffs)
        for block, g in zip(solver.solve_neumann(coeffs).T, coeffs.T):
            col = solver.solve_neumann(g[:, None])[:, 0]
            assert np.abs(block - col).max() <= 1e-13 * np.abs(col).max()

    def test_dirichlet_block_equals_columns(self, quarter_mesh):
        rng = np.random.default_rng(22)
        solver = ElasticitySolver(quarter_mesh, random_field(quarter_mesh, rng))
        traces = np.column_stack([random_trace(quarter_mesh, rng).ravel() for _ in range(6)])
        for block, f in zip(solver.solve_dirichlet(traces).T, traces.T):
            col = solver.solve_dirichlet(f[:, None])[:, 0]
            assert np.abs(block - col).max() <= 1e-13 * np.abs(col).max()

    def test_stiffness_norm_taken_once_per_block(self, medium_mesh, field_37, monkeypatch):
        norms = []
        norm = fem.SpdBlock.norm.func  # the function the cached property calls
        monkeypatch.setattr(fem.SpdBlock.norm, "func", lambda block: norms.append(block.K.shape) or norm(block))
        solver = ElasticitySolver(medium_mesh, field_37)
        rng = np.random.default_rng(23)
        for _ in range(3):
            solver.solve_neumann(rng.standard_normal((len(solver.disc.trace_dofs), 2)))
            solver.solve_dirichlet(rng.standard_normal((len(solver.disc.trace_dofs), 2)))
        assert norms == [solver.free.K.shape, solver.interior.K.shape]

    def test_bad_column_fails_despite_block_norm(self, medium_mesh, field_37):
        """A failed small-load column raises although the block-wide residual is tiny."""
        solver = ElasticitySolver(medium_mesh, field_37)
        exact = solver.free.factor

        class Corrupting:
            def solve(self, b):
                x = exact.solve(b)
                x[:, 1] *= 1.0 + 1e-6
                return x

        solver.free.factor = Corrupting()
        coeffs = load_coefficients(
            medium_mesh, [SurfaceLoad(constant=(1e6, 1e6)), SurfaceLoad(constant=(1e-6, 1e-6))]
        )
        B = free_rhs(solver, coeffs)
        X = Corrupting().solve(B)
        block_rel = np.linalg.norm(solver.free.K @ X - B) / np.linalg.norm(B)
        assert block_rel <= 1e-12  # one norm over the block would accept this solve
        with pytest.raises(FemError, match="column 1"):
            solver.solve_neumann(coeffs)

    class Perturbing:
        """Counts its solves; scales column 1 of the first `times` results by 1 + rel."""

        def __init__(self, exact, rel=0.0, times=0):
            self.exact, self.rel, self.times, self.calls = exact, rel, times, 0

        def solve(self, b):
            x = self.exact.solve(b)
            if self.calls < self.times:
                x[:, 1] *= 1.0 + self.rel
            self.calls += 1
            return x

    def test_healthy_block_solves_once(self, medium_mesh, field_37, default_loads):
        solver = ElasticitySolver(medium_mesh, field_37)
        solver.free.factor = neumann = self.Perturbing(solver.free.factor)
        solver.interior.factor = dirichlet = self.Perturbing(solver.interior.factor)
        coeffs = load_coefficients(medium_mesh, default_loads)
        solver.solve_neumann(coeffs)
        solver.solve_dirichlet(coeffs)
        assert (neumann.calls, dirichlet.calls) == (1, 1)

    def test_perturbed_first_solve_is_refined_once(self, medium_mesh, field_37, default_loads):
        solver = ElasticitySolver(medium_mesh, field_37)
        coeffs = load_coefficients(medium_mesh, default_loads)
        exact = solver.solve_neumann(coeffs)
        solver.free.factor = factor = self.Perturbing(solver.free.factor, 1e-10, 1)
        refined = solver.solve_neumann(coeffs)
        assert factor.calls == 2
        assert np.abs(refined - exact).max() <= 1e-14 * np.abs(exact).max()

    def test_refinement_touches_only_the_failed_column(self, medium_mesh, field_37, default_loads):
        """The other columns keep the first solve's bits, and the refinement
        solve stops at the failed column."""
        solver = ElasticitySolver(medium_mesh, field_37)
        coeffs = load_coefficients(medium_mesh, default_loads)
        exact = solver.solve_neumann(coeffs)
        perturbing, widths = self.Perturbing(solver.free.factor, 1e-10, 1), []

        class Recording:
            def solve(self, b):
                widths.append(b.shape[1])
                return perturbing.solve(b)

        solver.free.factor = Recording()
        refined = solver.solve_neumann(coeffs)
        assert widths == [4, 2]
        assert refined[:, [0, 2, 3]].tobytes() == exact[:, [0, 2, 3]].tobytes()
        assert np.abs(refined - exact).max() <= 1e-14 * np.abs(exact).max()

    def test_refined_block_is_judged_again(self, medium_mesh, field_37, default_loads):
        # one refinement step leaves a column perturbed on every solve 1e-12 off
        solver = ElasticitySolver(medium_mesh, field_37)
        solver.free.factor = factor = self.Perturbing(solver.free.factor, 1e-6, 2)
        with pytest.raises(FemError, match="column 1"):
            solver.solve_neumann(load_coefficients(medium_mesh, default_loads))
        assert factor.calls == 2

    def test_mesh_data_shared_between_solvers(self, medium_mesh, field_37, field_11):
        a = ElasticitySolver(medium_mesh, field_37)
        b = ElasticitySolver(medium_mesh, field_11)
        assert a.disc is b.disc is discretization(medium_mesh)

    def test_stiffness_maps_shared_between_solvers(self, medium_mesh, field_37, field_11):
        pa, pb = (ElasticitySolver(medium_mesh, f).disc.free_pattern for f in (field_37, field_11))
        assert pa.lam_map is pb.lam_map and pa.mu_map is pb.mu_map
        # the two maps have one pattern and hold it once
        assert np.shares_memory(pa.lam_map.indices, pa.mu_map.indices)
        assert np.shares_memory(pa.lam_map.indptr, pa.mu_map.indptr)

    @pytest.mark.parametrize("arc", ARCS)
    def test_stiffness_maps_hold_each_upper_element_entry_once(self, medium_mesh, arc):
        """One map entry per element and element-matrix entry that lands on or
        above the free block's diagonal: the rows of the entries below it are
        empty, and each row's elements ascend."""
        mesh = partition_boundary(medium_mesh, BoundaryPartitionSpec(*arc))
        pattern = discretization(mesh).free_pattern
        pos = np.full(2 * mesh.n_nodes, -1)
        pos[pattern.rows] = np.arange(len(pattern.rows))
        dofs = pos[(2 * mesh.triangles[:, :, None] + np.arange(2)).reshape(-1, 6)]
        p, q = dofs[:, :, None], dofs[:, None, :]
        below = np.repeat(np.arange(pattern.shape[0]), np.diff(pattern.indptr)) > pattern.indices
        for m in (pattern.lam_map, pattern.mu_map):
            assert m.shape == (pattern.nnz, mesh.n_elements)
            assert m.nnz == np.count_nonzero((p >= 0) & (p <= q))
            assert not np.diff(m.indptr)[below].any()
            entry = np.repeat(np.arange(pattern.nnz), np.diff(m.indptr))
            assert np.all((np.diff(m.indices) > 0) | (np.diff(entry) > 0))

    def test_stiffness_map_build_stays_lean(self):
        """The build's traced peak is at most 2.5x the maps it must keep,
        sized from their entry counts: two float64 data arrays, one shared
        int32 `indices`, one `indptr` and `from_upper`.  In a cli forward run
        at h=0.02 the build must stay below the peak of the factorization that
        follows it.  The bound is on sizes, not on what the build keeps, so
        keeping more does not pass more easily: a build that gave each map its
        own index arrays through a COO matrix fails."""
        mesh = generate_disk_mesh(0.04)
        tracemalloc.start()
        try:
            pattern = discretization(mesh).free_pattern
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        entries = pattern.lam_map.nnz
        maps = entries * (2 * 8 + 4) + (pattern.nnz + 1) * 4 + pattern.nnz * 4
        assert peak <= 2.5 * maps

    def test_solver_holds_no_element_matrices(self, medium_mesh, field_37):
        solver = ElasticitySolver(medium_mesh, field_37)
        solver.free
        assert [name for name, value in vars(solver).items() if isinstance(value, np.ndarray)] == []

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


def _no_libc_version(name):
    raise ValueError(name)


@pytest.mark.parametrize("confstr", [lambda name: None, _no_libc_version], ids=["none", "unknown-name"])
def test_no_malloc_trim_off_glibc(monkeypatch, confstr):
    # os.confstr answers None, or refuses the name, where the C library is not glibc
    monkeypatch.setattr(fem.os, "confstr", confstr)
    assert fem._glibc_malloc_trim() is None


def test_release_free_heap_trims_only_with_malloc_trim(monkeypatch):
    calls = []
    monkeypatch.setattr(fem, "_MALLOC_TRIM", calls.append)
    release_free_heap()
    assert calls == [0]
    monkeypatch.setattr(fem, "_MALLOC_TRIM", None)
    assert release_free_heap() is None  # a call of None would raise


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
