"""P1 finite elements for 2D isotropic linear elasticity on a tagged mesh.

Displacements are piecewise linear, Lame parameters piecewise constant per
element, so strains are constant per element and all volume integrals reduce
to exact per-element sums.  The stiffness is affine in the per-element
moduli, K = sum_e lam_e K_e^lam + mu_e K_e^mu, so each mesh maps elements to
stiffness entries (one map per modulus) and displacements to strains once,
and a field's stiffness and strains are sparse products.  Surface loads
live in the space of piecewise linear traces on the Neumann boundary that
vanish at the clamped part; the boundary mass matrix of that space converts
nodal load coefficients into the FEM right-hand side.
"""

from __future__ import annotations

import ctypes
import os
import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import Mesh

# tolerance of the per-column normwise backward error of every solve.  The
# backward-stable factorization alone lands below one eps (unrefined solves
# of random columns read at most 0.62 eps on every block, from h=0.25 to
# h=0.02 and at 1e6 contrast); a column whose refined solution is off by
# 1e-12 relative reads ~20 eps at h=0.2
BACKWARD_ERROR_TOL = 16 * np.finfo(float).eps

# SuperLU's column-at-a-time kernel for every block factor: one-column
# panels and no relaxed supernodes (its defaults are 20 and 10).  Two-dof
# nodes leave narrow supernodes, so wide panels cost more than they save;
# the fill is the same
SUPERLU_PANEL_SIZE = 1
SUPERLU_RELAX = 1


def _glibc_malloc_trim():
    """glibc's malloc_trim, or None under another C library."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return None
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, ValueError, OSError):
        return None
    trim.argtypes = (ctypes.c_size_t,)
    trim.restype = ctypes.c_int
    return trim


_MALLOC_TRIM = _glibc_malloc_trim()


def release_free_heap() -> None:
    """Return the free pages of the C heap to the OS; a no-op off glibc.

    SuperLU sizes the storage of a factorization by a fixed fill ratio, a few
    MB per factor at h=0.08.  Once glibc serves such blocks from the heap, a
    small long-lived block above a freed one stops free() from returning its
    touched pages, and the peak RSS of a run varied by ~4 MB with the heap
    layout.  An optimizer run calls this once, when it returns, so each row
    and run starts from a trimmed heap; a trim after every evaluation made
    the next evaluation's factorizations fault the pages straight back in.
    """
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)


# the admissible box (a, b, c, d) of every LameField: lam in [a, b] and mu in [c, d]
DEFAULT_BOUNDS = (1e-6, 1e6, 1e-6, 1e6)


class FemError(RuntimeError):
    """Solver failure or inconsistent FEM input."""


@dataclass(eq=False)
class LameField:
    """Per-element Lame parameters, finite and inside DEFAULT_BOUNDS elementwise."""

    lam: np.ndarray
    mu: np.ndarray

    def __post_init__(self):
        self.lam = np.asarray(self.lam, dtype=float)
        self.mu = np.asarray(self.mu, dtype=float)
        if self.lam.shape != self.mu.shape or self.lam.ndim != 1:
            raise ValueError("lam and mu must be 1-d arrays of equal length")
        # NaN passes the min/max bound checks below, so test finiteness first
        if not (np.all(np.isfinite(self.lam)) and np.all(np.isfinite(self.mu))):
            raise ValueError("lam and mu must be finite")
        a, b, c, d = DEFAULT_BOUNDS
        if self.lam.min(initial=np.inf) < a or self.lam.max(initial=-np.inf) > b:
            raise ValueError("lam outside admissible bounds")
        if self.mu.min(initial=np.inf) < c or self.mu.max(initial=-np.inf) > d:
            raise ValueError("mu outside admissible bounds")

    @classmethod
    def constant(cls, lam: float, mu: float, n_elements: int) -> "LameField":
        return cls(np.full(n_elements, float(lam)), np.full(n_elements, float(mu)))


class RegionParameterization:
    """Lame parameters constant on each region of an element partition.

    The finite-dimensional subspace of the stability estimate: regions[e] is
    element e's region, x stacks the r region values of lam and then of mu,
    and the box (a, b, c, d), ordered and inside DEFAULT_BOUNDS, holds lam in
    [a, b] and mu in [c, d].  One region gives constant fields,
    np.arange(n_elements) per-element ones.
    """

    def __init__(self, regions: np.ndarray, bounds=DEFAULT_BOUNDS):
        if not (bounds[0] <= bounds[1] and bounds[2] <= bounds[3]):
            raise ValueError(f"unordered box {bounds}")
        LameField(np.array(bounds[:2]), np.array(bounds[2:]))  # raises unless the box lies in DEFAULT_BOUNDS
        self.regions = np.asarray(regions)
        self.n_regions = r = int(self.regions.max()) + 1
        self.lower = np.repeat(np.array(bounds[0::2], dtype=float), r)
        self.upper = np.repeat(np.array(bounds[1::2], dtype=float), r)
        # each element's rank among its region's elements, in element order
        order = np.argsort(self.regions, kind="stable")
        sizes = np.bincount(self.regions, minlength=r)
        self._rank = np.empty_like(order)
        self._rank[order] = np.arange(len(order)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        self._table_shape = (2, r, int(sizes.max()))

    def to_field(self, x: np.ndarray) -> LameField:
        r = self.n_regions
        return LameField(x[:r][self.regions], x[r:][self.regions])

    def reduce_gradient(self, g_lam: np.ndarray, g_mu: np.ndarray) -> np.ndarray:
        """The per-element derivatives summed over each region, lam then mu.

        A region's row of the zero-padded table is summed pairwise, as by
        ndarray.sum, so one region gives exactly g.sum() (np.bincount's
        sequential sum moved example1's iterations).
        """
        table = np.zeros(self._table_shape)
        table[:, self.regions, self._rank] = (g_lam, g_mu)
        return table.sum(axis=2).ravel()


def quadrant_regions(mesh: Mesh) -> np.ndarray:
    """Region map of the four disk quadrants, 2 * (x < 0) + (y < 0) at each element centroid."""
    cx, cy = mesh.element_centroids.T
    return (cx < 0).astype(int) * 2 + (cy < 0).astype(int)


@dataclass(frozen=True)
class SurfaceLoad:
    """Constant surface load on the Neumann boundary, a finite 2-vector.

    It is interpolated into the nodal trace space by load_coefficients.
    """

    constant: tuple[float, float]

    def __post_init__(self):
        value = np.asarray(self.constant, dtype=float)
        if value.shape != (2,) or not np.all(np.isfinite(value)):
            raise ValueError(f"constant load must be a finite 2-vector, got {self.constant!r}")


def load_coefficients(mesh: Mesh, loads: list[SurfaceLoad]) -> np.ndarray:
    """(2m, k) load coefficients on the interleaved Neumann trace dofs, one column per load."""
    m = len(mesh.neumann_nodes)
    return np.column_stack([np.tile(np.asarray(g.constant, dtype=float), m) for g in loads])


def _node_dofs(nodes: np.ndarray) -> np.ndarray:
    """The (x, y) dofs of nodes, interleaved node by node."""
    return (2 * np.asarray(nodes)[:, None] + np.arange(2)).ravel()


class Discretization:
    """Mesh-only data of the P1 space: element gradients, node sets, boundary
    mass, the strain map and the CSR patterns of the stiffness blocks, the
    free and interior ones in fill-reducing order, the free one with its stiffness maps.

    Built once per mesh by `discretization` and shared by every solver on that
    mesh.  It keeps no reference to the mesh, so the per-mesh cache does not
    keep meshes alive.
    """

    def __init__(self, mesh: Mesh):
        self.triangles = mesh.triangles
        self.coords = mesh.nodes  # the geometry that nested dissection splits
        self.n_dofs = 2 * mesh.n_nodes
        p = mesh.nodes[mesh.triangles]  # (n_el, 3, 2)
        x, y = p[..., 0], p[..., 1]
        # gradients of barycentric coordinates
        self.area = mesh.element_areas
        two_a = 2.0 * self.area
        self.bx = np.stack(
            [y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1
        ) / two_a[:, None]
        self.by = np.stack(
            [x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1
        ) / two_a[:, None]

        if len(mesh.dirichlet_nodes) == 0:
            raise FemError("mesh has no Dirichlet boundary; problem is singular")
        self.free_nodes = np.setdiff1d(np.arange(mesh.n_nodes), mesh.dirichlet_nodes)
        self.interior_nodes = np.setdiff1d(self.free_nodes, mesh.neumann_nodes)
        self.trace_dofs = _node_dofs(mesh.neumann_nodes)  # the layout of loads and traces
        self.boundary_mass = neumann_mass_matrix(mesh)

    def _node_graph(self) -> sp.csr_matrix:
        """Sorted CSR node adjacency (nodes sharing an element), diagonal included."""
        n, t = self.n_dofs // 2, self.triangles
        i, j = np.repeat(t, 3, axis=1).ravel(), np.tile(t, (1, 3)).ravel()
        return sp.csr_matrix((np.ones(len(i), dtype=np.int8), (i, j)), shape=(n, n))

    # built on first use: a traction-only run never builds the interior blocks
    @cached_property
    def free_pattern(self) -> "BlockPattern":
        """The free block, with its stiffness maps: a field's entries on and
        above the diagonal are `lam_map @ lam + mu_map @ mu`, each summing
        its elements in ascending order, and `source` reads each entry, or
        below the diagonal its mirror, off that product."""
        graph = self._node_graph()
        nodes = _block_order(graph, self.free_nodes, self.coords)
        # two dofs couple when their nodes share an element: the node
        # adjacency of the block, each entry widened to a 2x2 dof block
        block = sp.kron(graph[nodes][:, nodes].sorted_indices(), np.ones((2, 2), dtype=np.int8), format="csr")
        free = BlockPattern(_node_dofs(nodes), _node_dofs(nodes), block)
        positions = free.positions()
        # a mirror sits in a later row, so the upper one of the two has the smaller data index
        free.source = np.minimum(positions.data, positions.T.tocsr().sorted_indices().data)
        pos = np.full(graph.shape[0], -1, dtype=np.int32)
        pos[nodes] = np.arange(len(nodes))
        dofs = (2 * pos[self.triangles][:, :, None] + np.arange(2, dtype=np.int32)).reshape(-1, 6)  # negative outside the block
        # one map entry per element e and element-matrix entry (a, b) on or
        # above the diagonal, filed in the slot of block entry (dofs[e, a], dofs[e, b])
        upper = (dofs[:, :, None] >= 0) & (dofs[:, :, None] <= dofs[:, None, :])
        rows, cols, e, a, b = (t[upper] for t in np.broadcast_arrays(dofs[:, :, None], dofs[:, None, :],
                               np.arange(len(dofs), dtype=np.int32)[:, None, None], *np.indices((6, 6), dtype=np.int8)))
        slot = positions[rows, cols].A1
        del positions, upper, rows, cols
        order = np.argsort(slot, kind="stable")  # each slot's elements still ascend
        indices, a, b = e[order], a[order], b[order]
        indptr = np.bincount(slot + 1, minlength=free.nnz + 1).cumsum().astype(np.int32)  # the entries in lower slots
        del e, slot, order
        # row 0 holds each element dof's own barycentric-gradient component, row 1 the other one
        gh = np.array([[self.bx, self.by], [self.by, self.bx]]).transpose(0, 2, 3, 1).reshape(2, -1)
        at = 6 * indices.astype(np.intp) + a  # the flat index of (e, a) in (n_el, 6), then of (e, b)
        lam, mu = coef = gh[:, at]
        at += b - a
        for c, t in zip(coef, gh):
            c *= t[at]
        del at
        coef *= self.area[indices]
        mu += np.where(a % 2 == b % 2, 2.0 * lam, 0.0)
        free.lam_map, free.mu_map = (sp.csr_matrix((d, indices, indptr), shape=(free.nnz, len(dofs))) for d in coef)
        release_free_heap()  # the build's temporaries are gone: return their storage to the OS
        return free

    # interior and trace nodes are free: these blocks are sliced off the free block
    @cached_property
    def interior_pattern(self) -> "BlockPattern":
        dofs = _node_dofs(_block_order(self._node_graph(), self.interior_nodes, self.coords))
        return self.free_pattern.sub_block(dofs, dofs)

    @cached_property
    def coupling_pattern(self) -> "BlockPattern":
        """The interior x trace block, rows in the interior block's order."""
        return self.free_pattern.sub_block(self.interior_pattern.rows, self.trace_dofs)

    @cached_property
    def trace_last_pattern(self) -> "BlockPattern":
        """The free block in its own order with the Neumann nodes moved last,
        its trailing rows trace_dofs."""
        rows = self.free_pattern.rows
        rows = np.concatenate([rows[~np.isin(rows, self.trace_dofs)], self.trace_dofs])
        return self.free_pattern.sub_block(rows, rows)

    @cached_property
    def strain_map(self) -> sp.csr_matrix:
        """Row c n_el + e sums bx u_x, by u_y, by u_x or bx u_y (c = 0..3) over
        element e's nodes, in its node order."""
        dofs = 2 * self.triangles
        cols = np.stack([dofs, dofs + 1, dofs, dofs + 1]).ravel()
        data = np.stack([self.bx, self.by, self.by, self.bx]).ravel()
        return sp.csr_matrix((data, cols, np.arange(0, len(cols) + 1, 3)), shape=(len(cols) // 3, self.n_dofs))

    def strains(self, U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-element strain components (3, k, n_el), exx, eyy and exy, and
        divergences (k, n_el) of a (2n, k) block of nodal displacements, one
        contiguous row per column."""
        xx, yy, yx, xy = np.ascontiguousarray((self.strain_map @ U).T).reshape(U.shape[1], 4, -1).transpose(1, 0, 2)
        strain = np.stack([xx, yy, 0.5 * (yx + xy)])
        return strain, strain[0] + strain[1]


# meshes are not modified after construction (their own cached properties
# assume the same), so mesh-only data is built once per mesh object
_DISCRETIZATIONS: "weakref.WeakKeyDictionary[Mesh, Discretization]" = weakref.WeakKeyDictionary()


def discretization(mesh: Mesh) -> Discretization:
    """The Discretization of mesh, built on first use and kept while mesh lives."""
    disc = _DISCRETIZATIONS.get(mesh)
    if disc is None:
        disc = _DISCRETIZATIONS[mesh] = Discretization(mesh)
    return disc


def strain_dot(strain: np.ndarray) -> np.ndarray:
    """Per-element strain:strain (k, n_el) of stacked (exx, eyy, exy), as an einsum over the 2x2 tensor sums it."""
    xx, yy, xy = strain * strain
    return (xx + xy) + (xy + yy)


def strain_energy_density(lam: np.ndarray, mu: np.ndarray, strain: np.ndarray, div: np.ndarray) -> np.ndarray:
    """Per-element energy densities (k, n_el) lam*div^2 + 2*mu*strain:strain of a k-column block."""
    return lam * div**2 + 2.0 * mu * strain_dot(strain)


def _fill_reducing_order(graph: sp.csr_matrix) -> np.ndarray:
    """Positions of the nodes of a block's node graph in a fill-reducing
    elimination order.

    SuperLU's symmetric-mode `MMD_AT_PLUS_A` search on the node Laplacian
    plus I.  Searching the node graph keeps each node's two dofs adjacent;
    an incomplete factorization that drops nearly everything returns the
    same `perm_c` as a full one at a third to a half of the cost.
    """
    A = graph.astype(float)
    A.data[:] = -1.0
    A.setdiag(np.diff(A.indptr))  # degree + 1: every row holds its diagonal
    order = np.argsort(spla.spilu(A.T, drop_tol=0.9, fill_factor=1.0, permc_spec="MMD_AT_PLUS_A",
                                  diag_pivot_thresh=0.0, options={"SymmetricMode": True}).perm_c)
    release_free_heap()  # the factor is gone: return its storage to the OS
    return order


# a block of more nodes is ordered by nested dissection, which factors in a
# fifth fewer operations than the minimum-degree order at h=0.02 (7 854
# nodes) but 6-15% more at h=0.05-0.06 (909-1 257 nodes)
DISSECTION_MIN_NODES = 4096
DISSECTION_LEAF = 128  # a part of at most this many nodes takes the minimum-degree order


def _block_order(graph: sp.csr_matrix, nodes: np.ndarray, xy: np.ndarray,
                 dissect_above: int = DISSECTION_MIN_NODES) -> np.ndarray:
    """The nodes in a fill-reducing elimination order of their block of the
    node graph, given the coordinates xy of all nodes.

    A block of more than dissect_above nodes is split at the median of its
    longer coordinate extent.  Its left nodes with a right neighbour
    separate the two sides and go last, after the order of each side, and
    each side of more than DISSECTION_LEAF nodes is split again.  A smaller
    block, or one whose left side comes out empty, takes
    `_fill_reducing_order` (minimum degree) on its extracted graph.
    """
    if len(nodes) > dissect_above:
        c = xy[nodes]
        c = c[:, np.argmax(np.ptp(c, axis=0))]
        left = c < np.median(c)  # never every node: the largest is not below the median
        if left.any():
            # each node's neighbours among this part's right nodes
            sep = left & ((graph @ np.bincount(nodes[~left], minlength=graph.shape[0]))[nodes] > 0)
            return np.concatenate([_block_order(graph, nodes[left & ~sep], xy, DISSECTION_LEAF),
                                   _block_order(graph, nodes[~left], xy, DISSECTION_LEAF), nodes[sep]])
    return nodes[_fill_reducing_order(graph[nodes][:, nodes])]


class BlockPattern:
    """CSR pattern of one stiffness block, column indices sorted in each row.

    Row 2p, 2p + 1 of the block are the x, y dofs of its p-th row node
    (`rows` lists them), and likewise for the columns (`cols`).  `source`
    is the data index of each entry, in CSR order, in the array `gather`
    reads the block's data from.
    """

    def __init__(self, rows: np.ndarray, cols: np.ndarray, block: sp.csr_matrix, source: np.ndarray | None = None):
        self.rows, self.cols, self.source = rows, cols, source
        self.shape, self.nnz, self.indices, self.indptr = block.shape, block.nnz, block.indices, block.indptr

    def gather(self, data: np.ndarray) -> sp.csr_matrix:
        """The block whose entries are data[source]."""
        return sp.csr_matrix((data[self.source], self.indices, self.indptr), shape=self.shape)

    def positions(self) -> sp.csr_matrix:
        """The block with each entry's data index as its value."""
        return sp.csr_matrix((np.arange(self.nnz), self.indices, self.indptr), shape=self.shape)

    def sub_block(self, rows: np.ndarray, cols: np.ndarray) -> "BlockPattern":
        """The block on some row and column dofs of this square block, its
        `source` each entry's data index here: one slice of `positions`,
        which keeps the explicit zero of data index 0."""
        pos = np.zeros(self.rows.max() + 1, dtype=np.intp)  # the block row of each of `rows`
        pos[self.rows] = np.arange(len(self.rows))
        block = self.positions()[pos[rows]][:, pos[cols]].sorted_indices()
        return BlockPattern(rows, cols, block, block.data)


def neumann_mass_matrix(mesh: Mesh) -> sp.csr_matrix:
    """Boundary mass matrix of the nodal trace space on the Neumann part.

    Size (2m, 2m) with m = len(mesh.neumann_nodes); realizes the L2 inner
    product of piecewise linear traces vanishing at the clamped interface.
    The scalar edge masses summed over all nodes (a diagonal entry sums two
    terms, so in any order alike) are sliced to the Neumann nodes, which
    drops the clamped interface, and widened to both components.
    """
    nn = mesh.neumann_nodes
    a, b = mesh.neumann_edges.T
    d = mesh.nodes[b] - mesh.nodes[a]
    # row-wise dot products, the arithmetic of np.linalg.norm on one edge
    length = np.sqrt(np.matmul(d[:, None, :], d[:, :, None]).ravel())
    vals = np.array([2.0, 2.0, 1.0, 1.0]) * length[:, None] / 6.0
    rows, cols = np.stack([a, b, a, b], axis=1), np.stack([a, b, b, a], axis=1)
    scalar = sp.coo_matrix((vals.ravel(), (rows.ravel(), cols.ravel())), shape=(mesh.n_nodes,) * 2)
    return sp.kron(scalar.tocsr()[nn][:, nn], np.eye(2), format="csr")


def _backward_errors(A_norm: float, X: np.ndarray, B: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Per-column normwise backward error of X as a solution of A X = B,
    given |A|_inf and the residual R = B - A X.

    The normwise backward error |A x - b|_inf / (|A|_inf |x|_inf + |b|_inf),
    the smallest relative change of A and b that x solves exactly, stays at
    rounding level for an ill-conditioned but correct solve, where the
    relative residual grows with the condition number.  Each column is
    judged on its own: one norm over the block would let a small load's
    failed solve hide behind a large one.
    """
    def col_max(M):
        return np.abs(M).max(axis=0, initial=0.0)

    scale = A_norm * col_max(X) + col_max(B)
    return col_max(R) / np.maximum(scale, 1.0e-300)


def _factor_spd(K: sp.csr_matrix):
    """Sparse LU with diagonal pivots of the exactly symmetric positive
    definite block K, laid out in its pattern's fill-reducing order.

    An SPD matrix needs no row pivoting for a stable factorization, and
    symmetric mode keeps the fill of a Cholesky factor of the order it is
    given.  K.T is the CSC view of K's own arrays.
    """
    return spla.splu(K.T, permc_spec="NATURAL", diag_pivot_thresh=0.0, relax=SUPERLU_RELAX,
                     panel_size=SUPERLU_PANEL_SIZE, options={"SymmetricMode": True})


class SpdBlock:
    """A symmetric positive definite stiffness block K, its factor and |K|_inf,
    both built on first use and reused by every block of right-hand sides."""

    def __init__(self, K: sp.csr_matrix):
        self.K = K

    @cached_property
    def factor(self):
        return _factor_spd(self.K)

    @cached_property
    def norm(self) -> float:
        """|K|_inf, the largest row sum of |K|; every row of a stiffness block holds its diagonal."""
        return float(np.add.reduceat(np.abs(self.K.data), self.K.indptr[:-1]).max())

    def solve(self, B: np.ndarray) -> np.ndarray:
        """K^-1 B, each column within BACKWARD_ERROR_TOL, or FemError."""
        # the factorization alone solves to rounding level, so only a column
        # past the tolerance takes one refinement step, and is then judged
        # again; the others stay as solved, so no column depends on its
        # neighbours.  The refinement keeps the block's column positions, up
        # to the last failed column
        X = self.factor.solve(B)
        R = B - self.K @ X
        eta = _backward_errors(self.norm, X, B, R)
        bad = np.flatnonzero(~(eta <= BACKWARD_ERROR_TOL))  # NaN counts as failed
        if len(bad):
            X[:, bad] += self.factor.solve(R[:, : bad[-1] + 1])[:, bad]
            Xb, Bb = X[:, bad], B[:, bad]
            eta[bad] = _backward_errors(self.norm, Xb, Bb, Bb - self.K @ Xb)
            bad = np.flatnonzero(~(eta <= BACKWARD_ERROR_TOL))
        if len(bad):
            raise FemError(f"linear solve failed, backward error {eta[bad[0]]:.3e} in column {bad[0]}")
        return X


class ElasticitySolver:
    """Traction and prescribed-trace solves sharing one stiffness per field.

    On first use the field's free block is built from the mesh's stiffness
    maps, and the other blocks are gathered from its data: the interior
    ones, for prescribed-trace solves, and the free block with the Neumann
    nodes last, which `ntd.build_ntd` factors.  A traction solve lays its loads
    out on the global dofs and solves on the rows of that trace-last block
    once it is built, else of the free block, so a field factors one free block.
    Every solve takes a block of right-hand sides, one column per load or trace.
    """

    def __init__(self, mesh: Mesh, field: LameField):
        if len(field.lam) != mesh.n_elements:
            raise ValueError(f"field has {len(field.lam)} elements, mesh has {mesh.n_elements}")
        self.mesh = mesh
        self.field = field
        self.disc = discretization(mesh)

    @cached_property
    def free(self) -> SpdBlock:
        p = self.disc.free_pattern
        # two products: one over the stacked [lam; mu] rounds differently
        return SpdBlock(p.gather(p.lam_map @ self.field.lam + p.mu_map @ self.field.mu))

    @cached_property
    def interior(self) -> SpdBlock:
        return SpdBlock(self.disc.interior_pattern.gather(self.free.K.data))

    @cached_property
    def trace_last(self) -> SpdBlock:
        return SpdBlock(self.disc.trace_last_pattern.gather(self.free.K.data))

    def _trace_block(self, X: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
        """X as a float block on the Neumann trace dofs, or FemError, and the zero (2n, k) block its solve fills."""
        X = np.asarray(X, dtype=float)
        rows = len(self.disc.trace_dofs)
        if X.ndim != 2 or X.shape[0] != rows or not np.all(np.isfinite(X)):
            raise FemError(f"{what} must be a finite ({rows}, k) block, got shape {X.shape}")
        return X, np.zeros((self.disc.n_dofs, X.shape[1]))

    def solve_neumann(self, coeffs: np.ndarray) -> np.ndarray:
        """Traction solves: the (2n, k) nodal displacements for a (2m, k) block
        of load coefficients on disc.trace_dofs, clamped part fixed."""
        disc = self.disc
        coeffs, U = self._trace_block(coeffs, "load coefficients")
        block, rows = self.free, disc.free_pattern.rows
        if "trace_last" in vars(self):  # built by build_ntd, which factors it at once
            block, rows = self.trace_last, disc.trace_last_pattern.rows
        U[disc.trace_dofs] = disc.boundary_mass @ coeffs
        U[rows] = block.solve(U[rows])
        return U

    def solve_dirichlet(self, traces: np.ndarray) -> np.ndarray:
        """Prescribed-trace solves: the (2n, k) nodal displacements for a (2m, k)
        block of traces on disc.trace_dofs, clamped part fixed; the equation
        holds against interior test functions."""
        disc = self.disc
        traces, U = self._trace_block(traces, "trace data")
        U[disc.trace_dofs] = traces
        B = -(disc.coupling_pattern.gather(self.free.K.data) @ traces)
        U[disc.interior_pattern.rows] = self.interior.solve(B)
        return U
