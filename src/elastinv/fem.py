"""P1 finite elements for 2D isotropic linear elasticity on a tagged mesh.

Displacements are piecewise linear, Lame parameters piecewise constant per
element, so strains are constant per element and all volume integrals reduce
to exact per-element sums.  Surface loads live in the space of piecewise
linear traces on the Neumann boundary that vanish at the clamped part; the
boundary mass matrix of that space converts nodal load coefficients into the
FEM right-hand side.
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

SOLVER_RTOL = 1e-12


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
    MB per factor at h=0.08, and an optimizer evaluation frees its two factors
    again.  Once glibc serves such blocks from the heap, a small long-lived
    block that lands above a freed one stops free() from returning its
    touched pages, and the next factors are placed beside them: the peak RSS
    of a reconstruction run then varied by ~4 MB from run to run with the
    heap layout.  Trimming after each evaluation drops those pages whatever
    the layout.
    """
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)


class FemError(RuntimeError):
    """Solver failure or inconsistent FEM input."""


@dataclass(eq=False)
class LameField:
    """Per-element Lame parameters with admissibility bounds (a, b, c, d).

    Requires a <= lam <= b and c <= mu <= d elementwise with 0 < a, 0 < c.
    """

    lam: np.ndarray
    mu: np.ndarray
    bounds: tuple[float, float, float, float] = (1e-6, 1e6, 1e-6, 1e6)

    def __post_init__(self):
        self.lam = np.asarray(self.lam, dtype=float)
        self.mu = np.asarray(self.mu, dtype=float)
        a, b, c, d = self.bounds
        if not (0 < a <= b and 0 < c <= d):
            raise ValueError(f"invalid bounds {self.bounds}")
        if self.lam.shape != self.mu.shape or self.lam.ndim != 1:
            raise ValueError("lam and mu must be 1-d arrays of equal length")
        # NaN passes the min/max bound checks below, so test finiteness first
        if not (np.all(np.isfinite(self.lam)) and np.all(np.isfinite(self.mu))):
            raise ValueError("lam and mu must be finite")
        if self.lam.min(initial=np.inf) < a or self.lam.max(initial=-np.inf) > b:
            raise ValueError("lam outside admissible bounds")
        if self.mu.min(initial=np.inf) < c or self.mu.max(initial=-np.inf) > d:
            raise ValueError("mu outside admissible bounds")

    @classmethod
    def constant(cls, lam: float, mu: float, n_elements: int, bounds=None) -> "LameField":
        kwargs = {} if bounds is None else {"bounds": bounds}
        return cls(np.full(n_elements, float(lam)), np.full(n_elements, float(mu)), **kwargs)

    def check_mesh(self, mesh: Mesh) -> None:
        if len(self.lam) != mesh.n_elements:
            raise ValueError(
                f"field has {len(self.lam)} elements, mesh has {mesh.n_elements}"
            )


@dataclass(frozen=True)
class SurfaceLoad:
    """Surface load on the Neumann boundary.

    Either a constant 2-vector (interpolated into the nodal trace space) or
    explicit nodal values, one 2-vector per Neumann node in mesh order.
    """

    constant: tuple[float, float] | None = None
    nodal: np.ndarray | None = None

    def __post_init__(self):
        if (self.constant is None) == (self.nodal is None):
            raise ValueError("exactly one of constant/nodal must be given")
        if self.nodal is not None:
            arr = np.asarray(self.nodal, dtype=float)
            if arr.ndim != 2 or arr.shape[1] != 2 or not np.all(np.isfinite(arr)):
                raise ValueError("nodal load must be a finite (m, 2) array")
            object.__setattr__(self, "nodal", arr)
        else:
            if not np.all(np.isfinite(self.constant)):
                raise ValueError("constant load must be finite")

    def nodal_values(self, mesh: Mesh) -> np.ndarray:
        """(m, 2) load coefficients on the Neumann nodes of mesh."""
        m = len(mesh.neumann_nodes)
        if self.constant is not None:
            return np.tile(np.asarray(self.constant, dtype=float), (m, 1))
        if self.nodal.shape[0] != m:
            raise ValueError(
                f"nodal load has {self.nodal.shape[0]} rows, mesh has {m} Neumann nodes"
            )
        return self.nodal


@dataclass(eq=False)
class ForwardSolution:
    """Nodal displacement with per-element strain and divergence."""

    displacement: np.ndarray        # (n_nodes, 2)
    trace_on_neumann: np.ndarray    # (m, 2) on mesh.neumann_nodes
    per_element_strain: np.ndarray  # (n_el, 2, 2), symmetric
    per_element_div: np.ndarray     # (n_el,)


@dataclass(eq=False)
class AssembledSystem:
    """Reduced stiffness on free dofs, load vector, and the dof map."""

    stiffness: sp.csr_matrix
    load: np.ndarray
    free_dofs: np.ndarray  # global dof index per unknown


class Discretization:
    """Mesh-only data of the P1 space: element gradients, dof sets, boundary mass.

    Built once per mesh by `discretization` and shared by every solver on that
    mesh.  It keeps no reference to the mesh, so the per-mesh cache does not
    keep meshes alive.
    """

    def __init__(self, mesh: Mesh):
        self.triangles = mesh.triangles
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
        dirichlet_dofs = np.concatenate([2 * mesh.dirichlet_nodes, 2 * mesh.dirichlet_nodes + 1])
        self.free_dofs = np.setdiff1d(np.arange(self.n_dofs), dirichlet_dofs)
        # interleaved (x, y) dofs of mesh.neumann_nodes: the layout of load
        # coefficients and traces; sorted, since the nodes are
        self.trace_dofs = np.empty(2 * len(mesh.neumann_nodes), dtype=np.int64)
        self.trace_dofs[0::2] = 2 * mesh.neumann_nodes
        self.trace_dofs[1::2] = 2 * mesh.neumann_nodes + 1
        self.interior_dofs = np.setdiff1d(self.free_dofs, self.trace_dofs)
        self.boundary_mass = neumann_mass_matrix(mesh)

    def strains(self, displacement: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-element symmetric strain (n_el, 2, 2) and divergence (n_el,)."""
        u = displacement[self.triangles]  # (n_el, 3, 2)
        exx = np.einsum("ej,ej->e", self.bx, u[..., 0])
        eyy = np.einsum("ej,ej->e", self.by, u[..., 1])
        exy = 0.5 * (
            np.einsum("ej,ej->e", self.by, u[..., 0])
            + np.einsum("ej,ej->e", self.bx, u[..., 1])
        )
        strain = np.empty((len(exx), 2, 2))
        strain[:, 0, 0] = exx
        strain[:, 1, 1] = eyy
        strain[:, 0, 1] = strain[:, 1, 0] = exy
        return strain, exx + eyy


# meshes are not modified after construction (their own cached properties
# assume the same), so mesh-only data is built once per mesh object
_DISCRETIZATIONS: "weakref.WeakKeyDictionary[Mesh, Discretization]" = weakref.WeakKeyDictionary()


def discretization(mesh: Mesh) -> Discretization:
    """The Discretization of mesh, built on first use and kept while mesh lives."""
    disc = _DISCRETIZATIONS.get(mesh)
    if disc is None:
        disc = _DISCRETIZATIONS[mesh] = Discretization(mesh)
    return disc


def isotropic_stress(lam: float, mu: float, strain: np.ndarray) -> np.ndarray:
    """Stress lam*tr(strain)*I + 2*mu*strain for a 2x2 symmetric strain."""
    strain = np.asarray(strain, dtype=float)
    return lam * np.trace(strain) * np.eye(2) + 2.0 * mu * strain


def strain_energy_density(field: LameField, strain: np.ndarray, div: np.ndarray) -> np.ndarray:
    """Per-element energy density C(strain):strain = lam*div^2 + 2*mu*strain:strain."""
    ss = np.einsum("eij,eij->e", strain, strain)
    return field.lam * div**2 + 2.0 * field.mu * ss


def assemble_stiffness(mesh: Mesh, field: LameField) -> sp.csr_matrix:
    """Full (unconstrained) stiffness matrix, dofs interleaved (2*node + comp)."""
    field.check_mesh(mesh)
    disc = discretization(mesh)
    n_el = mesh.n_elements
    lam, mu = field.lam, field.mu

    # B maps the 6 nodal dofs to Voigt strain (exx, eyy, 2 exy)
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
    ke = 0.5 * (ke + ke.transpose(0, 2, 1))  # exact symmetry despite fp rounding

    dofs = np.empty((n_el, 6), dtype=np.int64)
    dofs[:, 0::2] = 2 * mesh.triangles
    dofs[:, 1::2] = 2 * mesh.triangles + 1
    rows = np.repeat(dofs, 6, axis=1).ravel()
    cols = np.tile(dofs, (1, 6)).ravel()
    K = sp.coo_matrix((ke.ravel(), (rows, cols)), shape=(disc.n_dofs, disc.n_dofs)).tocsr()
    # duplicate summation order can differ between (i, j) and (j, i);
    # symmetrize so K == K.T holds exactly
    return ((K + K.T) * 0.5).tocsr()


def neumann_mass_matrix(mesh: Mesh) -> sp.csr_matrix:
    """Boundary mass matrix of the nodal trace space on the Neumann part.

    Size (2m, 2m) with m = len(mesh.neumann_nodes); realizes the L2 inner
    product of piecewise linear traces vanishing at the clamped interface.
    Entries are listed edge by edge, (a, a), (b, b), (a, b), (b, a), each
    for both components, so duplicates are summed in a fixed order.
    """
    nn = mesh.neumann_nodes
    pos = np.full(mesh.n_nodes, -1, dtype=np.int64)
    pos[nn] = np.arange(len(nn))
    a, b = mesh.neumann_edges.T
    d = mesh.nodes[b] - mesh.nodes[a]
    # row-wise dot products, the arithmetic of np.linalg.norm on one edge
    length = np.sqrt(np.matmul(d[:, None, :], d[:, :, None]).ravel())
    u = pos[np.stack([a, b, a, b], axis=1)]  # (edges, 4) local entry rows
    v = pos[np.stack([a, b, b, a], axis=1)]
    vals = np.array([2.0, 2.0, 1.0, 1.0]) * length[:, None] / 6.0
    # an entry touching a clamped-interface node (pos -1) is dropped
    keep = (u >= 0) & (v >= 0)
    comp = np.array([0, 1])
    rows = (2 * u[..., None] + comp)[keep]
    cols = (2 * v[..., None] + comp)[keep]
    vals = np.repeat(vals[..., None], 2, axis=2)[keep]
    m = 2 * len(nn)
    return sp.coo_matrix((vals.ravel(), (rows.ravel(), cols.ravel())), shape=(m, m)).tocsr()


def _check_residuals(A, X: np.ndarray, B: np.ndarray) -> None:
    """Raise FemError unless every column of X solves A x = b to SOLVER_RTOL.

    Each column is judged against its own right-hand side: one norm over the
    block would let a small load's failed solve hide behind a large one.
    """
    rel = np.linalg.norm(A @ X - B, axis=0) / np.maximum(np.linalg.norm(B, axis=0), 1.0e-300)
    bad = ~(rel <= SOLVER_RTOL)  # NaN counts as failed
    if bad.any():
        j = int(np.argmax(bad))
        raise FemError(f"linear solve failed, relative residual {rel[j]:.3e} in column {j}")


class ElasticitySolver:
    """Traction and prescribed-trace solves sharing one stiffness per field.

    Every solve takes a block of right-hand sides, one column per load or
    trace, against one factorization per boundary partition.  Factorizations
    are built lazily and reused across blocks; they are immutable once
    constructed.
    """

    def __init__(self, mesh: Mesh, field: LameField):
        field.check_mesh(mesh)
        self.mesh = mesh
        self.field = field
        self.disc = discretization(mesh)
        self.K = assemble_stiffness(mesh, field)

    @cached_property
    def K_free(self) -> sp.csr_matrix:
        free = self.disc.free_dofs
        return self.K[np.ix_(free, free)].tocsr()

    @cached_property
    def K_interior(self) -> sp.csr_matrix:
        interior = self.disc.interior_dofs
        return self.K[np.ix_(interior, interior)].tocsr()

    @cached_property
    def _neumann_factor(self):
        return spla.splu(self.K_free.tocsc())

    @cached_property
    def _dirichlet_factor(self):
        return spla.splu(self.K_interior.tocsc())

    def _package(self, u_flat: np.ndarray) -> ForwardSolution:
        u = u_flat.reshape(-1, 2)
        strain, div = self.disc.strains(u)
        return ForwardSolution(
            displacement=u,
            trace_on_neumann=u[self.mesh.neumann_nodes],
            per_element_strain=strain,
            per_element_div=div,
        )

    @staticmethod
    def _solve_refined(factor, K, B: np.ndarray) -> np.ndarray:
        # one step of iterative refinement keeps the relative residual at
        # machine level even for ill-conditioned partitions
        X = factor.solve(B)
        X += factor.solve(B - K @ X)
        _check_residuals(K, X, B)
        return X

    # -- traction (Neumann) solves -----------------------------------------

    def load_block(self, coeffs: np.ndarray) -> np.ndarray:
        """Free-dof right-hand sides M g for load coefficient columns (2m, k)."""
        disc = self.disc
        B = np.zeros((disc.n_dofs, coeffs.shape[1]))
        B[disc.trace_dofs] = disc.boundary_mass @ coeffs
        return B[disc.free_dofs]

    def neumann_displacements(self, coeffs: np.ndarray) -> np.ndarray:
        """Traction solves for load coefficient columns (2m, k); nodal dofs (2n, k)."""
        U = np.zeros((self.disc.n_dofs, coeffs.shape[1]))
        U[self.disc.free_dofs] = self._solve_refined(
            self._neumann_factor, self.K_free, self.load_block(coeffs)
        )
        return U

    def solve_neumann_block(self, loads: list[SurfaceLoad]) -> list[ForwardSolution]:
        """Traction problems, one per load: loaded Neumann part, clamped elsewhere."""
        coeffs = np.column_stack([g.nodal_values(self.mesh).ravel() for g in loads])
        return [self._package(u) for u in self.neumann_displacements(coeffs).T]

    def solve_neumann(self, load: SurfaceLoad) -> ForwardSolution:
        """Solve the traction problem: load on the Neumann part, clamped elsewhere."""
        return self.solve_neumann_block([load])[0]

    # -- prescribed-trace (Dirichlet) solves -------------------------------

    def solve_dirichlet_block(self, traces: list[np.ndarray]) -> list[ForwardSolution]:
        """Solve with each prescribed displacement trace on the Neumann nodes.

        Each trace is an (m, 2) array on mesh.neumann_nodes; the clamped part
        stays zero and the equation holds against interior test functions.
        """
        disc = self.disc
        m = len(self.mesh.neumann_nodes)
        U = np.zeros((disc.n_dofs, len(traces)))
        for j, trace in enumerate(traces):
            trace = np.asarray(trace, dtype=float)
            if trace.shape != (m, 2) or not np.all(np.isfinite(trace)):
                raise FemError(f"trace data must be a finite ({m}, 2) array")
            U[disc.trace_dofs, j] = trace.ravel()
        B = -(self.K @ U)[disc.interior_dofs]
        U[disc.interior_dofs] = self._solve_refined(self._dirichlet_factor, self.K_interior, B)
        return [self._package(u) for u in U.T]

    def solve_dirichlet(self, trace_data: np.ndarray) -> ForwardSolution:
        """Solve with prescribed displacement trace_data, (m, 2), on the Neumann nodes."""
        return self.solve_dirichlet_block([trace_data])[0]

    # -- energies ---------------------------------------------------------

    def interior_energy(self, sol: ForwardSolution) -> float:
        """Exact volume integral of C(strain):strain over the mesh."""
        dens = strain_energy_density(self.field, sol.per_element_strain, sol.per_element_div)
        return float(np.dot(self.disc.area, dens))

    def boundary_pairing(self, load: SurfaceLoad, sol: ForwardSolution) -> float:
        """Boundary integral of load . trace over the Neumann part."""
        g = load.nodal_values(self.mesh).ravel()
        t = sol.trace_on_neumann.ravel()
        return float(g @ (self.disc.boundary_mass @ t))


def assemble(mesh: Mesh, field: LameField, load: SurfaceLoad) -> AssembledSystem:
    """Reduced SPD system for the traction problem (Dirichlet dofs eliminated)."""
    solver = ElasticitySolver(mesh, field)
    coeffs = load.nodal_values(mesh).reshape(-1, 1)
    return AssembledSystem(
        stiffness=solver.K_free,
        load=solver.load_block(coeffs)[:, 0],
        free_dofs=solver.disc.free_dofs,
    )
