"""Discrete Neumann-to-Dirichlet operator and its order/stability analysis.

The operator maps nodal load coefficients on the Neumann boundary to nodal
displacement traces there.  All inner products and norms are weighted by the
boundary mass matrix, so the matrix statements mirror the L2 statements for
the continuum operator: self-adjointness, the two-sided monotonicity
inequality, the Loewner ordering for pointwise-ordered parameter pairs, and
the ratio experiment that estimates a Lipschitz stability constant on a
finite family.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .fem import ElasticitySolver, LameField, SurfaceLoad
from .mesh import Mesh

LEQ = "LEQ"
GEQ = "GEQ"

SYM_TOL = 1e-10      # relative tolerance for discrete self-adjointness
ORDER_TOL = 1e-8     # slack for inequalities obtained through eigen-solves
# hat loads are solved NTD_BLOCK columns at a time: at h=0.08 one block over
# all 2m columns was no faster and raised peak RSS by ~5 MB over column-wise
# solves, while 16-column blocks keep it at the column-wise level
NTD_BLOCK = 16


class OrderError(ValueError):
    """A parameter pair does not satisfy the required pointwise ordering."""


@dataclass(eq=False)
class NtDOperator:
    """Matrix realization of the load-to-trace map on Neumann nodal dofs."""

    matrix: np.ndarray          # (2m, 2m), load coefficients -> trace coefficients
    boundary_mass: np.ndarray   # (2m, 2m) dense SPD
    mesh_ref: Mesh
    field_ref: LameField

    def pairing(self, g: np.ndarray, h: np.ndarray | None = None) -> float:
        """M-weighted pairing <g, NtD h>; h defaults to g."""
        if h is None:
            h = g
        return float(g @ (self.boundary_mass @ (self.matrix @ h)))

    def symmetry_defect(self) -> float:
        """max-norm asymmetry of M*NtD relative to its own scale."""
        A = self.boundary_mass @ self.matrix
        return float(np.abs(A - A.T).max() / np.abs(A).max())


def build_ntd(mesh: Mesh, field: LameField, basis: list[SurfaceLoad] | None = None) -> NtDOperator:
    """Assemble the NtD matrix from block solves against one factorization.

    With the default basis (all nodal hat loads) the result is the full
    operator on the Neumann trace space; a custom basis gives the rectangular
    probe matrix instead.
    """
    return ntd_from_solver(ElasticitySolver(mesh, field), basis)


def ntd_from_solver(solver: ElasticitySolver, basis: list[SurfaceLoad] | None = None) -> NtDOperator:
    """build_ntd for the mesh and field of an existing solver, reusing its factorization."""
    disc = solver.disc
    if basis is None:
        coeffs = np.eye(len(disc.trace_dofs))
    else:
        coeffs = np.column_stack([g.nodal_values(solver.mesh).ravel() for g in basis])
    traces = np.empty((len(disc.trace_dofs), coeffs.shape[1]))
    for start in range(0, coeffs.shape[1], NTD_BLOCK):
        cols = slice(start, start + NTD_BLOCK)
        traces[:, cols] = solver.neumann_displacements(coeffs[:, cols])[disc.trace_dofs]
    return NtDOperator(traces, disc.boundary_mass.toarray(), solver.mesh, solver.field)


@dataclass(frozen=True)
class OrderedPair:
    """Two Lame fields on one mesh with a pointwise order between them."""

    field_1: LameField
    field_2: LameField
    order: str = LEQ

    def __post_init__(self):
        if self.order not in (LEQ, GEQ):
            raise OrderError(f"unknown order {self.order!r}")
        f1, f2 = self.field_1, self.field_2
        if self.order == GEQ:
            f1, f2 = f2, f1
        if not (np.all(f1.lam <= f2.lam) and np.all(f1.mu <= f2.mu)):
            raise OrderError("fields are not pointwise ordered as declared")

    def ascending(self) -> tuple[LameField, LameField]:
        """(lower, upper) in the pointwise order."""
        if self.order == LEQ:
            return self.field_1, self.field_2
        return self.field_2, self.field_1


def monotonicity_sandwich(mesh: Mesh, pair: OrderedPair, g: SurfaceLoad) -> tuple[float, float, float]:
    """The three quantities of the two-sided monotonicity inequality.

    Returns (lhs, mid, rhs) where
      lhs = integral (C1 - C2) strain(u2) : strain(u2),
      mid = <g, NtD(C2) g> - <g, NtD(C1) g>,
      rhs = integral (C1 - C2) strain(u1) : strain(u1),
    and lhs >= mid >= rhs for any pair of admissible tensors.
    """
    s1 = ElasticitySolver(mesh, pair.field_1)
    s2 = ElasticitySolver(mesh, pair.field_2)
    return sandwich_from_solvers(s1, s2, [g])[0]


def sandwich_from_solvers(
    s1: ElasticitySolver, s2: ElasticitySolver, loads: list[SurfaceLoad]
) -> list[tuple[float, float, float]]:
    """monotonicity_sandwich for every load, from the solvers of field_1 and field_2."""
    dlam = s1.field.lam - s2.field.lam
    dmu = s1.field.mu - s2.field.mu
    area = s1.mesh.element_areas

    def weighted(sol):
        ss = np.einsum("eij,eij->e", sol.per_element_strain, sol.per_element_strain)
        return float(np.dot(area, dlam * sol.per_element_div**2 + 2.0 * dmu * ss))

    terms = []
    for g, u1, u2 in zip(loads, s1.solve_neumann_block(loads), s2.solve_neumann_block(loads)):
        mid = s2.boundary_pairing(g, u2) - s1.boundary_pairing(g, u1)
        terms.append((weighted(u2), mid, weighted(u1)))
    return terms


def _symmetrized_eigs(op1: NtDOperator, op2: NtDOperator) -> np.ndarray:
    """Eigenvalues of the difference operator in the M-weighted geometry.

    Solves the generalized symmetric problem sym(M (L1 - L2)) x = theta M x,
    which is the discrete spectrum of L1 - L2 as a self-adjoint operator on
    the weighted trace space.
    """
    M = op1.boundary_mass
    A = M @ (op1.matrix - op2.matrix)
    A = 0.5 * (A + A.T)
    return scipy.linalg.eigh(A, M, eigvals_only=True)


def loewner_gap(op1: NtDOperator, op2: NtDOperator, pair: OrderedPair) -> float:
    """Smallest weighted eigenvalue of NtD(lower) - NtD(upper).

    For a pointwise-ordered pair the monotonicity result predicts the gap is
    nonnegative up to eigen-solve noise.  op1/op2 must correspond to
    pair.field_1/pair.field_2.
    """
    lower, upper = pair.ascending()
    if lower is pair.field_2:
        op1, op2 = op2, op1
    return float(_symmetrized_eigs(op1, op2).min())


def operator_distance(op1: NtDOperator, op2: NtDOperator) -> float:
    """Operator norm of the difference on the weighted trace space."""
    return float(np.abs(_symmetrized_eigs(op1, op2)).max())


def parameter_distance(field_1: LameField, field_2: LameField) -> float:
    """max of the two sup-norm parameter differences."""
    return float(
        max(np.abs(field_1.lam - field_2.lam).max(), np.abs(field_1.mu - field_2.mu).max())
    )


@dataclass
class StabilityReport:
    """Outcome of the empirical Lipschitz-constant experiment."""

    ratios: list[float]
    parameter_distances: list[float]
    operator_distances: list[float]
    skipped: int
    max_ratio: float | None
    min_ratio: float | None

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def stability_ratio_experiment(mesh: Mesh, family: list[OrderedPair]) -> StabilityReport:
    """Ratio d(params) / |NtD difference| over a family of ordered pairs.

    Pairs with coincident parameters are skipped.  The max ratio is the
    empirical stability constant of the sampled family at this
    discretization; no threshold is imposed on its size.
    """
    ratios, dps, dops = [], [], []
    skipped = 0
    for pair in family:
        dp = parameter_distance(pair.field_1, pair.field_2)
        if dp == 0.0:
            skipped += 1
            continue
        op1 = build_ntd(mesh, pair.field_1)
        op2 = build_ntd(mesh, pair.field_2)
        dop = operator_distance(op1, op2)
        dps.append(dp)
        dops.append(dop)
        ratios.append(dp / dop if dop > 0.0 else float("inf"))
    return StabilityReport(
        ratios=ratios,
        parameter_distances=dps,
        operator_distances=dops,
        skipped=skipped,
        max_ratio=max(ratios) if ratios else None,
        min_ratio=min(ratios) if ratios else None,
    )


def quadrant_pair(mesh: Mesh, rng: np.random.Generator, bounds=(0.5, 4.0, 0.5, 8.0)) -> OrderedPair:
    """Random pointwise-ordered pair, piecewise constant on the disk quadrants.

    Two draws per quadrant from the admissible box are split into min/max
    envelopes, which yields an ordered pair by construction.
    """
    a, b, c, d = bounds
    cx, cy = mesh.element_centroids.T
    quadrant = (cx < 0).astype(int) * 2 + (cy < 0).astype(int)

    def draw():
        lam_q = rng.uniform(a, b, size=4)
        mu_q = rng.uniform(c, d, size=4)
        return lam_q[quadrant], mu_q[quadrant]

    lam_a, mu_a = draw()
    lam_b, mu_b = draw()
    lo = LameField(np.minimum(lam_a, lam_b), np.minimum(mu_a, mu_b), bounds=bounds)
    hi = LameField(np.maximum(lam_a, lam_b), np.maximum(mu_a, mu_b), bounds=bounds)
    return OrderedPair(lo, hi, LEQ)
