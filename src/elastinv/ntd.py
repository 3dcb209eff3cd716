"""Discrete Neumann-to-Dirichlet operator and its order/stability analysis.

The operator maps nodal load coefficients on the Neumann boundary to nodal
displacement traces there.  All inner products and norms are weighted by the
boundary mass matrix, so the matrix statements mirror the L2 statements for
the continuum operator: self-adjointness, the two-sided monotonicity
inequality, the Loewner ordering for pointwise-ordered parameter pairs, and
the operator and parameter distances whose ratio estimates a Lipschitz
stability constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .fem import (
    ElasticitySolver, FemError, LameField, RegionParameterization, SurfaceLoad, load_coefficients,
    quadrant_regions, strain_energy_density,
)
from .mesh import Mesh

ORDER_TOL = 1e-8     # slack for inequalities obtained through eigen-solves
# tolerance of build_ntd's probe, relative to the probe trace's largest entry.
# The probe and the matrix come from one factor and miss by rounding: at most
# 12 eps on both default arcs at h=0.3-0.02, per-element fields of 1e+-3
# contrast.  A factor of K (1 + 1e-10) misses by 1e-10
PROBE_TOL = 1e-12


class OrderError(ValueError):
    """A parameter pair does not satisfy the required pointwise ordering."""


def build_ntd(solver: ElasticitySolver) -> np.ndarray:
    """The (2m, 2m) NtD matrix of the solver's field on the Neumann trace space.

    The free block in trace-last order factors as L U, and its trailing 2m
    rows and columns L22, U22 give the trace Schur complement L22 U22, so the
    matrix is U22^-1 L22^-1 M, M the boundary mass.  The factor is the
    solver's `trace_last`, kept there for its later traction solves.
    FemError unless SuperLU left both permutations the identity, which keeps
    the trace last, and unless one probe load, the sum of the hat loads,
    solved through the whole factor with its backward-error check, has the
    trace NtD @ 1 within PROBE_TOL.
    """
    disc = solver.disc
    block = solver.trace_last
    lu, n = block.factor, block.K.shape[0]
    if not (np.array_equal(lu.perm_r, np.arange(n)) and np.array_equal(lu.perm_c, np.arange(n))):
        raise FemError("the trace-last factor is permuted, so its trailing block is not the trace's")
    t = n - len(disc.trace_dofs)  # the first trace row
    M = disc.boundary_mass
    L22, U22 = (F[t:, t:].toarray() for F in (lu.L, lu.U))
    ntd = scipy.linalg.solve_triangular(
        U22, scipy.linalg.solve_triangular(L22, M.toarray(), lower=True, unit_diagonal=True))
    ones = np.ones(n - t)
    B = np.zeros((n, 1))
    B[t:, 0] = M @ ones
    probe = block.solve(B)[t:, 0]
    miss = np.abs(probe - ntd @ ones).max() / np.abs(probe).max()
    if not miss <= PROBE_TOL:  # NaN counts as a miss
        raise FemError(f"NtD matrix misses its probe solve by {miss:.3e} relative")
    return ntd


@dataclass(frozen=True)
class OrderedPair:
    """Two Lame fields on one mesh, field_1 <= field_2 pointwise."""

    field_1: LameField
    field_2: LameField

    def __post_init__(self):
        f1, f2 = self.field_1, self.field_2
        if not (np.all(f1.lam <= f2.lam) and np.all(f1.mu <= f2.mu)):
            raise OrderError("fields are not pointwise ordered")


def monotonicity_sandwich(
    s1: ElasticitySolver, s2: ElasticitySolver, loads: list[SurfaceLoad]
) -> list[tuple[float, float, float]]:
    """The three quantities of the two-sided monotonicity inequality, per load.

    s1 and s2 are solvers for the tensors C1 and C2 on one mesh.  For each
    load g returns (lhs, mid, rhs) where
      lhs = integral (C1 - C2) strain(u2) : strain(u2),
      mid = <g, NtD(C2) g> - <g, NtD(C1) g>,
      rhs = integral (C1 - C2) strain(u1) : strain(u1),
    and lhs >= mid >= rhs for any pair of admissible tensors.  FemError if
    a term is not finite, as when the loads' energies overflow.
    """
    disc = s1.disc
    dlam = s1.field.lam - s2.field.lam
    dmu = s1.field.mu - s2.field.mu
    coeffs = load_coefficients(s1.mesh, loads)
    U1, U2 = s1.solve_neumann(coeffs), s2.solve_neumann(coeffs)
    with np.errstate(over="ignore", invalid="ignore"):  # a term that overflows is refused below
        lhs, rhs = (strain_energy_density(dlam, dmu, *disc.strains(U)) @ disc.area for U in (U2, U1))
        mid = (coeffs * (disc.boundary_mass @ (U2 - U1)[disc.trace_dofs])).sum(axis=0)
    if not np.isfinite([lhs, mid, rhs]).all():
        raise FemError("monotonicity sandwich terms are not finite")
    return [tuple(map(float, t)) for t in zip(lhs, mid, rhs)]


def _symmetrized_eigs(s1: ElasticitySolver, s2: ElasticitySolver) -> np.ndarray:
    """Eigenvalues of NtD(C1) - NtD(C2), for solvers s1, s2 of C1, C2 on one mesh.

    Solves the generalized symmetric problem sym(M (L1 - L2)) x = theta M x,
    with M the mesh's boundary mass, which is the discrete spectrum of L1 - L2
    as a self-adjoint operator on the weighted trace space.
    """
    M = s1.disc.boundary_mass.toarray()
    A = M @ (build_ntd(s1) - build_ntd(s2))
    A = 0.5 * (A + A.T)
    return scipy.linalg.eigh(A, M, eigvals_only=True)


def loewner_gap(s_lower: ElasticitySolver, s_upper: ElasticitySolver) -> float:
    """Smallest weighted eigenvalue of NtD(lower) - NtD(upper).

    For the solvers of an OrderedPair's field_1 and field_2 the monotonicity
    result predicts a gap that is nonnegative up to eigen-solve noise.
    """
    return float(_symmetrized_eigs(s_lower, s_upper).min())


def operator_distance(s1: ElasticitySolver, s2: ElasticitySolver) -> float:
    """Operator norm of NtD(C1) - NtD(C2) on the weighted trace space."""
    return float(np.abs(_symmetrized_eigs(s1, s2)).max())


def parameter_distance(field_1: LameField, field_2: LameField) -> float:
    """max of the two sup-norm parameter differences."""
    return float(
        max(np.abs(field_1.lam - field_2.lam).max(), np.abs(field_1.mu - field_2.mu).max())
    )


# the admissible box (a, b, c, d) of the quadrant fields of the operator checks
QUADRANT_BOUNDS = (0.5, 4.0, 0.5, 8.0)


def quadrant_pair(mesh: Mesh, rng: np.random.Generator) -> OrderedPair:
    """Random pointwise-ordered pair, piecewise constant on the disk quadrants.

    Two draws per quadrant from QUADRANT_BOUNDS are split into min/max
    envelopes, which yields an ordered pair by construction.
    """
    param = RegionParameterization(quadrant_regions(mesh), QUADRANT_BOUNDS)
    x_a = rng.uniform(param.lower, param.upper)
    x_b = rng.uniform(param.lower, param.upper)
    return OrderedPair(param.to_field(np.minimum(x_a, x_b)), param.to_field(np.maximum(x_a, x_b)))
