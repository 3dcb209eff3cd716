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
    ElasticitySolver, LameField, RegionParameterization, SurfaceLoad, load_coefficients, quadrant_regions,
    strain_energy_density,
)
from .mesh import Mesh

ORDER_TOL = 1e-8     # slack for inequalities obtained through eigen-solves
# hat loads are solved NTD_BLOCK columns at a time; the factor solves column
# by column, so the width moves no bit.  At h=0.08 (2m = 72), the benchmark's
# ntd-campaign (6 runs each, 2-core x86-64, BLAS on one thread) read a median
# campaign of 0.341 / 0.325 / 0.322 / 0.344 s and peak RSS of 77.5 / 77.9 /
# 78.7 / 80.6 MB for widths 16 / 24 / 36 / 72
NTD_BLOCK = 24


class OrderError(ValueError):
    """A parameter pair does not satisfy the required pointwise ordering."""


def build_ntd(solver: ElasticitySolver) -> np.ndarray:
    """The (2m, 2m) NtD matrix of the solver's field on the Neumann trace space.

    Column j is the trace of the traction solve for the j-th nodal hat load;
    the hat loads are solved in blocks against the solver's factorization.
    """
    disc = solver.disc
    coeffs = np.eye(len(disc.trace_dofs))
    traces = np.empty_like(coeffs)
    for start in range(0, coeffs.shape[1], NTD_BLOCK):
        cols = slice(start, start + NTD_BLOCK)
        traces[:, cols] = solver.solve_neumann(coeffs[:, cols])[disc.trace_dofs]
    return traces


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
    and lhs >= mid >= rhs for any pair of admissible tensors.
    """
    disc = s1.disc
    dlam = s1.field.lam - s2.field.lam
    dmu = s1.field.mu - s2.field.mu
    coeffs = load_coefficients(s1.mesh, loads)
    U1, U2 = s1.solve_neumann(coeffs), s2.solve_neumann(coeffs)
    # one contiguous row of (C1 - C2)-weighted densities per load
    w1, w2 = (strain_energy_density(dlam, dmu, *disc.strains(U)) for U in (U1, U2))
    M, trace = disc.boundary_mass, disc.trace_dofs
    terms = []
    for j in range(len(loads)):
        # a strided g takes another dot-product path and moves mid in the last bit
        g = np.ascontiguousarray(coeffs[:, j])
        mid = float(g @ (M @ U2[trace, j])) - float(g @ (M @ U1[trace, j]))
        terms.append((float(np.dot(disc.area, w2[j])), mid, float(np.dot(disc.area, w1[j]))))
    return terms


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
