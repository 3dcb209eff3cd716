"""Lame-parameter reconstruction from boundary measurements.

The misfit is of Kohn-Vogelius type: for each measurement pair (g, f) the
traction solve and the prescribed-trace solve are compared in the energy norm
of the current material, plus a quadratic Tikhonov term.  The gradient with
respect to the per-element parameters is analytic (difference of the two
solution energies per element) and exact for the discrete functional, which
the finite-difference tests rely on.  Minimization is a projected
limited-memory BFGS descent with Armijo backtracking, kept inside the
parameterization's admissible box.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field as dc_field

import numpy as np

from .fem import (
    ElasticitySolver,
    FemError,
    LameField,
    RegionParameterization,
    SurfaceLoad,
    load_coefficients,
    release_free_heap,
    strain_dot,
    strain_energy_density,
)
from .mesh import Mesh

CURVATURE_SKIP = 1e-12
LBFGS_MEMORY = 10
ARMIJO_C1 = 1e-4
BACKTRACK_FACTOR = 0.5
MAX_BACKTRACKS = 60


@dataclass(frozen=True)
class NoiseSpec:
    """Multiplicative uniform noise on measured traces.

    Each trace component is scaled by (1 + epsilon * delta) with delta drawn
    i.i.d. from U[0, 1] (matching a plain rand() realization).
    """

    epsilon: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.epsilon < 1.0):
            raise ValueError(f"noise epsilon must lie in [0, 1), got {self.epsilon!r}")


def add_noise(f: np.ndarray, spec: NoiseSpec) -> np.ndarray:
    rng = np.random.default_rng(spec.seed)
    delta = rng.uniform(0.0, 1.0, size=np.shape(f))
    return np.asarray(f) * (1.0 + spec.epsilon * delta)


@dataclass(eq=False)
class MeasurementSet:
    """Load/trace pairs (g_k, f_k) on one mesh's Neumann nodes."""

    pairs: list[tuple[SurfaceLoad, np.ndarray]]

    def __post_init__(self):
        if not self.pairs:
            raise ValueError("at least one measurement pair is required")


def generate_measurements(
    mesh: Mesh,
    field: LameField,
    loads: list[SurfaceLoad],
    noise: NoiseSpec | None = None,
) -> MeasurementSet:
    """Synthetic traces f_k from the traction solves, optionally noisy.

    One RNG stream (from noise.seed) covers all loads, so the realization is
    reproducible per (epsilon, seed).
    """
    solver = ElasticitySolver(mesh, field)
    U = solver.solve_neumann(load_coefficients(mesh, loads))
    # one (m, 2) trace per load; the noise is drawn on this (k, m, 2) stack
    traces = U[solver.disc.trace_dofs].T.reshape(len(loads), -1, 2)
    if noise is not None:
        traces = add_noise(traces, noise)
    return MeasurementSet(list(zip(loads, traces)))


def transfer_trace(data_mesh: Mesh, f: np.ndarray, target_mesh: Mesh) -> np.ndarray:
    """Move a Neumann trace between disk meshes by angular interpolation.

    Both meshes have their boundary nodes on the unit circle, so a trace is a
    periodic function of the polar angle that vanishes on the clamped arc.
    Values at the target's Neumann nodes are linearly interpolated in that
    angle over the data mesh's whole boundary ring, zero on its clamped
    nodes (used for inverse-crime control).
    """
    ring = np.unique(data_mesh.boundary_edges)
    values = np.zeros((len(ring), 2))
    values[np.searchsorted(ring, data_mesh.neumann_nodes)] = f
    x, y = data_mesh.nodes[ring].T
    tx, ty = target_mesh.nodes[target_mesh.neumann_nodes].T
    src, tgt = np.arctan2(y, x), np.arctan2(ty, tx)
    return np.column_stack([np.interp(tgt, src, values[:, c], period=2.0 * np.pi) for c in (0, 1)])


# -- functional and gradient ---------------------------------------------


def kohn_vogelius(
    field: LameField, mesh: Mesh, measurements: MeasurementSet, rho: float = 0.0
) -> tuple[float, np.ndarray, np.ndarray]:
    """Kohn-Vogelius misfit J and its analytic per-element gradient.

    J = sum_k int C(strain(uN - uD)) : strain(uN - uD)
        + (rho/2) int (lam^2 + mu^2),
    where uN solves the traction problem for load g_k and uD the
    prescribed-trace problem for trace f_k.  Per element the derivative is
    the difference of the solution energies,
      dJ/dlam_e = sum_k [ div(uD)^2 - div(uN)^2 ] * area_e,
      dJ/dmu_e  = sum_k [ 2 strain(uD):strain(uD) - 2 strain(uN):strain(uN) ] * area_e,
    plus the regularizer terms rho * lam_e * area_e and rho * mu_e * area_e.
    One solver serves both: all loads are one traction block and all traces one
    prescribed-trace block, strains one sparse product each.  Returns (J, dJ/dlam, dJ/dmu).
    """
    solver = ElasticitySolver(mesh, field)
    disc = solver.disc
    U_n = solver.solve_neumann(load_coefficients(mesh, [g for g, _ in measurements.pairs]))
    U_d = solver.solve_dirichlet(np.column_stack([np.ravel(f) for _, f in measurements.pairs]))
    area = mesh.element_areas
    strain_n, div_n = disc.strains(U_n)
    strain_d, div_d = disc.strains(U_d)
    # one contiguous row per load (k, n_el): a strided operand takes another dot path
    energy = strain_energy_density(field.lam, field.mu, strain_n - strain_d, div_n - div_d)
    d_lam = (div_d**2 - div_n**2) * area
    d_mu = 2.0 * (strain_dot(strain_d) - strain_dot(strain_n)) * area
    j = 0.0
    for e in energy:
        j += float(np.dot(area, e))
    # numpy sums axis 0 row by row: the same bits as adding the loads in turn
    g_lam, g_mu = d_lam.sum(axis=0), d_mu.sum(axis=0)
    if rho:
        j += 0.5 * rho * float(np.dot(area, field.lam**2 + field.mu**2))
        g_lam += rho * field.lam * area
        g_mu += rho * field.mu * area
    return j, g_lam, g_mu


def kv_gradient(field: LameField, mesh: Mesh, measurements: MeasurementSet, rho: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """The per-element derivatives (dJ/dlam_e, dJ/dmu_e) of kohn_vogelius."""
    return kohn_vogelius(field, mesh, measurements, rho)[1:]


# -- optimizer -------------------------------------------------------------


@dataclass
class InversionConfig:
    rho: float = 0.0
    max_iterations: int = 200
    gradient_tolerance: float = 1e-10
    # stop at the first iterate with J <= target_j (a discrepancy principle)
    target_j: float | None = None

    def __post_init__(self):
        # the negated comparisons also reject NaN
        if not (0.0 <= self.rho < math.inf):
            raise ValueError(f"rho must be finite and nonnegative, got {self.rho!r}")
        if not (type(self.max_iterations) is int and self.max_iterations >= 0):  # not a bool
            raise ValueError(f"max_iterations must be a nonnegative integer, got {self.max_iterations!r}")
        if not self.gradient_tolerance > 0.0:
            raise ValueError(f"gradient_tolerance must be positive, got {self.gradient_tolerance!r}")


@dataclass
class InversionRun:
    """Optimization history and outcome."""

    j_history: list[float] = dc_field(default_factory=list)
    grad_history: list[float] = dc_field(default_factory=list)
    step_history: list[float] = dc_field(default_factory=list)
    final_field: LameField | None = None
    reason: str = ""

    @property
    def converged(self) -> bool:
        return self.reason == "gradient tolerance reached"

    @property
    def iterations(self) -> int:
        return len(self.step_history)


class _LBfgsDirection:
    """Two-loop recursion over the last LBFGS_MEMORY pairs that pass the curvature condition."""

    def __init__(self):
        self.s: deque[np.ndarray] = deque(maxlen=LBFGS_MEMORY)
        self.y: deque[np.ndarray] = deque(maxlen=LBFGS_MEMORY)

    def push(self, s: np.ndarray, y: np.ndarray) -> None:
        if float(s @ y) > CURVATURE_SKIP * np.linalg.norm(s) * np.linalg.norm(y):
            self.s.append(s)
            self.y.append(y)

    def apply(self, g: np.ndarray) -> np.ndarray:
        q = g.copy()
        alphas = []
        for s, y in zip(reversed(self.s), reversed(self.y)):
            rho_i = 1.0 / (y @ s)
            a = rho_i * (s @ q)
            alphas.append((a, rho_i, s, y))
            q -= a * y
        if self.s:
            s, y = self.s[-1], self.y[-1]
            q *= (s @ y) / (y @ y)
        for a, rho_i, s, y in reversed(alphas):
            b = rho_i * (y @ q)
            q += (a - b) * s
        return q


def bfgs_minimize(
    config: InversionConfig,
    mesh: Mesh,
    measurements: MeasurementSet,
    parameterization: RegionParameterization,
    x0: np.ndarray,
) -> InversionRun:
    """Projected limited-memory BFGS over a RegionParameterization.

    x stacks the region values of lam and then of mu.  Every trial point is
    clipped to the parameterization's box [lower, upper].  The Armijo test
    uses the slope of the clipped step, and curvature pairs that fail the
    curvature condition are skipped.  When the L-BFGS direction gives no descent
    or no Armijo step, the memory is dropped and steepest descent tried once.
    The gradient test reads the projected gradient: g without the components
    that point out of the box where x sits at a bound.  The run stops at the
    first iterate with J <= config.target_j, when that is set.  A misfit at x0
    that is not finite raises FemError.
    """
    run = InversionRun()
    x = np.asarray(x0, dtype=float)
    if x.shape != (2 * parameterization.n_regions,):
        raise ValueError(f"x0 must have shape {(2 * parameterization.n_regions,)}, got {x.shape}")
    lower, upper = parameterization.lower, parameterization.upper

    def evaluate(x):
        field = parameterization.to_field(x)
        j, g_lam, g_mu = kohn_vogelius(field, mesh, measurements, config.rho)
        g = parameterization.reduce_gradient(g_lam, g_mu)
        blocked = ((x <= lower) & (g > 0.0)) | ((x >= upper) & (g < 0.0))
        return j, g, field, float(np.abs(np.where(blocked, 0.0, g)).max())

    def line_search(d):
        """(step, point, evaluation) of the first Armijo point along d, halving from 1, or None."""
        alpha = 1.0
        for _bt in range(MAX_BACKTRACKS):
            x_trial = np.clip(x + alpha * d, lower, upper)
            decrease = float(g @ (x_trial - x))  # slope of the clipped step
            if decrease < 0.0:
                trial = evaluate(x_trial)
                if trial[0] <= j + ARMIJO_C1 * decrease:
                    return alpha, x_trial, trial
            alpha *= BACKTRACK_FACTOR
        return None

    if not np.array_equal(np.clip(x, lower, upper), x):
        raise ValueError("initial point is infeasible")
    with np.errstate(over="ignore", invalid="ignore"):  # a misfit that overflows fails below, with one message
        j, g, run.final_field, gnorm = evaluate(x)
    if not math.isfinite(j):
        raise FemError(f"misfit at the initial point is {j!r}, not finite")
    lbfgs = _LBfgsDirection()
    while True:
        run.j_history.append(j)
        run.grad_history.append(gnorm)
        if gnorm <= config.gradient_tolerance:
            run.reason = "gradient tolerance reached"
        elif config.target_j is not None and j <= config.target_j:
            run.reason = "noise floor reached"
        elif run.iterations == config.max_iterations:
            run.reason = "max iterations reached"
        if run.reason:
            break

        d = -lbfgs.apply(g)
        found = line_search(d) if d @ g < 0.0 else None
        if found is None and lbfgs.s:
            # stale curvature pairs, no descent or no Armijo step: restart from steepest descent once
            lbfgs = _LBfgsDirection()
            found = line_search(-g)
        if found is None:
            run.reason = "line search failed"
            break

        alpha, x_new, (j, g_new, run.final_field, gnorm) = found
        lbfgs.push(x_new - x, g_new - g)
        x, g = x_new, g_new
        run.step_history.append(alpha)
    # every evaluation's solver and factors are gone: trim once per run, not per evaluation
    release_free_heap()
    return run
