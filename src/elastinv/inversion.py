"""Lame-parameter reconstruction from boundary measurements.

The misfit is of Kohn-Vogelius type: for each measurement pair (g, f) the
traction solve and the prescribed-trace solve are compared in the energy norm
of the current material, plus a quadratic Tikhonov term.  The gradient with
respect to the per-element parameters is analytic (difference of the two
solution energies per element) and exact for the discrete functional, which
the finite-difference tests rely on.  Minimization is a quasi-Newton descent:
dense BFGS for low-dimensional parameterizations, limited-memory BFGS for
per-element fields, with Armijo backtracking.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .fem import (
    ElasticitySolver,
    LameField,
    SurfaceLoad,
    release_free_heap,
    strain_energy_density,
)
from .mesh import Mesh

CURVATURE_SKIP = 1e-12
PARAM_FLOOR = 1e-8   # trial points below this are rejected by the line search
LBFGS_MEMORY = 10
DENSE_LIMIT = 64     # at most this many unknowns gets a dense inverse Hessian


@dataclass(frozen=True)
class NoiseSpec:
    """Multiplicative uniform noise on measured traces.

    Each trace component is scaled by (1 + epsilon * delta) with delta drawn
    i.i.d. from U[0, 1] (matching a plain rand() realization); centered=True
    switches to U[-1, 1].
    """

    epsilon: float = 0.0
    seed: int = 0
    centered: bool = False

    def __post_init__(self):
        if not (0.0 <= self.epsilon < 1.0):
            raise ValueError(f"epsilon must lie in [0, 1), got {self.epsilon!r}")


def add_noise(f: np.ndarray, spec: NoiseSpec) -> np.ndarray:
    rng = np.random.default_rng(spec.seed)
    delta = rng.uniform(0.0, 1.0, size=np.shape(f))
    if spec.centered:
        delta = 2.0 * delta - 1.0
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
    traces = [sol.trace_on_neumann for sol in solver.solve_neumann_block(loads)]
    if noise is not None and noise.epsilon > 0.0:
        rng = np.random.default_rng(noise.seed)
        noisy = []
        for f in traces:
            delta = rng.uniform(0.0, 1.0, size=f.shape)
            if noise.centered:
                delta = 2.0 * delta - 1.0
            noisy.append(f * (1.0 + noise.epsilon * delta))
        traces = noisy
    return MeasurementSet(list(zip(loads, traces)))


def transfer_trace(data_mesh: Mesh, f: np.ndarray, target_mesh: Mesh) -> np.ndarray:
    """Move a Neumann trace between disk meshes by angular interpolation.

    Both meshes have their boundary nodes on the unit circle, so a trace is a
    function of the polar angle; values at the target's Neumann nodes are
    linearly interpolated in angle (used for inverse-crime control).
    """

    def angles(mesh):
        nodes = mesh.nodes[mesh.neumann_nodes]
        return np.mod(np.arctan2(nodes[:, 1], nodes[:, 0]), 2.0 * np.pi)

    src = angles(data_mesh)
    order = np.argsort(src)
    src_sorted = src[order]
    f_sorted = np.asarray(f)[order]
    tgt = angles(target_mesh)
    out = np.empty((len(tgt), 2))
    for comp in (0, 1):
        out[:, comp] = np.interp(
            tgt, src_sorted, f_sorted[:, comp],
            period=2.0 * np.pi,
        )
    return out


# -- functional and gradient ---------------------------------------------


def kv_value_and_gradient(
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
    One solver serves both: all loads are one traction block, all traces one
    prescribed-trace block.  Returns (J, dJ/dlam, dJ/dmu).
    """
    solver = ElasticitySolver(mesh, field)
    neumann = solver.solve_neumann_block([g for g, _ in measurements.pairs])
    dirichlet = solver.solve_dirichlet_block([f for _, f in measurements.pairs])
    area = mesh.element_areas
    j = 0.0
    g_lam = np.zeros(mesh.n_elements)
    g_mu = np.zeros(mesh.n_elements)
    for u_n, u_d in zip(neumann, dirichlet):
        dstrain = u_n.per_element_strain - u_d.per_element_strain
        ddiv = u_n.per_element_div - u_d.per_element_div
        j += float(np.dot(area, strain_energy_density(field, dstrain, ddiv)))
        ss_n = np.einsum("eij,eij->e", u_n.per_element_strain, u_n.per_element_strain)
        ss_d = np.einsum("eij,eij->e", u_d.per_element_strain, u_d.per_element_strain)
        g_lam += (u_d.per_element_div**2 - u_n.per_element_div**2) * area
        g_mu += 2.0 * (ss_d - ss_n) * area
    if rho:
        j += 0.5 * rho * float(np.dot(area, field.lam**2 + field.mu**2))
        g_lam += rho * field.lam * area
        g_mu += rho * field.mu * area
    # free both factorizations, then hand their pages back, so that the peak
    # RSS of a long optimizer run does not depend on where they were placed
    del solver
    release_free_heap()
    return j, g_lam, g_mu


def kohn_vogelius(field: LameField, mesh: Mesh, measurements: MeasurementSet, rho: float = 0.0) -> float:
    """The misfit J of kv_value_and_gradient."""
    return kv_value_and_gradient(field, mesh, measurements, rho)[0]


def kv_gradient(field: LameField, mesh: Mesh, measurements: MeasurementSet, rho: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """The per-element derivatives (dJ/dlam_e, dJ/dmu_e) of kv_value_and_gradient."""
    return kv_value_and_gradient(field, mesh, measurements, rho)[1:]


# -- parameterizations ----------------------------------------------------


class PerElementParameterization:
    """Stacked (lam, mu) element vector, the identity parameterization."""

    def __init__(self, mesh: Mesh, bounds=(1e-6, 1e6, 1e-6, 1e6)):
        self.mesh = mesh
        self.bounds = bounds
        self.n_params = 2 * mesh.n_elements

    def to_field(self, x: np.ndarray) -> LameField:
        n = self.mesh.n_elements
        return LameField(x[:n], x[n:], bounds=self.bounds)

    def from_field(self, field: LameField) -> np.ndarray:
        return np.concatenate([field.lam, field.mu])

    def reduce_gradient(self, g_lam: np.ndarray, g_mu: np.ndarray) -> np.ndarray:
        return np.concatenate([g_lam, g_mu])


class ConstantParameterization:
    """Two scalar unknowns (lam, mu), constant over the whole mesh."""

    def __init__(self, mesh: Mesh, bounds=(1e-6, 1e6, 1e-6, 1e6)):
        self.mesh = mesh
        self.bounds = bounds
        self.n_params = 2

    def to_field(self, x: np.ndarray) -> LameField:
        return LameField.constant(x[0], x[1], self.mesh.n_elements, bounds=self.bounds)

    def from_field(self, field: LameField) -> np.ndarray:
        return np.array([field.lam[0], field.mu[0]])

    def reduce_gradient(self, g_lam: np.ndarray, g_mu: np.ndarray) -> np.ndarray:
        # chain rule of the constant embedding: sum over elements
        return np.array([g_lam.sum(), g_mu.sum()])


def constant_parameterization(mesh: Mesh, bounds=(1e-6, 1e6, 1e-6, 1e6)) -> ConstantParameterization:
    return ConstantParameterization(mesh, bounds)


# -- optimizer -------------------------------------------------------------


@dataclass
class InversionConfig:
    rho: float = 0.0
    max_iterations: int = 200
    gradient_tolerance: float = 1e-10
    armijo_c1: float = 1e-4
    backtrack_factor: float = 0.5
    max_backtracks: int = 60
    projection_box: tuple[float, float, float, float] | None = None
    lbfgs_memory: int = LBFGS_MEMORY

    def __post_init__(self):
        if self.rho < 0.0:
            raise ValueError("rho must be nonnegative")
        if self.gradient_tolerance <= 0.0:
            raise ValueError("gradient tolerance must be positive")


@dataclass
class InversionRun:
    """Optimization history and outcome."""

    j_history: list[float] = dc_field(default_factory=list)
    grad_history: list[float] = dc_field(default_factory=list)
    step_history: list[float] = dc_field(default_factory=list)
    final_field: LameField | None = None
    converged: bool = False
    reason: str = ""

    @property
    def iterations(self) -> int:
        return len(self.step_history)


class _LBfgsDirection:
    """Two-loop recursion over the last m curvature pairs."""

    def __init__(self, memory: int):
        self.memory = memory
        self.s: list[np.ndarray] = []
        self.y: list[np.ndarray] = []

    def push(self, s: np.ndarray, y: np.ndarray) -> None:
        self.s.append(s)
        self.y.append(y)
        if len(self.s) > self.memory:
            self.s.pop(0)
            self.y.pop(0)

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
    parameterization,
    x0: np.ndarray,
) -> InversionRun:
    """Quasi-Newton descent on the stacked parameter vector.

    Dense BFGS inverse-Hessian for small parameterizations, limited-memory
    otherwise.  Updates are skipped when the curvature condition fails; trial
    points leaving the positive cone (or the projection box) are rejected by
    the backtracking line search.
    """
    run = InversionRun()

    def project(x):
        if config.projection_box is not None:
            a, b, c, d = config.projection_box
            n = len(x) // 2
            x = x.copy()
            x[:n] = np.clip(x[:n], a, b)
            x[n:] = np.clip(x[n:], c, d)
        return x

    def evaluate(x):
        if x.min() <= PARAM_FLOOR:
            return np.inf, None, None
        try:
            field = parameterization.to_field(x)
        except ValueError:
            # outside the admissible box; backtrack
            return np.inf, None, None
        j, g_lam, g_mu = kv_value_and_gradient(field, mesh, measurements, config.rho)
        return j, parameterization.reduce_gradient(g_lam, g_mu), field

    x = project(np.asarray(x0, dtype=float).copy())
    j, g, field = evaluate(x)
    if not np.isfinite(j):
        raise ValueError("initial point is infeasible")
    run.j_history.append(j)
    run.grad_history.append(float(np.abs(g).max()))
    run.final_field = field

    dense = parameterization.n_params <= DENSE_LIMIT
    H = np.eye(parameterization.n_params) if dense else None
    lbfgs = None if dense else _LBfgsDirection(config.lbfgs_memory)

    for _ in range(config.max_iterations):
        gnorm = float(np.abs(g).max())
        if gnorm <= config.gradient_tolerance:
            run.converged = True
            run.reason = "gradient tolerance reached"
            return run

        d = -(H @ g) if dense else -lbfgs.apply(g)
        if d @ g >= 0.0:
            # not a descent direction; reset to steepest descent
            d = -g
            if dense:
                H = np.eye(len(g))
            else:
                lbfgs = _LBfgsDirection(config.lbfgs_memory)

        alpha = 1.0
        accepted = False
        for _bt in range(config.max_backtracks):
            x_trial = project(x + alpha * d)
            step = x_trial - x
            decrease = float(g @ step)  # slope of the actual (possibly clamped) step
            if decrease >= 0.0:
                alpha *= config.backtrack_factor
                continue
            j_trial, g_trial, field_trial = evaluate(x_trial)
            if np.isfinite(j_trial) and j_trial <= j + config.armijo_c1 * decrease:
                accepted = True
                break
            alpha *= config.backtrack_factor
        if not accepted:
            run.reason = "line search failed"
            return run

        s = x_trial - x
        y = g_trial - g
        sy = float(s @ y)
        if sy > CURVATURE_SKIP * np.linalg.norm(s) * np.linalg.norm(y):
            if dense:
                rho_i = 1.0 / sy
                I = np.eye(len(x))
                V = I - rho_i * np.outer(s, y)
                H = V @ H @ V.T + rho_i * np.outer(s, s)
            else:
                lbfgs.push(s, y)

        x, j, g, field = x_trial, j_trial, g_trial, field_trial
        run.j_history.append(j)
        run.grad_history.append(float(np.abs(g).max()))
        run.step_history.append(alpha)
        run.final_field = field

    run.reason = "max iterations reached"
    run.converged = float(np.abs(g).max()) <= config.gradient_tolerance
    return run
