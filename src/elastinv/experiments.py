"""End-to-end experiment runners with machine-readable, reproducible output.

Each runner consumes a declarative ExperimentConfig and writes a result
bundle (JSON report, CSV convergence histories, plain-text field tables) into
an output directory.  All randomness is seeded through the config, and the
writers avoid timestamps, so rerunning a config reproduces the bundle
byte for byte.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from . import inversion as inv
from . import ntd
from .fem import ElasticitySolver, LameField, SurfaceLoad
from .mesh import BoundaryPartitionSpec, Mesh, generate_disk_mesh, partition_boundary

SCHEMA_VERSION = 1

# the four surface loads used throughout the reconstruction experiments
DEFAULT_LOADS = [(0.1, 0.1), (0.1, 0.2), (0.2, 0.1), (0.3, 0.5)]

EXPERIMENT_KINDS = (
    "example1",
    "example2",
    "example3",
    "monotonicity",
    "stability",
    "forward",
    "custom",
)


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


class InvariantViolation(RuntimeError):
    """A verified operator property failed beyond tolerance."""


@dataclass
class ExperimentConfig:
    kind: str = "example1"
    target_h: float = 0.08
    # None resolves to the per-kind default in build_meshes
    dirichlet_arc: tuple[float, float] | None = None
    truth: dict = dc_field(default_factory=lambda: {"type": "constant", "lam": 3.0, "mu": 7.0})
    loads: list[tuple[float, float]] = dc_field(default_factory=lambda: list(DEFAULT_LOADS))
    noise: float = 0.0
    seed: int = 0
    rho: float = 0.0
    data_mesh: str = "same"  # "same" | "refine"
    max_iterations: int = 400
    gradient_tolerance: float = 1e-11
    initial: tuple[float, float] = (1.0, 1.0)
    n_pairs: int = 20
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        if self.data_mesh not in ("same", "refine"):
            raise ConfigError(f"data_mesh must be 'same' or 'refine', got {self.data_mesh!r}")
        if not (0.0 < self.target_h < 1.0):
            raise ConfigError(f"target_h out of range: {self.target_h!r}")
        if self.schema_version != SCHEMA_VERSION:
            raise ConfigError(f"unsupported schema_version {self.schema_version!r}")

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        if self.dirichlet_arc is not None:
            d["dirichlet_arc"] = list(self.dirichlet_arc)
        d["loads"] = [list(g) for g in self.loads]
        d["initial"] = list(self.initial)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        extra = set(d) - known
        if extra:
            raise ConfigError(f"unknown config keys: {sorted(extra)}")
        d = dict(d)
        for key in ("dirichlet_arc", "initial"):
            if d.get(key) is not None:
                d[key] = tuple(d[key])
        if "loads" in d:
            d["loads"] = [tuple(g) for g in d["loads"]]
        try:
            return cls(**d)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        try:
            data = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_dict(data)


# -- truth fields ----------------------------------------------------------


def truth_field(spec: dict, mesh: Mesh) -> LameField:
    """Sample a truth parameter description at the element centroids."""
    kind = spec.get("type", "constant")
    cx, cy = mesh.element_centroids.T
    r = np.hypot(cx, cy)
    if kind == "constant":
        return LameField.constant(spec["lam"], spec["mu"], mesh.n_elements)
    if kind == "radial-mu":
        # shear modulus = distance to center, lam constant
        return LameField(np.full(mesh.n_elements, spec.get("lam", 1.0)), np.maximum(r, 1e-3))
    if kind == "gaussian-bumps-lambda":
        lam = np.exp(-5.0 * ((cx - 0.5) ** 2 + (cy - 0.5) ** 2)) + np.exp(
            -5.0 * ((cx + 0.5) ** 2 + (cy + 0.5) ** 2)
        )
        return LameField(np.maximum(lam, 1e-3), np.maximum(r, 1e-3))
    if kind == "file":
        data = np.loadtxt(spec["path"])
        return LameField(data[:, 0], data[:, 1])
    raise ConfigError(f"unknown truth field type {kind!r}")


# -- bundle helpers --------------------------------------------------------


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_convergence(path: Path, run: inv.InversionRun) -> None:
    lines = ["iteration,J,grad_sup_norm,step_length"]
    steps = [""] + [repr(float(s)) for s in run.step_history]
    for i, (j, g) in enumerate(zip(run.j_history, run.grad_history)):
        lines.append(f"{i},{float(j)!r},{float(g)!r},{steps[i]}")
    path.write_text("\n".join(lines) + "\n")


def _write_field(path: Path, field: LameField) -> None:
    lines = ["# lam mu (one element per line)"]
    lines += [f"{float(l)!r} {float(m)!r}" for l, m in zip(field.lam, field.mu)]
    path.write_text("\n".join(lines) + "\n")


def relative_l2_error(mesh: Mesh, approx: np.ndarray, exact: np.ndarray) -> float:
    """Area-weighted relative L2 distance between per-element fields."""
    area = mesh.element_areas
    num = float(np.dot(area, (approx - exact) ** 2))
    den = float(np.dot(area, exact**2))
    return math.sqrt(num / den) if den > 0 else math.sqrt(num)


@dataclass
class ResultBundle:
    config: ExperimentConfig
    report: dict
    runs: dict[str, inv.InversionRun] = dc_field(default_factory=dict)
    fields: dict[str, LameField] = dc_field(default_factory=dict)

    def write(self, out_dir: str | Path) -> Path:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_json(out / "config.json", self.config.to_dict())
        _write_json(out / "results.json", self.report)
        for name, run in self.runs.items():
            _write_convergence(out / f"convergence_{name}.csv", run)
        for name, field in self.fields.items():
            _write_field(out / f"field_{name}.txt", field)
        return out


# -- shared pipeline pieces ------------------------------------------------


# clamped lower half-circle by default; example3 clamps only the upper-left
# quarter so the measured boundary covers both bump directions
DEFAULT_ARC = (math.pi, 2.0 * math.pi)
EXAMPLE3_ARC = (math.pi / 2.0, math.pi)


def resolve_arc(config: ExperimentConfig) -> tuple[float, float]:
    if config.dirichlet_arc is not None:
        return config.dirichlet_arc
    return EXAMPLE3_ARC if config.kind == "example3" else DEFAULT_ARC


def build_meshes(config: ExperimentConfig) -> tuple[Mesh, Mesh]:
    """(inversion mesh, data mesh); data mesh is once-refined when requested."""
    spec = BoundaryPartitionSpec(*resolve_arc(config))
    mesh = partition_boundary(generate_disk_mesh(config.target_h), spec)
    if config.data_mesh == "refine":
        data_mesh = partition_boundary(generate_disk_mesh(config.target_h / 2.0), spec)
    else:
        data_mesh = mesh
    return mesh, data_mesh


def make_measurements(
    config: ExperimentConfig,
    mesh: Mesh,
    data_mesh: Mesh,
    truth: LameField | None = None,
    noise_seed: int | None = None,
) -> inv.MeasurementSet:
    if truth is None:
        truth = truth_field(config.truth, data_mesh)
    loads = [SurfaceLoad(constant=tuple(g)) for g in config.loads]
    spec = inv.NoiseSpec(config.noise, config.seed if noise_seed is None else noise_seed)
    measured = inv.generate_measurements(data_mesh, truth, loads, spec)
    if data_mesh is mesh:
        return measured
    pairs = [
        (g, inv.transfer_trace(data_mesh, f, mesh)) for g, f in measured.pairs
    ]
    return inv.MeasurementSet(pairs)


def _reconstruct(
    config: ExperimentConfig,
    mesh: Mesh,
    measurements: inv.MeasurementSet,
    parameterization,
    x0: np.ndarray,
    rho: float,
) -> inv.InversionRun:
    # positivity guard for per-element fields; the constant search runs unconstrained
    box = None
    if isinstance(parameterization, inv.PerElementParameterization):
        box = (1e-3, 1e3, 1e-3, 1e3)
    opt = inv.InversionConfig(
        rho=rho,
        max_iterations=config.max_iterations,
        gradient_tolerance=config.gradient_tolerance,
        projection_box=box,
    )
    return inv.bfgs_minimize(opt, mesh, measurements, parameterization, x0)


# -- experiment runners ----------------------------------------------------

EXAMPLE1_SETTINGS = [(0.0, 0.0), (0.03, 1e-5), (0.05, 1e-5)]
EXAMPLE23_SETTINGS = {"example2": [(0.0, 0.0), (0.03, 1e-4)], "example3": [(0.0, 0.0), (0.03, 1e-4)]}


def run_example1(config: ExperimentConfig) -> ResultBundle:
    """Recover constant (lam, mu) = (3, 7) from four loads, with noise rows."""
    mesh, data_mesh = build_meshes(config)
    exact = (3.0, 7.0)
    truth = LameField.constant(*exact, data_mesh.n_elements)
    param = inv.constant_parameterization(mesh)
    rows = []
    bundle = ResultBundle(config, {})
    for i, (eps, rho) in enumerate(EXAMPLE1_SETTINGS):
        cfg_i = dataclasses.replace(config, noise=eps)
        measurements = make_measurements(cfg_i, mesh, data_mesh, truth, noise_seed=config.seed + i)
        run = _reconstruct(config, mesh, measurements, param, np.array(config.initial), rho)
        lam_c, mu_c = param.from_field(run.final_field)
        rows.append(
            {
                "epsilon": eps,
                "rho": rho,
                "initial": list(config.initial),
                "computed": [lam_c, mu_c],
                "exact": list(exact),
                "rel_error_lam": abs(lam_c - exact[0]) / exact[0],
                "rel_error_mu": abs(mu_c - exact[1]) / exact[1],
                "iterations": run.iterations,
                "converged": run.converged,
                "reason": run.reason,
            }
        )
        key = f"eps{eps}_rho{rho}"
        bundle.runs[key] = run
        bundle.fields[key] = run.final_field
    bundle.report = {"kind": "example1", "table": rows}
    return bundle


def _run_per_element_example(config: ExperimentConfig, truth_spec: dict) -> ResultBundle:
    mesh, data_mesh = build_meshes(config)
    truth_data = truth_field(truth_spec, data_mesh)
    truth_inv = truth_field(truth_spec, mesh)
    param = inv.PerElementParameterization(mesh)
    x0 = np.concatenate(
        [np.full(mesh.n_elements, config.initial[0]), np.full(mesh.n_elements, config.initial[1])]
    )
    bundle = ResultBundle(config, {})
    bundle.fields["truth"] = truth_inv
    rows = []
    for i, (eps, rho) in enumerate(EXAMPLE23_SETTINGS[config.kind]):
        cfg_i = dataclasses.replace(config, noise=eps)
        measurements = make_measurements(cfg_i, mesh, data_mesh, truth_data, noise_seed=config.seed + i)
        run = _reconstruct(config, mesh, measurements, param, x0, rho)
        rec = run.final_field
        rows.append(
            {
                "epsilon": eps,
                "rho": rho,
                "initial_j": run.j_history[0],
                "final_j": run.j_history[-1],
                "iterations": run.iterations,
                "converged": run.converged,
                "reason": run.reason,
                "rel_l2_error_lam": relative_l2_error(mesh, rec.lam, truth_inv.lam),
                "rel_l2_error_mu": relative_l2_error(mesh, rec.mu, truth_inv.mu),
            }
        )
        key = f"eps{eps}_rho{rho}"
        bundle.runs[key] = run
        bundle.fields[key] = rec
    bundle.report = {"kind": config.kind, "table": rows}
    return bundle


def run_example2(config: ExperimentConfig) -> ResultBundle:
    """Per-element reconstruction of a radial shear modulus and constant lam."""
    config = dataclasses.replace(config, kind="example2", initial=(0.3, 0.5))
    return _run_per_element_example(config, {"type": "radial-mu", "lam": 1.0})


def bump_centroids(mesh: Mesh, lam: np.ndarray) -> list[list[float]]:
    """Area-weighted centroids of the top-decile lam elements, one per half.

    The two bumps sit symmetrically across the line x + y = 0, so the
    top-decile elements are clustered by the sign of x + y.
    """
    cutoff = np.quantile(lam, 0.9)
    sel = lam >= cutoff
    cents = mesh.element_centroids[sel]
    areas = mesh.element_areas[sel]
    out = []
    for side in (1.0, -1.0):
        mask = side * (cents[:, 0] + cents[:, 1]) > 0
        if not mask.any():
            out.append([math.nan, math.nan])
            continue
        w = areas[mask] / areas[mask].sum()
        out.append([float(x) for x in (w @ cents[mask])])
    return out


def run_example3(config: ExperimentConfig) -> ResultBundle:
    """Radial shear modulus plus a two-bump lam field; localizes the bumps."""
    config = dataclasses.replace(config, kind="example3", initial=(0.3, 0.5))
    bundle = _run_per_element_example(config, {"type": "gaussian-bumps-lambda"})
    mesh, _ = build_meshes(config)
    bundle.report["truth_bump_centroids"] = bump_centroids(mesh, bundle.fields["truth"].lam)
    for row, (eps, rho) in zip(bundle.report["table"], EXAMPLE23_SETTINGS["example3"]):
        rec = bundle.fields[f"eps{eps}_rho{rho}"]
        row["bump_centroids"] = bump_centroids(mesh, rec.lam)
    return bundle


def run_monotonicity(config: ExperimentConfig) -> ResultBundle:
    """Seeded campaign over ordered pairs: sandwich inequality and ordering gap."""
    mesh, _ = build_meshes(config)
    rng = np.random.default_rng(config.seed)
    loads = [SurfaceLoad(constant=tuple(g)) for g in config.loads]
    records, violations = [], []
    for i in range(config.n_pairs):
        pair = ntd.quadrant_pair(mesh, rng)
        # one solver per field serves its NtD matrix and every sandwich load
        s1 = ElasticitySolver(mesh, pair.field_1)
        s2 = ElasticitySolver(mesh, pair.field_2)
        gap = ntd.loewner_gap(ntd.ntd_from_solver(s1), ntd.ntd_from_solver(s2), pair)
        rec = {"pair": i, "loewner_gap": gap, "sandwich": []}
        if gap < -ntd.ORDER_TOL:
            violations.append({"pair": i, "kind": "loewner", "gap": gap})
        for k, (lhs, mid, rhs) in enumerate(ntd.sandwich_from_solvers(s1, s2, loads)):
            scale = max(abs(mid), 1e-30)
            rec["sandwich"].append({"load": k, "lhs": lhs, "mid": mid, "rhs": rhs})
            if lhs < mid - ntd.ORDER_TOL * scale or mid < rhs - ntd.ORDER_TOL * scale:
                violations.append({"pair": i, "kind": "sandwich", "load": k})
        records.append(rec)
    report = {
        "kind": "monotonicity",
        "n_pairs": config.n_pairs,
        "records": records,
        "violations": violations,
    }
    return ResultBundle(config, report)


def run_stability(config: ExperimentConfig) -> ResultBundle:
    """Empirical Lipschitz-constant experiment on the quadrant family."""
    mesh, _ = build_meshes(config)
    rng = np.random.default_rng(config.seed)
    family = [ntd.quadrant_pair(mesh, rng) for _ in range(config.n_pairs)]
    rep = ntd.stability_ratio_experiment(mesh, family)
    report = {"kind": "stability", "n_pairs": config.n_pairs, **rep.to_dict()}
    return ResultBundle(config, report)


def run_forward(config: ExperimentConfig) -> ResultBundle:
    """Solve the forward problem for the configured truth and export traces."""
    mesh, _ = build_meshes(config)
    truth = truth_field(config.truth, mesh)
    solver = ElasticitySolver(mesh, truth)
    sols = solver.solve_neumann_block([SurfaceLoad(constant=tuple(g)) for g in config.loads])
    traces = {}
    for k, (g, sol) in enumerate(zip(config.loads, sols)):
        traces[f"load_{k}"] = {
            "load": list(g),
            "trace": [[float(a), float(b)] for a, b in sol.trace_on_neumann],
        }
    report = {
        "kind": "forward",
        "n_nodes": mesh.n_nodes,
        "n_elements": mesh.n_elements,
        "neumann_nodes": [int(n) for n in mesh.neumann_nodes],
        "traces": traces,
    }
    bundle = ResultBundle(config, report)
    bundle.fields["truth"] = truth
    return bundle


def run_custom(config: ExperimentConfig) -> ResultBundle:
    """Reconstruction with a configured truth field and per-element unknowns."""
    cfg = dataclasses.replace(config, kind="custom")
    mesh, data_mesh = build_meshes(cfg)
    truth_data = truth_field(cfg.truth, data_mesh)
    truth_inv = truth_field(cfg.truth, mesh)
    param = inv.PerElementParameterization(mesh)
    x0 = np.concatenate(
        [np.full(mesh.n_elements, cfg.initial[0]), np.full(mesh.n_elements, cfg.initial[1])]
    )
    measurements = make_measurements(cfg, mesh, data_mesh, truth_data)
    run = _reconstruct(cfg, mesh, measurements, param, x0, cfg.rho)
    bundle = ResultBundle(cfg, {})
    bundle.runs["custom"] = run
    bundle.fields["truth"] = truth_inv
    bundle.fields["reconstruction"] = run.final_field
    bundle.report = {
        "kind": "custom",
        "initial_j": run.j_history[0],
        "final_j": run.j_history[-1],
        "iterations": run.iterations,
        "converged": run.converged,
        "reason": run.reason,
        "rel_l2_error_lam": relative_l2_error(mesh, run.final_field.lam, truth_inv.lam),
        "rel_l2_error_mu": relative_l2_error(mesh, run.final_field.mu, truth_inv.mu),
    }
    return bundle


RUNNERS = {
    "example1": run_example1,
    "example2": run_example2,
    "example3": run_example3,
    "monotonicity": run_monotonicity,
    "stability": run_stability,
    "forward": run_forward,
    "custom": run_custom,
}


def run_experiment(config: ExperimentConfig) -> ResultBundle:
    return RUNNERS[config.kind](config)
