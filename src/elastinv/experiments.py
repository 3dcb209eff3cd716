"""End-to-end experiment runners with machine-readable, reproducible output.

Each runner consumes a declarative ExperimentConfig and writes a result
bundle (JSON report, CSV convergence histories, plain-text field tables) into
an output directory.  All randomness is seeded through the config, and the
writers avoid timestamps, so rerunning a config reproduces the bundle
byte for byte.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import numbers
import os
import warnings
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from . import inversion as inv
from . import ntd
from .fem import DEFAULT_BOUNDS, ElasticitySolver, LameField, RegionParameterization, SurfaceLoad
from .mesh import MIN_TARGET_H, BoundaryPartitionSpec, Mesh, MeshError, generate_disk_mesh, partition_boundary

SCHEMA_VERSION = 1

# the four surface loads used throughout the reconstruction experiments
DEFAULT_LOADS = [(0.1, 0.1), (0.1, 0.2), (0.2, 0.1), (0.3, 0.5)]


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


def _float_array(value, name: str, shape: tuple):
    """value as the config stores it, or ConfigError naming the field.

    shape () is a number, stored as a float; (2,) a pair, and (-1, 2) a non-empty list of pairs, stored as
    float tuples.  Strings and booleans, which numpy would read as numbers, and non-finite entries are
    refused, and -0.0 is stored as 0.0, so that 0, 0.0 and -0.0 write one bundle.
    """
    entries = np.asarray(value, dtype=object)
    # numpy holds the inner lists of a ragged list as entries: such a list has no shape
    if any(isinstance(v, (list, tuple, np.ndarray)) for v in entries.flat):
        entries = np.empty(0, dtype=object)
    if not all(isinstance(v, numbers.Real) and not isinstance(v, (bool, np.bool_)) for v in entries.flat):
        raise ConfigError(f"{name} must be numeric, got {value!r}")
    try:
        arr = entries.astype(float) + 0.0
    except OverflowError:  # an integer past the float range is no finite number
        arr = np.array(math.inf)
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    if arr.ndim != len(shape) or arr.size == 0 or any(n not in (-1, m) for n, m in zip(shape, arr.shape)):
        what = {(): "a number", (2,): "a pair of numbers", (-1, 2): "a non-empty list of pairs"}[shape]
        raise ConfigError(f"{name} must be {what}, got {value!r}")
    stored = arr.tolist()
    return stored if arr.ndim == 0 else tuple(stored) if arr.ndim == 1 else [tuple(pair) for pair in stored]


# the config's numeric fields and their _float_array shapes
NUMBERS = {"target_h": (), "noise": (), "rho": (), "gradient_tolerance": (), "dirichlet_arc": (2,),
           "initial": (2,), "loads": (-1, 2)}


@dataclass
class ExperimentConfig:
    kind: str = "example1"
    target_h: float = 0.08
    # None resolves to the per-kind default in build_mesh
    dirichlet_arc: tuple[float, float] | None = None
    truth: dict = dc_field(default_factory=lambda: {"type": "constant", "lam": 3.0, "mu": 7.0})
    loads: list[tuple[float, float]] = dc_field(default_factory=lambda: list(DEFAULT_LOADS))
    noise: float = 0.0
    seed: int = 0
    rho: float = 0.0
    data_mesh: str = "same"  # "same" | "refine"
    max_iterations: int = 400
    gradient_tolerance: float = 1e-11
    # None resolves to the kind's entry in RECONSTRUCTIONS, or (1, 1) where it gives none
    initial: tuple[float, float] | None = None
    n_pairs: int = 20
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in READS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        defaults = {
            f.name: f.default if f.default_factory is dataclasses.MISSING else f.default_factory()
            for f in dataclasses.fields(self)
        }
        recon = RECONSTRUCTIONS.get(self.kind)
        defaults["initial"] = recon.initial if recon and recon.initial else (1.0, 1.0)
        if self.initial is None:
            self.initial = defaults["initial"]
        if self.data_mesh not in ("same", "refine"):
            raise ConfigError(f"data_mesh must be 'same' or 'refine', got {self.data_mesh!r}")
        if self.schema_version != SCHEMA_VERSION:
            raise ConfigError(f"unsupported schema_version {self.schema_version!r}")
        for name, shape in NUMBERS.items():
            value = getattr(self, name)
            if value is not None or name != "dirichlet_arc":  # a None arc is the kind's
                setattr(self, name, _float_array(value, name, shape))
        # both mesh sizes, the refined data mesh's too, before any mesh is built
        if not MIN_TARGET_H <= self.target_h < 1.0:
            raise ConfigError(f"target_h must lie in [{MIN_TARGET_H}, 1), got {self.target_h!r}")
        if self.data_mesh == "refine" and self.target_h / 2.0 < MIN_TARGET_H:
            raise ConfigError(f"target_h {self.target_h!r} puts the refined data mesh (target_h / 2) below {MIN_TARGET_H}")
        try:  # the library checks the other ranges
            inv.InversionConfig(self.rho, self.max_iterations, self.gradient_tolerance)
            inv.NoiseSpec(self.noise)
            if self.dirichlet_arc is not None:
                BoundaryPartitionSpec(*self.dirichlet_arc)
        except MeshError as exc:
            raise ConfigError(f"dirichlet_arc {list(self.dirichlet_arc)}: {exc}") from exc
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        # `type(...) is int`, since bool is an int too and JSON's true and
        # false are no counts
        if not (type(self.seed) is int and self.seed >= 0):
            raise ConfigError(f"seed must be a nonnegative integer, got {self.seed!r}")
        if not (type(self.n_pairs) is int and self.n_pairs >= 1):
            raise ConfigError(f"n_pairs must be a positive integer, got {self.n_pairs!r}")
        truth = _check_truth(self.truth)
        extra = sorted(set(self.truth) - set(truth))
        if extra:
            raise ConfigError(f"a {self.truth.get('type', 'constant')} truth does not read {extra}")
        self.truth = truth  # a copy, so the caller's dict keeps its values
        unread = [
            name for name, default in defaults.items()
            if name not in READS[self.kind] and getattr(self, name) != default
        ]
        if unread:
            raise ConfigError(f"{self.kind} does not read {', '.join(unread)}; leave unread fields at their defaults")
        if self.truth.get("type") == "file":
            if self.data_mesh == "refine":
                raise ConfigError("a file truth holds one row per inversion-mesh element: it needs data_mesh 'same'")
            _file_truth(self.truth["path"])  # its row count needs the mesh: truth_field checks it
        if recon:
            a, b, c, d = recon.bounds
            if not (a <= self.initial[0] <= b and c <= self.initial[1] <= d):
                raise ConfigError(f"initial must lie in the admissible box {(a, b, c, d)}, got {self.initial!r}")

    def to_dict(self) -> dict:
        # tuples are written as JSON arrays, and __post_init__ turns them back
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        extra = set(d) - known
        if extra:
            raise ConfigError(f"unknown config keys: {sorted(map(str, extra))}")
        try:
            return cls(**d)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    @classmethod
    def from_file(cls, path: str | Path, **overrides) -> "ExperimentConfig":
        """The config in a JSON file, with the given fields replaced before validation."""
        try:
            data = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config {path} must hold a JSON object")
        return cls.from_dict({**data, **overrides})


# -- truth fields ----------------------------------------------------------

# the keys each truth type reads besides "type"
TRUTH_READS = {"constant": ("lam", "mu"), "radial-mu": ("lam",), "gaussian-bumps-lambda": (), "file": ("path",)}


def _check_truth(spec) -> dict:
    """The entries of spec that its type reads, moduli as floats, or ConfigError unless spec is a truth
    description: known type, valid keys, moduli in DEFAULT_BOUNDS.  Only the config rejects a key that
    the type does not read."""
    if not isinstance(spec, dict):
        raise ConfigError(f"truth must be an object, got {spec!r}")
    unread = sorted(map(str, set(spec) - {"type"}.union(*TRUTH_READS.values())))
    if unread:
        raise ConfigError(f"truth keys {unread} are read by no truth type")
    kind = spec.get("type", "constant")
    if not (isinstance(kind, str) and kind in TRUTH_READS):
        raise ConfigError(f"unknown truth field type {kind!r}")
    if kind == "file" and not isinstance(spec.get("path"), str):
        raise ConfigError(f"file truth needs a string path, got {spec.get('path')!r}")
    a, b, c, d = DEFAULT_BOUNDS
    box = {"lam": [a, b], "mu": [c, d]}
    reads = TRUTH_READS[kind]
    read = {key: spec[key] for key in ("type", *reads) if key in spec}
    # a constant truth gives both moduli; a radial-mu truth may leave lam at 1
    moduli = [key for key in reads if key in box and (kind == "constant" or key in spec)]
    for key in moduli:
        read[key] = _float_array(spec.get(key), f"truth {key}", ())
        if not box[key][0] <= read[key] <= box[key][1]:
            raise ConfigError(f"{kind} truth needs a number {key} in {box[key]}, got {spec.get(key)!r}")
    return read


def _file_truth(path) -> LameField:
    """The (lam, mu) table of a file truth, or ConfigError unless the path names a readable regular
    file of two columns of finite moduli in DEFAULT_BOUNDS; each OSError of the path is one too."""
    try:  # np.loadtxt would block on a FIFO or /dev/zero
        if not (Path(path).is_file() and os.access(path, os.R_OK)):
            raise OSError("not a readable regular file")
        with warnings.catch_warnings():  # np.loadtxt warns on a file of no rows: the shape check reports it
            warnings.simplefilter("ignore")
            data = np.loadtxt(path, ndmin=2)
        if data.shape[1] != 2:
            raise ValueError(f"expected rows of (lam, mu), got shape {data.shape}")
        return LameField(data[:, 0], data[:, 1])
    except (OSError, ValueError) as exc:  # an OSError's str repeats the path; its strerror does not
        raise ConfigError(f"bad truth file {path}: {getattr(exc, 'strerror', None) or exc}") from exc


def truth_field(spec: dict, mesh: Mesh) -> LameField:
    """Sample a truth parameter description at the element centroids."""
    _check_truth(spec)
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
    # the "file" type: one (lam, mu) row per element
    field = _file_truth(spec["path"])
    if len(field.lam) != mesh.n_elements:
        raise ConfigError(f"bad truth file {spec['path']}: expected {mesh.n_elements} rows, got {len(field.lam)}")
    return field


# -- bundle helpers --------------------------------------------------------


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_convergence(path: Path, run: inv.InversionRun) -> None:
    lines = ["iteration,J,grad_sup_norm,step_length"]
    steps = [""] + [repr(float(s)) for s in run.step_history]
    for i, (j, g) in enumerate(zip(run.j_history, run.grad_history)):
        lines.append(f"{i},{float(j)!r},{float(g)!r},{steps[i]}")
    path.write_text("\n".join(lines) + "\n")


# elements per write of a field table: the table is never held as one string
FIELD_CHUNK = 4096


def _write_field(path: Path, field: LameField) -> None:
    """One `lam mu` line per element, each value its shortest round-trip repr."""
    # each distinct value is formatted once, since truths hold few of them.
    # A LameField is finite and strictly positive, so np.unique never merges
    # -0.0 with 0.0, whose reprs differ
    lam, mu = (
        np.fromiter(map(repr, distinct.tolist()), dtype=object, count=len(distinct))[inverse].tolist()
        for distinct, inverse in (np.unique(v, return_inverse=True) for v in (field.lam, field.mu))
    )
    with path.open("w") as f:
        f.write("# lam mu (one element per line)\n")
        for i in range(0, len(lam), FIELD_CHUNK):
            f.write("".join([f"{l} {m}\n" for l, m in zip(lam[i : i + FIELD_CHUNK], mu[i : i + FIELD_CHUNK])]))


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


# the clamped lower half-circle, unless the kind's RECONSTRUCTIONS entry gives another
DEFAULT_ARC = dataclasses.astuple(BoundaryPartitionSpec())


def build_mesh(config: ExperimentConfig, target_h: float) -> Mesh:
    """Disk mesh of size target_h with the config's clamped arc, or its kind's default arc.

    Runs in one process with the same (target_h, arc) share the Mesh and so its Discretization.
    """
    recon = RECONSTRUCTIONS.get(config.kind)
    arc = config.dirichlet_arc or (recon.arc if recon else DEFAULT_ARC)
    return _partitioned_mesh(target_h, tuple(arc))


# two entries: a run uses at most an inversion mesh and a refined data mesh, and
# perfbench's `recon` alternates example2 (lower half) and example3 (upper-left
# quarter) at h=0.08, so both of its meshes stay cached across ops
@functools.lru_cache(maxsize=2)
def _partitioned_mesh(target_h: float, arc: tuple[float, float]) -> Mesh:
    mesh = generate_disk_mesh(target_h)
    try:
        return partition_boundary(mesh, BoundaryPartitionSpec(*arc))
    except MeshError as exc:  # the arc leaves a boundary part without a node of its own
        raise ConfigError(f"dirichlet_arc {list(arc)} at target_h {target_h}: {exc}") from exc


def bump_centroids(mesh: Mesh, lam: np.ndarray) -> list[list[float] | None]:
    """Area-weighted centroids of the top-decile lam elements, one per half,
    None for a half that holds no such element.

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
            out.append(None)  # JSON null: a NaN pair would not be JSON
            continue
        w = areas[mask] / areas[mask].sum()
        out.append([float(x) for x in (w @ cents[mask])])
    return out


# -- experiment runners ----------------------------------------------------

# admissible box of the per-element unknowns, enforced by projection
PER_ELEMENT_BOUNDS = (1e-3, 1e3, 1e-3, 1e3)
# a noisy row with a noise floor stops at J <= DISCREPANCY_TAU * J(truth),
# Morozov's discrepancy principle
DISCREPANCY_TAU = 1.5


@dataclass(frozen=True)
class Reconstruction:
    """What a reconstruction kind fits, to which data, and what its rows report.

    truth is a truth spec, settings the (noise, rho) rows and initial the
    start; None takes the config's truth, its one (noise, rho) row or its
    initial, and so makes the kind read those fields (READS).  per_element
    fits one region per element in PER_ELEMENT_BOUNDS, else one constant
    pair in DEFAULT_BOUNDS.  bump_centroids adds bump_centroids to the
    report and rows; arc is the kind's default dirichlet_arc.
    """

    truth: dict | None
    per_element: bool = True
    settings: tuple[tuple[float, float], ...] | None = ((0.0, 0.0), (0.03, 1e-4))
    bump_centroids: bool = False
    arc: tuple[float, float] = DEFAULT_ARC
    initial: tuple[float, float] | None = None

    @property
    def bounds(self) -> tuple[float, float, float, float]:
        return PER_ELEMENT_BOUNDS if self.per_element else DEFAULT_BOUNDS


RECONSTRUCTIONS = {
    "example1": Reconstruction(
        {"type": "constant", "lam": 3.0, "mu": 7.0},
        per_element=False,
        settings=((0.0, 0.0), (0.03, 1e-5), (0.05, 1e-5)),
    ),
    "example2": Reconstruction({"type": "radial-mu", "lam": 1.0}, initial=(0.3, 0.5)),
    # the clamped upper-left quarter leaves both bump directions measured
    "example3": Reconstruction(
        {"type": "gaussian-bumps-lambda"},
        bump_centroids=True,
        arc=(math.pi / 2.0, math.pi),
        initial=(0.3, 0.5),
    ),
    "custom": Reconstruction(None, settings=None),
}


def run_reconstruction(config: ExperimentConfig) -> ResultBundle:
    """One reconstruction per (noise, rho) row of the config's kind in RECONSTRUCTIONS."""
    recon = RECONSTRUCTIONS[config.kind]
    spec = recon.truth or config.truth
    mesh = build_mesh(config, config.target_h)
    data_mesh = build_mesh(config, config.target_h / 2.0) if config.data_mesh == "refine" else mesh
    truth = truth_field(spec, mesh)
    truth_data = truth if data_mesh is mesh else truth_field(spec, data_mesh)
    loads = [SurfaceLoad(constant=tuple(g)) for g in config.loads]
    regions = np.arange(mesh.n_elements) if recon.per_element else np.zeros(mesh.n_elements, dtype=int)
    param = RegionParameterization(regions, recon.bounds)
    x0 = np.repeat(config.initial, param.n_regions)
    # a noisy row stops at the noise floor if the fit is per element (two constants are well
    # posed, and the stop raised their error) and the truth is the kind's (real data have none)
    noise_floor = recon.per_element and recon.truth is not None
    bundle = ResultBundle(config, {"kind": config.kind, "table": []})
    if recon.per_element:
        bundle.fields["truth"] = truth
    if recon.bump_centroids:
        bundle.report["truth_bump_centroids"] = bump_centroids(mesh, truth.lam)
    for i, (eps, rho) in enumerate(recon.settings or [(config.noise, config.rho)]):
        noise = inv.NoiseSpec(eps, config.seed + i)
        measured = measurements = inv.generate_measurements(data_mesh, truth_data, loads, noise)
        if data_mesh is not mesh:
            measurements = inv.MeasurementSet([(g, inv.transfer_trace(data_mesh, f, mesh)) for g, f in measured.pairs])
        # the truth's J on the data mesh, where the noisy data were measured
        floor = inv.kohn_vogelius(truth_data, data_mesh, measured, rho)[0] if noise_floor and eps > 0 else None
        target = None if floor is None else DISCREPANCY_TAU * floor
        opt = inv.InversionConfig(rho, config.max_iterations, config.gradient_tolerance, target)
        run = inv.bfgs_minimize(opt, mesh, measurements, param, x0)
        rec = run.final_field
        row = {"epsilon": eps, "rho": rho, "iterations": run.iterations, "converged": run.converged, "reason": run.reason}
        if recon.per_element:
            row.update(
                initial_j=run.j_history[0],
                final_j=run.j_history[-1],
                noise_floor_j=floor,
                rel_l2_error_lam=relative_l2_error(mesh, rec.lam, truth.lam),
                rel_l2_error_mu=relative_l2_error(mesh, rec.mu, truth.mu),
            )
        else:
            computed, exact = [rec.lam[0], rec.mu[0]], [truth.lam[0], truth.mu[0]]
            row.update(
                initial=list(config.initial),
                computed=computed,
                exact=exact,
                rel_error_lam=abs(computed[0] - exact[0]) / exact[0],
                rel_error_mu=abs(computed[1] - exact[1]) / exact[1],
            )
        if recon.bump_centroids:
            row["bump_centroids"] = bump_centroids(mesh, rec.lam)
        bundle.report["table"].append(row)
        key = f"eps{eps}_rho{rho}"
        bundle.runs[key] = run
        bundle.fields[key] = rec
    return bundle


def _ordered_pairs(config: ExperimentConfig):
    """The config's seeded quadrant pairs on its mesh, one solver per field to serve all its solves."""
    mesh = build_mesh(config, config.target_h)
    rng = np.random.default_rng(config.seed)
    for _ in range(config.n_pairs):
        pair = ntd.quadrant_pair(mesh, rng)
        yield ElasticitySolver(mesh, pair.field_1), ElasticitySolver(mesh, pair.field_2)


def run_monotonicity(config: ExperimentConfig) -> ResultBundle:
    """Seeded campaign over ordered pairs: sandwich inequality and ordering gap."""
    loads = [SurfaceLoad(constant=tuple(g)) for g in config.loads]
    records, violations = [], []
    for i, (s1, s2) in enumerate(_ordered_pairs(config)):
        gap = ntd.loewner_gap(s1, s2)
        rec = {"pair": i, "loewner_gap": gap, "sandwich": []}
        if gap < -ntd.ORDER_TOL:
            violations.append({"pair": i, "kind": "loewner", "gap": gap})
        for k, (lhs, mid, rhs) in enumerate(ntd.monotonicity_sandwich(s1, s2, loads)):
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
    """Ratio d(params) / |NtD difference| over the seeded ordered pairs, skipping coincident ones.

    The max ratio is the family's empirical Lipschitz constant at this discretization, not thresholded.
    """
    ratios, dps, dops, skipped = [], [], [], 0
    for s1, s2 in _ordered_pairs(config):
        dp = ntd.parameter_distance(s1.field, s2.field)
        if dp == 0.0:
            skipped += 1
            continue
        dop = ntd.operator_distance(s1, s2)
        dps.append(dp)
        dops.append(dop)
        ratios.append(dp / dop if dop > 0.0 else float("inf"))
    report = {
        "kind": "stability", "n_pairs": config.n_pairs, "skipped": skipped, "ratios": ratios,
        "parameter_distances": dps, "operator_distances": dops,
        "max_ratio": max(ratios, default=None), "min_ratio": min(ratios, default=None),
    }
    return ResultBundle(config, report)


def run_forward(config: ExperimentConfig) -> ResultBundle:
    """Solve the forward problem for the configured truth and export traces."""
    mesh = build_mesh(config, config.target_h)
    truth = truth_field(config.truth, mesh)
    loads = [SurfaceLoad(constant=tuple(g)) for g in config.loads]
    traces = {
        f"load_{k}": {"load": list(g.constant), "trace": f.tolist()}
        for k, (g, f) in enumerate(inv.generate_measurements(mesh, truth, loads).pairs)
    }
    report = {
        "kind": "forward",
        "n_nodes": mesh.n_nodes,
        "n_elements": mesh.n_elements,
        "neumann_nodes": mesh.neumann_nodes.tolist(),
        "traces": traces,
    }
    bundle = ResultBundle(config, report)
    bundle.fields["truth"] = truth
    return bundle


RUNNERS = {
    **dict.fromkeys(RECONSTRUCTIONS, run_reconstruction),
    "monotonicity": run_monotonicity,
    "stability": run_stability,
    "forward": run_forward,
}
# the config fields each runner reads.  Every kind takes the mesh, the schema
# and a seed (forward draws nothing, but accepts one); any other field that a
# kind does not read must keep its default, or the config is rejected.  A
# reconstruction kind reads the fields its entry leaves to the config (None)
COMMON = ("kind", "schema_version", "target_h", "dirichlet_arc", "seed")
RECONSTRUCTION = (*COMMON, "loads", "data_mesh", "max_iterations", "gradient_tolerance")
LEFT_TO_CONFIG = {"initial": ("initial",), "truth": ("truth",), "settings": ("noise", "rho")}
READS = {
    **{
        kind: RECONSTRUCTION
        + tuple(name for entry, names in LEFT_TO_CONFIG.items() if getattr(recon, entry) is None for name in names)
        for kind, recon in RECONSTRUCTIONS.items()
    },
    "monotonicity": (*COMMON, "loads", "n_pairs"),
    "stability": (*COMMON, "n_pairs"),
    "forward": (*COMMON, "truth", "loads"),
}


def run_experiment(config: ExperimentConfig) -> ResultBundle:
    return RUNNERS[config.kind](config)
