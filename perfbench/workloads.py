"""The benchmark workloads: seeded op lists, set-up, and per-op correctness gates.

An op is one user-level run of the package.  Its timed call goes only through
``experiments.run_experiment`` or ``cli.main``, looked up on the module at
call time so that the tracer's patches apply; everything else the benchmark
does (config generation, set-up, gates, temp files) stays outside the timed
call.  The program sees only the generated configs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from elastinv import cli, experiments, ntd
from elastinv.fem import SurfaceLoad
from elastinv.inversion import generate_measurements
from elastinv.mesh import BoundaryPartitionSpec, generate_disk_mesh, partition_boundary

# the program's two default clamped arcs: lower half circle, upper-left quarter
ARCS = {"lower-half": (math.pi, 2.0 * math.pi), "upper-left": (math.pi / 2.0, math.pi)}
RECON_MAX_ITERATIONS = 40
NTD_PAIRS = 1
FORWARD_ARC = "lower-half"

# correctness thresholds, taken from the package's acceptance criterion 9
J_DROP_MIN = 1e3
BUMP_OFFSET_MAX = 0.25
BUMP_CENTRES = [(0.5, 0.5), (-0.5, -0.5)]


class GateFailure(AssertionError):
    """An op returned but its output fails the workload's correctness gate."""


def _gate(ok: bool, message: str) -> None:
    if not ok:
        raise GateFailure(message)


def _draw_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _mesh(target_h: float, arc: str):
    return partition_boundary(generate_disk_mesh(target_h), BoundaryPartitionSpec(*ARCS[arc]))


def _mesh_info(arc: str, mesh) -> dict:
    return {
        "arc": arc,
        "nodes": int(mesh.n_nodes),
        "elements": int(mesh.n_elements),
        "neumann_nodes": int(len(mesh.neumann_nodes)),
        "free_dofs": int(2 * (mesh.n_nodes - len(mesh.dirichlet_nodes))),
    }


def _synthesize(mesh, field) -> None:
    """Noise-free measurement synthesis; warms the solve path before timing."""
    loads = [SurfaceLoad(constant=g) for g in experiments.DEFAULT_LOADS]
    traces = [f for _, f in generate_measurements(mesh, field, loads).pairs]
    if not all(np.all(np.isfinite(f)) for f in traces):
        raise RuntimeError("set-up produced non-finite measurements")


class Op:
    """One timed call into the program, with its untimed preparation and gate."""

    label = "op"

    def prepare(self) -> None:
        pass

    def run(self):
        raise NotImplementedError

    def check(self, result) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass


# -- recon -----------------------------------------------------------------


class ReconOp(Op):
    def __init__(self, kind: str, seed: int, target_h: float):
        self.label = kind
        self.config = experiments.ExperimentConfig(
            kind=kind, target_h=target_h, seed=seed, max_iterations=RECON_MAX_ITERATIONS
        )

    def run(self):
        return experiments.run_experiment(self.config)

    def check(self, bundle) -> None:
        rows = bundle.report["table"]
        _gate(len(rows) == 2, f"{self.label}: expected 2 noise rows, got {len(rows)}")
        for row in rows:
            _gate(
                all(math.isfinite(row[k]) for k in ("initial_j", "final_j", "rel_l2_error_lam", "rel_l2_error_mu")),
                f"{self.label}: non-finite entry in row eps={row['epsilon']}",
            )
        clean = [row for row in rows if row["epsilon"] == 0.0]
        _gate(len(clean) == 1, f"{self.label}: no noise-free row")
        row = clean[0]
        drop = row["initial_j"] / max(row["final_j"], 1e-300)
        _gate(drop >= J_DROP_MIN, f"{self.label}: noise-free J drop {drop:.3g} < {J_DROP_MIN:g}")
        if self.label == "example3":
            centroids = row["bump_centroids"]
            _gate(len(centroids) == len(BUMP_CENTRES), f"example3: {len(centroids)} bump centroids")
            # a NaN offset (a half with no top-decile element) must fail, so no max()
            offsets = [math.hypot(cx - tx, cy - ty) for (cx, cy), (tx, ty) in zip(centroids, BUMP_CENTRES)]
            _gate(
                all(math.isfinite(d) and d <= BUMP_OFFSET_MAX for d in offsets),
                f"example3: bump-centroid offsets {offsets} not all <= {BUMP_OFFSET_MAX}",
            )


# -- ntd-campaign ------------------------------------------------------------


class NtdOp(Op):
    label = "monotonicity+stability"

    def __init__(self, seeds: tuple[int, int], target_h: float):
        self.configs = [
            experiments.ExperimentConfig(kind=kind, target_h=target_h, seed=s, n_pairs=NTD_PAIRS)
            for kind, s in zip(("monotonicity", "stability"), seeds)
        ]

    def run(self):
        return tuple(experiments.run_experiment(c) for c in self.configs)

    def check(self, result) -> None:
        mono, stab = result
        violations = mono.report["violations"]
        _gate(not violations, f"monotonicity violations: {violations}")
        rep = stab.report
        _gate(len(rep["ratios"]) == rep["n_pairs"] - rep["skipped"] > 0, "stability produced no ratios")
        _gate(all(d > 0.0 for d in rep["operator_distances"]), "non-positive operator distance")
        _gate(all(math.isfinite(r) for r in rep["ratios"]), f"non-finite stability ratio {rep['ratios']}")


# -- forward-fine ------------------------------------------------------------


def check_forward(out_dir: Path, n_loads: int, mesh: dict) -> None:
    report = json.loads((out_dir / "results.json").read_text())
    _gate(report["n_nodes"] == mesh["nodes"], f"bundle has {report['n_nodes']} nodes, mesh {mesh['nodes']}")
    m = mesh["neumann_nodes"]
    _gate(len(report["neumann_nodes"]) == m, f"bundle lists {len(report['neumann_nodes'])} Neumann nodes, mesh {m}")
    traces = report["traces"]
    _gate(len(traces) == n_loads, f"{len(traces)} traces for {n_loads} loads")
    for name, entry in traces.items():
        trace = np.asarray(entry["trace"], dtype=float)
        _gate(trace.shape == (m, 2), f"{name}: trace shape {trace.shape}, expected ({m}, 2)")
        _gate(bool(np.all(np.isfinite(trace))), f"{name}: non-finite trace")


def same_bundle(a: Path, b: Path) -> bool:
    names_a = sorted(p.name for p in a.iterdir())
    names_b = sorted(p.name for p in b.iterdir())
    return names_a == names_b and all((a / n).read_bytes() == (b / n).read_bytes() for n in names_a)


def _call_cli(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, err.getvalue()


class ForwardOp(Op):
    def __init__(self, config: dict, mesh_h: float, mesh: dict, scratch: Path, rerun: bool):
        self.label = f"forward:{config['truth']['type']}"
        self.config = {**config, "kind": "forward"}
        self.mesh_h = mesh_h
        self.mesh = mesh
        self.scratch = scratch
        self.rerun = rerun
        self.tmp = None

    def _argv(self, out: str) -> list[str]:
        return ["forward", "--config", str(self.tmp / "config.json"), "--mesh-h", repr(self.mesh_h), "--out", out]

    def run(self):
        # the config file and temp directory are made before the timed call
        return _call_cli(self._argv(str(self.tmp / "bundle")))

    def prepare(self) -> None:
        self.tmp = Path(tempfile.mkdtemp(prefix="op-", dir=self.scratch))
        (self.tmp / "config.json").write_text(json.dumps(self.config))

    def check(self, result) -> None:
        rc, err = result
        _gate(rc == 0, f"{self.label}: exit code {rc}: {err.strip()}")
        check_forward(self.tmp / "bundle", len(self.config["loads"]), self.mesh)
        if self.rerun:
            rc2, err2 = _call_cli(self._argv(str(self.tmp / "rerun")))
            _gate(rc2 == 0, f"{self.label}: rerun exit code {rc2}: {err2.strip()}")
            _gate(same_bundle(self.tmp / "bundle", self.tmp / "rerun"), f"{self.label}: rerun bundle differs")

    def close(self) -> None:
        if self.tmp is not None:
            shutil.rmtree(self.tmp, ignore_errors=True)
            self.tmp = None


# -- workload definitions ----------------------------------------------------


@dataclass(frozen=True)
class Recon:
    """Per-element reconstructions, example2 and example3 alternating."""

    name: str = "recon"
    target_h: float = 0.08

    def setup(self) -> dict:
        meshes = []
        for kind, arc, truth in (
            ("example2", "lower-half", {"type": "radial-mu", "lam": 1.0}),
            ("example3", "upper-left", {"type": "gaussian-bumps-lambda"}),
        ):
            mesh = _mesh(self.target_h, arc)
            _synthesize(mesh, experiments.truth_field(truth, mesh))
            meshes.append({"kind": kind, **_mesh_info(arc, mesh)})
        return {"meshes": meshes}

    def campaign(self, rng: np.random.Generator, ctx: dict, scratch: Path, first: bool) -> list:
        return [
            ReconOp(kind, _draw_seed(rng), self.target_h)
            for kind in ("example2", "example3")
        ]


@dataclass(frozen=True)
class NtdCampaign:
    """Monotonicity plus stability checks over seeded ordered pairs."""

    name: str = "ntd-campaign"
    target_h: float = 0.08
    campaign_len: int = 8

    def setup(self) -> dict:
        mesh = _mesh(self.target_h, "lower-half")
        pair = ntd.quadrant_pair(mesh, np.random.default_rng(0))
        _synthesize(mesh, pair.field_1)
        return {"meshes": [_mesh_info("lower-half", mesh)]}

    def campaign(self, rng: np.random.Generator, ctx: dict, scratch: Path, first: bool) -> list:
        return [
            NtdOp((_draw_seed(rng), _draw_seed(rng)), self.target_h)
            for _ in range(self.campaign_len)
        ]


TRUTH_TYPES = ("constant", "radial-mu", "gaussian-bumps-lambda")


def _truth_spec(kind: str, rng: np.random.Generator) -> dict:
    if kind == "constant":
        return {"type": kind, "lam": float(rng.uniform(1.0, 5.0)), "mu": float(rng.uniform(2.0, 8.0))}
    if kind == "radial-mu":
        return {"type": kind, "lam": float(rng.uniform(0.5, 3.0))}
    return {"type": kind}


@dataclass(frozen=True)
class ForwardFine:
    """CLI forward solves on a fine mesh, cycling over the truth types.

    The clamped arc is the program's default for forward runs (lower half).
    The upper-left quarter arc is left out: at mesh_h 0.02 every forward solve
    there fails the package's 1e-12 residual check (exit code 3).

    FIXME: cycle both default arcs again once the residual check is fixed
    (ROADMAP open item 5, "Fail early, stop honestly").
    """

    name: str = "forward-fine"
    mesh_h: float = 0.02
    campaign_len: int = 6

    def setup(self) -> dict:
        mesh = _mesh(self.mesh_h, FORWARD_ARC)
        fields = [experiments.truth_field({"type": t, "lam": 3.0, "mu": 7.0}, mesh) for t in TRUTH_TYPES]
        _synthesize(mesh, fields[TRUTH_TYPES.index("radial-mu")])
        return {"meshes": [_mesh_info(FORWARD_ARC, mesh)]}

    def campaign(self, rng: np.random.Generator, ctx: dict, scratch: Path, first: bool) -> list:
        ops = []
        for k in range(self.campaign_len):
            config = {
                "truth": _truth_spec(TRUTH_TYPES[k % len(TRUTH_TYPES)], rng),
                "loads": [[float(v) for v in rng.uniform(-0.5, 0.5, 2)] for _ in range(4)],
                "seed": _draw_seed(rng),
            }
            # every config of the first campaign is rerun to check byte-identical bundles
            ops.append(ForwardOp(config, self.mesh_h, ctx["meshes"][0], scratch, rerun=first))
        return ops


WORKLOADS = {w.name: w for w in (Recon(), NtdCampaign(), ForwardFine())}
