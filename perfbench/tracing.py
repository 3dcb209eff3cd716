"""Span tracer for the traced benchmark run.

The tracer patches the package's entry points at the names where callers look
them up (a module global or a class attribute), so the package itself is not
edited.  Each call records one span: name, start, end, parent span and the id
of the benchmark op it belongs to.  Spans stay in memory until the run ends.
A patch target that no longer exists is recorded as absent, and the layer
metrics built on it are left out instead of crashing the run.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from pathlib import Path

# bytes per stored factor entry: one float64 value plus one int32 index
FACTOR_ENTRY_BYTES = 12


def _written_bytes(out_dir) -> int:
    return sum(p.stat().st_size for p in Path(out_dir).rglob("*") if p.is_file())


def _factor_nnz(lu) -> int:
    return int(lu.L.nnz + lu.U.nnz)


# (module, attribute path, span name, work count taken from the call's result)
PATCHES = [
    ("elastinv.cli", "main", "cli.main", None),
    ("elastinv.cli", "run_experiment", "experiments.run_experiment", None),
    ("elastinv.experiments", "run_experiment", "experiments.run_experiment", None),
    ("elastinv.experiments", "ResultBundle.write", "experiments.write", ("write_bytes", _written_bytes)),
    ("elastinv.experiments", "generate_disk_mesh", "mesh.generate_disk_mesh", ("nodes", lambda m: m.n_nodes)),
    ("elastinv.experiments", "partition_boundary", "mesh.partition_boundary", None),
    ("elastinv.fem", "ElasticitySolver.__init__", "fem.solver_init", None),
    ("elastinv.fem", "neumann_mass_matrix", "fem.boundary_mass", None),
    ("scipy.sparse.linalg", "splu", "fem.splu", ("factor_nnz", _factor_nnz)),
    ("elastinv.fem", "ElasticitySolver.solve_neumann", "fem.solve_neumann", None),
    ("elastinv.fem", "ElasticitySolver.solve_dirichlet", "fem.solve_dirichlet", None),
    ("elastinv.ntd", "build_ntd", "ntd.build_ntd", None),
    ("elastinv.ntd", "loewner_gap", "ntd.loewner_gap", None),
    ("elastinv.ntd", "operator_distance", "ntd.operator_distance", None),
    ("elastinv.ntd", "monotonicity_sandwich", "ntd.monotonicity_sandwich", None),
    ("elastinv.inversion", "kohn_vogelius", "inversion.kohn_vogelius", None),
    ("elastinv.inversion", "kv_gradient", "inversion.kv_gradient", None),
    ("elastinv.inversion", "bfgs_minimize", "inversion.bfgs_minimize", ("iterations", lambda run: run.iterations)),
    ("elastinv.inversion", "generate_measurements", "inversion.generate_measurements", None),
]


class Tracer:
    """In-memory span recorder; patches are active only between install and uninstall."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.work: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self.active = False
        self.ops = 0
        self._stack: list[int] = []
        self._op: int | None = None
        self._undo: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self._op])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    def begin_op(self) -> None:
        """Open the root span of the next timed op; calls are traced until end_op."""
        self.active = True
        self._op = self.ops
        self.ops += 1
        self._open("bench.op")

    def end_op(self) -> None:
        self._close(self._stack[-1])
        self._op = None
        self.active = False

    # -- patching ---------------------------------------------------------

    def _wrap(self, fn, name: str, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if counter is not None:
                tracer.work[counter[0]] += counter[1](result)
            return result

        return traced

    def install(self) -> None:
        for module_name, path, name, counter in PATCHES:
            owner_path, _, attr = path.rpartition(".")
            try:
                owner = importlib.import_module(module_name)
                for part in filter(None, owner_path.split(".")):
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{path}")
                continue
            setattr(owner, attr, self._wrap(original, name, counter))
            self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        self.active = False

    def missing(self, *targets: str) -> bool:
        return any(t in self.absent for t in targets)

    # -- aggregation ------------------------------------------------------

    def totals(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self time in seconds and call count per span name.

        A span's self time is its duration minus the durations of its direct
        children; calls are nested on one thread, so children never overlap.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += (end - start) - child[i]
            calls[name] += 1
        return self_s, calls

    def dump(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "op": op}
            for n, s, e, p, op in self.spans
        ]


# (metric, unit, patch targets it needs, value from (self ms, calls, work counts))
LAYER_METRICS = [
    ("mesh.generate_ms", "ms", ["elastinv.experiments.generate_disk_mesh", "elastinv.experiments.partition_boundary"],
     lambda ms, n, w: ms["mesh.generate_disk_mesh"] + ms["mesh.partition_boundary"]),
    ("mesh.calls", "count", ["elastinv.experiments.generate_disk_mesh"],
     lambda ms, n, w: n["mesh.generate_disk_mesh"]),
    ("mesh.nodes", "count", ["elastinv.experiments.generate_disk_mesh"],
     lambda ms, n, w: w["nodes"]),
    ("fem.solver_init_ms", "ms", ["elastinv.fem.ElasticitySolver.__init__"],
     lambda ms, n, w: ms["fem.solver_init"]),
    ("fem.solvers", "count", ["elastinv.fem.ElasticitySolver.__init__"],
     lambda ms, n, w: n["fem.solver_init"]),
    ("fem.boundary_mass_ms", "ms", ["elastinv.fem.neumann_mass_matrix"],
     lambda ms, n, w: ms["fem.boundary_mass"]),
    ("fem.boundary_mass_calls", "count", ["elastinv.fem.neumann_mass_matrix"],
     lambda ms, n, w: n["fem.boundary_mass"]),
    ("fem.factor_ms", "ms", ["scipy.sparse.linalg.splu"],
     lambda ms, n, w: ms["fem.splu"]),
    ("fem.factorizations", "count", ["scipy.sparse.linalg.splu"],
     lambda ms, n, w: n["fem.splu"]),
    ("fem.factor_nnz", "count", ["scipy.sparse.linalg.splu"],
     lambda ms, n, w: w["factor_nnz"]),
    ("fem.factor_bytes_computed", "B", ["scipy.sparse.linalg.splu"],
     lambda ms, n, w: w["factor_nnz"] * FACTOR_ENTRY_BYTES),
    ("fem.solve_neumann_ms", "ms", ["elastinv.fem.ElasticitySolver.solve_neumann"],
     lambda ms, n, w: ms["fem.solve_neumann"]),
    ("fem.solve_neumann_calls", "count", ["elastinv.fem.ElasticitySolver.solve_neumann"],
     lambda ms, n, w: n["fem.solve_neumann"]),
    ("fem.solve_dirichlet_ms", "ms", ["elastinv.fem.ElasticitySolver.solve_dirichlet"],
     lambda ms, n, w: ms["fem.solve_dirichlet"]),
    ("fem.solve_dirichlet_calls", "count", ["elastinv.fem.ElasticitySolver.solve_dirichlet"],
     lambda ms, n, w: n["fem.solve_dirichlet"]),
    ("ntd.build_ntd_ms", "ms", ["elastinv.ntd.build_ntd"],
     lambda ms, n, w: ms["ntd.build_ntd"]),
    ("ntd.build_ntd_calls", "count", ["elastinv.ntd.build_ntd"],
     lambda ms, n, w: n["ntd.build_ntd"]),
    ("ntd.eig_ms", "ms", ["elastinv.ntd.loewner_gap", "elastinv.ntd.operator_distance"],
     lambda ms, n, w: ms["ntd.loewner_gap"] + ms["ntd.operator_distance"]),
    ("ntd.sandwich_ms", "ms", ["elastinv.ntd.monotonicity_sandwich"],
     lambda ms, n, w: ms["ntd.monotonicity_sandwich"]),
    ("inversion.evaluations", "count", ["elastinv.inversion.kohn_vogelius"],
     lambda ms, n, w: n["inversion.kohn_vogelius"]),
    ("inversion.iterations", "count", ["elastinv.inversion.bfgs_minimize"],
     lambda ms, n, w: w["iterations"]),
    # (iterations + 1) / evaluations per optimizer run; 0 where nothing is optimized
    ("inversion.accepted_eval_ratio", "ratio",
     ["elastinv.inversion.kohn_vogelius", "elastinv.inversion.bfgs_minimize"],
     lambda ms, n, w: (w["iterations"] + n["inversion.bfgs_minimize"]) / n["inversion.kohn_vogelius"]
     if n["inversion.kohn_vogelius"] else 0.0),
    ("inversion.eval_ms", "ms", ["elastinv.inversion.kohn_vogelius", "elastinv.inversion.kv_gradient"],
     lambda ms, n, w: ms["inversion.kohn_vogelius"] + ms["inversion.kv_gradient"]),
    ("inversion.optimizer_self_ms", "ms", ["elastinv.inversion.bfgs_minimize"],
     lambda ms, n, w: ms["inversion.bfgs_minimize"]),
    ("inversion.measurements_ms", "ms", ["elastinv.inversion.generate_measurements"],
     lambda ms, n, w: ms["inversion.generate_measurements"]),
    ("experiments.runner_self_ms", "ms",
     ["elastinv.cli.run_experiment", "elastinv.experiments.run_experiment"],
     lambda ms, n, w: ms["experiments.run_experiment"]),
    ("experiments.write_ms", "ms", ["elastinv.experiments.ResultBundle.write"],
     lambda ms, n, w: ms["experiments.write"]),
    ("experiments.write_bytes", "B", ["elastinv.experiments.ResultBundle.write"],
     lambda ms, n, w: w["write_bytes"]),
    ("cli.self_ms", "ms", ["elastinv.cli.main"],
     lambda ms, n, w: ms["cli.main"]),
]


def layer_metrics(tracer: Tracer) -> tuple[dict[str, dict], list[str]]:
    """Per-layer metrics of the traced pass, and the names left out as absent.

    Every *_ms metric is a self time summed over the pass.
    """
    self_s, calls = tracer.totals()
    self_ms = defaultdict(float, {k: 1e3 * v for k, v in self_s.items()})
    calls = defaultdict(int, calls)
    work = defaultdict(int, tracer.work)
    metrics, absent = {}, []
    for name, unit, targets, value in LAYER_METRICS:
        if tracer.missing(*targets):
            absent.append(name)
            continue
        metrics[name] = {"value": value(self_ms, calls, work), "unit": unit}
    return metrics, absent
