"""Benchmark of the elastinv package: one workload per process.

Run from the repository root:

    python3 perfbench/run.py --workload recon --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``recon`` (per-element Kohn-Vogelius
reconstructions), ``ntd-campaign`` (monotonicity and stability checks) and
``forward-fine`` (CLI forward solves on a fine mesh).  Ops come from a
sequence generated from ``--seed`` and run in campaigns, one pass over the
workload's op kinds.  An untraced run executes whole campaigns until
``--seconds`` have passed and at least 11 ops ran, so the tail latency is
defined.  Every op passes through a correctness gate.

Op and set-up pass timings are wall-clock seconds scaled to a nominal machine
speed by a reference timed before each of them in a separate process
(``reference.py``).  The wall-clock figures and reference times go into the
env record next to the scaled ones, so a claimed gain can be checked against
wall time.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:

- ``setup_s``: the median of five import times of the benchmark's modules in
  fresh interpreters plus the median of three set-up passes (meshes, truth
  fields, measurement synthesis), all made before the first timed op; this
  process's own import time goes into the env record;
- ``time_to_solution_s``: median time of one campaign (the workload's fixed
  list of ops);
- ``op_s_p50``: median op latency;
- ``op_s_tail``: latency of the op with exactly 10 ops slower than it, the
  highest percentile with at least 10 samples beyond it (the percentile and
  sample count go into the env record);
- ``peak_rss_mb``: peak resident set size of the process;
- ``ok_frac``: share of ops that returned and passed their gate.

With ``--trace 1`` the first campaigns holding at least 8 ops run twice,
untraced and then traced, so the work counts repeat exactly for a seed.  The
last line carries the per-layer metrics of ``tracing.py`` and
``trace.overhead_s`` (traced minus untraced ``time_to_solution_s``).  Spans
are written to ``.perfbench_out/`` at the end of the run, next to a record of
the run environment (nproc, versions, BLAS threads, seed, mesh sizes, tail
percentile and sample count, failures).  BLAS is pinned to one thread before
numpy loads.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

from reference import SpeedReference  # noqa: E402

BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
SETUP_REPEATS = 3
IMPORT_REPEATS = 5
TAIL_BEYOND = 10
MIN_OPS = TAIL_BEYOND + 1
TRACE_OPS = 8
ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("recon", "ntd-campaign", "forward-fine")


def tail_latency(latencies: list[float]) -> tuple[float, float]:
    """(latency, percentile) of the highest percentile with TAIL_BEYOND samples beyond it."""
    xs = sorted(latencies)
    k = len(xs) - TAIL_BEYOND - 1
    if k < 0:
        raise ValueError(f"{len(xs)} latencies, need at least {TAIL_BEYOND + 1}")
    return xs[k], 100.0 * (k + 1) / len(xs)


def fresh_import_s() -> float:
    """Import time of the benchmark's modules in a fresh interpreter, as in main."""
    code = (
        "import sys, time; t0 = time.perf_counter(); "
        f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(Path(__file__).parent)!r}]; "
        "import workloads; print(time.perf_counter() - t0)"
    )
    out = subprocess.run([sys.executable, "-B", "-c", code], capture_output=True, text=True, check=True, timeout=60)
    return float(out.stdout)


@dataclass
class Pass:
    """One campaign's op latencies (wall clock and scaled) and failures."""

    raw: list[float] = field(default_factory=list)
    scaled: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)


def run_campaign(ops: list, ref: SpeedReference, tracer=None) -> Pass:
    """Run ops in order; every op is timed, then gated outside the timed call.

    An op that raises or fails its gate is a failure; its latency still counts.
    """
    done = Pass()
    for op in ops:
        op.prepare()  # a harness fault here ends the run; it is not an op failure
        ref.time()
        try:
            if tracer is not None:
                tracer.begin_op()
            t0 = time.perf_counter()
            try:
                result = op.run()
            finally:
                elapsed = time.perf_counter() - t0
                if tracer is not None:
                    tracer.end_op()
                done.raw.append(elapsed)
                done.scaled.append(ref.scaled(elapsed))
            op.check(result)
        except Exception as exc:  # an op that raises or fails its gate counts as failed
            done.failures.append(f"{op.label}: {type(exc).__name__}: {exc}")
        finally:
            op.close()
    return done


def environment(workload, seed: int, seconds: float, trace: int, ctx: dict) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "meshes": ctx["meshes"],
    }


def measure(workload, seed: int, seconds: float, trace: int, out_dir: Path, import_s: float) -> tuple[dict, dict]:
    """Run one workload; returns (result line, env record)."""
    import numpy as np

    import tracing

    out_dir.mkdir(exist_ok=True)
    with SpeedReference() as ref, tempfile.TemporaryDirectory(prefix="run-", dir=out_dir) as scratch:
        scratch = Path(scratch)
        setup_raw, setup_times = [], []
        for _ in range(SETUP_REPEATS):
            ref.time()
            t0 = time.perf_counter()
            ctx = workload.setup()
            setup_raw.append(time.perf_counter() - t0)
            setup_times.append(ref.scaled(setup_raw[-1]))
        import_raw, import_times = [], []
        for _ in range(IMPORT_REPEATS):
            ref.time()
            import_raw.append(fresh_import_s())
            import_times.append(ref.scaled(import_raw[-1]))
        setup_s = statistics.median(import_times) + statistics.median(setup_times)

        rng = np.random.default_rng(seed)
        campaigns = (workload.campaign(rng, ctx, scratch, first=c == 0) for c in itertools.count())
        env = environment(workload, seed, seconds, trace, ctx)
        env.update(
            import_s=import_s,
            fresh_imports_s=import_times,
            fresh_imports_raw_s=import_raw,
            setup_passes_s=setup_times,
            setup_passes_raw_s=setup_raw,
        )

        if trace:
            # a fixed op list, so that the work counts repeat exactly for a seed
            fixed = []
            while sum(map(len, fixed)) < TRACE_OPS:
                fixed.append(next(campaigns))
            passes = [run_campaign(ops, ref) for ops in fixed]
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = [run_campaign(ops, ref, tracer) for ops in fixed]
            finally:
                tracer.uninstall()
            metrics, absent = tracing.layer_metrics(tracer)
            metrics["trace.overhead_s"] = {
                "value": statistics.median(sum(p.scaled) for p in traced)
                - statistics.median(sum(p.scaled) for p in passes),
                "unit": "s",
            }
            spans_path = out_dir / f"spans-{workload.name}-seed{seed}.json"
            spans_path.write_text(json.dumps(tracer.dump()))
            env.update(absent=absent, spans_file=spans_path.name)
            passes += traced
        else:
            # whole campaigns until the time is up and the tail percentile is defined
            passes = []
            start = time.perf_counter()
            while time.perf_counter() - start < seconds or sum(len(p.raw) for p in passes) < MIN_OPS:
                passes.append(run_campaign(next(campaigns), ref))
            latencies = [x for p in passes for x in p.scaled]
            raw = [x for p in passes for x in p.raw]
            failed = sum(len(p.failures) for p in passes)
            tail, percentile = tail_latency(latencies)
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "time_to_solution_s": {"value": statistics.median(sum(p.scaled) for p in passes), "unit": "s"},
                "op_s_p50": {"value": statistics.median(latencies), "unit": "s"},
                "op_s_tail": {"value": tail, "unit": "s"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
                "ok_frac": {"value": (len(latencies) - failed) / len(latencies), "unit": "fraction"},
            }
            env.update(
                op_s_tail_percentile=percentile,
                op_s_tail_samples=len(latencies),
                raw_time_to_solution_s=statistics.median(sum(p.raw) for p in passes),
                raw_op_s_p50=statistics.median(raw),
                op_latencies_s=latencies,
                op_latencies_raw_s=raw,
            )
        env.update(reference_s=ref.times)
    attempted = sum(len(p.raw) for p in passes)
    failures = [f for p in passes for f in p.failures]
    env.update(campaign_len=len(passes[0].raw), failed_frac=len(failures) / attempted, failures=failures)
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    return result, env


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "elastinv" / "__init__.py").is_file():
        print(f"elastinv sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for key in BLAS_ENV:
        os.environ[key] = BLAS_THREADS
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # imports numpy, scipy and elastinv

    import_s = time.perf_counter() - PROCESS_START
    result, env = measure(workloads.WORKLOADS[args.workload], args.seed, args.seconds, args.trace, OUT_DIR, import_s)
    record = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"env": env, "result": result}, indent=1))
    print("env " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
