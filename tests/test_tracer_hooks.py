"""The benchmark tracer still sees the package's hot path.

perfbench/tracing.py patches entry points by name.  A rename in the package
leaves a patch target missing, or patched but no longer called, and the layer
metrics built on it read 0 without any benchmark failing.  This loads the
tracer as it is and checks both.
"""

import importlib.util
from pathlib import Path

import pytest

from elastinv import experiments
from elastinv.experiments import ExperimentConfig

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patch_target_resolves(tracing):
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == []


def test_hot_path_metrics_are_lit(tracing):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_op()
        experiments.run_experiment(ExperimentConfig(kind="example2", target_h=0.3, max_iterations=3))
        experiments.run_experiment(ExperimentConfig(kind="monotonicity", target_h=0.3, n_pairs=1))
        tracer.end_op()
    finally:
        tracer.uninstall()
    metrics, absent = tracing.layer_metrics(tracer)
    assert absent == []
    for name in (
        "inversion.evaluations",
        "fem.solve_neumann_calls",
        "fem.solve_dirichlet_calls",
        "ntd.sandwich_ms",
    ):
        assert metrics[name]["value"] > 0, name
