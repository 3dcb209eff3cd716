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
from elastinv.fem import ElasticitySolver, LameField, SpdBlock
from elastinv.experiments import ExperimentConfig, build_mesh

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


def test_factorizations_match_evaluations(tracing):
    """Each Kohn-Vogelius evaluation factors two blocks, and each row's data
    synthesis one: a speedup counts only when these counts agree with it."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_op()
        bundle = experiments.run_experiment(ExperimentConfig(kind="example2", target_h=0.3, max_iterations=3))
        tracer.end_op()
    finally:
        tracer.uninstall()
    metrics, _ = tracing.layer_metrics(tracer)
    rows = bundle.report["table"]
    assert len(rows) == 2
    evaluations = metrics["inversion.evaluations"]["value"]
    assert evaluations > 0
    assert metrics["fem.factorizations"]["value"] == 2 * evaluations + len(rows)


def test_noisy_row_stops_before_the_cap(tracing):
    """The noise-floor evaluation is counted: each of its factorizations shows."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_op()
        bundle = experiments.run_experiment(ExperimentConfig(kind="example2", target_h=0.3, max_iterations=40))
        tracer.end_op()
    finally:
        tracer.uninstall()
    metrics, _ = tracing.layer_metrics(tracer)
    clean, noisy = bundle.report["table"]
    assert metrics["inversion.iterations"]["value"] == clean["iterations"] + noisy["iterations"]
    assert clean["iterations"] == 40 and noisy["iterations"] < 40
    assert noisy["reason"] == "noise floor reached"
    evaluations = metrics["inversion.evaluations"]["value"]
    assert metrics["fem.factorizations"]["value"] == 2 * evaluations + 2


def test_ntd_hat_load_solves_are_counted(tracing):
    # the NtD matrix is read off a factor, at h=0.3 as at h=0.16: no hat load is solved
    for target_h, n_loads in ((0.3, 18), (0.16, 36)):
        config = ExperimentConfig(kind="stability", target_h=target_h, n_pairs=1)
        m = len(build_mesh(config, config.target_h).neumann_nodes)
        assert 2 * m == n_loads
        tracer = tracing.Tracer()
        tracer.install()
        try:
            tracer.begin_op()
            experiments.run_experiment(config)
            tracer.end_op()
        finally:
            tracer.uninstall()
        metrics, _ = tracing.layer_metrics(tracer)
        # one NtD per field of the pair, each from the trailing block of its trace-last factor
        assert metrics["ntd.build_ntd_calls"]["value"] == 2
        assert metrics["fem.solve_neumann_calls"]["value"] == 0


def test_factor_fill_is_counted_per_field(tracing):
    """Both fields of a pair factor the trace-last block in the mesh's one
    order, so the traced fill is twice that of one field's factor."""
    config = ExperimentConfig(kind="stability", target_h=0.3, n_pairs=1)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_op()
        experiments.run_experiment(config)
        tracer.end_op()
    finally:
        tracer.uninstall()
    metrics, _ = tracing.layer_metrics(tracer)
    # the order, and so the fill, depends on the mesh only
    mesh = build_mesh(config, config.target_h)
    solver = ElasticitySolver(mesh, LameField.constant(1.0, 1.0, mesh.n_elements))
    lu = SpdBlock(solver.disc.trace_last_pattern.gather(solver.free.K.data)).factor
    assert metrics["fem.factorizations"]["value"] == 2
    assert metrics["fem.factor_nnz"]["value"] == 2 * (lu.L.nnz + lu.U.nnz)


@pytest.mark.parametrize("kind, sandwich_solves", [("stability", 0), ("monotonicity", 2)])
def test_each_pair_check_builds_its_ntd_matrices_through_the_module(tracing, kind, sandwich_solves):
    """Both NtD pair checks build the two matrices of each pair with ntd.build_ntd,
    where the tracer patches it, and solve no hat load."""
    config = ExperimentConfig(kind=kind, target_h=0.3, n_pairs=2)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_op()
        experiments.run_experiment(config)
        tracer.end_op()
    finally:
        tracer.uninstall()
    metrics, _ = tracing.layer_metrics(tracer)
    assert metrics["ntd.build_ntd_calls"]["value"] == 2 * config.n_pairs
    # per pair: the sandwich's one block of loads per field, and none from build_ntd
    assert metrics["fem.solve_neumann_calls"]["value"] == config.n_pairs * sandwich_solves
