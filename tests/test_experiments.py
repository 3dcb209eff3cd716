import dataclasses
import errno
import gc
import importlib.util
import json
import math
import os
import sys
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from elastinv import experiments, fem, inversion, ntd
from elastinv.cli import (
    EXIT_CONFIG, EXIT_INVARIANT, EXIT_OK, EXIT_SOLVER, build_parser, config_from_args, main,
)
from elastinv.experiments import (
    DISCREPANCY_TAU,
    FIELD_CHUNK,
    PER_ELEMENT_BOUNDS,
    READS,
    TRUTH_READS,
    ConfigError,
    ExperimentConfig,
    bump_centroids,
    build_mesh,
    relative_l2_error,
    run_experiment,
    truth_field,
)
from elastinv.fem import DEFAULT_BOUNDS, ElasticitySolver, LameField, RegionParameterization, SurfaceLoad
from elastinv.inversion import (
    InversionConfig,
    MeasurementSet,
    NoiseSpec,
    bfgs_minimize,
    generate_measurements,
    kohn_vogelius,
    transfer_trace,
)
from elastinv.mesh import MIN_TARGET_H, generate_disk_mesh

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

# a valid value other than the default, for every field some kind does not read
NON_DEFAULT = {
    "truth": {"type": "radial-mu", "lam": 2.0},
    "loads": [[0.2, 0.3]],
    "noise": 0.03,
    "rho": 1e-4,
    "data_mesh": "refine",
    "max_iterations": 7,
    "gradient_tolerance": 1e-6,
    "initial": [2.0, 2.0],
    "n_pairs": 2,
}
# loads that measure zero traces: no reconstruction kind takes them
ZERO_LOADS = [[0, 0], [0.0, -0.0]]
UNREAD = [
    (kind, f.name)
    for kind, reads in READS.items()
    for f in dataclasses.fields(ExperimentConfig)
    if f.name not in reads
]


# every kind at h=0.3 with small caps, and example3 at h=0.5, whose noise-free row after three
# iterations has no top-decile element on one side of x + y = 0
STRICT_JSON_RUNS = [
    (kind, 0.3, {"n_pairs": 1} if "n_pairs" in reads else {"max_iterations": 3} if "max_iterations" in reads else {})
    for kind, reads in READS.items()
] + [("example3", 0.5, {"max_iterations": 3})]


def refuse_json_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.fixture
def unreadable_table(tmp_path, monkeypatch):
    """A regular truth table without read permission.  A superuser reads every file, so there its
    reader fails as open() fails for anyone else, with EACCES; every other file reads as before."""
    table = tmp_path / "field.txt"
    table.write_text("2.0 5.0\n" * 50)
    table.chmod(0)
    loadtxt = np.loadtxt

    def deny_read(fname, *args, **kwargs):
        if Path(fname) == table:
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(fname))
        return loadtxt(fname, *args, **kwargs)

    if os.geteuid() == 0:
        monkeypatch.setattr(np, "loadtxt", deny_read)
    return table


@pytest.fixture
def no_mesh(monkeypatch):
    """Fail the test if the run builds a mesh.  The mesh cache is emptied first: a mesh that an
    earlier test cached would skip the patched generator."""
    experiments._partitioned_mesh.cache_clear()
    monkeypatch.setattr(experiments, "generate_disk_mesh", lambda *args: pytest.fail("mesh built"))


class TestConfig:
    def test_roundtrip_identity(self):
        config = ExperimentConfig(
            kind="custom",
            target_h=0.3,
            dirichlet_arc=(0.5, 2.5),
            noise=0.03,
            seed=11,
            rho=1e-5,
        )
        assert ExperimentConfig.from_dict(config.to_dict()) == config

    def test_roundtrip_with_default_arc(self):
        config = ExperimentConfig(kind="forward", target_h=0.25)
        assert config.dirichlet_arc is None
        assert ExperimentConfig.from_dict(config.to_dict()) == config

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"kind": "forward", "mesh_quality": 3})

    @pytest.mark.parametrize(
        "bad",
        [
            {"kind": "example99"},
            {"target_h": 0.0},
            {"target_h": 1.5},
            {"data_mesh": "coarsen"},
            {"schema_version": 99},
            {"noise": 1.0},
            {"noise": -0.01},
            {"rho": -1e-4},
            {"n_pairs": 0},
            {"n_pairs": -3},
            {"max_iterations": -1},
            {"gradient_tolerance": 0.0},
            {"initial": (-1.0, 0.0)},
            {"initial": (1.0, math.nan)},
            {"initial": (1.0,)},
            {"loads": []},
            {"loads": [(0.1, math.inf)]},
            {"loads": [(0.1, 0.2, 0.3)]},
            {"truth": {"type": "constant"}},
            {"truth": {"type": "constant", "lam": 3.0, "mu": -7.0}},
            {"truth": {"type": "constant", "lam": 3.0, "mu": 2e6}},
            {"truth": {"type": "constant", "lam": math.nan, "mu": 7.0}},
            {"truth": {"type": "constant", "lam": "three", "mu": 7.0}},
            {"truth": {"type": "radial-mu", "lam": 0.0}},
            {"truth": {"type": "radial-mu", "lam": [1.0, 2.0]}},
            {"truth": {"type": "file"}},
            {"truth": {"type": "file", "path": 3}},
            {"truth": {"type": "checkerboard"}},
            {"truth": "constant"},
            # fields that only the custom runner reads
            {"noise": 0.03},
            {"rho": 1e-5},
            {"kind": "stability", "noise": 0.5, "rho": 3.0},
            {"kind": "example2", "rho": 1e-4},
            {"dirichlet_arc": [1.0, 2.0, 3.0]},
            {"dirichlet_arc": "ab"},
            {"dirichlet_arc": [0.0, "nan"]},
            {"seed": "x"},
            {"seed": 1.5},
            {"seed": -1},
            {"kind": "stability", "seed": "x"},
            {"kind": "example2", "seed": 1.5},
            # JSON booleans are no counts
            {"kind": "stability", "n_pairs": True, "seed": False},
            {"kind": "stability", "n_pairs": True},
            {"seed": False},
            {"kind": "example2", "max_iterations": True},
            # nor are they numbers
            {"kind": "custom", "rho": True},
            {"kind": "custom", "noise": False},
            {"kind": "custom", "gradient_tolerance": True},
            {"kind": "example2", "gradient_tolerance": True},
            {"kind": "custom", "rho": np.True_},
            {"kind": "custom", "noise": "0.03"},
            {"kind": "custom", "rho": [1e-4]},
            {"kind": "custom", "gradient_tolerance": None},
            {"kind": "custom", "gradient_tolerance": math.inf},
            # a key no truth type reads, which would leave lam at its default
            {"kind": "forward", "truth": {"type": "radial-mu", "lamda": 3.0}},
            # no number, and no kind name
            {"target_h": "0.1"},
            {"target_h": None},
            {"target_h": [0.5, 0.5]},
            {"kind": ["x"]},
            # meshes of ~pi/h^2 nodes, the refined data mesh's too
            {"target_h": 1e-9},
            {"target_h": math.nextafter(MIN_TARGET_H, 0.0)},
            {"kind": "example2", "target_h": math.nextafter(2.0 * MIN_TARGET_H, 0.0), "data_mesh": "refine"},
        ],
    )
    def test_invalid_values_rejected(self, bad):
        with pytest.raises(ConfigError):
            ExperimentConfig(**bad)

    @pytest.mark.parametrize(
        "bad, name",
        [
            ({"kind": "custom", "noise": 1.0}, "noise"),
            ({"kind": "custom", "rho": -1e-4}, "rho"),
            ({"max_iterations": -1}, "max_iterations"),
            ({"max_iterations": 2.0}, "max_iterations"),
            ({"gradient_tolerance": 0.0}, "gradient_tolerance"),
            ({"dirichlet_arc": (0.0, 7.0)}, "dirichlet_arc"),
            ({"target_h": 1.5}, "target_h"),
            ({"kind": "custom", "initial": (0.0, 1.0)}, "initial"),
            ({"loads": [[0.1]]}, "loads"),
            ({"seed": -1}, "seed"),
            ({"kind": "stability", "n_pairs": 0}, "n_pairs"),
            # a ragged list, whose inner lists numpy holds as entries, reads as the wrong shape
            ({"loads": [[0.1, 0.2], [0.3]]}, "loads must be a non-empty list of pairs"),
            ({"dirichlet_arc": [1.0, [2.0]]}, "dirichlet_arc must be a pair of numbers"),
            ({"target_h": 1e-9}, "target_h"),
            ({"kind": "example2", "target_h": 0.019, "data_mesh": "refine"}, "target_h"),
        ],
    )
    def test_range_errors_name_the_config_field(self, bad, name):
        # the ranges are the library's checks, re-raised in the config's terms
        with pytest.raises(ConfigError, match=rf"^{name}\b"):
            ExperimentConfig(**bad)

    @pytest.mark.parametrize(
        "bad, name",
        [
            ({"loads": [[0.1, 10**400]]}, "loads"),
            ({"kind": "custom", "initial": (1.0, -(10**400))}, "initial"),
            ({"dirichlet_arc": (0.0, 10**400)}, "dirichlet_arc"),
            ({"kind": "custom", "noise": 10**400}, "noise"),
            ({"kind": "forward", "truth": {"type": "constant", "lam": 10**400, "mu": 7.0}}, "truth lam"),
        ],
    )
    def test_integer_past_the_float_range_is_not_finite(self, bad, name):
        # float() of such an integer raises OverflowError, which no caller takes for a config error
        with pytest.raises(ConfigError, match=rf"^{name} must be finite"):
            ExperimentConfig(**bad)

    @pytest.mark.parametrize("depth", [33, 40])
    @pytest.mark.parametrize(
        "name, value",
        [("loads", [0.1, 0.2]), ("initial", [1.0, 1.0]), ("target_h", 0.3), ("truth lam", 3.0)],
        ids=["loads", "initial", "target_h", "truth-lam"],
    )
    def test_value_nested_past_its_shape_names_the_field(self, name, value, depth):
        """numpy iterates no array of more than 32 dimensions: such a value is refused by its nesting."""
        deep = value
        for _ in range(depth - np.ndim(value)):
            deep = [deep]
        fields = {"truth": {"type": "constant", "lam": deep, "mu": 7.0}} if name == "truth lam" else {name: deep}
        with pytest.raises(ConfigError, match=f"^{name} must be"):
            ExperimentConfig(kind="custom", **fields)

    def test_unknown_keys_of_mixed_types_are_named(self):
        with pytest.raises(ConfigError, match=r"unknown config keys: \['1', 'x'\]"):
            ExperimentConfig.from_dict({1: 2, "x": 3})

    @pytest.mark.parametrize(
        "field",
        [
            {"dirichlet_arc": ["3.0", "6.0"]},
            {"dirichlet_arc": [True, 4.0]},
            {"initial": ["1", "1"]},
            {"initial": [True, True]},
            {"initial": [True, 1]},
            {"loads": [["0.1", "0.2"]]},
            {"loads": [[0.1, False]]},
            {"kind": "forward", "truth": {"type": "constant", "lam": "3", "mu": 7.0}},
            {"kind": "forward", "truth": {"type": "constant", "lam": 3.0, "mu": True}},
            {"kind": "forward", "truth": {"type": "radial-mu", "lam": "2.0"}},
        ],
    )
    def test_numeric_strings_and_booleans_rejected(self, field):
        # numpy would parse "3.0" and take true as 1; the config would keep either
        with pytest.raises(ConfigError, match="numeric"):
            ExperimentConfig.from_dict({"kind": "custom", **field})

    @pytest.mark.parametrize("kind", READS)
    def test_default_config_roundtrips(self, kind):
        config = ExperimentConfig(kind=kind)
        assert ExperimentConfig.from_dict(json.loads(json.dumps(config.to_dict()))) == config

    @pytest.mark.parametrize("name", NON_DEFAULT)
    def test_non_default_value_valid_where_read(self, name):
        readers = [kind for kind, reads in READS.items() if name in reads]
        assert readers
        for kind in readers:
            ExperimentConfig.from_dict({"kind": kind, name: NON_DEFAULT[name]})

    def test_benchmark_inputs_validate(self, tmp_path, monkeypatch):
        spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
        workloads = importlib.util.module_from_spec(spec)
        # its dataclasses look their module up while it executes
        monkeypatch.setitem(sys.modules, spec.name, workloads)
        spec.loader.exec_module(workloads)
        rng = np.random.default_rng(0)
        # example2/3 with a seed and a max_iterations cap
        recon = workloads.Recon().campaign(rng, {}, tmp_path, True)
        assert {op.config.kind for op in recon} == {"example2", "example3"}
        assert all(op.config.max_iterations == workloads.RECON_MAX_ITERATIONS for op in recon)
        # forward with a truth, loads and a seed, as a config file holds them
        forward = workloads.ForwardFine().campaign(rng, {"meshes": [{}]}, tmp_path, True)
        for op in forward:
            assert {"truth", "loads", "seed"} <= set(op.config)
            assert ExperimentConfig.from_dict(op.config).seed == op.config["seed"]
        # the set-up samples every truth type, radial-mu included, with both moduli given
        mesh = generate_disk_mesh(0.3)
        for kind in workloads.TRUTH_TYPES:
            truth_field({"type": kind, "lam": 3.0, "mu": 7.0}, mesh)

    def test_initial_resolves_per_kind(self):
        assert ExperimentConfig(kind="example1").initial == (1.0, 1.0)
        for kind in ("example2", "example3"):
            config = ExperimentConfig(kind=kind, max_iterations=40, seed=5)
            assert config.initial == (0.3, 0.5)
            assert dataclasses.replace(config, seed=6).initial == (0.3, 0.5)
            assert ExperimentConfig.from_dict(config.to_dict()) == config
            with pytest.raises(ConfigError, match="initial"):
                ExperimentConfig(kind=kind, initial=(2.0, 2.0))

    def test_reads_is_the_readme_table(self):
        """The derived read fields of the reconstruction kinds, and the
        hand-kept ones of the others, equal the table written out in the README."""
        common = {"kind", "schema_version", "target_h", "dirichlet_arc", "seed"}
        fit = {"loads", "data_mesh", "max_iterations", "gradient_tolerance"}
        table = {
            "example1": fit | {"initial"},
            "example2": fit,
            "example3": fit,
            "monotonicity": {"loads", "n_pairs"},
            "stability": {"n_pairs"},
            "forward": {"truth", "loads"},
            "custom": fit | {"initial", "truth", "noise", "rho"},
        }
        assert {kind: set(reads) for kind, reads in READS.items()} == {
            kind: common | fields for kind, fields in table.items()
        }
        assert all(len(set(reads)) == len(reads) for reads in READS.values())

    def test_from_file_bad_json(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            ExperimentConfig.from_file(path)


class TestTruthFields:
    def test_constant(self):
        mesh = generate_disk_mesh(0.3)
        field = truth_field({"type": "constant", "lam": 3.0, "mu": 7.0}, mesh)
        assert np.all(field.lam == 3.0) and np.all(field.mu == 7.0)

    def test_radial_mu(self):
        mesh = generate_disk_mesh(0.3)
        field = truth_field({"type": "radial-mu", "lam": 1.0}, mesh)
        r = np.hypot(*mesh.element_centroids.T)
        assert np.all(field.lam == 1.0)
        assert np.allclose(field.mu, np.maximum(r, 1e-3))

    def test_two_bump_lambda_peaks(self):
        mesh = generate_disk_mesh(0.1)
        field = truth_field({"type": "gaussian-bumps-lambda"}, mesh)
        centroids = bump_centroids(mesh, field.lam)
        for found, target in zip(centroids, ([0.5, 0.5], [-0.5, -0.5])):
            assert math.dist(found, target) <= 0.1

    def test_bump_centroids_of_one_bump(self):
        # the top decile lies where x + y > 0 only: the other half has no centroid
        mesh = generate_disk_mesh(0.1)
        cx, cy = mesh.element_centroids.T
        upper, lower = bump_centroids(mesh, np.exp(-5.0 * ((cx - 0.5) ** 2 + (cy - 0.5) ** 2)))
        assert math.dist(upper, [0.5, 0.5]) <= 0.1
        assert lower is None

    def test_unknown_type(self):
        mesh = generate_disk_mesh(0.3)
        with pytest.raises(ConfigError):
            truth_field({"type": "checkerboard"}, mesh)

    @pytest.mark.parametrize("kind", [["constant"], {}], ids=["list", "dict"])
    def test_non_string_type_is_unknown(self, kind):
        with pytest.raises(ConfigError, match="unknown truth field type"):
            truth_field({"type": kind}, generate_disk_mesh(0.3))
        with pytest.raises(ConfigError, match="unknown truth field type"):
            ExperimentConfig(kind="forward", truth={"type": kind})

    @pytest.mark.parametrize(
        "kind, keys", [*TRUTH_READS.items(), ("radial-mu", ())], ids=[*TRUTH_READS, "radial-mu-without-lam"]
    )
    def test_each_type_samples_from_its_read_keys(self, tmp_path, kind, keys):
        """A spec of exactly the keys TRUTH_READS gives its type passes the
        config and samples a field, so a type without a sampling branch fails."""
        mesh = generate_disk_mesh(0.3)
        path = tmp_path / "truth.txt"
        np.savetxt(path, np.tile([2.0, 5.0], (mesh.n_elements, 1)))
        values = {"lam": 2.0, "mu": 5.0, "path": str(path)}
        spec = {"type": kind, **{key: values[key] for key in keys}}
        assert ExperimentConfig(kind="forward", truth=spec).truth == spec
        field = truth_field(spec, mesh)
        assert isinstance(field, LameField) and len(field.lam) == len(field.mu) == mesh.n_elements

    def test_file(self, tmp_path):
        mesh = generate_disk_mesh(0.3)
        path = tmp_path / "truth.txt"
        np.savetxt(path, np.column_stack([np.full(mesh.n_elements, 2.0), np.arange(1.0, mesh.n_elements + 1)]))
        field = truth_field({"type": "file", "path": str(path)}, mesh)
        assert np.all(field.lam == 2.0) and field.mu[-1] == mesh.n_elements

    @pytest.mark.filterwarnings("error")  # np.loadtxt warns on a file of no rows
    @pytest.mark.parametrize(
        "row, per_element",
        [("1.0 2.0\n", False), ("1.0 2.0 3.0\n", True), ("a b\n", True), ("1.0 nan\n", True), ("", False),
         ("# lam mu (one element per line)\n", False)],
        ids=["one-row", "three-columns", "text", "nan", "empty", "header-only"],
    )
    def test_bad_file_is_config_error(self, tmp_path, row, per_element):
        mesh = generate_disk_mesh(0.3)
        path = tmp_path / "truth.txt"
        path.write_text(row * (mesh.n_elements if per_element else 1))
        with pytest.raises(ConfigError):
            truth_field({"type": "file", "path": str(path)}, mesh)

    @pytest.mark.parametrize(
        "kind, reason",
        [("too-long", "File name too long"), ("directory", "not a regular file"), ("fifo", "not a regular file"),
         ("missing", "No such file or directory"), ("through-file", "Not a directory")],
        ids=["too-long", "directory", "fifo", "missing", "through-file"],
    )
    def test_path_that_names_no_regular_file_is_config_error(self, tmp_path, monkeypatch, kind, reason):
        """Each OSError of the path reads "bad truth file" and the system's reason, with the config and
        in truth_field alike, and names the path once (an OSError's own text repeats it).  A FIFO, which
        would block its reader, is refused before anything reads it."""
        monkeypatch.setattr(np, "loadtxt", lambda *args, **kwargs: pytest.fail("the table was read"))
        os.mkfifo(tmp_path / "fifo")
        (tmp_path / "file.txt").write_text("2.0 5.0\n")
        path = {"too-long": "a" * 5000, "directory": tmp_path, "fifo": tmp_path / "fifo",
                "missing": tmp_path / "missing.txt", "through-file": tmp_path / "file.txt" / "field.txt"}[kind]
        spec = {"type": "file", "path": str(path)}
        with pytest.raises(ConfigError, match=f"^bad truth file .*: {reason}$") as from_config:
            ExperimentConfig(kind="forward", truth=spec)
        with pytest.raises(ConfigError, match=f"^bad truth file .*: {reason}$") as from_mesh:
            truth_field(spec, generate_disk_mesh(0.3))
        for exc in (from_config, from_mesh):
            assert str(exc.value).count(spec["path"]) == 1

    def test_unreadable_file_is_config_error(self, unreadable_table):
        spec = {"type": "file", "path": str(unreadable_table)}
        with pytest.raises(ConfigError, match="^bad truth file .*: Permission denied$"):
            ExperimentConfig(kind="forward", truth=spec)
        with pytest.raises(ConfigError, match="^bad truth file .*: Permission denied$"):
            truth_field(spec, generate_disk_mesh(0.3))

    def test_file_truth_is_read_once_per_run(self, tmp_path, monkeypatch):
        """Once by the config check and once by the run, which samples a
        truth on one mesh only once."""
        mesh = build_mesh(ExperimentConfig(kind="custom", target_h=0.3), 0.3)
        path = tmp_path / "truth.txt"
        np.savetxt(path, np.tile([2.0, 5.0], (mesh.n_elements, 1)))
        reads = []
        read = experiments._file_truth
        monkeypatch.setattr(experiments, "_file_truth", lambda p: reads.append(p) or read(p))
        config = ExperimentConfig(kind="custom", target_h=0.3, truth={"type": "file", "path": str(path)},
                                  max_iterations=3)
        assert len(reads) == 1
        run_experiment(config)
        assert len(reads) == 2


def test_relative_l2_error_basics():
    mesh = generate_disk_mesh(0.3)
    exact = np.full(mesh.n_elements, 2.0)
    assert relative_l2_error(mesh, exact, exact) == 0.0
    assert np.isclose(relative_l2_error(mesh, 1.5 * exact, exact), 0.5)


@pytest.mark.parametrize("kind", ["monotonicity", "stability", "forward"])
def test_runner_without_data_rejects_refine(kind):
    with pytest.raises(ConfigError, match="data_mesh"):
        ExperimentConfig(kind=kind, target_h=0.3, n_pairs=1, data_mesh="refine")


def test_example3_arc_default_differs():
    cfg3 = ExperimentConfig(kind="example3", target_h=0.3)
    cfg1 = ExperimentConfig(kind="example1", target_h=0.3)
    mesh3 = build_mesh(cfg3, 0.3)
    mesh1 = build_mesh(cfg1, 0.3)
    assert not np.array_equal(mesh3.clamped, mesh1.clamped)
    # explicit arc overrides the per-kind default
    cfg_override = ExperimentConfig(kind="example3", target_h=0.3, dirichlet_arc=(math.pi, 2 * math.pi))
    mesh_override = build_mesh(cfg_override, 0.3)
    assert np.array_equal(mesh_override.clamped, mesh1.clamped)


class TestMeshCache:
    def test_equal_key_shares_the_mesh(self):
        a = build_mesh(ExperimentConfig(kind="stability", target_h=0.3), 0.3)
        assert build_mesh(ExperimentConfig(kind="monotonicity", target_h=0.3), 0.3) is a
        # the lower half arc given explicitly is the default's key
        explicit = ExperimentConfig(kind="example3", target_h=0.3, dirichlet_arc=[math.pi, 2 * math.pi])
        assert build_mesh(explicit, 0.3) is a
        assert build_mesh(ExperimentConfig(kind="example3", target_h=0.3), 0.3) is not a
        assert build_mesh(ExperimentConfig(kind="stability", target_h=0.25), 0.25) is not a

    def test_evicted_mesh_is_collected(self):
        config = ExperimentConfig(kind="stability", target_h=0.3)
        ref = weakref.ref(build_mesh(config, 0.3))
        build_mesh(config, 0.29)
        assert ref() is not None
        build_mesh(config, 0.28)
        gc.collect()
        # the cache holds the two meshes built last
        assert ref() is None
        assert build_mesh(config, 0.29) is build_mesh(config, 0.29)


class TestBundles:
    def test_forward_bundle_byte_identical(self, tmp_path):
        config = ExperimentConfig(kind="forward", target_h=0.25)
        files = {}
        for sub in ("a", "b"):
            out = run_experiment(config).write(tmp_path / sub)
            files[sub] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert files["a"].keys() == files["b"].keys()
        assert files["a"] == files["b"]

    def test_monotonicity_report_clean(self, tmp_path):
        config = ExperimentConfig(kind="monotonicity", target_h=0.25, n_pairs=3, seed=5)
        bundle = run_experiment(config)
        assert bundle.report["violations"] == []
        assert len(bundle.report["records"]) == 3
        out = bundle.write(tmp_path / "mono")
        report = json.loads((out / "results.json").read_text())
        assert report["kind"] == "monotonicity"

    def test_stability_report(self):
        config = ExperimentConfig(kind="stability", target_h=0.25, n_pairs=4, seed=5)
        bundle = run_experiment(config)
        assert len(bundle.report["ratios"]) == 4
        assert all(r > 0 and np.isfinite(r) for r in bundle.report["ratios"])

    @pytest.mark.parametrize("kind, target_h, caps", STRICT_JSON_RUNS, ids=[f"{k}-h{h}" for k, h, _ in STRICT_JSON_RUNS])
    def test_bundle_json_is_strict(self, tmp_path, kind, target_h, caps):
        """results.json and config.json hold no NaN or Infinity, which JSON has not."""
        bundle = run_experiment(ExperimentConfig(kind=kind, target_h=target_h, **caps))
        if target_h == 0.5:  # the case that wrote [NaN, NaN]: a noise-free row with one bump lost
            assert None in bundle.report["table"][0]["bump_centroids"]
        out = bundle.write(tmp_path / kind)
        for name in ("results.json", "config.json"):
            json.loads((out / name).read_text(), parse_constant=refuse_json_constant)

    @pytest.mark.parametrize(
        "spelled, floats",
        [
            ({"kind": "custom", "noise": 0, "rho": 0, "initial": [1, 2], "gradient_tolerance": 1, "max_iterations": 2},
             {"kind": "custom", "noise": 0.0, "rho": 0.0, "initial": [1.0, 2.0], "gradient_tolerance": 1.0,
              "max_iterations": 2}),
            ({"kind": "forward", "loads": [[1, 0], [0, -1]], "dirichlet_arc": [3, 6],
              "truth": {"type": "constant", "lam": 3, "mu": 7}},
             {"kind": "forward", "loads": [[1.0, 0.0], [0.0, -1.0]], "dirichlet_arc": [3.0, 6.0],
              "truth": {"type": "constant", "lam": 3.0, "mu": 7.0}}),
            ({"kind": "custom", "noise": -0.0, "rho": -0.0, "max_iterations": 2},
             {"kind": "custom", "noise": 0.0, "rho": 0.0, "max_iterations": 2}),
            ({"kind": "forward", "loads": [[-0.0, 1.0]]}, {"kind": "forward", "loads": [[0.0, 1.0]]}),
        ],
        ids=["custom", "forward", "custom-negative-zero", "forward-negative-zero"],
    )
    def test_int_and_float_spellings_write_one_bundle(self, tmp_path, spelled, floats):
        # spelled holds integers or negative zeros, floats the same numbers as positive floats
        files = {}
        for name, config in (("spelled", spelled), ("floats", floats)):
            out = run_experiment(ExperimentConfig.from_dict({**config, "target_h": 0.3})).write(tmp_path / name)
            files[name] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert files["spelled"] == files["floats"]

    def test_custom_bundle(self, tmp_path):
        config = ExperimentConfig(
            kind="custom", target_h=0.25, noise=0.03, rho=1e-4, seed=4, max_iterations=8
        )
        bundle = run_experiment(config)
        (row,) = bundle.report["table"]
        assert (row["epsilon"], row["rho"]) == (0.03, 1e-4)
        # no truth-free noise floor exists, so a noisy custom run has no such stop
        assert row["noise_floor_j"] is None

        files = {}
        for sub in ("a", "b"):
            out = run_experiment(config).write(tmp_path / sub)
            files[sub] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert files["a"] == files["b"]
        assert "convergence_eps0.03_rho0.0001.csv" in files["a"]


def reference_field_table(field: LameField) -> bytes:
    """A field table as one repr per element, joined in one string: the
    formatter the writer had before it formatted each distinct value once."""
    lines = ["# lam mu (one element per line)"]
    lines += [f"{float(l)!r} {float(m)!r}" for l, m in zip(field.lam, field.mu)]
    return ("\n".join(lines) + "\n").encode()


class TestFieldTables:
    @pytest.fixture(scope="class")
    def mesh(self):
        # more elements than FIELD_CHUNK, so a table takes more than one write
        mesh = generate_disk_mesh(0.03)
        assert mesh.n_elements > FIELD_CHUNK
        return mesh

    @pytest.mark.parametrize(
        "spec",
        [{"type": "constant", "lam": 3.0, "mu": 7.0}, {"type": "radial-mu", "lam": 1.0}, {"type": "gaussian-bumps-lambda"}],
        ids=lambda spec: spec["type"],
    )
    def test_truth_table_matches_reference(self, tmp_path, mesh, spec):
        field = truth_field(spec, mesh)
        experiments._write_field(tmp_path / "field.txt", field)
        assert (tmp_path / "field.txt").read_bytes() == reference_field_table(field)

    def test_all_distinct_table_matches_reference(self, tmp_path):
        rng = np.random.default_rng(3)
        n = 2 * FIELD_CHUNK + 1
        field = LameField(rng.uniform(1.0, 4.0, n), rng.uniform(2.0, 8.0, n))
        assert len(np.unique(field.lam)) == len(np.unique(field.mu)) == n
        experiments._write_field(tmp_path / "field.txt", field)
        assert (tmp_path / "field.txt").read_bytes() == reference_field_table(field)

    def test_repeated_long_reprs_match_reference(self, tmp_path):
        """Repeated values whose reprs carry an exponent or many digits."""
        values = np.array([1e-06, 2.5e-05, 123456.789, 0.1 + 0.2, 1e16])
        rng = np.random.default_rng(4)
        n = FIELD_CHUNK + 7
        # 1e16 lies past DEFAULT_BOUNDS, so a stand-in carries the two arrays _write_field reads
        field = SimpleNamespace(lam=rng.choice(values, n), mu=rng.choice(values[::-1], n))
        experiments._write_field(tmp_path / "field.txt", field)
        assert (tmp_path / "field.txt").read_bytes() == reference_field_table(field)

    def test_bundle_table_reads_back_as_file_truth(self, tmp_path):
        config = ExperimentConfig(kind="forward", target_h=0.25, truth={"type": "gaussian-bumps-lambda"})
        bundle = run_experiment(config)
        out = bundle.write(tmp_path / "fw")
        read = truth_field({"type": "file", "path": str(out / "field_truth.txt")}, build_mesh(config, 0.25))
        truth = bundle.fields["truth"]
        assert read.lam.tobytes() == truth.lam.tobytes() and read.mu.tobytes() == truth.mu.tobytes()


# what the README documents for each reconstruction kind: the truth (None for
# the config's), one region or one per element, the (noise, rho) rows (None for
# the config's) and whether noisy rows stop at the noise floor
DOCUMENTED = {
    "example1": ({"type": "constant", "lam": 3.0, "mu": 7.0}, False, [(0.0, 0.0), (0.03, 1e-5), (0.05, 1e-5)], False),
    "example2": ({"type": "radial-mu", "lam": 1.0}, True, [(0.0, 0.0), (0.03, 1e-4)], True),
    "example3": ({"type": "gaussian-bumps-lambda"}, True, [(0.0, 0.0), (0.03, 1e-4)], True),
    "custom": (None, True, None, False),
}


def library_rows(config: ExperimentConfig) -> list[dict]:
    """The rows of a reconstruction kind, made from library calls alone."""
    spec, per_element, settings, stops = DOCUMENTED[config.kind]
    spec = spec or config.truth
    mesh = build_mesh(config, config.target_h)
    data_mesh = build_mesh(config, config.target_h / 2.0) if config.data_mesh == "refine" else mesh
    truth_data, truth = truth_field(spec, data_mesh), truth_field(spec, mesh)
    if per_element:
        param = RegionParameterization(np.arange(mesh.n_elements), PER_ELEMENT_BOUNDS)
    else:
        param = RegionParameterization(np.zeros(mesh.n_elements, dtype=int), DEFAULT_BOUNDS)
    rows = []
    for i, (eps, rho) in enumerate(settings or [(config.noise, config.rho)]):
        loads = [SurfaceLoad(constant=g) for g in config.loads]
        measured = generate_measurements(data_mesh, truth_data, loads, NoiseSpec(eps, config.seed + i))
        measurements = measured
        if data_mesh is not mesh:
            measurements = MeasurementSet([(g, transfer_trace(data_mesh, f, mesh)) for g, f in measured.pairs])
        floor = kohn_vogelius(truth_data, data_mesh, measured, rho)[0] if stops and eps > 0 else None
        opt = InversionConfig(rho, config.max_iterations, config.gradient_tolerance,
                              None if floor is None else DISCREPANCY_TAU * floor)
        run = bfgs_minimize(opt, mesh, measurements, param, np.repeat(config.initial, param.n_regions))
        rec = run.final_field
        row = {"epsilon": eps, "rho": rho, "iterations": run.iterations, "converged": run.converged,
               "reason": run.reason}
        if per_element:
            row.update(
                initial_j=run.j_history[0],
                final_j=run.j_history[-1],
                noise_floor_j=floor,
                rel_l2_error_lam=relative_l2_error(mesh, rec.lam, truth.lam),
                rel_l2_error_mu=relative_l2_error(mesh, rec.mu, truth.mu),
            )
        else:
            row.update(
                initial=list(config.initial),
                computed=[rec.lam[0], rec.mu[0]],
                exact=[3.0, 7.0],
                rel_error_lam=abs(rec.lam[0] - 3.0) / 3.0,
                rel_error_mu=abs(rec.mu[0] - 7.0) / 7.0,
            )
        if config.kind == "example3":
            row["bump_centroids"] = bump_centroids(mesh, rec.lam)
        rows.append(row)
    return rows


class TestReconstructionRows:
    """Each reconstruction kind's rows equal those rebuilt from library calls."""

    @pytest.mark.parametrize(
        "config",
        [
            ExperimentConfig(kind="example1", target_h=0.3, seed=2, max_iterations=6),
            ExperimentConfig(kind="example2", target_h=0.3, seed=2, max_iterations=6),
            ExperimentConfig(kind="example3", target_h=0.3, seed=2, max_iterations=6),
            ExperimentConfig(
                kind="custom", target_h=0.3, noise=0.03, rho=1e-4, seed=4, max_iterations=6,
                truth={"type": "radial-mu", "lam": 2.0}, initial=(0.5, 0.5),
            ),
        ],
        ids=lambda c: c.kind,
    )
    def test_rows_equal_library_calls(self, config):
        bundle = run_experiment(config)
        assert bundle.report["table"] == library_rows(config)
        assert ("truth_bump_centroids" in bundle.report) == (config.kind == "example3")

    def test_refined_data_floor_is_the_truths_j_on_the_data_mesh(self):
        config = ExperimentConfig(kind="example2", target_h=0.3, data_mesh="refine", max_iterations=20)
        rows = run_experiment(config).report["table"]
        assert rows == library_rows(config)
        # the floor leaves out the gap between the meshes that the moved data hold
        spec = {"type": "radial-mu", "lam": 1.0}
        mesh, data_mesh = build_mesh(config, 0.3), build_mesh(config, 0.15)
        truth_data = truth_field(spec, data_mesh)
        loads = [SurfaceLoad(constant=g) for g in config.loads]
        measured = generate_measurements(data_mesh, truth_data, loads, NoiseSpec(0.03, config.seed + 1))
        moved = MeasurementSet([(g, transfer_trace(data_mesh, f, mesh)) for g, f in measured.pairs])
        assert rows[1]["noise_floor_j"] == kohn_vogelius(truth_data, data_mesh, measured, 1e-4)[0]
        assert rows[1]["noise_floor_j"] < kohn_vogelius(truth_field(spec, mesh), mesh, moved, 1e-4)[0]
        assert rows[1]["reason"] == "noise floor reached"


class TestNoiseFloor:
    """The noisy example2/3 rows stop at DISCREPANCY_TAU times the truth's J on their data."""

    @pytest.mark.parametrize("kind, stop", [("example2", 9), ("example3", 5)])
    def test_noisy_row_stops_at_the_noise_floor(self, kind, stop):
        config = ExperimentConfig(kind=kind, target_h=0.3)
        bundle = run_experiment(config)
        clean, noisy = bundle.report["table"]
        eps, rho = 0.03, 1e-4
        # the truth against the row's noisy data and rho, all on the one mesh
        mesh = build_mesh(config, 0.3)
        truth = bundle.fields["truth"]
        loads = [SurfaceLoad(constant=g) for g in config.loads]
        measurements = generate_measurements(mesh, truth, loads, NoiseSpec(eps, config.seed + 1))
        floor = kohn_vogelius(truth, mesh, measurements, rho)[0]
        assert noisy["noise_floor_j"] == floor
        assert (noisy["iterations"], noisy["reason"], noisy["converged"]) == (stop, "noise floor reached", False)
        j_history = bundle.runs[f"eps{eps}_rho{rho}"].j_history
        assert [j <= DISCREPANCY_TAU * floor for j in j_history] == [False] * stop + [True]
        assert noisy["final_j"] == j_history[-1]
        assert clean["noise_floor_j"] is None
        assert (clean["iterations"], clean["reason"]) == (400, "max iterations reached")

    def test_example1_rows_carry_no_floor(self):
        rows = run_experiment(ExperimentConfig(kind="example1", target_h=0.3)).report["table"]
        assert not any("noise_floor_j" in row for row in rows)
        assert [row["reason"] for row in rows] == ["gradient tolerance reached"] * 3


class TestCli:
    def test_forward_ok(self, tmp_path, capsys):
        out = tmp_path / "fw"
        code = main(["forward", "--mesh-h", "0.25", "--out", str(out)])
        assert code == EXIT_OK
        assert (out / "results.json").exists()
        assert (out / "config.json").exists()

    @pytest.mark.parametrize("truth", ["constant", "radial-mu", "gaussian-bumps-lambda"])
    def test_fine_forward_on_example3_arc(self, tmp_path, capsys, truth):
        # backward-stable solves whose relative residuals reach 1.2-1.8e-12
        cfg = tmp_path / "config.json"
        spec = {"type": truth, **({"lam": 3.0, "mu": 7.0} if truth == "constant" else {})}
        cfg.write_text(json.dumps({"dirichlet_arc": [math.pi / 2.0, math.pi], "truth": spec}))
        out = tmp_path / "fw"
        code = main(["forward", "--config", str(cfg), "--mesh-h", "0.02", "--out", str(out)])
        assert code == EXIT_OK
        assert json.loads((out / "results.json").read_text())["n_nodes"] > 8000

    def test_bad_mesh_h_is_config_error(self, tmp_path, capsys):
        code = main(["forward", "--mesh-h", "5.0", "--out", str(tmp_path / "x")])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize(
        "argv",
        [
            ["forward", "--mesh-h", "1e-9"],
            ["forward", "--mesh-h", repr(math.nextafter(MIN_TARGET_H, 0.0))],
            ["example2", "--mesh-h", "0.019", "--data-mesh", "refine"],
            ["example2", "--mesh-h", repr(math.nextafter(2.0 * MIN_TARGET_H, 0.0)), "--data-mesh", "refine"],
        ],
        ids=["tiny", "under-floor", "refine-0.019", "refine-under-floor"],
    )
    def test_mesh_h_below_floor_is_config_error(self, argv, tmp_path, capsys, no_mesh):
        """Refused before any mesh is built: such a mesh holds ~pi/h^2 nodes."""
        code = main([*argv, "--out", str(tmp_path / "x")])
        assert code == EXIT_CONFIG
        assert not (tmp_path / "x").exists()
        assert "target_h" in capsys.readouterr().err

    def test_refined_data_mesh_at_floor_is_admitted(self):
        config = ExperimentConfig(kind="example2", target_h=2.0 * MIN_TARGET_H, data_mesh="refine")
        assert config.target_h / 2.0 == MIN_TARGET_H

    def test_bad_config_file_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "config.json"
        bad.write_text(json.dumps({"target_h": 0.25, "mystery_knob": 1}))
        code = main(["forward", "--config", str(bad), "--out", str(tmp_path / "y")])
        assert code == EXIT_CONFIG

    def test_boolean_count_in_config_file_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text('{"kind": "stability", "target_h": 0.3, "n_pairs": true}')
        code = main(["stability", "--config", str(cfg), "--out", str(tmp_path / "y")])
        assert code == EXIT_CONFIG
        assert not (tmp_path / "y").exists()
        assert "n_pairs" in capsys.readouterr().err

    def test_boolean_rho_in_config_file_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text('{"kind": "custom", "target_h": 0.3, "rho": true}')
        code = main(["custom", "--config", str(cfg), "--out", str(tmp_path / "y")])
        assert code == EXIT_CONFIG
        assert not (tmp_path / "y").exists()
        assert "rho must be numeric" in capsys.readouterr().err

    def test_arc_of_numeric_strings_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text('{"target_h": 0.3, "dirichlet_arc": ["3.0", "6.0"]}')
        code = main(["forward", "--config", str(cfg), "--out", str(tmp_path / "y")])
        assert code == EXIT_CONFIG
        assert not (tmp_path / "y").exists()
        assert "dirichlet_arc" in capsys.readouterr().err

    def test_config_file_not_an_object_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "config.json"
        bad.write_text(json.dumps([["target_h", 0.25]]))
        code = main(["forward", "--config", str(bad), "--out", str(tmp_path / "y")])
        assert code == EXIT_CONFIG

    def test_config_file_not_utf8_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_bytes(b"\xff\xfe" + '{"target_h": 0.3}'.encode("utf-16-le"))
        out = tmp_path / "y"
        code = main(["forward", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert not out.exists()
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.count(str(cfg)) == 1
        assert "utf-8" in err

    def test_fifo_config_is_config_error(self, tmp_path, capsys, monkeypatch):
        """A FIFO would block its reader, so it is refused as no regular file before anything reads it."""
        monkeypatch.setattr(Path, "read_text", lambda *args, **kwargs: pytest.fail("the config was read"))
        cfg = tmp_path / "config.json"
        os.mkfifo(cfg)
        out = tmp_path / "y"
        code = main(["forward", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert not out.exists()
        assert capsys.readouterr().err == f"config error: cannot read config {cfg}: not a regular file\n"

    @pytest.mark.parametrize(
        "kind, reason",
        [("missing", "No such file or directory"), ("through-file", "Not a directory"),
         ("directory", "not a regular file")],
        ids=["missing", "through-file", "directory"],
    )
    def test_config_path_that_names_no_regular_file_is_config_error(self, tmp_path, capsys, no_mesh, kind, reason):
        """The stat of the path gives the system's reason, in one line that names the path once."""
        (tmp_path / "file.json").write_text("{}")
        cfg = {"missing": tmp_path / "missing.json", "through-file": tmp_path / "file.json" / "config.json",
               "directory": tmp_path}[kind]
        out = tmp_path / "y"
        code = main(["forward", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert not out.exists()
        assert capsys.readouterr().err == f"config error: cannot read config {cfg}: {reason}\n"

    def test_config_file_nested_past_the_recursion_limit_is_config_error(self, tmp_path, capsys, no_mesh):
        """json.loads raises RecursionError on a deep enough file, which the reading guard reports."""
        cfg = tmp_path / "config.json"
        cfg.write_text("[" * 2000 + "]" * 2000)
        out = tmp_path / "y"
        code = main(["forward", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot read config {cfg}: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("kind", ["custom", "example1", "example2"])
    def test_all_zero_loads_in_a_reconstruction_are_config_error(self, tmp_path, capsys, monkeypatch, kind):
        """Zero loads measure zero traces, which every field fits: refused before any mesh is built."""
        monkeypatch.setattr(experiments, "build_mesh", lambda *args: pytest.fail("mesh built"))
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"target_h": 0.3, "loads": ZERO_LOADS}))
        out = tmp_path / "out"
        code = main([kind, "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert not out.exists()
        err = capsys.readouterr().err
        assert "loads" in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("kind", ["forward", "monotonicity"])
    def test_all_zero_loads_run_where_nothing_is_fit(self, tmp_path, capsys, kind):
        cfg = tmp_path / "config.json"
        pairs = {"n_pairs": 1} if kind == "monotonicity" else {}
        cfg.write_text(json.dumps({"target_h": 0.3, "loads": ZERO_LOADS, **pairs}))
        out = tmp_path / "out"
        assert main([kind, "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert not json.loads((out / "results.json").read_text()).get("violations")

    def test_one_nonzero_load_makes_a_reconstruction(self):
        assert ExperimentConfig(kind="custom", loads=[(0, 0), (0, -0.1)]).loads == [(0.0, 0.0), (0.0, -0.1)]

    def test_config_file_with_overrides(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"kind": "stability", "target_h": 0.3, "n_pairs": 2}))
        out = tmp_path / "st"
        code = main(["stability", "--config", str(cfg), "--seed", "9", "--out", str(out)])
        assert code == EXIT_OK
        written = json.loads((out / "config.json").read_text())
        assert written["seed"] == 9
        assert written["n_pairs"] == 2

    @pytest.mark.parametrize(
        "truth",
        [{"type": "constant"}, {"type": "file", "path": "nope.txt"}],
    )
    def test_bad_truth_is_config_error(self, tmp_path, capsys, monkeypatch, truth):
        monkeypatch.chdir(tmp_path)  # where nope.txt does not exist
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"truth": truth, "target_h": 0.3}))
        out = tmp_path / "fw"
        code = main(["forward", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["stability", "--noise", "0.5", "--rho", "3"],
            ["monotonicity", "--rho", "1e-4"],
            ["forward", "--data-mesh", "refine"],
            ["example2", "--noise", "0.03"],
        ],
    )
    def test_flag_of_another_runner_rejected(self, tmp_path, capsys, argv):
        out = tmp_path / "x"
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--mesh-h", "0.3", "--out", str(out)])
        assert exc.value.code == EXIT_CONFIG
        assert not out.exists()

    def test_ignored_config_fields_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"noise": 0.5, "rho": 3, "data_mesh": "refine", "target_h": 0.3, "n_pairs": 1}))
        out = tmp_path / "st"
        code = main(["stability", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert not out.exists()

    def test_file_without_kind_runs_as_subcommand(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"noise": 0.03, "rho": 1e-4, "data_mesh": "refine", "target_h": 0.3}))
        config = config_from_args(build_parser().parse_args(["custom", "--config", str(cfg)]))
        assert (config.kind, config.noise, config.rho, config.data_mesh) == ("custom", 0.03, 1e-4, "refine")

    def test_custom_flags_override_config(self):
        argv = ["custom", "--noise", "0.03", "--rho", "1e-4", "--data-mesh", "refine", "--mesh-h", "0.3"]
        config = config_from_args(build_parser().parse_args(argv))
        assert (config.noise, config.rho, config.data_mesh, config.target_h) == (0.03, 1e-4, "refine", 0.3)

    @pytest.mark.parametrize("kind", ["example2", "example3"])
    def test_example_initial_guess_other_than_fixed_rejected(self, tmp_path, capsys, kind):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"initial": [2, 2], "target_h": 0.3, "max_iterations": 1}))
        out = tmp_path / "ex"
        code = main([kind, "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("kind, initial", [("custom", [2000, 1]), ("example1", [1e7, 1])])
    def test_initial_outside_the_box_is_config_error(self, tmp_path, capsys, monkeypatch, kind, initial):
        monkeypatch.setattr(ElasticitySolver, "__init__", lambda *args: pytest.fail("solver built"))
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"kind": kind, "initial": initial, "target_h": 0.3}))
        out = tmp_path / "out"
        code = main([kind, "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert not out.exists()
        assert "admissible box" in capsys.readouterr().err

    def test_initial_on_the_box_edge_is_valid(self):
        assert ExperimentConfig(kind="custom", initial=(1e3, 1e-3)).initial == (1e3, 1e-3)
        assert ExperimentConfig(kind="example1", initial=(1e6, 1e-6)).initial == (1e6, 1e-6)

    @pytest.mark.parametrize("kind, name", UNREAD)
    def test_field_the_kind_does_not_read_rejected(self, tmp_path, capsys, kind, name):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"target_h": 0.3, name: NON_DEFAULT[name]}))
        out = tmp_path / "out"
        code = main([kind, "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert not out.exists()
        assert name in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config, names",
        [
            ({"kind": "forward", "dirichlet_arc": [0.0, 7.0]}, ["dirichlet arc"]),
            ({"kind": "custom", "truth": {"type": "file", "path": "field.txt"}, "data_mesh": "refine"},
             ["truth", "data_mesh"]),
            ({"kind": "forward", "truth": {"type": "constant", "lam": 1e7, "mu": 7}}, ["truth", "lam", "1000000.0"]),
            ({"kind": "forward", "truth": {"type": "radial-mu", "lam": 1e-9}}, ["truth", "lam", "1e-06"]),
            ({"kind": "forward", "truth": {"type": "file", "path": "missing/field.txt"}},
             ["truth file", "missing/field.txt"]),
            ({"kind": "forward", "truth": {"type": "radial-mu", "lamda": 3}}, ["truth", "lamda"]),
            # keys that another truth type reads, but the spec's own type does not
            ({"kind": "forward", "truth": {"type": "radial-mu", "lam": 3, "mu": 7}}, ["radial-mu truth", "'mu'"]),
            ({"kind": "forward", "truth": {"type": "gaussian-bumps-lambda", "lam": 3}},
             ["gaussian-bumps-lambda truth", "'lam'"]),
            ({"kind": "custom", "truth": {"lam": 3, "mu": 7, "path": "field.txt"}}, ["constant truth", "'path'"]),
            ({"kind": "custom", "truth": {"type": "file", "path": "field.txt", "mu": 7}}, ["file truth", "'mu'"]),
            # integers past the float range, which float() refuses with OverflowError
            ({"kind": "forward", "target_h": 10**400}, ["target_h", "finite"]),
            ({"kind": "forward", "truth": {"type": "constant", "lam": 3, "mu": 10**400}}, ["truth mu", "finite"]),
            # a path past the file system's name length, whose stat fails with OSError
            ({"kind": "forward", "truth": {"type": "file", "path": "a" * 5000}}, ["truth file", "too long"]),
            ({"kind": "forward", "loads": [[0.1, 0.2], [0.3]]}, ["loads", "list of pairs"]),
        ],
        ids=["arc-width", "file-truth-refine", "truth-lam-above-box", "truth-lam-below-box", "file-truth-missing",
             "truth-key-misspelled", "radial-mu-truth-mu", "bumps-truth-lam", "constant-truth-path", "file-truth-mu",
             "target-h-past-float-range", "truth-mu-past-float-range", "file-truth-path-too-long", "ragged-loads"],
    )
    def test_rejected_before_any_mesh(self, tmp_path, capsys, monkeypatch, no_mesh, config, names):
        monkeypatch.chdir(tmp_path)  # where no truth file exists
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"target_h": 0.3, **config}))
        out = tmp_path / "out"
        code = main([config["kind"], "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert not out.exists()
        err = capsys.readouterr().err
        assert all(name in err for name in names)

    @pytest.mark.filterwarnings("error")  # np.loadtxt warns on a file of no rows
    @pytest.mark.parametrize(
        "row, names",
        [("1.0 2.0 3.0\n", ["(50, 3)"]), ("1.0 nan\n", ["finite"]), ("1.0 two\n", ["'two'"]),
         ("1.0 -2.0\n", ["mu", "bounds"]), ("", ["(0, 1)"])],
        ids=["three-columns", "nan", "word", "negative-modulus", "empty"],
    )
    def test_malformed_file_truth_rejected_before_any_mesh(self, tmp_path, capsys, no_mesh, row, names):
        """A file truth's table is read with the config, and its error is one stderr line; only its
        row count waits for the mesh."""
        table = tmp_path / "field.txt"
        table.write_text(row * 50)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"target_h": 0.3, "truth": {"type": "file", "path": str(table)}}))
        out = tmp_path / "out"
        code = main(["forward", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert not out.exists()
        err = capsys.readouterr().err
        assert all(name in err for name in ["truth file", str(table), *names])
        assert len(err.splitlines()) == 1

    def test_unreadable_file_truth_rejected_before_any_mesh(self, tmp_path, capsys, no_mesh, unreadable_table):
        out = tmp_path / "out"
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"target_h": 0.3, "truth": {"type": "file", "path": str(unreadable_table)}}))
        code = main(["forward", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert not out.exists()
        assert capsys.readouterr().err == f"config error: bad truth file {unreadable_table}: Permission denied\n"

    @pytest.mark.parametrize("sub", ["", "sub"], ids=["file", "under-file"])
    def test_out_that_cannot_be_made_is_rejected_before_any_mesh(self, tmp_path, capsys, no_mesh, sub):
        blocker = tmp_path / "taken"
        blocker.write_text("not a directory\n")
        out = blocker / sub if sub else blocker
        code = main(["forward", "--mesh-h", "0.3", "--out", str(out)])
        assert code == EXIT_CONFIG
        assert blocker.read_text() == "not a directory\n"
        err = capsys.readouterr().err
        assert "--out" in err and str(out) in err

    @pytest.mark.parametrize("arc", [[0.1, 0.12], [0.1, 6.35]], ids=["no-edge", "every-edge"])
    def test_arc_that_leaves_a_boundary_part_empty_is_config_error(self, tmp_path, capsys, arc):
        """An arc narrow enough to hold no boundary edge's midpoint, or wide
        enough to hold all of them, names the field, its value and the mesh size."""
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"kind": "forward", "target_h": 0.3, "dirichlet_arc": arc}))
        out = tmp_path / "out"
        code = main(["forward", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert not out.exists()
        err = capsys.readouterr().err
        assert "dirichlet_arc" in err and str(arc) in err and "target_h 0.3" in err

    @pytest.mark.parametrize("kind", ["forward", "stability", "monotonicity", "custom", "example1"])
    def test_arc_that_leaves_no_loaded_node_is_config_error(self, tmp_path, capsys, kind):
        """At h=0.3 the arc [0.1, 2 pi) leaves one loaded edge, whose two ends
        are clamped interface nodes: no loaded node, so no NtD matrix and no
        load to fit."""
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"target_h": 0.3, "dirichlet_arc": [0.1, 2 * math.pi]}))
        out = tmp_path / "out"
        code = main([kind, "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "config error" in err and "dirichlet_arc" in err

    @pytest.mark.parametrize("kind", ["stability", "monotonicity"])
    def test_narrowest_accepted_arc_runs(self, tmp_path, capsys, kind):
        """[0.496..., 2 pi) at h=0.3 leaves two loaded edges and one loaded node."""
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"target_h": 0.3, "n_pairs": 2, "dirichlet_arc": [0.4960409453036515, 2 * math.pi]}))
        out = tmp_path / "out"
        assert main([kind, "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert (out / "results.json").exists()

    def test_negative_n_pairs_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"target_h": 0.3, "n_pairs": -3}))
        out = tmp_path / "st"
        code = main(["stability", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert not out.exists()

    def test_string_mesh_size_in_config_file_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"target_h": "0.1"}))
        out = tmp_path / "fw"
        code = main(["forward", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert not out.exists()
        assert "target_h" in capsys.readouterr().err

    def test_out_that_is_not_writable_is_rejected_before_any_mesh(self, tmp_path, capsys, monkeypatch, no_mesh):
        # os.access stands in for a directory without write permission, which a superuser writes to all the same
        monkeypatch.setattr("elastinv.cli.os.access", lambda path, mode: False)
        out = tmp_path / "out"
        code = main(["forward", "--mesh-h", "0.3", "--out", str(out)])
        assert code == EXIT_CONFIG
        assert not out.exists()
        err = capsys.readouterr().err
        assert "not writable" in err and str(tmp_path) in err

    def test_solver_failure_exits_3(self, tmp_path, capsys, monkeypatch):
        def fail(self, B):
            raise fem.FemError("singular block")

        monkeypatch.setattr(fem.SpdBlock, "solve", fail)
        out = tmp_path / "fw"
        code = main(["forward", "--mesh-h", "0.3", "--out", str(out)])
        assert code == EXIT_SOLVER
        assert not out.exists()
        assert "solver failure" in capsys.readouterr().err

    def test_non_finite_initial_misfit_exits_3(self, tmp_path, capsys):
        # finite loads whose misfit overflows: no row of 0 iterations and Infinity in results.json
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"loads": [[1e200, 0]]}))
        out = tmp_path / "big"
        code = main(["custom", "--mesh-h", "0.3", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_SOLVER
        assert not out.exists()
        assert "solver failure" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")  # numpy's overflow warnings would print before the one line
    def test_overflowing_initial_misfit_writes_one_stderr_line(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"loads": [[1e200, 0]]}))
        code = main(["custom", "--mesh-h", "0.3", "--config", str(cfg), "--out", str(tmp_path / "big")])
        assert code == EXIT_SOLVER
        err = capsys.readouterr().err
        assert err.startswith("solver failure: misfit at the initial point") and err.count("\n") == 1

    @pytest.mark.filterwarnings("error")  # numpy's overflow warnings would print before the one line
    def test_overflowing_sandwich_exits_3_with_one_stderr_line(self, tmp_path, capsys):
        # finite loads whose sandwich energies overflow: no bundle of -Infinity and NaN terms
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"n_pairs": 1, "loads": [[1e160, -1.0]]}))
        out = tmp_path / "mono"
        code = main(["monotonicity", "--mesh-h", "0.3", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_SOLVER
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("solver failure: ") and err.count("\n") == 1

    def test_invariant_violation_exits_4_after_writing_the_bundle(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(ntd, "loewner_gap", lambda a, b: -1.0)
        monkeypatch.setattr(ntd, "monotonicity_sandwich", lambda s1, s2, loads: [(0.0, 1.0, 0.0)] * len(loads))
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"target_h": 0.3, "n_pairs": 1}))
        out = tmp_path / "mono"
        code = main(["monotonicity", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_INVARIANT
        violations = json.loads((out / "results.json").read_text())["violations"]
        assert {v["kind"] for v in violations} == {"loewner", "sandwich"}
        assert "invariant violation" in capsys.readouterr().err

    def test_internal_error_is_no_config_error(self, tmp_path, capsys, monkeypatch):
        def fail(*args):
            raise ValueError("internal")

        monkeypatch.setattr(inversion, "generate_measurements", fail)
        with pytest.raises(ValueError, match="internal"):
            main(["forward", "--mesh-h", "0.3", "--out", str(tmp_path / "fw")])
