"""The package's public names and config fields, pinned so that every change to the API is deliberate."""

import ast
import dataclasses
import importlib
import pathlib
import types

import pytest

import mmkeygen
from mmkeygen.experiments import CascadeBench
from mmkeygen.keygen import BitString
from mmkeygen.schemes import SchemeResult

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"

PUBLIC_NAMES = [
    "ArrayGeometry",
    "BitString",
    "CascadeParams",
    "Codebook",
    "ConfigError",
    "ExperimentConfig",
    "InsufficientSamplesError",
    "KeyMaterial",
    "QuantizerConfig",
    "ResultRow",
    "ResultTable",
    "SchemeResult",
    "SelectionInfeasibleError",
    "SessionConfig",
    "array_response",
    "bar",
    "bidirectional_probe",
    "cascade",
    "channel_matrix",
    "estimate_channel",
    "extract_randomness",
    "hierarchical_codebook",
    "key_entropy_rate",
    "load_config",
    "parse_config",
    "privacy_amplify",
    "quantize_phases",
    "run_scenario",
    "sample_channel",
    "secret_beam_session",
    "sector_beamformer",
    "select_beams",
    "steering_beamformer",
    "virtual_channel",
    "write_csv",
]


def test_public_names_pinned():
    # submodules are left out: importing mmkeygen.cli, say, adds the name cli
    names = sorted(
        name
        for name, value in vars(mmkeygen).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC_NAMES


# the fields of each public config record, in order: a new setting is an API change
CONFIG_FIELDS = {
    mmkeygen.ArrayGeometry: ["rows", "cols"],
    mmkeygen.SessionConfig: [
        "scheme",
        "alice",
        "bob",
        "snr_db",
        "rounds",
        "num_paths",
        "nlos_offset_db",
        "levels",
        "num_beams",
        "temporal_rho",
        "eve",
        "delta_max",
        "window_db",
        "codebook_depth",
        "grid_angles",
        "master_seed",
    ],
    mmkeygen.QuantizerConfig: ["levels", "lo", "hi"],
    mmkeygen.CascadeParams: ["passes", "initial_block", "seed"],
    mmkeygen.ExperimentConfig: ["scenario", "master_seed", "trials", "snr_grid", "output_path", "scheme", "cascade"],
    CascadeBench: ["error_rates", "block_bits", "passes"],
}


def test_config_fields_pinned():
    for record, names in CONFIG_FIELDS.items():
        assert [f.name for f in dataclasses.fields(record)] == names, record.__name__


def _perfbench_uses():
    """Every ``mmkeygen.<name>`` the benchmark's scripts read (its workloads, tracer and worker), as (module, name) pairs."""
    uses = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "mmkeygen":
                uses.add(("mmkeygen", node.attr))
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "mmkeygen":
                uses.update((node.module, alias.name) for alias in node.names)
    return uses


def _perfbench_layers():
    """The layer modules the benchmark's tracer wraps: ``spans.LAYERS``, read without importing the tracer."""
    spans = ast.parse((PERFBENCH / "spans.py").read_text(encoding="utf-8"))
    [layers] = [
        ast.literal_eval(node.value)
        for node in spans.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["LAYERS"]
    ]
    return layers


# the benchmark runs from its own files, which an API cut must not break: one
# test per name it reads, so a failure names the caller that a cut broke
BENCHMARK_USES = sorted(_perfbench_uses())
BENCHMARK_LAYERS = _perfbench_layers()


def test_benchmark_uses_found():
    assert {("mmkeygen", "secret_beam_session"), ("mmkeygen", "run_scenario")} <= set(BENCHMARK_USES)
    assert ("mmkeygen.beamforming", "SelectionInfeasibleError") in BENCHMARK_USES
    assert len(BENCHMARK_LAYERS) == 7


@pytest.mark.parametrize("module, name", BENCHMARK_USES, ids=[f"{m}.{n}" for m, n in BENCHMARK_USES])
def test_benchmark_name_resolves(module, name):
    assert hasattr(importlib.import_module(module), name)


@pytest.mark.parametrize("layer", BENCHMARK_LAYERS)
def test_benchmark_layer_imports(layer):
    importlib.import_module(f"mmkeygen.{layer}")


def test_benchmark_record_methods_exist():
    # the record property the beam-keying check reads, and the equality the tracer's Cascade counter calls
    assert isinstance(SchemeResult.bar_legit, property) and callable(BitString.equals)
