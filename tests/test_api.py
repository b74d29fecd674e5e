"""The package's public names and config fields, pinned so that every change to the API is deliberate."""

import dataclasses
import types

import mmkeygen
from mmkeygen.experiments import CascadeBench

PUBLIC_NAMES = [
    "ArrayGeometry",
    "BitString",
    "CascadeParams",
    "ChannelRealization",
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
    "evolve",
    "extract_randomness",
    "hierarchical_codebook",
    "key_entropy_rate",
    "load_config",
    "multires_session",
    "parse_config",
    "privacy_amplify",
    "quantize",
    "quantize_phases",
    "run_scenario",
    "sample_channel",
    "secret_beam_session",
    "sector_beamformer",
    "select_beams",
    "steering_beamformer",
    "virtual_angle_session",
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
    mmkeygen.ChannelRealization: ["gains", "angles", "tx_geom", "rx_geom", "nlos_offset_db"],
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
