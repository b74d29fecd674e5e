"""The package's public names, pinned so that every change to the API is deliberate."""

import types

import mmkeygen

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
    "MultiresResult",
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
