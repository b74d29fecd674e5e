"""Physical-layer secret-key generation for mmWave massive-MIMO links.

Simulation library and CLI covering beam-perturbation keying against
co-located eavesdroppers, angular-domain (virtual AoA/AoD) extraction and
multi-resolution beam probing.  Every scheme draws its clustered ray
channels (arrays of ray angles and gains) and their AR(1) gain steps
through the same two routines, and runs as a batch of trials that yields
one key-material record per trial.  The schemes run probing, extraction
and quantization; Cascade and privacy amplification are library functions
that no scheme calls yet (only cascade-bench runs Cascade; ROADMAP item 1).
"""

from .beamforming import (
    Codebook,
    SelectionInfeasibleError,
    hierarchical_codebook,
    quantize_phases,
    sector_beamformer,
    select_beams,
    steering_beamformer,
)
from .channel import (
    ArrayGeometry,
    array_response,
    channel_matrix,
    virtual_channel,
)
from .experiments import (
    ConfigError,
    ExperimentConfig,
    ResultRow,
    ResultTable,
    load_config,
    parse_config,
    run_scenario,
    write_csv,
)
from .keygen import (
    BitString,
    CascadeParams,
    InsufficientSamplesError,
    KeyMaterial,
    QuantizerConfig,
    bar,
    cascade,
    extract_randomness,
    key_entropy_rate,
    privacy_amplify,
)
from .probing import bidirectional_probe
from .schemes import (
    SchemeResult,
    SessionConfig,
    estimate_channel,
    secret_beam_session,
)

__version__ = "0.1.0"
