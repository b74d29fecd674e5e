"""Physical-layer secret-key generation for mmWave massive-MIMO links.

Simulation library and CLI covering beam-perturbation keying against
co-located eavesdroppers, angular-domain (virtual AoA/AoD) extraction and
multi-resolution beam probing.  Every scheme draws its clustered ray
channels (arrays of ray angles and gains) and their AR(1) gain steps
through the same two routines, and runs through one entry point,
``schemes.batch``, which picks the scheme's code from the config and
yields one key-material record per trial.  The schemes run probing,
extraction and quantization; Cascade and privacy amplification are library
functions that no scheme calls yet (only cascade-bench runs Cascade;
ROADMAP item 1).

The root re-exports the configs, the scenario runner and a few routines;
every other public name lives in its layer module.
"""

from .channel import ArrayGeometry, virtual_channel
from .experiments import load_config, run_scenario, write_csv
from .keygen import QuantizerConfig, key_entropy_rate
from .schemes import SessionConfig, secret_beam_session

__version__ = "0.1.0"
