"""Golden hashes: the exact CSV bytes of every preset at a small scale.

The determinism test in the acceptance suite only checks that two runs
agree, so it cannot see a change that moves one random draw or one rounding
step.  These hashes pin the bytes themselves.  A change that alters them on
purpose must say why and update the hash here.
"""

import hashlib

import numpy as np
import pytest

from mmkeygen.beamforming import hierarchical_codebook, sector_beamformer
from mmkeygen.channel import ArrayGeometry
from mmkeygen.experiments import parse_config, run_scenario, table_to_csv
from mmkeygen.schemes import _multires_beams

pytestmark = pytest.mark.numpy_contract

GOLDEN = {
    "fig2": (
        'scenario = "fig2"\nmaster_seed = 1\ntrials = 20\n',
        "0e06a654c95ed3592ef90d0d1dd9ab8131f09fb430984a5eac2d0a5109504d69",
    ),
    "fig3": (
        'scenario = "fig3"\nmaster_seed = 1\ntrials = 2\n',
        "22bae946825f5c318236f00aaae6bfcb73afd50002823caaf9d82bae18f26eb3",
    ),
    "fig4": (
        'scenario = "fig4"\nmaster_seed = 1\ntrials = 2000\nsnr_grid = 20\n',
        "c594d0f5921d49a55d97e8f055a3cdedee96068c26682f7ad12e862e1f3c876e",
    ),
    # the preset's whole SNR grid, so state carried between points shows
    "fig4-grid": (
        'scenario = "fig4"\nmaster_seed = 1\ntrials = 2000\n',
        "a34244457c9a7e31788d127adb73d2dac50ac0dc1f722fd9db0cc9b1e3035038",
    ),
    "cascade-bench": (
        'scenario = "cascade-bench"\nmaster_seed = 1\ntrials = 5\n',
        "acf89d72c24056a33a640faf53a097670bb64cc8235aa98a7fe404c80a13ad91",
    ),
    # secret-beam keying on planar arrays, three paths, correlated gains
    "custom-secret-beam-upa": (
        'scenario = "custom"\nmaster_seed = 7\ntrials = 10\nsnr_grid = 5, 15\n'
        '[scheme]\nscheme = "secret_beam"\nalice_rows = 2\nalice_cols = 16\n'
        'bob_rows = 2\nbob_cols = 8\nnum_paths = 3\ntemporal_rho = 0.3\neve = "bob"\n'
        "rounds_per_trial = 4\n",
        "b1cfd1b5d395f64bc4ab87d70972b67415a4c751997c5244f94212a534e1aadb",
    ),
    # secret-beam keying on grid-snapped in-plane rays
    "custom-secret-beam-grid": (
        'scenario = "custom"\nmaster_seed = 3\ntrials = 10\nsnr_grid = 10\n'
        '[scheme]\nscheme = "secret_beam"\ngrid_angles = 1\nnum_paths = 2\n',
        "94d3ce74bf3ae84a805acab133dd0ac53a3f3e4a0429a3fba65f1f81184df74c",
    ),
    # every [scheme] key a preset's cases leave open, merged into the preset
    "fig2-overrides": (
        'scenario = "fig2"\nmaster_seed = 2\ntrials = 6\nsnr_grid = 0, 20\n'
        "[scheme]\nnum_paths = 3\nlevels = 8\ntemporal_rho = 0.4\nrounds_per_trial = 2\n"
        "delta_max_deg = 2.5\nnlos_offset_db = 6\n",
        "7ad4dfa9ae72e833a8c5a3529df983417ed9773cc43f3ea17859c67e2e8f33c1",
    ),
    "fig3-overrides": (
        'scenario = "fig3"\nmaster_seed = 2\ntrials = 3\nsnr_grid = -10\n'
        "[scheme]\nlevels = 4\nnlos_offset_db = 3\ngrid_angles = 0\n",
        "02ff2f21dc201477cc2c60e043d28bc5fd6e10d1d01e69199a39cd212ebad7c3",
    ),
    "fig4-overrides": (
        'scenario = "fig4"\nmaster_seed = 2\ntrials = 2000\nsnr_grid = 15\n'
        "[scheme]\nalice_cols = 32\nbob_cols = 16\nnum_paths = 6\nnum_beams = 4\n"
        "temporal_rho = 0.3\nwindow_db = 12\ncodebook_depth = 4\n",
        "eb44880527b85a015a0beaa3255a8382b32deab89998d47f390c7c0cdf8111a2",
    ),
    # custom with each scheme's own defaults
    "custom-secret-beam-default": (
        'scenario = "custom"\nmaster_seed = 3\ntrials = 6\nsnr_grid = 10\n',
        "a3a41cf02737d9b54f4583022539806876e2eee56bb1086fbd38fabab6c6a444",
    ),
    "custom-virtual": (
        'scenario = "custom"\nmaster_seed = 4\ntrials = 3\nsnr_grid = 0\n'
        '[scheme]\nscheme = "virtual"\nalice_cols = 32\nbob_cols = 32\n'
        "num_paths = 2\ngrid_angles = 1\nnlos_offset_db = 0\nrounds_per_trial = 2\n",
        "a3db1a81b962443d945a61a5aa6d71d45380f840bba5a799914af2f5a685a8c1",
    ),
    "custom-baseline": (
        'scenario = "custom"\nmaster_seed = 4\ntrials = 3\nsnr_grid = 0\n'
        '[scheme]\nscheme = "baseline"\nalice_cols = 16\nbob_cols = 16\n',
        "7ba35b33e94feafd15d9bd1314b2b64cf3ed67d02f2aa39c7fa5573d79d55bb0",
    ),
    # sounding on planar arrays: every axis of the angular transform has
    # more than one bin, and the baseline pools several rounds
    "custom-virtual-upa": (
        'scenario = "custom"\nmaster_seed = 6\ntrials = 4\nsnr_grid = -5, 5\n'
        '[scheme]\nscheme = "virtual"\nalice_rows = 4\nalice_cols = 8\nbob_rows = 2\nbob_cols = 8\n'
        "num_paths = 3\nrounds_per_trial = 2\n",
        "856fd52dc7609c11f70f51cd5128e4ac56689ffe0569e74562a551944e7fc930",
    ),
    "custom-baseline-upa": (
        'scenario = "custom"\nmaster_seed = 8\ntrials = 3\nsnr_grid = 0, 10\n'
        '[scheme]\nscheme = "baseline"\nalice_rows = 2\nalice_cols = 4\nbob_rows = 4\nbob_cols = 4\n'
        "levels = 8\nrounds_per_trial = 3\n",
        "cd09770b89b67fcb67d9bf90b7472fa394c7aaf5534514be31ce0dc36db08d66",
    ),
    # stderr is the jackknife that fig4 reports
    "custom-multires": (
        'scenario = "custom"\nmaster_seed = 5\ntrials = 2000\nsnr_grid = 10\n'
        '[scheme]\nscheme = "multires"\n',
        "7c4e2a054c7ed08b94320ef1c3b5ca03d2b69be32c8122d2eaec4cd1ffc23c5a",
    ),
    # 2003 blocks: the jackknife's ten sections are uneven (200 or 201 blocks)
    "custom-multires-uneven": (
        'scenario = "custom"\nmaster_seed = 5\ntrials = 2003\nsnr_grid = 10\n'
        '[scheme]\nscheme = "multires"\nlevels = 16\nnum_beams = 3\n',
        "4f1b4ebcd03f9a5f458ce839519d008e57e2327633d3e4009d515ec9671f4c05",
    ),
}


def _sha256(name):
    return hashlib.sha256(table_to_csv(run_scenario(parse_config(GOLDEN[name][0])))).hexdigest()


@pytest.mark.parametrize("name", list(GOLDEN))
def test_csv_sha256_pinned(name):
    assert _sha256(name) == GOLDEN[name][1]


def test_multires_hashes_with_warm_codebook_cache():
    # one process: the first run builds its codebook, later runs reuse the
    # codebooks cached by earlier ones, and the bytes stay pinned
    _multires_beams.cache_clear()
    for name in ("fig4-overrides", "fig4-grid", "custom-multires", "fig4-overrides"):
        assert _sha256(name) == GOLDEN[name][1], name
    assert _multires_beams.cache_info().hits > 0


@pytest.mark.parametrize(
    "alice, bob, depth",
    [
        (ArrayGeometry(1, 64), ArrayGeometry(1, 32), 6),
        (ArrayGeometry(1, 32), ArrayGeometry(1, 16), 4),
        (ArrayGeometry(2, 16), ArrayGeometry(2, 8), 4),
    ],
)
def test_cached_multires_beams_read_only_and_fresh(alice, bob, depth):
    codebook, bob_wide = _multires_beams(alice, bob, depth)
    for arr in (codebook.weights, codebook.ids, bob_wide):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = arr[0]
    fresh = hierarchical_codebook(alice, depth)
    assert (codebook.geom, codebook.depth) == (fresh.geom, fresh.depth)
    assert codebook.weights.tobytes() == fresh.weights.tobytes()
    assert np.array_equal(codebook.ids, fresh.ids)
    assert bob_wide.tobytes() == sector_beamformer(bob, -1.0, 1.0).tobytes()
    assert _multires_beams(alice, bob, depth)[0] is codebook
