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
        "cca050e6f0714f6482a8fccf8fa98e6d9b9ed5bf21b595a14cf50ccb7d2af997",
    ),
    "fig3": (
        'scenario = "fig3"\nmaster_seed = 1\ntrials = 2\n',
        "22bae946825f5c318236f00aaae6bfcb73afd50002823caaf9d82bae18f26eb3",
    ),
    "fig4": (
        'scenario = "fig4"\nmaster_seed = 1\ntrials = 2000\nsnr_grid = 20\n',
        "36c02a0509a6bb4800ea1f06ac9b414bd40f83c63172e70487445a68e9ea530a",
    ),
    # the preset's whole SNR grid, so state carried between points shows
    "fig4-grid": (
        'scenario = "fig4"\nmaster_seed = 1\ntrials = 2000\n',
        "43cf2c7f0623147a248e47e11fd385ec4f2f64d8b1faa78c570fcd907dce4bed",
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
        "e56d18f3472dd4e77c62b4b8d8ea609c8bd6454124e728c848e0bad1d7249bea",
    ),
    # secret-beam keying on grid-snapped in-plane rays
    "custom-secret-beam-grid": (
        'scenario = "custom"\nmaster_seed = 3\ntrials = 10\nsnr_grid = 10\n'
        '[scheme]\nscheme = "secret_beam"\ngrid_angles = 1\nnum_paths = 2\n',
        "843779de6a20a7ba07823a58208cb120ae74ace5ae2e3ee8115db4fd5ea2dc61",
    ),
    # every [scheme] key a preset's cases leave open, merged into the preset
    "fig2-overrides": (
        'scenario = "fig2"\nmaster_seed = 2\ntrials = 6\nsnr_grid = 0, 20\n'
        "[scheme]\nnum_paths = 3\nlevels = 8\ntemporal_rho = 0.4\nrounds_per_trial = 2\n"
        "delta_max_deg = 2.5\nnlos_offset_db = 6\n",
        "566e08220e498091154cf824021345aae5c9b2f40e72add3dd9e8301f3193373",
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
        "c5c876e576f1fe87aafc4db81a800cc91660a90b894ac16d8b0fbf2db4608053",
    ),
    # custom with each scheme's own defaults
    "custom-secret-beam-default": (
        'scenario = "custom"\nmaster_seed = 3\ntrials = 6\nsnr_grid = 10\n',
        "240206abdc7fba6219c555bd7bbc969d229dada3f96999fae57ca5ecd3829cdc",
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
        "d61032c1d8165f285efd0e945ae698298859e2b8fad865e240e507b039de5b51",
    ),
    # 2003 blocks: the jackknife's ten sections are uneven (200 or 201 blocks)
    "custom-multires-uneven": (
        'scenario = "custom"\nmaster_seed = 5\ntrials = 2003\nsnr_grid = 10\n'
        '[scheme]\nscheme = "multires"\nlevels = 16\nnum_beams = 3\n',
        "3aad634a934225fe67fa474945624b9114d688339a631f51a82d694b0c640fc3",
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
