"""Golden hashes: the exact CSV bytes of every preset at a small scale.

The determinism test in the acceptance suite only checks that two runs
agree, so it cannot see a change that moves one random draw or one rounding
step.  These hashes pin the bytes themselves.  A change that alters them on
purpose must say why and update the hash here.
"""

import hashlib

import pytest

from mmkeygen.experiments import parse_config, run_scenario, table_to_csv

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
    # stderr is the jackknife that fig4 reports
    "custom-multires": (
        'scenario = "custom"\nmaster_seed = 5\ntrials = 2000\nsnr_grid = 10\n'
        '[scheme]\nscheme = "multires"\n',
        "7c4e2a054c7ed08b94320ef1c3b5ca03d2b69be32c8122d2eaec4cd1ffc23c5a",
    ),
}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_csv_sha256_pinned(name):
    text, expected = GOLDEN[name]
    csv = table_to_csv(run_scenario(parse_config(text)))
    assert hashlib.sha256(csv).hexdigest() == expected
