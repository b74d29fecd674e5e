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
}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_csv_sha256_pinned(name):
    text, expected = GOLDEN[name]
    csv = table_to_csv(run_scenario(parse_config(text)))
    assert hashlib.sha256(csv).hexdigest() == expected
