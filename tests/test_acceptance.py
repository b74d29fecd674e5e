"""Acceptance suite: every end-to-end claim at its stated tolerance.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see them
inline).  Tolerances are fixed here and never derived from measured output.
"""

import time

import numpy as np
import pytest

from mmkeygen.channel import ArrayGeometry, virtual_channel
from mmkeygen.experiments import parse_config, run_scenario, table_to_csv
from mmkeygen.keygen import (
    BitString,
    CascadeParams,
    QuantizerConfig,
    _gray_cells,
    cascade,
    key_entropy_rate,
)
from mmkeygen.schemes import (
    SessionConfig,
    _bin_symbols,
    batch,
    estimate_channel,
)
from reference import dft_matrix, pack_indices, ray_matrix

ACCEPT_SEED = 1


def _report(criterion: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status}: {detail}")


@pytest.fixture(scope="module")
def fig2_table():
    cfg = parse_config(
        f'scenario = "fig2"\nmaster_seed = {ACCEPT_SEED}\ntrials = 4000\n'
    )
    start = time.time()
    table = run_scenario(cfg)
    assert time.time() - start < 300, "fig2 scenario exceeded its 5-minute budget"
    return table


@pytest.fixture(scope="module")
def fig3_table():
    cfg = parse_config(f'scenario = "fig3"\nmaster_seed = {ACCEPT_SEED}\n')
    start = time.time()
    table = run_scenario(cfg)
    assert time.time() - start < 600, "fig3 scenario exceeded its 10-minute budget"
    return table


@pytest.fixture(scope="module")
def fig4_table():
    cfg = parse_config(f'scenario = "fig4"\nmaster_seed = {ACCEPT_SEED}\n')
    start = time.time()
    table = run_scenario(cfg)
    assert time.time() - start < 600, "fig4 scenario exceeded its 10-minute budget"
    return table


def _rows(table, metric, scheme_contains=""):
    return [
        r for r in table.rows if r.metric == metric and scheme_contains in r.scheme
    ]


class TestCriterion1EveDefeat:
    def test_eve_agreement_pinned_to_half(self, fig2_table):
        rows = _rows(fig2_table, "bar_eve")
        assert len(rows) == 20  # 2 array cases x 2 placements x 5 SNRs
        # 4000 trials x 12 final-key bits per trial = 48k bits per point
        worst = max(abs(r.value - 0.5) for r in rows)
        ok = all(0.47 <= r.value <= 0.53 for r in rows)
        _report("1 (eve defeat)", ok, f"worst |bar_eve - 0.5| = {worst:.4f} over {len(rows)} points")
        assert ok


class TestCriterion2ArrayOrdering:
    def test_more_antennas_better(self, fig2_table):
        ok = True
        details = []
        for eve in ("alice", "bob"):
            big = {r.snr_db: r for r in _rows(fig2_table, "bar_legit", f"32x16_eve_{eve}")}
            small = {r.snr_db: r for r in _rows(fig2_table, "bar_legit", f"16x8_eve_{eve}")}
            for snr in sorted(big):
                tol = np.hypot(big[snr].stderr, small[snr].stderr)
                if big[snr].value < small[snr].value - tol:
                    ok = False
                    details.append(f"{eve}@{snr}dB")
        _report("2a (32x16 >= 16x8)", ok, "violations: " + (", ".join(details) or "none"))
        assert ok

    def test_bar_nondecreasing_in_snr(self, fig2_table):
        ok = True
        details = []
        for dims in ("32x16", "16x8"):
            for eve in ("alice", "bob"):
                rows = sorted(_rows(fig2_table, "bar_legit", f"{dims}_eve_{eve}"), key=lambda r: r.snr_db)
                for lo, hi in zip(rows, rows[1:]):
                    tol = np.hypot(lo.stderr, hi.stderr)
                    if hi.value < lo.value - tol:
                        ok = False
                        details.append(f"{dims}/{eve}@{hi.snr_db}dB")
        _report("2b (BAR nondecreasing)", ok, "violations: " + (", ".join(details) or "none"))
        assert ok


class TestCriterion3VirtualAngle:
    def test_bdr_threshold_at_minus10(self, fig3_table):
        row = next(
            r for r in _rows(fig3_table, "bdr", "virtual_128x128_L3") if r.snr_db == -10.0
        )
        bits = row.trials * 3 * 14
        ok = row.value <= 1e-2 and bits >= 10_000
        _report(
            "3a (virtual bdr at -10 dB)",
            ok,
            f"bdr = {row.value:.5f} (stderr {row.stderr:.5f}) over {bits} key bits; threshold 1e-2",
        )
        assert bits >= 10_000
        assert row.value <= 1e-2

    def test_weak_path_bin_lost_to_noise_at_minus10(self):
        # 3a's mechanism at small scale: three grid paths on 128 x 128 ULAs,
        # two of |g|^2 = 1 and an NLoS path of |g|^2 = 0.01.  The weak bin's
        # power, (16384 / 3) * 0.01 = 55, is below the largest of about 16k
        # noise bins of mean power 10 at -10 dB (near 10 ln 16384 = 97), and
        # far above those of mean power 1 at 0 dB; the strong bins hold 5461
        geom = ArrayGeometry(1, 128)

        def top_bins(H, count):
            return set(_bin_symbols(np.abs(virtual_channel(H, geom, geom)), count)[0].tolist())

        sine = lambda j: float(np.arcsin(-1.0 + 2.0 * j / 128))
        gains = [1.0, np.exp(0.7j), 0.1 * np.exp(2.1j)]
        angles = [[sine(tx), 0.0, sine(rx), 0.0] for tx, rx in ((20, 90), (70, 30), (100, 60))]
        H = ray_matrix(geom, geom, angles, gains)
        # each path's bin, from its channel alone
        strong_a, strong_b, weak = (
            top_bins(ray_matrix(geom, geom, [a], [g]), 1).pop() for g, a in zip(gains, angles)
        )
        lost = {}
        for snr in (-10.0, 0.0):
            kept = [top_bins(estimate_channel(H, snr, np.random.default_rng(seed)), 3) for seed in range(40)]
            assert all({strong_a, strong_b} <= bins for bins in kept)
            lost[snr] = sum(weak not in bins for bins in kept)
        # measured: lost in 33 of the 40 at -10 dB
        assert lost[-10.0] > 20 and lost[0.0] == 0, lost

    def test_virtual_beats_baseline_everywhere(self, fig3_table):
        virt = {r.snr_db: r.value for r in _rows(fig3_table, "bdr", "virtual_128x128_L3")}
        base = {r.snr_db: r.value for r in _rows(fig3_table, "bdr", "baseline_128x128_L3")}
        ok = all(virt[snr] < base[snr] for snr in (-20.0, -15.0, -10.0, -5.0, 0.0))
        gaps = {snr: f"{base[snr]:.3f}/{virt[snr]:.4f}" for snr in sorted(base)}
        _report("3b (virtual < baseline)", ok, f"baseline/virtual bdr per SNR: {gaps}")
        assert ok


class TestCriterion4MultiresolutionEntropy:
    def test_ker_ratio_at_high_snr(self, fig4_table):
        km = {r.snr_db: r.value for r in _rows(fig4_table, "ker_multires")}
        kf = {r.snr_db: r.value for r in _rows(fig4_table, "ker_fixed")}
        ratios = {snr: km[snr] / kf[snr] for snr in km if snr >= 10.0}
        ok = all(3.5 <= ratio <= 5.0 for ratio in ratios.values())
        _report(
            "4a (ker ratio in [3.5, 5.0] at snr >= 10)",
            ok,
            ", ".join(f"{snr:g}dB: {r:.2f}" for snr, r in sorted(ratios.items())),
        )
        assert ok

    def test_fixed_arm_approaches_one(self, fig4_table):
        row = next(r for r in _rows(fig4_table, "ker_fixed") if r.snr_db == 20.0)
        ok = 0.9 <= row.value <= 1.3
        _report("4b (ker_fixed at 20 dB)", ok, f"ker_fixed = {row.value:.3f}, band [0.9, 1.3]")
        assert ok


class TestCriterion5CascadeBench:
    def test_residuals_and_leakage(self):
        start = time.time()
        n, p = 4096, 0.10
        residual_zero = 0
        fractions = []
        for trial in range(100):
            rng = np.random.default_rng(10_000 + trial)
            a = BitString(bits=rng.integers(0, 2, n, dtype=np.uint8))
            flips = (rng.random(n) < p).astype(np.uint8)
            b = BitString(bits=a.bits ^ flips)
            corrected, leaked = cascade(a, b, CascadeParams(seed=trial))
            residual_zero += corrected.equals(a)
            fractions.append(leaked / n)
        elapsed = time.time() - start
        mean_frac = float(np.mean(fractions))
        ok = residual_zero >= 99 and 0.45 <= mean_frac <= 0.70 and elapsed < 60
        _report(
            "5 (cascade bench)",
            ok,
            f"{residual_zero}/100 trials fully corrected; mean leak fraction {mean_frac:.3f}; {elapsed:.1f}s",
        )
        assert residual_zero >= 99
        assert 0.45 <= mean_frac <= 0.70
        assert elapsed < 60


class TestCriterion6PropertySuite:
    def test_dft_unitarity(self):
        ok = True
        for n in (2, 8, 16, 64, 128):
            U = dft_matrix(n)
            ok &= np.max(np.abs(U.conj().T @ U - np.eye(n))) < 1e-10
        _report("6a (DFT unitarity)", bool(ok), "max deviation below 1e-10 for n in {2..128}")
        assert ok

    def test_virtual_norm_preservation(self):
        rng = np.random.default_rng(5)
        tx, rx = ArrayGeometry(2, 8), ArrayGeometry(1, 8)
        worst = 0.0
        for _ in range(200):
            H = rng.standard_normal((8, 16)) + 1j * rng.standard_normal((8, 16))
            Hv = virtual_channel(H, tx, rx)
            worst = max(worst, abs(np.linalg.norm(Hv) - np.linalg.norm(H)))
        _report("6b (virtual norm preservation)", worst < 1e-10, f"worst |Δ| = {worst:.2e}")
        assert worst < 1e-10

    def test_noiseless_reciprocity_all_schemes(self):
        def one_trial(cfg):
            return next(batch(cfg, [cfg.master_seed], [cfg.snr_db]))

        sb = one_trial(
            SessionConfig(
                scheme="secret_beam",
                alice=ArrayGeometry(1, 32),
                bob=ArrayGeometry(1, 16),
                snr_db=200.0,
                rounds=100,
                num_paths=1,
                delta_max=float(np.radians(3.0)),
                master_seed=ACCEPT_SEED,
            ),
        )
        va = one_trial(
            SessionConfig(
                scheme="virtual",
                alice=ArrayGeometry(1, 128),
                bob=ArrayGeometry(1, 128),
                snr_db=200.0,
                rounds=25,
                num_paths=3,
                nlos_offset_db=0.0,
                grid_angles=True,
                master_seed=ACCEPT_SEED,
            ),
        )
        mr = one_trial(
            SessionConfig(
                scheme="multires",
                alice=ArrayGeometry(1, 64),
                bob=ArrayGeometry(1, 32),
                snr_db=200.0,
                rounds=2000,
                num_paths=8,
                levels=4,
                temporal_rho=0.5,
                master_seed=ACCEPT_SEED,
            ),
        )
        # each record's share of Alice's key bits that Bob's agrees with
        bars = tuple(record.bar_legit for record in (sb, va, mr))
        ok = all(b == 1.0 for b in bars)
        _report("6c (noiseless reciprocity)", ok, f"BARs = {bars}")
        assert ok

    def test_quantizer_gray_adjacency(self):
        # the Gray-coded cells a baseline trial emits as key symbols, on one range
        ok = True
        for cell in range(15):
            a, b = (pack_indices([c], 4) for c in _gray_cells(np.array([[cell + 0.5, cell + 1.5]]), 16, 0.0, 16.0)[0])
            ok &= int(np.sum(a.bits != b.bits)) == 1
        _report("6d (Gray adjacency)", bool(ok), "adjacent cells differ in exactly one bit")
        assert ok

    def test_xor_involution(self):
        rng = np.random.default_rng(6)
        ok = True
        for _ in range(50):
            n = int(rng.integers(1, 200))
            a = BitString(bits=rng.integers(0, 2, n, dtype=np.uint8))
            b = BitString(bits=rng.integers(0, 2, n, dtype=np.uint8))
            ok &= ((a ^ b) ^ b).equals(a)
        _report("6e (XOR involution)", bool(ok), "(a^b)^b == a on random strings")
        assert ok

    def test_csv_byte_determinism(self):
        cfg = parse_config('scenario = "fig2"\nmaster_seed = 3\ntrials = 12\nsnr_grid = 0, 10\n')
        first = table_to_csv(run_scenario(cfg))
        second = table_to_csv(run_scenario(cfg))
        ok = first == second
        _report("6f (CSV byte determinism)", ok, f"{len(first)} identical bytes")
        assert ok

    def test_ker_synthetic_oracle(self):
        rng = np.random.default_rng(7)
        cells = rng.integers(0, 4, size=(5, 100_000))
        samples = (cells + 0.5) / 4.0
        ker = key_entropy_rate(samples, QuantizerConfig(levels=4, lo=0.0, hi=1.0))
        ok = abs(ker - 5.0) < 0.1
        _report("6g (KER synthetic oracle)", ok, f"KER = {ker:.3f}, target 5 ± 0.1")
        assert ok
