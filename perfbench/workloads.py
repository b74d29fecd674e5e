"""The four benchmark workloads: preset configs and their output checks.

Each workload is one scenario preset at a trial count fixed here, so the
work in a round does not change when ``configs/`` or the preset defaults
do.  The checks compare the table against properties the method must have
or against computations made apart from ``mmkeygen``; none compares against
a saved copy of earlier output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

Check = tuple[str, bool, str]


@dataclass(frozen=True)
class Workload:
    scenario: str
    body: str  # config lines after scenario/master_seed/output_path
    primary_metric: str  # the rows whose ``trials`` column counts the trials
    trials_per_round: int
    checks: Callable[[object, int], list[Check]]

    def config_text(self, seed: int, csv_path: str) -> str:
        return (
            f'scenario = "{self.scenario}"\n'
            f"master_seed = {seed}\n"
            f'output_path = "{csv_path}"\n' + self.body
        )

    def check(self, table, seed: int) -> list[Check]:
        trials = sum(r.trials for r in table.rows if r.metric == self.primary_metric)
        counted = ("table counts the round's trials", trials == self.trials_per_round,
                   f"{trials} {self.primary_metric} trials, expected {self.trials_per_round}")
        return [(name, bool(ok), detail) for name, ok, detail in [counted] + self.checks(table, seed)]


def _rows(table, metric: str, scheme_contains: str = "") -> list:
    return [r for r in table.rows if r.metric == metric and scheme_contains in r.scheme]


def _check_beam_keying(table, seed: int) -> list[Check]:
    import mmkeygen

    out = []
    eve = _rows(table, "bar_eve")
    # the host's half of Eve's key is a uniform guess, so her agreement is
    # 0.5 in expectation at every point
    outside = [r for r in eve if not abs(r.value - 0.5) <= 5.0 * r.stderr]
    worst = max((abs(r.value - 0.5) for r in eve), default=math.inf)
    out.append(("bar_eve within 0.5 +- 5 stderr", len(eve) == 20 and not outside,
                f"{len(eve)} points, {len(outside)} outside, worst |bar_eve - 0.5| = {worst:.4f}"))
    session = mmkeygen.secret_beam_session(
        mmkeygen.SessionConfig(
            scheme="secret_beam",
            alice=mmkeygen.ArrayGeometry(1, 32),
            bob=mmkeygen.ArrayGeometry(1, 16),
            snr_db=200.0,
            rounds=100,
            num_paths=1,
            delta_max=float(np.radians(3.0)),
            master_seed=seed,
        )
    )
    out.append(("noiseless session bar_legit == 1", session.bar_legit == 1.0,
                f"bar_legit = {session.bar_legit!r}"))
    return out


def _check_angular_sparse(table, seed: int) -> list[Check]:
    import mmkeygen

    out = []
    rng = np.random.default_rng(seed)
    worst_fft = worst_norm = 0.0
    for n in (128, 64):
        geom = mmkeygen.ArrayGeometry(1, n)
        H = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        Hv = mmkeygen.virtual_channel(H, geom, geom)
        # U_r^H H U_t with unitary DFT bases: inverse FFT down the columns,
        # forward FFT along the rows
        ref = np.fft.fft(np.fft.ifft(H, axis=0, norm="ortho"), axis=1, norm="ortho")
        worst_fft = max(worst_fft, float(np.max(np.abs(Hv - ref))))
        worst_norm = max(worst_norm, abs(np.linalg.norm(Hv) - np.linalg.norm(H)) / np.linalg.norm(H))
    out.append(("virtual_channel equals 2-D FFT", worst_fft < 1e-9, f"max |diff| = {worst_fft:.2e}"))
    out.append(("virtual_channel keeps Frobenius norm", worst_norm < 1e-12,
                f"max relative diff = {worst_norm:.2e}"))
    bdr = _rows(table, "bdr")
    out.append(("every bdr in [0, 0.5]", len(bdr) == 20 and all(0.0 <= r.value <= 0.5 for r in bdr),
                f"{len(bdr)} points, range [{min(r.value for r in bdr):.4g}, {max(r.value for r in bdr):.4g}]"))
    base = {r.snr_db: r.value for r in _rows(table, "bdr", "baseline_")}
    virt = _rows(table, "bdr", "virtual_")
    beaten = [r for r in virt if not r.value < base.get(r.snr_db, -1.0)]
    out.append(("virtual bdr below baseline at every SNR", len(base) == 5 and not beaten,
                f"{len(virt)} virtual points, violations: "
                + (", ".join(f"{r.scheme}@{r.snr_db:g}dB" for r in beaten) or "none")))
    return out


def _check_multires_probing(table, seed: int) -> list[Check]:
    import mmkeygen

    P = 5
    out = []
    ker = _rows(table, "ker_multires") + _rows(table, "ker_fixed")
    out.append(("1 <= ker <= P on every row", len(ker) == 10 and all(1.0 <= r.value <= P for r in ker),
                f"{len(ker)} rows, range [{min(r.value for r in ker):.4g}, {max(r.value for r in ker):.4g}]"))
    multi = {r.snr_db: r.value for r in _rows(table, "ker_multires")}
    fixed = {r.snr_db: r.value for r in _rows(table, "ker_fixed")}
    high = [s for s in multi if s >= 10.0]
    out.append(("ker_multires > ker_fixed at SNR >= 10 dB", len(high) == 3 and all(multi[s] > fixed[s] for s in high),
                ", ".join(f"{s:g}dB {multi[s]:.3f}/{fixed[s]:.3f}" for s in sorted(high))))
    # independent uniform cells: joint entropy is P times the single entropy,
    # less a plug-in bias of about 1023 / (2 T ln 2) bits at T = 2**16
    rng = np.random.default_rng(seed)
    cells = rng.integers(0, 4, size=(P, 1 << 16))
    oracle = mmkeygen.key_entropy_rate((cells + 0.5) / 4.0, mmkeygen.QuantizerConfig(levels=4, lo=0.0, hi=1.0))
    out.append(("key_entropy_rate of independent cells is P", abs(oracle - P) < 0.05, f"{oracle:.4f}"))
    return out


def _binary_entropy(p: float) -> float:
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def _check_reconcile(table, seed: int) -> list[Check]:
    out = []
    leak = _rows(table, "leak_fraction")
    bad = []
    for r in leak:
        p = float(r.scheme.rsplit("_p", 1)[1])
        # Slepian-Wolf: no protocol corrects a BSC(p) with fewer than h(p)
        # disclosed bits per key bit
        if not _binary_entropy(p) <= r.value <= 1.0:
            bad.append(f"p={p:g}: {r.value:.4f} vs h(p)={_binary_entropy(p):.4f}")
    out.append(("h(p) <= leak_fraction <= 1", len(leak) == 4 and not bad, "; ".join(bad) or f"{len(leak)} rates"))
    residual = _rows(table, "residual_mismatch")
    worst = max((r.value for r in residual), default=math.inf)
    out.append(("residual_mismatch <= 1e-3", len(residual) == 4 and worst <= 1e-3, f"worst {worst:.3g}"))
    return out


WORKLOADS = {
    "beam-keying": Workload(
        scenario="fig2",
        body="trials = 20\nsnr_grid = 0, 5, 10, 15, 20\n",
        primary_metric="bar_legit",
        trials_per_round=20 * 4 * 5,  # trials x array cases x SNRs
        checks=_check_beam_keying,
    ),
    "angular-sparse": Workload(
        scenario="fig3",
        body="trials = 10\nsnr_grid = -20, -15, -10, -5, 0\n",
        primary_metric="bdr",
        trials_per_round=(3 * 10 + 5) * 5,  # 3 virtual cases at 10, baseline at 5
        checks=_check_angular_sparse,
    ),
    "multires-probing": Workload(
        scenario="fig4",
        # 2000 blocks is the least the preset runs without lowering the
        # entropy estimator's min_trials
        body="trials = 2000\nsnr_grid = 0, 5, 10, 15, 20\n",
        primary_metric="ker_multires",
        trials_per_round=2000 * 5,  # coherence blocks x SNRs
        checks=_check_multires_probing,
    ),
    "reconcile": Workload(
        scenario="cascade-bench",
        body="trials = 20\n\n[cascade]\nerror_rates = 0.02, 0.05, 0.10, 0.15\nblock_bits = 4096\npasses = 4\n",
        primary_metric="leak_fraction",
        trials_per_round=20 * 4,  # trials x error rates
        checks=_check_reconcile,
    ),
}
