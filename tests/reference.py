"""Reference computations that the tests compare the library against.

Each is the plain, one-at-a-time form of something the library computes
another way, so it lives with the tests rather than in the package.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from mmkeygen import seeds
from mmkeygen.beamforming import SelectionInfeasibleError, _sector_bounds, composite_gains
from mmkeygen.channel import _innovations, array_response, channel_matrix
from mmkeygen.experiments import ResultRow, _mean_stderr, _trial_seeds
from mmkeygen.keygen import BitString, CascadeParams, QuantizerConfig, _calibrated_cells, bar, cascade
from mmkeygen.schemes import _bin_symbols, estimate_channel


def dft_matrix(n):
    """Unitary n x n DFT matrix (j, k) = exp(-2i*pi*j*k/n)/sqrt(n), the basis ``virtual_channel`` transforms by."""
    if n < 1:
        raise ValueError(f"invalid DFT size {n}")
    k = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(k, k) / n) / np.sqrt(n)


def virtual_channel(H, tx_geom, rx_geom, out=None):
    """``U_r^H H U_t`` by the per-axis loop over ``H`` viewed as (rx rows, rx cols, tx rows, tx cols).

    An ortho inverse FFT along each receive axis and an ortho forward FFT
    along each transmit axis, skipping axes of size 1; the first reads
    ``H`` and writes ``out``, the rest run in place.
    """
    H = np.asarray(H, dtype=complex)
    if out is None:
        out = np.empty(H.shape, dtype=complex)
    shape = (rx_geom.rows, rx_geom.cols, tx_geom.rows, tx_geom.cols)
    src, Hv = H.reshape(shape), out.reshape(shape)
    for axis, n in enumerate(shape):
        if n > 1:
            (np.fft.ifft if axis < 2 else np.fft.fft)(src, axis=axis, norm="ortho", out=Hv)
            src = Hv
    if src is not Hv:
        Hv[...] = src
    return out


def responses(tx_geom, rx_geom, angles):
    """The (L, Nt) and (L, Nr) array responses of rays at the (L, 4) ``angles``: (a_tx, a_rx)."""
    angles = np.asarray(angles, dtype=float)
    return array_response(tx_geom, angles[:, 0], angles[:, 1]), array_response(rx_geom, angles[:, 2], angles[:, 3])


def ray_matrix(tx_geom, rx_geom, angles, gains, out=None):
    """The channel matrix of rays at the (L, 4) ``angles`` with the (L,) ``gains``, written into ``out`` when given."""
    a_tx, a_rx = responses(tx_geom, rx_geom, angles)
    return channel_matrix(a_rx, np.asarray(gains, dtype=complex), a_tx, out=out)


def ar1_gains(gains, rho, rng, steps, nlos_offset_db):
    """The (steps, L) gains of ``steps`` AR(1) steps from the (L,) ``gains``, one draw and one step at a time.

    ``rng`` gives each step's LoS-phase uniform, then each step's NLoS
    normals in turn, as one evolution stream does.  Step t's gains are
    ``mix * eps + rho * g`` on its innovations ``eps`` and the last step's
    gains ``g``; ``gains`` is left as it was.
    """
    mix = np.sqrt(1.0 - rho * rho)
    u = [rng.random() for _ in range(steps)]
    normals = [rng.standard_normal(2 * (gains.size - 1)) for _ in range(steps)]
    out = np.empty((steps, gains.size), dtype=complex)
    for t in range(steps):
        eps = _innovations(u[t], normals[t], nlos_offset_db)
        gains = out[t] = mix * eps + rho * gains
    return out


def session_channel(cfg, rng):
    """A session's (angles, gains) drawn one draw at a time: ``uniform(-1, 1)`` sines, the LoS phase, the NLoS normals.

    With ``cfg.grid_angles`` the rays are in-plane, each sine snapped to the
    DFT grid of its array.
    """

    def snap(angles, n):
        s = np.round(np.sin(angles) * n / 2.0) * 2.0 / n
        return np.arcsin(np.clip(s, -1.0, 1.0 - 2.0 / n))

    L = cfg.num_paths
    angles = np.arcsin(rng.uniform(-1.0, 1.0, size=(L, 4)))
    gains = _innovations(rng.random(), rng.standard_normal(2 * (L - 1)), cfg.nlos_offset_db)
    if cfg.grid_angles:
        snapped = np.zeros_like(angles)
        snapped[:, 0], snapped[:, 2] = snap(angles[:, 0], cfg.alice.cols), snap(angles[:, 2], cfg.bob.cols)
        angles = snapped
    return angles, gains


def round_estimates(cfg, seed, snr_db, t, H, out):
    """Writes round ``t``'s channel into ``H``, and Alice's and Bob's estimates of it into ``out[0]`` and ``out[1]``.

    Each of the round's three streams gets its own generator.
    """
    tags = (seeds.STREAM_CHANNEL, seeds.STREAM_NOISE_ALICE, seeds.STREAM_NOISE_BOB)
    rng_ch, *rngs = (seeds.generator(seed, tag, t) for tag in tags)
    ray_matrix(cfg.alice, cfg.bob, *session_channel(cfg, rng_ch), out=H)
    for est, rng in zip(out, rngs):
        estimate_channel(H, snr_db, rng, out=est)


def virtual_symbols(cfg, trial_seeds, snr_db):
    """Per trial, one trial at a time: each party's strongest virtual bins of every round, and their bits."""
    shape = (cfg.bob.size, cfg.alice.size)
    H, mag = np.empty(shape, dtype=complex), np.empty(shape)
    est = np.empty((2, *shape), dtype=complex)
    for seed, snr in zip(trial_seeds, snr_db):
        symbols = np.empty((2, cfg.rounds, cfg.num_paths), dtype=np.int64)
        for t in range(cfg.rounds):
            round_estimates(cfg, seed, snr, t, H, est)
            for party in range(2):
                np.abs(virtual_channel(est[party], cfg.alice, cfg.bob, out=est[party]), out=mag)
                symbols[party, t], bits = _bin_symbols(mag, cfg.num_paths)
        yield symbols[0].ravel(), symbols[1].ravel(), bits


def baseline_symbols(cfg, trial_seeds, snr_db):
    """Per trial, one trial at a time: each party's Gray-coded cells of its pooled estimates on Alice's range, and their bits."""
    shape = (cfg.bob.size, cfg.alice.size)
    H = np.empty(shape, dtype=complex)
    pools = np.empty((2, cfg.rounds, *shape), dtype=complex)
    samples = pools.view(np.float64).reshape(2, -1)
    for seed, snr in zip(trial_seeds, snr_db):
        for t in range(cfg.rounds):
            round_estimates(cfg, seed, snr, t, H, pools[:, t])
        samples -= samples.mean(axis=1, keepdims=True)
        quantizer = QuantizerConfig.calibrated(samples[0], levels=cfg.levels)
        cells = _calibrated_cells(samples, cfg.levels, quantizer.lo, quantizer.hi)
        cells ^= cells >> 1
        yield cells[0], cells[1], cfg.levels.bit_length() - 1


def select_beams(codebook, H, rx_beam, count, window_db):
    """The window scan of ``beamforming.select_beams`` with each window's median taken by ``np.median``."""
    gains = composite_gains(codebook, H, rx_beam)
    if count > gains.size:
        raise SelectionInfeasibleError(f"requested {count} beams but codebook has only {gains.size}")
    order = np.argsort(-gains, kind="stable")
    ranked = codebook.ids[order]
    if count == 1:
        return [tuple(ranked[0].tolist())]
    ratio = 10.0 ** (window_db / 20.0)
    values = sliding_window_view(gains[order], count)
    med = np.median(values, axis=1)
    feasible = ~((values.max(axis=1) > med * ratio) | (values.min(axis=1) * ratio < med))
    if not feasible.any():
        raise SelectionInfeasibleError(f"no window of {count} beams within {window_db} dB of their median")
    levels = sliding_window_view(ranked[:, 0], count)
    index = sliding_window_view(ranked[:, 1], count)
    lo, hi = _sector_bounds(levels, index)
    disjoint = (hi[:, :, None] <= lo[:, None, :]) | (hi[:, None, :] <= lo[:, :, None])
    diversity = disjoint.sum(axis=(1, 2)) // 2
    single_level = (levels == levels[:, :1]).all(axis=1)
    start = np.flatnonzero(feasible)
    best = start[np.lexsort((start, -diversity[start], single_level[start]))[0]]
    return sorted(map(tuple, ranked[best : best + count].tolist()))


def pack_indices(indices, width):
    """Fixed-width binary encoding of integer indices, most significant bit first, concatenated.

    A party's key bits, as ``SchemeResult.agreement`` counts them.
    """
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= (1 << width)):
        raise ValueError(f"index out of range for width {width}")
    shifts = np.arange(width - 1, -1, -1)
    return BitString(bits=((idx[:, None] >> shifts) & 1).astype(np.uint8).ravel())


def each_trial(records):
    """Each trial's ``(symbols, width, kers)`` in a stream of ``SchemeResult`` chunks, in order.

    ``symbols`` holds the trial's (parties, n) key symbols, ``width`` their
    bit width, and ``kers`` its (2, 2) rate and stderr of each arm, or None.
    """
    for record in records:
        kers = [None] * len(record.symbols) if record.kers is None else record.kers
        for symbols, trial_kers in zip(record.symbols, kers, strict=True):
            yield symbols, record.width, trial_kers


def key_bits(trial, party):
    """Party ``party``'s key bits of a trial's ``(symbols, width, kers)`` (0 Alice, 1 Bob, 2 the eavesdropper)."""
    symbols, width, _ = trial
    return pack_indices(symbols[party], width)


def derive_seed(master_seed, *labels):
    """The u64 seed of the address ``(master_seed, *labels)``, from numpy's own ``SeedSequence``."""
    return int(np.random.SeedSequence([master_seed, *labels]).generate_state(1, dtype=np.uint64)[0])


# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h)
PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def pcg64_raw(state, inc, count):
    """The next ``count`` outputs of a PCG64 at (state, inc), on Python ints.

    Each output steps the state to ``state * MULT + inc mod 2**128``, then
    gives its XSL-RR: the xor of its two 64-bit words, rotated right by its
    top 6 bits.
    """
    outputs = []
    for _ in range(count):
        state = (state * PCG64_MULT + inc) % 2**128
        word = (state >> 64) ^ (state % 2**64)
        rot = state >> 122
        outputs.append(((word >> rot) | (word << (64 - rot))) % 2**64)
    return outputs


def cell_indices(samples, levels, lo, hi):
    """Uniform-width cell index of each sample of one stream over [lo, hi], clamped at the edges."""
    if not lo < hi:
        raise ValueError(f"degenerate quantizer range [{lo}, {hi}]")
    arr = np.asarray(samples, dtype=float)
    idx = np.floor((arr - lo) / (hi - lo) * levels).astype(np.int64)
    return np.clip(idx, 0, levels - 1)


def calibrated_cells(samples, levels, lo=None, hi=None):
    """Each row's cells by :func:`cell_indices` on its ``np.percentile`` 1st-99th range, or on ``lo``/``hi``; 0 where the range is degenerate."""
    cells = np.empty(samples.shape, dtype=np.int64)
    if lo is not None and hi is not None:
        bounds = np.broadcast_to(np.array([[lo], [hi]], dtype=float), (2, len(samples)))
    else:
        bounds = np.percentile(samples, [1.0, 99.0], axis=1)
    for i, (row, row_lo, row_hi) in enumerate(zip(samples, *bounds)):
        cells[i] = cell_indices(row, levels, float(row_lo), float(row_hi)) if row_lo < row_hi else 0
    return cells


def plugin_entropy_bits(counts):
    """Plug-in entropy, in bits, of the positive counts of ``counts``."""
    p = counts[counts > 0] / counts.sum()
    return float(-(p * np.log2(p)).sum())


def key_entropy_rate(samples, levels, lo=None, hi=None):
    """The key entropy rate of (P, T) samples: one bincount per stream and one ``np.unique`` of the joint cells."""
    P = samples.shape[0]
    cells = calibrated_cells(samples, levels, lo, hi)
    singles = np.array([plugin_entropy_bits(np.bincount(cells[i])) for i in range(P)])
    mean_single = float(singles.mean())
    if mean_single <= 0.0:
        raise ValueError("degenerate input: zero single-probe entropy")
    weights = levels ** np.arange(P, dtype=object)
    joint = (cells * np.asarray(weights, dtype=np.int64)[:, None]).sum(axis=0)
    _, joint_counts = np.unique(joint, return_counts=True)
    return plugin_entropy_bits(joint_counts) / mean_single


def jackknife_rate(samples, levels, sections=10):
    """An arm's key entropy rate and its leave-one-section-out jackknife stderr, one section at a time.

    Each estimate slices its kept blocks out of the (P, T) samples, removes
    each stream's mean, and scores them with :func:`key_entropy_rate`.  The
    sections are cut at ``np.linspace(0, T, sections + 1, dtype=int)``; the
    stderr is NaN below 2 blocks a section.
    """

    def rate(kept):
        return key_entropy_rate(kept - kept.mean(axis=-1, keepdims=True), levels)

    T = samples.shape[1]
    if T < 2 * sections:
        return rate(samples), float("nan")
    edges = np.linspace(0, T, sections + 1, dtype=int)
    estimates = np.array(
        [rate(np.concatenate([samples[:, : edges[j]], samples[:, edges[j + 1] :]], axis=1)) for j in range(sections)]
    )
    return rate(samples), float(np.sqrt((sections - 1) / sections * ((estimates - estimates.mean()) ** 2).sum()))


def toeplitz_hash(diagonals, bits):
    """Bits of the binary Toeplitz product ``privacy_amplify`` computes, by GF(2) shifts of one Python int.

    With ``n = len(bits)``, key bit ``i`` of the ``m = len(diagonals) - n + 1``
    is the parity of ``sum_j diagonals[i + n - 1 - j] * bits[j]``.  Bit k of
    ``D`` is ``diagonals[k]``, so bit i of ``D >> (n - 1 - j)`` is
    ``diagonals[i + n - 1 - j]``: the key is the XOR of those shifts over
    the set bits j, masked to m bits.
    """
    n = len(bits)
    m = len(diagonals) - n + 1
    D = int("".join(str(d) for d in reversed(np.asarray(diagonals).tolist())), 2)
    key = 0
    for j in np.flatnonzero(bits).tolist():
        key ^= D >> (n - 1 - j)
    key &= (1 << m) - 1
    return np.frombuffer(format(key, f"0{m}b")[::-1].encode(), dtype=np.uint8) - ord("0")


def cascade_bench_rows(cfg):
    """The cascade-bench rows of ``cfg``, each trial's data stream seeded on its own by ``seeds.generator``."""
    n = cfg.cascade.block_bits
    rows = []
    for case_idx, p in enumerate(cfg.cascade.error_rates):
        outcomes = np.empty((cfg.trials, 2))
        for trial_idx, seed in enumerate(_trial_seeds(cfg, case_idx, 0, cfg.trials).tolist()):
            rng = seeds.generator(seed, seeds.STREAM_BENCH_DATA)
            a = BitString(bits=rng.integers(0, 2, n, dtype=np.uint8))
            b = BitString(bits=a.bits ^ (rng.random(n) < p).astype(np.uint8))
            corrected, leaked = cascade(a, b, CascadeParams(passes=cfg.cascade.passes, seed=seed))
            outcomes[trial_idx] = leaked / n, 1.0 - bar(a, corrected)
        label = f"cascade_n{n}_p{p:g}"
        for metric, column in (("leak_fraction", 0), ("residual_mismatch", 1)):
            value, stderr = _mean_stderr(outcomes[:, column])
            rows.append(ResultRow(cfg.scenario, label, 0.0, metric, value, stderr, cfg.trials, cfg.master_seed))
    return rows
