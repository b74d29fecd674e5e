"""Key post-processing: extraction, quantization, reconciliation, amplification.

The pipeline stages operate on :class:`BitString` values (immutable 0/1 byte
arrays).  Cascade is the classic interactive protocol: per pass a shared
seeded permutation, fixed-size blocks, parity comparison, binary-search
correction of odd blocks, and back-tracking into earlier passes.  It works
on the XOR of the two strings.  The first pass searches all its odd blocks
at once, as one array computation.  From then on each pass keeps each of
its blocks of the XOR as one small Python int, toggled bit by bit on each
flip, so a block parity is the parity of a bit count.  A search halves
on bit counts; once one error is left, the rest of the search only
counts the parities it reveals.  A pass that starts with no error left
reveals only its top-level parities and draws nothing.
Leakage accounting is a literal transcript count: one bit per revealed
parity plus any sacrificial calibration sample.  The Toeplitz hash of
privacy amplification is an exact integer convolution through a real FFT.
An arm's key entropy rate and its ten leave-one-section-out re-estimates
come from one pass over one sort per stream, each bit for bit the
per-section estimate (:func:`_entropy_rates` says why).
"""

from __future__ import annotations

import array
import heapq
import math
from dataclasses import dataclass

import numpy as np

from . import seeds


class InsufficientSamplesError(ValueError):
    """Raised when an entropy estimate is requested from too few trials."""


@dataclass(frozen=True, eq=False)
class BitString:
    """Immutable packed bit sequence (one byte per bit, values 0/1)."""

    bits: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.bits)
        if arr.ndim != 1:
            raise ValueError("bits must be one-dimensional")
        arr = arr.astype(np.uint8)  # always a fresh copy
        if arr.size and arr.max() > 1:
            raise ValueError("bits must be 0 or 1")
        arr.setflags(write=False)
        object.__setattr__(self, "bits", arr)

    @classmethod
    def zeros(cls, n: int) -> "BitString":
        return cls(bits=np.zeros(n, dtype=np.uint8))

    def __len__(self) -> int:
        return int(self.bits.size)

    def __xor__(self, other: "BitString") -> "BitString":
        if len(self) != len(other):
            raise ValueError(f"length mismatch: {len(self)} vs {len(other)}")
        return BitString(bits=self.bits ^ other.bits)

    def equals(self, other: "BitString") -> bool:
        return len(self) == len(other) and bool(np.array_equal(self.bits, other.bits))


def extract_randomness(samples) -> np.ndarray:
    """Remove the deterministic part of a probe stream, or of each row of (P, T) streams: subtract its mean."""
    arr = np.asarray(samples, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot extract randomness from an empty stream")
    return arr - arr.mean(axis=-1, keepdims=True)


# the percentiles of a calibrated quantizer range
_CALIBRATION_PCT = (1.0, 99.0)


@dataclass(frozen=True)
class QuantizerConfig:
    """Uniform multi-level quantizer with Gray bit labelling; the range ``lo < hi`` is set, or calibrated per stream."""

    levels: int = 16
    lo: float | None = None
    hi: float | None = None

    def __post_init__(self) -> None:
        if self.levels < 2 or (self.levels & (self.levels - 1)) != 0:
            raise ValueError(f"levels must be a power of two >= 2, got {self.levels}")
        # cell indices are int64; 2**63 cells would overflow them
        if self.levels > 2**62:
            raise ValueError(f"levels={self.levels} exceeds 2**62: its cell indices overflow int64")
        if (self.lo is None) != (self.hi is None):
            raise ValueError(f"set both quantizer bounds or neither, got lo={self.lo}, hi={self.hi}")
        # written so that a NaN bound fails too
        if self.lo is not None and not self.lo < self.hi:
            raise ValueError(f"degenerate quantizer range [{self.lo}, {self.hi}]")

    @classmethod
    def calibrated(cls, samples, levels: int = 16) -> "QuantizerConfig":
        """Range from pooled calibration samples: their 1st-99th percentiles, from :func:`_calibration_range`."""
        lo, hi = _calibration_range(np.asarray(samples, dtype=float).ravel())
        return cls(levels=levels, lo=float(lo), hi=float(hi))


def bar(a: BitString, b: BitString) -> float:
    """Bit agreement ratio; BDR = 1 - BAR."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    if len(a) == 0:
        raise ValueError("bit agreement of empty strings is undefined")
    return float(np.mean(a.bits == b.bits))


# the share of the strings Cascade reveals to estimate their error rate
_SAMPLE_FRACTION = 0.1


@dataclass(frozen=True)
class CascadeParams:
    """Cascade protocol knobs.

    ``initial_block=None`` sizes the first pass as ``ceil(0.73/p_est)`` with
    the error rate estimated on a sacrificial random sample of 10% of the
    strings; the sampled positions are revealed and counted as leaked.
    """

    passes: int = 4
    initial_block: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.passes < 1:
            raise ValueError(f"passes must be >= 1, got {self.passes}")
        if self.initial_block is not None and self.initial_block < 1:
            raise ValueError(f"initial_block must be >= 1, got {self.initial_block}")


def _locate(x: int, length: int) -> tuple[int, int]:
    """Binary search of an odd block whose bit r is ``x >> r & 1``; returns (offset found, parities revealed).

    Each halving reveals the parity of the lower half.  Once the part left
    holds one set bit, the search only follows that bit down.
    """
    offset = revealed = 0
    while x.bit_count() > 1:
        half = length // 2
        revealed += 1
        low = x & ((1 << half) - 1)
        if low.bit_count() & 1:
            x, length = low, half
        else:
            x, length, offset = x >> half, length - half, offset + half
    r = x.bit_length() - 1
    while length > 1:
        half = length // 2
        revealed += 1
        if r < half:
            length = half
        else:
            r, length, offset = r - half, length - half, offset + half
    return offset, revealed


def _pack_blocks(bits: np.ndarray, size: int) -> list[int]:
    """Each ``size``-bit block of ``bits`` as an int (bit j of block c is ``bits[c*size + j]``); the last may be short."""
    count = -(-bits.size // size)
    words = -(-size // 64)  # each block padded to whole 64-bit words
    grid = np.zeros(count * size, dtype=np.uint8)
    grid[: bits.size] = bits
    padded = np.zeros((count, words * 64), dtype=np.uint8)
    padded[:, :size] = grid.reshape(count, size)
    raw = np.packbits(padded, bitorder="little").tobytes()
    if words == 1:
        return np.frombuffer(raw, dtype="<u8").tolist()
    step = 8 * words
    return [int.from_bytes(raw[i : i + step], "little") for i in range(0, len(raw), step)]


def _search_odd_blocks(bits: np.ndarray, size: int) -> tuple[np.ndarray, int]:
    """:func:`_locate` on every odd block of ``bits``, cut into blocks of ``size``, at once.

    Returns (offsets into ``bits`` of the found positions, parities revealed).
    """
    n = bits.size
    count = -(-n // size)
    padded = np.zeros(count * size, dtype=np.uint8)
    padded[:n] = bits
    # parity[b, k]: the parity of the first k bits of block b
    parity = np.zeros((count, size + 1), dtype=np.uint8)
    np.bitwise_xor.accumulate(padded.reshape(count, size), axis=1, out=parity[:, 1:])
    rows = np.flatnonzero(parity[:, -1])
    lo = np.zeros(rows.size, dtype=np.int64)
    hi = np.minimum(size, n - rows * size)  # the last block may be short
    revealed = 0
    # a finished search has hi = lo + 1, so mid = lo leaves it as it is
    while steps := np.count_nonzero(hi - lo > 1):
        revealed += steps
        mid = (lo + hi) // 2
        left = parity[rows, mid] != parity[rows, lo]
        hi = np.where(left, mid, hi)
        lo = np.where(left, lo, mid)
    return rows * size + lo, revealed


def cascade(a: BitString, b: BitString, params: CascadeParams) -> tuple[BitString, int]:
    """Reconcile ``b`` against reference ``a``; returns (corrected_b, leaked).

    Runs ``params.passes`` passes of permuted fixed-size blocks with doubling
    block size, binary-search correction, and back-tracking into every
    earlier pass containing a freshly corrected position.  ``leaked`` counts
    every parity bit the transcript would expose (plus the sacrificial
    sample when auto-sizing).  Residual mismatch is possible and is reported
    by a post-hoc :func:`bar` check, not an error.

    The work is done on ``diff = a ^ b``.  The first pass has disjoint
    blocks and no earlier pass to back-track into, so it searches all its
    odd blocks at once.  Later passes go block by block, because their
    back-tracking depends on the order.  Each pass keeps each of its blocks
    as one small int (bit j of block c is ``diff[perm[c*size + j]]``) and
    its position->rank map.  A search reads its block's int
    (:func:`_locate`); a flip toggles one bit in one block of every pass,
    and queues each block it leaves odd, smallest first.  A flip only
    ever removes an error, so a pass that starts with none left reveals
    its top-level parities and nothing else: it draws no permutation, and
    nothing reads the stream after it.
    """
    # a ^ b checks the lengths; diff views a bytearray, where one bit flips fast
    buf = bytearray((a ^ b).bits)
    diff = np.frombuffer(buf, dtype=np.uint8)
    n = diff.size
    if n == 0:
        return BitString.zeros(0), 0

    rng = seeds.generator(params.seed, seeds.STREAM_CASCADE)
    leaked = 0

    if params.initial_block is None:
        m = max(1, math.ceil(_SAMPLE_FRACTION * n))
        sample = rng.choice(n, size=m, replace=False)
        p_est = np.count_nonzero(diff[sample]) / m
        leaked += m
        block = n if p_est == 0.0 else min(n, math.ceil(0.73 / p_est))
    else:
        block = min(n, params.initial_block)

    # per pass: the rank->position and position->rank maps (int64
    # array.array: fast to index from Python), block size, block lengths
    # (the last block is short when the size does not divide n), the blocks
    # as ints, and which blocks are queued
    perms, ranks, sizes, lengths, blocks, queued = [], [], [], [], [], []
    # (length, offset) -> _locate of a block whose one error is at offset
    lone: dict[tuple[int, int], tuple[int, int]] = {}
    errors = int(np.count_nonzero(diff))
    inv = np.empty(n, dtype=np.int64)

    for pass_idx in range(params.passes):
        size = min(n, block * (1 << pass_idx))
        count = -(-n // size)
        leaked += count  # top-level block parity reveals
        if not errors:
            # every block is even and stays so: nothing to draw or search
            continue
        perm = rng.permutation(n)
        bits = diff[perm]
        if pass_idx == 0:
            found, revealed = _search_odd_blocks(bits, size)
            leaked += int(revealed)
            errors -= found.size
            bits[found] ^= 1  # every odd block ends even
            diff[perm[found]] ^= 1
        inv[perm] = np.arange(n)
        perms.append(array.array("q", perm.tobytes()))
        ranks.append(array.array("q", inv.tobytes()))
        sizes.append(size)
        lengths.append([size] * count)
        lengths[-1][-1] = n - (count - 1) * size
        blocks.append(_pack_blocks(bits, size))
        queued.append(bytearray(count))
        live = tuple(range(pass_idx + 1))

        # read live: back-tracking may even out a later block of this pass
        # (the first pass has evened all of its blocks already)
        for b_idx in range(count if pass_idx else 0):
            if not blocks[pass_idx][b_idx].bit_count() & 1:
                continue
            # odd blocks to search, shortest first, then by pass and block
            heap = [(lengths[pass_idx][b_idx], pass_idx, b_idx)]
            while heap:
                length, p_idx, blk = heapq.heappop(heap)
                queued[p_idx][blk] = 0
                x = blocks[p_idx][blk]
                if not x.bit_count() & 1:
                    continue  # an earlier correction already evened this block
                if x & (x - 1):
                    offset, revealed = _locate(x, length)
                else:
                    key = (length, x.bit_length() - 1)
                    if key not in lone:
                        lone[key] = _locate(x, length)
                    offset, revealed = lone[key]
                leaked += revealed
                errors -= 1
                pos = perms[p_idx][blk * sizes[p_idx] + offset]
                buf[pos] ^= 1
                # flip pos in every pass, and queue each block it leaves odd
                for q_idx in live:
                    c_idx, j = divmod(ranks[q_idx][pos], sizes[q_idx])
                    blocks_q = blocks[q_idx]
                    x = blocks_q[c_idx] ^ (1 << j)
                    blocks_q[c_idx] = x
                    if x.bit_count() & 1 and not queued[q_idx][c_idx]:
                        queued[q_idx][c_idx] = 1
                        heapq.heappush(heap, (lengths[q_idx][c_idx], q_idx, c_idx))

    return BitString(bits=a.bits ^ diff), leaked


@dataclass(frozen=True)
class KeyMaterial:
    """Final key with leakage accounting."""

    key: BitString
    leaked_bits: int
    safety_margin: int


def privacy_amplify(
    raw: BitString, leaked_bits: int, safety_margin: int = 32, seed: int = 0
) -> KeyMaterial:
    """Compress ``raw`` with a seeded binary Toeplitz hash.

    Output length is ``max(0, n - leaked_bits - safety_margin)``; the
    Toeplitz diagonals come from the seeded stream, so both parties derive
    the same hash from the public seed.  The matrix product is a
    convolution, computed exactly with a real FFT of power-of-two length.
    """
    n = len(raw)
    m = max(0, n - leaked_bits - safety_margin)
    if m == 0:
        return KeyMaterial(BitString.zeros(0), leaked_bits, safety_margin)
    rng = seeds.generator(seed, seeds.STREAM_AMPLIFY)
    diagonals = rng.integers(0, 2, size=m + n - 1, dtype=np.int64)
    # the key is entries n-1 .. n+m-2 of the linear convolution; a cyclic one
    # of length >= m+n-1 wraps only onto the entries before them.  Each entry
    # is an integer <= n, and the FFT's rounding error stays far below 1/2
    size = 1 << (m + n - 2).bit_length()
    conv = np.fft.irfft(np.fft.rfft(diagonals, size) * np.fft.rfft(raw.bits, size), size)
    key_bits = (np.rint(conv[n - 1 : n - 1 + m]).astype(np.int64) & 1).astype(np.uint8)
    return KeyMaterial(BitString(bits=key_bits), leaked_bits, safety_margin)


def _calibration_range(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 1st and 99th percentiles of each row (last axis) of ``samples``.

    This is ``np.percentile(samples, _CALIBRATION_PCT, axis=-1)`` by numpy's
    ``linear`` rule, read off one sort in place of its partition.  A row
    holding a NaN has a NaN range.  Only the sign of a zero can differ from
    numpy's (a tie of 0.0 and -0.0 may sort either way); no cell reads it.
    """
    ordered = np.sort(samples, axis=-1)
    return _percentiles(lambda rank: ordered[..., rank], np.array(ordered.shape[-1]))


def _percentiles(value_at, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_calibration_range` of rows of ``n`` values; ``value_at`` gives their values at a last axis of ranks."""
    virtual = (n[..., None] - 1) * (np.array(_CALIBRATION_PCT) / 100)
    below, weight = np.floor(virtual).astype(np.int64), virtual - np.floor(virtual)
    # the ranks below and above each percentile, and the largest
    ranks = np.concatenate([below, np.minimum(below + 1, n[..., None] - 1), n[..., None] - 1], -1)
    a, b, top = np.split(value_at(ranks), [2, 4], -1)
    # numpy's _lerp, which takes the upper end for weights of 1/2 and up
    bound = np.where(weight >= 0.5, b - (b - a) * (1 - weight), a + (b - a) * weight)
    bound = np.where(np.isnan(top), top, bound)
    return bound[..., 0], bound[..., 1]


def _calibrated_cells(samples: np.ndarray, levels: int, lo=None, hi=None) -> np.ndarray:
    """(P, T) cell indices of P streams, each on its own 1st-99th percentile range.

    The ranges come from :func:`_calibration_range`, one sort per row; an
    explicit ``lo``/``hi`` pair (or arrays of them, broadcast against the
    samples) replaces them.  A sample's cell is
    ``floor((x - lo) / (hi - lo) * levels)``, clipped to ``0 .. levels-1``,
    so the cells rise with x, infs included.  A row whose range is
    degenerate maps entirely to cell 0, without a warning.
    """
    if lo is None or hi is None:
        lo, hi = (bound[:, None] for bound in _calibration_range(samples))
    ok = np.less(lo, hi)
    # a degenerate row is scaled on the range [0, 1] and then zeroed, so it
    # cannot divide by zero and no NaN or inf of it reaches the integer cast
    lo = np.where(ok, lo, 0.0)
    scaled = samples - lo
    scaled /= np.where(ok, hi, 1.0) - lo
    scaled *= levels
    if not ok.all():
        np.copyto(scaled, 0.0, where=~ok)
    # no value overflows the cast, whose truncation is floor on 0 .. levels
    cells = np.clip(scaled, 0.0, levels, out=scaled).astype(np.int64)
    return np.clip(cells, 0, levels - 1, out=cells)


def _gray_cells(samples: np.ndarray, levels: int, lo=None, hi=None) -> np.ndarray:
    """The Gray codes of :func:`_calibrated_cells`: the key symbols of a baseline or multires party, log2(levels) bits each."""
    cells = _calibrated_cells(samples, levels, lo, hi)
    cells ^= cells >> 1
    return cells


def key_entropy_rate(
    samples, cfg: QuantizerConfig, min_trials: int = 2000
) -> float:
    """Joint-over-mean-single entropy ratio of quantized probe values.

    ``samples`` is a (P, T) matrix: P probe streams observed over T trials.
    Each stream is quantized on its own calibrated range unless ``cfg``
    carries an explicit one.  Returns a value in [1, P] (1 = fully
    redundant probes, P = fully independent).
    """
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 2:
        raise ValueError("samples must be a (P, T) matrix")
    P, T = arr.shape
    if P < 1:
        raise ValueError("need at least one probe stream")
    if T < min_trials:
        raise InsufficientSamplesError(
            f"plug-in entropy needs at least {min_trials} trials, got {T}"
        )
    return float(_entropy_rates(arr, cfg.levels, centre=False, lo=cfg.lo, hi=cfg.hi)[0])


def _entropy_rates(samples: np.ndarray, levels: int, sections: int = 0, centre: bool = True, lo=None, hi=None):
    """Key entropy rates of (P, T) samples: entry 0 over all T blocks, entry j + 1 over all but section j.

    The sections are cut at ``np.linspace(0, T, sections + 1, dtype=int)``.
    Each rate is, bit for bit, :func:`key_entropy_rate` of its kept blocks,
    each stream mean-removed as :func:`extract_randomness` does it when
    ``centre``, on the quantizer range ``lo``/``hi`` if given.  One pass
    serves every variant, exactly: its means sum its kept blocks in their
    order; ``x -> fl(x - m)`` is monotone, so its calibration ranks are read
    off one sort per stream less ``m``; its cells rise along that sort, so
    they are runs whose lengths are its counts in ascending cell order, and
    no array is sized by ``levels``; each entropy sums its terms as numpy
    sums them alone.
    """
    P, T = samples.shape
    if T < 1:
        raise InsufficientSamplesError("an entropy rate needs at least one block, got 0")
    if np.isnan(samples).any():
        raise ValueError("samples hold a NaN")
    edges = np.linspace(0, T, sections + 1, dtype=int)
    # variant v leaves out blocks first[v] .. stop[v] - 1 (variant 0 none); label[t] leaves out block t
    first, stop = np.append(0, edges[:-1]), np.append(0, edges[1:])
    V, n, t = first.size, T - (stop - first), np.arange(T)
    label = np.searchsorted(edges, t, side="right")
    means = np.zeros((P, V))
    for v in range(V if centre else 0):
        means[:, v] = np.concatenate([samples[:, : first[v]], samples[:, stop[v] :]], axis=1).mean(axis=-1)
    order = np.argsort(samples, axis=-1)
    ordered = np.take_along_axis(samples, order, -1)
    # each stream's sorted positions grouped by the variant leaving them out,
    # ascending (a group spans its section's indices), offset per row
    # (stream, variant) into one ascending array that one search counts in
    stream = np.arange(P)[:, None] * (V + 1)
    dropped = np.argsort(label.astype(np.int16)[order], axis=-1, kind="stable") + (stream + label) * (2 * T)
    offset, start = (stream + np.arange(V)) * (2 * T), np.arange(P)[:, None] * T + first
    if lo is None or hi is None:
        # less its index in its group, a left-out position counts the kept
        # blocks before it: kept rank r is r places past those with r or fewer
        kept_below = (dropped - (t - edges[label - 1])).ravel()

        def value_at(rank):
            at = rank + np.searchsorted(kept_below, rank + offset[..., None], side="right") - start[..., None]
            return np.take_along_axis(ordered, at.reshape(P, -1), -1).reshape(at.shape) - means[..., None]

        lo, hi = _percentiles(value_at, n)
    else:
        lo, hi = np.full((2, P, V), [[[lo]], [[hi]]], dtype=float)
    dropped, offset = dropped.ravel(), offset.ravel()
    # each run's count is its kept blocks, up to its row's next run or end
    row, position, cell = _cell_runs(ordered, means, lo, hi, levels)
    end = np.where(np.append(row[1:] != row[:-1], True), T, np.append(position[1:], T))
    kept = np.searchsorted(dropped, np.concatenate([position, end]) + np.tile(offset[row], 2))
    count = end - position - (kept[row.size :] - kept[: row.size])
    prob = count[count > 0] / n[row[count > 0] % V]
    terms, lengths = prob * np.log2(prob), np.bincount(row[count > 0], minlength=P * V)
    single, ends = np.empty(P * V), np.cumsum(lengths)
    for k in sorted(set(lengths.tolist())):
        # numpy sums a row's terms by their number, so rows of one length are summed together
        alike = np.flatnonzero(lengths == k)
        single[alike] = -terms[(ends[alike] - k)[:, None] + np.arange(k)].sum(axis=-1)
    mean_single = single.reshape(P, V).T.copy().mean(axis=-1)
    if (mean_single <= 0.0).any():
        raise ValueError("degenerate input: zero single-probe entropy")
    if levels**P > 2**62:
        raise ValueError("joint alphabet too large to index")
    # the runs spelled out, in time order summed into the joint cells; a
    # variant's left-out blocks then sort first, as -1
    joint = np.zeros((V, T), dtype=np.int32 if levels**P <= 2**31 else np.int64)
    weighted = (cell * levels ** (row // V)).astype(joint.dtype)
    inverse = np.empty_like(order)
    np.put_along_axis(inverse, order, t, axis=-1)
    for p, (a, b) in enumerate(np.searchsorted(row, np.arange(P)[:, None] * V + [0, V])):
        joint += np.take(np.repeat(weighted[a:b], (end - position)[a:b]).reshape(V, T), inverse[p], axis=1)
    joint[label == np.arange(V)[:, None]] = -1
    joint.sort(axis=-1)
    # a run starts at a row's start and wherever the cell changes, as at its first kept block
    rises = np.ones((V, T + 1), dtype=bool)
    np.not_equal(joint[:, 1:], joint[:, :-1], out=rises[:, 1:-1])
    entropy = np.empty(V)
    for v in range(V):
        prob = np.diff(np.flatnonzero(rises[v, stop[v] - first[v] :])) / n[v]
        entropy[v] = -(prob * np.log2(prob)).sum()
    return entropy / mean_single


def _cell_runs(ordered: np.ndarray, means: np.ndarray, lo: np.ndarray, hi: np.ndarray, levels: int):
    """(row, start, cell) of each run of equal cells along the (P, T) sorted streams, ordered by row and start.

    Row ``p * V + v`` holds stream p's cells on the mean and range ``[p, v]``
    of the (P, V) ``means``, ``lo`` and ``hi``.  The cells rise along the
    sort: they are evaluated on a grid (64 steps were the fastest on 2000
    blocks), and each interval whose end cells differ is halved, keeping
    the halves whose ends differ, until it is one position long and ends
    on a rise.
    """
    (P, T), V = ordered.shape, means.shape[1]
    rows, ordered, means, lo, hi = np.arange(P * V), ordered.ravel(), means.ravel(), lo.ravel(), hi.ravel()

    def cells_at(row, i):
        return _calibrated_cells(ordered[row // V * T + i] - means[row], levels, lo[row], hi[row])

    step = max(1, T // 64)
    grid = np.arange(0, T, step)
    if grid[-1] != T - 1:
        grid = np.append(grid, T - 1)
    on_grid = cells_at(rows[:, None], grid)
    row, k = np.nonzero(on_grid[:, 1:] != on_grid[:, :-1])
    # (row, low end, high end, cell at the low end, cell at the high end)
    halving = np.stack([row, grid[k], grid[k + 1], on_grid[row, k], on_grid[row, k + 1]])
    for _ in range((step - 1).bit_length()):
        mid = (halving[1] + halving[2]) // 2
        cell, k = cells_at(halving[0], mid), halving.shape[1]
        halving = np.concatenate([halving, halving], axis=1)
        halving[2, :k] = halving[1, k:] = mid
        halving[4, :k] = halving[3, k:] = cell
        halving = halving[:, halving[3] != halving[4]]
    runs = np.concatenate([np.stack([rows, 0 * rows, on_grid[:, 0]]), halving[::2]], axis=1)
    return runs[:, np.argsort(runs[0] * T + runs[1])]
