"""Key post-processing: extraction, quantization, reconciliation, amplification.

The pipeline stages operate on :class:`BitString` values (immutable 0/1 byte
arrays).  Cascade is the classic interactive protocol: per pass a shared
seeded permutation, fixed-size blocks, parity comparison, binary-search
correction of odd blocks, and back-tracking into earlier passes.  It works
on the XOR of the two strings and keeps one block-parity array per pass,
toggled on each flip, so every block parity is a lookup; the binary search
reads its halvings off a prefix sum of the block; the first pass searches
all its odd blocks at once, as one array computation.  Leakage accounting
is a literal transcript count: one bit per revealed parity plus any
sacrificial calibration sample.  The Toeplitz hash of privacy amplification
is an exact integer convolution through a real FFT.
"""

from __future__ import annotations

import array
import heapq
import itertools
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

    def __repr__(self) -> str:
        head = "".join(str(b) for b in self.bits[:32])
        tail = "..." if len(self) > 32 else ""
        return f"BitString({len(self)} bits: {head}{tail})"


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
        if (self.lo is None) != (self.hi is None):
            raise ValueError(f"set both quantizer bounds or neither, got lo={self.lo}, hi={self.hi}")
        # written so that a NaN bound fails too
        if self.lo is not None and not self.lo < self.hi:
            raise ValueError(f"degenerate quantizer range [{self.lo}, {self.hi}]")

    @property
    def bits_per_sample(self) -> int:
        return int(self.levels).bit_length() - 1

    @classmethod
    def calibrated(cls, samples, levels: int = 16) -> "QuantizerConfig":
        """Range from pooled calibration samples: their 1st-99th percentiles, from :func:`_calibration_range`."""
        lo, hi = _calibration_range(np.asarray(samples, dtype=float).ravel())
        return cls(levels=levels, lo=float(lo), hi=float(hi))


def pack_indices(indices, width: int) -> BitString:
    """Fixed-width binary encoding, MSB first, concatenated."""
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= (1 << width)):
        raise ValueError(f"index out of range for width {width}")
    shifts = np.arange(width - 1, -1, -1)
    bits = (idx[:, None] >> shifts[None, :]) & 1
    return BitString(bits=bits.astype(np.uint8).ravel())


def gray_encode_indices(indices, width: int) -> BitString:
    """Gray-coded fixed-width encoding of integer indices."""
    idx = np.asarray(indices, dtype=np.int64)
    return pack_indices(idx ^ (idx >> 1), width)


def quantize(samples, cfg: QuantizerConfig) -> BitString:
    """Quantize a real stream into Gray-coded bits, log2(levels) per sample."""
    if cfg.lo is None:
        raise ValueError("quantizer range is unset; build the config via calibrated()")
    idx = _calibrated_cells(np.asarray(samples, dtype=float)[None], cfg.levels, cfg.lo, cfg.hi)[0]
    return gray_encode_indices(idx, cfg.bits_per_sample)


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


def _binary_search(diff: np.ndarray, positions: np.ndarray) -> tuple[int, int]:
    """Locate one mismatched position inside an odd-parity block.

    ``diff`` is the XOR of the two strings.  Returns (position,
    parities_revealed): each halving step reveals one parity bit of the
    reference string, read off a prefix sum of ``diff`` over the block.
    """
    prefix = list(itertools.accumulate(diff[positions].tolist(), initial=0))
    lo, hi = 0, positions.size
    revealed = 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        revealed += 1
        if (prefix[mid] - prefix[lo]) & 1:
            hi = mid
        else:
            lo = mid
    return int(positions[lo]), revealed


def _search_odd_blocks(bits: np.ndarray, size: int) -> tuple[np.ndarray, int]:
    """:func:`_binary_search` on every odd block of ``bits``, cut into blocks of ``size``, at once.

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

    The work is done on ``diff = a ^ b``: each pass keeps the parity of
    ``diff`` over each of its blocks, and every flip toggles the entry of
    the block holding the flipped position in every pass built so far.  The
    first pass has disjoint blocks and no earlier pass to back-track into,
    so it searches all its odd blocks at once; later passes go block by
    block, because their back-tracking depends on the order.
    """
    # a ^ b checks the lengths; its bits are read-only, so flip a copy
    diff = (a ^ b).bits.copy()
    n = diff.size
    if n == 0:
        return BitString.zeros(0), 0

    rng = seeds.generator(params.seed, seeds.STREAM_CASCADE)
    leaked = 0

    if params.initial_block is None:
        m = max(1, math.ceil(_SAMPLE_FRACTION * n))
        sample = rng.choice(n, size=m, replace=False)
        p_est = float(np.mean(diff[sample]))
        leaked += m
        block = n if p_est == 0.0 else min(n, math.ceil(0.73 / p_est))
    else:
        block = min(n, params.initial_block)

    # per pass: permutation, block size, position->block map (an int64
    # array.array: compact, and fast to index from Python), block parities
    perms: list[np.ndarray] = []
    sizes: list[int] = []
    block_of: list[array.array] = []
    odd: list[list[int]] = []

    def positions(p_idx: int, b_idx: int) -> np.ndarray:
        size = sizes[p_idx]
        return perms[p_idx][b_idx * size : (b_idx + 1) * size]

    def flip(pos: int) -> None:
        diff[pos] ^= 1
        for p_idx in range(len(odd)):
            odd[p_idx][block_of[p_idx][pos]] ^= 1

    def backtrack(flipped: int, skip: tuple[int, int]) -> None:
        nonlocal leaked
        # blocks whose parity state toggled; re-search smallest first
        heap: list[tuple[int, int, int]] = []
        seen: set[tuple[int, int]] = set()

        def push_containing(pos: int, skip_key: tuple[int, int]) -> None:
            for p_idx in range(len(odd)):
                b_idx = block_of[p_idx][pos]
                key = (p_idx, b_idx)
                if key == skip_key or key in seen:
                    continue
                if odd[p_idx][b_idx]:
                    seen.add(key)
                    # keyed by real length: the last block is short when
                    # size does not divide n
                    size = sizes[p_idx]
                    heapq.heappush(heap, (min(size, n - b_idx * size), p_idx, b_idx))

        push_containing(flipped, skip)
        while heap:
            _, p_idx, b_idx = heapq.heappop(heap)
            seen.discard((p_idx, b_idx))
            if not odd[p_idx][b_idx]:
                continue  # an earlier correction already evened this block
            pos, revealed = _binary_search(diff, positions(p_idx, b_idx))
            leaked += revealed
            flip(pos)
            push_containing(pos, (p_idx, b_idx))

    for pass_idx in range(params.passes):
        perm = rng.permutation(n)
        size = min(n, block * (1 << pass_idx))
        starts = np.arange(0, n, size)
        inv = np.empty(n, dtype=np.int64)
        inv[perm] = np.arange(n)
        perms.append(perm)
        sizes.append(size)
        block_of.append(array.array("q", (inv // size).tobytes()))
        leaked += len(starts)  # top-level block parity reveals
        if pass_idx == 0:
            # every odd block ends even
            found, revealed = _search_odd_blocks(diff[perm], size)
            leaked += revealed
            diff[perm[found]] ^= 1
            odd.append([0] * len(starts))
            continue
        odd.append((np.add.reduceat(diff[perm], starts) & 1).tolist())

        # read live: back-tracking may even out a later block of this pass
        for b_idx in range(len(starts)):
            if not odd[pass_idx][b_idx]:
                continue
            pos, revealed = _binary_search(diff, positions(pass_idx, b_idx))
            leaked += revealed
            flip(pos)
            backtrack(pos, (pass_idx, b_idx))

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


def _plugin_entropy_bits(counts: np.ndarray) -> float:
    total = counts.sum()
    p = counts[counts > 0] / total
    return float(-(p * np.log2(p)).sum())


def _calibration_range(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 1st and 99th percentiles of each row (last axis) of ``samples``.

    This is ``np.percentile(samples, _CALIBRATION_PCT, axis=-1)`` by numpy's
    ``linear`` rule, read off one sort in place of its partition.  A row
    holding a NaN has a NaN range.  Only the sign of a zero can differ from
    numpy's (a tie of 0.0 and -0.0 may sort either way); no cell reads it.
    """
    ordered = np.sort(samples, axis=-1)
    n = ordered.shape[-1]
    has_nan = np.isnan(ordered[..., -1])
    bounds = []
    for pct in _CALIBRATION_PCT:
        virtual = (n - 1) * (pct / 100)
        below = math.floor(virtual)
        weight = virtual - below
        a, b = ordered[..., below], ordered[..., min(below + 1, n - 1)]
        # numpy's _lerp, which takes the upper end for weights of 1/2 and up
        step = b - a
        bound = b - step * (1 - weight) if weight >= 0.5 else a + step * weight
        bounds.append(np.where(has_nan, ordered[..., -1], bound))
    return bounds[0], bounds[1]


def _calibrated_cells(
    samples: np.ndarray, levels: int, lo: float | None = None, hi: float | None = None
) -> np.ndarray:
    """(P, T) cell indices of P streams, each on its own 1st-99th percentile range.

    The ranges come from :func:`_calibration_range`, one sort per row; an
    explicit ``lo``/``hi`` pair replaces every row's range.  A sample's
    cell is ``floor((x - lo) / (hi - lo) * levels)``, clipped to
    ``0 .. levels-1``.  A row whose range is degenerate maps entirely to
    cell 0, without a warning.
    """
    if lo is not None and hi is not None:
        lo, hi = np.array([[lo], [hi]], dtype=float)[:, None]
    else:
        lo, hi = (bound[:, None] for bound in _calibration_range(samples))
    ok = lo < hi
    # a degenerate row is scaled on the range [0, 1] and then zeroed, so it
    # cannot divide by zero and no NaN or inf of it reaches the integer cast
    lo = np.where(ok, lo, 0.0)
    scaled = samples - lo
    scaled /= np.where(ok, hi, 1.0) - lo
    scaled *= levels
    np.floor(scaled, out=scaled)
    np.copyto(scaled, 0.0, where=~ok)
    cells = scaled.astype(np.int64)
    return np.clip(cells, 0, levels - 1, out=cells)


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
    return _cells_entropy_rate(_calibrated_cells(arr, cfg.levels, cfg.lo, cfg.hi), cfg.levels)


def _cells_entropy_rate(cells: np.ndarray, levels: int) -> float:
    """:func:`key_entropy_rate` of (P, T) cell indices, each in ``0 .. levels-1``."""
    P = cells.shape[0]
    # every stream's cell counts from one bincount, stream i on bins i*levels ..
    counts = np.bincount((cells + levels * np.arange(P)[:, None]).ravel(), minlength=P * levels)
    singles = np.array([_plugin_entropy_bits(row) for row in counts.reshape(P, levels)])
    mean_single = float(singles.mean())
    if mean_single <= 0.0:
        raise ValueError("degenerate input: zero single-probe entropy")

    weights = levels ** np.arange(P, dtype=object)
    if levels**P > 2**62:
        raise ValueError("joint alphabet too large to index")
    joint = (cells * np.asarray(weights, dtype=np.int64)[:, None]).sum(axis=0)
    _, joint_counts = np.unique(joint, return_counts=True)
    joint_entropy = _plugin_entropy_bits(joint_counts)
    return joint_entropy / mean_single
