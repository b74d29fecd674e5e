"""Key post-processing: extraction, quantization, reconciliation, amplification.

The pipeline stages operate on :class:`BitString` values (immutable 0/1 byte
arrays).  Cascade is the classic interactive protocol: per pass a shared
seeded permutation, fixed-size blocks, parity comparison, binary-search
correction of odd blocks, and back-tracking into earlier passes.  Leakage
accounting is a literal transcript count: one bit per revealed parity plus
any sacrificial calibration sample.
"""

from __future__ import annotations

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
        arr = arr.astype(np.uint8)
        if arr.size and arr.max() > 1:
            raise ValueError("bits must be 0 or 1")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "bits", arr)

    @classmethod
    def from_bits(cls, values) -> "BitString":
        return cls(bits=np.asarray(list(values), dtype=np.uint8))

    @classmethod
    def zeros(cls, n: int) -> "BitString":
        return cls(bits=np.zeros(n, dtype=np.uint8))

    def __len__(self) -> int:
        return int(self.bits.size)

    def __xor__(self, other: "BitString") -> "BitString":
        return xor_combine(self, other)

    def equals(self, other: "BitString") -> bool:
        return len(self) == len(other) and bool(np.array_equal(self.bits, other.bits))

    def __repr__(self) -> str:
        head = "".join(str(b) for b in self.bits[:32])
        tail = "..." if len(self) > 32 else ""
        return f"BitString({len(self)} bits: {head}{tail})"


def concat_bits(parts) -> BitString:
    arrays = [p.bits for p in parts]
    if not arrays:
        return BitString.zeros(0)
    return BitString(bits=np.concatenate(arrays))


def extract_randomness(samples) -> np.ndarray:
    """Remove the deterministic part of a probe stream: subtract the mean."""
    arr = np.asarray(samples, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot extract randomness from an empty stream")
    return arr - arr.mean()


@dataclass(frozen=True)
class QuantizerConfig:
    """Uniform multi-level quantizer with Gray bit labelling."""

    levels: int = 16
    lo: float | None = None
    hi: float | None = None
    coding: str = "gray"

    def __post_init__(self) -> None:
        if self.levels < 2 or (self.levels & (self.levels - 1)) != 0:
            raise ValueError(f"levels must be a power of two >= 2, got {self.levels}")
        if self.coding != "gray":
            raise ValueError(f"unsupported coding {self.coding!r}")

    @property
    def bits_per_sample(self) -> int:
        return int(self.levels).bit_length() - 1

    @classmethod
    def calibrated(
        cls, samples, levels: int = 16, lo_pct: float = 1.0, hi_pct: float = 99.0
    ) -> "QuantizerConfig":
        """Range from pooled calibration samples (1st-99th percentile)."""
        arr = np.asarray(samples, dtype=float)
        lo, hi = np.percentile(arr, [lo_pct, hi_pct])
        if not lo < hi:
            raise ValueError("degenerate quantizer range from calibration samples")
        return cls(levels=levels, lo=float(lo), hi=float(hi))


def cell_indices(samples, levels: int, lo: float, hi: float) -> np.ndarray:
    """Uniform-width cell index per sample over [lo, hi], clamped at edges."""
    if not lo < hi:
        raise ValueError(f"degenerate quantizer range [{lo}, {hi}]")
    arr = np.asarray(samples, dtype=float)
    idx = np.floor((arr - lo) / (hi - lo) * levels).astype(np.int64)
    return np.clip(idx, 0, levels - 1)


def gray_code(index: np.ndarray | int) -> np.ndarray | int:
    return index ^ (index >> 1)


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
    return pack_indices(gray_code(np.asarray(indices, dtype=np.int64)), width)


def quantize(samples, cfg: QuantizerConfig) -> BitString:
    """Quantize a real stream into Gray-coded bits, log2(levels) per sample."""
    if cfg.lo is None or cfg.hi is None:
        raise ValueError("quantizer range is unset; build the config via calibrated()")
    idx = cell_indices(samples, cfg.levels, cfg.lo, cfg.hi)
    return gray_encode_indices(idx, cfg.bits_per_sample)


def bar(a: BitString, b: BitString) -> float:
    """Bit agreement ratio; BDR = 1 - BAR."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    if len(a) == 0:
        raise ValueError("bit agreement of empty strings is undefined")
    return float(np.mean(a.bits == b.bits))


def xor_combine(a: BitString, b: BitString) -> BitString:
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return BitString(bits=np.bitwise_xor(a.bits, b.bits))


@dataclass(frozen=True)
class CascadeParams:
    """Cascade protocol knobs.

    ``initial_block=None`` sizes the first pass as ``ceil(0.73/p_est)`` with
    the error rate estimated on a sacrificial random sample of the strings;
    the sampled positions are revealed and counted as leaked.
    """

    passes: int = 4
    initial_block: int | None = None
    seed: int = 0
    sample_fraction: float = 0.1

    def __post_init__(self) -> None:
        if self.passes < 1:
            raise ValueError(f"passes must be >= 1, got {self.passes}")
        if self.initial_block is not None and self.initial_block < 1:
            raise ValueError(f"initial_block must be >= 1, got {self.initial_block}")
        if not 0.0 < self.sample_fraction < 1.0:
            raise ValueError("sample_fraction must be in (0, 1)")


def _parity_mismatch(a: np.ndarray, b: np.ndarray, positions: np.ndarray) -> bool:
    return bool((int(a[positions].sum()) ^ int(b[positions].sum())) & 1)


def _binary_search(a: np.ndarray, b: np.ndarray, positions: np.ndarray) -> tuple[int, int]:
    """Locate one mismatched position inside an odd-parity block.

    Returns (position, parities_revealed): each halving step reveals one
    parity bit of the reference string.
    """
    lo, hi = 0, positions.size
    revealed = 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        revealed += 1
        if _parity_mismatch(a, b, positions[lo:mid]):
            hi = mid
        else:
            lo = mid
    return int(positions[lo]), revealed


def cascade(a: BitString, b: BitString, params: CascadeParams) -> tuple[BitString, int]:
    """Reconcile ``b`` against reference ``a``; returns (corrected_b, leaked).

    Runs ``params.passes`` passes of permuted fixed-size blocks with doubling
    block size, binary-search correction, and back-tracking into every
    earlier pass containing a freshly corrected position.  ``leaked`` counts
    every parity bit the transcript would expose (plus the sacrificial
    sample when auto-sizing).  Residual mismatch is possible and is reported
    by a post-hoc :func:`bar` check, not an error.
    """
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    n = len(a)
    a_bits = a.bits.astype(np.int64)
    b_work = b.bits.astype(np.int64).copy()
    if n == 0:
        return BitString.zeros(0), 0

    rng = seeds.generator(params.seed, seeds.STREAM_CASCADE)
    leaked = 0

    if params.initial_block is None:
        m = max(1, math.ceil(params.sample_fraction * n))
        sample = rng.choice(n, size=m, replace=False)
        p_est = float(np.mean(a_bits[sample] != b_work[sample]))
        leaked += m
        block = n if p_est == 0.0 else min(n, math.ceil(0.73 / p_est))
    else:
        block = min(n, params.initial_block)

    # per pass: permutation, its blocks (position arrays), and position->block map
    pass_blocks: list[list[np.ndarray]] = []
    block_of: list[np.ndarray] = []

    def backtrack(flipped: int, skip: tuple[int, int]) -> None:
        nonlocal leaked
        # blocks whose parity state toggled; re-search smallest first
        heap: list[tuple[int, int, int]] = []
        seen: set[tuple[int, int]] = set()

        def push_containing(pos: int, skip_key: tuple[int, int]) -> None:
            for p_idx in range(len(pass_blocks)):
                key = (p_idx, int(block_of[p_idx][pos]))
                if key == skip_key or key in seen:
                    continue
                blk = pass_blocks[p_idx][key[1]]
                if _parity_mismatch(a_bits, b_work, blk):
                    seen.add(key)
                    heapq.heappush(heap, (blk.size, key[0], key[1]))

        push_containing(flipped, skip)
        while heap:
            _, p_idx, b_idx = heapq.heappop(heap)
            seen.discard((p_idx, b_idx))
            blk = pass_blocks[p_idx][b_idx]
            if not _parity_mismatch(a_bits, b_work, blk):
                continue  # an earlier correction already evened this block
            pos, revealed = _binary_search(a_bits, b_work, blk)
            leaked += revealed
            b_work[pos] ^= 1
            push_containing(pos, (p_idx, b_idx))

    for pass_idx in range(params.passes):
        perm = rng.permutation(n)
        size = min(n, block * (1 << pass_idx))
        blocks = [perm[i : i + size] for i in range(0, n, size)]
        pass_blocks.append(blocks)
        inv = np.empty(n, dtype=np.int64)
        inv[perm] = np.arange(n)
        block_of.append(inv // size)

        for b_idx, blk in enumerate(blocks):
            leaked += 1  # top-level block parity reveal
            if not _parity_mismatch(a_bits, b_work, blk):
                continue
            pos, revealed = _binary_search(a_bits, b_work, blk)
            leaked += revealed
            b_work[pos] ^= 1
            backtrack(pos, (pass_idx, b_idx))

    return BitString(bits=b_work.astype(np.uint8)), leaked


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
    the same hash from the public seed.
    """
    n = len(raw)
    m = max(0, n - leaked_bits - safety_margin)
    if m == 0:
        return KeyMaterial(BitString.zeros(0), leaked_bits, safety_margin)
    rng = seeds.generator(seed, seeds.STREAM_AMPLIFY)
    diagonals = rng.integers(0, 2, size=m + n - 1, dtype=np.int64)
    conv = np.convolve(diagonals, raw.bits.astype(np.int64))
    key_bits = (conv[n - 1 : n - 1 + m] & 1).astype(np.uint8)
    return KeyMaterial(BitString(bits=key_bits), leaked_bits, safety_margin)


def _plugin_entropy_bits(counts: np.ndarray) -> float:
    total = counts.sum()
    p = counts[counts > 0] / total
    return float(-(p * np.log2(p)).sum())


def _calibrated_cells(
    samples: np.ndarray, levels: int, lo: float | None = None, hi: float | None = None
) -> np.ndarray:
    """(P, T) cell indices of P streams, each on its own 1st-99th percentile range.

    An explicit ``lo``/``hi`` pair replaces every row's range.  A row whose
    range is degenerate maps entirely to cell 0.
    """
    cells = np.empty(samples.shape, dtype=np.int64)
    for i, row in enumerate(samples):
        if lo is not None and hi is not None:
            row_lo, row_hi = lo, hi
        else:
            row_lo, row_hi = np.percentile(row, [1.0, 99.0])
        cells[i] = cell_indices(row, levels, float(row_lo), float(row_hi)) if row_lo < row_hi else 0
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
    cells = _calibrated_cells(arr, cfg.levels, cfg.lo, cfg.hi)
    singles = np.array([_plugin_entropy_bits(np.bincount(cells[i])) for i in range(P)])
    mean_single = float(singles.mean())
    if mean_single <= 0.0:
        raise ValueError("degenerate input: zero single-probe entropy")

    weights = cfg.levels ** np.arange(P, dtype=object)
    if cfg.levels**P > 2**62:
        raise ValueError("joint alphabet too large to index")
    joint = (cells * np.asarray(weights, dtype=np.int64)[:, None]).sum(axis=0)
    _, joint_counts = np.unique(joint, return_counts=True)
    joint_entropy = _plugin_entropy_bits(joint_counts)
    return joint_entropy / mean_single
