"""Steering beams, phase-quantized weights, and hierarchical codebooks.

A beam is a unit-norm complex weight vector, a plain ``(N,)`` array,
applied with the transpose pairing ``w^T a`` (see the probing module), so
the matched beam toward a direction is the elementwise conjugate of the
array response.  Codebook beams are realized as single analog
phase-shifter vectors (the single-RF chain case); the digital stage is a
scalar.  A codebook is one ``(C, N)`` weight matrix with a ``(C, 2)``
array of (level, index) ids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .channel import ArrayGeometry, ChannelRealization, array_response, channel_matrix

DEFAULT_DELTA_MAX = float(np.radians(2.0))
# the phase resolution of every codebook and sector beam's shifters
_PHASE_BITS = 6


class SelectionInfeasibleError(ValueError):
    """Raised when fewer than the requested beams fit the gain window."""


def steering_beamformer(geom: ArrayGeometry, az: float, el: float = 0.0) -> np.ndarray:
    """Matched beam toward (az, el): conjugate of the array response."""
    return np.conj(array_response(geom, az, el))


def quantize_phases(w: np.ndarray, bits: int) -> np.ndarray:
    """Project onto constant-modulus weights with phases on the 2**bits grid."""
    if bits < 1:
        raise ValueError(f"bits must be >= 1, got {bits}")
    w = np.asarray(w)
    step = 2.0 * np.pi / (1 << bits)
    k = np.round(np.angle(w) / step).astype(int) % (1 << bits)
    q = np.exp(1j * step * k) / np.sqrt(w.size)
    return q / np.linalg.norm(q)


def _sector_bounds(level, index):
    """(lo, hi) of the sine sector of codeword (level, index); elementwise over int arrays.

    Dyadic boundaries are exact in binary floating point.
    """
    count = 1 << level
    return -1.0 + 2.0 * index / count, -1.0 + 2.0 * (index + 1) / count


@dataclass(frozen=True, eq=False)
class Codebook:
    """Hierarchical multi-resolution beam codebook over sine space [-1, 1).

    Level ``s`` (1-based) holds ``2**s`` codewords; codeword ``k`` covers the
    sine sector ``[-1 + 2k/2**s, -1 + 2(k+1)/2**s)``.  Row ``c`` of the
    read-only ``weights`` (C, N) is the codeword whose (level, index) is row
    ``c`` of the read-only ``ids`` (C, 2), in level-then-index order.
    """

    geom: ArrayGeometry
    depth: int
    weights: np.ndarray
    ids: np.ndarray

    def __post_init__(self) -> None:
        for name in ("weights", "ids"):
            value = np.array(getattr(self, name))
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    def codeword(self, level: int, index: int) -> np.ndarray:
        if not 1 <= level <= self.depth:
            raise ValueError(f"level {level} outside 1..{self.depth}")
        if not 0 <= index < 1 << level:
            raise ValueError(f"index {index} outside level {level}")
        # levels 1 .. level-1 hold 2 + 4 + ... + 2**(level-1) rows
        return self.weights[(1 << level) - 2 + index]

    @staticmethod
    def sector(level: int, index: int) -> tuple[float, float]:
        if not 0 <= index < 1 << level:
            raise ValueError(f"index {index} outside level {level}")
        return _sector_bounds(level, index)

    def __len__(self) -> int:
        return len(self.weights)


def sector_beamformer(geom: ArrayGeometry, lo: float, hi: float) -> np.ndarray:
    """Constant-modulus wide beam covering the sine sector [lo, hi).

    ``lo = -1, hi = 1`` yields a quasi-omnidirectional pattern; the
    hierarchical codebook uses the same construction per sector.  The beam
    sums the steering vectors of a sine grid with one point per DFT bin of
    the sector, ``max(1, int(cols * (hi - lo) / 2))`` points, and quantizes
    the phases to 6 bits.

    The raw sum self-cancels: adjacent Dirichlet kernels arrive anti-phase
    because each steering vector's pattern carries the linear phase
    exp(i*(N-1)*pi/2*(u - s_j)).  Each term is therefore rotated by its
    stationary-phase coefficient before summing, which makes the in-sector
    kernels add coherently while keeping the construction solver-free.
    """
    if not -1.0 <= lo < hi <= 1.0:
        raise ValueError(f"invalid sector [{lo}, {hi})")
    points = max(1, int(geom.cols * (hi - lo) / 2))
    sines = lo + (hi - lo) * (np.arange(points) + 0.5) / points
    centers = (np.arange(points) + 0.5) * geom.cols / points
    du = (hi - lo) / points
    phases = np.zeros(points)
    for j in range(1, points):
        phases[j] = phases[j - 1] - np.pi * 0.5 * (centers[j] + centers[j - 1]) * du
    acc = np.zeros(geom.size, dtype=complex)
    for phi, resp in zip(phases, array_response(geom, np.arcsin(sines), 0.0)):
        acc += np.exp(1j * phi) * np.conj(resp)
    return quantize_phases(acc / np.linalg.norm(acc), _PHASE_BITS)


def hierarchical_codebook(geom: ArrayGeometry, depth: int) -> Codebook:
    """Build the multi-resolution codebook for the azimuth axis of ``geom``.

    Requires ``2**depth <= geom.cols``; codebooks steer elevation 0.
    """
    if depth < 1:
        raise ValueError(f"codebook depth must be >= 1, got {depth}")
    if (1 << depth) > geom.cols:
        raise ValueError(
            f"codebook depth {depth} too deep for azimuth axis of {geom.cols} elements"
        )
    ids = [(level, index) for level in range(1, depth + 1) for index in range(1 << level)]
    weights = [sector_beamformer(geom, *Codebook.sector(level, index)) for level, index in ids]
    return Codebook(geom=geom, depth=depth, weights=np.stack(weights), ids=np.array(ids))


def composite_gains(codebook: Codebook, ch: ChannelRealization, rx_beam: np.ndarray) -> np.ndarray:
    """Noiseless composite gain |w_rx^T H f| for every codeword, as (C,)."""
    left = rx_beam @ channel_matrix(ch)
    # one BLAS dot per codeword, bit-equal to the 1-D product left @ f
    # (a matrix product left @ W.T differs in the last bit)
    return np.abs(np.vecdot(left.conj(), codebook.weights))


def select_beams(
    codebook: Codebook,
    ch: ChannelRealization,
    rx_beam: np.ndarray,
    count: int,
    window_db: float,
) -> list[tuple[int, int]]:
    """Pick ``count`` beams whose noiseless gains sit within a dB window.

    Scans windows of ``count`` consecutive codewords down the gain-sorted
    list.  Among feasible windows, those mixing at least two codebook levels
    are preferred, then those maximizing the number of pairwise-disjoint
    sine sectors (beams pointing at different multipaths decorrelate the
    probe values), then the strongest.  All selected gains lie within
    ``window_db`` of their median; ties in gain break by (level, index)
    ascending, so the selection is a pure function of its inputs.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    gains = composite_gains(codebook, ch, rx_beam)
    if count > gains.size:
        raise SelectionInfeasibleError(
            f"requested {count} beams but codebook has only {gains.size}"
        )
    # stable, and ids are in (level, index) order, so gain ties keep that order
    order = np.argsort(-gains, kind="stable")
    ranked = codebook.ids[order]
    if count == 1:
        return [tuple(ranked[0].tolist())]

    ratio = 10.0 ** (window_db / 20.0)
    values = sliding_window_view(gains[order], count)
    med = np.median(values, axis=1)
    feasible = ~((values.max(axis=1) > med * ratio) | (values.min(axis=1) * ratio < med))
    if not feasible.any():
        raise SelectionInfeasibleError(
            f"no window of {count} beams within {window_db} dB of their median; widen the window"
        )
    levels = sliding_window_view(ranked[:, 0], count)
    index = sliding_window_view(ranked[:, 1], count)
    lo, hi = _sector_bounds(levels, index)
    # a sector is never disjoint from itself, so the full matrix counts each pair twice
    disjoint = (hi[:, :, None] <= lo[:, None, :]) | (hi[:, None, :] <= lo[:, :, None])
    diversity = disjoint.sum(axis=(1, 2)) // 2
    single_level = (levels == levels[:, :1]).all(axis=1)
    start = np.flatnonzero(feasible)
    best = start[np.lexsort((start, -diversity[start], single_level[start]))[0]]
    return sorted(map(tuple, ranked[best : best + count].tolist()))
