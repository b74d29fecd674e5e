"""Steering beamformers, phase-quantized weights, and hierarchical codebooks.

All beamformers are unit-norm weight vectors applied with the transpose
pairing ``w^T a`` (see the probing module), so the matched beam toward a
direction is the elementwise conjugate of the array response.  Codebook
beams are realized as single analog phase-shifter vectors (the single-RF
chain case); the digital stage is a scalar.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator

import numpy as np

from .channel import ArrayGeometry, ChannelRealization, array_response, channel_matrix

DEFAULT_DELTA_MAX = float(np.radians(2.0))
DEFAULT_PHASE_BITS = 6


class SelectionInfeasibleError(ValueError):
    """Raised when fewer than the requested beams fit the gain window."""


@dataclass(frozen=True, eq=False)
class Beamformer:
    """Unit-norm complex weight vector, optionally on a quantized phase grid."""

    weights: np.ndarray
    phase_bits: int | None = None
    meta: dict[str, Any] | None = None

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=complex)
        norm = np.linalg.norm(w)
        if not np.isclose(norm, 1.0, atol=1e-6):
            raise ValueError(f"beamformer weights must be unit norm, got ||w||={norm}")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def size(self) -> int:
        return self.weights.size


@dataclass(frozen=True)
class HybridConfig:
    """Analog stage of a codebook beam: the phase-shifter resolution."""

    phase_bits: int = DEFAULT_PHASE_BITS

    def __post_init__(self) -> None:
        if self.phase_bits < 1:
            raise ValueError(f"phase_bits must be >= 1, got {self.phase_bits}")


def steering_beamformer(geom: ArrayGeometry, az: float, el: float = 0.0) -> Beamformer:
    """Matched beam toward (az, el): conjugate of the array response."""
    return Beamformer(
        weights=np.conj(array_response(geom, az, el)),
        meta={"az": az, "el": el},
    )


def quantize_phases(bf: Beamformer, bits: int) -> Beamformer:
    """Project onto constant-modulus weights with phases on the 2**bits grid."""
    if bits < 1:
        raise ValueError(f"bits must be >= 1, got {bits}")
    n = bf.size
    step = 2.0 * np.pi / (1 << bits)
    k = np.round(np.angle(bf.weights) / step).astype(int) % (1 << bits)
    w = np.exp(1j * step * k) / np.sqrt(n)
    w = w / np.linalg.norm(w)
    return Beamformer(weights=w, phase_bits=bits, meta=bf.meta)


def perturb(
    geom: ArrayGeometry,
    nominal_az: float,
    nominal_el: float,
    delta: float,
    delta_max: float = DEFAULT_DELTA_MAX,
) -> Beamformer:
    """Steering beam at the azimuth-perturbed angle (nominal_az + delta)."""
    if abs(delta) > delta_max:
        raise ValueError(
            f"invalid perturbation: |delta|={abs(delta)} exceeds delta_max={delta_max}"
        )
    return steering_beamformer(geom, nominal_az + delta, nominal_el)


def beam_gain(bf: Beamformer, geom: ArrayGeometry, az: float, el: float = 0.0) -> complex:
    """Pattern value ``w^T a(az, el)``; magnitude is at most 1."""
    if bf.size != geom.size:
        raise ValueError(f"beamformer size {bf.size} does not match geometry size {geom.size}")
    return complex(bf.weights @ array_response(geom, az, el))


@dataclass(frozen=True, eq=False)
class Codebook:
    """Hierarchical multi-resolution beam codebook over sine space [-1, 1).

    Level ``s`` (1-based) holds ``2**s`` codewords; codeword ``k`` covers the
    sine sector ``[-1 + 2k/2**s, -1 + 2(k+1)/2**s)``.
    """

    geom: ArrayGeometry
    depth: int
    hybrid: HybridConfig
    _levels: tuple[tuple[Beamformer, ...], ...]

    def codewords(self, level: int) -> tuple[Beamformer, ...]:
        if not 1 <= level <= self.depth:
            raise ValueError(f"level {level} outside 1..{self.depth}")
        return self._levels[level - 1]

    def codeword(self, level: int, index: int) -> Beamformer:
        return self.codewords(level)[index]

    @staticmethod
    def sector(level: int, index: int) -> tuple[float, float]:
        count = 1 << level
        if not 0 <= index < count:
            raise ValueError(f"index {index} outside level {level}")
        # dyadic boundaries are exact in binary floating point
        return (-1.0 + 2.0 * index / count, -1.0 + 2.0 * (index + 1) / count)

    def ids(self) -> Iterator[tuple[int, int]]:
        for level in range(1, self.depth + 1):
            for index in range(1 << level):
                yield (level, index)

    def __len__(self) -> int:
        return sum(1 << level for level in range(1, self.depth + 1))


def _sector_sum(geom: ArrayGeometry, lo: float, hi: float, grid_points: int) -> np.ndarray:
    """Sum of steering vectors on the in-sector sine grid, phase-aligned.

    The raw sum self-cancels: adjacent Dirichlet kernels arrive anti-phase
    because each steering vector's pattern carries the linear phase
    exp(i*(N-1)*pi*d*(u - s_j)).  Each term is therefore rotated by its
    stationary-phase coefficient before summing, which makes the in-sector
    kernels add coherently while keeping the construction solver-free.
    """
    n_az = geom.cols
    sines = lo + (hi - lo) * (np.arange(grid_points) + 0.5) / grid_points
    centers = (np.arange(grid_points) + 0.5) * n_az / grid_points
    du = (hi - lo) / grid_points
    phases = np.zeros(grid_points)
    for j in range(1, grid_points):
        phases[j] = phases[j - 1] - 2.0 * np.pi * geom.spacing * 0.5 * (
            centers[j] + centers[j - 1]
        ) * du
    acc = np.zeros(geom.size, dtype=complex)
    for phi, resp in zip(phases, array_response(geom, np.arcsin(sines), 0.0)):
        acc += np.exp(1j * phi) * np.conj(resp)
    return acc / np.linalg.norm(acc)


def sector_beamformer(
    geom: ArrayGeometry,
    lo: float,
    hi: float,
    phase_bits: int = DEFAULT_PHASE_BITS,
    grid_points: int | None = None,
) -> Beamformer:
    """Constant-modulus wide beam covering the sine sector [lo, hi).

    ``lo = -1, hi = 1`` yields a quasi-omnidirectional pattern; the
    hierarchical codebook uses the same construction per sector.
    """
    if not -1.0 <= lo < hi <= 1.0:
        raise ValueError(f"invalid sector [{lo}, {hi})")
    points = grid_points if grid_points is not None else max(1, geom.cols)
    raw = _sector_sum(geom, lo, hi, points)
    bf = quantize_phases(Beamformer(weights=raw), phase_bits)
    return Beamformer(weights=bf.weights, phase_bits=phase_bits, meta={"sector": (lo, hi)})


def hierarchical_codebook(
    geom: ArrayGeometry, depth: int, hybrid: HybridConfig | None = None
) -> Codebook:
    """Build the multi-resolution codebook for the azimuth axis of ``geom``.

    Requires ``2**depth <= geom.cols``; codebooks steer elevation 0.
    """
    hybrid = hybrid or HybridConfig()
    if depth < 1:
        raise ValueError(f"codebook depth must be >= 1, got {depth}")
    if (1 << depth) > geom.cols:
        raise ValueError(
            f"codebook depth {depth} too deep for azimuth axis of {geom.cols} elements"
        )
    levels = []
    for level in range(1, depth + 1):
        count = 1 << level
        grid_points = max(1, geom.cols // count)
        row = []
        for index in range(count):
            lo, hi = Codebook.sector(level, index)
            raw = _sector_sum(geom, lo, hi, grid_points)
            bf = quantize_phases(Beamformer(weights=raw), hybrid.phase_bits)
            bf = Beamformer(
                weights=bf.weights,
                phase_bits=hybrid.phase_bits,
                meta={"level": level, "index": index, "sector": (lo, hi)},
            )
            row.append(bf)
        levels.append(tuple(row))
    return Codebook(geom=geom, depth=depth, hybrid=hybrid, _levels=tuple(levels))


def composite_gains(
    codebook: Codebook, ch: ChannelRealization, rx_beam: Beamformer
) -> dict[tuple[int, int], float]:
    """Noiseless composite gain |w_rx^T H f| for every codeword."""
    H = channel_matrix(ch)
    left = rx_beam.weights @ H
    return {
        (level, index): float(np.abs(left @ codebook.codeword(level, index).weights))
        for level, index in codebook.ids()
    }


def _sectors_disjoint(a: tuple[float, float], b: tuple[float, float]) -> bool:
    return a[1] <= b[0] or b[1] <= a[0]


def select_beams(
    codebook: Codebook,
    ch: ChannelRealization,
    rx_beam: Beamformer,
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
    if count > len(gains):
        raise SelectionInfeasibleError(
            f"requested {count} beams but codebook has only {len(gains)}"
        )
    ranked = sorted(gains.items(), key=lambda item: (-item[1], item[0]))
    if count == 1:
        return [ranked[0][0]]

    ratio = 10.0 ** (window_db / 20.0)
    candidates = []
    for start in range(len(ranked) - count + 1):
        window = ranked[start : start + count]
        values = np.array([g for _, g in window])
        med = float(np.median(values))
        if values.max() > med * ratio or values.min() * ratio < med:
            continue
        ids = [beam_id for beam_id, _ in window]
        sectors = [codebook.sector(*beam_id) for beam_id in ids]
        diversity = sum(
            1
            for i in range(count)
            for j in range(i + 1, count)
            if _sectors_disjoint(sectors[i], sectors[j])
        )
        multi_level = len({level for level, _ in ids}) >= 2
        candidates.append((not multi_level, -diversity, start, ids))
    if not candidates:
        raise SelectionInfeasibleError(
            f"no window of {count} beams within {window_db} dB of their median; widen the window"
        )
    candidates.sort()
    return sorted(candidates[0][3])
