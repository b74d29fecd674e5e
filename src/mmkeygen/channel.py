"""Clustered narrowband mmWave channel model.

A channel realization is a small set of propagation rays (one optional
line-of-sight ray plus Rayleigh-faded weaker rays), held as an array of ray
gains and an array of departure/arrival angles.  The module builds array
responses and channel matrices, evolves ray gains with an AR(1) process
inside a session, and provides the angular (virtual) domain transform used
by the sparse-domain key scheme.

Conventions
-----------
* Element spacing is in wavelengths (half wavelength by default).
* Angles are radians in [-pi/2, pi/2); NLoS angles are drawn uniformly in
  sine space over [-1, 1).
* SNR convention: unit-power transmitted pilot, additive receiver noise of
  variance ``10**(-snr_db / 10)``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

DEFAULT_NLOS_OFFSET_DB = 10.0

_HALF_PI = np.pi / 2.0


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform planar array; a ULA is the ``rows == 1`` (or ``cols == 1``) case."""

    rows: int
    cols: int
    spacing: float = 0.5

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"invalid geometry: rows={self.rows}, cols={self.cols} (need >= 1)")
        if not np.isfinite(self.spacing) or self.spacing <= 0.0:
            raise ValueError(f"invalid geometry: spacing={self.spacing} (need > 0)")

    @property
    def size(self) -> int:
        return self.rows * self.cols


@dataclass(frozen=True)
class ChannelParams:
    """Sampling parameters for one-ray-per-path clustered channels."""

    num_paths: int = 2
    nlos_offset_db: float = DEFAULT_NLOS_OFFSET_DB
    temporal_rho: float = 0.0

    def __post_init__(self) -> None:
        if self.num_paths < 1:
            raise ValueError(f"invalid params: num_paths={self.num_paths} (need >= 1)")
        if self.nlos_offset_db < 0.0:
            raise ValueError(f"invalid params: nlos_offset_db={self.nlos_offset_db} (need >= 0)")
        if not 0.0 <= self.temporal_rho <= 1.0:
            raise ValueError(f"invalid params: temporal_rho={self.temporal_rho} not in [0, 1]")


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """One coherence-block channel: per-ray gains and angles plus the geometries.

    ``gains`` holds the (L,) complex ray gains and ``angles`` the (L, 4) ray
    angles in radians, columns (aod_az, aod_el, aoa_az, aoa_el).  Path 0 is
    the line-of-sight ray when ``has_los`` is set; every other path is NLoS.
    Both arrays are stored as read-only copies.
    """

    gains: np.ndarray
    angles: np.ndarray
    tx_geom: ArrayGeometry
    rx_geom: ArrayGeometry
    has_los: bool = True
    nlos_offset_db: float = DEFAULT_NLOS_OFFSET_DB

    def __post_init__(self) -> None:
        gains = np.array(self.gains, dtype=complex, ndmin=1)
        angles = np.array(self.angles, dtype=float, ndmin=2)
        if gains.ndim != 1 or gains.size < 1:
            raise ValueError("channel realization needs at least one path")
        if angles.shape != (gains.size, 4):
            raise ValueError(f"angles must have shape ({gains.size}, 4), got {angles.shape}")
        # min/max propagate NaN, which then fails both comparisons
        if not (angles.min() >= -_HALF_PI and angles.max() < _HALF_PI):
            raise ValueError(f"path angles outside [-pi/2, pi/2): {angles.tolist()}")
        for name, value in (("gains", gains), ("angles", angles)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def num_paths(self) -> int:
        return self.gains.size


def array_response(
    geom: ArrayGeometry, az: float | np.ndarray, el: float | np.ndarray = 0.0
) -> np.ndarray:
    """Unit-norm response of ``geom`` toward (az, el), flattened row-major.

    Element (m, n) has phase ``2*pi*spacing*(m*sin(el) + n*sin(az)*cos(el))``.
    ``az`` and ``el`` broadcast against each other: scalars give one
    ``(size,)`` response, angle arrays of shape ``s`` give ``s + (size,)``
    from a single ``exp``, each row equal to the scalar call.
    """
    az = np.asarray(az, dtype=float)
    el = np.asarray(el, dtype=float)
    if not np.isfinite(az + el).all():
        raise ValueError(f"angles must be finite, got az={az}, el={el}")
    az, el = az[..., None, None], el[..., None, None]
    m = np.arange(geom.rows)[:, None]
    n = np.arange(geom.cols)
    phase = 2.0 * np.pi * geom.spacing * (m * np.sin(el) + n * np.sin(az) * np.cos(el))
    # phase is (..., rows, cols); flatten each response row-major
    return (np.exp(1j * phase) / np.sqrt(geom.size)).reshape(phase.shape[:-2] + (geom.size,))


def _nlos_power(nlos_offset_db: float) -> float:
    return 10.0 ** (-nlos_offset_db / 10.0)


def _draw_nlos_gains(count: int, nlos_offset_db: float, rng: np.random.Generator) -> np.ndarray:
    sigma = np.sqrt(_nlos_power(nlos_offset_db) / 2.0)
    return sigma * (rng.standard_normal(count) + 1j * rng.standard_normal(count))


def sample_channel(
    params: ChannelParams,
    tx_geom: ArrayGeometry,
    rx_geom: ArrayGeometry,
    rng: np.random.Generator,
) -> ChannelRealization:
    """Draw a fresh realization: one unit-power LoS ray plus L-1 NLoS rays.

    The LoS gain is a uniform random phase of unit magnitude; NLoS gains are
    circularly-symmetric complex Gaussian with expected power
    ``10**(-nlos_offset_db/10)``.
    """
    L = params.num_paths
    sines = rng.uniform(-1.0, 1.0, size=(L, 4))
    los_gain = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    nlos_gains = _draw_nlos_gains(L - 1, params.nlos_offset_db, rng)
    return ChannelRealization(
        gains=np.concatenate(([los_gain], nlos_gains)),
        angles=np.arcsin(sines),
        tx_geom=tx_geom,
        rx_geom=rx_geom,
        nlos_offset_db=params.nlos_offset_db,
    )


def response_matrices(ch: ChannelRealization) -> tuple[np.ndarray, np.ndarray]:
    """Stacked per-path responses: (rx_size x L, tx_size x L)."""
    a_rx = array_response(ch.rx_geom, ch.angles[:, 2], ch.angles[:, 3])
    a_tx = array_response(ch.tx_geom, ch.angles[:, 0], ch.angles[:, 1])
    return a_rx.T, a_tx.T


def channel_matrix(ch: ChannelRealization) -> np.ndarray:
    """Narrowband channel matrix, shape (rx_size, tx_size).

    ``H = sqrt(Nt*Nr/L) * sum_l gain_l * a_rx(aoa_l) a_tx(aod_l)^T``.  The
    transpose (rather than conjugate-transpose) on the departure response
    pairs with the transpose receive convention of the probing module, so a
    conjugate steering beamformer is matched on both sides of a reciprocal
    exchange.
    """
    a_rx, a_tx = response_matrices(ch)
    scale = np.sqrt(ch.tx_geom.size * ch.rx_geom.size / ch.num_paths)
    return scale * ((a_rx * ch.gains) @ a_tx.T)


def evolve(ch: ChannelRealization, rho: float, rng: np.random.Generator) -> ChannelRealization:
    """One AR(1) step on the path gains; angles are held fixed.

    ``gain' = rho*gain + sqrt(1-rho^2)*eps`` with ``eps`` a fresh draw from
    the path's own gain distribution, so marginal power is preserved.  The
    draws are one uniform LoS phase (taken even without a LoS path), then
    the NLoS innovations.
    """
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"invalid params: rho={rho} not in [0, 1]")
    los_eps = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    eps = _draw_nlos_gains(ch.num_paths - int(ch.has_los), ch.nlos_offset_db, rng)
    if ch.has_los:
        eps = np.concatenate(([los_eps], eps))
    mix = np.sqrt(1.0 - rho * rho)
    return replace(ch, gains=rho * ch.gains + mix * eps)


def dft_matrix(n: int) -> np.ndarray:
    """Unitary n x n DFT matrix, entry (j, k) = exp(-2i*pi*j*k/n)/sqrt(n)."""
    if n < 1:
        raise ValueError(f"invalid DFT size {n}")
    k = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(k, k) / n) / np.sqrt(n)


def _upa_dft_basis(geom: ArrayGeometry) -> np.ndarray:
    # Kronecker of per-axis DFTs matches the row-major (m*cols + n) flattening
    # used by array_response.
    return np.kron(dft_matrix(geom.rows), dft_matrix(geom.cols))


def virtual_channel(H: np.ndarray, tx_geom: ArrayGeometry, rx_geom: ArrayGeometry) -> np.ndarray:
    """Angular-domain representation ``U_r^H H U_t`` under per-axis DFT bases."""
    H = np.asarray(H)
    if H.shape != (rx_geom.size, tx_geom.size):
        raise ValueError(
            f"dimension mismatch: H is {H.shape}, geometries give "
            f"({rx_geom.size}, {tx_geom.size})"
        )
    U_r = _upa_dft_basis(rx_geom)
    U_t = _upa_dft_basis(tx_geom)
    return U_r.conj().T @ H @ U_t


def inverse_virtual_channel(
    H_v: np.ndarray, tx_geom: ArrayGeometry, rx_geom: ArrayGeometry
) -> np.ndarray:
    """Inverse of :func:`virtual_channel`: ``U_r H_v U_t^H``."""
    U_r = _upa_dft_basis(rx_geom)
    U_t = _upa_dft_basis(tx_geom)
    return U_r @ np.asarray(H_v) @ U_t.conj().T


def noise_like(x: np.ndarray | complex, snr_db: float, rng: np.random.Generator) -> np.ndarray:
    """Circularly-symmetric complex Gaussian of variance 10**(-snr_db/10)."""
    shape = np.shape(x)
    sigma = np.sqrt(10.0 ** (-snr_db / 10.0) / 2.0)
    return sigma * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def awgn(x: np.ndarray | complex, snr_db: float, rng: np.random.Generator) -> np.ndarray | complex:
    """Add receiver noise to ``x`` under the unit-pilot SNR convention."""
    noisy = np.asarray(x, dtype=complex) + noise_like(x, snr_db, rng)
    if np.isscalar(x) or np.ndim(x) == 0:
        return complex(noisy)
    return noisy
