"""Clustered narrowband mmWave channel model.

A channel realization is a small set of propagation rays (one line-of-sight
ray plus Rayleigh-faded weaker rays), held as arrays: the (L, 4) ray angles
and the (L,) ray gains.  The module builds array responses and channel
matrices from the rays' (L, N) responses, maps drawn uniforms and normals
to rays (``_paths``) and AR(1) innovations (``_innovations``), steps gains
through those inside a session (``_ar1``), and provides the angular
(virtual) domain transform used by the sparse-domain key scheme, computed
as a per-axis FFT.  :mod:`mmkeygen.schemes` takes the draws.

Conventions
-----------
* Elements are half a wavelength apart, the spacing the DFT bins of the
  angular domain assume.
* Angles are radians in [-pi/2, pi/2); NLoS angles are drawn uniformly in
  sine space over [-1, 1).
* SNR convention: unit-power transmitted pilot, additive receiver noise of
  variance ``10**(-snr_db / 10)``, each (re, im) part of deviation
  ``_noise_sigma(snr_db)`` (drawn by :mod:`mmkeygen.probing` and the
  sessions of :mod:`mmkeygen.schemes`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_NLOS_OFFSET_DB = 10.0


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform planar array of half-wavelength spacing; a ULA is the ``rows == 1`` (or ``cols == 1``) case."""

    rows: int
    cols: int

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"invalid geometry: rows={self.rows}, cols={self.cols} (need >= 1)")

    @property
    def size(self) -> int:
        return self.rows * self.cols


def array_response(
    geom: ArrayGeometry, az: float | np.ndarray, el: float | np.ndarray = 0.0
) -> np.ndarray:
    """Unit-norm response of ``geom`` toward (az, el), flattened row-major.

    Element (m, n) has phase ``pi*(m*sin(el) + n*sin(az)*cos(el))``.
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
    phase = np.pi * (m * np.sin(el) + n * np.sin(az) * np.cos(el))
    # in place from the first complex array on, so a large batch of
    # directions holds one complex array at a time
    resp = 1j * phase
    np.exp(resp, out=resp)
    resp /= np.sqrt(geom.size)
    # phase is (..., rows, cols); flatten each response row-major
    return resp.reshape(phase.shape[:-2] + (geom.size,))


def _noise_sigma(snr_db: float) -> np.float64:
    """Deviation ``sqrt(10**(-snr_db / 10) / 2)`` of each noise part at ``snr_db``; ValueError unless the variance is finite.

    The power is taken on a Python float: numpy's array power need not
    round as pow() does, and a secret-beam round's argmin reads the last bit.
    """
    exponent = -float(snr_db) / 10.0
    try:
        variance = 10.0**exponent
    except OverflowError:
        variance = math.inf
    if not math.isfinite(variance):
        raise ValueError(f"SNR {snr_db} dB gives a noise variance 10**({exponent}) that is not a finite float")
    return np.sqrt(variance / 2.0)


def _innovations(u: float | np.ndarray, normals: np.ndarray, nlos_offset_db: float) -> np.ndarray:
    """Path gains (..., L) from uniforms (...,) and standard normals (..., 2 (L - 1)).

    The LoS gain is the unit phasor at ``2 pi u``.  The NLoS gains take the
    first half of ``normals`` as real parts and the second half as
    imaginary parts, scaled to expected power ``10**(-nlos_offset_db/10)``.
    """
    n = normals.shape[-1] // 2
    sigma = np.sqrt(10.0 ** (-nlos_offset_db / 10.0) / 2.0)
    out = np.empty(normals.shape[:-1] + (n + 1,), dtype=complex)
    np.exp(1j * (2.0 * np.pi * u), out=out[..., 0])
    # each part scaled straight into the result: no complex temporary
    np.multiply(sigma, normals[..., :n], out=out[..., 1:].real)
    np.multiply(sigma, normals[..., n:], out=out[..., 1:].imag)
    return out


def _ar1(gains: np.ndarray, eps: np.ndarray, rho: float) -> np.ndarray:
    """Gains (..., L) stepped through complex innovations (..., T, L), in place: ``eps``, now the gains after each step.

    Step t is ``rho * gains[t-1] + mix * eps[t]``; ``eps`` is scaled by
    ``mix`` for every step at once and each step adds ``rho * gains[t-1]``
    into its row (products and sums commute exactly, so the bits are those
    of the step-by-step sum).  Any layout with the steps on axis -2 works:
    a (T, S * L) array steps S sessions' paths as one row.
    """
    eps *= np.sqrt(1.0 - rho * rho)
    carried = np.empty(eps[..., 0, :].shape, dtype=eps.dtype)
    for t in range(eps.shape[-2]):
        row = eps[..., t, :]
        row += np.multiply(rho, gains, out=carried)
        gains = row
    return eps


def _paths(u: np.ndarray, normals: np.ndarray, nlos_offset_db: float, grid_cols=None) -> tuple[np.ndarray, np.ndarray]:
    """Angles (..., L, 4) and gains (..., L) of channels from their streams' (..., 4L + 1) uniforms and (..., 2(L-1)) normals.

    The angle columns are (aod_az, aod_el, aoa_az, aoa_el); path 0 is the
    line-of-sight ray, its gain a unit phasor, the others' complex Gaussian.
    The uniforms are the L x 4 sines' (``-1 + 2u`` is ``uniform(-1, 1)``
    bit for bit), then the LoS phase's.  With ``grid_cols`` = (tx cols, rx
    cols) the rays are in-plane, their sines snapped to the DFT grid of
    each array, so each path occupies exactly one virtual bin.
    """
    angles = np.arcsin(-1.0 + 2.0 * u[..., :-1].reshape(u.shape[:-1] + (u.shape[-1] // 4, 4)))
    if grid_cols is not None:
        n = np.array(grid_cols, dtype=float)
        s = np.round(np.sin(angles[..., ::2]) * n / 2.0) * 2.0 / n
        angles = np.zeros_like(angles)
        angles[..., ::2] = np.arcsin(np.clip(s, -1.0, 1.0 - 2.0 / n))
    return angles, _innovations(u[..., -1], normals, nlos_offset_db)


def channel_matrix(a_rx: np.ndarray, gains: np.ndarray, a_tx: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Narrowband channel matrix (Nr, Nt) of rays with (L, Nr) and (L, Nt) responses, written into ``out`` when given.

    ``H = sqrt(Nt*Nr/L) * sum_l gain_l * a_rx(aoa_l) a_tx(aod_l)^T``.  The
    transpose (rather than conjugate-transpose) on the departure response
    pairs with the transpose receive convention of the probing module, so a
    conjugate steering beamformer is matched on both sides of a reciprocal
    exchange.
    """
    scale = np.sqrt(a_tx.shape[1] * a_rx.shape[1] / gains.size)
    out = np.matmul(a_rx.T * gains, a_tx, out=out)
    return np.multiply(scale, out, out=out)


def virtual_channel(
    H: np.ndarray, tx_geom: ArrayGeometry, rx_geom: ArrayGeometry, out: np.ndarray | None = None
) -> np.ndarray:
    """Angular-domain ``U_r^H H U_t``, each ``U = kron(F_rows, F_cols)``, written into ``out`` when given.

    ``F_n`` is the unitary n x n DFT matrix, ``(j, k) = exp(-2i pi j k / n) / sqrt(n)``.
    It is symmetric, so on ``H`` as (rx_rows, rx_cols, tx_rows, tx_cols) this
    is an ortho inverse FFT along each receive axis and an ortho forward FFT
    along each transmit axis (axes of size 1 skipped).  The first FFT reads
    ``H`` and writes ``out``, a C-contiguous complex array of H's shape; the
    rest run in place, so ``out=H`` transforms a complex ``H`` in place.
    """
    # double precision on any input, without a copy of a complex H
    H = np.asarray(H, dtype=complex)
    if H.shape != (rx_geom.size, tx_geom.size):
        raise ValueError(f"dimension mismatch: H is {H.shape}, geometries give ({rx_geom.size}, {tx_geom.size})")
    if out is None:
        out = np.empty(H.shape, dtype=complex)
    elif out.shape != H.shape or out.dtype != complex or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous complex array of shape {H.shape}")
    shape = (rx_geom.rows, rx_geom.cols, tx_geom.rows, tx_geom.cols)
    # views without the axes of size 1, where pocketfft runs fewer, longer passes
    # to the same bits; each is a view on any layout, and out is C-contiguous
    src, Hv = H.reshape(shape).squeeze(), out.reshape(shape).squeeze()
    rx_axes = (rx_geom.rows > 1) + (rx_geom.cols > 1)
    for axis in range(Hv.ndim):
        (np.fft.ifft if axis < rx_axes else np.fft.fft)(src, axis=axis, norm="ortho", out=Hv)
        src = Hv
    if src is not Hv:
        # every axis has size 1: the transform is the identity
        Hv[...] = src
    return out
