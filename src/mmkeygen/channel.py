"""Clustered narrowband mmWave channel model.

A channel realization is a small set of propagation rays (one line-of-sight
ray plus Rayleigh-faded weaker rays), held as an array of ray gains and an
array of departure/arrival angles.  The module builds array responses and
channel matrices, evolves ray gains with an AR(1) process inside a session
(``evolve`` returns the gains of a run of coherence blocks as one (steps, L)
array), and provides the angular (virtual) domain transform used by the
sparse-domain key scheme, computed as a per-axis FFT.

Conventions
-----------
* Elements are half a wavelength apart, the spacing the DFT bins of the
  angular domain assume.
* Angles are radians in [-pi/2, pi/2); NLoS angles are drawn uniformly in
  sine space over [-1, 1).
* SNR convention: unit-power transmitted pilot, additive receiver noise of
  variance ``10**(-snr_db / 10)`` (drawn by :mod:`mmkeygen.probing` and the
  sessions of :mod:`mmkeygen.schemes`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_NLOS_OFFSET_DB = 10.0

_HALF_PI = np.pi / 2.0


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


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """One coherence-block channel: per-ray gains and angles plus the geometries.

    ``gains`` holds the (L,) complex ray gains and ``angles`` the (L, 4) ray
    angles in radians, columns (aod_az, aod_el, aoa_az, aoa_el).  Path 0 is
    the line-of-sight ray; every other path is NLoS.
    Both arrays are stored as read-only copies.
    """

    gains: np.ndarray
    angles: np.ndarray
    tx_geom: ArrayGeometry
    rx_geom: ArrayGeometry
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


def _innovations(
    u: float | np.ndarray, normals: np.ndarray, nlos_offset_db: float, out: np.ndarray | None = None
) -> np.ndarray:
    """Path gains (..., L) from uniforms (...,) and standard normals (..., 2 (L - 1)), written into ``out`` when given.

    The LoS gain is the unit phasor at ``2 pi u``.  The NLoS gains take the
    first half of ``normals`` as real parts and the second half as
    imaginary parts, scaled to expected power ``10**(-nlos_offset_db/10)``.
    """
    n = normals.shape[-1] // 2
    sigma = np.sqrt(10.0 ** (-nlos_offset_db / 10.0) / 2.0)
    if out is None:
        out = np.empty(normals.shape[:-1] + (n + 1,), dtype=complex)
    np.exp(1j * (2.0 * np.pi * u), out=out[..., 0])
    np.multiply(sigma, normals[..., :n] + 1j * normals[..., n:], out=out[..., 1:])
    return out


def _draw_innovations(rng: np.random.Generator, nlos_offset_db: float, out: np.ndarray, normals: np.ndarray) -> None:
    """Writes the innovations of ``len(out)`` AR(1) steps into ``out`` (T, L).

    Each step draws one uniform LoS phase, then the NLoS innovations as one
    normal draw, real parts then imaginary parts, into its row of the
    (T, 2 (L - 1)) buffer ``normals``.  The uniforms are the steps' raw
    outputs, converted at once as ``random()`` converts one: its top 53 bits
    times 2**-53.
    """
    raw = np.empty(len(out), dtype=np.uint64)
    draw_raw, draw_normals = rng.bit_generator.random_raw, rng.standard_normal
    for t, row in enumerate(normals):
        raw[t] = draw_raw()
        draw_normals(out=row)
    _innovations((raw >> 11) * 2.0**-53, normals, nlos_offset_db, out=out)


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

    The uniforms are the L x 4 sines' (``-1 + 2u`` is ``uniform(-1, 1)``
    bit for bit), then the LoS phase's.  With ``grid_cols`` = (tx cols, rx
    cols) the rays are in-plane, their sines snapped to the DFT grid of
    each array, so each path occupies exactly one virtual bin.
    """
    angles = np.arcsin(-1.0 + 2.0 * u[..., :-1].reshape(u.shape[:-1] + (-1, 4)))
    if grid_cols is not None:
        n = np.array(grid_cols, dtype=float)
        s = np.round(np.sin(angles[..., ::2]) * n / 2.0) * 2.0 / n
        angles = np.zeros_like(angles)
        angles[..., ::2] = np.arcsin(np.clip(s, -1.0, 1.0 - 2.0 / n))
    return angles, _innovations(u[..., -1], normals, nlos_offset_db)


def sample_channel(
    tx_geom: ArrayGeometry,
    rx_geom: ArrayGeometry,
    rng: np.random.Generator,
    num_paths: int,
    nlos_offset_db: float = DEFAULT_NLOS_OFFSET_DB,
    grid_angles: bool = False,
) -> ChannelRealization:
    """Draw a fresh realization: one unit-power LoS ray plus ``num_paths - 1`` NLoS rays.

    The LoS gain is a uniform random phase of unit magnitude; NLoS gains are
    circularly-symmetric complex Gaussian with expected power
    ``10**(-nlos_offset_db/10)``.  ``grid_angles`` snaps the rays to the
    DFT grids, as :func:`_paths` does.
    """
    if num_paths < 1:
        raise ValueError(f"invalid channel: num_paths={num_paths} (need >= 1)")
    if not nlos_offset_db >= 0.0:
        raise ValueError(f"invalid channel: nlos_offset_db={nlos_offset_db} (need >= 0)")
    u = rng.random(4 * num_paths + 1)
    grid_cols = (tx_geom.cols, rx_geom.cols) if grid_angles else None
    angles, gains = _paths(u, rng.standard_normal(2 * (num_paths - 1)), nlos_offset_db, grid_cols)
    return ChannelRealization(gains, angles, tx_geom, rx_geom, nlos_offset_db)


def response_matrices(ch: ChannelRealization) -> tuple[np.ndarray, np.ndarray]:
    """Stacked per-path responses: (rx_size x L, tx_size x L)."""
    a_rx = array_response(ch.rx_geom, ch.angles[:, 2], ch.angles[:, 3])
    a_tx = array_response(ch.tx_geom, ch.angles[:, 0], ch.angles[:, 1])
    return a_rx.T, a_tx.T


def _paths_matrix(a_rx: np.ndarray, gains: np.ndarray, a_tx: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``sqrt(Nt*Nr/L) * (a_rx.T * gains) @ a_tx`` of (L, Nr) and (L, Nt) path responses, written into ``out`` when given."""
    scale = np.sqrt(a_tx.shape[1] * a_rx.shape[1] / gains.size)
    out = np.matmul(a_rx.T * gains, a_tx, out=out)
    return np.multiply(scale, out, out=out)


def channel_matrix(ch: ChannelRealization, out: np.ndarray | None = None) -> np.ndarray:
    """Narrowband channel matrix, shape (rx_size, tx_size), written into ``out`` when given.

    ``H = sqrt(Nt*Nr/L) * sum_l gain_l * a_rx(aoa_l) a_tx(aod_l)^T``.  The
    transpose (rather than conjugate-transpose) on the departure response
    pairs with the transpose receive convention of the probing module, so a
    conjugate steering beamformer is matched on both sides of a reciprocal
    exchange.
    """
    a_rx, a_tx = response_matrices(ch)
    return _paths_matrix(a_rx.T, ch.gains, a_tx.T, out)


def evolve(ch: ChannelRealization, rho: float, rng: np.random.Generator, steps: int) -> np.ndarray:
    """The (steps, L) path gains of the next ``steps`` AR(1) steps; angles are held fixed.

    ``gain' = rho*gain + sqrt(1-rho^2)*eps`` with ``eps`` a fresh draw from
    the path's own gain distribution, so marginal power is preserved.  Each
    step draws one uniform LoS phase, then the NLoS innovations as one
    normal draw, real parts then imaginary parts.
    """
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"invalid params: rho={rho} not in [0, 1]")
    eps = np.empty((steps, ch.num_paths), dtype=complex)
    _draw_innovations(rng, ch.nlos_offset_db, eps, np.empty((steps, 2 * (ch.num_paths - 1))))
    return _ar1(ch.gains, eps, rho)


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
