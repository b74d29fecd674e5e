"""End-to-end sessions for the three key-generation schemes and the per-entry baseline.

Every scheme runs through :func:`batch`, which runs a config once per
trial seed, each trial at its own master seed and SNR, and yields one
:class:`SchemeResult` per trial: each party's key symbols and their bit
width, the probes used, and any metric the scheme scores itself.  ``batch``
looks up ``cfg.scheme`` in ``_SCHEMES``, the table of each scheme's chunk
function and chunk size, so a config runs only its own scheme's code.  A
session is ``next(batch(cfg, [cfg.master_seed], [cfg.snr_db]))``;
``secret_beam_session`` is one.

* ``_secret_beam``: both parties steer at the line-of-sight ray and
  hide quantized azimuth perturbations in their pilots; each side recovers
  the far side's perturbation from the calibrated magnitude ratio and the
  key is the XOR of the two perturbation streams, which a co-located
  eavesdropper cannot reproduce.
* ``_virtual_angle``: both parties estimate the channel matrix,
  project it onto the angular (DFT) domain, and encode the positions of the
  strongest virtual bins.  ``_baseline`` quantizes every estimated
  entry instead.  Both sound a chunk's trials by :func:`_sounding`, which
  seeds its streams and draws its channels as arrays.
* ``_multires``: Alice probes with beams of several resolutions and
  angles chosen to keep the composite gain inside a window while Bob holds a
  wide fixed pattern; compared against an aligned fixed-beam link via the
  key entropy rate of the quantized probe streams.

Every scheme draws its channels' (L, 4) angles and (L,) gains by
:func:`_rays`, and steps gains through their AR(1) draws by
:func:`_evolved`, many sampler streams at once.  Every session is a pure
function of its :class:`SessionConfig` (master seed included): all
randomness flows through labelled streams derived in :mod:`mmkeygen.seeds`.
Each chunk seeds its streams with one :func:`seeds.stream_lanes` call on a
grid of labels, trial by tag (and by round when sounding), and takes each
stream by its grid index.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import seeds
from .beamforming import (
    DEFAULT_DELTA_MAX,
    Codebook,
    SelectionInfeasibleError,
    hierarchical_codebook,
    sector_beamformer,
    select_beams,
    steering_beamformer,
)
from .channel import (
    DEFAULT_NLOS_OFFSET_DB,
    ArrayGeometry,
    _ar1,
    _innovations,
    _noise_sigma,
    _paths,
    array_response,
    channel_matrix,
    virtual_channel,
)
from .keygen import QuantizerConfig, _entropy_rates, _gray_cells, extract_randomness
from .probing import bidirectional_probe

@dataclass(frozen=True)
class SessionConfig:
    """Declarative description of one scheme session."""

    scheme: str = "secret_beam"
    alice: ArrayGeometry = field(default_factory=lambda: ArrayGeometry(1, 32))
    bob: ArrayGeometry = field(default_factory=lambda: ArrayGeometry(1, 16))
    snr_db: float = 10.0
    rounds: int = 100
    num_paths: int = 2
    nlos_offset_db: float = DEFAULT_NLOS_OFFSET_DB
    levels: int = 16
    num_beams: int = 5
    temporal_rho: float = 0.0
    eve: str | None = None
    delta_max: float = DEFAULT_DELTA_MAX
    window_db: float = 10.0
    codebook_depth: int | None = None
    grid_angles: bool = False
    master_seed: int = 0

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; choose from {SCHEMES}")
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        if self.num_beams < 1:
            raise ValueError(f"num_beams must be >= 1, got {self.num_beams}")
        if self.eve not in (None, "alice", "bob"):
            raise ValueError(f"eve must be 'alice', 'bob' or None (\"none\" in a config file), got {self.eve!r}")
        if self.num_paths < 1:
            raise ValueError(f"num_paths must be >= 1, got {self.num_paths}")
        if not 0 <= self.master_seed < 2**64:
            raise ValueError(f"master_seed must be an unsigned 64-bit integer, got {self.master_seed}")
        _noise_sigma(self.snr_db)  # else the session would fail only once it ran
        if not self.nlos_offset_db >= 0.0:
            raise ValueError(f"nlos_offset_db must be >= 0, got {self.nlos_offset_db}")
        if not 0.0 <= self.temporal_rho <= 1.0:
            raise ValueError(f"temporal_rho must lie in [0, 1], got {self.temporal_rho}")
        QuantizerConfig(levels=self.levels)
        if self.scheme == "virtual" and self.num_paths > self.alice.size * self.bob.size:
            raise ValueError(f"num_paths={self.num_paths} exceeds the {self.alice.size * self.bob.size} angular bins")
        if self.scheme == "secret_beam":
            # with no offset every perturbed beam is the nominal beam
            if not self.delta_max > 0.0:
                raise ValueError(f"delta_max must be > 0, got {self.delta_max}")
            # each perturbation index is drawn from one 32-bit word
            if self.levels > 1 << 32:
                raise ValueError(f"levels={self.levels} exceeds the 2**32 offsets a secret-beam round can draw")
            # the broadside sine offset must stay inside the first-null spacing
            # of each party's azimuth aperture or the ratio curve folds for
            # typical angles and the inversion is ill-posed by construction
            for geom, owner in ((self.alice, "alice"), (self.bob, "bob")):
                if geom.cols > 1 and np.sin(self.delta_max) >= 2.0 / geom.cols:
                    raise ValueError(
                        f"delta_max={self.delta_max:.4f} rad reaches past the first pattern null "
                        f"of {owner}'s {geom.cols}-element azimuth aperture"
                    )
        if self.scheme == "multires":
            if not self.window_db > 0.0:
                raise ValueError(f"window_db must be > 0, got {self.window_db}")
            # the codebook the session builds, and the beams it selects from it
            depth = self.multires_depth
            codewords = (1 << (depth + 1)) - 2
            if depth < 1:
                raise ValueError(f"codebook depth must be >= 1, got {depth}")
            if (1 << depth) > self.alice.cols:
                raise ValueError(f"codebook depth {depth} too deep for alice's {self.alice.cols}-element azimuth axis")
            if self.num_beams > codewords:
                raise ValueError(f"num_beams={self.num_beams} exceeds the {codewords} codewords of depth {depth}")
            # the entropy rate indexes each block's joint cell of the beams' streams
            if self.levels**self.num_beams > 2**62:
                raise ValueError(
                    f"levels={self.levels} on {self.num_beams} beams: joint alphabet too large to index (over 2**62)"
                )
            # one coherence block gives each probe stream one sample, and no entropy
            if self.rounds < 2:
                raise ValueError(f"a multires session needs rounds >= 2 coherence blocks, got {self.rounds}")

    @property
    def multires_depth(self) -> int:
        """Depth of the multires codebook: ``codebook_depth``, else log2 of alice's columns, capped at 6."""
        if self.codebook_depth is not None:
            return self.codebook_depth
        return min(6, self.alice.cols.bit_length() - 1)


@dataclass(frozen=True)
class SchemeResult:
    """One trial's key material, as :func:`batch` yields it for every scheme.

    ``symbols`` holds one row of key symbols per party: Alice's, Bob's, and
    the eavesdropper's guess at the key when one is modelled.  Each symbol
    is ``width`` bits, so a party's key bits are its row's symbols written
    out most significant bit first.  ``probes_used`` counts the trial's pilot
    transmissions.  A multires trial also scores each arm's key entropy
    rate, with its leave-one-section-out jackknife stderr over ten sections
    of blocks (NaN below 2 blocks a section); they are NaN for the other
    schemes.
    """

    symbols: np.ndarray
    width: int
    probes_used: int
    ker_multires: float = float("nan")
    ker_multires_stderr: float = float("nan")
    ker_fixed: float = float("nan")
    ker_fixed_stderr: float = float("nan")

    def agreement(self) -> tuple[float, float]:
        """The share of Alice's key bits that Bob's key agrees with, then the eavesdropper's guess (NaN without her).

        Each is ``(total - popcount(a ^ b)) / total`` over ``total = symbols
        x width`` bits, the exact count ``bar`` takes, from one
        ``np.bitwise_count`` over the parties' symbols.
        """
        total = self.symbols.shape[1] * self.width
        counts = np.bitwise_count(self.symbols[1:] ^ self.symbols[0]).sum(axis=1).tolist()
        bar_legit, *bar_eve = ((total - count) / total for count in counts)
        return bar_legit, bar_eve[0] if bar_eve else float("nan")

    @property
    def bar_legit(self) -> float:
        return self.agreement()[0]


def _rays(cfg: SessionConfig, stream, shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Angles (*shape, L, 4) and gains (*shape, L): one channel per sampler stream ``stream(*n)`` of the grid ``shape``.

    Each stream draws its 4L + 1 uniforms, then its 2(L - 1) NLoS normals,
    which :func:`channel._paths` maps to rays (on the DFT grids when
    ``cfg.grid_angles`` is set).
    """
    L = cfg.num_paths
    u, normals = np.empty((*shape, 4 * L + 1)), np.empty((*shape, 2 * (L - 1)))
    for n in np.ndindex(shape):
        rng = stream(*n)
        rng.random(out=u[n])
        rng.standard_normal(out=normals[n])
    grid_cols = (cfg.alice.cols, cfg.bob.cols) if cfg.grid_angles else None
    return _paths(u, normals, cfg.nlos_offset_db, grid_cols)


def _evolved(cfg: SessionConfig, stream, gains: np.ndarray) -> np.ndarray:
    """The (N, R, L) gains of the (N, L) ``gains`` after each of ``cfg.rounds`` AR(1) steps, channel ``n``'s from ``stream(n)``.

    Each step draws one raw output, its LoS phase's uniform as ``random()``
    converts one (top 53 bits times 2**-53), then its NLoS normals.  Laid
    out steps first, :func:`channel._ar1` steps one contiguous (N L) row a
    step; the result is a view.
    """
    R, N = cfg.rounds, len(gains)
    raw, normals = np.empty((R, N), dtype=np.uint64), np.empty((R, N, 2 * (cfg.num_paths - 1)))
    for n in range(N):
        rng = stream(n)
        draw_raw, draw_normals = rng.bit_generator.random_raw, rng.standard_normal
        for t in range(R):
            raw[t, n] = draw_raw()
            draw_normals(out=normals[t, n])
    eps = _innovations((raw >> 11) * 2.0**-53, normals, cfg.nlos_offset_db)
    _ar1(gains.reshape(-1), eps.reshape(R, -1), cfg.temporal_rho)
    return eps.swapaxes(0, 1)


# ---------------------------------------------------------------------------
# Secret beam (perturbation keying)
# ---------------------------------------------------------------------------

# the noise and raw-output streams of one secret-beam session's parties:
# Alice's, Bob's, then the eavesdropper's, who alone reads the last of each
_BEAM_NOISE_STREAMS = (seeds.STREAM_NOISE_ALICE, seeds.STREAM_NOISE_BOB, seeds.STREAM_NOISE_EVE)
_BEAM_RAW_STREAMS = (seeds.STREAM_PERTURB_ALICE, seeds.STREAM_PERTURB_BOB, seeds.STREAM_EVE_GUESS)


def _perturbation_beams(
    geom: ArrayGeometry, az: float | np.ndarray, el: float | np.ndarray, deltas: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One party's (K+1) x N steering matrix and its K-entry ratio LUT.

    Row 0 is the matched beam toward (az, el), row k the beam toward
    (az + deltas[k-1], el).  The LUT is |pattern| at the nominal direction
    for each perturbed beam: strictly decreasing whenever the nominal
    direction is away from endfire and the span stays below the first
    pattern null; near endfire the curve flattens and nearest-ratio
    matching degrades gracefully to guessing.  Arrays of directions give a
    leading batch axis on both results.
    """
    az = np.asarray(az, dtype=float)[..., None]
    el = np.asarray(el, dtype=float)[..., None]
    resp = array_response(geom, np.concatenate((az, az + deltas), axis=-1), el)
    # the beams are conj(resp) and vecdot conjugates its first argument, so
    # this is w_k^T a(az, el) per row, bit-equal to the 1-D product; hypot,
    # unlike np.abs, also matches abs() of a Python complex bit for bit
    pattern = np.vecdot(resp[..., 1:, :], resp[..., :1, :])
    return np.conjugate(resp, out=resp), np.hypot(pattern.real, pattern.imag)


def _dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x @ y`` over the last axis for each broadcast row.

    A (1, L) @ (L, 1) matmul runs the BLAS dot that a 1-D ``x @ y`` runs,
    so each entry is bit-equal to the per-row product.
    """
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def _beam_draws(cfg: SessionConfig, trial_seeds: np.ndarray) -> tuple[np.ndarray, ...]:
    """Every draw a chunk of secret-beam sessions takes from its streams.

    Every stream is seeded at once by :func:`seeds.stream_lanes`.  The
    perturbation and guess streams give only raw outputs, from
    :func:`seeds.raw_outputs`; the others feed numpy's samplers through
    :func:`seeds.sampler_streams`.

    Returns each trial's ray angles (B, L, 4) and gains in each round
    (B, R, L), by :func:`_rays` and :func:`_evolved`; the perturbation
    indices of Alice and Bob and the eavesdropper's guesses (parties, B, R);
    and the noise normals of Alice, Bob and the eavesdropper (parties, B, R,
    4), per round the calibration pilot's (re, im) then the keyed pilot's.
    """
    B, R = trial_seeds.size, cfg.rounds
    parties = 3 if cfg.eve is not None else 2
    # grid axes: trial, then tag (channel, evolution, each party's noise, each party's raw stream)
    tags = (seeds.STREAM_CHANNEL, seeds.STREAM_EVOLVE) + _BEAM_NOISE_STREAMS[:parties] + _BEAM_RAW_STREAMS[:parties]
    lanes = seeds.stream_lanes(trial_seeds[:, None], tags)
    raw = seeds.raw_outputs(lanes[:, -parties:].swapaxes(0, 1), (R + 1) // 2)
    index = seeds.integers_from_raw(raw, cfg.levels, R)
    angles, gains = _rays(cfg, seeds.sampler_streams(lanes[:, 0]), (B,))
    alpha = _evolved(cfg, seeds.sampler_streams(lanes[:, 1]), gains)
    stream = seeds.sampler_streams(lanes[:, 2:-parties])
    noise = np.empty((parties, B, R, 4))
    for b, party in np.ndindex(B, parties):
        stream(b, party).standard_normal(out=noise[party, b])
    return angles, alpha, index, noise


def _secret_beam(cfg: SessionConfig, trial_seeds: np.ndarray, snr_db):
    """One chunk of secret-beam trials, each at its u64 seed and SNR: yields each trial's record.

    The draws come from :func:`_beam_draws`; the rest is array math over
    all trials.  Each party's symbol of a round is the Gray code of its own
    offset XOR that of the far party's offset as it recovers it; the
    eavesdropper's XORs her guess at her host's offset with her own
    recovery of the far party's.
    """
    B, R, K = trial_seeds.size, cfg.rounds, cfg.levels
    angles, alpha, index, noise = _beam_draws(cfg, trial_seeds)
    deltas = cfg.delta_max * np.arange(1, K + 1) / K

    def through_beams(geom: ArrayGeometry, column: int) -> tuple[np.ndarray, np.ndarray]:
        # (B, L, K+1): each path's gain through each beam, and the ratio LUT;
        # one side at a time, so one side's steering matrices are alive at once
        az, el = angles[..., column], angles[..., column + 1]
        beams, lut = _perturbation_beams(geom, az[:, 0], el[:, 0], deltas)
        # the LoS path's response is the nominal beam's conjugate, bit for bit
        resp = np.empty(az.shape + (geom.size,), dtype=complex)
        np.conjugate(beams[:, 0], out=resp[:, 0])
        resp[:, 1:] = array_response(geom, az[:, 1:], el[:, 1:])
        return resp @ beams.swapaxes(-1, -2), lut

    tx_a, lut_a = through_beams(cfg.alice, 0)
    tx_b, lut_b = through_beams(cfg.bob, 2)
    scale = np.sqrt(cfg.alice.size * cfg.bob.size / cfg.num_paths)

    # one scale per distinct SNR, then a (B, 1) column of them
    snrs, point = np.unique(np.asarray(snr_db, dtype=float), return_inverse=True)
    sigma = np.array([_noise_sigma(snr) for snr in snrs.tolist()])[point][:, None]
    trial = np.arange(B)[:, None]

    def pilots(tx_rx: np.ndarray, tx_tx: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # noiseless calibration and keyed pilots: the receiver combines on its
        # nominal beam, the sender steers its nominal beam, then beam k + 1
        base = scale * (alpha * tx_rx[:, None, :, 0])
        return _dots(base, tx_tx[:, None, :, 0]), _dots(base, tx_tx[trial, :, k + 1])

    def estimates(lut: np.ndarray, y: tuple[np.ndarray, np.ndarray], n: np.ndarray, s: np.ndarray) -> np.ndarray:
        y0 = np.hypot(y[0].real + s * n[..., 0], y[0].imag + s * n[..., 1])
        y1 = np.hypot(y[1].real + s * n[..., 2], y[1].imag + s * n[..., 3])
        return np.argmin(np.abs(lut[:, None, :] - (y1 / y0)[..., None]), axis=-1)

    idx_a, idx_b = index[0], index[1]
    at_bob = pilots(tx_b, tx_a, idx_a)
    at_alice = pilots(tx_a, tx_b, idx_b)
    est_b_at_alice = estimates(lut_b, at_alice, noise[0], sigma)
    est_a_at_bob = estimates(lut_a, at_bob, noise[1], sigma)

    def gray(idx: np.ndarray) -> np.ndarray:
        return idx ^ (idx >> 1)

    keys = [gray(idx_a) ^ gray(est_b_at_alice), gray(est_a_at_bob) ^ gray(idx_b)]
    if cfg.eve is not None:
        # co-located with one party, she hears what that party hears, at its
        # SNR, and guesses her host's indices uniformly
        if cfg.eve == "alice":
            eve_far = estimates(lut_b, at_alice, noise[2], sigma)
        else:
            eve_far = estimates(lut_a, at_bob, noise[2], sigma)
        keys.append(gray(index[2]) ^ gray(eve_far))
    for symbols in np.stack(keys, axis=1):
        yield SchemeResult(symbols, K.bit_length() - 1, 4 * R)


def secret_beam_session(cfg: SessionConfig) -> SchemeResult:
    """Run the beam-perturbation + XOR scheme for ``cfg.rounds`` rounds.

    Per round each party sends a calibration pilot on its nominal beam and a
    pilot on a beam perturbed by one of ``cfg.levels`` quantized azimuth
    offsets in (0, delta_max]; the receiver inverts the magnitude ratio
    through the known one-sided pattern curve.  Calibration pilots are
    public and never enter the key.  An eavesdropper co-located with one
    party recovers the far party's offsets exactly as well as that party
    does, but must guess the host's own offsets uniformly.  This is a batch
    of one trial whose seed is ``cfg.master_seed``.
    """
    if cfg.scheme != "secret_beam":  # a config is validated only for its own scheme
        raise ValueError(f"this batch runs 'secret_beam' sessions, got a {cfg.scheme!r} config")
    [result] = batch(cfg, [cfg.master_seed], [cfg.snr_db])
    return result


# ---------------------------------------------------------------------------
# Virtual AoA/AoD extraction
# ---------------------------------------------------------------------------


def estimate_channel(
    H: np.ndarray, snr_db: float, rng: np.random.Generator, out: np.ndarray | None = None
) -> np.ndarray:
    """Idealized sounding: the true matrix plus i.i.d. complex Gaussian error, written into ``out`` when given.

    The error's real parts are drawn first, then its imaginary parts; the
    estimate is built in one complex array, bit-equal to
    ``H + sigma * (re + 1j * im)``.  ``out`` must be a complex array of H's
    shape that does not overlap ``H``.
    """
    H = np.asarray(H)
    if out is None:
        out = np.empty(H.shape, dtype=complex)
    elif out.shape != H.shape or out.dtype != complex or np.may_share_memory(out, H):
        raise ValueError(f"out must be a complex array of shape {H.shape} that does not overlap H")
    sigma = _noise_sigma(snr_db)
    draw = rng.standard_normal(H.shape)
    out.real = draw
    out.imag = rng.standard_normal(out=draw)
    out *= sigma
    out += H
    return out


def _bin_symbols(mag: np.ndarray, count: int) -> tuple[np.ndarray, int]:
    """The ``count`` strongest bins of the 2-D ``mag``, ascending as ``row << col_bits | col``, and their bits.

    Each pass takes ``argmax``, so a tie goes to the lower flat index, and sets that bin of ``mag`` to -inf.
    """
    if count > mag.size:
        raise ValueError(f"cannot select {count} bins from {mag.size}")
    row_bits, col_bits = (max(1, (n - 1).bit_length()) for n in mag.shape)
    flat = mag.reshape(-1)
    top = np.empty(count, dtype=np.int64)
    for i in range(count):
        top[i] = np.argmax(flat)
        flat[top[i]] = -np.inf
    rows, cols = np.divmod(np.sort(top), mag.shape[1])
    return rows << col_bits | cols, row_bits + col_bits


def _sounding(cfg: SessionConfig, trial_seeds: np.ndarray):
    """A chunk of sounded trials, at the u64 master seeds ``trial_seeds``: returns ``estimates(b, t, snr, out)``.

    ``estimates`` writes round ``t`` of trial ``b``'s channel into one
    buffer and Alice's and Bob's estimates of it, at ``snr`` dB, into
    ``out[0]`` and ``out[1]``.  The chunk seeds all its streams at once,
    draws its channels as arrays and builds each side's path responses with
    one :func:`array_response` call.
    """
    R = cfg.rounds
    H = np.empty((cfg.bob.size, cfg.alice.size), dtype=complex)
    tags = (seeds.STREAM_CHANNEL, seeds.STREAM_NOISE_ALICE, seeds.STREAM_NOISE_BOB)
    # grid axes: trial, round, tag; an address is (seed, tag, round)
    lanes = seeds.stream_lanes(trial_seeds[:, None, None], tags, np.arange(R, dtype=np.uint64)[:, None])
    angles, gains = _rays(cfg, seeds.sampler_streams(lanes[..., 0, :]), (trial_seeds.size, R))
    a_rx = array_response(cfg.bob, angles[..., 2], angles[..., 3])
    a_tx = array_response(cfg.alice, angles[..., 0], angles[..., 1])
    noise = seeds.sampler_streams(lanes[..., 1:, :])

    def estimates(b, t, snr, out):
        channel_matrix(a_rx[b, t], gains[b, t], a_tx[b, t], out=H)
        for party, est in enumerate(out):
            estimate_channel(H, snr, noise(b, t, party), out=est)

    return estimates


def _virtual_angle(cfg: SessionConfig, trial_seeds: np.ndarray, snr_db):
    """One chunk of virtual-angle trials, each at its u64 seed and SNR: yields each trial's record.

    A party's key symbols are the ``cfg.num_paths`` strongest bins of the
    virtual channel of each of its estimates, by :func:`_bin_symbols`.
    Every trial of the chunk writes into one set of buffers.
    """
    estimates = _sounding(cfg, trial_seeds)
    shape = (cfg.bob.size, cfg.alice.size)
    mag, est = np.empty(shape), np.empty((2, *shape), dtype=complex)
    for b, snr in enumerate(snr_db):
        symbols = np.empty((2, cfg.rounds, cfg.num_paths), dtype=np.int64)
        for t in range(cfg.rounds):
            estimates(b, t, snr, est)
            for party in range(2):
                np.abs(virtual_channel(est[party], cfg.alice, cfg.bob, out=est[party]), out=mag)
                symbols[party, t], width = _bin_symbols(mag, cfg.num_paths)
        yield SchemeResult(symbols.reshape(2, -1), width, 2 * cfg.rounds)


def _baseline(cfg: SessionConfig, trial_seeds: np.ndarray, snr_db):
    """One chunk of baseline trials, as :func:`_virtual_angle` runs them.

    A party's key symbols are the Gray-coded cells of its pooled estimates.
    Both parties map the real and imaginary parts of every estimated
    entry to the cells of one range, calibrated on Alice's pooled samples and announced
    publicly (calibration is side information, not key material).
    """
    estimates = _sounding(cfg, trial_seeds)
    pools = np.empty((2, cfg.rounds, cfg.bob.size, cfg.alice.size), dtype=complex)
    # each party's (re, im) samples of every round
    samples = pools.view(np.float64).reshape(2, -1)
    for b, snr in enumerate(snr_db):
        for t in range(cfg.rounds):
            estimates(b, t, snr, pools[:, t])
        # mean removal as extract_randomness does it, then one range calibrated on Alice's
        samples -= samples.mean(axis=1, keepdims=True)
        quantizer = QuantizerConfig.calibrated(samples[0], levels=cfg.levels)
        cells = _gray_cells(samples, cfg.levels, quantizer.lo, quantizer.hi)
        yield SchemeResult(cells, cfg.levels.bit_length() - 1, 2 * cfg.rounds)


# ---------------------------------------------------------------------------
# Multi-resolution probing
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=8)
def _multires_beams(alice: ArrayGeometry, bob: ArrayGeometry, depth: int) -> tuple[Codebook, np.ndarray]:
    """Alice's codebook of ``depth`` levels and Bob's wide beam, built once per geometry.

    Both are read-only, so the cached objects are shared safely between
    sessions.
    """
    codebook = hierarchical_codebook(alice, depth)
    bob_wide = sector_beamformer(bob, -1.0, 1.0)
    bob_wide.setflags(write=False)
    return codebook, bob_wide


# the widest gain window a multires selection widens to, in 3 dB steps
_MAX_WINDOW_DB = 30.0


def _widened_selection(
    codebook: Codebook, H: np.ndarray, rx_beam: np.ndarray, count: int, window_db: float
) -> list[tuple[int, int]]:
    window = window_db
    while True:
        try:
            return select_beams(codebook, H, rx_beam, count, window)
        except SelectionInfeasibleError:
            if window >= _MAX_WINDOW_DB:
                raise
            window = min(_MAX_WINDOW_DB, window + 3.0)


def _rate_and_stderr(samples: np.ndarray, levels: int, sections: int = 10) -> tuple[float, float]:
    """The key entropy rate of an arm's (streams, blocks) samples, and its leave-one-section-out jackknife stderr (NaN below 2 blocks a section)."""
    if samples.shape[1] < 2 * sections:
        return float(_entropy_rates(samples, levels)[0]), float("nan")
    rates = _entropy_rates(samples, levels, sections)
    return float(rates[0]), float(np.sqrt((sections - 1) / sections * ((rates[1:] - rates[1:].mean()) ** 2).sum()))


def _multires(cfg: SessionConfig, trial_seeds: np.ndarray, snr_db):
    """One chunk of multires trials, each at its u64 seed and SNR: yields each trial's record.

    One :func:`seeds.stream_lanes` call seeds every trial's channel,
    evolution and noise streams; :func:`_rays` draws the channels and
    :func:`_evolved` their gains in every block.  Each trial in turn selects
    its beams on the channel matrix of its first gains, probes them on its
    (rounds, L) gains and scores the probe streams.  A party's key symbols
    are the Gray-coded cells of its multi-arm probe streams, one after
    another.
    """
    P, S = cfg.num_beams, trial_seeds.size
    codebook, bob_wide = _multires_beams(cfg.alice, cfg.bob, cfg.multires_depth)
    tags = (seeds.STREAM_CHANNEL, seeds.STREAM_EVOLVE, seeds.STREAM_NOISE_BOB)
    lanes = seeds.stream_lanes(trial_seeds[:, None], tags)  # grid axes: trial, tag
    angles, first = _rays(cfg, seeds.sampler_streams(lanes[:, 0]), (S,))
    gains = _evolved(cfg, seeds.sampler_streams(lanes[:, 1]), first)
    noise = seeds.sampler_streams(lanes[:, 2])
    for s, snr in enumerate(snr_db):
        a_tx = array_response(cfg.alice, angles[s, :, 0], angles[s, :, 1])
        a_rx = array_response(cfg.bob, angles[s, :, 2], angles[s, :, 3])
        H = channel_matrix(a_rx, first[s], a_tx)
        bob_pencil = steering_beamformer(cfg.bob, angles[s, 0, 2], angles[s, 0, 3])
        ids = _widened_selection(codebook, H, bob_wide, P, cfg.window_db)
        fixed_id = select_beams(codebook, H, bob_pencil, 1, cfg.window_db)[0]
        # per block, the multi arm's P probes, then the fixed arm's P
        w_a = np.stack([codebook.codeword(*i) for i in ids] + [codebook.codeword(*fixed_id)] * P)
        w_b = np.stack([bob_wide] * P + [bob_pencil] * P)
        # each party's in-phase (streams, blocks), each stream contiguous: a strided
        # row sums its mean in another order, and the cells depend on the last bit of it
        y_bob, y_alice = [
            np.ascontiguousarray(y.real.T)
            for y in bidirectional_probe(w_a, w_b, a_tx, a_rx, gains[s], snr, noise(s))
        ]

        # Gray-coded cells of each multi-arm probe stream on its own calibrated range, Alice's then Bob's
        cells = _gray_cells(extract_randomness(np.concatenate((y_alice[:P], y_bob[:P]))), cfg.levels)
        (ker_multires, multires_stderr), (ker_fixed, fixed_stderr) = (
            _rate_and_stderr(y, cfg.levels) for y in (y_bob[:P], y_bob[P:])
        )
        yield SchemeResult(
            cells.reshape(2, -1),
            cfg.levels.bit_length() - 1,
            4 * P * cfg.rounds,
            ker_multires=ker_multires,
            ker_multires_stderr=multires_stderr,
            ker_fixed=ker_fixed,
            ker_fixed_stderr=fixed_stderr,
        )


# each scheme's chunk function, and the most trials it runs at once: a
# secret-beam chunk of 64 keeps its arrays near a megabyte at 32 x 16
# antennas and 16 levels; a sounding chunk of 32 bounds the channels it holds
# at once, and a multires chunk of 32 the (sessions, blocks, L) gains.  A
# trial's record depends only on its seed and SNR, so any split of the trials
# into chunks gives the same records.
_SCHEMES = {
    "secret_beam": (_secret_beam, 64),
    "virtual": (_virtual_angle, 32),
    "baseline": (_baseline, 32),
    "multires": (_multires, 32),
}
SCHEMES = tuple(_SCHEMES)


def batch(cfg: SessionConfig, trial_seeds, snr_db):
    """Run the session ``cfg`` describes once per trial seed, as its master seed: yields each trial's record in turn.

    ``trial_seeds`` is a sequence of u64 master seeds (Python ints or a u64
    array), and ``snr_db`` holds each trial's SNR, in place of
    ``cfg.snr_db``.  The trials run in chunks of ``cfg.scheme``'s size in
    ``_SCHEMES``, each by that scheme's chunk function on its seeds as one
    u64 array.
    """
    run, size = _SCHEMES[cfg.scheme]
    for start in range(0, len(trial_seeds), size):
        chunk = slice(start, start + size)
        yield from run(cfg, np.asarray(trial_seeds[chunk], dtype=np.uint64), snr_db[chunk])
