"""End-to-end sessions for the three key-generation schemes.

* ``secret_beam_session``: both parties steer at the line-of-sight ray and
  hide quantized azimuth perturbations in their pilots; each side recovers
  the far side's perturbation from the calibrated magnitude ratio and the
  final key is the XOR of the two perturbation streams, which a co-located
  eavesdropper cannot reproduce.  ``secret_beam_batch`` runs a batch of
  such trials.
* ``virtual_angle_session``: both parties estimate the channel matrix,
  project it onto the angular (DFT) domain, and encode the positions of the
  strongest virtual bins.  ``sounding_bdrs`` scores a run of such trials,
  or of the baseline that quantizes every estimated entry.
* ``multires_session``: Alice probes with beams of several resolutions and
  angles chosen to keep the composite gain inside a window while Bob holds a
  wide fixed pattern; compared against an aligned fixed-beam link via the
  key entropy rate of the quantized probe streams.  ``multires_batch`` runs
  a batch of such sessions.

Every session is a pure function of its :class:`SessionConfig` (master seed
included): all randomness flows through labelled streams derived in
:mod:`mmkeygen.seeds`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

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
    ChannelRealization,
    _ar1,
    _draw_innovations,
    _innovations,
    array_response,
    channel_matrix,
    sample_channel,
    virtual_channel,
)
from .keygen import (
    BitString,
    QuantizerConfig,
    bar,
    _calibrated_cells,
    _cells_entropy_rate,
    extract_randomness,
    gray_encode_indices,
    key_entropy_rate,
    pack_indices,
)
from .probing import bidirectional_probe

SCHEMES = ("secret_beam", "virtual", "baseline", "multires")


def _check_snr(snr_db: float) -> None:
    """Raise ValueError unless the noise variance ``10**(-snr_db / 10)`` is a finite float.

    Every session scales its noise by that variance, and one that
    overflows fails the session only once it runs.
    """
    exponent = -float(snr_db) / 10.0
    try:
        finite = math.isfinite(10.0**exponent)
    except OverflowError:
        finite = False
    if not finite:
        raise ValueError(f"SNR {snr_db} dB gives a noise variance 10**({exponent}) that is not a finite float")


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
        _check_snr(self.snr_db)
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
    """Per-session outputs.

    ``bits_alice``/``bits_bob`` are the parties' quantized streams before
    any XOR combining (for the secret-beam scheme: each party's own true
    perturbation bits).  ``final_key_*`` are the per-party keys;
    ``eve_guess`` is the eavesdropper's best reconstruction and
    ``bits_eve`` the half she genuinely recovers.  ``bar_eve`` is NaN when
    no eavesdropper is configured.
    """

    bits_alice: BitString
    bits_bob: BitString
    final_key_alice: BitString
    final_key_bob: BitString
    bar_legit: float
    bdr: float
    leaked_bits: int
    probes_used: int
    bits_eve: BitString | None = None
    eve_guess: BitString | None = None
    bar_eve: float = float("nan")


@dataclass(frozen=True)
class MultiresResult:
    """Entropy-rate comparison of multi-resolution vs fixed-beam probing.

    ``samples_*`` hold the raw per-beam in-phase observations at Bob
    (shape: beams x blocks) for resampled error bars and diagnostics.
    """

    ker_multires: float
    ker_fixed: float
    beam_ids: tuple[tuple[int, int], ...]
    fixed_beam_id: tuple[int, int]
    window_db_used: float
    bits_alice: BitString
    bits_bob: BitString
    probes_used: int
    samples_multires: np.ndarray = field(repr=False, default=None)
    samples_fixed: np.ndarray = field(repr=False, default=None)


def _snap_sines_to_grid(angles: np.ndarray, n: int) -> np.ndarray:
    s = np.round(np.sin(angles) * n / 2.0) * 2.0 / n
    return np.arcsin(np.clip(s, -1.0, 1.0 - 2.0 / n))


def _grid_angles(angles: np.ndarray, cfg: SessionConfig) -> np.ndarray:
    # beamspace variant: in-plane rays with sines on the DFT grids of both
    # arrays, so each path occupies exactly one virtual bin
    snapped = np.zeros_like(angles)
    snapped[..., 0] = _snap_sines_to_grid(angles[..., 0], cfg.alice.cols)
    snapped[..., 2] = _snap_sines_to_grid(angles[..., 2], cfg.bob.cols)
    return snapped


def _session_channel(cfg: SessionConfig, rng: np.random.Generator) -> ChannelRealization:
    ch = sample_channel(cfg.alice, cfg.bob, rng, cfg.num_paths, cfg.nlos_offset_db)
    if not cfg.grid_angles:
        return ch
    return replace(ch, angles=_grid_angles(ch.angles, cfg))


# ---------------------------------------------------------------------------
# Secret beam (perturbation keying)
# ---------------------------------------------------------------------------

# the streams of one secret-beam session: those that feed numpy's samplers,
# in the order _beam_draws reads them, and those that give only raw outputs;
# the last of each feeds only the eavesdropper
_BEAM_SAMPLER_STREAMS = (
    seeds.STREAM_CHANNEL,
    seeds.STREAM_EVOLVE,
    seeds.STREAM_NOISE_ALICE,
    seeds.STREAM_NOISE_BOB,
    seeds.STREAM_NOISE_EVE,
)
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


@dataclass(frozen=True)
class _BeamBatch:
    """The outcomes of a batch of secret-beam sessions, one row per trial.

    The bit arrays are (B, rounds * bits per index), as in
    :class:`SchemeResult`.  Without an eavesdropper the eve arrays are None
    and ``bar_eve`` is NaN.
    """

    bits_alice: np.ndarray
    bits_bob: np.ndarray
    final_alice: np.ndarray
    final_bob: np.ndarray
    bits_eve: np.ndarray | None
    eve_guess: np.ndarray | None
    bar_legit: np.ndarray
    bar_eve: np.ndarray


def _beam_draws(cfg: SessionConfig, trial_seeds: np.ndarray) -> tuple[np.ndarray, ...]:
    """Every draw a batch of secret-beam sessions takes from its streams.

    Every stream is seeded at once by :func:`seeds.stream_lanes`.  The
    perturbation and guess streams give only raw outputs, so they come
    from :func:`seeds.raw_outputs` for the whole batch at once.  The other
    streams go trial by trial: one reused ``bit_generator.state`` mapping
    gets each stream's two ints and is assigned to one reused generator,
    which draws what the session takes from that stream, in the session's
    order.  ``uniform(low, high)`` is ``low + (high - low) * random()``, and
    with (low, high) = (-1, 1) or (0, 2 pi) that is exact in either order
    of rounding, so the uniform draws are taken as ``random()`` and scaled
    over the whole batch.  The evolution stream interleaves a uniform phase
    with normals, so it is drawn round by round.

    Returns the channel stream's uniforms (B, 4L + 1), the L x 4 sines
    then the LoS phase, and its NLoS normals (B, 2(L-1)); the evolution
    uniforms (B, R) and normals (B, R, 2(L-1)); the perturbation indices of
    Alice and Bob and the eavesdropper's guesses (parties, B, R); and the
    noise normals of Alice, Bob and the eavesdropper (parties, B, R, 4),
    per round the calibration pilot's (re, im) then the keyed pilot's.
    """
    B, R, L = trial_seeds.size, cfg.rounds, cfg.num_paths
    parties = 3 if cfg.eve is not None else 2
    tags = np.array(_BEAM_SAMPLER_STREAMS[: parties + 2] + _BEAM_RAW_STREAMS[:parties], np.uint64)
    lanes = seeds.stream_lanes(np.column_stack((np.repeat(trial_seeds, tags.size), np.tile(tags, B))))
    lanes = lanes.reshape(B, tags.size, 4)
    raw = seeds.raw_outputs(lanes[:, parties + 2 :].swapaxes(0, 1).reshape(-1, 4), (R + 1) // 2)
    index = seeds.integers_from_raw(raw.reshape(parties, B, -1), cfg.levels, R)
    streams = zip(*seeds.stream_states(lanes[:, : parties + 2].reshape(-1, 4)))
    mapping = {"bit_generator": "PCG64", "state": {"state": 0, "inc": 0}, "has_uint32": 0, "uinteger": 0}
    ints = mapping["state"]
    bitgen = np.random.PCG64(0)
    rng = np.random.Generator(bitgen)

    def next_stream() -> None:
        ints["state"], ints["inc"] = next(streams)
        bitgen.state = mapping

    channel_u = np.empty((B, 4 * L + 1))
    nlos = np.empty((B, 2 * (L - 1)))
    evo_u = np.empty((B, R))
    evo_nlos = np.empty((B, R, 2 * (L - 1)))
    noise = np.empty((parties, B, R, 4))
    for b in range(B):
        next_stream()
        rng.random(out=channel_u[b])
        rng.standard_normal(out=nlos[b])
        next_stream()
        for t in range(R):
            evo_u[b, t] = rng.random()
            rng.standard_normal(out=evo_nlos[b, t])
        for party in range(parties):
            next_stream()
            rng.standard_normal(out=noise[party, b])
    return channel_u, nlos, evo_u, evo_nlos, index, noise


def secret_beam_batch(cfg: SessionConfig, trial_seeds, snr_db) -> _BeamBatch:
    """Run the session ``cfg`` describes once per trial seed, as its master seed.

    ``snr_db`` holds each trial's SNR, in place of ``cfg.snr_db``.  The
    draws come from :func:`_beam_draws`; the rest is array math over all
    trials.  A trial's row depends only on its seed and SNR, so any split
    of the trials into batches gives the same rows.
    """
    trial_seeds = np.asarray(trial_seeds, dtype=np.uint64).reshape(-1)
    B, R, K, L = trial_seeds.size, cfg.rounds, cfg.levels, cfg.num_paths
    eve = cfg.eve is not None
    channel_u, nlos, evo_u, evo_nlos, index, noise = _beam_draws(cfg, trial_seeds)

    # the channel as sample_channel draws it, then its gains per round as
    # evolve steps them; -1 + 2u is uniform(-1, 1) and 2 pi u uniform(0, 2 pi)
    angles = np.arcsin(-1.0 + 2.0 * channel_u[:, :-1].reshape(B, L, 4))
    if cfg.grid_angles:
        angles = _grid_angles(angles, cfg)
    gains = _innovations(channel_u[:, -1], nlos, cfg.nlos_offset_db)
    alpha = _ar1(gains, _innovations(evo_u, evo_nlos, cfg.nlos_offset_db), cfg.temporal_rho)

    deltas = cfg.delta_max * np.arange(1, K + 1) / K

    def through_beams(geom: ArrayGeometry, column: int) -> tuple[np.ndarray, np.ndarray]:
        # (B, L, K+1): each path's gain through each beam, and the ratio LUT;
        # one side at a time, so one side's steering matrices are alive at once
        az, el = angles[..., column], angles[..., column + 1]
        beams, lut = _perturbation_beams(geom, az[:, 0], el[:, 0], deltas)
        return array_response(geom, az, el) @ beams.swapaxes(-1, -2), lut

    tx_a, lut_a = through_beams(cfg.alice, 0)
    tx_b, lut_b = through_beams(cfg.bob, 2)
    scale = np.sqrt(cfg.alice.size * cfg.bob.size / cfg.num_paths)

    # one scale per distinct SNR, then a (B, 1) column of them.  Each is taken
    # on a Python float: numpy's array power need not round as pow() does,
    # and the nearest-ratio argmin of `estimates` reads the last bit
    snrs, point = np.unique(np.asarray(snr_db, dtype=float), return_inverse=True)
    sigma = np.array([np.sqrt(10.0 ** (-snr / 10.0) / 2.0) for snr in snrs.tolist()])[point][:, None]
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

    width = K.bit_length() - 1

    def gray_bits(idx: np.ndarray) -> np.ndarray:
        return gray_encode_indices(idx.reshape(-1), width).bits.reshape(B, R * width)

    bits_alice, bits_bob = gray_bits(idx_a), gray_bits(idx_b)
    final_alice = bits_alice ^ gray_bits(est_b_at_alice)
    final_bob = gray_bits(est_a_at_bob) ^ bits_bob
    bits_eve = eve_guess = None
    bar_eve = np.full(B, np.nan)
    if eve:
        # co-located with one party, she hears what that party hears, at its
        # SNR, and guesses her host's indices uniformly
        if cfg.eve == "alice":
            eve_far = estimates(lut_b, at_alice, noise[2], sigma)
        else:
            eve_far = estimates(lut_a, at_bob, noise[2], sigma)
        bits_eve = gray_bits(eve_far)
        eve_guess = gray_bits(index[2]) ^ bits_eve
        bar_eve = (eve_guess == final_alice).mean(axis=1)
    return _BeamBatch(
        bits_alice=bits_alice,
        bits_bob=bits_bob,
        final_alice=final_alice,
        final_bob=final_bob,
        bits_eve=bits_eve,
        eve_guess=eve_guess,
        bar_legit=(final_alice == final_bob).mean(axis=1),
        bar_eve=bar_eve,
    )


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
    batch = secret_beam_batch(cfg, [cfg.master_seed], [cfg.snr_db])
    bar_legit = float(batch.bar_legit[0])
    eve = cfg.eve is not None
    return SchemeResult(
        bits_alice=BitString(batch.bits_alice[0]),
        bits_bob=BitString(batch.bits_bob[0]),
        final_key_alice=BitString(batch.final_alice[0]),
        final_key_bob=BitString(batch.final_bob[0]),
        bar_legit=bar_legit,
        bdr=1.0 - bar_legit,
        leaked_bits=0,
        probes_used=4 * cfg.rounds,
        bits_eve=BitString(batch.bits_eve[0]) if eve else None,
        eve_guess=BitString(batch.eve_guess[0]) if eve else None,
        bar_eve=float(batch.bar_eve[0]),
    )


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
    sigma = np.sqrt(10.0 ** (-snr_db / 10.0) / 2.0)
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


def _round_estimates(cfg: SessionConfig, seed: int, snr_db: float, t: int, H: np.ndarray, out):
    """Writes round ``t``'s channel into ``H``, and Alice's and Bob's estimates of it into ``out[0]`` and ``out[1]``."""
    tags = (seeds.STREAM_CHANNEL, seeds.STREAM_NOISE_ALICE, seeds.STREAM_NOISE_BOB)
    rng_ch, *rngs = (seeds.generator(seed, tag, t) for tag in tags)
    channel_matrix(_session_channel(cfg, rng_ch), out=H)
    for est, rng in zip(out, rngs):
        estimate_channel(H, snr_db, rng, out=est)


def _virtual_symbols(cfg: SessionConfig, trial_seeds, snr_db):
    """Per trial, at master seed ``trial_seeds[i]`` and SNR ``snr_db[i]``: each party's bins of every round, and their bits.

    The bins are the ``cfg.num_paths`` strongest of each estimate's virtual
    channel, by :func:`_bin_symbols`.  Every trial writes into one set of buffers.
    """
    shape = (cfg.bob.size, cfg.alice.size)
    H, mag = np.empty(shape, dtype=complex), np.empty(shape)
    est = np.empty((2, *shape), dtype=complex)
    for seed, snr in zip(trial_seeds, snr_db):
        symbols = np.empty((2, cfg.rounds, cfg.num_paths), dtype=np.int64)
        for t in range(cfg.rounds):
            _round_estimates(cfg, seed, snr, t, H, est)
            for party in range(2):
                np.abs(virtual_channel(est[party], cfg.alice, cfg.bob, out=est[party]), out=mag)
                symbols[party, t], bits = _bin_symbols(mag, cfg.num_paths)
        yield symbols[0].ravel(), symbols[1].ravel(), bits


def _baseline_symbols(cfg: SessionConfig, trial_seeds, snr_db):
    """Per trial, as :func:`_virtual_symbols`: each party's Gray-coded cells of its pooled estimates, and their bits.

    Both parties quantize the real and imaginary parts of every estimated
    entry on one range, calibrated on Alice's pooled samples and announced
    publicly (calibration is side information, not key material).
    """
    shape = (cfg.bob.size, cfg.alice.size)
    H = np.empty(shape, dtype=complex)
    pools = np.empty((2, cfg.rounds, *shape), dtype=complex)
    # each party's (re, im) samples of every round
    samples = pools.view(np.float64).reshape(2, -1)
    for seed, snr in zip(trial_seeds, snr_db):
        for t in range(cfg.rounds):
            _round_estimates(cfg, seed, snr, t, H, pools[:, t])
        # mean removal as extract_randomness does it, then one range calibrated on Alice's
        samples -= samples.mean(axis=1, keepdims=True)
        quantizer = QuantizerConfig.calibrated(samples[0], levels=cfg.levels)
        cells = _calibrated_cells(samples, cfg.levels, quantizer.lo, quantizer.hi)
        cells ^= cells >> 1
        yield cells[0], cells[1], cfg.levels.bit_length() - 1


def sounding_bdrs(cfg: SessionConfig, trial_seeds, snr_db) -> np.ndarray:
    """The bdr of each virtual or baseline trial, at master seed ``trial_seeds[i]`` and SNR ``snr_db[i]``.

    Both are sequences of Python ints and floats, as a session's master
    seed and SNR are.

    A trial's bdr is ``1 - bar`` of the bits its key symbols pack into, by
    the exact count ``bar`` takes: the ``np.bitwise_count`` of the XOR of
    the symbols over the bit total, so no bit string is packed.
    """
    loops = {"virtual": _virtual_symbols, "baseline": _baseline_symbols}
    if cfg.scheme not in loops:
        raise ValueError(f"sounding_bdrs runs virtual or baseline sessions, got {cfg.scheme!r}")
    bdrs = []
    for symbols_a, symbols_b, bits in loops[cfg.scheme](cfg, trial_seeds, snr_db):
        total = symbols_a.size * bits
        bdrs.append(1.0 - (total - int(np.bitwise_count(symbols_a ^ symbols_b).sum())) / total)
    return np.array(bdrs)


def virtual_angle_session(cfg: SessionConfig) -> SchemeResult:
    """Aggregate virtual-angle bit disagreement over ``cfg.rounds`` independent channels.

    The trial of :func:`_virtual_symbols` at ``cfg``'s seed and SNR; its
    keys are its bits as they are.
    """
    [(symbols_a, symbols_b, bits)] = _virtual_symbols(cfg, [cfg.master_seed], [cfg.snr_db])
    bits_a, bits_b = pack_indices(symbols_a, bits), pack_indices(symbols_b, bits)
    agreement = bar(bits_a, bits_b)
    return SchemeResult(
        bits_alice=bits_a,
        bits_bob=bits_b,
        final_key_alice=bits_a,
        final_key_bob=bits_b,
        bar_legit=agreement,
        bdr=1.0 - agreement,
        leaked_bits=0,
        probes_used=2 * cfg.rounds,
    )


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
    codebook: Codebook,
    ch: ChannelRealization,
    rx_beam: np.ndarray,
    count: int,
    window_db: float,
) -> tuple[list[tuple[int, int]], float]:
    window = window_db
    while True:
        try:
            return select_beams(codebook, ch, rx_beam, count, window), window
        except SelectionInfeasibleError:
            if window >= _MAX_WINDOW_DB:
                raise
            window = min(_MAX_WINDOW_DB, window + 3.0)


def _probe_entropy_rate(samples: np.ndarray, levels: int) -> float:
    """Key entropy rate of (streams, blocks) probe samples, each stream mean-removed.

    The estimator's 2000-trial floor is lowered to the number of blocks, so
    a shorter session is scored rather than refused.
    """
    return key_entropy_rate(
        extract_randomness(samples), QuantizerConfig(levels=levels), min_trials=min(2000, samples.shape[1])
    )


def multires_batch(cfg: SessionConfig, trial_seeds, snr_db):
    """Run the session ``cfg`` describes once per trial seed, as its master seed: yields each trial's result in turn.

    ``snr_db`` holds each trial's SNR, in place of ``cfg.snr_db``; both are
    sequences of Python ints and floats, as a session's master seed and SNR
    are.  Each trial draws its channel, beams and evolution from its own
    streams, and writes its innovations into its L columns of one
    (rounds, trials * L) array that one AR(1) recurrence steps in place.
    Each trial is then probed on its (rounds, L) slice of the gains, one
    trial at a time.  A trial's result depends only on its seed and SNR.
    """
    P, T, L = cfg.num_beams, cfg.rounds, cfg.num_paths
    codebook, bob_wide = _multires_beams(cfg.alice, cfg.bob, cfg.multires_depth)
    eps = np.empty((T, len(trial_seeds), L), dtype=complex)
    normals = np.empty((T, 2 * (L - 1)))
    points = []
    for s, seed in enumerate(trial_seeds):
        ch = _session_channel(cfg, seeds.generator(seed, seeds.STREAM_CHANNEL))
        bob_pencil = steering_beamformer(cfg.bob, ch.angles[0, 2], ch.angles[0, 3])
        ids, window_used = _widened_selection(codebook, ch, bob_wide, P, cfg.window_db)
        fixed_id = select_beams(codebook, ch, bob_pencil, 1, cfg.window_db)[0]
        # per block, the multi arm's P probes, then the fixed arm's P
        w_a = np.stack([codebook.codeword(*i) for i in ids] + [codebook.codeword(*fixed_id)] * P)
        w_b = np.stack([bob_wide] * P + [bob_pencil] * P)
        points.append((ch, w_a, w_b, ids, window_used, fixed_id))
        _draw_innovations(seeds.generator(seed, seeds.STREAM_EVOLVE), cfg.nlos_offset_db, eps[:, s], normals)
    del normals
    # all trials' paths side by side: one AR(1) step is one row, and eps then holds the gains
    _ar1(np.concatenate([ch.gains for ch, *_ in points]), eps.reshape(T, len(points) * L), cfg.temporal_rho)
    width = cfg.levels.bit_length() - 1
    for s, (seed, snr, (ch, w_a, w_b, ids, window_used, fixed_id)) in enumerate(zip(trial_seeds, snr_db, points)):
        rng = seeds.generator(seed, seeds.STREAM_NOISE_BOB)
        # each party's in-phase (streams, blocks), each stream contiguous: a strided
        # row sums its mean in another order, and the bits depend on the last bit of it
        y_bob, y_alice = [np.ascontiguousarray(y.real.T) for y in bidirectional_probe(w_a, w_b, ch, eps[:, s], snr, rng)]

        # Gray-coded bits of each probe stream on its own calibrated range
        bits_alice = gray_encode_indices(_calibrated_cells(extract_randomness(y_alice[:P]), cfg.levels).ravel(), width)
        cells_bob = _calibrated_cells(extract_randomness(y_bob[:P]), cfg.levels)
        yield MultiresResult(
            ker_multires=_cells_entropy_rate(cells_bob, cfg.levels),
            ker_fixed=_probe_entropy_rate(y_bob[P:], cfg.levels),
            beam_ids=tuple(ids),
            fixed_beam_id=fixed_id,
            window_db_used=window_used,
            bits_alice=bits_alice,
            bits_bob=gray_encode_indices(cells_bob.ravel(), width),
            probes_used=4 * P * T,
            samples_multires=y_bob[:P],
            samples_fixed=y_bob[P:],
        )


def multires_session(cfg: SessionConfig) -> MultiresResult:
    """Compare multi-resolution probing against a fixed aligned link.

    Per coherence block (one gain-evolution step between blocks) the
    multi-resolution arm sends one bidirectional probe on each of the
    ``cfg.num_beams`` selected beams while Bob holds a wide constant-modulus
    pattern, so each probe is a differently-weighted combination of the
    multipath gains.  The fixed arm probes ``cfg.num_beams`` times per block
    over the conventional aligned link (strongest beams both ends).  The
    quantized in-phase samples of both arms are scored with the key entropy
    rate over all blocks.  A batch of one trial, at ``cfg.master_seed``.
    """
    [result] = multires_batch(cfg, [cfg.master_seed], [cfg.snr_db])
    return result
