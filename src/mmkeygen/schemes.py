"""End-to-end sessions for the three key-generation schemes.

* ``secret_beam_session``: both parties steer at the line-of-sight ray and
  hide quantized azimuth perturbations in their pilots; each side recovers
  the far side's perturbation from the calibrated magnitude ratio and the
  final key is the XOR of the two perturbation streams, which a co-located
  eavesdropper cannot reproduce.
* ``virtual_angle_session``: both parties estimate the channel matrix,
  project it onto the angular (DFT) domain, and encode the positions of the
  strongest virtual bins; ``baseline_channel_quant_session`` is the
  per-entry channel quantization reference.
* ``multires_session``: Alice probes with beams of several resolutions and
  angles chosen to keep the composite gain inside a window while Bob holds a
  wide fixed pattern; compared against an aligned fixed-beam link via the
  key entropy rate of the quantized probe streams.

Every session is a pure function of its :class:`SessionConfig` (master seed
included): all randomness flows through labelled streams derived in
:mod:`mmkeygen.seeds`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import seeds
from .beamforming import (
    DEFAULT_DELTA_MAX,
    Beamformer,
    Codebook,
    SelectionInfeasibleError,
    hierarchical_codebook,
    sector_beamformer,
    select_beams,
    steering_beamformer,
)
from .channel import (
    ArrayGeometry,
    ChannelParams,
    ChannelRealization,
    array_response,
    channel_matrix,
    evolve,
    response_matrices,
    sample_channel,
    virtual_channel,
)
from .keygen import (
    BitString,
    QuantizerConfig,
    bar,
    _calibrated_cells,
    concat_bits,
    extract_randomness,
    gray_encode_indices,
    key_entropy_rate,
    pack_indices,
    quantize,
    xor_combine,
)
from .probing import EveConfig, bidirectional_probe

SCHEMES = ("secret_beam", "virtual", "baseline", "multires")


@dataclass(frozen=True)
class SessionConfig:
    """Declarative description of one scheme session."""

    scheme: str = "secret_beam"
    alice: ArrayGeometry = field(default_factory=lambda: ArrayGeometry(1, 32))
    bob: ArrayGeometry = field(default_factory=lambda: ArrayGeometry(1, 16))
    snr_db: float = 10.0
    rounds: int = 100
    num_paths: int = 2
    nlos_offset_db: float = 10.0
    levels: int = 16
    num_beams: int = 5
    temporal_rho: float = 0.0
    eve: str | None = None
    eve_snr_db: float | None = None
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
            raise ValueError(f"eve must be 'alice', 'bob' or None, got {self.eve!r}")
        # delegate the remaining range checks
        ChannelParams(
            num_paths=self.num_paths,
            nlos_offset_db=self.nlos_offset_db,
            temporal_rho=self.temporal_rho,
        )
        QuantizerConfig(levels=self.levels)
        if self.scheme == "secret_beam":
            # the broadside sine offset must stay inside the first-null spacing
            # of each party's azimuth aperture or the ratio curve folds for
            # typical angles and the inversion is ill-posed by construction
            for geom, owner in ((self.alice, "alice"), (self.bob, "bob")):
                if geom.cols > 1 and np.sin(self.delta_max) >= 2.0 / (geom.cols * geom.spacing * 2.0):
                    raise ValueError(
                        f"delta_max={self.delta_max:.4f} rad reaches past the first pattern null "
                        f"of {owner}'s {geom.cols}-element azimuth aperture"
                    )

    @property
    def channel_params(self) -> ChannelParams:
        return ChannelParams(
            num_paths=self.num_paths,
            nlos_offset_db=self.nlos_offset_db,
            temporal_rho=self.temporal_rho,
        )


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


def _session_channel(cfg: SessionConfig, rng: np.random.Generator) -> ChannelRealization:
    ch = sample_channel(cfg.channel_params, cfg.alice, cfg.bob, rng)
    if not cfg.grid_angles:
        return ch
    # beamspace variant: in-plane rays with sines on the DFT grids of both
    # arrays, so each path occupies exactly one virtual bin
    angles = np.zeros_like(ch.angles)
    angles[:, 0] = _snap_sines_to_grid(ch.angles[:, 0], cfg.alice.cols)
    angles[:, 2] = _snap_sines_to_grid(ch.angles[:, 2], cfg.bob.cols)
    return replace(ch, angles=angles)


# ---------------------------------------------------------------------------
# Secret beam (perturbation keying)
# ---------------------------------------------------------------------------


def _perturbation_beams(
    geom: ArrayGeometry, az: float, el: float, deltas: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One party's (K+1) x N steering matrix and its K-entry ratio LUT.

    Row 0 is the matched beam toward (az, el), row k the beam toward
    (az + deltas[k-1], el).  The LUT is |pattern| at the nominal direction
    for each perturbed beam: strictly decreasing whenever the nominal
    direction is away from endfire and the span stays below the first
    pattern null; near endfire the curve flattens and nearest-ratio
    matching degrades gracefully to guessing.
    """
    resp = array_response(geom, np.concatenate(([az], az + deltas)), el)
    # the beams are conj(resp) and vecdot conjugates its first argument, so
    # this is w_k^T a(az, el) per row, bit-equal to beam_gain; hypot, unlike
    # np.abs, also matches abs() of a Python complex bit for bit
    pattern = np.vecdot(resp[1:], resp[0])
    return resp.conj(), np.hypot(pattern.real, pattern.imag)


def secret_beam_session(cfg: SessionConfig) -> SchemeResult:
    """Run the beam-perturbation + XOR scheme for ``cfg.rounds`` rounds.

    Per round each party sends a calibration pilot on its nominal beam and a
    pilot on a beam perturbed by one of ``cfg.levels`` quantized azimuth
    offsets in (0, delta_max]; the receiver inverts the magnitude ratio
    through the known one-sided pattern curve.  Calibration pilots are
    public and never enter the key.  An eavesdropper co-located with one
    party recovers the far party's offsets exactly as well as that party
    does, but must guess the host's own offsets uniformly.
    """
    K = cfg.levels
    width = K.bit_length() - 1
    seed = cfg.master_seed
    rng_channel = seeds.generator(seed, seeds.STREAM_CHANNEL)
    rng_evolve = seeds.generator(seed, seeds.STREAM_EVOLVE)
    rng_alice = seeds.generator(seed, seeds.STREAM_NOISE_ALICE)
    rng_bob = seeds.generator(seed, seeds.STREAM_NOISE_BOB)
    rng_eve = seeds.generator(seed, seeds.STREAM_NOISE_EVE)
    rng_pa = seeds.generator(seed, seeds.STREAM_PERTURB_ALICE)
    rng_pb = seeds.generator(seed, seeds.STREAM_PERTURB_BOB)
    rng_guess = seeds.generator(seed, seeds.STREAM_EVE_GUESS)

    ch = _session_channel(cfg, rng_channel)
    aod_az, aod_el, aoa_az, aoa_el = ch.angles[0]
    deltas = cfg.delta_max * np.arange(1, K + 1) / K
    beams_a, lut_a = _perturbation_beams(cfg.alice, aod_az, aod_el, deltas)
    beams_b, lut_b = _perturbation_beams(cfg.bob, aoa_az, aoa_el, deltas)

    a_rx, a_tx = response_matrices(ch)
    scale = np.sqrt(cfg.alice.size * cfg.bob.size / cfg.num_paths)
    tx_a = a_tx.T @ beams_a.T  # (L, K+1)
    tx_b = a_rx.T @ beams_b.T  # (L, K+1)

    sigma = np.sqrt(10.0 ** (-cfg.snr_db / 10.0) / 2.0)
    eve_snr = cfg.snr_db if cfg.eve_snr_db is None else cfg.eve_snr_db
    sigma_e = np.sqrt(10.0 ** (-eve_snr / 10.0) / 2.0)

    def _noise(r: np.random.Generator, s: float) -> complex:
        return complex(s * (r.standard_normal() + 1j * r.standard_normal()))

    idx_a = np.empty(cfg.rounds, dtype=np.int64)
    idx_b = np.empty(cfg.rounds, dtype=np.int64)
    est_a_at_bob = np.empty(cfg.rounds, dtype=np.int64)
    est_b_at_alice = np.empty(cfg.rounds, dtype=np.int64)
    eve_far = np.empty(cfg.rounds, dtype=np.int64)
    eve_near_guess = np.empty(cfg.rounds, dtype=np.int64)

    for t in range(cfg.rounds):
        ch = evolve(ch, cfg.temporal_rho, rng_evolve)
        alpha = ch.gains
        k_a = int(rng_pa.integers(0, K))
        k_b = int(rng_pb.integers(0, K))
        base_fwd = scale * (alpha * tx_b[:, 0])  # Bob combines on his nominal beam
        base_rev = scale * (alpha * tx_a[:, 0])  # Alice combines on hers
        y0_bob = base_fwd @ tx_a[:, 0] + _noise(rng_bob, sigma)
        y1_bob = base_fwd @ tx_a[:, k_a + 1] + _noise(rng_bob, sigma)
        y0_ali = base_rev @ tx_b[:, 0] + _noise(rng_alice, sigma)
        y1_ali = base_rev @ tx_b[:, k_b + 1] + _noise(rng_alice, sigma)

        idx_a[t], idx_b[t] = k_a, k_b
        est_a_at_bob[t] = int(np.argmin(np.abs(lut_a - abs(y1_bob) / abs(y0_bob))))
        est_b_at_alice[t] = int(np.argmin(np.abs(lut_b - abs(y1_ali) / abs(y0_ali))))

        if cfg.eve == "alice":
            e0 = base_rev @ tx_b[:, 0] + _noise(rng_eve, sigma_e)
            e1 = base_rev @ tx_b[:, k_b + 1] + _noise(rng_eve, sigma_e)
            eve_far[t] = int(np.argmin(np.abs(lut_b - abs(e1) / abs(e0))))
        elif cfg.eve == "bob":
            e0 = base_fwd @ tx_a[:, 0] + _noise(rng_eve, sigma_e)
            e1 = base_fwd @ tx_a[:, k_a + 1] + _noise(rng_eve, sigma_e)
            eve_far[t] = int(np.argmin(np.abs(lut_a - abs(e1) / abs(e0))))
        eve_near_guess[t] = int(rng_guess.integers(0, K))

    bits_alice = gray_encode_indices(idx_a, width)
    bits_bob = gray_encode_indices(idx_b, width)
    final_alice = xor_combine(bits_alice, gray_encode_indices(est_b_at_alice, width))
    final_bob = xor_combine(gray_encode_indices(est_a_at_bob, width), bits_bob)
    bar_legit = bar(final_alice, final_bob)

    bits_eve = eve_guess = None
    bar_eve = float("nan")
    if cfg.eve is not None:
        bits_eve = gray_encode_indices(eve_far, width)
        guess = gray_encode_indices(eve_near_guess, width)
        eve_guess = xor_combine(guess, bits_eve)
        bar_eve = bar(eve_guess, final_alice)

    return SchemeResult(
        bits_alice=bits_alice,
        bits_bob=bits_bob,
        final_key_alice=final_alice,
        final_key_bob=final_bob,
        bar_legit=bar_legit,
        bdr=1.0 - bar_legit,
        leaked_bits=0,
        probes_used=4 * cfg.rounds,
        bits_eve=bits_eve,
        eve_guess=eve_guess,
        bar_eve=bar_eve,
    )


# ---------------------------------------------------------------------------
# Virtual AoA/AoD extraction
# ---------------------------------------------------------------------------


def estimate_channel(H: np.ndarray, snr_db: float, rng: np.random.Generator) -> np.ndarray:
    """Idealized sounding: the true matrix plus i.i.d. complex Gaussian error."""
    H = np.asarray(H)
    sigma = np.sqrt(10.0 ** (-snr_db / 10.0) / 2.0)
    return H + sigma * (rng.standard_normal(H.shape) + 1j * rng.standard_normal(H.shape))


def virtual_angle_bits(
    H_hat: np.ndarray,
    num_paths: int,
    tx_geom: ArrayGeometry,
    rx_geom: ArrayGeometry,
) -> BitString:
    """Encode the positions of the strongest angular-domain bins.

    Takes the ``num_paths`` largest-magnitude entries of the virtual matrix,
    sorts the (row, col) pairs lexicographically (order-canonical without
    any exchange), and emits each pair as fixed-width binary.
    """
    H_v = virtual_channel(H_hat, tx_geom, rx_geom)
    n_bins = H_v.size
    if num_paths > n_bins:
        raise ValueError(f"cannot select {num_paths} bins from {n_bins}")
    mag = np.abs(H_v).ravel()
    top = np.argpartition(mag, n_bins - num_paths)[n_bins - num_paths:]
    # deterministic under ties: order by (-magnitude, flat index), keep top L
    top = top[np.lexsort((top, -mag[top]))][:num_paths]
    rows, cols = np.unravel_index(np.sort(top), H_v.shape)
    width_r = max(1, (rx_geom.size - 1).bit_length())
    width_t = max(1, (tx_geom.size - 1).bit_length())
    parts = []
    for r_idx, c_idx in sorted(zip(rows.tolist(), cols.tolist())):
        parts.append(pack_indices([r_idx], width_r))
        parts.append(pack_indices([c_idx], width_t))
    return concat_bits(parts)


def _estimation_rngs(seed: int, round_idx: int) -> tuple[np.random.Generator, ...]:
    return (
        seeds.generator(seed, seeds.STREAM_CHANNEL, round_idx),
        seeds.generator(seed, seeds.STREAM_NOISE_ALICE, round_idx),
        seeds.generator(seed, seeds.STREAM_NOISE_BOB, round_idx),
    )


def virtual_angle_session(cfg: SessionConfig) -> SchemeResult:
    """Aggregate virtual-angle bit disagreement over independent channels."""
    parts_a: list[BitString] = []
    parts_b: list[BitString] = []
    for t in range(cfg.rounds):
        rng_ch, rng_a, rng_b = _estimation_rngs(cfg.master_seed, t)
        ch = _session_channel(cfg, rng_ch)
        H = channel_matrix(ch)
        h_a = estimate_channel(H, cfg.snr_db, rng_a)
        h_b = estimate_channel(H, cfg.snr_db, rng_b)
        parts_a.append(virtual_angle_bits(h_a, cfg.num_paths, cfg.alice, cfg.bob))
        parts_b.append(virtual_angle_bits(h_b, cfg.num_paths, cfg.alice, cfg.bob))
    bits_a = concat_bits(parts_a)
    bits_b = concat_bits(parts_b)
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


def baseline_channel_quant_session(cfg: SessionConfig) -> SchemeResult:
    """Per-entry channel quantization reference for the virtual scheme.

    Both parties quantize real and imaginary parts of every estimated
    entry; the quantizer range is calibrated on Alice's pooled samples and
    announced publicly (calibration is side information, not key material).
    """
    stream_a: list[np.ndarray] = []
    stream_b: list[np.ndarray] = []
    for t in range(cfg.rounds):
        rng_ch, rng_a, rng_b = _estimation_rngs(cfg.master_seed, t)
        ch = _session_channel(cfg, rng_ch)
        H = channel_matrix(ch)
        for holder, rng in ((stream_a, rng_a), (stream_b, rng_b)):
            h_hat = estimate_channel(H, cfg.snr_db, rng)
            interleaved = np.empty(2 * h_hat.size)
            interleaved[0::2] = h_hat.real.ravel()
            interleaved[1::2] = h_hat.imag.ravel()
            holder.append(interleaved)
    samples_a = extract_randomness(np.concatenate(stream_a))
    samples_b = extract_randomness(np.concatenate(stream_b))
    quantizer = QuantizerConfig.calibrated(samples_a, levels=cfg.levels)
    bits_a = quantize(samples_a, quantizer)
    bits_b = quantize(samples_b, quantizer)
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


def _widened_selection(
    codebook: Codebook,
    ch: ChannelRealization,
    rx_beam: Beamformer,
    count: int,
    window_db: float,
    max_window_db: float = 30.0,
) -> tuple[list[tuple[int, int]], float]:
    window = window_db
    while True:
        try:
            return select_beams(codebook, ch, rx_beam, count, window), window
        except SelectionInfeasibleError:
            if window >= max_window_db:
                raise
            window = min(max_window_db, window + 3.0)


def multires_session(cfg: SessionConfig) -> MultiresResult:
    """Compare multi-resolution probing against a fixed aligned link.

    Per coherence block (one gain-evolution step between blocks) the
    multi-resolution arm sends one bidirectional probe on each of the
    ``cfg.num_beams`` selected beams while Bob holds a wide constant-modulus
    pattern, so each probe is a differently-weighted combination of the
    multipath gains.  The fixed arm probes ``cfg.num_beams`` times per block
    over the conventional aligned link (strongest beams both ends).  The
    quantized in-phase samples of both arms are scored with the key entropy
    rate over all blocks.
    """
    P = cfg.num_beams
    T = cfg.rounds
    seed = cfg.master_seed
    rng_channel = seeds.generator(seed, seeds.STREAM_CHANNEL)
    rng_evolve = seeds.generator(seed, seeds.STREAM_EVOLVE)
    rng_noise = seeds.generator(seed, seeds.STREAM_NOISE_BOB)

    ch = _session_channel(cfg, rng_channel)
    depth = cfg.codebook_depth or min(6, int(math.log2(cfg.alice.cols)))
    codebook = hierarchical_codebook(cfg.alice, depth)
    bob_wide = sector_beamformer(cfg.bob, -1.0, 1.0)
    bob_pencil = steering_beamformer(cfg.bob, ch.angles[0, 2], ch.angles[0, 3])

    ids, window_used = _widened_selection(codebook, ch, bob_wide, P, cfg.window_db)
    beams = [codebook.codeword(*i) for i in ids]
    fixed_id = select_beams(codebook, ch, bob_pencil, 1, cfg.window_db)[0]
    fixed_beam = codebook.codeword(*fixed_id)

    a_rx, a_tx = response_matrices(ch)
    scale = np.sqrt(cfg.alice.size * cfg.bob.size / cfg.num_paths)
    eve = EveConfig()

    y_multi_bob = np.empty((P, T))
    y_multi_alice = np.empty((P, T))
    y_fixed_bob = np.empty((P, T))
    for t in range(T):
        ch = evolve(ch, cfg.temporal_rho, rng_evolve)
        H = scale * ((a_rx * ch.gains) @ a_tx.T)
        for p, beam in enumerate(beams):
            out = bidirectional_probe(
                beam, beam, bob_wide, bob_wide, H, cfg.snr_db, eve, rng_noise
            )
            y_multi_bob[p, t] = out.y_at_bob.real
            y_multi_alice[p, t] = out.y_at_alice.real
        for p in range(P):
            out = bidirectional_probe(
                fixed_beam, fixed_beam, bob_pencil, bob_pencil, H, cfg.snr_db, eve, rng_noise
            )
            y_fixed_bob[p, t] = out.y_at_bob.real

    quantizer = QuantizerConfig(levels=cfg.levels)
    multi_rows = np.stack([extract_randomness(row) for row in y_multi_bob])
    multi_alice_rows = np.stack([extract_randomness(row) for row in y_multi_alice])
    fixed_rows = np.stack([extract_randomness(row) for row in y_fixed_bob])
    min_trials = min(2000, T)
    ker_multires = key_entropy_rate(multi_rows, quantizer, min_trials=min_trials)
    ker_fixed = key_entropy_rate(fixed_rows, quantizer, min_trials=min_trials)

    # Gray-coded bits of each probe stream on its own calibrated range
    width = cfg.levels.bit_length() - 1
    bits_alice = gray_encode_indices(_calibrated_cells(multi_alice_rows, cfg.levels).ravel(), width)
    bits_bob = gray_encode_indices(_calibrated_cells(multi_rows, cfg.levels).ravel(), width)

    return MultiresResult(
        ker_multires=ker_multires,
        ker_fixed=ker_fixed,
        beam_ids=tuple(ids),
        fixed_beam_id=fixed_id,
        window_db_used=window_used,
        bits_alice=bits_alice,
        bits_bob=bits_bob,
        probes_used=4 * P * T,
        samples_multires=y_multi_bob,
        samples_fixed=y_fixed_bob,
    )
