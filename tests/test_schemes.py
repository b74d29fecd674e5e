from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmkeygen import schemes, seeds
from mmkeygen.beamforming import hierarchical_codebook, sector_beamformer, steering_beamformer
from mmkeygen.channel import (
    ArrayGeometry,
    array_response,
    channel_matrix,
    evolve,
    response_matrices,
    sample_channel,
    virtual_channel,
)
from mmkeygen.keygen import (
    BitString,
    QuantizerConfig,
    _calibrated_cells,
    bar,
    extract_randomness,
    gray_encode_indices,
    key_entropy_rate,
    pack_indices,
    quantize,
)
from mmkeygen.schemes import (
    SessionConfig,
    _bin_symbols,
    _perturbation_beams,
    _session_channel,
    estimate_channel,
    multires_batch,
    multires_session,
    secret_beam_batch,
    secret_beam_session,
    sounding_bdrs,
    virtual_angle_session,
)
from reference import cell_indices


def rng(seed=0):
    return np.random.default_rng(seed)


def fig2_cfg(**kw):
    base = dict(
        scheme="secret_beam",
        alice=ArrayGeometry(1, 32),
        bob=ArrayGeometry(1, 16),
        snr_db=10.0,
        rounds=100,
        num_paths=2,
        delta_max=float(np.radians(3.0)),
        eve="alice",
        master_seed=11,
    )
    base.update(kw)
    return SessionConfig(**base)


def fig3_cfg(**kw):
    base = dict(
        scheme="virtual",
        alice=ArrayGeometry(1, 128),
        bob=ArrayGeometry(1, 128),
        snr_db=-10.0,
        rounds=50,
        num_paths=3,
        nlos_offset_db=0.0,
        grid_angles=True,
        master_seed=5,
    )
    base.update(kw)
    return SessionConfig(**base)


def fig4_cfg(**kw):
    base = dict(
        scheme="multires",
        alice=ArrayGeometry(1, 64),
        bob=ArrayGeometry(1, 32),
        snr_db=20.0,
        rounds=2000,
        num_paths=8,
        levels=4,
        num_beams=5,
        temporal_rho=0.5,
        master_seed=3,
    )
    base.update(kw)
    return SessionConfig(**base)


class TestSecretBeam:
    def test_noiseless_single_path_exact(self):
        res = secret_beam_session(fig2_cfg(snr_db=200.0, num_paths=1, rounds=200))
        assert res.bar_legit == 1.0
        assert res.final_key_alice.equals(res.final_key_bob)

    def test_more_antennas_higher_bar(self):
        big = secret_beam_session(
            fig2_cfg(alice=ArrayGeometry(1, 32), bob=ArrayGeometry(1, 16), snr_db=15.0, rounds=800)
        )
        small = secret_beam_session(
            fig2_cfg(alice=ArrayGeometry(1, 16), bob=ArrayGeometry(1, 8), snr_db=15.0, rounds=800)
        )
        assert big.bar_legit >= small.bar_legit

    @pytest.mark.parametrize("eve", ["alice", "bob"])
    def test_eve_near_chance(self, eve):
        res = secret_beam_session(fig2_cfg(eve=eve, rounds=2500, snr_db=10.0))
        assert abs(res.bar_eve - 0.5) < 0.03

    def test_xor_identity_when_estimates_exact(self):
        res = secret_beam_session(fig2_cfg(snr_db=200.0, num_paths=1, rounds=64))
        assert res.final_key_alice.equals(res.final_key_bob)

    def test_deterministic(self):
        a = secret_beam_session(fig2_cfg(rounds=20))
        b = secret_beam_session(fig2_cfg(rounds=20))
        assert a.final_key_alice.equals(b.final_key_alice)
        assert a.bar_legit == b.bar_legit

    def test_key_lengths(self):
        res = secret_beam_session(fig2_cfg(rounds=25))
        assert len(res.final_key_alice) == 25 * 4
        assert len(res.final_key_alice) == len(res.final_key_bob) == len(res.eve_guess)

    def test_no_eve_nan(self):
        res = secret_beam_session(fig2_cfg(eve=None, rounds=10))
        assert np.isnan(res.bar_eve)
        assert res.eve_guess is None


def reference_beam_streams(cfg):
    """The per-round secret-beam session loop that the trial batch replaced.

    Kept as the reference the batch is checked against: one generator per
    stream, scalar draws round by round, and per-round products and argmins.
    """
    K = cfg.levels
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

    def _noise(r, s):
        return complex(s * (r.standard_normal() + 1j * r.standard_normal()))

    out = {name: np.empty(cfg.rounds, dtype=np.int64) for name in BEAM_STREAMS}
    for t in range(cfg.rounds):
        alpha = evolve(ch, cfg.temporal_rho, rng_evolve, 1)[0]
        ch = replace(ch, gains=alpha)
        k_a = int(rng_pa.integers(0, K))
        k_b = int(rng_pb.integers(0, K))
        base_fwd = scale * (alpha * tx_b[:, 0])  # Bob combines on his nominal beam
        base_rev = scale * (alpha * tx_a[:, 0])  # Alice combines on hers
        y0_bob = base_fwd @ tx_a[:, 0] + _noise(rng_bob, sigma)
        y1_bob = base_fwd @ tx_a[:, k_a + 1] + _noise(rng_bob, sigma)
        y0_ali = base_rev @ tx_b[:, 0] + _noise(rng_alice, sigma)
        y1_ali = base_rev @ tx_b[:, k_b + 1] + _noise(rng_alice, sigma)

        out["idx_a"][t], out["idx_b"][t] = k_a, k_b
        out["est_a_at_bob"][t] = int(np.argmin(np.abs(lut_a - abs(y1_bob) / abs(y0_bob))))
        out["est_b_at_alice"][t] = int(np.argmin(np.abs(lut_b - abs(y1_ali) / abs(y0_ali))))

        if cfg.eve == "alice":
            e0 = base_rev @ tx_b[:, 0] + _noise(rng_eve, sigma)
            e1 = base_rev @ tx_b[:, k_b + 1] + _noise(rng_eve, sigma)
            out["eve_far"][t] = int(np.argmin(np.abs(lut_b - abs(e1) / abs(e0))))
        elif cfg.eve == "bob":
            e0 = base_fwd @ tx_a[:, 0] + _noise(rng_eve, sigma)
            e1 = base_fwd @ tx_a[:, k_a + 1] + _noise(rng_eve, sigma)
            out["eve_far"][t] = int(np.argmin(np.abs(lut_a - abs(e1) / abs(e0))))
        out["eve_near_guess"][t] = int(rng_guess.integers(0, K))
    return out


BEAM_STREAMS = ("idx_a", "idx_b", "est_a_at_bob", "est_b_at_alice", "eve_far", "eve_near_guess")
BEAM_FIELDS = ("bits_alice", "bits_bob", "final_alice", "final_bob", "bits_eve", "eve_guess", "bar_legit", "bar_eve")


def reference_beam_bits(cfg):
    """The bit fields of a batch row, built from the reference's Gray-encoded index streams.

    Gray coding at a fixed width is a bijection, so equal bits mean equal
    index streams.
    """
    ref = reference_beam_streams(cfg)

    def gray(name):
        return gray_encode_indices(ref[name], cfg.levels.bit_length() - 1).bits

    bits = {
        "bits_alice": gray("idx_a"),
        "bits_bob": gray("idx_b"),
        "final_alice": gray("idx_a") ^ gray("est_b_at_alice"),
        "final_bob": gray("est_a_at_bob") ^ gray("idx_b"),
    }
    if cfg.eve is not None:
        bits["bits_eve"] = gray("eve_far")
        bits["eve_guess"] = gray("eve_near_guess") ^ gray("eve_far")
    return bits


# a valid SNR that no trial of a batch uses, so that a row which read
# cfg.snr_db would show it: its noise, 10**300 times the signal, swamps it
UNREAD_SNR_DB = -3000.0
# edge words of SeedSequence's uint32 coercion, plus arbitrary u64 seeds
U64_SEEDS = st.one_of(st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1]), st.integers(0, 2**64 - 1))
# per-trial SNRs of a batch: the fig2 grid, and values off it
TRIAL_SNRS = st.one_of(st.sampled_from([0.0, 5.0, 10.0, 15.0, 20.0]), st.floats(-10.0, 40.0))


@st.composite
def secret_beam_configs(draw):
    def geometry():
        # a UPA, or a ULA along either axis; the span check bounds cols
        return ArrayGeometry(draw(st.sampled_from([1, 2, 4])), draw(st.sampled_from([1, 4, 8, 16, 32])))

    return SessionConfig(
        alice=geometry(),
        bob=geometry(),
        snr_db=draw(st.sampled_from([-5.0, 10.0, 40.0])),
        rounds=draw(st.integers(1, 5)),
        num_paths=draw(st.integers(1, 4)),
        nlos_offset_db=draw(st.sampled_from([0.0, 6.0, 10.0])),
        levels=draw(st.sampled_from([2, 8, 16])),
        temporal_rho=draw(st.sampled_from([0.0, 0.4, 1.0])),
        eve=draw(st.sampled_from([None, "alice", "bob"])),
        delta_max=float(np.radians(3.0)),
        grid_angles=draw(st.booleans()),
    )


def assert_batches_equal(a, b):
    for name in BEAM_FIELDS:
        x, y = getattr(a, name), getattr(b, name)
        assert (x is None) == (y is None), name
        if x is not None:
            assert np.array_equal(x, y, equal_nan=x.dtype.kind == "f"), name


class TestSecretBeamBatch:
    """The trial batch against the per-round reference, stream for stream."""

    @settings(max_examples=60, deadline=None)
    @given(secret_beam_configs(), st.lists(st.tuples(U64_SEEDS, TRIAL_SNRS), min_size=1, max_size=4))
    def test_streams_equal_per_round_reference(self, cfg, trials):
        trial_seeds, snrs = zip(*trials)
        batch = secret_beam_batch(cfg, np.array(trial_seeds, dtype=np.uint64), snrs)
        for row, (seed, snr) in enumerate(trials):
            ref = reference_beam_bits(replace(cfg, master_seed=seed, snr_db=snr))
            for name, bits in ref.items():
                assert np.array_equal(getattr(batch, name)[row], bits), name
            assert batch.bar_legit[row] == (ref["final_alice"] == ref["final_bob"]).mean()
        if cfg.eve is None:
            assert batch.bits_eve is None and batch.eve_guess is None
            assert np.isnan(batch.bar_eve).all()

    @settings(max_examples=30, deadline=None)
    @given(secret_beam_configs(), st.lists(st.tuples(U64_SEEDS, TRIAL_SNRS), min_size=1, max_size=6), st.data())
    def test_chunk_invariance(self, cfg, trials, data):
        # each row has its own SNR, and cfg.snr_db is read by none of them
        trial_seeds = np.array([seed for seed, _ in trials], dtype=np.uint64)
        snrs = np.array([snr for _, snr in trials])
        whole = secret_beam_batch(replace(cfg, snr_db=UNREAD_SNR_DB), trial_seeds, snrs)
        cuts = sorted(data.draw(st.sets(st.integers(1, len(trial_seeds) - 1))) if len(trial_seeds) > 1 else ())
        for pieces in (cuts, len(trial_seeds)):
            parts = [
                secret_beam_batch(cfg, seeds_piece, snrs_piece)
                for seeds_piece, snrs_piece in zip(np.split(trial_seeds, pieces), np.split(snrs, pieces))
            ]
            joined = type(whole)(
                **{
                    name: None if getattr(whole, name) is None else np.concatenate([getattr(p, name) for p in parts])
                    for name in BEAM_FIELDS
                }
            )
            assert_batches_equal(whole, joined)

    @pytest.mark.parametrize("eve, per_trial", [(None, 4), ("alice", 5)])
    def test_state_assigned_only_for_sampler_streams(self, monkeypatch, eve, per_trial):
        # the perturbation and guess streams give raw outputs computed from
        # their seeded states, with no generator; each other stream of a
        # trial is one state assignment
        trial_seeds = [3, 2**40 + 1, 2**64 - 1]
        streams = (
            seeds.STREAM_CHANNEL,
            seeds.STREAM_EVOLVE,
            seeds.STREAM_NOISE_ALICE,
            seeds.STREAM_NOISE_BOB,
            seeds.STREAM_NOISE_EVE,
        )[:per_trial]
        expected = [seeds.generator(seed, tag).bit_generator.state for seed in trial_seeds for tag in streams]
        assigned = []
        base = np.random.PCG64

        class PCG64(base):  # numpy checks a state's generator by class name
            @property
            def state(self):
                return base.state.__get__(self)

            @state.setter
            def state(self, value):
                assigned.append(value["state"].copy())
                base.state.__set__(self, value)

        monkeypatch.setattr(np.random, "PCG64", PCG64)
        secret_beam_batch(fig2_cfg(eve=eve, rounds=3), np.array(trial_seeds, dtype=np.uint64), [10.0] * 3)
        assert assigned == [state["state"] for state in expected]

    def test_session_is_batch_of_one(self):
        cfg = fig2_cfg(rounds=12, eve="bob", num_paths=3, temporal_rho=0.4)
        res = secret_beam_session(cfg)
        ref = reference_beam_streams(cfg)
        assert np.array_equal(res.bits_alice.bits, gray_encode_indices(ref["idx_a"], 4).bits)
        assert np.array_equal(res.bits_eve.bits, gray_encode_indices(ref["eve_far"], 4).bits)
        key = gray_encode_indices(ref["idx_a"], 4).bits ^ gray_encode_indices(ref["est_b_at_alice"], 4).bits
        assert np.array_equal(res.final_key_alice.bits, key)
        assert res.bar_legit == bar(res.final_key_alice, res.final_key_bob)
        assert res.bar_eve == bar(res.eve_guess, res.final_key_alice)


class TestPerturbationBeams:
    """The batched session beams against scalar steering beams and patterns, bit for bit."""

    CASES = [
        (ArrayGeometry(1, 32), 0.4, -0.3),
        (ArrayGeometry(1, 16), -1.2, 0.9),
        (ArrayGeometry(2, 16), 0.7, 0.25),
        (ArrayGeometry(4, 8), -0.05, -1.1),
    ]

    @pytest.mark.parametrize("geom, az, el", CASES)
    def test_steering_rows_equal_scalar_beams(self, geom, az, el):
        delta_max = float(np.radians(2.0))
        deltas = delta_max * np.arange(1, 17) / 16
        beams, _ = _perturbation_beams(geom, az, el, deltas)
        assert beams.shape == (17, geom.size)
        assert np.array_equal(beams[0], steering_beamformer(geom, az, el))
        for k, d in enumerate(deltas, start=1):
            assert np.array_equal(beams[k], steering_beamformer(geom, az + float(d), el))

    @pytest.mark.parametrize("geom, az, el", CASES)
    def test_lut_equals_scalar_beam_gains(self, geom, az, el):
        delta_max = float(np.radians(2.0))
        deltas = delta_max * np.arange(1, 17) / 16
        _, lut = _perturbation_beams(geom, az, el, deltas)
        # |w_k^T a(az, el)| of each perturbed beam, one 1-D product at a time
        a = array_response(geom, az, el)
        ref = [abs(complex(steering_beamformer(geom, az + float(d), el) @ a)) for d in deltas]
        assert np.array_equal(lut, ref)

    def test_grid_snapped_angles_equal_scalar_snapping(self):
        def snap(angle, n):
            s = np.round(np.sin(angle) * n / 2.0) * 2.0 / n
            return float(np.arcsin(min(1.0 - 2.0 / n, max(-1.0, s))))

        cfg = fig3_cfg(alice=ArrayGeometry(1, 64), bob=ArrayGeometry(1, 32), num_paths=6)
        for t in range(20):
            raw = sample_channel(cfg.alice, cfg.bob, seeds.generator(t, 1), cfg.num_paths, cfg.nlos_offset_db)
            ch = _session_channel(cfg, seeds.generator(t, 1))
            assert np.array_equal(ch.gains, raw.gains)
            for (aod, _, aoa, _), row in zip(raw.angles, ch.angles):
                assert tuple(row) == (snap(aod, 64), 0.0, snap(aoa, 32), 0.0)


class TestSessionValidation:
    def test_perturbation_span_past_first_null_rejected(self):
        # a 64-element azimuth aperture has its first null at ~1.79 degrees
        with pytest.raises(ValueError, match="first pattern null"):
            secret_beam_session(
                fig2_cfg(alice=ArrayGeometry(1, 64), bob=ArrayGeometry(1, 16), rounds=2)
            )

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="scheme"):
            SessionConfig(scheme="quantum")

    def test_bad_eve_rejected(self):
        with pytest.raises(ValueError, match="eve"):
            fig2_cfg(eve="carol")

    @pytest.mark.parametrize(
        "field, value", [("num_paths", 0), ("nlos_offset_db", -1.0), ("nlos_offset_db", np.nan), ("temporal_rho", 1.5)]
    )
    def test_channel_range_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            fig2_cfg(**{field: value})

    @pytest.mark.parametrize("snr_db", [-4000.0, -3083.0, np.nan, -np.inf])
    def test_snr_whose_noise_variance_is_not_finite_rejected(self, snr_db):
        # 10**(-snr/10) overflows a float, or is nan or inf: each session
        # scales its noise by it and failed only once it ran
        with pytest.raises(ValueError, match=f"SNR {snr_db} dB gives a noise variance"):
            fig2_cfg(snr_db=snr_db)

    def test_snr_with_finite_noise_variance_accepted(self):
        # 10**308 is finite; an infinite SNR is a noiseless link
        for snr_db in (-3080.0, 200.0, np.inf):
            assert fig2_cfg(snr_db=snr_db).snr_db == snr_db


class TestEstimateChannel:
    def test_high_snr_identity(self):
        H = rng(1).standard_normal((4, 4)) + 1j * rng(2).standard_normal((4, 4))
        assert np.max(np.abs(estimate_channel(H, 200.0, rng(3)) - H)) < 1e-9

    def test_error_variance(self):
        H = np.zeros((100, 100))
        err = estimate_channel(H, 7.0, rng(4))
        assert abs(np.mean(np.abs(err) ** 2) / 10 ** (-0.7) - 1.0) < 0.03

    @pytest.mark.parametrize("snr_db", [-20.0, 0.0, 13.0])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_equals_out_of_place_sum(self, snr_db, dtype):
        # the estimate built in place against the sum it replaced, with the
        # same two draws in the same order
        r = rng(8)
        H = r.standard_normal((6, 10)) + (1j * r.standard_normal((6, 10)) if dtype is complex else 0.0)
        sigma = np.sqrt(10.0 ** (-snr_db / 10.0) / 2.0)
        draws = rng(9)
        re, im = draws.standard_normal(H.shape), draws.standard_normal(H.shape)
        expected = H + sigma * (re + 1j * im)
        assert estimate_channel(H, snr_db, rng(9)).tobytes() == expected.tobytes()
        out = np.full(H.shape, np.nan, dtype=complex)
        assert estimate_channel(H, snr_db, rng(9), out=out) is out
        assert out.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "out",
        [np.empty((6, 4), dtype=complex), np.empty((4, 6)), None],
        ids=["shape", "float", "aliases-H"],
    )
    def test_bad_out_rejected(self, out):
        H = np.ones((4, 6), dtype=complex)
        with pytest.raises(ValueError, match="complex array of shape"):
            estimate_channel(H, 0.0, rng(1), out=H if out is None else out)

    def test_independent_streams(self):
        H = np.zeros((8, 8))
        a = estimate_channel(H, 0.0, rng(5))
        b = estimate_channel(H, 0.0, rng(6))
        assert not np.allclose(a, b)


def strongest_bins(H, num_paths, tx_geom, rx_geom):
    """The key symbols and their bit width of the ``num_paths`` strongest bins of H's virtual channel."""
    return _bin_symbols(np.abs(virtual_channel(H, tx_geom, rx_geom)), num_paths)


class TestVirtualAngleBits:
    def test_grid_aligned_single_path(self):
        geom = ArrayGeometry(1, 16)
        from mmkeygen.channel import ChannelRealization

        grid = lambda j: float(np.arcsin(-1 + 2 * j / 16))
        ch = ChannelRealization(gains=[1.0], angles=[[grid(3), 0.0, grid(9), 0.0]], tx_geom=geom, rx_geom=geom)
        [symbol], bits = strongest_bins(channel_matrix(ch), 1, geom, geom)
        assert bits == 4 + 4
        # recover the pair and check it is the single dominant bin
        Hv = virtual_channel(channel_matrix(ch), geom, geom)
        r0, c0 = np.unravel_index(np.argmax(np.abs(Hv)), Hv.shape)
        assert divmod(int(symbol), 16) == (r0, c0)

    def test_output_length(self):
        cfg = fig3_cfg(rounds=1)
        ch = _session_channel(cfg, seeds.generator(1, 1))
        symbols, bits = strongest_bins(channel_matrix(ch), 3, cfg.alice, cfg.bob)
        assert symbols.size * bits == 3 * (7 + 7)

    def test_identical_at_high_snr(self):
        res = virtual_angle_session(fig3_cfg(snr_db=200.0, rounds=20))
        assert res.bdr == 0.0

    def test_order_canonical(self):
        # the memory layout of the matrix cannot change the selection
        geom = ArrayGeometry(1, 32)
        H = rng(9).standard_normal((32, 32)) + 1j * rng(10).standard_normal((32, 32))
        a, _ = strongest_bins(H, 4, geom, geom)
        b, _ = strongest_bins(np.asfortranarray(H), 4, geom, geom)
        assert np.array_equal(a, b) and np.all(a[:-1] < a[1:])

    def test_too_many_bins(self):
        with pytest.raises(ValueError, match="cannot select"):
            _bin_symbols(np.zeros((2, 2)), 5)


def reference_angle_bits(H_hat, num_paths, tx_geom, rx_geom):
    """The key bits of the strongest bins by a per-pair loop: one ``pack_indices`` call per row and per column.

    The bins are the first ``num_paths`` of all bins sorted by (-magnitude,
    flat index).
    """
    H_v = virtual_channel(H_hat, tx_geom, rx_geom)
    mag = np.abs(H_v).ravel()
    top = np.lexsort((np.arange(mag.size), -mag))[:num_paths]
    rows, cols = np.unravel_index(np.sort(top), H_v.shape)
    width_r = max(1, (rx_geom.size - 1).bit_length())
    width_t = max(1, (tx_geom.size - 1).bit_length())
    parts = []
    for r_idx, c_idx in sorted(zip(rows.tolist(), cols.tolist())):
        parts.append(pack_indices([r_idx], width_r))
        parts.append(pack_indices([c_idx], width_t))
    return BitString(np.concatenate([p.bits for p in parts]))


class TestVirtualAngleBitsEqualReference:
    # rx and tx sizes differ, so the row and column widths differ too
    GEOMETRIES = [
        (ArrayGeometry(1, 32), ArrayGeometry(1, 8)),
        (ArrayGeometry(1, 4), ArrayGeometry(2, 8)),
        (ArrayGeometry(2, 4), ArrayGeometry(1, 2)),
    ]

    @pytest.mark.parametrize("tx, rx", GEOMETRIES)
    @pytest.mark.parametrize("num_paths", [1, 2, 3, 4, 5])
    def test_random_matrices(self, tx, rx, num_paths):
        r = rng(num_paths)
        for _ in range(20):
            H = r.standard_normal((rx.size, tx.size)) + 1j * r.standard_normal((rx.size, tx.size))
            bits = pack_indices(*strongest_bins(H, num_paths, tx, rx))
            assert len(bits) == num_paths * ((rx.size - 1).bit_length() + (tx.size - 1).bit_length())
            assert bits.equals(reference_angle_bits(H, num_paths, tx, rx))

    @pytest.mark.parametrize("tx, rx", GEOMETRIES)
    @pytest.mark.parametrize("num_paths", [1, 3, 5])
    def test_tied_magnitudes(self, tx, rx, num_paths):
        # all bins tie at zero; a delta spreads one magnitude over every bin
        delta = np.zeros((rx.size, tx.size))
        delta[0, 0] = 1.0
        for H in (np.zeros((rx.size, tx.size)), delta):
            bits = pack_indices(*strongest_bins(H, num_paths, tx, rx))
            assert bits.equals(reference_angle_bits(H, num_paths, tx, rx))


def baseline_bdr(**kw):
    """The bdr of one baseline trial at the fig3 settings with ``kw`` applied."""
    cfg = fig3_cfg(scheme="baseline", **kw)
    [bdr] = sounding_bdrs(cfg, [cfg.master_seed], [cfg.snr_db])
    return bdr


class TestVirtualSession:
    def test_low_snr_threshold_holds_at_modest_scale(self):
        res = virtual_angle_session(fig3_cfg(rounds=300))
        assert len(res.bits_alice) == 300 * 42
        assert res.bdr < 0.03  # acceptance tests the tight 1e-2 claim

    def test_noiseless_bdr_zero(self):
        res = virtual_angle_session(fig3_cfg(snr_db=200.0, rounds=10))
        assert res.bdr == 0.0

    def test_beats_baseline(self):
        v = virtual_angle_session(fig3_cfg(rounds=60, snr_db=-10.0))
        assert v.bdr < baseline_bdr(rounds=6, snr_db=-10.0)

    def test_baseline_noiseless_bdr_zero(self):
        assert baseline_bdr(snr_db=200.0, rounds=3, alice=ArrayGeometry(1, 16), bob=ArrayGeometry(1, 16)) == 0.0

    def test_baseline_bdr_monotone_in_snr(self):
        dims = dict(alice=ArrayGeometry(1, 32), bob=ArrayGeometry(1, 32))
        bdrs = [baseline_bdr(snr_db=snr, rounds=8, **dims) for snr in (-20.0, -10.0, 0.0, 10.0)]
        assert all(a >= b - 0.01 for a, b in zip(bdrs, bdrs[1:]))


class TestBinSymbols:
    @pytest.mark.parametrize("shape", [(8, 8), (1, 5), (3, 4), (16, 2)])
    def test_ties_go_to_the_lower_flat_index(self, shape):
        # all-zero and small-integer magnitudes tie at every level
        r = rng(sum(shape))
        n = shape[0] * shape[1]
        row_bits, col_bits = (max(1, (size - 1).bit_length()) for size in shape)
        for mag in [np.zeros(shape)] + [r.integers(0, 4, shape).astype(float) for _ in range(20)]:
            for count in range(1, n + 1):
                expected = np.sort(np.lexsort((np.arange(n), -mag.ravel()))[:count])
                rows, cols = np.divmod(expected, shape[1])
                symbols, bits = _bin_symbols(mag.copy(), count)
                assert symbols.tolist() == (rows * 2**col_bits + cols).tolist() and bits == row_bits + col_bits

    def test_all_zero_selects_first_bins(self):
        bits = pack_indices(*_bin_symbols(np.zeros((8, 8)), 3))
        # rows 0, 0, 0 and columns 0, 1, 2, three bits each
        assert bits.bits.tolist() == [0, 0, 0, 0, 0, 0] + [0, 0, 0, 0, 0, 1] + [0, 0, 0, 0, 1, 0]


def reference_sounding_bits(cfg, virtual):
    """Both parties' bits of one virtual or baseline trial, from the public functions on fresh arrays.

    This is the per-round loop the sounding loop replaced.
    """
    streams = ([], [])
    for t in range(cfg.rounds):
        rng_ch, rng_a, rng_b = (
            seeds.generator(cfg.master_seed, tag, t)
            for tag in (seeds.STREAM_CHANNEL, seeds.STREAM_NOISE_ALICE, seeds.STREAM_NOISE_BOB)
        )
        H = channel_matrix(_session_channel(cfg, rng_ch))
        for stream, r in zip(streams, (rng_a, rng_b)):
            stream.append(estimate_channel(H, cfg.snr_db, r))
    if virtual:
        return [
            BitString(np.concatenate([reference_angle_bits(h, cfg.num_paths, cfg.alice, cfg.bob).bits for h in s]))
            for s in streams
        ]
    a, b = (extract_randomness(np.concatenate([h.view(np.float64).ravel() for h in s])) for s in streams)
    quantizer = QuantizerConfig.calibrated(a, levels=cfg.levels)
    return [quantize(a, quantizer), quantize(b, quantizer)]


class TestSoundingLoop:
    @pytest.mark.parametrize("virtual", [True, False], ids=["virtual", "baseline"])
    @pytest.mark.parametrize(
        "alice, bob",
        [(ArrayGeometry(1, 16), ArrayGeometry(1, 8)), (ArrayGeometry(4, 4), ArrayGeometry(2, 4))],
        ids=["ula", "upa"],
    )
    @pytest.mark.parametrize("grid", [False, True], ids=["grid0", "grid1"])
    @pytest.mark.parametrize("rounds", [1, 3])
    def test_trials_equal_sessions_and_reference(self, virtual, alice, bob, grid, rounds):
        # one loop over several trials, so its buffers carry from trial to
        # trial; each trial against the fresh-array loop, and the virtual
        # one against a fresh session too
        cfg = fig3_cfg(
            scheme="virtual" if virtual else "baseline", alice=alice, bob=bob, rounds=rounds, grid_angles=grid, levels=8
        )
        trial_seeds, snrs = [3, 2**64 - 1, 40, 41], [-10.0, 0.0, 5.0, -10.0]
        loop = schemes._virtual_symbols if virtual else schemes._baseline_symbols
        trials = list(loop(cfg, trial_seeds, snrs))
        bdrs = sounding_bdrs(cfg, trial_seeds, snrs)
        for (a, b, width), seed, snr, bdr in zip(trials, trial_seeds, snrs, bdrs, strict=True):
            trial_cfg = replace(cfg, master_seed=seed, snr_db=snr)
            ref_a, ref_b = reference_sounding_bits(trial_cfg, virtual)
            assert pack_indices(a, width).equals(ref_a) and pack_indices(b, width).equals(ref_b)
            assert bdr == 1.0 - bar(ref_a, ref_b)
            if virtual:
                res = virtual_angle_session(trial_cfg)
                assert res.bits_alice.equals(ref_a) and res.bits_bob.equals(ref_b) and res.bdr == bdr

    @pytest.mark.parametrize("virtual", [True, False], ids=["virtual", "baseline"])
    def test_results_share_no_memory_with_buffers(self, virtual):
        # a trial's symbols stay as yielded while the loop writes its next
        # trial into the same buffers
        loop = schemes._virtual_symbols if virtual else schemes._baseline_symbols
        cfg = fig3_cfg(scheme="virtual" if virtual else "baseline", alice=ArrayGeometry(1, 16), bob=ArrayGeometry(2, 4))
        trials = loop(replace(cfg, rounds=2), [1, 99], [-10.0, 20.0])
        first = next(trials)[:2]
        kept = [symbols.copy() for symbols in first]
        next(trials)
        assert all(np.array_equal(symbols, copy) for symbols, copy in zip(first, kept, strict=True))

    def test_session_shares_no_memory_with_buffers(self, monkeypatch):
        buffers = []
        loop = schemes._virtual_symbols

        def spy(*args):
            gen = loop(*args)
            for symbols in gen:
                # the loop's arrays, as it holds them while its trial is read
                buffers.extend(v for v in gen.gi_frame.f_locals.values() if isinstance(v, np.ndarray))
                yield symbols

        monkeypatch.setattr(schemes, "_virtual_symbols", spy)
        cfg = fig3_cfg(alice=ArrayGeometry(1, 16), bob=ArrayGeometry(2, 4), rounds=2)
        first = virtual_angle_session(cfg)
        kept = [first.bits_alice.bits.copy(), first.bits_bob.bits.copy()]
        assert len(buffers) >= 4
        results = [first.bits_alice, first.bits_bob, first.final_key_alice, first.final_key_bob]
        for bits in results:
            assert not any(np.shares_memory(bits.bits, buf) for buf in buffers)
        virtual_angle_session(replace(cfg, master_seed=99, snr_db=20.0))
        assert np.array_equal(first.bits_alice.bits, kept[0]) and np.array_equal(first.bits_bob.bits, kept[1])

    @pytest.mark.parametrize("cfg", [fig2_cfg(), fig4_cfg()], ids=["secret_beam", "multires"])
    def test_bdrs_reject_other_schemes(self, cfg):
        with pytest.raises(ValueError, match="runs virtual or baseline sessions"):
            sounding_bdrs(cfg, [1], [0.0])


class TestMultires:
    def test_single_beam_arms_agree(self):
        res = multires_session(fig4_cfg(num_beams=1, rounds=2000))
        assert res.ker_multires == pytest.approx(1.0, abs=1e-9)
        assert res.ker_fixed == pytest.approx(1.0, abs=1e-9)
        assert abs(res.ker_multires - res.ker_fixed) < 0.05

    def test_five_beams_decorrelate(self):
        res = multires_session(fig4_cfg(rounds=3000))
        assert res.ker_fixed < 1.4
        assert res.ker_multires / res.ker_fixed > 3.0
        assert len(set(res.beam_ids)) == 5

    def test_noiseless_reciprocity(self):
        res = multires_session(fig4_cfg(snr_db=200.0, rounds=2000))
        assert bar(res.bits_alice, res.bits_bob) == 1.0

    def test_deterministic(self):
        a = multires_session(fig4_cfg(rounds=2000))
        b = multires_session(fig4_cfg(rounds=2000))
        assert a.ker_multires == b.ker_multires
        assert a.beam_ids == b.beam_ids

    def test_bits_equal_per_row_reference(self):
        # reference: each probe stream centred, calibrated on its own 1st-99th
        # percentile range, quantized and Gray-coded, streams concatenated
        res = multires_session(fig4_cfg(rounds=200))
        cells = per_row_cells(res.samples_multires, 4)
        assert np.array_equal(res.bits_bob.bits, gray_encode_indices(cells.ravel(), 2).bits)


class TestMultiresBatch:
    MULTIRES_FIELDS = ("ker_multires", "ker_fixed", "beam_ids", "fixed_beam_id", "window_db_used", "probes_used")

    def test_batch_equals_batches_of_one(self):
        # SNRs out of grid order and one seed repeated: each point's result
        # is bytes of its own batch of one, whatever the other points are
        cfg = fig4_cfg(rounds=300, snr_db=UNREAD_SNR_DB, master_seed=0)
        trial_seeds = [7, 3, 7, 2**64 - 1, 12]
        snrs = [20.0, 0.0, 5.0, 15.0, 10.0]
        whole = list(multires_batch(cfg, trial_seeds, snrs))
        assert len(whole) == 5
        for res, seed, snr in zip(whole, trial_seeds, snrs):
            [one] = multires_batch(cfg, [seed], [snr])
            for name in ("samples_multires", "samples_fixed"):
                assert getattr(res, name).tobytes() == getattr(one, name).tobytes(), name
            for name in ("bits_alice", "bits_bob"):
                assert getattr(res, name).bits.tobytes() == getattr(one, name).bits.tobytes(), name
            for name in self.MULTIRES_FIELDS:
                assert getattr(res, name) == getattr(one, name), name
        # the repeated seed at two SNRs: one channel and beam choice, other noise
        assert whole[0].beam_ids == whole[2].beam_ids
        assert whole[0].samples_multires.tobytes() != whole[2].samples_multires.tobytes()


def reference_multires_samples(cfg, beam_ids, fixed_id):
    """The per-block multires probing loop that one array pass replaced.

    Kept as the reference the session is checked against: scalar evolve
    steps, the channel matrix of each block, one ``w_b @ H @ w_a`` product
    per probe and scalar normals drawn at Bob, then at Alice.  Probes the
    beams ``beam_ids`` and ``fixed_id`` and returns the (beams, blocks)
    samples of the multi arm at Bob and at Alice and of the fixed arm at Bob.
    """
    seed = cfg.master_seed
    rng_channel = seeds.generator(seed, seeds.STREAM_CHANNEL)
    rng_evolve = seeds.generator(seed, seeds.STREAM_EVOLVE)
    rng_noise = seeds.generator(seed, seeds.STREAM_NOISE_BOB)
    ch = schemes._session_channel(cfg, rng_channel)
    codebook = hierarchical_codebook(cfg.alice, cfg.multires_depth)
    beams = [codebook.codeword(*i) for i in beam_ids]
    fixed_beam = codebook.codeword(*fixed_id)
    bob_wide = sector_beamformer(cfg.bob, -1.0, 1.0)
    bob_pencil = steering_beamformer(cfg.bob, ch.angles[0, 2], ch.angles[0, 3])
    sigma = np.sqrt(10.0 ** (-cfg.snr_db / 10.0) / 2.0)

    def probe(w_a, w_b, H):
        y_bob = complex(w_b @ H @ w_a) + sigma * complex(rng_noise.standard_normal(), rng_noise.standard_normal())
        y_alice = complex(w_a @ H.T @ w_b) + sigma * complex(rng_noise.standard_normal(), rng_noise.standard_normal())
        return y_bob.real, y_alice.real

    P, T = len(beams), cfg.rounds
    multi_bob, multi_alice, fixed_bob = np.empty((P, T)), np.empty((P, T)), np.empty((P, T))
    for t in range(T):
        ch = replace(ch, gains=evolve(ch, cfg.temporal_rho, rng_evolve, 1)[0])
        H = channel_matrix(ch)
        for p, beam in enumerate(beams):
            multi_bob[p, t], multi_alice[p, t] = probe(beam, bob_wide, H)
        for p in range(P):
            fixed_bob[p, t] = probe(fixed_beam, bob_pencil, H)[0]
    return multi_bob, multi_alice, fixed_bob


def per_row_cells(samples, levels):
    """Each stream centred, then quantized on its own 1st-99th percentile range."""
    rows = []
    for row in samples:
        centred = extract_randomness(row)
        lo, hi = np.percentile(centred, [1.0, 99.0])
        rows.append(cell_indices(centred, levels, float(lo), float(hi)))
    return np.stack(rows)


class TestMultiresEqualsReference:
    """The array session against the per-block reference loop."""

    CASES = {
        "fig4": dict(snr_db=10.0),
        # the fig4-overrides geometry of tests/test_golden.py
        "fig4-overrides": dict(
            alice=ArrayGeometry(1, 32),
            bob=ArrayGeometry(1, 16),
            num_paths=6,
            num_beams=4,
            temporal_rho=0.3,
            window_db=12.0,
            codebook_depth=4,
            snr_db=15.0,
            master_seed=2,
        ),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_samples_bits_and_kers_equal_reference(self, case):
        cfg = fig4_cfg(**self.CASES[case])
        res = multires_session(cfg)
        multi_bob, multi_alice, fixed_bob = reference_multires_samples(cfg, res.beam_ids, res.fixed_beam_id)
        # the array pass sums over paths where the reference sums over antennas
        np.testing.assert_allclose(res.samples_multires, multi_bob, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(res.samples_fixed, fixed_bob, rtol=1e-12, atol=1e-12)

        def gray(samples):
            return gray_encode_indices(per_row_cells(samples, cfg.levels).ravel(), 2).bits

        assert np.array_equal(res.bits_bob.bits, gray(multi_bob))
        assert np.array_equal(res.bits_alice.bits, gray(multi_alice))
        quantizer = QuantizerConfig(levels=cfg.levels)
        for ker, samples in ((res.ker_multires, multi_bob), (res.ker_fixed, fixed_bob)):
            centred = np.stack([extract_randomness(row) for row in samples])
            assert ker == key_entropy_rate(centred, quantizer)

    @pytest.mark.parametrize("shape", [(5, 200), (5, 1000), (4, 2000), (5, 3600), (5, 4500), (10, 5000)])
    def test_jackknife_helpers_equal_per_row_reference(self, shape):
        # mean removal and percentile ranges over all rows at once are bit-equal
        # to the per-row calls; one constant row keeps the degenerate-range path
        r = rng(shape[1])
        samples = r.standard_normal(shape) * r.uniform(0.1, 30.0, (shape[0], 1)) + r.uniform(-5.0, 5.0, (shape[0], 1))
        samples[-1] = 0.25
        centred = extract_randomness(samples)
        assert np.array_equal(centred, np.stack([extract_randomness(row) for row in samples]))
        cells = _calibrated_cells(centred[:-1], 4)
        assert np.array_equal(cells, per_row_cells(samples[:-1], 4))
        assert np.array_equal(_calibrated_cells(centred, 4)[-1], np.zeros(shape[1]))


class TestEveInformationBound:
    def test_mutual_information_on_4bit_blocks(self):
        # plug-in MI between eve's guess and the final key over 1e4 key bits
        res = secret_beam_session(fig2_cfg(eve="alice", rounds=2500, snr_db=10.0))
        eve = res.eve_guess.bits.reshape(-1, 4)
        key = res.final_key_alice.bits.reshape(-1, 4)
        pack = lambda blocks: (blocks * [8, 4, 2, 1]).sum(axis=1)
        e, k = pack(eve), pack(key)
        joint = np.zeros((16, 16))
        for a, b in zip(e, k):
            joint[a, b] += 1
        joint /= joint.sum()
        pe, pk = joint.sum(axis=1), joint.sum(axis=0)
        nz = joint > 0
        mi = float((joint[nz] * np.log2(joint[nz] / np.outer(pe, pk)[nz])).sum())
        assert mi / 4.0 <= 0.02
