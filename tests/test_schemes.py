from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mmkeygen import schemes, seeds
from mmkeygen.probing import bidirectional_probe
from mmkeygen.beamforming import hierarchical_codebook, sector_beamformer, steering_beamformer
from mmkeygen.channel import ArrayGeometry, array_response, virtual_channel
from mmkeygen.keygen import (
    BitString,
    QuantizerConfig,
    _calibrated_cells,
    bar,
    extract_randomness,
    key_entropy_rate,
)
from mmkeygen.schemes import (
    SCHEMES,
    SchemeResult,
    SessionConfig,
    _beam_draws,
    _bin_symbols,
    _evolved,
    _perturbation_beams,
    _rate_and_stderr,
    _rays,
    batch,
    estimate_channel,
    secret_beam_session,
)
from reference import (
    ar1_gains,
    baseline_symbols,
    cell_indices,
    each_trial,
    jackknife_rate,
    key_bits,
    pack_indices,
    ray_matrix,
    responses,
    session_channel,
    virtual_symbols,
)


def rng(seed=0):
    return np.random.default_rng(seed)


def session(cfg):
    """The record of ``cfg`` run as one trial, at its master seed and SNR: a chunk of that trial alone."""
    return next(batch(cfg, [cfg.master_seed], [cfg.snr_db]))


def one_trial(record):
    """The ``(symbols, width, kers)`` of the one trial of a record."""
    [trial] = each_trial([record])
    return trial


def bdr(record):
    """The bit disagreement ratio between Alice and Bob of a record of one trial."""
    return 1.0 - record.bar_legit


def gray_bits(cells, width):
    """Gray-coded cells, written out ``width`` bits each, most significant first."""
    return pack_indices(cells ^ (cells >> 1), width)


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
        trial = one_trial(res)
        assert key_bits(trial, 0).equals(key_bits(trial, 1))

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
        assert abs(res.agreement()[0, 1] - 0.5) < 0.03

    def test_xor_identity_when_estimates_exact(self):
        res = one_trial(secret_beam_session(fig2_cfg(snr_db=200.0, num_paths=1, rounds=64)))
        assert key_bits(res, 0).equals(key_bits(res, 1))

    def test_deterministic(self):
        a = secret_beam_session(fig2_cfg(rounds=20))
        b = secret_beam_session(fig2_cfg(rounds=20))
        assert key_bits(one_trial(a), 0).equals(key_bits(one_trial(b), 0))
        assert a.bar_legit == b.bar_legit

    def test_key_lengths(self):
        res = one_trial(secret_beam_session(fig2_cfg(rounds=25)))
        assert len(key_bits(res, 0)) == 25 * 4
        assert len(key_bits(res, 0)) == len(key_bits(res, 1)) == len(key_bits(res, 2))

    def test_no_eve_no_guess(self):
        # without an eavesdropper a trial has two parties, and one agreement
        res = secret_beam_session(fig2_cfg(eve=None, rounds=10))
        assert res.agreement().shape == (1, 1)
        assert len(one_trial(res)[0]) == 2


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

    angles, alpha = session_channel(cfg, rng_channel)
    aod_az, aod_el, aoa_az, aoa_el = angles[0]
    deltas = cfg.delta_max * np.arange(1, K + 1) / K
    beams_a, lut_a = _perturbation_beams(cfg.alice, aod_az, aod_el, deltas)
    beams_b, lut_b = _perturbation_beams(cfg.bob, aoa_az, aoa_el, deltas)

    a_tx, a_rx = responses(cfg.alice, cfg.bob, angles)
    scale = np.sqrt(cfg.alice.size * cfg.bob.size / cfg.num_paths)
    tx_a = a_tx @ beams_a.T  # (L, K+1)
    tx_b = a_rx @ beams_b.T  # (L, K+1)

    sigma = np.sqrt(10.0 ** (-cfg.snr_db / 10.0) / 2.0)

    def _noise(r, s):
        return complex(s * (r.standard_normal() + 1j * r.standard_normal()))

    out = {name: np.empty(cfg.rounds, dtype=np.int64) for name in BEAM_STREAMS}
    evolved = ar1_gains(alpha, cfg.temporal_rho, rng_evolve, cfg.rounds, cfg.nlos_offset_db)
    for t, alpha in enumerate(evolved):
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


def reference_beam_symbols(cfg):
    """A trial's (parties, rounds) key symbols, built from the reference's index streams.

    Each is the Gray code of the party's own index XOR that of its estimate
    of the far party's.  Given the indices that ``_beam_draws`` draws, the
    symbols fix each estimate stream, since Gray coding is a bijection.
    """
    ref = reference_beam_streams(cfg)

    def gray(name):
        return ref[name] ^ (ref[name] >> 1)

    keys = [gray("idx_a") ^ gray("est_b_at_alice"), gray("est_a_at_bob") ^ gray("idx_b")]
    if cfg.eve is not None:
        keys.append(gray("eve_near_guess") ^ gray("eve_far"))
    return np.stack(keys)


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


class TestSecretBeamBatch:
    """The chunked batch against the per-round reference, stream for stream."""

    @settings(max_examples=60, deadline=None)
    @given(secret_beam_configs(), st.lists(st.tuples(U64_SEEDS, TRIAL_SNRS), min_size=1, max_size=4))
    def test_streams_equal_per_round_reference(self, cfg, trials):
        trial_seeds, snrs = zip(*trials)
        records = list(batch(cfg, np.array(trial_seeds, dtype=np.uint64), snrs))
        agreements = np.concatenate([record.agreement() for record in records])
        # the drawn indices: Alice's, Bob's and the eavesdropper's guesses
        index = _beam_draws(cfg, np.array(trial_seeds, dtype=np.uint64))[2]
        assert len(agreements) == len(trials)
        assert all(record.probes_used == 4 * cfg.rounds for record in records)
        for row, ((symbols, width, _), (seed, snr)) in enumerate(zip(each_trial(records), trials, strict=True)):
            trial_cfg = replace(cfg, master_seed=seed, snr_db=snr)
            ref = reference_beam_streams(trial_cfg)
            expected = reference_beam_symbols(trial_cfg)
            names = ("idx_a", "idx_b", "eve_near_guess")[: len(expected)]
            assert all(np.array_equal(index[party, row], ref[name]) for party, name in enumerate(names))
            assert np.array_equal(symbols, expected)
            assert width == cfg.levels.bit_length() - 1
            keys = [pack_indices(party, width).bits for party in expected]
            assert agreements[row, 0] == (keys[0] == keys[1]).mean()
            if cfg.eve is None:
                assert len(symbols) == 2 and agreements.shape[1] == 1

    @settings(max_examples=30, deadline=None)
    @given(secret_beam_configs(), st.lists(st.tuples(U64_SEEDS, TRIAL_SNRS), min_size=1, max_size=6), st.data())
    def test_chunk_invariance(self, cfg, trials, data):
        # each trial has its own SNR, and cfg.snr_db is read by none of them
        trial_seeds = np.array([seed for seed, _ in trials], dtype=np.uint64)
        snrs = [snr for _, snr in trials]
        whole = list(each_trial(batch(replace(cfg, snr_db=UNREAD_SNR_DB), trial_seeds, snrs)))
        chunk = data.draw(st.integers(1, len(trials)))
        with pytest.MonkeyPatch.context() as patch:
            patch.setitem(schemes._SCHEMES, "secret_beam", (schemes._secret_beam, chunk))
            chunked = list(each_trial(batch(cfg, trial_seeds, snrs)))
        assert len(chunked) == len(whole)
        for (a, _, _), (b, _, _) in zip(whole, chunked):
            assert a.tobytes() == b.tobytes() and a.shape == b.shape and a.dtype == b.dtype

    @pytest.mark.numpy_contract
    @pytest.mark.parametrize("eve, per_trial", [(None, 4), ("alice", 5)])
    def test_state_assigned_only_for_sampler_streams(self, monkeypatch, eve, per_trial):
        # the perturbation and guess streams give raw outputs computed from
        # their seeded states, with no generator; each other stream of a
        # trial is one state assignment: every trial's channel stream, then
        # every trial's evolution stream, then each trial's noise streams
        trial_seeds = [3, 2**40 + 1, 2**64 - 1]
        noise = (seeds.STREAM_NOISE_ALICE, seeds.STREAM_NOISE_BOB, seeds.STREAM_NOISE_EVE)[: per_trial - 2]
        addresses = [(seed, seeds.STREAM_CHANNEL) for seed in trial_seeds]
        addresses += [(seed, seeds.STREAM_EVOLVE) for seed in trial_seeds]
        addresses += [(seed, tag) for seed in trial_seeds for tag in noise]
        expected = [seeds.generator(*address).bit_generator.state for address in addresses]
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
        list(batch(fig2_cfg(eve=eve, rounds=3), np.array(trial_seeds, dtype=np.uint64), [10.0] * 3))
        assert assigned == [state["state"] for state in expected]

    def test_session_is_batch_of_one(self):
        cfg = fig2_cfg(rounds=12, eve="bob", num_paths=3, temporal_rho=0.4)
        res = secret_beam_session(cfg)
        trial = one_trial(res)
        assert np.array_equal(trial[0], reference_beam_symbols(cfg))
        assert res.bar_legit == bar(key_bits(trial, 0), key_bits(trial, 1))
        assert res.agreement()[0, 1] == bar(key_bits(trial, 2), key_bits(trial, 0))


@pytest.fixture
def assigned_states(monkeypatch):
    """Every PCG64 state assigned while the test runs, in order: one per sampler stream set."""
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
    return assigned


def sounding_addresses(trial_seeds, rounds):
    """The streams a sounding chunk sets, in order: each trial's channel in each round, then each round's two noises."""
    channel = [(seed, seeds.STREAM_CHANNEL, t) for seed in trial_seeds for t in range(rounds)]
    noise_tags = (seeds.STREAM_NOISE_ALICE, seeds.STREAM_NOISE_BOB)
    noise = [(seed, tag, t) for seed in trial_seeds for t in range(rounds) for tag in noise_tags]
    return channel + noise


@pytest.mark.numpy_contract
class TestStreamAddresses:
    """The address of every sampler stream each scheme sets, and their order, pinned by the states assigned."""

    TRIAL_SEEDS = [3, 2**40 + 1, 2**64 - 1]

    @pytest.mark.parametrize("scheme", ["virtual", "baseline"])
    def test_sounding_streams(self, monkeypatch, assigned_states, scheme):
        # chunks of two trials: the second chunk draws once the first is sounded
        monkeypatch.setitem(schemes._SCHEMES, scheme, (schemes._SCHEMES[scheme][0], 2))
        cfg = fig3_cfg(scheme=scheme, alice=ArrayGeometry(1, 8), bob=ArrayGeometry(1, 4), rounds=2, num_paths=2)
        list(batch(cfg, self.TRIAL_SEEDS, [0.0] * 3))
        addresses = sounding_addresses(self.TRIAL_SEEDS[:2], 2) + sounding_addresses(self.TRIAL_SEEDS[2:], 2)
        assert assigned_states == [seeds.generator(*address).bit_generator.state["state"] for address in addresses]

    def test_multires_streams(self, assigned_states):
        # every trial's channel stream, then every trial's evolution stream, then each trial's noise stream
        list(batch(fig4_cfg(rounds=20), self.TRIAL_SEEDS, [10.0] * 3))
        tags = (seeds.STREAM_CHANNEL, seeds.STREAM_EVOLVE, seeds.STREAM_NOISE_BOB)
        addresses = [(seed, tag) for tag in tags for seed in self.TRIAL_SEEDS]
        assert assigned_states == [seeds.generator(*address).bit_generator.state["state"] for address in addresses]


class TestDrawsEqualReference:
    """``_rays`` and ``_evolved`` over many sampler streams against one generator a trial, one draw at a time."""

    @pytest.mark.numpy_contract
    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(U64_SEEDS, min_size=1, max_size=5),
        st.integers(1, 7),
        st.integers(1, 4),
        st.sampled_from([0.0, 0.4, 1.0]),
        st.booleans(),
    )
    # one path: each stream draws its uniforms and no normals
    @example([3, 2**64 - 1], 5, 1, 0.4, False)
    def test_rays_and_evolved_equal_one_draw_at_a_time(self, trial_seeds, rounds, num_paths, rho, grid):
        cfg = SessionConfig(
            scheme="baseline",
            alice=ArrayGeometry(1, 8),
            bob=ArrayGeometry(2, 4),
            rounds=rounds,
            num_paths=num_paths,
            temporal_rho=rho,
            grid_angles=grid,
        )
        # grid axes: trial, then tag (channel, evolution)
        tags = (seeds.STREAM_CHANNEL, seeds.STREAM_EVOLVE)
        lanes = seeds.stream_lanes(np.array(trial_seeds, dtype=np.uint64)[:, None], tags)
        N = len(trial_seeds)
        angles, first = _rays(cfg, seeds.sampler_streams(lanes[:, 0]), (N,))
        gains = _evolved(cfg, seeds.sampler_streams(lanes[:, 1]), first)
        assert angles.shape == (N, num_paths, 4) and gains.shape == (N, rounds, num_paths)
        for n, seed in enumerate(trial_seeds):
            ref_angles, ref_first = session_channel(cfg, seeds.generator(seed, seeds.STREAM_CHANNEL))
            rng_evolve = seeds.generator(seed, seeds.STREAM_EVOLVE)
            ref_gains = ar1_gains(ref_first, rho, rng_evolve, rounds, cfg.nlos_offset_db)
            assert angles[n].tobytes() == ref_angles.tobytes() and first[n].tobytes() == ref_first.tobytes()
            assert gains[n].tobytes() == ref_gains.tobytes()


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
        stream = seeds.sampler_streams(seeds.stream_lanes(np.arange(20, dtype=np.uint64), seeds.STREAM_CHANNEL))
        raw, snapped = (_rays(replace(cfg, grid_angles=grid), stream, (20,)) for grid in (False, True))
        assert np.array_equal(snapped[1], raw[1])
        for t in range(20):
            # both (angles, gains) equal the draws taken one at a time
            for grid, (angles, gains) in ((False, raw), (True, snapped)):
                ref = session_channel(replace(cfg, grid_angles=grid), seeds.generator(t, 1))
                assert ref[0].tobytes() == angles[t].tobytes() and ref[1].tobytes() == gains[t].tobytes()
            for (aod, _, aoa, _), row in zip(raw[0][t], snapped[0][t]):
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

    @pytest.mark.parametrize("master_seed", [-1, 2**64])
    @pytest.mark.parametrize("cfg", [fig2_cfg, fig3_cfg, fig4_cfg], ids=["secret_beam", "virtual", "multires"])
    def test_master_seed_outside_u64_rejected(self, cfg, master_seed):
        # the streams are addressed by u64 words: a session with such a
        # seed used to fail only once it ran, and the secret-beam one with
        # an OverflowError
        with pytest.raises(ValueError, match="master_seed must be an unsigned 64-bit integer"):
            cfg(master_seed=master_seed)

    def test_snr_with_finite_noise_variance_accepted(self):
        # 10**308 is finite; an infinite SNR is a noiseless link
        for snr_db in (-3080.0, 200.0, np.inf):
            assert fig2_cfg(snr_db=snr_db).snr_db == snr_db


# a config valid for each scheme
CONFIGS = {
    "secret_beam": fig2_cfg(),
    "virtual": fig3_cfg(),
    "baseline": fig3_cfg(scheme="baseline"),
    "multires": fig4_cfg(),
}


class TestSchemeChecks:
    """``batch`` runs each config by its own scheme's code, and ``secret_beam_session`` refuses any other scheme's."""

    @pytest.mark.parametrize(
        "scheme, run, foreign",
        [("secret_beam", secret_beam_session, foreign) for foreign in SCHEMES if foreign != "secret_beam"],
        ids=lambda v: v if isinstance(v, str) else v.__name__,
    )
    def test_batches_and_sessions_reject_other_schemes(self, monkeypatch, scheme, run, foreign):
        def no_draw(*args, **kwargs):
            raise AssertionError("drew from a stream")

        for name in ("generator", "stream_lanes"):
            monkeypatch.setattr(seeds, name, no_draw)
        cfg = CONFIGS[foreign]
        with pytest.raises(ValueError, match=f"secret_beam_session runs '{scheme}' sessions, got a '{foreign}' config"):
            run(cfg)

    @pytest.mark.parametrize("scheme", CONFIGS)
    def test_batch_runs_the_chunk_function_of_its_scheme(self, monkeypatch, scheme):
        ran = []

        def chunk_function(name):
            def run(cfg, trial_seeds, snr_db):
                ran.append((name, trial_seeds.dtype, trial_seeds.tolist(), snr_db))
                return iter(())

            return run

        for name, (_, size) in list(schemes._SCHEMES.items()):
            monkeypatch.setitem(schemes._SCHEMES, name, (chunk_function(name), size))
        assert list(batch(CONFIGS[scheme], [1, 2**64 - 1], [0.0, 5.0])) == []
        assert ran == [(scheme, np.uint64, [1, 2**64 - 1], [0.0, 5.0])]

    @pytest.mark.parametrize("scheme", CONFIGS)
    def test_no_trials_yield_nothing(self, scheme):
        assert list(batch(CONFIGS[scheme], [], [])) == []

    def test_configs_of_other_schemes_that_used_to_run(self):
        # identical beams used to give bar_legit 0.375
        with pytest.raises(ValueError, match="runs 'secret_beam' sessions"):
            secret_beam_session(SessionConfig(scheme="virtual", delta_max=0.0, rounds=2))


def trial_fields(records):
    """Each trial's symbols, width, KERs and probes used, each as (dtype, shape, bytes), so that NaN KERs compare equal."""
    return [
        [(np.asarray(v).dtype, np.shape(v), np.asarray(v).tobytes()) for v in (*trial, record.probes_used)]
        for record in records
        for trial in each_trial([record])
    ]


class TestBatchChunks:
    """Any split of a batch's trials into chunks leaves every trial's key material as it is."""

    SMALL = {
        "secret_beam": fig2_cfg(rounds=20),
        "virtual": fig3_cfg(alice=ArrayGeometry(1, 8), bob=ArrayGeometry(1, 4), rounds=3, num_paths=2),
        "baseline": fig3_cfg(scheme="baseline", alice=ArrayGeometry(1, 8), bob=ArrayGeometry(1, 4), rounds=3),
        "multires": fig4_cfg(rounds=40),
    }
    # seeds below and above 2**32, which the seed hash takes in two groups
    TRIAL_SEEDS = [3, 2**32, 7, 2**64 - 1, 2**32 - 1]
    SNRS = [10.0, -5.0, 20.0, 0.0, 10.0]

    @pytest.mark.parametrize("size", [1, 2, 6])
    @pytest.mark.parametrize("scheme", SMALL)
    def test_records_do_not_depend_on_the_chunk_size(self, monkeypatch, scheme, size):
        cfg = self.SMALL[scheme]
        whole = trial_fields(batch(cfg, self.TRIAL_SEEDS, self.SNRS))
        monkeypatch.setitem(schemes._SCHEMES, scheme, (schemes._SCHEMES[scheme][0], size))
        chunked = trial_fields(batch(cfg, self.TRIAL_SEEDS, self.SNRS))
        assert len(whole) == len(chunked) == len(self.TRIAL_SEEDS)
        for a, b in zip(whole, chunked):
            assert a == b


UNSIGNED = (np.uint8, np.uint16, np.uint32, np.uint64)


class TestSchemeResult:
    """The one agreement count of a chunk, against ``bar`` of each trial's packed bits."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 62), st.integers(1, 40), st.integers(2, 3), st.data())
    def test_agreement_is_bar_of_packed_bits(self, trials, width, count, parties, data):
        top = (1 << width) - 1
        # any unsigned dtype that holds the width, not only the smallest
        dtype = data.draw(st.sampled_from([t for t in UNSIGNED if np.iinfo(t).max >= top]))
        row = st.lists(st.integers(0, top), min_size=count, max_size=count)
        trial = st.lists(row, min_size=parties, max_size=parties)
        symbols = np.array(data.draw(st.lists(trial, min_size=trials, max_size=trials)), dtype=dtype)
        # beside drawn keys: a party whose key equals Alice's, or differs from it in every bit
        for keys in symbols:
            for party in range(1, parties):
                kind = data.draw(st.sampled_from(["drawn", "equal", "different"]))
                if kind != "drawn":
                    keys[party] = keys[0] if kind == "equal" else keys[0] ^ top
        record = SchemeResult(symbols, width, probes_used=1)
        agreement = record.agreement()
        assert agreement.shape == (trials, parties - 1)
        for keys, (bar_legit, *bar_eve) in zip(symbols, agreement, strict=True):
            alice, bob = (pack_indices(party, width) for party in keys[:2])
            assert bar_legit == bar(alice, bob)
            if parties == 3:
                assert bar_eve == [bar(pack_indices(keys[2], width), alice)]
        if trials == 1:
            assert record.bar_legit == agreement[0, 0] and type(record.bar_legit) is float
        else:
            with pytest.raises(ValueError):
                record.bar_legit

    # (config, the smallest unsigned dtype of its symbols' width)
    DTYPES = {
        "secret_beam": (fig2_cfg(rounds=3), np.uint8),
        "secret_beam-512-levels": (fig2_cfg(rounds=3, levels=512), np.uint16),
        "virtual-8x4": (fig3_cfg(alice=ArrayGeometry(1, 8), bob=ArrayGeometry(1, 4), rounds=2), np.uint8),
        "virtual-128x128": (fig3_cfg(rounds=2), np.uint16),
        "baseline": (fig3_cfg(scheme="baseline", alice=ArrayGeometry(1, 8), bob=ArrayGeometry(1, 4), rounds=2), np.uint8),
        "baseline-2**20-levels": (
            fig3_cfg(scheme="baseline", alice=ArrayGeometry(1, 8), bob=ArrayGeometry(1, 4), rounds=2, levels=2**20),
            np.uint32,
        ),
        "multires": (fig4_cfg(rounds=40), np.uint8),
        # 40-bit symbols: 2**40 levels on one beam, as the CLI's multires run at many levels takes them
        "multires-2**40-levels": (fig4_cfg(rounds=40, num_beams=1, levels=2**40), np.uint64),
    }

    @pytest.mark.parametrize("case", DTYPES)
    def test_symbols_in_the_smallest_unsigned_dtype(self, case):
        cfg, dtype = self.DTYPES[case]
        [record] = batch(cfg, [3, 2**64 - 1], [10.0, 0.0])
        assert record.symbols.dtype == dtype == np.min_scalar_type((1 << record.width) - 1)
        assert record.symbols.shape[:2] == (2, 3 if cfg.eve else 2)
        if cfg.scheme == "multires":
            assert record.kers.shape == (2, 2, 2)
        else:
            assert record.kers is None

    def test_probes_used(self):
        # secret beam: a calibration and a keyed pilot each way per round;
        # sounding: one estimate by each party per round; multires: a
        # bidirectional probe on each of 2P beams per block
        small = dict(alice=ArrayGeometry(1, 8), bob=ArrayGeometry(1, 4), rounds=3)
        assert secret_beam_session(fig2_cfg(rounds=7)).probes_used == 4 * 7
        assert session(fig3_cfg(**small)).probes_used == 2 * 3
        [record] = batch(fig3_cfg(scheme="baseline", **small), [1], [0.0])
        assert record.probes_used == 2 * 3
        assert session(fig4_cfg(rounds=200)).probes_used == 4 * 5 * 200


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

    @pytest.mark.parametrize("snr_db", [np.nan, -4000.0])
    def test_snr_whose_noise_variance_is_not_finite_rejected(self, snr_db):
        # it used to give a NaN estimate without an error
        with pytest.raises(ValueError, match=f"SNR {snr_db} dB gives a noise variance"):
            estimate_channel(np.zeros((2, 2)), snr_db, rng(1))

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
        grid = lambda j: float(np.arcsin(-1 + 2 * j / 16))
        H = ray_matrix(geom, geom, [[grid(3), 0.0, grid(9), 0.0]], [1.0])
        [symbol], bits = strongest_bins(H, 1, geom, geom)
        assert bits == 4 + 4
        # recover the pair and check it is the single dominant bin
        Hv = virtual_channel(H, geom, geom)
        r0, c0 = np.unravel_index(np.argmax(np.abs(Hv)), Hv.shape)
        assert divmod(int(symbol), 16) == (r0, c0)

    def test_output_length(self):
        cfg = fig3_cfg(rounds=1)
        H = ray_matrix(cfg.alice, cfg.bob, *session_channel(cfg, seeds.generator(1, 1)))
        symbols, bits = strongest_bins(H, 3, cfg.alice, cfg.bob)
        assert symbols.size * bits == 3 * (7 + 7)

    def test_identical_at_high_snr(self):
        res = session(fig3_cfg(snr_db=200.0, rounds=20))
        assert bdr(res) == 0.0

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
    return bdr(session(cfg))


class TestVirtualSession:
    def test_low_snr_threshold_holds_at_modest_scale(self):
        res = session(fig3_cfg(rounds=300))
        assert len(key_bits(one_trial(res), 0)) == 300 * 42
        assert bdr(res) < 0.03  # acceptance tests the tight 1e-2 claim

    def test_noiseless_bdr_zero(self):
        res = session(fig3_cfg(snr_db=200.0, rounds=10))
        assert bdr(res) == 0.0

    def test_beats_baseline(self):
        v = session(fig3_cfg(rounds=60, snr_db=-10.0))
        assert bdr(v) < baseline_bdr(rounds=6, snr_db=-10.0)

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
        H = ray_matrix(cfg.alice, cfg.bob, *session_channel(cfg, rng_ch))
        for stream, r in zip(streams, (rng_a, rng_b)):
            stream.append(estimate_channel(H, cfg.snr_db, r))
    if virtual:
        return [
            BitString(np.concatenate([reference_angle_bits(h, cfg.num_paths, cfg.alice, cfg.bob).bits for h in s]))
            for s in streams
        ]
    a, b = (extract_randomness(np.concatenate([h.view(np.float64).ravel() for h in s])) for s in streams)
    quantizer = QuantizerConfig.calibrated(a, levels=cfg.levels)
    width = cfg.levels.bit_length() - 1
    return [gray_bits(cell_indices(x, cfg.levels, quantizer.lo, quantizer.hi), width) for x in (a, b)]


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
        records = list(batch(cfg, trial_seeds, snrs))
        # each trial's share of Alice's key bits that Bob's agrees with
        agreements = np.concatenate([record.agreement() for record in records])[:, 0]
        for trial, agreement, seed, snr in zip(each_trial(records), agreements, trial_seeds, snrs, strict=True):
            trial_cfg = replace(cfg, master_seed=seed, snr_db=snr)
            ref_a, ref_b = reference_sounding_bits(trial_cfg, virtual)
            assert key_bits(trial, 0).equals(ref_a) and key_bits(trial, 1).equals(ref_b)
            assert 1.0 - agreement == 1.0 - bar(ref_a, ref_b)
            if virtual:
                res = session(trial_cfg)
                assert np.array_equal(one_trial(res)[0], trial[0]) and bdr(res) == 1.0 - agreement

    @pytest.mark.parametrize("virtual", [True, False], ids=["virtual", "baseline"])
    def test_results_share_no_memory_with_buffers(self, monkeypatch, virtual):
        # in chunks of one trial, a chunk's symbols stay as yielded while the
        # batch writes its next chunk
        scheme = "virtual" if virtual else "baseline"
        monkeypatch.setitem(schemes._SCHEMES, scheme, (schemes._SCHEMES[scheme][0], 1))
        cfg = fig3_cfg(scheme=scheme, alice=ArrayGeometry(1, 16), bob=ArrayGeometry(2, 4))
        trials = batch(replace(cfg, rounds=2), [1, 99], [-10.0, 20.0])
        first = next(trials).symbols
        kept = first.copy()
        next(trials)
        assert np.array_equal(first, kept)

    def test_session_shares_no_memory_with_buffers(self):
        buffers = []

        def spy(cfg):
            gen = batch(cfg, [cfg.master_seed], [cfg.snr_db])
            for record in gen:
                # the chunk's arrays, as it holds them while its trial is read,
                # and the sounding's, which its estimates function holds;
                # the trial's own symbols array, new each trial, is the record's
                chunk = gen.gi_yieldfrom.gi_frame.f_locals
                held = [v for name, v in chunk.items() if name != "symbols"]
                held += [cell.cell_contents for cell in chunk["estimates"].__closure__]
                buffers.extend(v for v in held if isinstance(v, np.ndarray))
                yield record

        cfg = fig3_cfg(alice=ArrayGeometry(1, 16), bob=ArrayGeometry(2, 4), rounds=2)
        first = next(spy(cfg))
        kept = first.symbols.copy()
        assert len(buffers) >= 4
        assert not any(np.shares_memory(first.symbols, buf) for buf in buffers)
        next(spy(replace(cfg, master_seed=99, snr_db=20.0)))
        assert np.array_equal(first.symbols, kept)

    @pytest.mark.numpy_contract
    @pytest.mark.parametrize("virtual", [True, False], ids=["virtual", "baseline"])
    @pytest.mark.parametrize(
        "alice, bob",
        [(ArrayGeometry(1, 8), ArrayGeometry(1, 4)), (ArrayGeometry(2, 4), ArrayGeometry(2, 2))],
        ids=["ula", "upa"],
    )
    @pytest.mark.parametrize("grid", [False, True], ids=["grid0", "grid1"])
    @pytest.mark.parametrize("num_paths", [1, 3])
    @pytest.mark.parametrize("rounds, trials", [(1, 130), (3, 65)])
    def test_chunks_equal_per_trial_reference(self, virtual, alice, bob, grid, num_paths, rounds, trials):
        # trials past two and four virtual chunks of 32 (baseline chunks
        # hold 4), seeds below and above 2**32 mixed
        # in each chunk (the seed hash groups its rows by word count), and
        # the edge seeds
        cfg = fig3_cfg(
            scheme="virtual" if virtual else "baseline",
            alice=alice,
            bob=bob,
            rounds=rounds,
            num_paths=num_paths,
            grid_angles=grid,
            levels=8,
        )
        r = rng(trials + rounds)
        drawn = r.integers(0, 2**64, trials - 4, dtype=np.uint64)
        drawn[::2] >>= np.uint64(40)
        trial_seeds = [0, 2**32 - 1, 2**32, 2**64 - 1] + drawn.tolist()
        snrs = r.choice([-20.0, -5.0, 0.0, 30.0], trials).tolist()
        reference = virtual_symbols if virtual else baseline_symbols
        chunked = list(each_trial(batch(cfg, trial_seeds, snrs)))
        expected = list(reference(cfg, trial_seeds, snrs))
        assert len(chunked) == len(expected) == trials
        for (symbols, width, _), (ref_a, ref_b, ref_bits) in zip(chunked, expected):
            a, b = symbols
            assert np.array_equal(a, ref_a) and np.array_equal(b, ref_b) and width == ref_bits



@pytest.fixture
def probes(monkeypatch):
    """Each multires trial's probing: Alice's (2P, N) beams, and Bob's and Alice's (2P, T) in-phase samples."""
    seen = []

    def spy(w_a, w_b, *args):
        y = bidirectional_probe(w_a, w_b, *args)
        seen.append((w_a, *(part.real.T for part in y)))
        return y

    monkeypatch.setattr(schemes, "bidirectional_probe", spy)
    return seen


class TestMultires:
    def test_single_beam_arms_agree(self):
        (ker_multires, _), (ker_fixed, _) = one_trial(session(fig4_cfg(num_beams=1, rounds=2000)))[2]
        assert ker_multires == pytest.approx(1.0, abs=1e-9)
        assert ker_fixed == pytest.approx(1.0, abs=1e-9)
        assert abs(ker_multires - ker_fixed) < 0.05

    def test_five_beams_decorrelate(self, probes):
        (ker_multires, _), (ker_fixed, _) = one_trial(session(fig4_cfg(rounds=3000)))[2]
        assert ker_fixed < 1.4
        assert ker_multires / ker_fixed > 3.0
        [(w_a, _, _)] = probes
        assert len({beam.tobytes() for beam in w_a[:5]}) == 5

    def test_noiseless_reciprocity(self):
        res = one_trial(session(fig4_cfg(snr_db=200.0, rounds=2000)))
        assert bar(key_bits(res, 0), key_bits(res, 1)) == 1.0

    def test_deterministic(self):
        a_symbols, _, a_kers = one_trial(session(fig4_cfg(rounds=2000)))
        b_symbols, _, b_kers = one_trial(session(fig4_cfg(rounds=2000)))
        assert a_kers[0, 0] == b_kers[0, 0]
        assert np.array_equal(a_symbols, b_symbols)

    def test_bits_equal_per_row_reference(self, probes):
        # reference: each probe stream centred, calibrated on its own 1st-99th
        # percentile range, quantized and Gray-coded, streams concatenated
        res = one_trial(session(fig4_cfg(rounds=200)))
        [(_, y_bob, y_alice)] = probes
        for bits, samples in ((key_bits(res, 0), y_alice), (key_bits(res, 1), y_bob)):
            assert bits.equals(gray_bits(per_row_cells(samples[:5], 4).ravel(), 2))
        symbols, width, _ = res
        assert width == 2 and symbols.shape == (2, 5 * 200)


class TestMultiresBatch:
    @pytest.mark.numpy_contract
    def test_batch_equals_batches_of_one(self, probes):
        # SNRs out of grid order and one seed repeated: each point's trial
        # is bytes of its own batch of one, whatever the other points are.
        # Seeds below 2**32 hash as one u32 word and the others as two, so
        # one stream_lanes call seeds these trials in two groups
        cfg = fig4_cfg(rounds=300, snr_db=UNREAD_SNR_DB, master_seed=0)
        trial_seeds = [7, 3, 7, 2**64 - 1, 2**32]
        snrs = [20.0, 0.0, 5.0, 15.0, 10.0]
        [chunk] = batch(cfg, trial_seeds, snrs)
        whole = list(each_trial([chunk]))
        assert len(whole) == 5
        for (symbols, width, kers), seed, snr, probed in zip(whole, trial_seeds, snrs, list(probes)):
            [one] = batch(cfg, [seed], [snr])
            for a, b in zip(probed, probes[-1]):
                assert a.tobytes() == b.tobytes()
            one_symbols, one_width, one_kers = one_trial(one)
            assert symbols.tobytes() == one_symbols.tobytes()
            # each arm's KER and its stderr
            assert width == one_width and chunk.probes_used == one.probes_used and kers.tolist() == one_kers.tolist()
        # the repeated seed at two SNRs: one channel and beam choice, other noise
        assert probes[0][0].tobytes() == probes[2][0].tobytes()
        assert probes[0][1].tobytes() != probes[2][1].tobytes()
        assert whole[0][0].tobytes() != whole[2][0].tobytes()


def reference_multires_samples(cfg, beams, fixed_beam):
    """The per-block multires probing loop that one array pass replaced.

    Kept as the reference the session is checked against: scalar AR(1)
    steps, the channel matrix of each block, one ``w_b @ H @ w_a`` product
    per probe and scalar normals drawn at Bob, then at Alice.  Probes the
    codewords ``beams`` and ``fixed_beam`` and returns the (beams, blocks)
    samples of the multi arm at Bob and at Alice and of the fixed arm at Bob.
    """
    seed = cfg.master_seed
    rng_channel = seeds.generator(seed, seeds.STREAM_CHANNEL)
    rng_evolve = seeds.generator(seed, seeds.STREAM_EVOLVE)
    rng_noise = seeds.generator(seed, seeds.STREAM_NOISE_BOB)
    angles, gains = session_channel(cfg, rng_channel)
    bob_wide = sector_beamformer(cfg.bob, -1.0, 1.0)
    bob_pencil = steering_beamformer(cfg.bob, angles[0, 2], angles[0, 3])
    sigma = np.sqrt(10.0 ** (-cfg.snr_db / 10.0) / 2.0)

    def probe(w_a, w_b, H):
        y_bob = complex(w_b @ H @ w_a) + sigma * complex(rng_noise.standard_normal(), rng_noise.standard_normal())
        y_alice = complex(w_a @ H.T @ w_b) + sigma * complex(rng_noise.standard_normal(), rng_noise.standard_normal())
        return y_bob.real, y_alice.real

    P, T = len(beams), cfg.rounds
    multi_bob, multi_alice, fixed_bob = np.empty((P, T)), np.empty((P, T)), np.empty((P, T))
    evolved = ar1_gains(gains, cfg.temporal_rho, rng_evolve, T, cfg.nlos_offset_db)
    for t, gains in enumerate(evolved):
        H = ray_matrix(cfg.alice, cfg.bob, angles, gains)
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
    def test_samples_bits_and_kers_equal_reference(self, case, probes):
        cfg = fig4_cfg(**self.CASES[case])
        res = one_trial(session(cfg))
        [(w_a, y_bob, _)] = probes
        P = cfg.num_beams
        # the probed beams are codewords of the session's codebook
        codebook = hierarchical_codebook(cfg.alice, cfg.multires_depth)
        codewords = {row.tobytes() for row in codebook.weights}
        assert {beam.tobytes() for beam in w_a} <= codewords and (w_a[P:] == w_a[P]).all()
        multi_bob, multi_alice, fixed_bob = reference_multires_samples(cfg, w_a[:P], w_a[P])
        # the array pass sums over paths where the reference sums over antennas
        np.testing.assert_allclose(y_bob[:P], multi_bob, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(y_bob[P:], fixed_bob, rtol=1e-12, atol=1e-12)

        def gray(samples):
            return gray_bits(per_row_cells(samples, cfg.levels).ravel(), 2)

        assert key_bits(res, 1).equals(gray(multi_bob))
        assert key_bits(res, 0).equals(gray(multi_alice))
        quantizer = QuantizerConfig(levels=cfg.levels)
        (ker_multires, _), (ker_fixed, _) = res[2]
        for ker, samples in ((ker_multires, multi_bob), (ker_fixed, fixed_bob)):
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


def shared_streams(seed, streams, blocks):
    """(streams, blocks) samples with a common part, so their cells are correlated, on their own scales and offsets."""
    r = rng(seed)
    own = r.uniform(0.2, 2.0, (streams, 1)) * r.standard_normal((streams, blocks))
    return r.standard_normal(blocks) + own + r.uniform(-3.0, 3.0, (streams, 1))


@pytest.mark.numpy_contract
class TestRateAndStderrEqualReference:
    """An arm's one-pass rate and jackknife stderr against the per-section form of ``reference.py``, with ``==``."""

    @pytest.mark.parametrize("blocks", [20, 37, 2000, 2003, 2017])
    @pytest.mark.parametrize("levels", [2, 4, 16])
    @pytest.mark.parametrize("streams", [1, 5])
    def test_equals_per_section_form(self, blocks, levels, streams):
        samples = shared_streams(blocks + levels + streams, streams, blocks)
        assert _rate_and_stderr(samples, levels) == jackknife_rate(samples, levels)

    def test_deepest_codebook(self):
        # 62 streams at 2 levels: 2**62 joint cells, the most validate accepts
        samples = shared_streams(62, 62, 2003)
        assert _rate_and_stderr(samples, 2) == jackknife_rate(samples, 2)

    def test_constant_stream(self):
        # a degenerate range: every cell of the stream is 0, in every section
        samples = shared_streams(7, 5, 2003)
        samples[2] = 1.5
        assert _rate_and_stderr(samples, 16) == jackknife_rate(samples, 16)

    def test_zero_single_entropy_raises(self):
        samples = np.full((3, 2000), 0.25)
        for score in (_rate_and_stderr, jackknife_rate):
            with pytest.raises(ValueError, match="degenerate input: zero single-probe entropy"):
                score(samples, 16)

    def test_stderr_nan_below_two_blocks_a_section(self):
        samples = shared_streams(19, 5, 19)
        rate, stderr = _rate_and_stderr(samples, 16)
        assert np.isnan(stderr) and np.isnan(jackknife_rate(samples, 16)[1])
        assert rate == jackknife_rate(samples, 16)[0]

    @settings(max_examples=150, deadline=None)
    @given(
        levels=st.sampled_from([2, 4, 16, 256]),
        streams=st.integers(1, 6),
        blocks=st.integers(1, 400),
        sections=st.integers(2, 12),
        ties=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_any_shape_equals_per_section_form(self, levels, streams, blocks, sections, ties, seed):
        # rounded samples tie across sections; 256 levels on few blocks give
        # runs of one block; a short arm falls back to its rate alone
        samples = shared_streams(seed, streams, blocks)
        if ties:
            samples = np.round(samples, 1)
        try:
            expected = jackknife_rate(samples, levels, sections)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                _rate_and_stderr(samples, levels, sections)
            return
        got = _rate_and_stderr(samples, levels, sections)
        assert got[0] == expected[0]
        assert got[1] == expected[1] or np.isnan(got[1]) and np.isnan(expected[1])


class TestEveInformationBound:
    def test_mutual_information_on_4bit_blocks(self):
        # plug-in MI between eve's guess and the final key over 1e4 key bits
        res = one_trial(secret_beam_session(fig2_cfg(eve="alice", rounds=2500, snr_db=10.0)))
        eve = key_bits(res, 2).bits.reshape(-1, 4)
        key = key_bits(res, 0).bits.reshape(-1, 4)
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
