import numpy as np
import pytest

from mmkeygen.beamforming import steering_beamformer
from mmkeygen.channel import (
    ArrayGeometry,
    ChannelRealization,
    channel_matrix,
    evolve,
    sample_channel,
)
from mmkeygen.probing import bidirectional_probe


def rng(seed=0):
    return np.random.default_rng(seed)


def make_channel(seed=0, num_paths=2, tx=(1, 16), rx=(1, 8)):
    return sample_channel(ArrayGeometry(*tx), ArrayGeometry(*rx), rng(seed), num_paths)


def zero_channel(n=4, num_paths=1):
    geom = ArrayGeometry(1, n)
    return ChannelRealization(np.zeros(num_paths), np.zeros((num_paths, 4)), geom, geom)


def at_block(ch, gains):
    return ChannelRealization(gains, ch.angles, ch.tx_geom, ch.rx_geom, ch.has_los, ch.nlos_offset_db)


class TestProbe:
    def test_transpose_identity(self):
        # mismatched beams: w_b^T H w_a and w_a^T H^T w_b are the same value
        ch = make_channel(1)
        H = channel_matrix(ch)
        w_a = steering_beamformer(ch.tx_geom, 0.2)
        w_b = steering_beamformer(ch.rx_geom, -0.4)
        fwd, rev = bidirectional_probe(w_a[None], w_b[None], ch, ch.gains[None], 200.0, rng(2))
        assert fwd.shape == rev.shape == (1, 1)
        assert fwd[0, 0] == pytest.approx(complex(w_b @ H @ w_a), abs=1e-8)
        assert fwd[0, 0] == pytest.approx(rev[0, 0], abs=1e-8)

    def test_noiseless_value_per_block_and_pair(self):
        # each (block, pair) entry is w_b[k]^T H_t w_a[k] with H_t the
        # channel matrix at that block's gains
        ch = make_channel(3, num_paths=4, tx=(2, 8), rx=(2, 4))
        gains = evolve(ch, 0.5, rng(4), 6)
        w_a = np.stack([steering_beamformer(ch.tx_geom, az, el) for az, el in ((0.1, 0.0), (-0.5, 0.3), (0.9, -0.2))])
        w_b = np.stack([steering_beamformer(ch.rx_geom, az, el) for az, el in ((0.4, 0.1), (0.0, 0.0), (-0.7, 0.5))])
        y_bob, y_alice = bidirectional_probe(w_a, w_b, ch, gains, 200.0, rng(5))
        assert y_bob.shape == y_alice.shape == (6, 3)
        for t, g in enumerate(gains):
            H = channel_matrix(at_block(ch, g))
            for k in range(3):
                assert y_bob[t, k] == pytest.approx(complex(w_b[k] @ H @ w_a[k]), abs=1e-8)
                assert y_alice[t, k] == pytest.approx(complex(w_a[k] @ H.T @ w_b[k]), abs=1e-8)

    def test_zero_channel_noise_variance(self):
        # receiver noise alone has variance 10**(-snr_db/10) in each direction
        w = steering_beamformer(ArrayGeometry(1, 4), 0.0)[None]
        for snr_db in (0.0, 6.0):
            ys = np.concatenate(bidirectional_probe(w, w, zero_channel(), np.zeros((50_000, 1)), snr_db, rng(3)))
            assert abs(np.mean(np.abs(ys) ** 2) / 10 ** (-snr_db / 10) - 1.0) < 0.03

    def test_matched_single_path_closed_form(self):
        # |y| = sqrt(Nt*Nr) * |g_tx| * |g_rx| for a unit-gain single path
        tx, rx = ArrayGeometry(1, 16), ArrayGeometry(1, 8)
        ch = ChannelRealization(gains=[1.0 + 0j], angles=[[0.3, 0.0, -0.2, 0.0]], tx_geom=tx, rx_geom=rx)
        w_a = steering_beamformer(tx, 0.3)[None]
        w_b = steering_beamformer(rx, -0.2)[None]
        for y in bidirectional_probe(w_a, w_b, ch, ch.gains[None], 200.0, rng(4)):
            assert abs(y[0, 0]) == pytest.approx(np.sqrt(16 * 8), abs=1e-6)

    def test_dimension_mismatch(self):
        ones, zeros = np.ones, np.zeros
        for w_a, w_b, gains in (
            (ones((1, 8)), ones((1, 4)), zeros((1, 1))),  # Alice's beam too long
            (ones((1, 4)), ones((1, 8)), zeros((1, 1))),  # Bob's beam too long
            (ones((2, 4)), ones((1, 4)), zeros((1, 1))),  # unequal pair counts
            (ones(4), ones(4), zeros((1, 1))),  # one beam, not (K, N)
            (ones((1, 4)), ones((1, 4)), zeros((1, 2))),  # gains of two paths
            (ones((1, 4)), ones((1, 4)), zeros(1)),  # gains not (T, L)
        ):
            with pytest.raises(ValueError, match="dimension mismatch"):
                bidirectional_probe(w_a, w_b, zero_channel(), gains, 10.0, rng(5))


class TestBidirectionalProbe:
    def test_noiseless_reciprocity(self):
        # both directions read one noiseless array: without noise they are equal
        ch = make_channel(7, num_paths=3)
        gains = evolve(ch, 0.3, rng(8), 20)
        w_a = np.stack([steering_beamformer(ch.tx_geom, 0.1), steering_beamformer(ch.tx_geom, -0.6)])
        w_b = np.stack([steering_beamformer(ch.rx_geom, -0.3), steering_beamformer(ch.rx_geom, 0.2)])
        y_bob, y_alice = bidirectional_probe(w_a, w_b, ch, gains, np.inf, rng(8))
        assert np.array_equal(y_bob, y_alice)
        y_bob, y_alice = bidirectional_probe(w_a, w_b, ch, gains, 200.0, rng(8))
        assert np.max(np.abs(y_bob - y_alice)) < 1e-8

    def test_correlation_increases_with_snr(self):
        # aligned beams over 10,000 independent gain draws of one channel
        ch = make_channel(9, num_paths=2)
        gains = evolve(ch, 0.0, rng(11), 10_000)
        wa = steering_beamformer(ch.tx_geom, ch.angles[0, 0], ch.angles[0, 1])[None]
        wb = steering_beamformer(ch.rx_geom, ch.angles[0, 2], ch.angles[0, 3])[None]
        corrs = []
        for snr in (-10.0, 0.0, 10.0, 20.0):
            yb, ya = (y[:, 0] for y in bidirectional_probe(wa, wb, ch, gains, snr, rng(10)))
            num = np.abs(np.vdot(yb - yb.mean(), ya - ya.mean()))
            den = np.linalg.norm(yb - yb.mean()) * np.linalg.norm(ya - ya.mean())
            corrs.append(num / den)
        assert all(a < b for a, b in zip(corrs, corrs[1:]))

    def test_noise_independence(self):
        w = steering_beamformer(ArrayGeometry(1, 4), 0.0)[None]
        yb, ya = bidirectional_probe(w, w, zero_channel(), np.zeros((100_000, 1)), 0.0, rng(16))
        corr = np.abs(np.vdot(yb, ya)) / (np.linalg.norm(yb) * np.linalg.norm(ya))
        assert corr < 0.02

    def test_deterministic_streams(self):
        # the same seed gives the same samples, on a channel and on noise alone
        ch = make_channel(17, tx=(1, 8), rx=(1, 8))
        for ch, gains in ((ch, evolve(ch, 0.5, rng(19), 50)), (zero_channel(8), np.zeros((50, 1)))):
            w_a = steering_beamformer(ch.tx_geom, 0.0)[None]
            w_b = steering_beamformer(ch.rx_geom, 0.0)[None]

            def run(seed):
                return np.concatenate(bidirectional_probe(w_a, w_b, ch, gains, 5.0, rng(seed)))

            assert np.array_equal(run(21), run(21))
            assert not np.array_equal(run(21), run(22))

    def test_noise_drawn_at_bob_then_alice(self):
        # at a zero channel the samples are the noise itself: per block, per
        # pair, Bob's (re, im) then Alice's, one scalar normal at a time
        T, K = 3, 2
        w = steering_beamformer(ArrayGeometry(1, 4), 0.0)
        y_bob, y_alice = bidirectional_probe(
            np.stack([w] * K), np.stack([w] * K), zero_channel(), np.zeros((T, 1)), 5.0, rng(23)
        )
        r = rng(23)
        sigma = np.sqrt(10.0 ** (-5.0 / 10.0) / 2.0)
        for t in range(T):
            for k in range(K):
                assert y_bob[t, k] == sigma * complex(r.standard_normal(), r.standard_normal())
                assert y_alice[t, k] == sigma * complex(r.standard_normal(), r.standard_normal())
