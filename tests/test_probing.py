import numpy as np
import pytest

from mmkeygen.beamforming import steering_beamformer
from mmkeygen.channel import ArrayGeometry, channel_matrix
from mmkeygen.probing import bidirectional_probe
from mmkeygen.schemes import SessionConfig
from reference import ar1_gains, responses, session_channel


def rng(seed=0):
    return np.random.default_rng(seed)


def make_channel(seed=0, num_paths=2, tx=(1, 16), rx=(1, 8)):
    """A drawn channel: its geometries, angles, gains and (a_tx, a_rx) path responses."""
    tx, rx = ArrayGeometry(*tx), ArrayGeometry(*rx)
    angles, gains = session_channel(SessionConfig(scheme="baseline", alice=tx, bob=rx, num_paths=num_paths), rng(seed))
    return tx, rx, angles, gains, responses(tx, rx, angles)


def zero_channel(n=4, num_paths=1):
    """The (a_tx, a_rx) responses of broadside rays, to probe at zero gains."""
    geom = ArrayGeometry(1, n)
    return responses(geom, geom, np.zeros((num_paths, 4)))


class TestProbe:
    def test_transpose_identity(self):
        # mismatched beams: w_b^T H w_a and w_a^T H^T w_b are the same value
        tx, rx, _, gains, (a_tx, a_rx) = make_channel(1)
        H = channel_matrix(a_rx, gains, a_tx)
        w_a = steering_beamformer(tx, 0.2)
        w_b = steering_beamformer(rx, -0.4)
        fwd, rev = bidirectional_probe(w_a[None], w_b[None], a_tx, a_rx, gains[None], 200.0, rng(2))
        assert fwd.shape == rev.shape == (1, 1)
        assert fwd[0, 0] == pytest.approx(complex(w_b @ H @ w_a), abs=1e-8)
        assert fwd[0, 0] == pytest.approx(rev[0, 0], abs=1e-8)

    def test_noiseless_value_per_block_and_pair(self):
        # each (block, pair) entry is w_b[k]^T H_t w_a[k] with H_t the
        # channel matrix at that block's gains
        tx, rx, _, first, (a_tx, a_rx) = make_channel(3, num_paths=4, tx=(2, 8), rx=(2, 4))
        gains = ar1_gains(first, 0.5, rng(4), 6, 10.0)
        w_a = np.stack([steering_beamformer(tx, az, el) for az, el in ((0.1, 0.0), (-0.5, 0.3), (0.9, -0.2))])
        w_b = np.stack([steering_beamformer(rx, az, el) for az, el in ((0.4, 0.1), (0.0, 0.0), (-0.7, 0.5))])
        y_bob, y_alice = bidirectional_probe(w_a, w_b, a_tx, a_rx, gains, 200.0, rng(5))
        assert y_bob.shape == y_alice.shape == (6, 3)
        for t, g in enumerate(gains):
            H = channel_matrix(a_rx, g, a_tx)
            for k in range(3):
                assert y_bob[t, k] == pytest.approx(complex(w_b[k] @ H @ w_a[k]), abs=1e-8)
                assert y_alice[t, k] == pytest.approx(complex(w_a[k] @ H.T @ w_b[k]), abs=1e-8)

    @pytest.mark.parametrize("snr_db", [np.nan, -4000.0])
    def test_snr_whose_noise_variance_is_not_finite_rejected(self, snr_db):
        # it used to give NaN samples without an error
        w = steering_beamformer(ArrayGeometry(1, 4), 0.0)[None]
        with pytest.raises(ValueError, match=f"SNR {snr_db} dB gives a noise variance"):
            bidirectional_probe(w, w, *zero_channel(), np.zeros((2, 1)), snr_db, rng(3))

    def test_zero_channel_noise_variance(self):
        # receiver noise alone has variance 10**(-snr_db/10) in each direction
        w = steering_beamformer(ArrayGeometry(1, 4), 0.0)[None]
        for snr_db in (0.0, 6.0):
            ys = np.concatenate(bidirectional_probe(w, w, *zero_channel(), np.zeros((50_000, 1)), snr_db, rng(3)))
            assert abs(np.mean(np.abs(ys) ** 2) / 10 ** (-snr_db / 10) - 1.0) < 0.03

    def test_matched_single_path_closed_form(self):
        # |y| = sqrt(Nt*Nr) * |g_tx| * |g_rx| for a unit-gain single path
        tx, rx = ArrayGeometry(1, 16), ArrayGeometry(1, 8)
        w_a = steering_beamformer(tx, 0.3)[None]
        w_b = steering_beamformer(rx, -0.2)[None]
        paths = responses(tx, rx, [[0.3, 0.0, -0.2, 0.0]])
        for y in bidirectional_probe(w_a, w_b, *paths, np.ones((1, 1), dtype=complex), 200.0, rng(4)):
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
                bidirectional_probe(w_a, w_b, *zero_channel(), gains, 10.0, rng(5))
        # Alice's and Bob's responses of different path counts
        a_tx, _ = zero_channel(num_paths=2)
        with pytest.raises(ValueError, match="dimension mismatch"):
            bidirectional_probe(ones((1, 4)), ones((1, 4)), a_tx, zero_channel()[1], zeros((1, 2)), 10.0, rng(5))


class TestBidirectionalProbe:
    def test_noiseless_reciprocity(self):
        # both directions read one noiseless array: without noise they are equal
        tx, rx, _, first, paths = make_channel(7, num_paths=3)
        gains = ar1_gains(first, 0.3, rng(8), 20, 10.0)
        w_a = np.stack([steering_beamformer(tx, 0.1), steering_beamformer(tx, -0.6)])
        w_b = np.stack([steering_beamformer(rx, -0.3), steering_beamformer(rx, 0.2)])
        y_bob, y_alice = bidirectional_probe(w_a, w_b, *paths, gains, np.inf, rng(8))
        assert np.array_equal(y_bob, y_alice)
        y_bob, y_alice = bidirectional_probe(w_a, w_b, *paths, gains, 200.0, rng(8))
        assert np.max(np.abs(y_bob - y_alice)) < 1e-8

    def test_correlation_increases_with_snr(self):
        # aligned beams over 10,000 independent gain draws of one channel
        tx, rx, angles, first, paths = make_channel(9, num_paths=2)
        gains = ar1_gains(first, 0.0, rng(11), 10_000, 10.0)
        wa = steering_beamformer(tx, angles[0, 0], angles[0, 1])[None]
        wb = steering_beamformer(rx, angles[0, 2], angles[0, 3])[None]
        corrs = []
        for snr in (-10.0, 0.0, 10.0, 20.0):
            yb, ya = (y[:, 0] for y in bidirectional_probe(wa, wb, *paths, gains, snr, rng(10)))
            num = np.abs(np.vdot(yb - yb.mean(), ya - ya.mean()))
            den = np.linalg.norm(yb - yb.mean()) * np.linalg.norm(ya - ya.mean())
            corrs.append(num / den)
        assert all(a < b for a, b in zip(corrs, corrs[1:]))

    def test_noise_independence(self):
        w = steering_beamformer(ArrayGeometry(1, 4), 0.0)[None]
        yb, ya = bidirectional_probe(w, w, *zero_channel(), np.zeros((100_000, 1)), 0.0, rng(16))
        corr = np.abs(np.vdot(yb, ya)) / (np.linalg.norm(yb) * np.linalg.norm(ya))
        assert corr < 0.02

    def test_deterministic_streams(self):
        # the same seed gives the same samples, on a channel and on noise alone
        tx, _, _, first, paths = make_channel(17, tx=(1, 8), rx=(1, 8))
        w = steering_beamformer(tx, 0.0)[None]
        for paths, gains in ((paths, ar1_gains(first, 0.5, rng(19), 50, 10.0)), (zero_channel(8), np.zeros((50, 1)))):

            def run(seed):
                return np.concatenate(bidirectional_probe(w, w, *paths, gains, 5.0, rng(seed)))

            assert np.array_equal(run(21), run(21))
            assert not np.array_equal(run(21), run(22))

    def test_noise_drawn_at_bob_then_alice(self):
        # at a zero channel the samples are the noise itself: per block, per
        # pair, Bob's (re, im) then Alice's, one scalar normal at a time
        T, K = 3, 2
        w = steering_beamformer(ArrayGeometry(1, 4), 0.0)
        y_bob, y_alice = bidirectional_probe(
            np.stack([w] * K), np.stack([w] * K), *zero_channel(), np.zeros((T, 1)), 5.0, rng(23)
        )
        r = rng(23)
        sigma = np.sqrt(10.0 ** (-5.0 / 10.0) / 2.0)
        for t in range(T):
            for k in range(K):
                assert y_bob[t, k] == sigma * complex(r.standard_normal(), r.standard_normal())
                assert y_alice[t, k] == sigma * complex(r.standard_normal(), r.standard_normal())
