import numpy as np
import pytest

from mmkeygen.beamforming import steering_beamformer
from mmkeygen.channel import (
    ArrayGeometry,
    ChannelParams,
    ChannelRealization,
    channel_matrix,
    noise_like,
    sample_channel,
)
from mmkeygen.probing import bidirectional_probe


def rng(seed=0):
    return np.random.default_rng(seed)


def make_channel(seed=0, num_paths=2, tx=(1, 16), rx=(1, 8)):
    return sample_channel(
        ChannelParams(num_paths=num_paths), ArrayGeometry(*tx), ArrayGeometry(*rx), rng(seed)
    )


class TestProbe:
    def test_transpose_identity(self):
        # mismatched beams: w_b^T H w_a and w_a^T H^T w_b are the same scalar
        ch = make_channel(1)
        H = channel_matrix(ch)
        w_a = steering_beamformer(ch.tx_geom, 0.2)
        w_b = steering_beamformer(ch.rx_geom, -0.4)
        fwd, rev = bidirectional_probe(w_a, w_b, H, 200.0, rng(2))
        assert fwd == pytest.approx(complex(w_b @ H @ w_a), abs=1e-8)
        assert fwd == pytest.approx(rev, abs=1e-8)

    def test_zero_channel_noise_variance(self):
        H = np.zeros((4, 4))
        w = steering_beamformer(ArrayGeometry(1, 4), 0.0)
        r = rng(3)
        ys = np.array([bidirectional_probe(w, w, H, 0.0, r) for _ in range(50_000)]).ravel()
        assert abs(np.mean(np.abs(ys) ** 2) - 1.0) < 0.03

    def test_matched_single_path_closed_form(self):
        # |y| = sqrt(Nt*Nr) * |g_tx| * |g_rx| for a unit-gain single path
        tx, rx = ArrayGeometry(1, 16), ArrayGeometry(1, 8)
        ch = ChannelRealization(gains=[1.0 + 0j], angles=[[0.3, 0.0, -0.2, 0.0]], tx_geom=tx, rx_geom=rx)
        H = channel_matrix(ch)
        w_a = steering_beamformer(tx, 0.3)
        w_b = steering_beamformer(rx, -0.2)
        for y in bidirectional_probe(w_a, w_b, H, 200.0, rng(4)):
            assert abs(y) == pytest.approx(np.sqrt(16 * 8), abs=1e-6)

    def test_dimension_mismatch(self):
        w = steering_beamformer(ArrayGeometry(1, 4), 0.0)
        with pytest.raises(ValueError, match="dimension mismatch"):
            bidirectional_probe(w, w, np.zeros((8, 8)), 10.0, rng(5))


class TestBidirectionalProbe:
    def test_noiseless_reciprocity(self):
        ch = make_channel(7, num_paths=3)
        H = channel_matrix(ch)
        w_a = steering_beamformer(ch.tx_geom, 0.1)
        w_b = steering_beamformer(ch.rx_geom, -0.3)
        y_bob, y_alice = bidirectional_probe(w_a, w_b, H, 200.0, rng(8))
        assert y_bob == pytest.approx(y_alice, abs=1e-8)

    def test_correlation_increases_with_snr(self):
        ch = make_channel(9, num_paths=2)
        corrs = []
        for snr in (-10.0, 0.0, 10.0, 20.0):
            r = rng(10)
            ya, yb = np.empty(10_000, complex), np.empty(10_000, complex)
            params = ChannelParams(num_paths=2)
            rch = rng(11)
            for i in range(ya.size):
                chi = sample_channel(params, ch.tx_geom, ch.rx_geom, rch)
                wa = steering_beamformer(chi.tx_geom, chi.angles[0, 0], chi.angles[0, 1])
                wb = steering_beamformer(chi.rx_geom, chi.angles[0, 2], chi.angles[0, 3])
                yb[i], ya[i] = bidirectional_probe(wa, wb, channel_matrix(chi), snr, r)
            num = np.abs(np.vdot(yb - yb.mean(), ya - ya.mean()))
            den = np.linalg.norm(yb - yb.mean()) * np.linalg.norm(ya - ya.mean())
            corrs.append(num / den)
        assert all(a < b for a, b in zip(corrs, corrs[1:]))

    def test_noise_independence(self):
        H = np.zeros((4, 4))
        w = steering_beamformer(ArrayGeometry(1, 4), 0.0)
        r = rng(16)
        ya, yb = np.empty(100_000, complex), np.empty(100_000, complex)
        for i in range(ya.size):
            yb[i], ya[i] = bidirectional_probe(w, w, H, 0.0, r)
        corr = np.abs(np.vdot(yb, ya)) / (np.linalg.norm(yb) * np.linalg.norm(ya))
        assert corr < 0.02

    def test_deterministic_streams(self):
        ch = make_channel(17)
        H = channel_matrix(ch)
        w_a = steering_beamformer(ch.tx_geom, 0.0)
        w_b = steering_beamformer(ch.rx_geom, 0.0)

        def run(seed):
            r = rng(seed)
            return [bidirectional_probe(w_a, w_b, H, 5.0, r) for _ in range(50)]

        assert run(21) == run(21)
        assert run(21) != run(22)

    def test_noise_drawn_at_bob_then_alice(self):
        ch = make_channel(18)
        H = channel_matrix(ch)
        w_a = steering_beamformer(ch.tx_geom, 0.3)
        w_b = steering_beamformer(ch.rx_geom, -0.1)
        y_bob, y_alice = bidirectional_probe(w_a, w_b, H, 5.0, rng(23))
        r = rng(23)
        assert y_bob == complex(w_b @ H @ w_a) + complex(noise_like(0j, 5.0, r))
        assert y_alice == complex(w_a @ H.T @ w_b) + complex(noise_like(0j, 5.0, r))
