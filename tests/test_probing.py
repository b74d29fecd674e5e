import numpy as np
import pytest

from mmkeygen.beamforming import steering_beamformer
from mmkeygen.channel import (
    ArrayGeometry,
    ChannelParams,
    ChannelRealization,
    channel_matrix,
    sample_channel,
)
from mmkeygen.probing import (
    Direction,
    EveConfig,
    ProbeRecord,
    bidirectional_probe,
    probe,
)


def rng(seed=0):
    return np.random.default_rng(seed)


def make_channel(seed=0, num_paths=2, tx=(1, 16), rx=(1, 8)):
    return sample_channel(
        ChannelParams(num_paths=num_paths), ArrayGeometry(*tx), ArrayGeometry(*rx), rng(seed)
    )


class TestProbe:
    def test_transpose_identity(self):
        ch = make_channel(1)
        H = channel_matrix(ch)
        r = rng(2)
        f = steering_beamformer(ch.tx_geom, 0.2)
        w = steering_beamformer(ch.rx_geom, -0.4)
        fwd = probe(f, w, H, 200.0, r)
        rev = probe(w, f, H.T, 200.0, r)
        assert fwd == pytest.approx(rev, abs=1e-8)

    def test_zero_channel_noise_variance(self):
        H = np.zeros((4, 4))
        f = steering_beamformer(ArrayGeometry(1, 4), 0.0)
        r = rng(3)
        ys = np.array([probe(f, f, H, 0.0, r) for _ in range(100_000)])
        assert abs(np.mean(np.abs(ys) ** 2) - 1.0) < 0.03

    def test_matched_single_path_closed_form(self):
        # |y| = sqrt(Nt*Nr) * |g_tx| * |g_rx| for a unit-gain single path
        tx, rx = ArrayGeometry(1, 16), ArrayGeometry(1, 8)
        ch = ChannelRealization(gains=[1.0 + 0j], angles=[[0.3, 0.0, -0.2, 0.0]], tx_geom=tx, rx_geom=rx)
        H = channel_matrix(ch)
        f = steering_beamformer(tx, 0.3)
        w = steering_beamformer(rx, -0.2)
        y = probe(f, w, H, 200.0, rng(4))
        assert abs(y) == pytest.approx(np.sqrt(16 * 8), abs=1e-6)

    def test_dimension_mismatch(self):
        f = steering_beamformer(ArrayGeometry(1, 4), 0.0)
        with pytest.raises(ValueError, match="dimension mismatch"):
            probe(f, f, np.zeros((8, 8)), 10.0, rng(5))


class TestBidirectionalProbe:
    def test_noiseless_reciprocity(self):
        ch = make_channel(7, num_paths=3)
        H = channel_matrix(ch)
        f_a = steering_beamformer(ch.tx_geom, 0.1)
        f_b = steering_beamformer(ch.rx_geom, -0.3)
        out = bidirectional_probe(f_a, f_a, f_b, f_b, H, 200.0, EveConfig(), rng(8))
        assert out.y_at_bob == pytest.approx(out.y_at_alice, abs=1e-8)
        assert out.y_at_eve is None

    def test_correlation_increases_with_snr(self):
        ch = make_channel(9, num_paths=2)
        f_a = steering_beamformer(ch.tx_geom, ch.angles[0, 0], ch.angles[0, 1])
        f_b = steering_beamformer(ch.rx_geom, ch.angles[0, 2], ch.angles[0, 3])
        corrs = []
        for snr in (-10.0, 0.0, 10.0, 20.0):
            r = rng(10)
            ya, yb = np.empty(10_000, complex), np.empty(10_000, complex)
            params = ChannelParams(num_paths=2)
            rch = rng(11)
            for i in range(ya.size):
                chi = sample_channel(params, ch.tx_geom, ch.rx_geom, rch)
                fa = steering_beamformer(chi.tx_geom, chi.angles[0, 0], chi.angles[0, 1])
                fb = steering_beamformer(chi.rx_geom, chi.angles[0, 2], chi.angles[0, 3])
                out = bidirectional_probe(fa, fa, fb, fb, channel_matrix(chi), snr, EveConfig(), r)
                yb[i], ya[i] = out.y_at_bob, out.y_at_alice
            num = np.abs(np.vdot(yb - yb.mean(), ya - ya.mean()))
            den = np.linalg.norm(yb - yb.mean()) * np.linalg.norm(ya - ya.mean())
            corrs.append(num / den)
        assert all(a < b for a, b in zip(corrs, corrs[1:]))

    def test_eve_at_alice_sees_reverse_noiseless(self):
        ch = make_channel(12)
        H = channel_matrix(ch)
        f_a = steering_beamformer(ch.tx_geom, 0.4)
        f_b = steering_beamformer(ch.rx_geom, 0.2)
        eve = EveConfig(colocated_with="alice", snr_db=200.0)
        out = bidirectional_probe(f_a, f_a, f_b, f_b, H, 0.0, eve, rng(13))
        noiseless_rev = complex(f_a.weights @ H.T @ f_b.weights)
        assert out.y_at_eve == pytest.approx(noiseless_rev, abs=1e-8)

    def test_eve_at_bob_sees_forward(self):
        ch = make_channel(14)
        H = channel_matrix(ch)
        f_a = steering_beamformer(ch.tx_geom, 0.4)
        f_b = steering_beamformer(ch.rx_geom, 0.2)
        eve = EveConfig(colocated_with="bob", snr_db=200.0)
        out = bidirectional_probe(f_a, f_a, f_b, f_b, H, 0.0, eve, rng(15))
        noiseless_fwd = complex(f_b.weights @ H @ f_a.weights)
        assert out.y_at_eve == pytest.approx(noiseless_fwd, abs=1e-8)

    def test_noise_independence(self):
        H = np.zeros((4, 4))
        f = steering_beamformer(ArrayGeometry(1, 4), 0.0)
        r = rng(16)
        ya, yb = np.empty(100_000, complex), np.empty(100_000, complex)
        for i in range(ya.size):
            out = bidirectional_probe(f, f, f, f, H, 0.0, EveConfig(), r)
            yb[i], ya[i] = out.y_at_bob, out.y_at_alice
        corr = np.abs(np.vdot(yb, ya)) / (np.linalg.norm(yb) * np.linalg.norm(ya))
        assert corr < 0.02

    def test_deterministic_streams(self):
        ch = make_channel(17)
        H = channel_matrix(ch)
        f_a = steering_beamformer(ch.tx_geom, 0.0)
        f_b = steering_beamformer(ch.rx_geom, 0.0)
        eve = EveConfig(colocated_with="bob")

        def run(seed):
            r = rng(seed)
            return [
                ProbeRecord(i, Direction.ALICE_TO_BOB, "a0", "b0",
                            bidirectional_probe(f_a, f_a, f_b, f_b, H, 5.0, eve, r).y_at_bob, 5.0)
                for i in range(50)
            ]

        assert run(21) == run(21)


class TestConfigs:
    def test_eve_placement_validated(self):
        with pytest.raises(ValueError, match="colocated_with"):
            EveConfig(colocated_with="carol")

    def test_probe_record_finite(self):
        with pytest.raises(ValueError, match="finite"):
            ProbeRecord(0, Direction.ALICE_TO_BOB, None, None, complex(np.inf, 0), 0.0)
