import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmkeygen.beamforming import (
    DEFAULT_DELTA_MAX,
    Beamformer,
    Codebook,
    HybridConfig,
    SelectionInfeasibleError,
    beam_gain,
    composite_gains,
    hierarchical_codebook,
    perturb,
    quantize_phases,
    select_beams,
    steering_beamformer,
)
from mmkeygen.channel import ArrayGeometry, ChannelParams, array_response, sample_channel


def rng(seed=0):
    return np.random.default_rng(seed)


class TestSteering:
    def test_broadside_4x4(self):
        bf = steering_beamformer(ArrayGeometry(4, 4), 0.0, 0.0)
        assert np.allclose(bf.weights, 0.25)

    def test_matched_gain_is_one(self):
        r = rng(3)
        geom = ArrayGeometry(2, 8)
        for _ in range(20):
            az, el = r.uniform(-1.4, 1.4, size=2)
            bf = steering_beamformer(geom, az, el)
            assert abs(beam_gain(bf, geom, az, el) - 1.0) < 1e-12

    def test_unit_norm_random_angles(self):
        r = rng(5)
        for _ in range(100):
            geom = ArrayGeometry(int(r.integers(1, 6)), int(r.integers(1, 9)))
            bf = steering_beamformer(geom, r.uniform(-1.5, 1.5), r.uniform(-1.5, 1.5))
            assert abs(np.linalg.norm(bf.weights) - 1.0) < 1e-12


class TestQuantizePhases:
    def test_on_grid_unchanged(self):
        n = 8
        k = np.arange(n) % 4
        w = np.exp(1j * 2 * np.pi * k / 16) / np.sqrt(n)
        bf = quantize_phases(Beamformer(weights=w), 4)
        assert np.allclose(bf.weights, w, atol=1e-15)

    def test_gain_loss_bound_random_steering(self):
        # worst per-element phase error pi/2**bits bounds the inner product
        r = rng(7)
        geom = ArrayGeometry(1, 32)
        bound = np.cos(np.pi / 2**8) * (1 - 1e-6)
        for _ in range(200):
            az = r.uniform(-1.5, 1.5)
            bf = steering_beamformer(geom, az)
            q = quantize_phases(bf, 8)
            assert abs(np.vdot(q.weights, bf.weights)) >= bound

    def test_constant_modulus(self):
        r = rng(9)
        w = r.standard_normal(16) + 1j * r.standard_normal(16)
        q = quantize_phases(Beamformer(weights=w / np.linalg.norm(w)), 6)
        assert np.allclose(np.abs(q.weights), 1 / 4.0)
        assert q.phase_bits == 6

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8))
    def test_idempotent(self, seed, bits):
        r = rng(seed)
        w = r.standard_normal(8) + 1j * r.standard_normal(8)
        once = quantize_phases(Beamformer(weights=w / np.linalg.norm(w)), bits)
        twice = quantize_phases(once, bits)
        assert np.array_equal(once.weights, twice.weights)


class TestPerturb:
    def test_zero_delta_equals_nominal(self):
        geom = ArrayGeometry(1, 32)
        a = perturb(geom, 0.3, 0.1, 0.0)
        b = steering_beamformer(geom, 0.3, 0.1)
        assert np.array_equal(a.weights, b.weights)

    def test_delta_bound_enforced(self):
        with pytest.raises(ValueError, match="invalid perturbation"):
            perturb(ArrayGeometry(1, 8), 0.0, 0.0, np.radians(3.0))

    def test_gain_monotone_to_first_null_ula64(self):
        # dense-grid oracle: |w(delta)^T a(0)| strictly decreasing until the
        # first pattern null (sin(delta) = 2/64)
        geom = ArrayGeometry(1, 64)
        first_null = np.arcsin(2 / 64)
        deltas = np.linspace(1e-4, first_null * 0.999, 400)
        gains = [
            abs(beam_gain(perturb(geom, 0.0, 0.0, d, delta_max=first_null), geom, 0.0))
            for d in deltas
        ]
        assert all(a > b for a, b in zip(gains, gains[1:]))

    def test_max_delta_loss_below_6db_32x16_upa(self):
        # pattern-evaluation oracle over a nominal-angle scan froze the worst
        # matched-gain ratio at ~0.877 (1.14 dB); assert the 6 dB envelope
        geom = ArrayGeometry(32, 16)
        r = rng(11)
        for _ in range(50):
            az0, el0 = r.uniform(-1.2, 1.2, size=2)
            bf = perturb(geom, az0, el0, DEFAULT_DELTA_MAX)
            loss_db = -20 * np.log10(abs(beam_gain(bf, geom, az0, el0)))
            assert loss_db < 6.0


class TestBeamGain:
    def test_magnitude_bounded(self):
        r = rng(13)
        geom = ArrayGeometry(2, 8)
        for _ in range(100):
            bf = steering_beamformer(geom, r.uniform(-1.5, 1.5), r.uniform(-1.5, 1.5))
            g = beam_gain(bf, geom, r.uniform(-1.5, 1.5), r.uniform(-1.5, 1.5))
            assert abs(g) <= 1 + 1e-12

    def test_dft_orthogonality_null(self):
        geom = ArrayGeometry(1, 8)
        bf = steering_beamformer(geom, 0.0)
        assert abs(beam_gain(bf, geom, float(np.arcsin(0.25)))) < 1e-10

    def test_size_mismatch(self):
        bf = steering_beamformer(ArrayGeometry(1, 8), 0.0)
        with pytest.raises(ValueError, match="does not match"):
            beam_gain(bf, ArrayGeometry(1, 16), 0.0)


class TestCodebook:
    def test_level_one_splits_sine_space(self):
        cb = hierarchical_codebook(ArrayGeometry(1, 8), 1)
        assert len(cb.codewords(1)) == 2
        assert cb.sector(1, 0) == (-1.0, 0.0)
        assert cb.sector(1, 1) == (0.0, 1.0)

    def test_sector_partition_exact(self):
        # dyadic boundaries are exact floats: union is [-1, 1), no overlap
        for level in range(1, 7):
            edges = [Codebook.sector(level, k) for k in range(2**level)]
            assert edges[0][0] == -1.0
            assert edges[-1][1] == 1.0
            for (_, hi), (lo, _) in zip(edges, edges[1:]):
                assert hi == lo

    def test_deepest_level_matches_steering(self):
        geom = ArrayGeometry(1, 64)
        cb = hierarchical_codebook(geom, 6)
        for k in range(64):
            lo, hi = cb.sector(6, k)
            center = np.arcsin(0.5 * (lo + hi))
            g = abs(beam_gain(cb.codeword(6, k), geom, float(center)))
            assert g >= 0.9

    def test_level1_sector_separation_ula64(self):
        # grid-evaluation oracle: 512-point sine grid, transition band of two
        # DFT bins (4/N in sine space) around each sector edge
        geom = ArrayGeometry(1, 64)
        cb = hierarchical_codebook(geom, 6)
        grid = -1 + 2 * (np.arange(512) + 0.5) / 512
        responses = np.stack([array_response(geom, float(np.arcsin(s))) for s in grid])
        band = 2 * (2.0 / 64)
        for k in (0, 1):
            lo, hi = cb.sector(1, k)
            g = np.abs(responses @ cb.codeword(1, k).weights)
            inside = (grid >= lo + band) & (grid < hi - band)
            outside = ~((grid >= lo - band) & (grid < hi + band))
            for edge in (lo, hi):
                for wrapped in (edge + 2.0, edge - 2.0):
                    outside &= ~((grid >= wrapped - band) & (grid < wrapped + band))
            assert g[inside].min() > g[outside].max()

    def test_all_codewords_constant_modulus_on_grid(self):
        geom = ArrayGeometry(1, 32)
        cb = hierarchical_codebook(geom, 5, HybridConfig(phase_bits=6))
        step = 2 * np.pi / 64
        for level, index in cb.ids():
            w = cb.codeword(level, index).weights
            assert np.allclose(np.abs(w), 1 / np.sqrt(32), atol=1e-12)
            k = np.angle(w) / step
            assert np.allclose(k, np.round(k), atol=1e-9)
            assert abs(np.linalg.norm(w) - 1.0) < 1e-12

    def test_depth_too_deep(self):
        with pytest.raises(ValueError, match="too deep"):
            hierarchical_codebook(ArrayGeometry(1, 16), 5)


def _fig4_channel(seed=0, num_paths=3):
    params = ChannelParams(num_paths=num_paths)
    return sample_channel(params, ArrayGeometry(1, 64), ArrayGeometry(1, 32), rng(seed))


class TestSelectBeams:
    def _setup(self, seed=0):
        ch = _fig4_channel(seed)
        cb = hierarchical_codebook(ch.tx_geom, 6)
        rx = steering_beamformer(ch.rx_geom, ch.angles[0, 2], ch.angles[0, 3])
        return cb, ch, rx

    def test_single_beam_is_top_gain(self):
        cb, ch, rx = self._setup()
        ids = select_beams(cb, ch, rx, 1, window_db=6.0)
        gains = composite_gains(cb, ch, rx)
        best = max(gains.items(), key=lambda item: (item[1], item[0]))[0]
        top = max(gains.values())
        assert len(ids) == 1
        assert gains[ids[0]] == pytest.approx(top)

    def test_five_distinct_beams_two_levels(self):
        found_multi = 0
        for seed in range(8):
            cb, ch, rx = self._setup(seed)
            ids = select_beams(cb, ch, rx, 5, window_db=10.0)
            assert len(set(ids)) == 5
            if len({lvl for lvl, _ in ids}) >= 2:
                found_multi += 1
        assert found_multi >= 7

    def test_window_postcondition(self):
        for seed in range(8):
            cb, ch, rx = self._setup(seed)
            ids = select_beams(cb, ch, rx, 5, window_db=10.0)
            gains = composite_gains(cb, ch, rx)
            chosen = np.array([gains[i] for i in ids])
            med = np.median(chosen)
            ratio = 10 ** (10.0 / 20.0)
            assert chosen.max() <= med * ratio * (1 + 1e-12)
            assert chosen.min() * ratio >= med * (1 - 1e-12)

    def test_deterministic(self):
        cb, ch, rx = self._setup(4)
        assert select_beams(cb, ch, rx, 5, 10.0) == select_beams(cb, ch, rx, 5, 10.0)

    def test_infeasible_raises(self):
        cb, ch, rx = self._setup(2)
        with pytest.raises(SelectionInfeasibleError):
            select_beams(cb, ch, rx, 40, window_db=0.01)
