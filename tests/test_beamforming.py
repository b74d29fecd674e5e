import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmkeygen.beamforming import (
    DEFAULT_DELTA_MAX,
    Codebook,
    SelectionInfeasibleError,
    _sector_bounds,
    composite_gains,
    hierarchical_codebook,
    quantize_phases,
    sector_beamformer,
    select_beams,
    steering_beamformer,
)
from mmkeygen.channel import ArrayGeometry, array_response, sample_channel
from mmkeygen.schemes import SessionConfig, _perturbation_beams
from reference import ray_matrix
from reference import select_beams as reference_select_beams


def rng(seed=0):
    return np.random.default_rng(seed)


def pattern(w, geom, az, el=0.0):
    """Pattern value ``w^T a(az, el)`` of beam ``w``."""
    return complex(w @ array_response(geom, az, el))


class TestSteering:
    def test_broadside_4x4(self):
        w = steering_beamformer(ArrayGeometry(4, 4), 0.0, 0.0)
        assert np.allclose(w, 0.25)

    def test_matched_gain_is_one(self):
        r = rng(3)
        geom = ArrayGeometry(2, 8)
        for _ in range(20):
            az, el = r.uniform(-1.4, 1.4, size=2)
            w = steering_beamformer(geom, az, el)
            assert abs(pattern(w, geom, az, el) - 1.0) < 1e-12

    def test_unit_norm_random_angles(self):
        r = rng(5)
        for _ in range(100):
            geom = ArrayGeometry(int(r.integers(1, 6)), int(r.integers(1, 9)))
            w = steering_beamformer(geom, r.uniform(-1.5, 1.5), r.uniform(-1.5, 1.5))
            assert abs(np.linalg.norm(w) - 1.0) < 1e-12


class TestQuantizePhases:
    def test_on_grid_unchanged(self):
        n = 8
        k = np.arange(n) % 4
        w = np.exp(1j * 2 * np.pi * k / 16) / np.sqrt(n)
        assert np.allclose(quantize_phases(w, 4), w, atol=1e-15)

    def test_gain_loss_bound_random_steering(self):
        # worst per-element phase error pi/2**bits bounds the inner product
        r = rng(7)
        geom = ArrayGeometry(1, 32)
        bound = np.cos(np.pi / 2**8) * (1 - 1e-6)
        for _ in range(200):
            az = r.uniform(-1.5, 1.5)
            w = steering_beamformer(geom, az)
            assert abs(np.vdot(quantize_phases(w, 8), w)) >= bound

    def test_constant_modulus(self):
        r = rng(9)
        w = r.standard_normal(16) + 1j * r.standard_normal(16)
        q = quantize_phases(w / np.linalg.norm(w), 6)
        assert np.allclose(np.abs(q), 1 / 4.0)
        assert abs(np.linalg.norm(q) - 1.0) < 1e-12

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8))
    def test_idempotent(self, seed, bits):
        r = rng(seed)
        w = r.standard_normal(8) + 1j * r.standard_normal(8)
        once = quantize_phases(w / np.linalg.norm(w), bits)
        assert np.array_equal(once, quantize_phases(once, bits))


class TestPerturb:
    """The perturbed beams and ratio LUT of a secret-beam session."""

    def test_zero_delta_equals_nominal(self):
        geom = ArrayGeometry(1, 32)
        beams, lut = _perturbation_beams(geom, 0.3, 0.1, np.array([0.0]))
        assert np.array_equal(beams[1], steering_beamformer(geom, 0.3, 0.1))
        assert np.array_equal(beams[1], beams[0])
        assert lut[0] == pytest.approx(1.0, abs=1e-12)

    def test_delta_bound_enforced(self):
        # an 8-element aperture's first null is at sin = 1/4 (14.5 degrees)
        with pytest.raises(ValueError, match="first pattern null"):
            SessionConfig(alice=ArrayGeometry(1, 8), bob=ArrayGeometry(1, 8), delta_max=float(np.radians(15.0)))
        SessionConfig(alice=ArrayGeometry(1, 8), bob=ArrayGeometry(1, 8), delta_max=float(np.radians(14.0)))

    def test_gain_monotone_to_first_null_ula64(self):
        # dense-grid oracle: |w(delta)^T a(0)| strictly decreasing until the
        # first pattern null (sin(delta) = 2/64)
        geom = ArrayGeometry(1, 64)
        first_null = np.arcsin(2 / 64)
        _, gains = _perturbation_beams(geom, 0.0, 0.0, np.linspace(1e-4, first_null * 0.999, 400))
        assert np.all(gains[:-1] > gains[1:])

    def test_max_delta_loss_below_6db_32x16_upa(self):
        # pattern-evaluation oracle over a nominal-angle scan froze the worst
        # matched-gain ratio at ~0.877 (1.14 dB); assert the 6 dB envelope
        geom = ArrayGeometry(32, 16)
        r = rng(11)
        for _ in range(50):
            az0, el0 = r.uniform(-1.2, 1.2, size=2)
            _, lut = _perturbation_beams(geom, az0, el0, np.array([DEFAULT_DELTA_MAX]))
            assert -20 * np.log10(lut[0]) < 6.0


class TestBeamGain:
    def test_magnitude_bounded(self):
        r = rng(13)
        geom = ArrayGeometry(2, 8)
        for _ in range(100):
            w = steering_beamformer(geom, r.uniform(-1.5, 1.5), r.uniform(-1.5, 1.5))
            assert abs(pattern(w, geom, r.uniform(-1.5, 1.5), r.uniform(-1.5, 1.5))) <= 1 + 1e-12

    def test_dft_orthogonality_null(self):
        geom = ArrayGeometry(1, 8)
        w = steering_beamformer(geom, 0.0)
        assert abs(pattern(w, geom, float(np.arcsin(0.25)))) < 1e-10


class TestCodebook:
    def test_level_one_splits_sine_space(self):
        cb = hierarchical_codebook(ArrayGeometry(1, 8), 1)
        assert np.array_equal(cb.ids, [(1, 0), (1, 1)])
        assert cb.weights.shape == (2, 8)
        assert _sector_bounds(1, 0) == (-1.0, 0.0)
        assert _sector_bounds(1, 1) == (0.0, 1.0)

    def test_sector_partition_exact(self):
        # dyadic boundaries are exact floats: union is [-1, 1), no overlap
        for level in range(1, 7):
            edges = [_sector_bounds(level, k) for k in range(2**level)]
            assert edges[0][0] == -1.0
            assert edges[-1][1] == 1.0
            for (_, hi), (lo, _) in zip(edges, edges[1:]):
                assert hi == lo

    def test_deepest_level_matches_steering(self):
        geom = ArrayGeometry(1, 64)
        cb = hierarchical_codebook(geom, 6)
        for k in range(64):
            lo, hi = _sector_bounds(6, k)
            center = np.arcsin(0.5 * (lo + hi))
            g = abs(pattern(cb.codeword(6, k), geom, float(center)))
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
            lo, hi = _sector_bounds(1, k)
            g = np.abs(responses @ cb.codeword(1, k))
            inside = (grid >= lo + band) & (grid < hi - band)
            outside = ~((grid >= lo - band) & (grid < hi + band))
            for edge in (lo, hi):
                for wrapped in (edge + 2.0, edge - 2.0):
                    outside &= ~((grid >= wrapped - band) & (grid < wrapped + band))
            assert g[inside].min() > g[outside].max()

    def test_all_codewords_constant_modulus_on_grid(self):
        geom = ArrayGeometry(1, 32)
        cb = hierarchical_codebook(geom, 5)
        step = 2 * np.pi / 64
        W = cb.weights
        assert W.shape == (len(cb.ids), 32) == (62, 32)
        assert np.allclose(np.abs(W), 1 / np.sqrt(32), atol=1e-12)
        k = np.angle(W) / step
        assert np.allclose(k, np.round(k), atol=1e-9)
        assert np.allclose(np.linalg.norm(W, axis=1), 1.0, atol=1e-12)

    def test_depth_too_deep(self):
        with pytest.raises(ValueError, match="too deep"):
            hierarchical_codebook(ArrayGeometry(1, 16), 5)

    def test_ids_level_then_index_and_rows_are_codewords(self):
        geom = ArrayGeometry(1, 16)
        cb = hierarchical_codebook(geom, 4)
        expected = [(level, index) for level in range(1, 5) for index in range(2**level)]
        assert cb.ids.shape == (30, 2) and [tuple(r) for r in cb.ids.tolist()] == expected
        for row, (level, index) in enumerate(expected):
            assert np.array_equal(cb.codeword(level, index), cb.weights[row])
            # each row is the sector beam of its sector
            assert np.array_equal(cb.weights[row], sector_beamformer(geom, *_sector_bounds(level, index)))

    def test_arrays_read_only(self):
        cb = hierarchical_codebook(ArrayGeometry(1, 8), 2)
        for arr in (cb.weights, cb.ids, cb.codeword(2, 1)):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0

    @pytest.mark.parametrize(
        "level, index, message",
        [(3, -1, "index -1 outside level 3"), (3, 8, "index 8 outside level 3"),
         (1, 2, "index 2 outside level 1"), (0, 0, "level 0 outside 1..3"), (4, 0, "level 4 outside 1..3")],
    )
    def test_codeword_out_of_range_rejected(self, level, index, message):
        cb = hierarchical_codebook(ArrayGeometry(1, 8), 3)
        with pytest.raises(ValueError, match=message):
            cb.codeword(level, index)


def _row(beam_id):
    level, index = beam_id
    return 2**level - 2 + index


def drawn_matrix(tx, rx, r, num_paths):
    """A channel drawn from ``r``: its angles and its channel matrix."""
    angles, gains = sample_channel(tx, rx, r, num_paths)
    return angles, ray_matrix(tx, rx, angles, gains)


class TestSelectBeams:
    def _setup(self, seed=0):
        tx, rx = ArrayGeometry(1, 64), ArrayGeometry(1, 32)
        angles, H = drawn_matrix(tx, rx, rng(seed), 3)
        return hierarchical_codebook(tx, 6), H, steering_beamformer(rx, angles[0, 2], angles[0, 3])

    def test_single_beam_is_top_gain(self):
        cb, H, rx = self._setup()
        ids = select_beams(cb, H, rx, 1, window_db=6.0)
        gains = composite_gains(cb, H, rx)
        assert len(ids) == 1
        assert gains[_row(ids[0])] == gains.max()

    def test_five_distinct_beams_two_levels(self):
        found_multi = 0
        for seed in range(8):
            cb, H, rx = self._setup(seed)
            ids = select_beams(cb, H, rx, 5, window_db=10.0)
            assert len(set(ids)) == 5
            if len({lvl for lvl, _ in ids}) >= 2:
                found_multi += 1
        assert found_multi >= 7

    def test_window_postcondition(self):
        for seed in range(8):
            cb, H, rx = self._setup(seed)
            ids = select_beams(cb, H, rx, 5, window_db=10.0)
            chosen = composite_gains(cb, H, rx)[[_row(i) for i in ids]]
            med = np.median(chosen)
            ratio = 10 ** (10.0 / 20.0)
            assert chosen.max() <= med * ratio * (1 + 1e-12)
            assert chosen.min() * ratio >= med * (1 - 1e-12)

    def test_deterministic(self):
        cb, H, rx = self._setup(4)
        assert select_beams(cb, H, rx, 5, 10.0) == select_beams(cb, H, rx, 5, 10.0)

    def test_infeasible_raises(self):
        cb, H, rx = self._setup(2)
        with pytest.raises(SelectionInfeasibleError):
            select_beams(cb, H, rx, 40, window_db=0.01)


def _reference_selection(cb, H, rx, count, window_db):
    """Selection by the rule written out loop by loop over per-codeword products."""
    left = rx @ H
    gains = {(level, index): float(np.abs(left @ cb.codeword(level, index)))
             for level in range(1, cb.depth + 1) for index in range(2**level)}
    ranked = sorted(gains.items(), key=lambda item: (-item[1], item[0]))
    if count == 1:
        return [ranked[0][0]]
    ratio = 10.0 ** (window_db / 20.0)
    candidates = []
    for start in range(len(ranked) - count + 1):
        window = ranked[start : start + count]
        values = np.array([g for _, g in window])
        med = float(np.median(values))
        if values.max() > med * ratio or values.min() * ratio < med:
            continue
        ids = [beam_id for beam_id, _ in window]
        sectors = [_sector_bounds(*beam_id) for beam_id in ids]
        diversity = sum(
            1
            for i in range(count)
            for j in range(i + 1, count)
            if sectors[i][1] <= sectors[j][0] or sectors[j][1] <= sectors[i][0]
        )
        candidates.append((len({level for level, _ in ids}) < 2, -diversity, start, ids))
    if not candidates:
        return None
    return sorted(min(candidates)[3])


class TestSelectionEqualsReference:
    """Array gains and window scan against the per-codeword loop, exactly."""

    @pytest.mark.parametrize("tx, rx", [((1, 64), (1, 32)), ((1, 16), (1, 8)), ((2, 16), (2, 8))])
    def test_gains_equal_one_dimensional_products(self, tx, rx):
        tx, rx = ArrayGeometry(*tx), ArrayGeometry(*rx)
        _, H = drawn_matrix(tx, rx, rng(5), 3)
        cb = hierarchical_codebook(tx, min(6, int(np.log2(tx.cols))))
        w_rx = sector_beamformer(rx, -1.0, 1.0)
        left = w_rx @ H
        ref = [float(np.abs(left @ w)) for w in cb.weights]
        assert np.array_equal(composite_gains(cb, H, w_rx), ref)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        geoms=st.sampled_from([((1, 64), (1, 32)), ((1, 16), (1, 8)), ((2, 16), (2, 8))]),
        num_paths=st.integers(1, 4),
        pencil=st.booleans(),
        count=st.integers(1, 8),
        window_db=st.sampled_from([0.5, 1.0, 3.0, 6.0, 10.0, 20.0, 30.0]),
    )
    def test_selection_equals_reference(self, seed, geoms, num_paths, pencil, count, window_db):
        tx, rx = (ArrayGeometry(*g) for g in geoms)
        angles, H = drawn_matrix(tx, rx, rng(seed), num_paths)
        cb = hierarchical_codebook(tx, min(6, int(np.log2(tx.cols))))
        if pencil:
            w_rx = steering_beamformer(rx, angles[0, 2], angles[0, 3])
        else:
            w_rx = sector_beamformer(rx, -1.0, 1.0)
        ref = _reference_selection(cb, H, w_rx, count, window_db)
        if ref is None:
            with pytest.raises(SelectionInfeasibleError):
                select_beams(cb, H, w_rx, count, window_db)
        else:
            assert select_beams(cb, H, w_rx, count, window_db) == ref

    def test_gain_ties_break_by_level_then_index(self):
        # rows copied from the strongest codeword tie with it bit for bit:
        # the tied ids rank in (level, index) order, whatever their rows
        tx, rx = ArrayGeometry(1, 16), ArrayGeometry(1, 8)
        _, H = drawn_matrix(tx, rx, rng(3), 2)
        cb = hierarchical_codebook(tx, 4)
        w_rx = sector_beamformer(rx, -1.0, 1.0)
        W = cb.weights.copy()
        top = int(np.argmax(composite_gains(cb, H, w_rx)))
        tied = [r for r in (29, 17, 4, 1) if r != top][:3]
        W[tied] = W[top]
        cb = Codebook(geom=tx, depth=4, weights=W, ids=cb.ids)
        first = min(top, *tied)
        assert select_beams(cb, H, w_rx, 1, 3.0) == [tuple(cb.ids[first].tolist())]
        for count in (2, 3, 4, 5):
            assert select_beams(cb, H, w_rx, count, 30.0) == _reference_selection(cb, H, w_rx, count, 30.0)


class TestSelectionEqualsMedianReference:
    """The sorted-window median against ``np.median``'s selection in ``reference.py``, exactly."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        geoms=st.sampled_from([((1, 64), (1, 32)), ((1, 16), (1, 8)), ((2, 16), (2, 8))]),
        num_paths=st.integers(1, 4),
        count=st.integers(2, 6),
        window_db=st.sampled_from([0.5, 1.0, 3.0, 6.0, 10.0, 30.0]),
        tied=st.integers(0, 12),
        zeroed=st.integers(0, 12),
    )
    def test_even_and_odd_windows_pick_reference_beams(self, seed, geoms, num_paths, count, window_db, tied, zeroed):
        # rows copied from others tie with them bit for bit, zeroed rows gain
        # exactly 0: windows whose middle gains tie, or are all zero
        tx, rx = (ArrayGeometry(*g) for g in geoms)
        r = rng(seed)
        _, H = drawn_matrix(tx, rx, r, num_paths)
        cb = hierarchical_codebook(tx, min(6, int(np.log2(tx.cols))))
        W = cb.weights.copy()
        W[r.integers(len(W), size=tied)] = W[r.integers(len(W), size=tied)]
        W[r.integers(len(W), size=zeroed)] = 0.0
        cb = Codebook(geom=tx, depth=cb.depth, weights=W, ids=cb.ids)
        w_rx = sector_beamformer(rx, -1.0, 1.0)
        try:
            expected = reference_select_beams(cb, H, w_rx, count, window_db)
        except SelectionInfeasibleError:
            with pytest.raises(SelectionInfeasibleError):
                select_beams(cb, H, w_rx, count, window_db)
        else:
            assert select_beams(cb, H, w_rx, count, window_db) == expected
