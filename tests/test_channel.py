import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from mmkeygen import channel as chn
from mmkeygen.beamforming import steering_beamformer
from mmkeygen.channel import (
    ArrayGeometry,
    array_response,
    channel_matrix,
    virtual_channel,
)
from mmkeygen.probing import bidirectional_probe
from mmkeygen.schemes import SessionConfig, _evolved, _rays
from reference import dft_matrix, ray_matrix, responses
from reference import virtual_channel as reference_virtual_channel


def rng(seed=0):
    return np.random.default_rng(seed)


def rays(seed, num_paths, count=1, tx=ArrayGeometry(1, 4), rx=ArrayGeometry(1, 4)):
    """``count`` channels drawn by ``_rays`` one after another from one generator: angles (count, L, 4), gains (count, L)."""
    r = rng(seed)
    return _rays(SessionConfig(scheme="baseline", alice=tx, bob=rx, num_paths=num_paths), lambda n: r, (count,))


def evolved(gains, rho, seed, steps):
    """The (N, steps, L) gains ``_evolved`` steps the (N, L) ``gains`` to, each channel's steps drawn in turn from one generator."""
    r = rng(seed)
    cfg = SessionConfig(scheme="baseline", num_paths=gains.shape[1], rounds=steps, temporal_rho=rho)
    return _evolved(cfg, lambda n: r, gains)


class TestArrayResponse:
    def test_broadside_4x4_all_entries_quarter(self):
        v = array_response(ArrayGeometry(4, 4), az=0.0, el=0.0)
        assert np.allclose(v, 0.25)
        assert v.dtype == complex

    def test_unit_norm_random_angles(self):
        r = rng(1)
        for _ in range(1000):
            geom = ArrayGeometry(int(r.integers(1, 9)), int(r.integers(1, 9)))
            az, el = r.uniform(-np.pi / 2, np.pi / 2, size=2)
            v = array_response(geom, az, el)
            assert abs(np.linalg.norm(v) - 1.0) < 1e-12

    def test_ula_quarter_sine_orthogonal(self):
        # Geometric-series oracle: sum over 8 points of exp(i*pi*n/4) is the
        # full period of an 8th root of unity, hence exactly zero.
        geom = ArrayGeometry(1, 8)
        v0 = array_response(geom, 0.0)
        v1 = array_response(geom, np.arcsin(0.25))
        oracle = sum(np.exp(1j * np.pi * n * 0.25) for n in range(8)) / 8.0
        assert abs(oracle) < 1e-12
        assert abs(np.vdot(v0, v1)) < 1e-12

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError, match="invalid geometry"):
            ArrayGeometry(0, 4)

    def test_nonfinite_angle_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            array_response(ArrayGeometry(2, 2), np.nan)

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.integers(1, 12),
        cols=st.integers(1, 12),
        az=st.floats(-1.5, 1.5),
        el=st.floats(-1.5, 1.5),
    )
    def test_unit_norm_property(self, rows, cols, az, el):
        v = array_response(ArrayGeometry(rows, cols), az, el)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12

    def test_batched_rows_equal_scalar_calls_upa(self):
        geom = ArrayGeometry(4, 8)
        r = rng(2)
        az = r.uniform(-np.pi / 2, np.pi / 2, size=64)
        el = r.uniform(-np.pi / 2, np.pi / 2, size=64)
        batch = array_response(geom, az, el)
        assert batch.shape == (64, 32)
        assert np.all(el != 0.0)
        for i in range(az.size):
            assert np.array_equal(batch[i], array_response(geom, az[i], el[i]))
        # a scalar elevation broadcasts against the azimuth array
        shared = array_response(geom, az, el[0])
        for i in range(az.size):
            assert np.array_equal(shared[i], array_response(geom, az[i], el[0]))

    @settings(max_examples=100, deadline=None)
    @given(
        rows=st.integers(2, 6),
        cols=st.integers(1, 12),
        angles=st.lists(st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)), min_size=1, max_size=6),
    )
    def test_batched_equals_scalar_property(self, rows, cols, angles):
        geom = ArrayGeometry(rows, cols)
        az, el = np.array(angles).T
        batch = array_response(geom, az, el)
        assert batch.shape == (len(angles), geom.size)
        for i, (a, e) in enumerate(angles):
            assert np.array_equal(batch[i], array_response(geom, a, e))

    def test_scalar_call_shape(self):
        assert array_response(ArrayGeometry(2, 3), 0.1, 0.2).shape == (6,)

    def test_nonfinite_entry_in_batch_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            array_response(ArrayGeometry(1, 4), np.array([0.1, np.inf]))


class TestRays:
    """The rays every scheme draws, by ``schemes._rays``."""

    def test_nlos_to_los_power_ratio(self):
        # Paper-anchored 10 dB offset: MC mean of |a_nlos|^2/|a_los|^2.
        _, gains = rays(7, 2, 100_000)
        ratios = np.abs(gains[:, 1]) ** 2 / np.abs(gains[:, 0]) ** 2
        assert abs(ratios.mean() - 0.1) < 0.01

    def test_single_path_is_los(self):
        [angles], [gains] = rays(3, 1)
        assert angles.shape == (1, 4) and gains.shape == (1,) and gains.dtype == complex
        assert abs(abs(gains[0]) - 1.0) < 1e-12

    def test_same_seed_same_realization(self):
        geom = ArrayGeometry(2, 4)
        a = rays(11, 3, tx=geom, rx=geom)
        b = rays(11, 3, tx=geom, rx=geom)
        assert all(x.tobytes() == y.tobytes() for x, y in zip(a, b))

    def test_angles_in_front_hemisphere(self):
        [angles], [gains] = rays(5, 5, tx=ArrayGeometry(1, 8), rx=ArrayGeometry(1, 8))
        assert angles.shape == (5, 4) and gains.shape == (5,)
        for a in angles.ravel():
            assert -np.pi / 2 <= a < np.pi / 2

    def test_empty_grid_draws_nothing(self):
        # a grid of no channels still has its path axis
        angles, gains = _rays(SessionConfig(num_paths=3), lambda *n: pytest.fail("drew a stream"), (0,))
        assert angles.shape == (0, 3, 4) and gains.shape == (0, 3)

    @pytest.mark.parametrize("grid_cols", [None, (4, 7)])
    def test_angles_in_range_at_the_uniform_edges(self, grid_cols):
        # the smallest and largest uniforms a draw gives map inside [-pi/2, pi/2),
        # on the DFT grids too: no channel leaves the range it is built on
        u = np.array([[0.0] * 12 + [0.5], [1.0 - 2.0**-53] * 12 + [0.5]])
        angles, _ = chn._paths(u, np.zeros((2, 4)), 10.0, grid_cols)
        assert angles.min() == -np.pi / 2 and angles.max() < np.pi / 2


class TestChannelMatrix:
    def test_single_path_rank_one(self):
        tx, rx = ArrayGeometry(1, 8), ArrayGeometry(1, 4)
        H = ray_matrix(tx, rx, *(x[0] for x in rays(2, 1, tx=tx, rx=rx)))
        assert H.shape == (4, 8)
        s = np.linalg.svd(H, compute_uv=False)
        assert s[1] < 1e-12 * s[0]

    def test_single_path_frobenius_norm(self):
        tx, rx = ArrayGeometry(2, 8), ArrayGeometry(1, 4)
        H = ray_matrix(tx, rx, *(x[0] for x in rays(2, 1, tx=tx, rx=rx)))
        # unit-magnitude LoS gain and unit-norm responses
        assert abs(np.linalg.norm(H) - np.sqrt(16 * 4)) < 1e-9

    def test_out_equals_fresh_matrix(self):
        tx, rx = ArrayGeometry(2, 4), ArrayGeometry(1, 4)
        [angles], [gains] = rays(5, 3, tx=tx, rx=rx)
        a_tx, a_rx = responses(tx, rx, angles)
        out = np.full((4, 8), np.nan, dtype=complex)
        assert channel_matrix(a_rx, gains, a_tx, out=out) is out
        assert out.tobytes() == channel_matrix(a_rx, gains, a_tx).tobytes()

    def test_equals_sum_of_path_outer_products(self):
        # H = sqrt(Nt Nr / L) sum_l g_l a_rx(aoa_l) a_tx(aod_l)^T, one path at a time
        tx, rx = ArrayGeometry(2, 4), ArrayGeometry(1, 6)
        [angles], [gains] = rays(7, 4, tx=tx, rx=rx)
        a_tx, a_rx = responses(tx, rx, angles)
        ref = sum(g * np.outer(r, t) for g, r, t in zip(gains, a_rx, a_tx)) * np.sqrt(8 * 6 / 4)
        assert np.max(np.abs(channel_matrix(a_rx, gains, a_tx) - ref)) < 1e-12

    def test_expected_power_three_paths(self):
        # Analytic: E||H||_F^2 = Nt*Nr*(1 + 2*0.1)/3, cross-checked by MC.
        tx, rx = ArrayGeometry(1, 8), ArrayGeometry(1, 4)
        n = 10_000
        acc = sum(np.linalg.norm(ray_matrix(tx, rx, *drawn)) ** 2 for drawn in zip(*rays(13, 3, n, tx, rx)))
        expected = 8 * 4 * (1 + 2 * 0.1) / 3
        assert abs(acc / n / expected - 1.0) < 0.02


class TestInnovationsThroughAr1:
    """The AR(1) gain process as every scheme runs it: ``schemes._evolved`` draws the innovations and ``_ar1`` steps them."""

    def test_rho_one_identical(self):
        _, gains = rays(1, 3)
        [out] = evolved(gains, 1.0, 2, 3)
        assert out.shape == (3, 3)
        assert all(np.array_equal(row, gains[0]) for row in out)

    def test_rho_zero_uncorrelated(self):
        _, gains = rays(17, 2, 10_000)
        before, after = gains[:, 1], evolved(gains, 0.0, 18, 1)[:, 0, 1]
        corr = np.vdot(before - before.mean(), after - after.mean())
        corr /= np.linalg.norm(before - before.mean()) * np.linalg.norm(after - after.mean())
        assert abs(corr) < 0.02

    @pytest.mark.parametrize("rho", [0.0, 0.5, 0.9])
    def test_power_preserved(self, rho):
        _, gains = rays(23, 2, 10_000)
        p_before = (np.abs(gains) ** 2).sum(axis=1)
        p_after = (np.abs(evolved(gains, rho, 24, 1)[:, 0]) ** 2).sum(axis=1)
        assert abs(p_after.mean() / p_before.mean() - 1.0) < 0.02

    def test_nlos_marginal_preserved_ks(self):
        # AR(1) with Gaussian innovations is exactly stationary for the NLoS
        # gains; the LoS point-mass magnitude is checked via power instead.
        _, gains = rays(29, 2, 10_000)
        before, after = np.abs(gains[:, 1]), np.abs(evolved(gains, 0.7, 30, 1)[:, 0, 1])
        assert stats.ks_2samp(before, after).pvalue > 0.01

    def test_initial_gains_unchanged(self):
        _, gains = rays(1, 3)
        kept = gains.copy()
        out = evolved(gains, 0.3, 4, 5)
        assert out.shape == (1, 5, 3)
        assert np.array_equal(gains, kept)

    def test_draw_order(self):
        # per step one uniform LoS phase, then the real and the imaginary
        # NLoS innovations; scalar steps drawn that way give the same gains
        # bit for bit
        _, [gains] = rays(1, 3)
        rho = 0.6
        [out] = evolved(gains[None], rho, 9, 4)
        r = rng(9)
        n_nlos = 2
        sigma = np.sqrt(10.0 ** (-10.0 / 10.0) / 2.0)
        mix = np.sqrt(1.0 - rho * rho)
        gains = list(gains)
        for row in out:
            los_eps = np.exp(1j * r.uniform(0.0, 2.0 * np.pi))
            nlos_eps = sigma * (r.standard_normal(n_nlos) + 1j * r.standard_normal(n_nlos))
            eps = [los_eps, *nlos_eps]
            gains = [rho * g + mix * e for g, e in zip(gains, eps)]
            assert np.array_equal(row, gains)


def reference_ar1(gains, eps, rho):
    """The per-step AR(1) loop that the in-place one replaced: a fresh sum each step."""
    mix = np.sqrt(1.0 - rho * rho)
    out = np.empty(eps.shape, dtype=complex)
    for t in range(eps.shape[-2]):
        gains = rho * gains + mix * eps[..., t, :]
        out[..., t, :] = gains
    return out


class TestAr1:
    @settings(max_examples=200, deadline=None)
    @given(
        # 0.8 is a rho at which sqrt(1 - rho**2) and sqrt((1 - rho)(1 + rho)) differ
        rho=st.sampled_from([0.0, 0.3, 0.5, 0.8, 1.0]),
        batch=st.sampled_from([(), (1,), (3,)]),
        steps=st.integers(1, 40),
        paths=st.integers(1, 8),
        zeros=st.floats(0.0, 0.5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_reference(self, rho, batch, steps, paths, zeros, seed):
        # gains (L,) or (B, L) through innovations (T, L) or (B, T, L); some
        # exact and negative zeros check that the in-place sum keeps their signs
        r = rng(seed)

        def draw(shape):
            z = r.standard_normal(shape) + 1j * r.standard_normal(shape)
            z.real[r.random(shape) < zeros] = 0.0
            z.imag[r.random(shape) < zeros] = -0.0
            return z

        gains, eps = draw(batch + (paths,)), draw(batch + (steps, paths))
        # the reference first: _ar1 overwrites its innovations
        ref = reference_ar1(gains, eps, rho)
        out = chn._ar1(gains, eps, rho)
        assert out is eps
        assert out.shape == ref.shape
        # byte equality, so the sign of every zero counts too
        assert out.tobytes() == ref.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(
        rho=st.sampled_from([0.0, 0.3, 0.8, 1.0]),
        sessions=st.integers(1, 6),
        steps=st.integers(1, 40),
        paths=st.integers(1, 8),
        zeros=st.floats(0.0, 0.5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_flattened_sessions_match_per_session_reference(self, rho, sessions, steps, paths, zeros, seed):
        # S sessions' paths side by side in one (T, S * L) array, as a
        # multires batch steps them: each session's L columns are bytes of
        # its own reference, signed zeros included
        r = rng(seed)

        def draw(shape):
            z = r.standard_normal(shape) + 1j * r.standard_normal(shape)
            z.real[r.random(shape) < zeros] = -0.0
            z.imag[r.random(shape) < zeros] = 0.0
            return z

        gains, eps = draw((sessions, paths)), draw((sessions, steps, paths))
        refs = [reference_ar1(gains[s], eps[s], rho) for s in range(sessions)]
        flat = eps.transpose(1, 0, 2).reshape(steps, sessions * paths)
        out = chn._ar1(gains.reshape(-1), flat, rho)
        assert out is flat and out.shape == (steps, sessions * paths)
        for s, ref in enumerate(refs):
            assert np.ascontiguousarray(out[:, s * paths : (s + 1) * paths]).tobytes() == ref.tobytes()


class TestDftMatrix:
    def test_n1(self):
        assert np.allclose(dft_matrix(1), [[1.0]])

    def test_n2(self):
        expected = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        assert np.allclose(dft_matrix(2), expected)

    def test_n8_unitary(self):
        U = dft_matrix(8)
        assert np.max(np.abs(U.conj().T @ U - np.eye(8))) < 1e-12

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            dft_matrix(0)


class TestVirtualChannel:
    def test_frobenius_preserved(self):
        r = rng(31)
        tx, rx = ArrayGeometry(2, 4), ArrayGeometry(1, 4)
        for _ in range(1000):
            H = r.standard_normal((4, 8)) + 1j * r.standard_normal((4, 8))
            Hv = virtual_channel(H, tx, rx)
            assert abs(np.linalg.norm(Hv) - np.linalg.norm(H)) < 1e-10

    def test_grid_aligned_single_entry(self):
        # Grid sines for a 16-point DFT with half-wavelength spacing.
        geom = ArrayGeometry(1, 16)
        grid = lambda j: -1.0 + 2.0 * j / 16
        H = ray_matrix(geom, geom, [[float(np.arcsin(grid(5))), 0.0, float(np.arcsin(grid(12))), 0.0]], [1.0])
        Hv = virtual_channel(H, geom, geom)
        assert np.sum(np.abs(Hv) > 1e-9) == 1

    def test_round_trip(self):
        r = rng(37)
        tx, rx = ArrayGeometry(2, 4), ArrayGeometry(2, 2)
        H = r.standard_normal((4, 8)) + 1j * r.standard_normal((4, 8))
        # U_r H_v U_t^H with the per-axis Kronecker DFT bases
        U_r = np.kron(dft_matrix(rx.rows), dft_matrix(rx.cols))
        U_t = np.kron(dft_matrix(tx.rows), dft_matrix(tx.cols))
        back = U_r @ virtual_channel(H, tx, rx) @ U_t.conj().T
        assert np.max(np.abs(back - H)) < 1e-10

    @pytest.mark.parametrize(
        "tx, rx",
        [
            ((1, 8), (1, 4)),
            ((8, 1), (4, 1)),
            ((1, 8), (4, 1)),
            ((8, 1), (1, 4)),
            ((2, 4), (1, 4)),
            ((2, 2), (4, 2)),
            ((1, 1), (2, 3)),
            ((3, 2), (1, 1)),
            ((1, 1), (1, 1)),
        ],
    )
    def test_equals_kronecker_reference(self, tx, rx):
        tx, rx = ArrayGeometry(*tx), ArrayGeometry(*rx)
        U_r = np.kron(dft_matrix(rx.rows), dft_matrix(rx.cols))
        U_t = np.kron(dft_matrix(tx.rows), dft_matrix(tx.cols))
        r = rng(41)
        shape = (rx.size, tx.size)
        H0 = r.standard_normal(shape) + 1j * r.standard_normal(shape)
        for H in (
            H0,
            r.standard_normal(shape),
            r.integers(-5, 6, size=shape),
            # single precision, transformed in double
            H0.astype(np.complex64),
            # memory layouts other than C order
            np.asfortranarray(H0),
            np.ascontiguousarray(H0.T).T,
            H0[:, ::-1],
        ):
            Hv = virtual_channel(H, tx, rx)
            assert Hv.dtype == complex and Hv.shape == shape
            assert np.max(np.abs(Hv - U_r.conj().T @ H @ U_t)) < 1e-12
            assert not np.shares_memory(Hv, H)
            # into a given array, and in place on a C-ordered complex copy
            out = np.empty(shape, dtype=complex)
            assert virtual_channel(H, tx, rx, out=out) is out
            assert out.tobytes() == Hv.tobytes()
            inplace = np.array(H, dtype=complex, order="C")
            assert virtual_channel(inplace, tx, rx, out=inplace) is inplace
            assert inplace.tobytes() == Hv.tobytes()

    @pytest.mark.numpy_contract
    @pytest.mark.parametrize(
        "tx, rx",
        [
            ((1, 128), (1, 128)),
            ((1, 64), (1, 128)),
            ((1, 8), (1, 16)),
            ((8, 1), (1, 16)),
            ((4, 4), (2, 8)),
            ((1, 1), (1, 32)),
            ((1, 32), (1, 1)),
            ((1, 1), (1, 1)),
        ],
    )
    def test_equals_per_axis_reference(self, tx, rx):
        # the FFTs run on the axes longer than 1 only, with the bits of the
        # per-axis loop over the (rx rows, rx cols, tx rows, tx cols) view
        tx, rx = ArrayGeometry(*tx), ArrayGeometry(*rx)
        r = rng(43)
        shape = (rx.size, tx.size)
        H0 = r.standard_normal(shape) + 1j * r.standard_normal(shape)
        for H in (H0, np.asfortranarray(H0), H0[:, ::-1], r.standard_normal(shape)):
            expected = reference_virtual_channel(H, tx, rx).tobytes()
            assert virtual_channel(H, tx, rx).tobytes() == expected
            inplace = np.array(H, dtype=complex, order="C")
            assert virtual_channel(inplace, tx, rx, out=inplace) is inplace
            assert inplace.tobytes() == expected

    @pytest.mark.parametrize(
        "out",
        [
            np.empty((4, 8), dtype=complex, order="F"),
            np.empty((8, 8), dtype=complex)[:, ::2],
            np.empty((4, 8)),
            np.empty((8, 4), dtype=complex),
        ],
        ids=["f-order", "strided", "float", "shape"],
    )
    def test_bad_out_rejected(self, out):
        H = np.ones((4, 8), dtype=complex)
        with pytest.raises(ValueError, match="C-contiguous complex array of shape"):
            virtual_channel(H, ArrayGeometry(2, 4), ArrayGeometry(1, 4), out=out)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            virtual_channel(np.zeros((3, 3)), ArrayGeometry(1, 4), ArrayGeometry(1, 4))

    @pytest.mark.parametrize("n", [32, 64, 128])
    def test_offgrid_dominant_entry_fraction(self, n):
        # Worst-case off-grid leakage for a single-axis transform: the
        # dominant bin keeps >= 40% of the energy (4/pi^2 at half-bin offset).
        tx = ArrayGeometry(1, n)
        rx = ArrayGeometry(1, 1)
        for frac in np.linspace(0.0, 0.5, 26):
            s = -1.0 + 2.0 * (10 + frac) / n
            Hv = virtual_channel(ray_matrix(tx, rx, [[float(np.arcsin(s)), 0.0, 0.0, 0.0]], [1.0]), tx, rx)
            power = np.abs(Hv.ravel()) ** 2
            assert power.max() / power.sum() >= 0.40



class TestAwgn:
    """Receiver noise, drawn inside ``bidirectional_probe``; at a zero channel the samples are the noise."""

    @staticmethod
    def noise(blocks, pairs, snr_db, seed, az=0.0):
        geom = ArrayGeometry(1, 4)
        w = np.stack([steering_beamformer(geom, az)] * pairs)
        return bidirectional_probe(w, w, *responses(geom, geom, np.zeros((1, 4))), np.zeros((blocks, 1)), snr_db, rng(seed))

    def test_zero_signal_unit_variance(self):
        # at 0 dB each direction has unit variance, half in each of re and im
        for y in self.noise(25_000, 4, 0.0, 43):
            assert abs(np.mean(np.abs(y) ** 2) - 1.0) < 0.03
            assert abs(np.var(y.real) - 0.5) < 0.015 and abs(np.var(y.imag) - 0.5) < 0.015

    def test_same_seed_same_noise(self):
        # the noise depends on the seed only, not on the beams probed
        same = (np.array_equal(a, b) for a, b in zip(self.noise(16, 2, 10.0, 47), self.noise(16, 2, 10.0, 47, az=0.7)))
        assert all(same)
        assert not np.array_equal(self.noise(16, 2, 10.0, 47)[0], self.noise(16, 2, 10.0, 48)[0])

    def test_scalar_in_scalar_out(self):
        # one block and one pair give one complex sample per direction, each
        # one real and one imaginary normal, in that order, Bob's first
        y_bob, y_alice = self.noise(1, 1, 10.0, 49)
        assert y_bob.shape == y_alice.shape == (1, 1) and np.iscomplexobj(y_bob) and np.iscomplexobj(y_alice)
        re_b, im_b, re_a, im_a = rng(49).standard_normal(4)
        assert complex(y_bob[0, 0]) == np.sqrt(0.1 / 2.0) * complex(re_b, im_b)
        assert complex(y_alice[0, 0]) == np.sqrt(0.1 / 2.0) * complex(re_a, im_a)
