import heapq
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmkeygen import seeds
from mmkeygen.keygen import (
    BitString,
    CascadeParams,
    InsufficientSamplesError,
    QuantizerConfig,
    _calibrated_cells,
    _calibration_range,
    _plugin_entropy_bits,
    bar,
    cascade,
    extract_randomness,
    gray_encode_indices,
    key_entropy_rate,
    pack_indices,
    privacy_amplify,
    quantize,
)
from reference import cell_indices, toeplitz_hash


def rng(seed=0):
    return np.random.default_rng(seed)


def random_bits(n, seed=0):
    return BitString(bits=rng(seed).integers(0, 2, size=n, dtype=np.uint8))


class TestExtractRandomness:
    def test_constant_to_zeros(self):
        out = extract_randomness(np.full(10, 3.7))
        assert np.allclose(out, 0.0)

    def test_zero_mean(self):
        r = rng(1)
        for _ in range(100):
            out = extract_randomness(r.standard_normal(50) * 10 + 5)
            assert abs(out.mean()) < 1e-12

    def test_idempotent(self):
        x = rng(2).standard_normal(64)
        once = extract_randomness(x)
        assert np.allclose(extract_randomness(once), once)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            extract_randomness([])


class TestQuantize:
    def test_two_levels(self):
        cfg = QuantizerConfig(levels=2, lo=0.0, hi=1.0)
        out = quantize([0.1, 0.9], cfg)
        assert list(out.bits) == [0, 1]

    def test_sixteen_levels_four_bits_per_sample(self):
        cfg = QuantizerConfig(levels=16, lo=-1.0, hi=1.0)
        out = quantize(rng(3).uniform(-1, 1, size=25), cfg)
        assert len(out) == 25 * 4

    def test_gray_adjacent_cells_one_bit(self):
        cfg = QuantizerConfig(levels=16, lo=0.0, hi=16.0)
        for cell in range(15):
            a = quantize([cell + 0.5], cfg)
            b = quantize([cell + 1.5], cfg)
            assert int(np.sum(a.bits != b.bits)) == 1

    def test_levels_power_of_two_enforced(self):
        with pytest.raises(ValueError, match="power of two"):
            QuantizerConfig(levels=12)

    def test_degenerate_range_rejected(self):
        # an empty, inverted or NaN range fails here, not later as zero
        # single-probe entropy
        for lo, hi in [(2.0, 2.0), (3.0, 2.0), (np.nan, 1.0), (0.0, np.nan)]:
            with pytest.raises(ValueError, match="degenerate"):
                QuantizerConfig(levels=4, lo=lo, hi=hi)

    @pytest.mark.parametrize("bounds", [dict(lo=0.0), dict(hi=1.0)])
    def test_lone_bound_rejected(self, bounds):
        # key_entropy_rate would calibrate each stream and ignore a lone bound
        with pytest.raises(ValueError, match="both quantizer bounds or neither"):
            QuantizerConfig(levels=4, **bounds)

    def test_quantize_cells_equal_one_stream_formula(self):
        cfg = QuantizerConfig(levels=8, lo=-1.5, hi=2.5)
        x = rng(4).uniform(-3.0, 4.0, 500)
        assert quantize(x, cfg).equals(gray_encode_indices(cell_indices(x, 8, -1.5, 2.5), 3))

    def test_unset_range_rejected(self):
        with pytest.raises(ValueError, match="calibrated"):
            quantize([0.5], QuantizerConfig(levels=4))

    def test_calibrated_percentiles(self):
        samples = np.linspace(0, 100, 1001)
        cfg = QuantizerConfig.calibrated(samples, levels=8)
        assert cfg.lo == pytest.approx(1.0)
        assert cfg.hi == pytest.approx(99.0)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=40))
    def test_monotone_cell_index(self, values):
        idx = _calibrated_cells(np.array([sorted(values)]), 16, -50.0, 50.0)[0]
        assert all(a <= b for a, b in zip(idx, idx[1:]))


class TestBar:
    def test_identical(self):
        a = random_bits(100, 1)
        assert bar(a, a) == 1.0

    def test_complement(self):
        a = random_bits(100, 2)
        b = BitString(bits=1 - a.bits)
        assert bar(a, b) == 0.0

    def test_independent_half(self):
        a = random_bits(10_000, 3)
        b = random_bits(10_000, 4)
        assert abs(bar(a, b) - 0.5) < 0.015

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            bar(random_bits(4), random_bits(5))


class TestXor:
    def test_self_inverse(self):
        a = random_bits(64, 5)
        assert np.all((a ^ a).bits == 0)

    def test_identity(self):
        a = random_bits(64, 6)
        assert (a ^ BitString.zeros(64)).equals(a)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31), st.integers(1, 128))
    def test_involution(self, seed, n):
        a = random_bits(n, seed)
        b = random_bits(n, seed + 1)
        assert ((a ^ b) ^ b).equals(a)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            random_bits(4) ^ random_bits(5)

    def test_masking_defeats_partial_knowledge(self):
        # Eve holds one half exactly; the other half is uniform: her guess of
        # the XOR'd key agrees at chance level.
        r = rng(7)
        n = 10_000
        bits_a = BitString(bits=r.integers(0, 2, n, dtype=np.uint8))
        bits_b = BitString(bits=r.integers(0, 2, n, dtype=np.uint8))
        guess_a = BitString(bits=r.integers(0, 2, n, dtype=np.uint8))
        final = bits_a ^ bits_b
        eve = guess_a ^ bits_b
        assert abs(bar(eve, final) - 0.5) < 0.02


# The earlier Cascade, kept as a reference: every parity is summed from the
# two strings, and the binary search sums a slice of the block per halving.
# When a ``transcript`` list is given, it records the positions behind every
# revealed bit (one sampled position, one block, or one halved sub-block).


def _parity_mismatch(a, b, positions):
    return bool((int(a[positions].sum()) ^ int(b[positions].sum())) & 1)


def _binary_search(a, b, positions, transcript):
    """Locate one mismatched position inside an odd-parity block.

    Returns (position, parities_revealed): each halving step reveals one
    parity bit of the reference string.
    """
    lo, hi = 0, positions.size
    revealed = 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        revealed += 1
        transcript.append(positions[lo:mid])
        if _parity_mismatch(a, b, positions[lo:mid]):
            hi = mid
        else:
            lo = mid
    return int(positions[lo]), revealed


def _reference_cascade(a, b, params, transcript=None):
    if transcript is None:
        transcript = []
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    n = len(a)
    a_bits = a.bits.astype(np.int64)
    b_work = b.bits.astype(np.int64).copy()
    if n == 0:
        return BitString.zeros(0), 0

    rng = seeds.generator(params.seed, seeds.STREAM_CASCADE)
    leaked = 0

    if params.initial_block is None:
        # the sacrificial sample is 10% of the strings
        m = max(1, math.ceil(0.1 * n))
        sample = rng.choice(n, size=m, replace=False)
        p_est = float(np.mean(a_bits[sample] != b_work[sample]))
        leaked += m
        transcript.extend(sample[i : i + 1] for i in range(m))
        block = n if p_est == 0.0 else min(n, math.ceil(0.73 / p_est))
    else:
        block = min(n, params.initial_block)

    # per pass: permutation, its blocks (position arrays), and position->block map
    pass_blocks = []
    block_of = []

    def backtrack(flipped, skip):
        nonlocal leaked
        # blocks whose parity state toggled; re-search smallest first
        heap = []
        seen = set()

        def push_containing(pos, skip_key):
            for p_idx in range(len(pass_blocks)):
                key = (p_idx, int(block_of[p_idx][pos]))
                if key == skip_key or key in seen:
                    continue
                blk = pass_blocks[p_idx][key[1]]
                if _parity_mismatch(a_bits, b_work, blk):
                    seen.add(key)
                    heapq.heappush(heap, (blk.size, key[0], key[1]))

        push_containing(flipped, skip)
        while heap:
            _, p_idx, b_idx = heapq.heappop(heap)
            seen.discard((p_idx, b_idx))
            blk = pass_blocks[p_idx][b_idx]
            if not _parity_mismatch(a_bits, b_work, blk):
                continue  # an earlier correction already evened this block
            pos, revealed = _binary_search(a_bits, b_work, blk, transcript)
            leaked += revealed
            b_work[pos] ^= 1
            push_containing(pos, (p_idx, b_idx))

    for pass_idx in range(params.passes):
        perm = rng.permutation(n)
        size = min(n, block * (1 << pass_idx))
        blocks = [perm[i : i + size] for i in range(0, n, size)]
        pass_blocks.append(blocks)
        inv = np.empty(n, dtype=np.int64)
        inv[perm] = np.arange(n)
        block_of.append(inv // size)

        for b_idx, blk in enumerate(blocks):
            leaked += 1  # top-level block parity reveal
            transcript.append(blk)
            if not _parity_mismatch(a_bits, b_work, blk):
                continue
            pos, revealed = _binary_search(a_bits, b_work, blk, transcript)
            leaked += revealed
            b_work[pos] ^= 1
            backtrack(pos, (pass_idx, b_idx))

    return BitString(bits=b_work.astype(np.uint8)), leaked


@st.composite
def cascade_cases(draw):
    n = draw(st.integers(1, 700))
    p = draw(st.floats(0.0, 0.45))
    passes = draw(st.integers(1, 6))
    initial_block = draw(st.none() | st.integers(1, n + 4))
    seed = draw(st.integers(0, 2**31))
    r = rng(seed)
    a = BitString(bits=r.integers(0, 2, n, dtype=np.uint8))
    b = BitString(bits=a.bits ^ (r.random(n) < p).astype(np.uint8))
    return a, b, CascadeParams(passes=passes, initial_block=initial_block, seed=seed)


class TestCascade:
    def test_equal_strings_still_leak(self):
        a = random_bits(64, 8)
        corrected, leaked = cascade(a, a, CascadeParams(initial_block=8))
        assert corrected.equals(a)
        assert leaked > 0

    def test_single_flip_all_positions_oracle(self):
        # brute-force oracle: every error position in an 8-bit string is
        # corrected by one pass with block 4, leaking exactly 2 block
        # parities plus the 2 halvings of the odd block
        a = BitString([1, 0, 1, 1, 0, 0, 1, 0])
        for pos in range(8):
            flipped = a.bits.copy()
            flipped[pos] ^= 1
            b = BitString(bits=flipped)
            a_before, b_before = a.bits.copy(), b.bits.copy()
            corrected, leaked = cascade(a, b, CascadeParams(passes=1, initial_block=4, seed=3))
            assert corrected.equals(a), f"error position {pos} not corrected"
            assert leaked == 2 + 2
            assert np.array_equal(a.bits, a_before) and np.array_equal(b.bits, b_before)

    @pytest.mark.slow
    def test_ten_percent_error_rate_bulk(self):
        n = 4096
        failures = 0
        fractions = []
        for trial in range(100):
            r = rng(1000 + trial)
            a = BitString(bits=r.integers(0, 2, n, dtype=np.uint8))
            flips = r.random(n) < 0.10
            b = BitString(bits=a.bits ^ flips.astype(np.uint8))
            corrected, leaked = cascade(a, b, CascadeParams(seed=trial))
            if not corrected.equals(a):
                failures += 1
            fractions.append(leaked / n)
        assert failures <= 1
        assert 0.45 <= float(np.mean(fractions)) <= 0.70

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31), st.integers(16, 200), st.floats(0.0, 0.3))
    def test_never_increases_mismatch(self, seed, n, p):
        r = rng(seed)
        a = BitString(bits=r.integers(0, 2, n, dtype=np.uint8))
        flips = (r.random(n) < p).astype(np.uint8)
        b = BitString(bits=a.bits ^ flips)
        corrected, _ = cascade(a, b, CascadeParams(passes=2, seed=seed))
        assert bar(a, corrected) >= bar(a, b)

    def test_transcript_accounting_exact(self):
        # replay the protocol and count its transcript: the sacrificial
        # sample, one parity per top-level block and one per halving; once
        # with explicit block sizing and once auto-sized from the sample
        n = 256
        r = rng(77)
        a = BitString(bits=r.integers(0, 2, n, dtype=np.uint8))
        flips = (r.random(n) < 0.05).astype(np.uint8)
        b = BitString(bits=a.bits ^ flips)
        for initial_block in (16, None):
            params = CascadeParams(passes=3, initial_block=initial_block, seed=5)
            transcript = []
            _reference_cascade(a, b, params, transcript)
            _, leaked = cascade(a, b, params)
            assert leaked == len(transcript), f"initial_block={initial_block}"

    @settings(max_examples=300, deadline=None)
    @given(cascade_cases())
    def test_matches_reference(self, case):
        a, b, params = case
        corrected, leaked = cascade(a, b, params)
        expected, expected_leaked = _reference_cascade(a, b, params)
        assert leaked == expected_leaked
        assert np.array_equal(corrected.bits, expected.bits)

    @pytest.mark.parametrize(
        "n, p, passes, initial_block",
        [(4096, p, 4, None) for p in (0.02, 0.05, 0.10, 0.15)]
        + [
            (4096, 0.05, 4, 1),  # every first-pass block is one bit
            (4097, 0.05, 4, 64),  # the last first-pass block is one bit
            (4096, 0.10, 1, None),  # the first pass alone
            (4096, 0.0, 4, 64),  # no block is odd
            (20_000, 0.10, 4, None),
        ],
    )
    def test_first_pass_matches_reference(self, n, p, passes, initial_block):
        # the first pass searches all its odd blocks at once; the reference
        # searches them one by one
        seed = 11
        r = rng(seed)
        a = BitString(bits=r.integers(0, 2, n, dtype=np.uint8))
        flips = (r.random(n) < p).astype(np.uint8)
        if initial_block and n % initial_block == 1:
            # make the one-bit last block odd: it ends the first permutation
            flips[seeds.generator(seed, seeds.STREAM_CASCADE).permutation(n)[-1]] ^= 1
        b = BitString(bits=a.bits ^ flips)
        params = CascadeParams(passes=passes, initial_block=initial_block, seed=seed)
        transcript = []
        expected, expected_leaked = _reference_cascade(a, b, params, transcript)
        corrected, leaked = cascade(a, b, params)
        assert leaked == expected_leaked == len(transcript)
        assert np.array_equal(corrected.bits, expected.bits)


# (n, m, all_ones): small sizes at a range of key lengths, and the pooled
# bits of a fig3 virtual point (21,000) and a fig4 multires point (50,000);
# an all-ones input makes every product entry, and the FFT's rounding
# error, as large as it gets
_AMPLIFY_CASES = [
    (n, m, False) for n in (1, 2, 7, 64, 127, 1024, 4093) for m in sorted({1, (n + 2) // 3, max(1, n - 1), n})
] + [(21000, 16355, False), (50000, 25193, False), (50000, 25193, True)]


class TestPrivacyAmplify:
    @pytest.mark.parametrize("n, m, all_ones", _AMPLIFY_CASES)
    def test_fft_product_equals_convolution(self, n, m, all_ones):
        raw = BitString(bits=np.ones(n, dtype=np.uint8)) if all_ones else random_bits(n, n + m)
        out = privacy_amplify(raw, leaked_bits=n - m, safety_margin=0, seed=m)
        diagonals = seeds.generator(m, seeds.STREAM_AMPLIFY).integers(0, 2, size=m + n - 1, dtype=np.int64)
        assert np.array_equal(out.key.bits, toeplitz_hash(diagonals, raw.bits))

    def test_overleaked_empty_key(self):
        raw = random_bits(64, 9)
        out = privacy_amplify(raw, leaked_bits=64, safety_margin=8)
        assert len(out.key) == 0

    def test_deterministic(self):
        raw = random_bits(256, 10)
        k1 = privacy_amplify(raw, 50, 32, seed=4)
        k2 = privacy_amplify(raw, 50, 32, seed=4)
        assert k1.key.equals(k2.key)
        assert len(k1.key) == 256 - 50 - 32

    def test_seed_changes_key(self):
        raw = random_bits(256, 11)
        assert not privacy_amplify(raw, 50, 32, seed=1).key.equals(
            privacy_amplify(raw, 50, 32, seed=2).key
        )

    def test_output_uniformity(self):
        r = rng(12)
        trials = 10_000
        acc = np.zeros(64)
        for i in range(trials):
            raw = BitString(bits=r.integers(0, 2, 256, dtype=np.uint8))
            out = privacy_amplify(raw, leaked_bits=256 - 64 - 32, safety_margin=32, seed=13)
            acc += out.key.bits
        freq = acc / trials
        assert np.all(np.abs(freq - 0.5) < 0.02)


class TestKeyEntropyRate:
    def test_identical_rows_rate_one(self):
        r = rng(14)
        row = r.standard_normal(5000)
        samples = np.tile(row, (4, 1))
        ker = key_entropy_rate(samples, QuantizerConfig(levels=8))
        assert ker == pytest.approx(1.0, abs=1e-12)

    def test_single_row_rate_one(self):
        r = rng(15)
        samples = r.standard_normal((1, 4000))
        assert key_entropy_rate(samples, QuantizerConfig(levels=8)) == pytest.approx(1.0, abs=1e-12)

    def test_iid_uniform_rows_rate_p(self):
        # synthetic oracle: 5 independent uniform 4-level rows; the plug-in
        # estimator at T=1e5 sits within 0.1 of the analytic value 5
        r = rng(16)
        levels = 4
        cells = r.integers(0, levels, size=(5, 100_000))
        samples = (cells + 0.5) / levels
        ker = key_entropy_rate(samples, QuantizerConfig(levels=4, lo=0.0, hi=1.0))
        assert abs(ker - 5.0) < 0.1

    def test_bounds(self):
        r = rng(17)
        samples = r.standard_normal((3, 3000))
        samples[1] = samples[0] * 0.5 + 0.1 * r.standard_normal(3000)
        ker = key_entropy_rate(samples, QuantizerConfig(levels=8))
        assert 1.0 <= ker <= 3.0

    def test_too_few_trials(self):
        with pytest.raises(InsufficientSamplesError):
            key_entropy_rate(np.zeros((2, 100)), QuantizerConfig(levels=4))

    def test_constant_input_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            key_entropy_rate(np.ones((2, 3000)), QuantizerConfig(levels=4))


def reference_calibrated_cells(samples, levels, lo=None, hi=None):
    """The per-row cell loop that one broadcast pass replaced."""
    cells = np.empty(samples.shape, dtype=np.int64)
    if lo is not None and hi is not None:
        bounds = np.broadcast_to(np.array([[lo], [hi]], dtype=float), (2, len(samples)))
    else:
        bounds = np.percentile(samples, [1.0, 99.0], axis=1)
    for i, (row, row_lo, row_hi) in enumerate(zip(samples, *bounds)):
        cells[i] = cell_indices(row, levels, float(row_lo), float(row_hi)) if row_lo < row_hi else 0
    return cells


def reference_key_entropy_rate(samples, cfg):
    """``key_entropy_rate`` as it was: per-row cells and one bincount per stream."""
    P = samples.shape[0]
    cells = reference_calibrated_cells(samples, cfg.levels, cfg.lo, cfg.hi)
    singles = np.array([_plugin_entropy_bits(np.bincount(cells[i])) for i in range(P)])
    mean_single = float(singles.mean())
    if mean_single <= 0.0:
        raise ValueError("degenerate input: zero single-probe entropy")
    weights = cfg.levels ** np.arange(P, dtype=object)
    joint = (cells * np.asarray(weights, dtype=np.int64)[:, None]).sum(axis=0)
    _, joint_counts = np.unique(joint, return_counts=True)
    return _plugin_entropy_bits(joint_counts) / mean_single


class TestCalibrationRange:
    """The sorted-row percentiles against ``np.percentile``, bit for bit."""

    @staticmethod
    def assert_same_bits(got, ref):
        assert got.shape == ref.shape
        same = got.view(np.uint64) == ref.view(np.uint64)
        # np.sort and the partition of np.percentile may order a tied 0.0 and
        # -0.0 differently, so a zero may come out with either sign
        assert (same | ((got == 0.0) & (ref == 0.0))).all()

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.integers(1, 6),
        cols=st.one_of(st.integers(1, 2), st.integers(1, 3000)),
        distinct=st.sampled_from([None, 1, 2, 5]),
        specials=st.lists(st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]), max_size=5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_numpy_percentile(self, rows, cols, distinct, specials, seed):
        r = rng(seed)
        x = r.standard_normal((rows, cols)) * 10.0
        if distinct is not None:
            # few distinct values: ties at and around the percentile indices
            x = r.choice(np.array([-0.0, 0.0, 1.5, -2.0, 7.25])[:distinct], size=(rows, cols))
        for value in specials:
            x[r.integers(rows), r.integers(cols)] = value
        with np.errstate(invalid="ignore"):
            lo, hi = _calibration_range(x)
            self.assert_same_bits(np.stack((lo, hi)), np.percentile(x, (1.0, 99.0), axis=-1))
            # QuantizerConfig.calibrated pools its samples into one row
            pooled = np.stack(_calibration_range(x.ravel()))
            self.assert_same_bits(pooled, np.percentile(x, (1.0, 99.0)))
        nan_rows = np.isnan(x).any(axis=-1)
        assert np.isnan(lo[nan_rows]).all() and np.isnan(hi[nan_rows]).all()


class TestEntropyRateMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(
        levels=st.sampled_from([2, 4, 8, 16]),
        streams=st.integers(1, 6),
        trials=st.integers(1, 600),
        explicit=st.booleans(),
        constant=st.sampled_from([None, 0.0, 2.5]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_cells_and_rate_equal_reference(self, levels, streams, trials, explicit, constant, seed):
        r = rng(seed)
        samples = r.standard_normal((streams, trials)) * r.uniform(0.1, 30.0, (streams, 1))
        samples += r.uniform(-5.0, 5.0, (streams, 1))
        if constant is not None:
            # a centred constant row is all zeros: a zero-width range at 0
            samples[r.integers(streams)] = constant
        # an explicit range, sometimes empty or inverted: the cells map it to
        # cell 0, and QuantizerConfig refuses it
        lo, hi = (r.uniform(-10.0, 10.0, 2) if explicit else (None, None))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cells = _calibrated_cells(samples, levels, lo, hi)
        assert np.array_equal(cells, reference_calibrated_cells(samples, levels, lo, hi))
        if explicit and not lo < hi:
            with pytest.raises(ValueError, match="degenerate"):
                QuantizerConfig(levels=levels, lo=lo, hi=hi)
            return
        cfg = QuantizerConfig(levels=levels, lo=lo, hi=hi)
        try:
            expected = reference_key_entropy_rate(samples, cfg)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                key_entropy_rate(samples, cfg, min_trials=1)
        else:
            assert key_entropy_rate(samples, cfg, min_trials=1) == expected

    def test_nan_row_maps_to_zero_quietly(self):
        # a NaN row has a NaN percentile range, which is degenerate: cell 0,
        # with no warning from the division or the cast beside the other rows
        samples = rng(3).standard_normal((3, 50))
        samples[1] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cells = _calibrated_cells(samples, 8)
        assert not cells[1].any()
        assert np.array_equal(cells[[0, 2]], reference_calibrated_cells(samples[[0, 2]], 8))


class TestBitPlumbing:
    def test_pack_indices_msb_first(self):
        out = pack_indices([5], 4)
        assert list(out.bits) == [0, 1, 0, 1]

    def test_gray_encode(self):
        out = gray_encode_indices([2], 2)  # gray(2) = 3
        assert list(out.bits) == [1, 1]

    def test_width_overflow_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            pack_indices([16], 4)

    def test_bitstring_validates(self):
        with pytest.raises(ValueError, match="0 or 1"):
            BitString(bits=np.array([0, 2], dtype=np.uint8))

    def test_bitstring_owns_readonly_copy(self):
        src = np.array([0, 1, 1, 0], dtype=np.uint8)
        bs = BitString(bits=src)
        assert not np.shares_memory(bs.bits, src)
        assert not bs.bits.flags.writeable
