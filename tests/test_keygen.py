import heapq
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmkeygen import keygen, seeds
from mmkeygen.keygen import (
    BitString,
    CascadeParams,
    InsufficientSamplesError,
    QuantizerConfig,
    _calibrated_cells,
    _calibration_range,
    _entropy_rates,
    _gray_cells,
    _locate,
    bar,
    cascade,
    extract_randomness,
    key_entropy_rate,
    privacy_amplify,
)
from mmkeygen.schemes import _rate_and_stderr
from reference import calibrated_cells as reference_calibrated_cells
from reference import cell_indices, jackknife_rate, pack_indices, toeplitz_hash
from reference import key_entropy_rate as reference_key_entropy_rate


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
    """The quantizer's config, and the Gray-coded cells ``_gray_cells`` gives the baseline and multires keys."""

    def test_two_levels(self):
        assert _gray_cells(np.array([[0.1, 0.9]]), 2, 0.0, 1.0).tolist() == [[0, 1]]

    def test_sixteen_levels_four_bits_per_sample(self):
        cells = _gray_cells(rng(3).uniform(-1, 1, size=(1, 25)), 16, -1.0, 1.0)
        assert cells.shape == (1, 25) and 0 <= cells.min() and cells.max() < 2**4

    def test_gray_adjacent_cells_one_bit(self):
        for cell in range(15):
            a, b = _gray_cells(np.array([[cell + 0.5, cell + 1.5]]), 16, 0.0, 16.0)[0].tolist()
            assert (a ^ b).bit_count() == 1

    def test_levels_power_of_two_enforced(self):
        with pytest.raises(ValueError, match="power of two"):
            QuantizerConfig(levels=12)

    def test_levels_fit_int64_cells(self):
        # 2**63 cells used to wrap in the int64 cast, to wrong cells
        assert QuantizerConfig(levels=2**62).levels == 2**62
        with pytest.raises(ValueError, match="exceeds 2\\*\\*62"):
            QuantizerConfig(levels=2**63)

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

    def test_gray_cells_equal_one_stream_formula(self):
        x = rng(4).uniform(-3.0, 4.0, 500)
        idx = cell_indices(x, 8, -1.5, 2.5)
        assert np.array_equal(_gray_cells(x[None], 8, -1.5, 2.5)[0], idx ^ (idx >> 1))

    def test_unset_range_calibrates_each_row(self):
        samples = rng(5).standard_normal((3, 400)) * [[1.0], [4.0], [0.2]]
        idx = reference_calibrated_cells(samples, 4)
        assert np.array_equal(_gray_cells(samples, 4), idx ^ (idx >> 1))

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


class _CountingGenerator:
    """A generator that counts its ``permutation`` draws."""

    def __init__(self, rng):
        self._rng, self.permutations = rng, 0

    def permutation(self, n):
        self.permutations += 1
        return self._rng.permutation(n)

    def __getattr__(self, name):
        return getattr(self._rng, name)


def _skip_case(case):
    """(a, b, params) of a string whose errors are all gone after a known pass, or never."""
    if case == "even pair":
        # every pass is one block of all 64 bits, so two errors stay even
        a = random_bits(64, 4)
        flips = np.zeros(64, dtype=np.uint8)
        flips[[5, 40]] = 1
        return a, BitString(bits=a.bits ^ flips), CascadeParams(initial_block=64)
    if case.startswith("equal"):
        a = random_bits(256, 2)
        return a, a, CascadeParams(initial_block=8 if case.endswith("block 8") else None)
    # 12-28 errors at rate 0.08; with one-bit blocks the first pass finds every error
    seed = {"clean after pass 0": 2, "clean after pass 1": 7, "clean after pass 2": 0}[case]
    initial_block = 1 if case == "clean after pass 0" else None
    a, flips = random_bits(256, seed), (rng(seed).random(256) < 0.08).astype(np.uint8)
    return a, BitString(bits=a.bits ^ flips), CascadeParams(initial_block=initial_block, seed=seed)


class TestCascade:
    def test_equal_strings_still_leak(self):
        a = random_bits(64, 8)
        corrected, leaked = cascade(a, a, CascadeParams(initial_block=8))
        assert corrected.equals(a)
        assert leaked > 0
        assert type(leaked) is int

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
            assert type(leaked) is int  # the first pass found an odd block
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
            # the error rates a poor quantizer leaves, where back-tracking is
            # deepest, and more passes than there are distinct block sizes
            (4096, 0.25, 4, None),
            (4096, 0.45, 4, None),
            (300, 0.25, 12, None),
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
        assert type(leaked) is int
        assert leaked == expected_leaked == len(transcript)
        assert np.array_equal(corrected.bits, expected.bits)

    @pytest.mark.parametrize(
        "case, live",
        [
            ("equal", 0),
            ("equal, block 8", 0),
            ("clean after pass 0", 1),
            ("clean after pass 1", 2),
            ("clean after pass 2", 3),
            ("even pair", 4),
        ],
    )
    def test_error_free_passes_draw_nothing(self, monkeypatch, case, live):
        # a pass that begins with no error left reveals its top-level
        # parities and draws no permutation; the reference draws every pass
        a, b, params = _skip_case(case)
        transcript = []
        expected, expected_leaked = _reference_cascade(a, b, params, transcript)
        # the reference run of the first k passes leaves what pass k begins with
        began_with_error = [
            not (_reference_cascade(a, b, replace(params, passes=k))[0] if k else b).equals(a)
            for k in range(params.passes)
        ]
        assert sum(began_with_error) == live
        generator, made = seeds.generator, []

        def counting_generator(*address):
            made.append(_CountingGenerator(generator(*address)))
            return made[-1]

        monkeypatch.setattr(keygen.seeds, "generator", counting_generator)
        corrected, leaked = cascade(a, b, params)
        assert [g.permutations for g in made] == [live]
        assert np.array_equal(corrected.bits, expected.bits)
        assert leaked == expected_leaked == len(transcript)
        if not live:
            # the sacrificial sample, if any, and every pass's block count
            n = len(a)
            block = n if params.initial_block is None else params.initial_block
            sample = math.ceil(0.1 * n) if params.initial_block is None else 0
            assert leaked == sample + sum(-(-n // min(n, block << k)) for k in range(params.passes))

    def test_lone_error_search_equals_reference(self):
        # a lone error at each offset of each block length: the search finds
        # it after as many halvings as the reference search
        for length in range(1, 301):
            a = np.zeros(length, dtype=np.int64)
            positions = np.arange(length)
            for offset in range(length):
                b = a.copy()
                b[offset] = 1
                assert _locate(1 << offset, length) == _binary_search(a, b, positions, [])


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

    @pytest.mark.parametrize("n, m", [(1, 1), (2, 1), (7, 3), (64, 64), (300, 17), (1000, 999)])
    def test_reference_equals_convolution(self, n, m):
        # the GF(2) reference of the tests above, against np.convolve
        diagonals = rng(n + m).integers(0, 2, size=m + n - 1, dtype=np.int64)
        bits = random_bits(n, m).bits
        conv = np.convolve(diagonals, bits.astype(np.int64))
        assert np.array_equal(toeplitz_hash(diagonals, bits), conv[n - 1 : n - 1 + m] & 1)

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

    def test_nan_rejected(self):
        # a NaN has no place in the sort the counts are read off
        samples = rng(5).standard_normal((2, 3000))
        samples[1, 7] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            key_entropy_rate(samples, QuantizerConfig(levels=4))

    def test_inf_takes_an_end_cell(self):
        # clipped before the integer cast, so the cells rise with x: +inf and
        # a value past the int64 range take the top cell, without a warning
        cells = _calibrated_cells(np.array([[-np.inf, 0.2, 0.7, np.inf, 1e300]]), 4, 0.0, 1.0)
        assert cells.tolist() == [[0, 0, 2, 3, 3]]


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
            expected = reference_key_entropy_rate(samples, levels, lo, hi)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                key_entropy_rate(samples, cfg, min_trials=1)
        else:
            assert key_entropy_rate(samples, cfg, min_trials=1) == expected

    @pytest.mark.numpy_contract
    @pytest.mark.parametrize("levels", [4, 16])
    @pytest.mark.parametrize("blocks", [2, 3, 63, 64, 65, 127, 128, 129, 1985, 2003])
    def test_grid_end_on_and_off_the_step(self, blocks, levels):
        # the cells are first read every T // 64 blocks and at the last block,
        # T - 1, which falls on a step at 129 and 1985 blocks (steps of 2 and
        # 31) and off one at 128 and 2003; 2 and 3 blocks have one-block runs
        r = rng(blocks * levels)
        samples = r.standard_normal(blocks) + r.standard_normal((3, blocks)) * [[0.5], [1.0], [2.0]]
        sections = 10 if blocks >= 20 else 0
        rates = _entropy_rates(samples, levels, sections)
        edges = np.linspace(0, blocks, sections + 1, dtype=int)
        kept = [samples] + [np.delete(samples, np.s_[a:b], axis=1) for a, b in zip(edges[:-1], edges[1:])]
        expected = [reference_key_entropy_rate(k - k.mean(axis=-1, keepdims=True), levels) for k in kept]
        assert rates.tolist() == expected
        # below 2 blocks a section both stderrs are NaN, which assert_equal matches
        np.testing.assert_equal(_rate_and_stderr(samples, levels), jackknife_rate(samples, levels))
        cfg = QuantizerConfig(levels=levels)
        assert key_entropy_rate(samples, cfg, min_trials=0) == reference_key_entropy_rate(samples, levels)
        # a calibrated range clips the top percent into one cell; on a range
        # that spans an outlier, each stream's last sorted block starts a run
        samples[:, blocks // 2] = 20.0
        cfg = QuantizerConfig(levels=levels, lo=-20.0, hi=21.0)
        assert key_entropy_rate(samples, cfg, min_trials=0) == reference_key_entropy_rate(samples, levels, -20.0, 21.0)

    @pytest.mark.numpy_contract
    def test_zero_blocks_raise_before_any_array_work(self):
        # an empty stream has no mean and no grid end: refused up front,
        # without numpy's empty-slice warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InsufficientSamplesError):
                key_entropy_rate(np.empty((3, 0)), QuantizerConfig(levels=4), min_trials=0)
            with pytest.raises(InsufficientSamplesError):
                _entropy_rates(np.empty((2, 0)), 4, sections=10)

    @pytest.mark.numpy_contract
    def test_one_block_has_zero_single_entropy(self):
        with pytest.raises(ValueError, match="zero single-probe entropy"):
            key_entropy_rate(rng(2).standard_normal((3, 1)), QuantizerConfig(levels=4), min_trials=0)

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
    # pack_indices is the tests' reference for a record's key bits
    def test_pack_indices_msb_first(self):
        out = pack_indices([5], 4)
        assert list(out.bits) == [0, 1, 0, 1]

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
