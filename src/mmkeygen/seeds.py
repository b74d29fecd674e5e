"""Counter-based seed derivation for reproducible Monte-Carlo streams.

Every random draw in the library comes from a ``numpy.random.Generator``
derived here.  A stream is addressed by ``(master_seed, *labels)`` where the
labels are small integers (stream tags, case indices, trial indices).  The
derivation uses ``numpy.random.SeedSequence`` hashing, which is documented by
numpy to be stable across platforms and releases, so the same config always
reproduces the same tables regardless of execution order or worker count.

``derive_seeds`` and ``generator_states`` are the same derivation for many
addresses at once: they rerun ``SeedSequence``'s hash on uint32 arrays and
``PCG64``'s seeding on Python integers, so a batch of streams costs a few
array operations plus one ``bit_generator.state`` assignment per stream
instead of one ``SeedSequence`` and one ``Generator`` per stream.
"""

from __future__ import annotations

import numpy as np

# Stream tags.  These are part of the reproducibility contract: changing a
# value changes every derived stream, so new tags must be appended, never
# renumbered.
STREAM_CHANNEL = 1
STREAM_EVOLVE = 2
STREAM_NOISE_ALICE = 3
STREAM_NOISE_BOB = 4
STREAM_NOISE_EVE = 5
STREAM_PERTURB_ALICE = 6
STREAM_PERTURB_BOB = 7
STREAM_EVE_GUESS = 8
STREAM_CASCADE = 9
STREAM_AMPLIFY = 10
STREAM_TRIAL = 11
STREAM_BENCH_DATA = 12


def generator(master_seed: int, *labels: int) -> np.random.Generator:
    """Generator for the stream addressed by ``(master_seed, *labels)``; the cheaper path for a single stream."""
    if master_seed < 0 or master_seed > 0xFFFFFFFFFFFFFFFF:
        raise ValueError(f"master_seed must be an unsigned 64-bit integer, got {master_seed}")
    return np.random.default_rng(np.random.SeedSequence(entropy=[int(master_seed), *[int(x) for x in labels]]))


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx); all words uint32
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF
# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    """The hash constant of each of ``count`` successive hash steps (and of the step after)."""
    consts = [init]
    for _ in range(count):
        consts.append((consts[-1] * mult) & _MASK32)
    return np.array(consts, dtype=np.uint32)


def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """numpy's ``hashmix``, one step per entry of ``consts[:-1]``; ``values`` broadcast against the steps.

    Step ``i`` xors with ``consts[i]`` and multiplies by ``consts[i + 1]``,
    the constant numpy's ``hash_const`` has advanced to.
    """
    value = (values ^ consts[:-1]) * consts[1:]
    return value ^ (value >> _XSHIFT)


def _mix_entropy(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence.mix_entropy`` over rows of equally many uint32 words.

    numpy advances one hash constant per ``hashmix`` call whatever the data,
    so the calls that do not depend on each other run as one array step.
    """
    n, length = entropy.shape
    if length < _POOL_SIZE:
        # numpy runs the pool out with hashmix(0), which is hashing a zero word
        entropy = np.concatenate([entropy, np.zeros((n, _POOL_SIZE - length), np.uint32)], axis=1)
    others = _POOL_SIZE - 1
    extra = entropy.shape[1] - _POOL_SIZE
    consts = _hash_consts(_INIT_A, _MULT_A, _POOL_SIZE * (1 + others + extra))

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = x * _MIX_MULT_L - y * _MIX_MULT_R
        return result ^ (result >> _XSHIFT)

    pool = _hashmix(entropy[:, :_POOL_SIZE], consts[: _POOL_SIZE + 1])
    step = _POOL_SIZE
    # mix all words together so late words can affect earlier ones; a source
    # word is hashed once for each other word, which it does not change
    for src in range(_POOL_SIZE):
        dst = [i for i in range(_POOL_SIZE) if i != src]
        pool[:, dst] = mix(pool[:, dst], _hashmix(pool[:, src : src + 1], consts[step : step + others + 1]))
        step += others
    # entropy past the pool size mixes each word into every pool word
    for src in range(_POOL_SIZE, entropy.shape[1]):
        pool = mix(pool, _hashmix(entropy[:, src : src + 1], consts[step : step + _POOL_SIZE + 1]))
        step += _POOL_SIZE
    return pool


def _pools(addresses) -> np.ndarray:
    """The entropy pool of ``SeedSequence(row)`` for each row of an (n, k) u64 array."""
    a = np.asarray(addresses, dtype=np.uint64)
    if a.ndim != 2 or a.shape[1] < 1:
        raise ValueError(f"addresses must be an (n, k) array with k >= 1, got shape {a.shape}")
    n, k = a.shape
    # SeedSequence splits each value into little-endian uint32 words and
    # keeps the high word only when it is nonzero, so a row's word count
    # depends on its values; rows are hashed in groups of equal count
    high = a >> np.uint64(32)
    words = np.stack([a & np.uint64(_MASK32), high], axis=-1).astype(np.uint32).reshape(n, 2 * k)
    present = np.stack([np.ones_like(high, dtype=bool), high != 0], axis=-1).reshape(n, 2 * k)
    counts = present.sum(axis=1)
    pools = np.empty((n, _POOL_SIZE), dtype=np.uint32)
    for count in set(counts.tolist()):
        rows = counts == count
        pools[rows] = _mix_entropy(words[rows][present[rows]].reshape(-1, count))
    return pools


def _generate_state(pools: np.ndarray, n_words: int) -> np.ndarray:
    """``SeedSequence.generate_state(n_words // 2, np.uint64)`` for each pool row."""
    words = _hashmix(pools[:, np.arange(n_words) % _POOL_SIZE], _hash_consts(_INIT_B, _MULT_B, n_words))
    # consecutive words pair up little-endian into u64 values
    return np.ascontiguousarray(words, dtype="<u4").view("<u8").astype(np.uint64)


def derive_seeds(addresses) -> np.ndarray:
    """The u64 seed of a nested session (a trial) at each row of an (n, k) u64 array, from ``SeedSequence(row)``."""
    return _generate_state(_pools(addresses), 2)[:, 0]


def generator_states(addresses) -> list[dict]:
    """The ``bit_generator.state`` of ``generator(*row)`` for each row of an (n, k) u64 array.

    Assigning one of these to the ``bit_generator.state`` of any ``PCG64``
    makes its ``Generator`` draw exactly what the addressed stream draws.
    """
    states = []
    for seed_hi, seed_lo, inc_hi, inc_lo in _generate_state(_pools(addresses), 8).tolist():
        # pcg64_set_seed: state = step(step(0) + seed), inc = 2 * initseq + 1
        inc = ((((inc_hi << 64) | inc_lo) << 1) | 1) & _MASK128
        state = ((inc + ((seed_hi << 64) | seed_lo)) * _PCG64_MULT + inc) & _MASK128
        states.append(
            {"bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0}
        )
    return states


def integers_from_raw(raw: np.ndarray, high: int, count: int) -> np.ndarray:
    """``Generator.integers(0, high, size=count)`` from the PCG64 outputs it consumes.

    ``raw`` holds, on its last axis, the first ``ceil(count / 2)`` outputs
    (``bit_generator.random_raw``) of freshly seeded streams.  ``high`` must
    be a power of two no larger than 2**32: numpy then takes one 32-bit word
    per value, the low half of each output before its high half, and
    Lemire's method reduces it to its top bits without ever rejecting it.
    """
    if high < 1 or high > 1 << 32 or high & (high - 1):
        raise ValueError(f"high must be a power of two in [1, 2**32], got {high}")
    raw = np.asarray(raw, dtype=np.uint64)
    words = np.stack((raw & np.uint64(_MASK32), raw >> np.uint64(32)), axis=-1)
    words = words.reshape(raw.shape[:-1] + (-1,))[..., :count]
    return ((words * np.uint64(high)) >> np.uint64(32)).astype(np.int64)
