"""Counter-based seed derivation for reproducible Monte-Carlo streams.

Every random draw in the library comes from a ``numpy.random.Generator``
derived here.  A stream is addressed by ``(master_seed, *labels)`` where the
labels are small integers (stream tags, case indices, trial indices).  The
derivation uses ``numpy.random.SeedSequence`` hashing, which is documented by
numpy to be stable across platforms and releases, so the same config always
reproduces the same tables regardless of execution order or worker count.

``derive_seeds`` and ``stream_lanes`` are the same derivation for many
addresses at once.  They rerun ``SeedSequence``'s hash on uint32 arrays, and
``stream_lanes`` reruns ``PCG64``'s seeding on 128-bit values held as (hi,
lo) pairs of uint64 arrays.  ``raw_outputs`` steps those lanes, so a stream
that only gives raw outputs needs no ``Generator`` at all;
``stream_states`` turns them into ints, so a stream that feeds numpy's
samplers costs one ``bit_generator.state`` assignment.
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
_MASK64 = (1 << 64) - 1


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


# 128-bit values are (hi, lo) pairs of u64 arrays, broadcast against each
# other; u64 array arithmetic wraps mod 2**64, which the carries account for


def _as_pair(values) -> tuple[np.ndarray, np.ndarray]:
    """Python ints in [0, 2**128) as a (hi, lo) pair of u64 arrays."""
    return np.array([v >> 64 for v in values], np.uint64), np.array([v & _MASK64 for v in values], np.uint64)


def _mulhi(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The high word of each 128-bit product of u64 words ``a * b``, from 32-bit partial products."""
    a0, a1 = a & _MASK32, a >> 32
    b0, b1 = b & _MASK32, b >> 32
    # each sum stays below 2**64: a 32 x 32-bit product plus a 32-bit carry
    t = a1 * b0 + ((a0 * b0) >> 32)
    w = a0 * b1 + (t & _MASK32)
    return a1 * b1 + (t >> 32) + (w >> 32)


def _mul(x: tuple, y: tuple) -> tuple[np.ndarray, np.ndarray]:
    """``x * y mod 2**128`` on (hi, lo) pairs."""
    return _mulhi(x[1], y[1]) + x[1] * y[0] + x[0] * y[1], x[1] * y[1]


def _add(x: tuple, y: tuple) -> tuple[np.ndarray, np.ndarray]:
    """``x + y mod 2**128`` on (hi, lo) pairs; the low words carry when their sum wraps."""
    lo = x[1] + y[1]
    return x[0] + y[0] + (lo < y[1]), lo


_MULT = _as_pair([_PCG64_MULT])


def stream_lanes(addresses) -> np.ndarray:
    """The seeded PCG64 state and increment of ``generator(*row)`` for each row of an (n, k) u64 array.

    Row ``i`` of the (n, 4) u64 result is (state hi, state lo, inc hi, inc
    lo) for address ``i``.  This is ``pcg64_set_seed`` on the four words
    ``SeedSequence`` gives: the first two are the seed, the last two
    ``initseq``; ``inc = 2 * initseq + 1`` and ``state = step(step(0) +
    seed)``, where one step is ``state * MULT + inc``.
    """
    seed_hi, seed_lo, init_hi, init_lo = _generate_state(_pools(addresses), 8).T
    inc = ((init_hi << 1) | (init_lo >> 63), (init_lo << 1) | 1)
    return np.column_stack(_add(_mul(_add(inc, (seed_hi, seed_lo)), _MULT), inc) + inc)


def stream_states(lanes: np.ndarray) -> tuple[list[int], list[int]]:
    """The ``state`` and ``inc`` ints of each row of :func:`stream_lanes`.

    Set as the two ints under ``"state"`` in a ``bit_generator.state``
    mapping of a ``PCG64`` (as :func:`generator_states` does), a row's pair
    makes its ``Generator`` draw exactly what the addressed stream draws.
    """
    words = lanes.T.astype(object)
    return ((words[0] << 64) | words[1]).tolist(), ((words[2] << 64) | words[3]).tolist()


def generator_states(addresses) -> list[dict]:
    """The ``bit_generator.state`` of ``generator(*row)`` for each row of an (n, k) u64 array."""
    return [
        {"bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0}
        for state, inc in zip(*stream_states(stream_lanes(addresses)))
    ]


def raw_outputs(lanes: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` outputs of each stream of :func:`stream_lanes`, as an (n, count) u64 array.

    Row ``i`` is ``generator(*addresses[i]).bit_generator.random_raw(count)``:
    each output steps the state once and gives its XSL-RR output, the xor
    of its two words rotated right by its top 6 bits.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    state, inc = (lanes[:, 0], lanes[:, 1]), (lanes[:, 2], lanes[:, 3])
    out = np.empty((len(lanes), count), np.uint64)
    for k in range(count):
        state = _add(_mul(state, _MULT), inc)
        rot = state[0] >> 58
        word = state[0] ^ state[1]
        out[:, k] = (word >> rot) | (word << ((64 - rot) & 63))
    return out


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
    if 2 * raw.shape[-1] < count:
        raise ValueError(f"{count} values take {(count + 1) // 2} raw outputs per stream, got {raw.shape[-1]}")
    words = np.stack((raw & np.uint64(_MASK32), raw >> np.uint64(32)), axis=-1)
    words = words.reshape(raw.shape[:-1] + (-1,))[..., :count]
    return ((words * np.uint64(high)) >> np.uint64(32)).astype(np.int64)
