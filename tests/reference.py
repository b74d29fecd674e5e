"""Reference computations that the tests compare the library against.

Each is the plain, one-at-a-time form of something the library computes
another way, so it lives with the tests rather than in the package.
"""

import numpy as np


def dft_matrix(n):
    """Unitary n x n DFT matrix (j, k) = exp(-2i*pi*j*k/n)/sqrt(n), the basis ``virtual_channel`` transforms by."""
    if n < 1:
        raise ValueError(f"invalid DFT size {n}")
    k = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(k, k) / n) / np.sqrt(n)


def derive_seed(master_seed, *labels):
    """The u64 seed of the address ``(master_seed, *labels)``, from numpy's own ``SeedSequence``."""
    return int(np.random.SeedSequence([master_seed, *labels]).generate_state(1, dtype=np.uint64)[0])


def cell_indices(samples, levels, lo, hi):
    """Uniform-width cell index of each sample of one stream over [lo, hi], clamped at the edges."""
    if not lo < hi:
        raise ValueError(f"degenerate quantizer range [{lo}, {hi}]")
    arr = np.asarray(samples, dtype=float)
    idx = np.floor((arr - lo) / (hi - lo) * levels).astype(np.int64)
    return np.clip(idx, 0, levels - 1)


def toeplitz_hash(diagonals, bits):
    """Bits of the binary Toeplitz product ``privacy_amplify`` computes, by direct convolution.

    With ``n = len(bits)``, key bit ``i`` of the ``len(diagonals) - n + 1``
    is the parity of ``sum_j diagonals[i + n - 1 - j] * bits[j]``.
    """
    n = len(bits)
    m = len(diagonals) - n + 1
    conv = np.convolve(np.asarray(diagonals, dtype=np.int64), np.asarray(bits, dtype=np.int64))
    return (conv[n - 1 : n - 1 + m] & 1).astype(np.uint8)
