"""Bidirectional pilot exchange over a reciprocal channel.

Receive combining uses the transpose pairing ``y = w_rx^T H f_tx``, which
makes noiseless reciprocity an algebraic identity: when each party reuses
one weight vector for transmit and receive, the forward and reverse
noiseless observations are the same number, and all disagreement comes
from receiver noise.  Here both directions read one computed array, so the
identity also holds exactly in floating point.

One call probes K beam pairs in each of T coherence blocks.  The channel's
rays, and so their array responses, are fixed over the blocks; their gains
are given per block, as the AR(1) steps of :mod:`mmkeygen.channel` give
them.
"""

from __future__ import annotations

import numpy as np

from .channel import _noise_sigma


def bidirectional_probe(
    w_a: np.ndarray,
    w_b: np.ndarray,
    a_tx: np.ndarray,
    a_rx: np.ndarray,
    gains: np.ndarray,
    snr_db: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Probe K beam pairs over T blocks, Alice->Bob then Bob->Alice: ``(y_at_bob, y_at_alice)``, each (T, K).

    Pair k is Alice's beam ``w_a[k]`` (K, Nt) against Bob's ``w_b[k]``
    (K, Nr), each used to transmit and to receive.  ``a_tx`` (L, Nt) and
    ``a_rx`` (L, Nr) are the rays' responses at Alice's and Bob's arrays,
    and ``gains`` (T, L) their gains in each block; the channel of block t
    (:func:`mmkeygen.channel.channel_matrix`) maps Alice's array to Bob's,
    and the reverse link is its transpose.  The noise is one draw of
    (T, K, 2, 2) normals, ordered block, pair, (Bob, Alice), (re, im), so
    streams are reproducible.
    """
    w_a, w_b, gains = np.asarray(w_a), np.asarray(w_b), np.asarray(gains)
    K, L, Nt, Nr = len(w_a), len(a_tx), a_tx.shape[1], a_rx.shape[1]
    if w_a.shape != (K, Nt) or w_b.shape != (K, Nr) or gains.shape[1:] != (L,) or len(a_rx) != L:
        raise ValueError(
            f"dimension mismatch: beams {w_a.shape} and {w_b.shape}, gains {gains.shape}, responses "
            f"{a_tx.shape} and {a_rx.shape}; want (K, {Nt}), (K, {Nr}), (T, {L}) and ({L}, N) each"
        )
    scale = np.sqrt(Nt * Nr / L)
    # each pair's coefficient on each path, the same in both directions
    clean = scale * gains @ ((w_b @ a_rx.T) * (w_a @ a_tx.T)).T
    sigma = _noise_sigma(snr_db)
    # each (re, im) pair read in place as one complex: (T, K, (Bob, Alice))
    y = rng.standard_normal((len(gains), K, 2, 2)).view(complex)[..., 0]
    y *= sigma
    y += clean[..., None]
    return y[..., 0], y[..., 1]
