"""Bidirectional pilot exchange over a reciprocal channel.

Receive combining uses the transpose pairing ``y = w_rx^T H f_tx``, which
makes noiseless reciprocity an algebraic identity: when each party reuses
one weight vector for transmit and receive, the forward and reverse
noiseless observations are the same number, and all disagreement comes
from receiver noise.  Here both directions read one computed array, so the
identity also holds exactly in floating point.

One call probes K beam pairs in each of T coherence blocks.  The channel's
angles are fixed over the blocks and its path gains are given per block,
as :func:`mmkeygen.channel.evolve` returns them.
"""

from __future__ import annotations

import numpy as np

from .channel import ChannelRealization, response_matrices


def bidirectional_probe(
    w_a: np.ndarray,
    w_b: np.ndarray,
    ch: ChannelRealization,
    gains: np.ndarray,
    snr_db: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Probe K beam pairs over T blocks, Alice->Bob then Bob->Alice: ``(y_at_bob, y_at_alice)``, each (T, K).

    Pair k is Alice's beam ``w_a[k]`` (K, Nt) against Bob's ``w_b[k]``
    (K, Nr), each used to transmit and to receive.  ``gains`` (T, L) are
    the path gains of ``ch`` in each block; the channel of block t maps
    Alice's array to Bob's, and the reverse link is its transpose.  The
    noise is one draw of (T, K, 2, 2) normals, ordered block, pair,
    (Bob, Alice), (re, im), so streams are reproducible.
    """
    w_a, w_b, gains = np.asarray(w_a), np.asarray(w_b), np.asarray(gains)
    K = len(w_a)
    if w_a.shape != (K, ch.tx_geom.size) or w_b.shape != (K, ch.rx_geom.size) or gains.shape[1:] != (ch.num_paths,):
        raise ValueError(
            f"dimension mismatch: beams {w_a.shape} and {w_b.shape}, gains {gains.shape}; want "
            f"(K, {ch.tx_geom.size}), (K, {ch.rx_geom.size}) and (T, {ch.num_paths})"
        )
    a_rx, a_tx = response_matrices(ch)
    scale = np.sqrt(ch.tx_geom.size * ch.rx_geom.size / ch.num_paths)
    # each pair's coefficient on each path, the same in both directions
    clean = scale * gains @ ((w_b @ a_rx) * (w_a @ a_tx)).T
    sigma = np.sqrt(10.0 ** (-snr_db / 10.0) / 2.0)
    # each (re, im) pair read in place as one complex: (T, K, (Bob, Alice))
    y = rng.standard_normal((len(gains), K, 2, 2)).view(complex)[..., 0]
    y *= sigma
    y += clean[..., None]
    return y[..., 0], y[..., 1]
