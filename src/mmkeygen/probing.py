"""Bidirectional pilot exchange over a reciprocal channel.

Receive combining uses the transpose pairing ``y = w_rx^T H f_tx``, which
makes noiseless reciprocity an algebraic identity: when each party reuses
one weight vector for transmit and receive, the forward and reverse
noiseless observations are the same scalar, and all disagreement comes from
receiver noise.
"""

from __future__ import annotations

import numpy as np

from .channel import noise_like


def bidirectional_probe(
    w_a: np.ndarray,
    w_b: np.ndarray,
    H: np.ndarray,
    snr_db: float,
    rng: np.random.Generator,
) -> tuple[complex, complex]:
    """One probing round, Alice->Bob then Bob->Alice: ``(y_at_bob, y_at_alice)``.

    Each party transmits and receives on its one beam (``w_a``, ``w_b``).
    ``H`` maps Alice's array to Bob's; the reverse link is ``H^T``.  The
    noise is drawn at Bob, then at Alice, so streams are reproducible.
    """
    H = np.asarray(H)
    if H.shape != (w_b.size, w_a.size):
        raise ValueError(f"dimension mismatch: H is {H.shape}, want ({w_b.size}, {w_a.size})")
    forward = complex(w_b @ H @ w_a)
    reverse = complex(w_a @ H.T @ w_b)
    y_bob = forward + complex(noise_like(0j, snr_db, rng))
    y_alice = reverse + complex(noise_like(0j, snr_db, rng))
    return y_bob, y_alice
