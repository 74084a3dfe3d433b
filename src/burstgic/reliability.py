"""Per-codeword reliability thresholds.

A codeword splits into its interfered and clear stretches, priced at psi
and phi respectively; a message of eta bits per scaled-time unit decodes
reliably iff eta falls strictly below the resulting threshold.
covered_length is the one kernel for the interfered length, and
rate_bound turns covered lengths into thresholds. The per-layout split
(rate_decomp) and the case-by-case closed forms (closed_form_bound) are
the tests' independent routes and live in tests/oracles.py.
"""

from __future__ import annotations

import numpy as np

from burstgic.model import RatePair

__all__ = [
    "covered_length",
    "covered_lengths",
    "rate_bound",
]


def covered_length(j: int, mu, theta, nu, mu_o, theta_o, nu_o, N_o: int,
                   out, scratch):
    """Interfered length of codeword j, written into out.

    The codeword is [j*mu + nu, j*mu + nu + theta]; the other user's
    bursts are [m*mu_o + nu_o, m*mu_o + nu_o + theta_o], m = 1..N_o. The
    arguments broadcast to out's shape, and scratch is four arrays of that
    shape. Each burst's endpoints are formed in scratch when it is reached,
    and the overlaps accumulate burst by burst from +0.0, in the order of
    the per-layout oracle rate_decomp (tests/oracles.py). The caller owns
    every buffer: no array is allocated, and the memory does not depend
    on N_o.
    """
    lo, hi, over, left = scratch
    np.multiply(j, mu, out=lo)
    np.add(lo, nu, out=lo)
    np.add(lo, theta, out=hi)
    out.fill(0.0)
    for m in range(1, N_o + 1):
        np.multiply(m, mu_o, out=left)
        np.add(left, nu_o, out=left)
        np.add(left, theta_o, out=over)
        np.minimum(hi, over, out=over)
        np.maximum(lo, left, out=left)
        np.subtract(over, left, out=over)
        np.maximum(over, 0.0, out=over)
        np.add(out, over, out=out)
    return out


def covered_lengths(mu1, theta1, nu1, N1: int, mu2, theta2, nu2, N2: int):
    """Interfered length of every codeword of both users.

    Broadcasts over arrays of (mu, nu) and returns (cov1, cov2) whose
    trailing axes run over codewords 1..N1 and 1..N2 (views of arrays laid
    out codeword by codeword). Each row is one covered_length call, so
    each entry matches the len_interf of the oracle rate_decomp
    (tests/oracles.py) on the same layout bit for bit. The result takes
    N1 + N2 arrays of the broadcast shape; a caller that needs only a
    reduction over codewords calls covered_length itself and keeps memory
    independent of N.
    """
    mu1, nu1, mu2, nu2 = (np.asarray(x, dtype=float)
                          for x in (mu1, nu1, mu2, nu2))
    lead = np.broadcast_shapes(mu1.shape, nu1.shape, mu2.shape, nu2.shape)
    scratch = [np.empty(lead) for _ in range(4)]
    out = []
    for mu, theta, nu, N, other in ((mu1, theta1, nu1, N1, (mu2, theta2, nu2, N2)),
                                    (mu2, theta2, nu2, N2, (mu1, theta1, nu1, N1))):
        cov = np.empty((N,) + lead)
        for j in range(1, N + 1):
            covered_length(j, mu, theta, nu, *other, cov[j - 1, ...], scratch)
        out.append(np.moveaxis(cov, 0, -1))
    return tuple(out)


def rate_bound(cov, length, rp: RatePair):
    """Reliable-decoding threshold of codewords of the given length whose
    interfered part is cov long, broadcasting over arrays.

    Decoding succeeds (as n grows) iff the per-codeword load eta is
    strictly below the returned value.
    """
    return cov * rp.psi + (length - cov) * rp.phi
