"""Per-codeword reliability thresholds.

The normative computation splits a codeword into its interfered and clear
stretches and prices them at psi and phi respectively; a message of eta
bits per scaled-time unit decodes reliably iff eta falls strictly below
the resulting threshold. The case-by-case closed forms are kept as an
independent route and must agree with the geometric one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from burstgic.geometry import BurstLayout
from burstgic.model import RatePair

__all__ = [
    "RateDecomp",
    "covered_length",
    "covered_lengths",
    "rate_decomp",
    "rate_bound",
    "closed_form_bound",
]


@dataclass(frozen=True)
class RateDecomp:
    """Scaled lengths of the clear and interfered parts of one codeword."""

    len_clear: float
    len_interf: float

    def __post_init__(self):
        if self.len_clear < 0 or self.len_interf < 0:
            raise ValueError("subinterval lengths must be nonnegative")


def rate_decomp(l: BurstLayout, user: int, j: int) -> RateDecomp:
    """Split codeword j of the given user into clear/interfered lengths."""
    other = 2 if user == 1 else 1
    a, a2 = l.burst(user, j)
    covered = 0.0
    for b, b2 in l.bursts(other):
        covered += max(0.0, min(a2, b2) - max(a, b))
    theta = a2 - a
    d = RateDecomp(len_clear=theta - covered, len_interf=covered)
    if not abs(d.len_clear + d.len_interf - theta) < 1e-12:
        raise AssertionError(
            f"clear {d.len_clear} + interfered {d.len_interf} != length {theta}")
    return d


def covered_length(j: int, mu, theta, nu, mu_o, theta_o, nu_o, N_o: int,
                   out, scratch):
    """Interfered length of codeword j, written into out.

    The codeword is [j*mu + nu, j*mu + nu + theta]; the other user's
    bursts are [m*mu_o + nu_o, m*mu_o + nu_o + theta_o], m = 1..N_o. The
    arguments broadcast to out's shape, and scratch is four arrays of that
    shape. Each burst's endpoints are formed in scratch when it is reached,
    and the overlaps accumulate burst by burst from +0.0, as in
    rate_decomp, so out holds rate_decomp's len_interf bit for bit. The
    caller owns every buffer: no array is allocated, and the memory does
    not depend on N_o.
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
    each entry matches rate_decomp's len_interf on the same layout bit for
    bit. The result takes N1 + N2 arrays of the broadcast shape; a caller
    that needs only a reduction over codewords calls covered_length itself
    and keeps memory independent of N.
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


def rate_bound(l: BurstLayout, user: int, j: int, rp: RatePair) -> float:
    """Reliable-decoding threshold for codeword j of the given user.

    Decoding succeeds (as n grows) iff the per-codeword load eta is
    strictly below the returned value.
    """
    d = rate_decomp(l, user, j)
    return d.len_interf * rp.psi + d.len_clear * rp.phi


def closed_form_bound(triple, schemes, nu1: float, nu2: float,
                      user: int, j: int, rp: RatePair) -> float:
    """Same threshold as rate_bound, but from the overlap-case formulas.

    The interfered length is reconstructed from the overlap triple alone
    (plus the layout parameters), not from interval intersections.
    """
    s1, s2 = schemes
    if user == 1:
        mu, theta, nu = s1.mu, s1.theta, nu1
        mu_o, theta_o, nu_o = s2.mu, s2.theta, nu2
    elif user == 2:
        mu, theta, nu = s2.mu, s2.theta, nu2
        mu_o, theta_o, nu_o = s1.mu, s1.theta, nu1
    else:
        raise ValueError(f"user must be 1 or 2, got {user}")

    wm, wp, w = triple.w_minus, triple.w_plus, triple.w_in
    if wm == 0 and wp == 0:
        covered = w * theta_o
    elif wm != 0 and wp == wm:
        if w != 0:
            raise ValueError(f"containment triple cannot also enclose bursts: {triple}")
        covered = theta
    elif wm != 0 and wp != 0:
        if wp - wm != w + 1:
            raise ValueError(f"no overlap case matches triple {triple}")
        covered = theta - (1 + w) * (mu_o - theta_o)
    elif wm != 0:  # left end covered, right end clear
        covered = (wm * mu_o + nu_o + theta_o) - (j * mu + nu) + w * theta_o
    else:  # right end covered, left end clear
        covered = (j * mu + nu + theta) - (wp * mu_o + nu_o) + w * theta_o
    return theta * rp.phi - (rp.phi - rp.psi) * covered

