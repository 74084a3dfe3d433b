"""Burst geometry on the scaled-time axis and the decoding bounds it sets.

A layout places each user's N equally spaced bursts from its activation
offset; what matters for decoding is how much of each codeword the other
user's bursts cover. covered_lengths gives that length for every codeword
at once, rate_bound prices it, and alpha_breakpoints marks the offset
differences alpha = nu2 - nu1 where the overlap pattern can change.
"""

import math

import numpy as np

from burstgic.geometry import alpha_breakpoints
from burstgic.model import rate_pair
from burstgic.reliability import covered_lengths, rate_bound


class Sch:
    def __init__(self, mu, theta, N):
        self.mu, self.theta, self.N = mu, theta, N


# 1. a concrete layout and the covered length of each codeword -----------
s1, s2 = Sch(3.0, 2.3, 3), Sch(2.05, 0.5, 5)
covs = covered_lengths(s1.mu, s1.theta, 0.0, s1.N, s2.mu, s2.theta, 0.9, s2.N)
print("interfered / clear length by codeword:")
for user, s, cov in ((1, s1, covs[0]), (2, s2, covs[1])):
    for j, c in enumerate(cov.tolist(), 1):
        print(f"  user {user}, j={j}: {c:.4f} / {s.theta - c:.4f}")

# 2. per-codeword rate bounds --------------------------------------------
rp = rate_pair(5.0, 3.0, 0.5)
print("\nper-codeword rate bounds (phi = clear, psi = interfered):")
print(f"  phi = {rp.phi:.4f}, psi = {rp.psi:.4f}")
worst = math.inf
for user, s, cov in ((1, s1, covs[0]), (2, s2, covs[1])):
    for j, b in enumerate(rate_bound(cov, s.theta, rp).tolist(), 1):
        # a bound sits between the fully interfered and the clear codeword
        assert s.theta * rp.psi - 1e-12 <= b <= s.theta * rp.phi + 1e-12
        worst = min(worst, b)
        print(f"  user {user}, j={j}: {b:.4f}")
print(f"  binding constraint: {worst:.4f}")

# 3. how many overlap patterns (channel states) are possible -------------
print(f"\nchannel states for (N1, N2) = (3, 5):"
      f" C({2 * 3 + 2 * 5}, {2 * 5}) = {math.comb(16, 10)}")

# 4. the states a 1-D offset sweep meets ---------------------------------
bps = np.array(alpha_breakpoints((s1, s2)))
probes = np.concatenate([[bps[0] - 1.0], 0.5 * (bps[:-1] + bps[1:]),
                         [bps[-1] + 1.0]])
c1, c2 = covered_lengths(s1.mu, s1.theta, 0.0, s1.N,
                         s2.mu, s2.theta, probes, s2.N)
t1 = rate_bound(c1, s1.theta, rp).min(axis=-1)
t2 = rate_bound(c2, s2.theta, rp).min(axis=-1)
print(f"{bps.size} breakpoints cut the alpha axis into {probes.size} pieces,"
      f" one state each")
# loads halfway between the interfered and the clear threshold
eta1 = 0.5 * s1.theta * (rp.psi + rp.phi)
eta2 = 0.5 * s2.theta * (rp.psi + rp.phi)
ok = (eta1 < t1) & (eta2 < t2)
print(f"pieces where every codeword decodes at eta = ({eta1:.3f},"
      f" {eta2:.3f}): {int(ok.sum())} of {probes.size}")
