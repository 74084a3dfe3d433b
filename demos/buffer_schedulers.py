"""Compare the send-when-ready scheduler against the slotted one.

Bits arrive as k-sized batches on a Bernoulli(q) clock. The eager
scheme fires codeword j as soon as j*floor(n*eta) bits are buffered;
the slotted scheme only dispatches at multiples of the codeword length.
The demo checks the trigger-time law against its negative-binomial
moments and then measures how often the slotted scheme lags.
"""

import math

import numpy as np

from burstgic.arrivals import (
    ArrivalTrace,
    delay_gap_experiment,
    immediacy_violation_freq,
    run_async_scheduler,
    run_sync_scheduler,
    trial_rngs,
)
from burstgic.model import UserParams

u = UserParams(k=3, q=0.3, P=1.0, a=0.0)

# 1. trigger slots vs the trials-to-success law --------------------------
n, N = 600, 2
chunk = math.floor(n * u.k / N)
T = 2000
taus = np.empty((T, N))
for t, rng in enumerate(trial_rngs(7, T)):
    ind = (rng.random(9000) < u.q).astype(np.uint8)
    sched = run_async_scheduler(ArrivalTrace(indicators=ind), u,
                                n=n, N=N, nprime=8, theta=1.0, nu=0.5)
    taus[t] = sched.taus
print(f"trigger moments over {T} runs (n={n}, N={N}):")
shift = math.floor(n * 0.5) - 1
for j in (1, 2):
    r = j * chunk / u.k
    xi = taus[:, j - 1] - shift
    print(f"  j={j}: mean {xi.mean():8.1f} (law {r / u.q:8.1f}),"
          f" var {xi.var(ddof=1):9.1f} (law {r * (1 - u.q) / u.q**2:9.1f})")

# 2. early-trigger violations die off as n grows -------------------------
uv = UserParams(k=2, q=0.5, P=1.0, a=0.0)
print("\nearly-trigger frequency, mu barely above theta:")
for n_v in (200, 400, 800):
    f = immediacy_violation_freq(uv, n_v, N=2, nprime=None, theta=0.9,
                                 trials=400, seed=3)
    print(f"  n = {n_v:4d}: {f:.3f}")

# 3. the slotted scheme's first dispatch and its lag ---------------------
n_big, theta = 4000, 1.5
n_i = math.floor(n_big * theta)
mstar = math.floor((1 / u.q) / theta)
counts = {}
for rng in trial_rngs(19, 300):
    ind = (rng.random(40_000) < u.q).astype(np.uint8)
    sync = run_sync_scheduler(ArrivalTrace(indicators=ind), u,
                              n=n_big, N=1, theta=theta)
    counts[sync.sigmas[0]] = counts.get(sync.sigmas[0], 0) + 1
mode = max(counts, key=counts.get)
print(f"\nslotted first dispatch: mode {mode} = {mode // n_i} checkpoints"
      f" (predicted {(mstar + 1)}), frequency {counts[mode] / 300:.3f}")

freqs = delay_gap_experiment(u, 4000, N=1, theta=1.5, delta=0.2,
                             trials=400, seed=5)
print(f"slotted lags eager by >1.2x: frequency {freqs[0]:.3f}")
