"""Achievable long-run codeword-rate regions.

Everything lives in the (R_c1, R_c2) plane. Once a channel state fixes which
burst overlaps which codeword, both the geometric orderings and the decoding
conditions are affine in the rates, so each state contributes a polyhedron
(its geometric and reliability constraints) and the full region is their
union over states and over a finite grid of transmit powers. region()
evaluates that union pointwise without enumerating states: it rebuilds each
grid point's own layout and checks every codeword directly, which is the
same predicate. The symmetric model collapses to a union of intervals on the
diagonal, which sym_region gives exactly over all powers (sym_curves).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import ConfigError
from .model import (IntervalUnion, UserParams, _count, capacity_c, find_root,
                    rate_pair)
from .reliability import covered_length


@dataclass(frozen=True, eq=False)
class Region2D:
    """A rate region rendered on a bounding box.

    The region is a boolean occupancy grid (mask[ix, iy] says whether cell
    center (xs()[ix], ys()[iy]) is achievable), which stays honest for the
    disconnected, non-convex unions that show up here.
    """

    x0: float
    x1: float
    y0: float
    y1: float
    mask: np.ndarray

    def __post_init__(self):
        if not (self.x1 > self.x0 and self.y1 > self.y0):
            raise ValueError("degenerate bounding box")
        if self.mask.ndim != 2 or self.mask.dtype != np.bool_:
            raise ValueError("mask must be a 2-d boolean array")

    @property
    def cell(self):
        nx, ny = self.mask.shape
        return (self.x1 - self.x0) / nx, (self.y1 - self.y0) / ny

    def xs(self):
        nx = self.mask.shape[0]
        return self.x0 + self.cell[0] * (np.arange(nx) + 0.5)

    def ys(self):
        ny = self.mask.shape[1]
        return self.y0 + self.cell[1] * (np.arange(ny) + 0.5)


# ---------------------------------------------------------------------------
# rate caps and power grids

def _rbar_raw(lam: float, P: float, N: int) -> float:
    def short(R):
        return R - capacity_c((1.0 / N + R / lam) * P)

    return find_root(short, 0.0, 64.0, ConfigError)


def rbar_c(u: UserParams, N: int) -> float:
    """Largest useful codeword rate: the root of R = C((1/N + R/lam)P).

    Above it even a never-interfered codeword at the full power budget
    fails, so it bounds every achievable region box.
    """
    if N < 1:
        raise ConfigError(f"N must be >= 1, got {N}")
    return _rbar_raw(u.lam, u.P, N)


def gamma_grid(u: UserParams, N: int, m: int) -> np.ndarray:
    """Interior power grid {(l/m)*gamma_bar : l = 1..m-1}."""
    if m < 2:
        raise ConfigError(f"power grid needs m >= 2, got {m}")
    gbar = (1.0 / N + rbar_c(u, N) / u.lam) * u.P
    return gbar * np.arange(1, m) / m


# ---------------------------------------------------------------------------
# the full region on a power grid

#: Bytes of region_members' workspace per cell of a batch: four float64
#: operands (loads and worst covered lengths) and three intp (flat index
#: and both power caps as grid counts), seven float64 rows that are
#: covered_length's buffers and then the row loop's scratch, and four
#: flag rows.
_CELL_BYTES = 8 * (4 + 3 + 7) + 4
#: The workspace is allocated once per call, so its size bounds the
#: memory of a block and a batch whatever N1, N2 or the grid; 2 MiB is
#: one core's L2 cache on the 2-CPU Xeon the benchmark runs on.
_WORKSPACE_BYTES = 2 ** 21
#: Cells per batch, and most raw cells per block: what the workspace
#: holds (18,078). Smaller batches pay the interpreter's per-row overhead
#: more often.
_BLOCK = _WORKSPACE_BYTES // _CELL_BYTES

_U = 2.0 ** -53  # unit roundoff of float64
_TINY = 2.0 ** -1074  # absolute error of a product that underflows


def _rising(T, S, wlo, whi):
    """The steps i -> i+1 along the last axis of T and S where
    f(i) = fl(T_i - fl(S_i*w)) rises for every w in [wlo, whi].

    With u = 2**-53, f(i) is within u*(|T_i| + (2+u)*|S_i|*|w|) + 2**-1074
    of T_i - S_i*w (one rounding per operation, plus the product's
    underflow), and the step (T_{i+1} - T_i) - (S_{i+1} - S_i)*w, linear
    in w and so smallest at wlo or whi, is computed within 3u*(|T_i| +
    |T_{i+1}| + (|S_i| + |S_{i+1}|)*|w|) + 2**-1074. A computed step above
    8u*(|T_i| + |T_{i+1}| + 2*(|S_i| + |S_{i+1}|)*W) + 2**-1072, with
    W = max(|wlo|, |whi|), covers both errors, so f(i+1) > f(i). A NaN
    bound certifies nothing.
    """
    W = max(abs(wlo), abs(whi))
    dT = np.diff(T, axis=-1)
    dS = np.diff(S, axis=-1)
    need = (8.0 * _U * (np.abs(T[..., :-1]) + np.abs(T[..., 1:])
                        + 2.0 * W * (np.abs(S[..., :-1]) + np.abs(S[..., 1:])))
            + 4.0 * _TINY)
    ok = dT - dS * wlo > need
    ok &= dT - dS * whi > need
    return ok


def _runs(ok):
    """The half-open runs (a, b) of indices 0..len(ok) between the steps
    ok does not certify."""
    if ok.all():
        return [(0, ok.size + 1)]
    cuts = [0, *(np.flatnonzero(~ok) + 1).tolist(), ok.size + 1]
    return list(zip(cuts, cuts[1:]))


def _g2_runs(slope1, top2, slope2, wlo, whi):
    """Split each power row's g2 indices into runs where both decoding
    tests are monotone in g2 for every cell of a batch.

    slope1, top2 and slope2 are the (rows, m-1) tables of region_members;
    wlo and whi bound the batch's worst2. Step j -> j+1 of row i is
    certified when

    - slope1[i, j] <= slope1[i, j+1], so user 1's test
      load1 < top1 - slope1*worst1 (worst1 >= 0) can only turn false;
    - user 2's right-hand side fl(T_j - fl(S_j*w)) rises for every w in
      [wlo, whi] (_rising), so its test can only turn true.

    Returns, per row, the half-open runs (a, b) between uncertified steps.
    A NaN bound certifies nothing, so every index is then its own run.
    """
    ok = np.diff(slope1, axis=1) >= 0.0
    ok &= _rising(top2, slope2, wlo, whi)
    return [_runs(row) for row in ok]


def _holds1(load1, worst1, t1, s1, j, g, out):
    """out = load1 < t1 - s1[j]*worst1, user 1's test at g2 index j; g is
    float scratch."""
    s1.take(j, out=g, mode="clip")  # clip also skips a copy
    np.multiply(g, worst1, out=g)
    np.subtract(t1, g, out=g)
    np.less(load1, g, out=out)


def _user1_ends(load1, worst1, t1, s1, a, b, x, scratch):
    """Per cell, the first j in [a, b) where load1 < t1 - s1[j]*worst1
    fails, or b if it never does.

    s1[a:b] is non-decreasing and worst1 >= 0, so the test holds on a
    prefix of the run. searchsorted over x = (t1 - load1)/worst1 guesses
    its end; the test itself then moves each guess until it holds at k-1
    and fails at k, so k is exact whatever the rounding of x. scratch is
    (k, j, g, holds, move): two intp, one float and two flag arrays of
    load1's shape; k is returned.
    """
    k, j, g, holds, move = scratch
    np.add(np.searchsorted(s1[a:b], x), a, out=k)
    # the test reads s1 with clip, so it may run at k - 1 = a - 1 or at
    # k = b, outside the run (even outside s1); move masks those cells out
    while True:  # down where k > a and the test fails at k-1
        np.subtract(k, 1, out=j)
        _holds1(load1, worst1, t1, s1, j, g, holds)
        np.greater(k, a, out=move)
        np.greater(move, holds, out=move)  # and not holds
        if not move.any():
            break
        np.subtract(k, move, out=k)
    while True:  # up where k < b and the test holds at k
        _holds1(load1, worst1, t1, s1, k, g, holds)
        np.less(k, b, out=move)
        np.logical_and(move, holds, out=move)
        if not move.any():
            break
        np.add(k, move, out=k)
    return k


def _budget_counts(r, u: UserParams, N: int, gs, cap):
    """How many powers of the rising grid gs each rate r affords: g <= cap
    = (1/N + r/lam)*P, the cap written into cap."""
    np.divide(r, u.lam, out=cap)
    np.add(1.0 / N, cap, out=cap)
    np.multiply(cap, u.P, out=cap)
    return np.searchsorted(gs, cap, side="right")


def _compact(fl, it, sel, kern):
    """Move the columns at sel of the float rows fl and the intp rows it
    to their fronts, in order. The moved columns pass through kern's
    memory, since take into its own input would allocate a copy."""
    m = sel.size
    nf, ni = len(fl), len(it)
    buf = kern.reshape(-1)
    f = buf[:nf * m].reshape(nf, m)
    i = buf[nf * m:(nf + ni) * m].view(np.intp).reshape(ni, m)
    # row by row: take copies an input that is not contiguous
    for src, dst in (*zip(fl, f), *zip(it, i)):
        src.take(sel, out=dst, mode="clip")
    fl[:, :m] = f
    it[:, :m] = i


def _test_batch(members, fl, it, kern, flags, tables):
    """Decide a batch of undecided cells by the power-row loop.

    fl and it are the batch's operand rows, (load1, load2, worst1,
    worst2) and (idx, ic, kc), over its cells; kern is seven float rows
    of scratch and flags four flag rows. The cells are sorted by their
    first live row, the first g1 row whose user-1 test can pass at some
    g2 (see region_members), so the cells a row tests are a prefix: the
    earlier cells still undecided, then the cells that start at that row.
    """
    top1, slope1, smin1, top2, slope2 = tables
    (load1, load2, worst1, worst2), (idx, ic, kc) = fl, it
    n, nrows = load1.size, top1.size
    ints = kern.view(np.intp)
    first = ints[6, :n]
    g, live = kern[0, :n], flags[0, :n]
    # row i is dead for a cell when load1 >= fl(T1_i - fl(smin1_i*worst1))
    # (see region_members); one backward pass over the affordable rows
    # leaves each cell's first live row
    first.fill(nrows)
    for i in reversed(range(int(ic.max()))):
        np.multiply(smin1[i], worst1, out=g)
        np.subtract(top1[i], g, out=g)
        np.less(load1, g, out=live)
        np.copyto(first, i, where=live)
    # a first live row the cell cannot afford means no row admits it
    np.greater_equal(first, ic, out=live)
    np.copyto(first, nrows, where=live)
    counts = np.bincount(first, minlength=nrows + 1)
    n -= int(counts[nrows])
    if n == 0:
        return
    # a stable sort keeps each row's new cells in grid order, where
    # neighbours have close rates: searchsorted then runs over nearly
    # sorted keys. Radix sort needs a small dtype
    order = np.argsort(first.astype(np.min_scalar_type(nrows)),
                       kind="stable")[:n]
    _compact(fl, it, order, kern)
    del order
    # ends[i]: the cells whose first live row is i or earlier
    ends = np.cumsum(counts[:nrows]).tolist()
    runs = _g2_runs(slope1, top2, slope2, worst2[:n].min(), worst2[:n].max())
    m = p = 0  # the rows' cells [0, m) are tested, [p, n) wait their row
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(nrows):
            new = ends[i] - p
            if new:
                if m < p:  # one dimension: numpy copies overlapping slices
                    for row in (*fl, *it):
                        row[m:m + new] = row[p:p + new]
                m += new
                p += new
            if m == 0:
                if p == n:
                    break
                continue
            load1, load2, worst1, worst2 = fl[:, :m]
            idx, ic, kc = it[:, :m]
            hit, keep, f1, f2 = flags[:4, :m]
            x, g, q = kern[:3, :m]
            k, K, j = ints[3:6, :m]
            t1, s1, t2, s2 = top1[i], slope1[i], top2[i], slope2[i]
            np.subtract(t1, load1, out=x)
            np.divide(x, worst1, out=x)
            for r, (a, b) in enumerate(runs[i]):
                _user1_ends(load1, worst1, t1, s1, a, b, x, (k, j, g, f1, f2))
                np.minimum(k, kc, out=K)
                # K - 1 = -1 reads index 0 (clip); K > a masks it
                np.subtract(K, 1, out=j)
                t2.take(j, out=g, mode="clip")
                s2.take(j, out=q, mode="clip")
                np.multiply(q, worst2, out=q)
                np.subtract(g, q, out=q)
                np.less(load2, q, out=f1)
                np.greater(K, a, out=f2)
                if r:
                    np.logical_and(f2, f1, out=f1)
                    np.logical_or(hit, f1, out=hit)
                else:
                    np.logical_and(f2, f1, out=hit)
            # undecided cells are not members yet, so hit is their mask
            members[idx] = hit
            # a cell leaves once it is a member or cannot afford row i + 1
            np.greater(ic, i + 1, out=keep)
            np.greater(keep, hit, out=keep)  # and not hit
            left = np.count_nonzero(keep)
            if left < m:
                sel = np.flatnonzero(keep)
                _compact(fl[:, :m], it[:, :m], sel, kern)
                m = left
                del sel


def region_members(u1: UserParams, u2: UserParams, N1: int, N2: int,
                   theta1, theta2, alpha, m_grid: int, R1, R2) -> np.ndarray:
    """Membership of rate points in the power-gridded achievable region.

    A point is in iff the worst-covered codeword of each user decodes and
    both power budgets hold, for at least one power pair on the grid. The
    worst codeword suffices because all of a user's codewords share the
    same (phi, psi) at a fixed power pair. At pair (i, j) the test is
    load1 < fl(T1_i - fl(S1_ij*worst1)) and load2 < fl(T2_j -
    fl(S2_ij*worst2)), with T = theta*phi and S = phi - psi from the
    rate-pair table (phi depends on the user's own power alone), and the
    budgets hold for the rows i < ic and the columns j < kc.

    Most cells are decided before the row loop, by a pre-pass of O(1)
    comparisons per cell, at one pair and against running extremes of the
    table: pm1[ic] = max of T1_i over i < ic, ps1[ic] = min of S1_ij over
    i < ic and all j, and pm2[kc], ps2[kc] likewise over columns j < kc.

    - Exclusion. If load1 >= fl(pm1[ic] - fl(ps1[ic]*worst1)), or the same
      holds for user 2, the cell is out (ic = 0 or kc = 0 reads pm = -inf).
      Proof: worst >= 0, and rounding is monotone, so for every pair the
      cell can afford T <= pm and S >= ps give fl(S*w) >= fl(ps*w) and
      fl(T - fl(S*w)) <= fl(pm - fl(ps*w)) <= load; that user's test fails
      there. A NaN anywhere makes a comparison false, so it excludes
      nothing, and its pair's own test fails too.
    - Admission. A cell passing both tests at (ic - 1, kc - 1) is in.

    The other cells are gathered from consecutive raw blocks into batches
    of at most _BLOCK cells: each block is staged behind the batch's cells
    and only its undecided ones stay, and a batch more than three quarters
    full goes to the row loop (_test_batch). A batch's cells start at
    their first live row: row i is dead when load1 >= fl(T1_i -
    fl(smin1_i*worst1)) with smin1_i the row's least slope, by the same
    bound, so no pair of that row admits the cell. Sorted by first live
    row, the cells a row tests are a prefix of the batch. A cell leaves
    once it is a member, or once g1 exceeds its power cap (the grid rises,
    so no later row admits it).

    Within a g1 row each test has a fixed direction in g2: user 1's
    right-hand side theta1*phi1 - (phi1 - psi1)*worst1 falls (phi1 is fixed
    and psi1 falls), user 2's cap g2 <= cap2 holds on a prefix, and user
    2's right-hand side (theta2 - worst2)*phi2 + worst2*psi2 rises
    (worst2 <= theta2). On a run of g2 indices where _g2_runs certifies
    that this holds in floats for the batch, user 1 decodes exactly for
    j < k1 and the cap holds for j < kc, so a cell is hit iff K = min(k1,
    kc) is past the run's start and user 2 decodes at K-1. k1 comes from
    searchsorted and is then corrected with the test itself; kc from
    searchsorted over g2. Every comparison that decides a cell is one the
    full test makes, or bounds all of them as above, so the mask is
    exactly that of testing all cells at every power pair.

    R1 and R2 broadcast against each other: point arrays of one shape, or
    a grid's axes such as xs[:, None] and ys[None, :]. Cells are
    independent, so they are staged in blocks of raw cells in C order,
    each block keeping its base cells (above lam, or above 0 for a user
    with N = 1).

    Memory: the mask is the only array the size of the grid. Everything a
    block and a batch hold lives in one workspace of _CELL_BYTES per cell,
    _WORKSPACE_BYTES in all, allocated once per call and reused through
    out=. The worst covered length is a running maximum over
    covered_length calls, one codeword at a time, so no array has a
    codeword axis and the memory does not grow with N1 or N2. A few steps
    take no out=: a block's rates are copied from the flat grid, and
    flatnonzero, searchsorted and argsort return new index arrays. Each
    is freed at once, and at most three such arrays of 8 bytes a cell
    exist together, so a call peaks below the mask plus _WORKSPACE_BYTES
    + 24*_BLOCK bytes, apart from the (m_grid - 1)**2 rate-pair tables,
    which grow with m_grid alone.
    """
    R1 = np.asarray(R1, dtype=float)
    R2 = np.asarray(R2, dtype=float)
    try:
        shape = np.broadcast_shapes(R1.shape, R2.shape)
    except ValueError:
        raise ValueError(f"R1 and R2 must broadcast together, got shapes "
                         f"{R1.shape} and {R2.shape}") from None
    grid = shape or (1,)  # a 0-d pair is one cell of a 1-d grid
    lo1 = u1.lam if N1 > 1 else 0.0
    lo2 = u2.lam if N2 > 1 else 0.0
    g1s = gamma_grid(u1, N1, m_grid)
    g2s = gamma_grid(u2, N2, m_grid)
    R1, R2 = np.broadcast_to(R1, grid), np.broadcast_to(R2, grid)
    # the right-hand sides theta*phi - (phi - psi)*worst at each power
    # pair take these scalars; they do not depend on the cells. The table
    # is filled one g1 row at a time, so no (m_grid - 1)**2 list of Python
    # floats is built
    phi1, psi1, phi2, psi2 = table = np.empty((4, g1s.size, g2s.size))
    for i, g1 in enumerate(g1s.tolist()):  # a numpy scalar warns where
        table[:, i] = np.array(            # a*gamma overflows
            [(rp1.phi, rp1.psi, rp2.phi, rp2.psi)
             for rp1, rp2 in ((rate_pair(g1, g2, u2.a), rate_pair(g2, g1, u1.a))
                              for g2 in g2s.tolist())]).T
    top1 = theta1 * phi1[:, 0]  # phi1 = C(g1) is one float along a row
    slope1 = phi1 - psi1
    top2 = theta2 * phi2  # and phi2 = C(g2) one float down a column
    slope2 = phi2 - psi2
    smin1 = slope1.min(axis=1)
    tables = (top1, slope1, smin1, top2, slope2)
    # the pre-pass bounds, indexed by the count of affordable rows (ic) or
    # columns (kc); none affordable reads -inf
    pm1, ps1, pm2, ps2 = (np.concatenate(([v], acc(t))) for v, acc, t in (
        (-np.inf, np.maximum.accumulate, top1),
        (0.0, np.minimum.accumulate, smin1),
        (-np.inf, np.maximum.accumulate, top2[0]),
        (0.0, np.minimum.accumulate, slope2.min(axis=0))))
    members = np.zeros(math.prod(grid), dtype=bool)
    cells = min(_BLOCK, members.size)
    # the workspace: bank and ibank hold the batch's cells as rows
    # (load1, load2, worst1, worst2) and (idx, ic, kc). Each raw block is
    # staged behind the batch's cells, and only its undecided cells stay;
    # kern is covered_length's buffers, then the batch's scratch
    bank = np.empty((4, cells))
    ibank = np.empty((3, cells), dtype=np.intp)
    kern = np.empty((7, cells))
    flags = np.empty((4, cells), dtype=bool)
    start = fill = 0
    while start < members.size:
        # the next raw cells in C order, as many as the batch has room
        # for; flat slices copy only rates
        size = min(cells - fill, members.size - start)
        r1 = R1.flat[start:start + size]
        r2 = R2.flat[start:start + size]
        base = np.greater(r1, lo1, out=flags[0, :size])
        base &= np.greater(r2, lo2, out=flags[1, :size])
        sel = np.flatnonzero(base)
        n = sel.size
        staged = bank[:, fill:fill + n], ibank[:, fill:fill + n]
        (load1, load2, worst1, worst2), (idx, ic, kc) = staged
        r1.take(sel, out=load1, mode="clip")
        r2.take(sel, out=load2, mode="clip")
        np.add(sel, start, out=idx)
        start += size
        del r1, r2, sel
        if n == 0:
            continue
        # load1 and load2 hold the rates until scaled below. Each user's
        # budget holds for the first ic rows (kc columns) of the power grid
        ic[...] = _budget_counts(load1, u1, N1, g1s, kern[0, :n])
        kc[...] = _budget_counts(load2, u2, N2, g2s, kern[0, :n])
        np.multiply(theta1, load1, out=load1)
        np.multiply(theta2, load2, out=load2)
        # the worst covered length of each user, a running maximum over
        # its codewords, in kern
        mu1, mu2, cov = kern[:3, :n]
        scratch = kern[3:, :n]
        np.divide(load1, u1.lam, out=mu1)
        np.divide(load2, u2.lam, out=mu2)
        for worst, mu, theta, nu, N, other in (
                (worst1, mu1, theta1, 0.0, N1, (mu2, theta2, alpha, N2)),
                (worst2, mu2, theta2, alpha, N2, (mu1, theta1, 0.0, N1))):
            covered_length(1, mu, theta, nu, *other, worst, scratch)
            for j in range(2, N + 1):
                covered_length(j, mu, theta, nu, *other, cov, scratch)
                np.maximum(worst, cov, out=worst)
        # the pre-pass: refused, admitted (hit) or undecided (und). A cell
        # not refused affords its corner pair (i, j) = (ic - 1, kc - 1)
        b, c = kern[:2, :n]
        i, ij = kern[2:4, :n].view(np.intp)
        refused, fail2, hit, und = flags[:, :n]
        np.subtract(ic, 1, out=i)
        np.multiply(i, slope1.shape[1], out=ij)
        np.add(ij, kc, out=ij)
        np.subtract(ij, 1, out=ij)  # the flat index of (i, j)
        for t, at, s, sat, load, worst, test, out in (
                (pm1, ic, ps1, ic, load1, worst1, np.greater_equal, refused),
                (pm2, kc, ps2, kc, load2, worst2, np.greater_equal, fail2),
                (top1, i, slope1, ij, load1, worst1, np.less, hit),
                (top2, ij, slope2, ij, load2, worst2, np.less, und)):
            t.take(at, out=b, mode="clip")
            s.take(sat, out=c, mode="clip")
            np.multiply(c, worst, out=c)
            np.subtract(b, c, out=b)
            test(load, b, out=out)
        hit &= und  # und holds user 2's corner test until reset below
        refused |= fail2
        np.greater(hit, refused, out=hit)  # and not refused
        members[idx] = hit  # base cells are not members yet
        np.logical_not(refused, out=und)
        und ^= hit
        sel = np.flatnonzero(und)
        _compact(*staged, sel, kern)
        fill += sel.size
        del sel
        # a batch more than three quarters full is decided, so no raw
        # block but the last is under a quarter of the workspace
        if 4 * fill > 3 * cells:
            _test_batch(members, bank[:, :fill], ibank[:, :fill], kern, flags,
                        tables)
            fill = 0
    if fill:
        _test_batch(members, bank[:, :fill], ibank[:, :fill], kern, flags,
                    tables)
    return members.reshape(shape)


#: Largest grid region() builds. A CSV run at the cap peaks at about 34 MB
#: of resident memory, some 4 MB above a 2 x 2 grid's run: region_members
#: reads the grid's axes and stages one block of cells at a time in the
#: fixed _WORKSPACE_BYTES workspace, so the one grid-sized array is the
#: 1-byte mask, and the peak does not grow with N1 or N2.
MAX_CELLS = 2 ** 21

#: Work budget of region(), in units of one codeword-burst pair of
#: covered_length on one cell (both users' side of it). A cell costs
#: N1*N2 units for its worst covered lengths and at most about 2 for each
#: of the m_grid - 1 g1 rows (a cell the pre-pass decides pays none of
#: them); each of the (m_grid - 1)**2 power pairs costs about 1000 to
#: tabulate with rate_pair. A raw block costs _BLOCK_PAIR units for each
#: burst pair, whatever its cell count: it calls covered_length once per
#: codeword, and each call loops over the other user's bursts in Python
#: (8 to 13 us a pair on an 81-cell grid at N1 = 1e4 or 1e5 and N2 = 2,
#: or N1 = N2 = 300). Each block but the last fills at least a quarter of
#: the workspace, so a grid makes at most ceil(4*cells/_BLOCK) of them.
#: A unit took 4 to 6 ns on the 2-CPU benchmark machine (a CLI run on
#: 180k cells: 1.2 s at N1 = N2 = 32, 0.6 s at m_grid 160; 25 cells at
#: m_grid 1000: 3.8 s; 2.1M cells at m_grid 40: 0.8 to 0.9 s, where the
#: row term overprices the pre-pass), and up to 8 ns when the machine ran
#: slow, so 2**30 units is 4 to 9 s.
MAX_REGION_WORK = 2 ** 30
_BLOCK_PAIR = 3000


def _region_work(cells: int, N1: int, N2: int, m_grid: int) -> int:
    """region()'s cost in MAX_REGION_WORK units."""
    rows = max(m_grid - 1, 0)
    blocks = -(-4 * cells // _BLOCK)
    return ((cells + _BLOCK_PAIR * blocks) * N1 * N2 + 2 * rows * cells
            + 1000 * rows ** 2)


def region(u1: UserParams, u2: UserParams, N1: int, N2: int, theta1, theta2,
           alpha, m_grid: int = 10, resolution: float | None = None) -> Region2D:
    """Achievable-region occupancy grid on the natural bounding box.

    The box is [lam1*1{N1>1}, rbar_c1] x [lam2*1{N2>1}, rbar_c2] and
    resolution is the cell size (default: a 100x100 grid).
    """
    # rates are below C(float max) < 2**9: theta*rate < 2**1022 stays finite
    if not all(0 < t <= 2.0 ** 1013 for t in (theta1, theta2)):
        raise ConfigError(f"theta1 and theta2 must be positive and at most "
                          f"2**1013, got {theta1} and {theta2}")
    lo1 = u1.lam if N1 > 1 else 0.0
    lo2 = u2.lam if N2 > 1 else 0.0
    hi1 = rbar_c(u1, N1)
    hi2 = rbar_c(u2, N2)
    if resolution is None:
        resolution = max(hi1 - lo1, hi2 - lo2) / 100.0
    if not resolution > 0:
        raise ConfigError("resolution must be positive")
    wx, wy = (hi1 - lo1) / resolution, (hi2 - lo2) / resolution
    nx = max(2, int(math.ceil(wx))) if wx <= MAX_CELLS else math.inf
    ny = max(2, int(math.ceil(wy))) if wy <= MAX_CELLS else math.inf
    if nx * ny > MAX_CELLS:
        raise ConfigError(f"resolution {resolution} needs more than "
                          f"{MAX_CELLS} grid cells")
    work = _region_work(nx * ny, N1, N2, m_grid)
    if work > MAX_REGION_WORK:
        raise ConfigError(f"{nx * ny} cells at N1 = {_count(N1)}, N2 = "
                          f"{_count(N2)} and m_grid = {_count(m_grid)} cost "
                          f"{_count(work)} work units, beyond "
                          f"MAX_REGION_WORK = {MAX_REGION_WORK}")
    if not (hi1 > lo1 and hi2 > lo2):
        raise ConfigError(f"empty rate box [{lo1}, {hi1}] x [{lo2}, {hi2}]: "
                          f"with N > 1, rbar_c must exceed lam = k*q")
    xs = lo1 + (hi1 - lo1) / nx * (np.arange(nx) + 0.5)
    ys = lo2 + (hi2 - lo2) / ny * (np.arange(ny) + 0.5)
    mask = region_members(u1, u2, N1, N2, theta1, theta2, alpha, m_grid,
                          xs[:, None], ys[None, :])
    return Region2D(lo1, hi1, lo2, hi2, mask)


# ---------------------------------------------------------------------------
# symmetric model

def _check_sym_args(N, theta, lam, a, P, alpha):
    if not (isinstance(N, int) and N >= 1):
        raise ConfigError(f"N must be a positive integer, got {N!r}")
    if not all(map(math.isfinite, (theta, lam, a, P, alpha))):
        raise ConfigError("theta, lam, a, P and alpha must be finite")
    if theta <= 0 or lam <= 0 or P <= 0:
        raise ConfigError("theta, lam and P must be positive")
    if a < 0 or alpha < 0:
        raise ConfigError("a and alpha must be nonnegative")


@dataclass(frozen=True)
class SymCurves:
    """Per-power envelope of the symmetric rate interval (alpha < theta).

    For each power gamma the achievable codeword rates form the single
    interval (max(f(gamma), power_line(gamma)), g(gamma)), with f = g = 0
    encoding empty. gamma0 solves 2*psi = phi and only selects the branch;
    gamma1 solves psi = lam (+inf when psi saturates below lam); gamma2 is
    where the overlap-free cap crosses (1 + alpha/theta)*lam (+inf likewise),
    the handoff between the ratio-form bound and the overlap-free bound.
    """

    N: int
    theta: float
    lam: float
    a: float
    P: float
    alpha: float
    gamma0: float
    gamma1: float
    gamma2: float

    @property
    def branch_low(self) -> bool:
        """True when lam < psi(gamma0), the empty-until-gamma1 branch."""
        if self.a == 0.0:
            return True
        if math.isinf(self.gamma0):
            # gamma0 beyond float range means a < 1e-154, where psi(gamma0)
            # = log2((b + sqrt(b^2 + 4))/2)/2 equals log2(1/a)/2 in floats
            return self.lam < -0.5 * math.log2(self.a)
        return self.lam < self.psi(self.gamma0)

    def phi(self, gamma):
        return capacity_c(gamma)

    def psi(self, gamma):
        return capacity_c(gamma / (1.0 + self.a * gamma))

    def clear_cap(self, gamma):
        """Rate cap when only the offset stub of a codeword is interfered."""
        return _clear_cap(self.a, gamma, self.alpha / self.theta)

    def ratio_cap(self, gamma):
        """(2*psi - phi)/(1 - (phi-psi)/lam): a cap below phi-psi = lam."""
        p, s = self.phi(gamma), self.psi(gamma)
        return (2.0 * s - p) / (1.0 - (p - s) / self.lam)

    def power_line(self, gamma):
        return (gamma / self.P - 1.0 / self.N) * self.lam

    def f(self, gamma):
        low = self.branch_low
        if gamma <= (self.gamma1 if low else self.gamma2):
            return 0.0
        return self.ratio_cap(gamma) if not low and gamma <= self.gamma1 \
            else self.lam

    def g(self, gamma):
        low = self.branch_low
        if gamma <= (self.gamma1 if low else self.gamma2):
            return 0.0
        return self.ratio_cap(gamma) if low and gamma <= self.gamma2 \
            else self.clear_cap(gamma)


def sym_curves(N: int, theta, lam, a, P, alpha) -> SymCurves:
    """Closed-form symmetric-model curves; requires alpha < theta."""
    _check_sym_args(N, theta, lam, a, P, alpha)
    if not alpha < theta:
        raise ValueError(f"closed form needs alpha < theta, got {alpha} >= {theta}")
    # gamma0 = (1 + sqrt(1 + 4a^2)) / (2a^2) with b = 1/a: finite for huge
    # a, +inf at a = 0 and only where the true value overflows too
    b = 1.0 / a if a > 0 else math.inf
    gamma0 = b * (0.5 * (b + math.sqrt(b * b + 4.0)))
    # psi = lam needs SNR t = 2**(2*lam) - 1; beyond float range gamma1 = +inf
    t = 2.0 ** (2.0 * lam) - 1.0 if lam < 512.0 else math.inf
    den = 1.0 - a * t
    gamma1 = t / den if den > 0 else math.inf
    try:  # +inf when the clear cap stays below the line over all floats
        gamma2 = gamma1 if alpha == 0 else find_root(lambda g: _clear_cap(
            a, g, alpha / theta) - (1.0 + alpha / theta) * lam, 0.0, 1.0)
    except ValueError:
        gamma2 = math.inf
    return SymCurves(N, theta, lam, a, P, alpha, gamma0, gamma1, gamma2)


def _pert_windows(js: int, N: int, theta: float, alpha: float):
    """mu-windows of offset class js <= N with their decoding-constraint lists.

    Each constraint (x, y) stands for (1 - x*(phi-psi)/lam)*R < psi -
    (phi-psi)*y/theta at the power under test. Division by js-1 at js=1
    follows the sign of the numerator (the window has no such edge).
    """
    if js > 1:
        prev = (alpha - theta) / (js - 1)
        nxt = alpha / (js - 1)
    else:
        prev = -math.inf if alpha < theta else math.inf
        nxt = math.inf
    lo_slot = alpha / js
    hi_slot = (alpha + theta) / js
    if js < N:
        a_cons = ((1, theta), (1 - js, -alpha))
        b_cons = ((js, alpha),)
    else:
        a_cons = ((1 - N, -alpha),)
        b_cons = ((0, -theta),)
    return (
        ((max(prev, lo_slot), min(hi_slot, nxt)), a_cons),
        ((lo_slot, min(prev, hi_slot)), b_cons),
        ((max(prev, hi_slot), nxt), ((1 - js, -alpha),)),
        ((hi_slot, prev), ((0, -theta),)),
    )


#: Most windows _sym_pert_region solves, 4*min(ceil(alpha/theta) + 1, N)
#: + 1. A window took 0.8 to 4 ms on the 2-CPU benchmark machine (1025 at
#: N = 256, alpha = 1e300: 0.85 s; 801 at N = 200, alpha = 199: 2.2 s).
MAX_SYM_WINDOWS = 2 ** 11
_K = 0.5 / math.log(2.0)  # capacity_c'(x) = _K/(1 + x)
#: Powers in every bracket list of _zeros: find_root closes a bracket [u,
#: v] with v <= 2**10*max(u, 1) in under 70 of its 100 steps, at any scale.
_BRACKETS = [2.0 ** k for k in range(0, 1024, 10)]


def _clear_cap(a, g, r):
    """psi + r*(phi - psi) at power g: the cap with r = alpha/theta."""
    psi = capacity_c(g / (1.0 + a * g))
    return psi + r * (capacity_c(g) - psi)


def _sym_rates(a, g):
    """(psi, d, psi', d') at power g, with d = phi - psi."""
    dpsi = _K / ((1.0 + a * g) * (1.0 + (1.0 + a) * g))
    psi = capacity_c(g / (1.0 + a * g))
    return psi, capacity_c(g) - psi, dpsi, _K / (1.0 + g) - dpsi


def _zeros(f, pts):
    """Zeros of f on sorted pts, between each two of which f is monotone."""
    pts = sorted({*pts, *(g for g in _BRACKETS if pts[0] < g < pts[-1])})
    fs = [f(t) for t in pts]
    return [find_root(f, u, v) for u, v, fu, fv in zip(pts, pts[1:], fs, fs[1:])
            if min(fu, fv) <= 0.0 <= max(fu, fv)]


def _meets(b1, b2, lam, a, gb):
    """Powers in [0, gb] where bounds b1 and b2 of _sym_union meet: zeros
    of G = num1*coef2 - num2*coef1 (over d for two constraints) = A*psi +
    (B0 + B1*g)*d + C0 + C1*g. In z = (1 + a)*g, G''(z) = _K*e*H(z)/(p*Q)**2
    with e = 1/(1 + a), p = 1 + e*z, Q = (1 + a*e*z)*(1 + z) and H of degree
    5 at most. G, G', H, H', ... are each monotone between the zeros of the
    next, the last constant, so solving them from the last misses none."""
    (h1, y1, x1, c01, c11), (h2, y2, x2, c02, c12) = b1, b2
    if h1 and h2:
        A, B0, B1 = (x1 - x2) / lam, (x2 * y1 - x1 * y2) / lam, 0.0
        C0, C1 = y2 - y1, 0.0
    else:  # one has h = x = y = 0: no d*psi or d*d term
        A, B0 = h1 - h2, y2 - y1 - (x2 * c01 - x1 * c02) / lam
        B1, C0, C1 = (x1 * c12 - x2 * c11) / lam, c01 - c02, c11 - c12

    def G(g, slope=False):
        psi, d, dpsi, dd = _sym_rates(a, g)
        return A * dpsi + (B0 + B1 * g) * dd + B1 * d + C1 if slope \
            else A * psi + (B0 + B1 * g) * d + C0 + C1 * g

    poly, e = np.polynomial.Polynomial, 1.0 / (1.0 + a)
    p, Q = poly([1.0, e]), poly([1.0, a * e]) * poly([1.0, 1.0])
    dQ = Q.deriv()
    H = (-A * dQ * p ** 2 + poly([B0, B1 * e]) * (dQ * p ** 2 - e * Q ** 2)
         + 2.0 * B1 * e * (Q - p) * p * Q)
    pts = [0.0, gb]
    for k in range(H.degree(), -1, -1):  # H's k-th derivative, by Horner in
        c = H.deriv(k).coef.tolist()[::-1]  # floats, which overflow quietly
        pts = sorted({0.0, gb, *_zeros(lambda g: functools.reduce(
            lambda v, h: v * (1.0 + a) * g + h, c, 0.0), pts)})
    pts = sorted({*pts, *_zeros(lambda g: G(g, True), pts)})
    return _zeros(G, pts)


def _sym_union(N, theta, lam, a, P, gb, window) -> list:
    """The rates of window ((wlo, whi), constraints) at powers in [0, gb],
    as a list of intervals: above lam (N > 1), the power line and
    wlo*lam/theta, below whi*lam/theta, and meeting each constraint (x, y)
    of _pert_windows as (1, y/theta, x, 0, 0), where y = -theta is -1.

    A bound (h, y, x, c0, c1) is num/coef, num = h*psi - y*d + c0 + c1*g,
    coef = 1 - x*d/lam. A constraint coef*R < num caps R where coef > 0
    and floors it where coef < 0; d rises, so it switches only at d =
    lam/x. For h = 1, F = num - R*coef has F' = phi'*(c + (1 - c)*rho),
    with c = x*R/lam - y and rho = psi'/phi' falling from 1: F rises, then
    falls, so a cap rises, then falls, and a floor falls, then rises. The
    switches, these turns and the meets of two bounds cut [0, gb] into runs
    with fixed, monotone active bounds; a run feasible at its midpoint adds
    the hull of its ends' intervals (a bound with coef = 0 at its limit).
    """
    (wlo, whi), cons = window
    lo, hi = max(lam if N > 1 else 0.0, wlo * lam / theta), whi * lam / theta
    if not lo < hi:
        return []
    lows = [(0, 0.0, 0, lo, 0.0), (0, 0.0, 0, -lam / N, lam / P)]
    cons = [(1, y / theta, x, 0.0, 0.0) for x, y in cons] + (
        [(0, 0.0, 0, hi, 0.0)] if hi < math.inf else [])

    def bound(b, g, upper):
        (h, y, x, c0, c1), (psi, d, _, _) = b, _sym_rates(a, g)
        num = h * psi + c0 + c1 * g - (y * d if d else 0.0)  # y may be inf
        coef = 1.0 - x * d / lam
        if coef == 1.0 or (coef > 0.0 if upper else coef < 0.0):
            return num / coef
        return math.copysign(math.inf, num if upper else -num)

    def turn(b, g):  # the sign of b's slope, num'*coef - num*coef'
        psi, d, dpsi, dd = _sym_rates(a, g)
        return (dpsi - b[1] * dd) * (1.0 - b[2] * d / lam) \
            + b[2] / lam * dd * (psi - b[1] * d)

    def ends(g, lo, hi):
        return (max([bound(b, g, False) for b in lo]),
                min([bound(b, g, True) for b in hi], default=math.inf))

    cuts = {0.0, gb}
    for x in {b[2] for b in cons if b[2] > 0}:
        cuts.update(_zeros(lambda g: _sym_rates(a, g)[1] - lam / x, [0.0, gb]))
    cuts, bs = sorted(cuts), lows + cons
    pts = set(cuts)
    for i, b in enumerate(bs):
        if b[0]:
            pts.update(_zeros(lambda g: turn(b, g), cuts))
        for c in bs[i + 1:]:
            pts.update(_meets(b, c, lam, a, gb))
    pts, out = sorted(pts), []
    for s, t in zip(pts, pts[1:]):
        d = _sym_rates(a, 0.5 * (s + t))[1]
        lo = lows + [b for b in cons if 1.0 - b[2] * d / lam < 0.0]
        hi = [b for b in cons if not 1.0 - b[2] * d / lam < 0.0]
        low, high = ends(0.5 * (s + t), lo, hi)
        if low < high:
            (ls, hs), (lt, ht) = ends(s, lo, hi), ends(t, lo, hi)
            out.append((min(ls, lt), max(hs, ht)))
    return out


def _sym_pert_region(N, theta, lam, a, P, alpha) -> IntervalUnion:
    """Symmetric region assembled per offset class; works for any alpha >= 0.

    Offset class js holds the spacings alpha/js < mu < alpha/(js - 1), up to
    js_max = ceil(alpha/theta) + 1 (no end when alpha/theta overflows). Classes
    js <= N are solved window by window (_pert_windows). Past N a class's
    windows carry only (0, -theta); with prev = (alpha - theta)/(js - 1), nxt =
    alpha/(js - 1), lo = alpha/js and hi = (alpha + theta)/js they are
    (max(prev, lo), min(hi, nxt)), (lo, min(prev, hi)), (max(prev, hi), nxt)
    and (hi, prev): end to end at max(prev, lo) and min(hi, nxt) if prev <= hi,
    else (lo, hi), (hi, prev), (prev, nxt). Class js + 1 ends at the float
    alpha/js where class js starts, so one window, (alpha/js_max, alpha/N) or
    (0, alpha/N) on overflow, gives at each power the union of their intervals.
    MAX_SYM_WINDOWS caps the 4*min(js_max, N) + 1 windows before any is built.
    """
    ratio = alpha / theta
    tail = ratio > N - 1  # js_max > N: some class lies past N
    classes = N if tail else math.ceil(ratio) + 1
    if 4 * classes + 1 > MAX_SYM_WINDOWS:
        raise ConfigError(f"{_count(4 * classes + 1)} windows exceed "
                          f"MAX_SYM_WINDOWS = {MAX_SYM_WINDOWS}")
    windows = [w for js in range(1, classes + 1)
               for w in _pert_windows(js, N, theta, alpha)]
    if tail:
        lo = alpha / (math.ceil(ratio) + 1) if math.isfinite(ratio) else 0.0
        windows.append(((lo, alpha / N), ((0, -theta),)))
    return _solve_windows(N, theta, lam, a, P, windows)


def _solve_windows(N, theta, lam, a, P, windows) -> IntervalUnion:
    """Exact rates of windows, up to where the power line meets rbar_c."""
    gbar = (1.0 / N + _rbar_raw(lam, P, N) / lam) * P
    return IntervalUnion.from_intervals([
        iv for w in windows for iv in _sym_union(N, theta, lam, a, P, gbar, w)])


def sym_region(N: int, theta, lam, a, P, alpha) -> IntervalUnion:
    """Achievable codeword rates of the symmetric model, exactly.

    N=1 reduces to a closed form. For N >= 2 and alpha < theta the rates
    (max(f, power line), g) of sym_curves are the window (0, inf) with the
    ratio cap r, constraint (1, theta), and the clear cap c, (0, -alpha):
    r - k = (c - k)/coef, k = (1 + alpha/theta)*lam, coef = 1 - d/lam. For
    coef in (0, 1], r is below c before gamma2 (c = k) and above it after,
    and r <= lam iff psi <= lam, before gamma1; for coef < 0, r < lam past
    gamma1 and r >= k >= c up to gamma2. Else see _sym_pert_region.
    """
    _check_sym_args(N, theta, lam, a, P, alpha)
    if N == 1:
        if alpha >= theta:
            return IntervalUnion.from_intervals([(0.0, _rbar_raw(lam, P, 1))])
        gstar = find_root(lambda g: _clear_cap(a, g, alpha / theta)
                          - (g / P - 1.0) * lam, 0.0, 2.0 * P, ConfigError)
        return IntervalUnion.from_intervals([(0.0, (gstar / P - 1.0) * lam)])
    if not alpha < theta:
        return _sym_pert_region(N, theta, lam, a, P, alpha)
    return _solve_windows(N, theta, lam, a, P,
                          [((0.0, math.inf), ((1, theta), (0, -alpha)))])
