"""Achievable long-run codeword-rate regions.

Everything lives in the (R_c1, R_c2) plane. Once a channel state fixes which
burst overlaps which codeword, both the geometric orderings and the decoding
conditions are affine in the rates, so each state contributes a polyhedron
(its geometric and reliability constraints) and the full region is their
union over states and over a finite grid of transmit powers. region()
evaluates that union pointwise without enumerating states: it rebuilds each
grid point's own layout and checks every codeword directly, which is the
same predicate. The symmetric model collapses to a union of intervals on the
diagonal (sym_curves, sym_region).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .design import IntervalUnion
from .model import UserParams, capacity_c, find_root, rate_pair
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

    return find_root(short, 0.0, 64.0)


def rbar_c(u: UserParams, N: int) -> float:
    """Largest useful codeword rate: the root of R = C((1/N + R/lam)P).

    Above it even a never-interfered codeword at the full power budget
    fails, so it bounds every achievable region box.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    return _rbar_raw(u.lam, u.P, N)


def gamma_grid(u: UserParams, N: int, m: int) -> np.ndarray:
    """Interior power grid {(l/m)*gamma_bar : l = 1..m-1}."""
    if m < 2:
        raise ValueError(f"power grid needs m >= 2, got {m}")
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
    k, probe = ints[3:5, :n]
    g, sw = kern[:2, :n]
    live, dead = flags[:2, :n]
    # row i is dead for a cell when load1 >= fl(T1_i - fl(smin1_i*worst1)):
    # smin1_i is the row's least slope, so by the bound of region_members'
    # pre-pass no g2 passes user 1 there. On a run of rows where that
    # right-hand side rises for the batch's every worst1 (_rising), the
    # dead rows of a cell live at the run's last row are a prefix of the
    # run, counted by binary lifting: a probe moves past rows only once it
    # finds them dead, and a probe beyond the run reads its live last row.
    # Runs go backwards, so the last write is the first live row
    first.fill(nrows)
    top = int(ic.max())
    for a, b in reversed(_runs(_rising(top1[:top], smin1[:top],
                                       worst1.min(), worst1.max()))):
        np.multiply(smin1[b - 1], worst1, out=g)
        np.subtract(top1[b - 1], g, out=g)
        np.less(load1, g, out=live)
        k.fill(a)
        step = 1 << (b - 1 - a).bit_length() >> 1
        while step:
            np.add(k, step - 1, out=probe)
            np.minimum(probe, b - 1, out=probe)
            top1.take(probe, out=g, mode="clip")
            smin1.take(probe, out=sw, mode="clip")
            np.multiply(sw, worst1, out=sw)
            np.subtract(g, sw, out=g)
            np.greater_equal(load1, g, out=dead)
            np.add(k, step, out=k, where=dead)
            step >>= 1
        np.copyto(first, k, where=live)
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
    comparisons per cell against running extremes of the table: pm1[ic] =
    max of T1_i over i < ic, ps1[ic] = min of S1_ij over i < ic and all j,
    and pm2[kc], ps2[kc] likewise over the columns j < kc.

    - Exclusion. If load1 >= fl(pm1[ic] - fl(ps1[ic]*worst1)), or the same
      holds for user 2, the cell is out (ic = 0 or kc = 0 reads pm = -inf).
      Proof: worst >= 0, and rounding is monotone, so for every pair the
      cell can afford T <= pm and S >= ps give fl(S*w) >= fl(ps*w) and
      fl(T - fl(S*w)) <= fl(pm - fl(ps*w)) <= load; that user's test fails
      there. A NaN anywhere makes a comparison false, so it excludes
      nothing, and its pair's own test fails too.
    - Interference-free cells (worst1 = worst2 = 0) with a finite table:
      S*0 is +0, so the test at (i, j) is load1 < T1_i and load2 < T2_j,
      which separate. A cell that passes the exclusion has load1 <
      pm1[ic] = T1_i for some i < ic and load2 < T2_j for some j < kc, so
      the pair (i, j) admits it.

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
    for i, g1 in enumerate(g1s):
        table[:, i] = np.array(
            [(rp1.phi, rp1.psi, rp2.phi, rp2.psi)
             for rp1, rp2 in ((rate_pair(g1, g2, u2.a), rate_pair(g2, g1, u1.a))
                              for g2 in g2s)]).T
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
    free_exact = all(np.isfinite(t).all() for t in tables)
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
        # the pre-pass: refused, admitted (free) or undecided (und)
        b, c = kern[:2, :n]
        refused, fail2, free, und = flags[:, :n]
        for load, worst, count, pm, ps, fails in (
                (load1, worst1, ic, pm1, ps1, refused),
                (load2, worst2, kc, pm2, ps2, fail2)):
            pm.take(count, out=b, mode="clip")
            ps.take(count, out=c, mode="clip")
            np.multiply(c, worst, out=c)
            np.subtract(b, c, out=b)
            np.greater_equal(load, b, out=fails)
        np.logical_or(refused, fail2, out=refused)
        np.logical_not(refused, out=und)
        if free_exact:
            np.equal(worst1, 0.0, out=free)
            free &= np.equal(worst2, 0.0, out=fail2)
            free &= und
            members[idx] = free  # base cells are not members yet
            und ^= free
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
#: tabulate with rate_pair. A unit took 4 to 6 ns on the 2-CPU benchmark
#: machine (a CLI run on 180k cells: 1.2 s at N1 = N2 = 32, 0.6 s at
#: m_grid 160; 25 cells at m_grid 1000: 3.8 s; 2.1M cells at m_grid 40:
#: 0.8 to 0.9 s, where the row term overprices the pre-pass), and up to
#: 8 ns when the machine ran slow, so 2**30 units is 4 to 9 s.
MAX_REGION_WORK = 2 ** 30


def _region_work(cells: int, N1: int, N2: int, m_grid: int) -> int:
    """region()'s cost in MAX_REGION_WORK units."""
    rows = max(m_grid - 1, 0)
    return cells * (N1 * N2 + 2 * rows) + 1000 * rows ** 2


def _count(n: int) -> str:
    """A count for a message: in full below 10**12, else in e-notation
    without converting it to a float, which overflows past about 1.8e308
    (and whose digits would run to hundreds)."""
    if n < 10 ** 12:
        return str(n)
    e = int(math.log10(n))  # math.log10 takes an int of any size
    lead = n / 10 ** e  # int true division rounds once
    if lead >= 10.0:
        lead, e = lead / 10.0, e + 1
    return f"{lead:.3g}e+{e}"


def region(u1: UserParams, u2: UserParams, N1: int, N2: int, theta1, theta2,
           alpha, m_grid: int = 10, resolution: float | None = None) -> Region2D:
    """Achievable-region occupancy grid on the natural bounding box.

    The box is [lam1*1{N1>1}, rbar_c1] x [lam2*1{N2>1}, rbar_c2] and
    resolution is the cell size (default: a 100x100 grid).
    """
    if not all(math.isfinite(t) and t > 0 for t in (theta1, theta2)):
        raise ValueError(f"theta1 and theta2 must be positive and finite, "
                         f"got {theta1} and {theta2}")
    lo1 = u1.lam if N1 > 1 else 0.0
    lo2 = u2.lam if N2 > 1 else 0.0
    hi1 = rbar_c(u1, N1)
    hi2 = rbar_c(u2, N2)
    if resolution is None:
        resolution = max(hi1 - lo1, hi2 - lo2) / 100.0
    if not resolution > 0:
        raise ValueError("resolution must be positive")
    wx, wy = (hi1 - lo1) / resolution, (hi2 - lo2) / resolution
    nx = max(2, int(math.ceil(wx))) if wx <= MAX_CELLS else math.inf
    ny = max(2, int(math.ceil(wy))) if wy <= MAX_CELLS else math.inf
    if nx * ny > MAX_CELLS:
        raise ValueError(f"resolution {resolution} needs more than "
                         f"{MAX_CELLS} grid cells")
    work = _region_work(nx * ny, N1, N2, m_grid)
    if work > MAX_REGION_WORK:
        raise ValueError(f"{nx * ny} cells at N1 = {_count(N1)}, N2 = "
                         f"{_count(N2)} and m_grid = {_count(m_grid)} cost "
                         f"{_count(work)} work units, beyond "
                         f"MAX_REGION_WORK = {MAX_REGION_WORK}")
    xs = lo1 + (hi1 - lo1) / nx * (np.arange(nx) + 0.5)
    ys = lo2 + (hi2 - lo2) / ny * (np.arange(ny) + 0.5)
    mask = region_members(u1, u2, N1, N2, theta1, theta2, alpha, m_grid,
                          xs[:, None], ys[None, :])
    return Region2D(lo1, hi1, lo2, hi2, mask)


# ---------------------------------------------------------------------------
# symmetric model

def _check_sym_args(N, theta, lam, a, P, alpha):
    if not (isinstance(N, int) and N >= 1):
        raise ValueError(f"N must be a positive integer, got {N!r}")
    if not all(map(math.isfinite, (theta, lam, a, P, alpha))):
        raise ValueError("theta, lam, a, P and alpha must be finite")
    if theta <= 0 or lam <= 0 or P <= 0:
        raise ValueError("theta, lam and P must be positive")
    if a < 0 or alpha < 0:
        raise ValueError("a and alpha must be nonnegative")


@dataclass(frozen=True)
class SymCurves:
    """Per-power envelope of the symmetric rate interval (alpha < theta).

    For each power gamma the achievable codeword rates form the single
    interval (max(f(gamma), power_line(gamma)), g(gamma)), with f = g = 0
    encoding empty. gamma0 solves 2*psi = phi and only selects the branch;
    gamma1 solves psi = lam (+inf when psi saturates below lam); gamma2 is
    where the overlap-free cap crosses (1 + alpha/theta)*lam, the handoff
    between the ratio-form bound and the overlap-free bound.
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

    def __post_init__(self):
        if self.gamma0 <= 0:
            raise ValueError("gamma0 must be positive")

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
        p, s = self.phi(gamma), self.psi(gamma)
        return s + self.alpha / self.theta * (p - s)

    def ratio_cap(self, gamma):
        """The bound (2*psi - phi) / (1 - (phi - psi)/lam).

        Upper bound while the denominator is positive, lower bound once it
        flips sign; each branch only evaluates it where it is the active
        finite bound.
        """
        p, s = self.phi(gamma), self.psi(gamma)
        return (2.0 * s - p) / (1.0 - (p - s) / self.lam)

    def power_line(self, gamma):
        return (gamma / self.P - 1.0 / self.N) * self.lam

    def f(self, gamma):
        if self.branch_low:
            return 0.0 if gamma <= self.gamma1 else self.lam
        if gamma <= self.gamma2:
            return 0.0
        if gamma <= self.gamma1:
            return self.ratio_cap(gamma)
        return self.lam

    def g(self, gamma):
        if self.branch_low:
            if gamma <= self.gamma1:
                return 0.0
            if gamma <= self.gamma2:
                return self.ratio_cap(gamma)
            return self.clear_cap(gamma)
        return 0.0 if gamma <= self.gamma2 else self.clear_cap(gamma)


def sym_curves(N: int, theta, lam, a, P, alpha) -> SymCurves:
    """Closed-form symmetric-model curves; requires alpha < theta."""
    _check_sym_args(N, theta, lam, a, P, alpha)
    if not alpha < theta:
        raise ValueError(f"closed form needs alpha < theta, got {alpha} >= {theta}")
    if a > 0:
        # (1 + sqrt(1 + 4a^2)) / (2a^2) with b = 1/a: finite for huge a,
        # +inf only where the true value overflows too
        b = 1.0 / a
        gamma0 = b * (0.5 * (b + math.sqrt(b * b + 4.0)))
    else:
        gamma0 = math.inf
    # psi = lam needs SNR t = 2**(2*lam) - 1; beyond float range gamma1 = +inf
    t = 2.0 ** (2.0 * lam) - 1.0 if lam < 512.0 else math.inf
    den = 1.0 - a * t
    gamma1 = t / den if den > 0 else math.inf
    if alpha == 0:
        gamma2 = gamma1
    else:
        kap = 1.0 + alpha / theta

        def short(g):
            p = capacity_c(g)
            s = capacity_c(g / (1.0 + a * g))
            return s + alpha / theta * (p - s) - kap * lam

        gamma2 = find_root(short, 0.0, 1.0)
    return SymCurves(N, theta, lam, a, P, alpha, gamma0, gamma1, gamma2)


def _pert_windows(js: int, N: int, theta: float, alpha: float):
    """mu-windows of offset class js with their decoding-constraint lists.

    Each constraint (x, y) stands for (1 - x*(phi-psi)/lam)*R < psi -
    (phi-psi)*y/theta at the power under test. Division by js-1 at js=1
    follows the sign of the numerator (the window simply has no such edge).
    """
    if js > 1:
        prev = (alpha - theta) / (js - 1)
        nxt = alpha / (js - 1)
    else:
        prev = -math.inf if alpha < theta else math.inf
        nxt = math.inf
    lo_slot = alpha / js
    hi_slot = (alpha + theta) / js
    if js <= N - 1:
        a_cons = ((1, theta), (1 - js, -alpha))
    elif js == N:
        a_cons = ((1 - N, -alpha),)
    else:
        a_cons = ((0, -theta),)
    b_cons = ((js, alpha),) if js <= N - 1 else ((0, -theta),)
    c_cons = ((1 - js, -alpha),) if js <= N else ((0, -theta),)
    d_cons = ((0, -theta),)
    return (
        ((max(prev, lo_slot), min(hi_slot, nxt)), a_cons),
        ((lo_slot, min(prev, hi_slot)), b_cons),
        ((max(prev, hi_slot), nxt), c_cons),
        ((hi_slot, prev), d_cons),
    )


def _sweep_union(samples) -> IntervalUnion:
    """Union of a continuously moving interval sampled along a curve.

    samples yields (lo, hi) or None per grid point, in sweep order. When two
    consecutive samples are nonempty the interval never vanished in between
    (its endpoints move continuously), so their hull joins the union; this
    closes the pinholes a narrow interval leaves when it climbs faster per
    grid step than its own width.
    """
    pieces = []
    prev = None
    for cur in samples:
        if cur is not None:
            pieces.append(cur)
            if prev is not None:
                pieces.append((min(prev[0], cur[0]), max(prev[1], cur[1])))
        prev = cur
    return IntervalUnion.from_intervals(pieces)


#: Most power samples the symmetric sweeps may take: windows times
#: n_gamma, one window for the closed-form sweep and four per offset class
#: (ceil(alpha/theta) + 1 classes) when alpha >= theta. A window sample
#: took about 2.4 us on the 2-CPU benchmark machine (84 windows of 2048
#: samples at alpha/theta = 20: 0.40 s) and a closed-form one about 6 us,
#: so 2**22 samples is 10 to 25 s.
MAX_SYM_SAMPLES = 2 ** 22


def _check_sym_samples(windows: float, n_gamma: int) -> None:
    """Raise ValueError past MAX_SYM_SAMPLES; windows may be inf."""
    # n_gamma first: an int past float range cannot be multiplied
    if not (n_gamma <= MAX_SYM_SAMPLES
            and windows * n_gamma <= MAX_SYM_SAMPLES):
        raise ValueError(f"{windows:.3g} windows of n_gamma = "
                         f"{_count(n_gamma)} samples exceed "
                         f"MAX_SYM_SAMPLES = {MAX_SYM_SAMPLES}")


def _sym_pert_region(N, theta, lam, a, P, alpha, n_gamma=2048) -> IntervalUnion:
    """Symmetric region assembled per offset class; works for any alpha >= 0."""
    # alpha/theta may overflow to inf, which the budget refuses before
    # anything is built; ceil(r) + 1 <= r + 2 bounds the class count
    ratio = alpha / theta
    _check_sym_samples(4.0 * (ratio + 2.0), n_gamma)
    gbar = (1.0 / N + _rbar_raw(lam, P, N) / lam) * P
    js_max = int(math.ceil(ratio)) + 1 if alpha > 0 else 1
    windows = []
    for js in range(1, js_max + 1):
        windows.extend(_pert_windows(js, N, theta, alpha))
    grid = np.linspace(0.0, gbar, n_gamma)
    out = IntervalUnion.from_intervals([])

    def window_samples(wlo, whi, cons):
        for g in grid:
            p = capacity_c(g)
            s = capacity_c(g / (1.0 + a * g))
            d = p - s
            lo = max(lam if N > 1 else 0.0, (g / P - 1.0 / N) * lam,
                     wlo * lam / theta)
            hi = whi * lam / theta
            feasible = True
            for x, y in cons:
                coef = 1.0 - x * d / lam
                rhs = s - d * y / theta
                if abs(coef) < 1e-14:
                    if rhs <= 0:
                        feasible = False
                        break
                elif coef > 0:
                    hi = min(hi, rhs / coef)
                else:
                    lo = max(lo, rhs / coef)
            yield (lo, hi) if feasible and hi > lo else None

    for (wlo, whi), cons in windows:
        if whi <= wlo:
            continue
        out = out.union(_sweep_union(window_samples(wlo, whi, cons)))
    return out


def sym_region(N: int, theta, lam, a, P, alpha, n_gamma: int = 2048) -> IntervalUnion:
    """Achievable codeword rates of the symmetric model.

    N=1 reduces to a closed form. For N >= 2 with alpha < theta the curve
    pair of sym_curves is swept over a power grid plus its breakpoints; for
    alpha >= theta the per-offset-class windows are assembled directly.
    """
    _check_sym_args(N, theta, lam, a, P, alpha)
    if N == 1:
        if alpha >= theta:
            return IntervalUnion.from_intervals([(0.0, _rbar_raw(lam, P, 1))])

        def short(g):
            p = capacity_c(g)
            s = capacity_c(g / (1.0 + a * g))
            return s + alpha / theta * (p - s) - (g / P - 1.0) * lam

        gstar = find_root(short, 0.0, 2.0 * P)
        return IntervalUnion.from_intervals([(0.0, (gstar / P - 1.0) * lam)])
    if not alpha < theta:
        return _sym_pert_region(N, theta, lam, a, P, alpha, n_gamma)
    _check_sym_samples(1.0, n_gamma)
    sc = sym_curves(N, theta, lam, a, P, alpha)
    gbar = (1.0 / N + _rbar_raw(lam, P, N) / lam) * P
    grid = set(np.linspace(0.0, gbar, n_gamma))
    grid |= {g for g in (sc.gamma1, sc.gamma2) if 0.0 < g < gbar}

    def samples():
        for g in sorted(grid):
            f_val = sc.f(g)
            if f_val <= 0.0:
                yield None
                continue
            lo = max(f_val, sc.power_line(g))
            hi = sc.g(g)
            yield (lo, hi) if hi > lo else None

    return _sweep_union(samples())
