"""Dense numpy window kernel.

The kernel advances a batch of Gaussian (drift + Brownian) paths through one
window of at most ``m`` grid steps while accumulating the exponential
functional integral(e^{sign * xi / alpha}).  Segment integrals are exact for
the piecewise-linear path:

    integral_0^h e^{(x + c s)/a} ds = h e^{x/a} (e^{ch/a} - 1)/(ch/a).

Modes:
  STOP_AT_ZETA  -- run until the per-path stop time (killing) is reached.
  TARGET        -- additionally stop when the accumulated integral crosses a
                   per-path target; the crossing point is solved in closed
                   form and the path value at the crossing is stored in x.

Window contract.  Every path in a window is running on entry: the caller
passes only live paths, and ``done`` is an output, zero on entry.  The
kernel writes the engine's stop codes into it: KILLED where a path stopped
at zeta, HIT where its integral crossed the target; it stays 0 where the
path ran the whole window.  ``w`` is added to as ``a`` is; the engine
reads it only on conservative runs, to test convergence, and a killed run
never reads it.

Coupled coarse path.  In STOP_AT_ZETA mode on a window of even m,
``coarse`` (an optional 15th argument) is added to as ``a`` is, with the
same path's integral on the grid of step 2 dt, with no new draws: row pair
j is one segment from X[2j] to the fine X at min(2j + 2, stop), of length
2 dt or, on the pair that holds the kill row, zeta - T[2j].  Its increment
is the sum of the pair's fine increments, so it is a path of step 2 dt
with exact Gaussian increments: the coupling of multilevel Monte Carlo
(Giles 2008).  It is computed after the fine outputs and from their rows
only, so they keep their bits.  The engine passes it only for jump-free
Gaussian paths, all of which share the window's clock.

One-row windows.  A window of one row, the engine's window for a model
without a Gaussian part, has a branch of its own: each path takes one step
of the recursion below, h = min(zeta - t, dt), on length-k arrays, with no
``(m + 1, k)`` scratch, clock, gathers or row sums.  A crossing there is
solved from the state at the start of the step, by the same closed form as
on the dense path.

Dense formulation.  A whole window is computed as ``(m + 1, k)`` arrays, one
row per grid step and one column per path, on column blocks of at most
``_block(m)`` paths; no Python loop runs over paths, and only plain row adds
run over steps.  It is the per-step recursion

    last    = zeta - t <= dt
    dt_eff  = zeta - t if last else dt
    inc     = b dt_eff + sigma sqrt(dt_eff) N_k
    seg     = dt_eff e^{s x} phi(s inc),   phi(d) = expm1(d)/d, phi(0) = 1
    a, w, x, t += seg, seg, inc, dt_eff    (t = zeta on the last step)

unrolled, and it returns the same bits:

* clock: ``T[r] = t + dt + ... + dt`` (r adds, in order) is the time before
  step r, the value ``t += dt`` reaches.  ``zeta - T[r]`` does not grow
  with r, so ``last`` holds on a suffix of the window: a path dies in the
  window when it holds on the last row, and its kill row (the suffix's
  first row) is m minus the count of rows where it holds;
* steps: every row is a full ``dt`` step, ``inc = b dt + sigma sqrt(dt) N``
  and ``seg = dt e^{s X} phi``, except the kill row, which is recomputed
  with ``dt_eff = zeta - T``.  Each is the recursion's own expression on
  the same operands, elementwise;
* sums: ``X[r] = x + inc[0] + ... + inc[r - 1]`` is added row by row, so
  row r holds exactly what the recursion holds after r steps; in TARGET
  mode so is ``A`` from ``a`` over ``seg``, since the crossing test reads
  it on every row.  Otherwise ``A`` and ``W`` are only read at each path's
  stop row: the rows of ``seg`` at or past it are set to +0.0, the start
  value goes above row 0, and one reduction down the rows adds
  ``a + seg[0] + ... + seg[stop - 1]`` in the recursion's order.  The
  +0.0 terms keep the bits, since x + 0.0 == x for every x but -0.0 and
  the sums start at a, w >= +0.0 and add seg >= +0.0.  numpy reduces a
  single column, the contiguous axis, pairwise, so a one-column block
  takes ``np.add.accumulate``, which always adds in order;
* stop: a path stops at its kill row or, in TARGET mode, at its first row
  with ``seg >= target - A`` when that comes first or on the kill row
  itself.  Each output is read from the stop row of its column, so rows
  past the stop (computed as further full steps) never reach it, and the
  crossing is solved in closed form from that row.
"""

import threading

import numpy as np

BACKEND = "python"

STOP_AT_ZETA = 0
TARGET = 2

# stop codes written into ``done``
KILLED = 1
HIT = 2

# cells per column block: 512 paths of a 128-step window, so a thread's
# scratch buffers take 1.6 MB for any window length; 1024 paths ran about
# 5 % faster at m = 128 but raised peak RSS by about 2 MB
_BLOCK_CELLS = 512 * 129

# per-thread scratch buffers, reused across calls: fresh MB-sized arrays
# cost a page fault per 4 KB on every call
_scratch = threading.local()


def _buffers(m, k):
    size = (m + 1) * k
    bufs = getattr(_scratch, "bufs", None)
    if bufs is None or bufs[0].size < size:
        bufs = [np.empty(size) for _ in range(3)]
        _scratch.bufs = bufs
    return [b[:size].reshape(m + 1, k) for b in bufs]


def _block(m):
    """Paths per column block of an m-step window."""
    return max(1, _BLOCK_CELLS // (m + 1))


def advance_window(x, a, t, w, done, zeta, target, normals, b, sigma, dt,
                   inv_alpha, sign, mode, coarse=None):
    m, n = normals.shape
    s_ia = sign * inv_alpha
    block = _block(m)
    for j in range(0, n, block):
        cols = slice(j, min(j + block, n))
        _advance_block(x[cols], a[cols], t[cols], w[cols], done[cols],
                       zeta[cols], target[cols], normals[:, cols], b, sigma,
                       dt, s_ia, mode,
                       None if coarse is None else coarse[cols])
    return None


def _accumulate(out, first, rows):
    """out[r] = first + rows[0] + ... + rows[r - 1], added in that order."""
    out[0] = first
    for r in range(rows.shape[0]):
        np.add(out[r], rows[r], out=out[r + 1])
    return out


def _clock(t, m, dt):
    """(m + 1, k) times before each step and after the last: t + dt + ...
    + dt, one add at a time.  When all paths share t, as they do for
    jump-free models, one column is computed and broadcast.  Per-path
    clocks are added row by row: cumsum down a wide array is about 40 times
    slower."""
    if (t.view(np.int64) == t[:1].view(np.int64)).all():
        col = np.full((m + 1, 1), dt)
        col[0] = t[0]
        return np.cumsum(col, axis=0)
    T = np.empty((m + 1, t.size))
    T[0] = t
    for r in range(m):
        np.add(T[r], dt, out=T[r + 1])
    return T


def _row_sum(S):
    """S[0] + S[1] + ... + S[-1] per column, added in row order.  reduce
    adds whole rows in order, but it sums a single column, the contiguous
    axis, pairwise, so a one-column block goes through accumulate."""
    if S.shape[1] == 1:
        return np.add.accumulate(S, axis=0)[-1]
    return np.add.reduce(S, axis=0)


def _solve_crossing(x0, inc, h, r, s_ia):
    """The crossing inside a step of length h and increment inc from x0,
    where the integral still lacks r of its target: the path value there
    and the time s* into the step, from r = integral_0^s* e^{s_ia (x0 + c
    u)} du with c = inc / h."""
    c = inc / h
    kc = s_ia * c
    eu = np.exp(-s_ia * x0)
    small = np.abs(kc) * h < 1e-14
    s_star = np.where(
        small,
        r * eu,
        np.log1p(np.where(small, 0.0, r * kc * eu)) /
        np.where(small, 1.0, kc),
    )
    return x0 + c * s_star, s_star


def _one_row(x, a, t, w, done, zeta, target, z, b, sigma, dt, s_ia, mode):
    """A one-row window: each path takes one step of the recursion."""
    left = zeta - t
    last = left <= dt
    h = np.minimum(left, dt)
    inc = b * h + sigma * np.sqrt(h) * z
    d = inc * s_ia
    with np.errstate(over="ignore", invalid="ignore"):
        phi = np.expm1(d)
        phi /= d
        phi[d == 0.0] = 1.0
        seg = np.exp(x * s_ia)
    seg *= h
    seg *= phi
    if mode == TARGET:
        # a crossing path keeps its w and takes its x and t from the
        # crossing, solved from the state at the start of the step
        rem = target - a
        ci = np.flatnonzero(seg >= rem)
        seg[ci] = 0.0
        x_c, s_star = _solve_crossing(x[ci], inc[ci], h[ci], rem[ci], s_ia)
        t_c = t[ci] + s_star
    a += seg
    w += seg
    x += inc
    t += dt
    np.copyto(t, zeta, where=last)
    done[last] = KILLED
    if mode == TARGET:
        x[ci] = x_c
        t[ci] = t_c
        a[ci] = target[ci]
        done[ci] = HIT


def _coarse_pairs(coarse, X, T, krow, kcol, stop, zeta, dt, s_ia, buf, S):
    """Add to ``coarse`` the path's integral on the 2 dt grid: row pair j is
    one segment from X[2j] to X[min(2j + 2, stop)], of length 2 dt or, on
    the pair that holds the kill row, zeta - T[2j]; pairs from the stop on
    add +0.0.  Uses the scratch ``buf`` and rows 1..m/2 of ``S``."""
    m = X.shape[0] - 1
    h = m // 2
    C, phi = buf[:h + 1], buf[h + 1:]
    seg, d = C[1:], S[1:h + 1]
    np.subtract(X[2::2], X[:m:2], out=d)
    kp = krow // 2
    d[kp, kcol] = X[krow + 1, kcol] - X[2 * kp, kcol]
    d *= s_ia
    with np.errstate(over="ignore", invalid="ignore"):
        np.expm1(d, out=phi)
        phi /= d
        phi[d == 0.0] = 1.0
        np.multiply(X[:m:2], s_ia, out=seg)
        np.exp(seg, out=seg)
    e_k = seg[kp, kcol]
    seg *= 2.0 * dt
    seg[kp, kcol] = (zeta[kcol] - T[2 * kp, kcol]) * e_k
    seg *= phi
    if (stop < m).any():
        np.copyto(seg, 0.0, where=np.arange(h)[:, None] >= (stop + 1) // 2)
    C[0] = coarse
    coarse[:] = _row_sum(C)


def _advance_block(x, a, t, w, done, zeta, target, normals, b, sigma, dt,
                   s_ia, mode, coarse):
    m, k = normals.shape
    if m == 1:
        _one_row(x, a, t, w, done, zeta, target, normals[0], b, sigma, dt,
                 s_ia, mode)
        return
    # scratch: inc's buffer later holds phi and then, in TARGET mode, A;
    # d and then seg sit in rows 1..m of S, whose row 0 takes the start
    # value of each stop-row sum
    buf_a, X, S = _buffers(m, k)
    inc, d = buf_a[:m], S[1:]
    col = np.arange(k)
    T = np.broadcast_to(_clock(t, m, dt), (m + 1, k))
    # kill row: each path's first step with zeta - T <= dt, or m if none;
    # zeta - T does not grow down a column, so those steps are a suffix,
    # and only the paths whose last step satisfies it die in this window
    kcol = np.flatnonzero(zeta - T[m - 1] <= dt)
    krow = m - np.count_nonzero(zeta[kcol] - T[:m, kcol] <= dt, axis=0)
    kill = np.full(k, m)
    kill[kcol] = krow
    dt_k = zeta[kcol] - T[krow, kcol]
    # every step is a full dt step except the kill row; rows past a path's
    # stop row are computed as more full steps and never reach an output
    np.multiply(normals, sigma * np.sqrt(dt), out=inc)
    inc += b * dt
    inc[krow, kcol] = b * dt_k + sigma * np.sqrt(dt_k) * normals[krow, kcol]
    _accumulate(X, x, inc)
    np.multiply(inc, s_ia, out=d)
    phi = inc
    with np.errstate(over="ignore", invalid="ignore"):
        np.expm1(d, out=phi)
        phi /= d
        phi[d == 0.0] = 1.0
        seg = np.multiply(X[:m], s_ia, out=d)
        np.exp(seg, out=seg)
    e_k = seg[krow, kcol]
    seg *= dt
    seg[krow, kcol] = dt_k * e_k
    seg *= phi
    stop = np.minimum(kill + 1, m)
    hit = np.zeros(k, bool)
    if mode == TARGET:
        # the crossing test reads A on every row
        A = _accumulate(buf_a, a, seg)
        a[:] = A[stop, col]
        rem = np.subtract(target, A[:m], out=A[:m])
        cross = seg >= rem
        first = cross.argmax(axis=0)
        hit = cross[first, col] & (first <= kill)
        stop = np.where(hit, first, stop)
    x[:] = X[stop, col]
    t[:] = T[stop, col]
    # A and W at the stop row: rows at or past it add +0.0
    if (stop < m).any():
        np.copyto(seg, 0.0, where=np.arange(m)[:, None] >= stop)
    if mode != TARGET:
        S[0] = a
        a[:] = _row_sum(S)
    S[0] = w
    w[:] = _row_sum(S)
    if coarse is not None:
        _coarse_pairs(coarse, X, T, krow, kcol, stop, zeta, dt, s_ia,
                      buf_a, S)
    killed = (kill < m) & ~hit
    t[killed] = zeta[killed]
    done[killed] = KILLED
    if hit.any():
        ci = np.flatnonzero(hit)
        ri = stop[ci]
        dt_c = np.where(ri == kill[ci], zeta[ci] - T[ri, ci], dt)
        inc_c = b * dt_c + sigma * np.sqrt(dt_c) * normals[ri, ci]
        x[ci], s_star = _solve_crossing(x[ci], inc_c, dt_c, rem[ri, ci],
                                        s_ia)
        t[ci] += s_star
        a[ci] = target[ci]
        done[ci] = HIT
