"""Besov-type quasi-norms for dyadic step functions.

Two independent routes are implemented:

* the approximation quasi-norm built from best L_p approximation by
  piecewise constants on the dyadic partitions (``a_norm``), and
* the first-order modulus-of-smoothness quasi-norm with the t-integral
  discretized over dyadic scales (``b_norm_modulus``).

Both agree up to parameter-dependent constants; the test-suite pins the
empirical bands.  A Littlewood-Paley square-function norm and the weighted
coefficient sum that characterizes the (2,2) zero-smoothness space round
out the module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import accumulate, product

import numpy as np

from .dyadic import (
    DyadicStepFunction,
    SparseStepFunction,
    ValueHistogram,
    _check_exponent,
    _cube_blocks,
    _exact_row_sums,
    _exact_sum,
    _finest_level,
    _integer,
    _raises_on_overflow,
    _upsample,
    densify,
    lp_quasinorm,
    stable_sum,
)
from .haar import analyze

__all__ = [
    "INF",
    "ApproxProfile",
    "BesovParams",
    "ModulusTable",
    "a_norm",
    "a_norm_from_profile",
    "approx_error",
    "approximation_profile",
    "b0_221_weighted_sum",
    "b_norm_modulus",
    "best_constant_error",
    "modulus",
    "square_function_norm",
]

#: Distinguished value for q = infinity in :class:`BesovParams`.
INF = math.inf


@dataclass(frozen=True)
class BesovParams:
    """Smoothness-space parameters (p, q, s, d).

    For finite q the admissible range is 0 <= s < 1/p; above it the space
    degenerates to constants, so such parameters are rejected unless
    ``allow_degenerate`` is set.  q = INF is accepted for the sequence-side
    sup norms.
    """

    p: float
    q: float
    s: float
    d: int
    allow_degenerate: bool = field(default=False, compare=False)

    def __post_init__(self):
        _check_exponent(self.p)
        if not (self.q > 0):
            raise ValueError("q must be positive (finite or INF)")
        if not (self.s >= 0 and math.isfinite(self.s)):
            raise ValueError("s must be a nonnegative finite number")
        object.__setattr__(self, "d", _integer(self.d, "d", 1))
        if self.q_finite and self.s >= 1.0 / self.p and not self.allow_degenerate:
            raise ValueError(
                "s >= 1/p: the space degenerates to constants "
                "(pass allow_degenerate=True to classify it anyway)"
            )

    @property
    def q_finite(self) -> bool:
        return math.isfinite(self.q)

    @property
    def is_degenerate(self) -> bool:
        return self.q_finite and self.s >= 1.0 / self.p


# ---------------------------------------------------------------------------
# best approximation by constants
# ---------------------------------------------------------------------------


#: Distinct values up to which :func:`_enum_best` evaluates every candidate
#: directly; below about this many, bounding them costs more than it saves.
_ENUM_DIRECT = 128
#: Group counts of the pruning stages in :func:`_enum_best`.
_PRUNE_GROUPS = (16, 64, 512)
#: Cells per block of candidate rows (sizes the temporaries, not the bits:
#: every row is summed on its own).
_ENUM_BLOCK_CELLS = 1 << 16
_UNIT_ROUNDOFF = 2.0**-53
_SMALLEST_SUBNORMAL = 2.0**-1074


def _enum_errs(v: np.ndarray, w: np.ndarray, p: float, rows) -> np.ndarray:
    """sum_j w_j |v_i - v_j|^p for the candidates i in ``rows``, one row each
    (and one such table per histogram along any leading axes)."""
    return (w[..., None, :] * np.abs(v[..., rows, None] - v[..., None, :]) ** p).sum(axis=-1)


def _enum_best(v: np.ndarray, w: np.ndarray, p: float) -> tuple[int, float]:
    """First minimizer i of e_i = sum_j w_j |v_i - v_j|^p and its error e_i.

    ``v`` must be strictly increasing and finite, ``w`` positive and finite.
    Up to ``_ENUM_DIRECT`` values every row is evaluated.  Above it a
    branch-and-bound keeps the same answer bit for bit: an upper bound U is
    the computed error of the few candidates around the weighted median,
    and candidates are dropped by chord bounds, first with 16 groups of
    consecutive values, then with 64 and 512 on the survivors; each stage
    first lowers U to the computed error of its candidate of least bound,
    most often one near the minimum.  A group with ends a_g < b_g that lies
    wholly on one side of a candidate c contributes at least A_g |a_g - c|^p
    + B_g |b_g - c|^p, where A_g and B_g split its weight by position (A_g =
    sum_j w_j lambda_j, B_g = sum_j w_j (1 - lambda_j), lambda_j = (b_g -
    v_j) / (b_g - a_g)), since t -> |t - c|^p is concave on each side of c;
    c's own group counts 0.  A candidate whose bound exceeds U by the
    rounding margin below is dropped.  The survivors' rows are computed by
    the same expression, row by row, as a full enumeration, so the minimum
    and its first index come out equal.

    Margin.  Let u = 2^-53 and let pow be within 4 ulp.  A computed term
    fl(w_j fl(|fl(v_i - v_j)|^p)) is within 7u relative of the exact term,
    give or take (w_j + 1) 2^-1074 where pow or the product is subnormal (a
    subnormal difference is exact).  Summing n nonnegative terms in any
    order adds (n - 1)u.  Each weight term fl(w_j fl(fl(b_g - v_j) /
    fl(b_g - a_g))) is within 4u of w_j lambda_j, give or take (w_j + 1)
    2^-1074, so a computed A_g or B_g is within (n + 3)u relative and (W_g +
    n) 2^-1074 absolute of its own (W_g the group's weight); the absolute
    part meets a power of at most R^p (R = v_max - v_min), and the bound
    sums 2G terms.  So a computed error and a computed bound are each within
    d = 2(n + 2G)u relative and A = (W + n + 2G + 4(W + n) R^p) 2^-1074
    absolute of their exact values (W the total weight), and the exact bound
    is at most the exact error.  A computed bound L > U (1 + 4d) + 4A then
    gives a computed error >= (L - A)(1 - 2d) - A > U >= the computed
    minimum: the candidate is neither the minimum nor tied with it.  The
    absolute term keeps this true where terms underflow and U d rounds to
    zero.  Overflow rounds upwards only: U or R^p = inf drops nothing, and
    a bound that is nan (0 inf) drops nothing either.
    """
    n = v.size
    if n <= _ENUM_DIRECT:
        errs = _enum_errs(v, w, p, slice(None))
        j = int(errs.argmin())
        return j, float(errs[j])
    cw = np.cumsum(w)
    total = float(cw[-1])
    med = int(np.searchsorted(cw, total / 2.0))
    near = np.arange(max(0, med - 2), min(n, med + 3))
    upper = float(_enum_errs(v, w, p, near).min())
    live = np.arange(n)
    slack = 4.0 * (total + n) * float(v[-1] - v[0]) ** p
    for groups in _PRUNE_GROUPS:
        if groups >= n:
            break
        start = (np.arange(groups) * n) // groups
        group = np.repeat(np.arange(groups), np.diff(start, append=n))
        lo, hi = v[start], v[np.append(start[1:], n) - 1]
        span = (hi - lo)[group]
        wide = span > 0.0  # a group of one value puts its weight on a_g
        w_lo = np.add.reduceat(w * np.divide(hi[group] - v, span, out=np.ones(n), where=wide), start)
        w_hi = np.add.reduceat(w * np.divide(v - lo[group], span, out=np.zeros(n), where=wide), start)
        bounds = []
        for rows in _blocks(live, 2 * groups):
            c = v[rows, None]
            own = np.arange(rows.size), group[rows]
            to_lo, to_hi = np.abs(lo - c), np.abs(hi - c)
            to_lo[own] = to_hi[own] = 0.0
            bounds.append(np.power(to_lo, p, out=to_lo) @ w_lo + np.power(to_hi, p, out=to_hi) @ w_hi)
        bound = np.concatenate(bounds)
        upper = min(upper, float(_enum_errs(v, w, p, live[bound.argmin(), None])[0]))
        limit = (
            upper
            + 8.0 * (n + 2 * groups) * _UNIT_ROUNDOFF * upper
            + 4.0 * (total + n + 2 * groups + slack) * _SMALLEST_SUBNORMAL
        )
        live = live[~(bound > limit)]
    best_i, best = -1, math.inf
    for rows in _blocks(live, n):  # ascending, so ties keep the first index
        errs = _enum_errs(v, w, p, rows)
        j = int(errs.argmin())
        if errs[j] < best:
            best_i, best = int(rows[j]), float(errs[j])
    return best_i, best


def _blocks(rows: np.ndarray, width: int):
    """``rows`` in consecutive pieces of about _ENUM_BLOCK_CELLS / width."""
    step = max(1, _ENUM_BLOCK_CELLS // width)
    return (rows[i : i + step] for i in range(0, rows.size, step))


def best_constant_error(hist: ValueHistogram, p: float) -> tuple[float, float]:
    """Minimize sum_i w_i |v_i - xi|^p over xi.

    Returns (minimizer, minimal p-th power error).  For p <= 1 the objective
    is concave between data values, so the minimum sits on a data value:
    :func:`_enum_best` finds the first minimizing value, pruning candidates
    by certified bounds above 128 values, and the error is recomputed there
    with a correctly rounded sum.  p = 1 uses the weighted median and p = 2
    the weighted mean; ties resolve to the smallest minimizing value.  Other
    p > 1 take :func:`_power_root`'s root of the derivative: the minimizer
    returned is a point whose error is certified within ``_ROOT_EPS``
    (1e-13) of the minimum, relative, or one the bracket's width floor pins
    down, and the error is summed there with a correctly rounded sum.  An
    error beyond double range raises ``ValueError``.
    """
    _check_exponent(p)
    if not hist.entries:
        raise ValueError("empty histogram")
    with np.errstate(over="ignore", invalid="ignore"):
        xi, err = _best_constants(hist.values[None, :], hist.measures[None, :], p)
    if not math.isfinite(err[0]):
        raise ValueError("the best-constant error overflows double range")
    return float(xi[0]), err[0]


def _best_constants(v: np.ndarray, w: np.ndarray, p: float) -> tuple[np.ndarray, list[float]]:
    """:func:`best_constant_error` on each row of the (rows, n) values ``v``,
    each row strictly increasing, and measures ``w``, its results unchecked:
    every row is reduced on its own, as it would be alone, and an error that
    overflows is inf or nan."""
    rows, n = v.shape
    if n == 1:
        return v[:, 0], [0.0] * rows
    if p == 2.0:
        xi = np.divide(_exact_row_sums(w * v), _exact_row_sums(w))
        return xi, _exact_row_sums(w * (v - xi[:, None]) ** 2)
    if p == 1.0:
        cw = np.cumsum(w, axis=1)
        xi = v[np.arange(rows), (cw < cw[:, -1:] / 2.0).sum(axis=1)]  # the weighted median
    elif p < 1.0:  # values ascend: the first minimizer is the smallest
        if n <= _ENUM_DIRECT:
            blocks = _blocks(np.arange(rows), n * n)
            j = np.concatenate([_enum_errs(v[b], w[b], p, slice(None)).argmin(axis=1) for b in blocks])
        else:
            j = [_enum_best(vr, wr, p)[0] for vr, wr in zip(v, w)]
        xi = v[np.arange(rows), j]
    else:
        xi = _power_root(v, w, p)
    return xi, _exact_row_sums(w * np.abs(v - xi[:, None]) ** p)


def _row_best_err_ppow(rows: np.ndarray, p: float, cells: int | None = None) -> np.ndarray:
    """Per-row min over xi of sum_j |rows[i, j] - xi|^p (unit weights).

    :func:`_dense_terms` passes the level-k cubes where f varies (every
    cube at p = 2); a constant row costs as much as any other and its error
    is exactly 0.0.  For p < 1 the minimum is enumerated over the row's own
    values: rows of 256 cells or more go one by one through
    :func:`_enum_best` on their distinct values weighted by counts, which
    prunes candidates by certified bounds above 128 distinct values; shorter
    rows are enumerated together, O(cells^2) per row, in chunks of
    max(1, 2^22 // ``cells``) candidates, ``cells`` the size of the whole
    level-k matrix (``rows.size`` by default): a chunk of 1 sums each column
    pairwise, a wider one in sequence, so the width fixes the bits.  p = 1
    takes the median and p = 2 the mean; other p > 1 sum the error at the
    point :func:`_power_root` certifies within ``_ROOT_EPS`` of each row's
    minimum, every row stopping on its own certificate; the solver holds
    rows of fewer than 8 cells cells by rows, where numpy's sum across them
    adds in the same sequence as along a row, so the point has the bits of
    a row-by-row solve.
    """
    ncubes, nvals = rows.shape
    if p == 2.0:
        mu = rows.mean(axis=1, keepdims=True)
        return ((rows - mu) ** 2).sum(axis=1)
    if p == 1.0:
        med = np.sort(rows, axis=1)[:, (nvals - 1) // 2, None]
        return np.abs(rows - med).sum(axis=1)
    if p < 1.0:
        if nvals >= 256:
            out = np.empty(ncubes)
            for i, row in enumerate(rows):
                vals, counts = np.unique(row, return_counts=True)
                out[i] = _enum_best(vals, counts, p)[1]
            return out
        chunk = max(1, (1 << 22) // (rows.size if cells is None else cells))
        best = np.full(ncubes, np.inf)
        for c0 in range(0, nvals, chunk):
            cand = rows[:, None, c0 : c0 + chunk]
            errs = (np.abs(rows[:, :, None] - cand) ** p).sum(axis=1)
            best = np.minimum(best, errs.min(axis=1))
        return best
    xi = _power_root(rows, None, p)
    return (np.abs(rows - xi[:, None]) ** p).sum(axis=1)


#: Relative excess over the minimum error at which :func:`_power_root` stops a row.
_ROOT_EPS = 1e-13
#: Most points :func:`_power_root` evaluates per row.
_ROOT_STEPS = 200
#: The sign bit of a double, as an int64 mask.
_SIGN_BIT = np.int64(np.iinfo(np.int64).min)


def _power_root(rows: np.ndarray, w, p: float) -> np.ndarray:
    """Per row, a point y with E(y) = sum_j w_j |v_j - y|^p within ``_ROOT_EPS``
    E(y) of the minimum, for p > 1 (``w`` None: unit weights, else one row of
    weights per row of values).

    ITP steps (Oliveira & Takahashi 2020) on g = E'/p, which increases, keep
    ends a < b with g(a) <= 0 < g(b), never more than one step beyond
    bisection; while an end's g is unknown the step is the midpoint.  E is
    convex, so a row stops at an end y once p (|g(y)| + r)(b - a) <= eps E(y)
    with E(y) finite, where r = 2(n + p + 8)u S + n 2^-1074 bounds the
    rounding of g over n cells: each term is within (p + 8)u (u = 2^-53, pow
    within 4 ulp) or 2^-1074 where subnormal, and summing adds (n - 1)u S,
    S = sum_j w_j |y - v_j|^(p-1).  A row also stops once b - a <= 1e-13
    max(1, |a|, |b|); one that starts so returns its midpoint.

    Each step is a fixed set of whole-array operations with no Python call:
    the terms s_j = copysign(t_j, d_j), d_j s_j and t_j (d_j = y - v_j, t_j
    = w_j |d_j|^(p-1), copysign as d_j's sign bit set on t_j >= +0) are
    written into one buffer and summed by one reduction; the new point
    replaces an end by index; finished rows leave by ``take``.  128 rows or
    more of fewer than 8 cells are held cells by rows and summed across the
    cell axis: numpy adds fewer than 8 terms in sequence along either axis,
    so each sum is the double a reduction along the row gives, and longer
    rows keep that reduction, numpy's pairwise sum of the row.
    """
    n = rows.shape[1]
    c1, c0 = 2.0 * (n + p + 8.0) * _UNIT_ROUNDOFF, n * _SMALLEST_SUBNORMAL
    lo, hi = rows.min(axis=1), rows.max(axis=1)
    xi = 0.5 * (lo + hi)
    idx = np.flatnonzero(hi - lo > 1e-13 * np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi))))
    k = idx.size
    sub, rad = rows.take(idx, axis=0), hi[idx] - lo[idx]  # rad: ITP's bound on the bracket after a step
    if w is not None:
        w = w.take(idx, axis=0)
    cols = int(n < 8 and k >= 128)
    if cols:  # cells by rows: for fewer rows the copy costs more than it saves
        sub, w = sub.T.copy(), None if w is None else w.T.copy()
    k1, ar = 0.2 / rad, np.arange(k)
    space = np.empty((4,) + sub.shape)  # d, then the terms s, d s and t, summed together
    ends = np.empty((3, 2, k))  # (point, g, widest bracket stopping there) at a and b
    ends[0], ends[1], ends[2] = (lo[idx], hi[idx]), np.nan, 0.0
    for _ in range(_ROOT_STEPS):
        if not k:
            break
        (a, b), (fa, fb), (ra, rb) = ends  # views: the new point's puts show in them
        wid = b - a
        off = wid * (fb / (fb - fa) - 0.5)  # from the regula falsi point to the midpoint
        half = 0.5 * wid
        cut = np.fmin(np.fmax(np.abs(off) - k1 * wid * wid, 0.0), rad - half)
        x = a + half - np.copysign(cut, off)
        rad *= 0.5
        buf = space[..., :k] if cols else space[:, :k]
        d, s, ds, t = buf
        np.subtract(x if cols else x[:, None], sub, out=d)
        np.abs(d, out=t)
        t **= p - 1.0
        if w is not None:
            t *= w
        sign = s.view(np.int64)  # s = copysign(t, d)
        np.bitwise_and(d.view(np.int64), _SIGN_BIT, out=sign)
        sign |= t.view(np.int64)
        np.multiply(d, s, out=ds)
        g, e, tsum = np.add.reduce(buf[1:], axis=2 - cols)
        reach = e * (_ROOT_EPS / p) / (np.abs(g) + c1 * tsum + c0)
        reach = np.maximum(np.where(e < np.inf, reach, 0.0), 1e-13 * np.maximum(1.0, np.abs(x)))
        pos = ar + k * (g > 0)  # the end the new point replaces
        for field, value in zip(ends.reshape(3, -1), (x, g, reach)):
            field[pos] = value
        done = b - a <= np.maximum(ra, rb)
        if done.any():
            xi[idx[done]] = np.where(ra >= rb, a, b)[done]
            keep = np.flatnonzero(~done)
            k, ar = keep.size, ar[: keep.size]
            idx, rad, k1, ends = idx[keep], rad[keep], k1[keep], ends.take(keep, axis=2)
            sub = sub.take(keep, axis=cols)
            if w is not None:
                w = w.take(keep, axis=cols)
    (a, b), _, (ra, rb) = ends
    xi[idx] = np.where(ra >= rb, a, b)
    return xi


def _dense_terms(f: DyadicStepFunction, k: int, p: float) -> list[float] | np.ndarray:
    """The p-th power errors, unit cell weights, of a dense f on the level-k
    cubes where its pyramid says it varies; a constant cube's error is
    exactly 0.0 on every branch, and fsum drops it.  At p < 1 a cube of 256
    cells or more is read as the value histogram of the maximal constant
    cubes below it, the same entries ``np.unique`` finds in its row, unless
    no level-(m-1) cube is constant and the cells are those cubes.  At p = 2
    every cube is evaluated: numpy's pairwise mean of 64 or more equal
    values can be inexact, and the constant cube's error with it."""
    n = 1 << ((f.level - k) * f.d)  # cells per level-k cube
    rows = _cube_blocks(f.values, k)
    if p != 2.0:
        pyr = f._pyramid or f._cube_pyramid()
        if p < 1.0 and n >= 256 and pyr.any_constant:
            vals, counts, bounds = pyr.histograms(k)
            return [_enum_best(vals[a:b], counts[a:b], p)[1] for a, b in zip(bounds, bounds[1:])]
        if pyr.vary[k] is not None:
            rows = rows[pyr.vary[k]]
    return _row_best_err_ppow(rows.reshape(-1, n), p, f.values.size)


def approx_error(f, k: int, p: float) -> float:
    """Best L_p approximation error by level-k piecewise constants.

    Only cubes on which f is non-constant contribute.  A dense f's cached
    pyramid names those cubes, and every branch but p = 2 (see
    :func:`_dense_terms`) gathers their rows alone; at p < 1 a row of 256
    cells or more takes its value histogram from the maximal constant cubes
    below it, so the cost follows the cubes where f varies rather than the
    grid, and on cubes with many distinct values the enumeration evaluates
    only the candidates that certified lower bounds cannot rule out, with
    the same result bit for bit.  For sparse inputs the cubes are
    the level-k ancestors of the deeper atoms: their histograms come as
    arrays from the one builder of f's cached atom forest (every level of a
    profile in one pass), and their best constants are evaluated together,
    grouped by histogram length, so the cost follows the atom count rather
    than the grid size.  An E_k beyond double range raises
    ``ValueError``.  p, k and the type of f are checked here, and
    :func:`approximation_profile` reads every level through the same body.
    """
    _check_exponent(p)
    k = _integer(k, "k", 0)
    if not isinstance(f, (DyadicStepFunction, SparseStepFunction)):
        raise TypeError("expected a step function")
    with np.errstate(over="ignore", invalid="ignore"):
        return _approx_error(f, k, p)


def _approx_error(f, k: int, p: float, terms: list[float] | None = None) -> float:
    """:func:`approx_error` on checked arguments, under the caller's error
    state; ``terms`` are a sparse f's level-k errors from :func:`_sparse_terms`
    when the caller has them."""
    try:
        # only E_k is checked: a p < 1 candidate whose error overflows is
        # never the minimum of a finite E_k
        if isinstance(f, SparseStepFunction):
            e = math.fsum(_sparse_terms(f, [k], p)[0] if terms is None else terms) ** (1.0 / p)
        elif k >= f.level:
            e = 0.0
        else:
            e = (stable_sum(_dense_terms(f, k, p)) * f.cell_measure) ** (1.0 / p)
    except OverflowError:  # raised by fsum and by Python's float powers
        e = math.inf
    if not math.isfinite(e):
        raise ValueError(f"the approximation-route error E_{k} overflows double range")
    return e


def _sparse_terms(f: SparseStepFunction, levels, p: float) -> list[np.ndarray]:
    """For each of the ascending ``levels``, the p-th power errors of f on its
    level-k cubes where it may vary, the best constants of all levels evaluated
    together, one stack of rows per histogram length.  A cube whose measure
    underflows to zero has no entries and adds 0.0."""
    values, measures, bounds, level, _ = f._atom_forest().histograms(levels)
    lengths = np.diff(bounds)
    terms = np.zeros(len(lengths))
    for n in np.unique(lengths[lengths > 0]).tolist():
        rows = np.flatnonzero(lengths == n)
        cells = bounds[rows, None] + np.arange(n)
        terms[rows] = _best_constants(values[cells], measures[cells], p)[1]
    return np.split(terms, np.searchsorted(level, levels))[1:]


@dataclass(frozen=True)
class ApproxProfile:
    """L_p norm plus the best-approximation errors E_k for k = 0..L-1."""

    p: float
    lp_norm: float
    e_values: np.ndarray


def approximation_profile(f, p: float) -> ApproxProfile:
    """The (E_k) profile up to the finest level of f, each E_k as :func:`approx_error` gives it."""
    _check_exponent(p)
    top = _finest_level(f)
    with np.errstate(over="ignore", invalid="ignore"):
        terms = _sparse_terms(f, range(top), p) if isinstance(f, SparseStepFunction) else [None] * top
        e = np.array([_approx_error(f, k, p, t) for k, t in enumerate(terms)])
    return ApproxProfile(p, lp_quasinorm(f, p), e)


@_raises_on_overflow("approximation-route sum")
def a_norm_from_profile(profile: ApproxProfile, prm: BesovParams) -> float:
    if not prm.q_finite:
        raise ValueError("the approximation norm needs finite q")
    if prm.p != profile.p:
        raise ValueError("profile was computed for a different p")
    q, s = prm.q, prm.s
    terms = [
        (2.0 ** (k * s) * ek) ** q for k, ek in enumerate(profile.e_values)
    ]
    return (profile.lp_norm**q + math.fsum(terms)) ** (1.0 / q)


def a_norm(f, prm: BesovParams) -> float:
    """Approximation-route quasi-norm: (||f||_p^q + sum (2^{ks} E_k)^q)^{1/q}.

    The level sum terminates exactly at the finest level of f, beyond which
    every E_k vanishes.  f's dimension must be ``prm.d``.
    """
    _check_dimension(f, prm)
    return a_norm_from_profile(approximation_profile(f, prm.p), prm)


def _check_dimension(f, prm: BesovParams) -> None:
    _finest_level(f)  # a step function, so f.d exists
    if f.d != prm.d:
        raise ValueError("function dimension does not match the parameters")


# ---------------------------------------------------------------------------
# modulus of smoothness
# ---------------------------------------------------------------------------


@lru_cache(maxsize=16)
def _leading_pairs(d: int, size: int) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Leading-axis cell pairs of the offsets from the centre on, in C order.

    Rows index the grid reshaped to (size^(d-1), size).  For each leading
    offset n' = (n_0, ..., n_{d-2}) from the centre to the end of C order, the
    valid leading cells i (i and i + n' both in the grid) give the rows
    dst = i + n' and src = i, in C order of i.  Returns dst, src and the
    start of each offset's run of pairs, with the end appended.  The pairs
    number N^{2(d-1)} over all offsets, so a cache of them stays small.
    """
    rows = np.arange(size ** (d - 1)).reshape((size,) * (d - 1))
    offsets = list(product(range(-size, size + 1), repeat=d - 1))
    dst, src = [], []
    for n in offsets[len(offsets) // 2 :]:
        dst.append(rows[tuple(slice(max(0, k), size + min(0, k)) for k in n)].ravel())
        src.append(rows[tuple(slice(max(0, -k), size - max(0, k)) for k in n)].ravel())
    starts = list(accumulate((r.size for r in src), initial=0))
    return np.concatenate(dst), np.concatenate(src), starts


def _difference_table(V: np.ndarray, p: float) -> np.ndarray:
    """D[n] = sum over valid cells i of |V[i + n] - V[i]|^p, |n|_inf <= len(V).

    The offset -n pairs the same cells as n with negated differences in the
    same order, so D[-n] == D[n] bit for bit: only the offsets after the
    centre in C order are summed, and reversing the flat table mirrors them.
    They are built one last-axis offset b at a time: the p-th powers of every
    leading offset's cell pairs come from one expression, and each offset's
    run of them, contiguous and in the C order of its cells, is reduced on
    its own, so every entry is the pairwise sum of the offset's own
    difference array, with the same length and order.
    """
    d, size = V.ndim, V.shape[0]
    width = 2 * size + 1
    table = np.zeros((width,) * d)
    rows = table.reshape(-1, width)  # leading offset by last-axis offset
    centre = rows.shape[0] // 2
    dst, src, starts = _leading_pairs(d, size)
    grid = V.reshape(-1, size)
    ahead, behind = grid.take(dst, axis=0), grid.take(src, axis=0)
    for b in range(1 - size, size):  # |b| = size pairs no cells: D = 0
        first = 0 if b > 0 else 1  # the centre's own run lies after it for b > 0
        if first == len(starts) - 1:
            continue  # d = 1: the centre is the only leading offset
        lo, hi = max(0, -b), size - max(0, b)
        top = starts[first]
        ppow = np.abs(ahead[top:, lo + b : hi + b] - behind[top:, lo:hi]) ** p
        flat = ppow.reshape(-1)
        ends = [(s - top) * (hi - lo) for s in starts[first:]]
        for k, (i, j) in enumerate(zip(ends, ends[1:]), start=first):
            rows[centre + k, size + b] = np.add.reduce(flat[i:j])
    flat = table.reshape(-1)
    half = flat.size // 2
    flat[:half] = flat[:half:-1]
    return table


#: Sub-cell scale levels that :meth:`ModulusTable.omega_ppow` evaluates per call.
_SCALE_BLOCK = 128


def _corner_shift_max(near: dict, levels: np.ndarray, m: int, d: int) -> np.ndarray:
    """Largest p-power difference integral over the corner shifts {-t, 0, t}^d,
    for t = 2^-j at every level j > m in ``levels``.

    With t = phi * delta below the cell width delta, a cell shifted by t on
    one axis overlaps offsets 0 and 1 for 1 - phi and phi of a cell, and one
    shifted by -t offsets -1 and 0 for 1 - (1 - phi) and 1 - phi (as the
    floor split of -phi rounds them).  Each corner is the weighted sum of the
    table's entries ``near`` over its offset combinations, weights multiplied
    in axis order, terms added in combination order and zero weights
    skipped, elementwise over the levels.  The zero shift is among the
    corners; it gives D[0] = 0 and moves no maximum.
    """
    delta = 2.0**-m
    phi = np.ldexp(1.0, -levels) / delta
    rows = (
        ((-1, (1.0 - (1.0 - phi)) * delta), (0, (1.0 - phi) * delta)),
        ((0, delta),),
        ((0, (1.0 - phi) * delta), (1, phi * delta)),
    )
    best = np.zeros(phi.shape)
    for corner in product(rows, repeat=d):
        total = np.zeros(phi.shape)
        for combo in product(*corner):
            offsets, weights = zip(*combo)
            weight = math.prod(weights)
            # a skipped term is +0.0, which leaves the nonnegative total as it is
            term = np.zeros(phi.shape)
            total += np.multiply(weight, near[offsets], out=term, where=weight > 0.0)
        best = np.maximum(best, total)
    return best


class ModulusTable:
    """Cached first-order modulus values omega(2^-j, f)_p for one (f, p).

    The supremum over shifts ||y||_inf <= t is attained on grid shifts
    (the shifted p-power integral is affine in each fractional offset per
    shift cell, so box suprema sit at vertices).  For t at or above the cell
    width that is a box maximum over the integer-offset difference table D;
    below it, a maximum over the 3^d - 1 corner shifts, each a weighted sum
    of the table's entries on {-1, 0, 1}^d, evaluated exactly.  Both kinds of
    scale are cached in one dict by j; the sub-cell levels are evaluated in
    blocks of ``_SCALE_BLOCK`` consecutive levels from m + 1, a block at its
    first read, in one vectorised call that gives each level the value of
    its own scalar sum.  The table is checked once, when built: a non-finite
    entry raises a ``ValueError`` naming the modulus route.  Each scale is a
    maximum or a sum of entries with total weight at most 1, so it is finite.
    """

    def __init__(self, f, p: float):
        _check_exponent(p)
        if not isinstance(f, DyadicStepFunction):
            f = densify(f)
        self.f = f
        self.p = p
        self._scales: dict[int, float] = {}

    @cached_property
    def _table(self) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            table = _difference_table(self.f.values, self.p)
        if not np.isfinite(table).all():
            raise ValueError("the modulus-route difference table overflows double range")
        return table

    def _box_ppow(self, half: int) -> float:
        """omega^p over the shifts |n|_inf <= half cells: the table's box maximum."""
        nmax = 1 << self.f.level
        box = self._table[(slice(nmax - half, nmax + half + 1),) * self.f.d]
        return float(box.max()) * self.f.cell_measure

    @cached_property
    def _near(self) -> dict[tuple[int, ...], float]:
        """The table's entries on the offsets {-1, 0, 1}^d, by offset."""
        nmax = 1 << self.f.level
        near = self._table[(slice(nmax - 1, nmax + 2),) * self.f.d]
        return dict(zip(product((-1, 0, 1), repeat=self.f.d), near.ravel().tolist()))

    def omega_ppow(self, j: int) -> float:
        j = _integer(j, "j", 0)
        if j not in self._scales:
            m = self.f.level
            if j <= m:
                self._scales[j] = self._box_ppow(1 << (m - j))
            else:
                start = j - (j - m - 1) % _SCALE_BLOCK  # blocks m+1.., m+129.., ...
                levels = np.arange(start, start + _SCALE_BLOCK)
                scales = _corner_shift_max(self._near, levels, m, self.f.d)
                self._scales.update(zip(levels.tolist(), scales.tolist()))
        return self._scales[j]

    @_raises_on_overflow("modulus-route omega")
    def omega(self, j: int) -> float:
        return self.omega_ppow(j) ** (1.0 / self.p)

    @_raises_on_overflow("modulus-route scale sum")
    def b_norm(self, prm: BesovParams) -> float:
        """Modulus-route quasi-norm reusing this table's cached values."""
        if not prm.q_finite:
            raise ValueError("the modulus norm needs finite q")
        if prm.p != self.p:
            raise ValueError("table was built for a different p")
        if prm.is_degenerate:
            raise ValueError("s >= 1/p: the modulus scale sum diverges")
        _check_dimension(self.f, prm)
        q, s = prm.q, prm.s
        total = lp_quasinorm(self.f, self.p) ** q
        consec = j = 0
        while True:
            w = self.omega_ppow(j) ** (1.0 / self.p)  # omega(j), read once per level
            if w == 0.0 and j >= self.f.level:
                if self.f.values.min() < self.f.values.max():
                    # omega^p underflowed: the tail it drops need not be small
                    raise ValueError(f"the modulus-route scale sum underflows at j = {j}")
                break  # constant function: all further scales vanish
            term = (2.0 ** (j * s) * w) ** q
            total += term
            consec = consec + 1 if total > 0.0 and term < 1e-9 * total else 0
            if consec >= 3:
                break
            j += 1
        return total ** (1.0 / q)


@_raises_on_overflow("modulus-route omega")
def modulus(f, t: float, p: float) -> float:
    """First-order L_p modulus omega(t, f)_p for a grid-aligned bound t.

    t must be a positive multiple of the cell width 2^-m of f's finest level,
    at most 1; the supremum is then exactly a maximum over integer grid
    shifts, read from the box |n|_inf <= t 2^m of the same table as
    :class:`ModulusTable`.
    """
    table = ModulusTable(f, p)
    r = t * (1 << table.f.level)
    n = round(r) if 0.0 < t <= 1.0 else 0
    if n < 1 or abs(r - n) > 1e-9 * max(1.0, r):
        raise ValueError("t must be a multiple of the cell width in (0, 1]")
    return table._box_ppow(n) ** (1.0 / p)


def b_norm_modulus(f, prm: BesovParams) -> float:
    """Modulus-route quasi-norm with the scale integral discretized dyadically.

    (||f||_p^q + sum_j (2^{js} omega(2^-j, f)_p)^q)^{1/q}; scales at or above
    the cell width are box maxima of the integer-offset difference table,
    built one last-axis offset at a time; scales below the grid are evaluated
    exactly via fractional shifts, as weighted sums of the table's entries on
    the offsets {-1, 0, 1}^d, in blocks of levels; and the sum stops once
    three consecutive terms drop below 1e-9 of the running total.  If omega^p
    of a non-constant f underflows to 0 first, it raises ``ValueError``.
    """
    return ModulusTable(f, prm.p).b_norm(prm)


# ---------------------------------------------------------------------------
# coefficient-side L_p norms
# ---------------------------------------------------------------------------


@_raises_on_overflow("square-function sum")
def square_function_norm(f, p: float) -> float:
    """L_p norm of (sum_h lambda_h^2 1_{supp h})^{1/2}, scaling term included.

    The square function S of a step function is itself a step function and
    is evaluated exactly; at p = 2 this reproduces the Parseval identity.
    S is constant on the level-(m-1) cubes, the supports of the finest Haar
    functions, and is built on that grid: each level's 2^d - 1 squares are
    added in order, as numpy sums fewer than 8 terms, onto the sums of
    their parent cube.  ||S||_p^p is then the exact sum of |S|^p 2^d over
    those cubes times 2^-md, the double the cell-by-cell sum gives; when it
    overflows, :func:`lp_quasinorm` reads S cell by cell with its log2
    fallback.  Only when a lambda^2, or a sum of them, overflows are the
    coefficients scaled by 2^-e, e the exponent of max |lambda|, and the
    norm scaled back by 2^e.
    """
    _check_exponent(p)
    c = analyze(f)
    try:
        sums, e = _square_sums(c.scaling, c.blocks, c.d), 0
    except (OverflowError, FloatingPointError):
        e = math.frexp(max([abs(c.scaling), *(float(np.abs(b).max()) for b in c.blocks)]))[1]
        blocks = [np.ldexp(b, -e) for b in c.blocks]
        sums = _square_sums(math.ldexp(c.scaling, -e), blocks, c.d)
    S, d, m = np.sqrt(sums), c.d, c.max_level
    try:  # S >= +0, so |S|^p is S ** p; for m > 0 a value covers 2^d cells
        norm = (_exact_sum(np.ldexp(S.ravel() ** p, d if m else 0)) * 2.0 ** (-m * d)) ** (1.0 / p)
    except (OverflowError, FloatingPointError):
        norm = lp_quasinorm(DyadicStepFunction(d, m, _upsample(S, m)), p)
    return math.ldexp(norm, e)


def _square_sums(scaling: float, blocks: list[np.ndarray], d: int) -> np.ndarray:
    """sum_h lambda_h^2 over the Haar functions whose support holds each
    cube of the finest block's level (the unit cube when there is none)."""
    acc = np.full((1,) * d, scaling**2)
    for b in blocks:  # block k's coefficients, on the level-(k-1) cubes
        sq = b**2
        s = sq[..., 0].copy()
        for i in range(1, sq.shape[-1]):
            s += sq[..., i]
        n = acc.shape[0]  # each parent's sum, added onto its 2^d children
        split = s.reshape((n, s.shape[0] // n) * d)
        split += acc.reshape((n, 1) * d)
        acc = s
    return acc


@_raises_on_overflow("b0221 sum")
def b0_221_weighted_sum(f) -> float:
    """(sum_k sum_{h in block k} (k+1) mu(supp h) lambda_h^2)^{1/2}."""
    c = analyze(f)
    terms = [c.scaling**2]
    for k in range(1, c.max_level + 1):
        mu = 2.0 ** (-(k - 1) * c.d)
        terms.append((k + 1) * mu * stable_sum(c.blocks[k - 1] ** 2))
    return math.sqrt(math.fsum(terms))
