"""Brute-force oracles and acceptance windows shared by the test suite.

The oracles are deliberately independent of the library's computational
paths: best constants come from candidate grids, for p < 1 from the full
enumeration of every candidate's error and for other p > 1 from the
bisection the library ran before its certified solver, coefficients from
direct quadrature, projections and errors from densified arrays,
difference-table entries one offset at a time from sliced cell values, shift
differences for any real shift as weighted sums of those entries, sub-cell
scales one level at a time in Python floats (both so that comparison is bit
for bit), sparse histograms and errors from a rescan of every atom per cube,
random words one xoshiro step at a time.  The last two helpers give the
lattice's mid-range smoothness and the level window on which criterion 10
runs ``basis-fail``.
"""

import importlib
import inspect
import math
import pkgutil
from itertools import product
from types import FunctionType

import numpy as np

import haar_besov as hb
from haar_besov.regimes import critical_smoothness
from haar_besov.rng import _JUMP_STEPS, RandomStream


def public_callables():
    """('name', callable) for every callable a module lists in ``__all__``:
    functions, classes (their constructors) and the classes' public methods,
    classmethods and staticmethods, each as 'Class.method'."""
    for info in pkgutil.iter_modules(hb.__path__):
        mod = importlib.import_module(f"haar_besov.{info.name}")
        for name in getattr(mod, "__all__", []):
            obj = getattr(mod, name)
            if callable(obj):
                yield name, obj
            if inspect.isclass(obj):
                yield from (
                    (f"{name}.{attr}", getattr(obj, attr))
                    for attr, raw in vars(obj).items()
                    if not attr.startswith("_")
                    and isinstance(raw, (FunctionType, classmethod, staticmethod))
                )


def zero_blocks(d, max_level):
    """Zero coefficient blocks of levels 1..max_level, filled before a
    ``HaarCoefficients`` is built from them (a built one is read-only)."""
    return [np.zeros((1 << (k - 1),) * d + ((1 << d) - 1,)) for k in range(1, max_level + 1)]


def grid_best_constant_err(values, weights, p, coarse=10_000, fine=2_000):
    """Candidate-grid search for min over xi of sum w|v - xi|^p.

    Candidates are a uniform grid joined with the data values (the objective
    has downward kinks there for p < 1), plus one refinement pass between the
    neighbours of the coarse winner.
    """
    v = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    cand = np.unique(np.concatenate([v, np.linspace(v.min(), v.max(), coarse)]))
    errs = (w[None, :] * np.abs(v[None, :] - cand[:, None]) ** p).sum(axis=1)
    j = int(np.argmin(errs))
    lo, hi = cand[max(0, j - 1)], cand[min(cand.size - 1, j + 1)]
    ref = np.linspace(lo, hi, fine)
    errs2 = (w[None, :] * np.abs(v[None, :] - ref[:, None]) ** p).sum(axis=1)
    return min(float(errs.min()), float(errs2.min()))


def enum_best_oracle(values, weights, p):
    """(first argmin, minimum) of e_i = sum_j w_j |v_i - v_j|^p, every row computed.

    The full enumeration, each candidate's row summed by the same expression
    as the library's, so a pruned search must match it bit for bit.
    """
    v = np.asarray(values, dtype=float)
    w = np.asarray(weights)
    errs = (w[None, :] * np.abs(v[:, None] - v[None, :]) ** p).sum(axis=1)
    j = int(np.argmin(errs))
    return j, float(errs[j])


def cube_rows(values, k):
    """Rows = the level-k cubes of a level-m grid in C order, columns = their
    cells in C order, by one reshape and transpose."""
    d, n = values.ndim, 1 << k
    rows = values.reshape(sum(((n, values.shape[0] >> k) for _ in range(d)), ()))
    return rows.transpose(tuple(range(0, 2 * d, 2)) + tuple(range(1, 2 * d, 2))).reshape(n**d, -1)


def row_best_err_oracle(rows, p):
    """Per-row best p < 1 error: full enumeration of the distinct values by count."""
    out = []
    for row in rows:
        vals, counts = np.unique(row, return_counts=True)
        out.append(enum_best_oracle(vals, counts, p)[1] if vals.size > 1 else 0.0)
    return np.array(out)


def bisect_best_constant(values, weights, p):
    """(xi, min over xi of sum w |v - xi|^p) for p > 1 by bisection on the
    derivative's sign.

    The library's solver up to its certified secant steps: [min, max] is
    halved until it is 1e-13 max(1, |min|, |max|) wide (200 steps at most),
    each sign from a correctly rounded sum, and the error is summed at the
    final midpoint.  Where that width is coarse against the values' spread,
    the midpoint is not the minimizer.
    """
    v = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    lo, hi = float(v.min()), float(v.max())
    scale = max(1.0, abs(lo), abs(hi))
    for _ in range(200):
        if hi - lo <= 1e-13 * scale:
            break
        mid = 0.5 * (lo + hi)
        diff = mid - v
        if math.fsum((w * np.sign(diff) * np.abs(diff) ** (p - 1.0)).tolist()) > 0:
            hi = mid
        else:
            lo = mid
    xi = 0.5 * (lo + hi)
    return xi, math.fsum((w * np.abs(v - xi) ** p).tolist())


def approx_error_grid(f, k, p, coarse=4_000):
    """E_k via an independent per-cube grid search on the densified function."""
    fd = hb.densify(f)
    if k >= fd.level:
        return 0.0
    total = []
    w = fd.cell_measure
    for idx in product(range(1 << k), repeat=fd.d):
        cube = hb.DyadicCube(fd.d, k, idx)
        block = fd.restrict(cube).ravel()
        total.append(grid_best_constant_err(block, np.full(block.size, w), p, coarse, 500))
    return math.fsum(total) ** (1.0 / p)


def sparse_histogram_rescan(atoms, cube):
    """Histogram on ``cube`` of the sum of the atoms that meet it.

    Atoms that neither contain ``cube`` nor lie inside it are skipped, so any
    atom sequence holding the ones that meet it, in the same order, gives the
    same floats.  Cubes are compared as (level, index) keys by index shifts.
    """
    lev, idx = cube.level, cube.index
    base = 0.0
    inner: dict[tuple, float] = {}
    for a in atoms:
        c = a.cube
        shift = c.level - lev
        if shift <= 0:
            if all(j == i >> -shift for i, j in zip(idx, c.index)):
                base += a.value
        elif all(i >> shift == j for i, j in zip(c.index, idx)):
            key = (c.level, c.index)
            inner[key] = inner.get(key, 0.0) + a.value

    if not inner:
        return hb.ValueHistogram.from_pairs([(base, cube.measure)])

    # each inner cube's parent is the deepest inner cube strictly containing it
    nodes = sorted(inner, key=lambda c: c[0])
    levels = sorted({c[0] for c in nodes}, reverse=True)
    parent: dict[tuple, tuple | None] = {}
    for c in nodes:
        parent[c] = None
        for up in levels:
            if up < c[0]:
                anc = (up, tuple(i >> (c[0] - up) for i in c[1]))
                if anc in inner:
                    parent[c] = anc
                    break

    covered: dict[tuple | None, float] = {}
    for c in nodes:
        covered[parent[c]] = covered.get(parent[c], 0.0) + 2.0 ** (-c[0] * cube.d)

    chain_value: dict[tuple | None, float] = {None: base}
    pairs = []
    for c in nodes:  # level-ascending, parents precede children
        chain_value[c] = chain_value[parent[c]] + inner[c]
        region = 2.0 ** (-c[0] * cube.d) - covered.get(c, 0.0)
        if region > 0:
            pairs.append((chain_value[c], region))
    root_region = cube.measure - covered.get(None, 0.0)
    if root_region > 0:
        pairs.append((base, root_region))
    return hb.ValueHistogram.from_pairs(pairs)


def approx_error_sparse_rescan(f, k, p):
    """E_k of a sparse f, each candidate cube's histogram rescanning every atom.

    The candidates are the level-k ancestors of the atoms deeper than k, in
    index order; each goes through ``sparse_histogram_rescan`` over all of
    f's atoms and ``best_constant_error``, and the errors are fsummed.
    """
    cands = {a.cube.ancestor(k) for a in f.atoms if a.cube.level > k}
    terms = [
        hb.best_constant_error(sparse_histogram_rescan(f.atoms, cube), p)[1]
        for cube in sorted(cands, key=lambda c: c.index)
    ]
    return math.fsum(terms) ** (1.0 / p) if terms else 0.0


def a_norm_grid(f, prm, coarse=4_000):
    """Approximation norm recomputed with grid-search best constants."""
    fd = hb.densify(f)
    lp = hb.lp_quasinorm(fd, prm.p)
    terms = [
        (2.0 ** (k * prm.s) * approx_error_grid(fd, k, prm.p, coarse)) ** prm.q
        for k in range(fd.level)
    ]
    return (lp**prm.q + math.fsum(terms)) ** (1.0 / prm.q)


def analyze_direct(f):
    """Haar coefficients by direct quadrature: <f, h> / <h, h> per index."""
    out = {}
    for k in range(f.level + 1):
        for idx in hb.level_indices(f.d, k):
            h = hb.densify(hb.haar_function(idx), f.level)
            num = math.fsum((f.values * h.values).ravel()) * f.cell_measure
            out[idx] = num / idx.support.measure
    return out


def block_l1_ppow_sum(g, k, p):
    """sum over level-k cubes of ||g||_{L1(cube)}^p."""
    total = []
    for idx in product(range(1 << k), repeat=g.d):
        cube = hb.DyadicCube(g.d, k, idx)
        l1 = math.fsum(np.abs(g.restrict(cube)).ravel()) * g.cell_measure
        total.append(l1**p)
    return math.fsum(total)


def square_function_full_grid(f):
    """The square function on the full level-m grid: each level's sums
    repeated onto the next level's cells, the squares of a cube summed by
    numpy along their axis, and the root repeated onto every cell.  Overflow
    raises numpy's FloatingPointError or Python's OverflowError."""

    def refine(values):  # every cell repeated twice along each axis
        for axis in range(values.ndim):
            values = np.repeat(values, 2, axis=axis)
        return values

    with np.errstate(over="raise"):
        c = hb.analyze(f)
        d, m = c.d, c.max_level
        acc = np.full((1,) * d, c.scaling**2)
        for k in range(1, m + 1):
            acc = (refine(acc) if k > 1 else acc) + (c.blocks[k - 1] ** 2).sum(axis=-1)
        return hb.DyadicStepFunction(d, m, refine(np.sqrt(acc)) if m else np.sqrt(acc))


def square_function_norm_full_grid(f, p):
    """``lp_quasinorm`` of :func:`square_function_full_grid`, the
    square-function norm read cell by cell."""
    S = square_function_full_grid(f)
    with np.errstate(over="raise"):
        return hb.lp_quasinorm(S, p)


def xoshiro_step(state):
    """One xoshiro256** step of every column of a (4, lanes) state, out of
    place, as the algorithm is written: the output words and the next state."""

    def _rotl(x, r):
        r = np.uint64(r)
        return (x << r) | (x >> (np.uint64(64) - r))

    with np.errstate(over="ignore"):
        s0, s1, s2, s3 = state
        out = _rotl(s1 * np.uint64(5), 7) * np.uint64(9)
        t = s1 << np.uint64(17)
        s2 = s2 ^ s0
        s3 = s3 ^ s1
        s1 = s1 ^ s2
        s0 = s0 ^ s3
        s2 = s2 ^ t
        s3 = _rotl(s3, 45)
        return out, np.stack([s0, s1, s2, s3])


class StepwiseStream(RandomStream):
    """The stream by its definition: every draw runs one :func:`xoshiro_step`
    of the 64 lanes per 64 words, with no jump and none of the library's own
    stepping code, and uniforms are converted out of place.

    ``uniform`` and ``normal`` on this stream are the oracle for chained
    draws.
    """

    def random_u64(self, n):
        words = [np.zeros(0, dtype=np.uint64)]
        for _ in range(-(-n // 64)):
            out, self._state = xoshiro_step(self._state)
            words.append(out)
        return np.concatenate(words)[:n]

    def uniform(self, n, lo=0.0, hi=1.0):
        u = (self.random_u64(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53
        return lo + u * (hi - lo)


def jump_table_by_squaring():
    """The draw's jump table M^L by repeated squaring, sharing no code with
    the walk that builds it: row c of M^T, the image of state bit c, is one
    :func:`xoshiro_step` of the state with only bit c set; L = 2^7 = 128
    steps are seven GF(2) squarings (exact in float64, every sum at most
    256); entry [k, v] of the (32, 256, 4) table is the XOR of the images of
    the set bits of byte value v at byte k."""
    unit = np.zeros((4, 256), dtype=np.uint64)
    c = np.arange(256)
    unit[c // 64, c] = np.uint64(1) << (c % 64).astype(np.uint64)
    _, unit = xoshiro_step(unit)
    octets = np.ascontiguousarray(unit.T, dtype="<u8").view(np.uint8)
    rows = np.unpackbits(octets, axis=1, bitorder="little").astype(np.float64)
    assert _JUMP_STEPS == 1 << 7
    for _ in range(7):
        rows = (rows @ rows) % 2.0
    images = np.packbits(rows.astype(np.uint8), axis=1, bitorder="little")
    images = images.view("<u8").astype(np.uint64).reshape(32, 8, 4)
    table = np.zeros((32, 256, 4), dtype=np.uint64)
    for v in range(256):
        for b in range(8):
            if v >> b & 1:
                table[:, v] ^= images[:, b]
    return table


def random_sparse(rng, d, n_atoms, max_level=4):
    """Random sparse function with possibly nesting atoms (test fixture)."""
    terms = []
    for _ in range(n_atoms):
        lev = int(rng.integers(0, max_level + 1))
        idx = tuple(int(rng.integers(0, 1 << lev)) for _ in range(d))
        coeff = float(rng.uniform(-2, 2))
        terms.append((hb.DyadicCube(d, lev, idx), coeff))
    return hb.SparseStepFunction.from_terms(d, terms)


def nesting_free_oracle(atoms):
    """True when no atom cube contains another, by pairwise ``contains``.

    A cube contains itself, so a repeated cube counts as nesting.
    """
    cubes = [a.cube for a in atoms]
    return not any(
        a.contains(b) for i, a in enumerate(cubes) for j, b in enumerate(cubes) if i != j
    )


def direction_difference_sums(values, p):
    """{n: sum over valid cells of |V[i + n] - V[i]|^p} for n in {-1,0,1}^d minus 0."""
    V = np.asarray(values, dtype=float)
    size = V.shape[0]
    out = {}
    for n in product((-1, 0, 1), repeat=V.ndim):
        if any(n):
            src = tuple(slice(max(0, -nj), size - max(0, nj)) for nj in n)
            dst = tuple(slice(max(0, nj), size - max(0, -nj)) for nj in n)
            out[n] = math.fsum(np.abs(V[dst] - V[src]).ravel() ** p)
    return out


def offset_diff_ppow_sum(V, offsets, p):
    """sum over valid cells of |V[i + offsets] - V[i]|^p (unit weights).

    One offset at a time, as one difference array summed by ``np.sum``: the
    oracle for every entry of the library's difference table.
    """
    size = V.shape[0]
    src, dst = [], []
    for nj in offsets:
        lo, hi = max(0, -nj), size - max(0, nj)
        if hi <= lo:
            return 0.0
        src.append(slice(lo, hi))
        dst.append(slice(lo + nj, hi + nj))
    diff = V[tuple(dst)] - V[tuple(src)]
    return float(np.sum(np.abs(diff) ** p))


def corner_shift_max(near, phi, delta, d):
    """One sub-cell scale: the largest corner-shift sum for t = phi * delta.

    The corner weights of a shift by t, -t or 0 per axis (offsets 0 and 1
    for 1 - phi and phi of a cell, -1 and 0 for 1 - (1 - phi) and 1 - phi),
    multiplied in axis order and summed over the offset combinations of
    every corner of {-t, 0, t}^d with zero weights skipped, one Python float
    at a time: the oracle for the library's scales evaluated over blocks of
    levels.
    """
    rows = (
        ((-1, (1.0 - (1.0 - phi)) * delta), (0, (1.0 - phi) * delta)),
        ((0, delta),),
        ((0, (1.0 - phi) * delta), (1, phi * delta)),
    )
    best = 0.0
    for corner in product(rows, repeat=d):
        total = 0.0
        for combo in product(*corner):
            offsets, weights = zip(*combo)
            weight = math.prod(weights)
            if weight > 0.0:
                total += weight * near[offsets]
        best = max(best, total)
    return best


def shift_difference_ppow(f, y, p):
    """Exact integral of |f(x+y) - f(x)|^p over {x : x, x+y in [0,1)^d}.

    Works for arbitrary real shifts: per axis the overlap of a shifted cell
    with the grid covers offset n = floor(y / delta) for 1 - phi of a cell
    and n + 1 for phi, and the integral is the weighted sum of the pure-offset
    sums over the offset combinations, zero weights skipped.
    """
    if len(y) != f.d:
        raise ValueError("shift dimension mismatch")
    delta = 2.0 ** (-f.level)
    per_axis = []
    for yj in y:
        u = yj / delta
        n = math.floor(u)
        phi = u - n
        per_axis.append(((n, (1.0 - phi) * delta), (n + 1, phi * delta)))
    total = 0.0
    for combo in product(*per_axis):
        offsets, weights = zip(*combo)
        weight = math.prod(weights)
        if weight > 0.0:
            total += weight * offset_diff_ppow_sum(f.values, offsets, p)
    return total


def mid_smoothness(p, d):
    """The midpoint of the smoothness range max(d(1/p - 1), 0) < s < 1/p."""
    return (max(critical_smoothness(p, d), 0.0) + 1.0 / p) / 2.0


def projector_window(d):
    """Levels k whose scattered family has 2^{kd-1} atoms in [2^3, 2^13].

    Below 2^3 atoms the closed form's finite-N corrections (an atom tail
    with ratio 2^{-d(1-p)} and the N^{-1/2} remainder of the level sum)
    dominate the growth rate.
    """
    return range(-(-4 // d), 14 // d + 1)

