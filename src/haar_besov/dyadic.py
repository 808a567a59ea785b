"""Dyadic cubes and piecewise-constant step functions on the unit cube.

Geometry is exact: a half-open dyadic cube of level k in [0,1)^d is a tuple
of integer indices, so nesting, ancestry and measure are integer operations
even at depths far beyond anything a dense grid could hold.  Two function
representations coexist:

* ``DyadicStepFunction`` -- one value per cell of the uniform level-m grid,
  stored as a d-dimensional array in row-major multi-index order.
* ``SparseStepFunction`` -- a finite sum of coefficient * indicator-of-cube
  atoms.  Coefficients are kept as sign plus log2 of magnitude, because the
  extremal families used downstream carry coefficients like 2**((k+i)*d)
  at cell depths where plain doubles overflow.

All objects are immutable values after construction and every operation is
pure.  Norm accumulations are correctly rounded sums, so results are
bit-stable across runs: ``_exact_sum`` returns ``math.fsum``'s double, by
error-free extraction into exact block sums above 1,024 words and by fsum
itself below that and for non-finite or near-overflow inputs.
"""

from __future__ import annotations

import bisect
import json
import math
import operator
from dataclasses import dataclass
from functools import wraps
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "DEFAULT_CELL_BUDGET",
    "CapacityError",
    "DyadicCube",
    "DyadicStepFunction",
    "SparseAtom",
    "SparseStepFunction",
    "ValueHistogram",
    "average_project",
    "densify",
    "lp_quasinorm",
    "stable_sum",
    "logsumexp2",
    "value_histogram",
]

#: Ceiling on the number of cells any dense grid may hold (2**26).
DEFAULT_CELL_BUDGET = 1 << 26


class CapacityError(RuntimeError):
    """A dense grid would exceed the cell budget."""

    def __init__(self, required_cells: int, budget: int):
        self.required_cells = required_cells
        self.budget = budget
        e = required_cells.bit_length() - 1
        if required_cells == 1 << e:
            need = f"2**{e}"
        else:
            need = str(required_cells)
        super().__init__(
            f"grid would need {need} cells, exceeding the budget of {budget}"
        )


def _integer(value, name: str, low: int | None) -> int:
    """``value`` as a Python int, read by ``operator.index``: a bool, a float,
    a string, None or a value below ``low`` raises a ValueError naming
    ``name``, so a parameter is never truncated, parsed or stored as numpy."""
    if type(value) is int and (low is None or value >= low):
        return value  # the common case: no bool, no numpy, no conversion
    try:
        v = operator.index(value)
    except TypeError:
        v = None
    if v is None or isinstance(value, bool) or low is not None and v < low:
        bound = "" if low is None else f" >= {low}"
        raise ValueError(f"{name} must be an integer{bound}, got {value!r}")
    return v


def _check_budget(d: int, level: int) -> None:
    cells = 1 << (_integer(level, "level", 0) * _integer(d, "d", 1))
    if cells > DEFAULT_CELL_BUDGET:
        raise CapacityError(cells, DEFAULT_CELL_BUDGET)


def _check_exponent(p: float) -> None:
    if not (p > 0) or math.isinf(p):
        raise ValueError("p must be a positive finite exponent")


def _raises_on_overflow(route: str):
    """Make the decorated route raise a ``ValueError`` naming ``route`` when
    its arithmetic overflows: numpy raises inside it, as Python's float
    powers and ``math.fsum`` do, and a total that rounded to inf raises too.
    """

    def decorate(fn):
        @wraps(fn)
        def run(*args, **kwargs):
            try:
                with np.errstate(over="raise"):
                    total = fn(*args, **kwargs)
            except (OverflowError, FloatingPointError):
                total = math.inf
            if total == math.inf:
                raise ValueError(f"the {route} overflows double range")
            return total

        return run

    return decorate


#: Arrays shorter than this are summed by ``math.fsum`` word by word.
_EXACT_SUM_CUTOFF = 1 << 10
#: Words per block of the extraction (two scratch buffers of 128 KB).
_EXACT_SUM_BLOCK = 1 << 14


def _exact_sum(a: np.ndarray) -> float:
    """``math.fsum(a)`` of a 1-d float array, the same double, by error-free
    extraction (Rump, Ogita & Oishi, SIAM J. Sci. Comput. 31(1), 2008).

    In a block of n words with max |r| < 2^e, let sigma = 2^(e+lg) with
    2^lg >= n + 2.  Then q = (r + sigma) - sigma and r - q are exact, each q
    is a multiple of 2^(e+lg-53) of magnitude at most 2^e, so ``q.sum()`` is
    exact in any order, and the remainders r - q are at most 2^(e+lg-54):
    each pass takes at least 38 bits off e.  A block is extracted until its
    remainders vanish or sigma would fall below 2^-1000, where its nonzero
    remainders join the exact parts as they are.  The parts sum exactly to
    the sum of ``a``, and fsum rounds that exact sum correctly, so the double
    is fsum's own.  Arrays below the cutoff, and arrays holding an inf, a nan
    or a word above 2^960, go to fsum whole, so its special values and
    overflow errors stay as they are.
    """
    n = a.size
    if n < _EXACT_SUM_CUTOFF:
        return math.fsum(a.tolist())
    parts = []
    size = min(n, _EXACT_SUM_BLOCK)
    r_buf, t_buf = np.empty(size), np.empty(size)
    for i in range(0, n, size):
        r = a[i : i + size]
        t = t_buf[: r.size]
        lg = (r.size + 1).bit_length()
        mx = float(np.abs(r, out=t).max())
        if not mx <= 2.0**960:
            return math.fsum(a)
        while mx != 0.0:
            e = math.frexp(mx)[1] + lg
            if e < -1000:
                break
            sigma = math.ldexp(1.0, e)
            np.add(r, sigma, out=t)
            np.subtract(t, sigma, out=t)
            parts.append(float(t.sum()))
            r = np.subtract(r, t, out=r_buf[: r.size])
            mx = float(np.abs(r, out=t).max())
        if mx != 0.0:
            parts.extend(r[r != 0.0].tolist())
    if not parts:  # every word is a zero, and fsum's rule signs the zero
        parts = [-0.0 if np.signbit(a).all() else 0.0]
    return math.fsum(parts)


def _exact_row_sums(a: np.ndarray) -> list[float]:
    """:func:`_exact_sum` of each row of a 2-d array, with inf where fsum
    overflows and nan where it meets inf - inf."""
    short = a.shape[1] < _EXACT_SUM_CUTOFF  # then _exact_sum is fsum of the list
    sums = []
    for r in a.tolist() if short else a:
        try:
            sums.append(math.fsum(r) if short else _exact_sum(r))
        except OverflowError:
            sums.append(math.inf)
        except ValueError:
            sums.append(math.nan)
    return sums


def stable_sum(values) -> float:
    """Fixed-order, correctly rounded sum: ``math.fsum`` of the flattened array.

    Arrays are flattened in row-major order first and summed by the exact
    extraction kernel (fsum itself below 1,024 words and for non-finite or
    near-overflow inputs), which returns fsum's double at any length.
    """
    return _exact_sum(np.ascontiguousarray(values, dtype=float).ravel())


def logsumexp2(log2_terms) -> float:
    """log2 of a sum of nonnegative terms given by their log2 values."""
    a = np.asarray(log2_terms, dtype=float).ravel()
    if a.size == 0:
        return -math.inf
    m = float(np.max(a))
    if m == -math.inf or math.isinf(m):
        return m
    return m + math.log2(_exact_sum(np.exp2(a - m)))


@dataclass(frozen=True)
class DyadicCube:
    """Half-open dyadic cube prod_j [i_j * 2**-k, (i_j+1) * 2**-k) in [0,1)^d.

    ``index`` components are plain Python integers, so cubes at levels in the
    thousands (as the scattered family needs) are exact.  They are read by
    ``operator.index``, and ``d`` and ``level`` by ``_integer``: a float or a
    string is rejected, not truncated.
    """

    d: int
    level: int
    index: tuple

    def __post_init__(self):
        object.__setattr__(self, "d", _integer(self.d, "d", 1))
        object.__setattr__(self, "level", _integer(self.level, "level", 0))
        try:
            idx = _indices(self.index)
        except TypeError:
            raise ValueError(f"index components must be integers, got {self.index!r}") from None
        object.__setattr__(self, "index", idx)
        if len(idx) != self.d:
            raise ValueError("index length must equal the dimension")
        top = 1 << self.level
        if any(i < 0 or i >= top for i in idx):
            raise ValueError("index components must lie in [0, 2**level)")

    @classmethod
    def root(cls, d: int) -> "DyadicCube":
        d = _integer(d, "d", 1)
        return cls(d, 0, (0,) * d)

    @property
    def log2_measure(self) -> int:
        return -self.level * self.d

    @property
    def measure(self) -> float:
        # underflows to 0.0 for very deep cubes; use log2_measure there
        return 2.0**self.log2_measure

    def child(self, bits: Sequence[int]) -> "DyadicCube":
        if len(bits) != self.d or any(b not in (0, 1) for b in bits):
            raise ValueError("child bits must be a 0/1 vector of length d")
        idx = tuple(2 * i + b for i, b in zip(self.index, bits))
        return DyadicCube(self.d, self.level + 1, idx)

    def ancestor(self, level: int) -> "DyadicCube":
        level = _integer(level, "level", 0)
        if level > self.level:
            raise ValueError("ancestor level must not exceed the cube level")
        shift = self.level - level
        return DyadicCube(self.d, level, tuple(i >> shift for i in self.index))

    def contains(self, other: "DyadicCube") -> bool:
        if other.d != self.d or other.level < self.level:
            return False
        return other.ancestor(self.level) == self

    def grid_slices(self, m: int) -> tuple:
        """Slices selecting this cube's cells inside a level-m dense grid."""
        m = _integer(m, "m", 0)
        if m < self.level:
            raise ValueError("grid level below cube level")
        w = 1 << (m - self.level)
        return tuple(slice(i * w, (i + 1) * w) for i in self.index)


def _immutable(self, name, *value):
    raise AttributeError(f"{type(self).__name__} is immutable: cannot rebind {name!r}")


class DyadicStepFunction:
    """Piecewise-constant function on the uniform level-m dyadic partition.

    Immutable, read-only ``values`` included, so the pyramid of the cubes
    where it varies is built once, on first use, and read through the slot
    ``_pyramid`` (None until then) by every route that needs it.
    """

    __slots__ = ("d", "level", "values", "_pyramid")
    __setattr__ = __delattr__ = _immutable

    def __init__(self, d: int, level: int, values):
        d, level = _integer(d, "d", 1), _integer(level, "level", 0)
        arr = np.array(values, dtype=float, order="C")
        n = 1 << level
        if arr.size != n**d:
            raise ValueError(
                f"expected {n**d} values for d={d}, level={level}, got {arr.size}"
            )
        if not np.isfinite(arr).all():
            raise ValueError("cell values must be finite (no NaN or inf)")
        arr = arr.reshape((n,) * d)
        arr.setflags(write=False)
        for name, value in (("d", d), ("level", level), ("values", arr), ("_pyramid", None)):
            object.__setattr__(self, name, value)

    def __reduce__(self):  # copies and pickles rebuild through __init__
        return type(self), (self.d, self.level, self.values)

    def _cube_pyramid(self) -> "_Pyramid":
        """The pyramid of f's varying cubes, built on first use; hot paths
        read ``f._pyramid or f._cube_pyramid()``, which costs no call once built."""
        if self._pyramid is None:
            object.__setattr__(self, "_pyramid", _Pyramid(self.values))
        return self._pyramid

    @property
    def cell_count(self) -> int:
        return 1 << (self.level * self.d)

    @property
    def cell_measure(self) -> float:
        return 2.0 ** (-self.level * self.d)

    def flat(self) -> np.ndarray:
        """Values in row-major multi-index order."""
        return self.values.ravel()

    def restrict(self, cube: DyadicCube) -> np.ndarray:
        """Cell values of the restriction to ``cube`` (dense sub-block)."""
        if cube.d != self.d:
            raise ValueError("dimension mismatch")
        if cube.level > self.level:
            raise ValueError("cube finer than the grid; densify first")
        return self.values[cube.grid_slices(self.level)]

    def __repr__(self):
        return f"DyadicStepFunction(d={self.d}, level={self.level})"


@dataclass(frozen=True)
class SparseAtom:
    """coefficient * indicator(cube), coefficient stored as sign + log2|c|."""

    cube: DyadicCube
    sign: int
    log2mag: float

    def __post_init__(self):
        object.__setattr__(self, "sign", _integer(self.sign, "sign", -1))
        if self.sign not in (-1, 0, 1):
            raise ValueError("sign must be -1, 0 or +1")
        if self.sign != 0 and not math.isfinite(self.log2mag):
            raise ValueError("a nonzero atom needs a finite log2 magnitude")

    @classmethod
    def from_value(cls, cube: DyadicCube, coefficient: float) -> "SparseAtom":
        if coefficient == 0:
            return cls(cube, 0, -math.inf)
        s = 1 if coefficient > 0 else -1
        return cls(cube, s, math.log2(abs(coefficient)))

    @property
    def value(self) -> float:
        if self.sign == 0:
            return 0.0
        try:
            return self.sign * 2.0**self.log2mag
        except OverflowError:
            c = self.cube
            raise ValueError(
                f"atom at level {c.level}, index {c.index} has log2 magnitude "
                f"{self.log2mag}, beyond double range"
            ) from None


class SparseStepFunction:
    """Finite sum of coefficient * indicator atoms over dyadic cubes.

    Atom cubes may sit at distinct levels and may nest.  Two dyadic cubes
    either nest or are disjoint, so how the atoms nest follows from their
    (level, index) keys: ``nesting_free`` and every value histogram read one
    array forest of those keys, sorted once in Z order on first use, whose
    one builder gives the histograms of all cubes asked for together.
    Immutable, so the forest always describes this f.
    """

    __slots__ = ("d", "atoms", "_forest")
    __setattr__ = __delattr__ = _immutable

    def __init__(self, d: int, atoms: Iterable[SparseAtom]):
        d = _integer(d, "d", 1)
        atoms = tuple(a for a in atoms if a.sign != 0)
        for a in atoms:
            if a.cube.d != d:
                raise ValueError("atom dimension mismatch")
        for name, value in (("d", d), ("atoms", atoms), ("_forest", None)):
            object.__setattr__(self, name, value)

    def __reduce__(self):  # copies and pickles rebuild through __init__
        return type(self), (self.d, self.atoms)

    @classmethod
    def from_terms(cls, d: int, terms) -> "SparseStepFunction":
        """Build from (cube, coefficient) pairs with plain float coefficients."""
        return cls(d, (SparseAtom.from_value(c, v) for c, v in terms))

    @property
    def max_level(self) -> int:
        return max((a.cube.level for a in self.atoms), default=0)

    @property
    def nesting_free(self) -> bool:
        """True when no atom cube contains another (a repeated cube nests)."""
        forest = self._atom_forest()
        return len(forest.keys) == len(self.atoms) and not forest.depth.any()

    def _atom_forest(self) -> "_AtomForest":
        """The atoms' (level, index) forest, built on first use."""
        if self._forest is None:
            object.__setattr__(self, "_forest", _AtomForest(self.d, self.atoms))
        return self._forest

    def __repr__(self):
        return f"SparseStepFunction(d={self.d}, atoms={len(self.atoms)})"


def function_to_json(f) -> str:
    """Serialize either representation to a JSON string."""
    if isinstance(f, DyadicStepFunction):
        obj = {"kind": "dense", "d": f.d, "m": f.level, "values": f.flat().tolist()}
    elif isinstance(f, SparseStepFunction):
        atoms = [
            {
                "level": a.cube.level,
                "index": list(a.cube.index),
                "sign": a.sign,
                "log2mag": a.log2mag,
            }
            for a in f.atoms
        ]
        obj = {"kind": "sparse", "d": f.d, "atoms": atoms}
    else:
        raise TypeError("expected a step function")
    return json.dumps(obj, sort_keys=True)


def _json_field(obj, name: str, kind=None):
    """``kind(obj[name])``, or a ValueError naming a missing or malformed field.
    Fields are integers by default, read by ``_integer``: 2.9, "2" or true
    is malformed, not truncated or parsed."""
    if not isinstance(obj, dict) or name not in obj:
        raise ValueError(f"expected a JSON object with field {name!r}")
    try:
        return _integer(obj[name], name, None) if kind is None else kind(obj[name])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"JSON field {name!r} is malformed: {exc}") from None


def _indices(v) -> tuple:
    """A sequence of integers as a tuple, read by ``operator.index``."""
    return tuple(map(operator.index, v))


def function_from_json(text: str):
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError(f"a step function is a JSON object, got {type(obj).__name__}")
    kind = obj.get("kind", "dense" if "values" in obj else "sparse")
    if kind == "dense":
        d, m = _json_field(obj, "d"), _json_field(obj, "m")
        return DyadicStepFunction(d, m, _json_field(obj, "values", list))
    if kind == "sparse":
        d = _json_field(obj, "d")
        atoms = []
        for rec in _json_field(obj, "atoms", list):
            level = _json_field(rec, "level")
            cube = _json_field(rec, "index", lambda v: DyadicCube(d, level, v))
            sign, log2mag = _json_field(rec, "sign"), _json_field(rec, "log2mag", float)
            atoms.append(SparseAtom(cube, sign, log2mag))
        return SparseStepFunction(d, atoms)
    raise ValueError(f"unknown step-function kind {kind!r}")


def _consolidate(pairs) -> list[tuple[float, float]]:
    """(value, measure) pairs, equal values merged in order, zero measures dropped, sorted."""
    acc: dict[float, float] = {}
    for v, w in pairs:
        if w != 0.0:
            v = float(v)
            acc[v] = acc.get(v, 0.0) + float(w)
    return sorted(acc.items())


@dataclass(frozen=True)
class ValueHistogram:
    """Exact multiset of (value, measure) pairs of a step function on a cube."""

    entries: tuple

    def __post_init__(self):
        ent = tuple((float(v), float(w)) for v, w in self.entries)
        object.__setattr__(self, "entries", ent)
        prev = -math.inf
        for v, w in ent:
            if not prev < v < math.inf:
                problem = "finite" if not math.isfinite(v) else "strictly increasing"
                raise ValueError(f"histogram values must be {problem}")
            if not 0.0 < w < math.inf:
                raise ValueError("histogram measures must be positive and finite")
            prev = v

    @classmethod
    def from_pairs(cls, pairs) -> "ValueHistogram":
        """Consolidate duplicate values (exact equality) and sort by value."""
        return cls(tuple(_consolidate(pairs)))

    @property
    def values(self) -> np.ndarray:
        return np.array([v for v, _ in self.entries])

    @property
    def measures(self) -> np.ndarray:
        return np.array([w for _, w in self.entries])


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def _cube_blocks(values: np.ndarray, k: int) -> np.ndarray:
    """Level-k cube view of a level-m grid (k <= m), without copying.

    The view has shape (2^k,)*d + (2^(m-k),)*d: the leading d axes index the
    level-k cube and the trailing d axes the level-m cells inside it, both
    in row-major order.
    """
    d = values.ndim
    n = 1 << k
    r = values.shape[0] >> k
    shape = sum(((n, r) for _ in range(d)), ())
    coarse = tuple(range(0, 2 * d, 2))
    fine = tuple(range(1, 2 * d, 2))
    return values.reshape(shape).transpose(coarse + fine)


def _upsample(values: np.ndarray, k: int) -> np.ndarray:
    """A level-j grid repeated onto the level-k grid (j <= k), through :func:`_cube_blocks`."""
    d = values.ndim
    out = np.empty((1 << k,) * d)
    _cube_blocks(out, values.shape[0].bit_length() - 1)[...] = values[(...,) + (None,) * d]
    return out


class _Pyramid:
    """Where a level-m grid varies, level by level: the dense mirror of
    :class:`_AtomForest`, built once per function in O(N).

    It is built bottom-up by halving one axis at a time: two halves make a
    constant cube when both are constant and their first cells are equal
    (under ``==``, so 0.0 and -0.0 are one value, as for ``np.unique``),
    and the first cells are strided views of the grid, never copied.  The
    build stops at the first level whose cubes all vary, since every coarser
    cube then varies too.  ``vary[k]`` is the mask of level-k cubes where f
    varies, in C order of the cube index, or None where every level-k cube
    varies.  ``any_constant`` tells whether some level-(m-1) cube is
    constant; only then are the maximal constant cubes (those on which f is
    constant inside a parent on which it varies) fewer than the cells, and
    only then does ``maximal`` hold them, finest level first: their values
    and the log2 of their cell counts.
    """

    __slots__ = ("values", "vary", "any_constant", "maximal", "_cubes", "_corners")

    def __init__(self, values: np.ndarray):
        d, m = values.ndim, values.shape[0].bit_length() - 1
        self.values, self.vary, self._corners = values, [None] * m, None
        every = (slice(None),)
        halves = [(every * a + (slice(0, None, 2),), every * a + (slice(1, None, 2),)) for a in range(d)]
        cubes = []  # per level j: (j, whole level?, mask of its maximal cubes, their values)
        same, v = None, values  # the level-j constant cubes (None: the cells) and first cells
        for j in range(m, 0, -1):
            s, w = same, v
            for lo, hi in halves:  # halve one axis at a time
                eq = w[lo] == w[hi]
                if s is not None:
                    eq &= s[lo]
                    eq &= s[hi]
                if not eq.any():
                    break  # every level-(j-1) cube varies, and so does every coarser one
                s, w = eq, w[lo]
            else:
                vary = ~s  # the children of these cubes, one row each:
                kids = _cube_blocks(v, j - 1)[vary].reshape(-1, 1 << d)
                if same is None:
                    keep = np.ones(kids.shape, dtype=bool)
                else:
                    keep = _cube_blocks(same, j - 1)[vary].reshape(-1, 1 << d)
                cubes.append((j, False, keep, kids[keep]))  # constant under a varying parent
                self.vary[j - 1], same, v = vary, s, w
                continue
            if j < m:  # each constant level-j cube is maximal
                cubes.append((j, True, same, v[same]))
            break
        else:
            if m:  # the root, maximal where f is constant
                cubes.append((0, True, same, v[same]))
        self.any_constant, self._cubes = bool(cubes), cubes
        self.maximal = (
            np.concatenate([c for *_, c in cubes]),
            np.concatenate([np.full(c.size, (m - j) * d) for j, *_, c in cubes]),
        ) if cubes else None

    def histograms(self, k: int) -> tuple[np.ndarray, np.ndarray, list[int]]:
        """The (value, count) histogram of each level-k cube where f varies,
        read from the maximal constant cubes below level k, which tile those
        cubes: (values, int64 cell counts, bounds), cube i's entries at
        [bounds[i], bounds[i+1]), cubes in C order and values ascending, equal
        values (under ``==``) merged as ``np.unique`` merges them.  Needs
        ``any_constant``."""
        d, m = self.values.ndim, len(self.vary)
        if self._corners is None:  # each maximal cube's first cell, one row per axis
            corners = []
            for j, whole, keep, _ in self._cubes:
                if whole:
                    idx = np.array(keep.nonzero())
                else:  # bits of the children of the row-th level-(j-1) cube where f varies
                    row, bits = keep.nonzero()
                    parents = self.vary[j - 1].ravel().nonzero()[0][row]
                    idx = 2 * np.array(np.unravel_index(parents, (1 << (j - 1),) * d))
                    idx += (bits >> np.arange(d - 1, -1, -1)[:, None]) & 1
                corners.append(idx << (m - j))
            self._corners = np.concatenate(corners, axis=1)
        s = sum(c.size for j, *_, c in self._cubes if j > k)  # finest level first
        cube = 0
        for c in self._corners[:, :s]:  # the level-k cube's C-order index
            cube = (cube << k) | (c >> (m - k))
        vals, shift = self.maximal[0][:s], self.maximal[1][:s]
        order = np.lexsort((vals, cube))
        cube, vals = cube[order], vals[order]
        new = np.empty(s, dtype=bool)
        new[:1] = True
        np.not_equal(vals[1:], vals[:-1], out=new[1:])
        new[1:] |= cube[1:] != cube[:-1]
        starts = new.nonzero()[0]
        cube = cube[starts]
        cuts = (cube[1:] != cube[:-1]).nonzero()[0] + 1
        bounds = [0, *cuts.tolist(), cube.size] if s else []
        return vals[starts], np.add.reduceat(np.left_shift(1, shift[order]), starts), bounds


def _finest_level(f) -> int:
    """``f.level`` of a dense f, ``f.max_level`` of a sparse one; else TypeError."""
    if not isinstance(f, (DyadicStepFunction, SparseStepFunction)):
        raise TypeError("expected a step function")
    return f.level if isinstance(f, DyadicStepFunction) else f.max_level


def densify(f, m: int | None = None) -> DyadicStepFunction:
    """Dense level-m view of either representation, ``average_project(f, m)``.

    m defaults to the finest level of f itself (``f.level`` for a dense
    input, ``f.max_level`` for a sparse one) and must not lie below it.
    """
    finest = _finest_level(f)
    m = finest if m is None else _integer(m, "m", 0)
    if m < finest:
        raise ValueError(f"densify level {m} lies below the finest level {finest} of f")
    return average_project(f, m)


def lp_quasinorm(f, p: float) -> float:
    """L_p quasi-norm (sum of cell-measure-weighted |value|^p, p-th root).

    Sparse functions with pairwise non-nesting atoms are handled atom by
    atom in the log2 domain, so coefficients far outside double range are
    fine; nesting atom sets go through the exact value histogram of the root
    cube, from the atom forest's one builder (as :func:`value_histogram`).
    Dense grids and histograms sum the p-th powers in doubles, and in the
    log2 domain when that sum overflows; a norm beyond double range raises
    ``ValueError`` naming its log2.  A dense grid with a constant level-(m-1)
    cube sums one power per maximal constant cube of its pyramid, times the
    cube's cell count: the same exact sum, so fsum's same double.
    """
    _check_exponent(p)
    if isinstance(f, DyadicStepFunction):
        v, w = f.values, f.cell_measure
        pyr = f._pyramid or f._cube_pyramid()
        if pyr.any_constant:
            c, shift = pyr.maximal
            ppow = lambda: _exact_sum(np.ldexp(np.abs(c) ** p, shift)) * w
        else:
            ppow = lambda: stable_sum(np.abs(v) ** p) * w
    elif isinstance(f, SparseStepFunction):
        if f.nesting_free:  # with no atoms too: the norm is 2**-inf = 0.0
            log2_terms = [p * a.log2mag - a.cube.level * f.d for a in f.atoms]
            return _norm_from_log2_terms(log2_terms, p)
        v, w = f._atom_forest().cube(DyadicCube.root(f.d))
        if not np.isfinite(v).all():
            raise ValueError("histogram values must be finite")
        ppow = lambda: _exact_sum(w * np.abs(v) ** p)
    else:
        raise TypeError("expected a step function")
    try:
        with np.errstate(over="raise"):
            return ppow() ** (1.0 / p)
    except (OverflowError, FloatingPointError):
        with np.errstate(divide="ignore"):  # a zero value is a -inf term
            log2_terms = np.log2(w) + p * np.log2(np.abs(v))
    return _norm_from_log2_terms(log2_terms, p)


def _norm_from_log2_terms(log2_terms, p: float) -> float:
    """The L_p norm whose p-th power is the sum of 2**log2_terms; one beyond
    double range raises ``ValueError`` naming its log2."""
    log2_norm = logsumexp2(log2_terms) / p
    try:
        return 2.0**log2_norm
    except OverflowError:
        raise ValueError(f"the L_{p} norm is 2**{log2_norm}, beyond double range") from None


def average_project(f, k: int) -> DyadicStepFunction:
    """Replace f by its average on every level-k cube (L_2 orthoprojection
    onto the level-k step functions).  For k at or above the resolution of a
    dense input the function is returned unchanged (re-expressed at level k
    by value replication).
    """
    k = _integer(k, "k", 0)
    if isinstance(f, DyadicStepFunction):
        if k == f.level:
            return f
        if k < f.level:
            fine = tuple(range(f.d, 2 * f.d))
            return DyadicStepFunction(f.d, k, _cube_blocks(f.values, k).mean(axis=fine))
        _check_budget(f.d, k)
        return DyadicStepFunction(f.d, k, _upsample(f.values, k))
    if not isinstance(f, SparseStepFunction):
        raise TypeError("expected a step function")
    _check_budget(f.d, k)
    return _atom_averages(f, k)


@_raises_on_overflow("average-projection sum")
def _atom_averages(f: SparseStepFunction, k: int) -> DyadicStepFunction:
    """:func:`average_project` of a sparse f on a checked level k: each atom's
    level-k averages added to the grid in atom order."""
    out = np.zeros(((1 << k),) * f.d)
    for a in f.atoms:
        c = a.cube
        if c.level <= k:
            out[c.grid_slices(k)] += a.value
        else:
            cell = tuple(map(operator.rshift, c.index, (c.level - k,) * f.d))
            # average of c's indicator over the level-k cell, in log2 space
            log2_avg = a.log2mag - (c.level - k) * f.d
            try:
                out[cell] += a.sign * 2.0**log2_avg
            except OverflowError:
                raise ValueError(
                    f"atom at level {c.level}, index {c.index} averages to "
                    f"2**{log2_avg} on its level-{k} cube, beyond double range"
                ) from None
    return DyadicStepFunction(f.d, k, out)


def value_histogram(f, cube: DyadicCube) -> ValueHistogram:
    """Exact (value, measure) multiset of f restricted to ``cube``, validated;
    a sparse f's comes from its atom forest's one builder, which evaluates
    only the atoms of the keys inside and containing ``cube``."""
    if not isinstance(f, (DyadicStepFunction, SparseStepFunction)):
        raise TypeError("expected a step function")
    if not isinstance(cube, DyadicCube):
        raise TypeError(f"expected a DyadicCube, got {type(cube).__name__}")
    if cube.d != f.d:
        raise ValueError("dimension mismatch")
    if isinstance(f, DyadicStepFunction):
        if cube.level > f.level:
            # f is constant strictly below its resolution
            cell = tuple(i >> (cube.level - f.level) for i in cube.index)
            return ValueHistogram.from_pairs([(float(f.values[cell]), cube.measure)])
        block = f.restrict(cube)
        vals, counts = np.unique(block, return_counts=True)
        w = counts * f.cell_measure
        return ValueHistogram.from_pairs(zip(vals.tolist(), w.tolist()))
    values, measures = f._atom_forest().cube(cube)
    return ValueHistogram(tuple(zip(values.tolist(), measures.tolist())))


def _z_codes(keys, d: int, deepest: int) -> list[int]:
    """Z-order codes of (level, index) keys: the index bits of each key's first
    level-``deepest`` cell, interleaved across axes, axis 0 most significant."""
    n, width = len(keys), deepest // 8 + 1  # bytes per axis
    cells = b"".join([(i << (deepest - lev)).to_bytes(width, "big") for lev, idx in keys for i in idx])
    bits = np.unpackbits(np.frombuffer(cells, np.uint8).reshape(n, d, width), axis=2)
    codes = np.packbits(bits.transpose(0, 2, 1).reshape(n, 8 * width * d), axis=1)
    return [int.from_bytes(c, "big") for c in codes]


class _AtomForest:
    """The atoms' distinct (level, index) keys under containment, as arrays
    built without evaluating any atom, and the one builder of a sparse f's
    value histograms.  ``keys`` are sorted once by Z-order code (Python ints),
    coarser first on a tie, so a key follows the keys containing it and its
    subtree runs up to ``end``.  Per key: ``level``, ``parent`` (the deepest
    key strictly containing it, or -1), ``depth`` (how many keys contain it),
    ``rank`` (of its first atom), ``region`` (its measure less its children's,
    added in key order: level ascending, ties by rank) and ``shared``, the
    deepest level k at which it and the key before it lie strictly inside one
    level-k cube, or -1.  The level-k cubes where f may vary are then the runs
    of keys deeper than k over which ``shared`` stays >= k.  ``np.bincount``
    sums add in index order."""

    def __init__(self, d: int, atoms: tuple):
        self.d, self.atoms = d, atoms
        ids: dict[tuple, int] = {}
        owner = [ids.setdefault((a.cube.level, a.cube.index), len(ids)) for a in atoms]
        keys, levels = list(ids), [lev for lev, _ in ids]
        self.deepest = deepest = max(levels, default=0)
        self.zorder = order = sorted(zip(_z_codes(keys, d, deepest), levels, range(len(keys))))
        n, self.keys = len(order), [keys[j] for *_, j in order]
        stops = [code + (1 << (deepest - lev) * d) for code, lev, _ in order]
        parent, end, depth, chain = [-1] * n, [n] * n, [0] * n, []
        for i, (code, _, _) in enumerate(order):  # chain: the keys containing key i
            while chain and code >= stops[chain[-1]]:
                end[chain.pop()] = i
            if chain:
                parent[i], depth[i] = chain[-1], len(chain)
            chain.append(i)
        self.parent, self.end, self.depth = np.array([parent, end, depth], dtype=np.int64).reshape(3, n)
        self.stops = np.array(stops, dtype=object)
        lev, self.rank = np.array([(lev, j) for _, lev, j in order], dtype=np.int64).reshape(n, 2).T
        self.level = lev
        self.atom_key = np.argsort(self.rank)[owner]  # each atom's key
        common = [(deepest * d - (a ^ b).bit_length()) // d for (a, *_), (b, *_) in zip(order, order[1:])]
        self.shared = np.append(-1, np.minimum(common, np.minimum(lev[:-1], lev[1:]) - 1))
        self.measure = np.ldexp(1.0, -lev * d)
        ranked = np.lexsort((self.rank, lev))
        self.region = self.measure - np.bincount(self.parent[ranked] + 1, self.measure[ranked], n + 1)[1:]

    def histograms(self, levels) -> tuple:
        """The histograms of f on its level-k cubes where f may vary, for each k
        of the ascending ``levels``: (values, measures, bounds, level, key), row
        r's entries at [bounds[r], bounds[r + 1]), rows by level and then Z
        order, row r on the level[r] cube holding key ``key[r]``."""
        ks = np.asarray(levels, dtype=np.int64)
        row, c = np.nonzero(self.level > ks[:, None])  # (level, key) pairs, by level, then Z order
        k = ks[row]
        first = self.shared[c] < k  # the key starts its level-k cube's run
        return (*self._rows(c, np.cumsum(first) - 1, k[first], self.parent[c[first]]), k[first], c[first])

    def cube(self, cube: DyadicCube) -> tuple[np.ndarray, np.ndarray]:
        """(values, measures) of f on one dyadic cube: the run of keys inside it,
        below the last key containing it."""
        k, deepest = cube.level, self.deepest
        m = min(k, deepest)  # keys are no deeper than m: locate the cube's level-m ancestor
        code = _z_codes([(m, tuple(i >> (k - m) for i in cube.index))], self.d, deepest)[0]
        lo = bisect.bisect_left(self.zorder, (code, k + 1))
        hi = bisect.bisect_left(self.zorder, (code + (1 << (deepest - m) * self.d),))
        # the keys before lo whose cubes reach the code contain the cube; the last is its top
        top = np.append(-1, np.flatnonzero(self.stops[:lo] > code))[-1:]
        return self._rows(np.arange(lo, hi), np.zeros(hi - lo, dtype=np.int64), np.array([k]), top)[:2]

    def _rows(self, c, run, k, top) -> tuple:
        """(values, measures, bounds) of histogram rows from (key, row) pairs:
        key c lies in row ``run``'s level-k cube, below its ``top`` key (or -1),
        whose value covers the rest.  Floats add as a scan of every atom adds
        them: a key's value is its top's chain sum (the atoms of the top and
        the keys containing it, in atom order) plus the own sums of the keys
        down to it, one at a time; equal values merge their measures in key
        order, the top's region last."""
        n = len(self.level)
        with np.errstate(over="ignore", invalid="ignore"):
            tops = np.flatnonzero(np.bincount(top + 1, minlength=n + 1)[1:])
            first_top, past_top = np.searchsorted(tops, [np.arange(n), self.end])
            read = past_top > first_top  # the keys containing a top
            read[c] = True
            atoms = np.flatnonzero(read[self.atom_key])  # only these atoms are evaluated
            at, vals = self.atom_key[atoms], np.array([self.atoms[i].value for i in atoms.tolist()])
            counts = past_top[at] - first_top[at]  # each atom adds to the tops in its key's subtree
            starts = np.repeat(first_top[at] - np.cumsum(counts) + counts, counts)
            # chain[-1], for no top, is the empty chain's 0.0
            chain = np.bincount(tops[starts + np.arange(len(starts))], np.repeat(vals, counts), n + 1)
            own = np.bincount(at, vals, n)
            t = self.depth[c] - np.append(self.depth, -1)[top[run]] - 1  # keys between top and c
            below = [chain[self.parent] + own]  # below[t][i]: key i's value t + 1 keys below its top
            for _ in range(t.max(initial=0)):
                below.append(below[-1][self.parent] + own)
            inside = np.lexsort((self.rank[c], self.level[c], run))  # by row, then key order
            direct = inside[t[inside] == 0]
            covered = np.bincount(run[direct], self.measure[c[direct]], len(top))
            rv = np.concatenate((run[inside], np.arange(len(top))))
            vv = np.concatenate((np.array(below)[t, c][inside], chain[top]))
            ww = np.concatenate((self.region[c[inside]], np.ldexp(1.0, -k * self.d) - covered))
            keep = np.flatnonzero(ww > 0)
            keep = keep[np.lexsort((vv[keep], rv[keep]))]  # stable: equal values keep their order
            rv, vv, ww = rv[keep], vv[keep], ww[keep]
            new = np.append(True, (rv[1:] != rv[:-1]) | (vv[1:] != vv[:-1]))[: len(keep)]
        return vv[new], np.bincount(np.cumsum(new) - 1, ww), np.searchsorted(rv[new], np.arange(len(top) + 1))
