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
    "signed_log2_sum",
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


def stable_sum(values) -> float:
    """Fixed-order, correctly rounded sum: ``math.fsum`` of the flattened array.

    Arrays are flattened in row-major order first and summed by the exact
    extraction kernel (fsum itself below 1,024 words and for non-finite or
    near-overflow inputs), which returns fsum's double.  Inputs above 2**20
    words are folded in 2**20-word blocks whose block sums are themselves
    fsummed, so the reduction stays deterministic and compensated.
    """
    a = np.ascontiguousarray(values, dtype=float).ravel()
    n = a.size
    block = 1 << 20
    if n <= block:
        return _exact_sum(a)
    return math.fsum(_exact_sum(a[i : i + block]) for i in range(0, n, block))


def logsumexp2(log2_terms) -> float:
    """log2 of a sum of nonnegative terms given by their log2 values."""
    a = np.asarray(log2_terms, dtype=float).ravel()
    if a.size == 0:
        return -math.inf
    m = float(np.max(a))
    if m == -math.inf or math.isinf(m):
        return m
    return m + math.log2(_exact_sum(np.exp2(a - m)))


def signed_log2_sum(signs, log2mags) -> tuple[int, float]:
    """Sum of terms ``sign * 2**log2mag`` returned as (sign, log2|sum|).

    Terms are rescaled by the dominant exponent before the float add, so the
    result is accurate relative to the largest term even when the absolute
    values are far outside double range.
    """
    s = np.asarray(signs, dtype=float).ravel()
    e = np.asarray(log2mags, dtype=float).ravel()
    keep = s != 0
    s, e = s[keep], e[keep]
    if e.size == 0:
        return 0, -math.inf
    top = float(np.max(e))
    if top == -math.inf:
        return 0, -math.inf
    v = _exact_sum(s * np.exp2(e - top))
    if v == 0.0:
        return 0, -math.inf
    return (1 if v > 0 else -1), top + math.log2(abs(v))


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


class DyadicStepFunction:
    """Piecewise-constant function on the uniform level-m dyadic partition."""

    __slots__ = ("d", "level", "values")

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
        self.d = d
        self.level = level
        self.values = arr

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
    (level, index) keys: ``nesting_free`` and the value histograms read the
    atoms' forest under containment, built once on first use.
    """

    __slots__ = ("d", "atoms", "_forest")

    def __init__(self, d: int, atoms: Iterable[SparseAtom]):
        self.d = d = _integer(d, "d", 1)
        atoms = tuple(a for a in atoms if a.sign != 0)
        for a in atoms:
            if a.cube.d != d:
                raise ValueError("atom dimension mismatch")
        self.atoms = atoms
        self._forest = None

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
        return len(forest.keys) == len(self.atoms) and not any(forest.parent.values())

    def _atom_forest(self) -> "_AtomForest":
        """The atoms' (level, index) forest, built on first use."""
        if self._forest is None:
            self._forest = _AtomForest(self.atoms)
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
            acc[float(v)] = acc.get(float(v), 0.0) + float(w)
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

    @property
    def total_measure(self) -> float:
        return math.fsum(w for _, w in self.entries)


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
    fine; nesting atom sets go through the exact value histogram instead.
    Dense grids and histograms sum the p-th powers in doubles, and in the
    log2 domain when that sum overflows; a norm beyond double range raises
    ``ValueError`` naming its log2.
    """
    _check_exponent(p)
    if isinstance(f, DyadicStepFunction):
        v, w = f.values, f.cell_measure
        ppow = lambda: stable_sum(np.abs(v) ** p) * w
    elif isinstance(f, SparseStepFunction):
        if f.nesting_free:  # with no atoms too: the norm is 2**-inf = 0.0
            log2_terms = [a.cube.log2_measure + p * a.log2mag for a in f.atoms]
            return _norm_from_log2_terms(log2_terms, p)
        forest = f._atom_forest()  # every key below the root lies inside it
        v, w = forest.histogram(f.d, 0, (0,) * f.d, [c for c in forest.keys if c[0] > 0])
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
    out = np.zeros(((1 << k),) * f.d)
    for a in f.atoms:
        c = a.cube
        if c.level <= k:
            out[c.grid_slices(k)] += a.value
        else:
            cell = tuple(i >> (c.level - k) for i in c.index)
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
    a sparse f's is read from its atom cubes inside and containing ``cube``."""
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
    if not isinstance(f, SparseStepFunction):
        raise TypeError("expected a step function")
    forest = f._atom_forest()
    k, idx = cube.level, cube.index
    inside = [(u, j) for u, j in forest.keys if u > k and tuple(i >> (u - k) for i in j) == idx]
    values, measures = forest.histogram(f.d, k, idx, inside)
    return ValueHistogram(tuple(zip(values.tolist(), measures.tolist())))


def _level_histograms(f: SparseStepFunction, k: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """(values, measures) of f on the level-k cubes where f may vary, by cube index."""
    forest = f._atom_forest()
    groups: dict[tuple, list[tuple]] = {}
    for lev, idx in forest.keys:
        if lev > k:
            groups.setdefault(tuple(i >> (lev - k) for i in idx), []).append((lev, idx))
    return [forest.histogram(f.d, k, i, keys) for i, keys in sorted(groups.items())]


class _AtomForest:
    """The atoms' distinct (level, index) keys under containment, built
    without evaluating any atom value.  ``keys`` ascend by level, ties in
    first-atom order; ``positions`` maps a key to its atoms' positions, and
    ``parent`` to the deepest key strictly containing it, or None."""

    def __init__(self, atoms: tuple):
        self.atoms = atoms
        self.positions: dict[tuple, list[int]] = {}
        for pos, a in enumerate(atoms):
            self.positions.setdefault((a.cube.level, a.cube.index), []).append(pos)
        self.keys = sorted(self.positions, key=lambda c: c[0])
        self.levels = sorted({lev for lev, _ in self.keys}, reverse=True)
        self.parent = {c: self.container(c[0] - 1, *c) for c in self.keys}

    def container(self, at_most: int, lev: int, idx: tuple) -> tuple | None:
        """The deepest key at level <= ``at_most`` containing cube (lev, idx)."""
        for up in self.levels:
            if up <= at_most:
                key = (up, tuple(i >> (lev - up) for i in idx))
                if key in self.positions:
                    return key
        return None

    def value(self, keys) -> float:
        """Sum of the atoms of ``keys`` in atom order, from 0.0."""
        total = 0.0
        for i in sorted(i for c in keys for i in self.positions[c]):
            total += self.atoms[i].value
        return total

    def histogram(self, d: int, k: int, index: tuple, inside: list) -> tuple[np.ndarray, np.ndarray]:
        """Unvalidated (values, measures) on the level-k cube ``index`` of the keys
        ``inside`` it on top of the chain of keys containing it, with floats added
        as a scan of every atom adds them (chain in atom order, then key by key)."""
        top = self.parent[inside[0]] if inside else self.container(k, k, index)
        chain = [top]
        while chain[-1] is not None:
            chain.append(self.parent[chain[-1]])
        value = {top: self.value(chain[:-1])}
        covered: dict[tuple | None, float] = {}
        for c in inside:
            up = self.parent[c]  # ``top`` when outside the cube
            covered[up] = covered.get(up, 0.0) + 2.0 ** (-c[0] * d)
        pairs = []
        for c in inside:  # level-ascending, parents precede children
            value[c] = value[self.parent[c]] + self.value([c])
            region = 2.0 ** (-c[0] * d) - covered.get(c, 0.0)
            if region > 0:
                pairs.append((value[c], region))
        root_region = 2.0 ** (-k * d) - covered.get(top, 0.0)
        if root_region > 0:
            pairs.append((value[top], root_region))
        entries = _consolidate(pairs)
        return np.array([v for v, _ in entries]), np.array([w for _, w in entries])
