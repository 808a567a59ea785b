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
pure.  Reductions run in a fixed order (exactly rounded ``math.fsum`` for
norm accumulations), so results are bit-stable across runs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
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
    "cube_blocks",
    "densify",
    "lp_quasinorm",
    "stable_sum",
    "logsumexp2",
    "signed_log2_sum",
    "value_histogram",
]

#: Default ceiling on the number of cells any dense grid may hold (2**26).
DEFAULT_CELL_BUDGET = 1 << 26


class CapacityError(RuntimeError):
    """A dense grid would exceed the configured cell budget."""

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


def _check_budget(d: int, level: int, max_cells: int) -> None:
    cells = 1 << (level * d)
    if cells > max_cells:
        raise CapacityError(cells, max_cells)


def stable_sum(values) -> float:
    """Fixed-order, exactly rounded sum (Shewchuk accumulation via fsum).

    Arrays are flattened in row-major order first; very large inputs are
    folded in 2**20-element blocks whose block sums are themselves fsummed,
    which keeps the reduction deterministic and compensated.
    """
    a = np.ascontiguousarray(values, dtype=float).ravel()
    n = a.size
    if n <= (1 << 20):
        return math.fsum(a)
    block = 1 << 20
    return math.fsum(math.fsum(a[i : i + block]) for i in range(0, n, block))


def logsumexp2(log2_terms) -> float:
    """log2 of a sum of nonnegative terms given by their log2 values."""
    a = np.asarray(log2_terms, dtype=float).ravel()
    if a.size == 0:
        return -math.inf
    m = float(np.max(a))
    if m == -math.inf or math.isinf(m):
        return m
    return m + math.log2(math.fsum(np.exp2(a - m)))


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
    v = math.fsum(s * np.exp2(e - top))
    if v == 0.0:
        return 0, -math.inf
    return (1 if v > 0 else -1), top + math.log2(abs(v))


@dataclass(frozen=True)
class DyadicCube:
    """Half-open dyadic cube prod_j [i_j * 2**-k, (i_j+1) * 2**-k) in [0,1)^d.

    ``index`` components are plain Python integers, so cubes at levels in the
    thousands (as the scattered family needs) are exact.
    """

    d: int
    level: int
    index: tuple

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension must be a positive integer")
        if self.level < 0:
            raise ValueError("level must be nonnegative")
        idx = tuple(int(i) for i in self.index)
        object.__setattr__(self, "index", idx)
        if len(idx) != self.d:
            raise ValueError("index length must equal the dimension")
        top = 1 << self.level
        if any(i < 0 or i >= top for i in idx):
            raise ValueError("index components must lie in [0, 2**level)")

    @classmethod
    def root(cls, d: int) -> "DyadicCube":
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
        if m < self.level:
            raise ValueError("grid level below cube level")
        w = 1 << (m - self.level)
        return tuple(slice(i * w, (i + 1) * w) for i in self.index)

    def __repr__(self):
        return f"DyadicCube(d={self.d}, level={self.level}, index={self.index})"


class DyadicStepFunction:
    """Piecewise-constant function on the uniform level-m dyadic partition."""

    __slots__ = ("d", "level", "values")

    def __init__(self, d: int, level: int, values):
        if d < 1 or level < 0:
            raise ValueError("need d >= 1 and level >= 0")
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

    def refine(self, m: int, max_cells: int = DEFAULT_CELL_BUDGET) -> "DyadicStepFunction":
        """Re-express on the finer level-m grid by value replication."""
        if m < self.level:
            raise ValueError("refinement level below current level")
        if m == self.level:
            return self
        _check_budget(self.d, m, max_cells)
        out = np.empty((1 << m,) * self.d)
        cube_blocks(out, self.level)[...] = self.values[(...,) + (None,) * self.d]
        return DyadicStepFunction(self.d, m, out)

    def restrict(self, cube: DyadicCube) -> np.ndarray:
        """Cell values of the restriction to ``cube`` (dense sub-block)."""
        if cube.d != self.d:
            raise ValueError("dimension mismatch")
        if cube.level > self.level:
            raise ValueError("cube finer than the grid; refine first")
        return self.values[cube.grid_slices(self.level)]

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"d": self.d, "m": self.level, "values": self.flat().tolist()}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "DyadicStepFunction":
        return cls(int(obj["d"]), int(obj["m"]), obj["values"])

    def __repr__(self):
        return f"DyadicStepFunction(d={self.d}, level={self.level})"


@dataclass(frozen=True)
class SparseAtom:
    """coefficient * indicator(cube), coefficient stored as sign + log2|c|."""

    cube: DyadicCube
    sign: int
    log2mag: float

    def __post_init__(self):
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
    either nest or are disjoint, so whether the atoms nest follows from
    their (level, index) keys: ``nesting_free`` computes it on first use.
    """

    __slots__ = ("d", "atoms", "_nesting_free")

    def __init__(self, d: int, atoms: Iterable[SparseAtom]):
        self.d = d
        atoms = tuple(a for a in atoms if a.sign != 0)
        for a in atoms:
            if a.cube.d != d:
                raise ValueError("atom dimension mismatch")
        self.atoms = atoms
        self._nesting_free = None

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
        if self._nesting_free is None:
            self._nesting_free = self._compute_nesting_free()
        return self._nesting_free

    def _compute_nesting_free(self) -> bool:
        """Level-ascending scan: each cube's ancestors at the levels seen so
        far, and the cube itself, must not be keys seen before."""
        seen: set[tuple] = set()
        levels: list[int] = []
        for a in sorted(self.atoms, key=lambda a: a.cube.level):
            lev, idx = a.cube.level, a.cube.index
            for up in levels:
                if up == lev:
                    break
                if (up, tuple(i >> (lev - up) for i in idx)) in seen:
                    return False
            if (lev, idx) in seen:
                return False
            seen.add((lev, idx))
            if not levels or levels[-1] != lev:
                levels.append(lev)
        return True

    def densify(self, m: int, max_cells: int = DEFAULT_CELL_BUDGET) -> DyadicStepFunction:
        """Evaluate the atom sum on the level-m grid (m >= every atom level)."""
        if m < self.max_level and self.atoms:
            raise ValueError("densification level below the deepest atom")
        _check_budget(self.d, m, max_cells)
        out = np.zeros(((1 << m),) * self.d)
        for a in self.atoms:
            out[a.cube.grid_slices(m)] += a.value
        return DyadicStepFunction(self.d, m, out)

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "atoms": [
                {
                    "level": a.cube.level,
                    "index": list(a.cube.index),
                    "sign": a.sign,
                    "log2mag": a.log2mag,
                }
                for a in self.atoms
            ],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "SparseStepFunction":
        d = int(obj["d"])
        atoms = [
            SparseAtom(
                DyadicCube(d, int(rec["level"]), tuple(rec["index"])),
                int(rec["sign"]),
                float(rec["log2mag"]),
            )
            for rec in obj["atoms"]
        ]
        return cls(d, atoms)

    def __repr__(self):
        return f"SparseStepFunction(d={self.d}, atoms={len(self.atoms)})"


def function_to_json(f) -> str:
    """Serialize either representation to a JSON string."""
    if isinstance(f, DyadicStepFunction):
        obj = {"kind": "dense", **f.to_json_dict()}
    elif isinstance(f, SparseStepFunction):
        obj = {"kind": "sparse", **f.to_json_dict()}
    else:
        raise TypeError("expected a step function")
    return json.dumps(obj, sort_keys=True)


def function_from_json(text: str):
    obj = json.loads(text)
    kind = obj.get("kind", "dense" if "values" in obj else "sparse")
    if kind == "dense":
        return DyadicStepFunction.from_json_dict(obj)
    if kind == "sparse":
        return SparseStepFunction.from_json_dict(obj)
    raise ValueError(f"unknown step-function kind {kind!r}")


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
        acc: dict[float, float] = {}
        for v, w in pairs:
            if w == 0.0:
                continue
            acc[float(v)] = acc.get(float(v), 0.0) + float(w)
        return cls(tuple(sorted(acc.items())))

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


def cube_blocks(values: np.ndarray, k: int) -> np.ndarray:
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


def densify(
    f, m: int | None = None, max_cells: int = DEFAULT_CELL_BUDGET
) -> DyadicStepFunction:
    """Dense level-m view of either representation.

    m defaults to the finest level of f itself (``f.level`` for a dense
    input, ``f.max_level`` for a sparse one).
    """
    if isinstance(f, DyadicStepFunction):
        return f.refine(f.level if m is None else m, max_cells)
    return f.densify(f.max_level if m is None else m, max_cells)


def lp_quasinorm(f, p: float) -> float:
    """L_p quasi-norm (sum of cell-measure-weighted |value|^p, p-th root).

    Sparse functions with pairwise non-nesting atoms are handled atom by
    atom in the log2 domain, so coefficients far outside double range are
    fine; nesting atom sets go through the exact value histogram instead.
    Dense grids and histograms sum the p-th powers in doubles; a sum that
    overflows raises ``ValueError`` naming the norm's log2.
    """
    if not (p > 0) or math.isinf(p):
        raise ValueError("p must be a positive finite exponent")
    if isinstance(f, DyadicStepFunction):
        v, w = f.values, f.cell_measure
        ppow = lambda: stable_sum(np.abs(v) ** p) * w
    elif isinstance(f, SparseStepFunction):
        if not f.atoms:
            return 0.0
        if f.nesting_free:
            log2_terms = np.array(
                [a.cube.log2_measure + p * a.log2mag for a in f.atoms]
            )
            log2_norm = logsumexp2(log2_terms) / p
            try:
                return 2.0**log2_norm
            except OverflowError:
                raise ValueError(
                    f"the L_{p} norm is 2**{log2_norm}, beyond double range"
                ) from None
        hist = value_histogram(f, DyadicCube.root(f.d))
        v, w = hist.values, hist.measures
        ppow = lambda: float(math.fsum(w * np.abs(v) ** p))
    else:
        raise TypeError("expected a step function")
    try:
        with np.errstate(over="raise"):
            return ppow() ** (1.0 / p)
    except (OverflowError, FloatingPointError):
        with np.errstate(divide="ignore"):  # a zero value is a -inf term
            lg = logsumexp2(np.log2(w) + p * np.log2(np.abs(v))) / p
        raise ValueError(
            f"the L_{p} norm is 2**{lg}, and its sum of p-th powers is beyond "
            "double range"
        ) from None


def average_project(f, k: int, max_cells: int = DEFAULT_CELL_BUDGET) -> DyadicStepFunction:
    """Replace f by its average on every level-k cube (L_2 orthoprojection
    onto the level-k step functions).  For k at or above the resolution of a
    dense input the function is returned unchanged (re-expressed at level k).
    """
    if k < 0:
        raise ValueError("level must be nonnegative")
    if isinstance(f, DyadicStepFunction):
        if k >= f.level:
            return f.refine(k, max_cells)
        fine = tuple(range(f.d, 2 * f.d))
        return DyadicStepFunction(f.d, k, cube_blocks(f.values, k).mean(axis=fine))
    if not isinstance(f, SparseStepFunction):
        raise TypeError("expected a step function")
    _check_budget(f.d, k, max_cells)
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
    """Exact (value, measure) multiset of f restricted to ``cube``."""
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
    return _sparse_histogram(f.atoms, cube)


def _level_histograms(f: SparseStepFunction, k: int) -> list[ValueHistogram]:
    """Histograms of f on the level-k cubes where f may vary, by cube index.

    Those cubes are the level-k ancestors of the atoms deeper than k.  One
    pass buckets the deep atoms by that ancestor and the others by their own
    cube; each histogram then reads its bucket plus the shallow atoms that
    contain its cube, in the order of ``f.atoms``, so the sums are the same
    floats as a scan of every atom.
    """
    deep: dict[tuple, list[int]] = {}
    shallow: dict[tuple, list[int]] = {}
    for pos, a in enumerate(f.atoms):
        c = a.cube
        shift = c.level - k
        if shift > 0:
            deep.setdefault(tuple(i >> shift for i in c.index), []).append(pos)
        else:
            shallow.setdefault((c.level, c.index), []).append(pos)
    levels = sorted({lev for lev, _ in shallow})
    out = []
    for idx in sorted(deep):
        pos = list(deep[idx])
        for lev in levels:
            pos += shallow.get((lev, tuple(i >> (k - lev) for i in idx)), ())
        atoms = [f.atoms[i] for i in sorted(pos)]
        out.append(_sparse_histogram(atoms, DyadicCube(f.d, k, idx)))
    return out


def _sparse_histogram(atoms: Sequence[SparseAtom], cube: DyadicCube) -> ValueHistogram:
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
        return ValueHistogram.from_pairs([(base, cube.measure)])

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
    return ValueHistogram.from_pairs(pairs)
