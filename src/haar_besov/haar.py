"""Isotropic and tensor-product Haar systems on the unit cube.

The isotropic system is organized in blocks: block 0 is the constant
indicator of [0,1)^d; block k >= 1 holds, for every level-(k-1) parent cube,
the 2^d - 1 sign patterns obtained by tensoring the one-dimensional step
chi_[0,1/2) - chi_[1/2,1) into a nonempty subset of the axes.  All functions
are sup-normalized (values in {-1, 0, +1}), and every coefficient computed
here is the exact L2 orthoprojection coefficient lambda_h = <g, h> / <h, h>.

Pattern convention: a pattern is an integer in [1, 2^d); bit (d-1-j) of the
pattern selects axis j (axis 0 is the most significant bit), matching the
row-major child ordering of the local 2^d x 2^d sign transform.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator, Sequence

import numpy as np

from .dyadic import (
    DyadicCube,
    DyadicStepFunction,
    SparseAtom,
    SparseStepFunction,
    _check_budget,
    _cube_blocks,
    _finest_level,
    _immutable,
    _indices,
    _integer,
    _json_field,
    _raises_on_overflow,
    densify,
    stable_sum,
)

__all__ = [
    "HaarIndex",
    "HaarCoefficients",
    "TensorHaarCoefficients",
    "analyze",
    "block_size",
    "haar_function",
    "level_indices",
    "partial_sum_subset",
    "rank_one_project",
    "synthesize",
    "tensor_analyze",
    "tensor_block_level",
    "tensor_block_order",
    "tensor_coefficient",
    "tensor_haar_function",
    "tensor_synthesize",
    "univariate_haar_vector",
]


@dataclass(frozen=True)
class HaarIndex:
    """Either the scaling index (level 0) or a wavelet (level, parent, pattern)."""

    d: int
    level: int
    parent: DyadicCube | None
    pattern: int

    def __post_init__(self):
        object.__setattr__(self, "d", _integer(self.d, "d", 1))
        object.__setattr__(self, "level", _integer(self.level, "level", 0))
        object.__setattr__(self, "pattern", _integer(self.pattern, "pattern", 0))
        if self.level == 0:
            if self.parent is not None or self.pattern != 0:
                raise ValueError("scaling index must have no parent and pattern 0")
        else:
            if self.parent is None or self.parent.d != self.d:
                raise ValueError("wavelet index needs a parent cube of matching d")
            if self.parent.level != self.level - 1:
                raise ValueError("parent cube must sit one level above the wavelet")
            if not 1 <= self.pattern < (1 << self.d):
                raise ValueError("pattern must be a nonzero element of {0,1}^d")

    @classmethod
    def scaling(cls, d: int) -> "HaarIndex":
        return cls(d, 0, None, 0)

    @classmethod
    def wavelet(cls, parent: DyadicCube, pattern: int) -> "HaarIndex":
        return cls(parent.d, parent.level + 1, parent, pattern)

    @property
    def support(self) -> DyadicCube:
        return self.parent if self.parent is not None else DyadicCube.root(self.d)


def block_size(d: int, k: int) -> int:
    """Number of indices in block k: 1 for k=0, else (2^d - 1) * 2^((k-1)d)."""
    d, k = _integer(d, "d", 1), _integer(k, "k", 0)
    if k == 0:
        return 1
    return ((1 << d) - 1) * (1 << ((k - 1) * d))


def level_indices(d: int, k: int) -> Iterator[HaarIndex]:
    """Block-k indices, lexicographic in (parent index, pattern)."""
    d, k = _integer(d, "d", 1), _integer(k, "k", 0)
    if k == 0:
        return iter((HaarIndex.scaling(d),))
    parents = (DyadicCube(d, k - 1, i) for i in product(range(1 << (k - 1)), repeat=d))
    return (HaarIndex.wavelet(c, pat) for c in parents for pat in range(1, 1 << d))


def _pattern_sign(pattern: int, child_bits: int) -> int:
    return 1 - 2 * ((pattern & child_bits).bit_count() & 1)


def haar_function(idx: HaarIndex) -> SparseStepFunction:
    """The Haar function as a sparse step function with unit atoms."""
    if idx.level == 0:
        atoms = [SparseAtom(DyadicCube.root(idx.d), 1, 0.0)]
        return SparseStepFunction(idx.d, atoms)
    d = idx.d
    atoms = []
    for bits_int in range(1 << d):
        bits = tuple((bits_int >> (d - 1 - j)) & 1 for j in range(d))
        atoms.append(
            SparseAtom(idx.parent.child(bits), _pattern_sign(idx.pattern, bits_int), 0.0)
        )
    return SparseStepFunction(d, atoms)


def _sign_matrix(d: int) -> np.ndarray:
    """2^d x 2^d symmetric matrix M[e, c] = (-1)^popcount(e & c)."""
    size = 1 << d
    e = np.arange(size)
    pop = np.bitwise_count(e[:, None] & e[None, :])
    return 1.0 - 2.0 * (pop & 1)


def _split_children(a: np.ndarray, d: int) -> np.ndarray:
    """(2n,)*d array -> (n,)*d + (2^d,) array of per-parent child values."""
    n = a.shape[0] // 2
    return _cube_blocks(a, n.bit_length() - 1).reshape((n,) * d + (1 << d,))


def _merge_children(child: np.ndarray, d: int) -> np.ndarray:
    """Inverse of :func:`_split_children`."""
    n = child.shape[0]
    out = np.empty((2 * n,) * d)
    _cube_blocks(out, n.bit_length() - 1)[...] = child.reshape((n,) * d + (2,) * d)
    return out


class HaarCoefficients:
    """Orthoprojection coefficients of a level-K step function.

    ``blocks[k-1]`` has shape (2^(k-1),)*d + (2^d - 1,); the trailing axis is
    the pattern minus one.  The constructor is the one door: each block is
    read once (a float64 array is taken over, not copied), checked for shape
    and, with ``scaling``, for finite values, and set read-only; ``blocks`` is
    a tuple and no attribute can be rebound.
    """

    __slots__ = ("d", "max_level", "scaling", "blocks")
    __setattr__ = __delattr__ = _immutable

    def __init__(self, d: int, max_level: int, scaling: float, blocks):
        d, max_level = _integer(d, "d", 1), _integer(max_level, "max_level", 0)
        scaling = float(scaling)
        if not math.isfinite(scaling):
            raise ValueError("HaarCoefficients scaling must be finite (no NaN or inf)")
        blocks = list(blocks)
        if len(blocks) != max_level:
            raise ValueError("need one block array per level 1..K")
        for k, b in enumerate(blocks, start=1):
            b = blocks[k - 1] = np.asarray(b, dtype=float)
            want = ((1 << (k - 1)),) * d + ((1 << d) - 1,)
            if b.shape != want:
                raise ValueError(f"block {k} has shape {b.shape}, expected {want}")
        finite = np.empty((1 << max_level * d) - 1, dtype=bool)  # block k at [2^((k-1)d) - 1, 2^(kd) - 1)
        for k, b in enumerate(blocks, start=1):
            np.isfinite(b.ravel(), out=finite[(1 << (k - 1) * d) - 1 : (1 << k * d) - 1])
            b.setflags(write=False)
        if not np.logical_and.reduce(finite):  # one reduction; the block is located only on failure
            k = next(k for k, b in enumerate(blocks, start=1) if not np.isfinite(b).all())
            raise ValueError(f"HaarCoefficients block {k} must be finite (no NaN or inf)")
        for name, value in zip(self.__slots__, (d, max_level, scaling, tuple(blocks))):
            object.__setattr__(self, name, value)

    def __reduce__(self):  # copies and pickles rebuild through __init__
        return type(self), (self.d, self.max_level, self.scaling, self.blocks)

    def coefficient(self, idx: HaarIndex) -> float:
        if idx.d != self.d:
            raise ValueError("dimension mismatch")
        if idx.level == 0:
            return self.scaling
        if idx.level > self.max_level:
            return 0.0
        return float(self.blocks[idx.level - 1][idx.parent.index + (idx.pattern - 1,)])

    def to_json(self) -> str:
        levels = [{"k": 0, "entries": [{"parent": [], "pattern": 0, "value": self.scaling}]}]
        for k, b in enumerate(self.blocks, start=1):
            nz = b != 0.0  # row-major: parents in order, the patterns of each in turn
            pairs = zip(np.argwhere(nz).tolist(), b[nz].tolist())
            entries = [{"parent": i[:-1], "pattern": i[-1] + 1, "value": v} for i, v in pairs]
            levels.append({"k": k, "entries": entries})
        return json.dumps({"d": self.d, "K": self.max_level, "levels": levels}, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "HaarCoefficients":
        obj = json.loads(text)
        d, kmax = _json_field(obj, "d"), _json_field(obj, "K")
        _check_budget(d, kmax)
        blocks = [np.zeros(((1 << (k - 1)),) * d + ((1 << d) - 1,)) for k in range(1, kmax + 1)]
        scaling = 0.0
        for level in _json_field(obj, "levels", list):
            k = _json_field(level, "k")
            if not 0 <= k <= kmax:
                raise ValueError(f"level k={k} lies outside 0..K={kmax}")
            for rec in _json_field(level, "entries", list):
                value = _json_field(rec, "value", float)
                if k == 0:
                    scaling = value
                    continue
                parent = _json_field(rec, "parent", lambda v: DyadicCube(d, k - 1, v))
                pattern = HaarIndex.wavelet(parent, _json_field(rec, "pattern")).pattern
                blocks[k - 1][parent.index + (pattern - 1,)] = value
        return cls(d, kmax, scaling, blocks)


def analyze(f) -> HaarCoefficients:
    """Exact orthoprojection Haar coefficients via the averaging cascade.

    Per level the local 2^d x 2^d sign transform resolves the block
    coefficients from child averages; the all-plus row carries the parent
    averages down to the next level.  A sparse f is densified first.
    """
    if not isinstance(f, DyadicStepFunction):
        f = densify(f)
    d, m = f.d, f.level
    M = _sign_matrix(d)
    inv = M / (1 << d)
    a = f.values
    blocks: list[np.ndarray] = [None] * m
    for k in range(m, 0, -1):
        coef = _split_children(a, d) @ inv
        a = np.ascontiguousarray(coef[..., 0])
        blocks[k - 1] = np.ascontiguousarray(coef[..., 1:])
    return HaarCoefficients(d, m, float(a.reshape(())), blocks)


@_raises_on_overflow("Haar synthesis")
def synthesize(c: HaarCoefficients, m: int) -> DyadicStepFunction:
    """Evaluate sum(lambda_h * h) on the level-m grid (m >= K)."""
    if not isinstance(c, HaarCoefficients):
        raise TypeError("expected HaarCoefficients")
    m = _integer(m, "m", 0)
    if m < c.max_level:
        raise ValueError("synthesis level below the coefficient depth")
    d = c.d
    M = _sign_matrix(d)
    a = np.full((1,) * d, c.scaling)
    for k in range(1, c.max_level + 1):
        coef = np.concatenate([a[..., None], c.blocks[k - 1]], axis=-1)
        a = _merge_children(coef @ M, d)
    return densify(DyadicStepFunction(d, c.max_level, a), m)


def partial_sum_subset(
    f, indices: Iterable[HaarIndex], signs: Sequence[int] | None = None
) -> DyadicStepFunction:
    """sum over h in J of theta_h * lambda_h(f) * h, for a finite index set J.

    With J = all indices of level <= K and unit signs this is the level-K
    averaging projector.  ``signs`` aligns with the iteration order of
    ``indices``; J is treated as a set (duplicates collapse).
    """
    J = list(indices)
    if signs is None:
        signs = [1] * len(J)
    signs = list(signs)
    if len(signs) != len(J):
        raise ValueError("need one sign per index")
    if any(s not in (-1, 1) for s in signs):
        raise ValueError("signs must be +/-1")
    top = max([_finest_level(f)] + [idx.level for idx in J])
    fd = densify(f, top)
    c = analyze(fd)
    scaling, blocks = 0.0, [np.zeros_like(b) for b in c.blocks]
    for idx, s in zip(J, signs):
        if idx.level == 0:
            scaling = s * c.scaling
        else:
            pos = idx.parent.index + (idx.pattern - 1,)
            blocks[idx.level - 1][pos] = s * c.blocks[idx.level - 1][pos]
    return synthesize(HaarCoefficients(c.d, c.max_level, scaling, blocks), top)


# ---------------------------------------------------------------------------
# tensor-product system
# ---------------------------------------------------------------------------


def tensor_block_level(n: Sequence[int]) -> int:
    """Block of h_{n_1} x ... x h_{n_d}: max over axes of the univariate level."""
    return max((_integer(ni, "n", 1) - 1).bit_length() for ni in n)


def univariate_haar_vector(n: int, m: int) -> np.ndarray:
    """Cell values of the n-th univariate Haar function on the level-m grid."""
    n, m = _integer(n, "n", 1), _integer(m, "m", 0)
    size = 1 << m
    if n == 1:
        return np.ones(size)
    k = (n - 1).bit_length()
    if m < k:
        raise ValueError("grid too coarse for this index")
    i = n - (1 << (k - 1))  # position 1..2^(k-1)
    half = 1 << (m - k)
    start = (i - 1) * 2 * half
    v = np.zeros(size)
    v[start : start + half] = 1.0
    v[start + half : start + 2 * half] = -1.0
    return v


def tensor_haar_function(d: int, n: Sequence[int], m: int) -> DyadicStepFunction:
    """Dense tensor-product Haar function h_{n_1} x ... x h_{n_d} at level m."""
    d, m = _integer(d, "d", 1), _integer(m, "m", 0)
    n = tuple(n)
    if len(n) != d:
        raise ValueError("need one univariate index per axis")
    out = univariate_haar_vector(n[0], m)
    for ni in n[1:]:
        out = np.multiply.outer(out, univariate_haar_vector(ni, m))
    return DyadicStepFunction(d, m, out)


def _tensor_support_measure(n: Sequence[int]) -> float:
    meas = 1.0
    for ni in n:
        if ni > 1:
            k = (ni - 1).bit_length()
            meas *= 2.0 ** (-(k - 1))
    return meas


class TensorHaarCoefficients:
    """Full separable Haar transform: one coefficient per multi-index n.

    ``array[n_1 - 1, ..., n_d - 1]`` is the orthoprojection coefficient of
    h_{n_1} x ... x h_{n_d}; along each axis, position 0 is the constant and
    positions 2^(k-1)..2^k - 1 hold level k.  One door, as for
    :class:`HaarCoefficients`: the array is taken over, checked and frozen.
    """

    __slots__ = ("d", "level", "array")
    __setattr__ = __delattr__ = _immutable

    def __init__(self, d: int, level: int, array: np.ndarray):
        d, level = _integer(d, "d", 1), _integer(level, "level", 0)
        want = ((1 << level),) * d
        array = np.asarray(array, dtype=float)
        if array.shape != want:
            raise ValueError(f"expected shape {want}")
        if not np.isfinite(array).all():
            raise ValueError("TensorHaarCoefficients values must be finite (no NaN or inf)")
        array.setflags(write=False)
        for name, value in zip(self.__slots__, (d, level, array)):
            object.__setattr__(self, name, value)

    def __reduce__(self):  # copies and pickles rebuild through __init__
        return type(self), (self.d, self.level, self.array)

    def to_json(self) -> str:
        nz = self.array != 0.0  # row-major in the multi-index n
        pairs = zip((np.argwhere(nz) + 1).tolist(), self.array[nz].tolist())
        entries = [{"n": n, "value": v} for n, v in pairs]
        return json.dumps({"d": self.d, "entries": entries}, sort_keys=True)

    @classmethod
    def from_json(cls, text: str, level: int) -> "TensorHaarCoefficients":
        """Parse ``to_json`` output on the level-``level`` grid, or the coarsest
        finer one holding every entry; a missing or malformed field raises
        ``ValueError`` naming it."""
        obj = json.loads(text)
        d = _json_field(obj, "d")
        entries = []
        for rec in _json_field(obj, "entries", list):
            n = _json_field(rec, "n", _indices)
            if len(n) != d:
                raise ValueError(f"tensor index {list(n)} needs {d} components")
            level = max(level, tensor_block_level(n))
            entries.append((n, _json_field(rec, "value", float)))
        _check_budget(d, level)
        arr = np.zeros(((1 << level),) * d)
        for n, value in entries:
            arr[tuple(i - 1 for i in n)] = value
        return cls(d, level, arr)


def _dwt_forward_axis(a: np.ndarray) -> np.ndarray:
    """In-place-layout univariate orthoprojection transform along axis 0."""
    a = a.copy()
    size = a.shape[0]
    while size > 1:
        half = size // 2
        even, odd = a[0:size:2] / 2, a[1:size:2] / 2  # halved first, so no sum overflows
        a[:half], a[half:size] = even + odd, even - odd
        size = half
    return a


def _dwt_inverse_axis(a: np.ndarray) -> np.ndarray:
    a = a.copy()
    n = a.shape[0]
    size = 2
    while size <= n:
        half = size // 2
        avg, diff = a[:half], a[half:size]
        a[0:size:2], a[1:size:2] = avg + diff, avg - diff
        size *= 2
    return a


def tensor_analyze(f) -> TensorHaarCoefficients:
    """Separable transform: univariate Haar analysis applied along each axis."""
    if not isinstance(f, DyadicStepFunction):
        f = densify(f)
    a = f.values
    for axis in range(f.d):
        a = np.moveaxis(_dwt_forward_axis(np.moveaxis(a, axis, 0)), 0, axis)
    return TensorHaarCoefficients(f.d, f.level, a)


@_raises_on_overflow("tensor Haar synthesis")
def tensor_synthesize(c: TensorHaarCoefficients, m: int | None = None) -> DyadicStepFunction:
    if not isinstance(c, TensorHaarCoefficients):
        raise TypeError("expected TensorHaarCoefficients")
    a = c.array
    for axis in range(c.d):
        a = np.moveaxis(_dwt_inverse_axis(np.moveaxis(a, axis, 0)), 0, axis)
    return densify(DyadicStepFunction(c.d, c.level, a), m)


@_raises_on_overflow("tensor-coefficient sum")
def _theta_coefficient(f, theta: DyadicStepFunction, n: Sequence[int]) -> float:
    fd = densify(f, theta.level)
    return stable_sum(fd.values * theta.values) * fd.cell_measure / _tensor_support_measure(n)


def tensor_coefficient(f, n: Sequence[int]) -> float:
    """<f, theta> / <theta, theta> by direct quadrature (no full transform)."""
    top = max(_finest_level(f), tensor_block_level(n))
    return _theta_coefficient(f, tensor_haar_function(f.d, n, top), n)


def rank_one_project(f, n: Sequence[int]) -> DyadicStepFunction:
    """L_2 orthoprojection of f onto the span of one tensor Haar function."""
    top = max(_finest_level(f), tensor_block_level(n))
    theta = tensor_haar_function(f.d, n, top)
    return DyadicStepFunction(f.d, top, _theta_coefficient(f, theta, n) * theta.values)


def tensor_block_order(block: int) -> list[tuple[int, int]]:
    """Schauder ordering of tensor block ``block`` (d = 2, the only explicit one).

    Block 0 is [(1, 1)].  Block b >= 1 lists first the indices with a new
    first factor {(2^k + i, n): i = 1..2^k, n = 1..2^(k+1)} and then those
    with a new second factor {(n, 2^k + i): i = 1..2^k, n = 1..2^k}, each
    lexicographic in (i, n), where k = b - 1.
    """
    block = _integer(block, "block", 0)
    if block == 0:
        return [(1, 1)]
    half = 1 << (block - 1)
    out = [
        (half + i, nn)
        for i in range(1, half + 1)
        for nn in range(1, 2 * half + 1)
    ]
    out += [
        (nn, half + i)
        for i in range(1, half + 1)
        for nn in range(1, half + 1)
    ]
    return out
