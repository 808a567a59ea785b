import copy
import hashlib
import json
import math
import pickle
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import haar_besov as hb
from haar_besov.dyadic import _exact_sum, logsumexp2, signed_log2_sum, stable_sum
from haar_besov.experiments import random_step
from haar_besov.norms import approximation_profile
from haar_besov.rng import RandomStream

from helpers import nesting_free_oracle, random_sparse, sparse_histogram_rescan


def cube(d, level, *idx):
    return hb.DyadicCube(d, level, tuple(idx))


class TestDyadicCube:
    def test_invariants(self):
        c = cube(2, 3, 1, 5)
        assert c.measure == 2.0 ** (-6)
        with pytest.raises(ValueError):
            cube(1, 2, 4)  # index out of range
        with pytest.raises(ValueError):
            cube(2, 1, 0)  # wrong index length

    @pytest.mark.parametrize("index", [(1.7,), ("3",)])
    def test_non_integer_index_raises(self, index):
        with pytest.raises(ValueError, match="index components must be integers"):
            hb.DyadicCube(1, 2, index)

    def test_numpy_integer_index_is_a_python_int(self):
        c = hb.DyadicCube(1, 2, (np.int64(3),))
        assert c == cube(1, 2, 3) and type(c.index[0]) is int

    @pytest.mark.parametrize(
        "d, level, index, name",
        [(1, 2.0, (1,), "level"), (2, "3", (1, 1), "level"), (1.0, 2, (1,), "d")],
    )
    def test_non_integer_dimension_or_level_raises(self, d, level, index, name):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            hb.DyadicCube(d, level, index)

    def test_numpy_integer_level_is_a_python_int(self):
        c = hb.DyadicCube(np.int64(1), np.int64(2), (3,))
        assert c == cube(1, 2, 3) and type(c.d) is int and type(c.level) is int

    def test_nesting(self):
        parent = cube(1, 1, 0)
        child = cube(1, 3, 3)
        assert parent.contains(child)
        assert not parent.contains(cube(1, 3, 4))
        assert child.ancestor(1) == parent

    def test_deep_cubes_are_exact(self):
        # indices far beyond float range stay exact integers
        c = cube(1, 500, (1 << 500) - 1)
        assert c.ancestor(0) == hb.DyadicCube.root(1)
        assert c.measure == 2.0**-500
        assert c.log2_measure == -500
        deep = cube(1, 2000, 1)
        assert deep.measure == 0.0  # underflow is fine; the exponent is exact
        assert deep.log2_measure == -2000


class TestDensify:
    def test_indicator_replication(self):
        f = hb.SparseStepFunction.from_terms(1, [(cube(1, 1, 0), 3.0)])
        assert hb.densify(f, 2).flat().tolist() == [3.0, 3.0, 0.0, 0.0]

    def test_empty_atoms(self):
        f = hb.SparseStepFunction(2, [])
        assert hb.densify(f, 1).flat().tolist() == [0.0, 0.0, 0.0, 0.0]

    def test_overlapping_atoms_sum(self):
        f = hb.SparseStepFunction.from_terms(
            1, [(hb.DyadicCube.root(1), 1.0), (cube(1, 1, 0), 2.0)]
        )
        assert hb.densify(f, 1).flat().tolist() == [3.0, 1.0]

    def test_budget_error_names_cell_count(self):
        # 2^28 cells, over the fixed 2^26-cell budget
        f = hb.SparseStepFunction.from_terms(2, [(cube(2, 1, 0, 0), 1.0)])
        with pytest.raises(hb.CapacityError, match=r"2\*\*28") as err:
            hb.densify(f, 14)
        assert err.value.required_cells == 1 << 28
        assert err.value.budget == hb.DEFAULT_CELL_BUDGET == 1 << 26

    def test_level_below_atom_rejected(self):
        f = hb.SparseStepFunction.from_terms(1, [(cube(1, 3, 1), 1.0)])
        with pytest.raises(ValueError, match="below the finest level 3"):
            hb.densify(f, 2)

    def test_level_below_dense_grid_rejected(self):
        f = hb.DyadicStepFunction(1, 3, np.arange(8.0))
        with pytest.raises(ValueError, match="below the finest level 3"):
            hb.densify(f, 2)
        assert hb.densify(f) is f and hb.densify(f, 3) is f


_LEVEL0 = hb.DyadicStepFunction(1, 0, [1.0])
_ATOM = hb.SparseStepFunction.from_terms(1, [(cube(1, 1, 0), 1.0)])

# every entry point that builds a dense grid, asked for level 27 at d = 1
_OVER_BUDGET = {
    "random_step": lambda: hb.random_step(0, 1, 27),
    "densify": lambda: hb.densify(_ATOM, 27),
    "densify-dense": lambda: hb.densify(_LEVEL0, 27),
    "average_project": lambda: hb.average_project(_ATOM, 27),
    "synthesize": lambda: hb.synthesize(hb.analyze(_LEVEL0), 27),
    "partial_sum_subset": lambda: hb.partial_sum_subset(
        _LEVEL0, [hb.HaarIndex.wavelet(cube(1, 26, 0), 1)]
    ),
    "tensor_synthesize": lambda: hb.tensor_synthesize(hb.tensor_analyze(_LEVEL0), 27),
    "HaarCoefficients.from_json": lambda: hb.HaarCoefficients.from_json(
        '{"d": 1, "K": 27, "levels": []}'
    ),
    "TensorHaarCoefficients.from_json": lambda: hb.TensorHaarCoefficients.from_json(
        '{"d": 1, "entries": []}', 27
    ),
}


@pytest.mark.parametrize("entry", sorted(_OVER_BUDGET))
def test_grid_over_the_cell_budget_raises_before_allocating(entry):
    # 2^27 doubles would take 1 GiB; the budget is checked first
    tracemalloc.start()
    try:
        with pytest.raises(hb.CapacityError, match=r"2\*\*27 cells") as err:
            _OVER_BUDGET[entry]()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (err.value.required_cells, err.value.budget) == (1 << 27, hb.DEFAULT_CELL_BUDGET)
    assert peak < 1 << 20


class TestLpQuasinorm:
    def test_indicator_of_cube_is_one(self):
        for d in (1, 2):
            f = hb.DyadicStepFunction(d, 0, np.ones((1,) * d))
            for p in (0.4, 1.0, 2.0):
                assert hb.lp_quasinorm(f, p) == pytest.approx(1.0, rel=1e-14)

    def test_spike_norm(self):
        # 2^{md} on the corner cube: ||.||_p = 2^{md(1-1/p)}
        for d, m, p in [(1, 3, 0.7), (2, 2, 0.5), (1, 4, 1.5)]:
            f = hb.spike_pair(m, d).f
            expected = 2.0 ** (m * d * (1.0 - 1.0 / p))
            assert hb.lp_quasinorm(f, p) == pytest.approx(expected, rel=1e-12)
            assert hb.lp_quasinorm(hb.densify(f, m), p) == pytest.approx(
                expected, rel=1e-12
            )

    def test_half_exponent_cell_sum(self):
        f = hb.DyadicStepFunction(1, 1, [1.0, -2.0])
        expected = (0.5 * 1.0 + 0.5 * math.sqrt(2.0)) ** 2
        assert hb.lp_quasinorm(f, 0.5) == pytest.approx(expected, rel=1e-14)

    def test_parameter_error(self):
        f = hb.DyadicStepFunction(1, 0, [1.0])
        with pytest.raises(ValueError):
            hb.lp_quasinorm(f, 0.0)
        with pytest.raises(ValueError):
            hb.lp_quasinorm(f, -1.0)

    def test_sparse_disjoint_log_domain(self):
        # coefficients far outside double range still give a finite norm
        atoms = [
            hb.SparseAtom(cube(1, 2000, 0), 1, 2000.0),
            hb.SparseAtom(cube(1, 3000, 1 << 2999), 1, 3000.0),
        ]
        f = hb.SparseStepFunction(1, atoms)
        assert f.nesting_free
        # each term: 2^{-level} * (2^{level})^p -> 2^{level(p-1)}
        p = 0.5
        expected = (2.0 ** (2000 * (p - 1)) + 2.0 ** (3000 * (p - 1))) ** (1 / p)
        assert hb.lp_quasinorm(f, p) == pytest.approx(expected, rel=1e-12)

    def test_beyond_double_range_raises_value_error(self):
        # a norm of 2^1960 has no double: the error names it, as the atom's
        # value names the atom
        atom = hb.SparseAtom(cube(1, 20, 3), 1, 2000.0)
        f = hb.SparseStepFunction(1, [atom])
        with pytest.raises(ValueError, match=r"2\*\*1960\.0, beyond double range"):
            hb.lp_quasinorm(f, 0.5)
        with pytest.raises(ValueError, match=r"level 20, index \(3,\) has log2 magnitude 2000\.0"):
            atom.value
        assert hb.SparseAtom(cube(1, 20, 3), -1, 1023.0).value == -(2.0**1023)

    def test_nesting_p_powers_beyond_double_range_return_the_norm(self):
        # the histogram path sums |value|^p in doubles: 2^2000 has no double,
        # though the norm (about 2^999) does, so the sum is redone in log2
        atoms = [
            hb.SparseAtom(cube(1, 2, 0), 1, 1000.0),
            hb.SparseAtom(cube(1, 20, 0), 1, 1000.0),
        ]
        f = hb.SparseStepFunction(1, atoms)
        assert not f.nesting_free
        assert hb.lp_quasinorm(f, 2.0) == pytest.approx(
            2.0**999 * (1 + 3 * 2.0**-18) ** 0.5, rel=1e-12
        )
        assert hb.lp_quasinorm(f, 0.5) == pytest.approx(
            2.0 ** (1000 - 2 * 2) * (1 + 2.0 ** (2 - 20) * (2**0.5 - 1)) ** 2, rel=1e-12
        )
        # -1e300 on the left half and 1e300 on the right, from nesting atoms
        g = hb.SparseStepFunction.from_terms(1, [(cube(1, 0, 0), 1e300), (cube(1, 1, 0), -2e300)])
        assert not g.nesting_free
        for p in (1.5, 2.0):
            assert hb.lp_quasinorm(g, p) == pytest.approx(1e300, rel=1e-12)

    def test_dense_p_powers_beyond_double_range_return_the_norm(self):
        f = hb.DyadicStepFunction(1, 2, [1e300, -1e300, 1e300, -1e300])
        for p in (0.5, 1.5, 2.0):
            assert hb.lp_quasinorm(f, p) == pytest.approx(1e300, rel=1e-12)

    @pytest.mark.parametrize("p", [0.4, 0.7, 1.0, 1.5, 2.0])
    def test_refinement_invariance(self, p):
        rng = np.random.default_rng(11)
        for d, m in [(1, 3), (2, 2)]:
            f = hb.DyadicStepFunction(d, m, rng.normal(size=(1 << m,) * d))
            base = hb.lp_quasinorm(f, p)
            for mm in (m + 1, m + 2):
                assert hb.lp_quasinorm(hb.densify(f, mm), p) == pytest.approx(
                    base, rel=1e-12
                )


class TestAverageProject:
    def test_wavelet_projects_to_zero(self):
        for d in (1, 2):
            for k in (0, 1):
                for idx in hb.level_indices(d, k + 1):
                    h = hb.haar_function(idx)
                    out = hb.average_project(h, k)
                    assert np.all(out.values == 0.0)

    def test_idempotent_at_or_above_level(self):
        f = hb.DyadicStepFunction(1, 2, [1.0, 2.0, 3.0, 4.0])
        out = hb.average_project(f, 4)
        assert np.array_equal(out.values, hb.densify(f, 4).values)

    def test_projector_algebra_exact(self):
        rng = np.random.default_rng(5)
        # exponent-exact inputs: dyadic rationals
        vals = rng.integers(-8, 8, size=(8, 8)) / 4.0
        f = hb.DyadicStepFunction(2, 3, vals)
        for k in range(4):
            for l in range(4):
                lhs = hb.average_project(hb.average_project(f, k), l)
                rhs = hb.average_project(f, min(k, l))
                assert np.array_equal(lhs.values, hb.densify(rhs, lhs.level).values)

    def test_l1_contraction(self):
        rng = np.random.default_rng(6)
        for d in (1, 2):
            f = hb.DyadicStepFunction(d, 3, rng.normal(size=(8,) * d))
            for k in range(4):
                assert hb.lp_quasinorm(hb.average_project(f, k), 1.0) <= (
                    hb.lp_quasinorm(f, 1.0) + 1e-12
                )

    def test_scattered_average_values(self):
        spec = hb.ScatteredSpec(2, 2, 0.5)
        f = hb.scattered(spec)
        out = hb.average_project(f, spec.k)
        for i, marked in enumerate(spec.marked_cubes(), start=1):
            block = out.values[marked.grid_slices(spec.k)]
            assert block == pytest.approx(2.0 ** (spec.k * spec.d) * i**-0.5, rel=1e-12)
        # cells outside the marked set stay zero
        assert np.count_nonzero(out.values) == spec.n_atoms

    def test_average_beyond_double_range_raises_value_error(self):
        f = hb.SparseStepFunction(1, [hb.SparseAtom(cube(1, 20, 3), 1, 2000.0)])
        with pytest.raises(ValueError, match=r"level 20, index \(3,\) averages to 2\*\*1985\.0"):
            hb.average_project(f, 5)
        # the same average a double can hold
        g = hb.SparseStepFunction(1, [hb.SparseAtom(cube(1, 20, 3), -1, 1000.0)])
        out = hb.average_project(g, 5)
        assert out.values[0] == -(2.0**985) and np.count_nonzero(out.values) == 1


class TestNestingFree:
    """``nesting_free`` is computed from the atoms' (level, index) keys and
    must agree with a pairwise ``DyadicCube.contains`` check."""

    @staticmethod
    def _check(f):
        expect = nesting_free_oracle(f.atoms)
        assert f.nesting_free == expect
        back = hb.function_from_json(hb.function_to_json(f))
        assert back.nesting_free == expect
        return expect

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_random_sparse(self, d):
        rng = np.random.default_rng(70 + d)
        seen = set()
        for n in range(1, 40):
            f = random_sparse(rng, d, 1 + n % 9, max_level=6 if d < 3 else 4)
            seen.add(self._check(f))
            # the same atoms with one cube repeated nest
            dup = hb.SparseStepFunction(d, f.atoms + f.atoms[-1:])
            assert self._check(dup) is False
        assert seen == {True, False}

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_nested_chains(self, d):
        rng = np.random.default_rng(80 + d)
        assert self._check(hb.nested_family(hb.NestedSpec(d, 0))) is True
        for m in (1, 2, 5):
            chain = [hb.DyadicCube.root(d)]
            for _ in range(m):
                chain.append(chain[-1].child(tuple(int(b) for b in rng.integers(0, 2, d))))
            spec = hb.NestedSpec(d, m, chain=tuple(chain))
            assert self._check(hb.nested_family(spec)) is False
            # one nonzero coefficient leaves one atom, which nests with nothing
            alone = hb.NestedSpec(d, m, rule=(0.0,) * m + (3.0,), chain=tuple(chain))
            assert self._check(hb.nested_family(alone)) is True

    def test_family_generators(self):
        fs = [hb.spike_pair(m, d).f for d in (1, 2) for m in (0, 3, 7)]
        fs += [hb.scattered(hb.ScatteredSpec(k, 1, 0.5)) for k in range(1, 8)]
        fs += [hb.scattered(hb.ScatteredSpec(k, 2, 0.5)) for k in range(1, 4)]
        fs += [
            hb.tensor_spike_pair(k, d, hb.BesovParams(0.5, 1.0, 1.0, d)).f
            for k, d in [(1, 2), (4, 2), (2, 3)]
        ]
        for f in fs:
            assert self._check(f) is True
        for k in range(3):
            assert self._check(hb.spike_pair(4, 1).g(k)) is (k == 0)

    def test_haar_functions(self):
        for d in (1, 2, 3):
            for k in range(3):
                for idx in hb.level_indices(d, k):
                    assert self._check(hb.haar_function(idx)) is True


def _deepest_container_oracle(keys, key):
    """The deepest key strictly containing ``key``, by ``DyadicCube.contains``."""
    d = len(key[1])
    inner = hb.DyadicCube(d, *key)
    outer = [k for k in keys if k[0] < key[0] and hb.DyadicCube(d, *k).contains(inner)]
    return max(outer, default=None)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_atom_forest_parents_match_containment(d):
    # the forest finds parents in one Z-order pass; every key's parent must be
    # its deepest strictly containing key, as a pairwise scan finds it, and
    # every key is listed once
    rng = np.random.default_rng(90 + d)
    fs = [random_sparse(rng, d, n, max_level=7 if d < 3 else 4) for n in range(1, 30)]
    fs += [hb.scattered(hb.ScatteredSpec(k, d, 0.5)) for k in range(1, 4 if d < 3 else 2)]
    fs += [hb.nested_family(hb.NestedSpec(d, m)) for m in (0, 3, 9)]
    for f in fs:
        forest = f._atom_forest()
        assert sorted(forest.keys) == sorted({(a.cube.level, a.cube.index) for a in f.atoms})
        assert len(forest.parent) == len(forest.keys)
        for key, up in zip(forest.keys, forest.parent.tolist()):
            assert (forest.keys[up] if up >= 0 else None) == _deepest_container_oracle(forest.keys, key)


def _assert_frozen(f, names):
    for name in names:
        before = getattr(f, name)
        with pytest.raises(AttributeError, match="immutable"):
            setattr(f, name, before)
        with pytest.raises(AttributeError, match="immutable"):
            delattr(f, name)
        assert getattr(f, name) is before
    # copies and pickles still work, and describe the same f
    for g in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
        assert hb.function_to_json(g) == hb.function_to_json(f)


def test_dense_step_function_cannot_be_rebound():
    # its pyramid is cached on it: with its values read-only and no field
    # rebindable, the pyramid always describes this f
    f = hb.DyadicStepFunction(1, 2, [0.0, 1.0, 2.0, 3.0])
    _assert_frozen(f, ("d", "level", "values", "_pyramid"))
    with pytest.raises(ValueError, match="read-only"):
        f.values[0] = 5.0
    assert hb.lp_quasinorm(f, 1.0) == 1.5


def test_sparse_step_function_cannot_be_rebound():
    # likewise its atom forest
    f = hb.SparseStepFunction.from_terms(1, [(cube(1, 1, 0), 1.0), (cube(1, 0, 0), 2.0)])
    assert not f.nesting_free
    _assert_frozen(f, ("d", "atoms", "_forest"))
    assert hb.lp_quasinorm(f, 1.0) == 2.5


class TestValueHistogram:
    def test_spike_histogram(self):
        m, d = 3, 1
        f = hb.spike_pair(m, d).f
        h = hb.value_histogram(f, hb.DyadicCube.root(d))
        assert h.entries == ((0.0, 1.0 - 2.0**-m), (2.0**m, 2.0**-m))

    def test_nested_histogram_exact_tail(self):
        spec = hb.NestedSpec(1, 3, rule=(1.0, 2.0, 4.0, 8.0))
        f = hb.nested_family(spec)
        k = 1
        h = hb.value_histogram(f, spec.cubes[k])
        xi = np.cumsum([1.0, 2.0, 4.0, 8.0])
        expect = {}
        for n in range(k, 3):
            expect[xi[n]] = 0.5 * 2.0 ** (-n)
        expect[xi[3]] = 2.0**-3
        got = dict(h.entries)
        assert set(got) == set(expect)
        for v, w in expect.items():
            assert got[v] == pytest.approx(w, rel=1e-12)
        assert math.fsum(h.measures) == pytest.approx(spec.cubes[k].measure, rel=1e-12)

    def test_matches_densified_count(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            f = random_sparse(rng, 2, 5, max_level=3)
            fd = hb.densify(f, 3)
            for idx in [(0, 0), (1, 1)]:
                c = hb.DyadicCube(2, 1, idx)
                hs = hb.value_histogram(f, c)
                hd = hb.value_histogram(fd, c)
                assert len(hs.entries) == len(hd.entries)
                for (v1, w1), (v2, w2) in zip(hs.entries, hd.entries):
                    assert v1 == pytest.approx(v2, abs=1e-12)
                    assert w1 == pytest.approx(w2, rel=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_sparse_matches_rescan(self, d):
        """Entries equal a rescan of every atom, bit for bit, on cubes that
        contain an atom, lie inside one, equal one or miss them all."""
        rng = np.random.default_rng(90 + d)
        kinds = set()
        for n in range(8):
            f = random_sparse(rng, d, 3 + n, max_level=4 if d < 3 else 3)
            atoms = tuple(a for a in f.atoms if a.cube.level > 0)
            atoms += atoms[:1]  # a repeated key
            if n % 2:
                atoms += (hb.SparseAtom.from_value(hb.DyadicCube.root(d), 0.75),)
            f = hb.SparseStepFunction(d, atoms)
            cubes = set()
            for lev in range(f.max_level + 3):
                cubes.add(hb.DyadicCube(d, lev, tuple(rng.integers(0, 1 << lev, size=d))))
                for a in f.atoms:
                    c = a.cube
                    shift = lev - c.level
                    if shift <= 0:
                        cubes.add(c.ancestor(lev))
                    else:
                        top = (1 << shift) - 1
                        for corner in (0, top):
                            idx = [(i << shift) + corner for i in c.index]
                            cubes.add(hb.DyadicCube(d, lev, idx))
            cs = [a.cube for a in f.atoms]
            for c in cubes:
                kinds |= {
                    "equal" if b == c else "contains" if c.contains(b) else "inside"
                    for b in cs
                    if b.contains(c) or c.contains(b)
                } or {"disjoint"}
                got = hb.value_histogram(f, c).entries
                want = sparse_histogram_rescan(f.atoms, c).entries
                assert [tuple(map(float.hex, e)) for e in got] == [
                    tuple(map(float.hex, e)) for e in want
                ], c
        assert kinds == {"equal", "contains", "inside", "disjoint"}

    def test_atom_values_are_read_lazily(self):
        # a value beyond double range raises only where a histogram needs it
        f = hb.SparseStepFunction(
            1,
            [
                hb.SparseAtom(cube(1, 1, 0), 1, 0.0),
                hb.SparseAtom(cube(1, 2, 0), -1, 1.0),
                hb.SparseAtom(cube(1, 3, 5), 1, 5000.0),
            ],
        )
        assert f.nesting_free is False
        assert hb.value_histogram(f, cube(1, 1, 0)).entries == ((-1.0, 0.25), (1.0, 0.25))
        with pytest.raises(ValueError, match=r"level 3, index \(5,\) has log2 magnitude 5000"):
            hb.value_histogram(f, hb.DyadicCube.root(1))

    def test_cube_must_be_a_dyadic_cube(self):
        for f in (hb.DyadicStepFunction(1, 1, [2.0, 5.0]), hb.SparseStepFunction(1, [])):
            with pytest.raises(TypeError, match="^expected a DyadicCube, got tuple$"):
                hb.value_histogram(f, (0,))

    def test_below_resolution_is_constant(self):
        f = hb.DyadicStepFunction(1, 1, [2.0, 5.0])
        h = hb.value_histogram(f, cube(1, 3, 7))
        assert h.entries == ((5.0, 2.0**-3),)


    @pytest.mark.parametrize(
        "entries, problem",
        [
            (((math.nan, 1.0), (0.0, 1.0)), "values must be finite"),
            (((0.0, 1.0), (math.inf, 1.0)), "values must be finite"),
            (((-math.inf, 1.0),), "values must be finite"),
            (((0.0, math.nan),), "measures must be positive and finite"),
            (((0.0, 1.0), (1.0, math.inf)), "measures must be positive and finite"),
            (((0.0, 0.0),), "measures must be positive and finite"),
            (((0.0, -1.0),), "measures must be positive and finite"),
            (((3.0, 1.0), (0.0, 1.0), (1.0, 1.0)), "values must be strictly increasing"),
            (((0.0, 1.0), (0.0, 2.0)), "values must be strictly increasing"),
        ],
    )
    def test_bad_entries_rejected(self, entries, problem):
        with pytest.raises(ValueError, match=problem):
            hb.ValueHistogram(entries)

    def test_from_pairs_sorts_and_rejects_non_finite(self):
        h = hb.ValueHistogram.from_pairs([(3.0, 1.0), (0.0, 1.0), (1.0, 1.0)])
        assert h.entries == ((0.0, 1.0), (1.0, 1.0), (3.0, 1.0))
        assert hb.best_constant_error(h, 1.0) == (1.0, 3.0)
        for pairs in ([(math.nan, 1.0), (0.0, 1.0)], [(0.0, math.inf)]):
            with pytest.raises(ValueError, match="must be"):
                hb.ValueHistogram.from_pairs(pairs)


class TestSparseDenseAgreement:
    @settings(max_examples=30)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 3]))
    def test_operations_agree(self, seed, d):
        rng = np.random.default_rng(seed)
        f = random_sparse(rng, d, 4, max_level=3)
        fd = hb.densify(f, 3)
        for p in (0.5, 1.0, 2.0):
            assert hb.lp_quasinorm(f, p) == pytest.approx(
                hb.lp_quasinorm(fd, p), rel=1e-10, abs=1e-12
            )
        for k in (0, 1, 2):
            a = hb.average_project(f, k)
            b = hb.average_project(fd, k)
            np.testing.assert_allclose(a.values, b.values, rtol=1e-12, atol=1e-12)
            # one p per best-constant branch: enumeration, median, bisection, mean
            for p in (0.5, 1.0, 1.5, 2.0):
                assert hb.approx_error(f, k, p) == pytest.approx(
                    hb.approx_error(fd, k, p), rel=1e-10, abs=1e-12
                )


class TestSerialization:
    def test_dense_json_roundtrip(self):
        f = hb.DyadicStepFunction(2, 1, [1.0, -2.0, 3.5, 0.25])
        g = hb.function_from_json(hb.function_to_json(f))
        assert g.d == f.d and g.level == f.level
        assert np.array_equal(g.values, f.values)

    def test_non_finite_values_rejected(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                hb.DyadicStepFunction(1, 1, [bad, 1.0])
            with pytest.raises(ValueError, match="finite"):
                hb.SparseAtom.from_value(cube(1, 1, 0), bad)
        with pytest.raises(ValueError, match="finite"):
            hb.function_from_json('{"kind":"dense","d":1,"m":1,"values":[NaN,1.0]}')
        # a zero atom carries log2|c| = -inf by design
        assert hb.SparseAtom(cube(1, 1, 0), 0, -math.inf).value == 0.0

    def test_sparse_json_roundtrip(self):
        f = hb.scattered(hb.ScatteredSpec(1, 2, 1.0))
        g = hb.function_from_json(hb.function_to_json(f))
        assert g.d == f.d and len(g.atoms) == len(f.atoms)
        for a, b in zip(f.atoms, g.atoms):
            assert a == b

    def test_sparse_json_keeps_big_indices(self):
        f = hb.scattered(hb.ScatteredSpec(2, 2, 0.5))
        text = hb.function_to_json(f)
        g = hb.function_from_json(text)
        assert max(a.cube.level for a in g.atoms) == f.max_level
        json.loads(text)  # valid JSON despite huge integer indices


class TestNumericHelpers:
    def test_stable_sum_matches_fsum(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=10_000) * 10.0 ** rng.integers(-8, 8, size=10_000)
        assert stable_sum(a) == math.fsum(a)

    def test_logsumexp2(self):
        assert logsumexp2([]) == -math.inf
        assert logsumexp2([3.0]) == pytest.approx(3.0)
        assert logsumexp2([0.0, 0.0]) == pytest.approx(1.0)
        assert logsumexp2([10000.0, 10000.0]) == pytest.approx(10001.0)

    def test_signed_log2_sum(self):
        s, e = signed_log2_sum([1, -1], [2.0, 2.0])
        assert s == 0 and e == -math.inf
        s, e = signed_log2_sum([1, -1], [3.0, 2.0])
        assert s == 1 and 2.0**e == pytest.approx(4.0)
        s, e = signed_log2_sum([-1, -1], [5000.0, 5000.0])
        assert s == -1 and e == pytest.approx(5001.0)


def _same_double(got, want):
    return got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


#: Sizes on both sides of the fsum cutoff (1,024 words) and of the 2^14-word
#: extraction block.
SUM_SIZES = [1, 2, 1023, 1024, 1025, 2046, 2**14 - 1, 2**14, 2**14 + 1, 3 * 2**14 + 5]


def _wide_words(rng, n, lo, hi):
    """n words of random sign and mantissa, exponents uniform in [lo, hi)."""
    mant = rng.uniform(0.5, 1.0, n) * rng.choice([-1.0, 1.0], n)
    return np.ldexp(mant, rng.integers(lo, hi, n))


class TestExactSum:
    """``_exact_sum`` returns ``math.fsum``'s double, zero signs included."""

    @settings(max_examples=60)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(SUM_SIZES), st.integers(-1074, 900))
    def test_mixed_signs_and_exponents(self, seed, n, lo):
        rng = np.random.default_rng(seed)
        hi = int(rng.integers(lo + 1, 962))
        a = _wide_words(rng, n, lo, hi)
        assert _same_double(_exact_sum(a), math.fsum(a))

    @settings(max_examples=60)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([1024, 2046, 4094, 2**14, 2**14 + 2046]),
        st.integers(-1000, 959),
    )
    def test_one_sign(self, seed, n, e):
        # block sums near n * max|word|, the most the exact range holds when
        # the block has 2^k - 2 words
        a = np.ldexp(np.random.default_rng(seed).uniform(0.5, 1.0, n), e)
        for words in (a, -a):
            assert _same_double(_exact_sum(words), math.fsum(words))

    @settings(max_examples=30)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(SUM_SIZES))
    def test_full_exponent_range_and_subnormals(self, seed, n):
        rng = np.random.default_rng(seed)
        a = _wide_words(rng, n, -1074, 961)
        tiny = rng.integers(-(2**52), 2**52, n) * 2.0**-1074  # subnormal words
        mask = rng.uniform(size=n) < 0.5
        a[mask] = tiny[mask]
        assert _same_double(_exact_sum(a), math.fsum(a))
        assert _same_double(_exact_sum(tiny), math.fsum(tiny))

    @settings(max_examples=60)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(SUM_SIZES[3:]),
        st.integers(-1000, 900),
        st.booleans(),
        st.integers(0, 8),
        st.booleans(),
    )
    def test_exact_half_way_ties(self, seed, n, e, odd, split, negative):
        # base + half an ulp of base, the half ulp split into 2^split pieces,
        # behind pairs x, -x that cancel exactly: fsum rounds half to even
        rng = np.random.default_rng(seed)
        sign = -1.0 if negative else 1.0
        base = sign * math.ldexp(1.0 + odd * 2.0**-52, e)
        pieces = [sign * math.ldexp(1.0, e - 53 - split)] * (1 << split)
        pairs = _wide_words(rng, (n - 1 - len(pieces)) // 2, e - 60, e + 60)
        a = np.concatenate([[base], pieces, pairs, -pairs])
        rng.shuffle(a)
        want = math.fsum(a)
        assert want == (base if not odd else base + sign * math.ldexp(1.0, e - 52))
        assert _same_double(_exact_sum(a), want)

    @settings(max_examples=30)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(SUM_SIZES), st.booleans())
    def test_exact_cancellation_to_zero(self, seed, n, zeros):
        rng = np.random.default_rng(seed)
        x = _wide_words(rng, n // 2, -1074, 961)
        a = np.concatenate([x, -x, [-0.0] * (n % 2)])
        rng.shuffle(a)
        if zeros:
            a = np.full(n, -0.0) if seed % 2 else np.zeros(n)
        assert _same_double(_exact_sum(a), math.fsum(a))

    @pytest.mark.parametrize("pad", [0, 2000])
    @pytest.mark.parametrize(
        "head",
        [[math.inf], [math.nan], [-math.inf, 1.0], [math.inf, -math.inf], [1e308, 1e308, -1e308]],
    )
    def test_non_finite_and_overflow_follow_fsum(self, head, pad):
        a = np.concatenate([np.zeros(pad), head])
        try:
            want = math.fsum(a)
        except (ValueError, OverflowError) as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                _exact_sum(a)
        else:
            got = _exact_sum(a)
            assert _same_double(got, want) or (math.isnan(got) and math.isnan(want))

    def test_stable_sum_is_fsum_of_the_whole_array_above_2_20_words(self):
        a = _wide_words(np.random.default_rng(3), 2**20 + 3, -60, 60)
        assert _same_double(stable_sum(a), math.fsum(a))
        assert _same_double(stable_sum(a[: 2**20]), math.fsum(a[: 2**20]))
        # 1 + 2^-53 is a tie that rounds to 1, so a sum of rounded 2^20-word
        # block sums loses the 2^-60 past the block end that breaks it upwards
        tie = np.zeros(2**20 + 1)
        tie[[0, 1, -1]] = 1.0, 2.0**-53, 2.0**-60
        assert stable_sum(tie) == math.fsum(tie) == 1.0 + 2.0**-52


def _seeded_wide(seed, n):
    s = RandomStream(seed)
    return np.ldexp(s.normal(n), (s.random_u64(n) % 61).astype(int) - 30)


def array_sum_callers_fingerprint():
    """SHA-256 of the correctly rounded sums' callers, as float.hex text, on
    seeded inputs of 2^10 to 2^20 + 3 words."""
    out = []
    sparse = np.where(RandomStream(5).uniform(1 << 16) > 0.9, _seeded_wide(6, 1 << 16), 0.0)
    arrays = (
        _seeded_wide(1, 1 << 10),
        _seeded_wide(2, 1 << 14),
        _seeded_wide(3, 1 << 20),
        _seeded_wide(4, (1 << 20) + 3),
        sparse,
        -np.abs(_seeded_wide(7, 5000)),
    )
    out += [stable_sum(a) for a in arrays]
    for seed, n in ((8, 1 << 10), (9, 1 << 16)):
        out.append(logsumexp2(RandomStream(seed).uniform(n, -40.0, 40.0)))
        s = RandomStream(seed + 100)
        signs = np.where(s.uniform(n) < 0.5, -1.0, 1.0)
        sign, lg = signed_log2_sum(signs, s.uniform(n, -30.0, 30.0))
        out += [float(sign), lg]
    for seed, n in ((10, 1 << 10), (11, 1 << 14)):
        s = RandomStream(seed)
        pairs = zip(s.normal(n).tolist(), s.uniform(n, 0.5, 2.0).tolist())
        hist = hb.ValueHistogram.from_pairs(pairs)
        for p in (0.5, 1.0, 1.5, 2.0):  # the four best-constant branches
            out.extend(hb.best_constant_error(hist, p))
    grid = random_step(12, 2, 8)
    nesting = random_sparse(np.random.default_rng(13), 1, 3000, max_level=12)
    assert not nesting.nesting_free  # so its L_p norm sums a histogram
    for p in (0.5, 1.5, 2.0):
        out += [hb.lp_quasinorm(grid, p), hb.lp_quasinorm(nesting, p)]
    coeffs = hb.analyze(random_step(14, 1, 16))
    for p, q, s in ((0.8, 1.0, 0.5), (1.5, 2.0, 0.3), (2.0, 0.5, 0.1)):
        out.append(hb.lqlp_norm(coeffs, hb.BesovParams(p, q, s, 1)))
    out += [hb.square_function_norm(grid, p) for p in (1.0, 1.5)]
    line, small = random_step(15, 1, 12), random_step(16, 2, 7)
    for f, ps in ((grid, (1.0, 1.5, 2.0)), (line, (0.8, 1.0, 1.5, 2.0)), (small, (0.8,))):
        for p in ps:
            prof = approximation_profile(f, p)
            out += prof.e_values.tolist() + [prof.lp_norm]
    return hashlib.sha256(" ".join(map(float.hex, out)).encode()).hexdigest()


def test_array_sum_callers_golden_digest():
    # digest of the callers as they summed every array with math.fsum, with
    # the p = 1.5 best constants certified within _ROOT_EPS of the minimum
    digest = "fc7abe6793967ca31c7bf469e4370900643e36cfb53616167f2c2bde6e0aa7c5"
    assert array_sum_callers_fingerprint() == digest
