"""Every integer parameter (dimension, level, count, scale, seed) is read by
one reader: a bool, a float, a string, None or a value below the parameter's
least value raises a ValueError naming it, and a numpy integer is accepted
and stored as a Python int."""

import dataclasses
import inspect
import json
from operator import attrgetter

import numpy as np
import pytest

import haar_besov as hb
from haar_besov.cli import main as cli_main
from haar_besov.experiments import ExperimentConfig, random_step
from haar_besov.families import SpikePair
from haar_besov.haar import univariate_haar_vector
from haar_besov.norms import ModulusTable
from haar_besov.rng import RandomStream, derive_seed, splitmix64

from helpers import public_callables

F = hb.DyadicStepFunction(1, 2, [0.0, 1.0, 2.0, 3.0])
ROOT = hb.DyadicCube(1, 0, (0,))
TENSOR_PRM = hb.BesovParams(0.5, 1.0, 1.0, 2)
CONFIG = ExperimentConfig("equivalence", p=2.0, q=2.0, s=0.25, d=1)
COEFFS = hb.analyze(F)
SPIKE = hb.tensor_spike_pair(2, 2, TENSOR_PRM)
D, LEVEL = attrgetter("d"), attrgetter("level")


def config_field(name):
    return lambda v: dataclasses.replace(CONFIG, **{name: v})


# id -> (name in the error, least value or None, a valid value, entry point,
# reader of the stored integer or None where nothing is stored)
CASES = {
    "DyadicCube.d": ("d", 1, 1, lambda v: hb.DyadicCube(v, 0, (0,)), D),
    "DyadicCube.level": ("level", 0, 1, lambda v: hb.DyadicCube(1, v, (0,)), LEVEL),
    "DyadicCube.root.d": ("d", 1, 1, hb.DyadicCube.root, D),
    "DyadicCube.ancestor.level": (
        "level", 0, 1, lambda v: hb.DyadicCube(1, 2, (3,)).ancestor(v), LEVEL
    ),
    "DyadicCube.grid_slices.m": (
        "m", 0, 2, lambda v: [(s.start, s.stop) for s in ROOT.grid_slices(v)], None
    ),
    "DyadicStepFunction.d": ("d", 1, 1, lambda v: hb.DyadicStepFunction(v, 0, [1.0]), D),
    "DyadicStepFunction.level": (
        "level", 0, 1, lambda v: hb.DyadicStepFunction(1, v, [1.0, 2.0]), LEVEL
    ),
    "SparseStepFunction.d": ("d", 1, 1, lambda v: hb.SparseStepFunction(v, []), D),
    "SparseStepFunction.from_terms.d": (
        "d", 1, 1, lambda v: hb.SparseStepFunction.from_terms(v, []), D
    ),
    "BesovParams.d": ("d", 1, 1, lambda v: hb.BesovParams(2.0, 2.0, 0.25, v), D),
    "approx_error.k": ("k", 0, 1, lambda v: hb.approx_error(F, v, 2.0), None),
    "average_project.k": ("k", 0, 1, lambda v: hb.average_project(F, v), LEVEL),
    "densify.m": ("m", 0, 3, lambda v: hb.densify(F, v), LEVEL),
    "random_step.m": ("level", 0, 2, lambda v: random_step(1, 1, v), LEVEL),
    "random_step.d": ("d", 1, 1, lambda v: random_step(1, v, 2), D),
    "random_step.seed": ("seed", None, 3, lambda v: random_step(v, 1, 2).values, None),
    "RandomStream.seed": ("seed", None, 3, RandomStream, attrgetter("seed")),
    "RandomStream.random_u64.n": ("n", 0, 3, lambda v: RandomStream(1).random_u64(v), None),
    "RandomStream.uniform.n": ("n", 0, 3, lambda v: RandomStream(1).uniform(v), None),
    "RandomStream.normal.n": ("n", 0, 3, lambda v: RandomStream(1).normal(v), None),
    "NestedSpec.d": ("d", 1, 1, lambda v: hb.NestedSpec(v, 2), D),
    "NestedSpec.m": ("m", 0, 2, lambda v: hb.NestedSpec(1, v), attrgetter("m")),
    "SpikePair.m": ("m", 0, 2, lambda v: SpikePair(v, 1), attrgetter("m")),
    "SpikePair.d": ("d", 1, 1, lambda v: SpikePair(2, v), D),
    "SpikePair.g.k": ("k", 0, 1, lambda v: hb.function_to_json(SpikePair(2, 1).g(v)), None),
    "spike_pair.m": ("m", 0, 2, lambda v: hb.spike_pair(v, 1), attrgetter("m")),
    "spike_pair.d": ("d", 1, 1, lambda v: hb.spike_pair(2, v), D),
    "ScatteredSpec.k": ("k", 1, 2, lambda v: hb.ScatteredSpec(v, 1, 0.5), attrgetter("k")),
    "ScatteredSpec.d": ("d", 1, 1, lambda v: hb.ScatteredSpec(2, v, 0.5), D),
    "tensor_spike_pair.k": (
        "k", 1, 2, lambda v: hb.tensor_spike_pair(v, 2, TENSOR_PRM), attrgetter("k")
    ),
    "tensor_spike_pair.d": ("d", 1, 2, lambda v: hb.tensor_spike_pair(2, v, TENSOR_PRM), D),
    "tensor_block_order.block": ("block", 0, 2, hb.tensor_block_order, None),
    "tensor_block_level.n": ("n", 1, 3, lambda v: hb.tensor_block_level((1, v)), None),
    "univariate_haar_vector.n": ("n", 1, 3, lambda v: univariate_haar_vector(v, 2), None),
    "ModulusTable.omega_ppow.j": ("j", 0, 3, lambda v: ModulusTable(F, 2.0).omega_ppow(v), None),
    "ModulusTable.omega.j": ("j", 0, 3, lambda v: ModulusTable(F, 2.0).omega(v), None),
    "HaarIndex.d": ("d", 1, 1, lambda v: hb.HaarIndex(v, 0, None, 0), D),
    "HaarIndex.level": ("level", 0, 1, lambda v: hb.HaarIndex(1, v, ROOT, 1), LEVEL),
    "HaarIndex.pattern": (
        "pattern", 0, 1, lambda v: hb.HaarIndex(1, 1, ROOT, v), attrgetter("pattern")
    ),
    "HaarIndex.scaling.d": ("d", 1, 1, hb.HaarIndex.scaling, D),
    "HaarIndex.wavelet.pattern": (
        "pattern", 0, 1, lambda v: hb.HaarIndex.wavelet(ROOT, v), attrgetter("pattern")
    ),
    "synthesize.m": ("m", 0, 2, lambda v: hb.synthesize(COEFFS, v), LEVEL),
    "TensorHaarCoefficients.d": (
        "d", 1, 1, lambda v: hb.TensorHaarCoefficients(v, 0, np.zeros(1)), D
    ),
    "TensorHaarCoefficients.level": (
        "level", 0, 1, lambda v: hb.TensorHaarCoefficients(1, v, np.zeros(2)), LEVEL
    ),
    "tensor_synthesize.m": (
        "m", 0, 2, lambda v: hb.tensor_synthesize(hb.tensor_analyze(F), v), LEVEL
    ),
    "TensorSpikeResult.theta_function.m": ("m", 0, 2, SPIKE.theta_function, LEVEL),
    "HaarCoefficients.d": ("d", 1, 1, lambda v: hb.HaarCoefficients(v, 0, 0.0, []), D),
    "HaarCoefficients.max_level": (
        "max_level",
        0,
        1,
        lambda v: hb.HaarCoefficients(1, v, 0.0, [np.zeros((1, 1))]),
        attrgetter("max_level"),
    ),
    "TensorHaarCoefficients.from_json.level": (
        "level",
        0,
        1,
        lambda v: hb.TensorHaarCoefficients.from_json('{"d": 1, "entries": []}', v),
        LEVEL,
    ),
    "level_indices.d": ("d", 1, 1, lambda v: len(list(hb.level_indices(v, 2))), None),
    "level_indices.k": ("k", 0, 2, lambda v: len(list(hb.level_indices(1, v))), None),
    "block_size.d": ("d", 1, 2, lambda v: hb.block_size(v, 2), None),
    "block_size.k": ("k", 0, 2, lambda v: hb.block_size(2, v), None),
    "univariate_haar_vector.m": ("m", 0, 2, lambda v: univariate_haar_vector(3, v), None),
    "tensor_haar_function.d": ("d", 1, 1, lambda v: hb.tensor_haar_function(v, (2,), 2), D),
    "tensor_haar_function.m": (
        "m", 0, 2, lambda v: hb.tensor_haar_function(1, (2,), v), LEVEL
    ),
    "SparseAtom.sign": ("sign", -1, 1, lambda v: hb.SparseAtom(ROOT, v, 0.0), attrgetter("sign")),
    "spike_closed_form.m": (
        "m", 0, 2, lambda v: hb.spike_closed_form(v, 2, TENSOR_PRM).e_values, None
    ),
    "spike_closed_form.d": (
        "d", 1, 2, lambda v: hb.spike_closed_form(2, v, TENSOR_PRM).e_values, None
    ),
    "nested_family.d": ("d", 1, 1, lambda v: hb.nested_family(hb.NestedSpec(v, 2)), D),
    "scattered.k": (
        "k", 1, 2, lambda v: len(hb.scattered(hb.ScatteredSpec(v, 1, 0.5)).atoms), None
    ),
    "scattered.d": ("d", 1, 1, lambda v: hb.scattered(hb.ScatteredSpec(2, v, 0.5)), D),
    "derive_seed.seed": ("seed", None, 3, lambda v: derive_seed(v, 2), None),
    "derive_seed.salt": ("salt", None, 2, lambda v: derive_seed(3, v), None),
    "splitmix64.seed": ("seed", None, 3, lambda v: splitmix64(v, 2), None),
    "splitmix64.count": ("count", 0, 2, lambda v: splitmix64(3, v), None),
    **{
        f"ExperimentConfig.{name}": (
            name, low, getattr(CONFIG, name), config_field(name), attrgetter(name)
        )
        for name, low in [
            ("d", 1), ("seed", None), ("m_lo", 0), ("m_hi", 0), ("k_lo", 0), ("k_hi", 0),
            ("samples", 1),
        ]
    },
}


# parameters whose None means "f's or the coefficients' own finest level"
OPTIONAL = {"densify.m", "tensor_synthesize.m", "TensorSpikeResult.theta_function.m"}

# int parameters no reader checks, with the reason
EXEMPT = {
    "CapacityError.required_cells": "a result record: the library computes it",
    "CapacityError.budget": "a result record: the library's fixed budget",
    "ScatteredNorms.n_atoms": "a result record of scattered_closed_norms",
    "TensorSpikeResult.k": "a result record of tensor_spike_pair, which reads k",
    "TensorSpikeResult.d": "a result record of tensor_spike_pair, which reads d",
    "critical_smoothness.d": "a formula on classify-sweep's hot loop; callers pass "
    "BesovParams' checked d",
}

# a *salts parameter is one row, named as its error names one salt
ALIASES = {"derive_seed.salts": "derive_seed.salt"}


def int_parameters():
    """'callable.parameter' for every parameter annotated int (or int | None)
    of every public callable (see ``helpers.public_callables``)."""
    for qual, fn in public_callables():
        for param in inspect.signature(fn).parameters.values():
            if param.annotation in ("int", "int | None"):
                key = f"{qual}.{param.name}"
                yield ALIASES.get(key, key)


def test_every_public_integer_parameter_has_a_row():
    found = set(int_parameters())
    assert found - set(CASES) - set(EXEMPT) == set(), "int parameters with no CASES row"
    assert set(EXEMPT) <= found, "exemptions that name no public int parameter"


@pytest.mark.parametrize("case", CASES)
def test_bad_integers_are_rejected_by_name(case):
    name, low, _, entry, _ = CASES[case]
    bad = [2.0, "2", True] + ([] if low is None else [low - 1])
    if case not in OPTIONAL:
        bad.append(None)
    for value in bad:
        with pytest.raises(ValueError, match=f"^{name} must be an integer") as err:
            entry(value)
        assert repr(value) in str(err.value)


@pytest.mark.parametrize("case", CASES)
def test_numpy_integers_are_read_as_python_ints(case):
    _, _, valid, entry, stored = CASES[case]
    got, want = entry(np.int64(valid)), entry(valid)
    if stored is None:
        assert np.array_equal(got, want)
    else:
        assert type(stored(got)) is int and stored(got) == stored(want) == valid


@pytest.mark.parametrize(
    "text, name, below",
    [
        ('{"d": %s, "K": 0, "levels": []}', "d", 0),
        ('{"d": 1, "K": %s, "levels": []}', "K", -1),
    ],
)
def test_haar_coefficient_json_integers_are_read_strictly(text, name, below):
    for value in ("2.0", '"2"', "true", "null"):
        with pytest.raises(ValueError, match=f"JSON field '{name}' is malformed: {name} must be"):
            hb.HaarCoefficients.from_json(text % value)
    # below the least value: the budget check names the dimension or level
    with pytest.raises(ValueError, match=f"must be an integer >= {below + 1}, got {below}"):
        hb.HaarCoefficients.from_json(text % below)


def test_cli_rejects_a_zero_dimensional_sparse_file(tmp_path, capsys):
    fpath = tmp_path / "z.json"
    fpath.write_text(json.dumps({"kind": "sparse", "d": 0, "atoms": []}))
    assert cli_main(["norm", "--input", str(fpath), "--p", "2", "--route", "lp"]) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err == "error: d must be an integer >= 1, got 0\n"
