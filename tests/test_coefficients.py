"""The coefficient containers' one door.

``HaarCoefficients`` and ``TensorHaarCoefficients`` check their arrays at
construction (shape, finite values), take a float64 array over and set it
read-only, and refuse rebinding.  The coefficient table is generated from
``helpers.public_callables``: every public parameter annotated with a
container class needs a row, each row must refuse a list with a
``TypeError`` naming the class, and must evaluate a container built from
read-only arrays, so no route writes into its input.
"""

import argparse
import copy
import inspect
import json
import math
import pickle

import numpy as np
import pytest

import haar_besov as hb
from haar_besov import cli
from haar_besov.cli import main as cli_main
from haar_besov.experiments import random_step

from helpers import public_callables

PRM = hb.BesovParams(1.5, 1.0, 0.3, 2)
SUP = hb.BesovParams(1.5, hb.INF, 0.3, 2)
F = random_step(28, 2, 3)

# id -> (the route called on a container, the container class it takes)
COEFFICIENT_ROWS = {
    "synthesize": (lambda c: hb.synthesize(c, 4), hb.HaarCoefficients),
    "tensor_synthesize": (lambda c: hb.tensor_synthesize(c, 4), hb.TensorHaarCoefficients),
    "lqlp_norm": (lambda c: hb.lqlp_norm(c, PRM), hb.HaarCoefficients),
    "lqlp_norm_log2": (lambda c: hb.lqlp_norm_log2(c, PRM), hb.HaarCoefficients),
    "linf_lp_norm": (lambda c: hb.linf_lp_norm(c, SUP), hb.HaarCoefficients),
}


def _frozen_copy(a):
    a = np.array(a)
    a.setflags(write=False)
    return a


def _read_only_container(cls):
    """A container of F's coefficients, built from arrays already read-only."""
    if cls is hb.HaarCoefficients:
        c = hb.analyze(F)
        return cls(c.d, c.max_level, c.scaling, [_frozen_copy(b) for b in c.blocks])
    c = hb.tensor_analyze(F)
    return cls(c.d, c.level, _frozen_copy(c.array))


def _bits(result):
    if isinstance(result, float):
        return result.hex()
    if isinstance(result, hb.DyadicStepFunction):
        return result.values.tobytes()
    return result.value.hex(), result.per_level.tobytes()


def test_every_coefficient_parameter_has_a_row():
    names = {"HaarCoefficients", "TensorHaarCoefficients"}
    found = {
        qual
        for qual, fn in public_callables()
        for param in inspect.signature(fn).parameters.values()
        if param.annotation in names  # annotations are strings
    }
    assert found == set(COEFFICIENT_ROWS)


@pytest.mark.parametrize("case", COEFFICIENT_ROWS)
def test_a_list_raises_type_error_naming_the_class(case):
    route, cls = COEFFICIENT_ROWS[case]
    with pytest.raises(TypeError, match=f"^expected {cls.__name__}$"):
        route([1.0, 2.0])


@pytest.mark.parametrize("case", COEFFICIENT_ROWS)
def test_containers_of_read_only_arrays_evaluate(case):
    # a route that wrote into its input would raise here
    route, cls = COEFFICIENT_ROWS[case]
    built = hb.analyze(F) if cls is hb.HaarCoefficients else hb.tensor_analyze(F)
    assert _bits(route(_read_only_container(cls))) == _bits(route(built))


def _to_json_by_walk(c):
    """``to_json`` text built cell by cell, the walk the library once took."""
    if isinstance(c, hb.TensorHaarCoefficients):
        entries = [
            {"n": [i + 1 for i in pos], "value": float(c.array[pos])}
            for pos in np.ndindex(c.array.shape)
            if c.array[pos] != 0.0
        ]
        return json.dumps({"d": c.d, "entries": entries}, sort_keys=True)
    levels = [{"k": 0, "entries": [{"parent": [], "pattern": 0, "value": c.scaling}]}]
    for k, block in enumerate(c.blocks, start=1):
        cells = [(pidx, pat) for pidx in np.ndindex(block.shape[: c.d]) for pat in range(1, 1 << c.d)]
        entries = [
            {"parent": list(pidx), "pattern": pat, "value": float(block[pidx + (pat - 1,)])}
            for pidx, pat in cells
            if block[pidx + (pat - 1,)] != 0.0
        ]
        levels.append({"k": k, "entries": entries})
    return json.dumps({"d": c.d, "K": c.max_level, "levels": levels}, sort_keys=True)


@pytest.mark.parametrize("d,m", [(1, 0), (1, 6), (2, 3), (3, 2)])
def test_to_json_matches_the_cell_by_cell_walk(d, m):
    # zeros and -0.0 are left out, every other value is written in row-major order
    r = np.random.default_rng(d * 10 + m)

    def holes(a):
        a = np.array(a)
        a[r.random(a.shape) < 0.3] = 0.0
        a[r.random(a.shape) < 0.2] = -0.0
        return a

    f = random_step(29, d, m)
    c, t = hb.analyze(f), hb.tensor_analyze(f)
    for coeffs in (
        c,
        t,
        hb.HaarCoefficients(d, m, -0.0, [holes(b) for b in c.blocks]),
        hb.TensorHaarCoefficients(d, m, holes(t.array)),
    ):
        assert coeffs.to_json() == _to_json_by_walk(coeffs)


NAN_BLOCK = [np.zeros((1, 1)), np.array([[0.5], [math.nan]])]
DOOR_CASES = {
    "inf scaling": (lambda: hb.HaarCoefficients(1, 0, math.inf, []), "HaarCoefficients scaling"),
    "nan scaling": (lambda: hb.HaarCoefficients(1, 0, math.nan, []), "HaarCoefficients scaling"),
    "nan block": (lambda: hb.HaarCoefficients(1, 2, 0.0, NAN_BLOCK), "HaarCoefficients block 2"),
    "inf block d=2": (
        lambda: hb.HaarCoefficients(2, 1, 0.0, [[[[1.0, -math.inf, 0.0]]]]),
        "HaarCoefficients block 1",
    ),
    "nan tensor": (
        lambda: hb.TensorHaarCoefficients(2, 1, [[1.0, 2.0], [math.nan, 0.0]]),
        "TensorHaarCoefficients values",
    ),
    "inf tensor": (
        lambda: hb.TensorHaarCoefficients(1, 1, [1.0, -math.inf]),
        "TensorHaarCoefficients values",
    ),
    # Python's json reads Infinity and NaN
    "Infinity scaling from json": (
        lambda: hb.HaarCoefficients.from_json(
            '{"d": 1, "K": 0, "levels": [{"k": 0, "entries": [{"value": Infinity}]}]}'
        ),
        "HaarCoefficients scaling",
    ),
    "Infinity block from json": (
        lambda: hb.HaarCoefficients.from_json(
            '{"d": 1, "K": 1, "levels": [{"k": 1, "entries": '
            '[{"parent": [0], "pattern": 1, "value": Infinity}]}]}'
        ),
        "HaarCoefficients block 1",
    ),
    "NaN tensor from json": (
        lambda: hb.TensorHaarCoefficients.from_json(
            '{"d": 1, "entries": [{"n": [2], "value": NaN}]}', 0
        ),
        "TensorHaarCoefficients values",
    ),
}


@pytest.mark.parametrize("case", DOOR_CASES)
def test_non_finite_coefficients_raise_at_the_door(case):
    build, what = DOOR_CASES[case]
    with pytest.raises(ValueError, match=f"^{what} must be finite \\(no NaN or inf\\)$"):
        build()


def test_containers_refuse_rebinding_and_writes():
    c, t = hb.analyze(F), hb.tensor_analyze(F)
    for obj, name in ((c, "scaling"), (c, "blocks"), (c, "d"), (t, "array"), (t, "level")):
        cls = type(obj).__name__
        with pytest.raises(AttributeError, match=f"^{cls} is immutable: cannot rebind '{name}'$"):
            setattr(obj, name, getattr(obj, name))
        with pytest.raises(AttributeError, match=f"^{cls} is immutable: cannot rebind '{name}'$"):
            delattr(obj, name)
    assert isinstance(c.blocks, tuple)
    with pytest.raises(TypeError):
        c.blocks[0] = np.zeros_like(c.blocks[0])
    with pytest.raises(ValueError, match="read-only"):
        c.blocks[0][0, 0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        t.array[0, 0] = 1.0


def test_copies_and_pickles_rebuild_through_the_door():
    for c in (hb.analyze(F), hb.tensor_analyze(F)):
        for twin in (copy.copy(c), copy.deepcopy(c), pickle.loads(pickle.dumps(c))):
            assert type(twin) is type(c) and twin.to_json() == c.to_json()
            arrays = twin.blocks if isinstance(twin, hb.HaarCoefficients) else (twin.array,)
            assert not any(a.flags.writeable for a in arrays)


@pytest.mark.parametrize("system", ["isotropic", "tensor"])
@pytest.mark.parametrize("bad", ["Infinity", "NaN"])
def test_cli_inverse_transform_names_the_container(system, bad, tmp_path, capsys):
    if system == "isotropic":
        text = (
            '{"d": 1, "K": 1, "levels": [{"k": 1, "entries": '
            f'[{{"parent": [0], "pattern": 1, "value": {bad}}}]}}]}}'
        )
        message = "HaarCoefficients block 1 must be finite (no NaN or inf)"
    else:
        text = f'{{"d": 1, "entries": [{{"n": [2], "value": {bad}}}]}}'
        message = "TensorHaarCoefficients values must be finite (no NaN or inf)"
    path = tmp_path / "coeffs.json"
    path.write_text(text)
    assert cli_main(["transform", "--inverse", "--system", system, "--input", str(path)]) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"error: {message}\n"


def test_cli_dispatches_every_subcommand_through_its_table():
    actions = cli._build_parser()._actions
    sub = next(a for a in actions if isinstance(a, argparse._SubParsersAction))
    assert set(cli._COMMANDS) == set(sub.choices)
