"""The benchmark's correctness checks, run in process as part of the suite.

``bench/workloads.py`` compares every value it computes with its closed
form or with ``bench/refs.json`` (1e-10 relative for the a-route, lqlp and
L_p values), and every experiment report with a stored SHA-256 of its bytes.
Running its task lists here makes a change to those numbers fail the suite,
not only the benchmark.  The benchmark files are loaded as they are.
"""

import importlib.util
import json
import os
import random
import sys
from pathlib import Path

import pytest

import haar_besov as hb
from haar_besov import norms
from haar_besov.experiments import random_step
from haar_besov.norms import ModulusTable

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
spans = _load("spans")
REFS = json.loads((BENCH / "refs.json").read_text())


def _run(tasks):
    """One pass of ``tasks`` through a fresh Checker, as ``bench/run.py`` runs it."""
    chk = workloads.Checker(REFS)
    tracer = spans.NullTracer()
    for label, _, fn in tasks:
        try:
            fn(tracer, chk)
        except Exception as exc:  # a raising call is a failed check
            chk.raised(label, exc)
    return chk


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", sorted(workloads.BUILDERS))
def test_small_task_list_passes_every_check(workload, seed):
    chk = _run(workloads.BUILDERS[workload](seed, "small"))
    assert chk.attempted > 0
    assert chk.failed == 0, chk.failures


@pytest.mark.parametrize("workload", sorted(workloads.BUILDERS))
def test_warm_up_runs(workload):
    # the benchmark's setup path calls the library directly; a signature it
    # relies on that goes missing fails here, not only as a failed bench run
    workloads.warm_up(workload)


def test_full_fine_grid_p_below_one_profiles_pass():
    # every pool member of the full p < 1 profiles: rows of 256 to 4,096
    # distinct values, which take the pruned enumeration
    configs = [(d, m, p) for d, m, p in workloads.FINE_PROFILE["full"] if p < 1.0]
    tasks = [workloads.profile_item(*c, j) for c in configs for j in range(workloads.FINE_POOL)]
    chk = _run(tasks)
    # one L_p value and m values E_0..E_{m-1} per item
    assert chk.attempted == workloads.FINE_POOL * sum(1 + m for _, m, _ in configs)
    assert chk.failed == 0, chk.failures


class _Counts:
    """A tracer that only takes counts, as a counting pass of the benchmark does."""

    counting = True

    def __init__(self):
        self.counts = {}

    def count(self, name, n):
        self.counts[name] = self.counts.get(name, 0) + n


@pytest.mark.parametrize("d,m,p", [(1, 4, 0.8), (1, 5, 2.0), (2, 3, 1.0), (2, 2, 1.5)])
def test_b_norm_reads_every_level_through_the_subcell_hook(d, m, p, monkeypatch):
    # the benchmark counts norms.modulus.subcell_scales by wrapping
    # table.omega_ppow, so b_norm must read every level it sums through
    # that attribute, and a level read again must be the cached value: the
    # sub-cell scales are evaluated in blocks of levels, and no level is
    # evaluated twice
    evaluated, corner_shift_max = [], norms._corner_shift_max

    def counted(near, levels, *rest):
        evaluated.extend(levels.tolist())
        return corner_shift_max(near, levels, *rest)

    monkeypatch.setattr(norms, "_corner_shift_max", counted)
    f = random_step(workloads.pool_seed("lattice", d, p, m, 0), d, m)
    table = ModulusTable(f, p)
    tracer = _Counts()
    workloads.watch_subcell_scales(tracer, table, m)
    hooked, reads = table.omega_ppow, []

    def recording(j):
        reads.append((j, hooked(j)))
        return reads[-1][1]

    table.omega_ppow = recording
    prm = hb.BesovParams(p, 1.0, workloads.mid_s(p, d), d)
    first = table.b_norm(prm)
    levels = [j for j, _ in reads]
    top = levels[-1]
    assert levels == list(range(top + 1)) and top > m
    assert tracer.counts == {"norms.modulus.subcell_scales": top - m}
    assert len(set(evaluated)) == len(evaluated)
    assert set(range(m + 1, top + 1)) <= set(evaluated)
    again, blocks = list(reads), list(evaluated)
    reads.clear()
    assert table.b_norm(prm) == first
    assert reads == again
    assert tracer.counts == {"norms.modulus.subcell_scales": top - m}
    assert evaluated == blocks


@pytest.mark.parametrize("d,m,p", [(1, 4, 0.8), (2, 3, 1.0), (2, 5, 0.8)])
def test_b_norm_reads_each_level_once_and_never_through_omega(d, m, p, monkeypatch):
    # b_norm takes omega(j) as omega_ppow(j) ** (1/p) itself: one read per
    # level through the benchmark's hook, and no call of the checked omega
    def no_omega(self, j):
        raise AssertionError("b_norm called ModulusTable.omega")

    monkeypatch.setattr(ModulusTable, "omega", no_omega)
    f = random_step(workloads.pool_seed("lattice", d, p, m, 0), d, m)
    table = ModulusTable(f, p)
    hooked, reads = table.omega_ppow, []
    table.omega_ppow = lambda j: reads.append(j) or hooked(j)
    for q in workloads.LATTICE_Q:
        reads.clear()
        table.b_norm(hb.BesovParams(p, q, workloads.mid_s(p, d), d))
        assert reads == list(range(len(reads))) and reads[-1] > m


def _warm_item_calls(fn) -> int:
    """Python calls one warm run of the benchmark task ``fn`` makes in the
    library's own files (numpy's Python wrappers left out), its checks passing."""
    fn(spans.NullTracer(), workloads.Checker(REFS))  # warm the caches
    package = os.path.dirname(hb.__file__) + os.sep
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(package):
            calls += 1

    chk = workloads.Checker(REFS)
    sys.setprofile(profile)
    try:
        fn(spans.NullTracer(), chk)
    finally:
        sys.setprofile(None)
    assert chk.attempted > 0 and chk.failed == 0, chk.failures
    return calls


def _check_budget(calls: int, budget: int) -> None:
    # pinned on CPython 3.11; 3.12 inlines comprehensions, so it makes fewer
    if sys.version_info[:2] == (3, 11):
        assert calls == budget
    assert calls <= budget


#: Calls of one warm lattice item (d = 2, m = 5, p = 0.8, three q).  Three of
#: them build the grid's pyramid (its reads cost no call); 981 without it.
#: Its draw of 16 steps makes three calls; stepping out of place, three per
#: step, it made 984.  Its five rows of 1,024 and 256 values are enumerated
#: with chord bounds in three pruning stages (16, 64 and 512 groups), each
#: stage a block generator and one full row for a tighter upper bound; with
#: two stages of nearest-end bounds it made 939.
LATTICE_ITEM_CALLS = 964


def test_lattice_item_call_budget():
    _check_budget(_warm_item_calls(workloads.lattice_item(2, 0.8, 5, 0)[2]), LATTICE_ITEM_CALLS)


#: Calls of one warm deep scattered families item (k = 6, d = 1, on the
#: critical line).  Built cube by cube, with one best constant per histogram,
#: it made 12,416; with each key's parent probed level by level, 2,448; with
#: a per-cube walk of a dict forest (591 histograms, each consolidated), 2,422.
#: The array forest builds every level's histograms in one pass of a few
#: dozen numpy calls, 1,067; reading each atom's level-k cell through
#: ``map`` in ``average_project`` and each atom's log2 measure inline in
#: ``lp_quasinorm`` (no generator, no property call per atom) leaves 971.
SCATTERED_ITEM_CALLS = 971


def test_deep_scattered_item_call_budget():
    # the sparse profile builds its histograms in one pass and groups its best
    # constants by length: a slide back to per-cube calls fails here
    prm = workloads.family_params(1)[0]
    fn = workloads.scattered_item(6, 1, 0.5 / prm.q, prm, True)[2]
    _check_budget(_warm_item_calls(fn), SCATTERED_ITEM_CALLS)


#: Calls of one warm fine-grid round trip (d = 1, m = 16: a draw of 1,024
#: steps, analysis, synthesis, lqlp, the square function, a projection).
#: Stepping out of place, three calls a step, and upsampling every level of
#: the square function onto the full grid, it made 772; starting its eight
#: sub-lanes by doubling, with three ``_jump`` and three byte-view calls, 309.
FINE_GRID_ITEM_CALLS = 303


def test_fine_grid_item_call_budget():
    # a Python call per draw step or per square-function level shows here
    fn = workloads.roundtrip_item(1, 16, "uniform", 0)[2]
    _check_budget(_warm_item_calls(fn), FINE_GRID_ITEM_CALLS)


#: Calls of one warm small fine-grid profile item (d = 2, m = 4, p = 1.5):
#: every level through the p > 1 root solver, whose steps make no Python call.
FINE_PROFILE_ITEM_CALLS = 77


def test_fine_grid_solver_item_call_budget():
    # a Python call per solver step (a summing helper, say) shows here
    fn = workloads.profile_item(2, 4, 1.5, 0)[2]
    _check_budget(_warm_item_calls(fn), FINE_PROFILE_ITEM_CALLS)


#: Calls of one warm small densified families item (nested, d = 1, m = 6,
#: alternating rule, on the critical line): its L_p norm, each E_k and the
#: a-norm, every level read from one pyramid.
DENSE_ITEM_CALLS = 638


def test_dense_families_item_call_budget():
    # a call added per level or per cube of the dense path shows here
    prm = workloads.family_params(1)[0]
    chain = workloads.random_chain(random.Random(6), 1, 6)
    fn = workloads.nested_item(1, 6, "alternating", chain, prm, False)[2]
    _check_budget(_warm_item_calls(fn), DENSE_ITEM_CALLS)
