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


#: Python calls one warm lattice item (d = 2, m = 5, p = 0.8, three q) makes
#: in the library's own files, on CPython 3.11 (3.12 inlines comprehensions,
#: so it makes fewer).  The count leaves out numpy's Python wrappers.
LATTICE_ITEM_CALLS = 981


def test_lattice_item_call_budget():
    _, _, fn = workloads.lattice_item(2, 0.8, 5, 0)
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
    if sys.version_info[:2] == (3, 11):
        assert calls == LATTICE_ITEM_CALLS
    assert calls <= LATTICE_ITEM_CALLS
