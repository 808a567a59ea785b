"""The benchmark's correctness checks, run in process as part of the suite.

``bench/workloads.py`` compares every value it computes with its closed
form or with ``bench/refs.json`` (1e-10 relative for the a-route, lqlp and
L_p values), and every experiment report with a stored SHA-256 of its bytes.
Running its task lists here makes a change to those numbers fail the suite,
not only the benchmark.  The benchmark files are loaded as they are.
"""

import importlib.util
import json
from pathlib import Path

import pytest

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


def test_full_fine_grid_p_below_one_profiles_pass():
    # every pool member of the full p < 1 profiles: rows of 256 to 4,096
    # distinct values, which take the pruned enumeration
    configs = [(d, m, p) for d, m, p in workloads.FINE_PROFILE["full"] if p < 1.0]
    tasks = [workloads.profile_item(*c, j) for c in configs for j in range(workloads.FINE_POOL)]
    chk = _run(tasks)
    # one L_p value and m values E_0..E_{m-1} per item
    assert chk.attempted == workloads.FINE_POOL * sum(1 + m for _, m, _ in configs)
    assert chk.failed == 0, chk.failures
