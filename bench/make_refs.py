"""Regenerate ``bench/refs.json``, the benchmark's stored references.

    python3 bench/make_refs.py

Evaluates every pool member of the lattice and fine-grid workloads and every
experiment the workloads run, and stores the values (and report digests) the
library produces now.  Run it only when the library's numbers are meant to
change; the references are what later runs are checked against.

It also measures the truncation the modulus route's stopping rule accepts:
for the first pool member of every lattice configuration it compares
``b_norm`` with a 600-level scale sum plus its geometric tail, and records
the largest relative gap, which ``workloads.MODULUS_REL`` must exceed.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import numpy as np  # noqa: E402

import haar_besov as hb  # noqa: E402
from haar_besov.experiments import random_step  # noqa: E402
from haar_besov.norms import ModulusTable  # noqa: E402

import workloads as wl  # noqa: E402
from spans import NullTracer  # noqa: E402

LONG_SUM_LEVELS = 600


def long_b_norm(table: ModulusTable, prm) -> float:
    """Modulus-route norm summed over LONG_SUM_LEVELS scales plus the tail.

    Below the cell width omega_p(2^-j)^p is a polynomial in 2^{m-j} with no
    constant term, so its terms decay geometrically with ratio at most
    2^{-q(1/p - s)}; the tail past the last level is summed with that ratio.
    """
    q, s = prm.q, prm.s
    total = hb.lp_quasinorm(table.f, prm.p) ** q
    term = 0.0
    for j in range(LONG_SUM_LEVELS):
        term = (2.0 ** (j * s) * table.omega(j)) ** q
        total += term
    ratio = 2.0 ** (-q * (1.0 / prm.p - s))
    return (total + term * ratio / (1.0 - ratio)) ** (1.0 / q)


def truncation_survey() -> dict:
    worst = {"rel": 0.0}
    for d in (1, 2):
        for p in wl.LATTICE_P:
            for m in wl.LATTICE_M["full"]:
                f = random_step(wl.pool_seed("lattice", d, p, m, 0), d, m)
                table = ModulusTable(f, p)
                for q in wl.LATTICE_Q:
                    prm = hb.BesovParams(p, q, wl.mid_s(p, d), d)
                    rel = abs(table.b_norm(prm) / long_b_norm(table, prm) - 1.0)
                    if rel > worst["rel"]:
                        worst = {"rel": rel, "d": d, "p": p, "q": q, "m": m}
    return worst


def main() -> None:
    rec = wl.Recorder({})
    tr = NullTracer()
    for pool in wl.POOLS.values():
        for _, _, fn in pool():
            fn(tr, rec)
    worst = truncation_survey()
    if not worst["rel"] < wl.MODULUS_REL:
        sys.exit(f"modulus truncation {worst} exceeds MODULUS_REL={wl.MODULUS_REL}")
    rec.refs["meta"] = {
        "modulus_truncation_max": worst,
        "long_sum_levels": LONG_SUM_LEVELS,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }
    (BENCH_DIR / "refs.json").write_text(json.dumps(rec.refs, sort_keys=True, indent=0) + "\n")
    print(f"wrote {BENCH_DIR / 'refs.json'}; modulus truncation max {worst}")


if __name__ == "__main__":
    main()
