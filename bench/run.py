"""Benchmark of ``haar_besov``: three workloads, end to end and per layer.

    python3 bench/run.py --workload lattice --seed 1 --seconds 30 --trace 0

``--workload`` is ``lattice``, ``families``, ``fine-grid`` or ``all`` (each
workload in its own process).  The run is single-process and single-threaded
(one BLAS/OpenMP thread); it repeats full passes over the workload until
``--seconds`` have elapsed (two passes and 100 items at least) and checks
every result.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give each metric with its unit and sample count, the failure ratio, and the
machine.  Full results go to ``bench/out/``.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``     process start to the first timed call (imports plus one
                  warm-up call per layer), median of eight fresh processes;
* ``wall_s``      median time of one full pass;
* ``item_ms_p50``, ``item_ms_p90``  latency of one item, pooled over all
                  passes of the run;
* ``peak_rss_mb`` peak resident memory of the benchmark process.

``--trace 1`` first runs untraced passes for half the time, then traced ones,
and reports per layer (spans the benchmark records around its own calls into
the library): calls, busy and self seconds per pass and the self-time share
of the pass, the exact input-property counts of one pass, and the tracing
overhead (traced minus untraced ``wall_s``).  The spans are written to
``bench/out/``.  ``--size small`` shrinks every workload for the self-check.
"""

import os

# One BLAS/OpenMP thread, set before numpy is first imported; the setup
# probes inherit it.  numpy's threaded OpenBLAS would otherwise use every
# core for the ``@`` in analyze/synthesize.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
REFS = BENCH_DIR / "refs.json"
sys.path.insert(0, str(SRC))

from spans import NullTracer, Tracer  # noqa: E402

WORKLOADS = ("lattice", "families", "fine-grid")
SETUP_PROBES = 8
# item samples per untraced run, so that at least ten lie beyond p90
MIN_ITEMS = 100

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("item_ms_p50", "ms"),
    ("item_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
)

LAYERS = (
    "rng.draw",
    "haar.analyze",
    "haar.synthesize",
    "haar.rank_one",
    "sequences.lqlp",
    "norms.square",
    "norms.approx.enum",
    "norms.approx.median",
    "norms.approx.mean",
    "norms.approx.bisect",
    "norms.modulus.table",
    "norms.modulus.scales",
    "dyadic.densify",
    "dyadic.project",
    "dyadic.sparse",
    "dyadic.lp",
    "families.build",
    "families.closed",
    "experiments.equivalence",
    "experiments.modulus-vs-approx",
    "experiments.trivial-dual",
    "experiments.uncond-fail",
    "experiments.basis-fail",
    "experiments.tensor-fail",
    "experiments.classify-sweep",
)
COUNTS = (
    "rng.draw.cells",
    "norms.modulus.subcell_scales",
    "norms.approx.enum.distinct_values",
    "norms.approx.enum.row_cells",
    "norms.approx.enum.majority_cubes",
    "norms.approx.enum.cubes",
)


def per_layer_names() -> list:
    """Every per-layer metric as (name, unit), in output order."""
    out = []
    for layer in LAYERS:
        out += [(f"{layer}.calls", "count"), (f"{layer}.busy_s", "s"),
                (f"{layer}.self_s", "s"), (f"{layer}.share", "%")]
    out += [("bench.item.self_s", "s"), ("bench.item.share", "%")]
    out += [(name, "count") for name in COUNTS]
    out += [("norms.approx.enum.distinct_share", "ratio"),
            ("norms.approx.enum.majority_share", "ratio")]
    out += [("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"), ("trace.overhead_s", "s")]
    return out


def import_library():
    """Import haar_besov from this checkout's src/ and the workload module."""
    try:
        import haar_besov
        import workloads
    except ImportError as exc:
        sys.exit(f"cannot import the library from {SRC}: {exc}")
    if not Path(haar_besov.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"haar_besov was imported from {haar_besov.__file__}, not from {SRC}")
    return workloads


def setup_probe(workload: str) -> None:
    """Child process: imports and warm-up, then print the clock."""
    import_library().warm_up(workload)
    print(time.monotonic_ns())


def measure_setup(workload: str) -> float:
    """Seconds from spawning a fresh interpreter to its first timed call."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload]
    t0 = time.monotonic_ns()
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return (int(res.stdout.split()[-1]) - t0) / 1e9


def measure(tasks, tr, chk, seconds: float, min_passes: int, min_items: int = 0):
    """Repeat full passes for about ``seconds``; time passes and items.

    A further pass starts only while at least half of it is expected to fit,
    so a run ends within half a pass of ``seconds`` -- unless it still lacks
    ``min_passes`` passes or ``min_items`` item samples.
    """
    passes, items = [], []
    start = time.perf_counter()
    while len(passes) < min_passes or len(items) < min_items or (
        time.perf_counter() - start + statistics.median(passes) / 2 < seconds
    ):
        tr.counting = tr.enabled and not passes
        gc.collect()
        t0 = time.perf_counter_ns()
        for i, (label, is_item, fn) in enumerate(tasks):
            tr.item = len(passes) * len(tasks) + i if is_item else -1
            ti = time.perf_counter_ns()
            try:
                if is_item:
                    with tr.span("bench.item"):
                        fn(tr, chk)
                else:
                    fn(tr, chk)
            except Exception as exc:  # a raising call is a failed check
                chk.raised(label, exc)
            if is_item:
                items.append(((time.perf_counter_ns() - ti) / 1e6, label))
        passes.append((time.perf_counter_ns() - t0) / 1e9)
    tr.counting = False
    return passes, items


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def environment(args) -> dict:
    model = next(
        (line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
         if line.startswith("model name")),
        platform.processor() or "unknown",
    )
    caches = {}
    for idx in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{idx}/"
        level, ctype = _read(base + "level").strip(), _read(base + "type").strip()
        if level in ("2", "3") and ctype in ("Unified", "Data"):
            caches[f"l{level}"] = _read(base + "size").strip()
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the layout of numpy's build info is not stable
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "l2_per_core": caches.get("l2", "unknown"),
        "l3": caches.get("l3", "unknown"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
    }


def end_to_end_metrics(passes, items) -> dict:
    items = [ms for ms, _ in items]
    cuts = statistics.quantiles(items, n=100)
    p90 = cuts[89]
    return {
        "wall_s": (statistics.median(passes), "s", f"median of {len(passes)} passes"),
        "item_ms_p50": (cuts[49], "ms", f"{len(items)} items"),
        "item_ms_p90": (p90, "ms", f"{len(items)} items, {sum(x > p90 for x in items)} beyond p90"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", "1 process"),
    }


def per_layer_metrics(tr, untraced, traced) -> dict:
    totals = tr.layer_totals()
    n, wall = len(traced), sum(traced)
    out = {}
    zero = {"calls": 0, "busy_ns": 0, "self_ns": 0}
    for layer in LAYERS + ("bench.item",):
        rec = totals.get(layer, zero)
        note = f"per pass, {n} traced passes"
        if layer != "bench.item":
            calls = rec["calls"] // n if rec["calls"] % n == 0 else rec["calls"] / n
            out[f"{layer}.calls"] = (calls, "count", note)
            out[f"{layer}.busy_s"] = (rec["busy_ns"] / 1e9 / n, "s", note)
        out[f"{layer}.self_s"] = (rec["self_ns"] / 1e9 / n, "s", note)
        out[f"{layer}.share"] = (100.0 * rec["self_ns"] / 1e9 / wall, "%", "self time over traced wall")
    for name in COUNTS:
        out[name] = (tr.counts.get(name, 0), "count", "exact, one pass")
    for share, num, base in (
        ("distinct_share", "distinct_values", "row_cells"),
        ("majority_share", "majority_cubes", "cubes"),
    ):
        a = tr.counts.get(f"norms.approx.enum.{num}", 0)
        b = tr.counts.get(f"norms.approx.enum.{base}", 0)
        out[f"norms.approx.enum.{share}"] = (a / b if b else 0.0, "ratio", f"{a}/{b}")
    t_wall, u_wall = statistics.median(traced), statistics.median(untraced)
    out["trace.wall_s"] = (t_wall, "s", f"median of {len(traced)} traced passes")
    out["trace.untraced_wall_s"] = (u_wall, "s", f"median of {len(untraced)} untraced passes")
    out["trace.overhead_s"] = (t_wall - u_wall, "s", "traced minus untraced wall_s")
    return out


def run_one(args) -> int:
    wl = import_library()
    try:
        refs = json.loads(REFS.read_text())
    except (OSError, ValueError) as exc:
        sys.exit(f"cannot read the stored references {REFS}: {exc}")
    tasks = wl.BUILDERS[args.workload](args.seed, args.size)
    wl.warm_up(args.workload)
    chk = wl.Checker(refs)
    if args.trace:
        untraced, _ = measure(tasks, NullTracer(), chk, args.seconds / 2, 1)
        tr = Tracer()
        traced, _ = measure(tasks, tr, chk, args.seconds / 2, 1)
        tr.settle()
        metrics = per_layer_metrics(tr, untraced, traced)
        timings = {}
        OUT_DIR.mkdir(exist_ok=True)
        tr.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        # half the setup probes before the timed passes and half after, so that
        # their median spans the run rather than one moment of machine load
        setup = [measure_setup(args.workload) for _ in range(SETUP_PROBES // 2)]
        passes, items = measure(tasks, NullTracer(), chk, args.seconds, 2, MIN_ITEMS)
        setup += [measure_setup(args.workload) for _ in range(SETUP_PROBES - len(setup))]
        metrics = {
            "setup_s": (statistics.median(setup), "s", f"median of {len(setup)} fresh processes"),
            **end_to_end_metrics(passes, items),
        }
        timings = {"passes_s": passes, "items_ms": sorted(items)}

    env = environment(args)
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit, note) in metrics.items():
        shown = f"{value:>14d}" if isinstance(value, int) else f"{value:>14.6g}"
        print(f"{args.workload:9s} {name:40s} {shown} {unit:5s} ({note})")
    ratio = chk.failed / chk.attempted if chk.attempted else 1.0
    print(f"{args.workload:9s} {'fail_ratio':40s} {ratio:>14.6g} {'':5s} "
          f"({chk.failed} failed of {chk.attempted} checks)")
    for line in chk.failures:
        print(f"FAILED {line}", file=sys.stderr)

    OUT_DIR.mkdir(exist_ok=True)
    record = {
        "env": env,
        "attempted": chk.attempted,
        "failed": chk.failed,
        "fail_ratio": ratio,
        "failures": chk.failures,
        "metrics": {k: {"value": v, "unit": u, "samples": s} for k, (v, u, s) in metrics.items()},
        **timings,
    }
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    result = {
        "correct": chk.failed == 0 and chk.attempted > 0,
        "attempted": chk.attempted,
        "failed": chk.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = res.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if res.returncode != 0 or not lines:
            print(f"workload {name} exited with {res.returncode}", file=sys.stderr)
            return 1
        one = json.loads(lines[-1])
        total["correct"] &= one["correct"]
        total["attempted"] += one["attempted"]
        total["failed"] += one["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in one["metrics"].items()})
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "small"), default="full")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
