"""The benchmark's three workloads and their correctness checks.

Each workload is a list of tasks ``(label, is_item, fn)``; ``fn(tr, chk)``
calls into ``haar_besov`` inside spans named after the layer it enters and
checks every value it gets back.  An item is one function or family
instance evaluated through all of its routes; experiments are tasks but not
items.  One pass runs every task once.

* ``lattice`` -- white-noise grids on the criteria-6/7 lattice (d in {1,2},
  m in 1..5, p in {0.8,1,1.5,2}, q in {0.5,1,2}, mid-range s), each through
  ``approximation_profile``, ``ModulusTable`` and ``analyze`` + ``lqlp_norm``,
  plus the ``equivalence`` and ``modulus-vs-approx`` experiments.  It is the
  only workload that enters the modulus route, which dominates it.
* ``families`` -- the criterion-4 closed-form instances against the
  densified pipeline, deep scattered and nested instances through the sparse
  path (never densified), and the five closed-form experiments.  Nearly all
  of its time is the p < 1 enumeration on rows with few distinct values.
* ``fine-grid`` -- white noise on 2^16..2^20-cell grids: RNG draws, Haar
  round trips, sequence and square-function norms, projections, and the
  median, mean, bisection and p < 1 branches on values that never repeat.

White-noise inputs are drawn by the library from seeds taken out of a fixed
pool; the run seed picks which pool members form the pass, and stored
references (``refs.json``) cover the whole pool.  Family instances are built
from the run seed directly (random nested chains, explicit coefficients and
scattered exponents) and are checked against their closed forms.
"""

from __future__ import annotations

import hashlib
import math
import random

import numpy as np

import haar_besov as hb
from haar_besov.experiments import default_config, random_step, run_experiment
from haar_besov.norms import ModulusTable, a_norm_from_profile, approximation_profile
from haar_besov.regimes import critical_smoothness

SIZES = ("full", "small")

#: a-route, lqlp, L_p and closed-form values (the acceptance suite's 1e-10).
VALUE_REL = 1e-10
#: analyze -> synthesize round trips, relative to max(1, sup |f|).
ROUNDTRIP_TOL = 1e-12
#: Modulus route.  ``b_norm`` stops its scale sum once three consecutive
#: terms fall below 1e-9 of the running total; the truncation this accepts
#: reaches 1.8e-8 relative on the lattice against a 600-level sum with a
#: geometric tail (``make_refs.py`` measures it).  The tolerance sits well
#: above that, so an exact tail bound does not read as a failure.
MODULUS_REL = 1e-6

LATTICE_P = (0.8, 1.0, 1.5, 2.0)
LATTICE_Q = (0.5, 1.0, 2.0)
LATTICE_POOL = 16
LATTICE_M = {"full": (1, 2, 3, 4, 5), "small": (1, 2)}
# functions per (d, p, m) and pass.  d=1 items are cheap and alike; with
# two thirds of the items at d=1 the item median falls inside that block
# rather than between the d=1 and d=2 items.
LATTICE_PER_CONFIG = {"full": {1: 4, 2: 2}, "small": {1: 1, 2: 1}}
LATTICE_EXPERIMENTS = ("equivalence", "modulus-vs-approx")

FINE_POOL = 8
# (d, m, distribution, items per pass)
FINE_ROUNDTRIP = {
    "full": ((2, 10, "uniform", 1), (3, 6, "normal", 2), (1, 16, "uniform", 6)),
    "small": ((2, 5, "uniform", 1), (3, 3, "normal", 1), (1, 8, "uniform", 2)),
}
# (d, m, p): one item per pass each
FINE_PROFILE = {
    "full": ((2, 8, 1.0), (2, 8, 1.5), (2, 8, 2.0), (2, 6, 0.8), (1, 12, 0.8)),
    "small": ((2, 4, 1.0), (2, 4, 1.5), (2, 4, 2.0), (2, 3, 0.8), (1, 6, 0.8)),
}

# (d, m, random chains per rule).  d=1, m=6 runs on five chains so that the
# item median falls inside a block of like items; between unlike items it
# moved by a third from run to run.
FAMILY_NESTED = {
    "full": ((1, 3, 1), (1, 6, 5), (1, 12, 1), (2, 3, 1), (2, 5, 1)),
    "small": ((1, 3, 1), (2, 3, 1)),
}
FAMILY_RULES = ("trivial-dual", "alternating", "explicit")
FAMILY_SPIKES = {"full": ((1, 2), (1, 8), (2, 4)), "small": ((1, 2),)}
FAMILY_SCATTERED = {"full": ((2, 1), (3, 1), (4, 1), (1, 2), (2, 2)), "small": ((2, 1), (1, 2))}
FAMILY_TENSOR = {"full": (1, 2, 4), "small": (1, 2)}
# sparse path only: 2^{kd-1} atoms at depths up to k + 2^{kd-1}.
# (k, d, seeded exponents per parameter point); (6,1) and (3,2) take two,
# so that the item p90 falls inside that block of like items.
FAMILY_DEEP_SCATTERED = {"full": ((6, 1, 2), (7, 1, 1), (3, 2, 2)), "small": ((6, 1, 1),)}
FAMILY_DEEP_NESTED = {"full": ((1, 64), (2, 32)), "small": ((1, 16),)}
FAMILY_EXPERIMENTS = ("trivial-dual", "uncond-fail", "basis-fail", "tensor-fail", "classify-sweep")


class Checker:
    """Counts attempted and failed checks; keeps the first failures."""

    def __init__(self, refs: dict | None = None):
        self.refs = refs or {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def _fail(self, label: str, detail: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{label}: {detail}")

    def close(self, label: str, got: float, want: float, rel: float, abs_tol: float = 0.0) -> None:
        self.attempted += 1
        got, want = float(got), float(want)
        if not (math.isfinite(got) and abs(got - want) <= max(rel * abs(want), abs_tol)):
            self._fail(label, f"got {got!r}, want {want!r} (rel {rel:g})")

    def ref(self, workload: str, key: str, field: str, got, rel: float) -> None:
        """Compare a value (or a sequence of values) with the stored reference."""
        try:
            want = self.refs[workload][key][field]
        except KeyError:
            self.attempted += 1
            self._fail(f"{key} {field}", "no stored reference")
            return
        if isinstance(want, list):
            got = list(np.asarray(got, dtype=float))
            if len(got) != len(want):
                self.attempted += 1
                self._fail(f"{key} {field}", f"{len(got)} values, want {len(want)}")
                return
            for i, (g, w) in enumerate(zip(got, want)):
                self.close(f"{key} {field}[{i}]", g, w, rel, abs_tol=1e-300)
        else:
            self.close(f"{key} {field}", got, want, rel)

    def report(self, name: str, text: str) -> None:
        """Compare an experiment report's bytes with the stored digest."""
        self.attempted += 1
        digest = hashlib.sha256(text.encode()).hexdigest()
        want = self.refs.get("experiments", {}).get(name)
        if digest != want:
            self._fail(f"experiment {name}", f"report sha256 {digest}, want {want}")

    def raised(self, label: str, exc: BaseException) -> None:
        self.attempted += 1
        self._fail(label, f"raised {type(exc).__name__}: {exc}")


class Recorder(Checker):
    """Stores every reference-compared value instead of checking it."""

    def ref(self, workload, key, field, got, rel):
        val = [float(x) for x in got] if np.ndim(got) else float(got)
        self.refs.setdefault(workload, {}).setdefault(key, {})[field] = val

    def report(self, name, text):
        self.refs.setdefault("experiments", {})[name] = hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def pool_seed(*parts) -> int:
    """64-bit input seed of one pool member, independent of the library."""
    text = "/".join(str(x) for x in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "little")


def approx_layer(p: float) -> str:
    """Span name of the best-constant branch ``approx_error`` takes for p."""
    if p < 1.0:
        return "norms.approx.enum"
    if p == 1.0:
        return "norms.approx.median"
    if p == 2.0:
        return "norms.approx.mean"
    return "norms.approx.bisect"


def cube_rows(values: np.ndarray, k: int) -> np.ndarray:
    """Rows = level-k cubes, columns = their cells (the enumeration's input)."""
    d = values.ndim
    n, r = 1 << k, values.shape[0] >> k
    a = values.reshape(sum(((n, r) for _ in range(d)), ()))
    a = a.transpose(tuple(range(0, 2 * d, 2)) + tuple(range(1, 2 * d, 2)))
    return a.reshape(n**d, r**d)


def enum_census(tr, values: np.ndarray, levels) -> None:
    """Exact input-property counts of the p < 1 enumeration.

    distinct_values / row_cells is the share of distinct values per row;
    majority_cubes / cubes the share of cubes where one value holds at least
    half the measure (the rule the families' closed forms rest on).
    """
    for k in levels:
        s = np.sort(cube_rows(values, k), axis=1)
        nrows, ncols = s.shape
        new = np.ones(s.shape, dtype=bool)
        new[:, 1:] = s[:, 1:] != s[:, :-1]
        starts = np.flatnonzero(new.ravel())
        runs = np.diff(np.append(starts, new.size))
        row_first = np.searchsorted(starts, np.arange(nrows) * ncols)
        longest = np.maximum.reduceat(runs, row_first)
        tr.count("norms.approx.enum.distinct_values", int(new.sum()))
        tr.count("norms.approx.enum.row_cells", s.size)
        tr.count("norms.approx.enum.majority_cubes", int((2 * longest >= ncols).sum()))
        tr.count("norms.approx.enum.cubes", nrows)


def dense_approx_error(tr, f, k: int, p: float) -> float:
    with tr.span(approx_layer(p)):
        out = hb.approx_error(f, k, p)
    if p < 1.0:
        tr.defer(lambda: enum_census(tr, f.values, [k]))
    return out


def dense_a_norm(tr, f, prm) -> float:
    with tr.span(approx_layer(prm.p)):
        out = hb.a_norm(f, prm)
    if prm.p < 1.0:
        tr.defer(lambda: enum_census(tr, f.values, range(f.level)))
    return out


def draw(tr, seed: int, d: int, m: int, distribution: str = "uniform"):
    with tr.span("rng.draw"):
        f = random_step(seed, d, m, distribution)
    tr.count("rng.draw.cells", f.cell_count)
    return f


def watch_subcell_scales(tr, table: ModulusTable, m: int) -> None:
    """Count the scale levels past j = m that ``table`` evaluates (once each)."""
    if not tr.counting:
        return
    seen = set()
    inner = table.omega_ppow

    def omega_ppow(j):
        if j > m and j not in seen:
            seen.add(j)
            tr.count("norms.modulus.subcell_scales", 1)
        return inner(j)

    table.omega_ppow = omega_ppow


def experiment_task(name: str):
    def fn(tr, chk):
        with tr.span(f"experiments.{name}"):
            res = run_experiment(default_config(name))
        chk.report(name, res.csv_text() + res.json_text())

    return (f"experiment {name}", False, fn)


def shuffled(tasks: list) -> list:
    """Tasks in a fixed random order, the same for every seed.

    Items of one kind then sample the machine at many moments of a pass, not
    in one burst, which keeps the item percentiles steadier under changing
    machine load; a fixed order keeps the allocation sequence the same from
    seed to seed.
    """
    random.Random("pass-order").shuffle(tasks)
    return tasks


def mid_s(p: float, d: int) -> float:
    return (max(critical_smoothness(p, d), 0.0) + 1.0 / p) / 2.0


# ---------------------------------------------------------------------------
# lattice
# ---------------------------------------------------------------------------


def lattice_item(d: int, p: float, m: int, j: int):
    key = f"{d}/{p}/{m}/{j}"

    def fn(tr, chk):
        f = draw(tr, pool_seed("lattice", d, p, m, j), d, m)
        with tr.span(approx_layer(p)):
            prof = approximation_profile(f, p)
        if p < 1.0:
            tr.defer(lambda: enum_census(tr, f.values, range(m)))
        chk.ref("lattice", key, "lp", prof.lp_norm, VALUE_REL)
        table = ModulusTable(f, p)
        with tr.span("norms.modulus.table"):
            table.omega_ppow(0)
        watch_subcell_scales(tr, table, m)
        with tr.span("haar.analyze"):
            coeffs = hb.analyze(f)
        a_vals, b_vals, lq_vals = [], [], []
        for q in LATTICE_Q:
            prm = hb.BesovParams(p, q, mid_s(p, d), d)
            with tr.span(approx_layer(p)):
                a_vals.append(a_norm_from_profile(prof, prm))
            with tr.span("norms.modulus.scales"):
                b_vals.append(table.b_norm(prm))
            with tr.span("sequences.lqlp"):
                lq_vals.append(hb.lqlp_norm(coeffs, prm))
        chk.ref("lattice", key, "a", a_vals, VALUE_REL)
        chk.ref("lattice", key, "b", b_vals, MODULUS_REL)
        chk.ref("lattice", key, "lqlp", lq_vals, VALUE_REL)

    return (f"lattice {key}", True, fn)


def lattice_tasks(seed: int, size: str) -> list:
    rng = random.Random(f"lattice/{seed}")
    tasks = []
    for d in (1, 2):
        for p in LATTICE_P:
            for m in LATTICE_M[size]:
                for j in rng.sample(range(LATTICE_POOL), LATTICE_PER_CONFIG[size][d]):
                    tasks.append(lattice_item(d, p, m, j))
    return shuffled(tasks + [experiment_task(name) for name in LATTICE_EXPERIMENTS])


def lattice_pool() -> list:
    return [
        lattice_item(d, p, m, j)
        for d in (1, 2)
        for p in LATTICE_P
        for m in LATTICE_M["full"]
        for j in range(LATTICE_POOL)
    ] + [experiment_task(name) for name in LATTICE_EXPERIMENTS]


# ---------------------------------------------------------------------------
# fine-grid
# ---------------------------------------------------------------------------


def roundtrip_item(d: int, m: int, distribution: str, j: int):
    key = f"rt/{d}/{m}/{distribution}/{j}"

    def fn(tr, chk):
        f = draw(tr, pool_seed("fine-grid", "rt", d, m, distribution, j), d, m, distribution)
        with tr.span("haar.analyze"):
            coeffs = hb.analyze(f)
        with tr.span("haar.synthesize"):
            g = hb.synthesize(coeffs, m)
        scale = max(1.0, float(np.abs(f.values).max()))
        chk.close(f"{key} roundtrip", float(np.abs(g.values - f.values).max()) / scale, 0.0, 0.0, ROUNDTRIP_TOL)
        prm = hb.BesovParams(1.5, 1.0, 0.3, d)
        with tr.span("sequences.lqlp"):
            lq = hb.lqlp_norm(coeffs, prm)
        chk.ref("fine-grid", key, "lqlp", lq, VALUE_REL)
        with tr.span("norms.square"):
            sq = hb.square_function_norm(f, 1.5)
        chk.ref("fine-grid", key, "square", sq, VALUE_REL)
        with tr.span("dyadic.project"):
            proj = hb.average_project(f, m // 2)
        with tr.span("dyadic.lp"):
            proj_l2 = hb.lp_quasinorm(proj, 2.0)
        chk.ref("fine-grid", key, "proj_l2", proj_l2, VALUE_REL)

    return (f"fine-grid {key}", True, fn)


def profile_item(d: int, m: int, p: float, j: int):
    key = f"profile/{d}/{m}/{p}/{j}"

    def fn(tr, chk):
        f = draw(tr, pool_seed("fine-grid", "profile", d, m, p, j), d, m)
        with tr.span(approx_layer(p)):
            prof = approximation_profile(f, p)
        if p < 1.0:
            tr.defer(lambda: enum_census(tr, f.values, range(m)))
        chk.ref("fine-grid", key, "lp", prof.lp_norm, VALUE_REL)
        chk.ref("fine-grid", key, "e", prof.e_values, VALUE_REL)

    return (f"fine-grid {key}", True, fn)


def fine_grid_tasks(seed: int, size: str) -> list:
    rng = random.Random(f"fine-grid/{seed}")
    tasks = []
    for d, m, dist, count in FINE_ROUNDTRIP[size]:
        tasks += [roundtrip_item(d, m, dist, j) for j in rng.sample(range(FINE_POOL), count)]
    for d, m, p in FINE_PROFILE[size]:
        tasks.append(profile_item(d, m, p, rng.randrange(FINE_POOL)))
    return shuffled(tasks)


def fine_grid_pool() -> list:
    tasks = []
    for size in SIZES:
        for d, m, dist, _ in FINE_ROUNDTRIP[size]:
            tasks += [roundtrip_item(d, m, dist, j) for j in range(FINE_POOL)]
        for d, m, p in FINE_PROFILE[size]:
            tasks += [profile_item(d, m, p, j) for j in range(FINE_POOL)]
    return tasks


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------


def family_params(d: int) -> tuple:
    """The criterion-4 parameter pair: critical line and inside the range."""
    return (
        hb.BesovParams(0.6, 0.9, critical_smoothness(0.6, d), d),
        hb.BesovParams(0.8, 1.5, 0.3, d),
    )


def random_chain(rng: random.Random, d: int, m: int) -> tuple:
    idx = (0,) * d
    cubes = [hb.DyadicCube(d, 0, idx)]
    for level in range(1, m + 1):
        idx = tuple(2 * i + rng.getrandbits(1) for i in idx)
        cubes.append(hb.DyadicCube(d, level, idx))
    return tuple(cubes)


def random_coefficients(rng: random.Random, m: int) -> tuple:
    """Explicit nested-chain coefficients whose running sums stay away from 0
    (a near-cancellation would cost the closed form its relative accuracy)."""
    while True:
        a = [rng.choice((-1.0, 1.0)) * rng.uniform(0.25, 2.0) for _ in range(m + 1)]
        if min(abs(x) for x in np.cumsum(a)) >= 0.1:
            return tuple(a)


def check_closed_vs_dense(tr, chk, label, norms, f, prm) -> None:
    """The criterion-4 comparison: L_p, every E_l and the a-norm."""
    m = f.max_level if isinstance(f, hb.SparseStepFunction) else f.level
    with tr.span("dyadic.densify"):
        fd = hb.densify(f, m)
    with tr.span("dyadic.lp"):
        lp = hb.lp_quasinorm(fd, prm.p)
    chk.close(f"{label} lp", norms.lp_norm, lp, VALUE_REL)
    for level in range(fd.level):
        got = float(norms.e_values[level]) if level < len(norms.e_values) else 0.0
        chk.close(f"{label} E{level}", got, dense_approx_error(tr, fd, level, prm.p), VALUE_REL, 1e-300)
    chk.close(f"{label} a", norms.a_norm, dense_a_norm(tr, fd, prm), VALUE_REL)


def check_closed_vs_sparse(tr, chk, label, norms, f, prm) -> None:
    """Deep instances: the sparse pipeline against the closed form, no densify."""
    with tr.span("dyadic.sparse"):
        prof = approximation_profile(f, prm.p)
        a = a_norm_from_profile(prof, prm)
    chk.close(f"{label} lp", prof.lp_norm, norms.lp_norm, VALUE_REL)
    for level, got in enumerate(prof.e_values):
        want = float(norms.e_values[level]) if level < len(norms.e_values) else 0.0
        chk.close(f"{label} E{level}", got, want, VALUE_REL, 1e-300)
    chk.close(f"{label} a", a, norms.a_norm, VALUE_REL)


def nested_item(d, m, rule, chain, prm, deep):
    label = f"nested d={d} m={m} {rule if isinstance(rule, str) else 'explicit'} p={prm.p}"

    def fn(tr, chk):
        spec = hb.NestedSpec(d, m, rule=rule, chain=chain)
        with tr.span("families.closed"):
            norms = hb.nested_closed_form(spec, prm)
        with tr.span("families.build"):
            f = hb.nested_family(spec)
        check = check_closed_vs_sparse if deep else check_closed_vs_dense
        check(tr, chk, label, norms, f, prm)

    return (label, True, fn)


def spike_item(d, m, prm):
    label = f"spike d={d} m={m} p={prm.p}"

    def fn(tr, chk):
        with tr.span("families.closed"):
            norms = hb.spike_closed_form(m, d, prm)
        with tr.span("families.build"):
            f = hb.spike_pair(m, d).f
        check_closed_vs_dense(tr, chk, label, norms, f, prm)

    return (label, True, fn)


def scattered_item(k, d, alpha, prm, deep):
    label = f"scattered k={k} d={d} p={prm.p} alpha={alpha:.6f}"

    def fn(tr, chk):
        spec = hb.ScatteredSpec(k, d, alpha)
        with tr.span("families.closed"):
            norms = hb.scattered_closed_norms(spec, prm)
        with tr.span("families.build"):
            f = hb.scattered(spec)
        if deep:
            check_closed_vs_sparse(tr, chk, label, norms, f, prm)
        else:
            check_closed_vs_dense(tr, chk, label, norms, f, prm)
        with tr.span("dyadic.project"):
            proj = hb.average_project(f, k)
        with tr.span("dyadic.lp"):
            proj_lp = hb.lp_quasinorm(proj, prm.p)
        chk.close(f"{label} proj lp", norms.proj_lp_norm, proj_lp, VALUE_REL)
        chk.close(f"{label} proj a", norms.proj_a_norm, dense_a_norm(tr, proj, prm), VALUE_REL)

    return (label, True, fn)


def tensor_item(k, prm):
    label = f"tensor k={k} p={prm.p}"

    def fn(tr, chk):
        with tr.span("families.closed"):
            res = hb.tensor_spike_pair(k, 2, prm)
        with tr.span("dyadic.densify"):
            fd = hb.densify(res.f, k)
        with tr.span("families.build"):
            theta = res.theta_function(k)
        with tr.span("haar.rank_one"):
            proj = hb.rank_one_project(fd, res.theta_index)
        with tr.span("dyadic.lp"):
            lp = hb.lp_quasinorm(fd, prm.p)
        chk.close(f"{label} lp", res.lp_f, lp, VALUE_REL)
        chk.close(f"{label} a_f", res.a_f, dense_a_norm(tr, fd, prm), VALUE_REL)
        chk.close(f"{label} a_theta", res.a_theta, dense_a_norm(tr, theta, prm), VALUE_REL)
        chk.close(f"{label} a_proj", res.a_projection, dense_a_norm(tr, proj, prm), VALUE_REL)
        for level in range(k):
            chk.close(f"{label} E{level} f", res.e_f[level], dense_approx_error(tr, fd, level, prm.p), VALUE_REL)
            chk.close(
                f"{label} E{level} theta", res.e_theta[level],
                dense_approx_error(tr, theta, level, prm.p), VALUE_REL,
            )

    return (label, True, fn)


def families_tasks(seed: int, size: str) -> list:
    rng = random.Random(f"families/{seed}")
    tasks = []
    for d, m, chains in FAMILY_NESTED[size]:
        for rule in FAMILY_RULES:
            for _ in range(chains):
                chain = random_chain(rng, d, m)
                coeffs = random_coefficients(rng, m) if rule == "explicit" else rule
                tasks += [nested_item(d, m, coeffs, chain, prm, False) for prm in family_params(d)]
    for d, m in FAMILY_SPIKES[size]:
        tasks += [spike_item(d, m, prm) for prm in family_params(d)]
    for k, d in FAMILY_SCATTERED[size]:
        for prm in family_params(d):
            tasks.append(scattered_item(k, d, rng.uniform(0.3, 0.7) / prm.q, prm, False))
    for k in FAMILY_TENSOR[size]:
        tasks += [tensor_item(k, prm) for prm in family_params(2)]
    for k, d, exponents in FAMILY_DEEP_SCATTERED[size]:
        for prm in family_params(d):
            for _ in range(exponents):
                tasks.append(scattered_item(k, d, rng.uniform(0.3, 0.7) / prm.q, prm, True))
    for d, m in FAMILY_DEEP_NESTED[size]:
        for rule in FAMILY_RULES[:2]:
            chain = random_chain(rng, d, m)
            tasks += [nested_item(d, m, rule, chain, prm, True) for prm in family_params(d)]
    return shuffled(tasks + [experiment_task(name) for name in FAMILY_EXPERIMENTS])


def families_pool() -> list:
    return [experiment_task(name) for name in FAMILY_EXPERIMENTS]


BUILDERS = {"lattice": lattice_tasks, "families": families_tasks, "fine-grid": fine_grid_tasks}
POOLS = {"lattice": lattice_pool, "families": families_pool, "fine-grid": fine_grid_pool}


# ---------------------------------------------------------------------------
# warm-up: one small call into every layer a workload uses
# ---------------------------------------------------------------------------


def warm_up(name: str) -> None:
    f = random_step(1, 2, 2)
    if name == "lattice":
        prm = hb.BesovParams(0.8, 1.0, mid_s(0.8, 2), 2)
        approximation_profile(f, 0.8)
        ModulusTable(f, 0.8).b_norm(prm)
        hb.lqlp_norm(hb.analyze(f), prm)
        run_experiment(default_config("equivalence", m_lo=1, m_hi=2, samples=2))
    elif name == "families":
        prm = family_params(1)[0]
        spec = hb.NestedSpec(1, 3)
        hb.nested_closed_form(spec, prm)
        g = hb.nested_family(spec)
        hb.a_norm(hb.densify(g, 3), prm)
        hb.a_norm(g, prm)
        hb.average_project(g, 2)
        hb.rank_one_project(f, (2, 1))
        run_experiment(default_config("tensor-fail"))
    elif name == "fine-grid":
        prm = hb.BesovParams(1.5, 1.0, 0.3, 2)
        c = hb.analyze(f)
        hb.synthesize(c, 2)
        hb.lqlp_norm(c, prm)
        hb.square_function_norm(f, 1.5)
        hb.lp_quasinorm(hb.average_project(f, 1), 2.0)
        approximation_profile(f, 1.5)
    else:
        raise ValueError(f"unknown workload {name!r}")
