"""Seeded experiment harness with CSV rows and a JSON summary per run.

Every experiment is driven by an :class:`ExperimentConfig` whose seed fully
determines all randomness; two runs with equal configs produce byte-identical
reports.  Rows use the fixed column set (experiment, p, q, s, d, scale,
value, log2_value); what "value" means per experiment is documented in the
registry below and in the README.  Summaries embed the regime label and its
governing-case citation so downstream tables are self-describing.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .dyadic import DyadicStepFunction, _check_budget, _integer, _raises_on_overflow
from .families import (
    ALTERNATING,
    NestedSpec,
    ScatteredSpec,
    nested_closed_form,
    scattered_closed_norms,
    spike_closed_form,
    tensor_spike_pair,
)
from .haar import HaarCoefficients, analyze
from .norms import (
    ApproxProfile,
    BesovParams,
    ModulusTable,
    a_norm_from_profile,
    approximation_profile,
)
from .regimes import Regime, System, classify, critical_smoothness
from .rng import RandomStream, derive_seed
from .sequences import lqlp_norm

__all__ = [
    "CSV_COLUMNS",
    "EXPERIMENTS",
    "ExperimentConfig",
    "ExperimentResult",
    "default_config",
    "fit_log2_slope",
    "random_step",
    "run_experiment",
]

CSV_COLUMNS = ("experiment", "p", "q", "s", "d", "scale", "value", "log2_value")


def random_step(seed: int, d: int, m: int, distribution: str = "uniform") -> DyadicStepFunction:
    """Seed-determined random level-m step function.

    ``distribution`` is "uniform" (values on [-1, 1)) or "normal" (standard
    normal); cell values are drawn in row-major order from the xoshiro
    stream of the seed.
    """
    _check_budget(d, m)
    cells = 1 << (m * d)
    stream = RandomStream(seed)
    if distribution == "uniform":
        vals = stream.uniform(cells, -1.0, 1.0)
    elif distribution == "normal":
        vals = stream.normal(cells)
    else:
        raise ValueError(f"unknown distribution {distribution!r}")
    return DyadicStepFunction(d, m, vals)


def _fit_line(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    n = x.size
    mx, my = x.mean(), y.mean()
    sxx = float(((x - mx) ** 2).sum())
    if sxx == 0.0:
        raise ValueError("fit needs at least two distinct x values")
    slope = float(((x - mx) * (y - my)).sum()) / sxx
    intercept = my - slope * mx
    resid = y - (slope * x + intercept)
    ss_res = float((resid**2).sum())
    ss_tot = float(((y - my) ** 2).sum())
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res <= 1e-24 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return slope, float(intercept), r2


@_raises_on_overflow("log2-slope fit")
def fit_log2_slope(points) -> tuple[float, float, float]:
    """Least squares of (x, log2 y): returns (slope, intercept, r^2)."""
    pts = list(points)
    if len(pts) < 3:
        raise ValueError("need at least 3 points")
    x = np.array([float(a) for a, _ in pts])
    y = np.array([float(b) for _, b in pts])
    if np.any(y <= 0):
        raise ValueError("y values must be positive")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("x and y values must be finite")
    return _fit_line(x, np.log2(y))


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run depends on; the seed fixes all randomness."""

    experiment: str
    p: float
    q: float
    s: float
    d: int
    seed: int = 0
    m_lo: int = 1
    m_hi: int = 5
    k_lo: int = 2
    k_hi: int = 7
    samples: int = 50
    alpha: float | None = None

    def __post_init__(self):
        lows = dict(d=1, seed=None, m_lo=0, m_hi=0, k_lo=0, k_hi=0, samples=1)
        for name, low in lows.items():
            object.__setattr__(self, name, _integer(getattr(self, name), name, low))
        for lo, hi in (("m_lo", "m_hi"), ("k_lo", "k_hi")):
            a, b = getattr(self, lo), getattr(self, hi)
            if b < a:
                raise ValueError(f"{hi} = {b} must not be below {lo} = {a}")

    def params(self) -> BesovParams:
        return BesovParams(self.p, self.q, self.s, self.d)


def default_config(experiment: str, **overrides) -> ExperimentConfig:
    """Config with the experiment's documented defaults, then overrides.

    Experiments pinned to the critical smoothness fill s = d(1/p - 1) when
    s is omitted (pass s=None explicitly to re-derive it after changing p).
    """
    if experiment not in _REGISTRY:
        raise ValueError(f"unknown experiment {experiment!r}")
    merged = dict(_REGISTRY[experiment][2])
    merged.update({k: v for k, v in overrides.items() if v is not None})
    if merged.get("s") is None:
        merged["s"] = critical_smoothness(merged["p"], merged["d"])
    return ExperimentConfig(experiment=experiment, **merged)


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    rows: tuple
    summary: dict
    passed: bool

    def csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in self.rows:
            writer.writerow([row[c] for c in CSV_COLUMNS])
        return buf.getvalue()

    def json_text(self) -> str:
        return json.dumps(self.summary, sort_keys=True, indent=2) + "\n"

    def write(self, out_base: str, fmt: str = "csv") -> list[str]:
        """Write the report; returns the paths written.

        fmt="csv": rows to <base>.csv plus the summary to <base>.json.
        fmt="json": a single <base>.json embedding rows and summary.
        """
        paths = []
        if fmt == "csv":
            csv_path, json_path = out_base + ".csv", out_base + ".json"
            with open(csv_path, "w", newline="") as fh:
                fh.write(self.csv_text())
            with open(json_path, "w") as fh:
                fh.write(self.json_text())
            paths += [csv_path, json_path]
        elif fmt == "json":
            path = out_base + ".json"
            combined = {"rows": [dict(r) for r in self.rows], "summary": self.summary}
            with open(path, "w") as fh:
                fh.write(json.dumps(combined, sort_keys=True, indent=2) + "\n")
            paths.append(path)
        else:
            raise ValueError(f"unknown format {fmt!r}")
        return paths


def _row(cfg: ExperimentConfig, scale, value) -> dict:
    return {
        "experiment": cfg.experiment,
        "p": cfg.p,
        "q": cfg.q,
        "s": cfg.s,
        "d": cfg.d,
        "scale": scale,
        "value": float(value),
        "log2_value": math.log2(value) if value > 0 else -math.inf,
    }


def _result(cfg: ExperimentConfig, rows: list, passed: bool, **fields) -> ExperimentResult:
    """The run's result; its summary holds the config, the regime in the
    experiment's Haar system, the row count, ``fields`` and the verdict."""
    res = classify(cfg.params(), _REGISTRY[cfg.experiment][1])
    summary = {
        "schema": 1,
        "experiment": cfg.experiment,
        "params": {
            "p": cfg.p,
            "q": cfg.q,
            "s": cfg.s,
            "d": cfg.d,
            "seed": cfg.seed,
            "samples": cfg.samples,
            "m": [cfg.m_lo, cfg.m_hi],
            "k": [cfg.k_lo, cfg.k_hi],
            "alpha": cfg.alpha,
            "distribution": "uniform",
        },
        "regime": res.regime.value,
        "citation": res.citation,
        "rows": len(rows),
        **fields,
        "pass": passed,
    }
    return ExperimentResult(cfg, tuple(rows), summary, passed)


# ---------------------------------------------------------------------------
# experiment bodies
# ---------------------------------------------------------------------------


#: Largest |log2-slope| in m of a route ratio: the gate of ``equivalence``
#: and ``modulus-vs-approx`` and of the finest-scale clause of criteria 6, 7.
SLOPE_LIMIT = 0.05


class _Routes:
    """The quasi-norm routes of one step function f at one p.

    The approximation profile, the Haar coefficients and the modulus table
    are each built the first time a route reads them, so a caller pays only
    for the routes it compares.
    """

    def __init__(self, f: DyadicStepFunction, p: float):
        self.f, self.p = f, p

    @cached_property
    def profile(self) -> ApproxProfile:
        return approximation_profile(self.f, self.p)

    @cached_property
    def coeffs(self) -> HaarCoefficients:
        return analyze(self.f)

    @cached_property
    def table(self) -> ModulusTable:
        return ModulusTable(self.f, self.p)

    def ratio(self, route: str, prm: BesovParams) -> float:
        """The "coefficient" or "modulus" quasi-norm over the approximation norm."""
        a = a_norm_from_profile(self.profile, prm)
        if route == "coefficient":
            return lqlp_norm(self.coeffs, prm) / a
        return self.table.b_norm(prm) / a

    def finest_ratio(self, route: str, s: float) -> float:
        """The route's finest-scale term over the approximation route's.

        For a level-m function these are 2^{(m-1)s} E_{m-1}(f)_p, the modulus
        term 2^{ms} omega(2^-m, f)_p and the coefficient term
        (2^{m(sp-d)} sum_{block m} |lambda|^p)^{1/p}.  The approximation and
        coefficient terms are read through ``a_norm_from_profile`` and
        ``lqlp_norm`` on inputs that keep only that level, so the routes' own
        level weights enter.  The equivalences compare the routes level by
        level, so these ratios do not carry the 2^{-msq} saturation of the
        whole-norm level sums.  Two finite-grid effects of the modulus term
        are divided out, both read from the table's entries on the offsets
        {-1, 0, 1}^d:

        * a shift by one cell leaves a slab of width 2^-m outside the cube,
          so the axis difference integrals run over a share 1 - 2^-m of it;
        * omega is the largest of the direction sums.  For d >= 2 there are
          several axis directions of equal expectation on a level-homogeneous
          function, and their maximum exceeds their mean by the sampling
          spread of ~4^m dependent pair terms, a relative 2^{-m} (pinned by
          ``test_direction_supremum_excess_halves_per_level``).  The term
          is rescaled from that maximum to the mean of the axis sums; at
          d = 1 the two directions give one sum and the factor is exactly 1.

        Both routes raise ``ValueError`` where the ratio is undefined: a
        level-0 f has no finest scale, and an f constant on every level-(m-1)
        cube has E_{m-1} = 0 and a finest-scale term 0 on every route.
        """
        p, m, d = self.p, self.f.level, self.f.d
        if m == 0:
            raise ValueError("finest_ratio needs level 1 or more: level 0 has no finest scale")
        prm = BesovParams(p, 1.0, s, d)  # one nonzero level: any q agrees
        e_m = np.zeros(m)
        e_m[m - 1] = self.profile.e_values[m - 1]
        approx = a_norm_from_profile(ApproxProfile(p, 0.0, e_m), prm)
        if approx == 0.0:
            raise ValueError(f"finest_ratio is 0/0: f is constant on every level-{m - 1} cube")
        if route == "coefficient":
            blocks = [np.zeros_like(b) for b in self.coeffs.blocks[:-1]]
            block_m = HaarCoefficients(d, m, 0.0, blocks + [self.coeffs.blocks[-1]])
            return lqlp_norm(block_m, prm) / approx
        near = self.table._near
        axis = [v for n, v in near.items() if sum(map(abs, n)) == 1]
        excess = max(near.values()) / math.fsum(axis) * len(axis)
        shrink = (1.0 - 2.0**-m) * excess
        return 2.0 ** (m * s) * self.table.omega(m) / shrink ** (1.0 / p) / approx


def _ratio_band_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    prm = cfg.params()
    if cfg.experiment == "equivalence":
        lo = max(critical_smoothness(cfg.p, cfg.d), 0.0)
        if not (lo < cfg.s < 1.0 / cfg.p and cfg.p > (cfg.d - 1) / cfg.d):
            raise ValueError(
                "equivalence needs max(d(1/p-1), 0) < s < 1/p and p > (d-1)/d"
            )
        route, band_limit = "coefficient", 50.0
    else:
        route, band_limit = "modulus", 100.0
    rows = []
    pts = []
    for m in range(cfg.m_lo, cfg.m_hi + 1):
        for i in range(cfg.samples):
            f = random_step(derive_seed(cfg.seed, m, i), cfg.d, m)
            r = _Routes(f, cfg.p).ratio(route, prm)
            rows.append(_row(cfg, m, r))
            pts.append((m, r))
    ratios = np.array([r for _, r in pts])
    band = float(ratios.max() / ratios.min())
    slope, _, _ = fit_log2_slope(pts)
    return _result(
        cfg,
        rows,
        band <= band_limit and abs(slope) <= SLOPE_LIMIT,
        band={"min": float(ratios.min()), "max": float(ratios.max()), "max_over_min": band},
        fits={"log_ratio_slope_vs_m": slope},
        thresholds={"max_over_min": band_limit, "abs_slope": SLOPE_LIMIT},
    )


def _trivial_dual(cfg: ExperimentConfig) -> ExperimentResult:
    sc = critical_smoothness(cfg.p, cfg.d)
    if not (cfg.p < 1 and 0 <= cfg.s <= sc):
        raise ValueError("trivial-dual needs p < 1 and 0 <= s <= d(1/p-1)")
    if cfg.s == sc and cfg.q <= 1:
        raise ValueError("on the critical line trivial-dual needs q > 1")
    prm = cfg.params()
    rows, a_vals, l1_ratios = [], [], []
    for m in range(cfg.m_lo, cfg.m_hi + 1):
        norms = nested_closed_form(NestedSpec(cfg.d, m), prm)
        rows.append(_row(cfg, m, norms.a_norm))
        a_vals.append(norms.a_norm)
        l1_ratios.append(norms.l1_norm / math.log(m + 2))
    band = max(a_vals) / min(a_vals)
    return _result(
        cfg,
        rows,
        band <= 2.0 and 0.2 <= min(l1_ratios) and max(l1_ratios) <= 5.0,
        band={"a_norm_max_over_min": band},
        l1_over_log={"min": min(l1_ratios), "max": max(l1_ratios), "values": l1_ratios},
        thresholds={"a_norm_max_over_min": 2.0, "l1_over_log": [0.2, 5.0]},
    )


def _uncond_fail(cfg: ExperimentConfig) -> ExperimentResult:
    sc = critical_smoothness(cfg.p, cfg.d)
    if not (cfg.p < 1 and cfg.q <= cfg.p and cfg.s == sc):
        raise ValueError("uncond-fail needs q <= p < 1 and s = d(1/p-1)")
    prm = cfg.params()
    rows = []
    growth_pts = []
    for k in range(cfg.k_lo, cfg.k_hi + 1):
        norms = nested_closed_form(NestedSpec(cfg.d, 2 * k, rule=ALTERNATING), prm)
        y = norms.a_norm**cfg.q
        rows.append(_row(cfg, k, y))
        growth_pts.append((k, y))
    spike_vals = [
        spike_closed_form(m, cfg.d, prm).a_norm for m in range(cfg.m_lo, cfg.m_hi + 1)
    ]
    spike_band = max(spike_vals) / min(spike_vals)
    x = np.array([float(k) for k, _ in growth_pts])
    y = np.array([v for _, v in growth_pts])
    slope, intercept, r2 = _fit_line(x, y)
    return _result(
        cfg,
        rows,
        spike_band <= 2.0 and slope > 0.0 and r2 > 0.9,
        band={"spike_a_norm_max_over_min": spike_band},
        fits={"a_norm_pow_q_slope": slope, "intercept": intercept, "r2": r2},
        thresholds={"spike_band": 2.0, "slope": "> 0", "r2": 0.9},
    )


def _growth_experiment(
    cfg: ExperimentConfig,
    ratio_at: Callable[[int], float],
    theo: float,
    fit_key: str,
    **extra,
) -> ExperimentResult:
    """Fit the log2 growth of ratio_at(k) against ``theo``: every k =
    k_lo..k_hi is a row, and the fit reads the rows with k >= 2."""
    scales = list(range(cfg.k_lo, cfg.k_hi + 1))
    ratios = [ratio_at(k) for k in scales]
    slope, intercept, r2 = fit_log2_slope([(k, r) for k, r in zip(scales, ratios) if k >= 2])
    dev = abs(slope - theo) / theo
    fit = {
        "slope": slope,
        "intercept": intercept,
        "r2": r2,
        "theoretical_slope": theo,
        "relative_deviation": dev,
    }
    return _result(
        cfg,
        [_row(cfg, k, r) for k, r in zip(scales, ratios)],
        dev <= 0.2,
        **extra,
        fits={fit_key: fit},
        thresholds={"relative_deviation": 0.2},
    )


def _basis_fail(cfg: ExperimentConfig) -> ExperimentResult:
    sc = critical_smoothness(cfg.p, cfg.d)
    if not (0 < cfg.p < 1 and cfg.p < cfg.q <= 1 and cfg.s == sc):
        raise ValueError("basis-fail needs p < q <= 1, p < 1 and s = d(1/p-1)")
    alpha = cfg.alpha if cfg.alpha is not None else 1.0 / (2.0 * cfg.q)
    prm = cfg.params()
    return _growth_experiment(
        cfg,
        lambda k: scattered_closed_norms(ScatteredSpec(k, cfg.d, alpha), prm).ratio,
        cfg.d * (1.0 / cfg.p - 1.0 / cfg.q),
        "projector_ratio",
        alpha=alpha,
    )


def _tensor_fail(cfg: ExperimentConfig) -> ExperimentResult:
    if not (0 < cfg.p < 1 and cfg.d >= 2):
        raise ValueError("tensor-fail needs 0 < p < 1 and d >= 2")
    prm = cfg.params()
    return _growth_experiment(
        cfg,
        lambda k: tensor_spike_pair(k, cfg.d, prm).ratio,
        (1.0 / cfg.p - 1.0) * (cfg.d - 1),
        "rank_one_ratio",
    )


_SWEEP_EXAMPLES = (
    # (p, q, s, d, system, expected regime, allow_degenerate)
    (0.8, 0.8, 0.25, 1, System.ISOTROPIC, Regime.CONDITIONAL_BASIS, False),
    (0.5, 2.0, 2.0, 2, System.ISOTROPIC, Regime.NOT_BASIS_TRIVIAL_DUAL, True),
    (0.5, 1.0, 1.0, 2, System.TENSOR, Regime.NOT_BASIS_TENSOR, False),
    (2.0, 0.7, 0.3, 3, System.ISOTROPIC, Regime.UNCONDITIONAL_BASIS, False),
)

_REGIME_ORDINAL = {r: i + 1 for i, r in enumerate(Regime)}


def _classify_sweep(cfg: ExperimentConfig) -> ExperimentResult:
    examples_ok = True
    for p, q, s, d, system, expected, allow in _SWEEP_EXAMPLES:
        prm = BesovParams(p, q, s, d, allow_degenerate=allow)
        if classify(prm, system).regime is not expected:
            examples_ok = False

    p_grid = [0.3, 0.4, 0.5, 0.6, 0.7, 0.75, 0.8, 0.9, 1.0, 1.25, 1.5, 2.0]
    q_grid = [0.25, 0.5, 0.75, 0.8, 1.0, 1.5, 2.0, 3.0]
    fracs = [i / 25.0 for i in range(25)]
    rows = []
    idx = 0
    unclassified = 0
    for d in (1, 2):
        for system in (System.ISOTROPIC, System.TENSOR):
            for p in p_grid:
                sc = critical_smoothness(p, d)
                s_vals = {f * (1.0 / p) for f in fracs}
                if 0.0 < sc < 1.0 / p:
                    s_vals |= {sc, sc / 2.0, (sc + 1.0 / p) / 2.0}
                for q in q_grid:
                    for s in sorted(s_vals):
                        idx += 1
                        try:
                            res = classify(BesovParams(p, q, s, d), system)
                            code = _REGIME_ORDINAL[res.regime]
                        except ValueError:
                            unclassified += 1
                            code = 0
                        if code > 0:
                            rows.append(_row(cfg, idx, code))
    return _result(
        cfg,
        rows,
        examples_ok and unclassified == 0 and idx >= 10_000,
        lattice_points=idx,
        unclassified=unclassified,
        examples_ok=examples_ok,
        regime_codes={r.value: i for r, i in _REGIME_ORDINAL.items()},
    )


# name -> (body, Haar system, defaults over ExperimentConfig's); s=None is d(1/p - 1)
_REGISTRY: dict[str, tuple[Callable[[ExperimentConfig], ExperimentResult], System, dict]] = {
    "equivalence": (_ratio_band_experiment, System.ISOTROPIC, dict(p=2.0, q=2.0, s=0.25, d=1)),
    "modulus-vs-approx": (
        _ratio_band_experiment, System.ISOTROPIC, dict(p=2.0, q=2.0, s=0.25, d=1)
    ),
    "trivial-dual": (
        _trivial_dual, System.ISOTROPIC, dict(p=0.6, q=2.0, s=None, d=1, m_lo=4, m_hi=16)
    ),
    "uncond-fail": (
        _uncond_fail, System.ISOTROPIC, dict(p=0.8, q=0.8, s=None, d=1, m_lo=5, m_hi=16, k_hi=8)
    ),
    "basis-fail": (_basis_fail, System.ISOTROPIC, dict(p=0.7, q=1.0, s=None, d=1, k_hi=8)),
    "tensor-fail": (_tensor_fail, System.TENSOR, dict(p=0.5, q=1.0, s=1.0, d=2, k_hi=10)),
    "classify-sweep": (_classify_sweep, System.ISOTROPIC, dict(p=1.0, q=1.0, s=0.0, d=1)),
}

EXPERIMENTS = tuple(_REGISTRY)


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run one experiment; ``result.write(base, fmt)`` writes its report."""
    if cfg.experiment not in _REGISTRY:
        raise ValueError(f"unknown experiment {cfg.experiment!r}")
    return _REGISTRY[cfg.experiment][0](cfg)
