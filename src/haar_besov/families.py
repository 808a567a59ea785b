"""Extremal families of dyadic step functions and their exact norms.

Four generators drive the negative-result experiments:

* ``nested_family``  -- sums of indicators on a shrinking chain of cubes;
  with coefficients 2^{ld}/(l+1) the family has bounded approximation norm
  below (and on, for q > 1) the critical smoothness while the L_1 norm
  grows logarithmically.
* ``spike_pair``     -- the normalized corner spike 2^{md} 1_{corner cube}
  together with its alternating even-block partial sums g_{2k}.
* ``scattered``      -- per-cube spikes at racing depths whose level-k
  averaging projection blows up the quasi-norm ratio like 2^{kd(1/p-1/q)}.
* ``tensor_spike_pair`` -- the corner indicator against a thin tensor
  rectangle; the rank-one projection ratio grows like 2^{k(1/p-1)(d-1)}.

Every closed form here is exact (including the full-measure contribution of
the deepest cube of a nested chain) and is computed in the log2 domain, so
the scattered family works at depths where coefficients like 2^{(k+i)d}
overflow doubles.  The generic pipeline in :mod:`haar_besov.norms` must
reproduce these numbers on any instance small enough to densify; the tests
enforce agreement to 1e-10.

The best-constant closed forms rest on the half-measure majority rule and
therefore require p <= 1 (p < 1 for the scattered family); use the generic
pipeline for p > 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .dyadic import (
    DyadicCube,
    DyadicStepFunction,
    SparseAtom,
    SparseStepFunction,
    _integer,
    logsumexp2,
    signed_log2_sum,
)
from .haar import tensor_haar_function
from .norms import BesovParams

__all__ = [
    "NestedSpec",
    "NestedNorms",
    "ScatteredSpec",
    "ScatteredNorms",
    "SpikePair",
    "TensorSpikeResult",
    "nested_family",
    "nested_closed_form",
    "scattered",
    "scattered_closed_norms",
    "spike_closed_form",
    "spike_pair",
    "tensor_spike_pair",
]

TRIVIAL_DUAL = "trivial-dual"
ALTERNATING = "alternating"


def _check_closed_form_params(prm: BesovParams, d: int) -> None:
    if prm.p > 1:
        raise ValueError("closed forms need p <= 1; use the generic pipeline")
    if not prm.q_finite:
        raise ValueError("finite q required")
    if prm.d != d:
        raise ValueError("parameter dimension does not match the family")


def _lower_corner_chain(d: int, m: int) -> tuple[DyadicCube, ...]:
    return tuple(DyadicCube(d, l, (0,) * d) for l in range(m + 1))


@dataclass(frozen=True)
class NestedSpec:
    """Coefficients and cube chain of a nested-indicator family member.

    ``rule`` is ``"trivial-dual"`` (a_l = 2^{ld}/(l+1)), ``"alternating"``
    (a_l = (-1)^l 2^{ld}) or an explicit coefficient sequence of length
    m + 1.  The chain defaults to the lower-corner cubes; a custom chain
    must satisfy chain[l] in T_l^d and chain[l+1] inside chain[l].
    """

    d: int
    m: int
    rule: object = TRIVIAL_DUAL
    chain: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "d", _integer(self.d, "d", 1))
        object.__setattr__(self, "m", _integer(self.m, "m", 0))
        if isinstance(self.rule, str):
            if self.rule not in (TRIVIAL_DUAL, ALTERNATING):
                raise ValueError(f"unknown coefficient rule {self.rule!r}")
        else:
            object.__setattr__(self, "rule", tuple(float(a) for a in self.rule))
            if len(self.rule) != self.m + 1:
                raise ValueError("explicit rule needs m + 1 coefficients")
        if self.chain is not None:
            chain = tuple(self.chain)
            object.__setattr__(self, "chain", chain)
            if len(chain) != self.m + 1:
                raise ValueError("chain needs cubes for levels 0..m")
            for l, c in enumerate(chain):
                if c.d != self.d or c.level != l:
                    raise ValueError("chain[l] must be a level-l cube")
                if l and not chain[l - 1].contains(c):
                    raise ValueError("chain cubes must be nested")

    @property
    def cubes(self) -> tuple[DyadicCube, ...]:
        return self.chain if self.chain is not None else _lower_corner_chain(self.d, self.m)

    def coefficient_logs(self) -> tuple[np.ndarray, np.ndarray]:
        """(signs, log2 magnitudes) of a_0..a_m."""
        l = np.arange(self.m + 1)
        if self.rule == TRIVIAL_DUAL:
            return np.ones(self.m + 1, dtype=int), l * self.d - np.log2(l + 1.0)
        if self.rule == ALTERNATING:
            return np.where(l % 2 == 0, 1, -1), (l * self.d).astype(float)
        a = np.asarray(self.rule, dtype=float)
        signs = np.sign(a).astype(int)
        with np.errstate(divide="ignore"):
            return signs, np.where(a == 0.0, -np.inf, np.log2(np.abs(a)))


def nested_family(spec: NestedSpec) -> SparseStepFunction:
    """f = sum_l a_l 1_{chain[l]} as a sparse step function."""
    signs, logs = spec.coefficient_logs()
    atoms = [
        SparseAtom(cube, int(s), float(e))
        for cube, s, e in zip(spec.cubes, signs, logs)
        if s != 0
    ]
    return SparseStepFunction(spec.d, atoms)


@dataclass(frozen=True)
class NestedNorms:
    lp_norm: float
    e_values: np.ndarray  # E_k for k = 0..m (E_m = 0)
    a_norm: float
    l1_norm: float


def _nested_tail_ppow_log2(
    signs: np.ndarray, logs: np.ndarray, start: int, m: int, d: int, p: float
) -> float:
    """log2 of sum_{n=start..m} weight_n |sum_{l=start..n} a_l|^p.

    weight_n is (1 - 2^-d) 2^{-nd} for n < m and exactly 2^{-md} for n = m
    (the deepest cube contributes its whole measure).
    """
    log_w_edge = math.log2(1.0 - 2.0**-d)
    acc = (0, -math.inf)
    terms = []
    for n in range(start, m + 1):
        acc = signed_log2_sum([acc[0], signs[n]], [acc[1], logs[n]])
        if acc[0] == 0:
            continue
        w_log = -m * d if n == m else log_w_edge - n * d
        terms.append(p * acc[1] + w_log)
    return logsumexp2(terms)


def nested_closed_form(spec: NestedSpec, prm: BesovParams) -> NestedNorms:
    """Exact L_p norm, per-level errors, approximation norm and L_1 norm.

    Requires p <= 1: away from the chain the function is constant on every
    dyadic cube, and along it the running value occupies at least half of
    each chain cube, so the best constant is the running value itself.
    """
    _check_closed_form_params(prm, spec.d)
    p, q, s, d, m = prm.p, prm.q, prm.s, spec.d, spec.m
    signs, logs = spec.coefficient_logs()

    lp = 2.0 ** (_nested_tail_ppow_log2(signs, logs, 0, m, d, p) / p)
    l1 = 2.0 ** _nested_tail_ppow_log2(signs, logs, 0, m, d, 1.0)
    e_log2 = np.array(
        [_nested_tail_ppow_log2(signs, logs, k + 1, m, d, p) / p for k in range(m)]
    )
    e_values = np.append(np.exp2(e_log2) if m else np.zeros(0), 0.0)

    a_terms = [q * (k * s + e_log2[k]) for k in range(m) if e_log2[k] > -math.inf]
    if lp > 0.0:
        a_terms.append(q * math.log2(lp))
    a = 2.0 ** (logsumexp2(a_terms) / q) if a_terms else 0.0
    return NestedNorms(lp, e_values, a, l1)


# ---------------------------------------------------------------------------
# spike pair
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpikePair:
    """Corner spike f_m = 2^{md} 1_{[0, 2^-m)^d} and its even-block sums."""

    m: int
    d: int

    def __post_init__(self):
        object.__setattr__(self, "m", _integer(self.m, "m", 0))
        object.__setattr__(self, "d", _integer(self.d, "d", 1))

    @property
    def f(self) -> SparseStepFunction:
        cube = DyadicCube(self.d, self.m, (0,) * self.d)
        return SparseStepFunction(self.d, [SparseAtom(cube, 1, float(self.m * self.d))])

    def g(self, k: int) -> SparseStepFunction:
        """Even-block partial sum g_{2k} = sum_{l=0..2k} (-1)^l 2^{ld} 1_{chain[l]}."""
        k = _integer(k, "k", 0)
        if 2 * k > self.m:
            raise ValueError("need 0 <= 2k <= m")
        return nested_family(NestedSpec(self.d, 2 * k, rule=ALTERNATING))


def spike_pair(m: int, d: int) -> SpikePair:
    return SpikePair(m, d)


def _flat_a_norm(lp: float, n: int, s: float, q: float) -> float:
    """Approximation norm when E_l = ||f||_p = lp for l < n and E_l = 0 beyond."""
    return lp * (1.0 + math.fsum(2.0 ** (l * s * q) for l in range(n))) ** (1.0 / q)


def spike_closed_form(m: int, d: int, prm: BesovParams) -> NestedNorms:
    """Exact norms of the corner spike (p <= 1): E_k = ||f||_p for k < m."""
    m, d = _integer(m, "m", 0), _integer(d, "d", 1)
    _check_closed_form_params(prm, d)
    p, q, s = prm.p, prm.q, prm.s
    lp = 2.0 ** (m * d * (1.0 - 1.0 / p))
    e_values = np.append(np.full(m, lp), 0.0)
    return NestedNorms(lp, e_values, _flat_a_norm(lp, m, s, q), 1.0)


# ---------------------------------------------------------------------------
# scattered family
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScatteredSpec:
    """Scattered spikes: one atom of depth k+i inside the i-th marked cube.

    The marked set T' takes, inside every level-(k-1) parent, the 2^{d-1}
    children whose first-coordinate bit is 0; atoms descend to the lower
    corner.  Enumeration is lexicographic over parents, then children.
    These rules are fixed: the norms do not depend on which cubes are
    marked or where the atoms sit inside them, and fixing both keeps
    outputs reproducible.
    """

    k: int
    d: int
    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "k", _integer(self.k, "k", 1))
        object.__setattr__(self, "d", _integer(self.d, "d", 1))
        if not math.isfinite(self.alpha):
            raise ValueError("alpha must be finite")

    @property
    def n_atoms(self) -> int:
        return 1 << (self.k * self.d - 1)

    def marked_cubes(self) -> list[DyadicCube]:
        """T' in T_k^d, enumerated lexicographically (parents, then children)."""
        k, d = self.k, self.d
        out = []
        for pidx in product(range(1 << (k - 1)), repeat=d):
            for bits in product((0, 1), repeat=d - 1):
                child = tuple(2 * i + b for i, b in zip(pidx, (0,) + bits))
                out.append(DyadicCube(d, k, child))
        return out

    def atom_cubes(self) -> list[DyadicCube]:
        """Delta_i in T_{k+i}^d: lower-corner descent inside the i-th marked cube."""
        out = []
        for i, marked in enumerate(self.marked_cubes(), start=1):
            idx = tuple(c << i for c in marked.index)
            out.append(DyadicCube(self.d, self.k + i, idx))
        return out

    def log2_coefficients(self) -> np.ndarray:
        """log2 b_i with b_i = 2^{(k+i)d} i^{-alpha}."""
        i = np.arange(1, self.n_atoms + 1, dtype=float)
        return (self.k + i) * self.d - self.alpha * np.log2(i)


def scattered(spec: ScatteredSpec) -> SparseStepFunction:
    logs = spec.log2_coefficients()
    atoms = [
        SparseAtom(cube, 1, float(e)) for cube, e in zip(spec.atom_cubes(), logs)
    ]
    return SparseStepFunction(spec.d, atoms)


@dataclass(frozen=True)
class ScatteredNorms:
    n_atoms: int
    lp_norm: float
    log2_e: np.ndarray  # log2 E_l(f_k) for l = 0..k+N-1; E_l = 0 beyond
    proj_lp_norm: float  # ||P_k f_k||_p; equals E_l(P_k f_k) for l < k
    log2_a_norm: float
    log2_proj_a_norm: float

    @property
    def e_values(self) -> np.ndarray:
        return np.exp2(self.log2_e)

    @property
    def a_norm(self) -> float:
        return 2.0**self.log2_a_norm

    @property
    def proj_a_norm(self) -> float:
        return 2.0**self.log2_proj_a_norm

    @property
    def log2_ratio(self) -> float:
        return self.log2_proj_a_norm - self.log2_a_norm

    @property
    def ratio(self) -> float:
        return 2.0**self.log2_ratio


def scattered_closed_norms(spec: ScatteredSpec, prm: BesovParams) -> ScatteredNorms:
    """Exact norms of the scattered family and of its level-k average.

    Every level-l cube either carries the function constantly, contains one
    atom on at most a 2^-d fraction, or misses all atoms; so for p < 1 the
    best constant per cube is the majority value and E_l reduces to a tail
    sum over the unresolved atoms.  All sums run in the log2 domain.
    """
    if not (0 < prm.p < 1):
        raise ValueError("the scattered closed forms need 0 < p < 1")
    _check_closed_form_params(prm, spec.d)
    if spec.alpha * prm.q >= 1.0:
        raise ValueError("need alpha < 1/q")
    p, q, s, d, k = prm.p, prm.q, prm.s, spec.d, spec.k
    n = spec.n_atoms
    i = np.arange(1, n + 1, dtype=float)

    # log2 of the atom contributions 2^{-(k+i)d} b_i^p = 2^{-(k+i)d(1-p)} i^{-alpha p}
    t = -(k + i) * d * (1.0 - p) - spec.alpha * p * np.log2(i)
    suffix = np.logaddexp2.accumulate(t[::-1])[::-1]
    log2_lp_p = float(suffix[0])
    log2_e_p = np.concatenate([np.full(k + 1, log2_lp_p), suffix[1:]])
    log2_e = log2_e_p / p

    levels = np.arange(k + n, dtype=float)
    a_terms = np.concatenate([[q * log2_lp_p / p], q * (levels * s + log2_e)])
    log2_a_q = float(np.logaddexp2.reduce(a_terms))

    log2_proj_lp_p = -k * d * (1.0 - p) + logsumexp2(-spec.alpha * p * np.log2(i))
    log2_proj_lp = log2_proj_lp_p / p
    proj_terms = np.concatenate(
        [[q * log2_proj_lp], q * (np.arange(k, dtype=float) * s + log2_proj_lp)]
    )
    log2_proj_a_q = float(np.logaddexp2.reduce(proj_terms))

    return ScatteredNorms(
        n_atoms=n,
        lp_norm=2.0 ** (log2_lp_p / p),
        log2_e=log2_e,
        proj_lp_norm=2.0**log2_proj_lp,
        log2_a_norm=log2_a_q / q,
        log2_proj_a_norm=log2_proj_a_q / q,
    )


# ---------------------------------------------------------------------------
# tensor spike pair
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TensorSpikeResult:
    """Corner indicator f_k vs the thin tensor function theta_k.

    ``coefficient`` is <f_k, theta_k> / ||theta_k||_2^2; the rank-one
    projection of f_k is coefficient * theta_k and ``ratio`` compares its
    approximation norm against that of f_k.
    """

    k: int
    d: int
    f: SparseStepFunction
    theta_index: tuple
    inner_product: float
    theta_l2_sq: float
    coefficient: float
    lp_f: float
    e_f: np.ndarray  # E_l(f_k), l = 0..k-1; zero beyond
    lp_theta: float
    e_theta: np.ndarray  # E_l(theta_k), l = 0..k-1; zero beyond
    a_f: float
    a_theta: float
    a_projection: float

    @property
    def ratio(self) -> float:
        return self.a_projection / self.a_f

    def theta_function(self, m: int | None = None) -> DyadicStepFunction:
        level = self.k if m is None else m
        return tensor_haar_function(self.d, self.theta_index, level)


def tensor_spike_pair(k: int, d: int, prm: BesovParams) -> TensorSpikeResult:
    """Exact norms of the corner/rectangle pair (d >= 2, p <= 1)."""
    k, d = _integer(k, "k", 1), _integer(d, "d", 1)
    if d < 2:
        raise ValueError("the tensor failure needs d > 1")
    _check_closed_form_params(prm, d)
    p, q, s = prm.p, prm.q, prm.s

    corner = DyadicCube(d, k, (0,) * d)
    f = SparseStepFunction(d, [SparseAtom(corner, 1, 0.0)])
    theta = ((1 << (k - 1)) + 1,) + (1,) * (d - 1)

    inner = 2.0 ** (-k * d)
    l2sq = 2.0 ** (1 - k)
    lam = inner / l2sq  # 2^{k-1-kd}

    lp_f = 2.0 ** (-k * d / p)
    e_f = np.full(k, lp_f)
    a_f = _flat_a_norm(lp_f, k, s, q)

    lp_t = 2.0 ** ((1.0 - k) / p)
    e_t = np.full(k, lp_t)
    e_t[k - 1] = 2.0 ** (1.0 - 1.0 / p) * lp_t
    a_t_q = lp_t**q * (
        1.0
        + math.fsum(2.0 ** (l * s * q) for l in range(k - 1))
        + 2.0 ** ((k - 1) * s * q) * 2.0 ** ((1.0 - 1.0 / p) * q)
    )
    a_t = a_t_q ** (1.0 / q)

    return TensorSpikeResult(
        k=k,
        d=d,
        f=f,
        theta_index=theta,
        inner_product=inner,
        theta_l2_sq=l2sq,
        coefficient=lam,
        lp_f=lp_f,
        e_f=e_f,
        lp_theta=lp_t,
        e_theta=e_t,
        a_f=a_f,
        a_theta=a_t,
        a_projection=abs(lam) * a_t,
    )
