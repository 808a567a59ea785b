"""Basis-property classification of the Haar systems over the parameter domain.

The decision function is total on {p > 0, q finite > 0, 0 <= s < 1/p} for
both systems and encodes, per (p, q, s, d), whether the system is an
unconditional Schauder basis, a conditional one, or fails to be a basis --
and in the latter case why (trivial dual, unbounded averaging projectors,
or unbounded tensor rank-one projectors).

Boundary cases compare exactly: to land on the critical line s = d(1/p - 1)
pass s computed by that very expression.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .norms import BesovParams

__all__ = ["Regime", "RegimeResult", "System", "classify", "critical_smoothness"]


class System(Enum):
    ISOTROPIC = "isotropic"
    TENSOR = "tensor"


class Regime(Enum):
    UNCONDITIONAL_BASIS = "UnconditionalBasis"
    CONDITIONAL_BASIS = "ConditionalBasis"
    NOT_BASIS_TRIVIAL_DUAL = "NotBasisTrivialDual"
    NOT_BASIS_UNBOUNDED_PROJECTORS = "NotBasisUnboundedProjectors"
    NOT_BASIS_TENSOR = "NotBasisTensor"
    DEGENERATE_SPACE = "DegenerateSpace"


@dataclass(frozen=True)
class RegimeResult:
    regime: Regime
    citation: str
    note: str | None = None


def critical_smoothness(p: float, d: int) -> float:
    """The critical line d(1/p - 1); negative for p > 1."""
    return d * (1.0 / p - 1.0)


def classify(prm: BesovParams, system: System = System.ISOTROPIC) -> RegimeResult:
    """Classify the basis behaviour of the chosen Haar system at ``prm``."""
    if not prm.q_finite:
        raise ValueError("classification requires finite q")
    p, q, s, d = prm.p, prm.q, prm.s, prm.d
    if prm.is_degenerate and not (p < 1 and s == critical_smoothness(p, d)):
        # reachable only through allow_degenerate=True
        return RegimeResult(
            Regime.DEGENERATE_SPACE,
            "s >= 1/p: the space contains only constant functions",
        )
    # At p = (d-1)/d the critical line touches s = 1/p; the critical-line
    # classification is applied on it even there.

    if system is System.TENSOR:
        if d == 1:
            res = _classify_isotropic(p, q, s, d)
            return RegimeResult(
                res.regime,
                res.citation,
                note="d = 1: the tensor system coincides with the isotropic one",
            )
        if p > 1:
            return RegimeResult(
                Regime.UNCONDITIONAL_BASIS,
                "tensor system, p > 1: unconditional basis for 0 <= s < 1/p",
            )
        if p == 1:
            return RegimeResult(
                Regime.CONDITIONAL_BASIS,
                "tensor system, p = 1: conditional basis under a blockwise ordering",
            )
        return RegimeResult(
            Regime.NOT_BASIS_TENSOR,
            "tensor system, p < 1, d > 1: rank-one projectors grow like "
            "2^{k(1/p-1)(d-1)}, so no ordering yields a basis",
        )
    if system is not System.ISOTROPIC:
        raise ValueError(f"unknown system {system!r}")
    return _classify_isotropic(p, q, s, d)


def _classify_isotropic(p: float, q: float, s: float, d: int) -> RegimeResult:
    if p >= 1:
        if s > 0:
            return RegimeResult(
                Regime.UNCONDITIONAL_BASIS,
                "p >= 1, 0 < s < 1/p: unconditional basis",
            )
        if p > 1:
            return RegimeResult(
                Regime.UNCONDITIONAL_BASIS,
                "p > 1, s = 0: unconditional basis",
            )
        return RegimeResult(
            Regime.CONDITIONAL_BASIS,
            "p = 1, s = 0: conditional basis under the blockwise ordering",
        )
    sc = critical_smoothness(p, d)
    if s > sc:
        return RegimeResult(
            Regime.UNCONDITIONAL_BASIS,
            "p < 1, d(1/p-1) < s < 1/p: unconditional basis",
        )
    if s == sc:
        if q <= p:
            return RegimeResult(
                Regime.CONDITIONAL_BASIS,
                "p < 1, s = d(1/p-1), q <= p: basis, but not unconditional",
            )
        if q <= 1:
            return RegimeResult(
                Regime.NOT_BASIS_UNBOUNDED_PROJECTORS,
                "p < 1, s = d(1/p-1), p < q <= 1: averaging projectors grow "
                "like 2^{kd(1/p-1/q)}",
                note="whether some other system is a basis here is open",
            )
        return RegimeResult(
            Regime.NOT_BASIS_TRIVIAL_DUAL,
            "p < 1, s = d(1/p-1), q > 1: the dual space is trivial",
        )
    note = "s = 0 extension of the trivial-dual range" if s == 0 else None
    return RegimeResult(
        Regime.NOT_BASIS_TRIVIAL_DUAL,
        "p < 1, s < d(1/p-1): the dual space is trivial",
        note=note,
    )
