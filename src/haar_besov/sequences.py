"""Weighted sequence-space quasi-norms on blockwise Haar coefficient arrays.

The block-k weight is 2^{k(sp-d)} inside an inner l_p sum and the blocks are
combined in l_q (or sup for q = INF).  Accumulation runs in the log2 domain,
so ``lqlp_norm_log2`` stays finite where the p-th powers or the weighted
sums would leave double range; a norm whose value does raises ``ValueError``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .dyadic import _raises_on_overflow, logsumexp2
from .haar import HaarCoefficients
from .norms import BesovParams

__all__ = [
    "LevelSupremum",
    "linf_lp_norm",
    "lqlp_norm",
    "lqlp_norm_log2",
]


def _level_log2_lp_pow(c: HaarCoefficients, prm: BesovParams) -> list[float]:
    """log2 of sum_{h in block k} |lambda_h|^p for k = 0..K (-inf for zeros)."""
    if not isinstance(c, HaarCoefficients):
        raise TypeError("expected HaarCoefficients")
    if c.d != prm.d:
        raise ValueError("coefficient dimension does not match the parameters")
    with np.errstate(divide="ignore"):  # log2 0 = -inf marks a zero
        return [  # the checked blocks, read without level_magnitudes' check
            logsumexp2(prm.p * np.log2(np.abs(b).ravel()))
            for b in [np.array([c.scaling])] + c.blocks
        ]


def lqlp_norm_log2(c: HaarCoefficients, prm: BesovParams) -> float:
    """log2 of :func:`lqlp_norm` (-inf for the zero sequence).

    Finite also where the norm itself lies beyond double range.
    """
    if not prm.q_finite:
        raise ValueError("use linf_lp_norm for q = INF")
    p, q, s, d = prm.p, prm.q, prm.s, prm.d
    inner = [
        (q / p) * (k * (s * p - d) + lg)
        for k, lg in enumerate(_level_log2_lp_pow(c, prm))
        if lg > -math.inf
    ]
    if not inner:
        return -math.inf
    return logsumexp2(inner) / q


@_raises_on_overflow("lqlp norm")
def lqlp_norm(c: HaarCoefficients, prm: BesovParams) -> float:
    """(sum_k (sum_{h in block k} 2^{k(sp-d)} |lambda_h|^p)^{q/p})^{1/q}."""
    lg = lqlp_norm_log2(c, prm)
    return 0.0 if lg == -math.inf else 2.0**lg


class LevelSupremum(NamedTuple):
    value: float
    per_level: np.ndarray


@_raises_on_overflow("linflp norm")
def linf_lp_norm(c: HaarCoefficients, prm: BesovParams) -> LevelSupremum:
    """sup_k 2^{k(s-d/p)} (sum_{h in block k} |lambda_h|^p)^{1/p}.

    The per-level sequence is returned alongside the supremum so decay
    toward zero (membership in the separable subspace) can be inspected.
    """
    if prm.q_finite:
        raise ValueError("linf_lp_norm is the q = INF sequence norm")
    p, s, d = prm.p, prm.s, prm.d
    per_level = np.array([
        2.0 ** (k * (s - d / p) + lg / p) if lg > -math.inf else 0.0
        for k, lg in enumerate(_level_log2_lp_pow(c, prm))
    ])
    return LevelSupremum(float(per_level.max(initial=0.0)), per_level)
