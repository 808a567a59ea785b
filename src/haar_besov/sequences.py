"""Weighted sequence-space quasi-norms on blockwise Haar coefficient arrays.

The block-k weight is 2^{k(sp-d)} inside an inner l_p sum and the blocks are
combined in l_q (or sup for q = INF).  Accumulation runs in the log2 domain
so coefficient blocks far outside double range remain usable.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .dyadic import logsumexp2
from .haar import HaarCoefficients, block_size
from .norms import BesovParams

__all__ = [
    "CoefficientBlockView",
    "LevelSupremum",
    "linf_lp_norm",
    "lqlp_norm",
    "lqlp_norm_log2",
]


class CoefficientBlockView:
    """Per-level coefficient magnitudes, stored as log2 values.

    ``level_log2[k]`` holds log2|lambda_h| over block k (-inf for zeros).
    Block lengths must be 1 (k = 0) or (2^d - 1) 2^{(k-1)d}.
    """

    __slots__ = ("d", "level_log2")

    def __init__(self, d: int, level_log2):
        self.d = d
        self.level_log2 = [np.asarray(a, dtype=float).ravel() for a in level_log2]
        for k, a in enumerate(self.level_log2):
            if a.size != block_size(d, k):
                raise ValueError(
                    f"block {k} has {a.size} entries, expected {block_size(d, k)}"
                )

    @classmethod
    def from_coefficients(cls, c: HaarCoefficients) -> "CoefficientBlockView":
        with np.errstate(divide="ignore"):
            levels = [
                np.log2(np.abs(c.level_magnitudes(k)))
                for k in range(c.max_level + 1)
            ]
        return cls(c.d, levels)

    @property
    def max_level(self) -> int:
        return len(self.level_log2) - 1


def _as_view(c) -> CoefficientBlockView:
    if isinstance(c, CoefficientBlockView):
        return c
    if isinstance(c, HaarCoefficients):
        return CoefficientBlockView.from_coefficients(c)
    raise TypeError("expected HaarCoefficients or CoefficientBlockView")


def _block_log2_lp_pow(view: CoefficientBlockView, k: int, p: float) -> float:
    """log2 of sum_{h in block k} |lambda_h|^p."""
    return logsumexp2(p * view.level_log2[k])


def lqlp_norm_log2(c, prm: BesovParams) -> float:
    """log2 of :func:`lqlp_norm` (-inf for the zero sequence).

    This is the overflow-safe entry point for coefficient blocks whose
    magnitudes sit outside double range.
    """
    if not prm.q_finite:
        raise ValueError("use linf_lp_norm for q = INF")
    view = _as_view(c)
    p, q, s, d = prm.p, prm.q, prm.s, prm.d
    if view.d != d:
        raise ValueError("coefficient dimension does not match the parameters")
    inner = []
    for k in range(view.max_level + 1):
        lg = _block_log2_lp_pow(view, k, p)
        if lg > -math.inf:
            inner.append((q / p) * (k * (s * p - d) + lg))
    if not inner:
        return -math.inf
    return logsumexp2(inner) / q


def lqlp_norm(c, prm: BesovParams) -> float:
    """(sum_k (sum_{h in block k} 2^{k(sp-d)} |lambda_h|^p)^{q/p})^{1/q}."""
    lg = lqlp_norm_log2(c, prm)
    if lg == -math.inf:
        return 0.0
    try:
        return 2.0**lg
    except OverflowError:
        return math.inf


class LevelSupremum(NamedTuple):
    value: float
    per_level: np.ndarray


def linf_lp_norm(c, prm: BesovParams) -> LevelSupremum:
    """sup_k 2^{k(s-d/p)} (sum_{h in block k} |lambda_h|^p)^{1/p}.

    The per-level sequence is returned alongside the supremum so decay
    toward zero (membership in the separable subspace) can be inspected.
    """
    if prm.q_finite:
        raise ValueError("linf_lp_norm is the q = INF sequence norm")
    view = _as_view(c)
    p, s, d = prm.p, prm.s, prm.d
    if view.d != d:
        raise ValueError("coefficient dimension does not match the parameters")
    levels = []
    for k in range(view.max_level + 1):
        lg = _block_log2_lp_pow(view, k, p)
        levels.append(2.0 ** (k * (s - d / p) + lg / p) if lg > -math.inf else 0.0)
    per_level = np.array(levels)
    return LevelSupremum(float(per_level.max(initial=0.0)), per_level)
