import math

import numpy as np
import pytest

import haar_besov as hb

from helpers import zero_blocks


class TestLqLpNorm:
    def test_single_scaling_coefficient(self):
        c = hb.HaarCoefficients(1, 2, -3.0, zero_blocks(1, 2))
        prm = hb.BesovParams(0.8, 1.0, 0.5, 1)
        assert hb.lqlp_norm(c, prm) == pytest.approx(3.0, rel=1e-14)

    def test_single_scaling_coefficient_sup(self):
        c = hb.HaarCoefficients(1, 2, -3.0, zero_blocks(1, 2))
        sup = hb.linf_lp_norm(c, hb.BesovParams(0.8, hb.INF, 0.5, 1))
        assert sup.value == pytest.approx(3.0, rel=1e-14)

    @pytest.mark.parametrize("d,k", [(1, 2), (2, 3)])
    def test_single_level_coefficient_weight(self, d, k):
        blocks = zero_blocks(d, k)
        blocks[k - 1][(0,) * d + (0,)] = 4.0
        c = hb.HaarCoefficients(d, k, 0.0, blocks)
        for p, q, s in [(0.8, 1.0, 0.5), (1.5, 0.5, 0.25)]:
            prm = hb.BesovParams(p, q, s, d)
            expect = 2.0 ** (k * (s - d / p)) * 4.0
            assert hb.lqlp_norm(c, prm) == pytest.approx(expect, rel=1e-12)
            sup = hb.linf_lp_norm(c, hb.BesovParams(p, hb.INF, s, d))
            assert sup.value == pytest.approx(expect, rel=1e-12)

    def test_spike_closed_sum(self):
        # coefficients of the corner spike: scaling 1, one full pattern set of
        # value 2^{(k-1)d} per level along the corner chain
        m, d = 5, 1
        p, q = 1.5, 0.8
        s = 0.5  # inside the isomorphism range for p > 1
        prm = hb.BesovParams(p, q, s, d)
        f = hb.densify(hb.spike_pair(m, d).f, m)
        got = hb.lqlp_norm(hb.analyze(f), prm)
        terms = [1.0]  # k = 0 block
        nw = (1 << d) - 1
        for k in range(1, m + 1):
            inner = 2.0 ** (k * (s * p - d)) * nw * 2.0 ** ((k - 1) * d * p)
            terms.append(inner ** (q / p))
        expect = math.fsum(terms) ** (1.0 / q)
        assert got == pytest.approx(expect, rel=1e-12)

    def test_requires_finite_q(self):
        c = hb.HaarCoefficients(1, 1, 0.0, zero_blocks(1, 1))
        with pytest.raises(ValueError):
            hb.lqlp_norm(c, hb.BesovParams(1.0, hb.INF, 0.5, 1))

    def test_dimension_mismatch(self):
        c = hb.HaarCoefficients(2, 1, 0.0, zero_blocks(2, 1))
        with pytest.raises(ValueError):
            hb.lqlp_norm(c, hb.BesovParams(1.0, 1.0, 0.5, 1))


class TestLinfLpNorm:
    def test_spike_levels_constant_at_critical_smoothness(self):
        # spike block k holds coefficients 2^{(k-1)d} on the corner chain;
        # with weight 2^{k(s-d/p)} the per-level values are k-independent
        # exactly at s = d(1/p-1), and the sup equals any level's value
        m, d, p = 6, 1, 0.8
        s = d * (1.0 / p - 1.0)
        prm = hb.BesovParams(p, hb.INF, s, d)
        f = hb.densify(hb.spike_pair(m, d).f, m)
        sup = hb.linf_lp_norm(hb.analyze(f), prm)
        per = sup.per_level[1:]  # wavelet levels
        assert np.allclose(per, per[0], rtol=1e-12)
        assert per[0] == pytest.approx(2.0**-d, rel=1e-12)
        assert sup.value == pytest.approx(max(per[0], sup.per_level[0]), rel=1e-14)

    def test_decay_sequence_reported(self):
        r = np.random.default_rng(7)
        f = hb.DyadicStepFunction(1, 4, r.uniform(-1, 1, 16))
        prm = hb.BesovParams(2.0, hb.INF, 0.25, 1)
        sup = hb.linf_lp_norm(hb.analyze(f), prm)
        assert sup.per_level.shape == (5,)
        assert sup.value == pytest.approx(float(sup.per_level.max()), rel=1e-14)

    def test_requires_infinite_q(self):
        c = hb.HaarCoefficients(1, 1, 0.0, zero_blocks(1, 1))
        with pytest.raises(ValueError):
            hb.linf_lp_norm(c, hb.BesovParams(1.0, 1.0, 0.5, 1))


class TestCriticalLineFailure:
    def test_spike_ratio_unbounded_at_critical_smoothness(self):
        # at s = d(1/p-1), q <= p < 1 the coefficient map is no isomorphism:
        # every block of the corner spike f_{2k} contributes a constant to
        # the weighted l_q(l_p) norm, so lqlp/a_norm grows like k^{1/q}
        # while a_norm stays bounded (its rearranged partial sums g_{2k}
        # grow at the same k^{1/q} rate on both sides)
        p = q = 0.8
        d = 1
        prm = hb.BesovParams(p, q, d * (1.0 / p - 1.0), d)
        ratios = []
        for k in range(1, 8):
            m = 2 * k
            f = hb.densify(hb.spike_pair(m, d).f, m)
            ratio = hb.lqlp_norm(hb.analyze(f), prm) / hb.spike_closed_form(
                m, d, prm
            ).a_norm
            ratios.append(ratio)
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] / ratios[0] > 1.8  # ~ (m_max / m_min)^{1/q}
        x = np.arange(1.0, 8.0)
        y = np.log2(ratios)
        slope = float(((x - x.mean()) * (y - y.mean())).sum() / ((x - x.mean()) ** 2).sum())
        assert slope > 0.05


class TestLog2Domain:
    @staticmethod
    def _levels_at_1e300(levels):
        # levels 1..K each full of coefficients 1e300 (about 2^996.6)
        blocks = zero_blocks(1, levels)
        for b in blocks:
            b[...] = 1e300
        return hb.HaarCoefficients(1, levels, 0.0, blocks)

    def test_norm_beyond_double_range_raises_value_error(self):
        # every level near 2^997 and q = 0.05: the l_q sum of four
        # comparable levels lift the norm by about 4^20 = 2^40; its log2
        # stays exact and its value raises
        c = self._levels_at_1e300(4)
        prm = hb.BesovParams(1.0, 0.05, 0.9, 1)
        lg = hb.lqlp_norm_log2(c, prm)
        inner = [(k - 1) + k * (0.9 - 1) + math.log2(1e300) for k in range(1, 5)]
        expect = math.log2(math.fsum(2.0 ** (0.05 * (x - 996)) for x in inner)) / 0.05 + 996
        assert lg == pytest.approx(expect, rel=1e-12) and lg > 1024
        with pytest.raises(ValueError, match="the lqlp norm overflows double range"):
            hb.lqlp_norm(c, prm)
        # one level holds a double
        assert hb.lqlp_norm(self._levels_at_1e300(1), prm) == pytest.approx(
            2.0**-0.1 * 1e300, rel=1e-12
        )

    def test_sup_beyond_double_range_raises_value_error(self):
        c = self._levels_at_1e300(3)
        # level k is 2^{9k} 2^{k-1} 1e300: a double up to k = 2
        prm = hb.BesovParams(1.0, hb.INF, 10.0, 1)
        with pytest.raises(ValueError, match="the linflp norm overflows double range"):
            hb.linf_lp_norm(c, prm)

    def test_levels_match_direct_sums(self):
        r = np.random.default_rng(8)
        f = hb.DyadicStepFunction(2, 3, r.normal(size=(8, 8)))
        c = hb.analyze(f)
        p, q, s = 1.2, 0.7, 0.4
        terms = [abs(c.scaling) ** q]
        for k in range(1, 4):
            inner = 2.0 ** (k * (s * p - 2)) * np.sum(np.abs(c.blocks[k - 1]) ** p)
            terms.append(inner ** (q / p))
        expect = math.fsum(terms) ** (1.0 / q)
        assert hb.lqlp_norm(c, hb.BesovParams(p, q, s, 2)) == pytest.approx(
            expect, rel=1e-12
        )

    def test_rejects_other_inputs(self):
        # the norms take HaarCoefficients, whose blocks are shape-checked
        with pytest.raises(ValueError, match="block 1 has shape"):
            hb.HaarCoefficients(1, 1, 0.0, [np.zeros(2)])
        with pytest.raises(TypeError):
            hb.lqlp_norm([np.zeros(1)], hb.BesovParams(1.0, 1.0, 0.5, 1))
