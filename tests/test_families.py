import math

import numpy as np
import pytest

import haar_besov as hb
from haar_besov.families import ALTERNATING, TRIVIAL_DUAL, _nested_tails_log2
from haar_besov.experiments import fit_log2_slope

from helpers import a_norm_grid, nested_tail_log2_loop


def crit(p, d):
    return d * (1.0 / p - 1.0)


class TestNestedFamily:
    def test_trivial_dual_smallest(self):
        f = hb.nested_family(hb.NestedSpec(1, 0))
        assert len(f.atoms) == 1
        assert f.atoms[0].cube == hb.DyadicCube.root(1)
        assert f.atoms[0].value == pytest.approx(1.0)

    def test_alternating_atoms(self):
        f = hb.nested_family(hb.NestedSpec(1, 2, rule=ALTERNATING))
        vals = [a.value for a in f.atoms]
        assert vals == pytest.approx([1.0, -2.0, 4.0])
        levels = [a.cube.level for a in f.atoms]
        assert levels == [0, 1, 2]

    def test_densified_equals_pointwise_sum(self):
        spec = hb.NestedSpec(1, 3)
        f = hb.nested_family(spec)
        dense = hb.densify(f, 3).flat()
        direct = np.zeros(8)
        for l, cube_ in enumerate(spec.cubes):
            a_l = 2.0**l / (l + 1)
            lo, hi = cube_.grid_slices(3)[0].start, cube_.grid_slices(3)[0].stop
            direct[lo:hi] += a_l
        np.testing.assert_allclose(dense, direct, rtol=1e-12)

    def test_custom_chain_validated(self):
        good = (
            hb.DyadicCube.root(1),
            hb.DyadicCube(1, 1, (1,)),
            hb.DyadicCube(1, 2, (2,)),
        )
        hb.NestedSpec(1, 2, chain=good)
        bad = (hb.DyadicCube.root(1), hb.DyadicCube(1, 1, (1,)), hb.DyadicCube(1, 2, (0,)))
        with pytest.raises(ValueError):
            hb.NestedSpec(1, 2, chain=bad)


def _tail_table():
    """(signs, logs, d, p) over d <= 3 and m <= 64: both named rules, explicit
    rules with zeros and magnitudes up to 2^+-40, and rules whose running
    sums cancel exactly, such as (2, -2, 0, 3, -3)."""
    rng = np.random.default_rng(31)
    for d in (1, 2, 3):
        for m in (0, 1, 2, 3, 4, 5, 8, 13, 21, 34, 47, 64):
            wide = rng.choice([-1.0, 1.0], m + 1) * np.exp2(rng.uniform(-40.0, 40.0, m + 1))
            wide[rng.random(m + 1) < 0.2] = 0.0
            cancelling = ((2.0, -2.0, 0.0, 3.0, -3.0) * (m // 5 + 1))[: m + 1]
            small = rng.choice([-2.0, -1.0, 0.0, 1.0, 2.0], m + 1)
            for rule in (TRIVIAL_DUAL, ALTERNATING, tuple(wide), cancelling, tuple(small)):
                signs, logs = hb.NestedSpec(d, m, rule=rule).coefficient_logs()
                for p in (0.3, 0.6, 0.8, 1.0):
                    yield signs, logs, d, p
    # two rules whose tails move if the running sums take numpy's array log2
    # (seen with numpy 2.4 on an AVX-512 x86-64 build; the rows above do not
    # show it, since a last-bit change of log2|sum| is mostly lost in the
    # weights' exponents)
    for rule in ((0.317, 0.957, 0.494), (0.707, 1.201, -0.817, 0.656)):
        signs, logs = hb.NestedSpec(1, len(rule) - 1, rule=rule).coefficient_logs()
        yield signs, logs, 1, 1.0


def test_tails_match_the_scalar_loop_bit_for_bit():
    # every start's tail, and start 0's at exponent 1, against one two-term
    # signed add per (start, n)
    tails = 0
    for signs, logs, d, p in _tail_table():
        want = [nested_tail_log2_loop(signs, logs, j, d, p) for j in range(len(signs))]
        want.append(nested_tail_log2_loop(signs, logs, 0, d, 1.0))
        got = _nested_tails_log2(signs, logs, d, p).tolist()
        assert list(map(float.hex, got)) == list(map(float.hex, want)), (d, len(signs) - 1, p)
        tails += len(got)
    assert tails == 13_569


class TestNestedClosedForm:
    def test_zero_rule(self):
        spec = hb.NestedSpec(1, 3, rule=(0.0, 0.0, 0.0, 0.0))
        norms = hb.nested_closed_form(spec, hb.BesovParams(0.5, 1.0, 0.5, 1))
        assert norms.lp_norm == 0.0
        assert np.all(norms.e_values == 0.0)
        assert norms.a_norm == 0.0 and norms.l1_norm == 0.0

    def test_trivial_dual_error_decay(self):
        # E_k(f_m)^p tracks 2^{-kd(1-p)} / (k+1)^p up to bounded factors
        d, m, p = 1, 12, 0.6
        prm = hb.BesovParams(p, 2.0, crit(p, d), d)
        norms = hb.nested_closed_form(hb.NestedSpec(d, m), prm)
        for k in range(2, m - 2):
            model = 2.0 ** (-k * d * (1 - p)) / (k + 1) ** p
            ratio = norms.e_values[k] ** p / model
            assert 0.2 <= ratio <= 5.0

    @pytest.mark.parametrize("p,q,s", [(0.5, 0.7, 0.9), (0.6, 2.0, crit(0.6, 1))])
    def test_matches_pipeline_dense(self, p, q, s):
        d, m = 1, 5
        prm = hb.BesovParams(p, q, s, d)
        spec = hb.NestedSpec(d, m)
        norms = hb.nested_closed_form(spec, prm)
        fd = hb.densify(hb.nested_family(spec), m)
        assert norms.lp_norm == pytest.approx(hb.lp_quasinorm(fd, p), rel=1e-12)
        assert norms.l1_norm == pytest.approx(hb.lp_quasinorm(fd, 1.0), rel=1e-12)
        for k in range(m):
            assert norms.e_values[k] == pytest.approx(
                hb.approx_error(fd, k, p), rel=1e-10
            )
        assert norms.a_norm == pytest.approx(hb.a_norm(fd, prm), rel=1e-10)

    def test_explicit_rule_against_grid_search(self):
        d, m, p = 1, 2, 0.5
        spec = hb.NestedSpec(d, m, rule=(1.0, 2.0, 4.0))
        prm = hb.BesovParams(p, 1.0, 0.8, d)
        norms = hb.nested_closed_form(spec, prm)
        fd = hb.densify(hb.nested_family(spec), m)
        assert norms.a_norm == pytest.approx(a_norm_grid(fd, prm), rel=1e-6)

    def test_rejects_large_p(self):
        with pytest.raises(ValueError):
            hb.nested_closed_form(hb.NestedSpec(1, 2), hb.BesovParams(1.5, 1.0, 0.3, 1))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_coefficients(self, bad):
        # a non-finite coefficient would read lp, l1 and E_0 as nan beside a finite a-norm
        with pytest.raises(ValueError, match=r"^explicit rule \(1\.0, .*, 1\.0\) has a non-finite"):
            hb.NestedSpec(1, 2, rule=(1.0, bad, 1.0))

    @pytest.mark.parametrize("p", [1.0, 0.5])
    def test_overflow_raises_by_name(self, p):
        # three coefficients of 1.7e308: L_p and L_1 overflow a Python float power
        spec = hb.NestedSpec(1, 2, rule=(1.7e308,) * 3)
        with pytest.raises(ValueError, match="^the nested closed form overflows double range$"):
            hb.nested_closed_form(spec, hb.BesovParams(p, 1.0, 0.5, 1))

    def test_deepest_cube_carries_full_measure(self):
        # the final chain cube contributes 2^{-md}|xi_m|^p, not the edge-
        # weighted fraction; the densified pipeline is the referee
        d, m, p = 2, 2, 0.7
        spec = hb.NestedSpec(d, m, rule=(1.0, 1.0, 1.0))
        norms = hb.nested_closed_form(spec, hb.BesovParams(p, 1.0, 0.2, d))
        fd = hb.densify(hb.nested_family(spec), m)
        assert norms.lp_norm == pytest.approx(hb.lp_quasinorm(fd, p), rel=1e-13)
        wrong = (1 - 2.0**-d) * math.fsum(
            2.0 ** (-n * d) * abs(n + 1.0) ** p for n in range(m + 1)
        )
        assert norms.lp_norm**p != pytest.approx(wrong, rel=1e-6)


class TestSpikePair:
    def test_smallest_instance(self):
        pair = hb.spike_pair(0, 2)
        assert hb.densify(pair.f, 0).flat().tolist() == [1.0]
        assert hb.densify(pair.g(0), 0).flat().tolist() == [1.0]

    def test_alternating_partial_sum_atoms(self):
        pair = hb.spike_pair(4, 1)
        g2 = pair.g(1)
        assert [a.value for a in g2.atoms] == pytest.approx([1.0, -2.0, 4.0])

    def test_projector_identity(self):
        # the even-block partial sum of the spike is exactly g_{2k}
        m, d = 4, 1
        pair = hb.spike_pair(m, d)
        f = hb.densify(pair.f, m)
        for k in (1, 2):
            J = [i for l in range(0, 2 * k + 1, 2) for i in hb.level_indices(d, l)]
            lhs = hb.partial_sum_subset(f, J)
            rhs = hb.densify(pair.g(k), m)
            np.testing.assert_allclose(lhs.values, rhs.values, atol=1e-12)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            hb.spike_pair(4, 1).g(3)

    def test_overflow_raises_by_name(self):
        # sum_l 2^{lsq} over l < 7000 at sq = 0.2 passes 2^1024
        with pytest.raises(ValueError, match="^the spike closed form overflows double range$"):
            hb.spike_closed_form(7000, 1, hb.BesovParams(0.8, 0.8, 0.25, 1))


class TestScattered:
    def test_smallest_instance(self):
        spec = hb.ScatteredSpec(1, 1, 0.5)
        f = hb.scattered(spec)
        assert spec.n_atoms == 1
        assert spec.marked_cubes() == [hb.DyadicCube(1, 1, (0,))]
        atom = f.atoms[0]
        assert atom.cube == hb.DyadicCube(1, 2, (0,))
        assert atom.value == pytest.approx(2.0**2)

    @pytest.mark.parametrize("k,d", [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1)])
    def test_atom_count(self, k, d):
        spec = hb.ScatteredSpec(k, d, 0.5)
        assert len(hb.scattered(spec).atoms) == 2 ** (k * d - 1)

    def test_marked_set_splits_parents_evenly(self):
        spec = hb.ScatteredSpec(2, 2, 1.0)
        marked = spec.marked_cubes()
        assert len(marked) == spec.n_atoms
        per_parent = {}
        for c in marked:
            per_parent.setdefault(c.ancestor(spec.k - 1), 0)
            per_parent[c.ancestor(spec.k - 1)] += 1
        assert set(per_parent.values()) == {2 ** (spec.d - 1)}
        assert len(per_parent) == 2 ** ((spec.k - 1) * spec.d)

    def test_atoms_nest_in_marked_cubes(self):
        spec = hb.ScatteredSpec(1, 2, 0.5)
        for marked, atom in zip(spec.marked_cubes(), spec.atom_cubes()):
            assert marked.contains(atom)
        levels = [c.level for c in spec.atom_cubes()]
        assert levels == [spec.k + i for i in range(1, spec.n_atoms + 1)]

    def test_densify_cross_check(self):
        spec = hb.ScatteredSpec(1, 2, 0.5)
        f = hb.scattered(spec)
        fd = hb.densify(f, f.max_level)
        total = math.fsum(
            2.0 ** (-c.level * 2) * 2.0 ** ((spec.k + i) * 2) * i**-0.5
            for i, c in enumerate(spec.atom_cubes(), start=1)
        )
        assert math.fsum(fd.flat()) * fd.cell_measure == pytest.approx(total, rel=1e-12)


class TestScatteredClosedNorms:
    def test_error_vanishes_beyond_depth(self):
        spec = hb.ScatteredSpec(2, 1, 1.0)
        prm = hb.BesovParams(0.6, 0.9, crit(0.6, 1), 1)
        norms = hb.scattered_closed_norms(spec, prm)
        assert norms.log2_e.shape == (spec.k + spec.n_atoms,)
        # E_l = ||f||_p for l <= k
        assert np.allclose(np.exp2(norms.log2_e[: spec.k + 1]), norms.lp_norm)

    def test_projection_errors_equal_its_norm(self):
        spec = hb.ScatteredSpec(2, 1, 1.0)
        prm = hb.BesovParams(0.6, 0.9, crit(0.6, 1), 1)
        norms = hb.scattered_closed_norms(spec, prm)
        f = hb.scattered(spec)
        proj = hb.average_project(f, spec.k)
        assert norms.proj_lp_norm == pytest.approx(
            hb.lp_quasinorm(proj, 0.6), rel=1e-12
        )
        for l in range(spec.k):
            assert hb.approx_error(proj, l, 0.6) == pytest.approx(
                norms.proj_lp_norm, rel=1e-12
            )

    @pytest.mark.parametrize(
        "k,d,p,q,alpha",
        [(2, 1, 0.6, 0.9, 1.0), (3, 1, 0.7, 1.0, 0.5), (2, 2, 0.8, 1.0, 0.5)],
    )
    def test_matches_pipeline(self, k, d, p, q, alpha):
        spec = hb.ScatteredSpec(k, d, alpha)
        prm = hb.BesovParams(p, q, crit(p, d), d)
        norms = hb.scattered_closed_norms(spec, prm)
        f = hb.scattered(spec)
        fd = hb.densify(f, f.max_level)
        assert norms.lp_norm == pytest.approx(hb.lp_quasinorm(fd, p), rel=1e-12)
        for l in range(f.max_level):
            expect = hb.approx_error(fd, l, p)
            got = norms.e_values[l] if l < norms.log2_e.size else 0.0
            assert got == pytest.approx(expect, rel=1e-10, abs=1e-300)
        assert norms.a_norm == pytest.approx(hb.a_norm(fd, prm), rel=1e-10)
        proj = hb.average_project(f, k)
        assert norms.proj_a_norm == pytest.approx(hb.a_norm(proj, prm), rel=1e-10)

    def test_log_domain_survives_huge_instances(self):
        # d=2, k=7: atoms reach level 8199 and coefficients 2^{~16000}
        spec = hb.ScatteredSpec(7, 2, 0.5)
        prm = hb.BesovParams(0.8, 1.0, crit(0.8, 2), 2)
        norms = hb.scattered_closed_norms(spec, prm)
        assert math.isfinite(norms.log2_a_norm)
        assert math.isfinite(norms.log2_ratio)
        assert norms.n_atoms == 2**13

    def test_alpha_validation(self):
        spec = hb.ScatteredSpec(2, 1, 1.5)
        with pytest.raises(ValueError):
            hb.scattered_closed_norms(spec, hb.BesovParams(0.6, 0.9, crit(0.6, 1), 1))

    def test_requires_small_p(self):
        spec = hb.ScatteredSpec(2, 1, 0.5)
        with pytest.raises(ValueError):
            hb.scattered_closed_norms(spec, hb.BesovParams(1.0, 1.0, 0.0, 1))


class TestScatteredGrowth:
    def test_converged_window_matches_rate(self):
        # tighter than the acceptance window (k = 4..14, 2^3..2^13 atoms,
        # 20% tolerance, 6.6% measured): once the finite-N corrections of
        # the closed form have decayed, k = 8..13 at d = 1 fits
        # d(1/p - 1/q) within 2%
        p, q, d = 0.7, 1.0, 1
        prm = hb.BesovParams(p, q, crit(p, d), d)
        pts = []
        for k in range(8, 14):
            norms = hb.scattered_closed_norms(hb.ScatteredSpec(k, d, 1 / (2 * q)), prm)
            pts.append((k, norms.ratio))
        slope, _, _ = fit_log2_slope(pts)
        theo = d * (1 / p - 1 / q)
        assert abs(slope - theo) / theo < 0.02


class TestTensorSpikePair:
    def test_inner_product_and_l2(self):
        prm = hb.BesovParams(0.5, 1.0, 1.0, 2)
        for k in (1, 2, 4):
            res = hb.tensor_spike_pair(k, 2, prm)
            assert res.inner_product == pytest.approx(2.0 ** (-2 * k))
            assert res.theta_l2_sq == pytest.approx(2.0 ** (1 - k))
            th = res.theta_function(max(k, 3))
            fd = hb.densify(res.f, max(k, 3))
            ip = math.fsum((th.values * fd.values).ravel()) * th.cell_measure
            assert ip == pytest.approx(res.inner_product, rel=1e-12)

    def test_penultimate_error_value(self):
        p = 0.5
        prm = hb.BesovParams(p, 1.0, 1.0, 2)
        for k in (2, 3):
            res = hb.tensor_spike_pair(k, 2, prm)
            assert res.e_theta[k - 1] == pytest.approx(2.0 * 2.0 ** (-k / p), rel=1e-12)

    def test_matches_pipeline(self):
        k, d = 2, 2
        prm = hb.BesovParams(0.5, 1.0, 1.0, d)
        res = hb.tensor_spike_pair(k, d, prm)
        fd = hb.densify(res.f, k)
        proj = hb.rank_one_project(fd, res.theta_index)
        th = res.theta_function(k)
        assert res.a_f == pytest.approx(hb.a_norm(fd, prm), rel=1e-10)
        assert res.a_theta == pytest.approx(hb.a_norm(th, prm), rel=1e-10)
        assert res.a_projection == pytest.approx(hb.a_norm(proj, prm), rel=1e-10)
        for l in range(k):
            assert res.e_f[l] == pytest.approx(hb.approx_error(fd, l, 0.5), rel=1e-10)
            assert res.e_theta[l] == pytest.approx(
                hb.approx_error(th, l, 0.5), rel=1e-10
            )

    def test_dimension_one_rejected(self):
        with pytest.raises(ValueError):
            hb.tensor_spike_pair(2, 1, hb.BesovParams(0.5, 1.0, 1.0, 1))

    def test_overflow_and_underflow_raise_by_name(self):
        prm = hb.BesovParams(0.5, 1.0, 1.0, 2)
        # sum_l 2^{lsq} over l < 1030 passes 2^1024
        with pytest.raises(ValueError, match="^the tensor spike closed form overflows double range$"):
            hb.tensor_spike_pair(1030, 2, prm)
        # past k = 1075, ||theta||_2^2 = 2^{1-k} reads 0: <f, theta> / ||theta||_2^2 has no value
        with pytest.raises(ValueError, match=r"^the tensor spike closed form's \|\|theta\|\|_2\^2 underflows"):
            hb.tensor_spike_pair(1076, 2, prm)

    def test_ratio_over_an_underflowed_a_norm_raises_by_name(self):
        # ||f||_p = 2^{-kd/p} = 2^-2400 reads 0, so a_f does too
        res = hb.tensor_spike_pair(600, 2, hb.BesovParams(0.5, 1.0, 1.0, 2))
        assert res.a_f == 0.0
        with pytest.raises(ValueError, match="^the tensor spike closed form's a-norm of f"):
            res.ratio


class TestGrowthSummaries:
    def test_trivial_dual_bounded_with_log_l1(self):
        for d in (1, 2):
            p = 0.6
            prm = hb.BesovParams(p, 2.0, crit(p, d), d)
            a_vals, l1_ratio = [], []
            for m in range(4, 17):
                norms = hb.nested_closed_form(hb.NestedSpec(d, m), prm)
                a_vals.append(norms.a_norm)
                l1_ratio.append(norms.l1_norm / math.log(m + 2))
            assert max(a_vals) <= 2.0 * a_vals[4]  # max over m <= 2 x value at m=8
            assert 0.2 <= min(l1_ratio) <= max(l1_ratio) <= 5.0

    def test_alternating_sum_growth(self):
        p = q = 0.8
        d = 1
        prm = hb.BesovParams(p, q, crit(p, d), d)
        ys = [
            hb.nested_closed_form(hb.NestedSpec(d, 2 * k, rule=ALTERNATING), prm).a_norm
            ** q
            for k in range(2, 9)
        ]
        diffs = np.diff(ys)
        assert np.all(diffs > 0)

    def test_tensor_growth_rate(self):
        p, d = 0.5, 2
        prm = hb.BesovParams(p, 1.0, 1.0, d)
        pts = [(k, hb.tensor_spike_pair(k, d, prm).ratio) for k in range(2, 11)]
        slope, _, _ = fit_log2_slope(pts)
        theo = (1 / p - 1) * (d - 1)
        assert abs(slope - theo) / theo < 0.2
