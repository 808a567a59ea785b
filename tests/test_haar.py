import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import haar_besov as hb
from haar_besov.experiments import random_step
from haar_besov.haar import block_size

from helpers import analyze_direct, block_l1_ppow_sum, zero_blocks

rng = np.random.default_rng(20240811)


def random_dense(d, m, seed=None):
    r = np.random.default_rng(seed) if seed is not None else rng
    return hb.DyadicStepFunction(d, m, r.normal(size=(1 << m,) * d))


class TestHaarFunction:
    def test_scaling_is_indicator(self):
        f = hb.haar_function(hb.HaarIndex.scaling(2))
        assert np.all(hb.densify(f, 1).values == 1.0)

    def test_one_dimensional_wavelet(self):
        idx = hb.HaarIndex.wavelet(hb.DyadicCube.root(1), 1)
        assert hb.densify(hb.haar_function(idx), 1).flat().tolist() == [1.0, -1.0]

    def test_two_dimensional_checkerboard(self):
        idx = hb.HaarIndex.wavelet(hb.DyadicCube.root(2), 0b11)
        vals = hb.densify(hb.haar_function(idx), 1).flat().tolist()
        assert vals == [1.0, -1.0, -1.0, 1.0]

    def test_mean_zero_and_support(self):
        for d in (1, 2, 3):
            for idx in hb.level_indices(d, 2):
                h = hb.densify(hb.haar_function(idx), 2)
                assert math.fsum(h.flat()) == 0.0
                outside = np.ones_like(h.values, dtype=bool)
                outside[idx.support.grid_slices(2)] = False
                assert np.all(h.values[outside] == 0.0)
                assert np.all(np.abs(h.values[idx.support.grid_slices(2)]) == 1.0)

    def test_block_sizes(self):
        assert block_size(2, 0) == 1
        assert block_size(2, 1) == 3
        assert block_size(2, 3) == 3 * 16
        for d, k in [(1, 4), (2, 3), (3, 2)]:
            assert len(list(hb.level_indices(d, k))) == block_size(d, k)


class TestAnalyze:
    def test_constant(self):
        c = hb.analyze(hb.DyadicStepFunction(2, 2, np.full((4, 4), 3.25)))
        assert c.scaling == 3.25
        for k in (1, 2):
            assert np.all(c.blocks[k - 1] == 0.0)

    @pytest.mark.parametrize("d,m", [(1, 3), (2, 3)])
    def test_spike_coefficient_table(self, d, m):
        f = hb.densify(hb.spike_pair(m, d).f, m)
        c = hb.analyze(f)
        corner = hb.DyadicCube(d, m, (0,) * d)
        assert c.scaling == pytest.approx(1.0, rel=1e-12)
        for k in range(1, m + 1):
            for idx in hb.level_indices(d, k):
                expected = 2.0 ** ((k - 1) * d) if idx.support.contains(corner) else 0.0
                assert c.coefficient(idx) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("d,m", [(1, 3), (2, 2), (3, 2)])
    def test_matches_direct_quadrature(self, d, m):
        f = random_dense(d, m, seed=101)
        c = hb.analyze(f)
        for idx, lam in analyze_direct(f).items():
            assert c.coefficient(idx) == pytest.approx(lam, rel=1e-10, abs=1e-12)


class TestSynthesize:
    def test_single_wavelet(self):
        for d in (1, 2):
            for idx in hb.level_indices(d, 2):
                blocks = zero_blocks(d, 2)
                blocks[1][idx.parent.index + (idx.pattern - 1,)] = 1.0
                out = hb.synthesize(hb.HaarCoefficients(d, 2, 0.0, blocks), 2)
                expect = hb.densify(hb.haar_function(idx), 2)
                assert np.array_equal(out.values, expect.values)

    def test_roundtrip_spike(self):
        f = hb.densify(hb.spike_pair(4, 1).f, 4)
        g = hb.synthesize(hb.analyze(f), 4)
        assert np.array_equal(g.values, f.values)

    @settings(max_examples=40)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([1, 2, 3]),
        st.integers(0, 4),
        st.floats(1e-3, 1e3),
    )
    def test_roundtrip_property(self, seed, d, m, scale):
        v = scale * np.random.default_rng(seed).normal(size=(1 << m,) * d)
        g = hb.synthesize(hb.analyze(hb.DyadicStepFunction(d, m, v)), m)
        assert np.max(np.abs(g.values - v)) <= 1e-12 * max(1.0, np.max(np.abs(v)))

    def test_even_block_coefficients_give_alternating_sum(self):
        m, d, k = 4, 1, 1
        f = hb.densify(hb.spike_pair(m, d).f, m)
        c = hb.analyze(f)
        blocks = zero_blocks(d, m)
        blocks[2 * k - 1][:] = c.blocks[2 * k - 1]
        out = hb.synthesize(hb.HaarCoefficients(d, m, c.scaling, blocks), m)
        expect = hb.densify(hb.spike_pair(m, d).g(k), m)
        np.testing.assert_allclose(out.values, expect.values, atol=1e-12)

    def test_json_roundtrip(self):
        f = random_dense(2, 2, seed=55)
        c = hb.analyze(f)
        c2 = hb.HaarCoefficients.from_json(c.to_json())
        assert c2.scaling == c.scaling
        for a, b in zip(c.blocks, c2.blocks):
            assert np.array_equal(a, b)

    def test_each_synthesis_takes_only_its_own_coefficients(self):
        f = random_dense(1, 2, seed=56)
        iso, tensor = hb.analyze(f), hb.tensor_analyze(f)
        for coeffs in (tensor, f, [1.0, 2.0]):
            with pytest.raises(TypeError, match="^expected HaarCoefficients$"):
                hb.synthesize(coeffs, 2)
        for coeffs in (iso, f, [1.0, 2.0]):
            with pytest.raises(TypeError, match="^expected TensorHaarCoefficients$"):
                hb.tensor_synthesize(coeffs, 2)

    def test_containers_read_array_likes_as_float(self):
        # lists and integer arrays are read as float arrays before the shape
        # check; a float64 array is taken over, not copied, and set read-only
        with pytest.raises(ValueError, match=r"^block 1 has shape \(1,\), expected \(1, 1\)$"):
            hb.HaarCoefficients(1, 1, 0.0, [[1.0]])
        nested = hb.HaarCoefficients(1, 1, 0.0, [[[1.0]]])
        assert nested.blocks[0].dtype == float and nested.coefficient(next(hb.level_indices(1, 1))) == 1.0
        ints = hb.HaarCoefficients(1, 1, 0.0, [np.array([[3]], dtype=np.int64)])
        assert ints.blocks[0].dtype == float and ints.blocks[0][0, 0] == 3.0
        block = np.zeros((1, 1))
        assert hb.HaarCoefficients(1, 1, 0.0, [block]).blocks[0] is block
        assert not block.flags.writeable
        tensor = hb.TensorHaarCoefficients(1, 1, [1.0, 2.0])
        assert tensor.array.dtype == float and tensor.array.tolist() == [1.0, 2.0]
        assert hb.tensor_synthesize(tensor).values.tolist() == [3.0, -1.0]
        with pytest.raises(ValueError, match=r"^expected shape \(2,\)$"):
            hb.TensorHaarCoefficients(1, 1, [1.0, 2.0, 3.0])


class TestPartialSums:
    def test_empty_set_is_zero(self):
        f = random_dense(1, 3, seed=1)
        out = hb.partial_sum_subset(f, [])
        assert np.all(out.values == 0.0)

    @pytest.mark.parametrize("d", [1, 2])
    def test_levels_up_to_k_equal_averaging(self, d):
        f = random_dense(d, 3, seed=2)
        for k in range(4):
            J = [i for l in range(k + 1) for i in hb.level_indices(d, l)]
            lhs = hb.partial_sum_subset(f, J)
            rhs = hb.densify(hb.average_project(f, k), 3)
            np.testing.assert_allclose(lhs.values, rhs.values, atol=1e-12)

    def test_even_blocks_of_spike(self):
        m, d = 4, 1
        pair = hb.spike_pair(m, d)
        f = hb.densify(pair.f, m)
        J = [i for l in (0, 2) for i in hb.level_indices(d, l)]
        out = hb.partial_sum_subset(f, J)
        expect = hb.densify(pair.g(1), m)
        np.testing.assert_allclose(out.values, expect.values, atol=1e-12)

    def test_signs_flip_terms(self):
        f = random_dense(1, 2, seed=3)
        J = list(hb.level_indices(1, 1))
        plus = hb.partial_sum_subset(f, J)
        minus = hb.partial_sum_subset(f, J, signs=[-1] * len(J))
        np.testing.assert_allclose(plus.values, -minus.values, atol=1e-14)

    def test_commutes_with_averaging(self):
        f = random_dense(2, 3, seed=4)
        J = [i for l in range(2) for i in hb.level_indices(2, l)]
        l = 2
        lhs = hb.partial_sum_subset(hb.average_project(f, l), J)
        rhs = hb.average_project(hb.partial_sum_subset(f, J), l)
        np.testing.assert_allclose(lhs.values, hb.densify(rhs, lhs.level).values, atol=1e-12)


class TestOrthogonality:
    @pytest.mark.parametrize("d,top", [(1, 4), (2, 4), (3, 3)])
    def test_all_pairs_exactly_orthogonal(self, d, top):
        funcs = []
        for k in range(top + 1):
            for idx in hb.level_indices(d, k):
                funcs.append(hb.densify(hb.haar_function(idx), top).flat())
        F = np.array(funcs)
        gram = (F @ F.T) * 2.0 ** (-top * d)
        off = gram - np.diag(np.diag(gram))
        assert np.all(off == 0.0)

    def test_sampled_pairs_d3_level4(self):
        # the full level-4 Gram matrix at d=3 is 4096^2 pairs; sample it
        r = np.random.default_rng(13)
        idxs = [i for k in range(5) for i in hb.level_indices(3, k)]
        for _ in range(400):
            a, b = r.integers(0, len(idxs), size=2)
            if a == b:
                continue
            fa = hb.densify(hb.haar_function(idxs[a]), 4).flat()
            fb = hb.densify(hb.haar_function(idxs[b]), 4).flat()
            assert math.fsum(fa * fb) == 0.0

    def test_parseval(self):
        for d, m in [(1, 5), (2, 3)]:
            f = random_dense(d, m, seed=77)
            c = hb.analyze(f)
            total = [c.scaling**2]
            for k in range(1, m + 1):
                mu = 2.0 ** (-(k - 1) * d)
                total.append(mu * float(np.sum(c.blocks[k - 1] ** 2)))
            assert math.fsum(total) == pytest.approx(
                hb.lp_quasinorm(f, 2.0) ** 2, rel=1e-12
            )


class TestExplicitConstantBound:
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("p", [0.6, 0.8, 1.0])
    def test_partial_sum_l1_bound(self, d, p):
        # ||Pg||_p^p <= 2^d 2^{kd(p-1)} sum_cubes ||g||_{L1(cube)}^p for any
        # partial sum P cutting at level k plus a section of block k+1
        r = np.random.default_rng(hash((d, p)) & 0xFFFF)
        for trial in range(25):
            m = int(r.integers(1, 4))
            g = hb.DyadicStepFunction(d, m, r.normal(size=(1 << m,) * d))
            k = int(r.integers(0, m))
            J = [i for l in range(k + 1) for i in hb.level_indices(d, l)]
            nxt = list(hb.level_indices(d, k + 1))
            take = int(r.integers(0, len(nxt) + 1))
            J += nxt[:take]
            Pg = hb.partial_sum_subset(g, J)
            lhs = hb.lp_quasinorm(Pg, p) ** p
            rhs = 2.0**d * 2.0 ** (k * d * (p - 1)) * block_l1_ppow_sum(g, k, p)
            assert lhs <= rhs * (1 + 1e-12)


class TestLevelNormEquivalence:
    def test_band_stable_across_levels(self):
        # ratio ||sum gamma_h h||_p^p / (2^{-kd} sum |gamma|^p) sits in a
        # k-independent band; record the k=1 band, check k=2..6 stay inside
        d, p = 2, 0.7
        r = np.random.default_rng(31)
        bands = {}
        for k in range(1, 7):
            ratios = []
            for _ in range(60):
                blocks = zero_blocks(d, k)
                blocks[k - 1][:] = r.normal(size=blocks[k - 1].shape)
                c = hb.HaarCoefficients(d, k, 0.0, blocks)
                f = hb.synthesize(c, k)
                num = hb.lp_quasinorm(f, p) ** p
                den = 2.0 ** (-k * d) * float(np.sum(np.abs(c.blocks[k - 1]) ** p))
                ratios.append(num / den)
            bands[k] = (min(ratios), max(ratios))
        lo1, hi1 = bands[1]
        for k in range(2, 7):
            lo, hi = bands[k]
            assert lo >= lo1 / 2.0
            assert hi <= hi1 * 2.0


class TestTensorSystem:
    def test_single_tensor_function_unit_coefficient(self):
        d, m = 2, 3
        n = (3, 5)
        f = hb.tensor_haar_function(d, n, m)
        tc = hb.tensor_analyze(f)
        arr = tc.array.copy()
        assert arr[n[0] - 1, n[1] - 1] == pytest.approx(1.0, rel=1e-12)
        arr[n[0] - 1, n[1] - 1] = 0.0
        assert np.max(np.abs(arr)) < 1e-12

    def test_corner_indicator_coefficient(self):
        k, d = 3, 2
        f = hb.densify(hb.spike_pair(k, d).f, k)  # 2^{kd} * corner indicator
        n = ((1 << (k - 1)) + 1, 1)
        lam = hb.tensor_coefficient(f, n)
        assert lam == pytest.approx(2.0 ** (k * d) * 2.0 ** (k - 1) * 2.0 ** (-k * d))

    @pytest.mark.parametrize("d,m", [(1, 4), (2, 3), (3, 2)])
    def test_roundtrip(self, d, m):
        f = random_dense(d, m, seed=202)
        g = hb.tensor_synthesize(hb.tensor_analyze(f))
        np.testing.assert_allclose(g.values, f.values, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("d,m", [(1, 10), (2, 5), (3, 3)])
    def test_analysis_halves_first_with_the_same_doubles(self, d, m):
        # each step halves the two children before adding them; off the
        # subnormal range that is the double of (a + b) / 2, which the
        # cascade took before, and no sum of two near-DBL_MAX values overflows
        def add_then_halve(a):
            size = a.shape[0]
            while size > 1:
                half = size // 2
                even, odd = a[0:size:2].copy(), a[1:size:2].copy()
                a[:half], a[half:size] = (even + odd) / 2, (even - odd) / 2
                size = half
            return a

        r = np.random.default_rng(19)
        for scale in (1e-290, 1.0, 1e290):
            f = hb.DyadicStepFunction(d, m, scale * r.normal(size=(1 << m,) * d))
            want = np.array(f.values)
            for axis in range(d):
                want = np.moveaxis(add_then_halve(np.moveaxis(want, axis, 0).copy()), 0, axis)
            assert np.array_equal(hb.tensor_analyze(f).array, want)
        top = hb.DyadicStepFunction(2, 1, [1.7e308, -1.7e308, 1.7e308, -1.7e308])
        assert hb.tensor_analyze(top).array.tolist() == [[0.0, 1.7e308], [0.0, 0.0]]

    def test_block_span_matches_isotropic(self):
        # block-k tensor synthesis lies in S_k and is killed by P_{k-1}
        d, k = 2, 2
        r = np.random.default_rng(8)
        arr = np.zeros((1 << k,) * d)
        for pos in np.ndindex(arr.shape):
            n = tuple(i + 1 for i in pos)
            if hb.tensor_block_level(n) == k:
                arr[pos] = r.normal()
        f = hb.tensor_synthesize(hb.TensorHaarCoefficients(d, k, arr))
        assert f.level == k
        killed = hb.average_project(f, k - 1)
        np.testing.assert_allclose(killed.values, 0.0, atol=1e-12)

    def test_rank_one_projection(self):
        d, m = 2, 3
        n = (3, 2)
        theta = hb.tensor_haar_function(d, n, m)
        out = hb.rank_one_project(theta, n)
        np.testing.assert_allclose(out.values, theta.values, atol=1e-12)
        other = hb.tensor_haar_function(d, (2, 5), m)
        np.testing.assert_allclose(
            hb.rank_one_project(other, n).values, 0.0, atol=1e-12
        )

    def test_rank_one_on_corner(self):
        k, d = 2, 2
        res = hb.tensor_spike_pair(k, d, hb.BesovParams(0.5, 1.0, 1.0, d))
        f = hb.densify(res.f, k)
        proj = hb.rank_one_project(f, res.theta_index)
        theta = res.theta_function(proj.level)
        np.testing.assert_allclose(
            proj.values, res.coefficient * theta.values, atol=1e-14
        )


class TestTensorBlockOrder:
    def test_first_blocks(self):
        assert hb.tensor_block_order(0) == [(1, 1)]
        assert hb.tensor_block_order(1) == [(2, 1), (2, 2), (1, 2)]
        assert hb.tensor_block_order(2) == [
            (3, 1), (3, 2), (3, 3), (3, 4),
            (4, 1), (4, 2), (4, 3), (4, 4),
            (1, 3), (2, 3), (1, 4), (2, 4),
        ]

    def test_cardinality_matches_isotropic_blocks(self):
        for b in range(1, 6):
            assert len(hb.tensor_block_order(b)) == 3 * 4 ** (b - 1)
            assert len(hb.tensor_block_order(b)) == block_size(2, b)

    def test_block_levels_consistent(self):
        for b in range(4):
            for n in hb.tensor_block_order(b):
                assert hb.tensor_block_level(n) == b


def haar_layer_fingerprint():
    """SHA-256, as float.hex text, of the Haar layer on white-noise grids at
    d = 1..3 up to 2^12 cells: analysis blocks, synthesized grids, both
    tensor transforms, the sequence norms, the square function, the b0221
    sum, signed partial sums and rank-one projections."""
    h = hashlib.sha256()

    def put(values):
        h.update(" ".join(map(float.hex, values)).encode())

    grids = [(1, 0), (1, 1), (1, 5), (1, 12), (2, 1), (2, 3), (2, 6), (3, 1), (3, 2), (3, 4)]
    for seed, (d, m) in enumerate(grids, start=280):
        for dist in ("uniform", "normal"):
            f = random_step(seed, d, m, dist)
            c = hb.analyze(f)
            put([c.scaling])
            for b in c.blocks:
                put(b.ravel().tolist())
            put(hb.synthesize(c, m).values.ravel().tolist())
            put(hb.synthesize(c, m + 1).values.ravel().tolist())
            t = hb.tensor_analyze(f)
            put(t.array.ravel().tolist())
            put(hb.tensor_synthesize(t).values.ravel().tolist())
            for p, q, s in ((0.5, 0.5, 0.3), (0.8, 1.0, 0.5), (1.5, 2.0, 0.3), (2.0, 0.5, 0.1)):
                put([hb.lqlp_norm(c, hb.BesovParams(p, q, s, d))])
                sup = hb.linf_lp_norm(c, hb.BesovParams(p, hb.INF, s, d))
                put([sup.value, *sup.per_level.tolist()])
            put([hb.square_function_norm(f, p) for p in (0.8, 1.0, 1.5, 2.0)])
            put([hb.b0_221_weighted_sum(f)])
            J = [i for k in range(min(m, 3) + 1) for i in hb.level_indices(d, k)][::2]
            signs = [1 - 2 * (j % 3 == 1) for j in range(len(J))]
            put(hb.partial_sum_subset(f, J, signs).values.ravel().tolist())
            for n in [(1,) * d, (2,) * d, tuple(range(2, d + 2))]:
                put([hb.tensor_coefficient(f, n)])
                put(hb.rank_one_project(f, n).values.ravel().tolist())
    return h.hexdigest()


def test_haar_layer_golden_digest():
    # digest of the Haar layer as its containers were filled in place and
    # its transforms copied their inputs: a leaner door must keep every bit
    digest = "e326392c2fdcc00ff6e7799cfe5f976c384c70790541022a7b989e1806c3332d"
    assert haar_layer_fingerprint() == digest
