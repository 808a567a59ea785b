import hashlib
import inspect
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import haar_besov as hb
from haar_besov import dyadic, norms
from haar_besov.experiments import random_step
from haar_besov.norms import (
    _PRUNE_GROUPS,
    ModulusTable,
    _best_constants,
    _difference_table,
    _enum_best,
    _row_best_err_ppow,
)

from helpers import (
    a_norm_grid,
    approx_error_grid,
    approx_error_sparse_rescan,
    bisect_best_constant,
    corner_shift_max,
    cube_rows,
    enum_best_oracle,
    grid_best_constant_err,
    offset_diff_ppow_sum,
    public_callables,
    random_sparse,
    row_best_err_oracle,
    shift_difference_ppow,
    sparse_histogram_rescan,
    square_function_full_grid,
    square_function_norm_full_grid,
)


# (d, m) for the modulus property tests; the table has (2^{m+1} + 1)^d
# entries, so m stays small as d grows
GRIDS = [(1, m) for m in range(1, 6)] + [(2, m) for m in range(1, 4)] + [(3, 1), (3, 2)]


def h0_dense():
    idx = hb.HaarIndex.wavelet(hb.DyadicCube.root(1), 1)
    return hb.densify(hb.haar_function(idx), 1)


class TestBesovParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            hb.BesovParams(0.0, 1.0, 0.1, 1)
        with pytest.raises(ValueError):
            hb.BesovParams(1.0, -1.0, 0.1, 1)
        with pytest.raises(ValueError):
            hb.BesovParams(2.0, 1.0, 0.5, 1)  # s = 1/p degenerate
        prm = hb.BesovParams(2.0, 1.0, 0.5, 1, allow_degenerate=True)
        assert prm.is_degenerate

    def test_infinite_q(self):
        prm = hb.BesovParams(2.0, hb.INF, 0.5, 1)
        assert not prm.q_finite


class TestBestConstant:
    def test_majority_value_wins_for_small_p(self):
        hist = hb.ValueHistogram.from_pairs([(0.7, 0.6), (2.0, 0.3), (-1.0, 0.1)])
        for p in (0.4, 0.7, 1.0):
            xi, err = hb.best_constant_error(hist, p)
            assert xi == 0.7
            assert err == pytest.approx(
                0.3 * abs(2.0 - 0.7) ** p + 0.1 * abs(-1.0 - 0.7) ** p, rel=1e-14
            )

    def test_weighted_mean_for_p2(self):
        hist = hb.ValueHistogram.from_pairs([(0.0, 0.5), (1.0, 0.5)])
        xi, err = hb.best_constant_error(hist, 2.0)
        assert xi == pytest.approx(0.5)
        assert err == pytest.approx(0.25)

    def test_half_exponent_boundary_minimizer(self):
        hist = hb.ValueHistogram.from_pairs([(0.0, 0.5), (1.0, 0.5)])
        xi, err = hb.best_constant_error(hist, 0.5)
        assert err == pytest.approx(0.5)
        assert xi == 0.0  # smallest of the two tied minimizers
        # interior candidate is strictly worse
        assert 0.5 * math.sqrt(0.5) * 2 > 0.5

    def test_empty_histogram_rejected(self):
        with pytest.raises(ValueError):
            hb.best_constant_error(hb.ValueHistogram(()), 1.0)

    @pytest.mark.filterwarnings("error")
    def test_error_beyond_double_range_raises_value_error(self):
        # the p-th powers overflow at p > 1 (fsum's intermediate overflow at
        # p = 1): the error is checked on exit, with no RuntimeWarning
        huge = hb.ValueHistogram.from_pairs([(1e300, 0.5), (-1e300, 0.5)])
        edge = hb.ValueHistogram.from_pairs([(1e308, 1.5), (-1e308, 0.5)])
        for hist, p in ((huge, 1.5), (huge, 2.0), (edge, 1.0)):
            with pytest.raises(ValueError, match="best-constant error overflows double range"):
                hb.best_constant_error(hist, p)
        # finite errors keep their values: overflowing candidates are never the
        # p < 1 minimum, and huge values with a finite error pass
        assert hb.best_constant_error(huge, 0.5) == (-1e300, 0.5 * 2e300**0.5)
        assert hb.best_constant_error(huge, 1.0) == (-1e300, 1e300)

    @pytest.mark.parametrize("p", [0.4, 0.7, 1.0, 1.5, 2.0])
    def test_matches_grid_search(self, p):
        r = np.random.default_rng(int(p * 10))
        for _ in range(40):
            n = int(r.integers(2, 9))
            v = r.uniform(-1, 1, n)
            w = r.uniform(0.05, 1.0, n)
            hist = hb.ValueHistogram.from_pairs(zip(v, w))
            _, err = hb.best_constant_error(hist, p)
            oracle = grid_best_constant_err(hist.values, hist.measures, p)
            assert err <= oracle + 1e-12
            assert oracle - err <= 1e-8


def _ulp_runs(base, n):
    """n values in runs of consecutive floats, one run from each base value.

    The runs are the groups of the first pruning stage, so the group bound
    of every candidate equals its error up to a few ulps.
    """
    groups = _PRUNE_GROUPS[0]
    start = (np.arange(groups) * n) // groups
    out = []
    for x, size in zip(base, np.diff(np.append(start, n))):
        for _ in range(size):
            out.append(x)
            x = np.nextafter(x, np.inf)
    return np.array(out)


def _hard_candidates(n, seed):
    """(kind, values, weights): n strictly increasing values built against pruning.

    Near-ties (mirror-symmetric data, an integer lattice, runs of adjacent
    floats), a heavy cluster far from the weighted median, magnitudes near
    1e-300 and 1e300, and terms w |v_i - v_j|^p that underflow, where a
    relative margin vanishes.
    """
    r = np.random.default_rng(seed)
    base = np.sort(r.uniform(1.0, 2.0, _PRUNE_GROUPS[0]))
    run_w = r.uniform(0.5, 1.0, n)
    run_w[n // 2] = 3.0  # the minimizer sits at the weighted median
    yield "ulp runs", _ulp_runs(base, n), run_w
    yield "ulp runs, underflow", _ulp_runs(base * 1e-300, n), run_w * 1e-20
    u = np.unique(r.uniform(-1.0, 1.0, n))
    w = r.uniform(0.1, 2.0, u.size)
    yield "uniform", u, w
    half = np.unique(r.uniform(0.01, 1.0, n // 2))
    odd = [0.0] if n % 2 else []
    sym_w = r.uniform(0.1, 2.0, half.size)
    yield "symmetric", np.concatenate([-half[::-1], odd, half]), np.concatenate(
        [sym_w[::-1], [1.0] * len(odd), sym_w]
    )
    yield "lattice", np.arange(float(n)), np.ones(n)
    # a tight cluster at -50 with 47% of the weight: the weighted median is
    # in the wide cluster, the minimizer for p <= 0.3 in the tight one
    k = max(1, u.size // 3)
    far_w = w[:k] * (0.9 * w[k:].sum() / w[:k].sum())
    yield "bimodal", np.concatenate([u[:k] * 1e-3 - 50.0, u[k:]]), np.concatenate([far_w, w[k:]])
    yield "tiny", u * 1e-300, w
    yield "huge", u * 1e300, w
    yield "underflow", u * 1e-300, w * 1e-20


#: distinct-value counts on both sides of the direct enumeration's limit
#: (128) and of each pruning stage (64 and 512 groups)
ENUM_SIZES = (2, 7, 63, 64, 65, 66, 70, 100, 127, 128, 129, 130, 511, 512, 513, 1000)
ENUM_PS = (0.05, 0.3, 0.8, 0.999)


class TestEnumBest:
    """The pruned p < 1 enumeration against the full one, bit for bit."""

    @pytest.mark.parametrize("n", ENUM_SIZES)
    def test_kernel_and_sparse_path_match_full_enumeration(self, n):
        for kind, v, w in _hard_candidates(n, seed=n):
            hist = hb.ValueHistogram(tuple(zip(v.tolist(), w.tolist())))
            for p in ENUM_PS:
                j, err = enum_best_oracle(v, w, p)
                assert _enum_best(v, w, p) == (j, err), (kind, p)
                expect = (float(v[j]), math.fsum(w * np.abs(v - v[j]) ** p))
                assert hb.best_constant_error(hist, p) == expect, (kind, p)

    # (distinct values, cells per row): rows of 256 cells or more take the
    # per-row kernel on their distinct values, weighted by counts
    @pytest.mark.parametrize(
        "n, cells",
        [(64, 256), (65, 256), (128, 256), (129, 256), (200, 256), (700, 1024), (2048, 2048)],
    )
    def test_dense_rows_match_full_enumeration(self, n, cells):
        r = np.random.default_rng(n + cells)
        for kind, v, _ in _hard_candidates(n, seed=cells):
            rows = np.stack([r.choice(v, size=cells) for _ in range(3)])
            rows[1, : cells // 2] = v[0]  # a value holding half of the row
            for p in ENUM_PS:
                got = _row_best_err_ppow(rows, p)
                assert np.array_equal(got, row_best_err_oracle(rows, p)), (kind, p)

    @pytest.mark.parametrize("seed", range(4))
    def test_white_noise_leaves_few_rows_to_evaluate(self, seed, monkeypatch):
        # the chord bounds leave at most 60 of 4,096 white-noise values to be
        # evaluated in full at p = 0.8: the five around the weighted median,
        # one per pruning stage for a tighter upper bound, and the survivors
        evaluated, enum_errs = [], norms._enum_errs

        def counted(v, w, p, rows):
            evaluated.append(np.arange(v.size)[rows].size)
            return enum_errs(v, w, p, rows)

        monkeypatch.setattr(norms, "_enum_errs", counted)
        v, counts = np.unique(random_step(seed, 1, 12).values, return_counts=True)
        assert v.size == 4096
        _enum_best(v, counts, 0.8)
        assert len(evaluated) > 1 + len(_PRUNE_GROUPS) and sum(evaluated) <= 60

    def test_dense_profile_matches_full_enumeration(self):
        # white noise: rows of 4096, 2048, 1024, 512 and 256 distinct values
        f = hb.DyadicStepFunction(1, 12, np.random.default_rng(71).uniform(-1, 1, 4096))
        for k in range(5):
            rows = f.values.reshape(1 << k, -1)
            for p in (0.3, 0.8):
                want = (math.fsum(row_best_err_oracle(rows, p)) * f.cell_measure) ** (1 / p)
                assert hb.approx_error(f, k, p) == want


#: The level-1 histogram of a cube of the deep scattered family (k = 3,
#: d = 2): a quarter of the measure at 0, the rest 2^-48 and less spread up
#: to 2.5e20, so the minimizer lies within 1e-13 of 0.
WIDE_HISTOGRAM = tuple(zip(
    (0.0, 71522240263771.8, 280162224344734.16, 1098454945063105.0, 4310470796469796.5,
     4.053597500024861e18, 1.5968905439157705e19, 6.2940029615095054e19, 2.4818881543496103e20),
    (0.24999999999999528, 2.0**-48, 2.0**-50, 2.0**-52, 2.0**-54,
     2.0**-64, 2.0**-66, 2.0**-68, 2.0**-70),
))


class TestPowerRoot:
    """p > 1, p != 2 best constants from the certified solver, against the
    bisection it replaced and a candidate grid."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(1.0, 10.0, exclude_min=True).filter(lambda p: p != 2.0),
        st.integers(2, 1 << 12),
        st.floats(-290.0, 290.0),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_bisection_and_grid(self, p, n, log10_err, weighted, seed):
        # values scaled so that the error spans 1e-290 to 1e290 at every p;
        # unit weights take the dense path, random ones the histogram path
        r = np.random.default_rng(seed)
        v = r.normal(size=n) * 10.0 ** (log10_err / p)
        if weighted:
            hist = hb.ValueHistogram.from_pairs(zip(v.tolist(), r.uniform(0.05, 2.0, n).tolist()))
            v, w = hist.values, hist.measures
            err = hb.best_constant_error(hist, p)[1]
        else:
            w = np.ones(n)
            with np.errstate(over="ignore", invalid="ignore"):
                err = float(_row_best_err_ppow(v[None, :], p)[0])
        xo, oracle = bisect_best_constant(v, w, p)
        grid = grid_best_constant_err(v, w, p, coarse=500, fine=100)
        # what bisection's last bracket leaves open: E(xo) - min E is at most
        # p S(xo) 1e-13 max(1, |v|), with S the sum of w |xo - v|^(p-1)
        gap = 2e-13 * p * (w * np.abs(v - xo) ** (p - 1.0)).sum() * max(1.0, np.abs(v).max())
        assert abs(err - oracle) <= 1e-12 * oracle + gap
        assert err <= grid * (1 + 1e-12) + gap

    def test_rows_converge_on_their_own(self):
        # each row stops on its own certificate: its bits do not depend on
        # the rows beside it, here at six scales and two sizes of spread
        r = np.random.default_rng(8)
        rows = r.normal(size=(48, 16)) * np.repeat(10.0 ** np.arange(-4, 20, 4), 8)[:, None]
        rows[::5] = r.uniform(-1, 1, size=(10, 16))
        for p in (1.01, 1.5, 3.0):
            with np.errstate(over="ignore", invalid="ignore"):
                together = _row_best_err_ppow(rows, p)
                alone = [_row_best_err_ppow(row[None, :], p)[0] for row in rows]
            assert together.tolist() == alone

    @pytest.mark.parametrize("p", [1.5, 3.0, 10.0])
    def test_scaled_rows_scale_their_error(self, p):
        # the certificate is relative, so E(c v) = |c|^p E(v) holds where g
        # itself is tiny (c = 1e-6 at p = 3 and 10) or huge (c = 1e6)
        rows = np.random.default_rng(9).normal(size=(8, 64))
        with np.errstate(over="ignore", invalid="ignore"):
            base = _row_best_err_ppow(rows, p)
            for c in (1e-6, 1e6):
                np.testing.assert_allclose(_row_best_err_ppow(c * rows, p), c**p * base, rtol=1e-12)

    def test_wide_range_histogram_reaches_the_minimum(self):
        # bisection stopped once its bracket was 1e-13 of 2.5e20 wide, at
        # xi = 7.05e6, 75% above the minimum error
        hist = hb.ValueHistogram.from_pairs(WIDE_HISTOGRAM)
        v, w = hist.values, hist.measures
        err = hb.best_constant_error(hist, 1.5)[1]
        assert err <= grid_best_constant_err(v, w, 1.5) * (1 + 1e-12)
        assert err < 0.6 * bisect_best_constant(v, w, 1.5)[1]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_overflow_raises_on_every_route(self, p):
        # |d|^p overflows at both p, and g itself at p = 3: each route
        # raises its ValueError, with no RuntimeWarning
        hist = hb.ValueHistogram.from_pairs([(1e300, 0.5), (-1e300, 0.5)])
        with pytest.raises(ValueError, match="best-constant error overflows double range"):
            hb.best_constant_error(hist, p)
        f = hb.DyadicStepFunction(1, 2, [1e300, -1e300, 1e300, -1e300])
        with pytest.raises(ValueError, match="error E_0 overflows double range"):
            hb.approx_error(f, 0, p)
        with pytest.raises(ValueError, match="error E_0 overflows double range"):
            hb.approximation_profile(f, p)

    @pytest.mark.filterwarnings("error")
    def test_vanishing_derivative_takes_the_midpoint(self):
        # (1e-12)^29 underflows: g is 0 everywhere, no secant step is defined
        # and the rows stop on the width floor, with no RuntimeWarning
        hist = hb.ValueHistogram.from_pairs([(0.0, 0.5), (1e-12, 0.5)])
        assert hb.best_constant_error(hist, 30.0)[1] == 0.0
        assert hb.approx_error(hb.DyadicStepFunction(1, 1, [0.0, 1e-12]), 0, 30.0) == 0.0


def _power_root_rows(r, nrows, n):
    """nrows rows of n values: white noise at scales 1e-25 to 1e25, with a
    constant row, a row of few repeated values and a row of two far clusters."""
    rows = r.normal(size=(nrows, n)) * 10.0 ** r.uniform(-25.0, 25.0, (nrows, 1))
    rows[0] = 0.75
    rows[1 % nrows] = np.round(rows[1 % nrows] * 2.0) / 2.0
    rows[2 % nrows, : n // 2] += 1e6
    return rows


def power_root_fingerprint(p):
    """SHA-256, as float.hex text, of the p > 1 solver's minimizers (unit and
    random weights) and the dense kernel's errors, on rows of 2 to 4,096
    cells, three rows and as many as 2^14 cells allow."""
    r = np.random.default_rng(27)
    h = hashlib.sha256()
    for n in (2, 3, 4, 7, 8, 9, 16, 64, 4096):
        for nrows in (3, max(3, (1 << 14) // n)):
            rows = _power_root_rows(r, nrows, n)
            w = r.uniform(0.05, 2.0, rows.shape)
            with np.errstate(over="ignore", invalid="ignore"):
                values = norms._power_root(rows, None, p).tolist()
                values += norms._power_root(rows, w, p).tolist()
                values += _row_best_err_ppow(rows, p).tolist()
            h.update(" ".join(map(float.hex, values)).encode())
    return h.hexdigest()


@pytest.mark.parametrize(
    "p,digest",
    [
        (1.01, "fab18254784eb9eab4be3a46c16c5d844fe3db12d46aaa686ca9f20294eb1e5f"),
        (1.5, "d6b4563b8c7569ec21881a17f9c44a2c8bc25abdd04bf84d32c9a29da66106b8"),
        (3.0, "6d28656d0e9550dff8b441b2bc7a4193b1e0095f559416cd38ec8a6185759307"),
        (10.0, "70228f5ab0aea93a454a5b28090535f4101fadb19a9f74183b6e57fe7503bcf1"),
    ],
)
def test_power_root_golden_digest(p, digest):
    # digests of the solver as it summed each row with np.add.reduce(axis=1)
    # and selected ends by boolean masks: a faster step must keep every bit
    assert power_root_fingerprint(p) == digest


class TestApproxError:
    def test_zero_on_own_partition(self):
        f = hb.DyadicStepFunction(2, 2, np.arange(16.0))
        for k in (2, 3, 5):
            assert hb.approx_error(f, k, 0.7) == 0.0

    @pytest.mark.parametrize("p", [0.5, 0.8, 1.0])
    def test_spike_error_equals_norm(self, p):
        m, d = 4, 1
        f = hb.spike_pair(m, d).f
        expected = 2.0 ** (m * d * (1.0 - 1.0 / p))
        for k in range(m):
            assert hb.approx_error(f, k, p) == pytest.approx(expected, rel=1e-12)

    def test_nested_tail_formula(self):
        # E_k^p = (1 - 2^-d) sum_{n=k+1}^{m-1} 2^{-nd} |sum_{l=k+1}^n a_l|^p
        #         + 2^{-md} |sum_{l=k+1}^m a_l|^p
        d, m, p = 2, 3, 0.6
        a = [1.0, -3.0, 2.0, 5.0]
        spec = hb.NestedSpec(d, m, rule=tuple(a))
        f = hb.nested_family(spec)
        for k in range(m):
            tail = np.cumsum(a[k + 1 :])
            expect = (1 - 2.0**-d) * math.fsum(
                2.0 ** (-(k + 1 + j) * d) * abs(tail[j]) ** p
                for j in range(len(tail) - 1)
            ) + 2.0 ** (-m * d) * abs(tail[-1]) ** p
            assert hb.approx_error(f, k, p) ** p == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("p", [0.6, 1.0, 1.4, 2.0])
    def test_dense_matches_grid_oracle(self, p):
        r = np.random.default_rng(int(10 * p))
        f = hb.DyadicStepFunction(2, 3, r.uniform(-1, 1, size=(8, 8)))
        for k in range(3):
            got = hb.approx_error(f, k, p)
            oracle = approx_error_grid(f, k, p)
            assert got ** p == pytest.approx(oracle ** p, rel=1e-6, abs=1e-10)

    @staticmethod
    def _mixed_grid(d, m, k, seed):
        """Level-m grid whose level-k cubes cycle through three kinds: constant,
        one value on more than half the cells, and all values distinct."""
        r = np.random.default_rng(seed)
        v = np.empty((1 << m,) * d)
        for n, idx in enumerate(itertools.product(range(1 << k), repeat=d)):
            block = v[hb.DyadicCube(d, k, idx).grid_slices(m)]
            vals = np.full(block.size, r.normal())
            if n % 3 == 1:
                pick = r.choice(vals.size, size=vals.size // 2 - 1, replace=False)
                vals[pick] = r.normal(size=pick.size)
            elif n % 3 == 2:
                vals = r.normal(size=vals.size)
            block[...] = vals.reshape(block.shape)
        return hb.DyadicStepFunction(d, m, v)

    # (d, m, k): level-k rows of 8, 16 and 64 values, then of 256, 256 and 512
    MIXED = [(1, 6, 3), (2, 4, 2), (3, 3, 1), (1, 10, 2), (2, 5, 1), (3, 4, 1)]

    @pytest.mark.parametrize("d, m, k", MIXED)
    @pytest.mark.parametrize("p", [0.3, 0.6, 0.8])
    def test_mixed_rows_match_oracles(self, d, m, k, p):
        f = self._mixed_grid(d, m, k, seed=10 * m + d)
        got = hb.approx_error(f, k, p)
        assert got > 0.0
        assert got == pytest.approx(approx_error_grid(f, k, p), rel=1e-12)
        per_cube = [
            hb.best_constant_error(hb.value_histogram(f, hb.DyadicCube(d, k, idx)), p)[1]
            for idx in itertools.product(range(1 << k), repeat=d)
        ]
        assert got == pytest.approx(math.fsum(per_cube) ** (1.0 / p), rel=1e-12)

    @pytest.mark.parametrize("d, m, k", MIXED)
    def test_constant_cubes_give_exact_zero(self, d, m, k):
        r = np.random.default_rng(m + d)
        f = hb.densify(hb.DyadicStepFunction(d, k, r.normal(size=(1 << k,) * d)), m)
        for p in (0.3, 0.6, 0.8):
            assert hb.approx_error(f, k, p) == 0.0
            assert hb.approx_error(f, k - 1, p) > 0.0

    def test_rejects_non_integer_level(self):
        dense = hb.DyadicStepFunction(1, 2, [0.0, 1.0, 2.0, 3.0])
        sparse = hb.SparseStepFunction.from_terms(1, [(hb.DyadicCube(1, 2, (1,)), 1.0)])
        for f in (dense, sparse):
            for bad in (1.0, 0.5, "1"):
                msg = re.escape(f"k must be an integer >= 0, got {bad!r}")
                with pytest.raises(ValueError, match=msg):
                    hb.approx_error(f, bad, 0.5)
            assert hb.approx_error(f, np.int64(1), 0.5) == hb.approx_error(f, 1, 0.5)

    def test_error_beyond_double_range_raises_value_error(self):
        # E_0 is 1e300, but its p-th powers overflow: the route raises, where
        # it used to return inf with a RuntimeWarning
        dense = hb.DyadicStepFunction(1, 2, [1e300, -1e300, 1e300, -1e300])
        cube = lambda level: hb.DyadicCube(1, level, (0,))
        nesting = hb.SparseStepFunction.from_terms(1, [(cube(0), 1e300), (cube(1), -2e300)])
        for f in (dense, nesting):
            for p in (1.5, 2.0):
                with pytest.raises(ValueError, match="approximation-route error E_0 overflows"):
                    hb.approx_error(f, 0, p)
        # p < 1: candidates whose errors overflow are never the finite minimum
        f = hb.DyadicStepFunction(1, 2, [-1e308, 0.0, 1e308, 0.0])
        assert hb.approx_error(f, 0, 0.5) == pytest.approx(2.5e307, rel=1e-12)

    def test_monotone_in_k(self):
        r = np.random.default_rng(40)
        f = hb.DyadicStepFunction(1, 5, r.normal(size=32))
        for p in (0.5, 1.0, 2.0):
            errs = [hb.approx_error(f, k, p) for k in range(6)]
            for a, b in zip(errs, errs[1:]):
                assert b <= a + 1e-12

    def test_p_power_subadditive(self):
        r = np.random.default_rng(41)
        for p in (0.5, 0.8):
            f = hb.DyadicStepFunction(1, 4, r.normal(size=16))
            g = hb.DyadicStepFunction(1, 4, r.normal(size=16))
            s = hb.DyadicStepFunction(1, 4, f.values + g.values)
            for k in range(4):
                lhs = hb.approx_error(s, k, p) ** p
                rhs = hb.approx_error(f, k, p) ** p + hb.approx_error(g, k, p) ** p
                assert lhs <= rhs + 1e-10


#: Cell values of the pyramid inputs: signed zeros, subnormals, a value whose
#: p = 2 mean is inexact, and values whose p-th powers overflow for p > 1.
PYRAMID_PALETTE = (0.0, -0.0, 5e-324, -5e-324, 0.1, 1.5, -2.25, 1e300, -1e300)
PYRAMID_PS = (0.3, 0.6, 0.8, 1.0, 1.5, 2.0)


def _pyramid_inputs():
    """Coarse grids upsampled with a few cells changed, at every coarse level,
    plus one all-constant and one all-varying grid per (d, m); rows reach
    512 cells at d = 1..3."""
    rng = np.random.default_rng(2024)
    out = []
    for d, m in ((1, 6), (1, 9), (2, 3), (2, 5), (3, 2), (3, 3)):
        for c in range(m):
            coarse = rng.choice(PYRAMID_PALETTE, size=(1 << c,) * d)
            g = hb.densify(hb.DyadicStepFunction(d, c, coarse), m).values.copy()
            for _ in range(int(rng.integers(1, 4))):
                g[tuple(rng.integers(0, 1 << m, size=d))] = rng.choice(PYRAMID_PALETTE + (rng.normal(),))
            out.append((f"{d}-{m}-up{c}", hb.DyadicStepFunction(d, m, g)))
        out.append((f"{d}-{m}-constant", hb.DyadicStepFunction(d, m, np.full((1 << m,) * d, 0.1))))
        out.append((f"{d}-{m}-noise", random_step(10 * d + m, d, m)))
    return out


def _outcome(fn):
    """float.hex of fn(), or the text of the ValueError it raises."""
    try:
        return fn().hex()
    except ValueError as exc:
        return str(exc)


def _rescan_error(f, k, p):
    """E_k from every level-k cube row, constant rows included: the row
    kernel, or at p < 1 on rows of 256 cells or more the full enumeration of
    each row's distinct values by count, and an fsum of the rows' errors."""
    rows = cube_rows(f.values, k)
    with np.errstate(over="ignore", invalid="ignore"):
        errs = row_best_err_oracle(rows, p) if p < 1 and rows.shape[1] >= 256 else _row_best_err_ppow(rows, p)
        try:
            e = (math.fsum(errs.tolist()) * f.cell_measure) ** (1 / p)
        except OverflowError:
            e = math.inf
    if not math.isfinite(e):
        raise ValueError(f"the approximation-route error E_{k} overflows double range")
    return e


def _rescan_lp(f, p):
    """The L_p norm from every cell's |v|^p, or from their log2 where that sum overflows."""
    v, w = f.values.ravel(), f.cell_measure
    try:
        with np.errstate(over="raise"):
            return (math.fsum((np.abs(v) ** p).tolist()) * w) ** (1 / p)
    except (OverflowError, FloatingPointError):
        with np.errstate(divide="ignore"):
            return dyadic._norm_from_log2_terms(np.log2(w) + p * np.log2(np.abs(v)), p)


@pytest.mark.parametrize("p", PYRAMID_PS)
def test_pyramid_routes_match_full_grid_rescan(p):
    # E_k reads only the cubes where f varies, and the rows of 256 cells or
    # more at p < 1 and the L_p norm read the maximal constant cubes: every
    # number equals a rescan of the whole grid, bit for bit, overflow included
    routes = set()
    for name, f in _pyramid_inputs():
        want = [_outcome(lambda k=k: _rescan_error(f, k, p)) for k in range(f.level)]
        assert [_outcome(lambda k=k: hb.approx_error(f, k, p)) for k in range(f.level)] == want, name
        lp = _outcome(lambda: _rescan_lp(f, p))
        assert _outcome(lambda: hb.lp_quasinorm(f, p)) == lp, name
        if all("overflows" not in x for x in want):
            prof = hb.approximation_profile(f, p)
            assert [x.hex() for x in prof.e_values.tolist()] == want, name
            assert prof.lp_norm.hex() == lp, name
        routes.add(f._pyramid.any_constant)
    assert routes == {True, False}


def test_constant_rows_keep_their_p2_error():
    # numpy's pairwise mean of 64 equal values 0.1 is inexact, so the p = 2
    # error of a constant row is not 0: that route reads every row
    f = hb.DyadicStepFunction(1, 6, np.full(64, 0.1))
    assert hb.approx_error(f, 0, 2.0) == _rescan_error(f, 0, 2.0) > 0.0
    assert hb.approx_error(f, 0, 1.5) == hb.approx_error(f, 0, 1.0) == 0.0


def test_constant_rows_beyond_half_double_range_read_zero():
    # the one changed error: a constant row above DBL_MAX/2 at p > 1, p != 2,
    # is skipped with its exact error 0.0, where the root solver's x + x
    # overflowed and E_k raised; p = 2 still reads every row and raises
    f = hb.DyadicStepFunction(1, 2, [1.7e308, 1.7e308, 1.0, 2.0])
    for p in (1.5, 3.0):
        assert hb.approx_error(f, 1, p) == (2 * 0.5**p / 4) ** (1 / p)
    with pytest.raises(ValueError, match="E_1 overflows"):
        hb.approx_error(f, 1, 2.0)


def _brute_varying_cubes(values, k):
    rows = cube_rows(values, k)
    return (rows != rows[:, :1]).any(axis=1)


def test_pyramid_routes_do_work_only_where_f_varies(monkeypatch):
    d, m = 2, 6
    rng = np.random.default_rng(31)
    g = hb.densify(hb.DyadicStepFunction(d, 2, rng.normal(size=(4, 4))), m).values.copy()
    for idx in ((3, 60), (17, 17), (40, 2)):
        g[idx] = 7.0
    f = hb.DyadicStepFunction(d, m, g)
    rows_seen, unique_sizes, summed = [], [], []
    kernel, unique, exact_sum = norms._row_best_err_ppow, np.unique, dyadic._exact_sum
    monkeypatch.setattr(norms, "_row_best_err_ppow", lambda rows, *a: rows_seen.append(len(rows)) or kernel(rows, *a))
    monkeypatch.setattr(np, "unique", lambda a, *r, **kw: unique_sizes.append(np.size(a)) or unique(a, *r, **kw))
    monkeypatch.setattr(dyadic, "_exact_sum", lambda a: summed.append(a.size) or exact_sum(a))
    for k in range(m):
        varying = int(_brute_varying_cubes(g, k).sum())
        for p in (0.3, 0.8, 1.0, 1.5, 2.0):
            rows_seen.clear()
            hb.approx_error(f, k, p)
            if p == 2.0:
                assert rows_seen == [1 << (k * d)]  # every cube
            elif p < 1.0 and (m - k) * d >= 8:
                assert rows_seen == []  # histograms from the maximal cubes
            else:
                assert rows_seen == [varying]
    assert max(unique_sizes, default=0) < 256
    # the maximal constant cubes: constant, and the root or under a varying parent
    maximal = 1 if not _brute_varying_cubes(g, 0)[0] else 0
    for j in range(1, m + 1):
        parent_varies = _brute_varying_cubes(g, j - 1)
        kids = _brute_varying_cubes(g, j) if j < m else np.zeros(1 << (m * d), dtype=bool)
        kids = kids.reshape((1 << (j - 1), 2) * d).transpose(0, 2, 1, 3).reshape(-1, 4)
        maximal += int((~kids & parent_varies[:, None]).sum())
    summed.clear()
    hb.lp_quasinorm(f, 0.8)
    assert summed == [maximal] and maximal < g.size // 16


def _random_chain(rng, d, m):
    cubes = [hb.DyadicCube.root(d)]
    for _ in range(m):
        cubes.append(cubes[-1].child(tuple(int(b) for b in rng.integers(0, 2, size=d))))
    return tuple(cubes)


class TestSparseBucketing:
    """The sparse E_k, read from the atom forest, equals a rescan of every
    atom per candidate cube, bit for bit, on each best-constant branch."""

    PS = (0.5, 1.0, 1.5, 2.0)

    def _assert_equal_to_rescan(self, f):
        for k in range(f.max_level + 1):
            for p in self.PS:
                assert hb.approx_error(f, k, p) == approx_error_sparse_rescan(f, k, p)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_random_nested_atoms(self, d):
        rng = np.random.default_rng(50 + d)
        nesting = 0
        for n in range(12):
            f = random_sparse(rng, d, 4 + 2 * n, max_level=4)
            nesting += not f.nesting_free
            self._assert_equal_to_rescan(f)
        assert nesting >= 6

    @pytest.mark.parametrize("d, m", [(1, 12), (2, 8), (3, 5)])
    def test_nested_chains(self, d, m):
        rng = np.random.default_rng(60 + d)
        for rule in ("trivial-dual", "alternating", tuple(rng.uniform(-2, 2, m + 1))):
            spec = hb.NestedSpec(d, m, rule=rule, chain=_random_chain(rng, d, m))
            self._assert_equal_to_rescan(hb.nested_family(spec))

    @pytest.mark.parametrize("k, d", [(2, 1), (4, 1), (6, 1), (1, 2), (2, 2), (3, 2), (1, 3)])
    def test_scattered(self, k, d):
        self._assert_equal_to_rescan(hb.scattered(hb.ScatteredSpec(k, d, 0.45)))


def sparse_path_fingerprint(f):
    """SHA-256 of the sparse path on f, as float.hex text: for each p, every
    E_k of ``approximation_profile`` and then ``lp_quasinorm``."""
    h = hashlib.sha256()
    for p in (0.5, 0.8, 1.0, 1.5, 2.0):
        prof = hb.approximation_profile(f, p)
        values = prof.e_values.tolist() + [prof.lp_norm]
        h.update(" ".join(map(float.hex, values)).encode())
    return h.hexdigest()


def _tie_forest(d):
    """A branching forest whose values tie, so that the order of the adds
    shows in the bits.  Under the root atom, 16 keys of measure t (2^-57, or
    2^-56 at d = 2) carry cancelling atoms and so the root's value: the root
    cube merges their 16 t, in key order, with its region B near 1/2 last, B
    55 or more binary orders above t (B + 16 t is not what a pairwise sum of
    the 17 terms gives).  The level-1 key (1, ..., 1) is covered by its
    children (zero region); two of its descendants tie at 2.0, and below its
    first child a branch reaches levels 72 and 80."""
    level = {1: 57, 2: 28, 3: 19}[d]
    top = hb.DyadicCube(d, 1, (1,) * d)
    children = [top.child(bits) for bits in itertools.product((0, 1), repeat=d)]
    terms = [(hb.DyadicCube.root(d), 1.0), (top, 0.75), (children[0], 0.25), (children[-1], -0.125)]
    terms += [(children[-1].child((1,) * d), 0.375)]  # 0.75 - 0.125 + 0.375: ties children[0]
    terms += [(c, 0.0625 * i) for i, c in enumerate(children[1:-1], start=1)]
    for j in range(16):
        tiny = hb.DyadicCube(d, level, (j,) + (0,) * (d - 1))
        terms += [(tiny, 0.5), (tiny, -0.5)]
    deep = [hb.DyadicCube(d, 72, ((2 << 70) + j,) * d) for j in (0, 1)]
    terms += [(deep[0], 0.5), (deep[0], -0.5), (deep[1], 3.0)]
    terms += [(hb.DyadicCube(d, 80, ((2 << 78) + 5,) * d), -1.5)]
    return hb.SparseStepFunction.from_terms(d, terms)


def _sparse_digest_input(name):
    kind, *args = name.split("-")
    if kind == "ties":
        return _tie_forest(int(args[0]))
    if kind == "scattered":
        k, d = map(int, args)
        return hb.scattered(hb.ScatteredSpec(k, d, 0.45))
    if kind == "nested":
        d, m, rule = int(args[0]), int(args[1]), "-".join(args[2:])
        rng = np.random.default_rng(100 * d + m)
        chain = _random_chain(rng, d, m)
        if rule == "explicit":
            rule = tuple(rng.uniform(-2, 2, m + 1))
        return hb.nested_family(hb.NestedSpec(d, m, rule=rule, chain=chain))
    d, seed = map(int, args)
    return random_sparse(np.random.default_rng(seed), d, 16, max_level=5)


#: The sparse-path digests first pinned, while p = 1.5 best constants were
#: bisected; each case keeps the id it was pinned under when its digest moves.
_SPARSE_FIRST_PINNED = {
    "scattered-6-1": "f5ec86987fa6d77c91d379ddc292acacd96490794ba5d5d65cd6b2ca2b7d5d4d",
    "scattered-3-2": "e8c6ca08b0cb22cc3bf75811a5b7ceffac5c3a59a72bf6fb5327a2abf8512a27",
    "nested-1-64-trivial-dual": "46c8c450fd70279aabd99b84a60e25e57879fc2e7a7340276e6475c47f67bf91",
    "nested-1-64-alternating": "33f27991d03f3e95316896fcfe25329edcc46f6bcc15ec794093cb84686c022f",
    "nested-1-64-explicit": "ee73c9bb9c18f9282c1873c2ebb68a7fac86ccdaf358f3879dba31012b717a60",
    "nested-2-32-trivial-dual": "34997ce482c9e94f66b77393624d0661487fe1a0599445d344d4e2d200d15c69",
    "nested-2-32-alternating": "7167b889a5a36343f286462dde2b0224f3d4b62a657fa7f02432064627b853a3",
    "nested-2-32-explicit": "1bc8da80f576e88c3963d3f1f5121fe34487c192f4c51c9a06ab8fbb51f18f7f",
    "random-1-91": "7b8346d55996864e2b1976f7bc1de3310ff9c0d54495c2e817d97f6b559eb6ab",
    "random-2-92": "a56ccfab19118d46d7c98b7424a6b058ac1e97bf81d4ab0d2936fc500cc52372",
    "random-3-93": "dfe245dafbf935393b3a709a12136ee4aff4014d786d2e8e302add582f413c45",
    "ties-1": "72db933fa902011a7026526cd0eeba4be914e8b30f1f55351f84fd760083498a",
}


@pytest.mark.parametrize(
    "name,digest",
    [
        pytest.param(name, digest, id=f"{name}-{_SPARSE_FIRST_PINNED[name]}")
        for name, digest in [
            ("scattered-6-1", "160afb176feb4e060b98d1c73df2ba5567466fea90c5cca041aa3af9d401d7d5"),
            ("scattered-3-2", "6984f6487b4fa3c2cedf6cf4ddd49301ac4cfb1fee44ac4580ff78ee4f5d576a"),
            ("nested-1-64-trivial-dual", "dce85a47feb3597c916e62643362339530df82e37de6aa16dec35c2e004ec3f7"),
            ("nested-1-64-alternating", "ac59f586d089fdec37fd579ed7458ec635c0df5c5e74b73390dd953cb8db3e24"),
            ("nested-1-64-explicit", "f75e3da7b3fa500902d334d78957149b509665e309f766222f930ca4f8c3e9bf"),
            ("nested-2-32-trivial-dual", "d6baf62c27f7510f20ddab202920b9b8a7413713f4e0f03dd6063de443f889b1"),
            ("nested-2-32-alternating", "bfc677251a42a870a42981793a6cd11fe7fac0a195a4f708726a7780c4c258f8"),
            ("nested-2-32-explicit", "63e99dc0bb0e9c7456c2594a091bf032d664a56fa45aba50da997564a8d5d20a"),
            ("random-1-91", "03976226d0d080a3796017e421749f86a27e24cd4e64d967c922ea9a9612c3c0"),
            ("random-2-92", "a56ccfab19118d46d7c98b7424a6b058ac1e97bf81d4ab0d2936fc500cc52372"),
            ("random-3-93", "808abf213176fca73a9cf393c6e644180bdb50077a749a01dc690f183175d9bf"),
            ("ties-1", "72db933fa902011a7026526cd0eeba4be914e8b30f1f55351f84fd760083498a"),
        ]
    ],
)
def test_sparse_path_golden_digest(name, digest):
    # digests of the sparse path as it rescanned every atom per histogram, with
    # the p = 1.5 best constants certified within _ROOT_EPS of the minimum
    f = _sparse_digest_input(name)
    if name.startswith("random"):
        assert not f.nesting_free
    assert sparse_path_fingerprint(f) == digest


#: One exponent per best-constant branch that does not root-find: the p < 1
#: enumeration (twice), the median and the mean.
UNTOUCHED_PS = (0.3, 0.8, 1.0, 2.0)


def _untouched_branches_input(name):
    """A histogram of the array-sum digest's seeds, one of its grids (each
    with the exponents it is cheap at) or a member of the sparse-path pool."""
    if name.startswith("hist"):
        seed, n = {"hist-10": (10, 1 << 10), "hist-11": (11, 1 << 14)}[name]
        s = hb.rng.RandomStream(seed)
        pairs = zip(s.normal(n).tolist(), s.uniform(n, 0.5, 2.0).tolist())
        return hb.ValueHistogram.from_pairs(pairs), UNTOUCHED_PS
    grids = {"grid-12-2-8": (1.0, 2.0), "line-15-1-12": UNTOUCHED_PS, "small-16-2-7": UNTOUCHED_PS}
    if name in grids:
        seed, d, m = map(int, name.split("-")[1:])
        return random_step(seed, d, m), grids[name]
    return _sparse_digest_input(name), UNTOUCHED_PS


@pytest.mark.parametrize(
    "name,digest",
    [
        ("hist-10", "174aaa4380ec58b58ed72a2991b2bd8b11a979e65d8711b3e40cd5dff8bf1463"),
        ("hist-11", "c7ceae949edc0c219dfded51b5b682a568c2922a397e46c837fdd0117abe171f"),
        ("grid-12-2-8", "311713b8a8ab20fe7d4f97e949bcc1c97039fea3603256b4571cddcec903c177"),
        ("line-15-1-12", "1c8f98991f2aac213dbca5beec9a45a42d97f4070258fa56e399a31196c7fbf2"),
        ("small-16-2-7", "f140629a7d4f5c078b50fa984f9cc57d6bb3abfef4ac7e5871dd3cc6e269d1e5"),
        ("scattered-6-1", "f7c0127f0a2649273aecadabde6fe8c1bccfc286111e9a8122d8777abccb0f38"),
        ("scattered-3-2", "39374fe139d846d364f600ecc801197f12de50d711da0b31c7b2309f269640d1"),
        ("nested-1-64-trivial-dual", "79beec1f2be2b5bcd2b59bb12d1f7c0af15846a6e3257c88e4cbad86d9c5c57f"),
        ("nested-1-64-alternating", "a5db4cd624138a5689fd7ceb6f10801a9488db4937dbbea7c4e4eb586552ce85"),
        ("nested-1-64-explicit", "f8dbe0cb8d25cc28bff6bddb3bc787aefb5115f919eecff70b4887e902c07326"),
        ("nested-2-32-trivial-dual", "a805973a46706266cafe1455094e834209dd9b46df1fedc0b7527aefaaf2212e"),
        ("nested-2-32-alternating", "7ba2c69d1a09ec580b25c649345fd013cfa774e72cf3b74b4b4632bb46eaa7f3"),
        ("nested-2-32-explicit", "f3d53ab5bfac95195ccc7d52da69c5125847c0941c376a9b81f5665728103d31"),
        ("random-1-91", "44ed564b78d7072c80f9de05636d01999d4e850524ba74712ef1714665562871"),
        ("random-2-92", "b48edbb6176f239effe4f97d3054d36e19f4c5dcc736e5575e6ba093dd7b9c12"),
        ("random-3-93", "dccb1ec555194ac83c2f3ed19465e6ea516aabc8618a1182e94187d3718e2592"),
    ],
)
def test_untouched_branches_golden_digest(name, digest):
    # digests of the enumeration, median and mean branches as they were
    # while p > 1, p != 2 best constants were bisected: root-finding changes
    # must leave them alone
    f, ps = _untouched_branches_input(name)
    h = hashlib.sha256()
    for p in ps:
        if isinstance(f, hb.ValueHistogram):
            values = list(hb.best_constant_error(f, p))
        else:
            prof = hb.approximation_profile(f, p)
            values = prof.e_values.tolist() + [prof.lp_norm]
        h.update(" ".join(map(float.hex, values)).encode())
    assert h.hexdigest() == digest


def _entry_bytes(entries) -> bytes:
    return np.array(entries, dtype=float).tobytes()


@pytest.mark.parametrize(
    "name", list(_SPARSE_FIRST_PINNED) + ["nesting-1", "nesting-2", "nesting-3", "ties-2", "ties-3"]
)
def test_level_histograms_match_rescan(name):
    # the all-levels pass gives, on every level and candidate cube, the
    # (value, measure) bytes of a rescan of every atom; one level alone too.
    # The ties-d forests merge equal values whose measures lie 55 or more
    # binary orders apart, so an add out of key order shows in the bits
    if name.startswith("nesting"):
        d = int(name[-1])
        rng = np.random.default_rng(70 + d)
        pool = [random_sparse(rng, d, 3 + 3 * n, max_level=5 if d < 3 else 3) for n in range(6)]
        assert sum(not f.nesting_free for f in pool) >= 4
    else:
        pool = [_sparse_digest_input(name)]
    for f in pool:
        forest = f._atom_forest()
        values, measures, bounds, levels, keys = forest.histograms(range(f.max_level + 1))
        rows = {}
        for r, (k, key) in enumerate(zip(levels.tolist(), keys.tolist())):
            cube = hb.DyadicCube(f.d, *forest.keys[key]).ancestor(k)
            rows[cube] = np.column_stack((values, measures))[bounds[r] : bounds[r + 1]]
        assert len(rows) == len(levels)
        assert set(rows) == {a.cube.ancestor(k) for a in f.atoms for k in range(a.cube.level)}
        for cube, entries in rows.items():
            assert entries.tobytes() == _entry_bytes(sparse_histogram_rescan(f.atoms, cube).entries)
        for k in range(f.max_level + 1):
            one = forest.histograms([k])
            lo, hi = np.searchsorted(levels, [k, k + 1])
            assert one[0].tobytes() == values[bounds[lo] : bounds[hi]].tobytes()
            assert one[1].tobytes() == measures[bounds[lo] : bounds[hi]].tobytes()
            assert np.array_equal(one[2], bounds[lo : hi + 1] - bounds[lo])
            assert np.array_equal(one[4], keys[lo:hi])


@st.composite
def _stacked_rows(draw):
    """Rows of one length n, each strictly increasing with positive weights;
    some hold values whose differences, and so errors, overflow."""
    n, rows = draw(st.integers(1, 300)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = np.cumsum(rng.uniform(0.01, 1.0, size=(rows, n)), axis=1)
    v = (v - rng.uniform(0.0, 1.0, size=(rows, 1)) * v[:, -1:]) * 10.0 ** rng.integers(-3, 4, size=(rows, 1))
    for r in range(rows):
        if draw(st.booleans()):
            v[r, -1] = 1.7e308
            if n > 2 and draw(st.booleans()):
                v[r, 0] = -1.7e308
    w = rng.uniform(0.5, 2.0, size=(rows, n)) * 2.0 ** -rng.integers(0, 12, size=(rows, n))
    return v, w


@settings(max_examples=60, deadline=None)
@given(_stacked_rows(), st.sampled_from([0.3, 0.8, 1.0, 1.5, 2.0]))
def test_stacked_best_constants_match_each_row_alone(vw, p):
    # every row is reduced on its own: stacked, it gives best_constant_error's
    # doubles on that row alone, and a row whose error overflows is the one
    # whose best_constant_error raises
    v, w = vw
    with np.errstate(over="ignore", invalid="ignore"):
        xi, errs = _best_constants(v, w, p)
    for r in range(v.shape[0]):
        hist = hb.ValueHistogram(tuple(zip(v[r].tolist(), w[r].tolist())))
        if math.isfinite(errs[r]):
            alone = hb.best_constant_error(hist, p)
            assert (float(xi[r]).hex(), errs[r].hex()) == tuple(map(float.hex, alone))
        else:
            with pytest.raises(ValueError, match="best-constant error overflows double range"):
                hb.best_constant_error(hist, p)


class TestHomogeneity:
    """E_k(cf) = |c| E_k(f) and a(cf) = |c| a(f), dense and sparse, one p per
    best-constant branch; the same for the modulus, square-function and
    sequence routes."""

    @staticmethod
    def _assert_homogeneous(f, cf, c, levels, d):
        for p in (0.5, 1.0, 1.5, 2.0):
            for k in levels:
                assert hb.approx_error(cf, k, p) == pytest.approx(
                    abs(c) * hb.approx_error(f, k, p), rel=1e-12
                )
            prm = hb.BesovParams(p, 1.0, 0.5 / p, d)
            assert hb.a_norm(cf, prm) == pytest.approx(abs(c) * hb.a_norm(f, prm), rel=1e-12)

    @settings(max_examples=25)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([1, 2, 3]),
        st.floats(0.1, 10.0),
        st.booleans(),
    )
    def test_dense(self, seed, d, mag, negative):
        c = -mag if negative else mag
        m = {1: 6, 2: 3, 3: 2}[d]
        v = np.random.default_rng(seed).uniform(-1, 1, size=(1 << m,) * d)
        f = hb.DyadicStepFunction(d, m, v)
        cf = hb.DyadicStepFunction(d, m, c * v)
        self._assert_homogeneous(f, cf, c, range(m), d)

    @settings(max_examples=25)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([1, 2, 3]),
        st.floats(0.1, 10.0),
        st.booleans(),
    )
    def test_sparse(self, seed, d, mag, negative):
        c = -mag if negative else mag
        f = random_sparse(np.random.default_rng(seed), d, 6, max_level=3)
        cf = hb.SparseStepFunction.from_terms(d, [(a.cube, c * a.value) for a in f.atoms])
        self._assert_homogeneous(f, cf, c, range(f.max_level + 1), d)

    @settings(max_examples=25)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(GRIDS),
        st.sampled_from([0.5, 0.8, 1.0, 1.5, 2.0]),
        st.floats(1e-3, 1e3),
        st.booleans(),
    )
    def test_modulus_square_and_sequence_routes(self, seed, grid, p, mag, negative):
        # N(cf) = |c| N(f) for omega, the modulus b-norm, the square function
        # and the coefficient-side lqlp norm
        c = -mag if negative else mag
        d, m = grid
        v = np.random.default_rng(seed).normal(size=(1 << m,) * d)
        f = hb.DyadicStepFunction(d, m, v)
        cf = hb.DyadicStepFunction(d, m, c * v)
        tab, ctab = ModulusTable(f, p), ModulusTable(cf, p)
        for j in range(m + 4):
            assert ctab.omega(j) == pytest.approx(abs(c) * tab.omega(j), rel=1e-12), j
        coeffs, ccoeffs = hb.analyze(f), hb.analyze(cf)
        for q in (0.5, 1.0, 2.0):
            prm = hb.BesovParams(p, q, 0.5 / p, d)
            assert ctab.b_norm(prm) == pytest.approx(abs(c) * tab.b_norm(prm), rel=1e-12)
            assert hb.lqlp_norm(ccoeffs, prm) == pytest.approx(
                abs(c) * hb.lqlp_norm(coeffs, prm), rel=1e-12
            )
        assert hb.square_function_norm(cf, p) == pytest.approx(
            abs(c) * hb.square_function_norm(f, p), rel=1e-12
        )


class TestANorm:
    def test_constant(self):
        f = hb.DyadicStepFunction(2, 2, np.full((4, 4), -2.5))
        prm = hb.BesovParams(0.7, 1.2, 0.3, 2)
        assert hb.a_norm(f, prm) == pytest.approx(2.5, rel=1e-14)

    def test_spike_closed_form(self):
        m, d = 5, 1
        p, q = 0.8, 0.8
        s = d * (1 / p - 1)
        prm = hb.BesovParams(p, q, s, d)
        f = hb.spike_pair(m, d).f
        lp = 2.0 ** (m * d * (1 - 1 / p))
        expect = (lp**q * (1 + math.fsum(2.0 ** (k * s * q) for k in range(m)))) ** (
            1 / q
        )
        assert hb.a_norm(f, prm) == pytest.approx(expect, rel=1e-12)
        assert hb.spike_closed_form(m, d, prm).a_norm == pytest.approx(
            expect, rel=1e-14
        )

    def test_matches_grid_recomputation(self):
        r = np.random.default_rng(42)
        f = hb.DyadicStepFunction(1, 4, r.uniform(-1, 1, 16))
        for prm in [
            hb.BesovParams(0.7, 0.9, 0.8, 1),
            hb.BesovParams(2.0, 1.0, 0.25, 1),
        ]:
            assert hb.a_norm(f, prm) == pytest.approx(
                a_norm_grid(f, prm), rel=1e-6
            )

    @settings(max_examples=20)
    @given(st.integers(0, 2**31))
    def test_gamma_quasi_triangle(self, seed):
        r = np.random.default_rng(seed)
        prm = hb.BesovParams(0.7, 0.5, 0.6, 1)
        g1 = hb.DyadicStepFunction(1, 4, r.normal(size=16))
        g2 = hb.DyadicStepFunction(1, 4, r.normal(size=16))
        s = hb.DyadicStepFunction(1, 4, g1.values + g2.values)
        gam = min(prm.p, prm.q, 1.0)
        lhs = hb.a_norm(s, prm) ** gam
        rhs = hb.a_norm(g1, prm) ** gam + hb.a_norm(g2, prm) ** gam
        assert lhs <= rhs + 1e-10

    def test_projection_near_optimality(self):
        # p >= 1: E_k <= ||f - P_k f||_p <= 2 E_k (averaging is an L_p
        # contraction for p >= 1)
        r = np.random.default_rng(43)
        for p in (1.0, 1.5, 2.0):
            for d in (1, 2):
                f = hb.DyadicStepFunction(d, 3, r.normal(size=(8,) * d))
                for k in range(3):
                    ek = hb.approx_error(f, k, p)
                    diff = hb.DyadicStepFunction(
                        d, 3, f.values - hb.densify(hb.average_project(f, k), 3).values
                    )
                    resid = hb.lp_quasinorm(diff, p)
                    assert ek <= resid * (1 + 1e-12)
                    assert resid <= 2.0 * ek + 1e-12

    def test_l1_embedding_at_critical_smoothness(self):
        # ||f||_1 / a_norm(f; p, p, d(1/p-1)) stays bounded
        r = np.random.default_rng(44)
        worst = 0.0
        for d, p in [(1, 0.6), (1, 0.8), (2, 0.6), (2, 0.8)]:
            prm = hb.BesovParams(p, p, d * (1 / p - 1), d)
            cases = [hb.DyadicStepFunction(d, 3, r.uniform(-1, 1, (8,) * d)) for _ in range(20)]
            cases += [hb.densify(hb.spike_pair(m, d).f, m) for m in range(1, 6)]
            cases += [hb.densify(hb.nested_family(hb.NestedSpec(d, 4)), 4)]
            for f in cases:
                ratio = hb.lp_quasinorm(f, 1.0) / hb.a_norm(f, prm)
                worst = max(worst, ratio)
        assert 0.0 < worst <= 100.0


class TestModulus:
    def test_constant_function(self):
        f = hb.DyadicStepFunction(1, 2, np.full(4, 7.0))
        for t in (0.25, 0.5, 1.0):
            assert hb.modulus(f, t, 1.3) == 0.0

    # d = 1, m = 2: below the grid omega(2^-j)_2^2 = 2^-j D[1], a geometric
    # tail whose exact sums at p = 2, q = 1 are 359.995 (s = 0.49) and
    # 3590.44 (s = 0.499); omega^p underflows at j = 1075 before either settles
    @pytest.mark.parametrize("s", [0.49, 0.499])
    def test_underflowed_scale_sum_raises(self, s):
        f = hb.DyadicStepFunction(1, 2, [0.3, -1.0, 0.5, 2.0])
        with pytest.raises(ValueError, match="modulus-route scale sum underflows at j = 1075"):
            hb.b_norm_modulus(f, hb.BesovParams(2.0, 1.0, s, 1))

    def test_settled_and_constant_scale_sums_keep_their_values(self):
        f = hb.DyadicStepFunction(1, 2, [0.3, -1.0, 0.5, 2.0])
        got = hb.b_norm_modulus(f, hb.BesovParams(2.0, 1.0, 0.45, 1))
        assert got == float.fromhex("0x1.2370a5ada2ecdp+6")
        c = hb.DyadicStepFunction(1, 2, np.full(4, 0.7))
        assert hb.b_norm_modulus(c, hb.BesovParams(2.0, 1.0, 0.499, 1)) == 0.7

    def test_haar_wavelet_values(self):
        f = h0_dense()
        assert hb.modulus(f, 0.5, 1.0) == pytest.approx(1.0, rel=1e-14)
        assert hb.modulus(f, 1.0, 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_rejects_non_grid_bound(self):
        f = h0_dense()
        with pytest.raises(ValueError):
            hb.modulus(f, 0.3, 1.0)
        with pytest.raises(ValueError):
            hb.modulus(f, 0.0, 1.0)
        with pytest.raises(ValueError):
            hb.modulus(f, 1.5, 1.0)

    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
    def test_non_finite_bound_is_checked_before_rounding(self, t):
        with pytest.raises(ValueError, match=r"^t must be a multiple of the cell width in \(0, 1\]$"):
            hb.modulus(h0_dense(), t, 1.0)

    def test_sparse_input_is_densified_and_the_table_needs_a_grid(self):
        f = random_sparse(np.random.default_rng(4), 1, 6, max_level=3)
        fd = hb.densify(f)
        for n in range(1, (1 << fd.level) + 1):
            t = n * 2.0**-fd.level
            assert hb.modulus(f, t, 1.5) == hb.modulus(fd, t, 1.5)
        # the table builds its grid by densify
        table, dense = ModulusTable(f, 1.5), ModulusTable(fd, 1.5)
        assert table.f.level == fd.level and table.f.values.tobytes() == fd.values.tobytes()
        for j in range(fd.level + 3):
            assert table.omega_ppow(j).hex() == dense.omega_ppow(j).hex()

    def test_monotone_in_t(self):
        r = np.random.default_rng(50)
        f = hb.DyadicStepFunction(2, 3, r.normal(size=(8, 8)))
        vals = [hb.modulus(f, 2.0**-j, 1.0) for j in range(3, -1, -1)]
        for a, b in zip(vals, vals[1:]):
            assert b >= a - 1e-12

    def test_random_interior_shifts_never_exceed(self):
        # exactness of the grid-shift maximum: any real shift inside the
        # box gives a smaller difference norm
        r = np.random.default_rng(51)
        for d in (1, 2):
            f = hb.DyadicStepFunction(d, 3, r.normal(size=(8,) * d))
            for p in (0.7, 1.0, 2.0):
                tab = ModulusTable(f, p)
                for j in (0, 1, 2):
                    bound = tab.omega_ppow(j)
                    t = 2.0**-j
                    for _ in range(170):
                        y = r.uniform(-t, t, d)
                        assert shift_difference_ppow(f, y, p) <= bound + 1e-12

    def test_deep_scales_match_refined_grid(self):
        r = np.random.default_rng(52)
        f = hb.DyadicStepFunction(2, 2, r.normal(size=(4, 4)))
        tab = ModulusTable(f, 1.4)
        fr = hb.densify(f, 4)
        tab_r = ModulusTable(fr, 1.4)
        for j in (3, 4):
            assert tab.omega_ppow(j) == pytest.approx(tab_r.omega_ppow(j), rel=1e-12)

    @pytest.mark.parametrize("p", [0.5, 0.8, 1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("d,m", [(1, 3), (2, 2), (3, 1)])
    def test_subcell_scales_equal_corner_shift_maximum(self, d, m, p):
        # j - m runs past 53, where the weight 1 - phi of a negative shift
        # rounds to 0 and that offset drops out of shift_difference_ppow
        r = np.random.default_rng(54 + d)
        for _ in range(3):
            f = hb.DyadicStepFunction(d, m, r.normal(size=(1 << m,) * d))
            tab = ModulusTable(f, p)
            for j in range(m + 1, m + 81):
                t = 2.0**-j
                best = 0.0
                for y in itertools.product((-t, 0.0, t), repeat=d):
                    if any(y):
                        best = max(best, shift_difference_ppow(f, y, p))
                assert tab.omega_ppow(j) == best, j

    @pytest.mark.parametrize("p", [0.3, 0.5, 0.8, 1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize(
        "d,m", [(1, 4), (2, 2), (3, 1), (1, 5), (2, 4), (2, 5), (3, 3)]
    )
    def test_difference_table_is_symmetric(self, d, m, p):
        # every entry equals its offset's own difference array summed by
        # np.sum, on white noise and on a grid of few repeated values
        r = np.random.default_rng(55 + d)
        nmax = 1 << m
        for V in (r.normal(size=(nmax,) * d), r.integers(-2, 3, size=(nmax,) * d) / 2.0):
            table = _difference_table(V, p)
            assert np.array_equal(table, np.flip(table))
            for pos in np.ndindex(table.shape):
                n = tuple(o - nmax for o in pos)
                expect = offset_diff_ppow_sum(V, n, p) if any(n) else 0.0
                assert table[pos] == expect, n

    @pytest.mark.parametrize("p", [0.3, 0.8, 1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("d,m", [(1, 3), (1, 5), (2, 2), (2, 4), (3, 1), (3, 2)])
    def test_block_scales_equal_scalar_oracle(self, d, m, p):
        # j - m runs past 53, where 1 - phi rounds to 1, and past 1074,
        # where phi underflows to 0; one table reads the levels deepest
        # first, so each of its blocks is filled from its last level's read
        r = np.random.default_rng(58 + d)
        f = hb.DyadicStepFunction(d, m, r.normal(size=(1 << m,) * d))
        levels = range(m + 1, m + 1201)
        up, down = ModulusTable(f, p), ModulusTable(f, p)
        deepest_first = {j: down.omega_ppow(j) for j in levels[::-1]}
        for j in levels:
            phi = 2.0**-j / 2.0**-m
            expect = corner_shift_max(up._near, phi, 2.0**-m, d)
            assert (up.omega_ppow(j), deepest_first[j]) == (expect, expect), j

    @pytest.mark.parametrize("p", [0.5, 1.0, 1.5, 2.0])
    @pytest.mark.parametrize("d,m", [(1, 4), (2, 3)])
    def test_modulus_equals_table_omega(self, d, m, p):
        r = np.random.default_rng(56 + d)
        f = hb.DyadicStepFunction(d, m, r.normal(size=(1 << m,) * d))
        tab = ModulusTable(f, p)
        for j in range(m + 1):
            assert hb.modulus(f, 2.0**-j, p) == tab.omega(j), j

    @pytest.mark.parametrize("p", [0.5, 1.0, 1.7])
    @pytest.mark.parametrize("d,m", [(1, 4), (2, 3)])
    def test_modulus_at_every_multiple_is_offset_maximum(self, d, m, p):
        # t = n 2^-m for every n, dyadic or not: the largest difference sum
        # over the integer offsets |n'|_inf <= n, summed offset by offset
        r = np.random.default_rng(57 + d)
        V = r.normal(size=(1 << m,) * d)
        f = hb.DyadicStepFunction(d, m, V)
        for n in range(1, (1 << m) + 1):
            best = max(
                offset_diff_ppow_sum(V, off, p)
                for off in itertools.product(range(-n, n + 1), repeat=d)
            )
            expect = (best * f.cell_measure) ** (1.0 / p)
            assert hb.modulus(f, n / (1 << m), p) == expect, n


    @settings(max_examples=40)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(GRIDS),
        st.sampled_from([0.5, 0.8, 1.0, 1.5, 2.0, 3.0]),
    )
    def test_omega_nonincreasing_property(self, seed, grid, p):
        d, m = grid
        v = np.random.default_rng(seed).normal(size=(1 << m,) * d)
        tab = ModulusTable(hb.DyadicStepFunction(d, m, v), p)
        omegas = [tab.omega(j) for j in range(m + 61)]
        for j in range(m + 60):
            assert omegas[j + 1] <= omegas[j], j

    @settings(max_examples=40)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(GRIDS),
        st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]),
        st.integers(0, 2),
    )
    def test_flip_mirrors_difference_table_property(self, seed, grid, p, axis):
        # V flipped along one axis pairs the same cells at offset n with the
        # axis entry negated, so D is mirrored along that axis (at d = 1,
        # where D[-n] == D[n], unchanged) and every box maximum is unchanged
        d, m = grid
        axis %= d
        V = np.random.default_rng(seed).normal(size=(1 << m,) * d)
        table = _difference_table(V, p)
        flipped = _difference_table(np.flip(V, axis), p)
        np.testing.assert_allclose(flipped, np.flip(table, axis), rtol=1e-12, atol=0)
        if d == 1:
            np.testing.assert_allclose(flipped, table, rtol=1e-12, atol=0)
        tab = ModulusTable(hb.DyadicStepFunction(d, m, V), p)
        tab_flipped = ModulusTable(hb.DyadicStepFunction(d, m, np.flip(V, axis)), p)
        for j in range(m + 1):
            assert tab_flipped.omega(j) == pytest.approx(tab.omega(j), rel=1e-12)


def modulus_fingerprint(d, m, seed, repeated):
    """SHA-256 of the modulus route on one seeded grid, as float.hex text.

    For each p: every difference-table entry, omega^p at j = 0..m+200 and
    b_norm at three q, in that order.  ``repeated`` rounds the cells to
    multiples of 1/2, so that many differences repeat or vanish.
    """
    V = random_step(seed, d, m).values
    if repeated:
        V = np.round(V * 2.0) / 2.0
    f = hb.DyadicStepFunction(d, m, V)
    h = hashlib.sha256()
    for p in (0.3, 0.8, 1.0, 1.5, 2.0, 3.0):
        tab = ModulusTable(f, p)
        values = _difference_table(V, p).ravel().tolist()
        values += [tab.omega_ppow(j) for j in range(m + 201)]
        values += [tab.b_norm(hb.BesovParams(p, q, 0.4 / p, d)) for q in (0.5, 1.0, 2.0)]
        h.update(" ".join(map(float.hex, values)).encode())
    return h.hexdigest()


@pytest.mark.parametrize(
    "d,m,seed,repeated,digest",
    [
        (1, 5, 11, False, "8d3776611e7e0d831e204d464445869ac2019fda955a749621c74109f51cf27f"),
        (1, 4, 12, True, "1de86543a70b5078fb69bf0808e81eea653600da69c732b890db7c7245f73253"),
        (2, 3, 21, False, "e1d56b9fbeec2ace063dbaf7d4af901f86f792df738b6d354cb5bcf9b04b4813"),
        (2, 4, 22, True, "3a49f9d3dc56e0552ee401294427290e645965a247625830cd8ed171bc2002af"),
        (3, 2, 31, False, "6225f53211239cc36d5ed966932c36e341eab9e77177e3883f7d17144896a7a7"),
        (3, 2, 32, True, "c5318218736073e5ca8e3414b83d98d1a117af254b6d599d21af6bb561a13a0d"),
    ],
)
def test_modulus_route_golden_digest(d, m, seed, repeated, digest):
    # digests of the route as summed one offset and one level at a time
    assert modulus_fingerprint(d, m, seed, repeated) == digest


class TestBNormModulus:
    def test_constant(self):
        f = hb.DyadicStepFunction(1, 3, np.full(8, 4.0))
        prm = hb.BesovParams(1.5, 2.0, 0.25, 1)
        assert hb.b_norm_modulus(f, prm) == pytest.approx(4.0, rel=1e-12)

    def test_haar_wavelet_explicit_sum(self):
        # omega(2^-j)_1 = 2^{1-j} for j >= 1, omega(1)_1 = 1:
        # norm = 1 + 1 + sum_{j>=1} 2^{j/2} 2^{1-j} = 2 + 2(sqrt2 + 1) / sqrt2 ...
        prm = hb.BesovParams(1.0, 1.0, 0.5, 1)
        f = h0_dense()
        tab = ModulusTable(f, 1.0)
        for j in range(1, 8):
            assert tab.omega(j) == pytest.approx(2.0 ** (1 - j), rel=1e-12)
        expect = 2.0 + 2.0 * (2.0**-0.5) / (1.0 - 2.0**-0.5)
        assert hb.b_norm_modulus(f, prm) == pytest.approx(expect, rel=1e-6)
        # direct shift quadrature cross-check of the truncated sum
        direct = 1.0 + 1.0
        j = 1
        while True:
            term = 2.0 ** (j * 0.5) * 2.0 ** (1 - j)
            direct += term
            if term < 1e-12:
                break
            j += 1
        assert hb.b_norm_modulus(f, prm) == pytest.approx(direct, rel=1e-6)

    def test_degenerate_parameters_rejected(self):
        # s >= 1/p is accepted by BesovParams only for the classifier; the
        # scale sum diverges there, so b_norm says so before summing
        f = hb.DyadicStepFunction(1, 2, [0.0, 1.0, 3.0, -2.0])
        prm = hb.BesovParams(1.0, 1.0, 1.5, 1, allow_degenerate=True)
        with pytest.raises(ValueError, match="diverges"):
            hb.b_norm_modulus(f, prm)
        with pytest.raises(ValueError, match="diverges"):
            ModulusTable(f, 1.0).b_norm(prm)

    def test_zero_function(self):
        f = hb.DyadicStepFunction(1, 2, np.zeros(4))
        prm = hb.BesovParams(1.0, 1.0, 0.5, 1)
        assert hb.b_norm_modulus(f, prm) == 0.0

    def test_ratio_to_a_norm_in_band(self):
        # small version of the equivalence-band study
        r = np.random.default_rng(53)
        prm = hb.BesovParams(2.0, 2.0, 0.25, 1)
        ratios = []
        for _ in range(25):
            f = hb.DyadicStepFunction(1, 4, r.uniform(-1, 1, 16))
            ratios.append(hb.b_norm_modulus(f, prm) / hb.a_norm(f, prm))
        assert max(ratios) / min(ratios) <= 100.0


class TestSquareFunction:
    def test_single_wavelet(self):
        for d in (1, 2):
            for idx in hb.level_indices(d, 2):
                f = hb.densify(hb.haar_function(idx), 2)
                scaled = hb.DyadicStepFunction(d, 2, 3.0 * f.values)
                for p in (0.5, 1.0, 3.0):
                    expect = 3.0 * idx.support.measure ** (1.0 / p)
                    assert hb.square_function_norm(scaled, p) == pytest.approx(
                        expect, rel=1e-12
                    )

    def test_parseval_at_p2(self):
        r = np.random.default_rng(60)
        for d, m in [(1, 5), (2, 3)]:
            f = hb.DyadicStepFunction(d, m, r.normal(size=(1 << m,) * d))
            assert hb.square_function_norm(f, 2.0) == pytest.approx(
                hb.lp_quasinorm(f, 2.0), rel=1e-12
            )

    @settings(max_examples=40)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([1, 2, 3]),
        st.integers(0, 4),
        st.floats(1e-3, 1e3),
    )
    def test_parseval_property(self, seed, d, m, scale):
        v = scale * np.random.default_rng(seed).normal(size=(1 << m,) * d)
        f = hb.DyadicStepFunction(d, m, v)
        assert hb.square_function_norm(f, 2.0) == pytest.approx(
            hb.lp_quasinorm(f, 2.0), rel=1e-12
        )

    def test_disjoint_wavelets(self):
        d, m = 1, 3
        i1 = hb.HaarIndex.wavelet(hb.DyadicCube(1, 1, (0,)), 1)
        i2 = hb.HaarIndex.wavelet(hb.DyadicCube(1, 1, (1,)), 1)
        a, b = 2.0, -5.0
        f = hb.DyadicStepFunction(
            1,
            m,
            a * hb.densify(hb.haar_function(i1), m).values
            + b * hb.densify(hb.haar_function(i2), m).values,
        )
        for p in (0.7, 1.0, 2.5):
            expect = (0.5 * abs(a) ** p + 0.5 * abs(b) ** p) ** (1.0 / p)
            assert hb.square_function_norm(f, p) == pytest.approx(expect, rel=1e-12)


class TestWeightedCoefficientSum:
    def test_constant(self):
        f = hb.DyadicStepFunction(2, 2, np.full((4, 4), -1.5))
        assert hb.b0_221_weighted_sum(f) == pytest.approx(1.5, rel=1e-14)

    def test_single_wavelet(self):
        for d in (1, 2):
            for k in (1, 2, 3):
                idx = next(iter(hb.level_indices(d, k)))
                f = hb.densify(hb.haar_function(idx), k)
                c = 2.5
                g = hb.DyadicStepFunction(d, k, c * f.values)
                expect = c * math.sqrt(k + 1) * idx.support.measure**0.5
                assert hb.b0_221_weighted_sum(g) == pytest.approx(expect, rel=1e-12)

    def test_comparable_to_a_norm_at_220(self):
        r = np.random.default_rng(61)
        prm = hb.BesovParams(2.0, 2.0, 0.0, 1)
        ratios = []
        for _ in range(30):
            f = hb.DyadicStepFunction(1, 4, r.uniform(-1, 1, 16))
            ratios.append(hb.b0_221_weighted_sum(f) / hb.a_norm(f, prm))
        assert max(ratios) / min(ratios) <= 10.0


class TestRoutesBeyondDoubleRange:
    """Finite cells whose route totals leave double range raise a ValueError
    naming the route; the same cells scaled down give the scaled norms."""

    CELLS = [1e300, -1e300, 1e300, -1e300]

    @pytest.mark.parametrize("q", [0.05, 2.0])
    def test_a_and_modulus_routes(self, q):
        # q = 0.05 overflows in the final power, q = 2 already in ||f||_p^q
        f = hb.DyadicStepFunction(1, 2, self.CELLS)
        prm = hb.BesovParams(0.5, q, 0.0, 1)
        with pytest.raises(ValueError, match="approximation-route sum overflows double range"):
            hb.a_norm(f, prm)
        with pytest.raises(ValueError, match="modulus-route scale sum overflows double range"):
            hb.b_norm_modulus(f, prm)
        small = hb.DyadicStepFunction(1, 2, np.array(self.CELLS) * 1e-300)
        assert math.isfinite(hb.a_norm(small, prm))
        assert math.isfinite(hb.b_norm_modulus(small, prm))

    def test_square_function_and_b0221(self):
        f = hb.DyadicStepFunction(1, 2, self.CELLS)
        # lambda^2 = 1e600 overflows; the coefficients are scaled down by a
        # power of two and the norm scaled back up: S = 1e300 on every cell
        assert hb.square_function_norm(f, 0.5) == pytest.approx(1e300, rel=1e-15)
        # 2^k f against 2^k times the norm of f, bit for bit, on both sides of
        # the overflow edge (the sum of lambda^2 overflows from k = 511 on).
        # Every step commutes with 2^k where k p and k / p are integers, and
        # max |lambda| = 2 has the even exponent 2 = e of frexp, so the scaled
        # coefficients are f's own times 2^-2
        base = hb.DyadicStepFunction(1, 2, [3.0, -1.0, 2.0, -0.5])
        c = hb.analyze(base)
        assert math.frexp(max(abs(c.scaling), *(np.abs(b).max() for b in c.blocks)))[1] == 2
        for p in (0.5, 1.0, 2.0):
            norm = hb.square_function_norm(base, p)
            for k in (0, 2, 500, 508, 510, 512, 600, 1000, 1020):
                scaled = hb.DyadicStepFunction(1, 2, np.ldexp(base.values, k))
                assert hb.square_function_norm(scaled, p) == math.ldexp(norm, k), (p, k)
        with pytest.raises(ValueError, match="b0221 sum overflows double range"):
            hb.b0_221_weighted_sum(f)
        small = hb.DyadicStepFunction(1, 2, np.array(self.CELLS) * 1e-300)
        assert hb.square_function_norm(small, 0.5) == pytest.approx(1.0, rel=1e-12)


    @pytest.mark.parametrize("p", [0.5, 0.8, 1.0])
    def test_sparse_profile_names_its_smallest_overflowing_level(self, p):
        # values -a and +a share a level-k cube for k < `overflowing` only: every
        # best constant there leaves a difference of 1.5a or 2a, beyond double
        # range; deeper cubes hold -a and -a/2 and keep a finite E_k
        a = 1.5e308
        cube = lambda lev, i: hb.DyadicCube(1, lev, (i,))
        cases = {
            1: [(cube(1, 0), -a), (cube(1, 1), a), (cube(3, 0), a / 2)],
            2: [(cube(1, 1), a), (cube(2, 0), -a), (cube(2, 1), a), (cube(4, 0), a / 2)],
        }
        for overflowing, terms in cases.items():
            f = hb.SparseStepFunction.from_terms(1, terms)
            with pytest.raises(ValueError, match="^the approximation-route error E_0 overflows double range$"):
                hb.approximation_profile(f, p)
            for k in range(f.max_level):
                if k < overflowing:
                    with pytest.raises(ValueError, match=f"^the approximation-route error E_{k} overflows"):
                        hb.approx_error(f, k, p)
                else:
                    e = hb.approx_error(f, k, p)
                    assert math.isfinite(e) and e == approx_error_sparse_rescan(f, k, p)


    @pytest.mark.parametrize("p", [0.5, 1.0, 1.5, 2.0])
    def test_sparse_values_of_both_infinite_signs_raise_by_route(self, p):
        # chain sums of +inf and -inf share the level-0 and level-1 cubes; at
        # p = 2 the mean's sum met inf - inf and raised fsum's own ValueError
        cube = lambda lev, i: hb.DyadicCube(1, lev, (i,))
        terms = [(cube(1, 0), 1e308), (cube(2, 0), 1e308), (cube(1, 1), -1e308), (cube(2, 2), -1e308)]
        f = hb.SparseStepFunction.from_terms(1, terms + [(cube(3, 0), 1.0)])
        for k in (0, 1):
            with pytest.raises(ValueError, match=f"^the approximation-route error E_{k} overflows"):
                hb.approx_error(f, k, p)
        assert hb.approx_error(f, 2, p) == 0.0

    @pytest.mark.parametrize("p", [0.5, 1.0, 1.5, 2.0])
    def test_sparse_cubes_whose_measure_underflows_add_nothing(self, p):
        # below level 1074 a cube's measure, and so its histogram, is empty:
        # it adds 0.0 to E_k, as the atom's own underflowed region does above
        f = hb.SparseStepFunction.from_terms(1, [(hb.DyadicCube(1, 1100, (5,)), 1.0)])
        assert hb.approx_error(f, 1080, p) == hb.approx_error(f, 1070, p) == 0.0


@pytest.mark.parametrize("p", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize(
    "entry",
    [
        lambda f, p: hb.lp_quasinorm(f, p),
        lambda f, p: hb.best_constant_error(hb.ValueHistogram.from_pairs([(1.0, 1.0)]), p),
        lambda f, p: hb.approx_error(f, 0, p),
        lambda f, p: ModulusTable(f, p),
        lambda f, p: hb.square_function_norm(f, p),
        lambda f, p: hb.approximation_profile(f, p),
    ],
    ids=[
        "lp_quasinorm", "best_constant_error", "approx_error", "ModulusTable",
        "square_function_norm", "approximation_profile",
    ],
)
def test_every_exponent_entry_rejects_bad_p(entry, p):
    with pytest.raises(ValueError, match="p must be a positive finite exponent"):
        entry(random_step(1, 1, 2), p)


class TestApproximationRouteBoundary:
    """``approx_error`` and ``approximation_profile`` check p, k and the type
    of f on entry and share one private per-level body."""

    @pytest.mark.parametrize("p", [0.6, 1.0, 1.5, 2.0])
    def test_profile_reads_each_level_without_the_public_entry(self, p, monkeypatch):
        rng = np.random.default_rng(17)
        for f in (
            random_step(3, 2, 3),
            hb.nested_family(hb.NestedSpec(1, 6)),
            random_sparse(rng, 2, 9, max_level=4),
        ):
            top = f.level if isinstance(f, hb.DyadicStepFunction) else f.max_level
            want = [hb.approx_error(f, k, p).hex() for k in range(top)]
            monkeypatch.setattr(norms, "approx_error", None)
            got = hb.approximation_profile(f, p).e_values
            monkeypatch.undo()
            assert [x.hex() for x in got.tolist()] == want

    def test_sparse_sums_beyond_double_range_raise_the_route_error(self):
        # two nesting atoms of 2^1023.9: f = inf on [0, 1/2), the histograms'
        # "values must be finite" stays with the public histogram and L_p norm
        c0, c1 = hb.DyadicCube(1, 0, (0,)), hb.DyadicCube(1, 1, (0,))
        f = hb.SparseStepFunction(1, [hb.SparseAtom(c0, 1, 1023.9), hb.SparseAtom(c1, 1, 1023.9)])
        for p in (0.5, 2.0):
            for entry in (lambda: hb.approximation_profile(f, p), lambda: hb.approx_error(f, 0, p)):
                with pytest.raises(ValueError, match="^the approximation-route error E_0 overflows"):
                    entry()
            assert hb.approx_error(f, 1, p) == 0.0
        with pytest.raises(ValueError, match="histogram values must be finite"):
            hb.lp_quasinorm(f, 2.0)
        with pytest.raises(ValueError, match="histogram values must be finite"):
            hb.value_histogram(f, c0)


# The door table: every public callable with a parameter named f takes either
# representation of a step function, and a route that works on a grid reads a
# sparse f through densify.  Generated from ``helpers.public_callables``, so a
# new f parameter needs a row or an exemption with a reason.
DOOR_PRM = hb.BesovParams(1.5, 1.0, 0.3, 1)
# nesting atoms from the root down to level 3
NESTING = hb.SparseStepFunction.from_terms(
    1,
    [
        (hb.DyadicCube(1, 0, (0,)), 1.0),
        (hb.DyadicCube(1, 1, (1,)), -0.5),
        (hb.DyadicCube(1, 2, (2,)), 0.25),
        (hb.DyadicCube(1, 3, (5,)), 2.0),
    ],
)

# id -> (the route called on f, whether it reads a sparse f through densify)
DOORS = {
    "average_project": (lambda f: hb.average_project(f, 2), False),
    "densify": (hb.densify, False),
    "lp_quasinorm": (lambda f: hb.lp_quasinorm(f, 1.5), False),
    "value_histogram": (lambda f: hb.value_histogram(f, hb.DyadicCube.root(1)), False),
    "approx_error": (lambda f: hb.approx_error(f, 1, 1.5), False),
    "approximation_profile": (lambda f: hb.approximation_profile(f, 1.5), False),
    "a_norm": (lambda f: hb.a_norm(f, DOOR_PRM), False),
    "analyze": (hb.analyze, True),
    "tensor_analyze": (hb.tensor_analyze, True),
    "tensor_coefficient": (lambda f: hb.tensor_coefficient(f, (3,)), True),
    "rank_one_project": (lambda f: hb.rank_one_project(f, (3,)), True),
    "partial_sum_subset": (
        lambda f: hb.partial_sum_subset(f, hb.level_indices(1, 2)), True
    ),
    "ModulusTable": (lambda f: ModulusTable(f, 1.5).b_norm(DOOR_PRM), True),
    "modulus": (lambda f: hb.modulus(f, 0.25, 1.5), True),
    "b_norm_modulus": (lambda f: hb.b_norm_modulus(f, DOOR_PRM), True),
    "square_function_norm": (lambda f: hb.square_function_norm(f, 1.5), True),
    "b0_221_weighted_sum": (hb.b0_221_weighted_sum, True),
}

# f parameters with no row, and why
DOOR_EXEMPT = {
    "TensorSpikeResult": "a result record of tensor_spike_pair: it stores f and "
    "computes nothing from it",
}


def _bits(result):
    """A route's result as exact bytes, for bit-for-bit comparison."""
    if isinstance(result, float):
        return result.hex()
    if isinstance(result, hb.DyadicStepFunction):
        return result.d, result.level, result.values.tobytes()
    if isinstance(result, hb.HaarCoefficients):
        blocks = [b.tobytes() for b in result.blocks]
        return result.d, result.max_level, result.scaling.hex(), blocks
    assert isinstance(result, hb.TensorHaarCoefficients)
    return result.d, result.level, result.array.tobytes()


def test_every_public_f_parameter_has_a_door_row():
    found = {q for q, fn in public_callables() if "f" in inspect.signature(fn).parameters}
    assert found - set(DOORS) - set(DOOR_EXEMPT) == set(), "f parameters with no DOORS row"
    assert set(DOORS) | set(DOOR_EXEMPT) <= found, "rows that name no public f parameter"


@pytest.mark.parametrize("case", DOORS)
def test_sparse_f_is_read_through_densify(case):
    route, densifies = DOORS[case]
    got = route(NESTING)
    if densifies:
        assert _bits(got) == _bits(route(hb.densify(NESTING)))


@pytest.mark.parametrize("case", DOORS)
def test_non_step_functions_raise_type_error(case):
    with pytest.raises(TypeError, match="^expected a step function$"):
        DOORS[case][0]([1.0, 2.0])


@pytest.mark.parametrize(
    "entry",
    [
        hb.a_norm,
        hb.b_norm_modulus,
        lambda f, prm: ModulusTable(f, prm.p).b_norm(prm),
        lambda f, prm: hb.a_norm(hb.SparseStepFunction(1, []), prm),
    ],
    ids=["a_norm", "b_norm_modulus", "ModulusTable.b_norm", "a_norm_sparse"],
)
def test_function_dimension_must_match_the_parameters(entry):
    f = random_step(1, 1, 2)
    with pytest.raises(ValueError, match="^function dimension does not match the parameters$"):
        entry(f, hb.BesovParams(2.0, 2.0, 0.25, 2))


# ---------------------------------------------------------------------------
# the square function on its own grid against the full-grid computation
# ---------------------------------------------------------------------------

SQUARE_GRIDS = [(d, m) for d in (1, 2, 3) for m in (0, 1, 2, 5)] + [(1, 16), (2, 10)]
SQUARE_P = (0.5, 1.0, 1.5, 2.0, 3.0)


def _square_function_inputs(d, m, p):
    """White noise; grids constant on coarse cubes or of two values, whose
    equal adjacent level-(m-1) square-function values merge into larger
    maximal cubes on the full grid; noise scaled so that |S|^p is
    subnormal; and noise with coefficients around 1e154, where lambda^2
    reaches the largest double."""
    seed = 100 * d + m
    noise = random_step(seed, d, m).values
    rng = np.random.default_rng(seed)
    grids = {"noise": noise, "signs": rng.choice([-1.0, 1.0], noise.shape)}
    if m >= 2:
        coarse = random_step(seed + 1, d, m - 2).values
        grids["coarse"] = hb.densify(hb.DyadicStepFunction(d, m - 2, coarse), m).values
        cells = rng.choice([0.5, -0.5, 2.0], (1 << (m - 1),) * d)
        grids["coarse-three"] = hb.densify(hb.DyadicStepFunction(d, m - 1, cells), m).values
    grids["subnormal"] = noise * max(10.0 ** (-310 / p), 1e-320)
    for scale in (1e153, 6e153, 1e154, 3e154):
        grids[f"big-{scale:g}"] = noise * scale
    return {name: hb.DyadicStepFunction(d, m, v) for name, v in grids.items()}


def _max_coefficient_exponent(f):
    c = hb.analyze(f)
    return math.frexp(max([abs(c.scaling), *(float(np.abs(b).max()) for b in c.blocks)]))[1]


@pytest.mark.parametrize("d,m", SQUARE_GRIDS)
def test_square_function_matches_full_grid(d, m):
    # bit for bit; where the full grid's lambda^2 overflows, against the
    # full grid of f scaled by the power of two that the library divides by
    for p in SQUARE_P:
        for name, f in _square_function_inputs(d, m, p).items():
            try:
                expect = square_function_norm_full_grid(f, p)
            except (OverflowError, FloatingPointError):
                e = _max_coefficient_exponent(f)
                small = hb.DyadicStepFunction(d, m, np.ldexp(f.values, -e))
                expect = math.ldexp(square_function_norm_full_grid(small, p), e)
                assert name.startswith("big"), (name, p)
            assert hb.square_function_norm(f, p).hex() == expect.hex(), (name, p)


def test_square_function_inputs_reach_their_edges():
    # the inputs above meet what they are there for: maximal cubes on the
    # full grid larger than a level-(m-1) cube, subnormal powers, and both
    # sides of the lambda^2 edge
    inputs = _square_function_inputs(2, 5, 3.0)
    for name in ("coarse", "coarse-three", "signs"):
        S = square_function_full_grid(inputs[name])
        shifts = S._cube_pyramid().maximal[1]
        assert shifts.max() > 2, name
    S = square_function_full_grid(inputs["subnormal"]).values ** 3.0
    assert ((S > 0) & (S < 2.2250738585072014e-308)).any()
    overflows = []
    for name, f in inputs.items():
        if name.startswith("big"):
            try:
                square_function_full_grid(f)
                overflows.append(False)
            except (OverflowError, FloatingPointError):
                overflows.append(True)
    assert any(overflows) and not all(overflows)
