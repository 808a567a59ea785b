"""Controls for the equivalence-band acceptance criteria.

The acceptance lattice probes the two-route ratios with cell-value white
noise, whose energy sits entirely at the finest level; both quasi-norms are
saturating geometric scale sums there, so the ratio crosses between two
plateaus at rate 2^{-m s q} and its finite-window slope need not be small.
These controls separate that probe artifact from a genuine calibration bug:

* on a level-calibrated random Haar series the ratio is flat in m, and
* the single-wavelet ratio follows the predicted saturation profile exactly.

The acceptance criteria therefore test flatness on the finest-scale terms
(``experiments._Routes.finest_ratio``).  Every ratio here is read through
that harness, the one the criteria and the ratio-band experiments share.
The last controls pin the one correction those terms need at d >= 2 and
show that the acceptance checks of criteria 6, 7, 8, 10 and 11 still
reject deliberately biased inputs.  Criteria 8, 10 and 11 are the verdicts
of ``trivial-dual``, ``basis-fail`` and ``tensor-fail``, so their controls
bias the closed forms those experiments read.
"""

import dataclasses
import math

import numpy as np
import pytest

import haar_besov as hb
from haar_besov import experiments
from haar_besov.experiments import SLOPE_LIMIT, _Routes
from haar_besov.experiments import default_config, fit_log2_slope, random_step, run_experiment
from haar_besov.regimes import critical_smoothness
from haar_besov.rng import RandomStream, derive_seed

from helpers import direction_difference_sums, mid_smoothness, projector_window, zero_blocks


def _calibrated_series(seed, d, m, s):
    """Random Haar series with block-k coefficients ~ 2^{-k(s + d/2)} N(0,1)."""
    stream = RandomStream(seed)
    scaling, blocks = float(stream.normal(1)[0]), zero_blocks(d, m)
    for k in range(1, m + 1):
        shape = blocks[k - 1].shape
        n = int(np.prod(shape))
        blocks[k - 1][:] = stream.normal(n).reshape(shape) * 2.0 ** (-k * (s + d / 2.0))
    return hb.synthesize(hb.HaarCoefficients(d, m, scaling, blocks), m)


@pytest.mark.parametrize("d,p", [(1, 0.8), (1, 2.0), (2, 2.0)])
@pytest.mark.parametrize("q", [0.5, 1.0, 2.0])
def test_calibrated_ensemble_ratio_is_level_flat(d, p, q):
    s = mid_smoothness(p, d)
    prm = hb.BesovParams(p, q, s, d)
    cal_pts, wn_pts = [], []
    m_values = (3, 4, 5, 6, 7) if d == 1 else (3, 4, 5, 6)
    for m in m_values:
        for i in range(50):
            f = _calibrated_series(derive_seed(17, d, int(10 * p), m, i), d, m, s)
            cal_pts.append((m, _Routes(f, p).ratio("coefficient", prm)))
            g = random_step(derive_seed(18, d, int(10 * p), m, i), d, m)
            wn_pts.append((m, _Routes(g, p).ratio("coefficient", prm)))
    cal_slope, _, _ = fit_log2_slope(cal_pts)
    wn_slope, _, _ = fit_log2_slope(wn_pts)
    # a genuine level bias in the norms would drift both ensembles alike;
    # the calibrated one must be flat up to sampling noise even where the
    # white-noise probe drifts hard
    assert abs(cal_slope) <= max(0.05, abs(wn_slope) / 2.0), (cal_slope, wn_slope)


def test_single_wavelet_ratio_follows_saturation_profile():
    # a_norm of a level-j wavelet has E_k = ||h||_p for k < j, so the
    # lqlp/a ratio equals 2^{c} / (1 + sum_{k<j} 2^{ksq})^{1/q} up to a
    # j-independent factor; verify the drift is exactly the saturation term
    d, p, q = 1, 2.0, 0.5
    s = mid_smoothness(p, d)
    prm = hb.BesovParams(p, q, s, d)
    measured = []
    predicted = []
    for j in range(1, 9):
        idx = next(iter(hb.level_indices(d, j)))
        f = hb.densify(hb.haar_function(idx), j)
        measured.append(math.log2(_Routes(f, p).ratio("coefficient", prm)))
        sat = 1.0 + math.fsum(2.0 ** (k * s * q) for k in range(j))
        predicted.append(j * (s - d / p) + (j - 1) * d / p - math.log2(sat) / q)
    shift = measured[0] - predicted[0]
    np.testing.assert_allclose(
        np.array(measured) - shift, predicted, atol=1e-9
    )


def test_direction_supremum_excess_halves_per_level():
    # omega(2^-m) is the largest of the direction difference sums.  On d = 2
    # white noise the two axis sums share one mean and spread by a relative
    # ~2^-m (sums of ~4^m dependent pair terms), so the log2 excess of their
    # maximum over their mean halves per level: a five-level fit of the raw
    # modulus term tilts by about -0.05 from it alone
    for p in (0.8, 2.0):
        pts = []
        for m in range(2, 8):
            excess = []
            for i in range(40):
                f = random_step(derive_seed(20, int(10 * p), m, i), 2, m)
                sums = direction_difference_sums(f.values, p)
                axis = [sums[(0, 1)], sums[(1, 0)]]
                excess.append(math.log2(max(sums.values()) / (sum(axis) / 2.0)))
            pts.append((m, float(np.mean(excess))))
        slope, _, _ = fit_log2_slope(pts)
        assert -1.25 <= slope <= -0.75, (p, slope, pts)
    # at d = 1 the shifts +-2^-m give one sum: nothing to divide out
    sums = direction_difference_sums(random_step(21, 1, 5).values, 0.8)
    assert sums[(1,)] == sums[(-1,)]


@pytest.mark.parametrize("d,p", [(1, 0.8), (1, 2.0), (2, 2.0)])
def test_finest_slope_clause_rejects_level_bias(d, p):
    # criteria 6 and 7: a level bias of 2^{+-0.1m} in either route must
    # fail the clause that the unbiased finest-scale ratios pass
    s = mid_smoothness(p, d)
    sample = [
        (m, _Routes(random_step(derive_seed(19, d, int(10 * p), m, i), d, m), p))
        for m in range(1, 6)
        for i in range(20)
    ]
    for route in ("coefficient", "modulus"):
        pts = [(m, routes.finest_ratio(route, s)) for m, routes in sample]
        assert abs(fit_log2_slope(pts)[0]) <= SLOPE_LIMIT, route
        for sign in (1, -1):
            biased = [(m, r * 2.0 ** (sign * 0.1 * m)) for m, r in pts]
            assert abs(fit_log2_slope(biased)[0]) > SLOPE_LIMIT, (route, sign)


# at d = 1 the window's fit sits 6.6% below the rate, so a 25% upward shift
# lands at 18.4% and stays inside the 20% tolerance; upward biases there are
# caught from about 27% on
@pytest.mark.parametrize("p,q,d,sign", [(0.7, 1.0, 1, -1), (0.8, 1.0, 2, 1), (0.8, 1.0, 2, -1)])
def test_projector_growth_clause_rejects_shifted_slope(p, q, d, sign, monkeypatch):
    # criterion 10: basis-fail on the window must fail when the scattered
    # ratios' slope is shifted by 25% of the theoretical rate, and pass on
    # the true ratios
    window = projector_window(d)
    cfg = default_config("basis-fail", p=p, q=q, d=d, k_lo=window.start, k_hi=window.stop - 1)
    assert run_experiment(cfg).passed
    theo = d * (1.0 / p - 1.0 / q)
    true_norms = experiments.scattered_closed_norms

    def shifted(spec, prm):
        norms = true_norms(spec, prm)
        log2_proj = norms.log2_proj_a_norm + sign * 0.25 * theo * spec.k
        return dataclasses.replace(norms, log2_proj_a_norm=log2_proj)

    monkeypatch.setattr(experiments, "scattered_closed_norms", shifted)
    res = run_experiment(cfg)
    assert not res.passed, res.summary["fits"]


@pytest.mark.parametrize("sign", [1, -1])
def test_tensor_growth_rejects_shifted_slope(sign, monkeypatch):
    # criterion 11: tensor-fail must fail when the rank-one ratios' slope is
    # shifted by 25% of the theoretical rate
    cfg = default_config("tensor-fail")
    assert run_experiment(cfg).passed
    theo = (1.0 / cfg.p - 1.0) * (cfg.d - 1)
    true_pair = experiments.tensor_spike_pair

    def shifted(k, d, prm):
        res = true_pair(k, d, prm)
        bias = 2.0 ** (sign * 0.25 * theo * k)
        return dataclasses.replace(res, a_projection=res.a_projection * bias)

    monkeypatch.setattr(experiments, "tensor_spike_pair", shifted)
    res = run_experiment(cfg)
    assert not res.passed
    assert res.summary["fits"]["rank_one_ratio"]["relative_deviation"] == pytest.approx(0.25)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("critical", [False, True])
def test_trivial_dual_rejects_growing_a_norms(d, critical, monkeypatch):
    # criterion 8: a-norms that grow like 2^{0.1m} over m = 4..16 must leave
    # the band of 2 that the closed-form a-norms stay in
    sc = critical_smoothness(0.6, d)
    q, s = (2.0, sc) if critical else (1.0, sc / 2.0)
    cfg = default_config("trivial-dual", q=q, s=s, d=d)
    res = run_experiment(cfg)
    assert res.passed and res.summary["band"]["a_norm_max_over_min"] < 1.5
    true_form = experiments.nested_closed_form

    def grown(spec, prm):
        norms = true_form(spec, prm)
        return dataclasses.replace(norms, a_norm=norms.a_norm * 2.0 ** (0.1 * spec.m))

    monkeypatch.setattr(experiments, "nested_closed_form", grown)
    res = run_experiment(cfg)
    assert not res.passed
    assert res.summary["band"]["a_norm_max_over_min"] > 2.0
