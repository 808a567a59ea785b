"""Every public callable whose result is a float, or a tuple holding one,
meets an input whose result overflows double range with a ValueError naming
its route, or returns the finite true value; either way with no
RuntimeWarning.  The table is generated from the return annotations, so a
new float-valued entry point needs a row or an exemption with a reason."""

import inspect
import math

import pytest

import haar_besov as hb
from haar_besov.norms import ModulusTable

from helpers import public_callables

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

B = 2.0**1000  # B^2 overflows
BIG = hb.DyadicStepFunction(1, 2, [B, -B, B, -B])
# p = 0.5 keeps every p-th power finite; q = 0.05 overflows the final power
WIDE = hb.BesovParams(0.5, 0.05, 0.0, 1)
# 128 finest coefficients of 1e300 at p = 0.25: the lqlp norm is
# 2^-0.08 2^28 1e300, past the largest double
FINE = hb.DyadicStepFunction(1, 8, [1e300, -1e300] * 128)
FINE_PRM = hb.BesovParams(0.25, 1.0, 3.99, 1)
TOP = 1.7e308  # a sum of two overflows
TENSOR_2D = hb.DyadicStepFunction(2, 1, [TOP, -TOP, -TOP, TOP])

# id -> (call, the route its ValueError names, or the finite true value)
ROWS = {
    "lp_quasinorm": (lambda: hb.lp_quasinorm(BIG, 2.0), B),
    "tensor_coefficient": (
        lambda: hb.tensor_coefficient(hb.DyadicStepFunction(1, 1, [TOP, -TOP]), (2,)),
        "tensor-coefficient sum",
    ),
    "ModulusTable.omega_ppow": (
        lambda: ModulusTable(BIG, 2.0).omega_ppow(0), "modulus-route difference table"
    ),
    "ModulusTable.omega": (
        lambda: ModulusTable(BIG, 2.0).omega(3), "modulus-route difference table"
    ),
    "ModulusTable.b_norm": (
        lambda: ModulusTable(BIG, 0.5).b_norm(WIDE), "modulus-route scale sum"
    ),
    "modulus": (lambda: hb.modulus(BIG, 0.25, 2.0), "modulus-route difference table"),
    "b_norm_modulus": (lambda: hb.b_norm_modulus(BIG, WIDE), "modulus-route scale sum"),
    "a_norm": (lambda: hb.a_norm(BIG, WIDE), "approximation-route sum"),
    "a_norm_from_profile": (
        lambda: hb.a_norm_from_profile(hb.approximation_profile(BIG, 0.5), WIDE),
        "approximation-route sum",
    ),
    "approx_error": (lambda: hb.approx_error(BIG, 0, 2.0), "approximation-route error E_0"),
    "best_constant_error": (
        lambda: hb.best_constant_error(hb.ValueHistogram.from_pairs([(B, 0.5), (-B, 0.5)]), 2.0),
        "best-constant error",
    ),
    "square_function_norm": (lambda: hb.square_function_norm(BIG, 0.5), "square-function sum"),
    "b0_221_weighted_sum": (lambda: hb.b0_221_weighted_sum(BIG), "b0221 sum"),
    "lqlp_norm": (lambda: hb.lqlp_norm(hb.analyze(FINE), FINE_PRM), "lqlp norm"),
    "lqlp_norm_log2": (
        lambda: hb.lqlp_norm_log2(hb.analyze(FINE), FINE_PRM), -0.08 + 28 + math.log2(1e300)
    ),
    "fit_log2_slope": (
        # the true slope is 1e-200, but the sums of squares overflow
        lambda: hb.fit_log2_slope([(0.0, 1.0), (1e200, 2.0), (2e200, 4.0)]),
        "log2-slope fit",
    ),
    # not float-valued: the projection reads its coefficient through tensor_coefficient
    "rank_one_project": (
        lambda: hb.rank_one_project(TENSOR_2D, (2, 2)), "tensor-coefficient sum"
    ),
}

# float results with no row, and why
EXEMPT = {
    "stable_sum": "a building block: math.fsum's OverflowError reaches its callers, "
    "which convert it",
    "logsumexp2": "a log2-domain building block; its callers check the value they "
    "raise 2 to",
    "signed_log2_sum": "a log2-domain building block; its callers check the value "
    "they raise 2 to",
    "HaarCoefficients.coefficient": "reads one stored coefficient; it computes nothing",
    "critical_smoothness": "the formula d(1/p - 1) on classify-sweep's hot loop; for p "
    "below 1/DBL_MAX it is +inf, the limit classify compares s with",
}


def float_results():
    """Every public callable annotated to return a float or a tuple holding one."""
    for qual, fn in public_callables():
        ann = str(inspect.signature(fn).return_annotation)  # annotations are strings
        if ann == "float" or ann.startswith("tuple[") and "float" in ann:
            yield qual


def test_every_public_float_result_has_a_row():
    found = set(float_results())
    assert found - set(ROWS) - set(EXEMPT) == set(), "float results with no ROWS row"
    assert set(EXEMPT) <= found, "exemptions that name no public float result"
    assert set(ROWS) - found == {"rank_one_project"}, "rows that name no float result"


@pytest.mark.parametrize("case", ROWS)
def test_overflowing_results_raise_by_route_or_are_exact(case):
    call, expect = ROWS[case]
    if isinstance(expect, str):
        with pytest.raises(ValueError, match=f"^the {expect} overflows double range$"):
            call()
    else:
        assert call() == pytest.approx(expect, rel=1e-15)
