import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import partfuse
from partfuse.fusion import (
    agreement_part_sem,
    agreement_sem_inst,
    mask_threshold,
    sigmoid_rescaled,
)

# closed-form values frozen from 2/(1+exp(-x)) - 1 and the two products
TANH_1 = 0.7615941559557649
APS_2_2 = 6.092753247646117
APS_3_2 = 8.333712048003157
ASI_2_2 = 7.0463766238230585


def test_sigmoid_rescaled_at_zero():
    assert sigmoid_rescaled(0.0) == 0.0


def test_sigmoid_rescaled_closed_form():
    assert sigmoid_rescaled(2.0) == pytest.approx(TANH_1, abs=1e-12)
    assert sigmoid_rescaled(-2.0) == pytest.approx(-TANH_1, abs=1e-12)


def test_sigmoid_rescaled_is_odd_and_increasing():
    xs = np.linspace(-20.0, 20.0, 1001)
    ys = sigmoid_rescaled(xs)
    assert np.allclose(ys, -sigmoid_rescaled(-xs), atol=1e-12)
    assert (np.diff(ys) > 0).all()
    assert (ys > -1).all() and (ys < 1).all()


def test_sigmoid_rescaled_matches_half_tanh():
    xs = np.linspace(-20.0, 20.0, 1000)
    assert np.abs(sigmoid_rescaled(xs) - np.tanh(xs / 2.0)).max() < 1e-12


def test_sigmoid_rescaled_extreme_inputs():
    assert sigmoid_rescaled(800.0) == pytest.approx(1.0, abs=1e-12)
    assert sigmoid_rescaled(-800.0) == pytest.approx(-1.0, abs=1e-12)


def test_agreement_part_sem_values():
    assert agreement_part_sem(2.0, -2.0) == 0.0
    assert agreement_part_sem(2.0, 2.0) == pytest.approx(APS_2_2, abs=1e-12)
    assert agreement_part_sem(3.0, 2.0) == pytest.approx(APS_3_2, abs=1e-12)


def test_agreement_part_sem_cancels_opposites():
    rng = np.random.default_rng(0)
    a = rng.normal(scale=5.0, size=10_000)
    assert np.abs(agreement_part_sem(a, -a)).max() < 1e-9


def test_agreement_functions_symmetric():
    rng = np.random.default_rng(1)
    a = rng.normal(scale=4.0, size=10_000)
    b = rng.normal(scale=4.0, size=10_000)
    assert np.abs(agreement_part_sem(a, b) - agreement_part_sem(b, a)).max() < 1e-12
    assert np.abs(agreement_sem_inst(a, b) - agreement_sem_inst(b, a)).max() < 1e-12


def test_agreement_part_sem_diagonal_amplifies():
    # f(a, a) = 4a * sigma'(a): nonnegative, nondecreasing in |a|
    a = np.linspace(0.0, 10.0, 500)
    diag = agreement_part_sem(a, a)
    assert np.allclose(diag, 4.0 * a * sigmoid_rescaled(a), atol=1e-12)
    assert (diag >= 0).all()
    assert (np.diff(diag) >= 0).all()
    neg = agreement_part_sem(-a, -a)
    assert np.allclose(neg, diag, atol=1e-12)  # even along the diagonal


def test_agreement_part_sem_monotone_on_nonnegative_orthant():
    # finite differences against the analytic partial derivative
    def sigma(x):
        return 1.0 / (1.0 + np.exp(-x))

    def partial_a(a, b):
        return 2.0 * sigma(a) * (1.0 - sigma(a)) * (a + b) + sigmoid_rescaled(
            a
        ) + sigmoid_rescaled(b)

    grid = np.linspace(0.0, 6.0, 25)
    a, b = np.meshgrid(grid, grid)
    a, b = a.ravel(), b.ravel()
    step = 1e-4
    numeric = (agreement_part_sem(a + step, b) - agreement_part_sem(a - step, b)) / (
        2 * step
    )
    analytic = partial_a(a, b)
    assert np.abs(numeric - analytic).max() < 1e-6
    assert (analytic >= 0).all()  # nondecreasing in each argument there


def test_agreement_sem_inst_values():
    assert agreement_sem_inst(0.0, 0.0) == 0.0
    assert agreement_sem_inst(1.0, -1.0) == pytest.approx(0.0, abs=1e-12)
    assert agreement_sem_inst(2.0, 2.0) == pytest.approx(ASI_2_2, abs=1e-12)


def assert_agreement_sem_inst_near_expit():
    """agreement_sem_inst is within 4 ulp of the same product through
    scipy.special.expit, and warns about nothing, overflow included."""
    from scipy.special import expit

    rng = np.random.default_rng(5)
    draws = [
        rng.normal(scale=4.0, size=(2, 200_000)),
        rng.normal(scale=30.0, size=(2, 200_000)),
        rng.uniform(-800.0, 800.0, size=(2, 200_000)),
    ]
    scalars = [(-40.0, -40.0), (-60.0, -60.0), (-800.0, -750.0), (-800.0, 750.0), (3.5, -2.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a, b in draws:
            want = (expit(a) + expit(b)) * (a + b)
            ulps = np.abs(agreement_sem_inst(a, b) - want) / np.spacing(np.abs(want))
            assert ulps.max() <= 4, ulps.max()
        for a, b in scalars:
            got = agreement_sem_inst(a, b)
            want = float((expit(a) + expit(b)) * (a + b))
            assert isinstance(got, float)
            assert abs(got - want) <= 4 * np.spacing(abs(want))
    # 1 + (tanh(a/2) + tanh(b/2)) / 2 cancels to 0 here
    assert agreement_sem_inst(-40.0, -40.0) < 0.0


def test_agreement_sem_inst_near_expit():
    assert_agreement_sem_inst_near_expit()


@pytest.mark.parametrize(
    "disabled", ["X86_V4 AVX512_ICL AVX512_SPR", "X86_V4 AVX512_ICL AVX512_SPR X86_V3"]
)
def test_agreement_sem_inst_near_expit_without_wide_simd(disabled):
    # NumPy picks its exp kernel by CPU feature at import, so each SIMD
    # level needs its own interpreter; names this NumPy or CPU does not
    # dispatch on are ignored with an ImportWarning
    paths = [Path(partfuse.__file__).resolve().parents[1], Path(__file__).parent]
    path = os.pathsep.join([*map(str, paths), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path, "NPY_DISABLE_CPU_FEATURES": disabled}
    check = "import test_fusion_math as t; t.assert_agreement_sem_inst_near_expit()"
    child = subprocess.run([sys.executable, "-c", check], env=env,
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr


def test_agreement_sem_inst_monotone_on_nonnegative_orthant():
    def sigma(x):
        return 1.0 / (1.0 + np.exp(-x))

    def partial_a(a, b):
        return sigma(a) * (1.0 - sigma(a)) * (a + b) + sigma(a) + sigma(b)

    grid = np.linspace(0.0, 6.0, 25)
    a, b = np.meshgrid(grid, grid)
    a, b = a.ravel(), b.ravel()
    step = 1e-4
    numeric = (agreement_sem_inst(a + step, b) - agreement_sem_inst(a - step, b)) / (
        2 * step
    )
    analytic = partial_a(a, b)
    assert np.abs(numeric - analytic).max() < 1e-6
    assert (analytic >= 0).all()


def test_uncertainty_passthrough_shape():
    # with one logit at zero the output follows the other head's logit
    for x in (-5.0, -1.0, 0.5, 3.0):
        assert agreement_part_sem(x, 0.0) == pytest.approx(
            x * sigmoid_rescaled(x), abs=1e-12
        )


def test_scalars_stay_scalars_and_arrays_stay_arrays():
    assert isinstance(agreement_part_sem(1.0, 2.0), float)
    out = agreement_part_sem(np.ones(3), np.ones(3))
    assert isinstance(out, np.ndarray) and out.shape == (3,)


# ------------------------------------------------------------------ mask threshold

F32_TINY = float(np.finfo(np.float32).smallest_subnormal)
F64_TINY = float(np.finfo(np.float64).smallest_subnormal)
# just below -FLT_MAX: float32 rounds it up to -FLT_MAX, one step under which is -inf
BELOW_F32_MIN = float(np.nextafter(float(np.finfo(np.float32).min), -np.inf))
SPECIAL_THRESHOLDS = (
    0.0, -0.0, F32_TINY, -F32_TINY, F64_TINY, -F64_TINY, 1e-40, -1e-40, 1e39, -1e39, BELOW_F32_MIN
)


@st.composite
def thresholds(draw):
    """A float32 value, a float64 ulp either side of it, the midpoint to
    the next float32, a special value, or any finite float64."""
    kind = draw(st.sampled_from(["at", "above", "below", "between", "special", "any"]))
    if kind == "special":
        return draw(st.sampled_from(SPECIAL_THRESHOLDS))
    if kind == "any":
        return draw(st.floats(allow_nan=False, allow_infinity=False))
    base = np.float32(draw(st.floats(width=32, allow_nan=False, allow_infinity=False)))
    t = float(base)
    if kind == "above":
        return float(np.nextafter(t, np.inf))
    if kind == "below":
        return float(np.nextafter(t, -np.inf))
    if kind == "between":
        with np.errstate(over="ignore"):
            upper = np.nextafter(base, np.float32(np.inf))
        return (t + float(upper)) / 2 if np.isfinite(upper) else t
    return t


def around(t, dtype):
    """Mask values at and next to ``t`` in ``dtype``, plus signed zeros."""
    with np.errstate(over="ignore"):
        near = dtype(t)
        values = [near, dtype(0.0), dtype(-0.0)]
        for direction in (np.inf, -np.inf):
            step = near
            for _ in range(2):
                step = np.nextafter(step, dtype(direction))
                values.append(step)
    return [v for v in values if np.isfinite(v)]


@settings(max_examples=400, deadline=None)
@given(
    t=thresholds(),
    dtype=st.sampled_from([np.float32, np.float64]),
    extra=st.lists(st.floats(width=32, allow_nan=False, allow_infinity=False), max_size=8),
)
@example(t=BELOW_F32_MIN, dtype=np.float32, extra=[])
def test_mask_threshold_footprint_is_the_float64_comparison(t, dtype, extra):
    mask = np.array(around(t, dtype) + extra, dtype=dtype)
    threshold = mask_threshold(mask.dtype, t)
    # the comparison runs in the mask's own dtype
    assert threshold.dtype == mask.dtype
    assert np.array_equal(mask > threshold, mask.astype(np.float64) > t)


def test_mask_threshold_keeps_float32_tenth_above_a_tenth():
    # float32(0.1) is above 0.1; rounding 0.1 to float32 would drop it
    mask = np.array([0.1, np.nextafter(np.float32(0.1), np.float32(-1))], dtype=np.float32)
    assert (mask > mask_threshold(mask.dtype, 0.1)).tolist() == [True, False]
