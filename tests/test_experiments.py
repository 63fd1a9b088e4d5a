"""Tests for the convergence-study harness.

Error estimation and order fitting are checked against hand-computable
values and an independent least-squares implementation; the study runners
are checked for determinism, correct sample accounting, and agreement with
closed-form second moments where those exist.
"""

import warnings

import numpy as np
import pytest

from levyheat.experiments import (
    OrderReport,
    StudyPlan,
    StudyResult,
    _block_norms,
    _collect_norms,
    _coupled_norms,
    _holder_norms,
    _run_block,
    block_size,
    estimate_lp_error,
    fit_order,
    run_holder_study,
    run_spatial_study,
    run_study,
    run_temporal_study,
)
from levyheat.noise import (
    PURPOSE_JUMPS,
    G1Spec,
    MarkModel,
    TwoPointLaw,
    compensated_jump_convolution,
    conv_variance,
    power_profile,
    sample_jump_skeleton,
    sample_path,
    stream,
)
from levyheat.schemes import (
    SCHEME_A,
    SCHEME_B,
    DivergenceError,
    SchemeConfig,
    run_scheme_A,
    run_scheme_B,
)
from levyheat.spectral import NonlinearitySpec, SpectralState, eigenvalues, hnorm


def unit_state(n, k=0):
    c = np.zeros(n)
    c[k] = 1.0
    return SpectralState(c)


def tiny_model(n, intensity=1.0, g1=None):
    law = TwoPointLaw(0.5, 1.0, -1.0)
    if g1 is None:
        g1 = G1Spec("zero", 0.0)
    return MarkModel(intensity, law, power_profile(1.0, 2.0, n), g1)


def make_plan(**overrides):
    base = dict(
        name="unit",
        axis="temporal",
        levels=(2.0**-2, 2.0**-3, 2.0**-4),
        n_ref=4,
        dt_ref=2.0**-6,
        p_list=(2.0,),
        samples=100,
        scheme="jump_adapted_A",
        horizon=0.5,
        # with f = 0 and additive centred jumps the coupled error vanishes
        # identically (exact convolution increments telescope), so studies
        # need a nonlinearity to have anything to measure
        nonlinearity=NonlinearitySpec.sine(1.0),
        model=tiny_model(4),
        x0=unit_state(4),
        seed=11,
    )
    base.update(overrides)
    return StudyPlan(**base)


# ---------------------------------------------------------------------------
# estimate_lp_error


def test_lp_error_identical_samples_is_zero():
    xs = [unit_state(3), unit_state(3, 1), unit_state(3, 2)]
    err, half = estimate_lp_error(xs, list(xs), 2.0)
    assert err == 0.0
    assert half == 0.0


def test_lp_error_unit_differences():
    # every pair differs by a norm-one state, so the L^p error is 1 for all p
    ref = [unit_state(3), unit_state(3)]
    coarse = [SpectralState(np.zeros(3)), SpectralState(np.zeros(3))]
    for p in (2.0, 4.0, 8.0):
        err, half = estimate_lp_error(ref, coarse, p)
        assert err == pytest.approx(1.0, abs=1e-15)
        assert half == pytest.approx(0.0, abs=1e-15)


def test_lp_error_mixed_norms_p2():
    # norms {0, 2} at p = 2: (mean(0, 4))^(1/2) = sqrt(2)
    ref = [unit_state(2), SpectralState([0.0, 2.0])]
    coarse = [unit_state(2), SpectralState(np.zeros(2))]
    err, half = estimate_lp_error(ref, coarse, 2.0)
    assert err == pytest.approx(np.sqrt(2.0), rel=1e-15)
    # resamples hit {0, 4} power sets: interval is strictly inside [0, 2]
    assert 0.0 < half < 2.0


def test_lp_error_bootstrap_seed_determinism():
    rng = np.random.default_rng(5)
    ref = [SpectralState(rng.normal(size=4)) for _ in range(40)]
    coarse = [SpectralState(rng.normal(size=4)) for _ in range(40)]
    a = estimate_lp_error(ref, coarse, 4.0, seed=7)
    b = estimate_lp_error(ref, coarse, 4.0, seed=7)
    c = estimate_lp_error(ref, coarse, 4.0, seed=8)
    assert a == b
    assert a[0] == c[0]  # the point estimate ignores the seed
    assert a[1] != c[1]


def test_lp_error_rejects_bad_input():
    xs = [unit_state(2)]
    with pytest.raises(ValueError):
        estimate_lp_error(xs, xs + xs, 2.0)
    with pytest.raises(ValueError):
        estimate_lp_error([], [], 2.0)
    with pytest.raises(ValueError):
        estimate_lp_error(xs, xs, 1.5)


# ---------------------------------------------------------------------------
# fit_order


def test_fit_order_exact_power_law():
    dts = np.array([2.0**-k for k in range(3, 9)])
    order, stderr = fit_order(dts, 0.7 * dts**0.5)
    assert order == pytest.approx(0.5, abs=1e-12)
    assert stderr == pytest.approx(0.0, abs=1e-12)


def test_fit_order_constant_errors():
    dts = np.array([2.0**-k for k in range(3, 7)])
    order, stderr = fit_order(dts, np.full(4, 0.3))
    assert order == pytest.approx(0.0, abs=1e-14)
    assert stderr == pytest.approx(0.0, abs=1e-14)


def test_fit_order_matches_polyfit_under_noise():
    rng = np.random.default_rng(314)
    dts = np.array([2.0**-k for k in range(3, 9)])
    errors = 0.7 * dts**0.5 * (1.0 + rng.uniform(-0.01, 0.01, dts.size))
    order, stderr = fit_order(dts, errors)
    slope_ref = np.polyfit(np.log(dts), np.log(errors), 1)[0]
    assert order == pytest.approx(slope_ref, rel=1e-12)
    assert abs(order - 0.5) < 0.02
    assert 0.0 < stderr < 0.02


def test_fit_order_rejects_degenerate_input():
    with pytest.raises(ValueError):
        fit_order([0.5, 0.25], [1.0, 0.5])
    with pytest.raises(ValueError):
        fit_order([0.5, 0.25, 0.125], [1.0, 0.0, 0.5])
    with pytest.raises(ValueError):
        fit_order([0.25, 0.25, 0.25], [1.0, 1.0, 1.0])


# ---------------------------------------------------------------------------
# plan validation


def test_plan_rejects_non_dyadic_temporal_level():
    with pytest.raises(ValueError, match="power of two"):
        make_plan(levels=(3.0 * 2.0**-6,))
    with pytest.raises(ValueError, match="power of two"):
        make_plan(levels=(2.0**-7,))  # finer than the reference


def test_plan_rejects_bad_spatial_levels():
    with pytest.raises(ValueError, match="outside"):
        make_plan(axis="spatial", levels=(2, 8), n_ref=4)
    with pytest.raises(ValueError, match="integer"):
        make_plan(axis="spatial", levels=(2.5,), n_ref=4)


def test_plan_holder_needs_additive_jumps():
    g1 = G1Spec("constant", 0.3)
    with pytest.raises(ValueError, match="additive"):
        make_plan(axis="holder", levels=(2.0**-4,), model=tiny_model(4, g1=g1))


def test_plan_holder_increment_range():
    with pytest.raises(ValueError, match="increment"):
        make_plan(axis="holder", levels=(0.3,))  # > horizon / 2


def test_plan_small_sample_warning():
    with pytest.warns(UserWarning, match="fewer than 100"):
        make_plan(samples=50)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        make_plan(samples=100)


def test_plan_rejects_misc_bad_fields():
    with pytest.raises(ValueError):
        make_plan(axis="modal")
    with pytest.raises(ValueError):
        make_plan(scheme="euler")
    with pytest.raises(ValueError):
        make_plan(name="a/b")
    with pytest.raises(ValueError):
        make_plan(horizon=0.3)  # not a multiple of dt_ref
    with pytest.raises(ValueError):
        make_plan(p_list=(1.0,))
    with pytest.raises(ValueError):
        make_plan(samples=0)


def test_plan_rejects_level_at_dt_ref_naming_the_field():
    # its coupled error is identically zero, so no order could be fitted
    with pytest.raises(ValueError, match=r"levels\[2\].*equals dt_ref"):
        make_plan(levels=(2.0**-2, 2.0**-3, 2.0**-6))


def test_plan_rejects_spatial_level_at_n_ref_naming_the_field():
    with pytest.raises(ValueError, match=r"levels\[1\].*equals n_ref"):
        make_plan(axis="spatial", levels=(2, 4), n_ref=4)


def test_plan_rejects_horizon_off_a_temporal_level_naming_the_field():
    # horizon 0.75 is a multiple of dt_ref but not of the level 0.5
    with pytest.raises(ValueError, match=r"levels\[0\].*horizon 0.75"):
        make_plan(levels=(0.5, 0.25), horizon=0.75)


def test_order_report_invariants():
    lv = np.array([0.5, 0.25, 0.125])
    err = np.array([1.0, 0.7, 0.5])
    rep = OrderReport(2.0, lv, err, err * 0.9, err * 1.1, 0.5, 0.01, 0.0)
    assert np.allclose(rep.half_widths, err * 0.1)
    with pytest.raises(ValueError, match="positive"):
        OrderReport(2.0, lv, np.array([1.0, 0.0, 0.5]), err, err)
    with pytest.raises(ValueError, match="reversed"):
        OrderReport(2.0, lv, err, err * 1.1, err * 0.9)
    with pytest.raises(ValueError, match="align"):
        OrderReport(2.0, lv, err[:2], err[:2], err[:2])


# ---------------------------------------------------------------------------
# study runners


def test_temporal_study_determinism_and_accounting():
    plan = make_plan()
    res1 = run_temporal_study(plan)
    res2 = run_temporal_study(plan)
    assert res1.aborts == 0
    assert res1.effective_samples == plan.samples
    for r1, r2 in zip(res1.reports, res2.reports):
        assert np.array_equal(r1.errors, r2.errors)
        assert np.array_equal(r1.ci_lo, r2.ci_lo)
        assert np.array_equal(r1.ci_hi, r2.ci_hi)
        assert r1.order == r2.order and r1.stderr == r2.stderr


def test_temporal_errors_decrease_with_dt():
    res = run_temporal_study(make_plan())
    for rep in res.reports:
        # levels are stored coarse-to-fine as given: (1/4, 1/8, 1/16)
        assert rep.errors[0] > rep.errors[1] > rep.errors[2]


def test_duplicate_levels_give_identical_errors():
    plan = make_plan(levels=(2.0**-2, 2.0**-3, 2.0**-3))
    res = run_temporal_study(plan)
    for rep in res.reports:
        assert rep.errors[1] == rep.errors[2]


def test_p_monotonicity_on_shared_samples():
    plan = make_plan(p_list=(2.0, 4.0, 8.0))
    res = run_temporal_study(plan)
    e2 = res.report_for(2.0).errors
    e4 = res.report_for(4.0).errors
    e8 = res.report_for(8.0).errors
    assert np.all(e2 <= e4 + 1e-15)
    assert np.all(e4 <= e8 + 1e-15)


def test_single_level_plan_has_no_fit():
    plan = make_plan(levels=(2.0**-3,))
    res = run_temporal_study(plan)
    rep = res.reports[0]
    assert rep.order is None and rep.stderr is None
    assert rep.errors.shape == (1,)


def test_run_study_dispatch_matches_direct_call():
    plan = make_plan()
    direct = run_temporal_study(plan)
    routed = run_study(plan)
    assert np.array_equal(direct.reports[0].errors, routed.reports[0].errors)
    with pytest.raises(ValueError, match="axis"):
        run_spatial_study(plan)


def test_worker_pool_matches_serial():
    plan = make_plan(levels=(2.0**-3,), samples=100)
    serial = run_temporal_study(plan, workers=1)
    pooled = run_temporal_study(plan, workers=2)
    assert np.array_equal(serial.reports[0].errors, pooled.reports[0].errors)
    assert serial.aborts == pooled.aborts == 0


def test_all_samples_aborting_raises():
    plan = make_plan(
        nonlinearity=NonlinearitySpec.linear(1e25),
        levels=(2.0**-2,),
        samples=100,
    )
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(RuntimeError, match="aborted"):
            run_temporal_study(plan)


def test_spatial_study_errors_decay_in_n():
    plan = make_plan(
        axis="spatial",
        levels=(2, 4),
        n_ref=8,
        dt_ref=2.0**-5,
        model=tiny_model(8),
        x0=unit_state(8),
        samples=100,
    )
    res = run_spatial_study(plan)
    rep = res.reports[0]
    assert rep.errors[0] > rep.errors[1] > 0
    assert rep.order is None  # two levels only


def test_holder_study_matches_closed_form_isometry():
    # With additive jumps the p = 2 increment norm has an exact second
    # moment: nu E[xi^2] sum_k phi_k^2 [(1 - e^{-lam h})^2 v_k(t) + v_k(h)]
    # with v_k the unit-forcing convolution variance.  The study estimate
    # must agree within Monte Carlo error.
    n = 6
    model = tiny_model(n, intensity=4.0)
    plan = make_plan(
        axis="holder",
        levels=(2.0**-3, 2.0**-2),
        n_ref=n,
        model=model,
        x0=unit_state(n),
        samples=4000,
        p_list=(2.0,),
        horizon=1.0,
        dt_ref=2.0**-4,
    )
    res = run_holder_study(plan)
    rep = res.reports[0]
    lam = eigenvalues(n)
    phi = model.profile.coeffs
    t = plan.horizon / 2.0
    second = model.intensity * model.law.mean_square()
    for j, h in enumerate(plan.levels):
        v = second * np.sum(
            phi**2
            * ((1.0 - np.exp(-lam * h)) ** 2 * conv_variance(lam, t)
               + conv_variance(lam, h))
        )
        assert rep.errors[j] == pytest.approx(np.sqrt(v), rel=0.1)


def test_holder_norms_match_per_sample_jump_convolutions():
    # loop oracle: the H-norm of N(t + h) - N(t) from each sample's own
    # skeleton, with the compensator of an asymmetric (non-centred) law
    n = 8
    model = MarkModel(3.0, TwoPointLaw(0.5, 2.0, -1.0),
                      power_profile(1.0, 2.0, n))
    plan = make_plan(axis="holder", levels=(2.0**-10, 2.0**-6, 2.0**-2),
                     n_ref=n, model=model, x0=unit_state(n), samples=200,
                     horizon=1.0, dt_ref=2.0**-10)
    norms = _holder_norms(plan)
    t = plan.horizon / 2.0
    expect = np.empty_like(norms)
    for i in range(plan.samples):
        sk = sample_jump_skeleton(plan.horizon, model,
                                  stream(plan.seed, i, PURPOSE_JUMPS))
        for j, h in enumerate(plan.levels):
            expect[i, j] = hnorm(
                compensated_jump_convolution(sk, model, n, t + h)
                - compensated_jump_convolution(sk, model, n, t))
    assert np.allclose(norms, expect, rtol=1e-12, atol=0.0)


def test_holder_study_zero_jump_model_rejected():
    plan = make_plan(
        axis="holder",
        levels=(2.0**-4,),
        model=tiny_model(4, intensity=0.0),
    )
    with pytest.raises(ValueError, match="vanish"):
        run_holder_study(plan)


def test_study_result_report_lookup():
    plan = make_plan(p_list=(2.0, 4.0), levels=(2.0**-3,))
    res = run_temporal_study(plan)
    assert res.report_for(4.0).p == 4.0
    with pytest.raises(KeyError):
        res.report_for(6.0)
    assert isinstance(res, StudyResult)


# ---------------------------------------------------------------------------
# the block worker against runs of one sample alone


def _resolutions(plan):
    if plan.axis == "temporal":
        return [(plan.dt_ref, plan.n_ref)] + [(dt, plan.n_ref)
                                              for dt in plan.levels]
    return [(plan.dt_ref, plan.n_ref)] + [(plan.dt_ref, n)
                                          for n in plan.levels]


def _alone(plan, index):
    """One sample through the public runners: its terminal states at the
    reference and every level, or where it diverged (level, step, time)."""
    run = run_scheme_A if plan.scheme == SCHEME_A else run_scheme_B
    path = sample_path(plan.horizon, plan.dt_ref, plan.n_ref, plan.model,
                       plan.seed, index)
    finals = []
    for dt, n in _resolutions(plan):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            cfg = SchemeConfig(plan.scheme, n, dt, plan.horizon,
                               plan.nonlinearity, plan.model, plan.x0)
        try:
            finals.append(run(cfg, path).final)
        except DivergenceError as exc:
            level = dt if plan.axis == "temporal" else n
            return finals, (level, exc.step, exc.time)
    return finals, None


def _block_plan(scheme, axis, **overrides):
    base = dict(scheme=scheme, samples=9)
    if axis == "spatial":
        base.update(axis="spatial", levels=(2, 4), n_ref=8, dt_ref=2.0**-5,
                    model=tiny_model(8, g1=G1Spec.constant(0.3)),
                    x0=unit_state(8))
    else:
        base.update(model=tiny_model(4, g1=G1Spec.constant(0.3)))
    base.update(overrides)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return make_plan(**base)


@pytest.mark.filterwarnings("ignore:uniform-grid scheme")
@pytest.mark.parametrize("axis", ["temporal", "spatial"])
@pytest.mark.parametrize("scheme", [SCHEME_A, SCHEME_B])
def test_sample_is_bitwise_the_same_in_any_block(scheme, axis):
    plan = _block_plan(scheme, axis)
    i = 5
    finals, diverged = _alone(plan, i)
    assert diverged is None
    alone_terms, aborted = _run_block(plan, [i])
    assert aborted == []
    for j, final in enumerate(finals):
        n = final.dim
        assert alone_terms[0, j, :n].tobytes() == final.coeffs.tobytes()
        assert not alone_terms[0, j, n:].any()
    expected = np.array([hnorm(finals[0] - f) for f in finals[1:]])
    assert _coupled_norms(alone_terms)[0].tobytes() == expected.tobytes()

    four, _ = _run_block(plan, range(4, 8))
    seven, _ = _run_block(plan, [11, 5, 0, 3, 12, 13, 2])
    # samples 5..8: the partial last block of a nine-sample plan
    partial, _ = _block_norms(plan, 7, 5)
    assert four[1].tobytes() == alone_terms[0].tobytes()
    assert seven[1].tobytes() == alone_terms[0].tobytes()
    assert partial.shape == (4, len(plan.levels))
    assert partial[0].tobytes() == expected.tobytes()


def test_block_size_from_the_byte_budget():
    # 2^12 steps x 64 modes x 8 bytes = 2 MiB a path: four per block, or
    # three copies of the uniform scheme's reference increments while the
    # fourth path is restricted
    plan = _block_plan(SCHEME_A, "temporal", n_ref=64, dt_ref=2.0**-12,
                       levels=(2.0**-4,), horizon=1.0,
                       model=tiny_model(64), x0=unit_state(64))
    assert block_size(plan) == 4
    wide = _block_plan(SCHEME_B, "spatial", n_ref=256, dt_ref=2.0**-10,
                       levels=(4,), horizon=1.0,
                       model=tiny_model(256), x0=unit_state(256))
    assert block_size(wide) == 3
    assert block_size(make_plan()) == 32
    holder = make_plan(axis="holder", levels=(2.0**-4,))
    assert block_size(holder) is None


def _diverging_plan(scheme, axis):
    # one mode, symmetric jumps of 1.2e308: a path overflows only where two
    # same-signed jumps fall close together, so some samples abort
    law = TwoPointLaw(0.5, 1.2e308, -1.2e308)
    n = 1 if axis == "temporal" else 4
    model = MarkModel(4.0, law, power_profile(1.0, 2.0, n))
    levels = (2.0**-2, 2.0**-3, 2.0**-4) if axis == "temporal" else (1, 2)
    return _block_plan(scheme, axis, levels=levels, n_ref=n, dt_ref=2.0**-6,
                       model=model, x0=unit_state(n), samples=24)


@pytest.mark.parametrize("axis", ["temporal", "spatial"])
@pytest.mark.parametrize("scheme", [SCHEME_A, SCHEME_B])
def test_aborted_samples_are_recorded_and_leave_companions_intact(scheme,
                                                                  axis):
    plan = _diverging_plan(scheme, axis)
    expected_aborts, expected_norms = [], []
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(plan.samples):
            finals, diverged = _alone(plan, i)
            if diverged is None:
                expected_norms.append([hnorm(finals[0] - f)
                                       for f in finals[1:]])
            else:
                level, step, t = diverged
                expected_aborts.append(
                    {"index": i, "level": level, "step": step, "time": t})
        norms, aborted = _collect_norms(plan, workers=1)
        result = run_study(plan)
    assert 0 < len(expected_aborts) < plan.samples
    assert aborted == expected_aborts
    assert norms.tobytes() == np.array(expected_norms).tobytes()
    assert result.aborts == len(expected_aborts)
    assert result.extras["aborted"] == expected_aborts
