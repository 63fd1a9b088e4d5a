"""Tests for the convergence-study harness.

Error estimation and order fitting are checked against hand-computable
values and an independent least-squares implementation; the study runners
are checked for determinism, correct sample accounting, and agreement with
closed-form second moments where those exist.
"""

import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from levyheat import experiments, noise
from levyheat.experiments import (
    MAX_BLOCK,
    OrderReport,
    StudyPlan,
    StudyResult,
    _block_norms,
    _blocking,
    _build_reports,
    _collect_norms,
    _coupled_norms,
    _run_block,
    block_size,
    fit_order,
    run_study,
)
from levyheat.noise import (
    PURPOSE_JUMPS,
    PURPOSE_WIENER,
    G1Spec,
    MarkModel,
    PathStream,
    TwoPointLaw,
    compensated_jump_convolution,
    compensator_coeffs,
    conv_variance,
    power_profile,
    restrict_chunk,
    restrict_path,
    sample_jump_skeleton,
    sample_jump_skeletons,
    sample_path,
    stream,
    truncate_levy,
    uniform_nodes,
)
from levyheat.schemes import (
    SCHEME_A,
    SCHEME_B,
    DivergenceError,
    SchemeConfig,
    run_scheme_A,
    run_scheme_B,
    stretch_nodes,
)
from levyheat.spectral import (
    NonlinearitySpec,
    SpectralState,
    eigenvalues,
    hnorm,
    project,
)


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
# L^p error estimation


def lp_error(ref, coarse, p, seed=0):
    """The L^p distance of two coupled samples of states and half the width
    of its bootstrap interval, through the estimator the studies use."""
    terminals = np.stack([[x.coeffs for x in ref], [x.coeffs for x in coarse]],
                         axis=1)
    norms = _coupled_norms(terminals)[:, 0]
    rng = stream(seed, 0, noise.PURPOSE_BOOTSTRAP)
    err, lo, hi, _ = experiments._lp_level(norms, p, rng)
    return err, (hi - lo) / 2.0


def lp_point(norms, p):
    """The L^p error alone of `_lp_level` (the seed moves only its
    interval)."""
    return experiments._lp_level(norms, p,
                                 stream(0, 0, noise.PURPOSE_BOOTSTRAP))[0]


def test_lp_error_identical_samples_is_zero():
    xs = [unit_state(3), unit_state(3, 1), unit_state(3, 2)]
    err, half = lp_error(xs, list(xs), 2.0)
    assert err == 0.0
    assert half == 0.0


def test_lp_error_unit_differences():
    # every pair differs by a norm-one state, so the L^p error is 1 for all p
    ref = [unit_state(3), unit_state(3)]
    coarse = [SpectralState(np.zeros(3)), SpectralState(np.zeros(3))]
    for p in (2.0, 4.0, 8.0):
        err, half = lp_error(ref, coarse, p)
        assert err == pytest.approx(1.0, abs=1e-15)
        assert half == pytest.approx(0.0, abs=1e-15)


def test_lp_error_mixed_norms_p2():
    # norms {0, 2} at p = 2: (mean(0, 4))^(1/2) = sqrt(2)
    ref = [unit_state(2), SpectralState([0.0, 2.0])]
    coarse = [unit_state(2), SpectralState(np.zeros(2))]
    err, half = lp_error(ref, coarse, 2.0)
    assert err == pytest.approx(np.sqrt(2.0), rel=1e-15)
    # resamples hit {0, 4} power sets: interval is strictly inside [0, 2]
    assert 0.0 < half < 2.0


def test_lp_error_bootstrap_seed_determinism():
    rng = np.random.default_rng(5)
    ref = [SpectralState(rng.normal(size=4)) for _ in range(40)]
    coarse = [SpectralState(rng.normal(size=4)) for _ in range(40)]
    a = lp_error(ref, coarse, 4.0, seed=7)
    b = lp_error(ref, coarse, 4.0, seed=7)
    c = lp_error(ref, coarse, 4.0, seed=8)
    assert a == b
    assert a[0] == c[0]  # the point estimate ignores the seed
    assert a[1] != c[1]


def _bootstrap_per_resample(norms, p, rng):
    """The bootstrap statistics drawn one resample at a time: one draw of m
    indices and one sum each (the oracle of the chunked draws)."""
    m = norms.size
    powers = norms**p
    stats = np.empty(experiments.N_BOOTSTRAP)
    for b in range(experiments.N_BOOTSTRAP):
        idx = rng.integers(0, m, m)
        stats[b] = (np.add.reduce(powers.take(idx)) / m) ** (1.0 / p)
    return stats


@pytest.mark.parametrize("m", [1, 7, 8, 9, 32, 129, 1000, 4097, 100000])
def test_chunked_bootstrap_matches_one_resample_at_a_time(monkeypatch, m):
    if m == 100000:
        # chunks of one resample here; fewer of them keep the test quick
        monkeypatch.setattr(experiments, "N_BOOTSTRAP", 40)
    seen = []
    percentile = np.percentile

    def record(stats, q):
        seen.append(stats.copy())
        return percentile(stats, q)

    monkeypatch.setattr(np, "percentile", record)
    norms = np.random.default_rng(m).exponential(size=m)
    ours = stream(3, 0, noise.PURPOSE_BOOTSTRAP)
    oracle = stream(3, 0, noise.PURPOSE_BOOTSTRAP)
    for p in (2.0, 4.0, 8.0):
        # two successive intervals from one stream, as reports draw them
        for _ in range(2):
            _, lo, hi, _ = experiments._lp_level(norms, p, ours)
            stats = _bootstrap_per_resample(norms, p, oracle)
            assert seen[-1].tobytes() == stats.tobytes()
            assert (lo, hi) == (float(percentile(stats, 2.5)),
                                float(percentile(stats, 97.5)))
    assert ours.integers(0, 2**62) == oracle.integers(0, 2**62)


def _extended_lp(norms, p):
    """mean(|e|^p)^(1/p) in extended precision (the scaled form's oracle);
    its range holds powers down to about 1e-4900."""
    wide = np.asarray(norms, dtype=np.longdouble)
    return float(np.mean(wide**p) ** (1 / np.longdouble(p)))


needs_wide = pytest.mark.skipif(
    np.finfo(np.longdouble).tiny >= np.finfo(np.float64).tiny,
    reason="long double has the range of a double here")


@needs_wide
@pytest.mark.parametrize("p", [2.0, 8.0, 300.0, 1000.0])
def test_scaled_lp_point_agrees_with_the_plain_form(p):
    # where mean(|e|^p) is a normal double the plain doubles stand; the
    # same norms scaled by 2^k (exactly) under- or overflow, and the scaled
    # form gives the plain value times 2^k to a few ulps, as it gives the
    # extended-precision norm
    norms = np.random.default_rng(7).uniform(0.5, 1.5, 64)
    plain = lp_point(norms, p)
    assert plain == float(np.mean(norms**p) ** (1.0 / p))
    for k in (-900, -200, 200, 900):
        scaled = lp_point(norms * 2.0**k, p)
        assert abs(scaled - plain * 2.0**k) <= 4 * np.spacing(scaled)
        wide = _extended_lp(norms, p) * 2.0**k
        assert abs(scaled - wide) <= 4 * np.spacing(scaled)
    assert lp_point(np.zeros(5), p) == 0.0


@needs_wide
def test_bootstrap_scales_only_the_resamples_that_underflow(monkeypatch):
    # one norm of order 1 among 19 of order 1e-3: at p = 300 a resample
    # that misses it underflows (about a third of them) and takes the
    # scaled form, the others keep their plain doubles
    seen = []
    percentile = np.percentile

    def record(stats, q):
        seen.append(stats.copy())
        return percentile(stats, q)

    monkeypatch.setattr(np, "percentile", record)
    rng = np.random.default_rng(11)
    norms = np.append(rng.uniform(1e-3, 2e-3, 19), 1.0)
    p = 300.0
    _, lo, hi, _ = experiments._lp_level(
        norms, p, stream(5, 0, noise.PURPOSE_BOOTSTRAP))
    oracle = stream(5, 0, noise.PURPOSE_BOOTSTRAP)
    plain = _bootstrap_per_resample(norms, p, oracle)
    oracle = stream(5, 0, noise.PURPOSE_BOOTSTRAP)
    draws = [oracle.integers(0, norms.size, norms.size)
             for _ in range(experiments.N_BOOTSTRAP)]
    under = plain == 0.0
    assert 0 < under.sum() < under.size / 2
    stats = seen[-1]
    assert stats[~under].tobytes() == plain[~under].tobytes()
    for b in np.nonzero(under)[0]:
        wide = _extended_lp(norms[draws[b]], p)
        assert 1e-3 <= stats[b] < 2e-3
        assert abs(stats[b] - wide) <= 4 * np.spacing(wide)
    assert 0.0 < lo < 2e-3 < hi < 1.0


def test_effective_sample_size_of_the_lp_weights():
    # M equal norms weigh the same: exactly M; one dominant norm: about 1
    def ess(norms, p):
        rng = stream(0, 0, noise.PURPOSE_BOOTSTRAP)
        return experiments._lp_level(norms, p, rng)[3]

    for p in (2.0, 8.0, 1000.0):
        assert ess(np.full(40, 0.3), p) == 40.0
        dominant = np.append(1.0, np.full(99, 1e-3))
        assert 1.0 <= ess(dominant, p) < 1.001


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


def test_warnings_name_the_line_that_builds_the_plan_or_config():
    # not the dataclass-generated __init__ that runs __post_init__, nor the
    # runner; a config of the uniform scheme with g1 > 0 does not warn, a
    # plan or a whole-path run of it does
    multiplicative = tiny_model(4, g1=G1Spec("constant", 0.3))
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        make_plan(samples=50)
        make_plan(scheme=SCHEME_B, model=multiplicative)
        cfg = SchemeConfig(SCHEME_B, 4, 0.25, 0.5, NonlinearitySpec.zero(),
                           multiplicative, unit_state(4))
        assert len(seen) == 2
        run_scheme_B(cfg, sample_path(0.5, 2.0**-4, 4, multiplicative, 3, 0))
    assert len(seen) == 3
    assert str(seen[0].message).startswith("fewer than 100 samples")
    assert str(seen[1].message) == str(seen[2].message)
    assert str(seen[1].message).startswith("uniform-grid scheme")
    assert [w.filename for w in seen] == [__file__] * 3


def test_plan_rejects_misc_bad_fields():
    with pytest.raises(ValueError):
        make_plan(axis="modal")
    with pytest.raises(ValueError):
        make_plan(scheme="euler")
    with pytest.raises(ValueError):
        make_plan(name="a/b")
    with pytest.raises(ValueError):
        make_plan(horizon=0.3)  # not a multiple of dt_ref
    for p in (1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="p values"):
            make_plan(p_list=(2.0, p))
    # a p named twice would get two reports, each with its own interval
    with pytest.raises(ValueError, match=r"^p_list\[2\]: p = 2 is named "
                       "twice"):
        make_plan(p_list=(2.0, 4.0, 2))
    # three or more levels are fitted, and equal ones have no slope
    with pytest.raises(ValueError, match="^levels: all 3 levels are 0.125, "
                       "so no order can be fitted$"):
        make_plan(levels=(2.0**-3,) * 3)
    with pytest.raises(ValueError):
        make_plan(samples=0)


@pytest.mark.parametrize("scheme, model, nonlinearity, field", [
    (SCHEME_A, tiny_model(4), NonlinearitySpec.zero(), "model.law"),
    (SCHEME_A, tiny_model(4), NonlinearitySpec.linear(0.0), "model.law"),
    (SCHEME_A, truncate_levy(0.5, 0.5, power_profile(1.0, 2.0, 4))[0],
     NonlinearitySpec.zero(), "model.law"),
    (SCHEME_A, tiny_model(4, intensity=0.0), NonlinearitySpec.zero(),
     "model.intensity"),
    (SCHEME_B, tiny_model(4, intensity=0.0), NonlinearitySpec.zero(),
     "model.intensity"),
    (SCHEME_B, tiny_model(4, intensity=0.0), NonlinearitySpec.linear(0.0),
     "model.intensity"),
])
def test_plan_refuses_a_temporal_plan_exact_at_every_level(scheme, model,
                                                           nonlinearity,
                                                           field):
    # F = 0, g1 = 0, and no jumps, or centred ones on the adapted scheme:
    # every coupled error is rounding (about 1e-16), so no order exists
    with pytest.raises(ValueError, match=rf"^{re.escape(field)}: with .*"
                       r"zero nonlinearity and a zero model\.g1"):
        make_plan(scheme=scheme, model=model, nonlinearity=nonlinearity)


def test_plan_keeps_temporal_plans_whose_coupled_error_is_not_rounding():
    # F = 0 and g1 = 0 with non-centred jumps on scheme A (the closed-form
    # truth test's case, E[xi] = 0.5) or centred ones on scheme B: each
    # level has a discretisation error far above rounding
    skewed = MarkModel(1.0, TwoPointLaw(0.5, 2.0, -1.0),
                       power_profile(1.0, 2.0, 4))
    assert skewed.law.mean() == 0.5
    for scheme, model, low in ((SCHEME_A, skewed, 0.005),
                               (SCHEME_B, tiny_model(4), 0.03)):
        plan = make_plan(scheme=scheme, model=model,
                         nonlinearity=NonlinearitySpec.zero())
        errors = run_study(plan).reports[0].errors
        assert (errors > low).all() and errors[0] > 2 * errors[-1]


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


@pytest.mark.parametrize("value", [math.inf, math.nan])
@pytest.mark.parametrize("field, overrides", [
    ("horizon", lambda v: dict(horizon=v)),
    ("dt_ref", lambda v: dict(dt_ref=v)),
    ("levels[1]", lambda v: dict(levels=(2.0**-2, v))),
    ("levels[1]", lambda v: dict(axis="spatial", n_ref=4, levels=(2, v))),
    ("levels[0]", lambda v: dict(axis="holder", levels=(v,))),
], ids=["horizon", "dt_ref", "temporal", "spatial", "holder"])
def test_plan_rejects_non_finite_numbers_naming_the_field(field, overrides,
                                                         value):
    # not an OverflowError or an unnamed ValueError from round() or int()
    with pytest.raises(ValueError, match="^" + re.escape(field) + ": "):
        make_plan(**overrides(value))


def test_order_report_invariants():
    lv = np.array([0.5, 0.25, 0.125])
    err = np.array([1.0, 0.7, 0.5])
    ess = np.array([90.0, 80.0, 70.0])
    rep = OrderReport(2.0, lv, err, err * 0.9, err * 1.1, ess, 0.5, 0.01)
    assert np.allclose(rep.half_widths, err * 0.1)
    assert not rep.ess.flags.writeable
    with pytest.raises(ValueError, match=r"p = 2, levels\[1\] = 0.25: L\^p "
                       r"error 0.0 is not positive: .*underflowed"):
        OrderReport(2.0, lv, np.array([1.0, 0.0, 0.5]), err, err, ess)
    with pytest.raises(ValueError, match="reversed"):
        OrderReport(2.0, lv, err, err * 1.1, err * 0.9, ess)
    with pytest.raises(ValueError, match="align"):
        OrderReport(2.0, lv, err[:2], err[:2], err[:2], ess[:2])
    with pytest.raises(ValueError, match="align"):
        OrderReport(2.0, lv, err, err, err, ess[:2])
    # an overflowing estimate is refused, naming p and the level
    big = np.array([1.0, np.inf, 0.5])
    with pytest.raises(ValueError, match=r"p = 4, levels\[1\] = 0.25: .*inf"):
        OrderReport(4.0, lv, big, err, big, ess)
    with pytest.raises(ValueError, match=r"levels\[2\] = 0.125: .*nan"):
        OrderReport(2.0, lv, err, err * np.array([1, 1, np.nan]), err, ess)


# ---------------------------------------------------------------------------
# study runners


def test_temporal_study_determinism_and_accounting():
    plan = make_plan()
    res1 = run_study(plan)
    res2 = run_study(plan)
    assert res1.aborts == 0
    assert res1.effective_samples == plan.samples
    for r1, r2 in zip(res1.reports, res2.reports):
        assert np.array_equal(r1.errors, r2.errors)
        assert np.array_equal(r1.ci_lo, r2.ci_lo)
        assert np.array_equal(r1.ci_hi, r2.ci_hi)
        assert r1.order == r2.order and r1.stderr == r2.stderr


def test_temporal_errors_decrease_with_dt():
    res = run_study(make_plan())
    for rep in res.reports:
        # levels are stored coarse-to-fine as given: (1/4, 1/8, 1/16)
        assert rep.errors[0] > rep.errors[1] > rep.errors[2]


def test_duplicate_levels_give_identical_errors():
    plan = make_plan(levels=(2.0**-2, 2.0**-3, 2.0**-3))
    res = run_study(plan)
    for rep in res.reports:
        assert rep.errors[1] == rep.errors[2]


def test_p_monotonicity_on_shared_samples():
    plan = make_plan(p_list=(2.0, 4.0, 8.0))
    res = run_study(plan)
    e2 = res.report_for(2.0).errors
    e4 = res.report_for(4.0).errors
    e8 = res.report_for(8.0).errors
    assert np.all(e2 <= e4 + 1e-15)
    assert np.all(e4 <= e8 + 1e-15)


def test_single_level_plan_has_no_fit():
    plan = make_plan(levels=(2.0**-3,))
    res = run_study(plan)
    rep = res.reports[0]
    assert rep.order is None and rep.stderr is None
    assert rep.errors.shape == (1,)


def test_run_study_dispatch_matches_direct_call():
    # run_study reports the gathered norms, negating the order only on the
    # spatial axis
    spatial = make_plan(axis="spatial", levels=(1, 2, 3), n_ref=4)
    for plan in (make_plan(), spatial):
        routed = run_study(plan)
        norms, aborted = _collect_norms(plan, 1)
        direct = _build_reports(plan, norms, plan.axis == "spatial")
        assert aborted == [] and routed.aborts == 0
        for r1, r2 in zip(direct, routed.reports, strict=True):
            for column in ("errors", "ci_lo", "ci_hi"):
                assert np.array_equal(getattr(r1, column), getattr(r2, column))
            assert (r1.order, r1.stderr) == (r2.order, r2.stderr)


def test_worker_pool_matches_serial():
    plan = make_plan(levels=(2.0**-3,), samples=100)
    serial = run_study(plan, workers=1)
    pooled = run_study(plan, workers=2)
    assert np.array_equal(serial.reports[0].errors, pooled.reports[0].errors)
    assert serial.aborts == pooled.aborts == 0


@pytest.mark.filterwarnings("ignore:fewer than 100 samples")
@pytest.mark.parametrize("workers, samples, started", [(8, 70, 3),
                                                       (2, 20, 1)])
def test_worker_pool_starts_no_more_workers_than_blocks(
        monkeypatch, workers, samples, started):
    # a forking pool starts all of its workers at once, so the pool is
    # asked for one worker per block at most; a stand-in pool records the
    # count and maps in this process
    import concurrent.futures

    asked = []

    class Pool:
        def __init__(self, max_workers=None):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    plan = make_plan(levels=(2.0**-3,), samples=samples)
    assert -(-samples // block_size(plan)) == started
    norms, _ = _collect_norms(plan, workers)
    assert asked == [started]
    assert norms.tobytes() == _collect_norms(plan, 1)[0].tobytes()


def test_run_study_rejects_a_worker_count_below_one():
    with pytest.raises(ValueError, match="worker count must be a positive"):
        run_study(make_plan(), workers=0)


def test_all_samples_aborting_raises():
    plan = make_plan(
        nonlinearity=NonlinearitySpec.linear(1e25),
        levels=(2.0**-2,),
        samples=100,
    )
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(RuntimeError, match="aborted"):
            run_study(plan)


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
    res = run_study(plan)
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
    res = run_study(plan)
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
    norms, aborted = _collect_norms(plan, workers=1)
    assert aborted == []
    t = plan.horizon / 2.0
    expect = np.empty_like(norms)
    for i in range(plan.samples):
        sk = sample_jump_skeleton(plan.horizon, model,
                                  stream(plan.seed, i, PURPOSE_JUMPS))
        for j, h in enumerate(plan.levels):
            expect[i, j] = hnorm(
                compensated_jump_convolution(plan.horizon, *sk, model, n,
                                             t + h)
                - compensated_jump_convolution(plan.horizon, *sk, model, n,
                                               t))
    assert np.allclose(norms, expect, rtol=1e-12, atol=0.0)


def _whole_array_holder_norms(plan):
    """The Hölder norms evaluated over every sample at once, as one call
    did before the study evaluated its samples in chunks."""
    t = plan.horizon / 2.0
    n = plan.n_ref
    lam = eigenvalues(n)
    phi = project(plan.model.profile, n).coeffs
    _, mean_g = compensator_coeffs(plan.model, n)
    mg = mean_g.coeffs

    m_samples = plan.samples
    times, xis, counts = sample_jump_skeletons(plan.horizon, plan.model,
                                               plan.seed, range(m_samples))
    owner = np.repeat(np.arange(m_samples), counts)

    old = times <= t
    s_old = np.zeros((m_samples, n))
    if np.any(old):
        decay = xis[old, None] * np.exp(-lam[None, :] * (t - times[old, None]))
        for k in range(n):
            s_old[:, k] = np.bincount(owner[old], weights=decay[:, k],
                                      minlength=m_samples)
    s_old *= phi

    norms = np.empty((m_samples, len(plan.levels)))
    for j, h in enumerate(plan.levels):
        delta = s_old * np.expm1(-lam * h)
        fresh = (t < times) & (times <= t + h)
        if np.any(fresh):
            rows = xis[fresh, None] * np.exp(
                -lam[None, :] * (t + h - times[fresh, None])
            ) * phi
            np.add.at(delta, owner[fresh], rows)
        comp = (np.expm1(-lam * (t + h)) - np.expm1(-lam * t)) / lam * mg
        delta += comp
        norms[:, j] = np.sqrt(np.einsum("ij,ij->i", delta, delta))
    return norms


@pytest.mark.parametrize("chunk", [1, 7, 40, 64])
def test_holder_norms_are_the_same_in_any_chunking(monkeypatch, chunk):
    n = 8
    model = MarkModel(3.0, TwoPointLaw(0.5, 2.0, -1.0),
                      power_profile(1.0, 2.0, n))
    with pytest.warns(UserWarning, match="fewer than 100"):
        plan = make_plan(axis="holder", levels=(2.0**-10, 2.0**-6, 2.0**-2),
                         n_ref=n, model=model, x0=unit_state(n), samples=40,
                         horizon=1.0, dt_ref=2.0**-10)
    t, h = 0.5, 2.0**-6
    _force_jumps(monkeypatch, {
        0: [t],  # exactly at t: a pre-t jump without decay
        1: [np.nextafter(t, 1.0)],  # just after t: fresh at every h
        2: [t + h],  # exactly at t + h: fresh at h, not at 2^-10
        3: [0.9],  # after t + h at every level
        4: [0.1, 0.3, t, t + 2.0**-10, t + h, 0.7, 0.9],  # several
        5: [], 6: [], 13: [],  # jumpless
        7: [0.2, 0.4],  # two pre-t jumps only
    })
    # six rows of n doubles a sample: two, and two for each of the 1.5 jumps
    # it expects before t, rounded up
    monkeypatch.setattr(experiments, "BLOCK_BYTES", chunk * 6 * n * 8)
    assert block_size(plan) == chunk
    norms, _ = _collect_norms(plan, workers=1)
    expect = _whole_array_holder_norms(plan)
    assert norms.tobytes() == expect.tobytes()
    # the natural draws hold jumpless and crowded samples as well
    counts = sample_jump_skeletons(1.0, model, plan.seed, range(14, 40))[2]
    assert 0 in counts and counts.max() >= 3


@pytest.mark.parametrize("intensity, chunk", [(2.0, 4096), (20.0, 744)])
def test_holder_memory_does_not_grow_with_samples(intensity, chunk):
    # at the budget's chunk, twice the samples add only the rows of the
    # norms they fill, and a chunk's arrays stay near the budget however
    # many jumps a sample expects before t
    n = 64
    model = MarkModel(intensity, TwoPointLaw(0.5, 2.0, -1.0),
                      power_profile(1.0, 2.0, n))
    peaks = []
    for samples in (chunk, 2 * chunk):
        plan = make_plan(axis="holder", levels=(2.0**-12, 2.0**-9, 2.0**-7),
                         n_ref=n, model=model, x0=unit_state(n),
                         samples=samples, horizon=1.0, dt_ref=2.0**-12)
        tracemalloc.start()
        try:
            _collect_norms(plan, workers=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    norms_bytes = chunk * len(plan.levels) * 8
    # one chunk's working set, beside the norms it fills, is within budget
    assert peaks[0] - norms_bytes <= experiments.BLOCK_BYTES
    assert peaks[1] - peaks[0] < norms_bytes + 2**20
    assert peaks[1] < 1.25 * experiments.BLOCK_BYTES + 2 * norms_bytes
    assert block_size(plan) == chunk


def test_holder_worker_pool_matches_serial(monkeypatch):
    # chunks of 7 samples, handed out to two processes: the reports are
    # those of one process, byte for byte
    n = 8
    model = MarkModel(3.0, TwoPointLaw(0.5, 2.0, -1.0),
                      power_profile(1.0, 2.0, n))
    plan = make_plan(axis="holder", levels=(2.0**-10, 2.0**-6, 2.0**-2),
                     n_ref=n, model=model, x0=unit_state(n), samples=200,
                     p_list=(2.0, 8.0), horizon=1.0, dt_ref=2.0**-10)
    monkeypatch.setattr(experiments, "BLOCK_BYTES", 7 * 6 * n * 8)
    assert block_size(plan) == 7
    serial = run_study(plan, workers=1)
    pooled = run_study(plan, workers=2)
    for r1, r2 in zip(serial.reports, pooled.reports, strict=True):
        for column in ("errors", "ci_lo", "ci_hi"):
            assert getattr(r1, column).tobytes() == \
                getattr(r2, column).tobytes()
        assert (r1.order, r1.stderr) == (r2.order, r2.stderr)
    assert serial.aborts == pooled.aborts == 0
    assert set(pooled.phases) == {"skeletons", "norms",
                                            "bootstrap"}


def test_holder_study_zero_jump_model_rejected():
    # every increment of a jumpless model vanishes: refused at the plan,
    # before any sample is drawn
    with pytest.raises(ValueError, match="^model.intensity: .*vanishes"):
        make_plan(
            axis="holder",
            levels=(2.0**-4,),
            model=tiny_model(4, intensity=0.0),
        )


def test_study_result_report_lookup():
    plan = make_plan(p_list=(2.0, 4.0), levels=(2.0**-3,))
    res = run_study(plan)
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
        cfg = SchemeConfig(plan.scheme, n, dt, plan.horizon,
                           plan.nonlinearity, plan.model, plan.x0)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                finals.append(run(cfg, path))
        except DivergenceError as exc:
            level = dt if plan.axis == "temporal" else n
            return finals, (level, exc.step, exc.time)
    return finals, None


def _coupled_norm(ref, level):
    """hnorm of the difference, or, where its sum of squares overflows and
    the difference is finite, the same norm on the difference's own scale
    (m hnorm(d / m), m = max|d|)."""
    d = (ref - level).coeffs
    norm = hnorm(SpectralState(d))
    if math.isinf(norm) and np.isfinite(d).all():
        top = np.abs(d).max()
        norm = top * hnorm(SpectralState(d / top))
    return norm


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


@pytest.mark.parametrize("axis, overrides", [
    pytest.param("temporal", {}, id="temporal"),
    pytest.param("spatial", {}, id="spatial"),
    # the reference and the finer level on the mirrored Nemytskii transform
    # (128 modes on), the coarser level on the full table
    pytest.param("spatial", dict(
        n_ref=256, levels=(64, 128), horizon=2.0**-3, dt_ref=2.0**-5,
        model=tiny_model(256, intensity=8.0, g1=G1Spec.constant(0.3)),
        x0=unit_state(256)), id="spatial_n256"),
])
@pytest.mark.parametrize("scheme", [SCHEME_A, SCHEME_B])
def test_sample_is_bitwise_the_same_in_any_block(scheme, axis, overrides):
    plan = _block_plan(scheme, axis, **overrides)
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
    partial, _, _ = _block_norms(plan, 7, 5)
    assert four[1].tobytes() == alone_terms[0].tobytes()
    assert seven[1].tobytes() == alone_terms[0].tobytes()
    assert partial.shape == (4, len(plan.levels))
    assert partial[0].tobytes() == expected.tobytes()


def test_block_size_from_the_byte_budget():
    # a block holds one stretch of reference rows per sample (two on the
    # uniform scheme) within 8 MiB: 32 samples of 512 steps x 64 modes x 8
    # bytes, or of 64 steps x 256 modes x 8 bytes x 2
    plan = _block_plan(SCHEME_A, "temporal", n_ref=64, dt_ref=2.0**-12,
                       levels=(2.0**-4,), horizon=1.0,
                       model=tiny_model(64), x0=unit_state(64))
    assert _blocking(plan) == (32, 512)
    wide = _block_plan(SCHEME_B, "spatial", n_ref=256, dt_ref=2.0**-10,
                       levels=(4,), horizon=1.0,
                       model=tiny_model(256), x0=unit_state(256))
    assert _blocking(wide) == (32, 64)
    assert block_size(make_plan()) == 32
    # a temporal stretch ends on nodes of the coarsest level: at a level of
    # the whole horizon it is the whole path, 2 MiB a sample
    for scheme, size in ((SCHEME_A, 4), (SCHEME_B, 2)):
        whole = _block_plan(scheme, "temporal", n_ref=64, dt_ref=2.0**-12,
                            levels=(1.0, 2.0**-4), horizon=1.0,
                            model=tiny_model(64), x0=unit_state(64))
        assert _blocking(whole) == (size, 4096)
    # a Hölder chunk at n_ref = 4, intensity 1 and horizon 0.5: two rows a
    # sample, and two for each jump it expects before t (0.25, rounded up)
    holder = make_plan(axis="holder", levels=(2.0**-4,))
    assert block_size(holder) == 8 * 2**20 // (4 * 4 * 8) == 65536


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
                expected_norms.append([_coupled_norm(finals[0], f)
                                       for f in finals[1:]])
            else:
                level, step, t = diverged
                expected_aborts.append(
                    {"index": i, "level": level, "step": step, "time": t})
        norms, aborted = _collect_norms(plan, workers=1)
        # a companion's norm near 1e308 is taken on its own scale, and so
        # is its L^p error: the study reports
        result = run_study(plan)
    assert np.isfinite(norms).all()
    assert result.aborts == len(expected_aborts)
    assert result.aborted == expected_aborts
    assert 0 < len(expected_aborts) < plan.samples
    assert aborted == expected_aborts
    assert norms.tobytes() == np.array(expected_norms).tobytes()


# ---------------------------------------------------------------------------
# paths streamed through time


def _key_index(rng):
    return int(rng.bit_generator.state["state"]["key"][1]) & (2**48 - 1)


def _force_jumps(monkeypatch, forced):
    """Stub the skeleton draw: sample i jumps at forced[i] (magnitudes
    alternating +-1), the other samples draw as usual."""
    draw = noise._draw_jumps

    def stub(horizon, model, rng):
        times = forced.get(_key_index(rng))
        if times is None:
            return draw(horizon, model, rng)
        xis = np.resize([1.0, -1.0], len(times))
        return np.array(times, dtype=np.float64), xis

    monkeypatch.setattr(noise, "_draw_jumps", stub)


def test_temporal_study_blocks_leave_numpy_ma_unimported():
    # numpy.ma costs about 10 ms to import, and np.union1d's np.unique
    # imported it inside a study's first stretch; drawing, restricting and
    # stepping the blocks need none of it (the bootstrap's np.percentile,
    # which calls np.unique as well, still imports it)
    src = os.path.dirname(experiments.__file__)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(src))
    check = "import sys; print('numpy.ma' in sys.modules)"

    def imports_ma(code):
        run = subprocess.run([sys.executable, "-c", f"{code}\n{check}"],
                             env=env, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        return run.stdout.split()[-1] == "True"

    if imports_ma("import numpy"):
        pytest.skip("importing numpy alone imports numpy.ma here")
    assert not imports_ma(
        "from levyheat.experiments import StudyPlan, _collect_norms\n"
        "from levyheat.noise import MarkModel, TwoPointLaw, power_profile\n"
        "from levyheat.spectral import NonlinearitySpec, SpectralState\n"
        "model = MarkModel(2.0, TwoPointLaw(0.5, 2.0, -1.0),\n"
        "                  power_profile(1.0, 2.0, 4))\n"
        "plan = StudyPlan('unit', 'temporal', (0.25, 0.125, 0.0625), 4,\n"
        "                 2.0**-6, (2.0,), 100, 'jump_adapted_A', 0.5,\n"
        "                 NonlinearitySpec.sine(1.0), model,\n"
        "                 SpectralState([1.0]), 11)\n"
        "norms, aborted = _collect_norms(plan, 1)\n"
        "assert norms.shape == (100, 3) and norms.all() and not aborted")


def _budget_for(monkeypatch, plan, stretch):
    """Set the byte budget so that a block's stretch is `stretch` steps."""
    rows = plan.n_ref * 8 * (2 if plan.scheme == SCHEME_B else 1)
    monkeypatch.setattr(experiments, "BLOCK_BYTES", stretch * MAX_BLOCK * rows)
    assert _blocking(plan) == (MAX_BLOCK, stretch)


def _times(keys, s):
    """Row s's times among keyed nodes or jumps."""
    return keys[keys.real == s].imag


def _row(chunk, s):
    """Row s of a chunk: its node times and its increment rows."""
    times = _times(chunk.nodes, s)
    a = chunk.starts[s]
    return times, chunk.wiener[a:a + times.size - 1]


def _keyed(parts):
    """Per-row partition times, keyed as in a chunk."""
    return np.concatenate([s + 1j * p for s, p in enumerate(parts)])


def _streamed(plan, stretch):
    """Per sample and resolution: the partition nodes and the increments of
    the streamed restriction, its stretches joined up."""
    res = _resolutions(plan)
    cfgs = [SchemeConfig(plan.scheme, n, dt, plan.horizon, plan.nonlinearity,
                         plan.model, plan.x0) for dt, n in res]
    paths = PathStream(plan.horizon, plan.dt_ref, plan.n_ref, plan.model,
                       plan.seed, range(plan.samples))
    total = paths.base.size - 1
    nodes = {(s, j): [] for s in range(plan.samples) for j in range(len(res))}
    incs = {key: [] for key in nodes}
    for k0 in range(0, total, stretch):
        k1 = min(k0 + stretch, total)
        chunk = paths.draw(k0, k1)
        for j, ((dt, n), cfg) in enumerate(zip(res, cfgs)):
            r = round(dt / plan.dt_ref)
            level = uniform_nodes(plan.horizon, dt)[k0 // r:k1 // r + 1]
            folded = restrict_chunk(chunk, stretch_nodes(cfg, level, chunk),
                                    n)
            for s in range(plan.samples):
                times, rows = _row(folded, s)
                nodes[s, j].append(times[:-1])
                incs[s, j].append(rows.copy())
    return nodes, incs


def _check_streamed(plan, stretch):
    res = _resolutions(plan)
    nodes, incs = _streamed(plan, stretch)
    for s in range(plan.samples):
        path = sample_path(plan.horizon, plan.dt_ref, plan.n_ref, plan.model,
                           plan.seed, s)
        for j, (dt, n) in enumerate(res):
            cfg = SchemeConfig(plan.scheme, n, dt, plan.horizon,
                               plan.nonlinearity, plan.model, plan.x0)
            part = stretch_nodes(cfg, uniform_nodes(plan.horizon, dt),
                                 path).imag
            oracle = restrict_path(path, part, n)
            joined = np.concatenate(nodes[s, j] + [part[-1:]])
            assert joined.tobytes() == part.tobytes()
            streamed = np.concatenate(incs[s, j])
            assert streamed.tobytes() == oracle.wiener.tobytes()


@pytest.mark.parametrize("axis", ["temporal", "spatial"])
@pytest.mark.parametrize("scheme", [SCHEME_A, SCHEME_B])
def test_streamed_folds_match_restrict_path(monkeypatch, scheme, axis):
    plan = _block_plan(scheme, axis, samples=6)
    dt = plan.dt_ref
    # temporal: two stretches of 16 steps; spatial: stretches of 5 steps,
    # the last one a single step
    stretch = 16 if axis == "temporal" else 5
    edge = stretch * dt  # the first stretch boundary inside the horizon
    _force_jumps(monkeypatch, {
        0: [0.3 * dt, plan.horizon - 0.5 * dt],  # first and last micro rows
        1: [edge - 0.4 * dt, edge + 0.3 * dt],  # both rows beside a boundary
        2: [2.1 * dt, 2.1 * dt + 1e-4, 2.7 * dt],  # three in one micro row
        3: [],
    })
    _check_streamed(plan, stretch)


def test_wiener_rows_match_a_literal_scaling_oracle(monkeypatch):
    # a path's rows are its Wiener stream's standard normals, scaled row by
    # row: by the dt_ref standard deviation, and a row beside a jump,
    # shorter than dt_ref, then by sqrt(conv_variance(lam, delta)) over that
    # standard deviation; a whole path and its stretches get those bytes,
    # and a whole path is its stream's one-row chunk of the whole horizon
    plan = _block_plan(SCHEME_A, "temporal", samples=4)
    dt, stretch = plan.dt_ref, 16
    edge = stretch * dt
    _force_jumps(monkeypatch, {
        0: [edge - 0.4 * dt, edge + 0.3 * dt],  # both rows beside a boundary
        1: [2.1 * dt, 2.1 * dt + 1e-4, 2.7 * dt, edge - 1e-4],
        2: [],
    })
    paths = PathStream(plan.horizon, dt, plan.n_ref, plan.model, plan.seed,
                       range(4))
    total = paths.base.size - 1
    streamed = {s: [] for s in range(4)}
    for k0 in range(0, total, stretch):
        chunk = paths.draw(k0, min(k0 + stretch, total))
        for s in range(4):
            streamed[s].append(_row(chunk, s)[1].copy())
    lam = eigenvalues(plan.n_ref)
    std = np.sqrt(conv_variance(lam, dt))
    for s in range(4):
        path = sample_path(plan.horizon, dt, plan.n_ref, plan.model,
                           plan.seed, s)
        whole = PathStream(plan.horizon, dt, plan.n_ref, plan.model,
                           plan.seed, [s]).draw(0, total)
        assert path.dt_ref == whole.dt_ref
        assert path.starts.tobytes() == whole.starts.tobytes()
        assert path.rows == whole.rows == 1
        for field in ("nodes", "jumps", "xis"):
            mine, theirs = getattr(path, field), getattr(whole, field)
            assert mine.tobytes() == theirs.tobytes()
        assert path.wiener.tobytes() == whole.wiener.tobytes()
        deltas = np.diff(path.nodes.imag)
        z = stream(plan.seed, s, PURPOSE_WIENER).standard_normal(
            (deltas.size, plan.n_ref))
        expected = []
        for row, delta in zip(z, deltas):
            row = row * std
            if delta != dt:
                row = row * (np.sqrt(conv_variance(lam, delta)) / std)
            expected.append(row)
        expected = np.array(expected)
        assert path.wiener.tobytes() == expected.tobytes()
        assert np.concatenate(streamed[s]).tobytes() == expected.tobytes()


@pytest.mark.parametrize("axis", ["temporal", "spatial"])
@pytest.mark.parametrize("scheme", [SCHEME_A, SCHEME_B])
def test_a_jump_on_a_reference_node_is_an_ordinary_jump(monkeypatch, scheme,
                                                        axis):
    # a jump time on a dt_ref node adds no micro node: the adapted scheme
    # applies it at that node, the uniform one aggregates it into the step
    # that ends there.  Such a sample is stepped at every resolution, on a
    # node inside a stretch, on a level node, on a stretch's last node and
    # at the horizon, with the doubles of the whole-path runners, and the
    # other samples keep theirs
    plan = _block_plan(scheme, axis)
    stretch = 16 if axis == "temporal" else 5
    _budget_for(monkeypatch, plan, stretch)
    clean, aborted = _collect_norms(plan, workers=1)
    assert aborted == []
    dt = plan.dt_ref
    # 3 dt is on no temporal level's grid, 8 dt on that of 2^-3 and 2^-4
    forced = {3: sorted([0.3 * dt, 3 * dt, 8 * dt, stretch * dt]),
              5: [plan.horizon - 0.5 * dt, plan.horizon]}
    assert stretch * dt < plan.horizon
    _force_jumps(monkeypatch, forced)
    terminals, aborted = _run_block(plan, range(plan.samples))
    assert aborted == []
    for i, times in forced.items():
        path = sample_path(plan.horizon, dt, plan.n_ref, plan.model,
                           plan.seed, i)
        grid = uniform_nodes(plan.horizon, dt)
        assert path.nodes.imag.tobytes() == np.union1d(grid, times).tobytes()
        assert path.nodes.size == grid.size + 1  # one jump off the grid
        finals, diverged = _alone(plan, i)
        assert diverged is None
        for j, final in enumerate(finals):
            assert terminals[i, j, :final.dim].tobytes() == \
                final.coeffs.tobytes()
    norms, aborted = _collect_norms(plan, workers=1)
    assert aborted == []
    others = [i for i in range(plan.samples) if i not in forced]
    assert norms[others].tobytes() == clean[others].tobytes()
    assert np.isfinite(norms).all() and norms[list(forced)].all()
    assert run_study(plan).aborts == 0


def test_an_infinite_difference_fails_the_study_naming_p_and_the_level(
        monkeypatch):
    # finite terminal states whose difference overflows have no norm, so
    # the study fails once its blocks have run, naming p and the level, and
    # keeps the abort records; a difference whose squares overflow alone is
    # taken on its own scale
    terminals = np.zeros((4, 4, 4))  # samples, resolutions, modes
    terminals[0, :, 0] = [0.5, 0.25, 0.375, 0.4375]
    terminals[1, 0, 0], terminals[1, 1:, 0] = 1e308, -1e308
    terminals[2, 0] = 1e200
    terminals[3] = np.nan  # aborted
    norms = _coupled_norms(terminals[:3])
    assert norms[0].tolist() == [0.25, 0.125, 0.0625]
    assert np.isinf(norms[1]).all()
    assert norms[2].tolist() == [2e200] * 3
    record = {"index": 3, "level": 2.0**-6, "step": 1, "time": 2.0**-6}
    monkeypatch.setattr(experiments, "_run_block",
                        lambda plan, indices, phases: (terminals, [record]))
    with pytest.warns(UserWarning, match="fewer than 100"):
        plan = make_plan(samples=4)
    with pytest.raises(ValueError, match=r"^p = 2, levels\[0\] = 0.25: "
                       r"L\^p error inf") as caught, \
            np.errstate(invalid="ignore"):
        run_study(plan)
    assert caught.value.aborted == [record]


def test_restrict_chunk_locates_every_samples_nodes(monkeypatch):
    # the fold must get the positions of a search of each sample's nodes in
    # its own micro nodes, and a partition off the micro grid or short of
    # the stretch must be refused
    plan = _block_plan(SCHEME_A, "temporal", samples=4)
    dt = plan.dt_ref
    _force_jumps(monkeypatch, {
        0: [0.3 * dt], 1: [2.1 * dt, 2.1 * dt + 1e-4, 7.5 * dt], 2: []})
    cfg = SchemeConfig(plan.scheme, plan.n_ref, 2 * dt, plan.horizon,
                       plan.nonlinearity, plan.model, plan.x0)
    chunk = PathStream(plan.horizon, dt, plan.n_ref, plan.model, plan.seed,
                       range(4)).draw(0, 8)
    level = uniform_nodes(plan.horizon, 2 * dt)[:5]
    keys = stretch_nodes(cfg, level, chunk)
    parts = [_times(keys, s) for s in range(4)]
    expected = np.concatenate(
        [np.searchsorted(_row(chunk, s)[0], p)[:-1] + chunk.starts[s]
         for s, p in enumerate(parts)] + [chunk.starts[-1:]])
    seen = []
    fold = noise._fold

    def spy(inc, deltas, dt_ref, pos, head=None):
        seen.append(pos)
        return fold(inc, deltas, dt_ref, pos, head)

    monkeypatch.setattr(noise, "_fold", spy)
    restrict_chunk(chunk, keys, plan.n_ref)
    assert seen[0].dtype == expected.dtype
    assert seen[0].tobytes() == expected.tobytes()

    def with_node(s, t):
        return _keyed([np.sort(np.append(p, t)) if i == s else p
                       for i, p in enumerate(parts)])

    # a node off every micro grid, sample 0's jump time in sample 1's
    # partition, and a node past the stretch, beyond every micro node
    for bad in (with_node(0, 0.5 * dt), with_node(1, 0.3 * dt),
                with_node(3, 9 * dt)):
        with pytest.raises(ValueError, match="not refined by the micro grid"):
            restrict_chunk(chunk, bad, plan.n_ref)
    for s in range(4):
        for cut in (slice(1, None), slice(None, -1)):
            bad = _keyed([p[cut] if i == s else p
                          for i, p in enumerate(parts)])
            with pytest.raises(ValueError, match="must span the stretch"):
                restrict_chunk(chunk, bad, plan.n_ref)


def test_spatial_levels_step_on_the_reference_fold(monkeypatch):
    # scheme B folds every stretch once, at n_ref, and each spatial level
    # steps on its leading columns: the doubles of a restriction at N
    plan = _block_plan(SCHEME_B, "spatial", samples=6)
    dt, stretch = plan.dt_ref, 5
    _budget_for(monkeypatch, plan, stretch)
    edge = stretch * dt
    _force_jumps(monkeypatch, {
        0: [0.3 * dt, plan.horizon - 0.5 * dt],
        1: [edge - 0.4 * dt, edge + 0.3 * dt],
        2: [2.1 * dt, 2.1 * dt + 1e-4, 2.7 * dt],
        3: [2 * edge + 0.5 * dt],
        4: [],
    })
    stepped = {}  # (n, sample) -> increments stepped on, stretch by stretch
    real = experiments.run_block

    def spy(cfg, chunk, state):
        for s in range(chunk.rows):
            stepped.setdefault((cfg.n_modes, s), []).append(
                _row(chunk, s)[1][:, :cfg.n_modes].copy())
        return real(cfg, chunk, state)

    monkeypatch.setattr(experiments, "run_block", spy)
    _, aborted = _run_block(plan, range(plan.samples))
    assert aborted == []
    part = uniform_nodes(plan.horizon, dt)
    for s in range(plan.samples):
        path = sample_path(plan.horizon, dt, plan.n_ref, plan.model,
                           plan.seed, s)
        for _, n in _resolutions(plan):
            oracle = restrict_path(path, part, n).wiener
            assert np.concatenate(stepped[n, s]).tobytes() == \
                oracle.tobytes()


@pytest.mark.parametrize("levels", [(2.0**-2, 2.0**-5),
                                    (2.0**-5, 2.0**-3, 2.0**-2)])
@pytest.mark.parametrize("scheme", [SCHEME_A, SCHEME_B])
def test_temporal_levels_step_on_folds_from_the_next_finer_level(
        monkeypatch, scheme, levels):
    # every temporal level folds on from the next finer resolution's rows
    # (2^-2 from 2^-5 or 2^-3, which skip powers of two), and steps on the
    # doubles of a whole path's restriction to its partition
    plan = _block_plan(scheme, "temporal", levels=levels, samples=6)
    dt, stretch = plan.dt_ref, 16
    _budget_for(monkeypatch, plan, stretch)
    edge = stretch * dt  # a stretch edge and a node of every level
    _force_jumps(monkeypatch, {
        # inside the first finer step of a coarse step, and within dt / 2
        # of the next coarse node: on the adapted partition, the coarse
        # step from that jump is one finer step
        0: [1.4 * dt, edge - 0.4 * dt],
        1: [edge - 0.4 * dt, edge + 0.3 * dt],  # both rows beside an edge
        2: [2.1 * dt, 2.1 * dt + 1e-4, 2.7 * dt],  # two in one micro row
        3: [0.3 * dt, edge + 4.5 * dt, plan.horizon - 0.5 * dt],
        4: [],
    })
    stepped = {}  # (dt, sample) -> (nodes, increments), stretch by stretch
    real = experiments.run_block

    def spy(cfg, chunk, state):
        for s in range(chunk.rows):
            nodes, rows = _row(chunk, s)
            seen = stepped.setdefault((cfg.dt_nominal, s), ([], []))
            seen[0].append(nodes[:-1])
            seen[1].append(rows.copy())
        return real(cfg, chunk, state)

    monkeypatch.setattr(experiments, "run_block", spy)
    _, aborted = _run_block(plan, range(plan.samples))
    assert aborted == []
    for s in range(plan.samples):
        path = sample_path(plan.horizon, dt, plan.n_ref, plan.model,
                           plan.seed, s)
        for level, n in _resolutions(plan):
            cfg = SchemeConfig(scheme, n, level, plan.horizon,
                               plan.nonlinearity, plan.model, plan.x0)
            part = stretch_nodes(cfg, uniform_nodes(plan.horizon, level),
                                 path).imag
            oracle = restrict_path(path, part, n).wiener
            nodes, incs = stepped[level, s]
            assert np.concatenate(nodes + [part[-1:]]).tobytes() == \
                part.tobytes()
            assert np.concatenate(incs).tobytes() == oracle.tobytes()


@pytest.mark.parametrize("scheme", [SCHEME_A, SCHEME_B])
def test_a_coarsest_level_of_the_horizon_streams_in_one_stretch(scheme):
    plan = _block_plan(scheme, "temporal", levels=(0.5, 2.0**-3), samples=6)
    steps = round(plan.horizon / plan.dt_ref)
    assert _blocking(plan)[1] == steps
    _check_streamed(plan, steps)


@pytest.mark.parametrize("axis", ["temporal", "spatial"])
@pytest.mark.parametrize("scheme", [SCHEME_A, SCHEME_B])
def test_samples_stepped_in_stretches_match_runs_alone(monkeypatch, scheme,
                                                       axis):
    plan = _block_plan(scheme, axis)
    _budget_for(monkeypatch, plan, 16 if axis == "temporal" else 5)
    terminals, aborted = _run_block(plan, range(plan.samples))
    assert aborted == []
    for i in range(plan.samples):
        finals, diverged = _alone(plan, i)
        assert diverged is None
        for j, final in enumerate(finals):
            assert terminals[i, j, :final.dim].tobytes() == \
                final.coeffs.tobytes()


@pytest.mark.parametrize("axis", ["temporal", "spatial"])
@pytest.mark.parametrize("scheme", [SCHEME_A, SCHEME_B])
def test_aborts_in_later_stretches_keep_their_step_and_time(monkeypatch,
                                                            scheme, axis):
    plan = _diverging_plan(scheme, axis)
    _budget_for(monkeypatch, plan, 16 if axis == "temporal" else 5)
    expected_aborts, expected_norms = [], []
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(plan.samples):
            finals, diverged = _alone(plan, i)
            if diverged is None:
                expected_norms.append([_coupled_norm(finals[0], f)
                                       for f in finals[1:]])
            else:
                level, step, t = diverged
                expected_aborts.append(
                    {"index": i, "level": level, "step": step, "time": t})
        norms, aborted = _collect_norms(plan, workers=1)
    # some samples abort after the first stretch, some at a coarse level
    assert any(a["time"] > 16 * plan.dt_ref for a in expected_aborts)
    assert aborted == expected_aborts
    assert norms.tobytes() == np.array(expected_norms).tobytes()
