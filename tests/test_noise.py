"""Tests for the coupled noise engine.

Monte Carlo assertions use fixed seeds and standard-error-scaled tolerances;
quadrature results are cross-checked by independent hand-rolled integrators.
"""

import math
import pickle
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate, special

from levyheat import noise
from levyheat.noise import (
    PURPOSE_BOOTSTRAP,
    PURPOSE_JUMPS,
    PURPOSE_WIENER,
    ExpShiftedLaw,
    G1Spec,
    MarkModel,
    PathChunk,
    PathStream,
    TruncatedStableLaw,
    TwoPointLaw,
    compensated_jump_convolution,
    compensator_coeffs,
    compose_convolution,
    conv_variance,
    dyadic_ratio,
    power_profile,
    restrict_chunk,
    restrict_path,
    sample_jump_skeleton,
    sample_jump_skeletons,
    sample_path,
    step_count,
    stream,
    truncate_levy,
    uniform_nodes,
)
from levyheat.spectral import SpectralState, eigenvalues, hnorm


def two_point_model(n=8, intensity=2.0, g1=None):
    return MarkModel(
        intensity=intensity,
        law=TwoPointLaw(0.5, 2.0, -1.0),
        profile=power_profile(1.0, 2.0, n),
        g1=g1 if g1 is not None else G1Spec.zero(),
    )


def whole_path(nodes, dt_ref, wiener, times, xis):
    """A whole path built by hand: the one-row chunk of a single stretch."""
    return PathChunk(dt_ref, [nodes], wiener, np.array([0, wiener.shape[0]]),
                     [times], [xis])


# ---------------------------------------------------------------------------
# streams


def test_stream_determinism_and_disjointness():
    a = stream(12, 5, PURPOSE_WIENER).standard_normal(8)
    b = stream(12, 5, PURPOSE_WIENER).standard_normal(8)
    assert np.array_equal(a, b)
    for other in [
        stream(12, 5, PURPOSE_JUMPS),
        stream(12, 6, PURPOSE_WIENER),
        stream(13, 5, PURPOSE_WIENER),
        stream(12, 5, PURPOSE_BOOTSTRAP),
    ]:
        assert not np.array_equal(a, other.standard_normal(8))


def test_stream_key_bounds():
    with pytest.raises(ValueError):
        stream(-1, 0, 1)
    with pytest.raises(ValueError):
        stream(0, 2**48, 1)
    with pytest.raises(ValueError):
        stream(0, 0, 2**16)


# ---------------------------------------------------------------------------
# magnitude laws and mark models


def test_two_point_law_moments():
    law = TwoPointLaw(0.5, 2.0, -1.0)
    assert law.mean() == pytest.approx(0.5)
    assert law.mean_square() == pytest.approx(2.5)
    draws = law.sample(np.random.default_rng(0), 100000)
    assert set(np.unique(draws)) == {2.0, -1.0}
    assert abs(draws.mean() - 0.5) < 4 * draws.std() / math.sqrt(draws.size)
    with pytest.raises(ValueError):
        TwoPointLaw(0.5, 0.0, 1.0)  # zero magnitude excluded
    with pytest.raises(ValueError):
        TwoPointLaw(1.0, 1.0, -1.0)


def test_exp_shifted_law_moments():
    law = ExpShiftedLaw(rate=2.0, offset=0.5)
    assert law.mean() == pytest.approx(1.0)
    assert law.mean_square() == pytest.approx(0.25 + 0.5 + 0.5)
    draws = law.sample(np.random.default_rng(1), 100000)
    assert draws.min() >= 0.5
    assert abs(draws.mean() - 1.0) < 4 * draws.std() / math.sqrt(draws.size)


def profile_tail_fraction(profile: SpectralState, s: float) -> float:
    """Share of hnorm(profile, s)^2 carried by the upper half of the modes.

    A profile admissible for the jump noise must have this fraction small
    and shrinking as the dimension grows (partial-sum convergence of
    sum_k lambda_k^s phi_k^2).
    """
    lam = eigenvalues(profile.dim)
    weights = lam**s * profile.coeffs**2
    total = float(np.sum(weights))
    if total == 0.0:
        raise ValueError("profile is identically zero")
    half = profile.dim // 2
    return float(np.sum(weights[half:])) / total


def test_power_profile_validation_and_decay():
    with pytest.raises(ValueError):
        power_profile(1.0, 1.5, 8)
    phi = power_profile(1.0, 2.0, 64)
    assert phi.coeffs[0] == 1.0 and phi.coeffs[7] == pytest.approx(1.0 / 64.0)
    # partial sums of sum lambda_k^s phi_k^2 converge for every s <= 1:
    # the top-half share shrinks as the dimension doubles
    for s in [-1.0, 0.0, 0.5, 1.0]:
        fr64 = profile_tail_fraction(phi, s)
        fr128 = profile_tail_fraction(power_profile(1.0, 2.0, 128), s)
        assert fr128 < fr64 < 0.05


def test_g1_bound_invariant():
    norm = hnorm(power_profile(1.0, 2.0, 8))
    for g1 in [G1Spec.zero(), G1Spec.constant(0.3), G1Spec.clipped(-0.7)]:
        model = two_point_model(g1=g1)
        xis = np.linspace(-50.0, 50.0, 1001)
        xis = xis[xis != 0.0]
        vals = model.g1_values(xis)
        assert np.all(np.abs(vals) <= g1.bound + 1e-15)
    # clipped saturates at |xi| ||phi|| >= 1
    m = two_point_model(g1=G1Spec.clipped(0.5))
    high, low = m.g1_values(np.array([100.0, 0.1]))
    assert high == pytest.approx(0.5)
    assert low == pytest.approx(0.5 * 0.1 * norm)


def test_compensator_worked_example():
    # intensity 3, P(xi=2)=P(xi=-1)=1/2, phi=(1,0): mean_g = (1.5, 0)
    model = MarkModel(
        intensity=3.0,
        law=TwoPointLaw(0.5, 2.0, -1.0),
        profile=SpectralState([1.0, 0.0]),
    )
    mean_g1, mean_g = compensator_coeffs(model, 2)
    assert mean_g1 == 0.0
    assert np.allclose(mean_g.coeffs, [1.5, 0.0], atol=1e-15)


def test_compensator_constant_and_clipped():
    model = two_point_model(intensity=2.0, g1=G1Spec.constant(0.3))
    mean_g1, mean_g = compensator_coeffs(model, 8)
    assert mean_g1 == pytest.approx(0.6, rel=1e-14)
    assert np.allclose(mean_g.coeffs, 2.0 * 0.5 * model.profile.coeffs, atol=1e-15)
    # clipped with a two-point law has a closed-form expectation
    law = TwoPointLaw(0.5, 2.0, -0.3)
    model = MarkModel(2.0, law, power_profile(1.0, 2.0, 8), G1Spec.clipped(0.4))
    norm = hnorm(model.profile)
    expected = 2.0 * 0.4 * (0.5 * min(1.0, 2.0 * norm) + 0.5 * min(1.0, 0.3 * norm))
    got, _ = compensator_coeffs(model, 8)
    assert got == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("rate, offset, scale", [
    (0.3, 0.0, 1000.0), (0.3, 0.0, 1e12), (0.3, 0.0, 1e-3),
    (2.0, 0.5, 1.0), (2.0, 0.5, 3.0), (1.5, 0.1, 9.0),
    (7.0, 2.0, 0.4), (7.0, 2.0, 0.5), (7.0, 2.0, 0.6)])
def test_exp_shifted_clipped_mean_matches_incomplete_gammas(rate, offset,
                                                            scale):
    # E[min(1, c xi)] = c (offset P(X < u) + E[X; X < u]) + P(X >= u) for
    # xi = offset + X, u = 1/c - offset; E[X; X < u] = gamma(2, rate u) / rate
    law = ExpShiftedLaw(rate=rate, offset=offset)
    t = rate * (1.0 / scale - offset)
    if t <= 0.0:
        assert law.clipped_mean(scale) == 1.0  # xi >= offset >= 1/c
        return
    expected = (scale * (offset * special.gammainc(1.0, t)
                         + special.gammainc(2.0, t) / rate)
                + special.gammaincc(1.0, t))
    assert law.clipped_mean(scale) == pytest.approx(expected, rel=1e-13)


def test_compensator_clipped_quadrature_vs_monte_carlo():
    law = ExpShiftedLaw(rate=1.5, offset=0.1)
    model = MarkModel(1.7, law, power_profile(0.8, 2.0, 16), G1Spec.clipped(0.9))
    mean_g1, _ = compensator_coeffs(model, 16)
    draws = law.sample(np.random.default_rng(3), 200000)
    vals = 0.9 * np.minimum(1.0, np.abs(draws) * hnorm(model.profile))
    mc = 1.7 * vals.mean()
    se = 1.7 * vals.std() / math.sqrt(draws.size)
    assert abs(mean_g1 - mc) < 4 * se


# ---------------------------------------------------------------------------
# truncated heavy-tail measure


def test_truncate_levy_against_hand_integrator():
    profile = power_profile(1.0, 2.0, 16)
    model, residual = truncate_levy(0.5, 0.1, profile)

    # independent oracle: log-substitution plus dense Simpson weights
    def hand_tail(f, eps, upper=60.0, n=200001):
        y = np.linspace(0.0, math.log(upper / eps), n)
        x = eps * np.exp(y)
        vals = f(x) * x
        w = np.ones(n)
        w[1:-1:2] = 4
        w[2:-1:2] = 2
        return float(np.sum(vals * w) * (y[1] - y[0]) / 3.0)

    dens = lambda x: x**-1.5 * np.exp(-x)
    assert model.intensity == pytest.approx(2.0 * hand_tail(dens, 0.1), rel=1e-9)

    n = 200001
    x = np.linspace(0.0, 0.1, n)
    v = np.sqrt(x) * np.exp(-x)
    w = np.ones(n)
    w[1:-1:2] = 4
    w[2:-1:2] = 2
    hand_res = 2.0 * float(np.sum(v * w) * (x[1] - x[0]) / 3.0)
    assert residual == pytest.approx(hand_res, rel=1e-6)

    # smaller truncation keeps more mass and leaves less residual
    model2, residual2 = truncate_levy(0.5, 0.05, profile)
    assert model2.intensity > model.intensity
    assert residual2 < residual


def _upper_gamma(s, x):
    """Upper incomplete gamma for any non-integer s, by the recurrence
    Gamma(s, x) = (Gamma(s + 1, x) - x^s e^-x) / s down from s > 0."""
    if s > 0:
        return special.gamma(s) * special.gammaincc(s, x)
    return (_upper_gamma(s + 1.0, x) - x**s * math.exp(-x)) / s


def _clipped_mean_oracle(alpha, eps, scale):
    """E[min(1, scale |xi|)] under the truncated stable law: with a = 1/scale,
    (scale (Gamma(1 - alpha, eps) - Gamma(1 - alpha, a)) + Gamma(-alpha, a))
    / Gamma(-alpha, eps).  For alpha < 1 and eps < 1 the difference is taken
    of lower incomplete gammas, which stays accurate when a is close to
    eps."""
    a = 1.0 / scale
    if a <= eps:
        return 1.0
    s = 1.0 - alpha
    if s > 0 and eps < 1.0:
        below = special.gamma(s) * (special.gammainc(s, a)
                                    - special.gammainc(s, eps))
    else:
        below = _upper_gamma(s, eps) - _upper_gamma(s, a)
    return (scale * below + _upper_gamma(-alpha, a)) / _upper_gamma(-alpha, eps)


@pytest.mark.parametrize("alpha, eps", [(0.5, 0.05), (0.5, 0.5),
                                        (1.5, 0.1), (0.5, 1e-6),
                                        (1.5, 1e-6), (1.999, 0.05),
                                        (0.01, 20.0), (0.01, 1e-6),
                                        (1.9, 3.0)])
def test_truncate_levy_matches_closed_forms(alpha, eps):
    # intensity 2 Gamma(-alpha, eps); residual 2 gamma(2 - alpha, eps)
    model, residual = truncate_levy(alpha, eps, power_profile(1.0, 2.0, 4))
    assert model.intensity == pytest.approx(
        2.0 * _upper_gamma(-alpha, eps), rel=1e-9)
    assert residual == pytest.approx(
        2.0 * special.gamma(2.0 - alpha) * special.gammainc(2.0 - alpha, eps),
        rel=1e-9)
    # law moments: E[xi^2] and E[min(1, c |xi|)], exactly 1 once c >= 1/eps;
    # the oracle's recurrence loses about three digits at (0.01, 20)
    law = model.law
    assert law.mean_square() == pytest.approx(
        _upper_gamma(2.0 - alpha, eps) / _upper_gamma(-alpha, eps), rel=1e-11)
    for scale in [1e-3, 0.2, 1.0, 0.9 / eps, 1.0 / eps, 4.0 / eps]:
        expected = _clipped_mean_oracle(alpha, eps, scale)
        if scale >= 1.0 / eps:
            assert expected == 1.0
        assert law.clipped_mean(scale) == pytest.approx(expected, rel=1e-11)


def test_clipped_compensator_of_a_truncated_stable_law():
    # at eps = 1e-6 most jumps are small, so E[g1] is far from saturated
    model, _ = truncate_levy(1.5, 1e-6, power_profile(1.0, 2.0, 8),
                             G1Spec.clipped(0.5))
    mean_g1, mean_g = compensator_coeffs(model, 8)
    expected = (2.0 * _upper_gamma(-1.5, 1e-6) * 0.5
                * _clipped_mean_oracle(1.5, 1e-6, model.profile_norm))
    assert mean_g1 == pytest.approx(expected, rel=1e-12)
    assert mean_g1 == pytest.approx(2076.43303999121, rel=1e-12)  # mpmath
    assert not mean_g.coeffs.any()  # symmetric law: no drift
    # a profile whose squares underflow has norm 0: the clip gives g1 = 0
    tiny = power_profile(1e-200, 2.0, 8)
    for law in [model.law, ExpShiftedLaw(rate=1.5, offset=0.1)]:
        flat = MarkModel(1.0, law, tiny, G1Spec.clipped(0.5))
        assert compensator_coeffs(flat, 8)[0] == 0.0


def test_truncated_sampler_inverse_cdf_accuracy():
    model, _ = truncate_levy(0.5, 0.1, power_profile(1.0, 2.0, 8))
    law = model.law
    dens = lambda x: x**-1.5 * np.exp(-x)
    us = np.linspace(1e-5, 1.0 - 1e-5, 41)
    mags = np.interp(us, law.cdf, law.grid)
    for u, m in zip(us, mags):
        F = integrate.quad(dens, 0.1, m, epsrel=1e-12)[0] / law.half_mass
        assert abs(F - u) < 1e-6


def test_truncated_sampler_moments_and_symmetry():
    model, _ = truncate_levy(0.5, 0.1, power_profile(1.0, 2.0, 8))
    law = model.law
    draws = law.sample(np.random.default_rng(4), 200000)
    assert np.all(np.abs(draws) > 0.1)
    sq = draws**2
    assert abs(sq.mean() - law.mean_square()) < 4 * sq.std() / math.sqrt(sq.size)
    assert abs(draws.mean()) < 4 * draws.std() / math.sqrt(draws.size)
    assert law.mean() == 0.0


@pytest.mark.filterwarnings("error")
def test_truncate_levy_validation():
    profile = power_profile(1.0, 2.0, 4)
    with pytest.raises(ValueError):
        truncate_levy(2.5, 0.1, profile)
    with pytest.raises(ValueError):
        truncate_levy(0.5, 0.0, profile)
    # eps^-alpha overflows the intensity; e^-eps underflows it to zero
    with pytest.raises(ValueError, match="intensity.*inf"):
        truncate_levy(1.9, 1e-300, profile)
    with pytest.raises(ValueError, match="intensity.*0.0"):
        truncate_levy(0.5, 800.0, profile)
    # finite intensity, but the density overflows on the CDF table
    with pytest.raises(ValueError, match="CDF table"):
        truncate_levy(1.9, 1e-107, profile)


def test_truncated_stable_law_derives_its_numbers_from_alpha_and_eps():
    # the law built directly is the one truncate_levy runs, and what it
    # derives pickles to worker processes as it is
    model, residual = truncate_levy(0.5, 0.1, power_profile(1.0, 2.0, 4))
    law = TruncatedStableLaw(0.5, 0.1)
    assert law == model.law and hash(law) == hash(model.law)
    assert law != TruncatedStableLaw(0.5, 0.05)
    assert (law.intensity, law.residual) == (model.intensity, residual)
    assert not law.grid.flags.writeable and not law.cdf.flags.writeable
    again = pickle.loads(pickle.dumps(law))
    for name in ("half_mass", "intensity", "residual", "grid", "cdf"):
        derived = np.asarray(getattr(law, name)).tobytes()
        assert np.asarray(getattr(model.law, name)).tobytes() == derived
        assert np.asarray(getattr(again, name)).tobytes() == derived
    with pytest.raises(TypeError):
        TruncatedStableLaw(0.5, 0.1, grid=law.grid)


# ---------------------------------------------------------------------------
# skeleton and micro grid


def test_skeleton_sampling_statistics():
    model = two_point_model(intensity=2.0)
    counts = np.empty(100000)
    rng_counts = stream(2024, 0, PURPOSE_JUMPS)
    # count statistics via one long stream (law only, keying tested elsewhere)
    counts = rng_counts.poisson(2.0 * 1.0, size=100000)
    se = math.sqrt(2.0 / 100000)
    assert abs(counts.mean() - 2.0) < 3 * se
    times, xis = sample_jump_skeleton(1.0, model,
                                      stream(2024, 1, PURPOSE_JUMPS))
    assert np.all(np.diff(times) > 0)
    assert np.all((times > 0) & (times <= 1.0))
    assert set(np.unique(xis)).issubset({2.0, -1.0})


def check_one(times, xis):
    """`_check_jumps` on one skeleton on (0, 1], as a batch of one."""
    times, xis = np.array(times, dtype=float), np.array(xis, dtype=float)
    noise._check_jumps(1.0, times, xis, [times.size])


def test_skeleton_validation():
    # a hand-built skeleton gets the errors of a drawn one
    with pytest.raises(ArithmeticError, match="degenerate jump times"):
        check_one([0.2, 0.2], [1.0, 1.0])  # simultaneous jumps
    with pytest.raises(ArithmeticError, match="degenerate jump times"):
        check_one([0.0], [1.0])  # boundary time
    with pytest.raises(ValueError, match="zero marks"):
        check_one([0.5], [0.0])  # zero mark
    with pytest.raises(ValueError, match=r"lie in \(0, horizon\]"):
        check_one([1.5], [1.0])  # outside horizon
    check_one([], [])


def test_batched_jump_checks_are_per_sample():
    # a jump at the horizon is in (0, horizon], and equal times in two
    # samples, an empty one between them or not, are two samples' jumps
    check_one([0.25, 1.0], [1.0, -1.0])
    times = np.array([0.3, 0.5, 0.5, 0.7])
    for counts in ([2, 2], [2, 0, 2], [0, 2, 2, 0]):
        noise._check_jumps(1.0, times, np.ones(4), counts)
    # the same times within one sample are a collision
    with pytest.raises(ArithmeticError):
        noise._check_jumps(1.0, times, np.ones(4), [1, 3])
    # the first sample with a fault raises, and for the first of its faults
    xis = np.array([1.0, 0.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="zero marks"):
        noise._check_jumps(1.0, np.array([0.3, 0.5, 0.7, 0.6]), xis, [2, 2])
    with pytest.raises(ValueError, match="horizon"):
        noise._check_jumps(1.0, np.array([0.3, 1.5]), np.zeros(2), [2])
    with pytest.raises(ArithmeticError):
        noise._check_jumps(1.0, np.array([0.6, 0.5, 1.5]), np.zeros(3), [3])


def test_zero_intensity_skeleton_is_empty():
    model = MarkModel(0.0, TwoPointLaw(0.5, 1.0, -1.0), power_profile(1.0, 2.0, 4))
    times, xis = sample_jump_skeleton(1.0, model,
                                      stream(1, 0, PURPOSE_JUMPS))
    assert times.size == xis.size == 0


def _jump_models():
    profile = power_profile(1.0, 2.0, 4)
    stable, _ = truncate_levy(0.5, 0.5, profile)
    return {
        "two_point": MarkModel(2.0, TwoPointLaw(0.5, 2.0, -1.0), profile),
        "exp_shifted": MarkModel(1.5, ExpShiftedLaw(2.0, 0.5), profile),
        "truncated_stable": stable,
    }


@pytest.mark.parametrize("law", ["two_point", "exp_shifted",
                                 "truncated_stable"])
@pytest.mark.parametrize("seed, indices", [
    (0, range(300)),
    (2**64 - 1, range(40)),
    (7, range(2**48 - 40, 2**48)),
    (7, [5, 2**48 - 1, 0, 5]),
])
def test_batched_skeletons_equal_per_sample_draws(law, seed, indices):
    model = _jump_models()[law]
    times, xis, counts = sample_jump_skeletons(0.75, model, seed, indices)
    assert counts.size == len(indices) and counts.sum() == times.size
    if len(indices) >= 40:
        assert 0 in counts and counts.max() >= 3  # empty and crowded samples
    lo = 0
    for i, c in zip(indices, counts):
        t, x = sample_jump_skeleton(0.75, model,
                                    stream(seed, i, PURPOSE_JUMPS))
        assert np.array_equal(times[lo:lo + c], t)
        assert np.array_equal(xis[lo:lo + c], x)
        lo += c


def test_batched_skeletons_of_a_jumpless_model():
    model = MarkModel(0.0, TwoPointLaw(0.5, 1.0, -1.0), power_profile(1.0, 2.0, 4))
    times, xis, counts = sample_jump_skeletons(1.0, model, 3, range(5))
    assert times.size == xis.size == 0
    assert np.array_equal(counts, np.zeros(5))


def test_batched_skeleton_key_bounds():
    model = two_point_model()
    with pytest.raises(ValueError, match="48 bits"):
        sample_jump_skeletons(1.0, model, 0, [0, 2**48])
    with pytest.raises(ValueError, match="64 bits"):
        sample_jump_skeletons(1.0, model, 2**64, [0])


class ZeroMarkLaw:
    """Two-point law whose minus mark is 0: a draw outside the mark space."""

    def sample(self, rng, size):
        return np.where(rng.random(size) < 0.9, 1.0, 0.0)


def _index_of(rng):
    return int(rng.bit_generator.state["state"]["key"][1]) & (2**48 - 1)


@pytest.mark.parametrize("fault, error", [
    ("repeat", ArithmeticError),  # two jumps at one time
    ("zero_time", ArithmeticError),
    ("late", ValueError),  # a time after the horizon
    ("zero_mark", ValueError),
])
def test_batched_skeletons_raise_the_first_failing_samples_error(
        monkeypatch, fault, error):
    law = ZeroMarkLaw() if fault == "zero_mark" else TwoPointLaw(0.5, 2.0, -1.0)
    model = MarkModel(3.0, law, power_profile(1.0, 2.0, 4))
    draw = noise._draw_jumps
    bad_indices = {6, 9}

    def stub(horizon, model, rng):
        # a stubbed draw breaks samples 6 and 9 the same way alone or batched
        index = _index_of(rng)
        times, xis = draw(horizon, model, rng)
        if index in bad_indices and times.size >= 2:
            if fault == "repeat":
                times[1] = times[0]
            elif fault == "zero_time":
                times[0] = 0.0
            elif fault == "late":
                times[-1] = 2.0 * horizon
        return times, xis

    monkeypatch.setattr(noise, "_draw_jumps", stub)
    alone = []
    for i in range(12):
        try:
            sample_jump_skeleton(1.0, model, stream(4, i, PURPOSE_JUMPS))
        except (ArithmeticError, ValueError) as exc:
            alone.append((i, type(exc), str(exc)))
    assert alone and all(kind is error for _, kind, _ in alone)
    first = alone[0]
    with pytest.raises(error) as info:
        sample_jump_skeletons(1.0, model, 4, range(12))
    assert str(info.value) == first[2]
    if fault != "zero_mark":
        assert first[0] == 6
    # the samples before the first failing one draw cleanly
    sample_jump_skeletons(1.0, model, 4, range(first[0]))


@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_non_finite_grids_are_value_errors(value):
    # an infinite or NaN horizon or step is no whole number of steps, not
    # an OverflowError or an unnamed ValueError from round()
    for horizon, dt in ((value, 0.25), (1.0, value), (value, value)):
        with pytest.raises(ValueError, match="integer multiple of dt"):
            uniform_nodes(horizon, dt)
        with pytest.raises(ValueError, match="integer multiple of dt_ref"):
            step_count(horizon, dt, "dt_ref")
    assert dyadic_ratio(value, 2.0**-6) == 0
    assert dyadic_ratio(0.25, value) == 0
    assert step_count(1.0, 0.25, "dt") == 4
    assert dyadic_ratio(0.25, 2.0**-6) == 16


def test_micro_grid_construction(monkeypatch):
    # a path's micro nodes are the dt_ref grid merged with its jump times
    model = two_point_model()
    for times, nodes in (([0.3, 0.77], [0.0, 0.25, 0.3, 0.5, 0.75, 0.77, 1.0]),
                         ([], [0.0, 0.25, 0.5, 0.75, 1.0])):
        sk = np.array(times, dtype=float), np.ones(len(times))
        monkeypatch.setattr(noise, "sample_jump_skeleton",
                            lambda *args, sk=sk: sk)
        path = sample_path(1.0, 0.25, 4, model, 7, 3)
        assert np.array_equal(path.nodes[0], nodes) and path.dt_ref == 0.25
        assert not path.nodes[0].flags.writeable
        assert path.times[0] is sk[0] and path.xis[0] is sk[1]
    with pytest.raises(ValueError):
        sample_path(1.0, 0.3, 4, model, 7, 3)  # horizon not a multiple
    sk = np.array([0.25]), np.array([1.0])
    monkeypatch.setattr(noise, "sample_jump_skeleton", lambda *args: sk)
    with pytest.raises(ArithmeticError):
        sample_path(1.0, 0.25, 4, model, 7, 3)  # node collision


def test_coupled_path_checks_its_nodes():
    # restrict_path checks a whole path's one row before it folds it; a
    # path that does not span [0, 1] has no partition of [0, 1] to fold to
    sk = np.array([0.3]), np.array([1.0])
    good = np.array([0.0, 0.25, 0.3, 0.5, 0.75, 1.0])
    part = np.arange(5) * 0.25
    restrict_path(whole_path(good, 0.25, np.zeros((5, 2)), *sk), part, 2)
    for nodes, match in ((good[[0, 2, 1, 3, 4, 5]], "strictly increasing"),
                         (good[1:], "not refined"), (good[:-1], "not refined"),
                         (np.append(good, 1.5), "span"),
                         (good[:1], "malformed")):
        path = whole_path(nodes, 0.25, np.zeros((nodes.size - 1, 2)), *sk)
        with pytest.raises(ValueError, match=match):
            restrict_path(path, part, 2)
    with pytest.raises(ValueError, match="wrong shape"):
        restrict_path(whole_path(good, 0.25, np.zeros((4, 2)), *sk), part, 2)


# ---------------------------------------------------------------------------
# Wiener convolution increments


def test_conv_variance_closed_form_vs_riemann():
    lam_all = eigenvalues(16)
    for k_idx, delta in [(0, 1e-3), (3, 1e-2), (15, 1e-1)]:
        lam = float(lam_all[k_idx])
        n = 10000
        u = (np.arange(n) + 0.5) * (delta / n)
        riemann = float(np.sum(np.exp(-2.0 * lam * (delta - u))) * (delta / n))
        assert conv_variance(lam, delta) == pytest.approx(riemann, rel=5e-3)


def test_conv_variance_empirical():
    # sampled increments reproduce the closed-form variance within 3 SE
    rng = np.random.default_rng(42)
    lam_all = eigenvalues(16)
    for lam, delta in [(lam_all[0], 1e-3), (lam_all[7], 0.05), (lam_all[15], 1e-2)]:
        v = float(conv_variance(lam, delta))
        draws = rng.standard_normal(100000) * math.sqrt(v)
        emp = float(draws.var())
        se = v * math.sqrt(2.0 / (draws.size - 1))
        assert abs(emp - v) < 3 * se


def test_compose_variance_identity():
    # Var I[0, d1+d2] == exp(-2 lam d2) Var I[0,d1] + Var I[0,d2]
    for lam in eigenvalues(16)[[0, 5, 15]]:
        for d1, d2 in [(1e-3, 1e-3), (0.02, 0.07), (0.25, 0.25)]:
            lhs = conv_variance(lam, d1 + d2)
            rhs = math.exp(-2.0 * lam * d2) * conv_variance(lam, d1) + conv_variance(
                lam, d2
            )
            assert abs(lhs - rhs) <= 1e-14


def test_compose_convolution_three_way():
    rng = np.random.default_rng(6)
    lam = eigenvalues(5)
    i1, i2, i3 = rng.standard_normal((3, 5))
    d2, d3 = 0.03, 0.11
    folded = compose_convolution(compose_convolution(i1, i2, lam, d2), i3, lam, d3)
    direct = np.exp(-lam * (d2 + d3)) * i1 + np.exp(-lam * d3) * i2 + i3
    assert np.allclose(folded, direct, rtol=0, atol=1e-14)


# ---------------------------------------------------------------------------
# coupled paths and restriction


def test_path_determinism_bytes():
    model = two_point_model()
    a = sample_path(1.0, 2.0**-8, 8, model, 7, 3)
    b = sample_path(1.0, 2.0**-8, 8, model, 7, 3)
    assert a.wiener.tobytes() == b.wiener.tobytes()
    assert a.times[0].tobytes() == b.times[0].tobytes()
    assert a.xis[0].tobytes() == b.xis[0].tobytes()
    c = sample_path(1.0, 2.0**-8, 8, model, 7, 4)
    assert a.wiener.tobytes() != c.wiener.tobytes()


def test_wiener_and_jump_streams_are_disjoint():
    # changing only the magnitude law leaves times and Wiener draws untouched
    base = two_point_model()
    other = MarkModel(
        intensity=base.intensity,
        law=ExpShiftedLaw(rate=1.0, offset=0.5),
        profile=base.profile,
    )
    pa = sample_path(1.0, 2.0**-8, 8, base, 7, 3)
    pb = sample_path(1.0, 2.0**-8, 8, other, 7, 3)
    assert np.array_equal(pa.times[0], pb.times[0])
    assert np.array_equal(pa.wiener, pb.wiener)
    assert not np.array_equal(pa.xis[0], pb.xis[0])


def test_restriction_is_bitwise_fold():
    model = two_point_model()
    path = sample_path(1.0, 2.0**-8, 8, model, 7, 3)
    lam = eigenvalues(5)
    micro = path.nodes[0]
    finer = path  # each level also folds on from the last one's rows
    for j_level in [1, 2, 4]:
        nodes = np.arange(int(1.0 / (2.0**-8 * 2**j_level)) + 1) * (2.0**-8 * 2**j_level)
        bundle = restrict_path(path, nodes, 5)
        chained = restrict_chunk(path, [nodes], 5, finer)
        assert chained.wiener.tobytes() == bundle.wiener.tobytes()
        finer = chained
        for i in range(nodes.size - 1):
            lo = int(np.searchsorted(micro, nodes[i]))
            hi = int(np.searchsorted(micro, nodes[i + 1]))
            acc = path.wiener[lo, :5].copy()
            for j in range(lo + 1, hi):
                acc = compose_convolution(
                    acc, path.wiener[j, :5], lam, micro[j + 1] - micro[j]
                )
            assert np.array_equal(acc, bundle.wiener[i])


def _sequential_fold(inc, deltas, lam, start, end):
    """One step's fold on its own, row after row (the oracle of `_fold`)."""
    acc = inc[start].copy()
    for j in range(start + 1, end):
        acc *= np.exp(-lam * deltas[j])
        acc += inc[j]
    return acc


@pytest.mark.parametrize("fold_rows", [3, 1024])
def test_fold_matches_a_sequential_fold_of_each_step(monkeypatch, fold_rows):
    # irregular rows first, last, alone, in runs and apart within a step,
    # over partitions that start and end inside the micro grid
    monkeypatch.setattr(noise, "_FOLD_ROWS", fold_rows)
    dt = 2.0**-6
    deltas = np.full(60, dt)
    for row in (0, 3, 4, 9, 14, 15, 16, 22, 30, 31, 41, 47, 59):
        deltas[row] = dt * (0.1 + 0.05 * (row % 7))
    deltas[31] = deltas[30]  # two rows of one size
    inc = np.random.default_rng(5).standard_normal((60, 6))
    lam = eigenvalues(6)
    partitions = [
        np.array([0, 60]),
        np.array([0, 4, 5, 9, 10, 17, 23, 31, 32, 40, 48, 56, 60]),
        np.array([3, 8, 16, 24, 32, 40, 48, 57]),
        np.arange(0, 61, 3),
        np.arange(2, 59),
    ]
    for pos in partitions:
        folded = noise._fold(inc[:, :4], deltas, dt, pos)
        for i, (a, b) in enumerate(zip(pos[:-1], pos[1:])):
            expected = _sequential_fold(inc[:, :4], deltas, lam[:4], a, b)
            assert folded[i].tobytes() == expected.tobytes()


@pytest.mark.parametrize("fold_rows", [3, 1024])
def test_fold_continues_from_head_rows_as_a_sequential_fold(monkeypatch,
                                                           fold_rows):
    # each step starts from a given accumulator and folds on over the rows
    # from after[i]: irregular rows right after the head, inside it (which
    # the head holds already), steps with nothing left (the head's bytes)
    # and one-row steps (their row's bytes)
    monkeypatch.setattr(noise, "_FOLD_ROWS", fold_rows)
    dt = 2.0**-6
    deltas = np.full(60, dt)
    for row in (1, 2, 5, 9, 14, 15, 17, 22, 30, 31, 41, 47, 59):
        deltas[row] = dt * (0.1 + 0.05 * (row % 7))
    rng = np.random.default_rng(6)
    inc = rng.standard_normal((60, 6))
    lam = eigenvalues(6)
    pos = np.array([0, 4, 5, 9, 10, 17, 23, 31, 32, 40, 48, 56, 60])
    after = np.array([1, 5, 9, 10, 14, 22, 31, 32, 40, 41, 52, 60])
    acc = rng.standard_normal((after.size, 4))
    # the oracle starts a step at its first row: put each accumulator in
    # the row before its step goes on, then fold from there
    seeded = inc[:, :4].copy()
    seeded[after - 1] = acc
    folded = noise._fold(inc[:, :4], deltas, dt, pos, (acc, after))
    for i, (b, c) in enumerate(zip(after, pos[1:])):
        expected = _sequential_fold(seeded, deltas, lam[:4], b - 1, c)
        assert folded[i].tobytes() == expected.tobytes()
        if b == c:
            assert folded[i].tobytes() == acc[i].tobytes()
    plain = noise._fold(inc[:, :4], deltas, dt, pos)
    for i in np.nonzero(np.diff(pos) == 1)[0]:
        assert plain[i].tobytes() == inc[pos[i], :4].tobytes()


def test_restriction_identity_on_micro_grid():
    model = two_point_model()
    path = sample_path(1.0, 2.0**-6, 8, model, 11, 0)
    bundle = restrict_path(path, path.nodes[0], 8)
    assert np.array_equal(bundle.wiener, path.wiener)


def test_restriction_variance_statistics():
    # coarse increments carry the exact coarse variance: check empirically
    model = MarkModel(0.0, TwoPointLaw(0.5, 1.0, -1.0), power_profile(1.0, 2.0, 4))
    dt = 2.0**-2
    nodes = np.arange(5) * dt
    rows = []
    for i in range(4000):
        path = sample_path(1.0, 2.0**-6, 4, model, 77, i)
        rows.append(restrict_path(path, nodes, 4).wiener)
    inc = np.stack(rows)  # (M, 4 steps, 4 modes)
    lam = eigenvalues(4)
    target = conv_variance(lam, dt)
    emp = inc.var(axis=0)
    se = target * math.sqrt(2.0 / (inc.shape[0] - 1))
    assert np.all(np.abs(emp - target) < 4 * se)


def test_restriction_jump_bookkeeping():
    # the restricted chunk carries the path's jumps on uniform and adapted
    # partitions, and a partition that ends before the last jump is refused
    times, xis = np.array([0.1, 0.35, 0.40]), np.array([1.0, 2.0, -1.0])
    micro = np.sort(np.concatenate([np.arange(17) * 2.0**-4, times]))
    path = whole_path(micro, 2.0**-4, np.zeros((micro.size - 1, 4)), times,
                      xis)
    nodes = np.arange(5) * 0.25
    anodes = np.sort(np.concatenate([nodes, times]))
    for part in (nodes, anodes):
        chunk = restrict_path(path, part, 4)
        assert chunk.times[0] is times and chunk.xis[0] is xis
        assert np.array_equal(chunk.nodes[0], part)
        assert chunk.wiener.shape == (part.size - 1, 4)
    with pytest.raises(ValueError, match="must span the stretch"):
        restrict_path(path, nodes[:2], 4)


def test_restriction_rejects_unrefined_partitions():
    model = two_point_model()
    path = sample_path(1.0, 2.0**-4, 8, model, 7, 3)
    with pytest.raises(ValueError, match="not refined by the micro grid"):
        restrict_path(path, np.array([0.0, 0.3, 1.0]), 4)  # 0.3 not a micro node
    with pytest.raises(ValueError, match="not refined by the micro grid"):
        restrict_path(path, np.arange(33) * 2.0**-5, 4)  # finer than dt_ref
    with pytest.raises(ValueError, match="mode count"):
        restrict_path(path, np.arange(5) * 0.25, 9)  # more modes than sampled
    for short in (np.arange(4) * 0.25, np.arange(1, 5) * 0.25):
        with pytest.raises(ValueError, match="must span the stretch"):
            restrict_path(path, short, 4)  # stops short of [0, 1]
    for few in (np.array([0.0]), np.empty(0), np.zeros((2, 2))):
        with pytest.raises(ValueError, match="at least one step"):
            restrict_path(path, few, 4)
    # as many nodes as the micro grid, but not its nodes
    off = path.nodes[0].copy()
    off[1] += 1e-3
    with pytest.raises(ValueError, match="not refined by the micro grid"):
        restrict_path(path, off, 4)
    # one partition per row of a chunk, neither fewer nor more, and a
    # whole path is one row
    chunk = PathStream(1.0, 2.0**-4, 8, model, 7, range(3)).draw(0, 16,
                                                                 range(3))
    grid = np.arange(5) * 0.25
    for parts in ([grid], [grid] * 4):
        with pytest.raises(ValueError, match=f"^{len(parts)} partitions for "
                           "a chunk of 3 rows"):
            restrict_chunk(chunk, parts, 4)
    with pytest.raises(ValueError, match="one row, got 3"):
        restrict_path(chunk, grid, 4)
    # a finer chunk must refine the partitions, row for row, with enough
    # modes; one that lacks a coarse node is refused like a partition off
    # the micro grid
    finer = restrict_chunk(chunk, [grid] * 3, 4)
    with pytest.raises(ValueError, match="not refined by the finer "
                       "partition"):
        restrict_chunk(chunk, [np.arange(9) * 0.125] * 3, 4, finer)
    with pytest.raises(ValueError, match="a finer chunk of 2 rows for 3"):
        restrict_chunk(chunk, [grid[::2]] * 3, 4,
                       replace(finer, nodes=finer.nodes[:2]))
    with pytest.raises(ValueError, match=r"mode count must lie in \[1, 4\]"):
        restrict_chunk(chunk, [grid[::2]] * 3, 8, finer)


# ---------------------------------------------------------------------------
# compensated jump statistics


def test_compensated_step_increment_is_centred():
    # scheme-B step jump term: sum of marks minus dt * mean_g has zero mean
    model = two_point_model(n=8, intensity=3.0)
    dt = 0.25
    rng = np.random.default_rng(505)
    m_samples = 100000
    counts = rng.poisson(model.intensity * dt, m_samples)
    xis = model.law.sample(rng, int(counts.sum()))
    owner = np.repeat(np.arange(m_samples), counts)
    sums = np.bincount(owner, weights=xis, minlength=m_samples)
    centred = sums - dt * model.intensity * model.law.mean()
    se = centred.std() / math.sqrt(m_samples)
    assert abs(centred.mean()) < 3 * se
    # the per-mode increment is the scalar times the profile, so the same
    # bound transfers mode by mode
    mean_modes = centred.mean() * model.profile.coeffs
    assert np.all(np.abs(mean_modes) <= 3 * se * np.abs(model.profile.coeffs) + 1e-300)


def test_jump_convolution_martingale_and_isometry():
    # E N(t) = 0 and E ||N(t)||^2 = intensity E[xi^2] sum_k phi_k^2 v_k(t)
    model = two_point_model(n=16, intensity=2.0)
    lam = eigenvalues(16)
    phi = model.profile.coeffs
    t = 0.5
    target = 2.0 * model.law.mean_square() * float(np.sum(phi**2 * conv_variance(lam, t)))
    m_samples = 20000
    acc = np.zeros(16)
    sq = np.empty(m_samples)
    for i in range(m_samples):
        times, xis = sample_jump_skeleton(1.0, model,
                                          stream(99, i, PURPOSE_JUMPS))
        v = compensated_jump_convolution(1.0, times, xis, model, 16, t).coeffs
        acc += v
        sq[i] = float(v @ v)
    se_sq = sq.std() / math.sqrt(m_samples)
    assert abs(sq.mean() - target) < 4 * se_sq
    # componentwise zero mean at 4 SE (modes are scaled copies of one scalar
    # only within a single jump; across jumps they decorrelate, so test mode 1)
    assert abs(acc[0] / m_samples) < 4 * math.sqrt(target / m_samples)


def test_jump_convolution_rejects_bad_time():
    model = two_point_model()
    times, xis = np.array([0.5]), np.array([1.0])
    compensated_jump_convolution(1.0, times, xis, model, 8, 0.0)
    compensated_jump_convolution(1.0, times, xis, model, 8, 1.0)
    for t in (1.5, -0.25):
        with pytest.raises(ValueError, match="outside the skeleton horizon"):
            compensated_jump_convolution(1.0, times, xis, model, 8, t)
