"""Tests for the fully discrete schemes.

The central check re-derives single-mode runs of both schemes with an
independent scalar (pure `math`) reimplementation and demands agreement to
1e-12 over randomized configurations.
"""

import math
import warnings

import numpy as np
import pytest

from levyheat.noise import (
    G1Spec,
    MarkModel,
    PathChunk,
    TwoPointLaw,
    power_profile,
    restrict_path,
    sample_path,
    uniform_nodes,
)
from levyheat.schemes import (
    SCHEME_A,
    SCHEME_B,
    DivergenceError,
    SchemeConfig,
    run_block,
    run_scheme_A,
    run_scheme_B,
    stretch_nodes,
)
from levyheat.spectral import (
    NonlinearitySpec,
    SpectralState,
    eigenvalues,
    project,
)


def zero_model(n=4):
    return MarkModel(0.0, TwoPointLaw(0.5, 1.0, -1.0), power_profile(1.0, 2.0, n))


def silent_path(horizon, dt_ref, n, times, xis):
    """A noise path with jumps (times, xis) and all Wiener draws fixed to
    zero."""
    times, xis = np.asarray(times, dtype=float), np.asarray(xis, dtype=float)
    nodes = np.union1d(uniform_nodes(horizon, dt_ref), times)
    return PathChunk(dt_ref, [nodes], np.zeros((nodes.size - 1, n)),
                     np.array([0, nodes.size - 1]), [times], [xis])


def config(scheme, n, dt, model, f=None, x0=None, horizon=1.0):
    if x0 is None:
        c = np.zeros(n)
        c[0] = 1.0
        x0 = SpectralState(c)
    return SchemeConfig(scheme, n, dt, horizon,
                        f if f is not None else NonlinearitySpec.zero(),
                        model, x0)


def path_nodes(cfg, path):
    """The partition that `run_scheme_A/B` step `cfg` on over `path`."""
    return stretch_nodes(cfg, uniform_nodes(cfg.horizon, cfg.dt_nominal),
                         path.times[0])


def stepwise(cfg, path):
    """The states at every node of `path_nodes(cfg, path)`: `run_block`
    one step at a time on the path's restriction, each step from the state
    the step before it ended on."""
    nodes = path_nodes(cfg, path)
    wiener = restrict_path(path, nodes, cfg.n_modes).wiener
    times, xis = path.times[0], path.xis[0]
    states = [project(cfg.x0, cfg.n_modes).coeffs[None]]
    jumps = 0
    for i in range(nodes.size - 1):
        mine = (nodes[i] < times) & (times <= nodes[i + 1])
        jumps += int(mine.sum())
        block = PathChunk(path.dt_ref, [nodes[i:i + 2]], wiener,
                          np.array([i, i + 1]), [times[mine]], [xis[mine]])
        finals, diverged = run_block(cfg, block, states[-1])
        assert diverged == {}
        states.append(finals)
    assert jumps == times.size  # each jump in exactly one step
    return np.concatenate(states)


# ---------------------------------------------------------------------------
# partitions


def test_uniform_partition_basic():
    # the uniform scheme steps on the plain dt grid, jumps or not
    model = MarkModel(4.0, TwoPointLaw(0.5, 1.0, -1.0),
                      power_profile(1.0, 2.0, 2))
    path = sample_path(1.0, 2.0**-4, 2, model, 3, 1)
    assert path.times[0].size > 0  # the fixture must have jumps to ignore
    part = path_nodes(config(SCHEME_B, 2, 0.25, model), path)
    assert np.array_equal(part, [0.0, 0.25, 0.5, 0.75, 1.0])
    with pytest.raises(ValueError):
        config(SCHEME_B, 2, 0.3, model)  # horizon not a multiple


@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_config_refuses_a_non_finite_horizon_or_step(value):
    for horizon, dt in ((value, 0.25), (1.0, value)):
        with pytest.raises(ValueError, match="multiple of dt_nominal"):
            config(SCHEME_A, 2, dt, zero_model(2), horizon=horizon)


def test_adapted_partition_no_jumps():
    part = path_nodes(config(SCHEME_A, 2, 0.25, zero_model(2)),
                      silent_path(1.0, 2.0**-4, 2, [], []))
    assert np.array_equal(part, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_adapted_partition_merges_coincident_node():
    # a stretch's level node that is also a jump time is one node
    cfg = config(SCHEME_A, 2, 0.25, zero_model(2))
    level = np.arange(5) * 0.25
    nodes = stretch_nodes(cfg, level, np.array([0.5]))
    assert np.array_equal(nodes, level)
    uniform = config(SCHEME_B, 2, 0.25, zero_model(2))
    assert stretch_nodes(uniform, level, np.array([0.3])) is level


def test_adapted_partition_interleaves_jump():
    part = path_nodes(config(SCHEME_A, 2, 0.25, zero_model(2)),
                      silent_path(1.0, 2.0**-4, 2, [0.3], [-1.0]))
    assert np.array_equal(part, [0.0, 0.25, 0.3, 0.5, 0.75, 1.0])
    assert np.max(np.diff(part)) <= 0.25


def test_scheme_partitions_keep_their_invariants():
    # the partitions both schemes step on run from 0 to T, strictly
    # increasing, hold every uniform node and no step longer than dt; the
    # adapted one adds exactly the jump times, the uniform one none
    dt = 0.125
    level = uniform_nodes(1.0, dt)
    model = MarkModel(8.0, TwoPointLaw(0.5, 1.0, -1.0),
                      power_profile(1.0, 2.0, 2))
    jump_sets = [
        np.empty(0),  # no jumps
        np.array([0.5]),  # on a level node
        np.array([1.0]),  # at T
        np.array([0.3, 0.33]),  # two in one step
        np.array([0.125, 0.2, 0.25, 0.9, 1.0]),  # all of these at once
    ] + [sample_path(1.0, 2.0**-6, 2, model, 17, i).times[0]
         for i in range(30)]
    assert max(t.size for t in jump_sets) > 8
    for times in jump_sets:
        for scheme in (SCHEME_A, SCHEME_B):
            nodes = stretch_nodes(config(scheme, 2, dt, model), level, times)
            assert nodes[0] == 0.0 and nodes[-1] == 1.0
            assert np.all(np.diff(nodes) > 0.0)
            assert np.diff(nodes).max() <= dt
            assert np.isin(level, nodes).all()
            added = np.setdiff1d(nodes, level)
            if scheme == SCHEME_A:
                assert np.isin(times, nodes).all()
                assert np.isin(added, times).all()
            else:
                assert added.size == 0


# ---------------------------------------------------------------------------
# configuration


def test_scheme_config_validation():
    with pytest.raises(ValueError):
        config("euler", 4, 0.25, zero_model())
    with pytest.raises(ValueError):
        config(SCHEME_A, 0, 0.25, zero_model(), x0=SpectralState([1.0]))
    with pytest.raises(ValueError):
        config(SCHEME_A, 4, 0.3, zero_model())  # horizon not a multiple
    multiplicative = MarkModel(1.0, TwoPointLaw(0.5, 1.0, -1.0),
                               power_profile(1.0, 2.0, 4), G1Spec.constant(0.2))
    with pytest.warns(UserWarning, match="additive"):
        config(SCHEME_B, 4, 0.25, multiplicative)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        config(SCHEME_A, 4, 0.25, multiplicative)  # adapted scheme: no flag


# ---------------------------------------------------------------------------
# single steps and single jumps, as runs of the scheme


def one_step(cfg):
    """The final state of a one-step scheme-A run (horizon = dt) on a
    silent path without jumps."""
    path = silent_path(cfg.horizon, cfg.dt_nominal, cfg.n_modes, [], [])
    assert path_nodes(cfg, path).size == 2
    return run_scheme_A(cfg, path)


def test_one_step_pure_heat_flow():
    x = SpectralState([1.0, 2.0, 3.0, 4.0])
    y = one_step(config(SCHEME_A, 4, 0.25, zero_model(), x0=x, horizon=0.25))
    assert np.array_equal(y.coeffs, np.exp(-eigenvalues(4) * 0.25) * x.coeffs)


def test_one_step_linear_f_matches_scalar_flow():
    # single mode, f(u) = c u: the map is a_k -> e^{-lam dt} a + c a (1-e^{-lam dt})/lam,
    # a first-order approximation of the exact flow e^{(c-lam) dt} a
    lam = float(eigenvalues(1)[0])
    c, a = 0.8, 1.3
    errs = []
    for dt in [2e-3, 1e-3, 5e-4]:
        cfg = config(SCHEME_A, 1, dt, zero_model(1), f=NonlinearitySpec.linear(c),
                     x0=SpectralState([a]), horizon=dt)
        y = one_step(cfg)
        errs.append(abs(float(y.coeffs[0]) - math.exp((c - lam) * dt) * a))
    assert errs[0] < 1e-4
    for e_big, e_small in zip(errs, errs[1:]):  # local error is O(dt^2)
        assert 3.2 < e_big / e_small < 4.8


def test_one_step_gamma_factor():
    # g1 = constant(beta), centred law, f zero, no draws: X -> E(dt)(1 - dt nu beta) X
    beta, nu, dt = 0.3, 2.0, 0.125
    model = MarkModel(nu, TwoPointLaw(0.5, 1.0, -1.0),
                      power_profile(1.0, 2.0, 4), G1Spec.constant(beta))
    x = SpectralState([1.0, -0.5, 0.25, 2.0])
    y = one_step(config(SCHEME_A, 4, dt, model, x0=x, horizon=dt))
    expected = np.exp(-eigenvalues(4) * dt) * (1.0 - dt * nu * beta) * x.coeffs
    assert np.allclose(y.coeffs, expected, rtol=1e-15, atol=0)


def one_jump(profile, g1, x0):
    """A scheme-A run over [0, 1/2] in one uniform step with one jump of
    magnitude 1 at T = 1/2, no intensity, f zero and silent Wiener draws:
    the state just before the jump, E(1/2) x0, and the terminal state."""
    model = MarkModel(0.0, TwoPointLaw(0.5, 1.0, -1.0), profile, g1)
    post = run_scheme_A(config(SCHEME_A, x0.dim, 0.5, model, x0=x0,
                               horizon=0.5),
                        silent_path(0.5, 0.5, x0.dim, [0.5], [1.0]))
    return np.exp(-eigenvalues(x0.dim) * 0.5) * x0.coeffs, post.coeffs


def test_jump_apply_examples():
    # the additive mark: X_minus + P_N(xi phi)
    pre, post = one_jump(SpectralState([0.0, 2.0]), G1Spec.zero(),
                         SpectralState([1.0, 0.0]))
    assert np.array_equal(post, [pre[0], 2.0])
    # the g1 factor: (1 + g1) X_minus with a zero mark
    pre, post = one_jump(SpectralState([0.0, 0.0]), G1Spec.constant(0.5),
                         SpectralState([2.0, -4.0]))
    assert np.array_equal(post, 1.5 * pre)
    # mark modes above the state dimension are truncated by projection
    pre, post = one_jump(SpectralState([0.5, 0.5, 9.0, 9.0]), G1Spec.zero(),
                         SpectralState([1.0, 1.0]))
    assert np.array_equal(post, pre + [0.5, 0.5])


# ---------------------------------------------------------------------------
# full runs against closed forms


def test_run_A_pure_flow():
    path = silent_path(1.0, 2.0**-4, 4, [], [])
    x0 = SpectralState([1.0, -2.0, 0.5, 3.0])
    cfg = config(SCHEME_A, 4, 0.25, zero_model(), x0=x0)
    x = run_scheme_A(cfg, path)
    expected = np.exp(-eigenvalues(4)) * x0.coeffs
    assert np.allclose(x.coeffs, expected, rtol=1e-13, atol=0)


def test_run_A_gamma_product_oracle():
    # g1 = constant(beta), f zero, silent Wiener, zero mark profile: the run
    # reduces to the scalar product prod_i e^{-lam dt_i}(1 - dt_i nu beta)
    # over steps times (1 + beta) per jump, applied modewise
    beta, nu = 0.25, 2.0
    model = MarkModel(nu, TwoPointLaw(0.5, 1.0, -1.0),
                      SpectralState(np.zeros(4)), G1Spec.constant(beta))
    path = silent_path(1.0, 2.0**-5, 4, [0.33, 0.77], [1.5, -0.8])
    x0 = SpectralState([1.0, -1.0, 2.0, 0.5])
    cfg = config(SCHEME_A, 4, 0.25, model, x0=x0)
    x = run_scheme_A(cfg, path)

    nodes = sorted({0.0, 0.25, 0.5, 0.75, 1.0} | {0.33, 0.77})
    lam = eigenvalues(4)
    expected = x0.coeffs.copy()
    for lo, hi in zip(nodes, nodes[1:]):
        expected = np.exp(-lam * (hi - lo)) * (1.0 - (hi - lo) * nu * beta) * expected
        if hi in (0.33, 0.77):
            expected = (1.0 + beta) * expected
    assert np.allclose(x.coeffs, expected, rtol=1e-12, atol=0)


def test_run_B_single_step_unrolled():
    # dt = T in one step, f zero, additive marks: the recursion unrolls to
    # E(T)x0 + WienerFold(0,T) + E(T)(sum g_N(z_j) - T mean_g)
    model = MarkModel(2.0, TwoPointLaw(0.5, 2.0, -1.0), power_profile(1.0, 2.0, 4))
    path = sample_path(1.0, 2.0**-3, 4, model, 31, 2)
    x0 = SpectralState([1.0, 0.5, -0.5, 0.2])
    cfg = config(SCHEME_B, 4, 1.0, model, x0=x0)
    x = run_scheme_B(cfg, path)

    lam = eigenvalues(4)
    micro = path.nodes[0]
    fold = np.zeros(4)
    for j in range(micro.size - 1):
        fold += np.exp(-lam * (1.0 - micro[j + 1])) * path.wiener[j]
    phi = model.profile.coeffs
    mean_g = model.intensity * model.law.mean() * phi
    expected = (np.exp(-lam) * x0.coeffs + fold
                + np.exp(-lam) * (path.xis[0].sum() * phi - mean_g))
    assert np.allclose(x.coeffs, expected, rtol=0, atol=1e-12)


def test_superposition_linearity():
    # with f linear, g1 constant, centred law, zero mark profile and silent
    # Wiener draws, both schemes are linear in x0
    model = MarkModel(1.5, TwoPointLaw(0.5, 1.0, -1.0),
                      SpectralState(np.zeros(4)), G1Spec.constant(0.4))
    path = silent_path(1.0, 2.0**-5, 4, [0.3, 0.62], [1.0, -1.0])
    f = NonlinearitySpec.linear(0.8)
    xa = SpectralState([1.0, -0.5, 0.25, 2.0])
    xb = SpectralState([0.3, 1.1, -2.0, 0.9])
    combo = SpectralState(1.3 * xa.coeffs - 0.7 * xb.coeffs)
    for scheme, run in [(SCHEME_A, run_scheme_A), (SCHEME_B, run_scheme_B)]:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            outs = [run(config(scheme, 4, 0.25, model, f=f, x0=x), path).coeffs
                    for x in (xa, xb, combo)]
        assert np.allclose(outs[2], 1.3 * outs[0] - 0.7 * outs[1],
                           rtol=0, atol=1e-12)


def test_schemes_agree_without_jumps_bitwise():
    model = zero_model(8)
    path = sample_path(1.0, 2.0**-8, 8, model, 6, 0)
    x0 = SpectralState(np.linspace(1.0, 0.1, 8))
    f = NonlinearitySpec.sine(0.7)
    cfg_a = config(SCHEME_A, 8, 2.0**-5, model, f=f, x0=x0)
    cfg_b = config(SCHEME_B, 8, 2.0**-5, model, f=f, x0=x0)
    assert stepwise(cfg_a, path).tobytes() == stepwise(cfg_b, path).tobytes()
    assert run_scheme_A(cfg_a, path).coeffs.tobytes() == \
        run_scheme_B(cfg_b, path).coeffs.tobytes()


def test_coupling_constraint_enforced():
    model = zero_model(4)
    path = sample_path(1.0, 2.0**-4, 4, model, 1, 0)
    with pytest.raises(ValueError):  # dt finer than the reference step
        run_scheme_A(config(SCHEME_A, 4, 2.0**-5, model), path)
    with pytest.raises(ValueError):  # ratio 3 is not a power of two
        run_scheme_A(config(SCHEME_A, 4, 3 * 2.0**-4, model,
                            horizon=0.75), path)
    with pytest.raises(ValueError, match="power of two"):  # near-dyadic
        run_scheme_A(config(SCHEME_A, 4, 0.25 * (1 + 1e-13), model), path)
    with pytest.raises(ValueError):  # horizon mismatch
        run_scheme_A(config(SCHEME_A, 4, 0.25, model, horizon=0.5), path)
    with pytest.raises(ValueError):  # more modes than the path carries
        run_scheme_A(config(SCHEME_A, 8, 0.25, model), path)


def test_one_step_composition_matches_runners():
    # a run's steps, each run alone from the state the step before it ended
    # on, pass through the state at every node of the run's leading steps
    # and end on the run's terminal state, byte for byte
    model = MarkModel(3.0, TwoPointLaw(0.5, 2.0, -1.0),
                      power_profile(1.0, 2.0, 6), G1Spec.constant(0.3))
    x0 = SpectralState(np.linspace(0.5, -0.5, 6))
    f = NonlinearitySpec.sine(1.0)
    path = sample_path(1.0, 2.0**-7, 6, model, 5, 2)
    times, xis = path.times[0], path.xis[0]
    assert times.size > 0  # the fixture must exercise jumps

    for scheme, run in ((SCHEME_A, run_scheme_A), (SCHEME_B, run_scheme_B)):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            cfg = config(scheme, 6, 2.0**-4, model, f=f, x0=x0)
        states = stepwise(cfg, path)
        assert states[-1].tobytes() == run(cfg, path).coeffs.tobytes()
        nodes = path_nodes(cfg, path)
        wiener = restrict_path(path, nodes, 6).wiener
        for i in range(1, nodes.size - 1):
            mine = times <= nodes[i]
            head = PathChunk(path.dt_ref, [nodes[:i + 1]], wiener,
                             np.array([0, i]), [times[mine]], [xis[mine]])
            finals, diverged = run_block(cfg, head, states[:1])
            assert diverged == {}
            assert finals[0].tobytes() == states[i].tobytes()


def test_a_row_entering_non_finite_is_gone_without_a_report():
    # row 1 enters NaN: it is carried silently and never reported, and
    # row 0, which ends three steps earlier, keeps the doubles of a run alone
    model = MarkModel(3.0, TwoPointLaw(0.5, 2.0, -1.0),
                      power_profile(1.0, 2.0, 6), G1Spec.constant(0.3))
    cfg = config(SCHEME_A, 6, 2.0**-4, model, f=NonlinearitySpec.sine(1.0))
    paths = [sample_path(1.0, 2.0**-7, 6, model, 5, i) for i in (2, 4)]
    level = uniform_nodes(1.0, 2.0**-4)
    parts = [stretch_nodes(cfg, level, p.times[0]) for p in paths]
    assert parts[0].size + 3 == parts[1].size
    wiener = [restrict_path(p, q, 6).wiener for p, q in zip(paths, parts)]

    def block(rows):
        starts = np.cumsum([0] + [wiener[r].shape[0] for r in rows])
        return PathChunk(2.0**-7, [parts[r] for r in rows],
                         np.concatenate([wiener[r] for r in rows]), starts,
                         [paths[r].times[0] for r in rows],
                         [paths[r].xis[0] for r in rows])

    state = np.full((2, 6), 0.5)
    state[1, 2] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        finals, diverged = run_block(cfg, block([0, 1]), state)
        alone, _ = run_block(cfg, block([0]), state[:1])
    assert 1 not in diverged
    assert np.isnan(finals[1]).all()
    assert finals[0].tobytes() == alone[0].tobytes()


# ---------------------------------------------------------------------------
# the scalar brute-force oracle (single mode, both schemes)


def _brute_force_terminal(scheme, lam, x0, horizon, dt, f_kind, f_coef,
                          intensity, mean_xi, g1_const, phi_c,
                          micro_nodes, micro_wiener, jump_times, jump_xis):
    """Independent scalar re-derivation of a single-mode scheme run."""
    mean_g1 = intensity * g1_const
    mean_g = intensity * mean_xi * phi_c

    def f_term(a):
        if f_kind == "zero":
            return 0.0
        if f_kind == "linear":
            return f_coef * a
        total = 0.0  # 3-node discrete sine quadrature of sin(u)
        for m in (1, 2, 3):
            s = math.sin(math.pi * m / 4.0)
            total += f_coef * math.sin(math.sqrt(2.0) * a * s) * s
        return math.sqrt(2.0) / 4.0 * total

    def wiener_between(lo, hi):
        acc = 0.0
        for j in range(len(micro_nodes) - 1):
            if lo <= micro_nodes[j] and micro_nodes[j + 1] <= hi:
                acc += math.exp(-lam * (hi - micro_nodes[j + 1])) * micro_wiener[j]
        return acc

    n_coarse = int(round(horizon / dt))
    nodes = [i * dt for i in range(n_coarse + 1)]
    if scheme == "A":
        nodes = sorted(set(nodes) | set(jump_times))
    a = x0
    for lo, hi in zip(nodes, nodes[1:]):
        d = hi - lo
        e = math.exp(-lam * d)
        p1 = (1.0 - e) / lam
        if scheme == "A":
            jump_term = -d * (mean_g1 * a + mean_g)
        else:
            sg1 = sum(g1_const for t in jump_times if lo < t <= hi)
            sxi = sum(xi for t, xi in zip(jump_times, jump_xis) if lo < t <= hi)
            jump_term = sg1 * a + sxi * phi_c - d * (mean_g1 * a + mean_g)
        a = e * a + p1 * f_term(a) + wiener_between(lo, hi) + e * jump_term
        if scheme == "A":
            for t, xi in zip(jump_times, jump_xis):
                if t == hi:
                    a = (1.0 + g1_const) * a + xi * phi_c
    return a


def test_single_mode_runs_match_scalar_oracle():
    rng = np.random.default_rng(2718)
    lam = float(eigenvalues(1)[0])
    horizon = 0.5
    for case in range(100):
        j = int(rng.integers(2, 5))
        dt = horizon / 2**j
        dt_ref = dt / 2 ** int(rng.integers(1, 4))
        f_kind = ("zero", "linear", "sine")[case % 3]
        f_coef = float(rng.uniform(-1.5, 1.5))
        intensity = 0.0 if case % 4 == 0 else float(rng.uniform(0.5, 4.0))
        g1_const = 0.0 if case % 2 == 0 else float(rng.uniform(-0.5, 0.5))
        phi_c = float(rng.uniform(0.3, 1.5))
        v_plus = float(rng.uniform(0.3, 2.0))
        v_minus = -float(rng.uniform(0.3, 2.0))
        p_plus = float(rng.uniform(0.2, 0.8))
        x0 = float(rng.uniform(-2.0, 2.0))

        g1 = G1Spec.constant(g1_const) if g1_const else G1Spec.zero()
        law = TwoPointLaw(p_plus, v_plus, v_minus)
        model = MarkModel(intensity, law, power_profile(phi_c, 2.0, 1), g1)
        path = sample_path(horizon, dt_ref, 1, model, 97, case)
        fspec = {"zero": NonlinearitySpec.zero(),
                 "linear": NonlinearitySpec.linear(f_coef),
                 "sine": NonlinearitySpec.sine(f_coef)}[f_kind]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            cfg_a = config(SCHEME_A, 1, dt, model, f=fspec,
                           x0=SpectralState([x0]), horizon=horizon)
            cfg_b = config(SCHEME_B, 1, dt, model, f=fspec,
                           x0=SpectralState([x0]), horizon=horizon)
        got_a = float(run_scheme_A(cfg_a, path).coeffs[0])
        got_b = float(run_scheme_B(cfg_b, path).coeffs[0])

        args = (lam, x0, horizon, dt, f_kind, f_coef, intensity,
                law.mean(), g1_const, phi_c,
                path.nodes[0].tolist(), path.wiener[:, 0].tolist(),
                path.times[0].tolist(), path.xis[0].tolist())
        assert abs(got_a - _brute_force_terminal("A", *args)) <= 1e-12
        assert abs(got_b - _brute_force_terminal("B", *args)) <= 1e-12


# ---------------------------------------------------------------------------
# robustness


def test_mean_square_stability_across_levels():
    model = MarkModel(2.0, TwoPointLaw(0.5, 2.0, -1.0),
                      power_profile(1.0, 2.0, 8), G1Spec.constant(0.3))
    f = NonlinearitySpec.sine(1.0)
    x0 = SpectralState(np.r_[1.0, np.zeros(7)])
    means = []
    for dt in [2.0**-4, 2.0**-5, 2.0**-6]:
        cfg = config(SCHEME_A, 8, dt, model, f=f, x0=x0, horizon=0.5)
        acc = 0.0
        for i in range(1000):
            path = sample_path(0.5, 2.0**-6, 8, model, 1234, i)
            final = run_scheme_A(cfg, path).coeffs
            acc += float(final @ final)
        means.append(acc / 1000)
    assert all(np.isfinite(means))
    assert max(means) / min(means) < 1.5


def test_divergence_aborts_run():
    model = zero_model(1)
    path = sample_path(1.0, 2.0**-4, 1, model, 9, 0)
    cfg = config(SCHEME_A, 1, 2.0**-4, model,
                 f=NonlinearitySpec.linear(1e25), x0=SpectralState([1.0]))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError):
            run_scheme_A(cfg, path)

