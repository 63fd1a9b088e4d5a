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
    CoupledNoisePath,
    G1Spec,
    JumpSkeleton,
    MarkModel,
    SeedRecord,
    TwoPointLaw,
    build_micro_grid,
    power_profile,
    restrict_path,
    sample_path,
)
from levyheat.schemes import (
    SCHEME_A,
    SCHEME_B,
    DivergenceError,
    SchemeConfig,
    StepNoise,
    TimePartition,
    Trajectory,
    build_adapted_partition,
    jump_apply,
    one_step_phi,
    run_scheme_A,
    run_scheme_B,
    uniform_partition,
)
from levyheat.spectral import NonlinearitySpec, SpectralState, eigenvalues


def zero_model(n=4):
    return MarkModel(0.0, TwoPointLaw(0.5, 1.0, -1.0), power_profile(1.0, 2.0, n))


def silent_path(horizon, dt_ref, n, skeleton):
    """A noise path with all Wiener draws fixed to zero."""
    grid = build_micro_grid(horizon, dt_ref, skeleton)
    wiener = np.zeros((grid.nodes.size - 1, n))
    return CoupledNoisePath(grid, wiener, skeleton, n, SeedRecord(0, 0))


def config(scheme, n, dt, model, f=None, x0=None, horizon=1.0):
    if x0 is None:
        c = np.zeros(n)
        c[0] = 1.0
        x0 = SpectralState(c)
    return SchemeConfig(scheme, n, dt, horizon,
                        f if f is not None else NonlinearitySpec.zero(),
                        model, x0)


# ---------------------------------------------------------------------------
# partitions


def test_uniform_partition_basic():
    part = uniform_partition(1.0, 0.25)
    assert np.array_equal(part.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert part.on_grid.all() and not part.at_jump.any()
    assert part.n_steps == 4 and part.horizon == 1.0
    with pytest.raises(ValueError):
        uniform_partition(1.0, 0.3)


def test_partition_invariants():
    with pytest.raises(ValueError):  # missing multiple / oversize step
        TimePartition(np.array([0.0, 1.0]), 0.5,
                      np.array([True, True]), np.array([False, False]))
    with pytest.raises(ValueError):  # unflagged node
        TimePartition(np.array([0.0, 0.2, 0.5, 1.0]), 0.5,
                      np.array([True, False, True, True]),
                      np.array([False, False, False, False]))
    part = TimePartition(np.array([0.0, 0.2, 0.5, 0.6, 1.0]), 0.5,
                         np.array([True, False, True, False, True]),
                         np.array([False, True, False, True, False]))
    assert np.max(part.deltas) <= 0.5


def test_partition_checks_name_what_is_wrong():
    flags = np.ones(5, dtype=bool)
    with pytest.raises(ValueError, match="every multiple of dt_nominal"):
        # 0.5 is missing, yet no step is longer than 0.5
        TimePartition(np.array([0.0, 0.25, 0.45, 0.75, 1.0]), 0.5,
                      flags, ~flags)
    with pytest.raises(ValueError, match="maximal step exceeds"):
        TimePartition(np.array([0.0, 0.25, 0.5, 0.75, 1.0]), 0.125,
                      flags, ~flags)


def test_adapted_partition_no_jumps():
    sk = JumpSkeleton(1.0, np.empty(0), np.empty(0))
    part = build_adapted_partition(1.0, 0.25, sk)
    assert np.array_equal(part.nodes, uniform_partition(1.0, 0.25).nodes)
    assert part.on_grid.all() and not part.at_jump.any()


def test_adapted_partition_merges_coincident_node():
    sk = JumpSkeleton(1.0, np.array([0.5]), np.array([1.0]))
    part = build_adapted_partition(1.0, 0.25, sk)
    assert np.array_equal(part.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])
    i = 2
    assert part.on_grid[i] and part.at_jump[i]  # merged, flagged both


def test_adapted_partition_interleaves_jump():
    sk = JumpSkeleton(1.0, np.array([0.3]), np.array([-1.0]))
    part = build_adapted_partition(1.0, 0.25, sk)
    assert np.array_equal(part.nodes, [0.0, 0.25, 0.3, 0.5, 0.75, 1.0])
    assert np.array_equal(part.at_jump,
                          [False, False, True, False, False, False])
    assert np.max(part.deltas) <= 0.25


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
# the one-step map


def test_one_step_pure_heat_flow():
    cfg = config(SCHEME_A, 4, 0.25, zero_model())
    x = SpectralState([1.0, 2.0, 3.0, 4.0])
    y = one_step_phi(x, StepNoise(np.zeros(4), np.empty(0)), 0.25, cfg)
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
        y = one_step_phi(SpectralState([a]), StepNoise(np.zeros(1), np.empty(0)),
                         dt, cfg)
        errs.append(abs(float(y.coeffs[0]) - math.exp((c - lam) * dt) * a))
    assert errs[0] < 1e-4
    for e_big, e_small in zip(errs, errs[1:]):  # local error is O(dt^2)
        assert 3.2 < e_big / e_small < 4.8


def test_one_step_gamma_factor():
    # g1 = constant(beta), centred law, f zero, no draws: X -> E(dt)(1 - dt nu beta) X
    beta, nu, dt = 0.3, 2.0, 0.125
    model = MarkModel(nu, TwoPointLaw(0.5, 1.0, -1.0),
                      power_profile(1.0, 2.0, 4), G1Spec.constant(beta))
    cfg = config(SCHEME_A, 4, dt, model)
    x = SpectralState([1.0, -0.5, 0.25, 2.0])
    y = one_step_phi(x, StepNoise(np.zeros(4), np.empty(0)), dt, cfg)
    expected = np.exp(-eigenvalues(4) * dt) * (1.0 - dt * nu * beta) * x.coeffs
    assert np.allclose(y.coeffs, expected, rtol=1e-15, atol=0)


def test_one_step_rejects_mismatched_noise():
    cfg = config(SCHEME_A, 4, 0.25, zero_model())
    x = SpectralState([1.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        one_step_phi(x, StepNoise(np.zeros(3), np.empty(0)), 0.25, cfg)
    with pytest.raises(ValueError):  # adapted steps carry no aggregated jumps
        one_step_phi(x, StepNoise(np.zeros(4), np.array([1.0])), 0.25, cfg)


def test_jump_apply_examples():
    model = zero_model(2)
    out = jump_apply(SpectralState([1.0, 0.0]), SpectralState([0.0, 2.0]),
                     1.0, model)
    assert np.array_equal(out.coeffs, [1.0, 2.0])
    scaled = MarkModel(1.0, TwoPointLaw(0.5, 1.0, -1.0),
                       power_profile(1.0, 2.0, 2), G1Spec.constant(0.5))
    out = jump_apply(SpectralState([2.0, -4.0]), SpectralState([0.0, 0.0]),
                     1.0, scaled)
    assert np.array_equal(out.coeffs, [3.0, -6.0])
    # mark modes above the state dimension are truncated by projection
    out = jump_apply(SpectralState([1.0, 1.0]),
                     SpectralState([0.5, 0.5, 9.0, 9.0]), 1.0, model)
    assert np.array_equal(out.coeffs, [1.5, 1.5])
    with pytest.raises(ValueError):
        jump_apply(SpectralState([1.0]), SpectralState([1.0]), 0.0, model)


# ---------------------------------------------------------------------------
# full runs against closed forms


def test_run_A_pure_flow():
    sk = JumpSkeleton(1.0, np.empty(0), np.empty(0))
    path = silent_path(1.0, 2.0**-4, 4, sk)
    x0 = SpectralState([1.0, -2.0, 0.5, 3.0])
    cfg = config(SCHEME_A, 4, 0.25, zero_model(), x0=x0)
    tr = run_scheme_A(cfg, path)
    expected = np.exp(-eigenvalues(4)) * x0.coeffs
    assert np.allclose(tr.final.coeffs, expected, rtol=1e-13, atol=0)
    assert tr.jump_nodes.size == 0


def test_run_A_gamma_product_oracle():
    # g1 = constant(beta), f zero, silent Wiener, zero mark profile: the run
    # reduces to the scalar product prod_i e^{-lam dt_i}(1 - dt_i nu beta)
    # over steps times (1 + beta) per jump, applied modewise
    beta, nu = 0.25, 2.0
    sk = JumpSkeleton(1.0, np.array([0.33, 0.77]), np.array([1.5, -0.8]))
    model = MarkModel(nu, TwoPointLaw(0.5, 1.0, -1.0),
                      SpectralState(np.zeros(4)), G1Spec.constant(beta))
    path = silent_path(1.0, 2.0**-5, 4, sk)
    x0 = SpectralState([1.0, -1.0, 2.0, 0.5])
    cfg = config(SCHEME_A, 4, 0.25, model, x0=x0)
    tr = run_scheme_A(cfg, path)

    nodes = sorted({0.0, 0.25, 0.5, 0.75, 1.0} | {0.33, 0.77})
    lam = eigenvalues(4)
    expected = x0.coeffs.copy()
    for lo, hi in zip(nodes, nodes[1:]):
        expected = np.exp(-lam * (hi - lo)) * (1.0 - (hi - lo) * nu * beta) * expected
        if hi in (0.33, 0.77):
            expected = (1.0 + beta) * expected
    assert np.allclose(tr.final.coeffs, expected, rtol=1e-12, atol=0)
    assert tr.jump_nodes.size == 2
    # pre-jump rows hold the state before each node jump
    i = tr.jump_nodes[0]
    assert np.allclose((1.0 + beta) * tr.pre_jump[0], tr.states[i],
                       rtol=1e-15, atol=0)


def test_run_B_single_step_unrolled():
    # dt = T in one step, f zero, additive marks: the recursion unrolls to
    # E(T)x0 + WienerFold(0,T) + E(T)(sum g_N(z_j) - T mean_g)
    model = MarkModel(2.0, TwoPointLaw(0.5, 2.0, -1.0), power_profile(1.0, 2.0, 4))
    path = sample_path(1.0, 2.0**-3, 4, model, 31, 2)
    x0 = SpectralState([1.0, 0.5, -0.5, 0.2])
    cfg = config(SCHEME_B, 4, 1.0, model, x0=x0)
    tr = run_scheme_B(cfg, path)

    lam = eigenvalues(4)
    micro = path.grid.nodes
    fold = np.zeros(4)
    for j in range(micro.size - 1):
        fold += np.exp(-lam * (1.0 - micro[j + 1])) * path.wiener[j]
    phi = model.profile.coeffs
    mean_g = model.intensity * model.law.mean() * phi
    expected = (np.exp(-lam) * x0.coeffs + fold
                + np.exp(-lam) * (path.skeleton.xis.sum() * phi - mean_g))
    assert np.allclose(tr.final.coeffs, expected, rtol=0, atol=1e-12)


def test_superposition_linearity():
    # with f linear, g1 constant, centred law, zero mark profile and silent
    # Wiener draws, both schemes are linear in x0
    sk = JumpSkeleton(1.0, np.array([0.3, 0.62]), np.array([1.0, -1.0]))
    model = MarkModel(1.5, TwoPointLaw(0.5, 1.0, -1.0),
                      SpectralState(np.zeros(4)), G1Spec.constant(0.4))
    path = silent_path(1.0, 2.0**-5, 4, sk)
    f = NonlinearitySpec.linear(0.8)
    xa = SpectralState([1.0, -0.5, 0.25, 2.0])
    xb = SpectralState([0.3, 1.1, -2.0, 0.9])
    combo = SpectralState(1.3 * xa.coeffs - 0.7 * xb.coeffs)
    for scheme, run in [(SCHEME_A, run_scheme_A), (SCHEME_B, run_scheme_B)]:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            outs = [run(config(scheme, 4, 0.25, model, f=f, x0=x), path).final.coeffs
                    for x in (xa, xb, combo)]
        assert np.allclose(outs[2], 1.3 * outs[0] - 0.7 * outs[1],
                           rtol=0, atol=1e-12)


def test_schemes_agree_without_jumps_bitwise():
    model = zero_model(8)
    path = sample_path(1.0, 2.0**-8, 8, model, 6, 0)
    x0 = SpectralState(np.linspace(1.0, 0.1, 8))
    f = NonlinearitySpec.sine(0.7)
    ta = run_scheme_A(config(SCHEME_A, 8, 2.0**-5, model, f=f, x0=x0), path)
    tb = run_scheme_B(config(SCHEME_B, 8, 2.0**-5, model, f=f, x0=x0), path)
    assert ta.states.tobytes() == tb.states.tobytes()


def test_coupling_constraint_enforced():
    model = zero_model(4)
    path = sample_path(1.0, 2.0**-4, 4, model, 1, 0)
    with pytest.raises(ValueError):  # dt finer than the reference step
        run_scheme_A(config(SCHEME_A, 4, 2.0**-5, model), path)
    with pytest.raises(ValueError):  # ratio 3 is not a power of two
        run_scheme_A(config(SCHEME_A, 4, 3 * 2.0**-4, model,
                            horizon=0.75), path)
    with pytest.raises(ValueError):  # horizon mismatch
        run_scheme_A(config(SCHEME_A, 4, 0.25, model, horizon=0.5), path)
    with pytest.raises(ValueError):  # more modes than the path carries
        run_scheme_A(config(SCHEME_A, 8, 0.25, model), path)


def test_one_step_composition_matches_runners():
    model = MarkModel(3.0, TwoPointLaw(0.5, 2.0, -1.0),
                      power_profile(1.0, 2.0, 6), G1Spec.constant(0.3))
    x0 = SpectralState(np.linspace(0.5, -0.5, 6))
    f = NonlinearitySpec.sine(1.0)
    path = sample_path(1.0, 2.0**-7, 6, model, 5, 2)
    assert path.skeleton.count > 0  # the fixture must exercise jumps

    cfg = config(SCHEME_A, 6, 2.0**-4, model, f=f, x0=x0)
    tr = run_scheme_A(cfg, path)
    part = build_adapted_partition(1.0, 2.0**-4, path.skeleton)
    bundle = restrict_path(path, part, 6)
    x = tr.states[0]
    for i in range(part.n_steps):
        y = one_step_phi(SpectralState(x), StepNoise(bundle.wiener[i], np.empty(0)),
                         float(part.deltas[i]), cfg)
        ev = bundle.node_event[i + 1]
        if ev >= 0:
            xi = float(path.skeleton.xis[ev])
            y = jump_apply(y, model.mark(xi, 6), xi, model)
        assert np.array_equal(y.coeffs, tr.states[i + 1])
        x = y.coeffs

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        cfg_b = config(SCHEME_B, 6, 2.0**-4, model, f=f, x0=x0)
    tr_b = run_scheme_B(cfg_b, path)
    part_b = uniform_partition(1.0, 2.0**-4)
    bundle_b = restrict_path(path, part_b, 6)
    x = tr_b.states[0]
    for i in range(part_b.n_steps):
        in_step = np.nonzero(bundle_b.event_step == i)[0]
        y = one_step_phi(SpectralState(x),
                         StepNoise(bundle_b.wiener[i], path.skeleton.xis[in_step]),
                         2.0**-4, cfg_b)
        assert np.array_equal(y.coeffs, tr_b.states[i + 1])
        x = y.coeffs


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
        got_a = float(run_scheme_A(cfg_a, path).final.coeffs[0])
        got_b = float(run_scheme_B(cfg_b, path).final.coeffs[0])

        args = (lam, x0, horizon, dt, f_kind, f_coef, intensity,
                law.mean(), g1_const, phi_c,
                path.grid.nodes.tolist(), path.wiener[:, 0].tolist(),
                path.skeleton.times.tolist(), path.skeleton.xis.tolist())
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
            final = run_scheme_A(cfg, path).final.coeffs
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


def test_trajectory_rejects_non_finite_states():
    part = uniform_partition(1.0, 0.5)
    states = np.zeros((3, 2))
    states[2, 1] = np.inf
    with pytest.raises(ValueError):
        Trajectory(part, states, np.empty(0, dtype=np.int64), np.empty((0, 2)))
