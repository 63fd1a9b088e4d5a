"""Unit and property tests for the sine-basis spectral core.

Expected values are either closed forms of the Dirichlet eigenbasis or are
recomputed inline by an independent oracle (Taylor expansion, Riemann sum,
dense quadrature loops).
"""

import math

import numpy as np
import pytest

from levyheat import (
    NonlinearitySpec,
    SpectralState,
    eigenvalues,
    from_physical,
    hnorm,
    nemytskii,
    phi1_apply,
    project,
    semigroup_apply,
    to_physical,
)
from levyheat.spectral import NemytskiiKernel, _sine_table


def test_eigenvalues_closed_form():
    lam = eigenvalues(3)
    assert lam[0] == pytest.approx(math.pi**2, rel=1e-15)
    assert lam[1] == pytest.approx(4 * math.pi**2, rel=1e-15)
    assert lam[2] == pytest.approx(9 * math.pi**2, rel=1e-15)


def test_state_validation():
    with pytest.raises(ValueError):
        SpectralState([])
    with pytest.raises(ValueError):
        SpectralState([1.0, np.nan])
    with pytest.raises(ValueError):
        SpectralState(np.ones((2, 2)))
    st = SpectralState([1.0, 2.0])
    with pytest.raises(ValueError):
        st.coeffs[0] = 5.0  # stored coefficients are read-only


def test_state_arithmetic_zero_pads():
    a = SpectralState([1.0, 2.0])
    b = SpectralState([1.0, 1.0, 3.0])
    assert np.array_equal((a + b).coeffs, [2.0, 3.0, 3.0])
    assert np.array_equal((a - b).coeffs, [0.0, 1.0, -3.0])
    assert np.array_equal((2.0 * a).coeffs, [2.0, 4.0])


def test_project_idempotent_and_contractive():
    rng = np.random.default_rng(101)
    for _ in range(200):
        n = int(rng.integers(1, 50))
        u = SpectralState(rng.standard_normal(n))
        m = int(rng.integers(1, 60))
        v = project(u, m)
        assert v.dim == m
        assert np.array_equal(project(v, m).coeffs, v.coeffs)
        assert hnorm(v) <= hnorm(u) + 1e-15
    # zero-padding preserves the norm exactly
    u = SpectralState([3.0, -1.0])
    assert hnorm(project(u, 7)) == hnorm(u)


def test_hnorm_worked_example():
    # mode 2 alone: lambda_2 = 4 pi^2, so the H^-1 norm is 1/(2 pi)
    assert hnorm(SpectralState([0.0, 1.0]), -1.0) == pytest.approx(
        1.0 / (2.0 * math.pi), rel=1e-14
    )
    assert hnorm(SpectralState([3.0, 4.0]), 0.0) == pytest.approx(5.0, rel=1e-14)
    with pytest.raises(ValueError):
        hnorm(SpectralState([1.0]), 1.5)


def test_semigroup_composition_law():
    # E(t) E(s) == E(t+s) to near machine precision, over many random cases
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        u = SpectralState(rng.standard_normal(n))
        t1, t2 = rng.uniform(0.0, 2.0, 2)
        two = semigroup_apply(semigroup_apply(u, t1), t2)
        one = semigroup_apply(u, t1 + t2)
        worst = max(worst, float(np.max(np.abs(two.coeffs - one.coeffs))))
    assert worst <= 1e-13


def test_semigroup_contraction_and_identity():
    rng = np.random.default_rng(8)
    u = SpectralState(rng.standard_normal(16))
    assert np.array_equal(semigroup_apply(u, 0.0).coeffs, u.coeffs)
    for t in [1e-6, 0.1, 5.0]:
        assert hnorm(semigroup_apply(u, t)) <= hnorm(u)
    with pytest.raises(ValueError):
        semigroup_apply(u, -1e-12)


def test_semigroup_smoothing_bound():
    # per-mode: lambda^gamma exp(-lambda t) <= gamma^gamma e^-gamma t^-gamma
    lam = eigenvalues(64)
    for gamma in [0.0, 0.25, 0.5, 0.75, 1.0]:
        const = 1.0 if gamma == 0.0 else gamma**gamma * math.exp(-gamma)
        for t in [1e-6, 1e-3, 0.1, 1.0, 10.0]:
            lhs = lam**gamma * np.exp(-lam * t)
            assert np.all(lhs <= const * t**-gamma * (1.0 + 1e-12))


def test_semigroup_hoelder_bound():
    # per-mode: lambda^-rho (exp(-lambda s) - exp(-lambda t)) <= (t-s)^rho
    rng = np.random.default_rng(9)
    lam = eigenvalues(64)
    for rho in [0.0, 0.25, 0.5, 0.75, 1.0]:
        for _ in range(300):
            s, t = np.sort(rng.uniform(0.0, 3.0, 2))
            lhs = lam**-rho * (np.exp(-lam * s) - np.exp(-lam * t))
            assert np.all(lhs <= (t - s) ** rho * (1.0 + 1e-12))


def test_phi1_worked_example():
    got = phi1_apply(SpectralState([1.0]), 1.0).coeffs[0]
    assert got == pytest.approx((1.0 - math.exp(-math.pi**2)) / math.pi**2, rel=1e-14)


def test_phi1_small_time_taylor_oracle():
    # independent oracle: int_0^t exp(-lambda s) ds = t - lambda t^2/2 + lambda^2 t^3/6 - ...
    t = 1e-8
    lam = eigenvalues(3)
    taylor = t - lam * t**2 / 2.0 + lam**2 * t**3 / 6.0
    got = phi1_apply(SpectralState([1.0, 1.0, 1.0]), t).coeffs
    assert np.max(np.abs(got - taylor) / taylor) < 1e-12


def test_phi1_riemann_oracle():
    # independent oracle: midpoint rule for int_0^t exp(-lambda s) ds
    for lam_idx, t in [(0, 0.3), (3, 0.05), (7, 1.0)]:
        lam = float(eigenvalues(8)[lam_idx])
        # midpoint error is ~(lam t / n)^2 / 24 relative; keep it under 1e-6
        n = 20000 + int(300 * lam * t)
        s = (np.arange(n) + 0.5) * (t / n)
        riemann = float(np.sum(np.exp(-lam * s)) * (t / n))
        coeffs = np.zeros(8)
        coeffs[lam_idx] = 1.0
        got = phi1_apply(SpectralState(coeffs), t).coeffs[lam_idx]
        assert got == pytest.approx(riemann, rel=1e-6)


def test_phi1_zero_time():
    u = SpectralState([1.0, 2.0, 3.0])
    assert np.array_equal(phi1_apply(u, 0.0).coeffs, np.zeros(3))


def test_transform_worked_example():
    # sin(pi x) sampled on 5 interior nodes analyses to a_1 = 1/sqrt(2)
    x = np.arange(1, 6) / 6.0
    st = from_physical(np.sin(np.pi * x), 2)
    assert st.coeffs[0] == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-14)
    assert abs(st.coeffs[1]) < 1e-14


def test_transform_round_trip():
    rng = np.random.default_rng(11)
    for n in [1, 2, 5, 16, 64]:
        u = SpectralState(rng.standard_normal(n))
        for m in [2 * n + 1, 3 * n + 2]:
            v = from_physical(to_physical(u, m), n)
            assert np.max(np.abs(v.coeffs - u.coeffs)) <= 1e-12


def test_transform_parseval():
    # quadrature L2 norm on the interior grid matches the coefficient norm
    rng = np.random.default_rng(12)
    for n in [1, 3, 8, 33]:
        u = SpectralState(rng.standard_normal(n))
        m = 2 * n + 1
        vals = to_physical(u, m)
        quad_norm = math.sqrt(float(np.sum(vals**2)) / (m + 1))
        assert abs(quad_norm - hnorm(u)) <= 1e-10


def test_transform_preconditions():
    u = SpectralState(np.ones(4))
    with pytest.raises(ValueError):
        to_physical(u, 3)
    with pytest.raises(ValueError):
        from_physical(np.ones(8), 4)  # needs >= 9 nodes


def test_nemytskii_zero_and_linear():
    rng = np.random.default_rng(13)
    u = SpectralState(rng.standard_normal(10))
    z = nemytskii(u, NonlinearitySpec.zero(), 10)
    assert np.array_equal(z.coeffs, np.zeros(10))
    v = nemytskii(u, NonlinearitySpec.linear(2.5), 6)
    assert np.array_equal(v.coeffs, 2.5 * u.coeffs[:6])
    w = nemytskii(u, NonlinearitySpec.linear(-0.5), 14)
    assert np.array_equal(w.coeffs[:10], -0.5 * u.coeffs)
    assert np.array_equal(w.coeffs[10:], np.zeros(4))


def test_nemytskii_sine_against_dense_quadrature_oracle():
    # independent oracle: same projected composition written as explicit loops
    rng = np.random.default_rng(14)
    for _ in range(20):
        n_in = int(rng.integers(1, 12))
        n_out = int(rng.integers(1, 12))
        coef = float(rng.uniform(-2.0, 2.0))
        u = rng.standard_normal(n_in)
        m = 2 * max(n_in, n_out) + 1
        xs = np.arange(1, m + 1) / (m + 1)
        expected = np.empty(n_out)
        for k in range(1, n_out + 1):
            vals = [
                coef
                * math.sin(
                    sum(
                        u[j] * math.sqrt(2.0) * math.sin((j + 1) * math.pi * x)
                        for j in range(n_in)
                    )
                )
                for x in xs
            ]
            expected[k - 1] = (
                math.sqrt(2.0) / (m + 1) * sum(v * math.sin(k * math.pi * x) for v, x in zip(vals, xs))
            )
        got = nemytskii(SpectralState(u), NonlinearitySpec.sine(coef), n_out)
        assert np.max(np.abs(got.coeffs - expected)) < 1e-12


@pytest.mark.parametrize("n", [4, 64, 256])
def test_nemytskii_kernel_block_rows_match_vector_products(n):
    # a (B, n) block must give every row the bytes of the plain 1-D
    # matrix-vector transform, whatever the block size or the row's place
    rng = np.random.default_rng(n)
    block = rng.standard_normal((7, n))
    m = 2 * n + 1
    syn, ana = _sine_table(n, m), _sine_table(n, m)
    for coef in (1.0, -0.7):
        kernel = NemytskiiKernel(NonlinearitySpec.sine(coef), n, n)
        for rows in (block, block[:1], block[2:6]):
            got = kernel(rows)
            assert got.shape == rows.shape
            for row, out in zip(rows, got):
                values = math.sqrt(2.0) * (row @ syn)
                np.sin(values, out=values)
                values *= coef
                expected = math.sqrt(2.0) / (m + 1) * (ana @ values)
                assert out.tobytes() == expected.tobytes()
                assert out.tobytes() == kernel(row).tobytes()
    for spec in (NonlinearitySpec.zero(), NonlinearitySpec.linear(2.5)):
        kernel = NemytskiiKernel(spec, n, n)
        got = kernel(block)
        for row, out in zip(block, got):
            assert out.tobytes() == kernel(row).tobytes()


def test_nemytskii_lipschitz_transfer():
    # hnorm(P_M f(u) - P_M f(v)) <= L_f hnorm(u - v), inherited from the grid
    rng = np.random.default_rng(15)
    for _ in range(300):
        n = int(rng.integers(1, 30))
        m = int(rng.integers(1, 30))
        spec = NonlinearitySpec.sine(float(rng.uniform(0.1, 3.0)))
        a = SpectralState(rng.standard_normal(n))
        b = SpectralState(rng.standard_normal(n))
        lhs = hnorm(nemytskii(a, spec, m) - nemytskii(b, spec, m))
        assert lhs <= spec.lipschitz * hnorm(a - b) + 1e-8


def test_nonlinearity_validation():
    with pytest.raises(ValueError):
        NonlinearitySpec("cubic", 1.0)
    assert NonlinearitySpec.zero().lipschitz == 0.0
    assert NonlinearitySpec.sine(-2.0).lipschitz == 2.0
