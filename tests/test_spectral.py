"""Unit and property tests for the sine-basis spectral core.

Expected values are either closed forms of the Dirichlet eigenbasis or are
recomputed inline by an independent oracle (Taylor expansion, Riemann sum,
dense quadrature loops).
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from levyheat.experiments import MAX_BLOCK
from levyheat.spectral import (
    NemytskiiKernel,
    NonlinearitySpec,
    SpectralState,
    _sine_table,
    eigenvalues,
    from_physical,
    hnorm,
    nemytskii,
    phi1_apply,
    project,
    semigroup_apply,
    to_physical,
)


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


def _node_major(table):
    """A row-major sine table as the C-contiguous node-major matrix that
    the kernel multiplies by."""
    return np.ascontiguousarray(table.T)


def _full_table_reference(row, coef, n_in, n_out):
    """P_N f(u) of one row through the full sine tables, in 1-D: synthesis
    as table times column, analysis as row times table."""
    m = 2 * max(n_in, n_out) + 1
    values = math.sqrt(2.0) * (_node_major(_sine_table(n_in, m)) @ row)
    np.sin(values, out=values)
    values *= coef
    return math.sqrt(2.0) / (m + 1) * (values @ _node_major(
        _sine_table(n_out, m)))


def _half_tables(n, m):
    """The odd-k and the even-k rows of the sine table on the nodes up to
    the middle one, node-major; an odd n pads the even modes with a zero."""
    half, width = (m + 1) // 2, (n + 1) // 2
    table = _sine_table(n, m)
    odd, even = np.zeros((width, half)), np.zeros((width, half))
    odd[:] = table[0::2, :half]
    even[:n // 2] = table[1::2, :half]
    return _node_major(odd), _node_major(even)


def _mirrored_reference(row, coef, n_in, n_out):
    """P_N f(u) of one row through the half-width tables, in 1-D.

    sin(k pi (1 - x)) = (-1)^(k+1) sin(k pi x), so the odd modes give P and
    the even modes Q on the nodes up to the middle one x = 1/2, the node
    values are P + Q there and P - Q at the mirror nodes, and the analysis
    reads node plus mirror for odd modes and node minus mirror for even.
    Synthesis is table times column, analysis row times table.
    """
    n = max(n_in, n_out)
    m = 2 * n + 1
    odd, even = _half_tables(n_in, m)
    a_odd, a_even = np.zeros(odd.shape[1]), np.zeros(even.shape[1])
    a_odd[:] = row[0::2]
    a_even[:n_in // 2] = row[1::2]
    p, q = odd @ a_odd, even @ a_even
    values = np.concatenate([p + q, (p - q)[-2::-1]])
    values *= math.sqrt(2.0)
    np.sin(values, out=values)
    values *= coef
    near, far, middle = values[:n], values[:n:-1], values[n]
    odd, even = _half_tables(n_out, m)
    out = np.empty(n_out)
    out[0::2] = np.append(near + far, middle) @ odd
    out[1::2] = (np.append(near - far, middle) @ even)[:n_out // 2]
    return math.sqrt(2.0) / (m + 1) * out


@pytest.mark.parametrize("n", [4, 64, 128, 131, 256])
def test_nemytskii_kernel_block_rows_match_vector_products(n):
    # a (B, n) block must give every row the bytes of the plain 1-D
    # transform, whatever the block size or the row's place: the full sine
    # tables below 128 modes (n = 64 is the temporal studies' n_ref), the
    # half-width mirrored tables from 128 on (the spatial n_ref = 256)
    rng = np.random.default_rng(n)
    block = rng.standard_normal((7, n))
    # rows whose coefficients fall off like the schemes' states
    states = rng.standard_normal((7, n)) / np.arange(1, n + 1)
    full_block = rng.standard_normal((MAX_BLOCK, n))
    for coef in (1.0, -0.7):
        kernel = NemytskiiKernel(NonlinearitySpec.sine(coef), n, n)
        for rows in (block, block[:1], block[2:6], states, full_block):
            got = kernel(rows)
            assert got.shape == rows.shape
            for row, out in zip(rows, got):
                if n >= 128:
                    expected = _mirrored_reference(row, coef, n, n)
                else:
                    expected = _full_table_reference(row, coef, n, n)
                assert out.tobytes() == expected.tobytes()
                assert out.tobytes() == kernel(row).tobytes()
        # the mirrored products round differently from the full table's:
        # within 1e-13 on rows shaped like the states the schemes step, and
        # within 1e-12 on unit-normal rows, where the full table's own
        # entries, sin of arguments up to n pi, carry most of the rounding
        # (`test_mirrored_kernel_against_extended_precision`)
        for rows, rtol in ((states, 1e-13), (block, 1e-12)):
            for row, out in zip(rows, kernel(rows)):
                full = _full_table_reference(row, coef, n, n)
                assert (np.linalg.norm(out - full)
                        <= rtol * np.linalg.norm(full))
    for spec in (NonlinearitySpec.zero(), NonlinearitySpec.linear(2.5)):
        kernel = NemytskiiKernel(spec, n, n)
        got = kernel(block)
        for row, out in zip(block, got):
            assert out.tobytes() == kernel(row).tobytes()


@pytest.mark.parametrize("n_in, n_out", [(131, 256), (256, 131), (40, 128)])
def test_mirrored_kernel_with_unequal_mode_counts(n_in, n_out):
    # the larger mode count alone sets the grid and the path
    rng = np.random.default_rng(n_in + n_out)
    rows = rng.standard_normal((3, n_in)) / np.arange(1, n_in + 1)
    kernel = NemytskiiKernel(NonlinearitySpec.sine(0.8), n_in, n_out)
    for row, out in zip(rows, kernel(rows)):
        full = _full_table_reference(row, 0.8, n_in, n_out)
        assert out.tobytes() == kernel(row).tobytes()
        assert np.linalg.norm(out - full) <= 1e-13 * np.linalg.norm(full)
    wide = rng.standard_normal((MAX_BLOCK, n_in)) / np.arange(1, n_in + 1)
    for block in (wide, wide[:1], wide[2:6], wide[:7]):
        for row, out in zip(block, kernel(block)):
            expected = _mirrored_reference(row, 0.8, n_in, n_out)
            assert out.tobytes() == expected.tobytes()
            assert out.tobytes() == kernel(row).tobytes()


@pytest.mark.parametrize("n", [4, 64, 128, 131, 256])
def test_kernel_table_is_aligned_node_major_and_shared(n):
    # the gemv products are fast only on a C-contiguous table that starts
    # on a 64-byte boundary; a misaligned one gives the same bytes slower,
    # so only the layout can show the loss
    kernel = NemytskiiKernel(NonlinearitySpec.sine(1.0), n, n)
    table = kernel._syn
    assert kernel._ana is table
    assert table.flags.c_contiguous and not table.flags.writeable
    assert table.ctypes.data % 64 == 0
    m = 2 * n + 1
    if n >= 128:
        assert table.shape == (2, n + 1, (n + 1) // 2)
        assert np.array_equal(table[0], _half_tables(n, m)[0])
        assert np.array_equal(table[1], _half_tables(n, m)[1])
    else:
        assert np.array_equal(table, _sine_table(n, m).T)


_THREAD_PROBE = """
import hashlib
import numpy as np
from levyheat.spectral import NemytskiiKernel, NonlinearitySpec
digest = hashlib.sha256()
for n in (256, 512):
    rng = np.random.default_rng(n)
    block = rng.standard_normal((32, n)) / np.arange(1, n + 1)
    kernel = NemytskiiKernel(NonlinearitySpec.sine(1.0), n, n)
    digest.update(kernel(block).tobytes())
    digest.update(kernel(block[0]).tobytes())
print(digest.hexdigest())
"""


def test_kernel_bytes_do_not_depend_on_blas_threads():
    # the mirrored products at n = 256 and 512 (half tables of 257 x 128
    # and 513 x 256) are large enough for OpenBLAS to split across threads
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       [os.path.abspath(src), os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-c", _THREAD_PROBE], env=env,
                             capture_output=True, text=True, check=True,
                             timeout=120)
        digests.append(run.stdout.strip())
    assert len(digests[0]) == 64
    assert digests[0] == digests[1]


def _extended_reference(row, coef, n):
    """P_N f(u) of one row in extended precision, with exact sine arguments.

    sin(k pi m / (M + 1)) is evaluated at k m reduced exactly modulo
    2 (M + 1), so no argument carries the rounding of k m pi.
    """
    ld = np.longdouble
    m = 2 * n + 1
    r = (np.arange(1, n + 1)[:, None] * np.arange(1, m + 1)) % (2 * (m + 1))
    table = np.sin(4 * np.arctan(ld(1)) * r.astype(ld) / ld(m + 1))
    values = ld(coef) * np.sin(np.sqrt(ld(2)) * (row.astype(ld) @ table))
    return np.sqrt(ld(2)) / ld(m + 1) * (table @ values)


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="needs a long double wider than a double")
@pytest.mark.parametrize("n", [128, 131, 256])
def test_mirrored_kernel_against_extended_precision(n):
    # the mirrored transform is the more accurate of the two double
    # products: its rows lie closer, in sum, to an extended-precision
    # transform than the full table's, and within 1e-12 of it
    rng = np.random.default_rng(n)
    block = rng.standard_normal((7, n))
    states = rng.standard_normal((7, n)) / np.arange(1, n + 1)
    kernel = NemytskiiKernel(NonlinearitySpec.sine(1.0), n, n)
    for rows in (block, states):
        mirrored = full = 0.0
        for row, out in zip(rows, kernel(rows)):
            exact = _extended_reference(row, 1.0, n)
            scale = float(np.linalg.norm(exact))
            err = float(np.linalg.norm(out - exact)) / scale
            assert err <= 1e-12
            mirrored += err
            full += float(np.linalg.norm(
                _full_table_reference(row, 1.0, n, n) - exact)) / scale
        assert mirrored <= full


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
