"""Spectral representation of functions on (0, 1) with Dirichlet boundaries.

Everything in this package lives in the sine basis e_k(x) = sqrt(2) sin(k pi x),
k = 1, 2, ..., which diagonalises the Laplacian with Dirichlet conditions:
-u'' = lambda_k u with lambda_k = pi^2 k^2.  A function is represented by its
coefficient vector (a_1, ..., a_N); the heat semigroup, its integrated variant
and fractional Sobolev norms are all diagonal in this basis.  Nonlinearities
are applied pseudo-spectrally on an interior uniform grid sized to avoid
aliasing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "SpectralState",
    "NonlinearitySpec",
    "eigenvalues",
    "project",
    "hnorm",
    "semigroup_apply",
    "phi1_apply",
    "to_physical",
    "from_physical",
    "nemytskii",
]


def eigenvalues(n: int) -> np.ndarray:
    """Dirichlet Laplacian eigenvalues lambda_k = pi^2 k^2 for k = 1..n."""
    if n < 1:
        raise ValueError(f"need at least one mode, got n={n}")
    k = np.arange(1, n + 1, dtype=np.float64)
    return (np.pi * k) ** 2


@dataclass(frozen=True, eq=False)
class SpectralState:
    """Coefficient vector of a function in the Dirichlet sine basis.

    Coefficients are stored against the orthonormal modes e_k(x) =
    sqrt(2) sin(k pi x).  States of different lengths embed into each other
    by zero padding, which is what the arithmetic helpers below do.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=np.float64)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("coefficients must form a non-empty 1-d vector")
        if not np.all(np.isfinite(arr)):
            raise ValueError("coefficients must be finite")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @property
    def dim(self) -> int:
        return self.coeffs.size

    def __add__(self, other: "SpectralState") -> "SpectralState":
        a, b = _aligned(self.coeffs, other.coeffs)
        return SpectralState(a + b)

    def __sub__(self, other: "SpectralState") -> "SpectralState":
        a, b = _aligned(self.coeffs, other.coeffs)
        return SpectralState(a - b)

    def __mul__(self, scalar: float) -> "SpectralState":
        return SpectralState(self.coeffs * float(scalar))

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, SpectralState):
            return NotImplemented
        return np.array_equal(self.coeffs, other.coeffs)

    def __hash__(self) -> int:
        return hash(self.coeffs.tobytes())


def _aligned(a: np.ndarray, b: np.ndarray):
    """Zero-pad the shorter of two coefficient vectors to a common length."""
    if a.size == b.size:
        return a, b
    n = max(a.size, b.size)
    if a.size < n:
        a = np.concatenate([a, np.zeros(n - a.size)])
    if b.size < n:
        b = np.concatenate([b, np.zeros(n - b.size)])
    return a, b


def project(state: SpectralState, n_target: int) -> SpectralState:
    """Orthogonal projection onto the first n_target modes.

    Truncates when n_target < dim and zero-pads when n_target > dim, so the
    operation is idempotent and norm non-increasing.
    """
    if n_target < 1:
        raise ValueError(f"target dimension must be positive, got {n_target}")
    a = state.coeffs
    if n_target <= a.size:
        return SpectralState(a[:n_target])
    return SpectralState(np.concatenate([a, np.zeros(n_target - a.size)]))


def hnorm(state: SpectralState, s: float = 0.0) -> float:
    """Fractional Sobolev norm (sum_k lambda_k^s a_k^2)^(1/2).

    s = 0 is the plain L2 norm; s in [-1, 1] is supported, which covers every
    norm the schemes and the experiment harness need.
    """
    if not -1.0 <= s <= 1.0:
        raise ValueError(f"order s must lie in [-1, 1], got {s}")
    lam = eigenvalues(state.dim)
    if s == 0.0:
        return float(np.sqrt(np.sum(state.coeffs**2)))
    return float(np.sqrt(np.sum(lam**s * state.coeffs**2)))


def semigroup_apply(state: SpectralState, t: float) -> SpectralState:
    """Heat semigroup E(t): a_k -> exp(-lambda_k t) a_k.  Requires t >= 0."""
    if t < 0:
        raise ValueError(f"semigroup time must be non-negative, got {t}")
    lam = eigenvalues(state.dim)
    return SpectralState(np.exp(-lam * t) * state.coeffs)


def phi1_apply(state: SpectralState, t: float) -> SpectralState:
    """Integrated semigroup int_0^t E(s) ds: a_k -> a_k (1 - exp(-lambda_k t)) / lambda_k.

    Computed with expm1 so small lambda_k * t does not lose accuracy.
    t = 0 gives the zero state.
    """
    if t < 0:
        raise ValueError(f"integration time must be non-negative, got {t}")
    lam = eigenvalues(state.dim)
    return SpectralState(-np.expm1(-lam * t) / lam * state.coeffs)


_SQRT2 = math.sqrt(2.0)


def _sine_table(n_modes: int, m_nodes: int) -> np.ndarray:
    """Matrix S[k-1, m-1] = sin(k pi x_m) on the interior nodes x_m = m/(M+1)."""
    k = np.arange(1, n_modes + 1)[:, None]
    m = np.arange(1, m_nodes + 1)[None, :]
    table = np.sin(np.pi * k * m / (m_nodes + 1))
    table.setflags(write=False)
    return table


# From this many grid modes on, the Nemytskii transforms run on the half-width
# tables of `_mirror_table`.  On blocks of 32 rows that takes about 68% of the
# full-table time at 256 modes and 85% at 128; at the temporal studies' 64
# modes it is 10% slower, and at 32 or fewer 1.6 to 2.2 times as slow.  The
# mode count alone chooses, so a row's doubles never depend on its block;
# moving the threshold would move the bytes of every n between the two.
_MIRROR_MODES = 128


def _mirror_table(n_modes: int, m_nodes: int) -> np.ndarray:
    """The odd-k and the even-k rows of `_sine_table` on the nodes up to the
    middle one, shape (2, ceil(n_modes / 2), (m_nodes + 1) / 2) for odd
    m_nodes; an odd n_modes pads the even half with a zero row.

    Since sin(k pi (1 - x)) = (-1)^(k+1) sin(k pi x), these rows give the
    table on every node.
    """
    full = _sine_table(n_modes, m_nodes)
    half = (m_nodes + 1) // 2
    table = np.zeros((2, (n_modes + 1) // 2, half))
    table[0] = full[0::2, :half]
    table[1, :n_modes // 2] = full[1::2, :half]
    table.setflags(write=False)
    return table


@lru_cache(maxsize=64)
def _node_table(n_modes: int, m_nodes: int, mirror: bool) -> np.ndarray:
    """`_mirror_table` (shape (2, half, width)) or `_sine_table` (shape
    (m_nodes, n_modes)) node-major: each table transposed, copied
    C-contiguous from a 64-byte boundary and read-only.

    The kernel's products run about 1.5 times as fast on this layout, and
    only when it is aligned.  Neither row-major table stays cached.  The
    even-k half starts 8 x half x width bytes in, so it is aligned as well
    when half x width is a multiple of 8, as at every multiple of 16 modes.
    """
    rows = (_mirror_table if mirror else _sine_table)(n_modes, m_nodes)
    nodes = rows.swapaxes(-1, -2)
    buf = np.empty(nodes.nbytes + 64, dtype=np.uint8)
    start = -buf.ctypes.data % 64
    table = buf[start:start + nodes.nbytes].view(np.float64).reshape(
        nodes.shape)
    table[...] = nodes
    table.setflags(write=False)
    return table


def to_physical(state: SpectralState, m_nodes: int) -> np.ndarray:
    """Evaluate the function at the interior nodes x_m = m/(M+1), m = 1..M.

    Requires m_nodes >= dim so every stored mode is resolved on the grid.
    """
    if m_nodes < state.dim:
        raise ValueError(
            f"need at least {state.dim} nodes to resolve {state.dim} modes, got {m_nodes}"
        )
    table = _sine_table(state.dim, m_nodes)
    return math.sqrt(2.0) * (state.coeffs @ table)


def from_physical(values: np.ndarray, n_modes: int) -> SpectralState:
    """Discrete sine analysis of interior node values back to n_modes coefficients.

    Uses the exactness of the trapezoid-type rule on the interior grid:
    a_k = sqrt(2)/(M+1) * sum_m values_m sin(k pi x_m).  Requires
    M >= 2 n_modes + 1 so no aliasing corrupts the requested modes.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1:
        raise ValueError("node values must form a 1-d vector")
    m_nodes = values.size
    if m_nodes < 2 * n_modes + 1:
        raise ValueError(
            f"need at least {2 * n_modes + 1} nodes for {n_modes} alias-free modes, got {m_nodes}"
        )
    table = _sine_table(n_modes, m_nodes)
    return SpectralState(math.sqrt(2.0) / (m_nodes + 1) * (table @ values))


@dataclass(frozen=True)
class NonlinearitySpec:
    """Pointwise drift nonlinearity f applied through the Nemytskii operator.

    Supported kinds: "zero", "linear" (f(u) = coef * u) and "sine"
    (f(u) = coef * sin(u)).  All are globally Lipschitz with constant |coef|.
    """

    kind: str
    coef: float = 0.0

    _KINDS = ("zero", "linear", "sine")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown nonlinearity kind {self.kind!r}")
        if not np.isfinite(self.coef):
            raise ValueError("nonlinearity coefficient must be finite")
        if self.kind == "zero" and self.coef != 0.0:
            raise ValueError(
                f"nonlinearity kind 'zero' takes coef 0, got {self.coef}")

    @classmethod
    def zero(cls) -> "NonlinearitySpec":
        return cls("zero", 0.0)

    @classmethod
    def linear(cls, coef: float) -> "NonlinearitySpec":
        return cls("linear", coef)

    @classmethod
    def sine(cls, coef: float) -> "NonlinearitySpec":
        return cls("sine", coef)

    @property
    def lipschitz(self) -> float:
        """Global Lipschitz constant of the pointwise map."""
        return 0.0 if self.kind == "zero" else abs(self.coef)


class NemytskiiKernel:
    """Precomputed pseudo-spectral evaluation of P_N f(u) on raw arrays.

    The quadrature grid has M = 2 max(n_in, n_out) + 1 interior nodes, which
    is alias-free for the output band and exact for linear f.  The scheme
    loops call this object directly on coefficient arrays, one state of
    shape (n_in,) or a block of shape (B, n_in); `nemytskii` wraps it for
    SpectralState arguments.  Each row of a block gets exactly the doubles
    of a 1-D call: the transforms are stacked matrix-vector products, one
    BLAS gemv per row on the same table with the same strides, so a row's
    sums run in the same order whatever its block or its place in it; a
    2-D matrix product would round a row differently depending on the
    block.  The table is node-major (`_node_table`), synthesis is table
    times column, (M, n_in) x (n_in, 1), and analysis row times table,
    (1, M) x (M, n_out).  From `_MIRROR_MODES` grid modes on, the
    transforms fold the grid's mirror symmetry: the odd and the even modes
    each take one product with a half-width table, which rounds
    differently from the full table by a few ulps.
    """

    def __init__(self, spec: NonlinearitySpec, n_in: int, n_out: int):
        self.spec = spec
        self.n_in = n_in
        self.n_out = n_out
        self.m_nodes = 2 * max(n_in, n_out) + 1
        self._mirror = max(n_in, n_out) >= _MIRROR_MODES
        if spec.kind == "sine":
            # synthesis/analysis tables only needed on the transform path;
            # one array for both when n_in == n_out
            self._syn = _node_table(n_in, self.m_nodes, self._mirror)
            self._ana = _node_table(n_out, self.m_nodes, self._mirror)
            self._scale = math.sqrt(2.0) / (self.m_nodes + 1)

    def __call__(self, coeffs: np.ndarray) -> np.ndarray:
        spec = self.spec
        shape = coeffs.shape[:-1] + (self.n_out,)
        if spec.kind == "zero":
            return np.zeros(shape)
        if spec.kind == "linear":
            # linearity commutes with projection; skip the transforms
            out = np.zeros(shape)
            n = min(self.n_in, self.n_out)
            np.multiply(spec.coef, coeffs[..., :n], out=out[..., :n])
            return out
        if self._mirror:
            values = self._mirror_synthesis(coeffs.reshape(-1, self.n_in))
        else:
            values = np.matmul(self._syn, coeffs.reshape(-1, self.n_in, 1))
        values *= _SQRT2
        np.sin(values, out=values)
        values *= spec.coef
        if self._mirror:
            out = self._mirror_analysis(values)
        else:
            out = np.matmul(values.reshape(-1, 1, self.m_nodes), self._ana)
        out *= self._scale
        return out.reshape(shape)

    def _mirror_synthesis(self, rows: np.ndarray) -> np.ndarray:
        """Sum over the modes at every node of rows of shape (B, n_in): the
        odd and the even modes give P and Q on the nodes up to the middle
        one, so the sum is P + Q there and P - Q at their mirror nodes."""
        _, half, width = self._syn.shape
        split = np.zeros((rows.shape[0], 2, width, 1))
        split[:, 0, :, 0] = rows[:, 0::2]
        split[:, 1, :self.n_in // 2, 0] = rows[:, 1::2]
        pq = np.matmul(self._syn, split)
        p, q = pq[:, 0, :, 0], pq[:, 1, :, 0]
        values = np.empty((rows.shape[0], self.m_nodes))
        np.add(p, q, out=values[:, :half])
        np.subtract(p[:, :-1], q[:, :-1], out=values[:, :half - 1:-1])
        return values

    def _mirror_analysis(self, values: np.ndarray) -> np.ndarray:
        """The unscaled sine coefficients of node values of shape (B, M):
        the odd modes read each node plus its mirror, the even modes each
        node minus its mirror, and both the middle node."""
        half = self._ana.shape[1]
        near, far = values[:, :half - 1], values[:, :half - 1:-1]
        folded = np.empty((values.shape[0], 2, 1, half))
        np.add(near, far, out=folded[:, 0, 0, :-1])
        np.subtract(near, far, out=folded[:, 1, 0, :-1])
        folded[:, :, 0, -1] = values[:, half - 1:half]
        both = np.matmul(folded, self._ana)
        out = np.empty((values.shape[0], self.n_out))
        out[:, 0::2] = both[:, 0, 0]
        out[:, 1::2] = both[:, 1, 0, :self.n_out // 2]
        return out


def nemytskii(state: SpectralState, spec: NonlinearitySpec, n_out: int) -> SpectralState:
    """Projected composition P_N f(u) computed pseudo-spectrally."""
    if n_out < 1:
        raise ValueError(f"output dimension must be positive, got {n_out}")
    kernel = NemytskiiKernel(spec, state.dim, n_out)
    return SpectralState(kernel(state.coeffs))
