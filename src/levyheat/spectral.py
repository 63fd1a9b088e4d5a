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
from dataclasses import dataclass, field
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


@lru_cache(maxsize=64)
def _sine_table(n_modes: int, m_nodes: int) -> np.ndarray:
    """Matrix S[k-1, m-1] = sin(k pi x_m) on the interior nodes x_m = m/(M+1)."""
    k = np.arange(1, n_modes + 1)[:, None]
    m = np.arange(1, m_nodes + 1)[None, :]
    table = np.sin(np.pi * k * m / (m_nodes + 1))
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

    def pointwise(self, values: np.ndarray) -> np.ndarray:
        if self.kind == "zero":
            return np.zeros_like(values)
        if self.kind == "linear":
            return self.coef * values
        return self.coef * np.sin(values)


class NemytskiiKernel:
    """Precomputed pseudo-spectral evaluation of P_N f(u) on raw arrays.

    The quadrature grid has M = 2 max(n_in, n_out) + 1 interior nodes, which
    is alias-free for the output band and exact for linear f.  The scheme
    loops call this object directly on coefficient arrays, one state of
    shape (n_in,) or a block of shape (B, n_in); `nemytskii` wraps it for
    SpectralState arguments.  Each row of a block gets exactly the doubles
    of a 1-D call: the transforms are stacked matrix-vector products, since
    a 2-D matrix product rounds a row differently depending on the block.
    """

    def __init__(self, spec: NonlinearitySpec, n_in: int, n_out: int):
        self.spec = spec
        self.n_in = n_in
        self.n_out = n_out
        self.m_nodes = 2 * max(n_in, n_out) + 1
        if spec.kind == "sine":
            # synthesis/analysis tables only needed on the transform path
            self._syn = _sine_table(n_in, self.m_nodes)
            self._ana = _sine_table(n_out, self.m_nodes)
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
        values = np.matmul(coeffs.reshape(-1, 1, self.n_in), self._syn)
        values *= _SQRT2
        np.sin(values, out=values)
        values *= spec.coef
        out = np.matmul(self._ana, values.reshape(-1, self.m_nodes, 1))
        out *= self._scale
        return out.reshape(shape)


def nemytskii(state: SpectralState, spec: NonlinearitySpec, n_out: int) -> SpectralState:
    """Projected composition P_N f(u) computed pseudo-spectrally."""
    if n_out < 1:
        raise ValueError(f"output dimension must be positive, got {n_out}")
    kernel = NemytskiiKernel(spec, state.dim, n_out)
    return SpectralState(kernel(state.coeffs))
