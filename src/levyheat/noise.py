"""Coupled multi-resolution noise for the stochastic heat equation.

The driving noise has two independent parts:

* Gaussian space-time white noise, carried per sine mode as the exact
  Ornstein-Uhlenbeck convolution increments
  I_{k,j} = int_{s_j}^{s_{j+1}} exp(-lambda_k (s_{j+1} - u)) d beta_k(u),
  which are centred Gaussians with variance (1 - exp(-2 lambda_k delta)) /
  (2 lambda_k).  Increments on a fine grid compose exactly to increments on
  any coarser grid (`compose_convolution`), so one sampled path serves every
  resolution of a convergence study without re-simulation.

* A compound Poisson jump part.  Marks are rank one, z = xi * phi, with a
  scalar magnitude xi drawn from a configurable law and a fixed smooth
  profile phi.  The jump skeleton (times and magnitudes) is shared across
  resolutions as well.

Randomness comes from counter-based Philox streams keyed by
(global seed, sample index, purpose), so each sample is reproducible in
isolation and independent of how work is scheduled across processes.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from levyheat.spectral import SpectralState, eigenvalues, hnorm, project

__all__ = [
    "PURPOSE_WIENER",
    "PURPOSE_JUMPS",
    "PURPOSE_BOOTSTRAP",
    "stream",
    "SeedRecord",
    "TwoPointLaw",
    "ExpShiftedLaw",
    "TruncatedStableLaw",
    "G1Spec",
    "MarkModel",
    "power_profile",
    "profile_tail_fraction",
    "truncate_levy",
    "JumpSkeleton",
    "sample_jump_skeleton",
    "sample_jump_skeletons",
    "MicroGrid",
    "build_micro_grid",
    "conv_variance",
    "compose_convolution",
    "CoupledNoisePath",
    "sample_path",
    "StepBundle",
    "restrict_path",
    "compensator_coeffs",
    "compensated_jump_convolution",
    "dump_path",
    "load_path",
]

# purpose tags for the per-sample random streams
PURPOSE_WIENER = 1
PURPOSE_JUMPS = 2
PURPOSE_BOOTSTRAP = 3

_QUAD_TOL = 1e-10  # absolute tolerance for law expectations


def _philox_key(global_seed: int, sample_index: int,
                purpose: int) -> np.ndarray:
    """The Philox key of stream (seed, sample, purpose): the seed, then the
    purpose tag in the top 16 bits over the 48-bit sample index."""
    if not 0 <= global_seed < 2**64:
        raise ValueError("global seed must fit in 64 bits")
    if not 0 <= sample_index < 2**48:
        raise ValueError("sample index must fit in 48 bits")
    if not 0 <= purpose < 2**16:
        raise ValueError("purpose tag must fit in 16 bits")
    return np.array(
        [global_seed, (purpose << 48) | sample_index], dtype=np.uint64
    )


def stream(global_seed: int, sample_index: int, purpose: int) -> np.random.Generator:
    """Counter-based random stream keyed by (seed, sample, purpose).

    Streams with distinct keys are statistically independent, and the same
    key always reproduces the same draws regardless of which other streams
    were consumed, which makes sample-level parallelism deterministic.
    """
    key = _philox_key(global_seed, sample_index, purpose)
    return np.random.Generator(np.random.Philox(key=key))


_ZERO_WORDS = np.zeros(4, dtype=np.uint64)


def _rekey(rng: np.random.Generator, global_seed: int, sample_index: int,
           purpose: int) -> None:
    """Move a Philox generator to the start of stream (seed, sample,
    purpose): counter 0 and an empty output buffer, so the draws that
    follow are those of a fresh `stream` with that key."""
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZERO_WORDS,
                  "key": _philox_key(global_seed, sample_index, purpose)},
        "buffer": _ZERO_WORDS,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def _quad(*args, **kwargs):
    """`scipy.integrate.quad`, imported on first use, so that a run whose
    laws need no quadrature never loads scipy.integrate."""
    from scipy import integrate

    return integrate.quad(*args, **kwargs)


@dataclass(frozen=True)
class SeedRecord:
    """Identifies every draw behind one noise path."""

    global_seed: int
    sample_index: int


# ---------------------------------------------------------------------------
# mark magnitude laws


@dataclass(frozen=True)
class TwoPointLaw:
    """xi = v_plus with probability p_plus, else v_minus.

    The default study configuration uses an asymmetric pair so the
    compensator is non-trivial (E[xi] != 0).
    """

    p_plus: float
    v_plus: float
    v_minus: float

    def __post_init__(self):
        if not 0.0 < self.p_plus < 1.0:
            raise ValueError("p_plus must lie strictly inside (0, 1)")
        if self.v_plus == 0.0 or self.v_minus == 0.0:
            raise ValueError("mark magnitudes must be non-zero")
        if not (np.isfinite(self.v_plus) and np.isfinite(self.v_minus)):
            raise ValueError("mark magnitudes must be finite")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return np.where(rng.random(size) < self.p_plus, self.v_plus, self.v_minus)

    def expect(self, fn: Callable[[float], float]) -> float:
        return self.p_plus * fn(self.v_plus) + (1.0 - self.p_plus) * fn(self.v_minus)

    def mean(self) -> float:
        return self.expect(lambda v: v)

    def mean_square(self) -> float:
        return self.expect(lambda v: v * v)

    def abs_moment(self, p: float) -> float:
        return self.expect(lambda v: abs(v) ** p)


@dataclass(frozen=True)
class ExpShiftedLaw:
    """xi = offset + Exponential(rate); support [offset, inf)."""

    rate: float
    offset: float

    def __post_init__(self):
        if self.rate <= 0 or not np.isfinite(self.rate):
            raise ValueError("rate must be positive and finite")
        if self.offset < 0 or not np.isfinite(self.offset):
            raise ValueError("offset must be non-negative and finite")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self.offset + rng.exponential(1.0 / self.rate, size)

    def expect(self, fn: Callable[[float], float]) -> float:
        val, _ = _quad(
            lambda x: fn(self.offset + x) * self.rate * math.exp(-self.rate * x),
            0.0,
            np.inf,
            epsabs=_QUAD_TOL,
            epsrel=1e-12,
        )
        return val

    def mean(self) -> float:
        return self.offset + 1.0 / self.rate

    def mean_square(self) -> float:
        m = 1.0 / self.rate
        return self.offset**2 + 2.0 * self.offset * m + 2.0 * m * m

    def abs_moment(self, p: float) -> float:
        return self.expect(lambda v: abs(v) ** p)


@dataclass(frozen=True)
class TruncatedStableLaw:
    """Normalized magnitude law of a small-jump-truncated tempered stable measure.

    Represents the probability law with density |xi|^(-1-alpha) e^(-|xi|) /
    intensity on {|xi| > eps}, symmetric in sign.  Sampling inverts a
    tabulated one-sided CDF (linear interpolation on a log-spaced grid, CDF
    accuracy around 1e-8, well inside the 1e-6 budget).  Built via
    `truncate_levy`.
    """

    alpha: float
    eps: float
    grid: np.ndarray  # one-sided magnitude grid, increasing from eps
    cdf: np.ndarray  # one-sided CDF values on the grid, 0 -> 1
    half_mass: float  # integral of the unnormalised density over (eps, inf)

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=np.float64)
        c = np.asarray(self.cdf, dtype=np.float64)
        if g.shape != c.shape or g.ndim != 1:
            raise ValueError("grid and cdf must be matching vectors")
        g = g.copy()
        c = c.copy()
        g.setflags(write=False)
        c.setflags(write=False)
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "cdf", c)

    def _density_one_sided(self, x: np.ndarray) -> np.ndarray:
        # normalised over one side: integrates to 1 on (eps, inf)
        return x ** (-1.0 - self.alpha) * np.exp(-x) / self.half_mass

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        mag = np.interp(rng.random(size), self.cdf, self.grid)
        sign = np.where(rng.random(size) < 0.5, 1.0, -1.0)
        return sign * mag

    def expect(self, fn: Callable[[float], float]) -> float:
        def one_side(sgn):
            val, _ = _quad(
                lambda x: fn(sgn * x) * self._density_one_sided(np.asarray(x)),
                self.eps,
                np.inf,
                epsabs=_QUAD_TOL,
                epsrel=1e-12,
                limit=200,
            )
            return 0.5 * val

        return one_side(1.0) + one_side(-1.0)

    def mean(self) -> float:
        return 0.0  # symmetric by construction

    def mean_square(self) -> float:
        return self.expect(lambda v: v * v)

    def abs_moment(self, p: float) -> float:
        return self.expect(lambda v: abs(v) ** p)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedStableLaw):
            return NotImplemented
        return (
            self.alpha == other.alpha
            and self.eps == other.eps
            and self.half_mass == other.half_mass
            and np.array_equal(self.grid, other.grid)
            and np.array_equal(self.cdf, other.cdf)
        )

    def __hash__(self) -> int:
        return hash((self.alpha, self.eps, self.half_mass))


# ---------------------------------------------------------------------------
# mark model


@dataclass(frozen=True)
class G1Spec:
    """Multiplicative jump coefficient g1(z) in G(x, z) = g1(z) x + z.

    Kinds: "zero", "constant" (g1 = value) and "clipped"
    (g1(z) = value * min(1, ||z||)).  All are bounded by |value|.
    """

    kind: str
    value: float = 0.0

    _KINDS = ("zero", "constant", "clipped")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown g1 kind {self.kind!r}")
        if not np.isfinite(self.value):
            raise ValueError("g1 coefficient must be finite")

    @classmethod
    def zero(cls) -> "G1Spec":
        return cls("zero", 0.0)

    @classmethod
    def constant(cls, value: float) -> "G1Spec":
        return cls("constant", value)

    @classmethod
    def clipped(cls, value: float) -> "G1Spec":
        return cls("clipped", value)

    @property
    def bound(self) -> float:
        return 0.0 if self.kind == "zero" else abs(self.value)


def power_profile(c: float, r: float, n: int) -> SpectralState:
    """Mark profile phi_k = c k^(-r).  Decay r >= 2 keeps hnorm(phi, s) finite
    for every s <= 1 with a numerically comfortable margin."""
    if r < 2.0:
        raise ValueError(f"profile decay must satisfy r >= 2, got {r}")
    if c == 0.0:
        raise ValueError("profile amplitude must be non-zero")
    k = np.arange(1, n + 1, dtype=np.float64)
    return SpectralState(c * k**-r)


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


@dataclass(frozen=True)
class MarkModel:
    """Finite-activity jump noise: intensity, magnitude law, profile, g1."""

    intensity: float
    law: object
    profile: SpectralState
    g1: G1Spec = field(default_factory=G1Spec.zero)

    def __post_init__(self):
        if self.intensity < 0 or not np.isfinite(self.intensity):
            raise ValueError("jump intensity must be non-negative and finite")

    @property
    def profile_norm(self) -> float:
        return hnorm(self.profile)

    def g1_value(self, xi: float) -> float:
        """g1 evaluated at the mark z = xi * phi."""
        if self.g1.kind == "zero":
            return 0.0
        if self.g1.kind == "constant":
            return self.g1.value
        return self.g1.value * min(1.0, abs(xi) * self.profile_norm)

    def g1_values(self, xis: np.ndarray) -> np.ndarray:
        if self.g1.kind == "zero":
            return np.zeros_like(xis)
        if self.g1.kind == "constant":
            return np.full_like(xis, self.g1.value)
        return self.g1.value * np.minimum(1.0, np.abs(xis) * self.profile_norm)

    def mark(self, xi: float, n_modes: int) -> SpectralState:
        """The projected mark P_N(xi * phi)."""
        return project(self.profile, n_modes) * xi


def compensator_coeffs(model: MarkModel, n_modes: int):
    """Closed-form compensator coefficients of the jump noise.

    Returns (mean_g1, mean_g) with mean_g1 = intensity * E[g1(xi phi)] and
    mean_g = intensity * E[xi] * P_N phi.  The clipped g1 expectation falls
    back to the law's quadrature.
    """
    if model.g1.kind == "zero":
        mean_g1 = 0.0
    elif model.g1.kind == "constant":
        mean_g1 = model.intensity * model.g1.value
    else:
        norm = model.profile_norm
        mean_g1 = model.intensity * model.g1.value * model.law.expect(
            lambda v: min(1.0, abs(v) * norm)
        )
    mean_g = project(model.profile, n_modes) * (model.intensity * model.law.mean())
    return mean_g1, mean_g


def truncate_levy(alpha: float, eps: float, profile: SpectralState,
                  g1: Optional[G1Spec] = None):
    """Finite-activity model from the small-jump-truncated measure
    nu(d xi) = |xi|^(-1-alpha) e^(-|xi|) d xi on {|xi| > eps}.

    Returns (model, residual) where residual = int_{|xi| <= eps} xi^2 nu(d xi)
    quantifies the discarded small-jump variance.  The total intensity is
    computed by adaptive quadrature (relative tolerance 1e-8) and magnitudes
    are sampled through a tabulated inverse CDF.
    """
    if not 0.0 < alpha < 2.0:
        raise ValueError(f"stability index must lie in (0, 2), got {alpha}")
    if eps <= 0.0:
        raise ValueError(f"truncation level must be positive, got {eps}")

    def density(x):
        return x ** (-1.0 - alpha) * np.exp(-x)

    half_mass, half_err = _quad(
        density, eps, np.inf, epsrel=1e-10, epsabs=0.0, limit=400
    )
    if half_err > 1e-8 * half_mass:
        raise ArithmeticError("intensity quadrature did not reach tolerance")
    intensity = 2.0 * half_mass

    residual = 2.0 * _quad(
        lambda x: x * x * density(x), 0.0, eps, epsrel=1e-10, epsabs=0.0
    )[0]

    # one-sided CDF table: log-spaced grid out to negligible tail mass
    upper = max(40.0, eps * 4.0)
    grid = np.exp(np.linspace(math.log(eps), math.log(upper), 8192))
    grid[0] = eps
    seg = np.empty(grid.size)
    seg[0] = 0.0
    # composite Simpson on each log cell; integrand smooth away from 0
    mid = np.sqrt(grid[:-1] * grid[1:])
    h = grid[1:] - grid[:-1]
    seg[1:] = h / 6.0 * (density(grid[:-1]) + 4.0 * density(mid) + density(grid[1:]))
    cdf = np.cumsum(seg) / half_mass
    cdf /= cdf[-1]  # absorb the discarded tail beyond the table

    law = TruncatedStableLaw(alpha=alpha, eps=eps, grid=grid, cdf=cdf, half_mass=half_mass)
    model = MarkModel(
        intensity=intensity,
        law=law,
        profile=profile,
        g1=g1 if g1 is not None else G1Spec.zero(),
    )
    return model, residual


# ---------------------------------------------------------------------------
# jump skeleton and micro grid


@dataclass(frozen=True)
class JumpSkeleton:
    """Jump times (sorted, strictly inside (0, T]) and their magnitudes."""

    horizon: float
    times: np.ndarray
    xis: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=np.float64).copy()
        x = np.asarray(self.xis, dtype=np.float64).copy()
        if t.shape != x.shape or t.ndim != 1:
            raise ValueError("times and magnitudes must be matching vectors")
        if t.size:
            if t[0] <= 0.0 or t[-1] > self.horizon:
                raise ValueError("jump times must lie in (0, horizon]")
            if np.any(np.diff(t) <= 0.0):
                raise ValueError("simultaneous jumps are not representable")
            if np.any(x == 0.0):
                raise ValueError("zero marks are not in the mark space")
        t.setflags(write=False)
        x.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "xis", x)

    @property
    def count(self) -> int:
        return self.times.size


def _draw_jumps(horizon: float, model: MarkModel,
                rng: np.random.Generator) -> tuple:
    """The draws of one skeleton, in their one order: the count ~
    Poisson(horizon * intensity), then the sorted uniform times, then the
    magnitudes i.i.d. from the model's law."""
    count = int(rng.poisson(horizon * model.intensity)) if model.intensity > 0 else 0
    if count == 0:
        return np.empty(0), np.empty(0)
    times = np.sort(rng.uniform(0.0, horizon, count))
    xis = np.asarray(model.law.sample(rng, count), dtype=np.float64)
    return times, xis


def _skeleton(horizon: float, times: np.ndarray,
              xis: np.ndarray) -> JumpSkeleton:
    if times.size and (times[0] <= 0.0 or np.any(np.diff(times) <= 0.0)):
        # probability-zero collision; refuse rather than silently merge
        raise ArithmeticError("degenerate jump times drawn")
    return JumpSkeleton(horizon, times, xis)


def sample_jump_skeleton(horizon: float, model: MarkModel,
                         rng: np.random.Generator) -> JumpSkeleton:
    """Draw the Poisson jump skeleton on (0, horizon].

    Count ~ Poisson(horizon * intensity), times are sorted uniforms,
    magnitudes i.i.d. from the model's law.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    return _skeleton(horizon, *_draw_jumps(horizon, model, rng))


def sample_jump_skeletons(horizon: float, model: MarkModel, global_seed: int,
                          indices) -> tuple:
    """The jump skeletons of the samples `indices`, concatenated in order.

    Returns (times, xis, counts): the b-th sample owns the counts[b]
    entries after those of the samples before it, and they are the arrays
    of `sample_jump_skeleton(horizon, model, stream(global_seed,
    indices[b], PURPOSE_JUMPS))`.  One Philox generator is re-keyed to each
    sample's stream instead of building a generator per sample.  The
    skeleton checks run over the concatenation at once; the first sample
    that fails one raises what it raises on its own.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    rng = np.random.Generator(np.random.Philox(0))  # re-keyed before each draw
    counts = np.zeros(len(indices), dtype=np.int64)
    times_parts, xis_parts = [], []
    for b, i in enumerate(indices):
        _rekey(rng, global_seed, i, PURPOSE_JUMPS)
        t, x = _draw_jumps(horizon, model, rng)
        if t.size:
            counts[b] = t.size
            times_parts.append(t)
            xis_parts.append(x)
    times = np.concatenate(times_parts) if times_parts else np.empty(0)
    xis = np.concatenate(xis_parts) if xis_parts else np.empty(0)

    starts = np.cumsum(counts) - counts
    first = np.zeros(times.size, dtype=bool)
    first[starts[counts > 0]] = True
    bad = (times <= 0.0) | (times > horizon) | (xis == 0.0)
    bad[1:] |= (np.diff(times) <= 0.0) & ~first[1:]
    if bad.any():
        # every flagged entry fails a check of its own sample's skeleton
        b = np.repeat(np.arange(counts.size), counts)[np.argmax(bad)]
        sl = slice(starts[b], starts[b] + counts[b])
        _skeleton(horizon, times[sl], xis[sl])
    return times, xis, counts


@dataclass(frozen=True)
class MicroGrid:
    """Union of the uniform reference grid and the jump times."""

    horizon: float
    dt_ref: float
    nodes: np.ndarray
    is_jump: np.ndarray

    def __post_init__(self):
        n = np.asarray(self.nodes, dtype=np.float64).copy()
        j = np.asarray(self.is_jump, dtype=bool).copy()
        if n.ndim != 1 or n.size < 2 or n.shape != j.shape:
            raise ValueError("grid nodes malformed")
        if n[0] != 0.0 or n[-1] != self.horizon:
            raise ValueError("grid must span [0, horizon]")
        if np.any(np.diff(n) <= 0.0):
            raise ValueError("grid nodes must be strictly increasing")
        n.setflags(write=False)
        j.setflags(write=False)
        object.__setattr__(self, "nodes", n)
        object.__setattr__(self, "is_jump", j)

    @property
    def deltas(self) -> np.ndarray:
        return np.diff(self.nodes)


def build_micro_grid(horizon: float, dt_ref: float,
                     skeleton: JumpSkeleton) -> MicroGrid:
    n_steps = horizon / dt_ref
    if abs(n_steps - round(n_steps)) > 1e-9 or round(n_steps) < 1:
        raise ValueError("horizon must be an integer multiple of dt_ref")
    n_steps = int(round(n_steps))
    base = np.arange(n_steps + 1, dtype=np.float64) * dt_ref
    base[-1] = horizon  # guard the last node against accumulation error
    if skeleton.count == 0:
        return MicroGrid(horizon, dt_ref, base, np.zeros(base.size, dtype=bool))
    if np.any(np.isin(skeleton.times, base)):
        raise ArithmeticError("jump time collides with a grid node")
    nodes = np.concatenate([base, skeleton.times])
    order = np.argsort(nodes, kind="stable")
    is_jump = np.concatenate(
        [np.zeros(base.size, dtype=bool), np.ones(skeleton.count, dtype=bool)]
    )[order]
    return MicroGrid(horizon, dt_ref, nodes[order], is_jump)


# ---------------------------------------------------------------------------
# exact Wiener convolution increments


def conv_variance(lam, delta):
    """Variance of the OU convolution increment over a step of length delta:
    (1 - exp(-2 lambda delta)) / (2 lambda), computed stably via expm1."""
    lam = np.asarray(lam, dtype=np.float64)
    return -np.expm1(-2.0 * lam * delta) / (2.0 * lam)


def compose_convolution(left, right, lam, delta_right):
    """Exact composition of adjacent convolution increments:
    I[a, c] = exp(-lambda * (c - b)) I[a, b] + I[b, c]."""
    return np.exp(-np.asarray(lam, dtype=np.float64) * delta_right) * left + right


@dataclass(frozen=True)
class CoupledNoisePath:
    """One realisation of the driving noise at reference resolution.

    `wiener[j, k]` is the exact convolution increment of mode k+1 over the
    j-th micro interval.  Restriction to any coarser partition refining into
    this grid is exact (`restrict_path`), which couples all resolutions of a
    study to the same underlying noise.
    """

    grid: MicroGrid
    wiener: np.ndarray
    skeleton: JumpSkeleton
    n_ref: int
    seed: SeedRecord

    def __post_init__(self):
        w = np.asarray(self.wiener, dtype=np.float64)
        if w.shape != (self.grid.nodes.size - 1, self.n_ref):
            raise ValueError("wiener increment array has the wrong shape")


def sample_path(horizon: float, dt_ref: float, n_ref: int, model: MarkModel,
                global_seed: int, sample_index: int) -> CoupledNoisePath:
    """Sample one coupled noise path from its two dedicated streams."""
    skel = sample_jump_skeleton(
        horizon, model, stream(global_seed, sample_index, PURPOSE_JUMPS)
    )
    grid = build_micro_grid(horizon, dt_ref, skel)
    lam = eigenvalues(n_ref)
    deltas = grid.deltas
    z = stream(global_seed, sample_index, PURPOSE_WIENER).standard_normal(
        (deltas.size, n_ref)
    )
    base_std = np.sqrt(conv_variance(lam, dt_ref))
    z *= base_std
    irregular = np.nonzero(deltas != dt_ref)[0]
    for row in irregular:
        z[row] *= np.sqrt(conv_variance(lam, deltas[row])) / base_std
    return CoupledNoisePath(
        grid=grid,
        wiener=z,
        skeleton=skel,
        n_ref=n_ref,
        seed=SeedRecord(global_seed, sample_index),
    )


# ---------------------------------------------------------------------------
# restriction to a coarse partition


@dataclass(frozen=True)
class StepBundle:
    """Per-step noise of one scheme run on a coarse partition.

    wiener[i] is the exact convolution increment over step i; jumps are
    assigned to the unique step (t_i, t_{i+1}] containing their time.
    `node_event[i]` is the skeleton index of the jump exactly at node i
    (jump-adapted partitions), or -1.
    """

    nodes: np.ndarray
    n_modes: int
    wiener: np.ndarray
    event_step: np.ndarray  # skeleton index -> step index
    node_event: np.ndarray  # node index -> skeleton index or -1
    skeleton: JumpSkeleton

    @property
    def dts(self) -> np.ndarray:
        return np.diff(self.nodes)

    @property
    def n_steps(self) -> int:
        return self.nodes.size - 1

    def events_in_step(self, i: int) -> np.ndarray:
        return np.nonzero(self.event_step == i)[0]


_FOLD_ROWS = 128


def _fold(inc: np.ndarray, deltas: np.ndarray, dt_ref: float,
          pos: np.ndarray) -> np.ndarray:
    """Left-to-right convolution folds of the micro rows between the
    micro indices `pos`: row i folds rows pos[i] .. pos[i+1] - 1."""
    lam = eigenvalues(inc.shape[1])
    start, end = pos[:-1], pos[1:]
    out = np.empty((start.size, inc.shape[1]))
    # steps whose micro slice is uniform fold with one shared decay factor;
    # vectorising over equal-length groups keeps the arithmetic identical to
    # the per-step sequential fold (same doubles, same order); gathering one
    # micro row per step at a time, for at most _FOLD_ROWS steps, keeps the
    # working set far below the size of the output
    irregular_before = np.concatenate([[0], np.cumsum(deltas != dt_ref)])
    clean = irregular_before[end] == irregular_before[start]
    decay_ref = np.exp(-lam * dt_ref)
    lengths = end - start
    for m in np.unique(lengths[clean]):
        group = np.nonzero(clean & (lengths == m))[0]
        for lo in range(0, group.size, _FOLD_ROWS):
            sel = group[lo:lo + _FOLD_ROWS]
            first = start[sel]
            acc = inc[first]
            for j in range(1, m):
                acc *= decay_ref
                acc += inc[first + j]
            out[sel] = acc
    decay_cache = {dt_ref: decay_ref}
    for i in np.nonzero(~clean)[0]:
        acc = inc[start[i]].copy()
        for j in range(start[i] + 1, end[i]):
            d = deltas[j]
            dec = decay_cache.get(d)
            if dec is None:
                dec = np.exp(-lam * d)
                decay_cache[d] = dec
            acc *= dec
            acc += inc[j]
        out[i] = acc
    return out


def restrict_path(path: CoupledNoisePath, partition, n_modes: int) -> StepBundle:
    """Exactly restrict a noise path to a coarse partition and mode count.

    Every coarse Wiener increment is the left-to-right `compose_convolution`
    fold of the micro increments it contains, so the restriction is exact in
    distribution and bit-for-bit reproducible.  The partition must refine
    into the micro grid (all its nodes must be micro nodes).  On the micro
    grid itself the bundle's increments are a view of the path's rows, not
    a copy.
    """
    nodes = np.asarray(getattr(partition, "nodes", partition), dtype=np.float64)
    if nodes.ndim != 1 or nodes.size < 2:
        raise ValueError("partition must contain at least one step")
    if not 1 <= n_modes <= path.n_ref:
        raise ValueError(f"mode count must lie in [1, {path.n_ref}]")
    micro = path.grid.nodes
    pos = np.searchsorted(micro, nodes)
    if np.any(pos >= micro.size) or np.any(micro[pos] != nodes):
        raise ValueError("partition is not refined by the micro grid")

    inc = path.wiener[:, :n_modes]
    if nodes.size == micro.size:
        # the partition is the micro grid: each fold is one micro row, so
        # the increments are the path's own rows (a view, not a copy)
        out = inc
    else:
        out = _fold(inc, path.grid.deltas, path.grid.dt_ref, pos)

    times = path.skeleton.times
    # jump at sigma belongs to the step with nodes[i] < sigma <= nodes[i+1]
    event_step = np.searchsorted(nodes, times, side="left") - 1
    if times.size and (times[0] <= nodes[0] or times[-1] > nodes[-1]):
        raise ValueError("skeleton extends outside the partition")
    node_event = np.full(nodes.size, -1, dtype=np.int64)
    at_node = np.searchsorted(nodes, times)
    for j, (p, t) in enumerate(zip(at_node, times)):
        if p < nodes.size and nodes[p] == t:
            node_event[p] = j
    return StepBundle(
        nodes=nodes,
        n_modes=n_modes,
        wiener=out,
        event_step=event_step,
        node_event=node_event,
        skeleton=path.skeleton,
    )


# ---------------------------------------------------------------------------
# compensated jump convolution (used by the path-regularity study)


def compensated_jump_convolution(skeleton: JumpSkeleton, model: MarkModel,
                                 n_modes: int, t: float) -> SpectralState:
    """N(t) = sum_{sigma_j <= t} E(t - sigma_j) P_N(xi_j phi) - int_0^t E(t-s) ds mean_g.

    Exact evaluation of the stochastic convolution of the compensated jump
    noise at time t, straight from the skeleton and the closed-form
    compensator.
    """
    if t < 0 or t > skeleton.horizon:
        raise ValueError("evaluation time outside the skeleton horizon")
    lam = eigenvalues(n_modes)
    phi = project(model.profile, n_modes).coeffs
    acc = np.zeros(n_modes)
    for sigma, xi in zip(skeleton.times, skeleton.xis):
        if sigma <= t:
            acc += xi * np.exp(-lam * (t - sigma)) * phi
    _, mean_g = compensator_coeffs(model, n_modes)
    acc -= -np.expm1(-lam * t) / lam * mean_g.coeffs
    return SpectralState(acc)


# ---------------------------------------------------------------------------
# binary path dump

_MAGIC = b"LVHPATH1"


def dump_path(path: CoupledNoisePath, fh) -> None:
    """Write a noise path as little-endian doubles with a fixed header.

    Layout: magic "LVHPATH1"; then <QQQQQ dd> = (n_ref, node count, jump
    count, global seed, sample index, dt_ref, horizon); then the node vector,
    the row-major wiener increment matrix, the jump times and the jump
    magnitudes, all float64 little-endian.
    """
    g = path.grid
    fh.write(_MAGIC)
    fh.write(
        struct.pack(
            "<5Q2d",
            path.n_ref,
            g.nodes.size,
            path.skeleton.count,
            path.seed.global_seed,
            path.seed.sample_index,
            g.dt_ref,
            g.horizon,
        )
    )
    fh.write(g.nodes.astype("<f8").tobytes())
    fh.write(path.wiener.astype("<f8").tobytes())
    fh.write(path.skeleton.times.astype("<f8").tobytes())
    fh.write(path.skeleton.xis.astype("<f8").tobytes())


def load_path(fh) -> CoupledNoisePath:
    """Inverse of `dump_path`."""
    if fh.read(8) != _MAGIC:
        raise ValueError("not a noise path dump")
    n_ref, n_nodes, n_jumps, seed, sample, dt_ref, horizon = struct.unpack(
        "<5Q2d", fh.read(5 * 8 + 2 * 8)
    )

    def block(count):
        return np.frombuffer(fh.read(8 * count), dtype="<f8").astype(np.float64)

    nodes = block(n_nodes)
    wiener = block((n_nodes - 1) * n_ref).reshape(n_nodes - 1, n_ref)
    times = block(n_jumps)
    xis = block(n_jumps)
    skel = JumpSkeleton(horizon, times, xis)
    is_jump = np.isin(nodes, times)
    grid = MicroGrid(horizon, dt_ref, nodes, is_jump)
    return CoupledNoisePath(
        grid=grid,
        wiener=wiener,
        skeleton=skel,
        n_ref=n_ref,
        seed=SeedRecord(seed, sample),
    )
