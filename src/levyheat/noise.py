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
  profile phi.  The jump skeleton, shared across resolutions as well, is
  plain arrays: a sample's (times, xis), and a batch's (times, xis,
  counts), the samples' arrays concatenated in order, as
  `sample_jump_skeletons` returns them.  `_check_jumps` alone decides
  whether a batch, or one skeleton as a batch of one, is valid.

Randomness comes from counter-based Philox streams keyed by
(global seed, sample index, purpose), so each sample is reproducible in
isolation and independent of how work is scheduled across processes.
Paths are drawn one stretch of time at a time, and one record holds a
stretch from draw to step: a `PathChunk` of flat keyed nodes, increment
rows and jumps, one row per sample.  `PathStream.draw` returns it on the
micro nodes, `restrict_chunk` folds it to coarse partitions, and the
schemes' `run_block` steps it, each stage on the whole block at once.  A
whole path is the one-row chunk of [0, horizon] that `sample_path` draws
with the stream's micro nodes and row scaling (`_scale_rows`), and
`restrict_path` is `restrict_chunk` on its one row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from levyheat.spectral import SpectralState, eigenvalues, hnorm, project

__all__ = [
    "PURPOSE_WIENER",
    "PURPOSE_JUMPS",
    "PURPOSE_BOOTSTRAP",
    "stream",
    "TwoPointLaw",
    "ExpShiftedLaw",
    "TruncatedStableLaw",
    "G1Spec",
    "MarkModel",
    "power_profile",
    "truncate_levy",
    "sample_jump_skeleton",
    "sample_jump_skeletons",
    "step_count",
    "uniform_nodes",
    "dyadic_ratio",
    "merge_jumps",
    "conv_variance",
    "compose_convolution",
    "sample_path",
    "restrict_path",
    "PathChunk",
    "PathStream",
    "restrict_chunk",
    "compensator_coeffs",
    "compensated_jump_convolution",
]

# purpose tags for the per-sample random streams
PURPOSE_WIENER = 1
PURPOSE_JUMPS = 2
PURPOSE_BOOTSTRAP = 3


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


def _gamma_integral(s: float, lo: float, hi: float) -> float:
    """int x^(s-1) e^(-x) dx over [e^lo, e^hi], as int e^(s u - e^u) du over
    [lo, hi] by a composite 20-point Gauss-Legendre rule on panels at most
    1/2 wide."""
    nodes, weights = np.polynomial.legendre.leggauss(20)
    edges = np.linspace(lo, hi, math.ceil(2.0 * (hi - lo)) + 1)
    half = 0.5 * np.diff(edges)[:, None]
    u = 0.5 * (edges[:-1] + edges[1:])[:, None] + half * nodes
    with np.errstate(over="ignore"):
        return float(np.sum(half * weights * np.exp(s * u - np.exp(u))))


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

    def mean(self) -> float:
        return self.p_plus * self.v_plus + (1.0 - self.p_plus) * self.v_minus

    def mean_square(self) -> float:
        return (self.p_plus * (self.v_plus * self.v_plus)
                + (1.0 - self.p_plus) * (self.v_minus * self.v_minus))

    def clipped_mean(self, scale: float) -> float:
        """E[min(1, scale |xi|)]."""
        return (self.p_plus * min(1.0, abs(self.v_plus) * scale)
                + (1.0 - self.p_plus) * min(1.0, abs(self.v_minus) * scale))


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

    def mean(self) -> float:
        return self.offset + 1.0 / self.rate

    def mean_square(self) -> float:
        m = 1.0 / self.rate
        return self.offset**2 + 2.0 * self.offset * m + 2.0 * m * m

    def clipped_mean(self, scale: float) -> float:
        """E[min(1, scale xi)]: scale E[xi; xi < 1/scale] + P(xi >= 1/scale)."""
        u = 1.0 / scale - self.offset
        if u <= 0.0:
            return 1.0
        t = self.rate * u
        below = -math.expm1(-t)  # P(xi < 1/scale)
        tail = math.exp(-t)
        # E[xi; xi < 1/scale] = offset P(xi < 1/scale) + gamma(2, t) / rate
        return (scale * (self.offset * below + (below - t * tail) / self.rate)
                + tail)


@dataclass(frozen=True)
class TruncatedStableLaw:
    """Normalized magnitude law of a small-jump-truncated tempered stable measure.

    The measure is nu(d xi) = |xi|^(-1-alpha) e^(-|xi|) d xi, and the law
    has density |xi|^(-1-alpha) e^(-|xi|) / intensity on {|xi| > eps},
    symmetric in sign.  `TruncatedStableLaw(alpha, eps)` derives the rest:
    `half_mass` = Gamma(-alpha, eps), nu's mass on (eps, inf), integrated by
    `_gamma_integral` out to eps + 60; `intensity` = 2 half_mass; the
    discarded small-jump variance `residual` = int_{|xi| <= eps} xi^2
    nu(d xi) = 2 gamma(2 - alpha, eps), summed from its series of positive
    terms (both within about 1e-13 relative of the closed forms); and the
    one-sided CDF table (`grid`, `cdf`) that sampling inverts (linear
    interpolation on a log-spaced grid, CDF accuracy around 1e-8, well
    inside the 1e-6 budget).  Equality and hashing read (alpha, eps).
    Raises ValueError when the intensity, the residual or the table is not
    finite, or the intensity underflows to zero.
    """

    alpha: float
    eps: float
    half_mass: float = field(init=False, repr=False, compare=False)
    intensity: float = field(init=False, repr=False, compare=False)
    residual: float = field(init=False, repr=False, compare=False)
    grid: np.ndarray = field(init=False, repr=False, compare=False)
    cdf: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        alpha, eps = self.alpha, self.eps
        if not 0.0 < alpha < 2.0:
            raise ValueError(f"stability index must lie in (0, 2), got {alpha}")
        if eps <= 0.0:
            raise ValueError(f"truncation level must be positive, got {eps}")

        # the tail beyond eps + 60 holds less than e^-58 of the mass
        half_mass = _gamma_integral(-alpha, math.log(eps), math.log(eps + 60.0))
        intensity = 2.0 * half_mass
        if not 0.0 < intensity < math.inf:
            raise ValueError(f"jump intensity 2 Gamma(-alpha, eps) = {intensity} "
                             "is not a positive finite number")

        # gamma(s, eps) = eps^s e^-eps sum_k eps^k / (s (s+1) ... (s+k)); the
        # terms grow while s + k < eps, then fall faster than geometrically
        s = 2.0 - alpha
        term = total = 1.0 / s
        k = 0
        while s + k < eps or term > 1e-17 * total:
            k += 1
            term *= eps / (s + k)
            total += term
        residual = 2.0 * eps**s * math.exp(-eps) * total
        if not math.isfinite(residual):
            raise ValueError(f"small-jump residual {residual} is not finite")

        def density(x):
            return x ** (-1.0 - alpha) * np.exp(-x)

        # one-sided CDF table: log-spaced grid out to negligible tail mass
        upper = max(40.0, eps * 4.0)
        grid = np.exp(np.linspace(math.log(eps), math.log(upper), 8192))
        grid[0] = eps
        seg = np.empty(grid.size)
        seg[0] = 0.0
        # composite Simpson on each log cell; integrand smooth away from 0
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            mid = np.sqrt(grid[:-1] * grid[1:])
            h = grid[1:] - grid[:-1]
            seg[1:] = h / 6.0 * (density(grid[:-1]) + 4.0 * density(mid) + density(grid[1:]))
            cdf = np.cumsum(seg) / half_mass
            cdf /= cdf[-1]  # absorb the discarded tail beyond the table
        if not np.isfinite(cdf).all():
            raise ValueError(f"magnitude CDF table is not finite at eps = {eps}")

        grid.setflags(write=False)
        cdf.setflags(write=False)
        for name, value in (("half_mass", half_mass), ("intensity", intensity),
                            ("residual", residual), ("grid", grid), ("cdf", cdf)):
            object.__setattr__(self, name, value)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        mag = np.interp(rng.random(size), self.cdf, self.grid)
        sign = np.where(rng.random(size) < 0.5, 1.0, -1.0)
        return sign * mag

    def mean(self) -> float:
        return 0.0  # symmetric by construction

    def mean_square(self) -> float:
        """E[xi^2] = Gamma(2 - alpha, eps) / half_mass."""
        return _gamma_integral(2.0 - self.alpha, math.log(self.eps),
                               math.log(self.eps + 60.0)) / self.half_mass

    def clipped_mean(self, scale: float) -> float:
        """E[min(1, scale |xi|)]: with a = 1/scale, (scale (Gamma(1 - alpha,
        eps) - Gamma(1 - alpha, a)) + Gamma(-alpha, a)) / half_mass."""
        a = 1.0 / scale
        if a <= self.eps:
            return 1.0
        lo, mid = math.log(self.eps), math.log(a)
        below = _gamma_integral(1.0 - self.alpha, lo, mid)
        above = _gamma_integral(-self.alpha, mid, math.log(a + 60.0))
        return (scale * below + above) / self.half_mass


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
        if self.kind == "zero" and self.value != 0.0:
            raise ValueError(f"g1 kind 'zero' takes value 0, got {self.value}")

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

    def g1_values(self, xis: np.ndarray) -> np.ndarray:
        """g1 evaluated at the marks z = xi * phi."""
        if self.g1.kind == "zero":
            return np.zeros_like(xis)
        if self.g1.kind == "constant":
            return np.full_like(xis, self.g1.value)
        return self.g1.value * np.minimum(1.0, np.abs(xis) * self.profile_norm)


def compensator_coeffs(model: MarkModel, n_modes: int):
    """Closed-form compensator coefficients of the jump noise.

    Returns (mean_g1, mean_g) with mean_g1 = intensity * E[g1(xi phi)] and
    mean_g = intensity * E[xi] * P_N phi.  The clipped g1 expectation is
    the law's closed-form `clipped_mean`.
    """
    if model.g1.kind == "zero":
        mean_g1 = 0.0
    elif model.g1.kind == "constant":
        mean_g1 = model.intensity * model.g1.value
    else:
        # the norm is 0 when the profile's squares underflow, and so is g1
        norm = model.profile_norm
        clipped = model.law.clipped_mean(norm) if norm > 0.0 else 0.0
        mean_g1 = model.intensity * model.g1.value * clipped
    mean_g = project(model.profile, n_modes) * (model.intensity * model.law.mean())
    return mean_g1, mean_g


def truncate_levy(alpha: float, eps: float, profile: SpectralState,
                  g1: Optional[G1Spec] = None):
    """Finite-activity model from the small-jump-truncated measure
    nu(d xi) = |xi|^(-1-alpha) e^(-|xi|) d xi on {|xi| > eps}.

    Returns (model, residual): the model runs `TruncatedStableLaw(alpha,
    eps)` at the law's derived intensity, and residual is the law's
    discarded small-jump variance.  Raises the law's ValueError.
    """
    law = TruncatedStableLaw(alpha, eps)
    model = MarkModel(law.intensity, law, profile,
                      g1 if g1 is not None else G1Spec.zero())
    return model, law.residual


# ---------------------------------------------------------------------------
# jump skeleton and micro grid


def _draw_jumps(horizon: float, model: MarkModel,
                rng: np.random.Generator) -> tuple:
    """The draws of one skeleton, in their one order: the count ~
    Poisson(horizon * intensity), then the sorted uniform times, then the
    magnitudes i.i.d. from the model's law."""
    count = int(rng.poisson(horizon * model.intensity)) if model.intensity > 0 else 0
    if count == 0:
        return np.empty(0), np.empty(0)
    times = rng.uniform(0.0, horizon, count)
    times.sort()
    xis = np.asarray(model.law.sample(rng, count), dtype=np.float64)
    return times, xis


def _check_jumps(horizon: float, times: np.ndarray, xis: np.ndarray,
                 counts) -> None:
    """Refuse a batch of jump skeletons, the b-th of them the counts[b]
    entries of `times` and `xis` after those of the ones before; one
    skeleton is a batch of one.  The first skeleton with a fault raises
    ArithmeticError for a time <= 0 or times not strictly increasing (a
    probability-zero collision in a draw), else ValueError for a time
    after the horizon, else ValueError for a zero mark."""
    counts = np.asarray(counts)
    starts = np.cumsum(counts) - counts
    heads = starts[counts > 0]  # each skeleton's first jump
    degenerate = times <= 0.0
    degenerate[1:] |= np.diff(times) <= 0.0
    degenerate[heads] = times[heads] <= 0.0
    late = times > horizon
    bad = degenerate | late | (xis == 0.0)
    if bad.any():
        b = np.repeat(np.arange(counts.size), counts)[np.argmax(bad)]
        own = slice(starts[b], starts[b] + counts[b])
        if degenerate[own].any():
            raise ArithmeticError("degenerate jump times drawn")
        if late[own].any():
            raise ValueError("jump times must lie in (0, horizon]")
        raise ValueError("zero marks are not in the mark space")


def sample_jump_skeleton(horizon: float, model: MarkModel,
                         rng: np.random.Generator) -> tuple:
    """Draw the Poisson jump skeleton on (0, horizon]: the arrays (times,
    xis), with count ~ Poisson(horizon * intensity), times sorted
    uniforms and magnitudes i.i.d. from the model's law."""
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    times, xis = _draw_jumps(horizon, model, rng)
    _check_jumps(horizon, times, xis, [times.size])
    return times, xis


def sample_jump_skeletons(horizon: float, model: MarkModel, global_seed: int,
                          indices) -> tuple:
    """The batch (times, xis, counts) of the samples `indices`: the b-th
    sample's arrays are those of `sample_jump_skeleton(horizon, model,
    stream(global_seed, indices[b], PURPOSE_JUMPS))`.  One Philox generator
    is re-keyed to each sample's stream instead of building a generator per
    sample, and `_check_jumps` runs once over the batch, so the first sample
    with a fault raises what it raises on its own.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    # every index lies between these two, so their checks cover all keys
    _philox_key(global_seed, min(indices, default=0), PURPOSE_JUMPS)
    key = _philox_key(global_seed, max(indices, default=0), PURPOSE_JUMPS)
    tag = PURPOSE_JUMPS << 48
    # one Philox generator moved to the start of each sample's stream: the
    # key's second word is rewritten in place, then the whole state is set
    # (counter 0, empty output buffer), so the draws that follow are those
    # of a fresh `stream` with that key
    rng = np.random.Generator(np.random.Philox(0))
    zeros = np.zeros(4, dtype=np.uint64)
    state = {
        "bit_generator": "Philox",
        "state": {"counter": zeros, "key": key},
        "buffer": zeros,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    counts = np.zeros(len(indices), dtype=np.int64)
    times_parts, xis_parts = [], []
    for b, i in enumerate(indices):
        key[1] = tag | i
        rng.bit_generator.state = state
        t, x = _draw_jumps(horizon, model, rng)
        if t.size:
            counts[b] = t.size
            times_parts.append(t)
            xis_parts.append(x)
    times = np.concatenate(times_parts) if times_parts else np.empty(0)
    xis = np.concatenate(xis_parts) if xis_parts else np.empty(0)
    _check_jumps(horizon, times, xis, counts)
    return times, xis, counts


def step_count(horizon: float, dt: float, name: str) -> int:
    """The whole number n >= 1 of steps of `dt`, called `name` in errors,
    that make up horizon, to 1e-9 of a step; ValueError if there is none,
    which an infinite or NaN horizon or dt never has."""
    n = horizon / dt
    if not math.isfinite(n) or abs(n - round(n)) > 1e-9 or round(n) < 1:
        raise ValueError(f"horizon {horizon} is not an integer multiple of "
                         f"{name} {dt}")
    return int(round(n))


def uniform_nodes(horizon: float, dt: float) -> np.ndarray:
    """The nodes k dt of [0, horizon], the last one set to the horizon."""
    nodes = np.arange(step_count(horizon, dt, "dt") + 1, dtype=np.float64) * dt
    nodes[-1] = horizon  # guard the last node against accumulation error
    return nodes


def dyadic_ratio(dt: float, dt_ref: float) -> int:
    """The power of two r with dt = r dt_ref exactly, so that every node of
    a dt grid is a node of the dt_ref grid; 0 if there is none."""
    q = dt / dt_ref
    r = round(q) if math.isfinite(q) else 0
    if r < 1 or r & (r - 1) or r * dt_ref != dt:
        return 0
    return r


def merge_jumps(grid: np.ndarray, jumps: np.ndarray, rows: int) -> np.ndarray:
    """The keyed nodes (see `PathChunk`) of `rows` rows, each the nodes
    `grid` merged with its jumps among the keys `jumps`, in order and
    inside the grid: the one rule for every partition that holds jumps, in
    which a jump on a node adds no node."""
    keys = (np.arange(rows)[:, None] + 1j * grid).ravel()
    at = keys.searchsorted(jumps)
    new = keys.take(at, mode="clip") != jumps
    return np.insert(keys, at[new], jumps[new])


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


def _scale_rows(wiener: np.ndarray, deltas: np.ndarray, dt_ref: float) -> None:
    """Scale every path's standard normal rows, in place, into the exact
    convolution increments over micro intervals of lengths `deltas`: each
    row by the dt_ref standard deviation std, then each shorter row beside
    a jump by sqrt(conv_variance(lam, delta)) / std."""
    lam = eigenvalues(wiener.shape[1])
    std = np.sqrt(conv_variance(lam, dt_ref))
    wiener *= std
    rows = np.nonzero(deltas != dt_ref)[0]
    wiener[rows] *= np.sqrt(conv_variance(lam, deltas[rows, None])) / std


# ---------------------------------------------------------------------------
# restriction to a coarse partition


_FOLD_ROWS = 1024


def _fold(inc: np.ndarray, deltas: np.ndarray, dt_ref: float,
          pos: np.ndarray, head: tuple) -> np.ndarray:
    """Left-to-right convolution folds of the micro rows between the
    micro indices `pos`: row i folds rows pos[i] .. pos[i+1] - 1.

    `head` = (acc, after) holds each step's fold so far: acc[i] sums rows
    pos[i] .. after[i] - 1, at least the first, in fresh rows folded on in
    place and returned.  Every row j after those scales the sum by
    exp(-lam deltas[j]) before it is added, as the sequential fold does.
    The steps fold together one position at a time, longest first, so
    that those still folding are a leading slice, at most _FOLD_ROWS at
    once.  A position scales every step by the dt_ref decay, and the few
    whose row there lies beside a jump (deltas != dt_ref) by its own.
    """
    out, last = head[0], head[1] - 1  # the last row each step has folded
    end = pos[1:]
    # the steps with rows left to fold, longest first
    order = np.argsort(last - end, kind="stable")[:np.sum(end - last > 1)]
    lam = eigenvalues(inc.shape[1])
    decay = np.exp(-lam * dt_ref)
    odd = deltas != dt_ref  # the rows beside jumps
    for lo in range(0, order.size, _FOLD_ROWS):
        sel = order[lo:lo + _FOLD_ROWS]
        first = last[sel]
        length = end[sel] - first
        acc = out[sel]
        rows = np.empty_like(acc)
        later = np.arange(1, length[0])  # the positions still to fold
        live = np.searchsorted(-length, -later, side="left").tolist()
        for q, k in zip(later.tolist(), live):
            part = acc[:k]
            at = first[:k] + q  # each live step's micro row here
            hit = np.flatnonzero(odd[at])
            if hit.size:
                kept = acc[hit] * np.exp(-lam * deltas[at[hit], None])
            part *= decay
            if hit.size:
                acc[hit] = kept
            inc.take(at, axis=0, out=rows[:k], mode="clip")
            part += rows[:k]
        out[sel] = acc
    return out


# ---------------------------------------------------------------------------
# paths drawn through time, one stretch at a time


@dataclass(frozen=True)
class PathChunk:
    """One stretch of time of the coupled noise paths of several samples,
    one row per sample: drawn on the micro nodes (`PathStream.draw`, or
    `sample_path` for the one row of a whole path), restricted to coarse
    partitions (`restrict_chunk`) and stepped (`schemes.run_block`).

    The rows are flat.  Node t of row s is the key s + i t, both doubles
    exact, and `nodes` holds every row's nodes in one sorted array (complex
    numbers sort by real, then imaginary part), each row's from one dt_ref
    node to another.  Row s's exact convolution increments over them are
    the rows starts[s] .. starts[s + 1] - 1 of `wiener` (starts[0] = 0),
    so its nodes are nodes[starts[s] + s .. starts[s + 1] + s].  Its jumps
    in the stretch are keyed the same way in `jumps`, magnitudes in `xis`.
    """

    dt_ref: float
    nodes: np.ndarray
    wiener: np.ndarray
    starts: np.ndarray
    jumps: np.ndarray
    xis: np.ndarray

    @property
    def rows(self) -> int:
        return self.starts.size - 1

    @property
    def deltas(self) -> np.ndarray:
        """Each increment row's step: the differences of the nodes but
        those from one row's last node to the next row's first."""
        return np.delete(np.diff(self.nodes.imag),
                         self.starts[1:-1] + np.arange(self.rows - 1))

    @property
    def n_ref(self) -> int:
        return self.wiener.shape[1]


def _starts(nodes: np.ndarray, rows: int) -> np.ndarray:
    """Each of `rows` rows' first increment row, then the row count."""
    first = np.arange(rows + 1)
    return nodes.real.searchsorted(first) - first


class PathStream:
    """The coupled noise paths of the samples `indices`, drawn through time.

    The jump skeletons are drawn up front.  Each sample's Wiener rows come
    from its own stream stretch after stretch, so a sample's stretches join
    up to the rows of `sample_path` for it, bit for bit.
    """

    def __init__(self, horizon: float, dt_ref: float, n_ref: int,
                 model: MarkModel, global_seed: int, indices):
        self.dt_ref = dt_ref
        self.base = uniform_nodes(horizon, dt_ref)
        times, self._xis, counts = sample_jump_skeletons(
            horizon, model, global_seed, indices)
        self._jumps = np.repeat(np.arange(counts.size), counts) + 1j * times
        self._rngs = [stream(global_seed, i, PURPOSE_WIENER) for i in indices]
        self._at = 0  # the dt_ref node the streams are at
        self.n_ref = n_ref

    def draw(self, k0: int, k1: int) -> PathChunk:
        """Every sample's stretch from dt_ref node k0 to node k1.  The
        stretches must be drawn in time order, each from where the last one
        ended.  Each stretch's rows are allocated afresh, so a caller that
        holds none of the last stretch's arrays has freed its rows."""
        if self._at != k0:
            raise ValueError("a path's stretches must be drawn in order")
        self._at = k1
        base = self.base[k0:k1 + 1]
        inside = (base[0] < self._jumps.imag) & (self._jumps.imag <= base[-1])
        jumps = self._jumps[inside]
        nodes = merge_jumps(base, jumps, len(self._rngs))
        starts = _starts(nodes, len(self._rngs))
        wiener = np.empty((starts[-1], self.n_ref))
        for rng, a, b in zip(self._rngs, starts[:-1], starts[1:]):
            rng.standard_normal(out=wiener[a:b])
        chunk = PathChunk(self.dt_ref, nodes, wiener, starts, jumps,
                          self._xis[inside])
        _scale_rows(wiener, chunk.deltas, self.dt_ref)
        return chunk


def restrict_chunk(chunk: PathChunk, parts: np.ndarray, n_modes: int,
                   finer: Optional[PathChunk] = None) -> PathChunk:
    """Exactly restrict a stretch to one partition per row and a mode
    count; every restriction of a path, whole or streamed, is made here.

    `parts` holds the keyed nodes (see `PathChunk`) of one partition per
    row, nodes of the chunk, each row's first and last among them.
    Returns the chunk on `parts`, with the same jumps: its row starts[s] +
    i is the increment over row s's partition nodes i and i + 1, the
    left-to-right `compose_convolution` fold of the chunk's increments it
    contains, so the restriction is exact in distribution and bit-for-bit
    reproducible.  Where every partition is the chunk's own, the result's
    increments are a view of its rows.

    All the rows' steps fold together (`_fold`), on from the row of their
    first step in `finer`, a restriction of this chunk to partitions
    refining `parts` with at least n_modes modes: the doubles of the fold
    from the micro rows, in fewer passes.  By default, the chunk itself.
    """
    count = int(parts[-1].real) + 1 if parts.size else 0
    if count != chunk.rows:
        raise ValueError(f"{count} partitions for a chunk of {chunk.rows} "
                         "rows")
    fine = chunk if finer is None else finer
    if fine.rows != count:
        raise ValueError(f"a finer chunk of {fine.rows} rows for {count} "
                         "partitions")
    top = min(chunk.n_ref, fine.n_ref)
    if not 1 <= n_modes <= top:
        raise ValueError(f"mode count must lie in [1, {top}]")
    inc = chunk.wiener[:, :n_modes]
    if np.array_equal(parts, chunk.nodes):
        return replace(chunk, wiener=inc)
    # every row's nodes located at once by their keys: a node past a row's
    # last micro node is compared with the next row's first
    micro = chunk.nodes
    at = micro.searchsorted(parts)
    if (micro.take(at, mode="clip") != parts).any():
        raise ValueError("partition is not refined by the micro grid")
    starts = _starts(parts, count)
    ends = starts + np.arange(starts.size)  # rows' first nodes, count
    owner = parts.real.astype(np.intp)
    rows = at - owner  # the micro row each node starts, or the row count
    if ((rows[ends[:-1]] != chunk.starts[:-1]).any()
            or (rows[ends[1:] - 1] != chunk.starts[1:]).any()):
        raise ValueError("a partition must span the stretch")
    k = fine.nodes.searchsorted(parts)
    if (fine.nodes.take(k, mode="clip") != parts).any():
        raise ValueError("partition is not refined by the finer partition")
    steps = np.delete(np.arange(parts.size), ends[1:] - 1)  # a step's first
    k, owner = k[steps], owner[steps]
    head = (fine.wiener[k - owner, :n_modes],
            micro.searchsorted(fine.nodes[k + 1]) - owner)
    wiener = _fold(inc, chunk.deltas, chunk.dt_ref,
                   np.append(rows[steps], chunk.starts[-1]), head)
    return PathChunk(chunk.dt_ref, parts, wiener, starts, chunk.jumps,
                     chunk.xis)


# ---------------------------------------------------------------------------
# whole paths: the one-row chunk of [0, horizon]


def sample_path(horizon: float, dt_ref: float, n_ref: int, model: MarkModel,
                global_seed: int, sample_index: int) -> PathChunk:
    """Sample one coupled noise path from its two dedicated streams.

    The path is the one-row `PathChunk` of the single stretch [0, horizon]:
    its nodes, read-only, are the dt_ref grid merged with its jump times,
    and its micro nodes and row scaling are those of `PathStream`, so its
    rows are the stream's bit for bit.
    """
    rng = stream(global_seed, sample_index, PURPOSE_JUMPS)
    times, xis = sample_jump_skeleton(horizon, model, rng)
    jumps = 1j * times
    nodes = merge_jumps(uniform_nodes(horizon, dt_ref), jumps, 1)
    nodes.setflags(write=False)
    rng = stream(global_seed, sample_index, PURPOSE_WIENER)
    wiener = rng.standard_normal((nodes.size - 1, n_ref))
    _scale_rows(wiener, np.diff(nodes.imag), dt_ref)
    return PathChunk(dt_ref, nodes, wiener, np.array([0, nodes.size - 1]),
                     jumps, xis)


def restrict_path(path: PathChunk, nodes, n_modes: int) -> PathChunk:
    """Exactly restrict a whole path to a coarse partition and mode count.

    `path` is the one-row chunk of `sample_path`: at least two strictly
    increasing node times, one increment row per step.  `nodes` is a 1-d
    array of at least two of them, its first and last among them.  Returns
    `restrict_chunk` of the path on `nodes`; on the path's own nodes its
    increments are a view of the path's rows, not a copy.
    """
    if path.rows != 1:
        raise ValueError(f"a whole path is one row, got {path.rows}")
    micro = path.nodes.imag
    if micro.ndim != 1 or micro.size < 2:
        raise ValueError("grid nodes malformed")
    if np.any(np.diff(micro) <= 0.0):
        raise ValueError("grid nodes must be strictly increasing")
    if path.wiener.ndim != 2 or path.wiener.shape[0] != micro.size - 1:
        raise ValueError("wiener increment array has the wrong shape")
    nodes = np.asarray(nodes, dtype=np.float64)
    if nodes.ndim != 1 or nodes.size < 2:
        raise ValueError("partition must contain at least one step")
    return restrict_chunk(path, 1j * nodes, n_modes)


# ---------------------------------------------------------------------------
# compensated jump convolution: the tests' reference for the Hölder norms


def compensated_jump_convolution(horizon: float, times, xis,
                                 model: MarkModel, n_modes: int,
                                 t: float) -> SpectralState:
    """N(t) = sum_{sigma_j <= t} E(t - sigma_j) P_N(xi_j phi) - int_0^t E(t-s) ds mean_g.

    Exact evaluation of the stochastic convolution of the compensated jump
    noise at time t, straight from the skeleton (times, xis) on (0,
    horizon] and the closed-form compensator.
    """
    if t < 0 or t > horizon:
        raise ValueError("evaluation time outside the skeleton horizon")
    lam = eigenvalues(n_modes)
    phi = project(model.profile, n_modes).coeffs
    acc = np.zeros(n_modes)
    for sigma, xi in zip(times, xis):
        if sigma <= t:
            acc += xi * np.exp(-lam * (t - sigma)) * phi
    _, mean_g = compensator_coeffs(model, n_modes)
    acc -= -np.expm1(-lam * t) / lam * mean_g.coeffs
    return SpectralState(acc)
