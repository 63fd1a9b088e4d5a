"""Convergence-order studies on exactly coupled noise paths.

A study draws M independent reference-resolution noise paths, runs the scheme
at the reference resolution and at every coarse level on restrictions of the
same path, and turns the per-sample coupled errors into L^p error estimates
with bootstrap intervals and a fitted order (log-log least squares).  The
Hölder study skips the schemes entirely and evaluates the compensated jump
convolution straight from the skeletons, in chunks of fixed index ranges.

Samples are keyed by (seed, sample index) counter streams, so the same plan
always produces the same report no matter how samples are scheduled across
workers; the reduction runs in fixed sample order.  The temporal and
spatial studies step their samples in blocks of fixed index ranges through
one batched loop, drawing a block's paths one stretch of time at a time,
which gives each sample exactly the doubles of a run on its own.
"""

import logging
import math
import time
import warnings
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .noise import (  # sample_path: bench/test_bench.py looks it up here
    PURPOSE_BOOTSTRAP,
    MarkModel,
    PathStream,
    compensator_coeffs,
    restrict_chunk,
    sample_jump_skeletons,
    sample_path,
    stream,
    uniform_nodes,
)
from .schemes import (
    SCHEME_A,
    SCHEME_B,
    SchemeConfig,
    StepBlock,
    run_block,
    stretch_nodes,
)
from .spectral import NonlinearitySpec, SpectralState, eigenvalues, project

__all__ = [
    "AXES",
    "StudyPlan",
    "OrderReport",
    "StudyResult",
    "StudyAborted",
    "block_size",
    "fit_order",
    "run_temporal_study",
    "run_spatial_study",
    "run_holder_study",
    "run_study",
]

_log = logging.getLogger(__name__)

AXES = ("temporal", "spatial", "holder")
N_BOOTSTRAP = 1000
# byte budget of the resample indices one chunk of bootstrap draws holds
_BOOTSTRAP_BYTES = 2**20
# byte budget of the reference-resolution rows one block holds at once:
# one stretch of time of each sample's path (see `_blocking`); a Hölder
# study's chunk of samples holds its (samples, n_ref) arrays within it
# (see `_holder_chunk`)
BLOCK_BYTES = 8 * 2**20
MAX_BLOCK = 32


# ---------------------------------------------------------------------------
# plans and reports


@dataclass(frozen=True)
class StudyPlan:
    """A complete, self-contained description of one convergence study."""

    name: str
    axis: str
    levels: tuple
    n_ref: int
    dt_ref: float
    p_list: tuple
    samples: int
    scheme: str
    horizon: float
    nonlinearity: NonlinearitySpec
    model: MarkModel
    x0: SpectralState
    seed: int
    model_info: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.axis not in AXES:
            raise ValueError(f"unknown study axis {self.axis!r}")
        if self.scheme not in (SCHEME_A, SCHEME_B):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if not self.name or "/" in self.name:
            raise ValueError("study name must be a non-empty file stem")
        if self.n_ref < 1:
            raise ValueError("reference mode count must be positive")
        if self.dt_ref <= 0 or self.horizon <= 0:
            raise ValueError("dt_ref and horizon must be positive")
        n = self.horizon / self.dt_ref
        if abs(n - round(n)) > 1e-9 or round(n) < 1:
            raise ValueError("horizon must be an integer multiple of dt_ref")
        levels = tuple(self.levels)
        if not levels:
            raise ValueError("a study needs at least one level")
        if self.axis == "temporal":
            levels = tuple(float(v) for v in levels)
            for j, dt in enumerate(levels):
                ratio = dt / self.dt_ref
                r = round(ratio)
                if r < 1 or abs(ratio - r) > 1e-9 * ratio or (r & (r - 1)):
                    raise ValueError(
                        f"temporal level {dt} is not dt_ref times a power of two"
                    )
                if r == 1:
                    raise ValueError(
                        f"levels[{j}]: temporal level {dt} equals dt_ref, so "
                        "its coupled error is zero"
                    )
                steps = self.horizon / dt
                if abs(steps - round(steps)) > 1e-9 * steps:
                    raise ValueError(
                        f"levels[{j}]: horizon {self.horizon} is not an "
                        f"integer multiple of temporal level {dt}"
                    )
        elif self.axis == "spatial":
            coerced = []
            for j, v in enumerate(levels):
                if float(v) != int(v):
                    raise ValueError(f"spatial level {v} is not an integer")
                coerced.append(int(v))
                if not 1 <= int(v) <= self.n_ref:
                    raise ValueError(f"spatial level {v} outside [1, n_ref]")
                if int(v) == self.n_ref:
                    raise ValueError(
                        f"levels[{j}]: spatial level {v} equals n_ref, so "
                        "its coupled error is zero"
                    )
            levels = tuple(coerced)
        else:
            levels = tuple(float(v) for v in levels)
            for h in levels:
                if not 0.0 < h <= self.horizon / 2.0:
                    raise ValueError(
                        f"increment {h} must lie in (0, horizon/2]"
                    )
            if self.model.g1.bound > 0:
                raise ValueError("the regularity study needs additive jumps")
        object.__setattr__(self, "levels", levels)
        p_list = tuple(float(p) for p in self.p_list)
        if not p_list or any(p < 2 for p in p_list):
            raise ValueError("p values must be reals >= 2")
        object.__setattr__(self, "p_list", p_list)
        if self.samples < 1:
            raise ValueError("sample count must be positive")
        if self.samples < 100:
            warnings.warn(
                "fewer than 100 samples: bootstrap uncertainty will dominate",
                UserWarning,
                stacklevel=2,
            )
        # the expected jump rows of one sample must fit one block's budget,
        # which also keeps the Poisson draws of the jump counts in range
        if self.model.intensity * self.horizon * self.n_ref * 8 > BLOCK_BYTES:
            raise ValueError(
                f"model.intensity: {self.model.intensity} jumps per unit time "
                f"over horizon {self.horizon} give rows of {self.n_ref} "
                f"doubles beyond the {BLOCK_BYTES}-byte block budget")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")
        if not isinstance(self.model_info, dict):
            raise TypeError("model_info must be a dict")


@dataclass(frozen=True)
class OrderReport:
    """Per-level L^p errors with bootstrap intervals and the fitted order.

    `order` is the log-log slope against the level values, except for the
    spatial axis where the sign is flipped so that positive orders mean
    decay in N.  `order`, `stderr` and `intercept` are None when the plan
    has fewer than three levels (no fit).
    """

    p: float
    levels: np.ndarray
    errors: np.ndarray
    ci_lo: np.ndarray
    ci_hi: np.ndarray
    order: float = None
    stderr: float = None
    intercept: float = None

    def __post_init__(self):
        levels = np.asarray(self.levels, dtype=np.float64)
        errors = np.asarray(self.errors, dtype=np.float64)
        lo = np.asarray(self.ci_lo, dtype=np.float64)
        hi = np.asarray(self.ci_hi, dtype=np.float64)
        if not (levels.shape == errors.shape == lo.shape == hi.shape):
            raise ValueError("per-level columns must align")
        if np.any(errors <= 0):
            raise ValueError("errors must be strictly positive")
        if np.any(hi < lo):
            raise ValueError("interval bounds are reversed")
        for arr in (levels, errors, lo, hi):
            arr.setflags(write=False)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "errors", errors)
        object.__setattr__(self, "ci_lo", lo)
        object.__setattr__(self, "ci_hi", hi)

    @property
    def half_widths(self) -> np.ndarray:
        return (self.ci_hi - self.ci_lo) / 2.0


@dataclass(frozen=True)
class StudyResult:
    """One executed plan: a report per p plus sample accounting."""

    plan: StudyPlan
    reports: tuple
    aborts: int
    extras: dict = field(default_factory=dict)

    @property
    def effective_samples(self) -> int:
        return self.plan.samples - self.aborts

    def report_for(self, p: float) -> OrderReport:
        for rep in self.reports:
            if rep.p == p:
                return rep
        raise KeyError(f"no report for p = {p}")


# ---------------------------------------------------------------------------
# error estimation and order fitting


def _lp_point(norms: np.ndarray, p: float) -> float:
    return float(np.mean(norms**p) ** (1.0 / p))


def _bootstrap_interval(norms: np.ndarray, p: float, rng) -> tuple:
    """The 2.5 and 97.5 percentiles of N_BOOTSTRAP resampled L^p points.

    The resamples are drawn in chunks of up to _BOOTSTRAP_BYTES of indices,
    one draw and one sum per row for a whole chunk: the Philox stream gives
    the same indices however its draws are split, and each row sums as the
    one-dimensional draw of that resample would.
    """
    m = norms.size
    powers = norms**p
    stats = np.empty(N_BOOTSTRAP)
    chunk = min(N_BOOTSTRAP, max(1, _BOOTSTRAP_BYTES // (8 * m)))
    for b0 in range(0, N_BOOTSTRAP, chunk):
        idx = rng.integers(0, m, (min(chunk, N_BOOTSTRAP - b0), m))
        sums = np.add.reduce(powers.take(idx), axis=1)
        # np.mean's own doubles (a sum by add.reduce, then one division)
        # without its per-call overhead; the division and the root stay
        # scalar operations, as the root of a whole array moves last digits
        for b, total in enumerate(sums, b0):
            stats[b] = (total / m) ** (1.0 / p)
    return float(np.percentile(stats, 2.5)), float(np.percentile(stats, 97.5))


def _ols(x: np.ndarray, y: np.ndarray) -> tuple:
    xm, ym = x.mean(), y.mean()
    dx = x - xm
    sxx = float(dx @ dx)
    if sxx == 0.0:
        raise ValueError("levels are all identical; no order to fit")
    slope = float(dx @ (y - ym)) / sxx
    intercept = ym - slope * xm
    resid = y - (intercept + slope * x)
    dof = x.size - 2
    stderr = math.sqrt(float(resid @ resid) / dof / sxx) if dof > 0 else 0.0
    return slope, intercept, stderr


def fit_order(levels, errors) -> tuple:
    """Least-squares slope of log(error) against log(level).

    Returns (order, stderr).  Spatial studies pass N values and negate the
    slope afterwards so that positive orders mean decay in N.
    """
    levels = np.asarray(levels, dtype=np.float64)
    errors = np.asarray(errors, dtype=np.float64)
    if levels.size < 3:
        raise ValueError("order fitting needs at least three levels")
    if np.any(errors <= 0) or np.any(levels <= 0):
        raise ValueError("levels and errors must be strictly positive")
    slope, _, stderr = _ols(np.log(levels), np.log(errors))
    return slope, stderr


def _build_reports(plan: StudyPlan, norms: np.ndarray,
                   negate_order: bool) -> tuple:
    """Reports per p from the (samples, levels) matrix of coupled norms."""
    rng = stream(plan.seed, 0, PURPOSE_BOOTSTRAP)
    levels = np.asarray(plan.levels, dtype=np.float64)
    reports = []
    for p in plan.p_list:
        errors = np.empty(levels.size)
        lo = np.empty(levels.size)
        hi = np.empty(levels.size)
        for j in range(levels.size):
            errors[j] = _lp_point(norms[:, j], p)
            lo[j], hi[j] = _bootstrap_interval(norms[:, j], p, rng)
        order = stderr = intercept = None
        if levels.size >= 3:
            slope, intercept, stderr = _ols(np.log(levels), np.log(errors))
            order = -slope if negate_order else slope
            intercept = float(intercept)
            stderr = float(stderr)
        reports.append(OrderReport(p, levels, errors, lo, hi,
                                   order, stderr, intercept))
    return tuple(reports)


# ---------------------------------------------------------------------------
# the block worker


class StudyAborted(RuntimeError):
    """Every sample of a study aborted; `aborted` holds their records."""

    def __init__(self, aborted: list):
        super().__init__("every sample aborted; nothing to estimate")
        self.aborted = aborted


def _blocking(plan: StudyPlan) -> tuple:
    """(samples per block, dt_ref steps per stretch) of a temporal or
    spatial study, fixed by the plan alone.

    A block draws its paths and steps every resolution one stretch of time
    at a time, and holds one stretch of reference-resolution rows per
    sample, two on scheme B (its reference run's copy of them restricted to
    the uniform grid), within BLOCK_BYTES.  A temporal stretch ends on nodes
    of the plan's coarsest level, so that every level's steps fall whole
    into stretches.  Stretches are as long as MAX_BLOCK samples allow, but
    never shorter than one coarsest step; a plan whose coarsest step alone
    fills the budget steps fewer samples at once.
    """
    steps = round(plan.horizon / plan.dt_ref)
    row_bytes = plan.n_ref * 8 * (2 if plan.scheme == SCHEME_B else 1)
    unit = 1
    if plan.axis == "temporal":
        unit = round(max(plan.levels) / plan.dt_ref)
    stretch = BLOCK_BYTES // (MAX_BLOCK * row_bytes) // unit * unit
    stretch = min(steps, max(unit, stretch))
    size = BLOCK_BYTES // (stretch * row_bytes)
    return max(1, min(MAX_BLOCK, size)), stretch


def block_size(plan: StudyPlan):
    """Samples stepped together in one block of a temporal or spatial
    study (None for the Hölder axis, which runs no scheme).

    Fixed by the plan alone, so the blocks [kB, (k+1)B) and the results do
    not depend on the worker count.
    """
    if plan.axis == "holder":
        return None
    return _blocking(plan)[0]


def _resolutions(plan: StudyPlan) -> list:
    """(dt, N) of the reference run, then of every level in plan order."""
    if plan.axis == "temporal":
        levels = [(dt, plan.n_ref) for dt in plan.levels]
    else:
        levels = [(plan.dt_ref, n) for n in plan.levels]
    return [(plan.dt_ref, plan.n_ref)] + levels


def _new_phases(plan: StudyPlan) -> dict:
    """Seconds per phase of a coupled study: drawing the paths, restricting
    them, stepping each resolution (reference first), reducing the norms
    and the bootstrap."""
    return {"draw": 0.0, "restrict": 0.0,
            "step": [0.0] * (len(plan.levels) + 1),
            "norms": 0.0, "bootstrap": 0.0}


def _run_block(plan: StudyPlan, indices, phases=None) -> tuple:
    """Terminal states of the samples `indices`, stepped as one block.

    Returns (terminals, aborted).  terminals[b, j] is the terminal state of
    sample indices[b] at resolution j of `_resolutions` (0 is the
    reference), zero-padded to n_ref.  A sample whose run turns non-finite
    skips the higher resolutions; `aborted` records its index, the first
    resolution in plan order at which it diverged (its dt or N), and the
    step and time there.  A sample with a jump time on a dt_ref node is
    stepped at no resolution and recorded at the reference, with the dt_ref
    step that ends on that node and the jump time.

    The paths are drawn one stretch of time at a time (see `_blocking`),
    and each resolution steps through the stretch from where it stood at
    the end of the last one.  The seconds spent are added to `phases`
    (see `_new_phases`), a dict of the call's own unless one is given.
    """
    clock = time.perf_counter
    spent = _new_phases(plan) if phases is None else phases
    t0 = clock()
    res = _resolutions(plan)
    cfgs = [SchemeConfig(plan.scheme, n, dt, plan.horizon, plan.nonlinearity,
                         plan.model, plan.x0) for dt, n in res]
    grids = [uniform_nodes(plan.horizon, dt) for dt, _ in res]
    ratios = [round(dt / plan.dt_ref) for dt, _ in res]
    _, stretch = _blocking(plan)
    paths = PathStream(plan.horizon, plan.dt_ref, plan.n_ref, plan.model,
                       plan.seed, indices)
    total = paths.base.size - 1
    size = len(indices)
    # sample -> (resolution, step, time) of its abort; a sample with a jump
    # on a dt_ref node aborts at the reference before any step, at the
    # dt_ref step that ends on that node
    failed = {s: (0, *hit) for s, hit in paths.collisions.items()}
    # per resolution: the samples still stepped there, their states and the
    # steps they have taken; a sample leaves every resolution from the one
    # it diverges at upwards, as only the first one in plan order is kept
    alive = [np.setdiff1d(np.arange(size), list(failed)) for _ in res]
    states = [np.tile(project(plan.x0, n).coeffs, (alive[0].size, 1))
              for _, n in res]
    taken = [np.zeros(size, dtype=np.int64) for _ in res]
    spent["draw"] += clock() - t0
    for k0 in range(0, total, stretch):
        k1 = min(k0 + stretch, total)
        if not alive[0].size:
            break
        t0 = clock()
        chunk = paths.draw(k0, k1, alive[0])
        at = np.full(size, -1)
        at[alive[0]] = np.arange(alive[0].size)
        t1 = clock()
        spent["draw"] += t1 - t0
        # each time grid's partitions and folds at n_ref, by dt: the fold is
        # elementwise per mode, so a resolution of fewer modes on the same
        # grid (every spatial level) steps on the leading columns
        folded = {}
        for j, cfg in enumerate(cfgs):
            rows = alive[j]
            if not rows.size:
                continue
            t0 = clock()
            dt, r = res[j][0], ratios[j]
            if dt not in folded:
                if cfg.scheme == SCHEME_A and r == 1:
                    parts = chunk.micro
                else:
                    level = grids[j][k0 // r:k1 // r + 1]
                    parts = [stretch_nodes(cfg, level, t)
                             for t in chunk.times]
                folded[dt] = (parts,
                              *restrict_chunk(chunk, parts, plan.n_ref))
            parts, wiener, starts = folded[dt]
            sel = at[rows]
            block = StepBlock([parts[s] for s in sel],
                              wiener[:, :cfg.n_modes], starts[sel],
                              taken[j][rows], [chunk.times[s] for s in sel],
                              [chunk.xis[s] for s in sel])
            t1 = clock()
            finals, diverged, _ = run_block(cfg, block, states[j])
            spent["restrict"] += t1 - t0
            spent["step"][j] += clock() - t1
            taken[j][rows] += [parts[s].size - 1 for s in sel]
            states[j] = finals
            if not diverged:
                continue
            dead = rows[list(diverged)]
            for k, b in zip(diverged, dead):
                failed[b] = (j, *diverged[k])
            for h in range(j, len(res)):
                keep = ~np.isin(alive[h], dead)
                alive[h], states[h] = alive[h][keep], states[h][keep]
        # one stretch at a time: drop it before the next one is drawn
        del chunk, folded, parts, wiener, block
    terminals = np.zeros((size, len(res), plan.n_ref))
    for j, (_, n) in enumerate(res):
        terminals[alive[j], j, :n] = states[j]
    aborted = [{"index": indices[b],
                "level": res[j][0] if plan.axis == "temporal" else res[j][1],
                "step": step, "time": t}
               for b, (j, step, t) in failed.items()]
    aborted.sort(key=lambda a: a["index"])
    return terminals, aborted


def _coupled_norms(terminals: np.ndarray) -> np.ndarray:
    """(samples, levels) H-norms of each level's terminal state against the
    reference; row by row the same doubles as `hnorm` of one difference."""
    norms = np.empty((terminals.shape[0], terminals.shape[1] - 1))
    for j in range(norms.shape[1]):
        diff = terminals[:, 0] - terminals[:, j + 1]
        norms[:, j] = np.sqrt(np.sum(diff**2, axis=1))
    return norms


def _block_norms(plan: StudyPlan, size: int, start: int,
                 phases=None) -> tuple:
    """Coupled norms of the surviving samples of the block of `size`
    samples from `start`, and the block's abort records; the seconds spent
    are added to `phases` as in `_run_block`."""
    phases = _new_phases(plan) if phases is None else phases
    indices = range(start, min(start + size, plan.samples))
    terminals, aborted = _run_block(plan, indices, phases)
    t0 = time.perf_counter()
    dead = {a["index"] for a in aborted}
    kept = [b for b, i in enumerate(indices) if i not in dead]
    norms = _coupled_norms(terminals[kept])
    phases["norms"] += time.perf_counter() - t0
    return norms, aborted


def _timed_block(plan: StudyPlan, size: int, start: int) -> tuple:
    """`_block_norms` of one block and its phases, as a worker returns
    them across the process pool."""
    phases = _new_phases(plan)
    return (*_block_norms(plan, size, start, phases), phases)


def _collect_norms(plan: StudyPlan, workers: int, phases=None) -> tuple:
    """The (samples, levels) coupled norms of the surviving samples and
    the abort records.  The blocks' seconds are added to `phases` as in
    `_run_block`: with several workers, summed over the workers."""
    phases = _new_phases(plan) if phases is None else phases
    size = block_size(plan)
    job = partial(_timed_block, plan, size)
    starts = range(0, plan.samples, size)
    t0 = time.perf_counter()

    def logged(blocks):
        for start, block in zip(starts, blocks):
            done = min(start + size, plan.samples)
            elapsed = time.perf_counter() - t0
            _log.info("%s: %d/%d samples, %.1f s elapsed, ETA %.1f s",
                      plan.name, done, plan.samples, elapsed,
                      elapsed / done * (plan.samples - done))
            yield block

    if workers <= 1:
        parts = list(logged(map(job, starts)))
    else:
        from concurrent.futures import ProcessPoolExecutor  # 10 ms to load
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(logged(pool.map(job, starts)))
    for _, _, spent in parts:
        for key, value in spent.items():
            if key == "step":
                phases[key] = [a + b for a, b in zip(phases[key], value)]
            else:
                phases[key] += value
    aborted = [a for _, block, _ in parts for a in block]
    if len(aborted) == plan.samples:
        raise StudyAborted(aborted)
    return np.vstack([norms for norms, _, _ in parts]), aborted


def _coupled_study(plan: StudyPlan, workers: int) -> StudyResult:
    phases = _new_phases(plan)
    norms, aborted = _collect_norms(plan, workers, phases)
    t0 = time.perf_counter()
    reports = _build_reports(plan, norms, plan.axis == "spatial")
    phases["bootstrap"] = time.perf_counter() - t0
    return StudyResult(plan, reports, len(aborted),
                       dict(plan.model_info, aborted=aborted, phases=phases))


# ---------------------------------------------------------------------------
# studies


def run_temporal_study(plan: StudyPlan, workers: int = 1) -> StudyResult:
    """Coupled temporal-refinement study at fixed N = n_ref.

    The reference is the same scheme on the same path at dt_ref; each level
    reruns the scheme on the exact restriction of that path.
    """
    if plan.axis != "temporal":
        raise ValueError("plan axis must be temporal")
    return _coupled_study(plan, workers)


def run_spatial_study(plan: StudyPlan, workers: int = 1) -> StudyResult:
    """Coupled mode-truncation study at fixed dt = dt_ref.

    The reported order is the decay exponent in N (negated log-log slope).
    """
    if plan.axis != "spatial":
        raise ValueError("plan axis must be spatial")
    return _coupled_study(plan, workers)


def _holder_chunk(plan: StudyPlan) -> int:
    """Samples a Hölder study draws and evaluates at once, fixed by the
    plan alone, so that the chunk's rows of n_ref doubles fit BLOCK_BYTES.
    A sample holds two rows (its old-jump profile and its increment), and
    two more (a decay row and its temporary) for each jump it expects
    before t, rounded up and at least one: 4,096 samples at n_ref = 64,
    intensity 2 and horizon 1."""
    old = max(1, math.ceil(plan.model.intensity * plan.horizon / 2.0))
    return max(1, BLOCK_BYTES // ((2 + 2 * old) * plan.n_ref * 8))


def _increment_norms(plan: StudyPlan, lam: np.ndarray, phi: np.ndarray,
                     mg: np.ndarray, times: np.ndarray, xis: np.ndarray,
                     counts: np.ndarray) -> np.ndarray:
    """(samples, increments) norms of the samples whose skeletons are
    (times, xis, counts), concatenated as `sample_jump_skeletons` returns
    them.  Every operation is per sample, and each sample's jumps are
    summed in draw order, so a sample's norms do not depend on which
    samples share the call."""
    t = plan.horizon / 2.0
    m_samples = counts.size
    n = lam.size
    owner = np.repeat(np.arange(m_samples), counts)

    # per-sample profile of the pre-t jumps: S[i, k] = sum_j xi_j e^{-lam_k (t - sigma_j)}
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
        # compensator part of the increment: -(phi1(t+h) - phi1(t)) mean_g
        comp = (np.expm1(-lam * (t + h)) - np.expm1(-lam * t)) / lam * mg
        delta += comp
        norms[:, j] = np.sqrt(np.einsum("ij,ij->i", delta, delta))
    return norms


def _holder_norms(plan: StudyPlan) -> tuple:
    """Norms of jump-convolution increments N(t+h) - N(t) at t = T/2.

    Evaluated in closed form from the skeletons: jumps before t contribute
    through a per-sample mode profile scaled by (e^{-lam h} - 1), jumps
    inside (t, t+h] enter with their own decay, and the compensator adds a
    deterministic phi1 difference.  The samples are drawn and evaluated in
    chunks of fixed index ranges (`_holder_chunk`), which give the same
    doubles as one call over all of them, so memory does not grow with the
    sample count.  Returns the (samples, increments) norms and the seconds
    spent drawing the skeletons and evaluating them (the phases
    `skeletons` and `norms`, summed over the chunks).
    """
    t0 = time.perf_counter()
    n = plan.n_ref
    lam = eigenvalues(n)
    phi = project(plan.model.profile, n).coeffs
    _, mean_g = compensator_coeffs(plan.model, n)
    spent = {"skeletons": time.perf_counter() - t0, "norms": 0.0}

    size = _holder_chunk(plan)
    norms = np.empty((plan.samples, len(plan.levels)))
    for c0 in range(0, plan.samples, size):
        c1 = min(c0 + size, plan.samples)
        t0 = time.perf_counter()
        skeletons = sample_jump_skeletons(plan.horizon, plan.model,
                                          plan.seed, range(c0, c1))
        t1 = time.perf_counter()
        norms[c0:c1] = _increment_norms(plan, lam, phi, mean_g.coeffs,
                                        *skeletons)
        spent["skeletons"] += t1 - t0
        spent["norms"] += time.perf_counter() - t1
    _log.info("%s: skeletons of %d samples, %.1f s", plan.name, plan.samples,
              spent["skeletons"])
    _log.info("%s: norms at %d increments, %.1f s", plan.name,
              len(plan.levels), spent["norms"])
    return norms, spent


def run_holder_study(plan: StudyPlan, workers: int = 1) -> StudyResult:
    """Temporal-regularity exponents of the compensated jump convolution.

    Fits, per p, the growth exponent of the L^p norm of increments over
    h; p = 2 sits near 1/2 while large p is capped near 1/p by single-jump
    dominance.  No scheme runs are involved.
    """
    if plan.axis != "holder":
        raise ValueError("plan axis must be holder")
    del workers  # one process; most of the time is the bootstrap, serial on every axis
    norms, phases = _holder_norms(plan)
    if not norms.any():
        raise ValueError(
            "all increments vanish (zero jump model?); exponents undefined"
        )
    t0 = time.perf_counter()
    reports = _build_reports(plan, norms, False)
    phases["bootstrap"] = time.perf_counter() - t0
    _log.info("%s: bootstrap of %d intervals, %.1f s", plan.name,
              len(plan.p_list) * len(plan.levels), phases["bootstrap"])
    return StudyResult(plan, reports, 0,
                       dict(plan.model_info, phases=phases))


def run_study(plan: StudyPlan, workers: int = 1) -> StudyResult:
    """Dispatch a plan to the runner for its axis."""
    runner = {
        "temporal": run_temporal_study,
        "spatial": run_spatial_study,
        "holder": run_holder_study,
    }[plan.axis]
    return runner(plan, workers=workers)
