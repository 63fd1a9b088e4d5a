"""Convergence-order studies on exactly coupled noise paths.

A study draws M independent reference-resolution noise paths, runs the scheme
at the reference resolution and at every coarse level on restrictions of the
same path, and turns the per-sample coupled errors into L^p error estimates
with bootstrap intervals and a fitted order (log-log least squares).  The
Hölder study skips the schemes entirely and evaluates the compensated jump
convolution straight from the skeletons.

Samples are keyed by (seed, sample index) counter streams, so the same plan
always produces the same report no matter how samples are scheduled across
workers; the reduction runs in fixed sample order.  Every axis runs its
samples in blocks of fixed index ranges through `run_study`, serially or on
a process pool, and bootstraps the gathered norms serially.  A temporal or
spatial block steps its samples through one batched loop, drawing their
paths one stretch of time at a time, which gives each sample exactly the
doubles of a run on its own.  Its rows are fixed: a sample that aborts
stays in the block as NaN; a Hölder block draws and evaluates a chunk of
skeletons.
"""

import logging
import math
import time
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from .noise import (  # sample_path: bench/test_bench.py looks it up here
    PURPOSE_BOOTSTRAP,
    MarkModel,
    PathStream,
    compensator_coeffs,
    dyadic_ratio,
    restrict_chunk,
    sample_jump_skeletons,
    sample_path,
    step_count,
    stream,
    uniform_nodes,
)
from .schemes import (
    SCHEME_A,
    SCHEME_B,
    SchemeConfig,
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

    def __post_init__(self):
        if self.axis not in AXES:
            raise ValueError(f"unknown study axis {self.axis!r}")
        if self.scheme not in (SCHEME_A, SCHEME_B):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if not self.name or "/" in self.name:
            raise ValueError("study name must be a non-empty file stem")
        if self.n_ref < 1:
            raise ValueError("reference mode count must be positive")
        for name, v in (("horizon", self.horizon), ("dt_ref", self.dt_ref)):
            if not 0 < v < math.inf:
                raise ValueError(f"{name}: {v} is not a positive finite number")
        steps = step_count(self.horizon, self.dt_ref, "dt_ref")
        levels = tuple(self.levels)
        if not levels:
            raise ValueError("a study needs at least one level")
        if self.axis == "temporal":
            levels = tuple(float(v) for v in levels)
            for j, dt in enumerate(levels):
                # exactly: the level's nodes are micro nodes of the path
                r = dyadic_ratio(dt, self.dt_ref)
                if not r:
                    raise ValueError(
                        f"levels[{j}]: temporal level {dt} is not dt_ref "
                        "times a power of two"
                    )
                if r == 1:
                    raise ValueError(
                        f"levels[{j}]: temporal level {dt} equals dt_ref, so "
                        "its coupled error is zero"
                    )
                if steps % r:
                    raise ValueError(
                        f"levels[{j}]: horizon {self.horizon} is not an "
                        f"integer multiple of temporal level {dt}"
                    )
        elif self.axis == "spatial":
            coerced = []
            for j, v in enumerate(levels):
                if not math.isfinite(v) or float(v) != int(v):
                    raise ValueError(
                        f"levels[{j}]: spatial level {v} is not an integer")
                coerced.append(int(v))
                if not 1 <= int(v) <= self.n_ref:
                    raise ValueError(
                        f"levels[{j}]: spatial level {v} outside [1, n_ref]")
                if int(v) == self.n_ref:
                    raise ValueError(
                        f"levels[{j}]: spatial level {v} equals n_ref, so "
                        "its coupled error is zero"
                    )
            levels = tuple(coerced)
        else:
            levels = tuple(float(v) for v in levels)
            for j, h in enumerate(levels):
                if not 0.0 < h <= self.horizon / 2.0:
                    raise ValueError(
                        f"levels[{j}]: increment {h} must lie in "
                        "(0, horizon/2]"
                    )
            if self.model.g1.bound > 0:
                raise ValueError(
                    "model.g1: the regularity study needs additive jumps")
        # three or more levels are fitted (`_ols`), which needs log-levels
        # that are not all one number
        logs = np.log(np.asarray(levels, dtype=np.float64))
        if len(levels) >= 3 and np.all(logs == logs.mean()):
            raise ValueError(
                f"levels: all {len(levels)} levels are {levels[0]}, so no "
                "order can be fitted")
        object.__setattr__(self, "levels", levels)
        p_list = tuple(float(p) for p in self.p_list)
        if not p_list or any(not 2 <= p < math.inf for p in p_list):
            raise ValueError("p values must be finite reals >= 2")
        object.__setattr__(self, "p_list", p_list)
        if self.samples < 1:
            raise ValueError("sample count must be positive")
        if self.samples < 100:
            warnings.warn(
                "fewer than 100 samples: bootstrap uncertainty will dominate",
                UserWarning,
                stacklevel=3,
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


@dataclass(frozen=True)
class OrderReport:
    """Per-level L^p errors with bootstrap intervals and the fitted order.

    `order` is the log-log slope against the level values, except for the
    spatial axis where the sign is flipped so that positive orders mean
    decay in N.  `order` and `stderr` are None when the plan has fewer
    than three levels (no fit).  Every error and bound is finite, and every
    error positive.
    """

    p: float
    levels: np.ndarray
    errors: np.ndarray
    ci_lo: np.ndarray
    ci_hi: np.ndarray
    order: float = None
    stderr: float = None

    def __post_init__(self):
        levels = np.asarray(self.levels, dtype=np.float64)
        errors = np.asarray(self.errors, dtype=np.float64)
        lo = np.asarray(self.ci_lo, dtype=np.float64)
        hi = np.asarray(self.ci_hi, dtype=np.float64)
        if not (levels.shape == errors.shape == lo.shape == hi.shape):
            raise ValueError("per-level columns must align")
        for j in range(levels.size):
            if not np.isfinite([errors[j], lo[j], hi[j]]).all():
                raise ValueError(
                    f"p = {self.p:g}, levels[{j}] = {levels[j]:g}: L^p error "
                    f"{errors[j]} with interval [{lo[j]}, {hi[j]}] is not finite")
            if errors[j] <= 0:
                raise ValueError(
                    f"p = {self.p:g}, levels[{j}] = {levels[j]:g}: L^p error "
                    f"{errors[j]} is not positive: the mean of |e|^p "
                    "underflowed to zero at this p")
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
    """One executed plan: a report per p, the abort records of the samples
    that diverged (see `_run_block`) and the seconds per phase (see
    `_new_phases`)."""

    plan: StudyPlan
    reports: tuple
    aborted: list
    phases: dict

    @property
    def aborts(self) -> int:
        return len(self.aborted)

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
    return slope, stderr


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
    return _ols(np.log(levels), np.log(errors))


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
        order = stderr = None
        # a non-finite or underflowed error is not fitted: OrderReport
        # refuses it
        if levels.size >= 3 and np.isfinite(errors).all() and \
                (errors > 0).all():
            slope, stderr = _ols(np.log(levels), np.log(errors))
            order = -slope if negate_order else slope
        reports.append(OrderReport(p, levels, errors, lo, hi, order, stderr))
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


def _holder_chunk(plan: StudyPlan) -> int:
    """Samples a Hölder block draws and evaluates at once, so that the
    block's rows of n_ref doubles fit BLOCK_BYTES.  A sample holds two rows
    (its old-jump profile and its increment), and two more (a decay row and
    its temporary) for each jump it expects before t, rounded up and at
    least one: 4,096 samples at n_ref = 64, intensity 2 and horizon 1."""
    old = max(1, math.ceil(plan.model.intensity * plan.horizon / 2.0))
    return max(1, BLOCK_BYTES // ((2 + 2 * old) * plan.n_ref * 8))


def block_size(plan: StudyPlan) -> int:
    """Samples in one block: stepped together on a temporal or spatial
    study, drawn and evaluated together on a Hölder study.

    Fixed by the plan alone, so the blocks [kB, (k+1)B) and the results do
    not depend on the worker count.
    """
    if plan.axis == "holder":
        return _holder_chunk(plan)
    return _blocking(plan)[0]


def _resolutions(plan: StudyPlan) -> list:
    """(dt, N) of the reference run, then of every level in plan order."""
    if plan.axis == "temporal":
        levels = [(dt, plan.n_ref) for dt in plan.levels]
    else:
        levels = [(plan.dt_ref, n) for n in plan.levels]
    return [(plan.dt_ref, plan.n_ref)] + levels


def _new_phases(plan: StudyPlan) -> dict:
    """Seconds per phase of a study: drawing the paths, restricting them to
    each resolution and stepping each resolution (both reference first; a
    fold that several resolutions share is booked to the first of them),
    reducing the norms and the bootstrap; on the Hölder axis, drawing the
    skeletons, evaluating the norms and the bootstrap."""
    if plan.axis == "holder":
        return {"skeletons": 0.0, "norms": 0.0, "bootstrap": 0.0}
    return {"draw": 0.0, "restrict": [0.0] * (len(plan.levels) + 1),
            "step": [0.0] * (len(plan.levels) + 1),
            "norms": 0.0, "bootstrap": 0.0}


def _run_block(plan: StudyPlan, indices, phases=None) -> tuple:
    """Terminal states of the samples `indices`, stepped as one block.

    Returns (terminals, aborted).  terminals[b, j] is the terminal state of
    sample indices[b] at resolution j of `_resolutions` (0 is the
    reference), zero-padded to n_ref.  Every sample is stepped at every
    resolution.  A sample whose run turns non-finite is NaN there and at
    every higher resolution, which it sits out; `aborted` records its
    index, the first resolution in plan order at which it diverged (its dt
    or N), and the step and time there.  A sample with a jump time on a
    dt_ref node is stepped at no resolution and recorded at the reference,
    with the dt_ref step that ends on that node and the jump time.

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
    ratios = [dyadic_ratio(dt, plan.dt_ref) for dt, _ in res]
    _, stretch = _blocking(plan)
    paths = PathStream(plan.horizon, plan.dt_ref, plan.n_ref, plan.model,
                       plan.seed, indices)
    total = paths.base.size - 1
    size = len(indices)
    # sample -> (resolution, step, time) of its abort; a sample with a jump
    # on a dt_ref node aborts at the reference before any step, at the
    # dt_ref step that ends on that node
    failed = {s: (0, *hit) for s, hit in paths.collisions.items()}
    # the samples stepped, one row each at every resolution: their states
    # and the steps they have taken
    rows = np.setdiff1d(np.arange(size), list(failed))
    states = [np.tile(project(plan.x0, n).coeffs, (rows.size, 1))
              for _, n in res]
    taken = [np.zeros(rows.size, dtype=np.int64) for _ in res]
    spent["draw"] += clock() - t0
    for k0 in range(0, total, stretch):
        k1 = min(k0 + stretch, total)
        if np.isnan(states[0]).all():  # every sample aborted at the reference
            break
        t0 = clock()
        chunk = paths.draw(k0, k1, rows)
        t1 = clock()
        spent["draw"] += t1 - t0
        # each time grid's partitions and folds at n_ref, by dt, the finest
        # first, each folded on from the next finer grid's: the fold is
        # elementwise per mode, so a resolution of fewer modes on the same
        # grid (every spatial level) steps on the leading columns, and the
        # fold's time is booked to the first of them in plan order
        folded, finer = {}, None
        for j in sorted(range(len(res)), key=lambda j: res[j][0]):
            dt, r = res[j][0], ratios[j]
            if dt in folded:
                continue
            t0 = clock()
            level = grids[j][k0 // r:k1 // r + 1]
            parts = [stretch_nodes(cfgs[j], level, t) for t in chunk.times]
            finer = folded[dt] = restrict_chunk(chunk, parts, plan.n_ref,
                                                finer)
            spent["restrict"][j] += clock() - t0
        for j, cfg in enumerate(cfgs):
            t0 = clock()
            dt = res[j][0]
            finals, diverged = run_block(cfg, folded[dt], states[j])
            spent["step"][j] += clock() - t0
            states[j] = finals
            # the sample sits out the higher resolutions, so a later
            # stretch reports it at a lower one: the first in plan order
            for k, (step, t) in diverged.items():
                failed[rows[k]] = (j, int(taken[j][k]) + step, t)
                for later in states[j + 1:]:
                    later[k] = np.nan
            taken[j] += [p.size - 1 for p in folded[dt].nodes]
        # one stretch at a time: drop it before the next one is drawn
        del chunk, folded
    terminals = np.zeros((size, len(res), plan.n_ref))
    for j, (_, n) in enumerate(res):
        terminals[rows, j, :n] = states[j]
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


def _increment_norms(plan: StudyPlan, indices, phases: dict) -> np.ndarray:
    """(samples, increments) norms of the jump-convolution increments
    N(t+h) - N(t) at t = T/2 of the samples `indices`.

    Evaluated in closed form from the skeletons: jumps before t contribute
    through a per-sample mode profile scaled by (e^{-lam h} - 1), jumps
    inside (t, t+h] enter with their own decay, and the compensator adds a
    deterministic phi1 difference.  Every operation is per sample, and each
    sample's jumps are summed in draw order, so a sample's norms do not
    depend on which samples share the call.  The seconds spent are added to
    `phases` (its `skeletons` and `norms`).
    """
    t0 = time.perf_counter()
    t = plan.horizon / 2.0
    n = plan.n_ref
    lam = eigenvalues(n)
    phi = project(plan.model.profile, n).coeffs
    mg = compensator_coeffs(plan.model, n)[1].coeffs
    times, xis, counts = sample_jump_skeletons(plan.horizon, plan.model,
                                               plan.seed, indices)
    t1 = time.perf_counter()
    phases["skeletons"] += t1 - t0
    m_samples = counts.size
    owner = np.repeat(np.arange(m_samples), counts)

    # per-sample profile of the pre-t jumps: S[i, k] = sum_j xi_j e^{-lam_k (t - sigma_j)}
    old = times <= t
    s_old = np.zeros((m_samples, n))
    decay = xis[old, None] * np.exp(-lam[None, :] * (t - times[old, None]))
    np.add.at(s_old, owner[old], decay)
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
    phases["norms"] += time.perf_counter() - t1
    return norms


def _block_norms(plan: StudyPlan, size: int, start: int) -> tuple:
    """Norms of the surviving samples of the block of `size` samples from
    `start`, the block's abort records and the seconds its phases took
    (see `_new_phases`): coupled norms of a temporal or spatial block,
    increment norms of a Hölder block, which aborts no sample."""
    phases = _new_phases(plan)
    indices = range(start, min(start + size, plan.samples))
    if plan.axis == "holder":
        return _increment_norms(plan, indices, phases), [], phases
    terminals, aborted = _run_block(plan, indices, phases)
    t0 = time.perf_counter()
    dead = {a["index"] for a in aborted}
    kept = [b for b, i in enumerate(indices) if i not in dead]
    norms = _coupled_norms(terminals[kept])
    phases["norms"] += time.perf_counter() - t0
    return norms, aborted, phases


def _collect_norms(plan: StudyPlan, workers: int, phases=None) -> tuple:
    """The (samples, levels) norms of the surviving samples, in sample
    order, and the abort records.  The seconds of the blocks' phases (see
    `_block_norms`) are added to `phases`: with several workers, summed
    over the workers.  Each finished block logs a progress line."""
    phases = _new_phases(plan) if phases is None else phases
    size = block_size(plan)
    starts = range(0, plan.samples, size)
    job = partial(_block_norms, plan, size)
    norms = np.empty((plan.samples, len(plan.levels)))
    filled, aborted = 0, []
    t0 = time.perf_counter()

    def gather(blocks):
        nonlocal filled
        for start in starts:
            rows, dead, spent = next(blocks)
            norms[filled:filled + len(rows)] = rows
            filled += len(rows)
            aborted.extend(dead)
            for key, value in spent.items():
                if key in ("restrict", "step"):
                    phases[key] = [a + b for a, b in zip(phases[key], value)]
                else:
                    phases[key] += value
            # let the block's rows go before the next block runs
            del rows
            done = min(start + size, plan.samples)
            elapsed = time.perf_counter() - t0
            _log.info("%s: %d/%d samples, %.1f s elapsed, ETA %.1f s",
                      plan.name, done, plan.samples, elapsed,
                      elapsed / done * (plan.samples - done))

    if workers <= 1:
        gather(map(job, starts))
    else:
        from concurrent.futures import ProcessPoolExecutor  # 10 ms to load
        # a forking pool starts all its workers at once: one per block at most
        with ProcessPoolExecutor(
                max_workers=min(workers, len(starts))) as pool:
            gather(pool.map(job, starts))
    if len(aborted) == plan.samples:
        raise StudyAborted(aborted)
    return norms[:filled], aborted


# ---------------------------------------------------------------------------
# studies


def run_study(plan: StudyPlan, workers: int = 1) -> StudyResult:
    """Run a plan of any axis on `workers` processes.

    A temporal study reruns the scheme at every level on the exact
    restriction of the reference path; a spatial study reports the decay
    exponent in N (the negated log-log slope); a Hölder study fits, per p,
    the growth exponent over h of the compensated jump convolution's
    increments, with no scheme run.
    The blocks (see `block_size`) run serially or on a process pool; the
    norms they return are gathered in sample order and bootstrapped
    serially, so the reports do not depend on the worker count.  A
    ValueError raised once the blocks have run carries their abort records
    as `aborted`, as `StudyAborted` does.
    """
    if workers < 1:
        raise ValueError("worker count must be a positive integer")
    phases = _new_phases(plan)
    norms, aborted = _collect_norms(plan, workers, phases)
    try:
        for j, level in enumerate(plan.levels):
            if not norms[:, j].any():
                raise ValueError(
                    f"levels[{j}]: every norm at level {level} vanishes "
                    "(zero jump model?); its error and order are undefined")
        t0 = time.perf_counter()
        reports = _build_reports(plan, norms, plan.axis == "spatial")
    except ValueError as exc:
        exc.aborted = aborted  # the samples lost before the study failed
        raise
    phases["bootstrap"] = time.perf_counter() - t0
    _log.info("%s: bootstrap of %d intervals, %.1f s", plan.name,
              len(plan.p_list) * len(plan.levels), phases["bootstrap"])
    return StudyResult(plan, reports, aborted, phases)

