"""Fully discrete time-stepping schemes for the jump-driven heat equation.

Both schemes share one one-step map: semigroup decay of the current state,
an exponential-integrator drift increment with the nonlinearity frozen at the
left node, the exact Wiener convolution increment, and a jump term multiplied
by the full-step semigroup (the jump term is frozen at the left node on
purpose; the Wiener term alone uses the in-step convolution weights).

Scheme A steps on the jump-adapted partition (uniform nodes merged with the
realized jump times).  Between jumps the jump term is the compensator alone,
and each realized jump is applied at its node to the pre-jump state.  Scheme B
steps on the plain uniform grid and aggregates the jumps of each step into the
frozen jump term.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .noise import (
    CoupledNoisePath,
    MarkModel,
    compensator_coeffs,
    restrict_path,
    uniform_nodes,
)
from .spectral import (
    NemytskiiKernel,
    NonlinearitySpec,
    SpectralState,
    eigenvalues,
    project,
)

__all__ = [
    "SCHEME_A",
    "SCHEME_B",
    "DivergenceError",
    "TimePartition",
    "SchemeConfig",
    "Trajectory",
    "run_scheme_A",
    "run_scheme_B",
    "StepBlock",
    "stretch_nodes",
    "run_block",
]

SCHEME_A = "jump_adapted_A"
SCHEME_B = "uniform_B"


class DivergenceError(RuntimeError):
    """A scheme state left the finite range; the sample must be aborted."""

    def __init__(self, step: int, time: float):
        super().__init__(f"non-finite state after step {step} at t = {time}")
        self.step = step
        self.time = time


# ---------------------------------------------------------------------------
# partitions


@dataclass(frozen=True)
class TimePartition:
    """Sorted nodes 0 = t_0 < ... < t_n = T.

    Every step is at most dt_nominal long and every multiple of dt_nominal
    is a node.
    """

    nodes: np.ndarray
    dt_nominal: float

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=np.float64).copy()
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("a partition needs at least one step")
        if nodes[0] != 0.0 or np.any(np.diff(nodes) <= 0.0):
            raise ValueError("nodes must increase strictly from zero")
        if self.dt_nominal <= 0 or not np.isfinite(self.dt_nominal):
            raise ValueError("dt_nominal must be positive and finite")
        if np.max(np.diff(nodes)) > self.dt_nominal * (1.0 + 1e-12):
            raise ValueError("maximal step exceeds dt_nominal")
        n_nominal = nodes[-1] / self.dt_nominal
        if abs(n_nominal - round(n_nominal)) > 1e-9:
            raise ValueError("horizon must be an integer multiple of dt_nominal")
        base = np.arange(round(n_nominal), dtype=np.float64) * self.dt_nominal
        pos = np.searchsorted(nodes, base)  # nodes are sorted
        if np.any(pos == nodes.size) or np.any(nodes[pos] != base):
            raise ValueError("every multiple of dt_nominal must be a node")
        nodes.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)

    @property
    def horizon(self) -> float:
        return float(self.nodes[-1])

    @property
    def n_steps(self) -> int:
        return self.nodes.size - 1

    @property
    def deltas(self) -> np.ndarray:
        return np.diff(self.nodes)


# ---------------------------------------------------------------------------
# configuration and results


@dataclass(frozen=True)
class SchemeConfig:
    """Everything that defines a scheme run except the noise realization."""

    scheme: str
    n_modes: int
    dt_nominal: float
    horizon: float
    nonlinearity: NonlinearitySpec
    model: MarkModel
    x0: SpectralState

    def __post_init__(self):
        if self.scheme not in (SCHEME_A, SCHEME_B):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.n_modes < 1:
            raise ValueError("mode count must be positive")
        if not isinstance(self.nonlinearity, NonlinearitySpec):
            raise TypeError("nonlinearity must be a NonlinearitySpec")
        if not isinstance(self.model, MarkModel):
            raise TypeError("model must be a MarkModel")
        if not isinstance(self.x0, SpectralState):
            raise TypeError("x0 must be a SpectralState")
        if self.horizon <= 0 or self.dt_nominal <= 0:
            raise ValueError("horizon and dt_nominal must be positive")
        n = self.horizon / self.dt_nominal
        if abs(n - round(n)) > 1e-9 or round(n) < 1:
            raise ValueError("horizon must be an integer multiple of dt_nominal")
        if self.scheme == SCHEME_B and self.model.g1.bound > 0:
            warnings.warn(
                "uniform-grid scheme with a multiplicative jump coefficient: "
                "the strong-order guarantee covers additive jumps only",
                UserWarning,
                stacklevel=2,
            )


@dataclass(frozen=True)
class Trajectory:
    """Per-node states of one scheme run.

    `states[i]` is the value at node i after any jump applied there;
    `pre_jump[j]` keeps the pre-jump value at node `jump_nodes[j]` for the
    adapted scheme.  All states are finite by construction.
    """

    partition: TimePartition
    states: np.ndarray
    jump_nodes: np.ndarray
    pre_jump: np.ndarray

    def __post_init__(self):
        states = np.asarray(self.states, dtype=np.float64)
        if states.ndim != 2 or states.shape[0] != self.partition.nodes.size:
            raise ValueError("one state per partition node required")
        if not np.all(np.isfinite(states)):
            raise ValueError("trajectory contains non-finite states")
        jn = np.asarray(self.jump_nodes, dtype=np.int64)
        pre = np.asarray(self.pre_jump, dtype=np.float64)
        if pre.shape != (jn.size, states.shape[1]):
            raise ValueError("pre-jump rows must match the jump nodes")
        states.setflags(write=False)
        jn.setflags(write=False)
        pre.setflags(write=False)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "jump_nodes", jn)
        object.__setattr__(self, "pre_jump", pre)

    @property
    def n_modes(self) -> int:
        return self.states.shape[1]

    @property
    def final(self) -> SpectralState:
        return SpectralState(self.states[-1])


# ---------------------------------------------------------------------------
# the one-step map


def _apply_step(x, fv, wiener, e_vec, p_vec, jump_coeff, jump_shift):
    # y = E(dt) x + phi1(dt) F_N(x) + WienerConvIncrement + E(dt) JumpTerm
    # with JumpTerm = jump_coeff * x + jump_shift, for every row of a
    # `run_block` step at once
    y = e_vec * x
    if fv is not None:
        y += p_vec * fv
    y += wiener
    if jump_shift is not None:
        jv = jump_coeff * x
        jv += jump_shift
        jv *= e_vec
        y += jv
    return y


# ---------------------------------------------------------------------------
# scheme drivers


@dataclass(frozen=True)
class StepBlock:
    """The noise of several runs of one scheme over a stretch of time,
    one row per run.

    Row r steps between the times nodes[r]; its Wiener increments are the
    rows starts[r], starts[r] + 1, ... of `wiener`, its first step here is
    step first[r] of its whole run, and its jumps in the stretch are at
    times[r] with magnitudes xis[r].  A jump at sigma is in the step
    t_i < sigma <= t_(i+1): on the adapted partition it is applied at that
    step's end node, on the uniform grid its step aggregates it.
    """

    nodes: list
    wiener: np.ndarray
    starts: np.ndarray
    first: np.ndarray
    times: list
    xis: list


def stretch_nodes(cfg: SchemeConfig, level: np.ndarray,
                  times: np.ndarray) -> np.ndarray:
    """The scheme's partition over a stretch: its uniform nodes `level`,
    merged with the jump times inside it on the adapted partition."""
    if cfg.scheme == SCHEME_A and times.size:
        return np.union1d(level, times)
    return level


def run_block(cfg: SchemeConfig, block: StepBlock, state=None,
              record: bool = False) -> tuple:
    """Run the configured scheme over a stretch for each row of `block`,
    all rows through one loop of the one-step map.

    The state has shape (rows, n) and starts from `state`, or from x0 at
    the first stretch; every row has its own step sizes, increments and
    jumps, so a row gets exactly the doubles it would get alone, and a run
    cut into stretches the doubles of one run.  A row that turns non-finite
    leaves the block at once; a row whose stretch ends leaves it after its
    last step.

    Returns (finals, diverged, history): the state of each row at the end
    of the stretch (NaN where the row diverged), a dict mapping each
    diverged row to the step of its whole run and the time at which it
    diverged, and with `record` (one row) the per-node states, the jump
    nodes and their pre-jump states, else None.
    """
    n = cfg.n_modes
    lam = eigenvalues(n)
    model = cfg.model
    adapted = cfg.scheme == SCHEME_A
    kernel = None
    if cfg.nonlinearity.kind != "zero":
        kernel = NemytskiiKernel(cfg.nonlinearity, n, n)
    phi_vec = project(model.profile, n).coeffs
    rows = len(block.nodes)
    # the frozen jump term runs whenever the compensator is non-trivial or
    # (uniform scheme) realized jumps need aggregating
    live = model.intensity > 0 or (
        not adapted and any(x.size for x in block.xis))
    mean_g1, mean_g_vec = 0.0, np.zeros(n)
    if model.intensity > 0:
        mean_g1, mg = compensator_coeffs(model, n)
        mean_g_vec = mg.coeffs

    # per row and step: an index into a table of the distinct step sizes,
    # and (uniform scheme) the g1 and magnitude sums of the step's jumps;
    # the padding after a row's last step is never read
    steps = np.array([p.size - 1 for p in block.nodes])
    width = int(steps.max())
    dts = np.empty((rows, width))
    for r, p in enumerate(block.nodes):
        dts[r, :steps[r]] = np.diff(p)
        dts[r, steps[r]:] = dts[r, steps[r] - 1]
    sum_g1 = np.zeros((rows, width))
    sum_xi = np.zeros((rows, width))
    events = {}  # adapted scheme: step -> [(row, 1 + g1, xi)] at its end node
    for r, (p, times, xis) in enumerate(zip(block.nodes, block.times,
                                            block.xis)):
        if not times.size:
            continue
        in_step = np.searchsorted(p, times) - 1
        g1s = model.g1_values(xis)
        if adapted:
            for i, g1, xi in zip(in_step.tolist(), g1s, xis):
                events.setdefault(i, []).append((r, 1.0 + g1, xi))
        else:
            sum_g1[r, :steps[r]] = np.bincount(in_step, weights=g1s,
                                               minlength=steps[r])
            sum_xi[r, :steps[r]] = np.bincount(in_step, weights=xis,
                                               minlength=steps[r])
    sizes, which = np.unique(dts.ravel(), return_inverse=True)
    which = which.reshape(rows, width)
    e_tab = np.array([np.exp(-lam * dt) for dt in sizes])
    p_tab = np.array([-np.expm1(-lam * dt) / lam for dt in sizes])
    s_tab = np.array([-dt * mean_g_vec for dt in sizes])
    c_tab = -sizes * mean_g1
    tables = list(zip(e_tab, p_tab, s_tab, c_tab))  # per size, for shared steps

    if state is None:
        x = np.tile(project(cfg.x0, n).coeffs, (rows, 1))
    else:
        x = np.asarray(state, dtype=np.float64)
    finals = np.full((rows, n), np.nan)
    diverged = {}
    history = None
    if record:
        history = (np.empty((width + 1, n)), [], [])
        history[0][0] = x[0]
    active = np.arange(rows)  # the block row of each row of x
    src = block.starts.copy()  # the increment row of each row of x
    leaving = set((steps - 1).tolist())
    at = {r: r for r in range(rows)}
    shared = (which == which[:1]).all(axis=0).tolist()
    first = which[0].tolist()
    for i in range(width):
        if shared[i]:
            e_vec, p_vec, shift, coeff = tables[first[i]]
        else:
            col = which[:, i]
            e_vec, p_vec, shift = e_tab[col], p_tab[col], s_tab[col]
            coeff = c_tab[col, None]
        w = block.wiener[src]
        src += 1
        fv = kernel(x) if kernel is not None else None
        if not live:
            coeff = shift = None
        elif not adapted:
            coeff = coeff + sum_g1[:, i, None]
            hit = sum_xi[:, i] != 0.0
            if hit.any():
                shift = np.broadcast_to(shift, x.shape).copy()
                shift[hit] = sum_xi[hit, i, None] * phi_vec + shift[hit]
        y = _apply_step(x, fv, w, e_vec, p_vec, coeff, shift)
        for r, factor, xi in events.get(i, ()):
            j = at.get(r)
            if j is None:
                continue
            if record:
                history[1].append(i + 1)
                history[2].append(y[j].copy())
            y[j] *= factor
            y[j] += xi * phi_vec
        if record:
            history[0][i + 1] = y[0]
        if i not in leaving and np.isfinite(y).all():
            x = y
            continue
        # rows leave the block: the finished keep their state, the diverged
        # their step and time
        finite = np.isfinite(y).all(axis=1)
        for j in np.nonzero(~finite)[0]:
            r = active[j]
            diverged[r] = (int(block.first[r]) + i,
                           float(block.nodes[r][i + 1]))
        done = finite & (steps[active] == i + 1)
        finals[active[done]] = y[done]
        keep = finite & (steps[active] > i + 1)
        if not keep.any():
            break
        x = y[keep]
        active = active[keep]
        src = src[keep]
        which = which[keep]
        sum_g1, sum_xi = sum_g1[keep], sum_xi[keep]
        at = {r: j for j, r in enumerate(active.tolist())}
        shared = (which == which[:1]).all(axis=0).tolist()
        first = which[0].tolist()
    return finals, diverged, history


def _run_one(cfg: SchemeConfig, path: CoupledNoisePath) -> Trajectory:
    """Run the scheme on one path: `run_block` on one row and a single
    stretch, over the scheme's partition of [0, T] (see `stretch_nodes`)."""
    if path.nodes[-1] != cfg.horizon:
        raise ValueError("path horizon does not match the configuration")
    ratio = cfg.dt_nominal / path.dt_ref
    r = int(round(ratio))
    if r < 1 or abs(ratio - r) > 1e-9 * ratio or (r & (r - 1)):
        raise ValueError(
            "dt_nominal must be the reference step times a power of two"
        )
    sk = path.skeleton
    part = TimePartition(stretch_nodes(
        cfg, uniform_nodes(cfg.horizon, cfg.dt_nominal), sk.times),
        cfg.dt_nominal)
    wiener = restrict_path(path, part, cfg.n_modes).wiener
    block = StepBlock([part.nodes], wiener, np.zeros(1, np.int64),
                      np.zeros(1, np.int64), [sk.times], [sk.xis])
    _, diverged, (states, jump_nodes, pre_rows) = run_block(cfg, block,
                                                            record=True)
    if diverged:
        raise DivergenceError(*diverged[0])
    pre = np.array(pre_rows) if pre_rows else np.empty((0, cfg.n_modes))
    return Trajectory(part, states, np.array(jump_nodes, dtype=np.int64), pre)


def run_scheme_A(cfg: SchemeConfig, path: CoupledNoisePath) -> Trajectory:
    """Run the jump-adapted scheme on one noise path."""
    if cfg.scheme != SCHEME_A:
        raise ValueError("configuration does not select the adapted scheme")
    return _run_one(cfg, path)


def run_scheme_B(cfg: SchemeConfig, path: CoupledNoisePath) -> Trajectory:
    """Run the uniform-grid scheme on one noise path."""
    if cfg.scheme != SCHEME_B:
        raise ValueError("configuration does not select the uniform scheme")
    return _run_one(cfg, path)
