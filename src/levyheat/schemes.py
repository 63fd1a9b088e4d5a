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
    PathChunk,
    compensator_coeffs,
    dyadic_ratio,
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
                stacklevel=3,
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


def stretch_nodes(cfg: SchemeConfig, level: np.ndarray,
                  times: np.ndarray) -> np.ndarray:
    """The scheme's partition over a stretch: its uniform nodes `level`,
    merged with the jump times inside it on the adapted partition."""
    if cfg.scheme == SCHEME_A and times.size:
        return np.union1d(level, times)
    return level


def run_block(cfg: SchemeConfig, chunk: PathChunk, state=None,
              record: bool = False) -> tuple:
    """Run the configured scheme over a stretch for each row of `chunk`,
    all rows through one loop of the one-step map.

    Row r steps between the times chunk.nodes[r] on the leading n_modes
    columns of its increment rows.  A jump at sigma is in the step
    t_i < sigma <= t_(i+1): on the adapted partition it is applied at that
    step's end node, on the uniform grid its step aggregates it.  The state
    has shape (rows, n) and starts from `state`, or from x0 at the first
    stretch; every row has its own step sizes, increments and jumps, so a
    row gets exactly the doubles it would get alone, and a run cut into
    stretches the doubles of one run.  The rows stay in the block to the
    end of the stretch: a row past its last step repeats that step's size
    and increment.  A row that turns non-finite is gone: it is set to NaN,
    which the later steps carry without a warning, and a row that enters
    non-finite is gone already.  The loop stops early once every row is
    gone or past its last step.

    Returns (finals, diverged, history): the state of each row at its own
    last step (NaN where the row is gone), a dict mapping each row that
    turned non-finite within its steps here to the step at which it did,
    counted within the stretch from 0, and that step's end time, and with
    `record` (one row) the per-node states, the jump nodes and their
    pre-jump states, else None.
    """
    n = cfg.n_modes
    lam = eigenvalues(n)
    model = cfg.model
    adapted = cfg.scheme == SCHEME_A
    kernel = None
    if cfg.nonlinearity.kind != "zero":
        kernel = NemytskiiKernel(cfg.nonlinearity, n, n)
    phi_vec = project(model.profile, n).coeffs
    rows = len(chunk.nodes)
    wiener = chunk.wiener[:, :n]
    # the frozen jump term runs whenever the compensator is non-trivial or
    # (uniform scheme) realized jumps need aggregating
    live = model.intensity > 0 or (
        not adapted and any(x.size for x in chunk.xis))
    mean_g1, mean_g_vec = 0.0, np.zeros(n)
    if model.intensity > 0:
        mean_g1, mg = compensator_coeffs(model, n)
        mean_g_vec = mg.coeffs

    # per row and step: an index into a table of the distinct step sizes,
    # the increment row, and the g1 and magnitude sums of the step's jumps
    # (on the adapted partition at most one, at its end node); a row past
    # its last step repeats its last size and increment, with no jumps
    steps = np.array([p.size - 1 for p in chunk.nodes])
    width = int(steps.max())
    dts = np.empty((rows, width))
    for r, p in enumerate(chunk.nodes):
        dts[r, :steps[r]] = np.diff(p)
        dts[r, steps[r]:] = dts[r, steps[r] - 1]
    starts = chunk.starts[:-1]
    src = np.minimum(starts + np.arange(width)[:, None], starts + steps - 1)
    sum_g1 = np.zeros((rows, width))
    sum_xi = np.zeros((rows, width))
    for r, (p, times, xis) in enumerate(zip(chunk.nodes, chunk.times,
                                            chunk.xis)):
        if times.size:
            in_step = np.searchsorted(p, times) - 1
            sum_g1[r, :steps[r]] = np.bincount(
                in_step, weights=model.g1_values(xis), minlength=steps[r])
            sum_xi[r, :steps[r]] = np.bincount(in_step, weights=xis,
                                               minlength=steps[r])
    jumped = (sum_xi != 0.0).any(axis=0).tolist()  # marks are never zero
    ends = {}  # step -> the rows whose last step it is
    for r, s in enumerate(steps.tolist()):
        ends.setdefault(s - 1, []).append(r)
    sizes, which = np.unique(dts.ravel(), return_inverse=True)
    which = which.reshape(rows, width)
    e_tab = np.array([np.exp(-lam * dt) for dt in sizes])
    p_tab = np.array([-np.expm1(-lam * dt) / lam for dt in sizes])
    s_tab = np.array([-dt * mean_g_vec for dt in sizes])
    c_tab = -sizes * mean_g1
    tables = list(zip(e_tab, p_tab, s_tab, c_tab))  # per size, for shared steps
    shared = (which == which[:1]).all(axis=0).tolist()
    first = which[0].tolist()

    if state is None:
        x = np.tile(project(cfg.x0, n).coeffs, (rows, 1))
    else:
        x = np.asarray(state, dtype=np.float64)
    gone = ~np.isfinite(x).all(axis=1)
    if gone.any():
        x = np.where(gone[:, None], np.nan, x)
    finals = np.full((rows, n), np.nan)
    diverged = {}
    history = None
    if record:
        history = (np.empty((width + 1, n)), [], [])
        history[0][0] = x[0]
    for i in range(0 if gone.all() else width):
        if shared[i]:
            e_vec, p_vec, shift, coeff = tables[first[i]]
        else:
            col = which[:, i]
            e_vec, p_vec, shift = e_tab[col], p_tab[col], s_tab[col]
            coeff = c_tab[col, None]
        fv = kernel(x) if kernel is not None else None
        if jumped[i]:
            hit = sum_xi[:, i] != 0.0
        if not live:
            coeff = shift = None
        elif not adapted:
            coeff = coeff + sum_g1[:, i, None]
            if jumped[i]:
                shift = np.broadcast_to(shift, x.shape).copy()
                shift[hit] = sum_xi[hit, i, None] * phi_vec + shift[hit]
        y = _apply_step(x, fv, wiener[src[i]], e_vec, p_vec, coeff, shift)
        if adapted and jumped[i]:
            if record:
                history[1].append(i + 1)
                history[2].append(y[0].copy())
            y[hit] *= 1.0 + sum_g1[hit, i, None]
            y[hit] += sum_xi[hit, i, None] * phi_vec
        if record:
            history[0][i + 1] = y[0]
        x = y
        done = ends.get(i)
        if np.isfinite(y).all() and done is None:
            continue
        fresh = ~np.isfinite(y).all(axis=1) & ~gone
        y[fresh] = np.nan
        gone |= fresh
        for r in np.nonzero(fresh & (steps > i))[0].tolist():
            diverged[r] = (i, float(chunk.nodes[r][i + 1]))
        if done is not None:
            finals[done] = y[done]
        if (gone | (steps <= i + 1)).all():
            break
    return finals, diverged, history


def _run_one(cfg: SchemeConfig, path: CoupledNoisePath) -> Trajectory:
    """Run the scheme on one path: `run_block` on the one-row chunk of a
    single stretch that `restrict_path` makes on the scheme's partition of
    [0, T] (see `stretch_nodes`)."""
    if path.nodes[-1] != cfg.horizon:
        raise ValueError("path horizon does not match the configuration")
    # exactly: the partition's nodes are micro nodes of the path
    if not dyadic_ratio(cfg.dt_nominal, path.dt_ref):
        raise ValueError(
            "dt_nominal must be the reference step times a power of two"
        )
    part = TimePartition(stretch_nodes(
        cfg, uniform_nodes(cfg.horizon, cfg.dt_nominal), path.skeleton.times),
        cfg.dt_nominal)
    chunk = restrict_path(path, part, cfg.n_modes)
    _, diverged, (states, jump_nodes, pre_rows) = run_block(cfg, chunk,
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
