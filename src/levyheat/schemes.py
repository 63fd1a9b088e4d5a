"""Fully discrete time-stepping schemes for the jump-driven heat equation.

One update, written once in `run_block`, makes both schemes: semigroup decay
of the current state, an exponential-integrator drift increment with the
nonlinearity frozen at the left node, the exact Wiener convolution increment,
and a jump term multiplied by the full-step semigroup (frozen at the left node
on purpose; the Wiener term alone uses the in-step convolution weights).  The
frozen jump term runs on every step.  Scheme A steps on the jump-adapted
partition (the uniform nodes and the jump times, `noise.merge_jumps`): its
frozen jump term is the compensator alone, and each realized jump is applied
at its node to the pre-jump state.  Scheme B steps on the uniform grid and
freezes the jumps of each step into its jump term.

`run_block` steps a block of rows through a stretch and returns the state
each row ends on; `run_scheme_A` and `run_scheme_B` run it on one whole path
and return the terminal state, which is all a study measures.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .noise import (
    MarkModel,
    PathChunk,
    compensator_coeffs,
    dyadic_ratio,
    merge_jumps,
    restrict_path,
    step_count,
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
    "SchemeConfig",
    "run_scheme_A",
    "run_scheme_B",
    "stretch_nodes",
    "run_block",
    "warn_multiplicative_B",
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
# configuration


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
        step_count(self.horizon, self.dt_nominal, "dt_nominal")


def warn_multiplicative_B(scheme: str, model: MarkModel,
                          stacklevel: int) -> None:
    """Warn a plan or run of the uniform scheme with g1 > 0 that its strong
    order covers additive jumps only; `stacklevel` counts from the caller."""
    if scheme == SCHEME_B and model.g1.bound > 0:
        warnings.warn(
            "uniform-grid scheme with a multiplicative jump coefficient: "
            "the strong-order guarantee covers additive jumps only",
            UserWarning,
            stacklevel=stacklevel + 1,
        )


# ---------------------------------------------------------------------------
# scheme drivers


def stretch_nodes(cfg: SchemeConfig, level: np.ndarray,
                  times: np.ndarray) -> np.ndarray:
    """The scheme's partition over a stretch: its uniform nodes `level`,
    merged with the jump times inside it on the adapted partition."""
    if cfg.scheme == SCHEME_A:
        return merge_jumps(level, times)
    return level


def run_block(cfg: SchemeConfig, chunk: PathChunk, state) -> tuple:
    """Run the configured scheme over a stretch for each row of `chunk`,
    all rows through one loop of the scheme update, written once here.

    Row r steps between the times chunk.nodes[r] on the leading n_modes
    columns of its increment rows.  A jump at sigma is in the step
    t_i < sigma <= t_(i+1).  The frozen jump term runs on every step: the
    compensator, plus on the uniform grid the step's jumps.  On the adapted
    partition each jump is then applied at its step's end node, which
    scales a row without one by 1 and shifts it by 0.  The state
    has shape (rows, n) and starts from `state`, the rows' states at the
    stretch's first nodes (x0 at the first stretch), which is not written
    to; every row has its own step sizes, increments and jumps, so a
    row gets exactly the doubles it would get alone, and a run cut into
    stretches the doubles of one run.  The rows stay in the block to the
    end of the stretch: a row past its last step repeats that step's size
    and increment.  A row that turns non-finite is gone: it is set to NaN,
    which the later steps carry without a warning, and a row that enters
    non-finite is gone already.  The loop stops early once every row is
    gone or past its last step.

    Returns (finals, diverged): the state of each row at its own last step
    (NaN where the row is gone), and a dict mapping each row that turned
    non-finite within its steps here to the step at which it did, counted
    within the stretch from 0, and that step's end time.
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
    mean_g1, mean_g = compensator_coeffs(model, n)
    mean_g_vec = mean_g.coeffs

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

    x = np.asarray(state, dtype=np.float64)
    gone = ~np.isfinite(x).all(axis=1)
    x = np.where(gone[:, None], np.nan, x)
    finals = np.full((rows, n), np.nan)
    diverged = {}
    for i in range(width):
        if shared[i]:
            e_vec, p_vec, shift, coeff = tables[first[i]]
        else:
            col = which[:, i]
            e_vec, p_vec, shift = e_tab[col], p_tab[col], s_tab[col]
            coeff = c_tab[col, None]
        if not adapted:
            coeff = coeff + sum_g1[:, i, None]
            if jumped[i]:
                shift = sum_xi[:, i, None] * phi_vec + shift
        # y = E(dt) x + phi1(dt) F_N(x) + WienerConvIncrement + E(dt) JumpTerm
        # with JumpTerm = coeff * x + shift
        y = e_vec * x
        if kernel is not None:
            y += p_vec * kernel(x)
        y += wiener[src[i]]
        jv = coeff * x
        jv += shift
        jv *= e_vec
        y += jv
        if adapted and jumped[i]:
            y *= 1.0 + sum_g1[:, i, None]
            y += sum_xi[:, i, None] * phi_vec
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
    return finals, diverged


def _run_one(cfg: SchemeConfig, path: PathChunk) -> SpectralState:
    """The terminal state of the scheme on one whole path (`sample_path`'s
    one-row chunk): `run_block` from x0 on the chunk that `restrict_path`
    makes on the scheme's partition of [0, T] (see `stretch_nodes`).
    Raises DivergenceError if the state turns non-finite."""
    if path.nodes[0][-1] != cfg.horizon:
        raise ValueError("path horizon does not match the configuration")
    # exactly: the partition's nodes are micro nodes of the path
    if not dyadic_ratio(cfg.dt_nominal, path.dt_ref):
        raise ValueError(
            "dt_nominal must be the reference step times a power of two"
        )
    nodes = stretch_nodes(cfg, uniform_nodes(cfg.horizon, cfg.dt_nominal),
                          path.times[0])
    chunk = restrict_path(path, nodes, cfg.n_modes)
    x0 = project(cfg.x0, cfg.n_modes).coeffs[None]
    finals, diverged = run_block(cfg, chunk, x0)
    if diverged:
        raise DivergenceError(*diverged[0])
    return SpectralState(finals[0])


def run_scheme_A(cfg: SchemeConfig, path: PathChunk) -> SpectralState:
    """The jump-adapted scheme's terminal state on one noise path."""
    if cfg.scheme != SCHEME_A:
        raise ValueError("configuration does not select the adapted scheme")
    return _run_one(cfg, path)


def run_scheme_B(cfg: SchemeConfig, path: PathChunk) -> SpectralState:
    """The uniform-grid scheme's terminal state on one noise path."""
    if cfg.scheme != SCHEME_B:
        raise ValueError("configuration does not select the uniform scheme")
    warn_multiplicative_B(cfg.scheme, cfg.model, 2)
    return _run_one(cfg, path)
