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
                  chunk: PathChunk) -> np.ndarray:
    """The scheme's partition of every row of a stretch, keyed as the
    chunk's nodes are: its uniform nodes `level`, merged with the row's
    jumps inside the stretch on the adapted partition."""
    jumps = chunk.jumps if cfg.scheme == SCHEME_A else chunk.jumps[:0]
    return merge_jumps(level, jumps, chunk.rows)


def run_block(cfg: SchemeConfig, chunk: PathChunk, state) -> tuple:
    """Run the configured scheme over a stretch for each row of `chunk`,
    all rows through one loop of the scheme update, written once here.

    Row r steps between its node times (see `PathChunk`) on the leading
    n_modes columns of its increment rows.  A jump at sigma is in the step
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
    rows = chunk.rows
    wiener = chunk.wiener[:, :n]
    mean_g1, mean_g = compensator_coeffs(model, n)
    mean_g_vec = mean_g.coeffs

    # per step and row: the increment row, an index into a table of the
    # distinct step sizes, and the g1 and magnitude sums of the step's
    # jumps in time order (on the adapted partition at most one); a row
    # past its last step repeats its last size and increment, no jumps
    starts = chunk.starts
    steps = np.diff(starts)
    width = int(steps.max())
    src = np.minimum(starts[:-1] + np.arange(width)[:, None], starts[1:] - 1)
    dts = chunk.deltas[src]
    owner = chunk.jumps.real.astype(np.intp)
    step = chunk.nodes.searchsorted(chunk.jumps) - 1 - owner - starts[owner]
    cell = step * rows + owner
    sum_g1, sum_xi = (np.bincount(cell, w, width * rows).reshape(width, rows)
                      for w in (model.g1_values(chunk.xis), chunk.xis))
    jumped = (sum_xi != 0.0).any(axis=1).tolist()  # marks are never zero
    last = set((steps - 1).tolist())  # the steps that end some row
    sizes, which = np.unique(dts.ravel(), return_inverse=True)
    which = which.reshape(width, rows)
    e_tab = np.array([np.exp(-lam * dt) for dt in sizes])
    p_tab = np.array([-np.expm1(-lam * dt) / lam for dt in sizes])
    s_tab = np.array([-dt * mean_g_vec for dt in sizes])
    c_tab = -sizes * mean_g1
    tables = list(zip(e_tab, p_tab, s_tab, c_tab))  # per size, for shared steps
    shared = (which == which[:, :1]).all(axis=1).tolist()
    first = which[:, 0].tolist()

    x = np.asarray(state, dtype=np.float64)
    gone = ~np.isfinite(x).all(axis=1)
    x = np.where(gone[:, None], np.nan, x)
    finals = np.full((rows, n), np.nan)
    diverged = {}
    for i in range(width):
        if shared[i]:
            e_vec, p_vec, shift, coeff = tables[first[i]]
        else:
            col = which[i]
            e_vec, p_vec, shift = e_tab[col], p_tab[col], s_tab[col]
            coeff = c_tab[col, None]
        if not adapted:
            coeff = coeff + sum_g1[i, :, None]
            if jumped[i]:
                shift = sum_xi[i, :, None] * phi_vec + shift
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
            y *= 1.0 + sum_g1[i, :, None]
            y += sum_xi[i, :, None] * phi_vec
        x = y
        if np.isfinite(y).all() and i not in last:
            continue
        fresh = ~np.isfinite(y).all(axis=1) & ~gone
        y[fresh] = np.nan
        gone |= fresh
        for r in np.nonzero(fresh & (steps > i))[0].tolist():
            diverged[r] = (i, float(chunk.nodes[starts[r] + r + i + 1].imag))
        if i in last:
            done = steps == i + 1
            finals[done] = y[done]
        if (gone | (steps <= i + 1)).all():
            break
    return finals, diverged


def _run_one(cfg: SchemeConfig, path: PathChunk) -> SpectralState:
    """The terminal state of the scheme on one whole path (`sample_path`'s
    one-row chunk): `run_block` from x0 on the chunk that `restrict_path`
    makes on the scheme's partition of [0, T] (see `stretch_nodes`).
    Raises DivergenceError if the state turns non-finite."""
    if path.nodes[-1].imag != cfg.horizon:
        raise ValueError("path horizon does not match the configuration")
    # exactly: the partition's nodes are micro nodes of the path
    if not dyadic_ratio(cfg.dt_nominal, path.dt_ref):
        raise ValueError(
            "dt_nominal must be the reference step times a power of two"
        )
    nodes = stretch_nodes(cfg, uniform_nodes(cfg.horizon, cfg.dt_nominal),
                          path)
    chunk = restrict_path(path, nodes.imag, cfg.n_modes)
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
