"""Correctness checks on a study's CSV and manifest entry.

Every reference here is computed apart from levyheat: closed forms from
scipy.special and numpy, or properties the method must have.  Nothing is
compared against a stored copy of earlier output.  Each check returns a list
of failure messages; an empty list means the study passed.
"""

import math
import os

import numpy as np
from scipy import special

ORDER_FLOOR = 0.40  # the paper's rate "almost 1/2", as a minimum
P_GAP = 0.15  # |order(8) - order(2)|: the rate does not depend on p
SPATIAL_ORDER_BAND = (0.40, 0.65)
HOLDER_BANDS = {2.0: (0.40, 0.60), 8.0: (0.07, 0.20)}
# The p = 2 error estimates a closed form only up to sampling error, and a
# few rare jumps carry the error at the smallest increments and the coarsest
# modes, so a fixed relative band fails on some seeds.  Each comparison
# therefore allows the fixed band or Z_SE standard errors of the estimate,
# whichever is wider; the standard error is read from the CSV's 95%
# bootstrap interval.
TAIL_RTOL = 0.05  # drift and jumps, which the Wiener tail omits
ISOMETRY_RTOL = 0.12
Z_SE = 4.0
QUADRATURE_RTOL = 1e-9


def read_csvs(out_dir: str) -> dict:
    """The bytes of every CSV in an output directory, by file name."""
    found = {}
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".csv"):
            with open(os.path.join(out_dir, name), "rb") as fh:
                found[name] = fh.read()
    return found


def read_study_csv(text: str):
    """Parse the two-section study CSV.

    Returns (errors, orders): errors[p] is a list of (level, error, ci_lo,
    ci_hi) rows in file order and orders[p] the fitted order.
    """
    errors, orders = {}, {}
    section = None
    for line in text.splitlines():
        if line == "p,level,error,ci_lo,ci_hi":
            section = errors
            continue
        if line == "p,order,stderr":
            section = orders
            continue
        cells = [float(c) for c in line.split(",")]
        if section is errors:
            errors.setdefault(cells[0], []).append(tuple(cells[1:]))
        elif section is orders:
            orders[cells[0]] = cells[1]
        else:
            raise ValueError(f"row before any header: {line!r}")
    return errors, orders


def log_slope(x, y) -> float:
    """Least-squares slope of log(y) on log(x)."""
    return float(np.polyfit(np.log(np.asarray(x, dtype=float)),
                            np.log(np.asarray(y, dtype=float)), 1)[0])


def first_order_ceiling(levels, dt_ref: float) -> float:
    """Largest order an exactly first-order error coupled to a dt_ref
    reference can show: the slope of log(dt - dt_ref) on log(dt)."""
    levels = np.asarray(levels, dtype=float)
    return log_slope(levels, levels - dt_ref)


def stable_intensity(eps: float) -> float:
    """Mass of |x|^(-3/2) e^(-|x|) on |x| > eps: 2 Gamma(-1/2, eps)."""
    return 4.0 * (math.exp(-eps) / math.sqrt(eps)
                  - math.sqrt(math.pi) * special.erfc(math.sqrt(eps)))


def stable_residual(eps: float) -> float:
    """Small-jump variance 2 int_0^eps x^2 x^(-3/2) e^(-x) dx."""
    return 2.0 * special.gamma(1.5) * special.gammainc(1.5, eps)


def conv_variance(lam, t):
    return -np.expm1(-2.0 * lam * t) / (2.0 * lam)


def eigenvalues(n: int):
    return (math.pi * np.arange(1, n + 1, dtype=float)) ** 2


def wiener_tail(n: int, n_ref: int, horizon: float) -> float:
    """L^2 norm of the Wiener convolution in modes n+1..n_ref at the horizon."""
    lam = eigenvalues(n_ref)[n:]
    return math.sqrt(float(np.sum(conv_variance(lam, horizon))))


def holder_isometry(h: float, study: dict) -> float:
    """Exact L^2 norm of the compensated jump-convolution increment over
    (T/2, T/2 + h] for a two-point law and a power profile."""
    model = study["model"]
    law, prof = model["law"], model["profile"]
    second = model["intensity"] * (law["p_plus"] * law["v_plus"] ** 2
                                   + (1.0 - law["p_plus"]) * law["v_minus"] ** 2)
    k = np.arange(1, study["n_ref"] + 1, dtype=float)
    phi = prof["c"] * k ** -prof["r"]
    lam = eigenvalues(study["n_ref"])
    t = study["horizon"] / 2.0
    v = second * float(np.sum(phi**2 * (
        (-np.expm1(-lam * h)) ** 2 * conv_variance(lam, t)
        + conv_variance(lam, h))))
    return math.sqrt(v)


def _within(value, lo, hi) -> bool:
    return lo <= value <= hi


def _agrees(row, ref: float, rtol: float) -> bool:
    """Whether an (level, error, ci_lo, ci_hi) row matches `ref` within
    rtol or Z_SE standard errors."""
    _, err, lo, hi = row
    se = (hi - lo) / (2.0 * 1.96)
    return abs(err - ref) <= max(rtol * ref, Z_SE * se)


def check_temporal(study: dict, errors: dict, orders: dict, entry: dict):
    fails = []
    ceiling = first_order_ceiling(study["levels"], study["dt_ref"])
    for p, order in orders.items():
        if not _within(order, ORDER_FLOOR, ceiling):
            fails.append(f"p={p:g}: order {order:.4f} outside "
                         f"[{ORDER_FLOOR}, {ceiling:.4f}]")
    gap = abs(orders[8.0] - orders[2.0])
    if gap > P_GAP:
        fails.append(f"|order(8) - order(2)| = {gap:.4f} > {P_GAP}")
    for p, rows in errors.items():
        by_dt = sorted(rows, reverse=True)
        errs = [r[1] for r in by_dt]
        if not all(a > b for a, b in zip(errs, errs[1:])):
            fails.append(f"p={p:g}: errors do not decrease strictly with dt")
    return fails


def check_spatial(study: dict, errors: dict, orders: dict, entry: dict):
    fails = []
    eps = study["model"]["law"]["eps"]
    info = entry["model_info"]
    for key, ref in (("intensity", stable_intensity(eps)),
                     ("residual", stable_residual(eps))):
        if abs(info[key] - ref) > QUADRATURE_RTOL * abs(ref):
            fails.append(f"model_info.{key} {info[key]!r} != closed form "
                         f"{ref!r}")
    for row in errors[2.0]:
        n = int(row[0])
        tail = wiener_tail(n, study["n_ref"], study["horizon"])
        if not _agrees(row, tail, TAIL_RTOL):
            fails.append(f"N={n}: p=2 error {row[1]:.5g} disagrees with the "
                         f"Wiener tail {tail:.5g} (ratio {row[1] / tail:.4f})")
    if not _within(orders[2.0], *SPATIAL_ORDER_BAND):
        fails.append(f"p=2 spatial order {orders[2.0]:.4f} outside "
                     f"{list(SPATIAL_ORDER_BAND)}")
    return fails


def check_holder(study: dict, errors: dict, orders: dict, entry: dict):
    fails = []
    for row in errors[2.0]:
        ref = holder_isometry(row[0], study)
        if not _agrees(row, ref, ISOMETRY_RTOL):
            fails.append(f"h={row[0]:g}: p=2 error {row[1]:.5g} disagrees "
                         f"with the isometry {ref:.5g}")
    for p, (lo, hi) in HOLDER_BANDS.items():
        if not _within(orders[p], lo, hi):
            fails.append(f"p={p:g}: exponent {orders[p]:.4f} outside "
                         f"[{lo}, {hi}]")
    return fails


CHECKS = {
    "temporal": check_temporal,
    "spatial": check_spatial,
    "holder": check_holder,
}


def check_study(study: dict, csv_text: str, entry: dict):
    """Failures of one finished study, dispatched on its axis."""
    errors, orders = read_study_csv(csv_text)
    expected = {float(p) for p in study["p_list"]}
    if set(errors) != expected or set(orders) != expected:
        return [f"CSV holds p values {sorted(errors)}, expected "
                f"{sorted(expected)}"]
    return CHECKS[study["axis"]](study, errors, orders, entry)
