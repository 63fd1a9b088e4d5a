"""Batch front door for convergence studies.

Reads a JSON configuration describing one or more study plans, executes
them with recorded seeds, and persists machine-readable results: one CSV
table per study, optional plot-data files, and a JSON run manifest whose
digest pins down the exact configuration that produced the outputs.

Config format: a single JSON object with a top-level ``studies`` array.
Each study entry mirrors the StudyPlan fields verbatim; nested objects
describe the nonlinearity, jump model and initial state:

    {"studies": [{
        "name": "temporal_a", "axis": "temporal",
        "levels": [0.0625, 0.03125], "n_ref": 64, "dt_ref": 0.000244140625,
        "p_list": [2.0], "samples": 1000, "scheme": "jump_adapted_A",
        "horizon": 1.0,
        "nonlinearity": {"kind": "sine", "coef": 1.0},
        "model": {"intensity": 2.0,
                  "law": {"kind": "two_point", "p_plus": 0.5,
                          "v_plus": 2.0, "v_minus": -1.0},
                  "profile": {"c": 1.0, "r": 2.0},
                  "g1": {"kind": "constant", "value": 0.3}},
        "x0": [1.0], "seed": 20260815}]}

Laws: ``two_point`` (p_plus, v_plus, v_minus), ``exp_shifted`` (rate,
offset) and ``truncated_stable`` (alpha, eps).  For the truncated stable
measure the intensity 2 Gamma(-alpha, eps) is derived from (alpha, eps) and
must be omitted; the discarded small-jump variance 2 gamma(2 - alpha, eps)
lands in the manifest as ``model_info.residual``.  Unknown keys anywhere are rejected.

Exit codes: 0 success, 1 configuration error, 2 runtime failure (including
studies that finished with aborted samples).
"""

import argparse
import hashlib
import importlib.util
import json
import logging
import math
import os
import platform
import sys
import time
from dataclasses import dataclass, field, replace

from . import __version__
from .experiments import (
    OrderReport,
    StudyPlan,
    StudyResult,
    block_size,
    run_study,
)
from .noise import (
    ExpShiftedLaw,
    G1Spec,
    MarkModel,
    TruncatedStableLaw,
    TwoPointLaw,
    power_profile,
    truncate_levy,
)
from .spectral import NonlinearitySpec, SpectralState

__all__ = [
    "ConfigError",
    "RunManifest",
    "parse_config",
    "serialize_plan",
    "serialize_config",
    "config_digest",
    "execute",
    "emit_plot_data",
    "main",
]

THREADS_ENV = "LEVYHEAT_THREADS"


class ConfigError(ValueError):
    """A configuration problem, with the offending field in the message."""


# ---------------------------------------------------------------------------
# parsing


def _check_keys(obj: dict, required: tuple, optional: tuple, where: str):
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = sorted(set(obj) - set(required) - set(optional))
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {', '.join(unknown)}")
    missing = sorted(set(required) - set(obj))
    if missing:
        raise ConfigError(f"{where}: missing key(s) {', '.join(missing)}")


def _number(obj: dict, key: str, where: str) -> float:
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{where}.{key}: expected a number")
    return float(v)


def _integer(obj: dict, key: str, where: str) -> int:
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{where}.{key}: expected an integer")
    return v


def _string(obj: dict, key: str, where: str) -> str:
    v = obj[key]
    if not isinstance(v, str):
        raise ConfigError(f"{where}.{key}: expected a string")
    return v


def _number_list(obj: dict, key: str, where: str) -> list:
    v = obj[key]
    if not isinstance(v, list) or not v:
        raise ConfigError(f"{where}.{key}: expected a non-empty array")
    out = []
    for i, item in enumerate(v):
        if isinstance(item, bool) or not isinstance(item, (int, float)):
            raise ConfigError(f"{where}.{key}[{i}]: expected a number")
        out.append(item)
    return out


def _parse_nonlinearity(obj, where: str) -> NonlinearitySpec:
    _check_keys(obj, ("kind",), ("coef",), where)
    kind = _string(obj, "kind", where)
    coef = _number(obj, "coef", where) if "coef" in obj else 0.0
    try:
        return NonlinearitySpec(kind, coef)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_g1(obj, where: str) -> G1Spec:
    _check_keys(obj, ("kind",), ("value",), where)
    kind = _string(obj, "kind", where)
    value = _number(obj, "value", where) if "value" in obj else 0.0
    try:
        return G1Spec(kind, value)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_profile(obj, n_ref: int, where: str) -> SpectralState:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object")
    try:
        if set(obj) == {"coeffs"}:
            coeffs = _number_list(obj, "coeffs", where)
            return SpectralState(coeffs)
        _check_keys(obj, ("c", "r"), (), where)
        return power_profile(_number(obj, "c", where),
                             _number(obj, "r", where), n_ref)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_model(obj, n_ref: int, where: str) -> tuple:
    """Returns (MarkModel, model_info dict)."""
    _check_keys(obj, ("law", "profile"), ("intensity", "g1"), where)
    law_obj = obj["law"]
    if not isinstance(law_obj, dict) or "kind" not in law_obj:
        raise ConfigError(f"{where}.law: expected an object with a 'kind'")
    kind = _string(law_obj, "kind", f"{where}.law")
    profile = _parse_profile(obj["profile"], n_ref, f"{where}.profile")
    g1 = _parse_g1(obj["g1"], f"{where}.g1") if "g1" in obj else G1Spec.zero()

    if kind == "truncated_stable":
        if "intensity" in obj:
            raise ConfigError(
                f"{where}.intensity: derived from (alpha, eps) for the "
                "truncated stable measure; omit it"
            )
        _check_keys(law_obj, ("kind", "alpha", "eps"), (), f"{where}.law")
        alpha = _number(law_obj, "alpha", f"{where}.law")
        eps = _number(law_obj, "eps", f"{where}.law")
        try:
            model, residual = truncate_levy(alpha, eps, profile, g1)
        except ValueError as exc:
            raise ConfigError(f"{where}.law: {exc}") from exc
        info = {"alpha": alpha, "eps": eps,
                "intensity": model.intensity, "residual": residual}
        return model, info

    if "intensity" not in obj:
        raise ConfigError(f"{where}: missing key(s) intensity")
    intensity = _number(obj, "intensity", where)
    try:
        if kind == "two_point":
            _check_keys(law_obj, ("kind", "p_plus", "v_plus", "v_minus"),
                        (), f"{where}.law")
            law = TwoPointLaw(_number(law_obj, "p_plus", f"{where}.law"),
                              _number(law_obj, "v_plus", f"{where}.law"),
                              _number(law_obj, "v_minus", f"{where}.law"))
        elif kind == "exp_shifted":
            _check_keys(law_obj, ("kind", "rate", "offset"),
                        (), f"{where}.law")
            law = ExpShiftedLaw(_number(law_obj, "rate", f"{where}.law"),
                                _number(law_obj, "offset", f"{where}.law"))
        else:
            raise ConfigError(f"{where}.law.kind: unknown law {kind!r}")
        return MarkModel(intensity, law, profile, g1), {}
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


_STUDY_KEYS = ("name", "axis", "levels", "n_ref", "dt_ref", "p_list",
               "samples", "scheme", "horizon", "nonlinearity", "model",
               "x0", "seed")


def _parse_study(obj, where: str) -> StudyPlan:
    _check_keys(obj, _STUDY_KEYS, (), where)
    n_ref = _integer(obj, "n_ref", where)
    x0_list = _number_list(obj, "x0", where)
    if len(x0_list) > n_ref:
        raise ConfigError(f"{where}.x0: more than n_ref coefficients")
    nonlinearity = _parse_nonlinearity(obj["nonlinearity"],
                                       f"{where}.nonlinearity")
    model, info = _parse_model(obj["model"], n_ref, f"{where}.model")
    try:
        return StudyPlan(
            name=_string(obj, "name", where),
            axis=_string(obj, "axis", where),
            levels=tuple(_number_list(obj, "levels", where)),
            n_ref=n_ref,
            dt_ref=_number(obj, "dt_ref", where),
            p_list=tuple(_number_list(obj, "p_list", where)),
            samples=_integer(obj, "samples", where),
            scheme=_string(obj, "scheme", where),
            horizon=_number(obj, "horizon", where),
            nonlinearity=nonlinearity,
            model=model,
            x0=SpectralState(x0_list),
            seed=_integer(obj, "seed", where),
            model_info=info,
        )
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def parse_config(path) -> list:
    """Parse and validate a JSON study configuration into StudyPlan records.

    Every StudyPlan invariant is checked at parse time; unknown keys and
    malformed values are rejected with the offending field in the message.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    if not text.strip():
        raise ConfigError(f"{path}: no studies defined")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be an object")
    _check_keys(doc, ("studies",), (), str(path))
    studies = doc["studies"]
    if not isinstance(studies, list) or not studies:
        raise ConfigError(f"{path}: no studies defined")
    plans = [
        _parse_study(s, f"studies[{i}]") for i, s in enumerate(studies)
    ]
    names = [p.name for p in plans]
    if len(set(names)) != len(names):
        raise ConfigError("study names must be unique (they name outputs)")
    return plans


# ---------------------------------------------------------------------------
# serialization and digests


def _serialize_law(law) -> dict:
    if isinstance(law, TwoPointLaw):
        return {"kind": "two_point", "p_plus": law.p_plus,
                "v_plus": law.v_plus, "v_minus": law.v_minus}
    if isinstance(law, ExpShiftedLaw):
        return {"kind": "exp_shifted", "rate": law.rate,
                "offset": law.offset}
    if isinstance(law, TruncatedStableLaw):
        return {"kind": "truncated_stable", "alpha": law.alpha,
                "eps": law.eps}
    raise TypeError(f"cannot serialize law of type {type(law).__name__}")


def serialize_plan(plan: StudyPlan) -> dict:
    """Config-file form of a plan; parse_config inverts it exactly."""
    model = plan.model
    model_obj = {
        "law": _serialize_law(model.law),
        "profile": {"coeffs": [float(v) for v in model.profile.coeffs]},
        "g1": {"kind": model.g1.kind, "value": model.g1.value},
    }
    if not isinstance(model.law, TruncatedStableLaw):
        model_obj["intensity"] = model.intensity
    return {
        "name": plan.name,
        "axis": plan.axis,
        "levels": [float(v) for v in plan.levels],
        "n_ref": plan.n_ref,
        "dt_ref": plan.dt_ref,
        "p_list": list(plan.p_list),
        "samples": plan.samples,
        "scheme": plan.scheme,
        "horizon": plan.horizon,
        "nonlinearity": {"kind": plan.nonlinearity.kind,
                         "coef": plan.nonlinearity.coef},
        "model": model_obj,
        "x0": [float(v) for v in plan.x0.coeffs],
        "seed": plan.seed,
    }


def serialize_config(plans) -> str:
    """JSON document (text) holding the given plans, LF line endings."""
    doc = {"studies": [serialize_plan(p) for p in plans]}
    return json.dumps(doc, indent=2) + "\n"


def config_digest(plans) -> str:
    """SHA-256 over the canonicalized plans: independent of config-file
    whitespace and key order, sensitive to every semantic field."""
    doc = {"studies": [serialize_plan(p) for p in plans]}
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# output files


def _fmt(value) -> str:
    return repr(float(value))


def _study_csv(result: StudyResult) -> str:
    """Two fixed-schema sections: per-level errors, then fitted orders."""
    lines = ["p,level,error,ci_lo,ci_hi"]
    for rep in result.reports:
        for j in range(rep.levels.size):
            lines.append(",".join([
                _fmt(rep.p), _fmt(rep.levels[j]), _fmt(rep.errors[j]),
                _fmt(rep.ci_lo[j]), _fmt(rep.ci_hi[j]),
            ]))
    lines.append("p,order,stderr")
    for rep in result.reports:
        if rep.order is not None:
            lines.append(",".join([
                _fmt(rep.p), _fmt(rep.order), _fmt(rep.stderr),
            ]))
    return "\n".join(lines) + "\n"


def emit_plot_data(report: OrderReport, path):
    """Log-log series plus the fitted line, for external plotting tools.

    One `log_level,log_error` row per level, then a `fit` row carrying the
    fitted order, intercept and standard error exactly as reported.
    """
    if report.levels.size == 0:
        raise ValueError("empty report has nothing to plot")
    if report.order is None:
        raise ValueError("report carries no fitted line (fewer than 3 levels)")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("log_level,log_error\n")
        for lv, err in zip(report.levels, report.errors):
            fh.write(f"{math.log(lv)!r},{math.log(err)!r}\n")
        fh.write(
            f"fit,{_fmt(report.order)},{_fmt(report.intercept)},"
            f"{_fmt(report.stderr)}\n"
        )


# ---------------------------------------------------------------------------
# execution


@dataclass(frozen=True)
class RunManifest:
    """Provenance record of one CLI run: config digest, seeds, outputs, and
    the software and worker count that produced them."""

    digest: str
    seed_override: object  # int from --seed, else None
    version: str
    started: str
    elapsed_seconds: float
    studies: tuple
    provenance: dict = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        return all(
            s["status"] == "ok" and s["aborts"] == 0 for s in self.studies
        )

    def to_json(self) -> str:
        doc = {
            "digest": self.digest,
            "seed_override": self.seed_override,
            "version": self.version,
            "started": self.started,
            "elapsed_seconds": self.elapsed_seconds,
            "provenance": self.provenance,
            "studies": list(self.studies),
        }
        return json.dumps(doc, indent=2) + "\n"


def _prepare_out_dir(out_dir) -> str:
    out = os.path.abspath(out_dir)
    if os.path.exists(out) and not os.path.isdir(out):
        raise RuntimeError(f"output path {out} exists and is not a directory")
    try:
        os.makedirs(out, exist_ok=True)
        probe = os.path.join(out, ".write_probe")
        with open(probe, "w", encoding="utf-8") as fh:
            fh.write("")
        os.remove(probe)
    except OSError as exc:
        raise RuntimeError(f"output directory {out} is not writable: {exc}")
    return out


def _scipy_version():
    """scipy's version, read without importing scipy where nothing has
    imported it yet: its `version.py` is run on its own."""
    if "scipy" in sys.modules:
        return sys.modules["scipy"].__version__
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        return None
    path = os.path.join(spec.submodule_search_locations[0], "version.py")
    try:
        version = importlib.util.spec_from_file_location("scipy_version",
                                                         path)
        module = importlib.util.module_from_spec(version)
        version.loader.exec_module(module)
        return module.version
    except (OSError, AttributeError):
        import scipy

        return scipy.__version__


def _provenance(threads: int) -> dict:
    """Versions of the numerical stack behind a run, and its worker count."""
    import numpy

    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": _scipy_version(),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "workers": threads,
    }


def _study_entry(plan: StudyPlan, result, csv_name, elapsed, error) -> dict:
    entry = {
        "name": plan.name,
        "axis": plan.axis,
        "scheme": plan.scheme,
        "seed": plan.seed,
        "samples": plan.samples,
        "block_size": block_size(plan),
        "elapsed_seconds": round(elapsed, 6),
        "model_info": dict(plan.model_info),
    }
    if error is not None:
        # only a study that gave up on its samples has counted aborts
        aborted = list(getattr(error, "aborted", []))
        entry.update(status="failed", error=str(error), csv=None,
                     aborts=len(aborted), aborted=aborted,
                     effective_samples=0, fits=[])
        return entry
    fits = [
        {"p": rep.p, "order": rep.order, "stderr": rep.stderr}
        for rep in result.reports
    ]
    entry.update(status="ok", csv=csv_name, aborts=result.aborts,
                 aborted=list(result.extras.get("aborted", [])),
                 effective_samples=result.effective_samples,
                 samples_per_s=round(result.effective_samples
                                     / entry["elapsed_seconds"], 3),
                 fits=fits, phases=result.extras["phases"])
    return entry


def _stage(path, text: str, staged: list) -> None:
    """Write `text` to a temp file beside `path`, and list the pair in
    `staged` for `execute` to move into place."""
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    staged.append((tmp, path))
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def execute(plans, out_dir, threads: int = 1,
            seed_override=None) -> RunManifest:
    """Run every plan, writing one CSV per study and a JSON manifest.

    Studies that raise are recorded as failed in the manifest and do not
    stop the remaining studies.  The manifest's `clean` property is True
    only if every study completed with zero aborted samples.  Each study
    entry lists its aborted samples (index, level, step, time), so any of
    them can be rerun alone from (seed, index), and the seconds its phases
    took (`phases`).  The files are written to temp files in the output
    directory and moved into place once all are written, the manifest
    last: a run that fails to write leaves the previous run's files as
    they were, and no part of a file.
    """
    out = _prepare_out_dir(out_dir)
    digest = config_digest(plans)
    provenance = _provenance(threads)
    started = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    t0 = time.perf_counter()
    entries = []
    staged = []
    try:
        for plan in plans:
            t_plan = time.perf_counter()
            result, error = None, None
            try:
                result = run_study(plan, workers=threads)
            except Exception as exc:  # recorded, not fatal to the batch
                error = exc
            csv_name = f"{plan.name}.csv"
            if result is not None:
                _stage(os.path.join(out, csv_name), _study_csv(result),
                       staged)
            else:
                csv_name = None
            entries.append(_study_entry(plan, result, csv_name,
                                        time.perf_counter() - t_plan, error))
        manifest = RunManifest(
            digest=digest,
            seed_override=seed_override,
            version=__version__,
            started=started,
            elapsed_seconds=round(time.perf_counter() - t0, 3),
            studies=tuple(entries),
            provenance=provenance,
        )
        _stage(os.path.join(out, "manifest.json"), manifest.to_json(),
               staged)
        for tmp, path in staged:
            os.replace(tmp, path)
    finally:
        for tmp, _ in staged:
            if os.path.exists(tmp):
                os.unlink(tmp)
    return manifest


# ---------------------------------------------------------------------------
# command line


def _resolve_threads(flag_value) -> int:
    if flag_value is not None:
        threads = flag_value
    elif THREADS_ENV in os.environ:
        raw = os.environ[THREADS_ENV]
        try:
            threads = int(raw)
        except ValueError:
            raise ConfigError(
                f"{THREADS_ENV} must be a positive integer, got {raw!r}"
            )
    else:
        threads = 1
    if threads < 1:
        raise ConfigError("thread count must be a positive integer")
    return threads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="levyheat",
        description="Run convergence studies from a JSON configuration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute the studies in a config file")
    run_p.add_argument("config", help="path to the JSON configuration")
    run_p.add_argument("--out", required=True, help="output directory")
    run_p.add_argument("--seed", type=int, default=None,
                       help="override every study seed")
    run_p.add_argument("--threads", type=int, default=None,
                       help=f"worker processes (default ${THREADS_ENV} or 1)"
                            "; holder-axis studies run in one process")
    run_p.add_argument("--dry-run", action="store_true",
                       help="validate the config and print the plan, no runs")
    args = parser.parse_args(argv)

    try:
        plans = parse_config(args.config)
        if args.seed is not None:
            plans = [replace(p, seed=args.seed) for p in plans]
        threads = _resolve_threads(args.threads)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    if args.dry_run:
        print(f"config digest {config_digest(plans)}")
        for plan in plans:
            print(f"  {plan.name}: axis={plan.axis} scheme={plan.scheme} "
                  f"levels={len(plan.levels)} samples={plan.samples} "
                  f"seed={plan.seed}")
        return 0

    # progress of the studies on stderr; library calls log nowhere
    log = logging.getLogger("levyheat")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(message)s"))
    level = log.level
    log.addHandler(handler)
    log.setLevel(logging.INFO)
    try:
        manifest = execute(plans, args.out, threads=threads,
                           seed_override=args.seed)
    except RuntimeError as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2
    finally:
        log.removeHandler(handler)
        log.setLevel(level)

    for entry in manifest.studies:
        if entry["status"] == "ok":
            fits = " ".join(
                f"p={f['p']:g}:order={f['order']:.4f}"
                for f in entry["fits"] if f["order"] is not None
            )
            print(f"{entry['name']}: ok aborts={entry['aborts']} {fits}")
        else:
            print(f"{entry['name']}: FAILED {entry['error']}",
                  file=sys.stderr)
    return 0 if manifest.clean else 2


if __name__ == "__main__":
    sys.exit(main())
