"""Batch front door for convergence studies.

Reads a JSON configuration describing one or more study plans, executes
them with recorded seeds, and persists machine-readable results: one CSV
table per study and a JSON run manifest whose digest pins down the exact
configuration that produced the outputs.

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
must be omitted.  A study's manifest entry reads ``model_info`` off the
plan's law: the truncated stable law's alpha, eps, intensity and discarded
small-jump variance 2 gamma(2 - alpha, eps) (``residual``), ``{}`` for the
others.  Unknown keys anywhere are rejected, and so are non-finite numbers
(json reads ``NaN`` and ``Infinity``), with the field's path in the message.

``levyheat run CONFIG --out DIR [--seed S] [--threads N] [--dry-run]``:
``--threads`` sets the worker processes (default 1, and at least 1).
Exit codes: 0 success, 1 configuration error, 2 runtime failure (including
studies that finished with aborted samples).
"""

import hashlib
import json
import logging
import os
import platform
import sys
import time
import warnings
from dataclasses import dataclass, field, replace

from . import __version__
from .experiments import (
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
    "main",
]

class ConfigError(ValueError):
    """A configuration problem, with the offending field in the message."""


# ---------------------------------------------------------------------------
# parsing


def _check_keys(obj: dict, required, optional: tuple, where: str):
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = sorted(set(obj) - set(required) - set(optional))
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {', '.join(unknown)}")
    missing = sorted(set(required) - set(obj))
    if missing:
        raise ConfigError(f"{where}: missing key(s) {', '.join(missing)}")


def _finite(v, where: str) -> float:
    # json reads NaN and Infinity, and integers past the double range
    if (isinstance(v, bool) or not isinstance(v, (int, float))
            or not abs(v) <= sys.float_info.max):
        raise ConfigError(f"{where}: expected a finite number")
    return float(v)


def _number(obj: dict, key: str, where: str) -> float:
    return _finite(obj[key], f"{where}.{key}")


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
    return [_finite(item, f"{where}.{key}[{i}]") for i, item in enumerate(v)]


# the study's keys in config order: a plain field maps to its reader, a
# nested one (read by `_parse_study` itself) to None
_STUDY_KEYS = {
    "name": _string, "axis": _string, "levels": _number_list,
    "n_ref": _integer, "dt_ref": _number, "p_list": _number_list,
    "samples": _integer, "scheme": _string, "horizon": _number,
    "nonlinearity": None, "model": None, "x0": None, "seed": _integer,
}
# law kind: (class, number fields); the truncated stable law derives the
# model's intensity, and `truncate_levy` builds its model
_LAWS = {
    "two_point": (TwoPointLaw, ("p_plus", "v_plus", "v_minus")),
    "exp_shifted": (ExpShiftedLaw, ("rate", "offset")),
    "truncated_stable": (TruncatedStableLaw, ("alpha", "eps")),
}
# the {"kind", number} objects: spec class and its optional number field
_KINDED = {NonlinearitySpec: "coef", G1Spec: "value"}


def _parse_kinded(obj, spec, where: str):
    number = _KINDED[spec]
    _check_keys(obj, ("kind",), (number,), where)
    kind = _string(obj, "kind", where)
    value = _number(obj, number, where) if number in obj else 0.0
    try:
        return spec(kind, value)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_profile(obj, n_ref: int, where: str) -> SpectralState:
    if isinstance(obj, dict) and set(obj) == {"coeffs"}:
        make, args = SpectralState, (_number_list(obj, "coeffs", where),)
    else:
        _check_keys(obj, ("c", "r"), (), where)
        make, args = power_profile, (_number(obj, "c", where),
                                     _number(obj, "r", where), n_ref)
    try:
        return make(*args)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_model(obj, n_ref: int, where: str) -> MarkModel:
    _check_keys(obj, ("law", "profile"), ("intensity", "g1"), where)
    law_obj = obj["law"]
    if not isinstance(law_obj, dict) or "kind" not in law_obj:
        raise ConfigError(f"{where}.law: expected an object with a 'kind'")
    kind = _string(law_obj, "kind", f"{where}.law")
    if kind not in _LAWS:
        raise ConfigError(f"{where}.law.kind: unknown law {kind!r}")
    cls, names = _LAWS[kind]
    profile = _parse_profile(obj["profile"], n_ref, f"{where}.profile")
    g1 = (_parse_kinded(obj["g1"], G1Spec, f"{where}.g1") if "g1" in obj
          else G1Spec.zero())
    derived = cls is TruncatedStableLaw
    if derived and "intensity" in obj:
        raise ConfigError(
            f"{where}.intensity: derived from (alpha, eps) for the "
            "truncated stable measure; omit it"
        )
    if not derived and "intensity" not in obj:
        raise ConfigError(f"{where}: missing key(s) intensity")
    _check_keys(law_obj, ("kind", *names), (), f"{where}.law")
    args = [_number(law_obj, name, f"{where}.law") for name in names]
    if derived:
        try:
            return truncate_levy(*args, profile, g1)[0]
        except ValueError as exc:
            raise ConfigError(f"{where}.law: {exc}") from exc
    intensity = _number(obj, "intensity", where)
    try:
        return MarkModel(intensity, cls(*args), profile, g1)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_study(obj, where: str) -> StudyPlan:
    _check_keys(obj, _STUDY_KEYS, (), where)
    plain = {key: read(obj, key, where)
             for key, read in _STUDY_KEYS.items() if read}
    x0_list = _number_list(obj, "x0", where)
    if len(x0_list) > plain["n_ref"]:
        raise ConfigError(f"{where}.x0: more than n_ref coefficients")
    nonlinearity = _parse_kinded(obj["nonlinearity"], NonlinearitySpec,
                                 f"{where}.nonlinearity")
    model = _parse_model(obj["model"], plain["n_ref"], f"{where}.model")
    try:
        return StudyPlan(**plain, nonlinearity=nonlinearity, model=model,
                         x0=SpectralState(x0_list))
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
    for kind, (cls, names) in _LAWS.items():
        if isinstance(law, cls):
            return {"kind": kind, **{name: getattr(law, name)
                                     for name in names}}
    raise TypeError(f"cannot serialize law of type {type(law).__name__}")


def _serialize_kinded(spec) -> dict:
    number = _KINDED[type(spec)]
    return {"kind": spec.kind, number: getattr(spec, number)}


def serialize_plan(plan: StudyPlan) -> dict:
    """Config-file form of a plan; parse_config inverts it exactly."""
    model = plan.model
    model_obj = {
        "law": _serialize_law(model.law),
        "profile": {"coeffs": [float(v) for v in model.profile.coeffs]},
        "g1": _serialize_kinded(model.g1),
    }
    if not isinstance(model.law, TruncatedStableLaw):
        model_obj["intensity"] = model.intensity
    nested = {"nonlinearity": _serialize_kinded(plan.nonlinearity),
              "model": model_obj,
              "x0": [float(v) for v in plan.x0.coeffs]}
    doc = {}
    for key, read in _STUDY_KEYS.items():
        value = nested[key] if read is None else getattr(plan, key)
        doc[key] = [float(v) for v in value] if read is _number_list else value
    return doc


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


def _provenance(threads: int) -> dict:
    """Versions of the numerical stack behind a run, and its worker count."""
    import numpy

    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "core": _blas_core()},
        "workers": threads,
    }


def _blas_core() -> str | None:
    """The CPU kernel set that numpy's bundled OpenBLAS picked at load time,
    which sets the transforms' bytes; None without that library or symbol.
    The build string of `show_config` names the build host's set instead."""
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)),
                        "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_corename64_",
                       "scipy_openblas_get_corename"):
            corename = getattr(lib, symbol, None)
            if corename is not None:
                corename.restype = ctypes.c_char_p
                return corename().decode()
    return None


def _model_info(law) -> dict:
    """The manifest's record of a plan's law: the truncated stable law's
    parameters, intensity and residual, and nothing of the others."""
    names = ("alpha", "eps", "intensity", "residual")
    return ({name: getattr(law, name) for name in names}
            if isinstance(law, TruncatedStableLaw) else {})


def _study_entry(plan: StudyPlan, result, csv_name, elapsed, error) -> dict:
    entry = {
        "name": plan.name,
        "axis": plan.axis,
        "scheme": plan.scheme,
        "seed": plan.seed,
        "samples": plan.samples,
        "block_size": block_size(plan),
        "elapsed_seconds": round(elapsed, 6),
        "model_info": _model_info(plan.model.law),
    }
    if error is not None:
        # a study that failed after its samples ran lists their aborts
        aborted = list(getattr(error, "aborted", []))
        entry.update(status="failed", error=str(error), csv=None,
                     aborts=len(aborted), aborted=aborted,
                     effective_samples=0, fits=[])
        return entry
    fits = [{"p": rep.p, "order": rep.order, "stderr": rep.stderr,
             "ess": rep.ess.tolist()} for rep in result.reports]
    entry.update(status="ok", csv=csv_name, aborts=result.aborts,
                 aborted=list(result.aborted),
                 effective_samples=result.effective_samples,
                 samples_per_s=round(result.effective_samples
                                     / entry["elapsed_seconds"], 3),
                 fits=fits, phases=result.phases)
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
    if threads < 1:
        raise ValueError("thread count must be a positive integer")
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


def main(argv=None) -> int:
    import argparse  # with gettext, some 5 ms that a library import skips

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
    run_p.add_argument("--threads", type=int, default=1,
                       help="worker processes (default 1); the bootstrap "
                            "runs in one process")
    run_p.add_argument("--dry-run", action="store_true",
                       help="validate the config and print the plan, no runs")
    args = parser.parse_args(argv)

    try:
        plans = parse_config(args.config)
        if args.seed is not None:
            with warnings.catch_warnings():  # parse_config has warned
                warnings.simplefilter("ignore", UserWarning)
                plans = [replace(p, seed=args.seed) for p in plans]
        if args.threads < 1:
            raise ConfigError("thread count must be a positive integer")
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
        manifest = execute(plans, args.out, threads=args.threads,
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
