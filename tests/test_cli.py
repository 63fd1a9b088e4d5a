"""Tests for the batch CLI: config parsing, serialization round trips,
digest stability, output files, and exit codes."""

import ast
import copy
import dataclasses
import hashlib
import importlib.util
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import levyheat
from levyheat import cli, experiments
from levyheat.cli import (
    ConfigError,
    config_digest,
    execute,
    main,
    parse_config,
    serialize_config,
    serialize_plan,
)
from levyheat.experiments import (
    StudyAborted,
    StudyPlan,
    _collect_norms,
    run_study,
)
from levyheat.noise import TruncatedStableLaw, power_profile, truncate_levy
from levyheat.spectral import NonlinearitySpec, SpectralState


def study_dict(**overrides):
    base = {
        "name": "unit",
        "axis": "temporal",
        "levels": [0.25, 0.125, 0.0625],
        "n_ref": 4,
        "dt_ref": 0.015625,
        "p_list": [2.0],
        "samples": 100,
        "scheme": "jump_adapted_A",
        "horizon": 0.5,
        "nonlinearity": {"kind": "sine", "coef": 1.0},
        "model": {
            "intensity": 1.0,
            "law": {"kind": "two_point", "p_plus": 0.5,
                    "v_plus": 1.0, "v_minus": -1.0},
            "profile": {"c": 1.0, "r": 2.0},
            "g1": {"kind": "zero"},
        },
        "x0": [1.0],
        "seed": 11,
    }
    base.update(overrides)
    return base


def write_config(tmp_path, *studies, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"studies": list(studies)}), encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# parsing


def test_minimal_config_parses_to_one_plan(tmp_path):
    plans = parse_config(write_config(tmp_path, study_dict()))
    assert len(plans) == 1
    plan = plans[0]
    assert plan.name == "unit"
    assert plan.levels == (0.25, 0.125, 0.0625)
    assert plan.model.intensity == 1.0
    assert plan.model.law.v_minus == -1.0
    assert plan.nonlinearity.kind == "sine"
    assert plan.x0.coeffs.tolist() == [1.0]
    assert cli._model_info(plan.model.law) == {}


def test_unknown_keys_rejected_with_field_names(tmp_path):
    path = write_config(tmp_path, study_dict(extra_knob=3))
    with pytest.raises(ConfigError, match=r"studies\[0\].*extra_knob"):
        parse_config(path)
    bad_law = study_dict()
    bad_law["model"]["law"]["spread"] = 1.0
    with pytest.raises(ConfigError, match=r"model\.law.*spread"):
        parse_config(write_config(tmp_path, bad_law))
    with pytest.raises(ConfigError, match="plot"):
        path2 = tmp_path / "top.json"
        path2.write_text(json.dumps({"studies": [study_dict()], "plot": 1}))
        parse_config(path2)


def test_sample_count_must_fit_the_stream_keys(tmp_path):
    # sample s's streams key s in 48 bits, so 2**48 samples is the most
    plan, = parse_config(write_config(tmp_path, study_dict(samples=2**48)))
    assert plan.samples == 2**48
    cfg = write_config(tmp_path, study_dict(samples=2**48 + 1))
    with pytest.raises(ConfigError, match=r"studies\[0\]: samples: .*48"):
        parse_config(cfg)


def test_non_dyadic_level_rejected_naming_level(tmp_path):
    path = write_config(tmp_path, study_dict(levels=[0.1875]))
    with pytest.raises(ConfigError, match="0.1875"):
        parse_config(path)


def test_empty_configs_rejected(tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text("")
    with pytest.raises(ConfigError, match="no studies defined"):
        parse_config(empty)
    hollow = tmp_path / "hollow.json"
    hollow.write_text('{"studies": []}')
    with pytest.raises(ConfigError, match="no studies defined"):
        parse_config(hollow)
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config(tmp_path / "nope.json")


def test_malformed_json_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"studies": [\n  {"name": }\n]}')
    with pytest.raises(ConfigError, match=r"broken\.json:2"):
        parse_config(path)


def test_duplicate_study_names_rejected(tmp_path):
    path = write_config(tmp_path, study_dict(), study_dict())
    with pytest.raises(ConfigError, match="unique"):
        parse_config(path)


def test_unknown_law_reported_before_missing_intensity(tmp_path):
    study = study_dict()
    study["model"] = {"law": {"kind": "cauchy", "scale": 1.0},
                      "profile": {"c": 1.0, "r": 2.0}}
    with pytest.raises(ConfigError, match=r"^studies\[0\]\.model\.law\.kind: "
                       "unknown law 'cauchy'$"):
        parse_config(write_config(tmp_path, study))


def test_missing_required_key_rejected(tmp_path):
    incomplete = study_dict()
    del incomplete["dt_ref"]
    with pytest.raises(ConfigError, match="dt_ref"):
        parse_config(write_config(tmp_path, incomplete))


@pytest.mark.filterwarnings("error")
def test_truncated_stable_model_parsing(tmp_path):
    study = study_dict(scheme="uniform_B")
    study["model"] = {
        "law": {"kind": "truncated_stable", "alpha": 0.5, "eps": 0.5},
        "profile": {"c": 1.0, "r": 2.0},
        "g1": {"kind": "zero"},
    }
    plan = parse_config(write_config(tmp_path, study))[0]
    assert isinstance(plan.model.law, TruncatedStableLaw)
    assert plan.model.law.alpha == 0.5
    assert plan.model.law.intensity == plan.model.intensity > 0
    assert plan.model.law.residual > 0
    # 2 Gamma(-1/2, eps) = 4 (e^-eps / sqrt(eps) - sqrt(pi) erfc(sqrt(eps)))
    study["model"]["law"]["eps"] = 1e-6
    plan = parse_config(write_config(tmp_path, study, name="c2.json"))[0]
    root = math.sqrt(1e-6)
    assert plan.model.intensity == pytest.approx(
        4.0 * (math.exp(-1e-6) / root - math.sqrt(math.pi) * math.erfc(root)),
        rel=1e-12)
    # eps^-alpha overflows the intensity
    study["model"]["law"].update(alpha=1.9, eps=1e-300)
    with pytest.raises(ConfigError,
                       match=r"studies\[0\]\.model\.law: .*intensity"):
        parse_config(write_config(tmp_path, study, name="c3.json"))
    # intensity is derived; specifying it is a config error
    study["model"]["law"].update(alpha=0.5, eps=0.5)
    study["model"]["intensity"] = 2.0
    with pytest.raises(ConfigError, match="intensity"):
        parse_config(write_config(tmp_path, study, name="c4.json"))


# ---------------------------------------------------------------------------
# serialization round trip and digests


@pytest.mark.parametrize("law", [
    {"kind": "two_point", "p_plus": 0.5, "v_plus": 2.0, "v_minus": -1.0},
    {"kind": "exp_shifted", "rate": 3.0, "offset": 0.25},
])
def test_round_trip_parse_serialize(tmp_path, law):
    study = study_dict()
    study["model"]["law"] = law
    plan = parse_config(write_config(tmp_path, study))[0]
    text = serialize_config([plan])
    path = tmp_path / "round.json"
    path.write_text(text, encoding="utf-8")
    assert parse_config(path)[0] == plan


def test_round_trip_truncated_stable(tmp_path):
    study = study_dict()
    study["model"] = {
        "law": {"kind": "truncated_stable", "alpha": 0.5, "eps": 0.5},
        "profile": {"c": 1.0, "r": 2.0},
        "g1": {"kind": "zero"},
    }
    plan = parse_config(write_config(tmp_path, study))[0]
    path = tmp_path / "round.json"
    path.write_text(serialize_config([plan]), encoding="utf-8")
    again = parse_config(path)[0]
    assert again == plan
    assert (cli._model_info(again.model.law)
            == cli._model_info(plan.model.law))


def test_manifest_reads_model_info_off_a_plan_built_in_python(tmp_path):
    # no parser in between: the plan's law carries its own numbers
    model, residual = truncate_levy(0.5, 0.5, power_profile(1.0, 2.0, 4))
    plan = StudyPlan(
        name="stable", axis="temporal", levels=(0.25, 0.125), n_ref=4,
        dt_ref=2.0**-6, p_list=(2.0,), samples=100, scheme="uniform_B",
        horizon=0.5, nonlinearity=NonlinearitySpec.sine(1.0), model=model,
        x0=SpectralState([1.0]), seed=11)
    execute([plan], tmp_path)
    entry = json.loads((tmp_path / "manifest.json").read_text())["studies"][0]
    assert entry["status"] == "ok"
    assert list(entry["model_info"].items()) == [
        ("alpha", 0.5), ("eps", 0.5), ("intensity", model.intensity),
        ("residual", residual)]


def test_digest_semantic_sensitivity(tmp_path):
    base = parse_config(write_config(tmp_path, study_dict()))
    changed = parse_config(
        write_config(tmp_path, study_dict(samples=200), name="c2.json")
    )
    assert config_digest(base) != config_digest(changed)


def test_digest_whitespace_insensitivity(tmp_path):
    doc = {"studies": [study_dict()]}
    a = tmp_path / "a.json"
    a.write_text(json.dumps(doc, indent=4))
    b = tmp_path / "b.json"
    b.write_text(json.dumps(doc, separators=(",", ":")))
    # same semantics through different formatting and profile spellings
    spelled = copy.deepcopy(doc)
    spelled["studies"][0]["model"]["profile"] = {
        "coeffs": [1.0, 2.0**-2.0, 3.0**-2.0, 4.0**-2.0]
    }
    c = tmp_path / "c.json"
    c.write_text(json.dumps(spelled, indent=1))
    da = config_digest(parse_config(a))
    assert da == config_digest(parse_config(b)) == config_digest(parse_config(c))


def test_example_config_digest_is_pinned():
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    plans = parse_config(os.path.join(root, "configs", "example.json"))
    assert config_digest(plans) == (
        "4ddbdba6bc1c299fe6bcf200d1aa5aeadaf217377774abee5fad4ed4a6d17b20")


def test_serialize_plan_mirrors_field_names(tmp_path):
    plan = parse_config(write_config(tmp_path, study_dict()))[0]
    doc = serialize_plan(plan)
    assert set(doc) == {
        "name", "axis", "levels", "n_ref", "dt_ref", "p_list", "samples",
        "scheme", "horizon", "nonlinearity", "model", "x0", "seed",
    }


# ---------------------------------------------------------------------------
# execution and outputs


def test_execute_two_plans_writes_csvs_and_manifest(tmp_path):
    plans = parse_config(write_config(
        tmp_path, study_dict(name="alpha"),
        study_dict(name="beta", scheme="uniform_B"),
    ))
    out = tmp_path / "out"
    manifest = execute(plans, out)
    assert manifest.clean
    assert sorted(p.name for p in out.iterdir()) == [
        "alpha.csv", "beta.csv", "manifest.json",
    ]
    recorded = json.loads((out / "manifest.json").read_text())
    assert recorded["digest"] == config_digest(plans)
    assert [s["name"] for s in recorded["studies"]] == ["alpha", "beta"]
    assert all(s["aborts"] == 0 for s in recorded["studies"])


# SHA-256 of the CSVs that `configs/example.json` gives, and the numpy
# version and OpenBLAS kernel set they were taken with: the transforms'
# last bits depend on both.  A change that moves these bytes on purpose
# updates the digests and says why.
EXAMPLE_CSV_STACK = ("2.4.6", "SkylakeX")
EXAMPLE_CSV_SHA256 = {
    "temporal_demo.csv":
        "7704e98e596f9ff4ecfee8681862b89e5d74c7f373f3b2bb85f94f4180c28e04",
    "spatial_demo.csv":
        "9459d4cceea8d117daa3e0cf6cf62c46585662e9dd0aed853f1b4a12169ea276",
}
# SHA-256 of the canonical JSON (sorted keys, no spaces) of the manifest
# `fits` of `configs/example.json`, one list per study: order, stderr and
# the per-level `ess` of every p
EXAMPLE_FITS_SHA256 = (
    "3b757a7219b0aa80d6edccd2e3e9f8321ee366d4d7fc0520484f91d21bba7d9b")
# a small Hölder study and the SHA-256 of its CSV, on the same stack
HOLDER_PIN_STUDY = study_dict(
    name="holder_pin", axis="holder", n_ref=16, p_list=[2.0, 8.0],
    levels=[2.0**-k for k in range(7, 2, -1)], samples=4096,
    nonlinearity={"kind": "zero"})
HOLDER_PIN_STUDY["model"] = dict(
    HOLDER_PIN_STUDY["model"], intensity=2.0, law={
        "kind": "two_point", "p_plus": 0.5, "v_plus": 2.0, "v_minus": -1.0})
HOLDER_CSV_SHA256 = (
    "c608d7f655033bc3ffe496af6fe7eb007ba5522e4f90ad955929358678681d90")


def skip_off_the_pinned_stack():
    stack = (np.__version__, cli._blas_core())
    if stack != EXAMPLE_CSV_STACK:
        pytest.skip(f"digests taken with numpy and OpenBLAS core "
                    f"{EXAMPLE_CSV_STACK}, this is {stack}")


def test_example_config_csv_bytes_are_pinned(tmp_path):
    skip_off_the_pinned_stack()
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    plans = parse_config(os.path.join(root, "configs", "example.json"))
    assert execute(plans, tmp_path / "out").clean
    got = {name: hashlib.sha256((tmp_path / "out" / name).read_bytes())
           .hexdigest() for name in EXAMPLE_CSV_SHA256}
    assert got == EXAMPLE_CSV_SHA256
    recorded = json.loads((tmp_path / "out" / "manifest.json").read_text())
    fits = json.dumps([s["fits"] for s in recorded["studies"]],
                      sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(fits.encode()).hexdigest() == EXAMPLE_FITS_SHA256


def test_holder_csv_bytes_are_pinned(tmp_path):
    skip_off_the_pinned_stack()
    plans = parse_config(write_config(tmp_path, HOLDER_PIN_STUDY))
    assert execute(plans, tmp_path / "out").clean
    got = (tmp_path / "out" / "holder_pin.csv").read_bytes()
    assert hashlib.sha256(got).hexdigest() == HOLDER_CSV_SHA256


def test_execute_rerun_is_byte_identical(tmp_path):
    plans = parse_config(write_config(tmp_path, study_dict()))
    execute(plans, tmp_path / "out1")
    execute(plans, tmp_path / "out2")
    csv1 = (tmp_path / "out1" / "unit.csv").read_bytes()
    csv2 = (tmp_path / "out2" / "unit.csv").read_bytes()
    assert csv1 == csv2


def test_csv_schema(tmp_path):
    plans = parse_config(write_config(tmp_path, study_dict()))
    out = tmp_path / "out"
    execute(plans, out)
    lines = (out / "unit.csv").read_text().splitlines()
    assert lines[0] == "p,level,error,ci_lo,ci_hi"
    assert lines[4] == "p,order,stderr"
    assert len(lines) == 6  # 3 level rows + 1 fit row
    level_row = lines[1].split(",")
    assert float(level_row[0]) == 2.0 and float(level_row[1]) == 0.25
    lo, hi = float(level_row[3]), float(level_row[4])
    assert lo <= float(level_row[2]) <= hi
    fit_row = lines[5].split(",")
    assert float(fit_row[0]) == 2.0 and len(fit_row) == 3


def test_csv_fit_header_present_without_fit_rows(tmp_path):
    plans = parse_config(
        write_config(tmp_path, study_dict(levels=[0.25]))
    )
    out = tmp_path / "out"
    execute(plans, out)
    lines = (out / "unit.csv").read_text().splitlines()
    assert lines[-1] == "p,order,stderr"


def test_execute_unwritable_out_dir_fails_before_running(tmp_path):
    blocker = tmp_path / "occupied"
    blocker.write_text("a file, not a directory")
    plans = parse_config(write_config(tmp_path, study_dict()))
    with pytest.raises(RuntimeError, match="not a directory"):
        execute(plans, blocker)


def test_execute_rejects_a_worker_count_below_one(tmp_path):
    plans = parse_config(write_config(tmp_path, study_dict()))
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="thread count must be a positive"):
        execute(plans, out, threads=0)
    assert not out.exists()


def test_execute_records_failed_study_and_keeps_going(tmp_path,
                                                     monkeypatch):
    bad = study_dict(name="divergent",
                     nonlinearity={"kind": "linear", "coef": 1e25},
                     levels=[0.25])
    # finite terminal states whose difference overflows: the study fails
    # once its samples have run, with no sample aborted
    overflowing = study_dict(name="overflowing", samples=4)
    run_block = experiments._run_block

    def overflow(plan, indices, phases):
        if plan.name != "overflowing":
            return run_block(plan, indices, phases)
        terminals = np.zeros((len(indices), len(plan.levels) + 1, plan.n_ref))
        terminals[0, 0, 0], terminals[0, 1:, 0] = 1e308, -1e308
        return terminals, []

    monkeypatch.setattr(experiments, "_run_block", overflow)
    # marks of +-1.2e308 on a one-mode profile: the samples with a jump
    # abort, and the others' norms, whose squares overflow, are taken on
    # their own scale, so the study reports and lists its aborts
    late = study_dict(name="late", n_ref=1, samples=24)
    late["model"] = dict(late["model"], intensity=4.0, law={
        "kind": "two_point", "p_plus": 0.5, "v_plus": 1.2e308,
        "v_minus": -1.2e308})
    good = study_dict(name="sound")
    with pytest.warns(UserWarning, match="fewer than 100"):
        plans = parse_config(write_config(tmp_path, bad, overflowing, late,
                                          good))
    out = tmp_path / "out"
    with np.errstate(over="ignore", invalid="ignore"):
        manifest = execute(plans, out)
        _, lost = _collect_norms(plans[2], workers=1)
    assert not manifest.clean
    entries = {s["name"]: s for s in manifest.studies}
    assert entries["divergent"]["status"] == "failed"
    assert "aborted" in entries["divergent"]["error"]
    assert entries["divergent"]["aborts"] == 100
    assert [a["index"] for a in entries["divergent"]["aborted"]] == \
        list(range(100))
    assert entries["overflowing"]["status"] == "failed"
    assert entries["overflowing"]["error"].startswith(
        "p = 2, levels[0] = 0.25: L^p error inf")
    assert entries["overflowing"]["aborts"] == 0
    assert entries["overflowing"]["aborted"] == []
    assert entries["late"]["status"] == "ok"
    assert (out / "late.csv").exists()
    assert entries["late"]["aborts"] == 11
    assert entries["late"]["aborted"] == lost
    assert entries["sound"]["status"] == "ok"
    assert (out / "sound.csv").exists()
    assert not (out / "divergent.csv").exists()
    recorded = json.loads((out / "manifest.json").read_text())
    assert recorded["studies"] == [dict(e) for e in manifest.studies]


def test_an_underflowing_p_is_reported_at_every_level(tmp_path):
    # |e|^1000 underflows to zero for every sample, so the L^p error at
    # p = 1000 is taken on the samples' own scale: the study reports a
    # positive, finite error and interval at every level, and an order
    with pytest.warns(UserWarning, match="fewer than 100"):
        plans = parse_config(write_config(tmp_path, study_dict(
            samples=4, p_list=[2.0, 1000.0])))
    manifest = execute(plans, tmp_path / "out")
    (entry,) = manifest.studies
    assert entry["status"] == "ok" and manifest.clean
    text = (tmp_path / "out" / entry["csv"]).read_text()
    rows = [line.split(",") for line in text.splitlines()]
    levels = [[float(v) for v in r[1:]] for r in rows
              if r[0] == "1000.0" and len(r) == 5]
    assert [level for level, *_ in levels] == [0.25, 0.125, 0.0625]
    for _, error, lo, hi in levels:
        assert 0.0 < error < math.inf and 0.0 < lo <= hi < math.inf
    assert [f["p"] for f in entry["fits"]] == [2.0, 1000.0]
    assert all(f["order"] is not None for f in entry["fits"])
    # the effective sample size of the L^p weights, per level: between one
    # sample and all four, and about one at p = 1000
    for fit in entry["fits"]:
        assert len(fit["ess"]) == 3
        assert all(1.0 <= ess <= 4.0 for ess in fit["ess"])
    assert max(entry["fits"][1]["ess"]) < 1.01


def test_manifest_records_provenance_and_aborted_samples(tmp_path):
    # one mode and marks of +-2.4e308, which overflow: exactly the samples
    # with a jump abort, and the others give finite errors
    risky = study_dict(name="risky", n_ref=1, samples=24)
    risky["model"] = dict(risky["model"], intensity=4.0, law={
        "kind": "two_point", "p_plus": 0.5, "v_plus": 1.2e308,
        "v_minus": -1.2e308}, profile={"c": 2.0, "r": 2.0})
    with pytest.warns(UserWarning, match="fewer than 100"):
        plans = parse_config(write_config(tmp_path, risky))
    with np.errstate(over="ignore", invalid="ignore"):
        result = run_study(plans[0])
        manifest = execute(plans, tmp_path / "out", threads=2)
    recorded = json.loads((tmp_path / "out" / "manifest.json").read_text())
    prov = recorded["provenance"]
    assert prov["numpy"] == np.__version__ and prov["workers"] == 2
    assert set(prov) == {"python", "numpy", "blas", "workers"}
    assert set(prov["blas"]) == {"name", "version", "core"}
    # the kernel set OpenBLAS runs on this CPU, or null without numpy's
    # bundled library
    assert prov["blas"]["core"] is None or prov["blas"]["core"].strip()
    entry = recorded["studies"][0]
    assert entry["block_size"] == 32
    assert 0 < entry["aborts"] < 24
    assert entry["aborted"] == result.aborted
    assert [a["index"] for a in entry["aborted"]] == sorted(
        a["index"] for a in entry["aborted"])
    assert set(entry["aborted"][0]) == {"index", "level", "step", "time"}
    assert not manifest.clean


# ---------------------------------------------------------------------------
# manifest, package and output files


def test_manifest_version_is_the_package_version(tmp_path):
    execute(parse_config(write_config(tmp_path, study_dict())),
            tmp_path / "out")
    recorded = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert recorded["version"] == levyheat.__version__


def test_package_metadata_reads_the_package_version():
    tomllib = pytest.importorskip("tomllib")
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
        doc = tomllib.load(fh)
    assert "version" not in doc["project"]
    assert doc["project"]["dynamic"] == ["version"]
    assert doc["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "levyheat.__version__"}


def _readme_imports() -> list:
    """The names README's `from levyheat import ...` lines list."""
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    names = []
    for block, line in re.findall(
            r"^from levyheat import (?:\(([^)]*)\)|(.+))$", text, re.M):
        names += [n.strip() for n in (block or line).split(",") if n.strip()]
    return names


def test_package_exports_the_readme_imports_and_nothing_else():
    names = _readme_imports()
    assert "run_scheme_A" in names and "StudyPlan" in names
    for name in names:
        exec(f"from levyheat import {name}", {})
    assert sorted(levyheat.__all__) == sorted({"__version__", *names})


def test_no_module_imports_a_name_it_never_reads():
    # experiments imports sample_path for no use of its own:
    # bench/test_bench.py looks it up there
    kept = {("experiments", "sample_path")}
    unused = []
    for path in sorted(pathlib.Path(levyheat.__path__[0]).glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        read = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        exported = set()
        defined = set(imported)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                defined.update(getattr(t, "id", None) for t in targets)
                if [getattr(t, "id", None) for t in targets] == ["__all__"]:
                    exported = set(ast.literal_eval(node.value))
        unused += [f"{path.name}:{line} {name}"
                   for name, line in imported.items()
                   if name not in read | exported
                   and (path.stem, name) not in kept]
        # a deleted name must not stay exported
        unused += [f"{path.name}: __all__ names undefined {name}"
                   for name in sorted(exported - defined)]
    assert unused == []


def test_every_dataclass_field_is_read():
    # a public field that no code reads is a constructor argument with no
    # use; the config tables read fields through getattr by name, so a
    # string constant counts as a read
    fields, read = [], set()
    for path in sorted(pathlib.Path(levyheat.__path__[0]).glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(
                    "dataclass" in ast.unparse(d) for d in node.decorator_list):
                fields += [f"{path.name}: {node.name}.{stmt.target.id}"
                           for stmt in node.body
                           if isinstance(stmt, ast.AnnAssign)
                           and not stmt.target.id.startswith("_")]
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                                ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value,
                                                               str):
                read.add(node.value)
    assert [f for f in fields if f.rsplit(".", 1)[1] not in read] == []


def test_bench_tracer_names_still_exist():
    # bench/tracing.py wraps these names and fails on a missing one;
    # bench/test_bench.py looks sample_path up in experiments
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", os.path.join(root, "bench", "tracing.py"))
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = [(mod, attr) for mod, attr, _, _ in tracing.FUNCTIONS]
    names.append(("levyheat.experiments", "sample_path"))
    missing = [f"{mod}.{attr}" for mod, attr in names
               if not hasattr(importlib.import_module(mod), attr)]
    for mod, cls, meth, _ in tracing.METHODS:
        owner = getattr(importlib.import_module(mod), cls, None)
        if meth not in vars(owner or object):
            missing.append(f"{mod}.{cls}.{meth}")
    assert missing == []


def test_module_run_prints_no_runpy_warning(tmp_path):
    # `python -m levyheat.cli` runs the module as __main__; importing the
    # package must not have imported it already
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    src = os.path.dirname(levyheat.__path__[0])
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run(
        [sys.executable, "-W", "always::RuntimeWarning", "-m", "levyheat.cli",
         "run", os.path.join(root, "configs", "example.json"),
         "--out", str(tmp_path / "out"), "--dry-run"],
        env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert "RuntimeWarning" not in run.stderr


def _every_law_config(tmp_path):
    # one study per law, each with a clipped g1, whose moments are all
    # closed forms
    laws = {
        "two_point": {"intensity": 1.0, "law": {
            "kind": "two_point", "p_plus": 0.5, "v_plus": 1.0,
            "v_minus": -1.0}},
        "exp_shifted": {"intensity": 1.0, "law": {
            "kind": "exp_shifted", "rate": 3.0, "offset": 0.25}},
        "stable": {"law": {"kind": "truncated_stable", "alpha": 0.5,
                           "eps": 0.05}},
    }
    studies = [study_dict(name=name, levels=[0.25], model=dict(
        law, profile={"c": 1.0, "r": 2.0},
        g1={"kind": "clipped", "value": 0.3})) for name, law in laws.items()]
    return write_config(tmp_path, *studies)


def _run_python(code):
    src = os.path.dirname(levyheat.__path__[0])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True)


def test_two_point_config_never_loads_scipy_integrate(tmp_path):
    # importing the package and parsing plans on all three laws, the
    # two-point law among them, leave scipy and scipy.integrate unloaded
    path = _every_law_config(tmp_path)
    out = _run_python("import sys, levyheat\n"
                      "from levyheat import cli\n"
                      f"cli.parse_config({str(path)!r})\n"
                      "print('scipy.integrate' in sys.modules)\n"
                      "print('scipy' in sys.modules)\n")
    assert out.stdout.split() == ["False", "False"]


def test_importing_the_cli_loads_no_argparse(tmp_path):
    # only `main` reads a command line: importing the CLI and parsing a
    # config leave argparse, and the gettext it loads, unloaded
    path = write_config(tmp_path, study_dict())
    out = _run_python("import sys\n"
                      "from levyheat import cli\n"
                      f"cli.parse_config({str(path)!r})\n"
                      "print('argparse' in sys.modules)\n"
                      "print('gettext' in sys.modules)\n")
    assert out.stdout.split() == ["False", "False"]


def test_two_point_run_never_imports_scipy_yet_names_its_version(tmp_path):
    # running plans on all three laws leaves scipy unloaded; the manifest
    # names the versions of the code that ran, the package and numpy, and
    # no scipy version, since no run executes scipy code
    path = _every_law_config(tmp_path)
    out = tmp_path / "out"
    run = _run_python("import sys, levyheat\n"
                      "from levyheat import cli\n"
                      f"cli.execute(cli.parse_config({str(path)!r}), "
                      f"{str(out)!r})\n"
                      "print('scipy' in sys.modules)\n")
    assert run.stdout.split() == ["False"]
    recorded = json.loads((out / "manifest.json").read_text())
    assert [e["status"] for e in recorded["studies"]] == ["ok"] * 3
    assert recorded["version"] == levyheat.__version__
    assert recorded["provenance"]["numpy"] == np.__version__
    assert "scipy" not in recorded["provenance"]


def test_manifest_times_each_phase(tmp_path):
    spatial = study_dict(name="spatial", axis="spatial", levels=[1, 2],
                         n_ref=4, scheme="uniform_B")
    holder = study_dict(name="holder", axis="holder", levels=[0.125, 0.0625],
                        nonlinearity={"kind": "zero"})
    plans = parse_config(write_config(tmp_path, study_dict(), spatial,
                                      holder))
    manifest = execute(plans, tmp_path / "out")
    recorded = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert recorded["studies"] == [dict(e) for e in manifest.studies]
    for entry, plan in zip(recorded["studies"], plans):
        phases = entry["phases"]
        if plan.axis == "holder":
            assert set(phases) == {"skeletons", "norms", "bootstrap"}
            seconds = list(phases.values())
        else:
            assert set(phases) == {"draw", "restrict", "step", "norms",
                                   "bootstrap"}
            # the reference run, then every level; a fold that several
            # resolutions share is booked to the first of them
            assert len(phases["step"]) == len(plan.levels) + 1
            assert len(phases["restrict"]) == len(plan.levels) + 1
            if plan.axis == "spatial":
                assert phases["restrict"][1:] == [0.0] * len(plan.levels)
            else:
                assert all(v > 0.0 for v in phases["restrict"][1:])
            seconds = [v for k, v in phases.items()
                       if k not in ("restrict", "step")]
            seconds += phases["restrict"] + phases["step"]
        assert all(v >= 0.0 for v in seconds)
        assert sum(seconds) <= entry["elapsed_seconds"]
        assert entry["samples_per_s"] > 0.0
        assert entry["samples_per_s"] == round(
            entry["effective_samples"] / entry["elapsed_seconds"], 3)


def test_failed_write_leaves_the_previous_run_intact(tmp_path, monkeypatch):
    out = tmp_path / "out"
    studies = [study_dict(name="alpha"), study_dict(name="beta")]
    execute(parse_config(write_config(tmp_path, *studies)), out)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(before) == ["alpha.csv", "beta.csv", "manifest.json"]

    writes = []
    real = cli._stage

    def second_write_fails(path, text, staged):
        writes.append(os.path.basename(path))
        if len(writes) == 2:
            # a part of the file is on disk when the write fails
            real(path, text[:len(text) // 2], staged)
            raise OSError("disk full")
        real(path, text, staged)

    monkeypatch.setattr(cli, "_stage", second_write_fails)
    # another seed: every file of this run would differ from the last one's
    plans = parse_config(write_config(tmp_path, *studies))
    plans = [dataclasses.replace(p, seed=12) for p in plans]
    with pytest.raises(OSError, match="disk full"):
        execute(plans, out)
    assert writes == ["alpha.csv", "beta.csv"]
    after = {p.name: p.read_bytes() for p in out.iterdir()}
    assert after == before


# ---------------------------------------------------------------------------
# command line entry point


def test_main_dry_run_creates_nothing(tmp_path, capsys):
    cfg = write_config(tmp_path, study_dict())
    out = tmp_path / "out"
    code = main(["run", str(cfg), "--out", str(out), "--dry-run"])
    assert code == 0
    assert not out.exists()
    stdout = capsys.readouterr().out
    assert "config digest" in stdout and "unit" in stdout


@pytest.mark.parametrize("overrides, field", [
    # a level at dt_ref has a coupled error of exactly zero
    ({"levels": [0.25, 0.125, 0.015625]}, "levels[2]"),
    ({"axis": "spatial", "levels": [2, 4], "n_ref": 4}, "levels[1]"),
    ({"horizon": 0.75, "levels": [0.5, 0.25]}, "levels[0]"),
    # about 1e57 jumps per sample: no block holds their rows
    ({"scheme": "uniform_B", "model": {
        "law": {"kind": "truncated_stable", "alpha": 1.9, "eps": 1e-30},
        "profile": {"c": 1.0, "r": 2.0}}}, "model.intensity"),
    # near-dyadic: the level's nodes miss the path's micro nodes
    ({"levels": [0.25, 0.125, 2 * 0.015625 * (1 + 1e-10)]}, "levels[2]"),
    ({"dt_ref": 0.015625 * (1 + 1e-13)}, "levels[0]"),
    # json reads NaN and Infinity; no such number runs
    ({"p_list": [math.nan]}, "p_list[0]"),
    ({"p_list": [2.0, math.inf]}, "p_list[1]"),
    ({"levels": [math.nan]}, "levels[0]"),
    ({"horizon": math.nan}, "horizon"),
    # three or more levels are fitted, and equal ones have no slope
    ({"levels": [0.25, 0.25, 0.25]}, "levels"),
    ({"axis": "spatial", "levels": [2, 2, 2], "n_ref": 4}, "levels"),
    ({"axis": "holder", "levels": [0.125] * 3}, "levels"),
    ({"axis": "spatial", "levels": [2, 2.5], "n_ref": 4}, "levels[1]"),
    ({"axis": "spatial", "levels": [2, 8], "n_ref": 4}, "levels[1]"),
    ({"axis": "holder", "levels": [0.125, 0.7]}, "levels[1]"),
    ({"axis": "holder", "levels": [0.125, 0.0625], "model": {
        "intensity": 1.0,
        "law": {"kind": "two_point", "p_plus": 0.5, "v_plus": 1.0,
                "v_minus": -1.0},
        "profile": {"c": 1.0, "r": 2.0},
        "g1": {"kind": "constant", "value": 0.3}}}, "model.g1"),
    # a zero kind takes no number: 7.5 would run as 0 and change the digest
    ({"model": {"intensity": 1.0, "law": {"kind": "two_point", "p_plus": 0.5,
                                          "v_plus": 1.0, "v_minus": -1.0},
                "profile": {"c": 1.0, "r": 2.0},
                "g1": {"kind": "zero", "value": 7.5}}}, "model.g1"),
    ({"nonlinearity": {"kind": "zero", "coef": -2.0}}, "nonlinearity"),
    # a sample index past 48 bits has no stream key
    ({"samples": 2**48 + 5}, "samples"),
    # a p named twice would get two reports, each with its own interval
    ({"p_list": [2.0, 4.0, 2]}, "p_list[2]"),
    # no jumps: every increment of the regularity study vanishes
    ({"axis": "holder", "levels": [0.125, 0.0625], "nonlinearity": {
        "kind": "zero"}, "model": {
        "intensity": 0.0,
        "law": {"kind": "two_point", "p_plus": 0.5, "v_plus": 1.0,
                "v_minus": -1.0},
        "profile": {"c": 1.0, "r": 2.0}}}, "model.intensity"),
    # F = 0 and g1 = 0: without jumps, or with centred ones on scheme A,
    # the temporal schemes are exact and each coupled error is rounding
    ({"nonlinearity": {"kind": "zero"}}, "model.law"),
    ({"nonlinearity": {"kind": "linear", "coef": 0.0}}, "model.law"),
    ({"scheme": "uniform_B", "nonlinearity": {"kind": "zero"},
      "model": {"intensity": 0.0,
                "law": {"kind": "two_point", "p_plus": 0.5, "v_plus": 1.0,
                        "v_minus": -1.0},
                "profile": {"c": 1.0, "r": 2.0}}}, "model.intensity"),
])
def test_dry_run_rejects_unrunnable_plans(tmp_path, capsys, overrides,
                                          field):
    cfg = write_config(tmp_path, study_dict(**overrides))
    code = main(["run", str(cfg), "--out", str(tmp_path / "o"), "--dry-run"])
    assert code == 1
    err = capsys.readouterr().err
    # a plan's rule names the field after the study, a reader after a dot
    assert "config error" in err
    assert re.search(rf"studies\[0\](: |\.){re.escape(field)}: ", err), err


def test_main_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"studies": [{"name": "x"}]}')
    assert main(["run", str(bad), "--out", str(tmp_path / "o")]) == 1
    assert "config error" in capsys.readouterr().err


def test_main_runtime_failure_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, study_dict(
        nonlinearity={"kind": "linear", "coef": 1e25}, levels=[0.25]
    ))
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["run", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "FAILED" in capsys.readouterr().err


def test_a_study_whose_every_sample_aborts(tmp_path, capsys):
    # the example's temporal study at three samples under a drift of 1e25 u:
    # every sample turns non-finite at the reference, at the same step
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    with open(os.path.join(root, "configs", "example.json")) as fh:
        study = json.load(fh)["studies"][0]
    assert study["axis"] == "temporal"
    study.update(samples=3, nonlinearity={"kind": "linear", "coef": 1e25})
    cfg = write_config(tmp_path, study)
    with pytest.warns(UserWarning, match="fewer than 100"):
        (plan,) = parse_config(cfg)
    assert plan.nonlinearity == NonlinearitySpec.linear(1e25)
    lost = [{"index": i, "level": 2.0**-10, "step": 13, "time": 0.013671875}
            for i in range(3)]
    out = tmp_path / "out"
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(StudyAborted) as caught:
            run_study(plan)
        manifest = execute([plan], out)
        with pytest.warns(UserWarning, match="fewer than 100"):
            code = main(["run", str(cfg), "--out", str(tmp_path / "again")])
    assert caught.value.aborted == lost
    (entry,) = manifest.studies
    assert entry["status"] == "failed"
    assert entry["aborts"] == 3 and entry["aborted"] == lost
    assert not (out / f"{study['name']}.csv").exists()
    assert code == 2
    assert f"{study['name']}: FAILED" in capsys.readouterr().err


def test_a_multiplicative_uniform_plan_warns_once_at_parse(tmp_path):
    # scheme B with g1 > 0 warns when its plan is built, so that parsing
    # and --dry-run (with or without a seed override) show it once, and the
    # study's blocks and resolutions warn no more
    study = study_dict(scheme="uniform_B")
    study["model"] = dict(study["model"],
                          g1={"kind": "constant", "value": 0.3})
    cfg = write_config(tmp_path, study)
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        (plan,) = parse_config(cfg)
    assert [str(w.message).split(":")[0] for w in seen] == [
        "uniform-grid scheme with a multiplicative jump coefficient"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run_study(plan)
    for extra in ([], ["--seed", "5"]):
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            assert main(["run", str(cfg), "--out", str(tmp_path / "o"),
                         "--dry-run", *extra]) == 0
        assert len(seen) == 1


def test_overflowing_norms_are_reported_on_their_own_scale(tmp_path, capsys):
    # a strong linear drift drives the terminal states to about 1e298
    # without an abort: the squared norms overflow, so each norm and each
    # L^p error is taken on its own scale, and the study reports finite
    # errors of about 1.09e299 at p = 2, the same at every level (the
    # reference's own error dominates), with order 0
    study = study_dict(
        name="temporal_a", levels=[2.0**-k for k in range(4, 9)], n_ref=64,
        dt_ref=2.0**-12, p_list=[2.0, 4.0, 8.0], samples=8, horizon=1.0,
        nonlinearity={"kind": "linear", "coef": 760.0}, seed=20260815)
    study["model"] = dict(study["model"], intensity=2.0, law={
        "kind": "two_point", "p_plus": 0.5, "v_plus": 2.0, "v_minus": -1.0},
        g1={"kind": "constant", "value": 0.3})
    cfg = write_config(tmp_path, study)
    out = tmp_path / "out"
    with pytest.warns(UserWarning, match="fewer than 100"), \
            np.errstate(over="ignore", invalid="ignore"):
        assert main(["run", str(cfg), "--out", str(out)]) == 0
    assert "temporal_a: ok aborts=0 p=2:order=0.0000 p=4:order=0.0000 " \
        "p=8:order=0.0000" in capsys.readouterr().out
    rows = [line.split(",") for line in
            (out / "temporal_a.csv").read_text().splitlines()]
    errors = {}
    for r in rows:
        if len(r) == 5 and r[0] != "p":
            p, _, error, lo, hi = map(float, r)
            assert 0.0 < lo <= error <= hi < math.inf
            errors.setdefault(p, []).append(error)
    assert sorted(errors) == [2.0, 4.0, 8.0]
    assert all(len(set(e)) == 1 and len(e) == 5 for e in errors.values())
    assert 1.08e299 < errors[2.0][0] < 1.10e299

    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    recorded = json.loads((out / "manifest.json").read_text(),
                          parse_constant=refuse)
    entry = recorded["studies"][0]
    assert entry["status"] == "ok" and entry["aborts"] == 0
    assert [f["order"] for f in entry["fits"]] == [0.0, 0.0, 0.0]


def test_main_success_and_seed_override(tmp_path, capsys):
    cfg = write_config(tmp_path, study_dict())
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out), "--seed", "99"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed_override"] == 99
    assert manifest["studies"][0]["seed"] == 99
    # the override must change the digest (seed is semantic)
    plans = parse_config(cfg)
    assert manifest["digest"] != config_digest(plans)


def test_run_prints_progress_on_stderr_only(tmp_path):
    # `levyheat run` logs each finished block and each study's bootstrap
    # on stderr, on every axis; its stdout and CSVs are those of a run
    # without a handler
    holder = study_dict(name="holder", axis="holder", levels=[0.125, 0.0625],
                        nonlinearity={"kind": "zero"})
    cfg = write_config(tmp_path, study_dict(), holder)
    out = tmp_path / "out"
    src = os.path.dirname(levyheat.__path__[0])
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys\nfrom levyheat.cli import main\nsys.exit(main())\n"
    run = subprocess.run([sys.executable, "-c", code, "run", str(cfg),
                          "--out", str(out)], env=env, capture_output=True,
                         text=True)
    assert run.returncode == 0
    # only the logger's lines: an unrelated warning may share stderr
    progress = [line for line in run.stderr.splitlines()
                if line.startswith(("unit:", "holder:"))]
    assert [line.split(",")[0] for line in progress] == [
        "unit: 32/100 samples", "unit: 64/100 samples",
        "unit: 96/100 samples", "unit: 100/100 samples",
        "unit: bootstrap of 3 intervals",
        "holder: 100/100 samples", "holder: bootstrap of 2 intervals"]
    assert "ETA" in progress[0]

    quiet = tmp_path / "quiet"
    manifest = execute(parse_config(cfg), quiet)
    assert run.stdout.splitlines() == [
        f"{e['name']}: ok aborts=0 "
        + " ".join(f"p={f['p']:g}:order={f['order']:.4f}"
                   for f in e["fits"] if f["order"] is not None)
        for e in manifest.studies]
    for name in ("unit.csv", "holder.csv"):
        assert (out / name).read_bytes() == (quiet / name).read_bytes()


def test_thread_resolution_precedence(tmp_path, monkeypatch, capsys):
    # --threads alone sets the worker count, 1 by default; no environment
    # variable changes it
    cfg = write_config(tmp_path, study_dict())
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out), "--threads", "0"]) == 1
    assert "thread count must be a positive" in capsys.readouterr().err
    assert not out.exists()
    monkeypatch.setenv("LEVYHEAT_THREADS", "2")
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["provenance"]["workers"] == 1
