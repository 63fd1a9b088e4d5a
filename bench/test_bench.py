"""Tests of the benchmark itself: its closed-form checks and its tracer.

    python3 -m pytest -q bench

Each check passes on a table built from its own closed form and fails when
the reference is perturbed or an order leaves its band.
"""

import json
import math
import os
import sys

import numpy as np
import pytest
from scipy import integrate

import checks
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def _rows(levels, errors, rel_halfwidth=0.01):
    return [(float(lv), float(e), e * (1 - rel_halfwidth),
             e * (1 + rel_halfwidth)) for lv, e in zip(levels, errors)]


# ---------------------------------------------------------------------------
# spatial_b_stable


def _spatial_case():
    study = workloads.spatial_b_stable(1)
    eps = study["model"]["law"]["eps"]
    entry = {"model_info": {"alpha": 0.5, "eps": eps,
                            "intensity": checks.stable_intensity(eps),
                            "residual": checks.stable_residual(eps)}}
    levels = study["levels"]
    tails = [checks.wiener_tail(n, study["n_ref"], study["horizon"])
             for n in levels]
    errors = {p: _rows(levels, tails) for p in study["p_list"]}
    order = -checks.log_slope(levels, tails)
    orders = {p: order for p in study["p_list"]}
    return study, errors, orders, entry


def test_stable_closed_forms_match_direct_quadrature():
    eps = 0.05
    half = integrate.quad(lambda x: x**-1.5 * math.exp(-x), eps, np.inf,
                          epsrel=1e-12, limit=400)[0]
    small = integrate.quad(lambda x: x**0.5 * math.exp(-x), 0.0, eps,
                           epsrel=1e-12)[0]
    assert checks.stable_intensity(eps) == pytest.approx(2 * half, rel=1e-10)
    assert checks.stable_residual(eps) == pytest.approx(2 * small, rel=1e-10)


def test_spatial_check_passes_on_its_closed_forms():
    assert checks.check_spatial(*_spatial_case()) == []


@pytest.mark.parametrize("name", ["stable_intensity", "stable_residual"])
def test_spatial_check_fails_on_quadrature_off_by_1e6(monkeypatch, name):
    case = _spatial_case()
    exact = getattr(checks, name)
    monkeypatch.setattr(checks, name, lambda eps: exact(eps) * (1 + 1e-6))
    fails = checks.check_spatial(*case)
    assert len(fails) == 1 and name.split("_")[1] in fails[0]


def test_spatial_check_fails_on_wiener_tail_scaled_by_1_2(monkeypatch):
    case = _spatial_case()
    exact = checks.wiener_tail
    monkeypatch.setattr(checks, "wiener_tail",
                        lambda *args: 1.2 * exact(*args))
    fails = checks.check_spatial(*case)
    assert len(fails) == 4 and all("Wiener tail" in f for f in fails)


@pytest.mark.parametrize("order", [0.39, 0.66])
def test_spatial_check_fails_on_order_outside_band(order):
    study, errors, orders, entry = _spatial_case()
    orders[2.0] = order
    assert any("spatial order" in f
               for f in checks.check_spatial(study, errors, orders, entry))


# ---------------------------------------------------------------------------
# temporal_a


def _temporal_case(order=0.97):
    study = workloads.temporal_a(1)
    levels = np.asarray(study["levels"])
    errors = {p: _rows(levels, 0.5 * levels**order) for p in study["p_list"]}
    orders = {p: order for p in study["p_list"]}
    return study, errors, orders, {}


def test_first_order_ceiling_of_the_acceptance_levels():
    study = workloads.temporal_a(1)
    assert checks.first_order_ceiling(study["levels"], study["dt_ref"]) == \
        pytest.approx(1.0209, abs=1e-4)


def test_temporal_check_passes_inside_band():
    assert checks.check_temporal(*_temporal_case()) == []


@pytest.mark.parametrize("order", [0.39, 1.03])
def test_temporal_check_fails_on_order_outside_band(order):
    assert checks.check_temporal(*_temporal_case(order))


def test_temporal_check_fails_on_p_dependent_order():
    study, errors, orders, entry = _temporal_case()
    orders[8.0] = orders[2.0] - 0.16
    fails = checks.check_temporal(study, errors, orders, entry)
    assert fails == [f"|order(8) - order(2)| = 0.1600 > {checks.P_GAP}"]


def test_temporal_check_fails_when_errors_do_not_decrease():
    study, errors, orders, entry = _temporal_case()
    rows = errors[4.0]
    rows[1], rows[2] = (rows[1][0],) + rows[2][1:], (rows[2][0],) + rows[1][1:]
    assert checks.check_temporal(study, errors, orders, entry) == [
        "p=4: errors do not decrease strictly with dt"]


# ---------------------------------------------------------------------------
# holder


def _holder_case():
    study = workloads.holder(1)
    levels = study["levels"]
    iso = [checks.holder_isometry(h, study) for h in levels]
    errors = {p: _rows(levels, iso) for p in study["p_list"]}
    orders = {2.0: checks.log_slope(levels, iso), 8.0: 0.14}
    return study, errors, orders, {}


def test_holder_isometry_grows_like_sqrt_h():
    study, _, orders, _ = _holder_case()
    assert 0.45 <= orders[2.0] <= 0.55


def test_holder_check_passes_on_its_closed_form():
    assert checks.check_holder(*_holder_case()) == []


def test_holder_check_fails_on_isometry_scaled_by_1_2(monkeypatch):
    case = _holder_case()
    exact = checks.holder_isometry
    monkeypatch.setattr(checks, "holder_isometry",
                        lambda h, s: 1.2 * exact(h, s))
    assert len(checks.check_holder(*case)) == 6


@pytest.mark.parametrize("p,exponent", [(2.0, 0.39), (2.0, 0.61),
                                        (8.0, 0.06), (8.0, 0.21)])
def test_holder_check_fails_on_exponent_outside_band(p, exponent):
    study, errors, orders, entry = _holder_case()
    orders[p] = exponent
    assert checks.check_holder(study, errors, orders, entry)


def test_standard_error_widens_only_noisy_levels():
    study, errors, orders, entry = _holder_case()
    h, err, lo, hi = errors[2.0][0]
    errors[2.0][0] = (h, 1.2 * err, 1.2 * err - 0.2 * err,
                      1.2 * err + 0.2 * err)
    assert checks.check_holder(study, errors, orders, entry) == []


# ---------------------------------------------------------------------------
# CSV and tracer


def test_read_study_csv():
    text = ("p,level,error,ci_lo,ci_hi\n2.0,4.0,0.1,0.09,0.11\n"
            "p,order,stderr\n2.0,0.5,0.01\n")
    errors, orders = checks.read_study_csv(text)
    assert errors == {2.0: [(4.0, 0.1, 0.09, 0.11)]} and orders == {2.0: 0.5}


def test_tracer_wraps_each_lookup_site_and_restores():
    import levyheat.experiments
    import levyheat.noise
    import levyheat.schemes
    from levyheat import cli
    from tracing import Tracer

    originals = (levyheat.noise.sample_path, levyheat.schemes.restrict_path)
    tracer = Tracer()
    tracer.install()
    try:
        assert levyheat.experiments.sample_path is not originals[0]
        assert levyheat.experiments.sample_path is levyheat.noise.sample_path
        assert levyheat.schemes.restrict_path is not originals[1]
        plans = cli.parse_config(os.path.join(ROOT, "configs",
                                              "example.json"))
        path = levyheat.experiments.sample_path(
            1.0, 0.25, 4, plans[0].model, 7, 3)
        assert path.n_ref == 4
    finally:
        tracer.restore()
    assert (levyheat.noise.sample_path, levyheat.schemes.restrict_path) == \
        originals
    names = [s[0] for s in tracer.spans]
    assert names == ["cli.parse_config", "noise.sample_path", "noise.stream",
                     "noise.sample_jump_skeleton", "noise.stream"]
    top = tracer.spans[1]
    assert top[3] == -1 and all(s[3] == 1 for s in tracer.spans[2:])
    assert all(s[4] == 3 for s in tracer.spans[1:])
    assert all(s[1] <= s[2] for s in tracer.spans)


def test_benchmark_json_lists_what_run_reports():
    from run import END_TO_END
    from tracing import Tracer, layer_metrics

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == \
        list(END_TO_END)
    layers = [(name, unit) for name, (_, unit)
              in layer_metrics(Tracer(), 0, 0).items()]
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == layers


def test_trace_overhead_is_span_count_times_call_cost():
    from tracing import Tracer, call_cost, layer_metrics

    cost = call_cost()
    assert 0.0 < cost < 1e-4
    tracer = Tracer()
    tracer.spans = [["noise.stream", 0.0, 1.0, -1, -1]] * 1000
    overhead = layer_metrics(tracer, 0, 0)["trace.overhead_s"][0]
    assert 100 * cost < overhead < 10000 * cost


# ---------------------------------------------------------------------------
# accounting of a repeat's manifest


def _invocation(tmp_path):
    from run import Invocation

    inv = Invocation("temporal_a", 1, str(tmp_path))
    os.makedirs(inv.out)
    return inv


def _entry(status, **fields):
    entry = {"name": "temporal_a", "samples": 32, "status": status,
             "aborts": 0, "csv": "temporal_a.csv", "model_info": {}}
    entry.update(fields)
    return entry


def test_failed_study_fails_the_checks(tmp_path):
    inv = _invocation(tmp_path)
    inv._account({"studies": [_entry("failed", csv=None, aborts=32,
                                     error="errors must be positive")]})
    assert (inv.attempted, inv.failed) == (32, 32)
    assert inv.problems == [
        "temporal_a: study failed: errors must be positive"]


def test_missing_csv_fails_the_checks(tmp_path):
    inv = _invocation(tmp_path)
    inv._account({"studies": [_entry("ok")]})
    assert (inv.attempted, inv.failed) == (32, 0)
    assert inv.problems == ["temporal_a: no CSV 'temporal_a.csv'"]


def test_missing_study_fails_the_checks(tmp_path):
    inv = _invocation(tmp_path)
    inv._account({"studies": []})
    assert inv.problems == ["the manifest does not list every study"]
