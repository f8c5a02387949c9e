"""Tests of the benchmark itself.

    python3 -m pytest -q scxbench/test_bench.py

Passes run on short ladders so the file finishes in seconds; the checks
they exercise are the ones every full run makes.
"""

import gc
import io
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import calibrate  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import wl_ladder  # noqa: E402
import wl_search  # noqa: E402
from meter import Meter  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
SHORT = tuple(f for f in wl_ladder.FAMILIES if f.name in ("oct", "tri"))
SHORT = tuple(wl_ladder.Family(**{**f.__dict__, "rounds": 2}) for f in SHORT)


@pytest.fixture()
def mods():
    return run.import_scx()


@pytest.fixture()
def workdir(tmp_path):
    return str(tmp_path)


def ladder_pass(mods, workdir, trace=None):
    meter = Meter(trace)
    inputs = wl_ladder.make_inputs(mods, 7, workdir, SHORT)
    wl_ladder.run_pass(mods, inputs, meter, SHORT)
    return meter


def test_metric_names_and_units_match_the_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.END_TO_END_UNITS
    assert layers == run.per_layer_units()
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert len(layers) <= 128
    for name in list(e2e) + list(layers):
        assert NAME.match(name), name


def test_report_prints_every_metric_with_its_unit():
    units = run.per_layer_units()
    result = {"meta": {}, "attempted": 4, "failed": 1, "failures": ["x"],
              "errors": [], "metrics": {n: (1.5, u) for n, u in units.items()}}
    out = io.StringIO()
    run.report(result, out)
    lines = out.getvalue().splitlines()
    for name, unit in units.items():
        assert "# %s 1.5 %s" % (name, unit) in lines
    assert "# failed_frac 0.25 ratio (1 failed / 4 attempted)" in lines
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True
    assert last["metrics"]["verify.pairs_per_s"] == {"value": 1.5, "unit": "1/s"}


def test_reference_loop_rescales_and_leaves_the_collector_alone():
    clock = calibrate.Clock()
    clock.times, clock.samples = [1.0, 2.0, 9.0], [0.02, 0.02, 0.005]
    assert clock.scale(1.5, 1.6) == calibrate.REFERENCE_S / 0.02
    assert clock.scale(9.5, 9.6) == calibrate.REFERENCE_S / 0.005
    assert clock.scale(5.0, 5.1) == calibrate.REFERENCE_S / 0.005  # nearest
    before = gc.get_count()[0]
    calibrate.sample()
    assert abs(gc.get_count()[0] - before) < 10


def test_short_ladder_is_correct(mods, workdir):
    meter = ladder_pass(mods, workdir)
    assert meter.errors == []
    assert meter.failed == 0
    # generate, then five commands per rung, then the two --tries 64 runs
    assert meter.attempted == len(SHORT) * (1 + 2 * wl_ladder.OPS_PER_RUNG) + 2


def test_tampered_certificate_fails_the_run(mods, workdir):
    original = mods.cli.certificate_to_text

    def drop_a_pair(cert):
        lines = original(cert).splitlines(keepends=True)
        first = next(i for i, line in enumerate(lines) if line.startswith("collapse"))
        return "".join(lines[:first] + lines[first + 1:])

    mods.cli.certificate_to_text = drop_a_pair
    meter = ladder_pass(mods, workdir)
    assert any("verify-cert says" in e for e in meter.errors)
    assert any("certificate has" in e for e in meter.errors)
    out = io.StringIO()
    run.report({"meta": {}, "metrics": {}, "attempted": meter.attempted,
                "failed": meter.failed, "failures": [], "errors": meter.errors}, out)
    assert json.loads(out.getvalue().splitlines()[-1])["correct"] is False


def test_wrong_facet_count_fails_the_run(mods, workdir):
    original = mods.cli.sd_k

    def drop_a_facet(complex, k, **kwargs):
        out = original(complex, k, **kwargs)
        out.complex = mods.complexes.SimplicialComplex(out.complex.facets[1:])
        return out

    mods.cli.sd_k = drop_a_facet
    meter = ladder_pass(mods, workdir)
    assert any("sd wrote" in e for e in meter.errors)


def test_raising_operation_counts_as_failed_and_the_pass_goes_on(mods, workdir):
    def overflow(complex):
        raise RecursionError("maximum recursion depth exceeded")

    mods.cli.reconstruct = overflow
    meter = ladder_pass(mods, workdir)
    rungs = sum(f.rounds for f in SHORT)
    assert meter.failed == rungs
    assert meter.errors == []
    assert sum(1 for label, _, _ in meter.items if label == "verify-cert") == rungs


@pytest.mark.parametrize("workload", ["cli-ladder", "small-search"])
def test_traced_and_untraced_passes_report_the_same_counts(mods, workdir, workload):
    def one_pass(trace):
        if workload == "cli-ladder":
            return ladder_pass(mods, workdir, trace)
        meter = Meter(trace)
        inputs = wl_search.make_inputs(mods, 3, workdir)
        wl_search.run_pass(mods, inputs, meter)
        return meter

    plain = one_pass(None)
    spans = tracer.Tracer()
    spans.install(mods)
    try:
        traced = one_pass(spans)
    finally:
        spans.uninstall()
    assert plain.errors == traced.errors == []
    assert plain.counts and plain.counts == traced.counts
    for name, value in plain.counts.items():
        assert spans.counts[name] == value, name
    metrics = run.layer_metrics(spans, traced, run.per_layer_units())
    assert set(metrics) == set(run.per_layer_units())
    if workload == "cli-ladder":
        assert metrics["cli.calls"] == len(traced.items)
        assert 0 < metrics["cli.self_s"] < metrics["cli.busy_s"]
        assert metrics["subdivision.sd_k.oct2_s"] > 0
        assert metrics["cli.endo_jobs2.wall_s"] > 0
    else:
        assert metrics["collapse.collapses_to.calls"] == len(plain.items) - 1430
        assert metrics["collapse.dfs_nodes"] == plain.counts["collapse.dfs_nodes"]


def test_wrappers_are_removed_after_a_traced_pass(mods):
    before = mods.cli.main, mods.census.canonical_label
    before_method = mods.complexes.SimplicialComplex.dual_graph
    spans = tracer.Tracer()
    spans.install(mods)
    spans.uninstall()
    assert (mods.cli.main, mods.census.canonical_label) == before
    assert mods.complexes.SimplicialComplex.dual_graph is before_method


def test_run_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "scxbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "scxbench/run.py", "--workload", "census",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
