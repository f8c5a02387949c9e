"""Benchmark of the scx package: one workload per run, in a fresh interpreter.

    python3 scxbench/run.py --workload cli-ladder --seed 1 --seconds 40 --trace 0

Run from the root of a source tree that holds src/scx.  The seed drives only
the generated inputs.  The run sets up SETUP_REPEATS times and reports the
median as setup_s, then repeats measured passes until --seconds would be
exceeded (at least one).  With --trace 0 it prints the end-to-end metrics;
with --trace 1 it alternates untraced and traced passes and prints the
per-layer metrics derived from the traced passes' spans, plus the tracing
overhead.  Every output is checked against independent arithmetic; the last
stdout line is one JSON object, and a wrong output makes the exit code 1.
"""

import argparse
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import types

import calibrate
import tracer as tracing
import wl_census
import wl_ladder
import wl_search
from meter import Meter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOADS = {"cli-ladder": wl_ladder, "census": wl_census, "small-search": wl_search}
SCX_MODULES = ("cli", "census", "collapse", "complexes", "families",
               "reconstruct", "scxio", "subdivision", "verify")
SETUP_REPEATS = 5
# layers timed per ladder rung, for the size-ladder curves
RUNG_LAYERS = ("scxio.read_complex", "complexes.classify_surface",
               "subdivision.sd_k", "collapse.is_endo_collapsible",
               "verify.verify_certificate", "reconstruct.reconstruct")
ITEM_WALLS = ("endo_jobs2", "endo_tries64")
END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "top_rung_s": "s",
                    "item_p50_ms": "ms", "item_p99_ms": "ms",
                    "peak_rss_mb": "MB"}


def per_layer_units():
    """Every per-layer metric name with its unit, in output order."""
    units = {}
    for name in tracing.SPAN_NAMES:
        units[name + ".busy_s"] = "s"
        units[name + ".self_s"] = "s"
        units[name + ".calls"] = "count"
    for name in tracing.COUNT_NAMES:
        units[name] = "count"
    units["verify.pairs_per_s"] = "1/s"
    units["reconstruct.reconstruct.failed"] = "count"
    for label in ITEM_WALLS:
        units["cli.%s.wall_s" % label] = "s"
    for layer in RUNG_LAYERS:
        for rung in wl_ladder.RUNGS:
            units["%s.%s_s" % (layer, rung)] = "s"
    units["trace.spans"] = "count"
    units["trace.overhead_s"] = "s"
    units["trace.overhead_frac"] = "ratio"
    return units


def import_scx():
    """Import scx from the source tree afresh, as a namespace of its modules."""
    for name in [m for m in sys.modules if m == "scx" or m.startswith("scx.")]:
        del sys.modules[name]
    importlib.import_module("scx")
    return types.SimpleNamespace(**{m: importlib.import_module("scx." + m)
                                    for m in SCX_MODULES})


def _beta_cf(a, b, x):
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 10000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-12:
            return h
    raise ArithmeticError("incomplete beta did not converge")


def _beta_cdf(a, b, x):
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def percentile(values, q):
    """Harrell-Davis estimate of the q-quantile.

    A weighted mean of all order statistics, with Beta((n+1)q, (n+1)(1-q))
    weights.  Unlike a single order statistic it does not jump across the
    gaps between the latency clusters of different commands.  Ranks more
    than 12 standard deviations from q*n carry no weight worth computing.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    spread = 12 * math.sqrt(n * q * (1 - q)) + 2
    lo = max(0, int(n * q - spread))
    hi = min(n, int(n * q + spread) + 1)
    total = 0.0
    prev = _beta_cdf(a, b, lo / n)
    for i in range(lo, hi):
        cur = _beta_cdf(a, b, (i + 1) / n)
        total += (cur - prev) * ordered[i]
        prev = cur
    return total


def layer_metrics(trace, meter, units):
    """Per-layer metrics of one traced pass, times rescaled like the items'."""
    scale = meter.clock.scale if meter.clock is not None else (lambda s, e: 1.0)
    out = dict.fromkeys(units, 0.0)
    for name, (busy, own, calls) in trace.layer_times(scale).items():
        out[name + ".busy_s"] = busy
        out[name + ".self_s"] = own
        out[name + ".calls"] = calls
    for name in tracing.COUNT_NAMES:
        out[name] = trace.counts[name]
    busy = out["verify.verify_certificate.busy_s"]
    out["verify.pairs_per_s"] = out["verify.pairs"] / busy if busy else 0.0
    out["reconstruct.reconstruct.failed"] = sum(
        1 for s in trace.spans if s[0] == "reconstruct.reconstruct" and s[5])
    for label in ITEM_WALLS:
        out["cli.%s.wall_s" % label] = meter.stage_seconds(
            lambda lab, rung: lab == label)
    for name, start, end, _, item, _ in trace.spans:
        if name in RUNG_LAYERS and item is not None:
            rung = meter.items[item][1]
            if rung in wl_ladder.RUNGS:
                out["%s.%s_s" % (name, rung)] += (end - start) * scale(start, end)
    out["trace.spans"] = len(trace.spans)
    return out


def git_commit():
    """Commit of the source tree, read from .git without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_lines():
    """Non-blank lines of the Python files in src/scx."""
    pkg = os.path.join(SRC, "scx")
    total = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                total += sum(1 for line in fh if line.strip())
    return total


def run(workload, seed, seconds, trace, workdir):
    """Set up, measure and check one workload; returns the result dict."""
    wl = WORKLOADS[workload]
    limit_start = sys.getrecursionlimit()
    clock = calibrate.Clock()
    setups = []
    for _ in range(SETUP_REPEATS):
        clock.tick(force=True)
        t0 = time.perf_counter()
        mods = import_scx()
        inputs = wl.make_inputs(mods, seed, workdir)
        t1 = time.perf_counter()
        clock.tick(force=True)
        setups.append((t1 - t0) * clock.scale(t0, t1))

    units = per_layer_units()
    untraced, traced = [], []
    errors, failures = [], []
    counts = {}
    attempted = failed = 0
    t_start = time.perf_counter()
    rounds = 0
    while True:
        for with_trace in ((False, True) if trace else (False,)):
            spans = tracing.Tracer() if with_trace else None
            if spans is not None:
                spans.install(mods)
            meter = Meter(spans, clock)
            try:
                if spans is not None:
                    # traced inputs, so that set-up layers show up in the spans
                    inputs = wl.make_inputs(mods, seed, workdir)
                wl.run_pass(mods, inputs, meter)
            finally:
                if spans is not None:
                    spans.uninstall()
            clock.tick(force=True)
            attempted += meter.attempted
            failed += meter.failed
            errors.extend(meter.errors)
            failures.extend(meter.failures)
            key = "traced" if with_trace else "untraced"
            if counts.setdefault(key, dict(meter.counts)) != dict(meter.counts):
                errors.append("exact counts differ between passes")
            if spans is not None:
                for name, value in meter.counts.items():
                    if spans.counts[name] != value:
                        errors.append("traced %s is %d, the outputs give %d"
                                      % (name, spans.counts[name], value))
                traced.append((meter, layer_metrics(spans, meter, units)))
                last_trace = (spans, meter)
            else:
                untraced.append(meter)
        rounds += 1
        elapsed = time.perf_counter() - t_start
        if elapsed + elapsed / rounds > seconds:
            break
    if trace and counts["traced"] != counts["untraced"]:
        errors.append("exact counts differ between traced and untraced passes")

    run_s = statistics.median(m.run_s for m in untraced)
    if trace:
        metrics = {name: (statistics.median(lm[name] for _, lm in traced), unit)
                   for name, unit in units.items()}
        traced_run_s = statistics.median(m.run_s for m, _ in traced)
        metrics["trace.overhead_s"] = (traced_run_s - run_s, "s")
        metrics["trace.overhead_frac"] = ((traced_run_s - run_s) / run_s, "ratio")
        os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
        last_trace[0].write(os.path.join(
            ROOT, ".bench_out", "spans-%s.tsv" % workload),
            last_trace[1].items)
    else:
        # each item's median over the passes, so a burst of host noise in one
        # pass does not land in the tail
        items = [statistics.median(s for _, _, s in same)
                 for same in zip(*(m.scaled() for m in untraced))
                 if wl.latency_item(same[0][0])]
        values = {
            "setup_s": statistics.median(setups),
            "run_s": run_s,
            "top_rung_s": statistics.median(
                m.stage_seconds(wl.top_rung) for m in untraced),
            "item_p50_ms": 1000 * percentile(items, 0.50),
            "item_p99_ms": 1000 * percentile(items, 0.99),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}

    meta = {
        "workload": workload, "seed": seed, "trace": trace,
        "commit": git_commit(), "python": sys.version.split()[0],
        "nproc": os.cpu_count(), "src_scx_lines": source_lines(),
        "why": workload_why(workload),
        "passes_untraced": len(untraced), "passes_traced": len(traced),
        "items_per_pass": len(untraced[0].items),
        "recursionlimit_start": limit_start,
        "recursionlimit_end": sys.getrecursionlimit(),
        "counts": counts["untraced"],
        "run_s_unscaled": statistics.median(
            sum(s for _, _, s in m.items) for m in untraced),
        "reference_sample_s": statistics.median(clock.samples),
    }
    return {"meta": meta, "metrics": metrics, "attempted": attempted,
            "failed": failed, "failures": failures, "errors": errors}


def workload_why(workload):
    """The one-line reason for the workload, as BENCHMARK.json records it."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return next(w["why"] for w in spec["workloads"] if w["name"] == workload)


def report(result, out=None):
    """Human-readable lines, then the one-line JSON result."""
    out = out or sys.stdout
    meta = result["meta"]
    print("# meta %s" % json.dumps(meta, sort_keys=True), file=out)
    for name, (value, unit) in result["metrics"].items():
        print("# %s %.6g %s" % (name, value, unit), file=out)
    att, fail = result["attempted"], result["failed"]
    print("# failed_frac %.6g ratio (%d failed / %d attempted)"
          % (fail / att if att else 0.0, fail, att), file=out)
    for line in result["failures"]:
        print("# failed: %s" % line, file=out)
    for line in result["errors"]:
        print("# WRONG: %s" % line, file=out)
    print(json.dumps({
        "correct": not result["errors"],
        "attempted": att,
        "failed": fail,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }), file=out)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "scx", "__init__.py")):
        print("scx sources not found under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    base = os.path.join(ROOT, ".bench_work")
    os.makedirs(base, exist_ok=True)
    workdir = os.path.join(base, "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(workdir)
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report(result)
    return 1 if result["errors"] else 0


if __name__ == "__main__":
    sys.exit(main())
