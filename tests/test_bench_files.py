"""Every committed BENCH_<n>.json holds the benchmark's metrics.

A BENCH file records scxbench/run.py on every workload of BENCHMARK.json at
one seed: for each workload, the `# meta` line and the last JSON line of a
`--trace 0` run (the end-to-end metrics) and of a `--trace 1` run (the
per-layer metrics).  The per-layer metrics come from spans that
scxbench/tracer.py wraps around named bindings in the package, so every
binding it names must exist.
"""

import importlib.util
import json
import pathlib

from scx.complexes import SimplicialComplex

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_bench_files_name_every_benchmark_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: [m["name"] for m in spec["end_to_end"]],
              1: [m["name"] for m in spec["per_layer"]]}
    files = sorted(ROOT.glob("BENCH_*.json"))
    assert files
    for path in files:
        bench = json.loads(path.read_text())
        for workload in spec["workloads"]:
            runs = bench["runs"][workload["name"]]
            for trace, names in wanted.items():
                run = runs["trace%d" % trace]
                assert (run["meta"]["workload"], run["meta"]["trace"],
                        run["meta"]["seed"]) == (workload["name"], trace,
                                                 bench["seed"]), path.name
                assert run["result"]["correct"], path.name
                missing = [n for n in names if n not in run["result"]["metrics"]]
                assert not missing, (path.name, workload["name"], missing)


def test_every_traced_binding_exists():
    spec = importlib.util.spec_from_file_location(
        "tracer", ROOT / "scxbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module, name, _ in tracer.FUNCTIONS:
        assert hasattr(importlib.import_module("scx." + module), name), (
            module, name)
    for name, _ in tracer.METHODS:
        assert name in SimplicialComplex.__dict__, name
