"""The demo scripts run to the end and print their key results.

Each demo runs in a fresh interpreter with the package's source directory on
its path, as a reader would run it from a checkout.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = os.path.join(ROOT, "demos")

KEY_LINES = {
    "01_complexes.py": "octahedron: closed-surface orientable: True genus: 0",
    "02_subdivision.py": "octahedron: predicted 48 facets, got 48",
    "03_collapse.py": "octahedron endo-collapsible: yes removing (0, 2, 4)",
    "04_reconstruction.py": "isomorphic to the original octahedron: True",
    "05_families.py": "torus-quotient r = 2 : 4 facets, 0 types",
    "06_census.py": "n = 7 (genus 1): 1 found, endo-collapsible: no "
                    "min facets: 14 bound: 72057594037927936",
}


@pytest.mark.parametrize("demo", sorted(f for f in os.listdir(DEMOS)
                                         if f.endswith(".py")))
def test_demo_runs(demo):
    path = os.environ.get("PYTHONPATH")
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    run = subprocess.run([sys.executable, os.path.join(DEMOS, demo)],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert KEY_LINES[demo] in run.stdout.splitlines()
