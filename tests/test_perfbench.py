"""The per-layer benchmark still traces a compute run of the current engine,
and its output checker still passes what the current CLI writes."""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from citeflow.cli import main

ROOT = Path(__file__).resolve().parents[1]


def test_trace_spans_compute_on_fix7(fix7_files, tmp_path):
    nodes, edges, membership = fix7_files
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "trace.py"), str(spans), "compute",
         "--nodes", str(nodes), "--edges", str(edges), "--membership", str(membership),
         "--out", str(tmp_path / "out"), "--threads", "1"],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    names = [span[0] for span in json.loads(spans.read_text())["spans"]]
    assert "dependence.flow_decomposition" in names
    assert "cli.cmd_compute" in names


def test_checker_passes_synth_and_compute_output(tmp_path, monkeypatch):
    # The checker imports refkit.modularity and analytics.DisciplineNetwork
    # from the package, so this also holds those names in place.
    spec = importlib.util.spec_from_file_location(
        "perfbench_check", ROOT / "perfbench" / "check.py"
    )
    check = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, check)  # dataclasses look it up
    spec.loader.exec_module(check)
    inp, out = tmp_path / "in", tmp_path / "out"
    n, m = 300, 1500
    assert main(["synth", "--n", str(n), "--m", str(m), "--k", "5", "--seed", "3",
                 "--out", str(inp)]) == 0
    assert main(["compute", "--nodes", str(inp / "nodes.csv"),
                 "--edges", str(inp / "edges.csv"),
                 "--membership", str(inp / "membership.csv"), "--out", str(out)]) == 0
    inputs = check.read_inputs(inp)
    assert check.check_synth(inputs, n, m) == []
    assert check.check_compute(inputs, check.expected_flows(inputs), out) == []
