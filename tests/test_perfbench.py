"""The per-layer benchmark still traces a compute run of the current engine."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

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
