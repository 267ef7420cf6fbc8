"""scipy's CSR kernels come without ``scipy.sparse``, or from it as a fallback."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from scipy import sparse

import citeflow

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_DIR = ROOT / "tests" / "golden" / "fix7"

# Ways to make the load by file path fail, each run before citeflow is
# imported: the extension file is not found, or it will not load.
SABOTAGE = {
    "no-file": "importlib.machinery.EXTENSION_SUFFIXES = []",
    "load-fails": textwrap.dedent("""
        import importlib.util
        real_module_from_spec = importlib.util.module_from_spec
        def refuse(spec):
            if spec.name == "scipy.sparse._sparsetools":
                raise ImportError("refused")
            return real_module_from_spec(spec)
        importlib.util.module_from_spec = refuse
    """),
}


def _run(script: str) -> dict:
    """Run ``script`` in a fresh interpreter; it prints one JSON object."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env,
        cwd=ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _modules_after(command: list[str], prelude: str = "") -> dict:
    return _run(textwrap.dedent(f"""
        import importlib.machinery, json, sys
        {textwrap.indent(prelude, " " * 8).strip()}
        from citeflow import _sparsetools
        from citeflow.cli import main
        code = main({command!r})
        print(json.dumps({{
            "code": code,
            "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
            "shared": _sparsetools.module is sys.modules["scipy.sparse._sparsetools"],
        }}))
    """))


def _compute_args(fix7_files, out: Path) -> list[str]:
    nodes, edges, membership = fix7_files
    return ["compute", "--nodes", str(nodes), "--edges", str(edges),
            "--membership", str(membership), "--out", str(out), "--threads", "1"]


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def test_compute_leaves_scipy_sparse_unimported(fix7_files, tmp_path):
    result = _modules_after(_compute_args(fix7_files, tmp_path / "out"))
    assert result["code"] == 0
    assert result["scipy"] == ["scipy.sparse._sparsetools"]
    assert result["shared"]
    assert _tree_bytes(tmp_path / "out") == _tree_bytes(GOLDEN_DIR)


def test_synth_leaves_scipy_sparse_unimported(tmp_path):
    command = ["synth", "--n", "60", "--m", "150", "--k", "3", "--seed", "1",
               "--out", str(tmp_path / "synth")]
    result = _modules_after(command)
    assert result["code"] == 0
    assert result["scipy"] == ["scipy.sparse._sparsetools"]


@pytest.mark.parametrize("sabotage", sorted(SABOTAGE))
def test_fallback_to_scipy_sparse_gives_the_same_files(fix7_files, tmp_path, sabotage):
    result = _modules_after(_compute_args(fix7_files, tmp_path / "out"), SABOTAGE[sabotage])
    assert result["code"] == 0
    assert "scipy.sparse" in result["scipy"]  # the fallback ran
    assert result["shared"]
    assert _tree_bytes(tmp_path / "out") == _tree_bytes(GOLDEN_DIR)


def test_scipy_sparse_imported_later_shares_the_module():
    result = _run(textwrap.dedent("""
        import json, sys
        import numpy as np
        from citeflow import _sparsetools
        import scipy.sparse
        from scipy.sparse import _sparsetools as theirs
        product = scipy.sparse.csr_matrix(np.eye(3)) @ np.ones((3, 2))
        print(json.dumps({
            "same": theirs is _sparsetools.module,
            "product": product.tolist(),
        }))
    """))
    assert result == {"same": True, "product": [[1.0, 1.0]] * 3}


def test_scipy_sparse_imported_first_is_reused():
    # The test process imported scipy.sparse before citeflow.
    assert citeflow._sparsetools.module is sparse._sparsetools
