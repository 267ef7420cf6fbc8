"""Self-test of the benchmark's output checks on a tiny input.

    python3 perfbench/selftest.py

Synthesizes a 300-node input, runs ``citeflow compute`` on it, and
shows that the checks pass on the untouched output and fail once one
cell of ``M_1.csv`` or ``r.csv`` is altered, or once a stale ``M_i``
file from an earlier run sits in the directory. Exits 0 when every case
comes out as expected. Takes a few seconds.
"""

from __future__ import annotations

import csv
import os
import shutil
import sys
from pathlib import Path

import run

TINY = run.Workload(n=300, m=1500, k=5, month_span=24)


def _alter_cell(path: Path) -> None:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    rows[1][1] = f"{float(rows[1][1]) * 1.000001 + 1e-9:.12g}"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _add_stale(out: Path) -> None:
    last = max(int(p.stem[2:]) for p in out.glob("M_*.csv"))
    shutil.copy(out / "M_1.csv", out / f"M_{last + 1}.csv")


CASES = {
    "untouched output": None,
    "one cell of M_1.csv altered": lambda out: _alter_cell(out / "M_1.csv"),
    "one cell of r.csv altered": lambda out: _alter_cell(out / "r.csv"),
    "stale M_i file left over": _add_stale,
}


def main() -> int:
    if not (run.SRC / "citeflow" / "cli.py").is_file():
        print(f"selftest: no citeflow sources under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    import check

    work = run.WORK / f"selftest-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inp, out = work / "in", work / "out"
        run.citeflow(TINY.synth_args(3, inp), work / "child.log")
        run.citeflow(TINY.compute_args(inp, out), work / "child.log")
        inputs = check.read_inputs(inp)
        expected = check.expected_flows(inputs)
        ok = not check.check_synth(inputs, TINY.n, TINY.m)
        for case, damage in CASES.items():
            target = work / "case"
            shutil.rmtree(target, ignore_errors=True)
            shutil.copytree(out, target)
            if damage is not None:
                damage(target)
            problems = check.check_compute(inputs, expected, target)
            as_expected = bool(problems) == (damage is not None)
            ok &= as_expected
            verdict = "caught" if problems else "passed"
            print(f"{'ok  ' if as_expected else 'FAIL'} {case}: {verdict}"
                  + (f" ({problems[0]})" if problems else ""))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
