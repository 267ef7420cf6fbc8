"""Benchmark for ``citeflow synth`` followed by ``citeflow compute``.

    python3 perfbench/run.py --workload reference|deep|wide --seed N \
        --seconds S --trace 0|1

Run from the root of a citeflow checkout; the program is taken from its
``src`` directory. Each round synthesizes the workload's inputs with
``--seed N`` and runs ``compute`` on them, each in a fresh child process
with an explicit ``--threads``. Rounds repeat until S seconds have gone
by, and at least MIN_ROUNDS times. The first round's files are checked
against flows recomputed by ``check.py``; every later round must
reproduce them byte for byte.

``--trace 0`` reports the end-to-end metrics, medians over the rounds:
``setup_s`` (wall time of ``synth``), ``compute_s`` (wall time of the
``compute`` child, start to exit) and ``peak_rss_mb`` (that child's
``ru_maxrss``). ``--trace 1`` runs ``synth`` and ``compute`` through
``trace.py`` instead and reports the per-layer metrics, plus the tracing
overhead against an untraced ``compute`` of the same round. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Generated files live under
``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
MIN_ROUNDS = 2
COMPUTES = 2
CLI = "from citeflow.cli import entry; entry()"


@dataclass(frozen=True)
class Workload:
    n: int
    m: int
    k: int
    month_span: int

    def synth_args(self, seed: int, out: Path) -> list[str]:
        return ["synth", "--n", str(self.n), "--m", str(self.m), "--k", str(self.k),
                "--seed", str(seed), "--month-span", str(self.month_span),
                "--out", str(out)]

    def compute_args(self, inp: Path, out: Path) -> list[str]:
        # One thread on every workload: on a 2-core shared host the
        # row-block thread pool made ``compute`` on ``deep`` slower and too
        # unsteady to bound (see README.md).
        return ["compute", "--nodes", str(inp / "nodes.csv"),
                "--edges", str(inp / "edges.csv"),
                "--membership", str(inp / "membership.csv"),
                "--out", str(out), "--threads", "1"]


# Why each was chosen is in README.md.
WORKLOADS = {
    "reference": Workload(n=50_000, m=250_000, k=30, month_span=24),
    "deep": Workload(n=12_500, m=250_000, k=30, month_span=120),
    "wide": Workload(n=20_000, m=100_000, k=130, month_span=24),
}

END_TO_END = {"setup_s": "s", "compute_s": "s", "peak_rss_mb": "MiB"}

# Per-layer metrics. "<fn>_s" is the summed duration of the calls the
# CLI command makes to fn directly; propagate and longest_path_length,
# which the CLI never calls itself, sum every call.
DIRECT = (
    "citegraph.parse_nodes", "citegraph.parse_edges", "citegraph.build_graph",
    "citegraph.parse_membership", "dependence.dependence_stack",
    "dependence.flow_decomposition", "dependence.dependence_vector",
    "analytics.order_contributions", "analytics.normalized_flow",
    "analytics.threshold_network", "analytics.detect_communities",
    "analytics.betweenness_centrality", "analytics.rao_entropy",
    "analytics.discipline_summary",
)
PER_LAYER = {
    **{f"{name}_s": "s" for name in DIRECT},
    "citegraph.longest_path_length_s": "s",
    "citegraph.edges_kept": "count",
    "citegraph.longest_path": "count",
    "dependence.build_operator_self_s": "s",
    "dependence.propagate_s": "s",
    "dependence.propagate_calls": "count",
    "dependence.stack_nnz": "count",
    "dependence.stack_mb": "MiB_computed",
    "analytics.positive_edges": "count",
    "cli.write_s": "s",
    "cli.bytes_written": "bytes",
    "cli.files_written": "count",
    "cli.import_s": "s",
    "refkit.random_dag_s": "s",
    "cli.synth_write_s": "s",
}


class ChildFailed(Exception):
    pass


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "CITEFLOW_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv: list[str], log: Path) -> tuple[float, float]:
    """Run argv to its end; return (wall seconds, peak RSS in MiB).

    The RSS comes from ``os.wait4`` on this one child, because
    RUSAGE_CHILDREN keeps the largest of all earlier children.
    """
    with open(log, "wb") as fh:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT,
                                env=_child_env(), cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = log.read_text(errors="replace")[-2000:]
        raise ChildFailed(f"{argv[2:4]} exited with {proc.returncode}:\n{tail}")
    return wall, usage.ru_maxrss / 1024.0


def citeflow(args: list[str], log: Path) -> tuple[float, float]:
    return run_child([sys.executable, "-c", CLI, *args], log)


def traced(args: list[str], spans: Path, log: Path) -> tuple[float, dict]:
    wall, _ = run_child([sys.executable, str(HERE / "trace.py"), str(spans), *args], log)
    return wall, json.loads(spans.read_text())


def digest(directory: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir())}


def _self_time(spans: list, index: int) -> float:
    start, end = spans[index][1], spans[index][2]
    children = sum(s[2] - s[1] for s in spans if s[3] == index)
    return end - start - children


def layer_metrics(compute: dict, synth: dict, out: Path) -> dict[str, float]:
    spans = compute["spans"]
    top = next(i for i, s in enumerate(spans) if s[0] == "cli.cmd_compute")

    def total(name, direct_only=False):
        return sum(s[2] - s[1] for s in spans
                   if s[0] == name and (not direct_only or s[3] == top))

    def count(name, key):
        return sum(s[4][key] for s in spans if s[0] == name)

    metrics = {f"{name}_s": total(name, direct_only=True) for name in DIRECT}
    metrics["citegraph.longest_path_length_s"] = total("citegraph.longest_path_length")
    metrics["citegraph.edges_kept"] = count("citegraph.build_graph", "edges_kept")
    metrics["citegraph.longest_path"] = count("citegraph.longest_path_length",
                                              "longest_path")
    metrics["dependence.build_operator_self_s"] = sum(
        _self_time(spans, i) for i, s in enumerate(spans)
        if s[0] == "dependence.build_operator")
    metrics["dependence.propagate_s"] = total("dependence.propagate")
    metrics["dependence.propagate_calls"] = sum(
        1 for s in spans if s[0] == "dependence.propagate")
    metrics["dependence.stack_nnz"] = count("dependence.dependence_stack", "stack_nnz")
    metrics["dependence.stack_mb"] = count("dependence.dependence_stack",
                                           "stack_bytes") / 2**20
    metrics["analytics.positive_edges"] = count("analytics.threshold_network",
                                                "positive_edges")
    metrics["cli.write_s"] = _self_time(spans, top)
    files = list(out.iterdir())
    metrics["cli.bytes_written"] = sum(p.stat().st_size for p in files)
    metrics["cli.files_written"] = len(files)
    metrics["cli.import_s"] = compute["import_s"]

    s_spans = synth["spans"]
    metrics["refkit.random_dag_s"] = sum(s[2] - s[1] for s in s_spans
                                         if s[0] == "refkit.random_dag")
    metrics["cli.synth_write_s"] = sum(_self_time(s_spans, i)
                                       for i, s in enumerate(s_spans)
                                       if s[0] == "cli.cmd_synth")
    return metrics


class Run:
    """One benchmark run: rounds of synth + compute in a private directory."""

    def __init__(self, name: str, seed: int, trace: bool) -> None:
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.trace = trace
        self.dir = WORK / f"{name}-seed{seed}-trace{int(trace)}-pid{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.samples: dict[str, list[float]] = {}
        self.traced: list[float] = []
        self.spans: list[dict] = []
        self.problems: list[str] = []
        self.kept: dict[str, tuple[Path, dict[str, str]]] = {}
        self.higher_order = 0.0

    def add(self, metric: str, value: float) -> None:
        self.samples.setdefault(metric, []).append(value)

    def round(self, number: int) -> None:
        """Synthesize the inputs once, then compute on them COMPUTES times
        (once untraced and once traced with ``--trace 1``)."""
        wl = self.workload
        inp = self.dir / f"in{number}"
        log = self.dir / "child.log"
        computes = 1 if self.trace else COMPUTES
        try:
            self.attempted += 1
            if self.trace:
                _, synth = traced(wl.synth_args(self.seed, inp),
                                  self.dir / f"synth{number}.json", log)
            else:
                wall, _ = citeflow(wl.synth_args(self.seed, inp), log)
                self.add("setup_s", wall)
            self.keep_or_compare("inputs", inp)
            for i in range(computes):
                out = self.dir / f"out{number}-{i}"
                self.attempted += 1
                wall, rss = citeflow(wl.compute_args(inp, out), log)
                self.add("compute_s", wall)
                self.add("peak_rss_mb", rss)
                self.keep_or_compare("outputs", out)
            if self.trace:
                out = self.dir / f"traced{number}"
                self.attempted += 1
                wall, compute = traced(wl.compute_args(inp, out),
                                       self.dir / f"compute{number}.json", log)
                self.traced.append(wall)
                self.spans.append({"synth": synth, "compute": compute})
                for metric, value in layer_metrics(compute, synth, out).items():
                    self.add(metric, value)
                self.keep_or_compare("outputs", out)
        except ChildFailed as exc:
            # Only the child that failed; the rest of the round is not run.
            self.failed += 1
            print(f"perfbench: {exc}", file=sys.stderr)
        if self.kept.get("inputs", (None,))[0] != inp:
            shutil.rmtree(inp, ignore_errors=True)

    def keep_or_compare(self, kind: str, directory: Path) -> None:
        """Keep the first directory of each kind for checking; later ones
        must match it byte for byte."""
        files = digest(directory)
        if kind not in self.kept:
            self.kept[kind] = (directory, files)
            return
        if files != self.kept[kind][1]:
            self.problems.append(f"{directory.name}: {kind} differ from the first")
        if kind == "outputs":
            shutil.rmtree(directory)

    def check(self) -> None:
        sys.path.insert(0, str(SRC))
        import check

        inp, out = self.kept["inputs"][0], self.kept["outputs"][0]
        inputs = check.read_inputs(inp)
        self.problems += check.check_synth(inputs, self.workload.n, self.workload.m)
        expected = check.expected_flows(inputs)
        self.problems += check.check_compute(inputs, expected, out)
        with open(out / "contributions.csv", newline="") as fh:
            shares = [float(row["l1_share"]) for row in csv.DictReader(fh)]
        self.higher_order = sum(shares[1:])

    def execute(self, seconds: float) -> dict:
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        try:
            started = time.perf_counter()
            number = 0
            # Start another round while at least half of it, going by the
            # mean length of the rounds so far, would fall within ``seconds``.
            while number < MIN_ROUNDS or (
                (time.perf_counter() - started) * (number + 0.5) / number <= seconds
            ):
                number += 1
                self.round(number)
            units = PER_LAYER if self.trace else END_TO_END
            if any(name not in self.samples for name in units):
                raise ChildFailed("no round completed")
            try:
                self.check()
            except (ValueError, KeyError, IndexError, OSError) as exc:
                self.problems.append(f"unreadable output: {exc!r}")
        finally:
            if self.trace and self.spans:
                WORK.mkdir(exist_ok=True)
                (WORK / f"spans-{self.name}-seed{self.seed}.json").write_text(
                    json.dumps(self.spans))
            shutil.rmtree(self.dir, ignore_errors=True)
        metrics = {name: {"value": statistics.median(self.samples[name]),
                          "unit": unit} for name, unit in units.items()}
        return {"correct": not self.problems, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "citeflow" / "cli.py").is_file():
        print(f"perfbench: no citeflow sources under {SRC}", file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed, bool(args.trace))
    try:
        result = run.execute(args.seconds)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for name, values in run.samples.items():
        if name in END_TO_END:
            print(f"samples {name}: {' '.join(f'{v:.3f}' for v in values)}",
                  file=sys.stderr)
    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"higher-order share (orders >= 2, l1): {run.higher_order:.4f}")
    if run.trace:
        untraced = statistics.median(run.samples["compute_s"])
        traced_wall = statistics.median(run.traced)
        print(f"tracing overhead: {traced_wall / untraced - 1:+.2%} "
              f"(traced compute {traced_wall:.3f} s, untraced {untraced:.3f} s)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
