"""Run one citeflow command in this process with a span around each layer call.

    python3 perfbench/trace.py SPANS.json synth|compute ARGS...

Times ``import citeflow.cli``, wraps the public functions of each module
from outside, calls ``cli.main(ARGS)`` and, once it returns, writes the
spans to SPANS.json. A span is ``[name, start, end, parent, counts]``:
seconds on ``time.perf_counter``, the index of the enclosing span (-1 at
the top) and the counts taken from the call's result, or null. The exit
code is that of ``cli.main``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

# Wrapped as module attributes, so every caller that looks the name up
# through the module sees the wrapper. ``dependence`` imports
# ``longest_path_length`` by name, so that binding is wrapped as well.
WRAPPED = {
    "citegraph": ("parse_nodes", "parse_edges", "build_graph", "parse_membership",
                  "longest_path_length"),
    "dependence": ("build_operator", "longest_path_length", "dependence_stack",
                   "propagate", "flow_decomposition", "dependence_vector"),
    "analytics": ("order_contributions", "normalized_flow", "threshold_network",
                  "detect_communities", "betweenness_centrality", "rao_entropy",
                  "discipline_summary"),
    "refkit": ("random_dag",),
    "cli": ("cmd_compute", "cmd_synth"),
}
# Spans named after the module that defines the function.
HOME = {"dependence.longest_path_length": "citegraph.longest_path_length"}


def _stack_counts(stack) -> dict:
    incs = stack.increments
    return {
        "stack_nnz": sum(int(m.nnz) for m in incs),
        "stack_bytes": sum(m.data.nbytes + m.indices.nbytes + m.indptr.nbytes
                           for m in incs),
    }


COUNTS = {
    "citegraph.build_graph": lambda result: {"edges_kept": result[1].edges_kept},
    "citegraph.longest_path_length": lambda result: {"longest_path": int(result)},
    "dependence.dependence_stack": _stack_counts,
    "analytics.threshold_network": lambda result: {"positive_edges": len(result[0].edges)},
}


class Tracer:
    """Collects spans in memory; one open-span stack, as citeflow calls
    no wrapped function from a worker thread."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.open: list[int] = []

    def wrap(self, name: str, fn):
        count = COUNTS.get(name)

        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None,
                               self.open[-1] if self.open else -1, None])
            self.open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.open.pop()
                self.spans[index][2] = time.perf_counter()
            if count is not None:
                self.spans[index][4] = count(result)
            return result

        return traced

    def install(self, modules) -> None:
        for module_name, names in WRAPPED.items():
            module = modules[module_name]
            for attr in names:
                qualified = f"{module_name}.{attr}"
                setattr(module, attr, self.wrap(HOME.get(qualified, qualified),
                                                getattr(module, attr)))


def main(argv: list[str]) -> int:
    spans_path, args = Path(argv[0]), argv[1:]
    started = time.perf_counter()
    from citeflow import analytics, citegraph, cli, dependence, refkit

    import_s = time.perf_counter() - started
    tracer = Tracer()
    tracer.install({"citegraph": citegraph, "dependence": dependence,
                    "analytics": analytics, "refkit": refkit, "cli": cli})
    code = cli.main(args)
    spans_path.write_text(json.dumps({"import_s": import_s, "spans": tracer.spans}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
