"""Command-line pipeline: validate inputs, compute artifacts, synthesize data.

All outputs are plain files with stable formatting (numbers carry 12
significant digits), so repeated runs produce byte-identical
artifacts. Stage progress goes to stderr, one line per stage.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import os
import re
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from . import analytics, citegraph, dependence, refkit


def _fmt(x) -> str:
    return "%.12g" % (float(x) + 0.0)  # + 0.0 turns -0.0 into 0.0


# The per-order flow files that compute writes, M_1.csv, M_2.csv, ...
_ORDER_FILE = re.compile(r"M_[0-9]+\.csv")


def _log(msg: str) -> None:
    print(f"[citeflow] {msg}", file=sys.stderr)


def _peak_rss() -> str:
    """This process's peak resident set size so far, for the stage log."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    unit = 1 if sys.platform == "darwin" else 1 << 10  # bytes on macOS, else KiB
    return f"peak RSS {peak * unit / (1 << 20):.1f} MiB"


def _ingest(nodes_path, edges_path, membership_path):
    nodes, node_warnings = citegraph.parse_nodes(nodes_path)
    try:
        # build_graph resolves the edge table a block at a time, so only one
        # block's id strings are alive at once.
        graph, report = citegraph.build_graph(nodes, citegraph.parse_edges(edges_path))
    except citegraph.UnknownIdError as exc:
        raise exc.at(edges_path) from None
    membership, mem_warnings = citegraph.parse_membership(membership_path, graph)
    all_warnings = tuple(node_warnings) + report.warnings + tuple(mem_warnings)
    report = dataclasses.replace(report, warnings=all_warnings)
    return graph, membership, report


def cmd_validate(nodes_path, edges_path, membership_path) -> int:
    """Ingest everything, print the report, exit 0 (fatal errors exit 2)."""
    graph, membership, report = _ingest(nodes_path, edges_path, membership_path)
    print(f"nodes: {graph.n}")
    print(
        f"edges: {graph.m} (read {report.edges_read}, "
        f"synchronous discarded {report.synchronous_edges_discarded}, "
        f"duplicates discarded {report.duplicate_edges_discarded})"
    )
    print(f"longest path: {citegraph.longest_path_length(graph)}")
    print(f"disciplines: {membership.k}")
    print(f"warnings: {len(report.warnings)}")
    for text in report.warnings[:50]:
        print(f"  {text}")
    if len(report.warnings) > 50:
        print(f"  ... {len(report.warnings) - 50} more")
    return 0


# A character that can make the csv module quote a field.
_QUOTE_CANDIDATE = re.compile(r'[,"\r\n]')


def _csv_fields(fields: list[str]) -> list[str]:
    r"""``fields`` as the csv module writes each, as the first of a two-field row.

    The csv module quotes a field that holds a character of its line
    terminator, so a ``"\r\n"`` terminator quotes a lone ``\r`` as well,
    which a reader would otherwise take for the end of the row.
    """
    if not _QUOTE_CANDIDATE.search("".join(fields)):
        return fields
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\r\n")
    quoted = []
    for field in fields:
        buffer.seek(0)
        buffer.truncate()
        writer.writerow((field, ""))
        quoted.append(buffer.getvalue()[:-3])  # drop ",\r\n": the empty second field
    return quoted


def _write_table(path: Path, header: list[str], texts, numbers) -> None:
    """Write one CSV table: ``header``, then one row per record.

    A row holds the record's text columns (``texts``, lists of str),
    then its numeric columns (a row of the 2-D float array
    ``numbers``), each with 12 significant digits and -0 as 0. Text
    fields and the header are quoted as the csv module quotes them.
    Every table has at least two columns, so no row is one empty field.
    """
    values = (np.asarray(numbers, dtype=np.float64) + 0.0).T.tolist()
    template = ",".join(["%s"] * len(texts) + ["%.12g"] * len(values)) + "\n"
    columns = [_csv_fields(column) for column in texts] + values
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(_csv_fields(header)) + "\n")
        fh.write("".join(map(template.__mod__, zip(*columns, strict=True))))


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _dot_text(name, labels, net, community_of) -> str:
    lines = [f"graph {name} {{"]
    for idx, label in enumerate(labels):
        lines.append(f'  "{_dot_escape(label)}" [color={community_of[idx]}];')
    for (u, v), w in sorted(net.edges.items()):
        lines.append(
            f'  "{_dot_escape(labels[u])}" -- "{_dot_escape(labels[v])}" '
            f'[weight={_fmt(w)}, label="{_fmt(w)}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def _svg_text(contrib: analytics.OrderContributions) -> str:
    width, height = 800, 400
    left, top = 60.0, 30.0
    plot_w, plot_h = 720.0, 320.0
    x_axis_y = top + plot_h
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'  <rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'  <text x="400.00" y="20.00" text-anchor="middle" font-family="monospace" '
        f'font-size="14">citation flow share by path order ({contrib.norm_kind})</text>',
        f'  <line x1="{left:.2f}" y1="{top:.2f}" x2="{left:.2f}" y2="{x_axis_y:.2f}" '
        f'stroke="black"/>',
        f'  <line x1="{left:.2f}" y1="{x_axis_y:.2f}" x2="{left + plot_w:.2f}" '
        f'y2="{x_axis_y:.2f}" stroke="black"/>',
    ]
    for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = x_axis_y - tick * plot_h
        parts.append(
            f'  <line x1="{left - 5:.2f}" y1="{y:.2f}" x2="{left:.2f}" y2="{y:.2f}" '
            f'stroke="black"/>'
        )
        parts.append(
            f'  <text x="{left - 8:.2f}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="monospace" font-size="11">{tick:.2f}</text>'
        )
    count = len(contrib.shares)
    if count:
        slot = plot_w / count
        bar_w = slot * 0.6
        for i, share in enumerate(contrib.shares):
            bar_h = share * plot_h
            x = left + slot * i + slot * 0.2
            y = x_axis_y - bar_h
            parts.append(
                f'  <rect x="{x:.2f}" y="{y:.2f}" width="{bar_w:.2f}" '
                f'height="{bar_h:.2f}" fill="steelblue"/>'
            )
            parts.append(
                f'  <text x="{x + bar_w / 2:.2f}" y="{y - 5:.2f}" text-anchor="middle" '
                f'font-family="monospace" font-size="11">{share:.4f}</text>'
            )
            parts.append(
                f'  <text x="{x + bar_w / 2:.2f}" y="{x_axis_y + 16:.2f}" '
                f'text-anchor="middle" font-family="monospace" font-size="11">{i + 1}</text>'
            )
    parts.append(
        f'  <text x="{left + plot_w / 2:.2f}" y="{height - 12:.2f}" text-anchor="middle" '
        f'font-family="monospace" font-size="12">path length (order)</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_compute(args: argparse.Namespace) -> int:
    """Run the full pipeline and write its artifacts into the output dir.

    ``args`` holds the parsed ``compute`` options. The files are
    written into a temporary directory inside ``args.out`` and moved
    into place only when all of them are written; order files
    (``M_<i>.csv``) that an earlier run left beyond this run's orders
    are then removed. A failed run leaves the output directory as it
    was. Files that compute does not write are kept.
    """
    started = time.perf_counter()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if not os.access(out_dir, os.W_OK):
        raise OSError(f"output directory {out_dir} is not writable")
    staging = Path(tempfile.mkdtemp(prefix=".citeflow-", dir=out_dir))
    try:
        names = _write_results(args, staging)
        for name in names:
            os.replace(staging / name, out_dir / name)
        for stale in out_dir.iterdir():
            if _ORDER_FILE.fullmatch(stale.name) and stale.name not in names:
                stale.unlink()
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    elapsed = time.perf_counter() - started
    _log(f"wrote {len(names)} files to {out_dir} in {elapsed:.2f}s")
    return 0


def _write_results(args: argparse.Namespace, out_dir: Path) -> list[str]:
    """Compute every artifact into ``out_dir``; return the file names."""
    graph, membership, report = _ingest(args.nodes, args.edges, args.membership)
    _log(
        f"graph: n={graph.n} m={graph.m} "
        f"synchronous={report.synchronous_edges_discarded} "
        f"duplicates={report.duplicate_edges_discarded} "
        f"warnings={len(report.warnings)}, {_peak_rss()}"
    )
    operator = dependence.build_operator(graph)
    _log(f"operator: longest path {operator.order_bound}")
    decomp = dependence.flow_decomposition(operator, membership, args.max_order)
    work = sum(dependence.edge_work(operator, o) for o in decomp.group_orders)
    full = sum(decomp.group_orders) * graph.m
    groups = len(decomp.group_orders)
    _log(
        f"dependence: {decomp.order_count} orders beyond the identity, "
        f"edge work {work} of {full} ({work / full if full else 0.0:.3f}), "
        f"in {groups} column group{'s' if groups != 1 else ''}, {_peak_rss()}"
    )

    flow = decomp.total
    contrib_l1 = analytics.order_contributions(decomp, analytics.ENTRYWISE_L1)
    contrib_fro = analytics.order_contributions(decomp, analytics.FROBENIUS)
    norm = analytics.normalized_flow(flow)
    positive, negative = analytics.threshold_network(
        norm.normalized, args.hi_pct, args.lo_pct
    )
    communities = analytics.detect_communities(positive)
    betweenness = analytics.betweenness_centrality(positive)
    rao = analytics.rao_entropy(flow)
    summary = analytics.discipline_summary(flow, membership.sizes())
    zero_weight = sum(w == 0.0 for w in positive.edges.values())
    _log(
        f"analytics: k={membership.k} communities={len(communities)} "
        f"positive_edges={len(positive.edges)} zero_weight={zero_weight}"
    )

    labels = membership.labels
    community_of = {}
    for number, group in enumerate(communities, start=1):
        for member in group:
            community_of[member] = number

    written: list[str] = []

    def write_table(name: str, header, texts, numbers) -> None:
        written.append(name)
        _write_table(out_dir / name, header, texts, numbers)

    def write_matrix(name: str, matrix) -> None:
        write_table(name, ["discipline", *labels], [labels], matrix)

    def write_text(name: str, text: str) -> None:
        written.append(name)
        (out_dir / name).write_text(text, encoding="utf-8")

    write_matrix("F.csv", decomp.total)
    write_matrix("F0.csv", decomp.identity_flow)
    for i, order_flow in enumerate(decomp.order_flows, start=1):
        write_matrix(f"M_{i}.csv", order_flow)
    write_table(
        "contributions.csv",
        ["order", "l1_norm", "l1_share", "frob_norm", "frob_share"],
        [],
        np.column_stack([
            np.arange(1, len(contrib_l1.norms) + 1), contrib_l1.norms,
            contrib_l1.shares, contrib_fro.norms, contrib_fro.shares,
        ]),
    )
    write_matrix("E.csv", norm.expected)
    write_matrix("fhat.csv", norm.normalized)
    write_table(
        "summary.csv",
        ["discipline", "size", "self_flow", "incoming_flow", "outgoing_flow"],
        [[labels[row.discipline] for row in summary]],
        [[row.size, row.self_flow, row.incoming_flow, row.outgoing_flow]
         for row in summary],
    )
    write_table("r.csv", ["id", "dependence"], [graph.node_ids], decomp.r[:, None])
    write_table(
        "communities.csv",
        ["discipline", "community"],
        [labels],
        [[community_of[v]] for v in range(membership.k)],
    )
    write_table("betweenness.csv", ["discipline", "betweenness"], [labels],
                betweenness[:, None])
    write_table("rao.csv", ["discipline", "score"], [labels], rao.scores[:, None])
    write_text("positive.dot", _dot_text("positive", labels, positive, community_of))
    write_text("negative.dot", _dot_text("negative", labels, negative, community_of))
    chosen = contrib_l1 if args.norm == analytics.ENTRYWISE_L1 else contrib_fro
    write_text("contributions.svg", _svg_text(chosen))
    return written


def cmd_synth(spec: refkit.SynthSpec, out_dir) -> int:
    """Generate a synthetic dataset as the three input CSV files."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    graph, membership = refkit.random_dag(spec)
    ids = np.array(graph.node_ids)
    years, months = np.divmod(graph.time_keys, 12)
    _write_table(
        out / "nodes.csv", list(citegraph.NODE_HEADER), [graph.node_ids],
        np.column_stack([years, months + 1]),
    )
    citing = ids[np.repeat(np.arange(graph.n), graph.outdegree)]
    _write_table(
        out / "edges.csv", list(citegraph.EDGE_HEADER),
        [citing.tolist(), ids[graph.indices].tolist()], np.empty((graph.m, 0)),
    )
    rows = np.repeat(np.arange(membership.n), np.diff(membership.indptr))
    _write_table(
        out / "membership.csv", list(citegraph.MEMBERSHIP_HEADER),
        [ids[rows].tolist(), np.array(membership.labels)[membership.indices].tolist()],
        membership.data[:, None],
    )
    _log(f"synthesized n={graph.n} m={graph.m} k={membership.k} into {out}")
    return 0


def _positive_int(value: str) -> int:
    try:
        parsed = int(value)
    except ValueError:
        parsed = 0
    if parsed < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value!r}")
    return parsed


def _max_order_arg(value: str):
    return dependence.AUTO if value.lower() == "auto" else _positive_int(value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="citeflow",
        description="Higher-order citation influence over citation DAGs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    validate = sub.add_parser("validate", help="ingest inputs and report, no outputs")
    compute = sub.add_parser("compute", help="run the pipeline and write artifacts")
    synth = sub.add_parser("synth", help="generate a synthetic dataset")

    for p in (validate, compute):
        p.add_argument("--nodes", required=True, type=Path, help="nodes.csv path")
        p.add_argument("--edges", required=True, type=Path, help="edges.csv path")
        p.add_argument(
            "--membership", required=True, type=Path, help="membership.csv path"
        )
    compute.add_argument("--out", required=True, type=Path, help="output directory")
    compute.add_argument(
        "--max-order",
        type=_max_order_arg,
        default=dependence.AUTO,
        help="AUTO (default) or a positive path-length cap",
    )
    compute.add_argument(
        "--norm",
        choices=[analytics.ENTRYWISE_L1, analytics.FROBENIUS],
        default=analytics.ENTRYWISE_L1,
        help="which share column drives the SVG chart (both land in the CSV)",
    )
    compute.add_argument("--hi-pct", type=int, default=90)
    compute.add_argument("--lo-pct", type=int, default=10)
    compute.add_argument(
        "--threads",
        type=_positive_int,
        default=None,
        help="accepted for compatibility and must be >= 1. The engine is "
        "single-threaded, so the value changes neither results nor speed",
    )

    synth.add_argument("--n", required=True, type=int, help="node count")
    synth.add_argument("--m", required=True, type=int, help="target edge count")
    synth.add_argument("--k", required=True, type=int, help="discipline count")
    synth.add_argument("--seed", required=True, type=int)
    synth.add_argument("--month-span", type=int, default=24)
    synth.add_argument("--out", required=True, type=Path, help="output directory")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "validate":
            return cmd_validate(args.nodes, args.edges, args.membership)
        if args.command == "compute":
            analytics.check_percentiles(args.hi_pct, args.lo_pct)
            return cmd_compute(args)
        if args.command == "synth":
            spec = refkit.SynthSpec(
                n=args.n,
                target_m=args.m,
                k=args.k,
                seed=args.seed,
                month_span=args.month_span,
            )
            return cmd_synth(spec, args.out)
    except citegraph.InternalInvariantError as exc:
        print(f"citeflow: internal invariant violation: {exc}", file=sys.stderr)
        return 1
    except (citegraph.IngestError, ValueError, OSError) as exc:
        print(f"citeflow: error: {exc}", file=sys.stderr)
        return 2
    return 2


def entry() -> None:
    sys.exit(main())
