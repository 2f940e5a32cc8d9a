"""Command-line front end.

Verbs: ``ec``, ``gamma``, ``verify``, ``ecg``, ``bounds``, ``generate``,
``corpus``, ``theorems``.  Graphs come either from a family spec string
(``--family path:6``) or an edge-list file (``--graph g.el``).  Exit codes:
0 success, 1 negative verification (or failed theorem checks), 2 usage
error, 3 budget exceeded, 141 (128 + SIGPIPE) when the reader of stdout
hung up.  The environment variable ``ECLAB_MAX_EDGES`` overrides the
exact-mode edge cap.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

from . import theorems
from .coalition import (
    DEFAULT_EXACT_EDGE_CAP,
    FullEdgeSingleton,
    certificate_json,
    coalition_graph,
    ec_bounds,
    edge_coalition_lower_bound,
    edge_coalition_number,
    is_ec_partition,
    validate_partition,
)
from .domination import edge_domination_number
from .errors import BudgetExceeded, EclabError, NotAnEcPartition
from .families import K24_PARTITION_PRESETS, FamilySpec, complete_bipartite, generate
from .graphs import Graph, format_edge_list, parse_edge_list
from .oracle import CorpusSpec, export_corpus

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_PIPE = 141


def _load_graph(args: argparse.Namespace) -> Graph:
    if args.family:
        return generate(FamilySpec.parse(args.family))
    path = Path(args.graph)
    try:
        return parse_edge_list(path.read_text())
    except OSError as exc:
        raise EclabError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise EclabError(f"cannot parse {path}: {exc}") from exc


def _add_input_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--family", help="family spec, e.g. path:6, cycle:7, dstar:3,2, kbip:2,4")
    group.add_argument("--graph", help="edge-list file ('n m' header, then 'u v' lines)")


def _add_partition_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--partition", help="JSON array of edge-index arrays, e.g. '[[0,4],[1],[2],[3]]'")
    parser.add_argument("--partition-id", help="built-in partition of kbip:2,4 (pi1..pi6)")


def _add_format_arg(parser: argparse.ArgumentParser, *, dot: bool = False) -> None:
    """``--format json|text``; with ``dot``, also DOT, which is then the default."""
    choices = ("json", "dot", "text") if dot else ("json", "text")
    parser.add_argument(
        "--format", choices=choices, default="dot" if dot else "text", help="output format"
    )


def _edge_cap(args: argparse.Namespace) -> int:
    if args.max_edges is not None:
        return args.max_edges
    env = os.environ.get("ECLAB_MAX_EDGES")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise EclabError(f"ECLAB_MAX_EDGES must be an integer, got {env!r}") from exc
    return DEFAULT_EXACT_EDGE_CAP


def _seconds(text: str) -> float:
    """argparse type of ``--time-budget``: a finite number of seconds."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number of seconds, got {text!r}")
    return value


def _parse_partition_arg(args: argparse.Namespace, g: Graph) -> tuple[frozenset[int], ...]:
    if args.partition_id:
        preset = K24_PARTITION_PRESETS.get(args.partition_id)
        if preset is None:
            raise EclabError(
                f"unknown partition id {args.partition_id!r}; "
                f"known: {', '.join(sorted(K24_PARTITION_PRESETS))}"
            )
        if g != complete_bipartite(2, 4):
            raise EclabError("--partition-id presets apply to the graph kbip:2,4 only")
        return preset
    if args.partition is None:
        raise EclabError("a partition is required (--partition or --partition-id)")
    try:
        data = json.loads(args.partition)
    except json.JSONDecodeError as exc:
        raise EclabError(f"--partition is not valid JSON: {exc}") from exc
    if not isinstance(data, list) or not all(isinstance(b, list) for b in data):
        raise EclabError("--partition must be a JSON array of arrays of edge indices")
    return validate_partition(g, data)


def _graph_as_dot(g: Graph, names: list[str]) -> str:
    lines = ["graph {"]
    mentioned = set()
    for u, v in g.edges:
        lines.append(f"  {names[u]} -- {names[v]};")
        mentioned.update((u, v))
    for v in range(g.n):
        if v not in mentioned:
            lines.append(f"  {names[v]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _cmd_ec(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    cap = _edge_cap(args)  # read in both modes: a malformed ECLAB_MAX_EDGES is a usage error
    if args.lower_bound:
        result = edge_coalition_lower_bound(g, time_budget=args.time_budget)
    else:
        result = edge_coalition_number(g, max_edges=cap)
    if args.format == "json":
        print(json.dumps(certificate_json(result)))
    else:
        label = "EC" if result.mode == "exact" else "EC >="
        print(f"{label} {result.ec}")
        for i, block in enumerate(result.certificate.blocks):
            just = result.certificate.justifications[i]
            note = "full edge" if isinstance(just, FullEdgeSingleton) else f"partner {just.with_block}"
            print(f"  block {i}: {sorted(block)}  ({note})")
    return EXIT_OK


def _cmd_gamma(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    result = edge_domination_number(g)
    if args.format == "json":
        print(json.dumps({"gamma_prime": result.gamma_prime, "witness": sorted(result.witness)}))
    else:
        print(f"gamma' {result.gamma_prime}")
        print(f"witness {sorted(result.witness)}")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    blocks = _parse_partition_arg(args, g)
    outcome = is_ec_partition(g, blocks)
    if outcome:
        if args.format == "json":
            payload = {
                "valid": True,
                "order": outcome.order,
                "blocks": [sorted(b) for b in outcome.blocks],
            }
            print(json.dumps(payload))
        else:
            print(f"valid ec-partition of order {outcome.order}")
        return EXIT_OK
    if args.format == "json":
        print(json.dumps({"valid": False, "block": outcome.block, "reason": outcome.reason}))
    else:
        print(outcome.message())
    return EXIT_NEGATIVE


def _cmd_ecg(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    blocks = _parse_partition_arg(args, g)
    ecg = coalition_graph(g, blocks)
    if args.format == "dot":
        sys.stdout.write(_graph_as_dot(ecg, [f"B{i}" for i in range(ecg.n)]))
    elif args.format == "json":
        print(json.dumps({"n": ecg.n, "edges": [list(e) for e in ecg.edges]}))
    else:
        sys.stdout.write(format_edge_list(ecg))
    return EXIT_OK


def _cmd_bounds(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    report = ec_bounds(g)
    if args.format == "json":
        print(json.dumps([dataclasses.asdict(e) for e in report.entries]))
    else:
        print(f"{'source':30s} {'kind':6s} {'value':>5s}  applicable  reason")
        for e in report.entries:
            flag = "yes" if e.applicable else "no"
            print(f"{e.source:30s} {e.kind:6s} {e.value:5d}  {flag:10s}  {e.reason}")
    return EXIT_OK


def _cmd_generate(args: argparse.Namespace) -> int:
    g = generate(FamilySpec.parse(args.family))
    text = format_edge_list(g)
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_corpus(args: argparse.Namespace) -> int:
    classes = tuple(args.classes.split(","))
    spec = CorpusSpec(args.max_vertices, classes)
    written = export_corpus(spec, args.out_dir)
    print(f"wrote {len(written)} graphs to {args.out_dir}")
    return EXIT_OK


def _cmd_theorems(args: argparse.Namespace) -> int:
    passed = total = 0
    for result in theorems.run_all(args.only.split(",") if args.only else None):
        print(f"{'PASS' if result.passed else 'FAIL'}  {result.tag:28s} {result.detail}")
        passed += result.passed
        total += 1
    print(f"{passed}/{total} checks passed")
    return EXIT_OK if passed == total else EXIT_NEGATIVE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eclab",
        description="Exact edge coalition computations on small graphs.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("ec", help="compute the edge coalition number with a certificate")
    _add_input_args(p)
    _add_format_arg(p)
    p.add_argument("--max-edges", type=int, default=None, help="override the exact-mode cap")
    p.add_argument(
        "--lower-bound",
        action="store_true",
        help="report the best certificate found within --time-budget instead of the exact value",
    )
    p.add_argument("--time-budget", type=_seconds, default=30.0, help="seconds for --lower-bound")
    p.set_defaults(func=_cmd_ec)

    p = sub.add_parser("gamma", help="compute the edge domination number")
    _add_input_args(p)
    _add_format_arg(p)
    p.set_defaults(func=_cmd_gamma)

    p = sub.add_parser("verify", help="verify a partition (JSON array of edge-index arrays)")
    _add_input_args(p)
    _add_format_arg(p)
    _add_partition_args(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("ecg", help="build the coalition graph of an ec-partition")
    _add_input_args(p)
    _add_format_arg(p, dot=True)
    _add_partition_args(p)
    p.set_defaults(func=_cmd_ecg)

    p = sub.add_parser("bounds", help="report known bounds with applicability flags")
    _add_input_args(p)
    _add_format_arg(p)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("generate", help="write a family graph as an edge list")
    p.add_argument("--family", required=True)
    p.add_argument("--output", help="file path (default: stdout)")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("corpus", help="export exhaustive small-graph corpora")
    p.add_argument("--classes", default="connected", help="comma list: all,connected,trees,unicyclic")
    p.add_argument("--max-vertices", type=int, required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_corpus)

    p = sub.add_parser("theorems", help="run the reproduction suite")
    p.add_argument("--only", help="comma list of check tags to run")
    p.set_defaults(func=_cmd_theorems)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Send what is still buffered to devnull, so the exit flush stays silent.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except NotAnEcPartition as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    except EclabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
