"""Command-line front end.

Verbs: ``ec``, ``gamma``, ``verify``, ``ecg``, ``bounds``, ``generate``,
``corpus``, ``theorems``.  Graphs come either from a family spec string
(``--family path:6``) or an edge-list file (``--graph g.el``), partitions
from exactly one of ``--partition`` JSON or a ``--partition-id`` preset,
and the verifier alone checks them.  Exit codes: 0 success, 1 negative
verification (or failed theorem checks), 2 usage error (bad input, an
``ec`` flag of the other mode, an unreadable input or an unwritable
output), 3 budget exceeded, 141 (128 + SIGPIPE) when the reader of stdout
hung up.  ``ECLAB_MAX_EDGES`` in the environment overrides the exact-mode
edge cap.

``main`` builds the subparser of the invoked verb only; without a verb
name as the first argument it builds all eight, so the help and the
usage errors read the same either way.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from pathlib import Path
from typing import Any

from . import theorems
from .coalition import (
    DEFAULT_EXACT_EDGE_CAP,
    FullEdgeSingleton,
    _check_edge_cap,
    certificate_json,
    coalition_graph,
    ec_bounds,
    edge_coalition_lower_bound,
    edge_coalition_number,
    is_ec_partition,
)
from .domination import edge_domination_number
from .errors import BudgetExceeded, EclabError, NotAnEcPartition
from .families import K24_PARTITION_PRESETS, FamilySpec, _edge_count, complete_bipartite, generate
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
    except ValueError as exc:
        raise EclabError(f"cannot parse {path}: {exc}") from exc


def _graph_args(parser: argparse.ArgumentParser, *, dot: bool = False) -> None:
    """One of ``--family`` and ``--graph``, then ``--format json|text``; with
    ``dot``, also DOT, which is then the default."""
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--family", help="family spec, e.g. path:6, cycle:7, dstar:3,2, kbip:2,4")
    group.add_argument("--graph", help="edge-list file ('n m' header, then 'u v' lines)")
    choices, default = (("json", "dot", "text"), "dot") if dot else (("json", "text"), "text")
    parser.add_argument("--format", choices=choices, default=default, help="output format")


def _partition_args(parser: argparse.ArgumentParser, *, dot: bool = False) -> None:
    """The graph arguments, then exactly one of ``--partition`` and ``--partition-id``."""
    _graph_args(parser, dot=dot)
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--partition", help="JSON array of edge-index arrays, e.g. '[[0,4],[1],[2],[3]]'")
    group.add_argument("--partition-id", help="built-in partition of kbip:2,4 (pi1..pi6)")


def _cap(text: str) -> int:
    """argparse type of ``--max-edges``: a nonnegative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {text!r}")
    return value


def _edge_cap(args: argparse.Namespace) -> int:
    if args.max_edges is not None:
        return args.max_edges
    env = os.environ.get("ECLAB_MAX_EDGES")
    if env is not None:
        try:
            return _cap(env)
        except argparse.ArgumentTypeError as exc:
            raise EclabError(f"ECLAB_MAX_EDGES {exc}") from exc
    return DEFAULT_EXACT_EDGE_CAP


def _seconds(text: str) -> float:
    """argparse type of ``--time-budget``: a finite, nonnegative number of seconds."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number of seconds, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {text!r}")
    return value


def _parse_partition_arg(args: argparse.Namespace, g: Graph) -> Any:
    """The ``--partition-id`` preset, or the ``--partition`` JSON as decoded; the verifier checks it."""
    if args.partition_id is not None:
        preset = K24_PARTITION_PRESETS.get(args.partition_id)
        if preset is None:
            raise EclabError(
                f"unknown partition id {args.partition_id!r}; "
                f"known: {', '.join(sorted(K24_PARTITION_PRESETS))}"
            )
        if g != complete_bipartite(2, 4):
            raise EclabError("--partition-id presets apply to the graph kbip:2,4 only")
        return preset
    try:
        return json.loads(args.partition)
    except (ValueError, RecursionError) as exc:  # also too many digits, or too deep
        raise EclabError(f"--partition is not valid JSON: {exc}") from exc


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
    if args.lower_bound and args.max_edges is not None:
        raise EclabError("--max-edges applies to exact mode only, not with --lower-bound")
    if not args.lower_bound and args.time_budget is not None:
        raise EclabError("--time-budget applies only with --lower-bound")
    cap = _edge_cap(args)  # read in both modes: a malformed ECLAB_MAX_EDGES is a usage error
    if args.family and not args.lower_bound:  # refuse from the spec, before building the graph
        _check_edge_cap(_edge_count(FamilySpec.parse(args.family)), cap)
    g = _load_graph(args)
    if args.lower_bound:  # without --time-budget, the library's default applies
        budget = {} if args.time_budget is None else {"time_budget": args.time_budget}
        result = edge_coalition_lower_bound(g, **budget)
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
    for result in theorems.run_all(None if args.only is None else args.only.split(",")):
        print(f"{'PASS' if result.passed else 'FAIL'}  {result.tag:28s} {result.detail}")
        passed += result.passed
        total += 1
    print(f"{passed}/{total} checks passed")
    return EXIT_OK if passed == total else EXIT_NEGATIVE


def _ec_args(p: argparse.ArgumentParser) -> None:
    _graph_args(p)
    p.add_argument("--max-edges", type=_cap, default=None, help="override the exact-mode cap")
    p.add_argument(
        "--lower-bound",
        action="store_true",
        help="report the best certificate found within --time-budget instead of the exact value",
    )
    p.add_argument("--time-budget", type=_seconds, help="seconds for --lower-bound (default 30)")


def _ecg_args(p: argparse.ArgumentParser) -> None:
    _partition_args(p, dot=True)


def _generate_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", required=True)
    p.add_argument("--output", help="file path (default: stdout)")


def _corpus_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--classes", default="connected", help="comma list: all,connected,trees,unicyclic")
    p.add_argument("--max-vertices", type=int, required=True)
    p.add_argument("--out-dir", required=True)


def _theorems_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--only", help="comma list of check tags to run")


# (name, help, set-up, command) of each verb, in the order the help lists them.
_VERBS = (
    ("ec", "compute the edge coalition number with a certificate", _ec_args, _cmd_ec),
    ("gamma", "compute the edge domination number", _graph_args, _cmd_gamma),
    ("verify", "verify a partition (JSON array of edge-index arrays)", _partition_args, _cmd_verify),
    ("ecg", "build the coalition graph of an ec-partition", _ecg_args, _cmd_ecg),
    ("bounds", "report known bounds with applicability flags", _graph_args, _cmd_bounds),
    ("generate", "write a family graph as an edge list", _generate_args, _cmd_generate),
    ("corpus", "export exhaustive small-graph corpora", _corpus_args, _cmd_corpus),
    ("theorems", "run the reproduction suite", _theorems_args, _cmd_theorems),
)


def build_parser(verb: str | None = None) -> argparse.ArgumentParser:
    """The ``eclab`` parser with every verb, or with ``verb``'s subparser only.

    A parser narrowed to one verb still names all of them in its usage
    line, so its top-level errors read as the full parser's.
    """
    parser = argparse.ArgumentParser(
        prog="eclab",
        description="Exact edge coalition computations on small graphs.",
    )
    names = [name for name, *_ in _VERBS]
    if verb is not None and verb not in names:
        raise ValueError(f"unknown verb {verb!r}")
    # Set only when narrowed: with a metavar, a missing verb would be
    # reported as the list of names instead of "verb".
    metavar = None if verb is None else "{" + ",".join(names) + "}"
    sub = parser.add_subparsers(dest="verb", required=True, metavar=metavar)
    for name, help_text, add_args, command in _VERBS:
        if verb in (None, name):
            p = sub.add_parser(name, help=help_text)
            add_args(p)
            p.set_defaults(func=command)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # Build only the named verb's subparser; anything else gets the full parser.
    verb = argv[0] if argv and argv[0] in [name for name, *_ in _VERBS] else None
    args = build_parser(verb).parse_args(argv)
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
    except (OSError, EclabError) as exc:  # OSError: an unreadable input or an unwritable output
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, BudgetExceeded):
            return EXIT_BUDGET
        if isinstance(exc, NotAnEcPartition):
            return EXIT_NEGATIVE
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
