"""Command-line interface.

Subcommands:

* ``verify``     check whether a landmark file resolves a graph
* ``construct``  emit a minimum resolving set for a diagonal graph
* ``dimension``  compute the metric dimension with a certificate
* ``scan``       report forbidden configurations in a landmark graph
* ``fixtures``   emit one of the bundled landmark sets
* ``enumerate``  emit two-basic landmark systems (exhaustive or sampled)

Exit codes: 0 success (verify: resolving), 1 verify found a non-resolving
set, 2 usage or input error, 3 search budget exhausted.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .construct import FIXTURE_NAMES, fixture, metric_basis
from .errors import BudgetExceeded, HammingDimError, NotApplicable, ParseError
from .formats import FORMATS, emit_landmarks, parse_landmarks
from .hamming import GhgParams
from .landmark import _prediction, build_landmark_graph, classify, forbidden_scan
from .resolving import Verdict, _fmt_vertex, is_resolving, is_resolving_by_distance
from .search import SearchOptions, enumerate_two_basic, metric_dimension

EXIT_OK = 0
EXIT_UNRESOLVED = 1
EXIT_ERROR = 2
EXIT_BUDGET = 3

BUDGET_ENV = "HAMMINGDIM_BUDGET"
DEFAULT_BUDGET = 2_000_000


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_landmarks(args: argparse.Namespace):
    g = GhgParams.parse(args.graph)
    text = _read_text(getattr(args, "infile"))
    return parse_landmarks(text, args.format, g)


def _cmd_verify(args: argparse.Namespace) -> int:
    W = _load_landmarks(args)
    check = is_resolving_by_distance if args.method == "distance" else is_resolving
    cert = check(W)
    sys.stdout.write(cert.to_json())
    return EXIT_OK if cert.verdict is Verdict.RESOLVING else EXIT_UNRESOLVED


def _emit(args: argparse.Namespace, W) -> None:
    text, used = emit_landmarks(W, args.format)
    if args.format is None and used != "pls":
        print(f"note: set not pls-representable, emitting {used}", file=sys.stderr)
    _write_text(args.out, text)


def _cmd_construct(args: argparse.Namespace) -> int:
    _emit(args, metric_basis(args.n))
    return EXIT_OK


def _progress(p) -> None:
    print(
        f"progress: {p.candidates_examined} candidates, "
        f"{p.pruned_subtrees} pruned subtrees, {p.elapsed_seconds:.0f}s",
        file=sys.stderr,
    )


def _cmd_dimension(args: argparse.Namespace) -> int:
    g = GhgParams.parse(args.graph)
    budget: int | None
    if args.budget is not None:
        budget = args.budget
    elif args.exhaustive:
        budget = None
    else:
        text = os.environ.get(BUDGET_ENV, str(DEFAULT_BUDGET))
        try:
            budget = int(text)
        except ValueError:
            raise ParseError(f"{BUDGET_ENV}={text!r} is not an integer") from None
    opts = SearchOptions(
        max_candidates=budget,
        workers=args.workers,
        progress=_progress if args.verbose else None,
    )
    cert = metric_dimension(g, opts)
    sys.stdout.write(cert.to_json())
    return EXIT_OK


def _cycles_json(cycles) -> list[dict]:
    return [
        {"landmarks": [_fmt_vertex(v) for v in c.landmarks], "colors": list(c.colors)}
        for c in cycles
    ]


def _scan_report(W) -> dict:
    cls = classify(W)
    doc: dict = {
        "schema": "hammingdim/forbidden-report-v1",
        "graph": W.graph.format(),
        "landmarks": [_fmt_vertex(v) for v in W.members],
        "class": cls.kind.value,
    }
    if cls.loop_vertex is not None:
        doc["loop_vertex"] = _fmt_vertex(cls.loop_vertex)
    report = forbidden_scan(build_landmark_graph(W))
    doc["c4"] = _cycles_json(report.c4)
    doc["c6"] = _cycles_json(report.c6)
    doc["rainbow_triangles"] = _cycles_json(report.rainbow_triangles)
    try:
        cert = _prediction(W, cls.kind, report)
    except NotApplicable as exc:
        doc["predict_resolving"] = None
        doc["predict_note"] = str(exc)
    else:
        doc["predict_resolving"] = cert.verdict is Verdict.RESOLVING
        doc["predict_attestation"] = cert.attestation
    return doc


def _cmd_scan(args: argparse.Namespace) -> int:
    W = _load_landmarks(args)
    sys.stdout.write(json.dumps(_scan_report(W), indent=2) + "\n")
    return EXIT_OK


def _cmd_fixtures(args: argparse.Namespace) -> int:
    _emit(args, fixture(args.name))
    return EXIT_OK


def _cmd_enumerate(args: argparse.Namespace) -> int:
    kwargs: dict = {"budget": args.count}
    if args.seed is not None:
        kwargs["seed"] = args.seed
    systems = enumerate_two_basic(args.n, **kwargs)
    out = []
    for idx, W in enumerate(systems, start=1):
        text, _ = emit_landmarks(W, "triples")
        out.append(f"# system {idx}\n{text}")
    _write_text(args.out, "\n".join(out))
    return EXIT_OK


def _add_io_args(p: argparse.ArgumentParser, reading: bool) -> None:
    if reading:
        p.add_argument("--in", dest="infile", required=True,
                       help="landmark file, or - for stdin")
        p.add_argument("--format", choices=FORMATS, default=None,
                       help="input format (default: detect)")
    else:
        p.add_argument("--out", default=None, help="output file (default stdout)")
        p.add_argument("--format", choices=FORMATS, default=None,
                       help="output format (default: pls when representable)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hammingdim",
        description="Resolving sets and metric dimension of generalized "
                    "Hamming graphs on three coordinates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check whether a landmark set resolves")
    p.add_argument("--graph", required=True, help="e.g. 3x3x3 or 5x7x11;K=3")
    _add_io_args(p, reading=True)
    p.add_argument("--method", choices=("code", "distance"), default="code",
                   help="code: block bitmasks; distance: full distance rows")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("construct", help="emit a minimum resolving set for nxnxn")
    p.add_argument("--n", type=int, required=True, help="side length, n >= 3")
    _add_io_args(p, reading=False)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("dimension", help="metric dimension with certificate")
    p.add_argument("--graph", required=True)
    p.add_argument("--exhaustive", action="store_true",
                   help="lift the candidate budget")
    p.add_argument("--budget", type=int, default=None,
                   help=f"candidate cap (default ${BUDGET_ENV} or {DEFAULT_BUDGET})")
    p.add_argument("--workers", type=int, default=1,
                   help="parallel subtree workers")
    p.add_argument("--verbose", action="store_true",
                   help="a progress line on stderr per first-level pick")
    p.set_defaults(func=_cmd_dimension)

    p = sub.add_parser("scan", help="forbidden configurations in landmark graph")
    p.add_argument("--graph", required=True)
    _add_io_args(p, reading=True)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("fixtures", help="emit a bundled landmark set")
    p.add_argument("--name", required=True, choices=FIXTURE_NAMES)
    _add_io_args(p, reading=False)
    p.set_defaults(func=_cmd_fixtures)

    p = sub.add_parser("enumerate", help="two-basic landmark systems")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count", type=int, default=None,
                   help="sample size (n >= 4; n=3 enumerates all)")
    p.add_argument("--seed", type=int, default=None, help="sampling seed")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_enumerate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"error: {exc} (examined {exc.candidates_examined})", file=sys.stderr)
        return EXIT_BUDGET
    except HammingDimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
