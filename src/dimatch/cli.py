"""Command-line entry points.

Exit codes: 0 yes/ok, 1 no/infeasible, 2 usage or parse error, 3 internal
fault.  `UsageError` is raised only where the user's arguments and files
are read, parsed, checked or written; any other exception is a fault of
the program.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from pathlib import Path

from .coloring import format_certificate, parse_certificate, verify_complete
from .graph import Graph, GraphFormatError, load_graph, save_graph
from .matching import solve_saturation
from .oracle import (
    MAX_ORACLE_VERTICES,
    MIXED_MODELS,
    GeneratorError,
    GeneratorSpec,
    OracleSizeError,
    brute_dim,
    generate,
    mixed_instance,
)
from .pipeline import LongClawPresent, solve
from .rewrite import format_trace

EXIT_YES = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


class UsageError(Exception):
    """A bad argument or input file: exit code 2."""


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None


def _write_text(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from None


def _parse_graph(text: str, path: str) -> Graph:
    try:
        return load_graph(text)
    except GraphFormatError as exc:
        raise UsageError(f"{path}: {exc}") from None


def _read_graph(path: str) -> Graph:
    return _parse_graph(_read_text(path), path)


def cmd_solve(args: argparse.Namespace) -> int:
    g = _read_graph(args.graph)
    try:
        report = solve(g)
    except LongClawPresent as exc:
        raise UsageError(f"{args.graph}: {exc}") from None
    if args.trace:
        print(format_trace(report.trace), file=sys.stderr)
    if report.is_yes:
        print("YES")
        cert = format_certificate(report.certificate)
        if args.certificate:
            _write_text(args.certificate, cert)
        else:
            sys.stdout.write(cert)
        return EXIT_YES
    print("NO")
    print(f"witness: {report.witness}")
    return EXIT_NO


def cmd_check(args: argparse.Namespace) -> int:
    g = _read_graph(args.graph)
    try:
        cert = parse_certificate(_read_text(args.certificate))
    except ValueError as exc:
        raise UsageError(f"{args.certificate}: {exc}") from None
    try:
        ok = verify_complete(g, cert)
    except ValueError as exc:
        print(f"FAIL: {exc}")
        return EXIT_NO
    print("OK" if ok else "FAIL")
    return EXIT_YES if ok else EXIT_NO


def _nonnegative(args: argparse.Namespace, *names: str) -> None:
    for name in names:
        value = getattr(args, name)
        if value < 0:
            raise UsageError(f"--{name.replace('_', '-')} must be nonnegative, not {value}")


def cmd_gen(args: argparse.Namespace) -> int:
    _nonnegative(args, "n")
    spec = GeneratorSpec(model=args.model, n=args.n, seed=args.seed, family=args.family)
    try:
        g = generate(spec)
    except GeneratorError as exc:
        raise UsageError(str(exc)) from None
    text = save_graph(g)
    if args.out:
        _write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_YES


def cmd_oracle(args: argparse.Namespace) -> int:
    g = _read_graph(args.graph)
    try:
        coloring = brute_dim(g)
    except OracleSizeError as exc:
        raise UsageError(f"{args.graph}: {exc}") from None
    if coloring is None:
        print("NO")
        return EXIT_NO
    print("YES")
    sys.stdout.write(format_certificate(coloring))
    return EXIT_YES


def cmd_compare(args: argparse.Namespace) -> int:
    _nonnegative(args, "count", "min_n")
    if args.min_n > args.max_n:
        raise UsageError(f"--min-n {args.min_n} exceeds --max-n {args.max_n}")
    if args.max_n > MAX_ORACLE_VERTICES:
        raise UsageError(f"--max-n {args.max_n} exceeds the oracle cap {MAX_ORACLE_VERTICES}")
    mismatches = skipped = 0
    for i in range(args.count):
        seed = args.seed + i
        n = args.min_n + (seed % (args.max_n - args.min_n + 1))
        try:
            g = mixed_instance(n, seed)
        except GeneratorError as exc:
            skipped += 1
            print(f"SKIPPED seed={seed} n={n}: {exc}")
            continue
        expected = brute_dim(g) is not None
        report = solve(g)
        if report.is_yes != expected:
            mismatches += 1
            print(f"MISMATCH seed={seed} n={n}: solver={report.decision} oracle={expected}")
        elif report.is_yes and not verify_complete(g, report.certificate):
            mismatches += 1
            print(f"BAD CERTIFICATE seed={seed} n={n}")
    print(f"compared {args.count - skipped} instances, {mismatches} discrepancies, {skipped} seeds skipped")
    if skipped and skipped == args.count:
        raise UsageError("the generator gave up on every seed")
    return EXIT_YES if mismatches == 0 else EXIT_NO


def cmd_saturate(args: argparse.Namespace) -> int:
    raw = _read_text(args.graph)
    graph_lines = []
    required: list[int] = []
    for line in raw.splitlines():
        if line.strip().startswith("U:"):
            try:
                required += [int(x) for x in line.split(":", 1)[1].split()]
            except ValueError:
                raise UsageError(f"{args.graph}: 'U:' lists a non-integer vertex") from None
        else:
            graph_lines.append(line)
    g = _parse_graph("\n".join(graph_lines), args.graph)
    outside = sorted(v for v in set(required) if v not in g)
    if outside:
        raise UsageError(f"{args.graph}: 'U:' vertices {outside} are not in the graph")
    m = solve_saturation(g, required)
    if m is None:
        print("infeasible")
        return EXIT_NO
    for u, v in sorted(m):
        print(u, v)
    return EXIT_YES


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="dimatch")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="decide and certify a dominating induced matching")
    p.add_argument("graph")
    p.add_argument("--trace", action="store_true", help="dump the rewrite trace to stderr")
    p.add_argument("--certificate", help="write the YES certificate to this file")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("check", help="verify a black/white certificate")
    p.add_argument("graph")
    p.add_argument("certificate")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("gen", help="generate a long-claw-free instance")
    p.add_argument("--model", default="uniform", choices=list(MIXED_MODELS) + ["known"])
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--family", default="cycle", choices=["cycle", "path", "complete", "star"])
    p.add_argument("--out")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("oracle", help="brute-force decision (small graphs)")
    p.add_argument("graph")
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("compare", help="cross-check solver against the oracle")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--min-n", type=int, default=7)
    p.add_argument("--max-n", type=int, default=14)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("saturate", help="matching saturating the 'U:' vertices")
    p.add_argument("graph")
    p.set_defaults(fn=cmd_saturate)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # any other failure is a fault of the program
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
