"""Command line front end.

Every subcommand takes a monoid description (inline JSON or a path to a
JSON file) and prints either text or JSON.  Exit status is 0 on success
and for ``--help``, 1 when an input or the command line fails to
validate or stdout is closed before the output ends (with nothing on
stderr), and 2 only when a verification finds a counterexample.

``star``, ``mul`` and ``invert`` run with the cyclic collector paused
while they read their operands, compute and write the result; the
caller's collector state is restored when they return or fail.

The layers a command needs are read as module attributes when it runs,
so a process executes only those (see the package docstring): ``count``
and ``hilbert --format json`` never execute ``series``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

from . import hilbert, quotient_maps, series, specio
from .errors import AlgebraError
from .monoid import FreeMonoid, ReesQuotient

DEFAULT_TRUNCATION = 8


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mobzero",
        description="Truncated series arithmetic over monoids with zero.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help, series=False, order_help="truncation order"):
        p = sub.add_parser(name, help=help)
        p.add_argument("--monoid", required=True, metavar="FILE|JSON",
                       help="monoid description, inline JSON or a file path")
        p.add_argument("--order", type=int, default=DEFAULT_TRUNCATION,
                       metavar="N", help=order_help + " (default %(default)s)")
        p.add_argument("--format", choices=("text", "json"), default="text")
        if series:
            p.add_argument("--series", action="append", default=[],
                           metavar="FILE", help="series operand (repeatable)")
        p.set_defaults(run=run)
        return p

    command("mobius", _cmd_mobius, "Mobius series of the monoid")
    command("star", _cmd_star, "sum of all powers of a proper series",
            series=True)
    command("mul", _cmd_mul, "product of two series", series=True)
    p = command("invert", _cmd_invert, "Mobius inversion of a series",
                series=True)
    p.add_argument("--side", choices=("left", "right"), default="left")
    command("hilbert", _cmd_hilbert, "counts of elements by order",
            order_help="top degree counted")
    command("count", _cmd_count, "list elements order by order",
            order_help="top degree listed")
    command("verify", _cmd_verify, "run the built-in identity checks",
            order_help="top degree checked")
    return parser


def _load_series(args, count: int) -> list:
    """The ``--series`` operands, exactly ``count`` of them, read over the
    monoid at the requested order."""
    if len(args.series) != count:
        raise AlgebraError(
            f"{args.command} needs exactly {count} --series operand"
            f"{'s' if count != 1 else ''}, got {len(args.series)}")
    return [specio.parse_series(specio.read_json_source(source),
                                args.parsed_monoid,
                                expected_truncation=args.order)
            for source in args.series]


# the interpreter's limit on writing an int as decimal text, where it has one
_digit_limit = getattr(sys, "get_int_max_str_digits", None)


def _exact_text(write, value) -> str:
    """``write(value)`` with the interpreter's limit on converting an int
    to decimal text lifted, and restored after: results are exact at any
    size and are written in full, while reading an operand keeps the
    limit."""
    if _digit_limit is None:
        return write(value)
    saved = _digit_limit()
    sys.set_int_max_str_digits(0)
    try:
        return write(value)
    finally:
        sys.set_int_max_str_digits(saved)


def _emit_series(f, fmt: str):
    print(_exact_text(specio.series_to_json if fmt == "json"
                      else series.Series.render, f))


def _cmd_mobius(args) -> int:
    _emit_series(series.mobius_series(args.parsed_monoid, args.order),
                 args.format)
    return 0


def _series_command(args, count: int, op) -> int:
    """Read ``count`` operands, apply ``op`` and write the result, with the
    cyclic collector paused throughout: the operands' terms hold no cycle,
    so a collection would only rescan them.  The caller's collector state
    is restored, also on error."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        _emit_series(op(*_load_series(args, count)), args.format)
    finally:
        if enabled:
            gc.enable()
    return 0


def _cmd_star(args) -> int:
    return _series_command(args, 1, series.star)


def _cmd_mul(args) -> int:
    return _series_command(args, 2, series.cauchy_product)


def _cmd_invert(args) -> int:
    return _series_command(args, 1, series.mobius_invert_left
                           if args.side == "left"
                           else series.mobius_invert_right)


def _cmd_hilbert(args) -> int:
    counts = hilbert.hilbert_prefix(args.parsed_monoid, args.order)
    print(_exact_text(json.dumps, {"counts": list(counts)})
          if args.format == "json" else _exact_text(hilbert.poly_text, counts))
    return 0


def _cmd_count(args) -> int:
    m = args.parsed_monoid
    grades = m.grades(args.order)
    if args.format == "json":
        orders = [{"order": n, "count": len(elements),
                   "elements": [m.word_letters(w) for w in elements]}
                  for n, elements in enumerate(grades)]
        print(json.dumps({"orders": orders}))
    else:
        for n, elements in enumerate(grades):
            shown = " ".join(m.render_word(w) for w in elements)
            print(f"{n}\t{len(elements)}\t{shown}")
    return 0


def _cmd_verify(args) -> int:
    m, n = args.parsed_monoid, args.order
    reports = [series.check_unit_inverse(m, n),
               series.check_oracle_equivalence(m, min(n, 6))]
    if isinstance(m, ReesQuotient):
        reports.append(quotient_maps.check_mobius_transfer(m, n))
        if isinstance(m.base, FreeMonoid):
            reports.append(hilbert.check_hilbert_relation(m, n))
    ok = all(r.passed for r in reports)
    if args.format == "json":
        print(json.dumps({"checks": [r.to_json() for r in reports],
                          "pass": ok}))
    else:
        for r in reports:
            print(str(r))
    return 0 if ok else 2


_parser = None


def main(argv=None) -> int:
    # built on the first call and reused: parsing leaves the parser as it
    # was, and each call gets a fresh namespace
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        # argparse's 2 for a bad command line would read as verify's failure
        return 1 if exc.code else 0
    try:
        if args.order < 0:
            raise ValueError(f"order must be nonnegative, got {args.order}")
        args.parsed_monoid = specio.parse_monoid(
            specio.read_json_source(args.monoid))
        status = args.run(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader closed stdout early; what is still buffered goes to
        # devnull, so the interpreter's last flush does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except (AlgebraError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    except RecursionError:
        print("error: the description is nested too deeply", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
