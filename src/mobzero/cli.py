"""Command line front end.

Every subcommand takes a monoid description (inline JSON or a path to a
JSON file) and prints either text or JSON.  Exit status is 0 on success,
1 when an input fails to validate, and 2 when a verification finds a
counterexample.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import AlgebraError
from .hilbert import check_hilbert_relation, hilbert_prefix, poly_text
from .monoid import DEFAULT_TRUNCATION, FreeMonoid, ReesQuotient
from .quotient_maps import check_mobius_transfer
from .series import (
    cauchy_product,
    check_oracle_equivalence,
    check_unit_inverse,
    mobius_invert_left,
    mobius_invert_right,
    mobius_series,
    star,
)
from .specio import parse_series, read_json_source, parse_monoid, series_to_json


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mobzero",
        description="Truncated series arithmetic over monoids with zero.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, series=False):
        p.add_argument("--monoid", required=True, metavar="FILE|JSON",
                       help="monoid description, inline JSON or a file path")
        p.add_argument("--order", type=int, default=DEFAULT_TRUNCATION,
                       metavar="N", help="truncation order (default 8)")
        p.add_argument("--format", choices=("text", "json"), default="text")
        if series:
            p.add_argument("--series", action="append", default=[],
                           metavar="FILE", help="series operand (repeatable)")

    p = sub.add_parser("mobius", help="Mobius series of the monoid")
    common(p)

    p = sub.add_parser("star", help="sum of all powers of a proper series")
    common(p, series=True)

    p = sub.add_parser("mul", help="product of two series")
    common(p, series=True)

    p = sub.add_parser("invert", help="Mobius inversion of a series")
    common(p, series=True)
    p.add_argument("--side", choices=("left", "right"), default="left")

    p = sub.add_parser("hilbert", help="counts of elements by order")
    common(p)
    p.add_argument("--terms", type=int, default=None, metavar="T",
                   help="top degree to report (default: the order)")

    p = sub.add_parser("count", help="list elements order by order")
    common(p)
    p.add_argument("--terms", type=int, default=None, metavar="T",
                   help="top order to list (default: the order)")

    p = sub.add_parser("verify", help="run the built-in identity checks")
    common(p)
    p.add_argument("--terms", type=int, default=None, metavar="T",
                   help="top degree for the counting check (default: the order)")

    return parser


def _load_series(args, count: int) -> list:
    """The ``--series`` operands, exactly ``count`` of them, read over the
    monoid at the requested order."""
    if len(args.series) != count:
        raise AlgebraError(
            f"{args.command} needs exactly {count} --series operand"
            f"{'s' if count != 1 else ''}, got {len(args.series)}")
    return [parse_series(read_json_source(source), args.parsed_monoid,
                         expected_truncation=args.order)
            for source in args.series]


def _emit_series(f, fmt: str):
    if fmt == "json":
        print(json.dumps(series_to_json(f)))
    else:
        print(f.render())


def _cmd_mobius(args) -> int:
    _emit_series(mobius_series(args.parsed_monoid, args.order), args.format)
    return 0


def _cmd_star(args) -> int:
    (f,) = _load_series(args, 1)
    _emit_series(star(f), args.format)
    return 0


def _cmd_mul(args) -> int:
    f, g = _load_series(args, 2)
    _emit_series(cauchy_product(f, g), args.format)
    return 0


def _cmd_invert(args) -> int:
    (g,) = _load_series(args, 1)
    if args.side == "left":
        _emit_series(mobius_invert_left(g), args.format)
    else:
        _emit_series(mobius_invert_right(g), args.format)
    return 0


def _cmd_hilbert(args) -> int:
    counts = hilbert_prefix(args.parsed_monoid, args.terms)
    if args.format == "json":
        print(json.dumps({"counts": list(counts)}))
    else:
        print(poly_text(counts))
    return 0


def _cmd_count(args) -> int:
    m = args.parsed_monoid
    grades = m.grades(args.terms)
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


# The checks of `verify`, in the order they run and print: the name of
# the report, which monoids the check applies to, and the call that makes
# the report.  The calls look the check functions up when they run.
_VERIFY_CHECKS = (
    ("unit-inverse", lambda m: True,
     lambda m, args: check_unit_inverse(m, args.order)),
    ("oracle-equivalence", lambda m: True,
     lambda m, args: check_oracle_equivalence(m, min(args.order, 6))),
    ("mobius-transfer", lambda m: isinstance(m, ReesQuotient),
     lambda m, args: check_mobius_transfer(m, args.order)),
    ("hilbert-relation",
     lambda m: isinstance(m, ReesQuotient) and isinstance(m.base, FreeMonoid),
     lambda m, args: check_hilbert_relation(m, args.terms)),
)


def _cmd_verify(args) -> int:
    m = args.parsed_monoid
    reports = [run(m, args) for _, applies, run in _VERIFY_CHECKS
               if applies(m)]
    ok = all(r.passed for r in reports)
    if args.format == "json":
        print(json.dumps({"checks": [r.to_json() for r in reports],
                          "pass": ok}))
    else:
        for r in reports:
            print(str(r))
    return 0 if ok else 2


_COMMANDS = {
    "mobius": _cmd_mobius,
    "star": _cmd_star,
    "mul": _cmd_mul,
    "invert": _cmd_invert,
    "hilbert": _cmd_hilbert,
    "count": _cmd_count,
    "verify": _cmd_verify,
}


_parser = None


def main(argv=None) -> int:
    # built on the first call and reused: parsing leaves the parser as it
    # was, and each call gets a fresh namespace
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        if args.order < 0:
            raise ValueError(f"order must be nonnegative, got {args.order}")
        # hilbert, count and verify take --terms, which defaults to the
        # order; verify may have no check that reads it, and must reject a
        # negative one all the same
        if getattr(args, "terms", None) is None:
            args.terms = args.order
        elif args.terms < 0:
            raise ValueError(f"terms must be nonnegative, got {args.terms}")
        args.parsed_monoid = parse_monoid(read_json_source(args.monoid))
        return _COMMANDS[args.command](args)
    except (AlgebraError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
