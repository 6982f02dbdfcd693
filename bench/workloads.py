"""The benchmark's workloads: CLI requests, seeded operands and references.

Each request is one ``mobzero.cli.main(argv)`` call.  Every request carries
a check built from a reference that does not go through the code path the
request measures: closed forms and a small automaton for the counts, the
factorization oracle ``convolve_oracle`` for products, and the known
operand for inversions.  Operand files are written under a work directory
that the caller owns.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

LETTERS = ("a", "b", "c", "d")

# Which end-to-end metric each layer's metrics should move, and where.
LAYER_MAP = {
    "cli": "cli.main.self_s: request overhead on every workload",
    "specio": "latency_p50_ms on quotient-algebra, where light mul requests "
              "are dominated by parsing",
    "series": "throughput_rps and latency_p90_ms on mobius-base; no change "
              "on quotient-count",
    "monoid": "throughput_rps on quotient-count; on quotient-algebra only "
              "the non-oracle share",
    "ideals": "throughput_rps on quotient-count; hit_ratio counts only the "
              "membership calls of quotient products (ReesQuotient._mul), "
              "so on quotient-algebra it is the share of products absorbed "
              "by ZERO",
    "quotient_maps": "throughput_rps and latencies on quotient-algebra",
    "hilbert": "hilbert_prefix moves quotient-count; check_hilbert_relation "
               "is a full-enumeration oracle and stays flat",
}


@dataclass
class Request:
    label: str
    argv: list
    check: Callable[[str], bool]   # on the stdout of a run that exited 0


def _free(k):
    return {"type": "free", "alphabet": list(LETTERS[:k])}


def _commutative(k):
    return {"type": "free-commutative", "alphabet": list(LETTERS[:k])}


def _rees(base, ideal):
    return {"type": "rees", "base": base, "ideal": ideal}


REP = {"kind": "repeated-letter"}
EV3 = {"kind": "ev-preimage", "inner": {"kind": "degree-at-least", "d": 3}}


def _generated(*words):
    return {"kind": "generated", "words": [list(w) for w in words]}


def _argv(command, monoid, order, *extra):
    return [command, "--monoid", json.dumps(monoid), "--order", str(order),
            *extra]


def _sorted_terms(terms):
    """Wire order of series terms: by order, then by letter indices."""
    return sorted(terms, key=lambda t: (len(t[1]),
                                        [LETTERS.index(x) for x in t[1]]))


def _series_check(truncation, expected_terms):
    return _json_check({"truncation": truncation,
                        "terms": _sorted_terms(expected_terms)})


def _json_check(expected):
    def check(out):
        return json.loads(out) == expected
    return check


def _verify_check(n_checks):
    def check(out):
        lines = out.splitlines()
        return (len(lines) == n_checks
                and all(line.startswith("PASS ") for line in lines))
    return check


# -- closed forms --------------------------------------------------------------

def _mobius_free(k):
    """1 - (a + b + ...) over the free monoid on k letters."""
    return [["1", []]] + [["-1", [x]] for x in LETTERS[:k]]


def _mobius_commutative(k, truncation):
    """prod (1 - x_i) over the free commutative monoid on k letters."""
    return [[str((-1) ** r), list(s)]
            for r in range(min(k, truncation) + 1)
            for s in itertools.combinations(LETTERS[:k], r)]


def _has_factor(letters, generators):
    word = "".join(letters)
    return any("".join(g) in word for g in generators)


def _falling(k, n):
    return math.perm(k, n) if n <= k else 0


def _below(n, bound, value):
    return value if n < bound else 0


def _avoiding_count(k, generators, n):
    """Words of length n over k letters with no generator as a factor.

    Automaton over the last (L - 1) letters, L the longest generator;
    a transition dies when a generator ends at the new letter.
    """
    gens = ["".join(g) for g in generators]
    keep = max(len(g) for g in gens) - 1
    states = {"": 1}
    for _ in range(n):
        nxt = {}
        for suffix, count in states.items():
            for x in LETTERS[:k]:
                w = suffix + x
                if any(w.endswith(g) for g in gens):
                    continue
                key = w[len(w) - keep:] if keep else ""
                nxt[key] = nxt.get(key, 0) + count
        states = nxt
    return sum(states.values())


# -- workloads -----------------------------------------------------------------

def mobius_base():
    out = []
    for label, monoid, order, terms in [
        ("mobius free3 N=8", _free(3), 8, _mobius_free(3)),
        ("mobius free4 N=7", _free(4), 7, _mobius_free(4)),
        ("mobius adjoin-zero free3 N=8", {"type": "adjoin-zero",
                                          "base": _free(3)}, 8,
         _mobius_free(3)),
        ("mobius comm3 N=12", _commutative(3), 12, _mobius_commutative(3, 12)),
        ("mobius comm4 N=10", _commutative(4), 10, _mobius_commutative(4, 10)),
    ]:
        out.append(Request(label, _argv("mobius", monoid, order,
                                        "--format", "json"),
                           _series_check(order, terms)))
    return out


def quotient_count():
    deg = 9
    gens = ("ab", "cc")
    cases = [
        ("hilbert rep-letter free4 N=9", _rees(_free(4), REP), deg,
         [_falling(4, n) for n in range(deg + 1)]),
        ("hilbert gen[ab,cc] free4 N=9", _rees(_free(4), _generated(*gens)), deg,
         [_avoiding_count(4, gens, n) for n in range(deg + 1)]),
        ("hilbert ev-preimage(deg>=3) free4 N=9", _rees(_free(4), EV3), deg,
         [_below(n, 3, 4 ** n) for n in range(deg + 1)]),
        ("hilbert min-length(6) free4 N=9",
         _rees(_free(4), {"kind": "min-length", "n": 6}), deg,
         [_below(n, 6, 4 ** n) for n in range(deg + 1)]),
        ("hilbert comm4/deg>=12 N=14", _rees(_commutative(4),
                                        {"kind": "degree-at-least", "d": 12}),
         14, [_below(n, 12, math.comb(n + 3, 3)) for n in range(15)]),
    ]
    out = [Request(label, _argv("hilbert", monoid, order, "--format", "json"),
                   _json_check({"counts": counts}))
           for label, monoid, order, counts in cases]
    rep_orders = [{"order": n, "count": _falling(4, n),
                   "elements": [list(p) for p in
                                itertools.permutations(LETTERS[:4], n)]}
                  for n in range(8)]
    gen_orders = [{"order": n, "count": _avoiding_count(4, gens, n),
                   "elements": [list(w) for w in
                                itertools.product(LETTERS[:4], repeat=n)
                                if not _has_factor(w, gens)]}
                  for n in range(7)]
    out.append(Request("count rep-letter free4 N=7",
                       _argv("count", _rees(_free(4), REP), 7,
                             "--format", "json"),
                       _json_check({"orders": rep_orders})))
    # A seventh request type keeps the median latency inside one request
    # type's samples instead of on the boundary between two.
    out.append(Request("count gen[ab,cc] free4 N=6",
                       _argv("count", _rees(_free(4), _generated(*gens)), 6,
                             "--format", "json"),
                       _json_check({"orders": gen_orders})))
    return out


def _grade_quotas(sizes, total):
    """Split `total` over grades in proportion to their sizes (largest
    remainder, ties to the lower grade); it does not depend on the seed."""
    whole = sum(sizes)
    quotas = [total * k // whole for k in sizes]
    rest = sorted(range(len(sizes)),
                  key=lambda i: (-(total * sizes[i] % whole), i))
    for i in rest[:total - sum(quotas)]:
        quotas[i] += 1
    return quotas


def _random_series(rng, m, truncation, max_order, size):
    """Seeded operand over monoid m: `size` distinct elements of order at
    most max_order with nonzero coefficients in [-9, 9].  Each grade gets a
    fixed share of the terms, so the product loop visits the same number
    of pairs for every seed."""
    from mobzero import Series

    grades = [m.elements_of_order(n) for n in range(max_order + 1)]
    quotas = _grade_quotas([len(g) for g in grades], size)
    terms = {w: rng.choice([c for c in range(-9, 10) if c])
             for grade, k in zip(grades, quotas) for w in rng.sample(grade, k)}
    return Series(m, truncation, terms)


def _plain_terms(f):
    return [[str(c), f.monoid.word_letters(w)] for w, c in f.terms.items()]


def quotient_algebra(seed, workdir):
    """Verify, mobius, mul and invert on quotients; operands from the seed."""
    from mobzero import characteristic_series, convolve_oracle, parse_monoid

    rng = random.Random(seed)
    gen_ab = _rees(_free(3), _generated("ab"))
    rep4 = _rees(_free(4), REP)
    out = []
    for label, monoid, order, n_checks in [
        ("verify rep-letter free4 N=6", rep4, 6, 4),
        ("verify gen[ab] free3 N=6", gen_ab, 6, 4),
        ("verify ev-preimage(deg>=3) free3 N=7", _rees(_free(3), EV3), 7, 4),
        ("verify comm3/deg>=4 N=8",
         _rees(_commutative(3), {"kind": "degree-at-least", "d": 4}), 8, 3),
    ]:
        out.append(Request(label, _argv("verify", monoid, order),
                           _verify_check(n_checks)))
    mu = [t for t in _mobius_free(3) if not _has_factor(t[1], ["ab"])]
    out.append(Request("mobius gen[ab] free3 N=8",
                       _argv("mobius", gen_ab, 8, "--format", "json"),
                       _series_check(8, mu)))

    def operand_file(name, f):
        path = workdir / f"{name}.json"
        path.write_text(json.dumps({"truncation": f.truncation,
                                    "terms": _sorted_terms(_plain_terms(f))}))
        return str(path)

    # The seed picks supports and coefficients; operand sizes are fixed so
    # that every seed asks for the same amount of work.  Ten light mul
    # requests (under 7 ms on the baseline host), then the parse-bound
    # free3 100x100 (12 to 15 ms), then ten heavier requests (from about
    # 30 ms): the median latency falls inside the samples of that one
    # request type, well apart from its neighbours in either direction.
    n = 8
    for label, monoid, max_order, pairs in [
        ("free3", _free(3), 5, [(330, 330), (100, 100), (60, 50), (50, 50)]),
        ("gen[ab] free3", gen_ab, 6,
         [(330, 330), (100, 50), (70, 70), (60, 60), (50, 50)]),
        ("rep-letter free4", rep4, n,
         [(65, 65), (65, 50), (60, 50), (50, 50)]),
    ]:
        m = parse_monoid(monoid)
        for sizes in pairs:
            f, g = (_random_series(rng, m, n, max_order, k) for k in sizes)
            name = f"mul {label} {sizes[0]}x{sizes[1]} N={n}"
            files = [operand_file(f"{_tag(name)}_{x}", op)
                     for x, op in (("f", f), ("g", g))]
            out.append(Request(name,
                               _argv("mul", monoid, n, "--format", "json",
                                     "--series", files[0],
                                     "--series", files[1]),
                               _series_check(n, _plain_terms(
                                   convolve_oracle(f, g)))))
    for label, monoid, max_order, size, side in [
        ("free3", _free(3), 5, 330, "left"),
        ("gen[ab] free3", gen_ab, 6, 200, "right"),
        ("rep-letter free4", rep4, n, 50, "left"),
    ]:
        m = parse_monoid(monoid)
        f = _random_series(rng, m, n, max_order, size)
        zeta = characteristic_series(m, n)
        g = convolve_oracle(zeta, f) if side == "left" else convolve_oracle(f, zeta)
        path = operand_file(f"invert_{side}_{_tag(label)}", g)
        out.append(Request(f"invert --side {side} {label} N={n}",
                           _argv("invert", monoid, n, "--format", "json",
                                 "--side", side, "--series", path),
                           _series_check(n, _plain_terms(f))))
    return out


def _tag(label):
    return "".join(c if c.isalnum() else "_" for c in label)


WORKLOADS = ("mobius-base", "quotient-count", "quotient-algebra")


def build(name, seed, workdir):
    """Request list of a workload; only quotient-algebra reads the seed."""
    if name == "mobius-base":
        return mobius_base()
    if name == "quotient-count":
        return quotient_count()
    if name == "quotient-algebra":
        return quotient_algebra(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")
