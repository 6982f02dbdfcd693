"""Parsers of JSON descriptions of monoids, ideals and series, and the
series writer.

The wire formats are deliberately small:

monoid      {"type": "free", "alphabet": ["a", "b"]}
            {"type": "free-commutative", "alphabet": ["a", "b"]}
            {"type": "adjoin-zero", "base": {...}}   (read as its base)
            {"type": "rees", "base": {...}, "ideal": {...}}
ideal       {"kind": "repeated-letter"}
            {"kind": "min-length", "n": 3}
            {"kind": "generated", "words": [["c"], ["a", "b"]]}
            {"kind": "degree-at-least", "d": 2}
            {"kind": "ev-preimage", "inner": {...}}   (read as min-length(d))
series      {"truncation": 8, "terms": [["1", []], ["-1", ["a"]]]}

Series coefficients travel as decimal strings (ASCII digits with an
optional leading minus sign, nothing else), so no JSON implementation
reads them as floats.  A coefficient longer than
``sys.get_int_max_str_digits()`` digits (4,300 by Python's default) is
refused on reading.  The writer converts coefficients under the same
limit; the CLI lifts it around its output only, so exact results of
any size are written in full, and restores it after.  Over the rationals a
coefficient may also be a fraction ``p/q`` as ``str(Fraction)`` writes
it: a decimal numerator, a slash and an unsigned denominator of at least
2, in lowest terms.  Words travel as letter-name lists, the letters of
the word in display order: for commutative monoids the sorted letter
multiset.  The reader accepts a commutative word's letters in any order,
and a word may appear in one term only, whatever its coefficient.
Parsers raise :class:`SpecError` on malformed descriptions, a field
outside those listed above included, and :class:`MembershipError` on
words that fail to belong.  The writer,
:func:`series_to_json`, returns the text of a series, byte for byte what
``json.dumps`` writes for its object, terms sorted by order, then
lexicographically.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

from .errors import SpecError
from .ideals import (
    GeneratedIdeal,
    IdealSpec,
    MinLengthIdeal,
    RepeatedLetterIdeal,
    _require_integer_bound,
    _require_word_kind,
)
from .monoid import (
    Alphabet,
    FreeCommutativeMonoid,
    FreeMonoid,
    ReesQuotient,
    ZeroMonoid,
)
from .series import INTEGERS, Ring, Series

_DECIMAL = re.compile(r"-?[0-9]+")
_FRACTION = re.compile(r"(-?[0-9]+)/([0-9]+)")


def read_json_source(source: str) -> dict:
    """Load a JSON object from inline text or a file path.

    Anything that starts with ``{`` is treated as inline JSON; everything
    else is a path.
    """
    text = source
    if not source.lstrip().startswith("{"):
        try:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:  # missing, a directory, no permission, ...
            raise SpecError(
                f"cannot read {source}: {exc.strerror.lower()}") from None
        except UnicodeDecodeError:
            raise SpecError(f"cannot read {source}: not UTF-8 text") from None
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"invalid JSON in {source!r}: {exc}") from None
    if not isinstance(obj, dict):
        raise SpecError(f"expected a JSON object in {source!r}, "
                        f"got {type(obj).__name__}")
    return obj


def _field(obj: dict, name: str, what: str):
    if not isinstance(obj, dict):
        raise SpecError(f"{what} description must be a JSON object, "
                        f"got {obj!r}")
    if name not in obj:
        raise SpecError(f"{what} description is missing {name!r}: {obj!r}")
    return obj[name]


def _only(obj: dict, what: str, value, *names):
    """``value``, once every field of ``obj`` is among ``names``: a field
    that this reader does not know is refused, never ignored."""
    for name in obj:
        if name not in names:
            raise SpecError(
                f"{what} description has unknown field {name!r}: {obj!r}")
    return value


def _letters(value, what: str) -> list:
    """A JSON list of letter names; a string or an object would otherwise
    be read letter by letter or key by key."""
    if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
        raise SpecError(f"{what} must be a list of letter names, got {value!r}")
    return value


def _is_integer(value) -> bool:
    """A JSON integer; ``true`` and ``false`` are not numbers here."""
    return isinstance(value, int) and not isinstance(value, bool)


def parse_monoid(obj: dict) -> ZeroMonoid:
    kind = _field(obj, "type", "monoid")
    if kind in ("free", "free-commutative"):
        alphabet = Alphabet(_letters(_field(obj, "alphabet", "monoid"),
                                     "an alphabet"))
        monoid = (FreeMonoid if kind == "free"
                  else FreeCommutativeMonoid)(alphabet)
        return _only(obj, "monoid", monoid, "type", "alphabet")
    if kind == "adjoin-zero":
        # a zero that no product reaches leaves the contracted algebra of
        # its base unchanged, so the base already models it
        base = parse_monoid(_field(obj, "base", "monoid"))
        return _only(obj, "monoid", base, "type", "base")
    if kind == "rees":
        base = parse_monoid(_field(obj, "base", "monoid"))
        ideal = parse_ideal(_field(obj, "ideal", "monoid"), base)
        return _only(obj, "monoid", ReesQuotient(base, ideal),
                     "type", "base", "ideal")
    raise SpecError(f"unknown monoid type {kind!r}")


def parse_ideal(obj: dict, base: ZeroMonoid) -> IdealSpec:
    kind = _field(obj, "kind", "ideal")
    what = f"{kind} ideal"
    if kind == "repeated-letter":
        return _only(obj, what, RepeatedLetterIdeal(base), "kind")
    if kind in ("min-length", "degree-at-least"):
        # one ideal, the words of order at least n, spelled for the base's
        # word kind; a bound that is not an integer is reported before a
        # base of the other kind, and one below 1 after it
        word_kind, name = (("sequence", "n") if kind == "min-length"
                           else ("multiset", "d"))
        n = _field(obj, name, what)
        _require_integer_bound(n, word_kind)
        _require_word_kind(base, kind, word_kind)
        return _only(obj, what, MinLengthIdeal(base, n), "kind", name)
    if kind == "generated":
        raw = _field(obj, "words", what)
        if not isinstance(raw, list):
            raise SpecError(f"generator list must be a list, got {raw!r}")
        # spelled lazily, so that GeneratedIdeal checks the base's word
        # kind before any letter is looked up
        ideal = GeneratedIdeal(
            base, (base.word_from_letters(_letters(entry, "a generator"))
                   for entry in raw))
        return _only(obj, what, ideal, "kind", "words")
    if kind == "ev-preimage":
        # the commutative base admits only degree-at-least(d), whose
        # pullback along the letter counts is min-length(d)
        inner_obj = _field(obj, "inner", what)
        inner = parse_ideal(inner_obj, FreeCommutativeMonoid(base.alphabet()))
        _require_word_kind(base, kind)
        return _only(obj, what, MinLengthIdeal(base, inner.n), "kind", "inner")
    raise SpecError(f"unknown ideal kind {kind!r}")


def parse_series(obj: dict, monoid: ZeroMonoid, ring: Ring = INTEGERS,
                 expected_truncation: int = None) -> Series:
    truncation = _field(obj, "truncation", "series")
    if not _is_integer(truncation) or truncation < 0:
        raise SpecError(
            f"series truncation must be a nonnegative integer, got {truncation!r}")
    if expected_truncation is not None and truncation != expected_truncation:
        raise SpecError(
            f"series is truncated at {truncation}, but order "
            f"{expected_truncation} was requested; re-export the series at "
            f"the requested order")
    raw_terms = _field(obj, "terms", "series")
    if not isinstance(raw_terms, list):
        raise SpecError(f"series terms must be a list, got {raw_terms!r}")
    terms = {}
    zeros = []  # words with a zero coefficient, dropped after the last term
    coefficients = {}  # each distinct wire coefficient, parsed once
    index = monoid.alphabet()._index.__getitem__
    element = monoid._element
    zero = ring.zero
    for entry in raw_terms:
        if not (isinstance(entry, list) and len(entry) == 2):
            raise SpecError(f"each term must be [coefficient, letters], "
                            f"got {entry!r}")
        text, letters = entry
        try:
            coeff = coefficients[text]
        except (KeyError, TypeError):  # a new string, or not one at all
            coeff = coefficients[text] = _parse_coefficient(text, ring)
        # one map and one C-level lookup per letter; a name outside the
        # alphabet, a non-string or a word that spells no element goes
        # to word_from_letters, which raises the error the term deserves
        word = None
        if type(letters) is list:
            try:
                word = element(map(index, letters))
            except (KeyError, TypeError):
                pass
        if word is None:
            word = monoid.word_from_letters(_letters(letters, "a term's word"))
        if len(word) > truncation:
            raise SpecError(
                f"term {letters!r} has order {len(word)}, beyond "
                f"the stated truncation {truncation}")
        if word in terms:
            raise SpecError(f"duplicate term for word {letters!r}")
        terms[word] = coeff
        if coeff == zero:
            zeros.append(word)
    for word in zeros:
        del terms[word]
    return _only(obj, "series", Series(monoid, truncation, terms, ring,
                                       _normalized=True),
                 "truncation", "terms")


def _wire_int(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:  # beyond the interpreter's digit limit
        raise SpecError(f"coefficient is too long: {exc}") from None


def _parse_coefficient(text, ring: Ring):
    """A wire coefficient as a value of the ring: a decimal string, or
    over the rationals also a fraction in lowest terms."""
    if isinstance(text, str) and _DECIMAL.fullmatch(text):
        return ring.from_int(_wire_int(text))
    rational = ring.value_type is Fraction
    fraction = rational and isinstance(text, str) and _FRACTION.fullmatch(text)
    if not fraction:
        what = "a decimal or fraction string" if rational else "a decimal string"
        raise SpecError(f"coefficient must be {what}, got {text!r}")
    numerator, denominator = map(_wire_int, fraction.groups())
    if denominator < 2 or math.gcd(numerator, denominator) != 1:
        raise SpecError(
            f"fraction coefficient must be in lowest terms with a "
            f"denominator of at least 2, got {text!r}")
    return Fraction(numerator, denominator)


def series_to_json(f: Series) -> str:
    """The JSON text of a series, in one pass over its sorted terms.

    It is byte for byte ``json.dumps`` of ``{"truncation": N, "terms":
    [[str(coefficient), letter names], ...]}``, with the default ``", "``
    separators.  Each letter name is quoted once, by ``json.dumps``; a
    coefficient's ``str`` is digits, a minus sign and a slash, which JSON
    writes as they are.
    """
    quoted = [json.dumps(name) for name in f.monoid.alphabet()].__getitem__
    terms = ", ".join(['["%s", [%s]]' % (coeff, ", ".join(map(quoted, word)))
                       for word, coeff in f.items_sorted()])
    return '{"truncation": %d, "terms": [%s]}' % (f.truncation, terms)
