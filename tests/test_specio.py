import json
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mobzero import (
    Alphabet,
    FreeCommutativeMonoid,
    FreeMonoid,
    GeneratedIdeal,
    INTEGERS,
    IntegerModRing,
    MembershipError,
    MinLengthIdeal,
    RATIONALS,
    ReesQuotient,
    RepeatedLetterIdeal,
    Series,
    SpecError,
    mobius_series,
    parse_ideal,
    parse_monoid,
    parse_series,
    read_json_source,
    series_to_json,
)

import mobzero.specio as specio
from mobzero.cli import main

from helpers import (
    BareIdempotentMonoid,
    builtin_monoids,
    commutative,
    free,
    parse_series_by_terms,
    random_series,
    series_json_by_dumps,
    standard_words,
)

STANDARD = {
    "type": "rees",
    "base": {"type": "free", "alphabet": ["a", "b", "c"]},
    "ideal": {"kind": "repeated-letter"},
}


def test_parse_free():
    m = parse_monoid({"type": "free", "alphabet": ["a", "b"]})
    assert m == free(2)


def test_parse_free_commutative():
    m = parse_monoid({"type": "free-commutative", "alphabet": ["a", "b"]})
    assert m == commutative(2)
    m = parse_monoid({"type": "free-commutative",
                      "alphabet": ["a", "b", "c", "d"]})
    assert m == commutative(4)


def test_parse_adjoin_zero():
    # an adjoined zero that no product reaches is read as its base
    for base, expected in (
            ({"type": "free", "alphabet": ["a"]}, free(1)),
            ({"type": "free-commutative", "alphabet": ["a", "b"]},
             commutative(2)),
            (STANDARD, standard_words())):
        m = parse_monoid({"type": "adjoin-zero", "base": base})
        assert m == parse_monoid(base) == expected


def test_parse_rees_standard_words():
    assert parse_monoid(STANDARD) == standard_words()


def test_parse_rees_over_ev_preimage():
    base = free(3)
    m = parse_monoid({
        "type": "rees",
        "base": {"type": "free", "alphabet": ["a", "b", "c"]},
        "ideal": {"kind": "ev-preimage",
                  "inner": {"kind": "degree-at-least", "d": 2}},
    })
    assert m == ReesQuotient(base, MinLengthIdeal(base, 2))


FREE_ABC = {"type": "free", "alphabet": ["a", "b", "c"]}
GEN_AB = {"type": "rees", "base": FREE_ABC,
          "ideal": {"kind": "generated", "words": [["a", "b"]]}}


def ev_preimage(d):
    return {"kind": "ev-preimage",
            "inner": {"kind": "degree-at-least", "d": d}}


@pytest.mark.parametrize("base", [FREE_ABC, GEN_AB], ids=["free", "gen-ab"])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_ev_preimage_spells_min_length(base, d):
    # the pullback of degree-at-least(d) along the letter counts is the
    # order ideal min-length(d), over a free base or a quotient of one
    m = parse_monoid(base)
    assert parse_ideal(ev_preimage(d), m) == MinLengthIdeal(m, d)
    spelled = [parse_monoid({"type": "rees", "base": base, "ideal": ideal})
               for ideal in (ev_preimage(d), {"kind": "min-length", "n": d})]
    assert spelled[0] == spelled[1]
    assert hash(spelled[0]) == hash(spelled[1])


def test_ev_preimage_residue_is_one_per_grade():
    # membership of an extension depends only on its order, so one word
    # stands for its whole grade, not one per letter multiset
    q = parse_monoid({"type": "rees", "base": FREE_ABC,
                      "ideal": ev_preimage(4)})
    grades = q.grades(4)
    assert [len(grade) for grade in grades] == [1, 3, 9, 27, 0]
    for grade in grades:
        assert len({q.residue(w) for w in grade}) <= 1


def test_parse_rejects_unknown_type():
    with pytest.raises(SpecError):
        parse_monoid({"type": "group", "alphabet": ["a"]})
    with pytest.raises(SpecError):
        parse_monoid({"alphabet": ["a"]})
    with pytest.raises(SpecError):
        parse_monoid({"type": "free", "alphabet": []})


@pytest.mark.parametrize("alphabet", ["ab", {"a": 1, "b": 2}],
                         ids=["string", "object"])
@pytest.mark.parametrize("kind", ["free", "free-commutative"])
def test_parse_rejects_alphabet_that_is_not_a_list(kind, alphabet):
    with pytest.raises(SpecError):
        parse_monoid({"type": kind, "alphabet": alphabet})


def test_parse_rejects_non_proper_rees():
    spec = {
        "type": "rees",
        "base": {"type": "free", "alphabet": ["a", "b"]},
        "ideal": {"kind": "generated", "words": [[]]},
    }
    with pytest.raises(SpecError) as err:
        parse_monoid(spec)
    assert "proper" in str(err.value)


def test_parse_each_ideal_kind():
    base = free(3)
    cases = [
        ({"kind": "repeated-letter"}, RepeatedLetterIdeal(base)),
        ({"kind": "min-length", "n": 3}, MinLengthIdeal(base, 3)),
        ({"kind": "generated", "words": [["c"]]},
         GeneratedIdeal(base, [(2,)])),
        ({"kind": "generated", "words": [["c"], ["a", "b"]]},
         GeneratedIdeal(base, [(2,), (0, 1)])),
        ({"kind": "ev-preimage", "inner": {"kind": "degree-at-least", "d": 2}},
         MinLengthIdeal(base, 2)),
    ]
    for obj, expected in cases:
        assert parse_ideal(obj, base) == expected


def test_parse_ideal_rejects_generator_that_is_not_a_list():
    with pytest.raises(SpecError):
        parse_ideal({"kind": "generated", "words": ["ab"]}, free(2))


def test_parse_ideal_errors():
    base = free(2)
    with pytest.raises(SpecError):
        parse_ideal({"kind": "nope"}, base)
    with pytest.raises(SpecError):
        parse_ideal({"kind": "min-length", "n": "3"}, base)
    with pytest.raises(SpecError):
        parse_ideal({"kind": "min-length"}, base)
    with pytest.raises(SpecError):
        parse_ideal({"kind": "generated", "words": [["z"]]}, base)
    with pytest.raises(SpecError):
        parse_ideal({"kind": "degree-at-least", "d": 2}, base)


# -- series -----------------------------------------------------------------

def test_parse_series_basic():
    m = standard_words()
    obj = {"truncation": 4,
           "terms": [["1", []], ["-1", ["a"]], ["2", ["a", "b"]]]}
    f = parse_series(obj, m)
    assert f.truncation == 4
    assert f.terms == {(): 1, (0,): -1, (0, 1): 2}


def test_parse_series_big_integers():
    m = free(1)
    big = str(10 ** 40)
    f = parse_series({"truncation": 2, "terms": [[big, ["a"]]]}, m)
    assert f.terms[(0,)] == 10 ** 40


def test_parse_series_commutative_multiset():
    m = commutative(2)
    for letters in (["a", "a", "b"], ["a", "b", "a"], ["b", "a", "a"]):
        f = parse_series({"truncation": 3, "terms": [["1", letters]]}, m)
        assert f.terms == {m.word_from_letters(["a", "a", "b"]): 1}


def test_parse_series_rejects_bad_terms():
    m = standard_words()
    with pytest.raises(SpecError):
        parse_series({"terms": []}, m)
    with pytest.raises(SpecError):
        parse_series({"truncation": -1, "terms": []}, m)
    with pytest.raises(SpecError):
        parse_series({"truncation": 2, "terms": [["x", ["a"]]]}, m)
    with pytest.raises(SpecError):
        parse_series({"truncation": 2, "terms": [["1"]]}, m)
    with pytest.raises(SpecError):
        # beyond the stated truncation
        parse_series(
            {"truncation": 1, "terms": [["1", ["a", "b"]]]}, m)
    with pytest.raises(SpecError):
        parse_series(
            {"truncation": 3,
             "terms": [["1", ["a"]], ["2", ["a"]]]}, m)
    with pytest.raises(MembershipError):
        # aa collapses to zero in standard words
        parse_series({"truncation": 3, "terms": [["1", ["a", "a"]]]}, m)


@pytest.mark.parametrize("terms", [
    [["1", ["a", "a"]]],
    # the second term's coefficient is known, so it takes the fast path
    [["1", ["a"]], ["1", ["a", "a"]]],
])
def test_parse_series_refuses_a_non_element_of_a_bare_realization(terms):
    # a*a = a, so aa spells no word; the error is the strict route's
    m = BareIdempotentMonoid()
    obj = {"truncation": 2, "terms": terms}
    with pytest.raises(MembershipError) as strict:
        parse_series_by_terms(obj, m)
    with pytest.raises(MembershipError) as err:
        parse_series(obj, m)
    assert str(err.value) == str(strict.value)


def test_unknown_letter_error_names_the_letter_and_the_alphabet(capsys):
    with pytest.raises(SpecError) as err:
        parse_series({"truncation": 3, "terms": [["1", ["a", "z"]]]},
                     standard_words())
    assert str(err.value) == "unknown letter 'z'; alphabet is ['a', 'b', 'c']"
    series = json.dumps({"truncation": 3, "terms": [["1", ["z"]]]})
    assert main(["star", "--monoid", json.dumps(STANDARD), "--order", "3",
                 "--series", series]) == 1
    assert capsys.readouterr().err == (
        "error: unknown letter 'z'; alphabet is ['a', 'b', 'c']\n")


def test_term_inside_the_ideal_names_the_quotient():
    with pytest.raises(MembershipError) as err:
        parse_series({"truncation": 3, "terms": [["1", ["b", "b"]]]},
                     standard_words())
    assert str(err.value) == (
        "['b', 'b'] is not an element of Rees quotient of free monoid on "
        "{a, b, c} by repeated-letter ideal")


@pytest.mark.parametrize("wrap", [False, True])
def test_term_inside_the_inner_ideal_names_the_outer_monoid(wrap):
    outer = {"type": "rees", "base": STANDARD,
             "ideal": {"kind": "generated", "words": [["a", "b"]]}}
    if wrap:
        outer = {"type": "adjoin-zero", "base": outer}
    m = parse_monoid(outer)
    for letters, shown in ((["c", "c"], "['c', 'c']"),
                           (["a", "b"], "['a', 'b']")):
        with pytest.raises(MembershipError) as err:
            parse_series({"truncation": 3, "terms": [["1", letters]]}, m)
        assert str(err.value) == (
            f"{shown} is not an element of {m.describe()}")


def test_series_json_roundtrips_on_every_builtin_monoid():
    rng = random.Random(11)
    for m in builtin_monoids(3):
        for _ in range(5):
            f = random_series(rng, m, 5, max_support_order=5)
            obj = json.loads(series_to_json(f))
            assert parse_series(obj, m) == f, m.describe()


def writer_monoids():
    """Every built-in realization on one to three letters, a generated
    quotient, and bases and quotients whose letter names JSON escapes or
    that are longer than one character."""
    base = free(3)
    out = [m for k in (1, 2, 3) for m in builtin_monoids(k)]
    out.append(ReesQuotient(base, GeneratedIdeal(base, [(0, 1), (2, 2)])))
    escaped = Alphabet(["x1", "é", 'q"', "b\\s"])
    free_base = FreeMonoid(escaped)
    comm_base = FreeCommutativeMonoid(escaped)
    return out + [free_base, comm_base,
                  ReesQuotient(free_base, RepeatedLetterIdeal(free_base)),
                  ReesQuotient(comm_base, MinLengthIdeal(comm_base, 3))]


@pytest.mark.parametrize("ring, scale", [
    (INTEGERS, 10**30 + 7),
    (RATIONALS, Fraction(-7, 3)),
    (IntegerModRing(5), 3),
], ids=["integers", "rationals", "mod5"])
def test_series_to_json_writes_what_json_dumps_writes(ring, scale):
    rng = random.Random(3)
    for m in writer_monoids():
        cases = [Series.zero(m, 4, ring), Series.one(m, 4, ring)]
        for _ in range(5):
            f = random_series(rng, m, 5, max_support_order=5, ring=ring)
            cases += [f, scale * f]
        for f in cases:
            assert series_to_json(f) == series_json_by_dumps(f), m.describe()


def test_parse_series_rejects_word_that_is_not_a_list():
    with pytest.raises(SpecError):
        parse_series({"truncation": 2, "terms": [["1", "ab"]]}, free(2))


@pytest.mark.parametrize("bound", [True, False])
def test_parse_ideal_rejects_bool_bounds(bound):
    with pytest.raises(SpecError):
        parse_ideal({"kind": "min-length", "n": bound}, free(2))
    with pytest.raises(SpecError):
        parse_ideal({"kind": "degree-at-least", "d": bound}, commutative(2))


COMM_AB = {"type": "free-commutative", "alphabet": ["a", "b"]}
FREE_AB = {"type": "free", "alphabet": ["a", "b"]}
COMM_DEG5 = {"type": "rees", "base": COMM_AB,
             "ideal": {"kind": "degree-at-least", "d": 5}}
GEN_BA = {"type": "rees", "base": FREE_AB,
          "ideal": {"kind": "generated", "words": [["b", "a"]]}}
SEQUENCES = "min-length ideal needs a monoid whose words are letter sequences"
MULTISETS = ("degree-at-least ideal needs a monoid whose words are letter "
             "multisets")


@pytest.mark.parametrize("ideal, base, message", [
    ({"kind": "min-length", "n": bound}, base, message)
    for base, described in [
        (COMM_AB, "free commutative monoid on {a, b}"),
        (COMM_DEG5, "Rees quotient of free commutative monoid on {a, b} "
                    "by degree-at-least(5) ideal")]
    for bound, message in [
        ("x", "min-length bound must be an integer, got 'x'"),
        (2.5, "min-length bound must be an integer, got 2.5"),
        (True, "min-length bound must be an integer, got True"),
        (None, "min-length bound must be an integer, got None"),
        (0, f"{SEQUENCES}, got {described}"),
        (-1, f"{SEQUENCES}, got {described}")]
] + [
    ({"kind": "degree-at-least", "d": bound}, base, message)
    for base, described in [
        (FREE_AB, "free monoid on {a, b}"),
        (GEN_BA, "Rees quotient of free monoid on {a, b} by generated(ba) "
                 "ideal")]
    for bound, message in [
        ("x", "degree bound must be an integer, got 'x'"),
        (2.5, "degree bound must be an integer, got 2.5"),
        (True, "degree bound must be an integer, got True"),
        (None, "degree bound must be an integer, got None"),
        (0, f"{MULTISETS}, got {described}"),
        (-1, f"{MULTISETS}, got {described}")]
] + [
    # the inner ideal is read over the commutative base before the outer
    # base's word kind is checked
    ({"kind": "ev-preimage", "inner": {"kind": "min-length", "n": "x"}},
     FREE_AB, "min-length bound must be an integer, got 'x'"),
    ({"kind": "ev-preimage", "inner": {"kind": "min-length", "n": 0}},
     FREE_AB, f"{SEQUENCES}, got free commutative monoid on {{a, b}}"),
    ({"kind": "ev-preimage", "inner": {"kind": "degree-at-least", "d": 0}},
     COMM_AB, "degree bound must be at least 1, got 0"),
    ({"kind": "ev-preimage", "inner": {"kind": "degree-at-least", "d": "x"}},
     COMM_AB, "degree bound must be an integer, got 'x'"),
])
def test_order_ideal_reports_a_bad_bound_before_the_wrong_base(
        ideal, base, message):
    # a bound that is not an integer is named under the spelled kind,
    # before a base of the other word kind; one below 1 only after it
    with pytest.raises(SpecError) as err:
        parse_ideal(ideal, parse_monoid(base))
    assert str(err.value) == message


@pytest.mark.parametrize("truncation", [True, False])
def test_parse_series_rejects_bool_truncation(truncation):
    with pytest.raises(SpecError):
        parse_series({"truncation": truncation, "terms": []}, free(2))


@pytest.mark.parametrize("coeff", [2.7, True, " 7 ", "1_000", "\u0667"],
                         ids=["json-number", "true", "padded", "underscore",
                              "non-ascii-digit"])
def test_parse_series_rejects_non_decimal_coefficient(coeff):
    with pytest.raises(SpecError):
        parse_series({"truncation": 2, "terms": [[coeff, ["a"]]]}, free(1))


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="interpreter has no integer digit limit")
def test_parse_series_rejects_coefficient_beyond_digit_limit():
    digits = "1" * (sys.get_int_max_str_digits() + 1)
    with pytest.raises(SpecError):
        parse_series({"truncation": 2, "terms": [[digits, ["a"]]]}, free(1))


def test_parse_series_accepts_signed_decimal():
    f = parse_series({"truncation": 2,
                      "terms": [["-12", ["a"]], ["007", ["a", "a"]]]}, free(1))
    assert f.terms == {(0,): -12, (0, 0): 7}


def test_parse_series_accepts_fractions_over_the_rationals():
    f = parse_series({"truncation": 2,
                      "terms": [["-7/3", ["a"]], ["5", ["a", "a"]]]},
                     free(1), RATIONALS)
    assert f.terms == {(0,): Fraction(-7, 3), (0, 0): Fraction(5)}


@pytest.mark.parametrize("coeff", ["2/4", "1/1", "1/0", "1/-2", " 1/2",
                                   "0/2", "+1/2", "1.5"])
def test_parse_series_rejects_non_canonical_fractions(coeff):
    with pytest.raises(SpecError):
        parse_series({"truncation": 2, "terms": [[coeff, ["a"]]]}, free(1),
                     RATIONALS)


@pytest.mark.parametrize("ring", [INTEGERS, IntegerModRing(7)],
                         ids=["integers", "mod7"])
def test_parse_series_rejects_fractions_outside_the_rationals(ring):
    with pytest.raises(SpecError):
        parse_series({"truncation": 2, "terms": [["1/2", ["a"]]]}, free(1),
                     ring)


@st.composite
def wire_series(draw):
    m = draw(st.sampled_from(builtin_monoids(2)))
    truncation = draw(st.integers(0, 4))
    ring = draw(st.sampled_from([INTEGERS, RATIONALS, IntegerModRing(7)]))
    pool = [x for grade in m.grades(truncation) for x in grade]
    words = draw(st.lists(st.sampled_from(pool), max_size=6, unique=True))
    values = st.fractions() if ring == RATIONALS else st.integers()
    return Series(m, truncation, {x: draw(values) for x in words}, ring)


@settings(max_examples=150, deadline=None)
@given(wire_series())
def test_series_json_roundtrips_in_every_ring(f):
    text = series_to_json(f)
    assert text == series_json_by_dumps(f)
    assert parse_series(json.loads(text), f.monoid, f.ring) == f


def read_outcome(read, obj, m, ring=INTEGERS):
    """The series a reader returns, or the class and message it raises."""
    try:
        return read(obj, m, ring)
    except (SpecError, MembershipError) as exc:
        return type(exc), str(exc)


def reader_monoids():
    base = free(2)
    return builtin_monoids(2) + [
        ReesQuotient(base, GeneratedIdeal(base, [(0, 1)]))]


@st.composite
def wire_objects(draw):
    """A series the library wrote, or a term list drawn at random: words
    of the root base, possibly beyond the truncation or in an ideal,
    repeated words, and coefficients that are zero, fractions or not in
    lowest terms.  Coefficients repeat, so the readers see both first and
    repeated coefficient strings."""
    m = draw(st.sampled_from(reader_monoids()))
    ring = draw(st.sampled_from([INTEGERS, RATIONALS, IntegerModRing(5)]))
    truncation = draw(st.integers(0, 4))
    if draw(st.booleans()):
        pool = [x for grade in m.grades(truncation) for x in grade]
        words = draw(st.lists(st.sampled_from(pool), max_size=12, unique=True))
        values = (st.fractions(-2, 2, max_denominator=3) if ring == RATIONALS
                  else st.integers(-3, 3))
        f = Series(m, truncation, {x: draw(values) for x in words}, ring)
        return m, ring, json.loads(series_to_json(f))
    coefficient = st.sampled_from(["0", "1", "-1", "12", "007", "1/2", "-3/4",
                                   "2/4"])
    letters = st.lists(st.sampled_from(list(m.alphabet())),
                       max_size=truncation + 1)
    terms = st.lists(st.tuples(coefficient, letters).map(list), max_size=12)
    return m, ring, {"truncation": truncation, "terms": draw(terms)}


@settings(max_examples=300, deadline=None)
@given(wire_objects())
def test_parse_series_matches_the_term_by_term_reader(case):
    m, ring, obj = case
    assert (read_outcome(parse_series, obj, m, ring)
            == read_outcome(parse_series_by_terms, obj, m, ring))


GOOD_TERM = ["1", ["b"]]
ZERO_TERM = ["0", ["b"]]


@pytest.mark.parametrize("first, term, error", [
    (GOOD_TERM, ["1", "ab"], SpecError),
    (GOOD_TERM, ["1", [1]], SpecError),
    (GOOD_TERM, ["1", [["a"]]], SpecError),
    (GOOD_TERM, ["1", ["a", "z"]], SpecError),
    (GOOD_TERM, [1, ["a"]], SpecError),
    (GOOD_TERM, [True, ["a"]], SpecError),
    (GOOD_TERM, ["1", ["b"]], SpecError),
    (GOOD_TERM, ["1", ["a", "b", "c"]], SpecError),
    (GOOD_TERM, ["1", ["a", "a"]], MembershipError),
    (GOOD_TERM, "1", SpecError),
    (GOOD_TERM, ["1", ["a"], "x"], SpecError),
    (GOOD_TERM, ZERO_TERM, SpecError),
    (ZERO_TERM, GOOD_TERM, SpecError),
    (ZERO_TERM, ZERO_TERM, SpecError),
], ids=["letters-string", "letter-number", "letter-list", "unknown-letter",
        "number-coefficient", "true-coefficient", "duplicate",
        "beyond-truncation", "ideal-member", "not-a-list", "three-elements",
        "zero-duplicate", "duplicate-of-zero", "zero-duplicate-of-zero"])
def test_malformed_term_after_a_good_one_fails_like_the_term_reader(
        first, term, error):
    # the first term puts its coefficient in the memo; 1 and True must
    # not be read as the cached "1", and a word is repeated whatever the
    # coefficient of either term
    obj = {"truncation": 2, "terms": [first, term]}
    outcome = read_outcome(parse_series, obj, standard_words())
    assert outcome[0] is error
    assert outcome == read_outcome(parse_series_by_terms, obj,
                                   standard_words())


@pytest.mark.parametrize("coeff", ["0", "1"])
def test_commutative_word_repeated_in_another_letter_order_is_a_duplicate(
        coeff):
    obj = {"truncation": 3, "terms": [[coeff, ["b", "a", "b"]],
                                      ["2", ["a", "b", "b"]]]}
    for read in (parse_series, parse_series_by_terms):
        assert read_outcome(read, obj, commutative(2)) == (
            SpecError, "duplicate term for word ['a', 'b', 'b']")


def test_parse_series_parses_each_coefficient_string_once(monkeypatch):
    seen = []

    def counting(text, ring):
        seen.append(text)
        return parse_coefficient(text, ring)

    parse_coefficient = specio._parse_coefficient
    monkeypatch.setattr(specio, "_parse_coefficient", counting)
    m = free(2)
    words = [w for grade in m.grades(4) for w in grade]
    obj = {"truncation": 4,
           "terms": [[str(i % 3 - 1), m.word_letters(w)]
                     for i, w in enumerate(words)]}
    f = parse_series(obj, m)
    assert sorted(seen) == ["-1", "0", "1"]
    assert f == parse_series_by_terms(obj, m)


def test_parse_series_truncation_must_match_request():
    m = free(1)
    obj = {"truncation": 4, "terms": [["1", ["a"]]]}
    assert parse_series(obj, m, expected_truncation=4).truncation == 4
    with pytest.raises(SpecError):
        parse_series(obj, m, expected_truncation=8)


def test_series_json_roundtrip_sorted():
    m = standard_words()
    mu = mobius_series(m, 4)
    obj = json.loads(series_to_json(mu))
    assert obj == {"truncation": 4,
                   "terms": [["1", []], ["-1", ["a"]], ["-1", ["b"]],
                             ["-1", ["c"]]]}
    assert parse_series(obj, m) == mu


def test_series_json_commutative_sorted_multiset():
    m = commutative(2)
    f = Series(m, 3, {m.word_from_letters(["b", "a", "b"]): 5,
                      m.word_from_letters(["a", "a"]): 1})
    obj = json.loads(series_to_json(f))
    assert obj["terms"] == [["1", ["a", "a"]], ["5", ["a", "b", "b"]]]
    assert parse_series(obj, m) == f


def test_series_json_drops_explicit_zero():
    m = free(1)
    f = parse_series({"truncation": 2, "terms": [["0", ["a"]]]}, m)
    assert not f.terms


# -- source loading ---------------------------------------------------------

def test_read_inline_json():
    assert read_json_source('{"type": "free", "alphabet": ["a"]}') == {
        "type": "free", "alphabet": ["a"]}


def test_read_json_file(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(STANDARD))
    assert read_json_source(str(path)) == STANDARD


def test_read_json_errors(tmp_path):
    with pytest.raises(SpecError):
        read_json_source(str(tmp_path / "missing.json"))
    with pytest.raises(SpecError):
        read_json_source("{broken")
    bad = tmp_path / "list.json"
    bad.write_text("[1, 2]")
    with pytest.raises(SpecError,
                       match=re.escape(f"object in {str(bad)!r}, got list")):
        read_json_source(str(bad))
    latin = tmp_path / "latin-1.json"
    latin.write_bytes('{"type": "free", "alphabet": ["\xff"]}'.encode("latin-1"))
    with pytest.raises(SpecError,
                       match=re.escape(f"cannot read {latin}: not UTF-8 text")):
        read_json_source(str(latin))
