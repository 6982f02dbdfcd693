import itertools
import random

import pytest

from mobzero import (
    Alphabet,
    FreeCommutativeMonoid,
    FreeMonoid,
    GeneratedIdeal,
    InfiniteGradeError,
    MembershipError,
    MinLengthIdeal,
    ReesQuotient,
    Report,
    RepeatedLetterIdeal,
    SpecError,
    ZERO,
    Zero,
    ZeroMonoid,
)

from helpers import (
    BareIdempotentMonoid, IdempotentMonoid, InsertingMonoid, add_vectors,
    alphabet, builtin_monoids, commutative, commutative_image,
    elements_by_filter, factorizations, free, residue_monoids, standard_words,
    validate_locally_finite, vector_word)


def words(m, texts):
    return [m.word_from_letters(list(t)) for t in texts]


# -- alphabet ---------------------------------------------------------------

def test_alphabet_basics():
    alpha = Alphabet(["a", "b", "c"])
    assert len(alpha) == 3
    assert alpha.spell(["b", "a"]) == (1, 0)
    assert list(alpha) == ["a", "b", "c"]


def test_alphabet_join_single_char():
    alpha = Alphabet(["a", "b"])
    assert alpha.join(["a", "b", "a"]) == "aba"


def test_alphabet_join_multi_char():
    alpha = Alphabet(["x1", "x2"])
    assert alpha.join(["x1", "x2"]) == "x1*x2"


def test_alphabet_rejects_bad_input():
    with pytest.raises(SpecError):
        Alphabet([])
    with pytest.raises(SpecError):
        Alphabet(["a", "a"])
    with pytest.raises(SpecError):
        Alphabet(["a", ""])
    with pytest.raises(SpecError):
        Alphabet(["a", 3])
    with pytest.raises(SpecError):
        Alphabet(["a"]).spell(["a", "z"])


def test_alphabet_rejects_a_name_that_begins_with_a_digit():
    # twice the letter "1" would be written "21", and the letter itself
    # "1", like the identity
    with pytest.raises(SpecError) as info:
        Alphabet(["1", "x"])
    assert str(info.value) == "letter names must not begin with a digit, got '1'"


# -- zero sentinel ----------------------------------------------------------

def test_zero_is_singleton():
    assert Zero() is ZERO
    assert repr(ZERO) == "ZERO"


# -- free monoid ------------------------------------------------------------

@pytest.mark.parametrize("cls", [FreeMonoid, FreeCommutativeMonoid])
@pytest.mark.parametrize("letters", [["a", "b"], ("a",), "ab"])
def test_free_constructors_require_an_alphabet(cls, letters):
    with pytest.raises(SpecError):
        cls(letters)


def test_free_product_concatenates():
    m = free(2)
    ab, a = words(m, ["ab", "a"])
    assert m._mul(ab, a) == m.word_from_letters(["a", "b", "a"])
    assert m._mul((), ab) == ab
    assert len(ab) == 2
    assert m.word_from_letters([]) == ()


def test_free_membership_checked():
    m = free(2)
    assert not m.contains((0, -1))
    assert not m.contains("ab")


def test_free_elements_of_order():
    m = free(2)
    assert m.elements_of_order(0) == [()]
    assert [m.render_word(w) for w in m.elements_of_order(2)] == [
        "aa", "ab", "ba", "bb"]
    with pytest.raises(ValueError):
        m.elements_of_order(-1)


def test_free_factorizations():
    m = free(3)
    abc = m.word_from_letters(["a", "b", "c"])
    pairs = factorizations(m, abc)
    assert pairs == [
        ((), (0, 1, 2)),
        ((0,), (1, 2)),
        ((0, 1), (2,)),
        ((0, 1, 2), ()),
    ]


def test_free_equality_and_describe():
    assert free(2) == free(2)
    assert free(2) != free(3)
    assert "free monoid" in free(2).describe()


def test_free_bases_and_their_quotients_describe_and_repr():
    fm, cm = free(2), commutative(2)
    fq = ReesQuotient(fm, RepeatedLetterIdeal(fm))
    cq = ReesQuotient(cm, MinLengthIdeal(cm, 3))
    assert [(m.describe(), repr(m)) for m in (fm, cm, fq, cq)] == [
        ("free monoid on {a, b}", "FreeMonoid(['a', 'b'])"),
        ("free commutative monoid on {a, b}",
         "FreeCommutativeMonoid(['a', 'b'])"),
        ("Rees quotient of free monoid on {a, b} by repeated-letter ideal",
         "ReesQuotient(FreeMonoid(['a', 'b']), "
         "<RepeatedLetterIdeal over free monoid on {a, b}>)"),
        ("Rees quotient of free commutative monoid on {a, b} "
         "by degree-at-least(3) ideal",
         "ReesQuotient(FreeCommutativeMonoid(['a', 'b']), "
         "<MinLengthIdeal over free commutative monoid on {a, b}>)"),
    ]


# -- free commutative monoid ------------------------------------------------

def test_commutative_product_adds_exponents():
    m = commutative(2)
    a, b, aab, ab = words(m, ["a", "b", "aab", "ab"])
    assert m._mul(a, b) == m._mul(b, a) == ab
    assert m._mul(a, m._mul(b, a)) == aab
    assert m.render_word(m._mul(a, a)) == "aa"
    assert len(aab) == 3
    assert m.render_word(()) == "1"
    assert commutative_image(aab, 2) == (2, 1)


def test_commutative_word_from_letters_is_multiset():
    m = commutative(2)
    assert m.word_from_letters(["b", "a", "b"]) == \
        m.word_from_letters(["a", "b", "b"])
    assert m.render_word(m.word_from_letters(["b", "a", "b"])) == "abb"
    assert m.word_letters(m.word_from_letters(["b", "b", "a"])) == \
        ["a", "b", "b"]


def test_commutative_elements_of_order_sorted_by_expansion():
    m = commutative(2)
    # "a" before "b", "aa" before "ab" before "bb"
    assert [m.render_word(w) for w in m.elements_of_order(1)] == ["a", "b"]
    assert [m.render_word(w) for w in m.elements_of_order(2)] == [
        "aa", "ab", "bb"]


def test_commutative_factorizations_of_ab():
    m = commutative(2)
    one = ()
    a, b, ab, aa = words(m, ["a", "b", "ab", "aa"])
    pairs = factorizations(m, ab)
    assert pairs == [(one, ab), (a, b), (b, a), (ab, one)]
    # divisor pairs of a^2: 1*aa, a*a, aa*1
    assert factorizations(m, aa) == [(one, aa), (a, a), (aa, one)]


def test_commutative_membership():
    m = commutative(2)
    assert m.contains(())
    assert m.contains(m.word_from_letters(["b", "a"]))
    for word in [(1, 0), (2,), (0, -1), (0, 1.0), [0, 1]]:
        assert not m.contains(word), word


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_commutative_kernels_match_the_vector_route(k):
    # on letter-count vectors, a product adds, an order sums, extending
    # raises one count at or after the last nonzero one, which is the
    # residue, and a left factor is any vector below the word's
    m = commutative(k)
    pool = [w for n in range(8) for w in elements_by_filter(m, n)]
    for x in pool:
        v = commutative_image(x, k)
        assert vector_word(v) == x
        assert len(x) == sum(v)
        last = max([i for i, e in enumerate(v) if e], default=0)
        assert m.residue(x) == last
        assert m.extend(x) == [vector_word(v[:i] + (v[i] + 1,) + v[i + 1:])
                               for i in range(last, k)]
        splits = [(vector_word(u), vector_word(tuple(a - b for a, b in
                                                     zip(v, u))))
                  for u in itertools.product(*(range(e + 1) for e in v))]
        assert factorizations(m, x) == sorted(
            splits, key=lambda p: (sum(commutative_image(p[0], k)), p[0]))
        for y in pool:
            if len(x) + len(y) <= 7:
                assert m._mul(x, y) == vector_word(
                    add_vectors(v, commutative_image(y, k)))


# -- rees quotient ----------------------------------------------------------

def test_standard_words_product_hits_zero():
    m = standard_words()
    a, b = words(m, ["a", "b"])
    assert m._mul(a, b) == (0, 1)
    assert m._mul(a, a) is ZERO
    ab, ca = words(m, ["ab", "ca"])
    assert m._mul(ab, ca) is ZERO  # abca repeats a


def test_standard_words_carrier():
    m = standard_words()
    counts = [len(m.elements_of_order(n)) for n in range(5)]
    assert counts == [1, 3, 6, 6, 0]
    assert [m.render_word(w) for w in m.elements_of_order(2)] == [
        "ab", "ac", "ba", "bc", "ca", "cb"]


def test_standard_words_factorizations_filtered():
    m = standard_words()
    abc = m.word_from_letters(["a", "b", "c"])
    # all four cuts of abc survive: every factor is repetition-free
    assert len(factorizations(m, abc)) == 4
    ab = m.word_from_letters(["a", "b"])
    assert factorizations(m, ab) == [((), (0, 1)), ((0,), (1,)), ((0, 1), ())]


def test_rees_membership_excludes_ideal():
    m = standard_words()
    assert m.contains((0, 1))
    assert not m.contains((0, 0))  # aa is collapsed
    with pytest.raises(MembershipError):
        m.word_from_letters(["a", "a"])


# -- _element: the one hook that reads a word -------------------------------

def test_word_from_letters_refuses_a_non_element_of_a_bare_realization():
    # a*a = a, so aa spells no word; the default _element asks contains
    m = BareIdempotentMonoid()
    assert m.word_from_letters(["a"]) == (0,)
    assert m.word_from_letters([]) == ()
    with pytest.raises(MembershipError,
                       match=r"^\['a', 'a'\] is not an element"):
        m.word_from_letters(["a", "a"])


def test_a_bare_realization_is_described_by_class_and_alphabet():
    # the default describe names no object address, so two instances
    # give one error text
    errors = []
    for m in (BareIdempotentMonoid(), BareIdempotentMonoid()):
        with pytest.raises(MembershipError) as err:
            m.word_from_letters(["a", "a"])
        errors.append(str(err.value))
    assert errors[0] == errors[1] == (
        "['a', 'a'] is not an element of BareIdempotentMonoid on {a}")
    assert "0x" not in errors[0]


@pytest.mark.parametrize("k", [2, 3])
def test_element_is_the_root_normal_form_when_contained(k):
    """``_element`` of an index tuple is the root base's normal form of
    it, the tuple itself or, over letter multisets, the sorted tuple,
    when ``contains`` accepts that form, and None otherwise."""
    for seed in range(2):
        for m in residue_monoids(k, seed):
            for n in range(6):
                for indices in itertools.product(range(k), repeat=n):
                    form = (tuple(sorted(indices))
                            if m.word_kind == "multiset" else indices)
                    expected = form if m.contains(form) else None
                    assert m._element(iter(indices)) == expected, \
                        (m.describe(), indices)


def test_rees_rejects_non_proper_ideal():
    base = free(2)
    with pytest.raises(SpecError):
        ReesQuotient(base, GeneratedIdeal(base, [()]))


def test_rees_rejects_foreign_ideal():
    with pytest.raises(SpecError):
        ReesQuotient(free(2), RepeatedLetterIdeal(free(3)))


def test_rees_equality():
    assert standard_words() == standard_words()
    assert standard_words(2) != standard_words(3)


def test_builtins_equal_a_rebuild_and_differ_from_each_other():
    first, again = builtin_monoids(2), builtin_monoids(2)
    for i, m in enumerate(first):
        assert m == again[i] and hash(m) == hash(again[i])
        assert all(m != other for j, other in enumerate(first) if j != i)
    assert len(set(first + again)) == 5


def test_same_alphabet_different_class_is_unequal():
    alpha = alphabet(2)
    assert FreeMonoid(alpha) != FreeCommutativeMonoid(alpha)


# -- algebraic laws, sampled and small-exhaustive ---------------------------

def pool_up_to(m, top):
    out = []
    for n in range(top + 1):
        out.extend(m.elements_of_order(n))
    return out


def mul(m, x, y):
    if x is ZERO or y is ZERO:
        return ZERO
    return m._mul(x, y)


def test_product_associates_on_sampled_triples():
    rng = random.Random(11)
    for m in builtin_monoids(3):
        pool = pool_up_to(m, 3)
        for _ in range(80):
            x, y, z = (rng.choice(pool) for _ in range(3))
            if len(x) + len(y) + len(z) > 8:
                continue
            assert mul(m, mul(m, x, y), z) == mul(m, x, mul(m, y, z))


def test_order_adds_exactly_for_builtins():
    for m in builtin_monoids(2):
        pool = pool_up_to(m, 3)
        for x in pool:
            for y in pool:
                z = m._mul(x, y)
                if z is not ZERO:
                    assert len(z) == len(x) + len(y)


def kernel_monoids(k):
    """Free, free commutative and Rees-quotient realizations over k
    letters, and quotients of quotients over both kinds of base."""
    words = standard_words(k)
    degree = ReesQuotient(commutative(k),
                          MinLengthIdeal(commutative(k), 5))
    return builtin_monoids(k) + [
        ReesQuotient(words, GeneratedIdeal(words, [(k - 1, 0)])),
        ReesQuotient(degree, MinLengthIdeal(degree, 4)),
    ]


@pytest.mark.parametrize("m", kernel_monoids(3), ids=repr)
def test_kernels_match_plain_python(m):
    # concatenation and length for letter sequences, componentwise sum
    # and total degree of the letter counts for letter multisets; a
    # product outside the monoid is its zero
    if m.word_kind == "sequence":
        def product(x, y):
            return x + y

        def order(x):
            return len(x)
    else:
        def product(x, y):
            return vector_word(add_vectors(commutative_image(x, 3),
                                           commutative_image(y, 3)))

        def order(x):
            total = 0
            for e in commutative_image(x, 3):
                total += e
            return total
    grades = m.grades(6)
    for i, grade in enumerate(grades):
        for x in grade:
            assert len(x) == order(x) == i
            for y in itertools.chain.from_iterable(grades[:7 - i]):
                z = product(x, y)
                assert m._mul(x, y) == (z if m.contains(z) else ZERO)


def test_factorizations_match_products_exhaustively():
    for m in (free(2), commutative(2), standard_words()):
        pool = pool_up_to(m, 6)
        by_product = {}
        for x in pool:
            for y in pool:
                if len(x) + len(y) > 6:
                    continue
                z = m._mul(x, y)
                if z is not ZERO:
                    by_product.setdefault(z, set()).add((x, y))
        for x in pool:
            assert set(factorizations(m, x)) == by_product.get(x, set())


def test_only_identity_is_invertible():
    for m in builtin_monoids(2):
        e = ()
        pool = pool_up_to(m, 3)
        for x in pool:
            for y in pool:
                if 0 < len(x) + len(y) <= 6:
                    assert m._mul(x, y) != e


def test_rees_zero_exactly_on_ideal_products():
    m = standard_words()
    pool = pool_up_to(m, 3)
    for x in pool:
        for y in pool:
            joined = m.base._mul(x, y)
            assert (m._mul(x, y) is ZERO) == m.ideal.contains(joined)


# -- rendering --------------------------------------------------------------

def test_render_identity_and_words():
    m = free(2)
    assert m.render_word(()) == "1"
    assert m.render_word((0, 1, 0)) == "aba"


# -- local finiteness checker -----------------------------------------------

def test_builtins_validate_locally_finite():
    monoids = [free(2), commutative(2), standard_words()]
    for k in (1, 2, 3):
        for seed in range(3):
            monoids += residue_monoids(k, seed)
    for m in monoids:
        report = validate_locally_finite(m, 4)
        assert report.passed, (m.describe(), report.counterexample)


def test_validator_reports_an_order_above_the_sum():
    report = validate_locally_finite(InsertingMonoid(), 2)
    assert "order of a*a is 3, not 1 + 1" in report.violations


def test_validator_reports_idempotent():
    report = validate_locally_finite(IdempotentMonoid(), 2)
    assert not report.passed
    assert "idempotent" in report.counterexample
    # a*a = a also drops the order below 1 + 1
    assert any("order of" in v for v in report.violations)


def test_validator_rejects_bad_bound():
    with pytest.raises(ValueError):
        validate_locally_finite(free(1), 0)


def test_enumeration_not_available_by_default():
    class Opaque(ZeroMonoid):
        word_kind = "sequence"

        def alphabet(self):
            return alphabet(1)

        def contains(self, word):
            return isinstance(word, tuple)

        def _mul(self, x, y):
            return x + y

    with pytest.raises(InfiniteGradeError):
        Opaque().elements_of_order(2)
    with pytest.raises(InfiniteGradeError):
        factorizations(Opaque(), (0,))


def test_report_formatting():
    report = validate_locally_finite(free(2), 3)
    assert str(report).startswith("PASS")
    assert report.to_json() == {
        "check": "locally-finite", "pass": True}
    bad = validate_locally_finite(IdempotentMonoid(), 2)
    assert str(bad).startswith("FAIL locally-finite:")
    assert bad.to_json()["pass"] is False
    assert "counterexample" in bad.to_json()


def test_reports_with_equal_fields_are_equal_and_hash_equal():
    a = Report("unit-inverse", ("mobius*zeta != 1",), ("note",))
    b = Report("unit-inverse", ("mobius*zeta != 1",), ("note",))
    assert a == b and hash(a) == hash(b)
    assert a != Report("unit-inverse", ("mobius*zeta != 1",))
    assert Report("x") == Report("x", (), ())


def test_report_fields_cannot_be_assigned():
    report = Report("unit-inverse", ("bad",))
    for field in ("check", "violations", "notes", "extra"):
        with pytest.raises(AttributeError):
            setattr(report, field, ())
    assert report.violations == ("bad",)


def test_report_repr_and_counterexample():
    report = Report("mobius-transfer", ("at a: 1 != 2",), ("n",))
    assert repr(report) == ("Report(check='mobius-transfer', "
                            "violations=('at a: 1 != 2',), notes=('n',))")
    assert repr(Report("x")) == "Report(check='x', violations=(), notes=())"
    assert report.counterexample == "at a: 1 != 2"
    assert Report("x").counterexample is None
