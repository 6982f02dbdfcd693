"""Shared builders and independent oracles for the test suite.

The oracles here deliberately avoid the code paths they are used to
check: one Mobius oracle inverts the characteristic series by a
grade-by-grade linear solve over factorizations instead of the closed
form or the star route, the other keeps the old route, the star of one
minus a characteristic series built in full, against the grades that
``mobius_series`` feeds the solver directly where the monoid has no
closed form, the falling-factorial counter
predicts no-repeat word counts arithmetically instead of by enumeration,
the term-by-term series reader parses every coefficient and spells every
word on its own, without the coefficient memo and the letter map of
``parse_series``, the dumps writer builds a list per term and has
``json.dumps`` encode the series object instead of writing the text of
``series_to_json`` in one pass, the element filter lists a grade by
testing every word of the root base instead of extending the grade
below, the extension route lists a grade by extending every word of the
grade below instead of one word per residue class, the filter counter
counts every element instead of one word per residue class, the
per-order residue counter keeps the old walk of ``hilbert_prefix``,
which extends one word per residue of every order instead of reading
one moves table for the whole count, so it asks nothing of residues
across orders,
the factorization filter tests both factors of every base factorization
for membership in the quotient, the pair-by-pair product asks the
monoid's own ``_mul`` about every term pair instead of deciding collapse
once per pair of seam-key classes, its star fixes each grade of
s = 1 + s*f with a full product of the grades below by f, and the window
scan tests every window of a word against every generator instead of
running the factor automaton, and the cluster count gives the Hilbert
counts of a generated ideal by the Goulden-Jackson generating function,
with no word built and no residue class.

The power-sum star adds up the powers of a proper series until one
vanishes; it is the oracle for ``star``.  The section route inverts a
quotient series with augmentation one by lifting it to the base,
inverting it there and projecting the inverse back down.  Two probes
search a finite range of orders: one for products that break local
finiteness, the other for products that escape an ideal or for an ideal
that holds the identity.

The vector route keeps the exponent-vector arithmetic of the free
commutative monoid, whose words are sorted letter tuples: a word's
letter counts, their componentwise sum, and a vector expanded back into
sorted letter indices.

Three tools live here because only tests call them: ``power``, the
checked and sorted ``factorizations`` of an element, and
``random_series``, which draws as ``check_oracle_equivalence`` does.
"""

import itertools
import json
import random

from mobzero import (
    Alphabet,
    FreeCommutativeMonoid,
    FreeMonoid,
    GeneratedIdeal,
    INTEGERS,
    IdealSpec,
    MembershipError,
    MinLengthIdeal,
    MonoidMismatchError,
    ProperError,
    ReesQuotient,
    RepeatedLetterIdeal,
    Report,
    Ring,
    Series,
    SpecError,
    ZERO,
    ZeroMonoid,
    cauchy_product,
    characteristic_series,
    first_difference,
    parse_ideal,
    phi,
    section,
    star,
)
from mobzero.series import _draw_series, _require_proper
from mobzero.specio import _field, _is_integer, _letters, _parse_coefficient

LETTERS = ("a", "b", "c", "d")


def alphabet(k):
    return Alphabet(LETTERS[:k])


def free(k):
    return FreeMonoid(alphabet(k))


def commutative(k):
    return FreeCommutativeMonoid(alphabet(k))


def standard_words(k=3):
    base = free(k)
    return ReesQuotient(base, RepeatedLetterIdeal(base))


def builtin_monoids(k):
    """One representative of every built-in realization over k letters."""
    f = free(k)
    c = commutative(k)
    return [
        f,
        c,
        ReesQuotient(f, RepeatedLetterIdeal(f)),
        ReesQuotient(f, MinLengthIdeal(f, 3)),
        ReesQuotient(c, MinLengthIdeal(c, 3)),
    ]


def builtin_free_ideals(base):
    """Every built-in ideal kind applicable to a free base; the last is
    the wire's ev-preimage(degree-at-least(2)), read as min-length(2)."""
    last_letter = (len(base.alphabet()) - 1,)
    return [
        RepeatedLetterIdeal(base),
        MinLengthIdeal(base, 3),
        GeneratedIdeal(base, [last_letter]),
        parse_ideal({"kind": "ev-preimage",
                     "inner": {"kind": "degree-at-least", "d": 2}}, base),
    ]


def mobius_by_triangular_solve(m, truncation, ring=INTEGERS):
    """Invert the characteristic series grade by grade.

    mu*zeta = 1 forces, for every x other than the identity,
    sum of mu(y) over all pairs (y, z) with yz = x to vanish; the pair
    (x, identity) isolates the unknown, every other pair has a left
    factor of strictly lower order.  No star operation involved.
    """
    identity = ()
    mu = {identity: ring.one}
    for n in range(1, truncation + 1):
        for x in elements_by_filter(m, n):
            total = ring.zero
            for y, z in factorizations(m, x):
                if z == identity:
                    continue
                known = mu.get(y)
                if known is not None:
                    total += known
            value = ring.reduce(-total)
            if value != ring.zero:
                mu[x] = value
    return Series(m, truncation, mu, ring)


def factorizations(m: ZeroMonoid, x: tuple) -> list:
    """All pairs (y, z) with yz = x in m, sorted by the left factor; a
    word outside m raises :class:`MembershipError`."""
    if not m.contains(x):
        raise MembershipError(f"{x!r} is not an element of {m.describe()}")
    pairs = list(m._splits(x))
    pairs.sort(key=lambda p: (len(p[0]), p[0]))
    return pairs


def power(f: Series, k: int) -> Series:
    """k-th Cauchy power; the zeroth power is the unit series."""
    if k < 0:
        raise ValueError(f"exponent must be nonnegative, got {k}")
    result = Series.one(f.monoid, f.truncation, f.ring)
    for _ in range(k):
        result = cauchy_product(result, f)
        if not result.terms:
            break
    return result


def random_series(rng, m: ZeroMonoid, truncation: int,
                  max_support_order: int = 3, proper: bool = False,
                  ring: Ring = INTEGERS) -> Series:
    """Deterministic random series driven by a seeded ``random.Random``.

    Support is drawn from the elements of order at most max_support_order
    (order at least 1 when proper); coefficients are uniform integers in
    [-3, 3], coerced into the ring.  Draws that are zero in the ring are
    dropped.  The draw is the library's ``_draw_series``, which
    ``check_oracle_equivalence`` makes too.
    """
    grades = m.grades(min(max_support_order, truncation))
    pool = [x for grade in grades[1 if proper else 0:] for x in grade]
    return _draw_series(rng, m, truncation, pool, ring)


def mobius_by_star(m, truncation, ring=INTEGERS):
    """The star of -zeta+, with the characteristic series zeta built and
    subtracted from one, and handed to ``star``."""
    return star(Series.one(m, truncation, ring)
                - characteristic_series(m, truncation, ring))


def cauchy_by_pairs(f, g):
    """The Cauchy product of two series over one monoid with one ring,
    every term pair multiplied by the monoid's ``_mul`` and dropped when
    that is ``ZERO``."""
    m, ring = f.monoid, f.ring
    cap = min(f.truncation, g.truncation)
    by_order = {}
    for w, c in g.terms.items():
        by_order.setdefault(len(w), []).append((w, c))
    acc = {}
    for x, a in f.terms.items():
        ox = len(x)
        for og in sorted(by_order):
            if ox + og > cap:
                break
            for y, b in by_order[og]:
                z = m._mul(x, y)
                if z is ZERO or len(z) > cap:
                    continue
                # reduced after every product, unlike cauchy_product,
                # which reduces each output term once
                acc[z] = ring.reduce(acc.get(z, ring.zero) + a * b)
    terms = {w: c for w, c in acc.items() if c != ring.zero}
    return Series(m, cap, terms, ring, _normalized=True)


def star_by_pairs(f):
    """The star s of a proper series f, grade by grade from s = 1:
    grade n of s = 1 + s*f is grade n of s*f, which takes only the grades
    of s below n, so a :func:`cauchy_by_pairs` of the grades found so far
    with f fixes the next one."""
    m = f.monoid
    s = Series.one(m, f.truncation, f.ring)
    for n in range(1, f.truncation + 1):
        grade = {w: c for w, c in cauchy_by_pairs(s, f).terms.items()
                 if len(w) == n}
        s = s + Series(m, f.truncation, grade, f.ring, _normalized=True)
    return s


def star_by_powers(f: Series):
    """Star as the sum of all powers of a proper series, with the number of
    nonzero powers summed (including the zeroth).

    This is the independent oracle for :func:`star`.  Each power raises
    the minimal support order, so powers beyond the truncation vanish and
    the sum is finite and exact.  The loop stops as soon as a power
    vanishes outright, which happens for every proper series over a finite
    monoid (nilpotency).  It costs up to N full Cauchy products.
    """
    _require_proper(f)
    ring = f.ring
    total = Series.one(f.monoid, f.truncation, ring)
    p = total
    count = 1
    for _ in range(f.truncation):
        p = cauchy_product(p, f)
        if not p.terms:
            break
        total = total + p
        count += 1
    return total, count


def check_lemma_inverse_via_section(q: ReesQuotient, f: Series) -> Report:
    """Compare two routes to the inverse of a quotient series with
    augmentation one: invert in the quotient directly, or lift by the
    section, invert over the base, and project back down.
    """
    if f.monoid != q:
        raise MonoidMismatchError(
            f"expected a series over {q.describe()}, "
            f"got one over {f.monoid.describe()}")
    if f.augmentation() != f.ring.one:
        raise ProperError(
            "inverse-via-section needs augmentation one, got "
            f"{f.augmentation()}")
    one_q = Series.one(q, f.truncation, f.ring)
    direct = star(one_q - f)
    lifted = section(q, f)
    one_b = Series.one(q.base, f.truncation, f.ring)
    upstairs = star(one_b - lifted)
    via_section = phi(q, upstairs)
    violations = []
    if direct != via_section:
        violations.append(
            f"inverses disagree ({first_difference(direct, via_section)})")
    else:
        check = cauchy_product(direct, f)
        if check != one_q:
            violations.append(
                f"claimed inverse fails ({first_difference(check, one_q)})")
    return Report("inverse-via-section", tuple(violations))


def contains_by_windows(ideal, word):
    """Whether some generator of a generated ideal is a factor of the
    word, every window of the word compared with every generator."""
    for g in ideal.generators:
        k = len(g)
        if any(word[i:i + k] == g for i in range(len(word) - k + 1)):
            return True
    return False


def commutative_image(word, size):
    """Letter-count vector of a word over ``size`` letters."""
    counts = [0] * size
    for i in word:
        counts[i] += 1
    return tuple(counts)


def add_vectors(u, v):
    """Componentwise sum of two letter-count vectors."""
    return tuple(a + b for a, b in zip(u, v))


def vector_word(vector):
    """The free commutative word with the given letter counts: its letter
    indices in increasing order."""
    return tuple(i for i, e in enumerate(vector) for _ in range(e))


def elements_by_filter(m, n):
    """The elements of order n in display order: every word of order n
    of the root base (the free or free commutative monoid under all
    wrappers and quotients) is built and tested with ``m.contains``.
    Commutative words come from the letter-count vectors of total n,
    listed with decreasing coordinates: the more of the early letters,
    the earlier the word."""
    root = m
    while hasattr(root, "base"):
        root = root.base
    k = len(root.alphabet())
    if isinstance(root, FreeCommutativeMonoid):
        words = (vector_word(v)
                 for v in itertools.product(range(n, -1, -1), repeat=k)
                 if sum(v) == n)
    else:
        words = itertools.product(range(k), repeat=n)
    return [w for w in words if m.contains(w)]


def grades_by_extension(m, top):
    """The nonzero elements of each order 0..top, one list per order
    in display order: each grade is ``m.extend`` of every word of the
    grade below, word after word, with no residue asked."""
    if top < 0:
        return []
    out = [[()]]
    for _ in range(top):
        out.append([w for x in out[-1] for w in m.extend(x)])
    return out


def counts_by_filter(m, top):
    """Number of nonzero elements of each order 0..top, every element
    listed by :func:`elements_by_filter`."""
    return tuple(len(elements_by_filter(m, n)) for n in range(top + 1))


def counts_by_residue_per_order(m: ZeroMonoid, top: int) -> tuple:
    """Count nonzero elements of each order from 0 up to ``top``, as a
    tuple indexed by order.

    Each grade is held as one representative word and a multiplicity per
    residue (:meth:`ZeroMonoid.residue`); the next grade extends every
    representative once.  Elements of equal order and residue have
    extensions of equal residues, so the counts are exact while each
    grade costs its number of residues times the extensions of one word,
    not its number of elements.  Needs ``m.extend``: a monoid without it
    raises :class:`InfiniteGradeError` for ``top`` above 0.
    """
    if top < 0:
        raise ValueError(f"top must be nonnegative, got {top}")
    extend = m.extend
    residue = m.residue
    grade = {residue(()): [(), 1]}
    counts = [1]
    for _ in range(top):
        above = {}
        for word, multiplicity in grade.values():
            for child in extend(word):
                key = residue(child)
                if key in above:
                    above[key][1] += multiplicity
                else:
                    above[key] = [child, multiplicity]
        grade = above
        counts.append(sum(entry[1] for entry in grade.values()))
    return tuple(counts)


def factorizations_by_filter(quotient, x):
    """The base factorizations of x whose two factors both lie outside
    the quotient's ideal, in the order of ``factorizations``."""
    return [(y, z) for y, z in factorizations(quotient.base, x)
            if quotient.contains(y) and quotient.contains(z)]


def falling_factorial(k, n):
    """Number of length-n words over k letters with no letter repeated."""
    value = 1
    for i in range(n):
        value *= k - i
    return value


def avoiding_counts_by_clusters(k, generators, top):
    """Number of words of each length 0..top over k letters that have no
    generator as a factor, by the Goulden-Jackson cluster method.

    The counts are the coefficients of 1 / (1 - kt - C(t)), where
    C = sum of C_g over the generators g and C_g(t) weighs the clusters
    that end in g: C_g = -t^|g| - sum of t^(|g| - j) C_h over every
    generator h whose last j letters are the first j of g, 0 < j < |g|.
    A generator with another generator as a factor is dropped first: it
    adds nothing to the ideal, and the method needs a reduced set.
    """
    gens = set(map(tuple, generators))

    def has_factor(word, u):
        return any(word[i:i + len(u)] == u
                   for i in range(len(word) - len(u) + 1))

    reduced = [g for g in gens
               if not any(h != g and has_factor(g, h) for h in gens)]
    overlaps = {g: [(h, len(g) - j) for h in reduced
                    for j in range(1, min(len(g), len(h)))
                    if h[-j:] == g[:j]]
                for g in reduced}
    clusters = {g: [0] * (top + 1) for g in reduced}
    weight = [0] * (top + 1)
    for n in range(1, top + 1):
        for g in reduced:
            c = -1 if n == len(g) else 0
            for h, shift in overlaps[g]:
                if n > shift:
                    c -= clusters[h][n - shift]
            clusters[g][n] = c
            weight[n] += c
    counts = [1]
    for n in range(1, top + 1):
        counts.append(k * counts[n - 1]
                      + sum(weight[i] * counts[n - i] for i in range(1, n + 1)))
    return counts


def series_from_letterlists(m, truncation, pairs, ring=INTEGERS):
    """Build a series from (coefficient, "letters") string shorthand."""
    terms = {}
    for coeff, text in pairs:
        word = m.word_from_letters(list(text))
        terms[word] = ring.from_int(coeff)
    return Series(m, truncation, terms, ring)


def parse_series_by_terms(obj, monoid, ring=INTEGERS):
    """Read a wire series term by term: ``_parse_coefficient`` and
    ``word_from_letters`` on every term, each check in the order
    ``parse_series`` makes them, with the same errors."""
    truncation = _field(obj, "truncation", "series")
    if not _is_integer(truncation) or truncation < 0:
        raise SpecError(
            f"series truncation must be a nonnegative integer, got {truncation!r}")
    raw_terms = _field(obj, "terms", "series")
    if not isinstance(raw_terms, list):
        raise SpecError(f"series terms must be a list, got {raw_terms!r}")
    terms = {}
    seen = set()
    for entry in raw_terms:
        if not (isinstance(entry, list) and len(entry) == 2):
            raise SpecError(f"each term must be [coefficient, letters], "
                            f"got {entry!r}")
        coeff_text, letters = entry
        coeff = _parse_coefficient(coeff_text, ring)
        word = monoid.word_from_letters(_letters(letters, "a term's word"))
        if len(word) > truncation:
            raise SpecError(
                f"term {letters!r} has order {len(word)}, beyond "
                f"the stated truncation {truncation}")
        if word in seen:
            raise SpecError(f"duplicate term for word {letters!r}")
        seen.add(word)
        if coeff != ring.zero:
            terms[word] = coeff
    return Series(monoid, truncation, terms, ring, _normalized=True)


def series_json_by_dumps(f):
    """The JSON text of a series as ``json.dumps`` writes its object: a
    ``[str(coefficient), letter names]`` list per term, sorted."""
    terms = [[str(coeff), f.monoid.word_letters(word)]
             for word, coeff in f.items_sorted()]
    return json.dumps({"truncation": f.truncation, "terms": terms})


def seeded_generators(rng, k):
    """Two to four random words of length 1 to 3, none of them empty."""
    return [tuple(rng.randrange(k) for _ in range(rng.randint(1, 3)))
            for _ in range(rng.randint(2, 4))]


def builtin_quotients(k, seed):
    """Every built-in ideal over the free and free commutative bases on
    k letters, plus a generated ideal with seeded generators."""
    rng = random.Random(seed)
    base = free(k)
    ideals = builtin_free_ideals(base)
    ideals.append(GeneratedIdeal(base, seeded_generators(rng, k)))
    out = [ReesQuotient(base, ideal) for ideal in ideals]
    c = commutative(k)
    for d in (1, 3, 5):
        out.append(ReesQuotient(c, MinLengthIdeal(c, d)))
    return out


def quotients_of_quotients(k, seed):
    """Repeated-letter and seeded generated ideals over a min-length, a
    fixed generated and a seeded generated quotient of the free monoid
    on k letters."""
    rng = random.Random(seed)
    base = free(k)
    # generators of length 2 and 3 leave every letter in the inner quotient
    longer = [g + g[:1] for g in seeded_generators(rng, k) if len(g) < 3]
    out = []
    for inner_ideal in (MinLengthIdeal(base, 6),
                        GeneratedIdeal(base, [(0, k - 1)]),
                        GeneratedIdeal(base, [(0, k - 1)] + longer)):
        inner = ReesQuotient(base, inner_ideal)
        words = [g for g in seeded_generators(rng, k) if inner.contains(g)]
        out.append(ReesQuotient(inner, RepeatedLetterIdeal(inner)))
        out.append(ReesQuotient(
            inner, GeneratedIdeal(inner, words or [(k - 1,)])))
    return out


class FirstAndLastLetterIdeal(IdealSpec):
    """Commutative words that use both the first and the last letter; it
    names no residue of its own."""

    kind = "first-and-last-letter"

    def contains(self, word):
        counts = commutative_image(word, len(self.base.alphabet()))
        return counts[0] > 0 and counts[-1] > 0


def residue_monoids(k, seed):
    """Every realization that defines or passes on a residue, over k
    letters: the bases, every built-in quotient, quotients of quotients,
    and a quotient by an ideal with the default residue."""
    ideal = FirstAndLastLetterIdeal(commutative(k))
    quotients = (builtin_quotients(k, seed) + quotients_of_quotients(k, seed)
                 + [ReesQuotient(commutative(k), ideal)])
    return [free(k), commutative(k)] + quotients


class BareIdempotentMonoid(ZeroMonoid):
    """One letter with a*a = a, defined by ``alphabet``, ``contains`` and
    ``_mul`` alone: every other hook, ``word_kind`` and ``_element`` among
    them, is the default.  Its order is the word length, as in every
    realization, so the order of a*a is 1, not 2."""

    def alphabet(self):
        return alphabet(1)

    def contains(self, word):
        return word in ((), (0,))

    def _mul(self, x, y):
        return (0,) if (x or y) else ()


class IdempotentMonoid(BareIdempotentMonoid):
    """The same monoid over letter sequences, with its grades."""

    word_kind = "sequence"

    def extend(self, word):
        return [(0,)] if word == () else []


class InsertingMonoid(ZeroMonoid):
    """Words over one letter where a product of two non-identity words
    inserts a letter between them: associative, with the empty word as
    identity, but ord(xy) = ord(x) + ord(y) + 1, strictly above the sum
    the grading contract asks for."""

    word_kind = "sequence"

    def alphabet(self):
        return alphabet(1)

    def contains(self, word):
        return isinstance(word, tuple) and set(word) <= {0}

    def _mul(self, x, y):
        return x + (0,) + y if (x and y) else x + y

    def extend(self, word):
        return [word + (0,)]


def validate_locally_finite(m: ZeroMonoid, max_order: int) -> Report:
    """Sample-bounded check that m behaves like a locally finite monoid.

    Scans all elements of order at most max_order and reports every
    non-identity idempotent, every nonzero product whose order is not the
    sum of the factor orders (the grading contract of ``ZeroMonoid``),
    above or below, and every product that returns one of its own
    non-trivial factors (which forces unboundedly many factorizations).
    An empty report means no violation was found below the bound; it is not
    a proof for infinite realizations.
    """
    if max_order < 1:
        raise ValueError(f"max_order must be at least 1, got {max_order}")
    grades = m.grades(max_order)
    one = ()
    violations = []

    for n in range(1, max_order + 1):
        for x in grades[n]:
            if m._mul(x, x) == x:
                violations.append(
                    f"non-identity idempotent: {m.render_word(x)}")

    for i in range(max_order + 1):
        for j in range(max_order + 1 - i):
            for x in grades[i]:
                for y in grades[j]:
                    z = m._mul(x, y)
                    if z is ZERO:
                        continue
                    if len(z) != i + j:
                        violations.append(
                            f"order of {m.render_word(x)}*{m.render_word(y)} "
                            f"is {len(z)}, not {i} + {j}")
                    if x != y:
                        if x != one and z == y:
                            violations.append(
                                f"{m.render_word(x)}*{m.render_word(y)} = "
                                f"{m.render_word(y)}: unboundedly many factorizations")
                        elif y != one and z == x:
                            violations.append(
                                f"{m.render_word(x)}*{m.render_word(y)} = "
                                f"{m.render_word(x)}: unboundedly many factorizations")

    return Report("locally-finite", tuple(violations))


def validate_ideal(spec: IdealSpec, max_order: int) -> Report:
    """Probe a predicate for ideal-hood over a finite range of orders.

    Checks that the identity is excluded (properness) and that membership
    absorbs multiplication on both sides for every pair of words whose
    orders sum to at most max_order.  A clean report is evidence, not
    proof; the bound says how far the search went.
    """
    if max_order < 1:
        raise ValueError(f"max_order must be at least 1, got {max_order}")
    base = spec.base
    violations = []
    if spec.contains(()):
        violations.append("identity belongs to the ideal (not proper)")
    grades = base.grades(max_order)
    members = [[w for w in grade if spec.contains(w)] for grade in grades]
    for i in range(max_order + 1):
        for u in members[i]:
            for j in range(max_order + 1 - i):
                for v in grades[j]:
                    left = base._mul(v, u)
                    if left is not ZERO and not spec.contains(left):
                        violations.append(
                            f"not left-absorbing: "
                            f"{base.render_word(v)}*{base.render_word(u)} "
                            f"escapes the ideal")
                    right = base._mul(u, v)
                    if right is not ZERO and not spec.contains(right):
                        violations.append(
                            f"not right-absorbing: "
                            f"{base.render_word(u)}*{base.render_word(v)} "
                            f"escapes the ideal")
                    if len(violations) >= 5:
                        return Report(f"ideal({spec.describe()})",
                                      tuple(violations))
    notes = (f"checked all products with order sum at most {max_order}",)
    return Report(f"ideal({spec.describe()})", tuple(violations), notes)
