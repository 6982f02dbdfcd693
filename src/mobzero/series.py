"""Truncated series over a monoid with zero: the contracted algebra layer.

A :class:`Series` is a finite, normalized coefficient map over the nonzero
elements of a monoid, carried modulo all terms of order above a fixed
truncation bound N.  Every operation is exact: results are the true series
of the contracted algebra reduced modulo the order filtration at N + 1.
The absorbing element never appears as a key; term pairs whose product
falls onto it are simply discarded by the Cauchy product, which is what
"contracted" means concretely.

Coefficients live in a pluggable commutative ring.  The default is exact
arbitrary-precision integers; rationals and integers mod m are provided
as well.  Coefficients are combined with Python's own ``+`` and ``*``,
and a ring's ``reduce`` brings each term a loop writes to canonical form.
"""

from __future__ import annotations

import collections
import itertools
import operator
from fractions import Fraction

from .errors import (AlgebraError, MembershipError, MonoidMismatchError,
                     ProperError)
from .monoid import Report, ZERO, ZeroMonoid, _Keyed


class Ring(_Keyed):
    """Exact commutative ring with unit on ``int`` or ``Fraction`` values.

    A ring is its value type, its ``zero`` and ``one``, and ``reduce``,
    the canonical form of a value.  The arithmetic is Python's own ``+``,
    ``-`` and ``*`` on the values, left unreduced inside a loop; ``reduce``
    is applied once to each term the loop writes.  That is exact because
    ``reduce`` is a ring morphism from the values onto the canonical ones.
    Here it is the identity; equal rings have the same class, name and
    value type.  Values render with ``str`` and carry their sign: a
    residue mod m is one of 0..m-1, never negative.
    """

    reduce = staticmethod(operator.pos)

    def __init__(self, name: str, value_type: type):
        # exactness: no float, and no other inexact type, becomes a ring
        if value_type not in (int, Fraction):
            raise ValueError(
                f"ring values must be int or Fraction, got {value_type!r}")
        self.name = name
        self.value_type = value_type
        self.zero = value_type(0)
        self.one = value_type(1)

    def from_int(self, n: int):
        return self.reduce(self.value_type(n))

    def coerce(self, a, what: str):
        """``a`` as a value of the ring: plain ints are coerced, any other
        value must already be of the ring's type, and bools are rejected;
        ``what`` names the value in the error."""
        if isinstance(a, bool) or not isinstance(a, (int, self.value_type)):
            raise TypeError(f"{what} {a!r} is not an int or a value of {self}")
        return self.from_int(a) if isinstance(a, int) else a

    def __repr__(self):
        return self.name

    def _key(self):
        return self.name, self.value_type


class IntegerModRing(Ring):
    """Integers modulo m, stored as canonical residues 0..m-1."""

    def __init__(self, modulus: int):
        if (not isinstance(modulus, int) or isinstance(modulus, bool)
                or modulus < 2):
            raise ValueError(
                f"modulus must be an integer of at least 2, got {modulus!r}")
        super().__init__(f"integers mod {modulus}", int)
        self.modulus = modulus

    def reduce(self, a):
        return a % self.modulus


INTEGERS = Ring("integers", int)
RATIONALS = Ring("rationals", Fraction)


class Series(_Keyed):
    """Element of the total contracted algebra, truncated at a fixed order.

    ``terms`` maps canonical words to nonzero ring values; keys of order
    above the truncation are projected away on construction, which is the
    quotient map onto the algebra modulo the order filtration.  Plain
    ints are coerced into the ring; any other coefficient must already
    be a value of the ring, and bools are rejected.  Instances are
    immutable by convention: no operation mutates its inputs.
    """

    __slots__ = ("monoid", "ring", "truncation", "terms")

    def __init__(self, monoid: ZeroMonoid, truncation: int, terms=None,
                 ring: Ring = INTEGERS, _normalized: bool = False):
        if (not isinstance(truncation, int) or isinstance(truncation, bool)
                or truncation < 0):
            raise ValueError(
                f"truncation must be a nonnegative integer, got {truncation!r}")
        self.monoid = monoid
        self.ring = ring
        self.truncation = truncation
        if _normalized:
            self.terms = terms
            return
        clean = {}
        for word, coeff in dict(terms or {}).items():
            if not monoid.contains(word):
                raise MembershipError(
                    f"{word!r} is not an element of {monoid.describe()}")
            coeff = ring.coerce(coeff, "coefficient")
            if coeff == ring.zero:
                continue
            if len(word) > truncation:
                continue
            clean[word] = coeff
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, monoid, truncation, ring=INTEGERS):
        return cls(monoid, truncation, {}, ring, _normalized=True)

    @classmethod
    def one(cls, monoid, truncation, ring=INTEGERS):
        return cls(monoid, truncation, {(): ring.one}, ring, _normalized=True)

    # -- queries -----------------------------------------------------------

    def augmentation(self):
        """Coefficient at the identity."""
        return self.terms.get((), self.ring.zero)

    def items_sorted(self) -> list:
        return sorted(self.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))

    # -- rendering ---------------------------------------------------------

    def render(self) -> str:
        """Text form: terms by (order, lex), each written by
        :func:`signed_sum`, with the word as its body."""
        render_word = self.monoid.render_word
        return signed_sum((c, render_word(w) if w else "")
                          for w, c in self.items_sorted())

    def __repr__(self):
        return f"<Series N={self.truncation} {self.render()}>"

    def _key(self):
        return self.monoid, self.ring, self.truncation, self.terms

    __hash__ = None  # the terms are a mutable dict

    # -- arithmetic: the algebra's ring operations ---------------------------

    def __add__(self, other):
        """Coefficientwise sum at the lower of the two truncations."""
        if not isinstance(other, Series):
            return NotImplemented
        _check_compatible(self, other)
        ring = self.ring
        cap = min(self.truncation, other.truncation)
        terms = {w: c for w, c in self.terms.items() if len(w) <= cap}
        for w, c in other.terms.items():
            if len(w) > cap:
                continue
            total = ring.reduce(terms.get(w, ring.zero) + c)
            if total == ring.zero:
                terms.pop(w, None)
            else:
                terms[w] = total
        return Series(self.monoid, cap, terms, ring, _normalized=True)

    def __sub__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self + -1 * other

    def __neg__(self):
        return -1 * self

    def __mul__(self, other):
        if isinstance(other, Series):
            return cauchy_product(self, other)
        return self.__rmul__(other)

    def __rmul__(self, alpha):
        """Scalar multiple, on either side as the ring is commutative;
        the scalar is coerced as the constructor coerces coefficients
        (:meth:`Ring.coerce`)."""
        ring = self.ring
        alpha = ring.coerce(alpha, "scalar")
        terms = {w: v for w, c in self.terms.items()
                 if (v := ring.reduce(alpha * c)) != ring.zero}
        return Series(self.monoid, self.truncation, terms, ring,
                      _normalized=True)


def signed_sum(terms) -> str:
    """Text of a sum from (coefficient, body) pairs, as "a - 2b + 3": the
    body is "" for a constant, which shows its magnitude; a unit
    magnitude is dropped before a body, any other precedes it.  The
    first term takes a bare minus sign, every later one a spaced
    operator; "0" when there are no terms."""
    out = []
    for c, body in terms:
        if out:
            out.append(" - " if c < 0 else " + ")
        elif c < 0:
            out.append("-")
        out.append(body if body and abs(c) == 1 else str(abs(c)) + body)
    return "".join(out) or "0"


def _check_compatible(f: Series, g: Series):
    if f.monoid != g.monoid:
        raise MonoidMismatchError(
            f"series over {f.monoid.describe()} combined with series over "
            f"{g.monoid.describe()}")
    if f.ring != g.ring:
        raise MonoidMismatchError(
            f"series over ring {f.ring!r} combined with series over {g.ring!r}")


def _by_order(terms) -> list:
    """(n, the (word, coefficient) pairs of ``terms`` of order n) for
    every order n that holds terms, in increasing n."""
    by_order = {}
    for term in terms:
        by_order.setdefault(len(term[0]), []).append(term)
    return sorted(by_order.items())


def _seam_classes(terms: list, key) -> list:
    """(word, coefficient) pairs of one order, grouped into the lists of
    pairs whose words have equal ``key``; one list of them all when
    ``key`` is None, with no key computed."""
    if key is None:
        return [terms]
    classes = {}
    for term in terms:
        classes.setdefault(key(term[0]), []).append(term)
    return list(classes.values())


def _add_products(m: ZeroMonoid, acc: dict, x_classes: list,
                  y_classes: list):
    """Add a*b at xy into ``acc`` for every term (x, a) of the classes
    ``x_classes`` and (y, b) of ``y_classes``, the terms of one order
    each, left unreduced: the caller picks ``acc`` by the order sum (see
    :class:`ZeroMonoid`) and reduces each term it keeps.

    The x terms are grouped by the right seam key and the y terms by the
    left one (see ``ZeroMonoid._seam_keys``).  Each pair of classes is
    decided on one representative pair: either every product of the two
    classes is ZERO, and none is formed, or none is, and each is the
    root base's product.  :func:`cauchy_product` and the star solver
    both call it.
    """
    keys = m._seam_keys
    mul, collapses = m._root_mul, m._mul
    for xs in x_classes:
        for ys in y_classes:
            if keys is not None and collapses(xs[0][0], ys[0][0]) is ZERO:
                continue
            for x, a in xs:
                for y, b in ys:
                    z = mul(x, y)
                    prev = acc.get(z)
                    acc[z] = a * b if prev is None else prev + a * b


def cauchy_product(f: Series, g: Series) -> Series:
    """Convolution over all term pairs; products hitting zero are dropped.

    A nonzero product of terms of orders i and j has order i + j, so
    only the order pairs with i + j at most the truncation are
    multiplied.  The identity's terms are copied, as 1*y = y and
    x*1 = x, and the pair loops take the positive orders only.  An order
    of f is grouped by the right seam key, and one of g by the left key,
    only when the other factor has an order that fits beside it; then
    :func:`_add_products` multiplies each such pair of orders into the
    one accumulator.  A product above the truncation breaks the grading
    contract and raises :class:`AlgebraError`, as in :func:`star`.
    """
    _check_compatible(f, g)
    m = f.monoid
    ring = f.ring
    cap = min(f.truncation, g.truncation)
    right, left = m._seam_keys or (None, None)
    fs = _by_order(f.terms.items())
    gs = _by_order(g.terms.items())
    acc = {}
    # the identity is the only word of order 0
    if fs and fs[0][0] == 0:
        ((_, a),) = fs.pop(0)[1]
        acc = {y: a * b for n, pairs in gs if n <= cap for y, b in pairs}
    if gs and gs[0][0] == 0:
        ((_, b),) = gs.pop(0)[1]
        for n, pairs in fs:
            if n > cap:
                break
            for x, a in pairs:
                prev = acc.get(x)
                acc[x] = a * b if prev is None else prev + a * b
    if fs and gs:
        g_classes = [(n, _seam_classes(pairs, left))
                     for n, pairs in gs if n + fs[0][0] <= cap]
        for ox, pairs in fs:
            if ox + gs[0][0] > cap:
                break
            x_classes = _seam_classes(pairs, right)
            for og, ys in g_classes:
                if ox + og > cap:
                    break
                _add_products(m, acc, x_classes, ys)
    reduce, zero = ring.reduce, ring.zero
    terms = {w: v for w, c in acc.items() if (v := reduce(c)) != zero}
    if terms and max(map(len, terms)) > cap:
        raise AlgebraError(
            f"order of {m.describe()} is not additive: a product of orders "
            f"summing to at most {cap} is {m.render_word(max(terms, key=len))}")
    return Series(m, cap, terms, ring, _normalized=True)


def convolve_oracle(f: Series, g: Series) -> Series:
    """Same product, evaluated the dual way: for every element up to the
    truncation, sum the coefficient products over its factorizations.

    Kept deliberately independent of :func:`cauchy_product` so the two can
    be checked against each other; requires an enumerable monoid.
    """
    _check_compatible(f, g)
    cap = min(f.truncation, g.truncation)
    return _convolve_pairs(f.monoid, f.ring, cap, [(f, g)])[0]


def _convolve_pairs(m: ZeroMonoid, ring: Ring, cap: int, pairs: list) -> list:
    """The product of every pair (f, g) at truncation ``cap``, in one pass
    over the elements: each element's factorizations are listed once.

    One index maps each word of a left operand to the (pair, coefficient,
    g lookup) entries of the pairs whose f holds it, so a split (y, z) is
    summed only against the pairs whose f holds y; a pair's total for an
    element is written to its result once every split has been visited,
    so each result lists its elements in enumeration order.
    """
    reduce, zero = ring.reduce, ring.zero
    results = [{} for _ in pairs]
    by_left = {}
    for k, (f, g) in enumerate(pairs):
        g_get = g.terms.get
        for y, a in f.terms.items():
            by_left.setdefault(y, []).append((k, a, g_get))
    for x in itertools.chain.from_iterable(m.grades(cap)):
        totals = {}
        for y, z in m._splits(x):
            for k, a, g_get in by_left.get(y, ()):
                b = g_get(z)
                if b is not None:
                    totals[k] = totals.get(k, zero) + a * b
        for k, total in totals.items():
            total = reduce(total)
            if total != zero:
                results[k][x] = total
    return [Series(m, cap, terms, ring, _normalized=True)
            for terms in results]


def _require_proper(f: Series):
    if f.augmentation() != f.ring.zero:
        raise ProperError(
            f"star requires a proper series; coefficient at the identity "
            f"is {f.augmentation()}")


def star(f: Series) -> Series:
    """Inverse of (1 - f) for a proper series f, solved grade by grade.

    The star s satisfies s = 1 + s*f.  The terms of f are bucketed by
    order and handed to :func:`_solve_star`, one dict per order, which
    seeds the identity grade of s instead of multiplying it against f.
    """
    _require_proper(f)
    return _solve_star(f.monoid, f.truncation, f.ring,
                       [(n, dict(pairs)) for n, pairs in
                        _by_order(f.terms.items())])


def _solve_star(m: ZeroMonoid, cap: int, ring: Ring, buckets: list) -> Series:
    """Star of the proper series whose terms are held by ``buckets``, a
    list of (order, dict of word to coefficient) for the orders 1..cap
    that hold terms, in increasing order; each dict is consumed as the
    pending grade of its order.

    A nonzero product x*y with x in grade i of s and y of order j >= 1
    has order i + j, so it is added into the pending grade i + j.  Grade
    0 of s is the identity, and 1*y = y, so the pending grades, keyed by
    order, start as the buckets.  The lowest pending grade i is final,
    as every contribution to it has arrived, so it is reduced to
    canonical form; a surviving word of another order than i breaks the
    grading contract and raises :class:`AlgebraError`.  The cost is about
    sum over i >= 1 of |s_i| * |f_{<=cap-i}| pairs, which is small when
    s is sparse, as Mobius series are.

    Grades of s above 0 have order at least f's lowest order j0, so no
    order above cap - j0 is a factor within the truncation: such a
    bucket only seeds its grade, and such a grade is only kept.  Each
    other grade is grouped by the right seam key and each other bucket,
    copied as pairs first, by the left one; :func:`_add_products` adds
    the products of the grade and each bucket of order at most cap - i
    into their grade.
    """
    right, left = m._seam_keys or (None, None)
    reduce, zero = ring.reduce, ring.zero
    pending = collections.defaultdict(dict, buckets)
    top = cap - min(pending, default=0)  # the highest order that is a factor
    f_classes = [(j, _seam_classes(list(seed.items()), left))
                 for j, seed in buckets if j <= top]
    terms = {(): ring.one}
    while pending:
        i = min(pending)
        grade = [(x, v) for x, a in pending.pop(i).items()
                 if (v := reduce(a)) != zero]
        if not grade:
            continue
        for x, _ in grade:
            if len(x) != i:
                raise AlgebraError(
                    f"order of {m.describe()} is not additive: a product "
                    f"of orders summing to {i} is {m.render_word(x)}")
        terms.update(grade)
        if i > top:
            continue
        x_classes = _seam_classes(grade, right)
        for j, ys in f_classes:
            if i + j > cap:
                break
            _add_products(m, pending[i + j], x_classes, ys)
    return Series(m, cap, terms, ring, _normalized=True)


def characteristic_series(m: ZeroMonoid, truncation: int,
                          ring: Ring = INTEGERS) -> Series:
    """Sum of every nonzero element up to the truncation, coefficient one."""
    terms = {x: ring.one for grade in m.grades(truncation) for x in grade}
    return Series(m, truncation, terms, ring, _normalized=True)


def mobius_series(m: ZeroMonoid, truncation: int,
                  ring: Ring = INTEGERS) -> Series:
    """Inverse of the characteristic series: the closed form of
    ``m._mobius_terms(N)``, with nothing enumerated, when m has one (the
    free monoid and its quotients), else :func:`_mobius_by_grades`."""
    terms = m._mobius_terms(truncation)
    if terms is None:
        return _mobius_by_grades(m, truncation, ring)
    return Series(m, truncation,
                  {w: ring.from_int(c) for w, c in terms.items()}, ring,
                  _normalized=True)


def _mobius_by_grades(m: ZeroMonoid, truncation: int,
                      ring: Ring = INTEGERS) -> Series:
    """The star of -zeta+, where zeta+ sums every element of order 1..N.

    Each nonempty grade of m goes to :func:`_solve_star` straight from
    ``grades(N)`` as ``dict.fromkeys(grade, -1)``, so no characteristic
    series is built, no element's order is asked, and a grade that only
    seeds, such as the top one, is never listed as pairs.
    """
    neg_one = ring.from_int(-1)
    buckets = [(n, dict.fromkeys(grade, neg_one))
               for n, grade in enumerate(m.grades(truncation)) if n and grade]
    return _solve_star(m, truncation, ring, buckets)


def mobius_invert_left(g: Series) -> Series:
    """Undo a left zeta transform by multiplying with the Mobius series."""
    mu = mobius_series(g.monoid, g.truncation, g.ring)
    return cauchy_product(mu, g)


def mobius_invert_right(g: Series) -> Series:
    mu = mobius_series(g.monoid, g.truncation, g.ring)
    return cauchy_product(g, mu)


def first_difference(f: Series, g: Series) -> str | None:
    """Rendered description of the first term where two series differ."""
    _check_compatible(f, g)
    m = f.monoid
    zero = f.ring.zero
    words = set(f.terms) | set(g.terms)
    for w in sorted(words, key=lambda w: (len(w), w)):
        a = f.terms.get(w, zero)
        b = g.terms.get(w, zero)
        if a != b:
            return f"at {m.render_word(w)}: {a} != {b}"
    return None


def _draw_series(rng, m: ZeroMonoid, truncation: int, pool: list,
                 ring: Ring = INTEGERS) -> Series:
    """Deterministic random series drawn by a seeded ``random.Random``
    from a support pool listed by the caller, so that many draws can
    share one enumeration: at most 8 words of the pool, each with a
    uniform integer in [-3, 3], coerced into the ring.  Draws that are
    zero in the ring are dropped."""
    if not pool:
        return Series.zero(m, truncation, ring)
    size = rng.randint(1, min(8, len(pool)))
    terms = {}
    for word in rng.sample(pool, size):
        coeff = ring.from_int(rng.randint(-3, 3))
        if coeff != ring.zero:
            terms[word] = coeff
    return Series(m, truncation, terms, ring, _normalized=True)


def check_unit_inverse(m: ZeroMonoid, truncation: int) -> Report:
    """Verify that the Mobius series inverts the characteristic series on
    both sides at the given truncation."""
    zeta = characteristic_series(m, truncation)
    mu = mobius_series(m, truncation)
    one = Series.one(m, truncation)
    violations = []
    left = cauchy_product(mu, zeta)
    if left != one:
        violations.append(
            f"mobius*zeta != 1 ({first_difference(left, one)})")
    right = cauchy_product(zeta, mu)
    if right != one:
        violations.append(
            f"zeta*mobius != 1 ({first_difference(right, one)})")
    return Report("unit-inverse", tuple(violations))


def check_oracle_equivalence(m: ZeroMonoid, truncation: int) -> Report:
    """Compare the pair-loop product against the factorization-based one
    on 20 random series pairs drawn by :func:`_draw_series` from seed 0,
    from one pool of the elements of order at most 3; the factorizations
    of each element are listed once and shared by every pair."""
    import random

    rng = random.Random(0)
    pool = [x for grade in m.grades(min(3, truncation)) for x in grade]
    pairs = [(_draw_series(rng, m, truncation, pool),
              _draw_series(rng, m, truncation, pool))
             for _ in range(20)]
    slows = _convolve_pairs(m, INTEGERS, truncation, pairs)
    violations = []
    for i, ((f, g), slow) in enumerate(zip(pairs, slows)):
        fast = cauchy_product(f, g)
        if fast != slow:
            violations.append(
                f"pair {i}: products disagree ({first_difference(fast, slow)})")
            break
    return Report("oracle-equivalence", tuple(violations))
