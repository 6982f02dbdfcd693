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
as well.
"""

from __future__ import annotations

import collections
import itertools
import operator
from fractions import Fraction
from typing import Optional

from .errors import (AlgebraError, MonoidMismatchError, ProperError,
                     TruncationError)
from .monoid import DEFAULT_TRUNCATION, Report, Word, ZERO, ZeroMonoid


class Ring:
    """Exact commutative ring with unit on ``int`` or ``Fraction`` values.

    The arithmetic is Python's own, so the hot loops that bind ``add`` and
    ``mul`` call C functions; equal rings have the same class and name.
    Values render with ``str`` and carry their sign: a residue mod m is
    one of 0..m-1, never negative.
    """

    add = staticmethod(operator.add)
    neg = staticmethod(operator.neg)
    mul = staticmethod(operator.mul)

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
        return self.value_type(n)

    def coerce(self, a, what: str):
        """``a`` as a value of the ring: plain ints are coerced, any other
        value must already be of the ring's type, and bools are rejected;
        ``what`` names the value in the error."""
        if isinstance(a, bool) or not isinstance(a, (int, self.value_type)):
            raise TypeError(f"{what} {a!r} is not an int or a value of {self}")
        return self.from_int(a) if isinstance(a, int) else a

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return type(other) is type(self) and other.name == self.name

    def __hash__(self):
        return hash(self.name)


class IntegerModRing(Ring):
    """Integers modulo m, stored as canonical residues 0..m-1."""

    def __init__(self, modulus: int):
        if (not isinstance(modulus, int) or isinstance(modulus, bool)
                or modulus < 2):
            raise ValueError(
                f"modulus must be an integer of at least 2, got {modulus!r}")
        super().__init__(f"integers mod {modulus}", int)
        self.modulus = modulus

    def add(self, a, b):
        return (a + b) % self.modulus

    def neg(self, a):
        return (-a) % self.modulus

    def mul(self, a, b):
        return (a * b) % self.modulus

    def from_int(self, n):
        return n % self.modulus


INTEGERS = Ring("integers", int)
RATIONALS = Ring("rationals", Fraction)


class Series:
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
            monoid._require(word)
            coeff = ring.coerce(coeff, "coefficient")
            if coeff == ring.zero:
                continue
            if monoid._order(word) > truncation:
                continue
            clean[word] = coeff
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, monoid, truncation=DEFAULT_TRUNCATION, ring=INTEGERS):
        return cls(monoid, truncation, {}, ring, _normalized=True)

    @classmethod
    def one(cls, monoid, truncation=DEFAULT_TRUNCATION, ring=INTEGERS):
        return cls(monoid, truncation, {monoid.identity(): ring.one}, ring,
                   _normalized=True)

    # -- queries -----------------------------------------------------------

    def coefficient(self, word: Word):
        """Coefficient at a word; only determined up to the truncation."""
        self.monoid._require(word)
        if self.monoid._order(word) > self.truncation:
            raise TruncationError(
                f"coefficient at order {self.monoid._order(word)} is not "
                f"determined by a series truncated at {self.truncation}")
        return self.terms.get(word, self.ring.zero)

    def augmentation(self):
        """Coefficient at the identity."""
        return self.terms.get(self.monoid.identity(), self.ring.zero)

    def is_zero(self) -> bool:
        return not self.terms

    def is_proper(self) -> bool:
        return self.augmentation() == self.ring.zero

    def items_sorted(self) -> list:
        order = self.monoid._order
        return sorted(self.terms.items(), key=lambda kv: (order(kv[0]), kv[0]))

    def truncated(self, truncation: int) -> "Series":
        """Project to a lower truncation order."""
        if truncation > self.truncation:
            raise TruncationError(
                f"cannot extend a series truncated at {self.truncation} "
                f"to order {truncation}")
        if truncation == self.truncation:
            return self
        m = self.monoid
        terms = {w: c for w, c in self.terms.items()
                 if m._order(w) <= truncation}
        return Series(m, truncation, terms, self.ring, _normalized=True)

    # -- rendering ---------------------------------------------------------

    def render(self) -> str:
        """Text form: terms by (order, lex), unit coefficients suppressed."""
        one = self.ring.one
        render_word = self.monoid.render_word

        def term(word, coeff):
            magnitude = abs(coeff)
            if not word:
                body = str(magnitude)
            elif magnitude == one:
                body = render_word(word)
            else:
                body = str(magnitude) + render_word(word)
            return coeff < 0, body

        return signed_sum(term(w, c) for w, c in self.items_sorted())

    def __repr__(self):
        return f"<Series N={self.truncation} {self.render()}>"

    # -- arithmetic (delegates to the module-level operations) -------------

    def __eq__(self, other):
        return (isinstance(other, Series)
                and other.monoid == self.monoid
                and other.ring == self.ring
                and other.truncation == self.truncation
                and other.terms == self.terms)

    def __add__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return add(self, other)

    def __sub__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return add(self, scalar_mul(self.ring.neg(self.ring.one), other))

    def __neg__(self):
        return scalar_mul(self.ring.neg(self.ring.one), self)

    def __mul__(self, other):
        if isinstance(other, Series):
            return cauchy_product(self, other)
        return scalar_mul(other, self)

    def __rmul__(self, other):
        return scalar_mul(other, self)

    def star(self):
        return star(self)

    def power(self, k):
        return power(self, k)


def signed_sum(terms) -> str:
    """Text of a sum from (negative, body) pairs, as "a - b + c": the
    first term takes a bare minus sign, every later one a spaced
    operator; "0" when there are no terms."""
    out = []
    for negative, body in terms:
        if out:
            out.append(" - " if negative else " + ")
        elif negative:
            out.append("-")
        out.append(body)
    return "".join(out) or "0"


def _check_compatible(f: Series, g: Series):
    if f.monoid != g.monoid:
        raise MonoidMismatchError(
            f"series over {f.monoid.describe()} combined with series over "
            f"{g.monoid.describe()}")
    if f.ring != g.ring:
        raise MonoidMismatchError(
            f"series over ring {f.ring!r} combined with series over {g.ring!r}")


def add(f: Series, g: Series) -> Series:
    """Coefficientwise sum at truncation min(f.N, g.N)."""
    _check_compatible(f, g)
    ring = f.ring
    cap = min(f.truncation, g.truncation)
    order = f.monoid._order
    terms = {w: c for w, c in f.terms.items() if order(w) <= cap}
    for w, c in g.terms.items():
        if order(w) > cap:
            continue
        total = ring.add(terms.get(w, ring.zero), c)
        if total == ring.zero:
            terms.pop(w, None)
        else:
            terms[w] = total
    return Series(f.monoid, cap, terms, ring, _normalized=True)


def scalar_mul(alpha, f: Series) -> Series:
    """Left scalar multiple; the scalar is coerced as the constructor
    coerces coefficients (:meth:`Ring.coerce`)."""
    ring = f.ring
    alpha = ring.coerce(alpha, "scalar")
    terms = {w: v for w, c in f.terms.items()
             if (v := ring.mul(alpha, c)) != ring.zero}
    return Series(f.monoid, f.truncation, terms, ring, _normalized=True)


def _by_order(terms, order) -> list:
    """(n, the (word, coefficient) pairs of ``terms`` of order n) for
    every order n that holds terms, in increasing n."""
    by_order = {}
    for term in terms:
        by_order.setdefault(order(term[0]), []).append(term)
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


def _add_products(m: ZeroMonoid, ring: Ring, cap: int, pending,
                  x_classes: list, y_orders: list):
    """Add a*b at xy into ``pending[ord(xy)]`` for every term (x, a) of
    the classes ``x_classes`` and (y, b) of the class lists
    ``y_orders``, dropping products of order above ``cap``.

    The x terms are one order's seam classes by the right key, and each
    entry of ``y_orders`` is one order's classes by the left key (see
    ``ZeroMonoid._seam_keys``).  Each pair of classes is decided on one
    representative pair: either every product of the two classes is
    ZERO, and none is formed, or none is, and each is the root base's
    product.  :func:`cauchy_product` and the star solver both call it.
    """
    keys = m._seam_keys
    mul, collapses, order = m._root_mul, m._mul, m._order
    radd, rmul = ring.add, ring.mul
    last = -1
    for xs in x_classes:
        for y_classes in y_orders:
            for ys in y_classes:
                if keys is not None and collapses(xs[0][0], ys[0][0]) is ZERO:
                    continue
                for x, a in xs:
                    for y, b in ys:
                        z = mul(x, y)
                        oz = order(z)
                        # consecutive products mostly share an order
                        if oz != last:
                            if oz > cap:
                                continue
                            last, acc = oz, pending[oz]
                        prev = acc.get(z)
                        acc[z] = (rmul(a, b) if prev is None
                                  else radd(prev, rmul(a, b)))


def cauchy_product(f: Series, g: Series) -> Series:
    """Convolution over all term pairs; products hitting zero are dropped.

    Pairs whose factor orders already sum beyond the truncation cannot
    contribute (the order of a product dominates the sum), so they are
    pruned before multiplying.  The terms of each order are grouped by
    the monoid's seam keys, f's by the right key and g's by the left
    one, and :func:`_add_products` multiplies each order of f against
    the orders of g it can meet, into one accumulator.
    """
    _check_compatible(f, g)
    m = f.monoid
    ring = f.ring
    cap = min(f.truncation, g.truncation)
    order = m._order
    right, left = m._seam_keys or (None, None)
    g_classes = [(n, _seam_classes(pairs, left))
                 for n, pairs in _by_order(g.terms.items(), order)]
    acc = {}
    # every order indexes the one accumulator, with no slot per order:
    # a product of a few terms must not cost memory in the truncation
    pending = collections.defaultdict(lambda: acc)
    for ox, pairs in _by_order(f.terms.items(), order):
        _add_products(m, ring, cap, pending, _seam_classes(pairs, right),
                      [ys for og, ys in g_classes if ox + og <= cap])
    terms = {w: c for w, c in acc.items() if c != ring.zero}
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
    over the elements: each element's factorizations are listed once and
    summed against every pair before the next element is listed."""
    radd, rmul, rzero = ring.add, ring.mul, ring.zero
    lookups = [(f.terms.get, g.terms.get, {}) for f, g in pairs]
    for x in itertools.chain.from_iterable(m.grades(cap)):
        splits = m._splits(x)
        for f_get, g_get, terms in lookups:
            total = rzero
            for y, z in splits:
                a = f_get(y)
                if a is None:
                    continue
                b = g_get(z)
                if b is None:
                    continue
                total = radd(total, rmul(a, b))
            if total != rzero:
                terms[x] = total
    return [Series(m, cap, terms, ring, _normalized=True)
            for _, _, terms in lookups]


def power(f: Series, k: int) -> Series:
    """k-th Cauchy power; the zeroth power is the unit series."""
    if k < 0:
        raise ValueError(f"exponent must be nonnegative, got {k}")
    result = Series.one(f.monoid, f.truncation, f.ring)
    for _ in range(k):
        result = cauchy_product(result, f)
        if result.is_zero():
            break
    return result


def _require_proper(f: Series):
    if not f.is_proper():
        raise ProperError(
            f"star requires a proper series; coefficient at the identity "
            f"is {f.augmentation()}")


def star(f: Series) -> Series:
    """Inverse of (1 - f) for a proper series f, solved grade by grade.

    The star s satisfies s = 1 + s*f.  The terms of f are bucketed by
    order and handed to :func:`_solve_star`, which seeds the identity
    grade of s instead of multiplying it against f.
    """
    _require_proper(f)
    return _solve_star(f.monoid, f.truncation, f.ring,
                       _by_order(f.terms.items(), f.monoid._order))


def _solve_star(m: ZeroMonoid, cap: int, ring: Ring, buckets: list) -> Series:
    """Star of the proper series whose terms are the (word, coefficient)
    pairs of ``buckets``, a list of (order, pairs) for the orders 1..cap
    that hold terms, in increasing order.

    When the order is superadditive (ord(xy) >= ord(x) + ord(y)), every
    product x*y with x in grade i of s and y of order at least 1 lands in
    a grade strictly above i.  Grade 0 of s is the identity, and 1*y = y,
    so the pending grades, keyed by order, start as the buckets.  The
    lowest pending grade i is final, as every contribution to it has
    arrived; its terms are multiplied against the terms of order at most
    cap - i and each product is added into the grade where it lands.  A
    product landing in a grade already taken raises :class:`AlgebraError`.
    The cost is about sum over i >= 1 of |s_i| * |f_{<=cap-i}| pairs,
    which is small when s is sparse, as Mobius series are.

    Each grade of s is grouped by the right seam key and each bucket by
    the left one, and :func:`_add_products` adds the grade's products
    into the pending grades.
    """
    right, left = m._seam_keys or (None, None)
    rzero = ring.zero
    f_classes = [(j, _seam_classes(pairs, left)) for j, pairs in buckets]
    pending = collections.defaultdict(
        dict, ((j, dict(pairs)) for j, pairs in buckets))
    terms = {m.identity(): ring.one}
    done = 0
    while pending:
        i = min(pending)
        if i <= done:
            raise AlgebraError(f"order of {m.describe()} is not superadditive:"
                               f" grade {done} has a product in grade {i}")
        done = i
        grade = [(x, a) for x, a in pending.pop(i).items() if a != rzero]
        if not grade:
            continue
        terms.update(grade)
        _add_products(m, ring, cap, pending, _seam_classes(grade, right),
                      [ys for j, ys in f_classes if i + j <= cap])
    return Series(m, cap, terms, ring, _normalized=True)


def characteristic_series(m: ZeroMonoid, truncation: int = DEFAULT_TRUNCATION,
                          ring: Ring = INTEGERS) -> Series:
    """Sum of every nonzero element up to the truncation, coefficient one."""
    terms = {x: ring.one for grade in m.grades(truncation) for x in grade}
    return Series(m, truncation, terms, ring, _normalized=True)


def mobius_series(m: ZeroMonoid, truncation: int = DEFAULT_TRUNCATION,
                  ring: Ring = INTEGERS) -> Series:
    """Inverse of the characteristic series: the star of -zeta+, where
    zeta+ sums every element of order 1..N.

    The nonempty grades of m are handed to :func:`_solve_star` directly,
    each element with coefficient -1, so no characteristic series is
    built and no element's order is asked.
    """
    neg_one = ring.neg(ring.one)
    buckets = [(n, [(x, neg_one) for x in grade])
               for n, grade in enumerate(m.grades(truncation)) if n and grade]
    return _solve_star(m, truncation, ring, buckets)


def zeta_transform_left(f: Series) -> Series:
    """Multiply by the characteristic series on the left."""
    zeta = characteristic_series(f.monoid, f.truncation, f.ring)
    return cauchy_product(zeta, f)


def zeta_transform_right(f: Series) -> Series:
    zeta = characteristic_series(f.monoid, f.truncation, f.ring)
    return cauchy_product(f, zeta)


def mobius_invert_left(g: Series) -> Series:
    """Undo a left zeta transform by multiplying with the Mobius series."""
    mu = mobius_series(g.monoid, g.truncation, g.ring)
    return cauchy_product(mu, g)


def mobius_invert_right(g: Series) -> Series:
    mu = mobius_series(g.monoid, g.truncation, g.ring)
    return cauchy_product(g, mu)


def first_difference(f: Series, g: Series) -> Optional[str]:
    """Rendered description of the first term where two series differ."""
    _check_compatible(f, g)
    m = f.monoid
    zero = f.ring.zero
    words = set(f.terms) | set(g.terms)
    for w in sorted(words, key=lambda w: (m._order(w), w)):
        a = f.terms.get(w, zero)
        b = g.terms.get(w, zero)
        if a != b:
            return f"at {m.render_word(w)}: {a} != {b}"
    return None


def random_series(rng, m: ZeroMonoid, truncation: int,
                  max_support_order: int = 3, proper: bool = False,
                  ring: Ring = INTEGERS) -> Series:
    """Deterministic random series driven by a seeded ``random.Random``.

    Support is drawn from the elements of order at most max_support_order
    (order at least 1 when proper); coefficients are uniform integers in
    [-3, 3], coerced into the ring.  Draws that are zero in the ring are
    dropped.
    """
    grades = m.grades(min(max_support_order, truncation))
    pool = [x for grade in grades[1 if proper else 0:] for x in grade]
    if not pool:
        return Series.zero(m, truncation, ring)
    size = rng.randint(1, min(8, len(pool)))
    terms = {}
    for word in rng.sample(pool, size):
        coeff = ring.from_int(rng.randint(-3, 3))
        if coeff != ring.zero:
            terms[word] = coeff
    return Series(m, truncation, terms, ring, _normalized=True)


def check_unit_inverse(m: ZeroMonoid, truncation: int = DEFAULT_TRUNCATION,
                       ring: Ring = INTEGERS) -> Report:
    """Verify that the Mobius series inverts the characteristic series on
    both sides at the given truncation."""
    zeta = characteristic_series(m, truncation, ring)
    mu = mobius_series(m, truncation, ring)
    one = Series.one(m, truncation, ring)
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


def check_oracle_equivalence(m: ZeroMonoid, truncation: int = 6,
                             ring: Ring = INTEGERS) -> Report:
    """Compare the pair-loop product against the factorization-based one
    on 20 random series pairs drawn from seed 0; the factorizations of
    each element are listed once and shared by every pair."""
    import random

    rng = random.Random(0)
    pairs = [(random_series(rng, m, truncation, ring=ring),
              random_series(rng, m, truncation, ring=ring))
             for _ in range(20)]
    slows = _convolve_pairs(m, ring, truncation, pairs)
    violations = []
    for i, ((f, g), slow) in enumerate(zip(pairs, slows)):
        fast = cauchy_product(f, g)
        if fast != slow:
            violations.append(
                f"pair {i}: products disagree ({first_difference(fast, slow)})")
            break
    return Report("oracle-equivalence", tuple(violations))
