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

import itertools
import math
import operator
from fractions import Fraction
from typing import Optional

from .errors import MonoidMismatchError, ProperError, TruncationError
from .monoid import DEFAULT_TRUNCATION, Report, Word, ZERO, ZeroMonoid


class Ring:
    """Exact commutative ring with unit on ``int`` or ``Fraction`` values.

    The arithmetic is Python's own, so the hot loops that bind ``add`` and
    ``mul`` call C functions; equal rings have the same class and name.
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

    def is_negative(self, a) -> bool:
        return a < 0

    def abs(self, a):
        return -a if a < 0 else a

    def render(self, a) -> str:
        return str(a)

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

    def is_negative(self, a):
        return False

    def abs(self, a):
        return a


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
            if isinstance(coeff, bool) or not isinstance(
                    coeff, (int, ring.value_type)):
                raise TypeError(
                    f"coefficient {coeff!r} is not an int or a value of {ring!r}")
            if isinstance(coeff, int):
                coeff = ring.from_int(coeff)
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

    def min_order(self):
        """Least order in the support; infinity for the zero series."""
        if not self.terms:
            return math.inf
        return min(self.monoid._order(w) for w in self.terms)

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
        items = self.items_sorted()
        if not items:
            return "0"
        ring = self.ring
        identity = self.monoid.identity()
        out = []
        for word, coeff in items:
            negative = ring.is_negative(coeff)
            magnitude = ring.abs(coeff)
            if word == identity:
                body = ring.render(magnitude)
            elif magnitude == ring.one:
                body = self.monoid.render_word(word)
            else:
                body = ring.render(magnitude) + self.monoid.render_word(word)
            if not out:
                out.append(("-" if negative else "") + body)
            else:
                out.append((" - " if negative else " + ") + body)
        return "".join(out)

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
    """Left scalar multiple; plain ints are coerced into the ring, any
    other scalar must already be a value of the ring, and bools are
    rejected, as the constructor rejects them."""
    ring = f.ring
    if isinstance(alpha, bool):
        raise TypeError(f"scalar {alpha!r} is a bool, not a value of {ring!r}")
    if isinstance(alpha, int):
        alpha = ring.from_int(alpha)
    elif not isinstance(alpha, ring.value_type):
        raise TypeError(
            f"scalar {alpha!r} is not an int or a value of {ring!r}")
    terms = {}
    for w, c in f.terms.items():
        v = ring.mul(alpha, c)
        if v != ring.zero:
            terms[w] = v
    return Series(f.monoid, f.truncation, terms, ring, _normalized=True)


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


def _add_products(m: ZeroMonoid, ring: Ring, cap: int, pending: list,
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
    for xs in x_classes:
        for y_classes in y_orders:
            for ys in y_classes:
                if keys is not None and collapses(xs[0][0], ys[0][0]) is ZERO:
                    continue
                for x, a in xs:
                    for y, b in ys:
                        z = mul(x, y)
                        oz = order(z)
                        if oz > cap:
                            continue
                        acc = pending[oz]
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

    def classes(series, key):
        by_order = {}
        for term in series.terms.items():
            by_order.setdefault(order(term[0]), []).append(term)
        return [(n, _seam_classes(by_order[n], key)) for n in sorted(by_order)]

    g_classes = classes(g, left)
    acc = {}
    pending = [acc] * (cap + 1)
    for ox, x_classes in classes(f, right):
        _add_products(m, ring, cap, pending, x_classes,
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
            f"is {f.ring.render(f.augmentation())}")


def star(f: Series) -> Series:
    """Inverse of (1 - f) for a proper series f, solved grade by grade.

    The star s satisfies s = 1 + s*f.  The terms of f are bucketed by
    order and handed to :func:`_solve_star`, which seeds the identity
    grade of s instead of multiplying it against f.
    """
    _require_proper(f)
    order = f.monoid._order
    by_order = [[] for _ in range(f.truncation)]
    for w, c in f.terms.items():
        by_order[order(w) - 1].append((w, c))
    return _solve_star(f.monoid, f.truncation, f.ring, by_order)


def _solve_star(m: ZeroMonoid, cap: int, ring: Ring, by_order: list) -> Series:
    """Star of the proper series whose terms of order j are the
    (word, coefficient) pairs of ``by_order[j - 1]``, for j = 1..cap.

    When the order is superadditive (ord(xy) >= ord(x) + ord(y)), every
    product x*y with x in grade i of s and y of order at least 1 lands in
    a grade strictly above i.  Grade 0 of s is the identity, and 1*y = y,
    so the pending grades start as the buckets themselves.  One pass over
    grades 1..cap then suffices: when the pass reaches grade i, every
    contribution to it has arrived, so the grade is final; its terms are
    multiplied against the terms of order at most cap - i and each
    product is added into the grade where it lands.  The cost is about
    sum over i >= 1 of |s_i| * |f_{<=cap-i}| pairs, which is small when s
    is sparse, as Mobius series are.

    Each grade of s is grouped by the right seam key and each bucket by
    the left one, and :func:`_add_products` adds the grade's products
    into the pending grades.
    """
    right, left = m._seam_keys or (None, None)
    rzero = ring.zero
    f_classes = [_seam_classes(bucket, left) for bucket in by_order]
    pending = [None] + [dict(bucket) for bucket in by_order]
    terms = {m.identity(): ring.one}
    for i in range(1, cap + 1):
        grade = [(x, a) for x, a in pending[i].items() if a != rzero]
        pending[i] = None
        terms.update(grade)
        _add_products(m, ring, cap, pending, _seam_classes(grade, right),
                      f_classes[:cap - i])
    return Series(m, cap, terms, ring, _normalized=True)


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
        if p.is_zero():
            break
        total = add(total, p)
        count += 1
    return total, count


def characteristic_series(m: ZeroMonoid, truncation: int = DEFAULT_TRUNCATION,
                          ring: Ring = INTEGERS) -> Series:
    """Sum of every nonzero element up to the truncation, coefficient one."""
    terms = {x: ring.one for grade in m.grades(truncation) for x in grade}
    return Series(m, truncation, terms, ring, _normalized=True)


def mobius_series(m: ZeroMonoid, truncation: int = DEFAULT_TRUNCATION,
                  ring: Ring = INTEGERS) -> Series:
    """Inverse of the characteristic series: the star of -zeta+, where
    zeta+ sums every element of order 1..N.

    The grades of m are handed to :func:`_solve_star` directly, each
    element with coefficient -1, so no characteristic series is built.
    """
    neg_one = ring.neg(ring.one)
    grades = m.grades(truncation)[1:]
    return _solve_star(m, truncation, ring,
                       [[(x, neg_one) for x in grade] for grade in grades])


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
    ring = f.ring
    words = set(f.terms) | set(g.terms)
    for w in sorted(words, key=lambda w: (m._order(w), w)):
        a = f.terms.get(w, ring.zero)
        b = g.terms.get(w, ring.zero)
        if a != b:
            return (f"at {m.render_word(w)}: "
                    f"{ring.render(a)} != {ring.render(b)}")
    return None


def random_series(rng, m: ZeroMonoid, truncation: int,
                  max_support_order: int = 3, coeff_lo: int = -3,
                  coeff_hi: int = 3, proper: bool = False,
                  ring: Ring = INTEGERS) -> Series:
    """Deterministic random series driven by a seeded ``random.Random``.

    Support is drawn from the elements of order at most max_support_order
    (order at least 1 when proper); coefficients are uniform integers in
    [coeff_lo, coeff_hi], coerced into the ring.  Zero draws are dropped.
    """
    grades = m.grades(min(max_support_order, truncation))
    pool = [x for grade in grades[1 if proper else 0:] for x in grade]
    if not pool:
        return Series.zero(m, truncation, ring)
    size = rng.randint(1, min(8, len(pool)))
    terms = {}
    for word in rng.sample(pool, size):
        coeff = rng.randint(coeff_lo, coeff_hi)
        if coeff != 0:
            terms[word] = ring.from_int(coeff)
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
                             ring: Ring = INTEGERS, samples: int = 20,
                             seed: int = 0) -> Report:
    """Compare the pair-loop product against the factorization-based one
    on seeded random series pairs; the factorizations of each element are
    listed once and shared by every pair."""
    import random

    rng = random.Random(seed)
    pairs = [(random_series(rng, m, truncation, ring=ring),
              random_series(rng, m, truncation, ring=ring))
             for _ in range(samples)]
    slows = _convolve_pairs(m, ring, truncation, pairs)
    violations = []
    for i, ((f, g), slow) in enumerate(zip(pairs, slows)):
        fast = cauchy_product(f, g)
        if fast != slow:
            violations.append(
                f"pair {i}: products disagree ({first_difference(fast, slow)})")
            break
    return Report("oracle-equivalence", tuple(violations))
