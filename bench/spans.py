"""Spans around the public calls of each mobzero layer, recorded from outside.

``Tracer.install`` rebinds every wrapped module-level function in every
``mobzero`` namespace that holds it by name, and wraps ``iter_order`` on
every monoid class and ``contains`` on every ideal class.  ``restore``
puts every original back.  A span's self time is its duration minus the
time covered by its child spans.

Most spans are kept in memory as :class:`Span` records.  Ideal membership
is a leaf called millions of times per pass, so its spans are folded into
running totals as they close; their time is still subtracted from the
enclosing span.  ``iter_order`` returns lazy iterators, so its span is
open only while the consumer is inside ``next()``, and it sums those
intervals.  Membership calls made by a Rees quotient's product
(``ReesQuotient._mul``) are also counted apart, with their hits: the share
of products the ideal absorbs into ``ZERO``.  Counts the benchmark derives
from arguments and results are computed off the clock: that time is
subtracted from the enclosing span too.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

# span name -> (defining module, function name)
FUNCTIONS = {
    "specio.read_json_source": ("mobzero.specio", "read_json_source"),
    "specio.parse_monoid": ("mobzero.specio", "parse_monoid"),
    "specio.parse_series": ("mobzero.specio", "parse_series"),
    "specio.series_to_json": ("mobzero.specio", "series_to_json"),
    "series.mobius_series": ("mobzero.series", "mobius_series"),
    "series.star": ("mobzero.series", "star"),
    "series.cauchy_product": ("mobzero.series", "cauchy_product"),
    "series.characteristic_series": ("mobzero.series", "characteristic_series"),
    "series.convolve_oracle": ("mobzero.series", "convolve_oracle"),
    "quotient_maps.phi": ("mobzero.quotient_maps", "phi"),
    "quotient_maps.check_mobius_transfer": ("mobzero.quotient_maps",
                                            "check_mobius_transfer"),
    "hilbert.hilbert_prefix": ("mobzero.hilbert", "hilbert_prefix"),
    "hilbert.check_hilbert_relation": ("mobzero.hilbert",
                                       "check_hilbert_relation"),
}


class Span:
    __slots__ = ("id", "parent", "request", "name", "active", "child")

    def __init__(self, span_id, parent, request, name):
        self.id = span_id
        self.parent = parent
        self.request = request
        self.name = name
        self.active = 0.0   # seconds the span was open
        self.child = 0.0    # seconds of that covered by child spans

    @property
    def self_s(self):
        return self.active - self.child


def _pairs_visited(f, g):
    """Attempts of the cauchy_product pair loop: for each x in f, the terms
    of g in every grade j with ord(x) + j <= N."""
    order = f.monoid._order
    cap = min(f.truncation, g.truncation)
    g_grades = Counter(order(w) for w in g.terms)
    f_grades = Counter(order(w) for w in f.terms)
    return sum(nf * ng for i, nf in f_grades.items()
               for j, ng in g_grades.items() if i + j <= cap)


def _count_cauchy(counts, args, result):
    counts["series.cauchy_product.pairs_visited"] += _pairs_visited(*args[:2])
    counts["series.cauchy_product.terms_out"] += len(result.terms)


def _count_parse_series(counts, args, result):
    counts["specio.parse_series.terms"] += len(result.terms)


def _count_characteristic(counts, args, result):
    counts["series.characteristic_series.terms"] += len(result.terms)


def _count_phi(counts, args, result):
    counts["quotient_maps.phi.terms_dropped"] += (len(args[1].terms)
                                                  - len(result.terms))


COUNTERS = {
    "series.cauchy_product": _count_cauchy,
    "specio.parse_series": _count_parse_series,
    "series.characteristic_series": _count_characteristic,
    "quotient_maps.phi": _count_phi,
}


def _subclasses(cls):
    seen, todo = [], [cls]
    while todo:
        c = todo.pop()
        seen.append(c)
        todo.extend(c.__subclasses__())
    return seen


class Tracer:
    def __init__(self):
        self.stack = []
        self.spans = []
        self.counts = Counter()
        self.contains_s = 0.0
        self.request = 0
        self._next_id = 0
        self._in_contains = False
        self._quotient_depth = 0
        self._product_codes = set()
        self._restore = []

    # -- span bookkeeping ------------------------------------------------

    def _open(self, name):
        self._next_id += 1
        parent = self.stack[-1].id if self.stack else None
        return Span(self._next_id, parent, self.request, name)

    def call(self, name, fn, args, kwargs):
        span = self._open(name)
        stack = self.stack
        stack.append(span)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            stack.pop()
            span.active = dt
            if stack:
                stack[-1].child += dt
            self.spans.append(span)
        counter = COUNTERS.get(name)
        if counter is not None:
            t0 = perf_counter()
            counter(self.counts, args, result)
            if stack:               # off the enclosing span's clock
                stack[-1].child += perf_counter() - t0
        return result

    def request_span(self, fn, argv):
        """Root span of one CLI request; its spans share the request id."""
        self.request += 1
        return self.call("cli.main", fn, (argv,), {})

    def _iterate(self, kind, it):
        span = self._open("monoid.iter_order")
        stack = self.stack
        nxt = iter(it).__next__
        counts = self.counts
        words = 0
        try:
            while True:
                stack.append(span)
                if kind == "quotient":
                    self._quotient_depth += 1
                t0 = perf_counter()
                try:
                    word = nxt()
                except StopIteration:
                    return
                finally:
                    dt = perf_counter() - t0
                    if kind == "quotient":
                        self._quotient_depth -= 1
                    stack.pop()
                    span.active += dt
                    if stack:
                        stack[-1].child += dt
                words += 1
                if kind == "base" and self._quotient_depth:
                    counts["filtered_words"] += 1
                yield word
        finally:
            if kind == "base":
                counts["monoid.iter_order.base_words"] += words
            elif kind == "quotient":
                counts["monoid.iter_order.quotient_words"] += words
            self.spans.append(span)

    def _contains(self, fn, ideal, word, from_product):
        if self._in_contains:
            # an ideal asking an inner ideal is internal to the ideals layer
            return fn(ideal, word)
        self._in_contains = True
        t0 = perf_counter()
        try:
            hit = fn(ideal, word)
        finally:
            dt = perf_counter() - t0
            self._in_contains = False
        if self.stack:
            self.stack[-1].child += dt
        self.contains_s += dt
        counts = self.counts
        counts["ideals.contains.calls"] += 1
        if from_product:
            counts["ideals.contains.product_calls"] += 1
            if hit:
                counts["ideals.contains.product_hits"] += 1
        return hit

    # -- installing the wrappers -----------------------------------------

    def install(self):
        """Wrap every layer entry point; returns the namespaces rebound
        for each function name."""
        from mobzero.ideals import IdealSpec
        from mobzero.monoid import ReesQuotient, ZeroMonoid

        modules = [mod for name, mod in sys.modules.items()
                   if name == "mobzero" or name.startswith("mobzero.")]
        rebound = {}
        for span_name, (module, attr) in FUNCTIONS.items():
            original = getattr(sys.modules[module], attr)
            wrapper = self._function_wrapper(span_name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)
                        rebound.setdefault(attr, set()).add(mod.__name__)

        def kind(monoid):
            if isinstance(monoid, ReesQuotient):
                return "quotient"
            # a wrapper of another monoid enumerates through its base
            return "delegate" if hasattr(monoid, "base") else "base"

        for cls in _subclasses(ZeroMonoid):
            if "iter_order" in vars(cls):
                self._wrap_method(cls, "iter_order",
                                  self._iter_order_wrapper(kind))
        self._product_codes = {vars(cls)["_mul"].__code__
                               for cls in _subclasses(ReesQuotient)
                               if "_mul" in vars(cls)}
        for cls in _subclasses(IdealSpec):
            if "contains" in vars(cls):
                self._wrap_method(cls, "contains", self._contains_wrapper)
        return rebound

    def _wrap_method(self, cls, attr, make):
        original = vars(cls)[attr]
        self._restore.append((cls, attr, original))
        setattr(cls, attr, make(original))

    def restore(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _function_wrapper(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return traced

    def _iter_order_wrapper(self, kind):
        def make(fn):
            @functools.wraps(fn)
            def traced(monoid, n):
                return self._iterate(kind(monoid), fn(monoid, n))
            return traced
        return make

    def _contains_wrapper(self, fn):
        @functools.wraps(fn)
        def traced(ideal, word):
            from_product = sys._getframe(1).f_code in self._product_codes
            return self._contains(fn, ideal, word, from_product)
        return traced

    # -- reading out -----------------------------------------------------

    def take(self):
        """Span records, counts and folded membership time since the last
        take; resets them."""
        out = (self.spans, self.counts, self.contains_s)
        self.spans, self.counts, self.contains_s = [], Counter(), 0.0
        return out

