"""mobzero benchmark runner.

``run.py`` starts it once it has timed the first import of mobzero.
One workload runs in this single-threaded process as a closed loop with
one client: each request is one in-process ``mobzero.cli.main`` call with
stdout captured, issued only after the previous one returned.  The loop
runs whole passes over the workload's request list until ``--seconds``
have elapsed and at least 100 requests were made, so every run holds the
same request mix and p90 has ten samples above it.  Every output is
checked after the timed loop against a reference.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` measures
untraced passes for half the time and traced passes for the other half,
and reports per-layer self times and counts per pass (see ``spans.py``),
the traced-over-untraced throughput ratio, and the self-checks.

``setup_s`` is the process's first import of mobzero, as timed by
``run.py``, plus the median of three warm-up passes over the request list.
Before each pass mobzero is imported afresh, untimed, so that module-level
caches start empty.  Input generation and reference computation are not
part of it.

End-to-end times are scaled to a reference host speed.  On the shared
two-core host the baseline was recorded on, speed drifts by about 25%
over tens of seconds, more than any run that fits the time budget can
average out.  So after every request the run also times
``calibration_loop``, fixed pure-Python work that does not touch mobzero,
and divides each request's time by the host speed around it: the median
calibration time of the requests within ``SPEED_WINDOW`` of it, over
``CALIBRATION_REFERENCE_S``.  Throughput and latencies come from the
scaled times.  Each set-up pass is scaled by the calibration loops timed
within it, and the cold import by those of the first pass.  The unscaled
figures are printed in the summary line.  Per-layer self times are not scaled.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
import workloads  # noqa: E402

# Named counts of one traced pass (see spans.py for their definitions).
COUNT_METRICS = (
    "specio.parse_series.terms",
    "series.star.calls",
    "series.star.products",
    "series.cauchy_product.calls",
    "series.cauchy_product.pairs_visited",
    "series.cauchy_product.terms_out",
    "series.characteristic_series.terms",
    "monoid.iter_order.base_words",
    "monoid.iter_order.quotient_words",
    "quotient_maps.phi.terms_dropped",
    "ideals.contains.calls",
)
SELF_TIME_SPANS = (
    "cli.main",
    "specio.read_json_source",
    "specio.parse_monoid",
    "specio.parse_series",
    "specio.series_to_json",
    "series.mobius_series",
    "series.star",
    "series.cauchy_product",
    "series.characteristic_series",
    "series.convolve_oracle",
    "monoid.iter_order",
    "ideals.contains",
    "quotient_maps.phi",
    "quotient_maps.check_mobius_transfer",
    "hilbert.hilbert_prefix",
    "hilbert.check_hilbert_relation",
)
# Shares of request self time.  Each workload's rationale claims that one
# of them holds the majority there.
SHARES = {
    "share.star_cauchy": ("series.star", "series.cauchy_product"),
    "share.iter_order_contains": ("monoid.iter_order", "ideals.contains"),
}
SETUP_WARMUPS = 3
# p90 needs at least ten samples above it
MIN_REQUESTS = 100
# Median seconds of calibration_loop() on the host the baseline was
# recorded on; end-to-end times are scaled to a host of that speed.
CALIBRATION_REFERENCE_S = 0.012
# Requests on each side whose calibration loops give a request's host
# speed.  The host's speed changes within a second, so the loops right
# next to a request track it best.
SPEED_WINDOW = 1


def import_cli():
    """Fresh import of the package from src/, dropping any earlier one;
    returns mobzero.cli."""
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules
                 if n == "mobzero" or n.startswith("mobzero.")]:
        del sys.modules[name]
    cli = importlib.import_module("mobzero.cli")
    if Path(cli.__file__).resolve().parents[1] != SRC:
        raise ImportError(f"mobzero imported from {cli.__file__}, not {SRC}")
    return cli


def call(main, argv):
    """One request: exit code and captured stdout.  A crash is a failed
    request with exit code None and the traceback as its output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:       # argparse rejected the arguments
            code = exc.code
        except Exception:  # noqa: BLE001 - keep measuring the other requests
            return None, traceback.format_exc()
    return code, out.getvalue()


class Outputs:
    """Distinct (exit code, stdout) per request, with how often each was
    seen; outputs are checked once the timed loop is over."""

    def __init__(self, requests):
        self.requests = requests
        self.seen = [Counter() for _ in requests]

    def add(self, i, result):
        self.seen[i][result] += 1

    def failures(self):
        failed = 0
        for req, seen in zip(self.requests, self.seen):
            for (code, out), n in seen.items():
                if not _ok(req, code, out):
                    failed += n
                    print(f"FAILED {req.label}: exit {code}, "
                          f"output {out[:200]!r}", file=sys.stderr)
        return failed

    def attempted(self):
        return sum(sum(seen.values()) for seen in self.seen)


def _ok(req, code, out):
    if code != 0:
        return False
    try:
        return bool(req.check(out))
    except ValueError:
        return False


def run_passes(main, requests, seconds, outputs, latencies=None,
               min_requests=0, calibration=None):
    """Closed loop over whole passes until `seconds` elapsed and at least
    `min_requests` were made; returns the number of passes and the wall
    time they took.  With a `calibration` list, the calibration loop is
    timed after every request, outside the request's time."""
    passes = 0
    start = perf_counter()
    while True:
        for i, req in enumerate(requests):
            t0 = perf_counter()
            result = call(main, req.argv)
            dt = perf_counter() - t0
            if latencies is not None:
                latencies.append(dt)
            if calibration is not None:
                calibration.append(time_calibration_loop())
            outputs.add(i, result)
        passes += 1
        wall = perf_counter() - start
        if wall >= seconds and passes * len(requests) >= min_requests:
            return passes, wall


def calibration_loop():
    """Fixed work that does not touch mobzero: tuple concatenation and dict
    updates, as in the library's inner loops."""
    words = [(i % 3, i % 5, i % 7) for i in range(300)]
    acc = {}
    for x in words:
        for y in words[:150]:
            z = x + y
            acc[z] = acc.get(z, 0) + 1
    return len(acc)


def time_calibration_loop():
    """Seconds for one calibration loop, with the collector off so that the
    program's heap does not change the figure."""
    gc.disable()
    try:
        t0 = perf_counter()
        calibration_loop()
        return perf_counter() - t0
    finally:
        gc.enable()


def setup(requests, cold_import_s):
    """Set-up seconds, scaled by the host speed: the cold import plus the
    median warm-up pass, each pass after a fresh import.  Returns them and
    the cli module of the last import."""
    passes = []
    for _ in range(SETUP_WARMUPS):
        cli = import_cli()
        latencies, calibration = [], []
        run_passes(cli.main, requests, 0, Outputs(requests), latencies, 0,
                   calibration)
        speed = host_speed(calibration)
        if not passes:
            cold_import_s /= speed
        passes.append(sum(latencies) / speed)
    return cold_import_s + statistics.median(passes), cli


def host_speed(calibration):
    """Host speed relative to the reference host, from calibration loop
    times; measured times are divided by it."""
    return statistics.median(calibration) / CALIBRATION_REFERENCE_S


def scale_locally(latencies, calibration):
    """Each request's seconds divided by the host speed measured around it,
    from the calibration loops of the requests within SPEED_WINDOW."""
    return [dt / host_speed(calibration[max(0, i - SPEED_WINDOW):
                                        i + SPEED_WINDOW + 1])
            for i, dt in enumerate(latencies)]


def percentile(values, q):
    """Linear interpolation between order statistics (inclusive method)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(name, requests, seconds, cold_import_s):
    setup_s, cli = setup(requests, cold_import_s)
    outputs = Outputs(requests)
    latencies = []
    calibration = []
    passes, wall = run_passes(cli.main, requests, seconds, outputs, latencies,
                              MIN_REQUESTS, calibration)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    failed = outputs.failures()
    attempted = outputs.attempted()
    scaled = scale_locally(latencies, calibration)
    metrics = {
        "throughput_rps": (attempted / sum(scaled), "1/s"),
        "latency_p50_ms": (1000 * percentile(scaled, 50), "ms"),
        "latency_p90_ms": (1000 * percentile(scaled, 90), "ms"),
    }
    metrics["setup_s"] = (setup_s, "s")
    metrics["peak_rss_mb"] = (peak_kb / 1024, "MB")
    print(f"{name}: {attempted} requests in {passes} passes, {wall:.2f} s; "
          f"failed_ratio {failed / attempted:.4f}; "
          f"cold import {cold_import_s:.4f} s; median host speed "
          f"{host_speed(calibration):.4f} of the reference; as timed on "
          f"this host: throughput_rps {attempted / sum(latencies):.4f} 1/s, "
          f"latency_p50_ms {1000 * percentile(latencies, 50):.4f} ms, "
          f"latency_p90_ms {1000 * percentile(latencies, 90):.4f} ms")
    return attempted, failed, metrics


# -- traced run -----------------------------------------------------------------

def pass_metrics(records):
    """Per-layer self seconds and counts of one traced pass."""
    span_list, counts, contains_s = records
    self_s = Counter()
    calls = Counter()
    names = {}
    for s in span_list:
        self_s[s.name] += s.self_s
        calls[s.name] += 1
        names[s.id] = s.name
    self_s["ideals.contains"] += contains_s
    counts = Counter(counts)
    counts["series.star.calls"] = calls["series.star"]
    counts["series.star.products"] = sum(
        1 for s in span_list if s.name == "series.cauchy_product"
        and names.get(s.parent) == "series.star")
    counts["series.cauchy_product.calls"] = calls["series.cauchy_product"]

    out = {f"{name}.self_s": (float(self_s[name]), "s")
           for name in SELF_TIME_SPANS}
    out.update((name, (counts[name], "count")) for name in COUNT_METRICS)
    out["monoid.iter_order.survivor_ratio"] = (
        _ratio(counts["monoid.iter_order.quotient_words"],
               counts["filtered_words"]), "ratio")
    out["ideals.contains.hit_ratio"] = (
        _ratio(counts["ideals.contains.product_hits"],
               counts["ideals.contains.product_calls"]), "ratio")
    total = sum(self_s.values())
    for key, layers in SHARES.items():
        out[key] = (_ratio(sum(self_s[n] for n in layers), total), "ratio")
    return out


def _ratio(a, b):
    return a / b if b else 0.0


def shares_hold(name, m):
    """The workload does what its rationale claims."""
    if name == "mobius-base":
        return m["share.star_cauchy"][0] > 0.5
    if name == "quotient-count":
        return (m["series.cauchy_product.calls"][0] == 0
                and m["share.iter_order_contains"][0] > 0.5)
    return True


def nesting_holds(tracer, main, rebound):
    """Every namespace that binds star, cauchy_product or mobius_series by
    name was rebound, and the known request (mobius on the free monoid over
    {a,b,c} at N=8) makes one star span with eight cauchy_product
    children."""
    bound_by_name = {"mobzero", "mobzero.cli", "mobzero.series",
                     "mobzero.quotient_maps"}
    if any(not bound_by_name <= rebound.get(fn, set())
           for fn in ("star", "cauchy_product", "mobius_series")):
        return False
    call(lambda argv: tracer.request_span(main, argv),
         workloads.mobius_base()[0].argv)
    span_list, _, _ = tracer.take()
    stars = [s for s in span_list if s.name == "series.star"]
    if len(stars) != 1:
        return False
    children = [s.name for s in span_list if s.parent == stars[0].id]
    return children == ["series.cauchy_product"] * 8


def traced(name, requests, seconds):
    cli = import_cli()
    for req in requests:                        # warm-up pass
        call(cli.main, req.argv)
    outputs = Outputs(requests)
    latencies, calibration = [], []
    passes, wall = run_passes(cli.main, requests, seconds / 2, outputs,
                              latencies, 0, calibration)
    untraced_rps = len(latencies) / sum(scale_locally(latencies, calibration))

    tracer = spans.Tracer()
    rebound = tracer.install()
    try:
        nesting_ok = nesting_holds(tracer, cli.main, rebound)
        per_pass = []
        latencies, calibration = [], []
        while not per_pass or sum(latencies) < seconds / 2:
            run_passes(lambda argv: tracer.request_span(cli.main, argv),
                       requests, 0, outputs, latencies, 0, calibration)
            per_pass.append(pass_metrics(tracer.take()))
    finally:
        tracer.restore()
    traced_wall = sum(latencies)
    traced_rps = len(latencies) / sum(scale_locally(latencies, calibration))

    first = per_pass[0]
    metrics = {key: (statistics.median(p[key][0] for p in per_pass)
                     if unit == "s" else value, unit)
               for key, (value, unit) in first.items()}
    counts_repeat = all(p[k] == first[k] for p in per_pass
                        for k in COUNT_METRICS)
    metrics["trace_overhead_ratio"] = (traced_rps / untraced_rps, "ratio")
    metrics["selfcheck.span_nesting"] = (int(nesting_ok), "bool")
    metrics["selfcheck.layer_shares"] = (int(shares_hold(name, first)), "bool")
    metrics["selfcheck.counts_repeat"] = (int(counts_repeat), "bool")
    print(f"{name}: {passes} untraced passes in {wall:.2f} s, "
          f"{len(per_pass)} traced passes in {traced_wall:.2f} s")
    return outputs.attempted(), outputs.failures(), metrics


def main(argv=None, *, cold_import_s):
    """Measure one workload; `cold_import_s` is the seconds the process's
    first import of mobzero took."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    workdir = ROOT / ".bench_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        requests = workloads.build(args.workload, args.seed, workdir)
        if args.trace:
            attempted, failed, metrics = traced(args.workload, requests,
                                                args.seconds)
        else:
            attempted, failed, metrics = end_to_end(
                args.workload, requests, args.seconds, cold_import_s)
    finally:
        shutil.rmtree(workdir)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    for key, (value, unit) in metrics.items():
        print(f"  {key} = {value} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()},
    }))
    return 0

