"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py -q

They run ``bench/run.py`` in subprocesses with short runs, so they take
about a minute.
"""

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def run(workload, seed, trace, cwd=ROOT, seconds=1):
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_and_self_checks_pass(workload):
    first, second = (result(run(workload, 7, 1)) for _ in range(2))
    for r in (first, second):
        assert r["correct"] and r["failed"] == 0 and r["attempted"] > 0
        for check in ("span_nesting", "layer_shares", "counts_repeat"):
            assert r["metrics"][f"selfcheck.{check}"]["value"] == 1, check
    counts = {k: v["value"] for k, v in first["metrics"].items()
              if v["unit"] == "count"}
    assert counts == {k: v["value"] for k, v in second["metrics"].items()
                      if v["unit"] == "count"}
    assert len(counts) >= 11


def _build(name, seed, tmp_path):
    work = tmp_path / f"{name}-{seed}"
    work.mkdir()
    reqs = workloads.build(name, seed, work)
    argvs = [[a.replace(str(work), "WORK") for a in r.argv] for r in reqs]
    files = {p.name: p.read_text() for p in sorted(work.iterdir())}
    return argvs, files


def test_seed_changes_only_quotient_algebra_operands(tmp_path):
    for name in workloads.WORKLOADS:
        argv1, files1 = _build(name, 1, tmp_path)
        argv2, files2 = _build(name, 2, tmp_path)
        assert argv1 == argv2
        assert files1.keys() == files2.keys()
        if name == "quotient-algebra":
            assert all(files1[k] != files2[k] for k in files1)
        else:
            assert not files1


def test_checks_reject_a_wrong_output(tmp_path):
    from mobzero import cli

    import runner

    reqs = workloads.build("quotient-algebra", 3, tmp_path)
    reqs += workloads.quotient_count()[-2:]
    for req in reqs:
        if req.argv[0] == "verify":
            continue
        code, out = runner.call(cli.main, req.argv)
        assert code == 0 and req.check(out), req.label
        obj = json.loads(out)
        if "terms" in obj:
            obj["terms"][-1][0] = str(int(obj["terms"][-1][0]) + 1)
        else:
            obj["orders"][-1]["count"] += 1
        assert not req.check(json.dumps(obj)), req.label
    verify = reqs[0]
    assert verify.argv[0] == "verify"
    assert not verify.check("PASS unit-inverse\nFAIL oracle-equivalence: x\n"
                            "PASS mobius-transfer\nPASS hilbert-relation\n")


def test_avoiding_count_matches_brute_force():
    gens = ("ab", "cc")
    for n in range(6):
        brute = sum(1 for w in itertools.product("abcd", repeat=n)
                    if not any(g in "".join(w) for g in gens))
        assert workloads._avoiding_count(4, gens, n) == brute


def test_fails_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run("mobius-base", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
