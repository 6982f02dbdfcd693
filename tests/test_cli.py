import decimal
import gc
import json
import os
import random
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import mobzero.cli as cli
import mobzero.hilbert
import mobzero.series
import mobzero.specio
from mobzero import (FreeMonoid, GeneratedIdeal, ReesQuotient, Report, Series,
                     characteristic_series, convolve_oracle, parse_monoid,
                     series_to_json)
from mobzero.cli import main

STANDARD = ('{"type": "rees", "base": {"type": "free", '
            '"alphabet": ["a", "b", "c"]}, "ideal": {"kind": "repeated-letter"}}')
FREE_AB = '{"type": "free", "alphabet": ["a", "b"]}'


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_series(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_mobius_text_golden(capsys):
    code, out, err = run(capsys, "mobius", "--monoid", STANDARD,
                         "--order", "4")
    assert code == 0
    assert out == "1 - a - b - c\n"
    assert err == ""


def test_mobius_json(capsys):
    code, out, _ = run(capsys, "mobius", "--monoid", STANDARD,
                       "--order", "4", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "truncation": 4,
        "terms": [["1", []], ["-1", ["a"]], ["-1", ["b"]], ["-1", ["c"]]]}


@pytest.mark.parametrize("command, operands",
                         [("mobius", 0), ("mul", 2), ("invert", 1)])
def test_series_json_is_what_json_dumps_writes_on_escaped_letters(
        tmp_path, capsys, command, operands):
    monoid = json.dumps({"type": "free",
                         "alphabet": ["x1", "é", 'q"', "b\\s"]})
    operand = write_series(tmp_path, "f.json", {
        "truncation": 3,
        "terms": [["1", []], ["-2", ['q"']], ["3", ["é", "b\\s"]]]})
    argv = [command, "--monoid", monoid, "--order", "3", "--format", "json"]
    argv += ["--series", operand] * operands
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == json.dumps(json.loads(out)) + "\n"


def test_mobius_deterministic(capsys):
    first = run(capsys, "mobius", "--monoid", STANDARD)
    second = run(capsys, "mobius", "--monoid", STANDARD)
    assert first == second


def test_star_of_proper_series(tmp_path, capsys):
    series = write_series(tmp_path, "f.json", {
        "truncation": 5, "terms": [["1", ["a"]]]})
    code, out, _ = run(capsys, "star", "--monoid", FREE_AB,
                       "--order", "5", "--series", series)
    assert code == 0
    assert out == "1 + a + aa + aaa + aaaa + aaaaa\n"


def test_star_rejects_non_proper(tmp_path, capsys):
    series = write_series(tmp_path, "f.json", {
        "truncation": 4, "terms": [["1", []], ["1", ["a"]]]})
    code, out, err = run(capsys, "star", "--monoid", FREE_AB,
                         "--order", "4", "--series", series)
    assert code == 1
    assert out == ""
    assert "proper" in err


def test_star_rejects_truncation_mismatch(tmp_path, capsys):
    series = write_series(tmp_path, "f.json", {
        "truncation": 4, "terms": [["1", ["a"]]]})
    code, _, err = run(capsys, "star", "--monoid", FREE_AB,
                       "--order", "8", "--series", series)
    assert code == 1
    assert "truncated at 4" in err


def test_star_operand_count(capsys):
    code, _, err = run(capsys, "star", "--monoid", FREE_AB)
    assert code == 1
    assert "exactly 1" in err


def test_mul_two_series(tmp_path, capsys):
    f = write_series(tmp_path, "f.json", {
        "truncation": 4, "terms": [["1", ["a"]], ["1", ["b"]]]})
    g = write_series(tmp_path, "g.json", {
        "truncation": 4, "terms": [["1", ["a"]], ["1", ["c"]]]})
    code, out, _ = run(capsys, "mul", "--monoid", STANDARD, "--order", "4",
                       "--series", f, "--series", g)
    assert code == 0
    assert out == "ac + ba + bc\n"


def test_consecutive_calls_do_not_share_series_operands(tmp_path, capsys):
    f = write_series(tmp_path, "f.json", {
        "truncation": 4, "terms": [["1", ["a"]], ["1", ["b"]]]})
    g = write_series(tmp_path, "g.json", {
        "truncation": 4, "terms": [["1", ["a"]], ["1", ["c"]]]})
    assert run(capsys, "mul", "--monoid", STANDARD, "--order", "4",
               "--series", f, "--series", g)[:2] == (0, "ac + ba + bc\n")
    assert run(capsys, "mul", "--monoid", STANDARD, "--order", "4",
               "--series", g, "--series", f)[:2] == (0, "ab + ca + cb\n")
    code, _, err = run(capsys, "mul", "--monoid", STANDARD, "--order", "4",
                       "--series", f)
    assert code == 1
    assert "got 1" in err


def test_failed_call_leaves_the_next_one_alone(capsys):
    code, out, err = run(capsys, "hilbert", "--monoid", '{"type": "nope"}',
                         "--order", "3", "--format", "json")
    assert (code, out) == (1, "")
    assert "unknown monoid type" in err
    assert run(capsys, "hilbert", "--monoid", STANDARD) == (
        0, "1 + 3t + 6t^2 + 6t^3\n", "")


def test_unknown_field_exits_one_with_the_error_line(capsys):
    # read as the free monoid, this would list the 4 words of order 2
    monoid = {"type": "free", "alphabet": ["a", "b"],
              "commuting": [["a", "b"]]}
    code, out, err = run(capsys, "count", "--order", "2",
                         "--monoid", json.dumps(monoid))
    assert (code, out) == (1, "")
    assert err == (f"error: monoid description has unknown field "
                   f"'commuting': {monoid!r}\n")


def test_digit_led_letter_name_exits_one_with_the_error_line(capsys):
    # read, the Mobius series of the free monoid on 1 and x would be
    # written "1 - 1 - x"
    code, out, err = run(capsys, "mobius", "--order", "2", "--monoid",
                         '{"type": "free", "alphabet": ["1", "x"]}')
    assert (code, out) == (1, "")
    assert err == "error: letter names must not begin with a digit, got '1'\n"


def test_sign_led_letter_name_exits_one_with_the_error_line(capsys):
    # read, the Mobius series of the free monoid on -x and x would be
    # written "1 - -x - x"
    code, out, err = run(capsys, "mobius", "--order", "2", "--monoid",
                         '{"type": "free", "alphabet": ["-x", "x"]}')
    assert (code, out) == (1, "")
    assert err == "error: letter names must not begin with '-' or '+', got '-x'\n"


def test_letter_name_with_a_space_exits_one_with_the_error_line(capsys):
    # read, count would list the two letters as "1\t2\ta b c"
    code, out, err = run(capsys, "count", "--order", "1", "--monoid",
                         '{"type": "free", "alphabet": ["a b", "c"]}')
    assert (code, out) == (1, "")
    assert err == ("error: letter names must not contain whitespace, "
                   "'*' or '/', got 'a b'\n")


def test_invert_one_gives_mobius(tmp_path, capsys):
    one = write_series(tmp_path, "one.json", {
        "truncation": 4, "terms": [["1", []]]})
    for side in ("left", "right"):
        code, out, _ = run(capsys, "invert", "--monoid", STANDARD,
                           "--order", "4", "--series", one, "--side", side)
        assert code == 0
        assert out == "1 - a - b - c\n"


def test_invert_undoes_zeta_transform(tmp_path, capsys):
    # zeta * a over standard words, then the left inversion recovers a
    f = write_series(tmp_path, "f.json", {
        "truncation": 4, "terms": [["1", ["a"]]]})
    code, out, _ = run(capsys, "mul", "--monoid", STANDARD, "--order", "4",
                       "--series", write_series(tmp_path, "zeta.json", {
                           "truncation": 4, "terms": [
                               ["1", []], ["1", ["a"]], ["1", ["b"]],
                               ["1", ["c"]], ["1", ["a", "b"]],
                               ["1", ["a", "c"]], ["1", ["b", "a"]],
                               ["1", ["b", "c"]], ["1", ["c", "a"]],
                               ["1", ["c", "b"]],
                               ["1", ["a", "b", "c"]], ["1", ["a", "c", "b"]],
                               ["1", ["b", "a", "c"]], ["1", ["b", "c", "a"]],
                               ["1", ["c", "a", "b"]], ["1", ["c", "b", "a"]],
                           ]}),
                       "--series", f, "--format", "json")
    assert code == 0
    g = write_series(tmp_path, "g.json", json.loads(out))
    code, out, _ = run(capsys, "invert", "--monoid", STANDARD, "--order", "4",
                       "--series", g, "--side", "left")
    assert code == 0
    assert out == "a\n"


def test_hilbert_text(capsys):
    code, out, _ = run(capsys, "hilbert", "--monoid", STANDARD,
                       "--order", "3")
    assert code == 0
    assert out == "1 + 3t + 6t^2 + 6t^3\n"


def test_hilbert_json_defaults_to_order(capsys):
    code, out, _ = run(capsys, "hilbert", "--monoid", STANDARD,
                       "--order", "5", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"counts": [1, 3, 6, 6, 0, 0]}


def digit_limit():
    return getattr(sys, "get_int_max_str_digits", lambda: None)()


# decimal arithmetic has no digit limit, and this context rounds nothing
# below 10,000 digits: an oracle for exact results written in decimal
EXACT = decimal.Context(prec=10_000)


def test_hilbert_writes_a_count_beyond_the_digit_limit(capsys):
    # 2^15000 has 4,516 digits, beyond the interpreter's default limit of
    # 4,300 on writing an int as text; the CLI lifts it for its output,
    # in either format, and restores it after
    limit = digit_limit()
    for fmt, prefix, separator, suffix in [
            ("text", "1 + 2t + 4t^2 + 8t^3 + ", " + ", "t^15000\n"),
            ("json", '{"counts": [1, 2, 4, 8, ', ", ", "]}\n")]:
        code, out, err = run(capsys, "hilbert", "--monoid", FREE_AB,
                             "--order", "15000", "--format", fmt)
        assert (code, err) == (0, "")
        assert digit_limit() == limit
        head, last = out.rsplit(separator, 1)
        assert head.startswith(prefix)
        assert last.endswith(suffix)
        assert (EXACT.create_decimal(last[:-len(suffix)])
                == EXACT.power(2, 15000))


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_mul_writes_a_product_beyond_the_digit_limit(tmp_path, capsys, fmt):
    # each operand's coefficient has 2,200 digits, within the limit on
    # reading; their product has 4,400, beyond the limit on writing
    big = "9" * 2200
    f = write_series(tmp_path, "f.json", {"truncation": 2,
                                          "terms": [[big, ["a"]]]})
    g = write_series(tmp_path, "g.json", {"truncation": 2,
                                          "terms": [["-" + big, ["b"]]]})
    limit = digit_limit()
    code, out, err = run(capsys, "mul", "--monoid", FREE_AB, "--order", "2",
                         "--format", fmt, "--series", f, "--series", g)
    assert (code, err) == (0, "")
    assert digit_limit() == limit
    if fmt == "json":
        prefix, suffix = '{"truncation": 2, "terms": [["', '", ["a", "b"]]]}\n'
    else:
        prefix, suffix = "", "ab\n"
    assert out.startswith(prefix + "-9") and out.endswith(suffix)
    product = EXACT.create_decimal(out[len(prefix):-len(suffix)])
    assert product == EXACT.minus(EXACT.power(EXACT.create_decimal(big), 2))


def test_count_table(capsys):
    code, out, _ = run(capsys, "count", "--monoid", STANDARD, "--order", "2")
    assert code == 0
    assert out.splitlines() == [
        "0\t1\t1",
        "1\t3\ta b c",
        "2\t6\tab ac ba bc ca cb",
    ]


def test_count_json(capsys):
    code, out, _ = run(capsys, "count", "--monoid", FREE_AB, "--order", "1",
                       "--format", "json")
    assert code == 0
    assert json.loads(out) == {"orders": [
        {"order": 0, "count": 1, "elements": [[]]},
        {"order": 1, "count": 2, "elements": [["a"], ["b"]]},
    ]}


def test_closed_stdout_exits_one_with_nothing_on_stderr():
    """A reader that stops early, as ``head -n 1`` does, closes the pipe
    while ``count`` still writes its 124,245 elements."""
    monoid = ('{"type": "rees", "base": {"type": "free", "alphabet": '
              '["a", "b", "c", "d"]}, "ideal": {"kind": "generated", '
              '"words": [["a", "b"], ["c", "c"]]}}')
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.Popen(
        [sys.executable, "-m", "mobzero.cli", "count", "--order", "9",
         "--monoid", monoid],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.read(6) == b"0\t1\t1\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (1, b"")


def test_verify_passes_on_standard_words(capsys):
    code, out, _ = run(capsys, "verify", "--monoid", STANDARD,
                       "--order", "6")
    assert code == 0
    lines = out.splitlines()
    assert lines == [
        "PASS unit-inverse",
        "PASS oracle-equivalence",
        "PASS mobius-transfer",
        "PASS hilbert-relation",
    ]


def test_verify_plain_monoid_runs_two_checks(capsys):
    code, out, _ = run(capsys, "verify", "--monoid", FREE_AB, "--order", "5")
    assert code == 0
    assert out.splitlines() == ["PASS unit-inverse", "PASS oracle-equivalence"]


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--monoid", FREE_AB, "--order", "4",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True
    assert [c["check"] for c in data["checks"]] == [
        "unit-inverse", "oracle-equivalence"]


GEN_AB = ('{"type": "rees", "base": {"type": "free", "alphabet": ["a", "b", '
          '"c"]}, "ideal": {"kind": "generated", "words": [["a", "b"]]}}')
COMM_DEG4 = ('{"type": "rees", "base": {"type": "free-commutative", '
             '"alphabet": ["a", "b", "c"]}, '
             '"ideal": {"kind": "degree-at-least", "d": 4}}')
TRANSFER = ('{"check": "mobius-transfer", "pass": true, "notes": ["base '
            'Mobius support avoids the ideal; series agree term for term"]}')


@pytest.mark.parametrize("monoid, order, text, checks", [
    (FREE_AB, 5, "PASS unit-inverse\nPASS oracle-equivalence\n", ""),
    (GEN_AB, 7,
     "PASS unit-inverse\nPASS oracle-equivalence\nPASS mobius-transfer\n"
     "PASS hilbert-relation\n",
     ", " + TRANSFER + ', {"check": "hilbert-relation", "pass": true, '
     '"notes": ["quotient counts: [1, 3, 8, 21, 55, 144, 377, 987]"]}'),
    (COMM_DEG4, 5,
     "PASS unit-inverse\nPASS oracle-equivalence\nPASS mobius-transfer\n",
     ", " + TRANSFER),
], ids=["free", "free-quotient", "commutative-quotient"])
def test_verify_output_is_unchanged(capsys, monoid, order, text, checks):
    argv = ["verify", "--monoid", monoid, "--order", str(order)]
    assert run(capsys, *argv) == (0, text, "")
    assert run(capsys, *argv, "--format", "json") == (0, (
        '{"checks": [{"check": "unit-inverse", "pass": true}, '
        '{"check": "oracle-equivalence", "pass": true}' + checks
        + '], "pass": true}\n'), "")


def test_verify_catches_a_wrong_closed_form(capsys, monkeypatch):
    # the quotient's series is the projection of the base's closed form,
    # so the transfer check must solve the quotient over its grades to
    # see a closed form that drops the letter c
    closed_form = FreeMonoid._mobius_terms

    def without_c(self, top):
        terms = closed_form(self, top)
        terms.pop((2,), None)
        return terms

    monkeypatch.setattr(FreeMonoid, "_mobius_terms", without_c)
    code, out, _ = run(capsys, "verify", "--monoid", GEN_AB, "--order", "5")
    assert code == 2
    assert ("FAIL mobius-transfer: projected base Mobius series differs "
            "from the quotient's (at c: 0 != -1)") in out.splitlines()


def test_verify_failure_exits_two(capsys, monkeypatch):
    monkeypatch.setattr(
        mobzero.series, "check_unit_inverse",
        lambda m, n: Report("unit-inverse", ("forced failure",)))
    code, out, _ = run(capsys, "verify", "--monoid", FREE_AB, "--order", "3")
    assert code == 2
    assert "FAIL unit-inverse: forced failure" in out


def test_verify_catches_a_wrong_mobius_series(capsys, monkeypatch):
    closed_form = FreeMonoid._mobius_terms

    def without_b(self, top):
        terms = closed_form(self, top)
        terms.pop((1,), None)
        return terms

    monkeypatch.setattr(FreeMonoid, "_mobius_terms", without_b)
    failure = "mobius*zeta != 1 (at b: 1 != 0)"
    argv = ["verify", "--monoid", FREE_AB, "--order", "3"]
    assert run(capsys, *argv) == (
        2, f"FAIL unit-inverse: {failure}\nPASS oracle-equivalence\n", "")
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 2
    assert json.loads(out)["checks"][0] == {
        "check": "unit-inverse", "pass": False, "counterexample": failure}


def test_verify_catches_a_wrong_left_seam_key(capsys, monkeypatch):
    # with one left key, the right factors of an order form one class,
    # so one product decides collapse for all of them and cauchy_product
    # parts from the oracle
    init = GeneratedIdeal.__init__

    def constant_left_residue(self, *args):
        init(self, *args)
        self.left_residue = lambda word: ()

    monkeypatch.setattr(GeneratedIdeal, "__init__", constant_left_residue)
    code, out, _ = run(capsys, "verify", "--monoid", GEN_AB, "--order", "6")
    assert code == 2
    assert ("FAIL oracle-equivalence: pair 1: products disagree "
            "(at aabaa: -1 != 0)") in out.splitlines()


def test_verify_catches_a_wrong_hilbert_count(capsys, monkeypatch):
    counts = mobzero.hilbert.hilbert_prefix

    def one_too_many_at_two(q, top):
        out = list(counts(q, top))
        out[2] += 1
        return tuple(out)

    monkeypatch.setattr(mobzero.hilbert, "hilbert_prefix", one_too_many_at_two)
    code, out, _ = run(capsys, "verify", "--monoid", GEN_AB, "--order", "4")
    assert code == 2
    assert out.splitlines() == [
        "PASS unit-inverse", "PASS oracle-equivalence", "PASS mobius-transfer",
        "FAIL hilbert-relation: degree 2: 9 survivors + 1 in the ideal "
        "!= 9 words"]


def test_validation_failures_exit_one(capsys):
    bad_monoid = '{"type": "rees", "base": ' + FREE_AB + \
        ', "ideal": {"kind": "generated", "words": [[]]}}'
    code, _, err = run(capsys, "mobius", "--monoid", bad_monoid)
    assert code == 1
    assert "proper" in err

    code, _, err = run(capsys, "mobius", "--monoid", "{not json")
    assert code == 1
    assert "JSON" in err

    code, _, err = run(capsys, "mobius", "--monoid", "/no/such/file.json")
    assert code == 1
    assert "no such file" in err

    code, _, err = run(capsys, "mobius", "--monoid", FREE_AB,
                       "--order", "-2")
    assert code == 1
    assert "order" in err


@pytest.mark.parametrize("argv", [
    ["verify", "--order", "x", "--monoid", FREE_AB],
    ["verify", "--order", "3"],
    [],
], ids=["bad-order", "no-monoid", "no-subcommand"])
def test_malformed_command_line_exits_one(capsys, argv):
    # argparse's own status, 2, is what verify returns for a counterexample
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("usage: mobzero")


def test_help_exits_zero(capsys):
    code, out, err = run(capsys, "verify", "--help")
    assert (code, err) == (0, "")
    assert out.startswith("usage: mobzero verify")


@pytest.mark.parametrize("content", [b"[1, 2]", b'{"truncation": "\xff"}'],
                         ids=["list", "not-utf-8"])
def test_bad_operand_file_is_named(tmp_path, capsys, content):
    good = write_series(tmp_path, "good.json", {"truncation": 3, "terms": []})
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    code, out, err = run(capsys, "mul", "--monoid", FREE_AB, "--order", "3",
                         "--series", good, "--series", str(bad))
    assert (code, out) == (1, "")
    assert str(bad) in err and good not in err


@pytest.mark.parametrize("monoid", [
    '{"type": "rees", "base": 5, "ideal": {}}',
    '{"type": "rees", "base": null, "ideal": {"kind": "repeated-letter"}}',
    '{"type": "rees", "base": ' + FREE_AB + ', "ideal": 7}',
    '{"type": "rees", "base": ' + FREE_AB + ', '
    '"ideal": {"kind": "ev-preimage", "inner": 3}}',
    '{"type": "rees", "base": ' + FREE_AB + ', '
    '"ideal": {"kind": "ev-preimage", "inner": []}}',
], ids=["base-int", "base-null", "ideal-int", "inner-int", "inner-list"])
def test_nested_description_that_is_not_an_object_exits_one(capsys, monoid):
    code, out, err = run(capsys, "mobius", "--monoid", monoid)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "description must be a JSON object" in err


def test_deeply_nested_description_exits_one(capsys):
    # far deeper than the recursion limit of any supported Python
    monoid = FREE_AB
    for _ in range(5000):
        monoid = '{"type": "adjoin-zero", "base": ' + monoid + '}'
    code, out, err = run(capsys, "mobius", "--monoid", monoid)
    assert (code, out) == (1, "")
    assert err == "error: the description is nested too deeply\n"


@pytest.mark.parametrize("command, extra", [
    ("hilbert", ()), ("count", ()), ("mobius", ()),
    ("verify", ("--format", "json")),
])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_ev_preimage_and_min_length_print_the_same(capsys, command, extra,
                                                   d):
    # the pullback of degree-at-least(d) is min-length(d), so the two
    # spellings give the same output byte for byte
    outs = []
    for ideal in ({"kind": "ev-preimage",
                   "inner": {"kind": "degree-at-least", "d": d}},
                  {"kind": "min-length", "n": d}):
        monoid = json.dumps({"type": "rees", "base": {
            "type": "free", "alphabet": ["a", "b", "c"]}, "ideal": ideal})
        code, out, err = run(capsys, command, "--monoid", monoid,
                             "--order", "5", *extra)
        assert (code, err) == (0, "")
        outs.append(out)
    assert outs[0] == outs[1]


COMM_DEG3 = ('{"type": "rees", "base": {"type": "free-commutative", '
             '"alphabet": ["a", "b"]}, '
             '"ideal": {"kind": "degree-at-least", "d": 3}}')


@pytest.mark.parametrize("command", ["hilbert", "count", "verify"])
@pytest.mark.parametrize("monoid", [FREE_AB, COMM_DEG3],
                         ids=["free", "commutative-quotient"])
def test_negative_terms_exit_one(capsys, command, monoid):
    # --order is the top degree these commands count, list or check
    code, out, err = run(capsys, command, "--monoid", monoid, "--order", "-3")
    assert (code, out) == (1, "")
    assert err == "error: order must be nonnegative, got -3\n"


def test_directory_path_exits_one(tmp_path, capsys):
    code, out, err = run(capsys, "mobius", "--monoid", str(tmp_path))
    assert (code, out) == (1, "")
    assert err.startswith("error: cannot read") and "directory" in err
    code, _, err = run(capsys, "mul", "--monoid", FREE_AB,
                       "--series", str(tmp_path), "--series", str(tmp_path))
    assert code == 1
    assert err.startswith("error: cannot read") and "directory" in err


def test_unknown_letter_in_series_exits_one(tmp_path, capsys):
    series = write_series(tmp_path, "f.json", {
        "truncation": 4, "terms": [["1", ["z"]]]})
    code, _, err = run(capsys, "star", "--monoid", FREE_AB,
                       "--order", "4", "--series", series)
    assert code == 1
    assert "unknown letter" in err


def test_term_inside_the_ideal_is_named_by_its_letters(tmp_path, capsys):
    # the reader's letters, as given, not the word's internal encoding
    monoid = json.dumps({
        "type": "rees",
        "base": {"type": "free-commutative", "alphabet": ["a", "b"]},
        "ideal": {"kind": "degree-at-least", "d": 3}})
    f = write_series(tmp_path, "f.json", {
        "truncation": 8, "terms": [["1", ["b", "a", "a", "b"]]]})
    g = write_series(tmp_path, "g.json", {"truncation": 8, "terms": []})
    assert run(capsys, "mul", "--monoid", monoid, "--series", f,
               "--series", g) == (1, "", (
        "error: ['b', 'a', 'a', 'b'] is not an element of Rees quotient of "
        "free commutative monoid on {a, b} by degree-at-least(3) ideal\n"))


def test_generator_inside_the_inner_ideal_is_named_by_its_letters(capsys):
    # a generator over a quotient base is spelled as an element of that
    # base, so the reader's letters are named, not the letter indices
    monoid = json.dumps({
        "type": "rees",
        "base": {"type": "rees", "base": json.loads(FREE_AB),
                 "ideal": {"kind": "repeated-letter"}},
        "ideal": {"kind": "generated", "words": [["b", "b"]]}})
    assert run(capsys, "mobius", "--monoid", monoid) == (1, "", (
        "error: ['b', 'b'] is not an element of Rees quotient of free monoid "
        "on {a, b} by repeated-letter ideal\n"))


COMM_AB = {"type": "free-commutative", "alphabet": ["a", "b"]}


@pytest.mark.parametrize("base, words, described", [
    (COMM_AB, [["a", "z"]], "free commutative monoid on {a, b}"),
    ({"type": "rees", "base": COMM_AB,
      "ideal": {"kind": "degree-at-least", "d": 2}}, [["a", "b"]],
     "Rees quotient of free commutative monoid on {a, b} by "
     "degree-at-least(2) ideal"),
], ids=["unknown-letter", "inside-the-inner-ideal"])
def test_generated_ideal_checks_the_word_kind_before_any_letter(
        capsys, base, words, described):
    # the base's words are letter multisets, so no generator is spelled:
    # neither an unknown letter nor a word of the inner ideal is named
    monoid = json.dumps({"type": "rees", "base": base,
                         "ideal": {"kind": "generated", "words": words}})
    assert run(capsys, "mobius", "--monoid", monoid) == (1, "", (
        "error: generated ideal needs a monoid whose words are letter "
        f"sequences, got {described}\n"))


def record_collector_state(monkeypatch, owner, name, seen):
    """Wrap ``owner.name`` so that each call records, under ``name``,
    whether the cyclic collector was enabled."""
    original = getattr(owner, name)

    def probe(*args, **kwargs):
        seen[name] = gc.isenabled()
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, probe)


@pytest.mark.parametrize("command, operands, name", [
    ("star", 1, "star"), ("mul", 2, "cauchy_product"),
    ("invert", 1, "mobius_invert_left")])
def test_series_commands_compute_with_the_collector_paused(
        tmp_path, capsys, monkeypatch, command, operands, name):
    seen = {}
    record_collector_state(monkeypatch, mobzero.series, name, seen)
    f = write_series(tmp_path, "f.json", {
        "truncation": 4, "terms": [["1", ["a"]]]})
    argv = [command, "--monoid", FREE_AB, "--order", "4"]
    assert run(capsys, *argv, *["--series", f] * operands)[0] == 0
    assert seen == {name: False}
    assert gc.isenabled()


@pytest.mark.parametrize("command, owner, name", [
    ("hilbert", mobzero.hilbert, "hilbert_prefix"),
    ("mobius", mobzero.series, "mobius_series"),
    ("verify", mobzero.series, "check_unit_inverse"),
    ("count", ReesQuotient, "grades")])
def test_other_commands_run_with_the_collector_on(
        capsys, monkeypatch, command, owner, name):
    seen = {}
    record_collector_state(monkeypatch, owner, name, seen)
    assert run(capsys, command, "--monoid", STANDARD, "--order", "3")[0] == 0
    assert seen == {name: True}


def test_series_commands_restore_the_callers_collector_state(
        tmp_path, capsys):
    proper = write_series(tmp_path, "f.json", {
        "truncation": 4, "terms": [["1", ["a"]]]})
    not_proper = write_series(tmp_path, "g.json", {
        "truncation": 4, "terms": [["1", []], ["1", ["a"]]]})
    missing = str(tmp_path / "missing.json")
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            for command, operand, code in (("star", proper, 0),
                                           ("invert", missing, 1),
                                           ("star", not_proper, 1)):
                assert run(capsys, command, "--monoid", FREE_AB, "--order",
                           "4", "--series", operand)[0] == code
                assert gc.isenabled() is enabled
    finally:
        gc.enable()


def test_invert_of_a_dense_operand_runs_no_collection(
        tmp_path, capsys, monkeypatch):
    # the zeta transform of 330 seeded terms over free {a, b, c}, built as
    # the CI round trip builds it: some 9,600 terms to read, invert and
    # write, during which no collection may run
    monoid = {"type": "free", "alphabet": ["a", "b", "c"]}
    m = parse_monoid(monoid)
    rng = random.Random(1)
    words = [w for grade in m.grades(5) for w in grade]
    f = Series(m, 8, {w: rng.randint(-9, 9)
                      for w in rng.sample(words, 330)})
    g = convolve_oracle(characteristic_series(m, 8), f)
    assert len(g.terms) > 9000
    path = tmp_path / "g.json"
    path.write_text(series_to_json(g))

    # the window opens when the operands are read and closes once the
    # result is written
    inside, collections = [False], []
    load, emit = cli._load_series, cli._emit_series

    def loading(*args):
        inside[0] = True
        return load(*args)

    def emitting(*args):
        try:
            return emit(*args)
        finally:
            inside[0] = False

    def collected(phase, info):
        if phase == "start" and inside[0]:
            collections.append(info["generation"])

    monkeypatch.setattr(cli, "_load_series", loading)
    monkeypatch.setattr(cli, "_emit_series", emitting)
    assert gc.isenabled()
    gc.callbacks.append(collected)
    try:
        code, out, err = run(capsys, "invert", "--monoid", json.dumps(monoid),
                             "--order", "8", "--format", "json",
                             "--series", str(path))
    finally:
        gc.callbacks.remove(collected)
    assert (code, err) == (0, "")
    assert out == series_to_json(f) + "\n"
    assert collections == []


def test_a_paused_command_leaves_its_cycles_to_the_collector(
        tmp_path, capsys, monkeypatch):
    # once the command is done the ideal is freed, and the collector
    # reclaims its automaton's states, which refer to each other
    parsed = []

    def capture(description):
        parsed.append(parse_monoid(description))
        return parsed[-1]

    monkeypatch.setattr(mobzero.specio, "parse_monoid", capture)
    f = write_series(tmp_path, "f.json", {
        "truncation": 4, "terms": [["1", ["a"]], ["1", ["b"]]]})
    assert run(capsys, "mul", "--monoid", GEN_AB, "--order", "4",
               "--series", f, "--series", f) == (0, "aa + ba + bb\n", "")
    ideal = weakref.ref(parsed.pop().ideal)
    gc.collect()
    assert ideal() is None
