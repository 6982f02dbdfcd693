import json

import pytest

from mobzero import Report
from mobzero.cli import _VERIFY_CHECKS, main

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
                       "--terms", "3")
    assert code == 0
    assert out == "1 + 3t + 6t^2 + 6t^3\n"


def test_hilbert_json_defaults_to_order(capsys):
    code, out, _ = run(capsys, "hilbert", "--monoid", STANDARD,
                       "--order", "5", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"counts": [1, 3, 6, 6, 0, 0]}


def test_count_table(capsys):
    code, out, _ = run(capsys, "count", "--monoid", STANDARD, "--terms", "2")
    assert code == 0
    assert out.splitlines() == [
        "0\t1\t1",
        "1\t3\ta b c",
        "2\t6\tab ac ba bc ca cb",
    ]


def test_count_json(capsys):
    code, out, _ = run(capsys, "count", "--monoid", FREE_AB, "--terms", "1",
                       "--format", "json")
    assert code == 0
    assert json.loads(out) == {"orders": [
        {"order": 0, "count": 1, "elements": [[]]},
        {"order": 1, "count": 2, "elements": [["a"], ["b"]]},
    ]}


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


@pytest.mark.parametrize("monoid, extra, text, checks", [
    (FREE_AB, [], "PASS unit-inverse\nPASS oracle-equivalence\n", ""),
    (GEN_AB, ["--terms", "7"],
     "PASS unit-inverse\nPASS oracle-equivalence\nPASS mobius-transfer\n"
     "PASS hilbert-relation\n",
     ", " + TRANSFER + ', {"check": "hilbert-relation", "pass": true, '
     '"notes": ["quotient counts: [1, 3, 8, 21, 55, 144, 377, 987]"]}'),
    (COMM_DEG4, [],
     "PASS unit-inverse\nPASS oracle-equivalence\nPASS mobius-transfer\n",
     ", " + TRANSFER),
], ids=["free", "free-quotient", "commutative-quotient"])
def test_verify_output_is_unchanged(capsys, monoid, extra, text, checks):
    argv = ["verify", "--monoid", monoid, "--order", "5", *extra]
    assert run(capsys, *argv) == (0, text, "")
    assert run(capsys, *argv, "--format", "json") == (0, (
        '{"checks": [{"check": "unit-inverse", "pass": true}, '
        '{"check": "oracle-equivalence", "pass": true}' + checks
        + '], "pass": true}\n'), "")


def test_verify_checks_are_named_as_their_reports(capsys):
    _, out, _ = run(capsys, "verify", "--monoid", GEN_AB, "--order", "4",
                    "--format", "json")
    assert [c["check"] for c in json.loads(out)["checks"]] == [
        name for name, _, _ in _VERIFY_CHECKS]


def test_verify_failure_exits_two(capsys, monkeypatch):
    import mobzero.cli as cli_mod

    monkeypatch.setattr(
        cli_mod, "check_unit_inverse",
        lambda m, n: Report("unit-inverse", ("forced failure",)))
    code, out, _ = run(capsys, "verify", "--monoid", FREE_AB, "--order", "3")
    assert code == 2
    assert "FAIL unit-inverse: forced failure" in out


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


COMM_DEG3 = ('{"type": "rees", "base": {"type": "free-commutative", '
             '"alphabet": ["a", "b"]}, '
             '"ideal": {"kind": "degree-at-least", "d": 3}}')


@pytest.mark.parametrize("command", ["hilbert", "count", "verify"])
@pytest.mark.parametrize("monoid", [FREE_AB, COMM_DEG3],
                         ids=["free", "commutative-quotient"])
def test_negative_terms_exit_one(capsys, command, monoid):
    # verify runs no check that reads --terms on either monoid
    code, out, err = run(capsys, command, "--monoid", monoid, "--order", "4",
                         "--terms", "-3")
    assert (code, out) == (1, "")
    assert err == "error: terms must be nonnegative, got -3\n"


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
