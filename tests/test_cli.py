"""Kernel document serialization and the command-line driver."""

import contextlib
import io
import json
import pathlib
import random
import sys
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finmarkov import UNIT, FinObject, Kernel, Kind, fin_object, kernel_equal, tensor_object
from finmarkov import cli, golden
from finmarkov.cli import ParseError, parse_kernel, run
from finmarkov.idempotents import NotIdempotent
from finmarkov.kernel import Violation
from finmarkov.golden import (
    balanced_idempotent,
    multi_chain3_idempotent,
    multi_upset_idempotent,
    signed_idempotent,
    static_idempotent,
    strong_idempotent,
)
from finmarkov.rand import random_kernel
from oracles import emit_kernel, intro_functions, intro_state, kernel_refusal, random_object

F = Fraction


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_parse_minimal_stoch_document():
    k = parse_kernel('{"kind":"stoch","dom":["a"],"cod":["x","y"],"matrix":[["1/2"],["1/2"]]}')
    assert k.kind is Kind.STOCH
    assert k.dom.labels == ("a",) and k.cod.labels == ("x", "y")
    assert k.matrix == ((F(1, 2),), (F(1, 2),))


def test_parse_reduces_fractions():
    k = parse_kernel('{"kind":"stoch","dom":["a"],"cod":["x","y"],"matrix":[["2/4"],["1/2"]]}')
    assert k.matrix[0][0] == F(1, 2)
    assert '"1/2"' in emit_kernel(k)


def test_parse_rejects_bad_column():
    with pytest.raises(ParseError, match="sums to 3/4"):
        parse_kernel('{"kind":"stoch","dom":["a"],"cod":["x","y"],"matrix":[["1/2"],["1/4"]]}')


def test_parse_rejects_floats_and_garbage():
    with pytest.raises(ParseError):
        parse_kernel('{"kind":"stoch","dom":["a"],"cod":["x"],"matrix":[[0.5]]}')
    with pytest.raises(ParseError):
        parse_kernel("not json")
    with pytest.raises(ParseError):
        parse_kernel('{"kind":"hyper","dom":[],"cod":[],"matrix":[]}')
    for entry in ("1e3", "1E5", "0.5", "1.0", " 1/2 ", "+3", "1_000", "1/0"):
        with pytest.raises(ParseError, match="matrix"):
            parse_kernel('{"kind":"stoch","dom":["a"],"cod":["x"],"matrix":[["%s"]]}' % entry)


def test_cli_oversized_numeral_exit_2(tmp_path, capsys):
    doc = '{"kind":"stoch","dom":["a"],"cod":["x"],"matrix":[[%s]]}'
    for entry in ("1" + "0" * 4999, '"1/%s"' % ("7" * 5000)):
        path = tmp_path / "big.json"
        path.write_text(doc % entry, encoding="utf-8")
        assert run(["validate", str(path)]) == 2
        assert "4300 digits" in capsys.readouterr().err


@pytest.mark.parametrize("limit", [None, 0])
def test_json_integers_are_capped_at_4300_digits(limit):
    # the cap holds under the interpreter's default digit limit and with
    # that limit off (0), whichever path the parser takes
    if limit is not None and not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no digit limit")
    doc = '{"kind":"signed","dom":["a"],"cod":["x","y"],"matrix":[[%s],[%s]]}'
    old = sys.get_int_max_str_digits() if limit is not None else None
    try:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
        # 10^4299 and 1 − 10^4299 have 4,300 and 4,299 digits
        k = parse_kernel(doc % ("1" + "0" * 4299, "-" + "9" * 4299))
        assert k.matrix == ((F(10**4299),), (F(1 - 10**4299),))
        for first, second in (("1" + "0" * 4300, "0"), ("1", "-" + "1" * 4301)):
            with pytest.raises(ParseError) as exc:
                parse_kernel(doc % (first, second))
            assert str(exc.value) == "integer literal: numeral longer than 4300 digits"
    finally:
        if old is not None:
            sys.set_int_max_str_digits(old)


def test_a_label_of_5000_digits_parses():
    label = "7" * 5000
    k = parse_kernel('{"kind":"stoch","dom":["%s"],"cod":["x"],"matrix":[[1]]}' % label)
    assert k.dom.labels == (label,)


def test_cli_deeply_nested_json_exit_2(tmp_path, capsys):
    deep = "[" * 100_000 + "]" * 100_000
    for text in (deep, '{"kind":"stoch","dom":[],"cod":[],"matrix":%s}' % deep):
        path = tmp_path / "deep.json"
        path.write_text(text, encoding="utf-8")
        assert run(["validate", str(path)]) == 2
        assert "nested too deeply" in json.loads(capsys.readouterr().err)["error"]


def test_parse_multi_images():
    k = parse_kernel('{"kind":"multi","dom":["0","1"],"cod":["0","1"],"images":[["0","1"],["1"]]}')
    assert kernel_equal(k, multi_upset_idempotent())
    with pytest.raises(ParseError):
        parse_kernel('{"kind":"multi","dom":["0"],"cod":["0"],"images":[[]]}')


def test_round_trip_fuzz():
    rng = random.Random(99)
    for i in range(300):
        kind = (Kind.STOCH, Kind.SIGNED, Kind.MULTI)[i % 3]
        dom = random_object(rng, 4, "a")
        cod = random_object(rng, 4, "x")
        k = random_kernel(rng, kind, dom, cod)
        text = emit_kernel(k)
        again = parse_kernel(text)
        assert kernel_equal(k, again)
        assert emit_kernel(again) == text


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def _write(tmp_path, name, kernel):
    path = tmp_path / name
    path.write_text(emit_kernel(kernel), encoding="utf-8")
    return str(path)


def test_cli_classify(tmp_path, capsys):
    path = _write(tmp_path, "e.json", static_idempotent())
    code = run(["classify", path])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["idempotent"] and out["static"] and not out["strong"] and out["balanced"]


def test_cli_classify_non_idempotent_exits_1(tmp_path, capsys):
    from finmarkov import fin_object, make_kernel

    x = fin_object(("a", "b"))
    rot = make_kernel(Kind.STOCH, x, x, [[0, 1], [1, 0]])
    path = _write(tmp_path, "rot.json", rot)
    code = run(["classify", path])
    out = json.loads(capsys.readouterr().out)
    assert code == 1 and not out["idempotent"]


def test_cli_split_balanced_example(tmp_path, capsys):
    path = _write(tmp_path, "e.json", balanced_idempotent())
    code = run(["split", path])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["split"]["classes"] == [["1", "2"], ["3"]]
    assert out["split"]["transient"] == ["4"]


def test_cli_split_multi_no_split(tmp_path, capsys):
    path = _write(tmp_path, "e.json", multi_upset_idempotent())
    code = run(["--max-size", "2", "split", path])
    out = json.loads(capsys.readouterr().out)
    assert code == 1 and out["no_split_up_to"] == 2


def test_cli_split_non_idempotent_exits_1(tmp_path, capsys):
    from finmarkov import fin_object, make_kernel, multi_kernel

    x = fin_object(("0", "1"))
    swaps = [multi_kernel(x, x, [["1"], ["0"]]), make_kernel(Kind.STOCH, x, x, [[0, 1], [1, 0]])]
    for swap in swaps:
        path = _write(tmp_path, f"swap_{swap.kind.value}.json", swap)
        code = run(["split", path])
        out = json.loads(capsys.readouterr().out)
        assert code == 1
        assert out == {"split": None, "error": "kernel is not idempotent"}


def test_cli_support_and_split_support(tmp_path, capsys):
    path = _write(tmp_path, "p.json", intro_state())
    assert run(["support", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["support"] == ["a", "b"]
    assert run(["split-support", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["projection"]["matrix"][0] == [1, 0, 1]


def test_cli_abscont(tmp_path, capsys):
    from finmarkov.golden import domination_pair

    q, p = domination_pair()
    qp = _write(tmp_path, "q.json", q)
    pp = _write(tmp_path, "p.json", p)
    assert run(["abscont", qp, pp]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["abs_cont"] is True
    # flip the arguments: still true here (both have full support)
    assert run(["abscont", pp, qp]) == 0
    capsys.readouterr()


def test_cli_abscont_negative_gives_witness(tmp_path, capsys):
    from finmarkov import compose, delta_kernel
    from finmarkov.golden import domination_pair

    q, p = domination_pair()
    qd = compose(q, delta_kernel(q.dom, "0"))
    pd = compose(p, delta_kernel(p.dom, "0"))
    qp = _write(tmp_path, "qd.json", qd)
    pp = _write(tmp_path, "pd.json", pd)
    assert run(["abscont", qp, pp]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["abs_cont"] is False and out["witness"]["element"] == "1"


def test_cli_ase(tmp_path, capsys):
    p = intro_state()
    f, g = intro_functions()
    pp = _write(tmp_path, "p.json", p)
    fp = _write(tmp_path, "f.json", f)
    gp = _write(tmp_path, "g.json", g)
    assert run(["ase", pp, fp, gp]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["almost_surely_equal"] is True


def test_cli_upsilon(tmp_path, capsys):
    path = _write(tmp_path, "e.json", static_idempotent())
    assert run(["upsilon", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["kind"] == "multi"
    assert out["images"] == [["1"], ["2"], ["1", "2"]]


def test_cli_conditional(tmp_path, capsys):
    from finmarkov import UNIT, make_kernel, tensor_object, fin_object

    x = fin_object(("0", "1"))
    joint = make_kernel(
        Kind.STOCH, UNIT, tensor_object(x, x), [[F(1, 2)], [0], [0], [F(1, 2)]]
    )
    path = _write(tmp_path, "j.json", joint)
    assert run(["conditional", path, "--split", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["matrix"] == [[1, 0], [0, 1]]


def test_cli_envelope_check(tmp_path, capsys):
    path = _write(tmp_path, "e.json", balanced_idempotent())
    assert run(["envelope-check", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["accepted"] and out["coassociative"]
    mpath = _write(tmp_path, "m.json", multi_upset_idempotent())
    assert run(["envelope-check", mpath]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["accepted"] is False


def test_cli_cauchy_schwarz(tmp_path, capsys):
    e = multi_upset_idempotent()
    path = _write(tmp_path, "e.json", e)
    assert run(["cauchy-schwarz", path, path, path]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["antecedent"] and not out["consequent"] and not out["implication_ok"]
    spath = _write(tmp_path, "s.json", strong_idempotent())
    assert run(["cauchy-schwarz", spath, spath, spath]) == 0
    capsys.readouterr()
    # the state form of a Stoch triple whose h is not constant on g: both sides fail
    x = FinObject(("0", "1"))
    paths = [
        _write(tmp_path, name, Kernel(Kind.STOCH, dom, cod, rows))
        for name, dom, cod, rows in (
            ("f.json", UNIT, UNIT, [[1]]),
            ("g.json", UNIT, x, [[Fraction(1, 2)], [Fraction(1, 2)]]),
            ("h.json", x, x, [[1, 0], [0, 1]]),
        )
    ]
    assert run(["cauchy-schwarz", *paths]) == 0
    assert capsys.readouterr().out == '{"antecedent": false, "consequent": false, "implication_ok": true}\n'


# (argv with fixture names, exit code, stdout in --format json); --format pretty
# prints the same payload with indent=2, so the key order is pinned in both
PINNED_OUTPUT = (
    (["classify", "e_balanced4"], 0,
     '{"idempotent": true, "deterministic": false, "static": false, "strong": false, "balanced": true, '
     '"witnesses": {"static": ["1", "1", "1"], "strong": ["4", "1", "1"], "deterministic": ["1"]}}'),
    (["envelope-check", "e_balanced4", "--flavor", "karoubi"], 0,
     '{"accepted": true, "counit_left": true, "counit_right": true, "coassociative": true, '
     '"cocommutative": true, "discard_natural": true}'),
    (["envelope-check", "e_balanced4"], 0,
     '{"accepted": true, "counit_left": true, "counit_right": true, "coassociative": true, '
     '"cocommutative": true, "discard_natural": true}'),
    (["cauchy-schwarz", "e_balanced4", "e_balanced4", "e_balanced4"], 0,
     '{"antecedent": true, "consequent": true, "implication_ok": true}'),
    (["classify", "e_signed3"], 0,
     '{"idempotent": true, "deterministic": false, "static": false, "strong": false, "balanced": false, '
     '"witnesses": {"strong": ["a", "a", "b"], "balanced": ["a", "a", "b"], "static": ["a", "b", "a"], '
     '"deterministic": ["a"]}}'),
    (["envelope-check", "e_signed3", "--flavor", "karoubi"], 0,
     '{"accepted": true, "counit_left": true, "counit_right": true, "coassociative": true, '
     '"cocommutative": true, "discard_natural": true}'),
    (["envelope-check", "e_signed3"], 1, '{"accepted": false, "error": "Blackwell cells require a balanced idempotent"}'),
    (["cauchy-schwarz", "e_signed3", "e_signed3", "e_signed3"], 1,
     '{"antecedent": true, "consequent": false, "implication_ok": false}'),
)


@pytest.mark.parametrize("argv, code, line", PINNED_OUTPUT, ids=[" ".join(argv) for argv, _, _ in PINNED_OUTPUT])
def test_cli_report_payloads_are_byte_exact(argv, code, line, capsys):
    fixtures = pathlib.Path(golden.__file__).with_name("fixtures")
    argv = [str(fixtures / f"{a}.json") if a in golden.FIXTURES else a for a in argv]
    assert run(["--format", "json", *argv]) == code
    assert capsys.readouterr().out == line + "\n"
    assert run(["--format", "pretty", *argv]) == code
    assert capsys.readouterr().out == json.dumps(json.loads(line), indent=2) + "\n"


def test_cli_validate(tmp_path, capsys):
    good = _write(tmp_path, "good.json", signed_idempotent())
    assert run(["validate", good]) == 0
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind":"stoch","dom":["a"],"cod":["x","y"],"matrix":[["1/2"],["1/4"]]}')
    assert run(["validate", str(bad)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["valid"] is False


def test_cli_malformed_input_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{<not json>}")
    assert run(["classify", str(bad)]) == 2
    assert run(["classify", str(tmp_path / "missing.json")]) == 2
    chain = _write(tmp_path, "chain.json", multi_chain3_idempotent())
    assert run(["--max-size", "-1", "split", chain]) == 2
    capsys.readouterr()


def test_cli_conditional_of_empty_kernel_exit_2(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text('{"kind": "stoch", "dom": [], "cod": [], "matrix": []}')
    assert run(["conditional", str(empty), "--split", "1"]) == 2
    assert "BadSplit" in json.loads(capsys.readouterr().err)["error"]


def test_cli_kind_error_exit_2(tmp_path, capsys):
    path = _write(tmp_path, "m.json", multi_upset_idempotent())
    assert run(["upsilon", path]) == 2
    capsys.readouterr()


VERIFY_PAPER_CHECKS = (
    "fixtures match built-ins",
    "strong example flags",
    "static example flags",
    "balanced example flags",
    "strong example splitting",
    "static example splitting",
    "balanced example splitting",
    "multi upset not balanced",
    "3-chain pattern not balanced",
    "signed example not balanced",
    "multi upset does not split",
    "domination holds",
    "domination breaks after the point",
)


def _pretty_lines(verdicts: dict) -> str:
    width = max(map(len, VERIFY_PAPER_CHECKS))
    lines = [f"{verdicts.get(name, 'PASS')}  {name:<{width}}" for name in VERIFY_PAPER_CHECKS]
    return "\n".join(lines + [f"{'FAIL' if verdicts else 'PASS'}  overall", ""])


def test_cli_verify_paper(capsys):
    assert run(["verify-paper"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"checks": [{"name": name, "pass": True} for name in VERIFY_PAPER_CHECKS], "all_pass": True}


def test_cli_verify_paper_pretty(capsys):
    assert run(["--format", "pretty", "verify-paper"]) == 0
    assert capsys.readouterr().out == _pretty_lines({})


def test_cli_verify_paper_fails_a_row_whose_callee_is_wrong_or_raises(monkeypatch, capsys):
    def not_idempotent(e):
        raise NotIdempotent("kernel is not idempotent")

    monkeypatch.setattr(golden, "abs_cont", lambda q, p: False)
    monkeypatch.setattr(golden, "blackwell_split", not_idempotent)
    failed = {"strong example splitting", "static example splitting", "balanced example splitting", "domination holds"}
    assert run(["verify-paper"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out == {"checks": [{"name": name, "pass": name not in failed} for name in VERIFY_PAPER_CHECKS],
                   "all_pass": False}
    assert run(["--format", "pretty", "verify-paper"]) == 1
    assert capsys.readouterr().out == _pretty_lines(dict.fromkeys(failed, "FAIL"))


def test_fixture_documents_are_exactly_the_golden_fixtures():
    fixtures = pathlib.Path(golden.__file__).with_name("fixtures")
    assert sorted(path.stem for path in fixtures.glob("*.json")) == sorted(golden.FIXTURES)


def test_cli_reports_deterministic(tmp_path, capsys):
    path = _write(tmp_path, "e.json", balanced_idempotent())
    run(["envelope-check", path])
    first = capsys.readouterr().out
    run(["envelope-check", path])
    second = capsys.readouterr().out
    assert first == second


def test_cli_document_that_is_not_utf8_exit_2(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"kind": "stoch", "dom": ["\xff"], "cod": ["x"], "matrix": [[1]]}')
    assert run(["classify", str(path)]) == 2
    assert json.loads(capsys.readouterr().err)["error"].startswith(f"cannot read {path}: 'utf-8' codec")


def test_cli_stdin_that_is_not_utf8_exit_2(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b'{"kind": "\xff"}'), encoding="utf-8"))
    assert run(["--format", "pretty", "validate", "-"]) == 2
    assert json.loads(capsys.readouterr().err)["error"].startswith("cannot read stdin: 'utf-8' codec")


def test_cli_stdin_decodes_its_bytes_strictly(capsys, monkeypatch):
    # a text stream that passes undecodable bytes on as surrogates: the
    # command reads the bytes beneath it, as it reads a file
    import io

    data = b'{"kind": "stoch", "dom": ["\xff"], "cod": ["x"], "matrix": [[1]]}'
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape"))
    assert run(["validate", "-"]) == 2
    assert json.loads(capsys.readouterr().err)["error"].startswith("cannot read stdin: 'utf-8' codec")


def test_cli_stdin(capsys, monkeypatch):
    import io

    doc = emit_kernel(static_idempotent())
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(doc.encode("utf-8")), encoding="utf-8"))
    assert run(["classify", "-"]) == 0
    capsys.readouterr()


def test_cli_reads_crlf_and_cr_documents_as_lf_documents(tmp_path, capsys):
    text = emit_kernel(balanced_idempotent(), pretty=True)
    outputs = []
    for name, eol in (("lf", "\n"), ("crlf", "\r\n"), ("cr", "\r")):
        path = tmp_path / f"{name}.json"
        path.write_bytes(text.replace("\n", eol).encode("utf-8"))
        assert cli._read_kernel(str(path)) == balanced_idempotent()
        assert run(["split", str(path)]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1] == outputs[2]


# a document of one line per key, missing the comma at the end of line 4
MALFORMED_LINES = ['{', '"kind": "stoch",', '"dom": ["a"],', '"cod": ["x"]', '"matrix": [[1]]', '}']


def test_cli_reports_the_line_of_a_malformed_cr_document_as_text_mode_reads_it(tmp_path, capsys):
    path = tmp_path / "cr.json"
    path.write_bytes("\r".join(MALFORMED_LINES).encode("utf-8"))
    with open(path, encoding="utf-8") as fh, pytest.raises(ParseError) as text_mode:
        parse_kernel(fh.read())
    assert run(["validate", str(path)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == str(text_mode.value)
    assert str(text_mode.value).startswith("invalid JSON at line 5:")


def test_cli_stdin_reads_line_ends_as_given(capsys, monkeypatch):
    import io

    data = "\r".join(MALFORMED_LINES).encode("utf-8")
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    assert run(["validate", "-"]) == 2
    assert json.loads(capsys.readouterr().err)["error"].startswith("invalid JSON at line 1:")


def test_cli_reports_a_bad_byte_past_8_kb_where_text_mode_does(tmp_path, capsys):
    path = tmp_path / "late.json"
    path.write_bytes(b'{"kind": "stoch",' + b" " * 10_000 + b'"dom": ["\xff"], "cod": ["x"], "matrix": [[1]]}')
    with open(path, encoding="utf-8") as fh, pytest.raises(UnicodeDecodeError) as text_mode:
        fh.read()
    assert run(["validate", str(path)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == f"cannot read {path}: {text_mode.value}"
    assert "position 10026" in str(text_mode.value)


def test_cli_verify_paper_prints_the_same_from_another_working_directory(tmp_path, capsys):
    import os
    import subprocess

    import finmarkov

    assert run(["verify-paper"]) == 0
    here = capsys.readouterr().out
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(os.path.abspath(finmarkov.__file__))))
    done = subprocess.run([sys.executable, "-m", "finmarkov.cli", "verify-paper"], cwd=tmp_path, env=env,
                          capture_output=True, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (0, here.encode("utf-8"), b"")


def test_cli_column_sum_too_long_to_print_is_named_by_its_size(tmp_path, capsys):
    # each denominator has 4,300 digits, within the cap; their product, the
    # denominator of the column's sum, has 8,599
    big = 10**4299
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"kind": "stoch", "dom": ["u"], "cod": ["x", "y"],
                                "matrix": [[f"1/{big}"], [f"1/{big + 1}"]]}), encoding="utf-8")
    message = "column 0 sums to a fraction of 14282 bits over 28562 bits"
    assert run(["validate", str(path)]) == 1
    assert json.loads(capsys.readouterr().out) == {"valid": False, "error": f"validation failed: {message}"}
    assert run(["classify", str(path)]) == 2
    assert json.loads(capsys.readouterr().err) == {"error": f"validation failed: {message}"}
    assert kernel_refusal(Kind.STOCH, FinObject(("u",)), FinObject(("x", "y")),
                          [[F(1, big)], [F(1, big + 1)]]) == Violation(0, message)


def test_cli_help_and_unknown_command(capsys):
    assert run(["--help"]) == 0
    capsys.readouterr()
    assert run(["no-such-command"]) == 2
    capsys.readouterr()


def test_cli_parser_built_once_prints_like_a_fresh_one(tmp_path):
    # run keeps one parser per process; a usage error, a valid call and the
    # usage error again each print what a freshly built parser prints, on
    # the streams that are current at the call
    import contextlib
    import io

    from finmarkov import cli

    path = _write(tmp_path, "e.json", static_idempotent())
    calls = [["classify"], ["classify", path], ["classify"]]

    def call(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        return code, out.getvalue(), err.getvalue()

    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(call(argv))
    cli._parser.cache_clear()
    assert [call(argv) for argv in calls] == fresh
    assert cli._parser.cache_info().misses == 1
    code, out, err = fresh[0]
    assert (code, out) == (2, "") and err.startswith("usage: finmarkov classify")
    assert fresh[1][0] == 0 and json.loads(fresh[1][1])["static"]


def test_plain_calls_build_no_parser(tmp_path, capsys):
    # a well-formed argv is read from the command table; only help and usage
    # errors need the argparse parser
    from finmarkov import UNIT, cli, fin_object, make_kernel, tensor_object

    e = _write(tmp_path, "e.json", static_idempotent())
    x = fin_object(("0", "1"))
    joint = make_kernel(Kind.STOCH, UNIT, tensor_object(x, x), [[F(1, 2)], [0], [0], [F(1, 2)]])
    joint = _write(tmp_path, "j.json", joint)
    calls = [
        ["validate", e], ["--format", "pretty", "classify", e], ["--max-size", "3", "split", e], ["support", e],
        ["split-support", e], ["upsilon", e], ["abscont", e, e], ["ase", e, "--w-size", "1", e, e],
        ["conditional", "--split", "2", joint], ["envelope-check", e, "--flavor", "karoubi"],
        ["cauchy-schwarz", e, e, e], ["--max-size", "2", "--format", "json", "verify-paper"],
    ]
    assert {next(t for t in argv if t in cli._COMMANDS) for argv in calls} == set(cli._COMMANDS)
    cli._parser.cache_clear()
    for argv in calls:
        assert run(argv) in (0, 1)
        assert capsys.readouterr().err == ""
    assert cli._parser.cache_info().misses == 0
    for argv in (["--help"], ["classify"]):
        cli._parser.cache_clear()
        run(argv)
        assert cli._parser.cache_info().misses == 1
    capsys.readouterr()


# every command and option name, abbreviations, inline values, the option
# terminator, stdin, help, and values that are empty, spaced, signed,
# underscored, non-ASCII digits or choices
ARGV_WORDS = (
    "validate", "classify", "split", "support", "split-support", "upsilon", "abscont", "ase",
    "conditional", "envelope-check", "cauchy-schwarz", "verify-paper", "no-such-command",
    "--format", "--max-size", "--w-size", "--split", "--flavor", "--form", "--w", "--split=2", "--max-size=1",
    "--", "-", "-h", "--help", "", "x y", "-1", "+2", "2_0", "\uff11", "0", "3", "k.json",
    "json", "pretty", "karoubi", "blackwell",
)
COMMANDS = ARGV_WORDS[:12]
ARITY = {"abscont": 2, "ase": 3, "cauchy-schwarz": 3, "verify-paper": 0}  # the others take one kernel
OWN_OPTION = {"ase": "--w-size", "conditional": "--split", "envelope-check": "--flavor"}
NUMBERS = ("0", "3", "+2", "2_0", "\uff11")
VALUES = {"--format": ("json", "pretty"), "--flavor": ("karoubi", "blackwell"),
          "--max-size": NUMBERS, "--w-size": NUMBERS, "--split": NUMBERS}


@st.composite
def argvs(draw):
    words = st.sampled_from(ARGV_WORDS)
    if draw(st.integers(0, 3)) == 0:
        return draw(st.lists(words, max_size=8))

    # the plain form, with positionals and options in any order, then perhaps
    # one word inserted, replaced or dropped
    def option(flag):
        return [flag, draw(st.sampled_from(VALUES[flag]) | words)]

    command = draw(st.sampled_from(COMMANDS))
    flags = draw(st.lists(st.sampled_from(("--format", "--max-size")), max_size=2))
    head = [t for flag in flags for t in option(flag)]
    tail = [[draw(st.sampled_from(("k.json", "-")) | words)] for _ in range(ARITY.get(command, 1))]
    if command in OWN_OPTION and draw(st.booleans()):
        tail.append(option(OWN_OPTION[command]))
    argv = head + [command] + [t for item in draw(st.permutations(tail)) for t in item]
    i, edit = draw(st.integers(0, len(argv))), draw(st.sampled_from(("keep", "keep", "insert", "replace", "drop")))
    if edit == "insert":
        argv.insert(i, draw(words))
    elif edit != "keep" and i < len(argv):
        argv[i:i + 1] = [draw(words)] if edit == "replace" else []
    return argv


@settings(max_examples=600, deadline=None)
@given(argvs())
def test_table_reader_agrees_with_argparse(argv):
    from finmarkov import cli

    read = cli._plain_args(argv)
    if read is not None:
        assert vars(read) == vars(cli._parser().parse_args(argv))


# labels with commas, parentheses, backslashes, "•", the empty string,
# non-ASCII and pairs; entries in range, out of range and malformed
ADVERSARIAL = st.text(alphabet=",()\\•éa", max_size=3) | st.sampled_from(["(p,q)", "((p,q),r)", "(p", "\\", "ü"])
ENTRIES = st.sampled_from([0, 1, 2, "1/2", "-1/2", "3/2", "0", "x", None, 0.5])
LABEL_LISTS = st.lists(ADVERSARIAL, max_size=3, unique=True)


@st.composite
def adversarial_documents(draw):
    """Three kernel documents of one kind on one frame, most of them
    well-formed: endomorphisms, joints on a tensor codomain the library
    wrote, or any codomain; and the codomain's left factor size, or 1."""
    kind = draw(st.sampled_from(("stoch", "stoch", "stoch", "signed", "multi", "multi", "nonsense")))
    dom, left = draw(LABEL_LISTS), 1
    shape = draw(st.sampled_from(("endo", "endo", "tensor", "any")))
    if shape == "endo":
        cod = dom
    elif shape == "tensor":
        factors = [fin_object(draw(LABEL_LISTS.filter(bool))) for _ in range(2)]
        cod, left = list(tensor_object(*factors).labels), factors[0].size
    else:
        cod = draw(LABEL_LISTS)
    if dom and draw(st.integers(0, 9)) == 0:
        dom = dom + dom[:1]
    docs = []
    for _ in range(3):
        doc = {"kind": kind, "dom": dom, "cod": cod}
        if kind == "multi":
            doc["images"] = [draw(st.lists(st.sampled_from(cod), min_size=1, max_size=2)) if cod else [] for _ in dom]
            docs.append(doc)
            continue
        matrix = [[0] * len(dom) for _ in cod]
        for j in range(len(dom) if cod else 0):
            style = draw(st.sampled_from(("point", "point", "halves", "any")))
            if style == "any":
                for row in matrix:
                    row[j] = draw(ENTRIES)
                continue
            rows = draw(st.lists(st.integers(0, len(cod) - 1), min_size=1, max_size=1 if style == "point" else 2))
            for i in rows:
                matrix[i][j] = 1 if len(set(rows)) == 1 else "1/2"
        doc["matrix"] = matrix
        docs.append(doc)
    return docs, left


@settings(max_examples=120, deadline=None)
@given(adversarial_documents(), st.data())
def test_every_command_on_adversarial_documents_exits_0_1_or_2(docs_and_left, data):
    docs, left = docs_and_left
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, doc in enumerate(docs):
            paths.append(str(pathlib.Path(tmp) / f"k{i}.json"))
            pathlib.Path(paths[-1]).write_text(json.dumps(doc), encoding="utf-8")
        for command, (_, _, positionals, options) in cli._COMMANDS.items():
            if command == "verify-paper":
                continue
            argv = ["--format", data.draw(st.sampled_from(("json", "pretty"))),
                    "--max-size", str(data.draw(st.integers(0, 3))), command, *paths[:len(positionals)]]
            for flag, _, convert, *_ in options:
                choices = convert if isinstance(convert, tuple) else [str(left)] * 3 + ["-1", "0", "2", "3"]
                argv += [flag, data.draw(st.sampled_from(choices))]
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                assert run(argv) in (0, 1, 2), argv
