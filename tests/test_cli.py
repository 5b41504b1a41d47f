import json
import sys
import time

import pytest

import models
from scpv.cli import main
from scpv.lang import parse_program


@pytest.fixture(scope="module")
def model_file():
    return models.path("synapse.l")


@pytest.fixture(scope="module")
def bad_model_file(tmp_path_factory):
    p = tmp_path_factory.mktemp("models") / "bad.l"
    p.write_text("Main { e.x => Foo(e.x); }\n")
    return str(p)


@pytest.fixture(scope="module")
def mutant_file():
    return models.path("synapse_unsafe_mutant.l")


def test_run_value(model_file, capsys):
    rc = main(["run", model_file, "Test", "(Invalid) (Dirty) (Valid I)"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "True"


def test_run_false(model_file, capsys):
    rc = main(["run", model_file, "Test", "(Invalid) (Dirty I) (Valid I)"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "False"


def test_run_undefined(model_file, capsys):
    rc = main(["run", model_file, "Main", "'a'"])
    assert rc == 2


def test_run_missing_function(model_file, capsys):
    assert main(["run", model_file, "Nope", "[]"]) == 1


def test_run_rejects_extra_arguments(model_file, capsys):
    rc = main(["run", model_file, "Test", "(Invalid) (Dirty) (Valid I)", "junk", "more"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Test expects 1 arguments" in captured.err


def test_run_out_of_fuel_is_a_budget_exit(tmp_path, capsys):
    p = tmp_path / "loop.l"
    p.write_text("G { e.x => G(e.x); }\n")
    # the default fuel takes about a minute to run out
    t0 = time.perf_counter()
    assert main(["run", str(p), "G", "A", "--fuel", "1000"]) == 4
    assert time.perf_counter() - t0 < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "budget exceeded: fuel exhausted in G\n"


@pytest.mark.parametrize("depth", [250, 3000])
def test_run_on_deeply_nested_data_is_an_error(depth, tmp_path, capsys):
    # 3,000 levels overflow the parser; the printer is iterative, so 250
    # levels print on every Python version
    p = tmp_path / "id.l"
    p.write_text("Id { e.x => e.x; }\n")
    data = "(" * depth + "'a'" + ")" * depth
    rc = main(["run", str(p), "Id", data])
    captured = capsys.readouterr()
    if depth == 250:
        assert rc == 0
        assert captured.out == data + "\n"
        return
    assert rc == 1
    assert captured.out == ""
    limit = sys.getrecursionlimit()
    assert captured.err == f"error: nested deeper than Python's recursion limit ({limit})\n"


def test_run_rejects_open_data(model_file, capsys):
    assert main(["run", model_file, "Test", "(Invalid e.x) (Dirty) (Valid)"]) == 1
    assert capsys.readouterr().err == "error: run takes ground data: symbols and parens\n"


def test_unreadable_model_paths_are_usage_errors(tmp_path, capsys):
    bad = tmp_path / "bad.l"
    bad.write_bytes(b"Main { e.x => \xff; }\n")
    for path, said in [
        (tmp_path, "Is a directory"),
        (bad, "is not UTF-8 text"),
        (tmp_path / "missing.l", "No such file or directory"),
    ]:
        assert main(["verify", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and said in err and "Traceback" not in err


def test_encode_roundtrip(model_file, tmp_path, capsys):
    out = tmp_path / "synapse.enc"
    rc = main(["encode", model_file, "--check", "-o", str(out)])
    assert rc == 0
    text1 = out.read_text()
    rc = main(["encode", model_file, "--check"])
    assert capsys.readouterr().out.strip() == text1.strip()


def test_encode_check_passes(model_file, capsys):
    assert main(["encode", model_file, "--check"]) == 0
    out = capsys.readouterr()
    assert out.out.strip() and out.err == ""


def test_encode_check_reports_mismatch(model_file, monkeypatch, capsys):
    monkeypatch.setattr("scpv.cli.decode_program", lambda data: None)
    assert main(["encode", model_file, "--check"]) == 1
    out = capsys.readouterr()
    assert out.out == "" and "does not decode" in out.err


def test_supercompile_ground_entry(model_file, tmp_path, capsys):
    out = tmp_path / "res.l"
    rc = main(
        ["supercompile", model_file, "--entry", "Main((rm wm) (I))", "-o", str(out)]
    )
    assert rc == 0
    res = parse_program(out.read_text())
    # a ground entry residualizes to a constant function
    (entry,) = [d for d in res.defs.values() if d.name == "MainRes"]
    assert entry.rules[0].rhs == (parse_program("X { [] => True; }").rules("X")[0].rhs)


def test_supercompile_writes_trace(model_file, tmp_path):
    tr = tmp_path / "t.jsonl"
    rc = main(["supercompile", model_file, "--function", "Main", "--trace", str(tr)])
    assert rc == 0
    lines = tr.read_text().splitlines()
    assert lines and all(json.loads(l)["v"] == 1 for l in lines)


@pytest.mark.parametrize(
    "model, argv",
    [
        ("model_file", ["verify", "--entry", "Foo", "--mode", "indirect"]),
        ("model_file", ["verify", "--entry", "Foo", "--mode", "direct"]),
        ("model_file", ["supercompile", "--function", "Foo"]),
        ("model_file", ["supercompile", "--entry", "Foo(e.x)"]),
        ("model_file", ["supercompile", "--entry", "Main((rm) (I), (I))"]),
        ("model_file", ["supercompile", "--entry", "Main(e.x) Main(e.y)"]),
        ("bad_model_file", ["verify"]),
    ],
    ids=[
        "verify-indirect", "verify-direct", "function", "entry-name", "entry-arity",
        "entry-two-tasks", "model-call",
    ],
)
def test_entry_names_are_checked_against_the_model(model, argv, request, capsys):
    rc = main([argv[0], request.getfixturevalue(model)] + argv[1:])
    assert rc == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ") and "Traceback" not in out.err
    assert "error: error:" not in out.err


def test_indirect_spec4_ends_in_a_verdict(tmp_path, capsys):
    from test_engine import GEN4_SPEC

    spec = tmp_path / "gen4.spec"
    spec.write_text(GEN4_SPEC)
    rc = main(["verify", str(spec), "--mode", "indirect", "--passes", "2"])
    assert rc == 3
    out = capsys.readouterr()
    assert out.err == ""
    rep = json.loads(out.out)
    assert rep["safe"] is False and rep["witness"] is None
    assert [p["nodes"] for p in rep["passes"]] == [411, 752]


def test_supercompile_long_entry_ends_in_a_budget_exit(model_file, capsys):
    entry = "Main((" + "rm " * 1500 + "e.x) (" + "I " * 1500 + "e.y))"
    rc = main(["supercompile", model_file, "--entry", entry, "--max-nodes", "40"])
    assert rc == 4
    assert capsys.readouterr().err.startswith("budget exceeded")


def test_verify_direct_exit0(model_file, capsys):
    rc = main(["verify", model_file, "--mode", "direct", "--passes", "1"])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["safe"] is True


def test_verify_trace_level_counts_written_events(model_file, tmp_path, capsys):
    tr = tmp_path / "t.jsonl"
    rc = main(["verify", model_file, "--mode", "direct", "--trace", str(tr)])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["events"] == len(tr.read_text().splitlines()) > 0
    assert "warnings" in rep


def test_verify_unsafe_exit3(mutant_file, capsys):
    rc = main(["verify", mutant_file, "--mode", "direct"])
    assert rc == 3


def test_verify_budget_exit4(model_file, tmp_path, capsys):
    tr = tmp_path / "t.jsonl"
    rc = main(
        ["verify", model_file, "--mode", "direct", "--max-nodes", "5", "--trace", str(tr)]
    )
    assert rc == 4
    lines = tr.read_text().splitlines()
    assert lines and all(json.loads(line) for line in lines)


def test_verify_deep_nesting_is_a_budget_exit(tmp_path, capsys):
    # each drive wraps the argument in one more paren, and the walkers
    # recurse once per level
    model, tr = tmp_path / "deep.l", tmp_path / "t.jsonl"
    model.write_text("Main { e.x => G1(e.x); }\nG1 { e.r => 'a' (G1('a' I)); }\n")
    assert main(["verify", str(model), "--trace", str(tr)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    limit = sys.getrecursionlimit()
    assert captured.err == (
        "budget exceeded: nesting budget exceeded: "
        f"deeper than Python's recursion limit ({limit})\n"
    )
    lines = tr.read_text().splitlines()
    assert lines and all(json.loads(line) for line in lines)


def test_verify_indirect(model_file, tmp_path, capsys):
    res = tmp_path / "res.l"
    rc = main(
        [
            "verify", model_file,
            "--mode", "indirect",
            "--passes", "2",
            "--model-name", "Synapse",
            "--residual", str(res),
        ]
    )
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["safe"] is True and rep["passes_used"] <= 2
    assert parse_program(res.read_text()).defs


def test_verify_spec_file(capsys):
    rc = main(["verify", models.path("synapse.spec"), "--mode", "direct"])
    assert rc == 0


def test_verify_unsafe_two_passes_prints_the_witness(mutant_file, capsys):
    rc = main(["verify", mutant_file, "--passes", "2"])
    assert rc == 3
    rep = json.loads(capsys.readouterr().out)
    assert rep["safe"] is False and rep["passes_used"] == 1
    assert rep["witness"] == "(rm wm) (I)"
    assert rep["passes"][0]["nodes"] < 90


def test_verify_residual_after_a_witness_needs_a_completed_pass(tmp_path, capsys):
    from test_engine import GEN15_SPEC

    spec, res = tmp_path / "gen15.spec", tmp_path / "res.l"
    spec.write_text(GEN15_SPEC)
    rc = main(["verify", str(spec), "--residual", str(res), "--max-nodes", "1000"])
    assert rc == 3
    captured = capsys.readouterr()
    rep = json.loads(captured.out)
    assert rep["safe"] is False and rep["witness"] == "(upgrade rm) (I I)"
    assert "note: no residual written: the pass did not complete" in captured.err
    assert not res.exists()


# sha256 of the trace files that `verify --mode indirect --trace` wrote on
# synapse.l before one trace covered the whole run: with `--passes 1`, and
# with `--passes 2`, which then held pass 2's events alone
PASS_ONE_TRACE = "1d9fadee30d8c64422c3da7f8087c29f75a11f40c16f349b7ccd76e2b183e050"
PASS_TWO_TRACE = "8965b47d93e2e81f34d5725c7478f7af9b17af57d379d936e48bfb66e4d9badc"


def test_verify_trace_covers_every_pass(model_file, tmp_path, capsys):
    import hashlib

    def sha256(text):
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    one, two = tmp_path / "one.jsonl", tmp_path / "two.jsonl"
    args = ["verify", model_file, "--mode", "indirect", "--trace"]
    assert main(args + [str(one), "--passes", "1"]) == 3  # pass 1 keeps a spurious False
    assert main(args + [str(two), "--passes", "2"]) == 0
    first, whole = one.read_text(), two.read_text()
    assert sha256(first) == PASS_ONE_TRACE
    assert whole.startswith(first)
    marker, rest = whole[len(first):].split("\n", 1)
    assert json.loads(marker) == {"v": 1, "ev": "Pass", "pass": 2}
    assert sha256(rest) == PASS_TWO_TRACE


SPEC_HEAD = "protocol p\ncounter i init param\ncounter d init zero\n"
SPEC_EVENT = "event e\n  guard i >= 1\n  update d := d + 1\n"


@pytest.mark.parametrize("line, in_event", [
    ("counter x init", False),
    ("counter", False),
    ("event", False),
    ("guard i >=", True),
    ("guard i >= two", True),
    ("alt", False),
    ("update", True),
    ("unsafe d >=", False),
    ("protocol", False),
    ("guard q", True),
    ("update d := d d", True),
    # names the program lexer would not read back as one symbol
    ("event t-1", False),
    ("counter e.s init zero", False),
])
def test_malformed_spec_lines_are_errors(line, in_event, tmp_path, capsys):
    # the line after the event's, or before any event
    text = SPEC_HEAD + (SPEC_EVENT + line if in_event else line + "\n" + SPEC_EVENT)
    spec = tmp_path / "bad.spec"
    spec.write_text(text + "\nunsafe d >= 2\n")
    assert main(["verify", str(spec)]) == 1
    err = capsys.readouterr().err
    n = text.count("\n") + 1 if in_event else SPEC_HEAD.count("\n") + 1
    assert err == f"error: bad protocol spec line {n}: {line!r}\n"


def test_usage_errors_exit_1(model_file, capsys):
    for argv in (["verify", model_file, "--passes", "3"], ["verify"]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err
    assert main(["verify", "--help"]) == 0
    assert "usage: scpv verify" in capsys.readouterr().out


@pytest.mark.parametrize("extra, what", [
    ("counter d init zero\n", "counter"),
    (SPEC_EVENT, "event"),
])
def test_repeated_names_are_errors(extra, what, tmp_path, capsys):
    spec = tmp_path / "dup.spec"
    spec.write_text(SPEC_HEAD + SPEC_EVENT + extra + "unsafe d >= 2\n")
    assert main(["verify", str(spec)]) == 1
    assert capsys.readouterr().err == f"error: {what} names must be distinct\n"


def test_a_rule_direct_driving_cannot_narrow_is_an_error(tmp_path, capsys):
    p = tmp_path / "repeated.l"
    p.write_text("Main { (e.x) e.x => A; e.y => B; }\n")
    assert main(["verify", str(p)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: repeated e-variable e.x against open data, in a rule of Main;"
        " --mode indirect accepts the rule\n"
    )
    assert main(["verify", str(p), "--mode", "indirect"]) == 0
