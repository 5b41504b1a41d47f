import json

import pytest

from scpv.cli import main
from scpv.corpus import SYNAPSE_SRC, SYNAPSE_UNSAFE_SRC
from scpv.lang import parse_program


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    p = tmp_path_factory.mktemp("models") / "synapse.l"
    p.write_text(SYNAPSE_SRC)
    return str(p)


@pytest.fixture(scope="module")
def bad_model_file(tmp_path_factory):
    p = tmp_path_factory.mktemp("models") / "bad.l"
    p.write_text("Main { e.x => Foo(e.x); }\n")
    return str(p)


@pytest.fixture(scope="module")
def mutant_file(tmp_path_factory):
    p = tmp_path_factory.mktemp("models") / "synapse_unsafe_mutant.l"
    p.write_text(SYNAPSE_UNSAFE_SRC)
    return str(p)


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


def test_verify_spec_file(tmp_path, capsys):
    from scpv.corpus import SYNAPSE_SPEC_SRC

    p = tmp_path / "synapse.spec"
    p.write_text(SYNAPSE_SPEC_SRC)
    rc = main(["verify", str(p), "--mode", "direct"])
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
