"""Acceptance suite: one test per criterion, each printing a verdict line.

The heavyweight verification runs are shared through module-scoped
fixtures; every tolerance is pinned here, nothing is deferred.
"""

import json
import random
import time

import pytest

import models
from oracles import all_exprs, naive_embed, random_expr
from scpv.cli import main as cli_main
from scpv.corpus import int_entry_args, self_interpreter
from scpv.encoding import encode_expr, encode_program, decode_program
from scpv.engine import Limits, verify_protocol
from scpv.interp import UNDEFINED, eval_call
from scpv.lang import Paren, Sym, Var, parse_expr
from scpv.relations import embed, turchin


def _report(criterion, ok, detail=""):
    print(f"\n[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def syn():
    return models.load("synapse.l")


@pytest.fixture(scope="module")
def model_file():
    return models.path("synapse.l")


@pytest.fixture(scope="module")
def mutant_file():
    return models.path("synapse_unsafe_mutant.l")


@pytest.fixture(scope="module")
def indirect_report(syn):
    return verify_protocol(
        syn,
        mode="indirect",
        passes=2,
        limits=Limits(time_budget_s=300),
        instrument=True,
        model_name="Synapse",
    )


def _random_stream(rnd, maxlen=8, junk=True):
    evs = ["rm", "wh2", "wm"] + (["zz"] if junk else [])
    t = " ".join(rnd.choice(evs) for _ in range(rnd.randint(0, maxlen)))
    k = " ".join("I" for _ in range(rnd.randint(0, 4)))
    return parse_expr(f"({t}) ({k})")


def test_criterion_1_direct(model_file, tmp_path, capsys):
    out = tmp_path / "res.l"
    t0 = time.monotonic()
    rc = cli_main(
        ["verify", model_file, "--mode", "direct", "--passes", "1",
         "--time-budget-s", "60", "--residual", str(out)]
    )
    took = time.monotonic() - t0
    rep = json.loads(capsys.readouterr().out)
    residual_text = out.read_text()
    ok = rc == 0 and rep["safe"] and took < 60 and "False" not in residual_text
    _report(1, ok, f"direct safe in {took:.2f}s, residual free of False")


def test_criterion_2_indirect(model_file, syn, tmp_path, capsys):
    t0 = time.monotonic()
    out = tmp_path / "res2.l"
    rc = cli_main(
        ["verify", model_file, "--mode", "indirect", "--passes", "2",
         "--model-name", "Synapse", "--time-budget-s", "300",
         "--residual", str(out)]
    )
    took = time.monotonic() - t0
    rep = json.loads(capsys.readouterr().out)
    assert rc == 0 and rep["safe"] and took < 300
    assert rep["passes_used"] <= 2
    from scpv.lang import parse_program

    residual = parse_program(out.read_text())
    nfuncs = len(residual.defs)
    rnd = random.Random(2026)
    mismatches = 0
    for _ in range(200):
        d = _random_stream(rnd, maxlen=8)
        a = eval_call(syn, "Main", [d])
        b = eval_call(residual, "IntRes", [encode_expr(d)])
        if a is UNDEFINED:
            mismatches += b is not UNDEFINED
        else:
            mismatches += b != encode_expr(a)
    ok = mismatches == 0 and 4 <= nfuncs <= 12
    _report(
        2,
        ok,
        f"indirect safe in {took:.2f}s, passes={rep['passes_used']}, "
        f"functions={nfuncs}, equivalence 200/200",
    )


def test_criterion_3_interpreter_fidelity(syn):
    interp = self_interpreter({"Synapse": syn})
    rnd = random.Random(313)
    bad = 0
    undefined = 0
    for i in range(500):
        if i % 4 == 3:
            from oracles import random_ground

            d = random_ground(rnd, rnd.randint(0, 5))  # malformed shapes
        else:
            d = _random_stream(rnd, maxlen=6, junk=bool(i % 2))
        direct = eval_call(syn, "Main", [d])
        via = eval_call(interp, "Int", int_entry_args("Synapse", "Main", encode_expr(d)))
        if direct is UNDEFINED:
            undefined += 1
            bad += via is not UNDEFINED
        else:
            bad += via != encode_expr(direct)
    _report(3, bad == 0 and undefined > 50, f"500 inputs exact, {undefined} undefined")


def test_criterion_4_embedding_oracle():
    by_size = {n: list(all_exprs(n)) for n in range(8)}
    pairs = 0
    for i in range(8):
        for j in range(8 - i):
            for a in by_size[i]:
                for b in by_size[j]:
                    if embed(a, b) != naive_embed(a, b):
                        _report(4, False, f"exhaustive mismatch {a} vs {b}")
                    pairs += 1
    rnd = random.Random(4)
    for _ in range(10_000):
        a = random_expr(rnd, rnd.randint(0, 20), evars=2, svars=2)
        b = random_expr(rnd, rnd.randint(0, 20), evars=2, svars=2)
        if embed(a, b) != naive_embed(a, b):
            _report(4, False, f"random mismatch {a} vs {b}")
    t = parse_expr("'a' ('b' 'c')")
    fixed = (
        embed(t, (Paren(t),))
        and embed((Var("e", "x"),), (Var("e", "y"),))
        and not embed((Paren(()),), (Paren((Sym("a", char=True),)),))
    )
    _report(4, fixed, f"exhaustive {pairs} pairs + 10000 random + fixed facts")


def test_criterion_5_turchin_regression():
    from test_relations import _a3_path

    c2, c3, c7 = _a3_path()
    w23 = turchin(c2, c3)
    w37 = turchin(c3, c7)
    ok = (
        w23 is not None
        and [(e.fname, e.time) for e in w23.context_i] == [("Fb", 2), ("C", 1)]
        and [(e.fname, e.time) for e in w23.prefix_i] == [("Fab", 3)]
        and [(e.fname, e.time) for e in w23.prefix_j] == [("Fab", 5)]
        and w37 is not None
        and [(e.fname, e.time) for e in w37.context_i] == [("C", 1)]
        and [(e.fname, e.time) for e in w37.prefix_i]
        == [("Fab", 5), ("Fc", 4), ("Fb", 2)]
        and [(e.fname, e.time) for e in w37.prefix_j]
        == [("Fab", 10), ("Fc", 9), ("Fb", 7)]
        and turchin(c2, c7) is None
    )
    _report(5, ok, "[2]<[3] and [3]<[7] with printed witnesses, [2]<[7] absent")


def test_criterion_6_proposition_instrumentation(indirect_report):
    rep = indirect_report
    fg = rep["first_generalization"]
    ok = (
        rep["safe"]
        and rep["violations"] == []
        and fg is not None
        and fg["match_nil_headed"]
    )
    _report(
        6,
        ok,
        f"zero violations, first generalization Match-[]-headed: {fg and fg['match_nil_headed']}",
    )


def test_criterion_7_negative_control(mutant_file, capsys):
    mut = models.load("synapse_unsafe_mutant.l")
    # the evaluator independently exhibits a ground stream reaching False
    witness = parse_expr("(rm wm) (I)")
    assert eval_call(mut, "Main", [witness]) == (Sym("False"),)
    rc = cli_main(["verify", mutant_file, "--mode", "direct", "--residual", "/tmp/mut_res.l"])
    rep = json.loads(capsys.readouterr().out)
    assert rc == 3 and rep["safe"] is False
    # residual equivalence confirms False stays reachable
    from scpv.lang import parse_program

    residual = parse_program(open("/tmp/mut_res.l").read())
    entry = next(iter(residual.defs))
    rnd = random.Random(7)
    false_seen = 0
    bad = 0
    for _ in range(200):
        d = _random_stream(rnd, maxlen=6)
        a = eval_call(mut, "Main", [d])
        b = eval_call(residual, entry, [d])
        if a is UNDEFINED:
            bad += b is not UNDEFINED
        else:
            bad += a != b
            false_seen += a == (Sym("False"),)
    assert eval_call(residual, entry, [witness]) == (Sym("False"),)
    _report(7, bad == 0, f"mutant unsafe, exit 3, residual reaches False ({false_seen} sampled)")


def test_criterion_8_transform_soundness(syn, indirect_report):
    # the engine verifies every msg and fold equation inline and raises on
    # any failure; the run summaries report how many were checked
    totals = {"msg": 0, "fold": 0}
    rep_d = verify_protocol(syn, mode="direct", passes=1, limits=Limits(time_budget_s=60))
    for p in rep_d["passes"] + indirect_report["passes"]:
        totals["msg"] += p["msg_checked"]
        totals["fold"] += p["fold_checked"]
    ok = rep_d["safe"] and totals["msg"] > 0 and totals["fold"] > 0
    _report(8, ok, f"equations checked inline: msg={totals['msg']}, folds={totals['fold']}")


def test_criterion_9_encoding(syn):
    ok = decode_program(encode_program(syn)) == syn
    for name in ("synapse.spec", "msi.spec", "mesi.spec"):
        model = models.load(name)
        ok = ok and decode_program(encode_program(model)) == model
    from oracles import random_program

    rnd = random.Random(17)
    encs = set()
    progs = []
    for _ in range(1000):
        p = random_program(rnd)
        if p in progs:
            continue
        progs.append(p)
        encs.add(encode_program(p))
    ok = ok and len(encs) == len(progs)
    _report(9, ok, f"roundtrips + injectivity on {len(progs)} distinct programs")
