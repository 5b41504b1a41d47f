"""Budgets: refused when negative or NaN, reached as clean exits, and a
residual read off a path of any depth with one substitution per child;
random programs end in a verdict, an error or a budget exit, never a
traceback."""

import contextlib
import io
import json
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import models
from oracles import random_program
from scpv import config, transform
from scpv.cli import main
from scpv.config import Configuration, TimedApp
from scpv.engine import ProcessGraph
from scpv.lang import BULLET, Param, Sym, print_program
from scpv.transform import build_residual


@pytest.mark.parametrize("argv", [
    ["verify", models.path("synapse.l"), "--max-nodes", "-5"],
    ["verify", models.path("synapse.l"), "--max-depth", "-1"],
    ["verify", models.path("synapse.l"), "--time-budget-s", "-1"],
    ["supercompile", models.path("synapse.l"), "--max-nodes", "-1"],
    ["run", models.path("synapse.l"), "Main", "(rm) (I)", "--fuel", "-1"],
])
def test_negative_budgets_are_usage_errors(argv, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    flag = argv[-2]
    assert captured.out == ""
    assert f"error: argument {flag}: a budget cannot be negative: {argv[-1]}" in captured.err


@pytest.mark.parametrize("text", ["nan", "NaN", "+nan"])
def test_a_nan_time_budget_is_a_usage_error(text, capsys):
    # a NaN budget compares false with every elapsed time, so it would
    # never run out
    assert main(["verify", models.path("synapse.l"), "--time-budget-s", text]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: argument --time-budget-s: a budget must be a number: {text}" in captured.err


def test_an_infinite_time_budget_is_accepted(capsys):
    assert main(["verify", models.path("synapse.l"), "--time-budget-s", "inf"]) == 0
    assert json.loads(capsys.readouterr().out)["safe"] is True


def test_a_zero_budget_is_a_budget_exit(capsys):
    assert main(["verify", models.path("synapse.l"), "--max-nodes", "0"]) == 4
    assert capsys.readouterr().err == "budget exceeded: node budget exceeded\n"


def test_verify_reaches_the_depth_budget(tmp_path, capsys):
    tr = tmp_path / "t.jsonl"
    argv = ["verify", models.path("synapse.l"), "--max-depth", "3", "--trace", str(tr)]
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "budget exceeded: depth budget exceeded\n"
    assert tr.read_text().splitlines()


def test_a_residual_path_deeper_than_the_recursion_limit():
    # drive nodes 0..n-1 in a chain: node i has a leaf for the instance
    # e.1 = Ai, then node i+1; the last node is a passive leaf. Every node
    # is inlined into one function, whose rules follow the leaves in order
    n = sys.getrecursionlimit() + 100
    e1 = Param("e", 1)
    graph = ProcessGraph()
    config = Configuration((TimedApp("F", ((e1,),), 0),), (BULLET,))
    chain = [graph.new_node(config) for _ in range(n)]
    for i, node in enumerate(chain):
        leaf = graph.new_node(Configuration((), ()), parent=node.id)
        leaf.kind, leaf.value = "passive", (Sym(f"B{i}"),)
        node.kind = "drive"
        node.children = [({e1: (Sym(f"A{i}"),)}, leaf.id)]
        if i + 1 < n:
            node.children.append(({}, chain[i + 1].id))
    last = graph.new_node(Configuration((), ()), parent=chain[-1].id)
    last.kind, last.value = "passive", (e1,)
    chain[-1].children.append(({}, last.id))
    (fn,) = build_residual(graph, chain[0].id, "FRes").defs.values()
    assert len(fn.rules) == n + 1
    for i, rule in enumerate(fn.rules[:-1]):
        assert rule.lhs == ((Sym(f"A{i}"),),) and rule.rhs == (Sym(f"B{i}"),)
    assert fn.rules[-1].lhs == (fn.rules[-1].rhs,) and len(fn.rules[-1].rhs) == 1


def test_a_residual_chain_substitutes_once_per_child(monkeypatch):
    # drive node k narrows e.k to [] beside a leaf Bk and to I e.(k+1)
    # beside node k+1. Flattening carries the root formal's image down and
    # substitutes each child's contraction into it once: about 2n
    # substitutions, where composing the path substitution at every node
    # made about n * n
    n = 1000
    graph = ProcessGraph()
    chain = []
    for k in range(n):
        node = graph.new_node(Configuration((TimedApp("F", ((Param("e", k),),), 0),), (BULLET,)))
        node.kind = "drive"
        chain.append(node)
    for k, node in enumerate(chain):
        leaf = graph.new_node(Configuration((), ()), parent=node.id)
        leaf.kind, leaf.value = "passive", (Sym(f"B{k}"),)
        node.children = [({Param("e", k): ()}, leaf.id)]
        if k + 1 < n:
            node.children.append(({Param("e", k): (Sym("I"), Param("e", k + 1))}, chain[k + 1].id))
    calls = []
    for module in (transform, config):
        real = module.subst_seq
        monkeypatch.setattr(module, "subst_seq",
                            lambda seq, theta, real=real: calls.append(1) or real(seq, theta))
    (fn,) = build_residual(graph, chain[0].id, "FRes").defs.values()
    assert len(calls) < 2 * n
    assert [r.lhs for r in fn.rules] == [((Sym("I"),) * k,) for k in range(n)]
    assert [r.rhs for r in fn.rules] == [(Sym(f"B{k}"),) for k in range(n)]


@pytest.fixture(scope="module")
def program_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("random")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 10**6), st.sampled_from(["direct", "indirect"]))
def test_random_programs_end_cleanly(program_dir, seed, mode):
    path = program_dir / f"p{seed}.l"
    path.write_text(print_program(random_program(random.Random(seed))))
    argv = ["verify", str(path), "--entry", "G0", "--mode", mode,
            "--max-nodes", "200", "--time-budget-s", "1"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 1, 3, 4), err.getvalue()
    assert "Traceback" not in err.getvalue()
