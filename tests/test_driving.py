import copy
import pickle
import random
from dataclasses import FrozenInstanceError

import pytest

import models
from oracles import (
    config_to_expr,
    eval_ground_expr,
    is_transitive,
    match_ground,
    narrow_match,
    random_ground,
)
from scpv.config import Clock, Configuration, ParamGen, TimedApp, subst_seq
from scpv.corpus import self_interpreter
from scpv.driving import Branch, StepResult, drive
from scpv.encoding import encode_expr
from scpv.interp import UNDEFINED, eval_call
from scpv.lang import BULLET, Paren, Param, Sym, Var, parse_expr


@pytest.fixture(scope="module")
def syn():
    return models.load("synapse.l")


@pytest.fixture(scope="module")
def interp(syn):
    return self_interpreter({"Synapse": syn})


def _call_config(fname, args):
    return Configuration((TimedApp(fname, tuple(args), 0),), (BULLET,))


def test_ground_call_transitive(syn):
    cfg = _call_config("Main", [parse_expr("(rm) (I)")])
    assert is_transitive(cfg, syn)


def test_subst_lookup_transitive(interp):
    env = parse_expr("((Var 'e' time) : 'x') ((Var 'e' is) : 'y')")
    var = parse_expr("(Var 'e' is)")
    cfg = _call_config("Subst", [env, var])
    assert is_transitive(cfg, interp)


def test_match_unknown_data_not_transitive(interp):
    pgen = ParamGen()
    p = pgen.fresh("e")
    cfg = _call_config("Match", [encode_expr(parse_expr("('q')")), (p,), parse_expr("([])")])
    assert not is_transitive(cfg, interp)
    res = drive(cfg, interp, Clock(), ParamGen(50))
    assert len(res.branches) >= 2


def test_tick_nil_match_branches(interp):
    # a Match of the empty pattern against unknown data: the success case
    # narrows to empty, the symbol-headed case falls through to the final
    # Match rule returning F, and the paren-headed case does the same
    pgen = ParamGen(100)
    p = pgen.fresh("e")
    cfg = Configuration(
        (
            TimedApp("Match", ((), (p,), parse_expr("([])")), 7),
            TimedApp(
                "Matching",
                ((BULLET,), parse_expr("True"), (), (p,)),
                6,
            ),
        ),
        (BULLET,),
    )
    res = drive(cfg, interp, Clock(10), pgen)
    assert res.kind == "branches"
    thetas = [b.contraction.get(p) for b in res.branches]
    assert thetas[0] == ()  # success path
    assert len(res.branches) == 3
    # the fall-through cases split the parameter by its head shape
    assert any(
        v and isinstance(v[0], Param) and v[0].kind == "s" for v in thetas[1:]
    )
    assert any(v and isinstance(v[0], Paren) for v in thetas[1:])
    # both fall-through successors run the final Match rule producing F
    for b in res.branches[1:]:
        top = b.successor.stack[0]
        assert top.fname == "Matching"
        assert top.args[0] == (Sym("F"),)


def test_drive_matches_evaluator_on_ground(syn):
    rnd = random.Random(41)
    checked = 0
    for _ in range(500):
        t = " ".join(rnd.choice(["rm", "wh2", "wm"]) for _ in range(rnd.randint(0, 4)))
        k = " ".join("I" for _ in range(rnd.randint(0, 3)))
        d = parse_expr(f"({t}) ({k})")
        fn = rnd.choice(["Main", "Test", "Loop"])
        if fn == "Test":
            d = parse_expr(f"(Invalid {k}) (Dirty) (Valid {k})")
        if fn == "Loop":
            d = parse_expr(f"({t}) (Invalid I {k}) (Dirty) (Valid)")
        cfg = _call_config(fn, [d])
        res = drive(cfg, syn, Clock(), ParamGen())
        assert res.kind == "branches" and len(res.branches) == 1
        b = res.branches[0]
        direct = eval_call(syn, fn, [d])
        if b.tag == "stuck":
            assert direct is UNDEFINED
            continue
        assert not b.deferred or True
        succ_expr = config_to_expr(b.successor)
        for p, cont in b.deferred:
            succ_expr = subst_seq(succ_expr, {p: config_to_expr(cont)})
        out = eval_ground_expr(syn, succ_expr)
        assert out == direct or (out is UNDEFINED and direct is UNDEFINED)
        checked += 1
    assert checked > 300


def test_narrow_match_svar_head():
    pgen = ParamGen(100)
    x = pgen.fresh("e")
    succ, fail = narrow_match(parse_expr("s.n : e.p"), (x,), pgen)
    assert len(succ) == 1
    theta, env = succ[0]
    v = theta[x]
    assert isinstance(v[0], Param) and v[0].kind == "s"
    assert env[Var("s", "n")] == (v[0],)
    assert env[Var("e", "p")] == (v[1],)
    # the leftover cases: empty data and paren-headed data
    assert {(): True}.keys() and len(fail) == 2
    assert fail[0][x] == ()
    assert isinstance(fail[1][x][0], Paren)


def test_narrow_match_ground_success():
    pgen = ParamGen(100)
    succ, fail = narrow_match(parse_expr("'a' : []"), parse_expr("'a'"), pgen)
    assert succ == [({}, {})]
    assert fail == []


def test_narrow_match_kind_disjointness():
    pgen = ParamGen(100)
    h = pgen.fresh("s")
    x = pgen.fresh("e")
    succ, fail = narrow_match(parse_expr("(e.q) : e.p"), (h, x), pgen)
    assert succ == []
    assert fail == [{}]


def test_narrowing_covers_ground_instances(interp):
    # soundness and completeness of the ordered case analysis, by sampling:
    # every ground instance follows the first covering case to the same
    # outcome as direct ground matching
    rnd = random.Random(43)
    pgen = ParamGen(1000)
    pats = [
        parse_expr("s.n : e.p"),
        parse_expr("(e.q) : e.p"),
        parse_expr("'a' 'b' : e.p"),
        parse_expr("(Var 's' s.n) : e.p"),
        parse_expr("[]"),
        parse_expr("s.a : s.b : e.p"),
    ]
    for pat in pats:
        x = pgen.fresh("e")
        succ, fail = narrow_match(pat, (x,), pgen)
        cases = [(t, True) for t, _ in succ] + [(t, False) for t in fail]
        # order cases as produced: first-match semantics
        for _ in range(50):
            g = random_ground(rnd, rnd.randint(0, 4))
            truth = match_ground(pat, g) is not None
            for theta, is_match in cases:
                image = theta.get(x)
                if image is None:
                    covered = True  # unconstrained case
                else:
                    covered = _instance_of(g, image)
                if covered:
                    assert is_match == truth, (pat, g, theta)
                    break
            else:
                pytest.fail(f"ground instance not covered: {pat} vs {g}")


def _instance_of(ground, shape):
    """Does the ground sequence match the narrowed shape?"""
    i = 0
    for j, it in enumerate(shape):
        if isinstance(it, Param):
            if it.kind == "s":
                if i >= len(ground) or not isinstance(ground[i], Sym):
                    return False
                i += 1
            else:
                # tail e-parameter swallows the rest
                assert j == len(shape) - 1
                return True
        elif isinstance(it, Paren):
            if i >= len(ground) or not isinstance(ground[i], Paren):
                return False
            if not _instance_of(ground[i].items, it.items):
                return False
            i += 1
        else:
            if i >= len(ground) or ground[i] != it:
                return False
            i += 1
    return i == len(ground)


def test_passive_steps(syn):
    cfg = Configuration((), parse_expr("'a' ('b')"))
    res = drive(cfg, syn, Clock(), ParamGen())
    assert res.kind == "passive" and res.value == parse_expr("'a' ('b')")


def _step_records():
    succ = _call_config("Main", [parse_expr("(rm) (I)")])
    branch = Branch({Param("e", 1): parse_expr("'a'")}, succ, "fired")
    return branch, StepResult("branches", branches=(branch,))


def test_step_records_are_frozen():
    for r in _step_records():
        for name in type(r).__slots__:
            with pytest.raises(FrozenInstanceError):
                setattr(r, name, None)
            with pytest.raises(FrozenInstanceError):
                delattr(r, name)


def test_step_records_compare_copy_and_print_as_before():
    for r, twin in zip(_step_records(), _step_records()):
        assert r is not twin and r == twin
        for c in (copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
            assert type(c) is type(r) and c == r
    branch, step = _step_records()
    assert branch != Branch(branch.contraction, branch.successor, "stuck")
    assert repr(Branch({}, None, "stuck")) == (
        "Branch(contraction={}, successor=None, tag='stuck', deferred=())"
    )
    assert repr(StepResult("passive", value=parse_expr("'a'"))) == (
        "StepResult(kind='passive', branches=(), value=('a',))"
    )
    assert repr(step) == f"StepResult(kind='branches', branches=({branch!r},), value=())"
