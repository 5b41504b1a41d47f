import copy
import pickle
import random
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import models
from oracles import (
    E_PARAMS,
    S_PARAMS,
    config_to_expr,
    draw_env,
    draw_value,
    eval_ground_expr,
    is_transitive,
    match_ground,
    narrow_match,
    open_data,
    random_ground,
    ref_fire_successor,
)
from scpv.config import Clock, Configuration, ParamGen, TimedApp, check_config, subst_seq
from scpv.corpus import self_interpreter
from scpv.driving import Branch, _fire_successor, drive, rule_table
from scpv.encoding import encode_expr
from scpv.interp import UNDEFINED, eval_call
from scpv.lang import BULLET, Paren, Param, Sym, Var, parse_expr, vars_of


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
    assert len(drive(cfg, interp, Clock(), ParamGen(50))) >= 2


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
    branches = drive(cfg, interp, Clock(10), pgen)
    thetas = [b.contraction.get(p) for b in branches]
    assert thetas[0] == ()  # success path
    assert len(branches) == 3
    # the fall-through cases split the parameter by its head shape
    assert any(
        v and isinstance(v[0], Param) and v[0].kind == "s" for v in thetas[1:]
    )
    assert any(v and isinstance(v[0], Paren) for v in thetas[1:])
    # both fall-through successors run the final Match rule producing F
    for b in branches[1:]:
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
        (b,) = drive(cfg, syn, Clock(), ParamGen())
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


ALL_RULES = models.shipped_rules()
LET_SPLITS = [r for r in ALL_RULES if rule_table(r[0], r[1])[r[2]].ctx_call]


def test_shipped_rules_hold_let_splits_and_tail_calls():
    rows = [rule_table(prog, fname)[i] for prog, fname, i in ALL_RULES]
    assert LET_SPLITS and any(r.tail_call for r in rows)


def _holed(draw):
    """A passive sequence with one bullet, at the top or in a paren."""
    hole = (BULLET,)
    if draw(st.booleans()):
        hole = (Paren(draw(open_data) + hole + draw(open_data)),)
    return draw(open_data) + hole + draw(open_data)


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.sampled_from(LET_SPLITS), st.sampled_from(ALL_RULES)), st.data())
def test_fire_successor_agrees_with_reference(case, data):
    # a fired rule over random bindings, stacks and tails: the successor,
    # its deferred parts, the clock and the parameter supply are as when
    # every argument was rebuilt and the bottom of the stack decomposed
    prog, fname, i = case
    row = rule_table(prog, fname)[i]
    draw = data.draw
    rhs = prog.rules(fname)[i].rhs
    env = draw_env(draw, vars_of(rhs), open_data)
    below = tuple(
        TimedApp("F", (draw(open_data),) * draw(st.integers(0, 1)) + (_holed(draw),), t)
        for t in range(2, 2 + draw(st.integers(0, 2)))
    )
    top = TimedApp(fname, tuple(draw(open_data) for _ in range(prog.arity(fname))), 1)
    config = Configuration((top,) + below, _holed(draw))
    check_config(config)
    theta = {}
    if draw(st.booleans()):
        theta = {p: draw_value(draw, p, open_data) for p in S_PARAMS + E_PARAMS
                 if draw(st.booleans())}
    now, num = draw(st.integers(10, 40)), draw(st.integers(100, 140))
    clock, pgen, ref_clock, ref_pgen = Clock(now), ParamGen(num), Clock(now), ParamGen(num)
    got = _fire_successor(config, theta, row, env, clock, pgen)
    assert got == ref_fire_successor(config, theta, rhs, env, ref_clock, ref_pgen)
    assert (clock.now, pgen.next_num) == (ref_clock.now, ref_pgen.next_num)
    if row.tail_call and below and not theta:
        assert got[0].stack[len(row.chain)] is below[0]


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(ALL_RULES), st.data())
def test_a_lone_fired_branch_narrows_nothing(case, data):
    # every narrowing gives at least two branches, so a drive with one
    # branch, neither stuck nor a task split, has an empty contraction and
    # takes no fresh parameter: the transitive skip and its replay rely on it
    prog, fname, _ = case
    draw = data.draw
    below = tuple(
        TimedApp("F", (draw(open_data),) * draw(st.integers(0, 1)) + (_holed(draw),), t)
        for t in range(2, 2 + draw(st.integers(0, 2)))
    )
    top = TimedApp(fname, tuple(draw(open_data) for _ in range(prog.arity(fname))), 1)
    config = Configuration((top,) + below, _holed(draw))
    num = draw(st.integers(100, 140))
    pgen = ParamGen(num)
    branches = drive(config, prog, Clock(draw(st.integers(10, 40))), pgen)
    if len(branches) == 1 and branches[0].tag != "stuck" and not branches[0].deferred:
        assert branches[0].contraction == {}
        assert pgen.next_num == num


def test_tail_call_keeps_the_entry_below(syn):
    # Main's right-hand side is a call of Loop: its result is Main's
    below = TimedApp("Append", ((Paren((BULLET,)),), parse_expr("('a')")), 0)
    cfg = Configuration((TimedApp("Main", (parse_expr("(rm) (I)"),), 1), below), (BULLET,))
    (branch,) = drive(cfg, syn, Clock(5), ParamGen())
    assert [e.fname for e in branch.successor.stack] == ["Loop", "Append"]
    assert branch.successor.stack[1] is below


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
    assert drive(cfg, syn, Clock(), ParamGen()) == ()


def _branch():
    succ = _call_config("Main", [parse_expr("(rm) (I)")])
    return Branch({Param("e", 1): parse_expr("'a'")}, succ, "fired")


def test_step_records_are_frozen():
    r = _branch()
    for name in type(r).__slots__:
        with pytest.raises(FrozenInstanceError):
            setattr(r, name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(r, name)


def test_step_records_compare_copy_and_print_as_before():
    r, twin = _branch(), _branch()
    assert r is not twin and r == twin
    for c in (copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
        assert type(c) is type(r) and c == r
    assert r != Branch(r.contraction, r.successor, "stuck")
    assert repr(Branch({}, None, "stuck")) == (
        "Branch(contraction={}, successor=None, tag='stuck', deferred=())"
    )
