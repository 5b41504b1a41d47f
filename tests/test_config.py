import random

import pytest

import models
from oracles import cat, eval_ground_expr, normalize, random_ground
from scpv.config import (
    Clock,
    Configuration,
    ParamGen,
    TimedApp,
    check_config,
    compose_subst,
    decompose,
    subst_seq,
)
from scpv.encoding import encode_expr
from scpv.lang import BULLET, Call, Paren, Param, Sym, parse_expr


def test_cat_flattens_associatively():
    a, b, c = parse_expr("'a'"), parse_expr("'b'"), parse_expr("'c'")
    assert cat(cat(a, b), c) == cat(a, cat(b, c)) == a + b + c


def test_unit_laws():
    e = parse_expr("'a' ('b')")
    assert cat(e, ()) == e
    assert cat((), e) == e


def test_normalize_idempotent():
    e = parse_expr("'a' ('b' 'c') e.x")
    assert normalize(e) == e
    assert normalize(normalize(e)) == normalize(e)


def test_cons_is_concatenation():
    t = parse_expr("'a'")
    e = parse_expr("'b' 'c'")
    assert cat(t, e) == parse_expr("'a' : 'b' : 'c'")


def test_ground_normalization_matches_evaluator():
    syn = models.load("synapse.l")
    rnd = random.Random(9)
    for _ in range(1000):
        a = random_ground(rnd, rnd.randint(0, 5))
        b = random_ground(rnd, rnd.randint(0, 5))
        # concatenation of values is the value of the concatenation
        assert eval_ground_expr(syn, cat(a, b)) == cat(a, b)


def test_decompose_single_call():
    clock, pgen = Clock(), ParamGen()
    cfg, deferred = decompose((Call("F", (parse_expr("'a'"),)),), clock, pgen)
    assert deferred == []
    assert [e.fname for e in cfg.stack] == ["F"]
    assert cfg.tail == (BULLET,)


def test_decompose_passive():
    clock, pgen = Clock(), ParamGen()
    e = parse_expr("'a' ('b')")
    cfg, deferred = decompose(e, clock, pgen)
    assert cfg.stack == () and cfg.tail == e and deferred == []


def test_decompose_interpreter_start_shape():
    # the nested interpreter expression splits into the call chain plus one
    # postponed continuation connected by a fresh parameter
    pi = parse_expr("(Prog Synapse)")
    d0 = encode_expr(parse_expr("('x') ( )"))
    inner = Call("Eval", (parse_expr("([])") + d0, pi))
    evalcall = Call("EvalCall", (parse_expr("Main"), (inner,), pi))
    outer = Call("Eval", ((evalcall,), pi))
    k1 = (outer,) + (Call("Eval", (parse_expr("([]) []"), pi)),)
    cfg, deferred = decompose(k1, Clock(), ParamGen())
    assert [e.fname for e in cfg.stack] == ["Eval", "EvalCall", "Eval"]
    assert cfg.tail == (BULLET,)
    assert len(deferred) == 1
    p, cont = deferred[0]
    assert [e.fname for e in cont.stack] == ["Eval"]
    assert cont.tail == (p, BULLET)
    check_config(cfg)
    check_config(cont)


def test_decompose_chain_labels_outermost_first():
    clock = Clock()
    inner = Call("G", ((),))
    outer = Call("F", ((inner,),))
    cfg, _ = decompose((outer,), clock, ParamGen())
    g, f = cfg.stack
    assert (g.fname, f.fname) == ("G", "F")
    assert f.time < g.time  # the outer application is older


def test_config_length():
    pgen = ParamGen()
    entries = tuple(
        TimedApp(n, ((BULLET,),) if i else ((),), i + 1)
        for i, n in enumerate(["Match", "Matching", "Eval", "EvalCall"])
    )
    c = Configuration(entries, (BULLET,))
    assert len(c.stack) == 4
    assert len(Configuration((), ()).stack) == 0


def test_third_match_rule_grows_stack_by_one():
    from scpv.driving import drive
    from scpv.corpus import self_interpreter

    interp = self_interpreter({"Synapse": models.load("synapse.l")})
    arg1 = encode_expr(parse_expr("('a')"))
    arg2 = encode_expr(parse_expr("('a')"))
    cfg = Configuration(
        (TimedApp("Match", (arg1, arg2, parse_expr("([])")), 1),), (BULLET,)
    )
    res = drive(cfg, interp, Clock(10), ParamGen(10))
    (branch,) = res.branches
    assert len(branch.successor.stack) == len(cfg.stack) + 1


def test_subst_identity():
    e = parse_expr("'a' e.x")
    assert subst_seq(e, {}) == e


def test_subst_splices():
    p = Param("e", 1)
    e = (Sym("s"), p)
    assert subst_seq(e, {p: ()}) == (Sym("s"),)
    assert subst_seq(e, {p: parse_expr("'a' 'b'")}) == (Sym("s"),) + parse_expr(
        "'a' 'b'"
    )


def test_subst_kind_violation():
    p = Param("s", 1)
    with pytest.raises(ValueError):
        subst_seq((p,), {p: parse_expr("'a' 'b'")})


def test_subst_composition_random():
    rnd = random.Random(31)
    pgen = ParamGen()
    params = [pgen.fresh("e") for _ in range(4)]

    def rand_pexpr(depth=0):
        out = []
        for _ in range(rnd.randint(0, 3)):
            c = rnd.random()
            if c < 0.4:
                out.append(Sym("I"))
            elif c < 0.6 and depth < 2:
                out.append(Paren(rand_pexpr(depth + 1)))
            else:
                out.append(rnd.choice(params))
        return tuple(out)

    for _ in range(100):
        e = rand_pexpr()
        t1 = {rnd.choice(params): rand_pexpr()}
        t2 = {rnd.choice(params): rand_pexpr()}
        assert subst_seq(subst_seq(e, t1), t2) == subst_seq(
            e, compose_subst(t1, t2)
        )


def test_check_config_rejects_bad_bullets():
    bad = Configuration(
        (TimedApp("F", ((BULLET,),), 1), TimedApp("G", ((),), 2)), (BULLET,)
    )
    with pytest.raises(AssertionError):
        check_config(bad)


def test_check_config_rejects_a_call_under_an_empty_stack():
    # decompose stacks every reachable call, so driving never sees one here
    check_config(Configuration((), parse_expr("'a' ('b')")))
    with pytest.raises(AssertionError):
        check_config(Configuration((), parse_expr("'a' (F('b'))")))
