import copy
import pickle
import random
from dataclasses import FrozenInstanceError

import pytest

import models
from oracles import cat, eval_ground_expr, normalize, random_ground, ref_subst_seq
from scpv.config import (
    Clock,
    Configuration,
    ParamGen,
    TimedApp,
    check_config,
    compose_subst,
    decompose,
    plug_app,
    subst_app,
    subst_seq,
)
from scpv.encoding import encode_expr
from scpv.lang import BULLET, Call, Paren, Param, Sym, iter_items, parse_expr


def _records():
    app = TimedApp("F", (parse_expr("'a' (b)"), (BULLET,)), 3)
    return app, Configuration((app,), (BULLET,))


def test_records_are_frozen():
    for r in _records():
        for name in type(r).__slots__:
            with pytest.raises(FrozenInstanceError):
                setattr(r, name, None)
            with pytest.raises(FrozenInstanceError):
                delattr(r, name)


def test_equal_records_hash_equal():
    for r, twin in zip(_records(), _records()):
        assert r is not twin and r == twin and hash(r) == hash(twin)
    app, cfg = _records()
    assert app != TimedApp(app.fname, app.args, 4)
    assert cfg != Configuration(cfg.stack, ())
    assert app != cfg and app != (app.fname, app.args, app.time)


def test_records_copy_and_pickle():
    for r in _records():
        for twin in (copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
            assert type(twin) is type(r) and twin == r and hash(twin) == hash(r)


def test_records_print_as_before():
    app, cfg = _records()
    assert repr(app) == "F@3('a' (b), •)"
    assert repr(cfg) == "F@3('a' (b), •), •"
    assert repr(Configuration((), parse_expr("'a' e.x"))) == "'a' e.x"


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
    (branch,) = drive(cfg, interp, Clock(10), ParamGen(10))
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


def test_subst_enters_a_shared_signature_bit_but_replaces_only_bound_parameters():
    # parameters 1 and 27 share a signature bit, so subst_seq enters what
    # holds either and replaces only the one theta binds
    e1, e27 = Param("e", 1), Param("e", 27)
    assert e1.flags == e27.flags
    kept = Paren((e27, Sym("b")))
    other = Paren((Param("e", 2), Call("F", ((Sym("a"),),))))
    seq = (Paren((e1, e27)), kept, other, e27)
    out = subst_seq(seq, {e1: (Sym("z"),)})
    assert out == (Paren((Sym("z"), e27)), kept, other, e27)
    assert out[1] is kept and out[2] is other
    rest = seq[1:]
    assert subst_seq(rest, {e1: ()}) is rest


def _holds_any(seq, theta) -> bool:
    return any(it in theta for it in iter_items(seq))


def _assert_kept(seq, out, theta):
    """Every paren, call and sequence of seq that holds no parameter of
    theta's domain is in out, at its place, as the same object."""
    if not _holds_any(seq, theta):
        assert out is seq
    j = 0
    for it in seq:
        if type(it) is Param and it in theta:
            j += len(theta[it])
            continue
        got = out[j]
        j += 1
        if not _holds_any((it,), theta):
            assert got is it
        elif type(it) is Paren:
            _assert_kept(it.items, got.items, theta)
        elif type(it) is Call:
            for a, b in zip(it.args, got.args):
                _assert_kept(a, b, theta)


def test_subst_composition_random():
    rnd = random.Random(31)
    pgen = ParamGen()
    params = [pgen.fresh("e") for _ in range(4)] + [pgen.fresh("s") for _ in range(2)]

    def rand_pexpr(depth=0):
        out = []
        for _ in range(rnd.randint(0, 3)):
            c = rnd.random()
            if c < 0.4:
                out.append(Sym("I"))
            elif c < 0.55 and depth < 2:
                out.append(Paren(rand_pexpr(depth + 1)))
            elif c < 0.6 and depth < 2:
                out.append(Call("F", (rand_pexpr(depth + 1), rand_pexpr(depth + 1))))
            else:
                out.append(rnd.choice(params))
        return tuple(out)

    def rand_theta():
        p = rnd.choice(params)
        if p.kind == "s" and rnd.random() < 0.8:
            return {p: (rnd.choice((Sym("J"), params[-1])),)}
        return {p: rand_pexpr()}

    raised = 0
    for _ in range(300):
        e = rand_pexpr()
        t1, t2 = rand_theta(), rand_theta()
        for t in (t1, t2):
            try:
                want = ref_subst_seq(e, t)
            except ValueError:  # an s-parameter bound to a sequence
                raised += 1
                with pytest.raises(ValueError):
                    subst_seq(e, t)
                continue
            got = subst_seq(e, t)
            assert got == want
            _assert_kept(e, got, t)
        try:
            once = subst_seq(e, compose_subst(t1, t2))
        except ValueError:
            continue
        assert subst_seq(subst_seq(e, t1), t2) == once
    assert raised


def test_subst_app_keeps_an_unchanged_entry():
    x = Param("e", 1)
    app = TimedApp("F", (parse_expr("'a'"), (Paren((x,)),)), 3)
    assert subst_app(app, {Param("e", 2): ()}) is app
    got = subst_app(app, {x: ()})
    assert got.args[0] is app.args[0] and got.args[1] == (Paren(()),)


def test_plug_app_keeps_the_arguments_without_the_bullet():
    a, b = parse_expr("'a' (b)"), parse_expr("(e.x)")
    app = TimedApp("F", (a, parse_expr("'c'") + (BULLET,), b), 3)
    got = plug_app(app, parse_expr("'v'"))
    assert got.args[0] is a and got.args[2] is b
    assert got.args[1] == parse_expr("'c' 'v'") and got.time == 3


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


def test_check_config_rejects_a_call_in_the_tail_of_a_stack():
    # rule firing builds a successor at the bottom of a stack without
    # decomposing it again, which needs a call-free tail
    top = (TimedApp("F", ((),), 1),)
    check_config(Configuration(top, parse_expr("'a' ('b')") + (BULLET,)))
    with pytest.raises(AssertionError):
        check_config(Configuration(top, parse_expr("F('b')") + (BULLET,)))
