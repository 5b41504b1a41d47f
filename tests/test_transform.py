import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ref_msg

from scpv.config import Configuration, ParamGen, TimedApp, subst_config
from scpv.lang import (
    BULLET,
    Call,
    Paren,
    Param,
    Sym,
    iter_items,
    parse_expr,
    parse_program,
    validate_program,
)
from scpv.transform import (
    SIMPLIFY_ROUNDS,
    Incompatible,
    fold_instance,
    msg,
    msg_seq,
    simplify_program,
    split_task,
)


def _loop_cfg(valid: str, time: int, pgen):
    inv = pgen.fresh("e")
    t = pgen.fresh("e")
    arg = (Paren((t,)), Paren((Sym("Invalid"), inv))) + parse_expr(
        f"(Dirty) (Valid {valid})"
    )
    return Configuration((TimedApp("Loop", (arg,), time),), (BULLET,))


def test_msg_accumulator_shape():
    # the first-generalization shape: Valid I [] against Valid I I gives
    # Valid I with a fresh accumulator parameter
    pgen = ParamGen(130)
    c1 = _loop_cfg("I", 3, pgen)
    c2 = _loop_cfg("I I", 9, pgen)
    g = msg(c1, c2, pgen)
    valid = g.gen.stack[0].args[0][3]
    assert isinstance(valid, Paren)
    assert valid.items[0] == Sym("Valid") and valid.items[1] == Sym("I")
    acc = valid.items[2]
    assert isinstance(acc, Param) and acc.kind == "e"
    assert g.theta1[acc] == ()
    assert g.theta2[acc] == (Sym("I"),)
    # the instance equations hold structurally
    a1 = subst_config(g.gen, g.theta1)
    assert [(e.fname, e.args) for e in a1.stack] == [
        (e.fname, e.args) for e in c1.stack
    ]
    assert g.gen.stack[0].time == c1.stack[0].time


def test_msg_renaming():
    pgen = ParamGen(50)
    x, y = pgen.fresh("e"), pgen.fresh("e")
    c1 = Configuration((TimedApp("F", ((x,),), 1),), (BULLET,))
    c2 = Configuration((TimedApp("F", ((y,),), 7),), (BULLET,))
    g = msg(c1, c2, pgen)
    p = g.gen.stack[0].args[0][0]
    assert isinstance(p, Param)
    assert g.theta1[p] == (x,) and g.theta2[p] == (y,)


def test_msg_segment_middle():
    pgen = ParamGen(20)
    x = pgen.fresh("e")
    th1, th2 = {}, {}
    a = (Sym("a", char=True), x)
    b = (Sym("a", char=True), Sym("b", char=True), x)
    gen = msg_seq(a, b, pgen, th1, th2)
    assert gen[0] == Sym("a", char=True)
    # the middle is one fresh parameter, the shared tail is kept
    assert len(gen) == 3
    mid, tail = gen[1], gen[2]
    assert th1[mid] == () and th2[mid] == (Sym("b", char=True),)
    assert th1[tail] == (x,) and th2[tail] == (x,)


def test_msg_incompatible_names():
    pgen = ParamGen(1)
    c1 = Configuration((TimedApp("F", ((),), 1),), (BULLET,))
    c2 = Configuration((TimedApp("G", ((),), 2),), (BULLET,))
    with pytest.raises(Incompatible):
        msg(c1, c2, pgen)


# configuration items: symbols, s- and e-parameters, bullets, parens and
# calls of two names, so that calls meet calls of the same or another name
MSG_LEAVES = (Sym("a", char=True), Sym("I"), Param("s", 1), Param("s", 2),
              Param("e", 3), Param("e", 4), BULLET)
msg_item = st.recursive(
    st.sampled_from(MSG_LEAVES),
    lambda kids: st.one_of(
        st.lists(kids, max_size=3).map(lambda xs: Paren(tuple(xs))),
        st.builds(
            lambda f, args: Call(f, tuple(map(tuple, args))),
            st.sampled_from(("F", "G")),
            st.lists(st.lists(kids, max_size=2), min_size=1, max_size=2),
        ),
    ),
    max_leaves=10,
)
msg_seqs = st.lists(msg_item, max_size=4).map(tuple)


def _vary(draw, seq):
    """seq itself, another sequence, or seq with one more item inside."""
    how = draw(st.sampled_from(("keep", "other", "splice")))
    if how == "keep":
        return seq
    if how == "other":
        return draw(msg_seqs)
    i = draw(st.integers(0, len(seq)))
    return seq[:i] + (draw(msg_item),) + seq[i:]


def _config(draw):
    shape = draw(st.lists(st.tuples(st.sampled_from(("F", "G")), st.integers(1, 2)), max_size=2))
    stack = tuple(
        TimedApp(f, tuple(draw(msg_seqs) for _ in range(n)), t)
        for t, (f, n) in enumerate(shape)
    )
    return Configuration(stack, draw(msg_seqs))


@st.composite
def msg_pairs(draw):
    """A configuration and either an unrelated one or a variation of it."""
    c1 = _config(draw)
    if draw(st.integers(0, 3)) == 0:
        return c1, _config(draw)
    stack = tuple(
        TimedApp(e.fname, tuple(_vary(draw, a) for a in e.args), e.time + 10)
        for e in c1.stack
    )
    return c1, Configuration(stack, _vary(draw, c1.tail))


@settings(max_examples=500, deadline=None)
@given(msg_pairs(), st.integers(5, 50))
def test_msg_agrees_with_reference(pair, start):
    outcomes = []
    for fn in (msg, ref_msg):
        pgen = ParamGen(start)
        try:
            g = fn(*pair, pgen)
            outcomes.append((g.gen, g.theta1, g.theta2, pgen.next_num))
        except Incompatible:
            outcomes.append(("Incompatible", pgen.next_num))
    assert outcomes[0] == outcomes[1]


def test_fold_instance_accumulator():
    pgen = ParamGen(136)
    anc = _loop_cfg("I e.138", 3, ParamGen(136))
    acc = Param("e", 138)
    anc = Configuration(
        (
            TimedApp(
                "Loop",
                ((Paren((Param("e", 136),)), Paren((Sym("Invalid"), Param("e", 137)))) + parse_expr("(Dirty)") + (Paren((Sym("Valid"), Sym("I"), acc)),),),
                3,
            ),
        ),
        (BULLET,),
    )
    cur = subst_config(anc, {acc: (Sym("I"), acc)})
    cur = Configuration(
        (TimedApp(cur.stack[0].fname, cur.stack[0].args, 11),), cur.tail
    )
    theta = fold_instance(anc, cur)
    assert theta is not None
    assert theta[acc] == (Sym("I"), acc)


def test_fold_instance_renaming():
    pgen = ParamGen(1)
    x = pgen.fresh("e")
    y = pgen.fresh("e")
    anc = Configuration((TimedApp("F", ((x,), (x,)), 1),), (BULLET,))
    cur = Configuration((TimedApp("F", ((y,), (y,)), 5),), (BULLET,))
    theta = fold_instance(anc, cur)
    assert theta == {x: (y,)}
    # repeated parameters must map consistently
    z = pgen.fresh("e")
    cur2 = Configuration((TimedApp("F", ((y,), (z,)), 5),), (BULLET,))
    assert fold_instance(anc, cur2) is None


def test_fold_instance_unrelated_none():
    anc = Configuration((TimedApp("F", ((),), 1),), (BULLET,))
    cur = Configuration((TimedApp("G", ((),), 2),), (BULLET,))
    assert fold_instance(anc, cur) is None


def test_fold_instance_with_suspended_calls():
    # a parameter may be instantiated with an expression containing calls
    pgen = ParamGen(1)
    x = pgen.fresh("e")
    anc = Configuration((TimedApp("F", ((x,),), 1),), (BULLET,))
    cur_val = (Call("Eval", (parse_expr("'a'"),)), Sym("I"))
    cur = Configuration((TimedApp("F", (cur_val,),  9),), (BULLET,))
    theta = fold_instance(anc, cur)
    assert theta == {x: cur_val}


def test_split_task_schematic():
    pgen = ParamGen(1)
    entries = (
        TimedApp("f1", ((),), 10),
        TimedApp("f2", ((BULLET,),), 9),
        TimedApp("f3", ((Sym("k"), BULLET),), 8),
    )
    c = Configuration(entries, (Sym("tailsym"), BULLET))
    prefix, context, conn = split_task(c, 3, pgen)
    assert [e.fname for e in prefix.stack] == ["f1", "f2"]
    assert prefix.tail == (BULLET,)
    assert [e.fname for e in context.stack] == ["f3"]
    assert context.stack[0].args == ((Sym("k"), conn),)
    assert context.tail == (Sym("tailsym"), BULLET)
    assert context.stack[0].time == 8


def test_split_task_bounds():
    pgen = ParamGen(1)
    c = Configuration(
        (TimedApp("f", ((),), 1), TimedApp("g", ((BULLET,),), 2)), (BULLET,)
    )
    with pytest.raises(ValueError):
        split_task(c, 1, pgen)
    with pytest.raises(ValueError):
        split_task(c, 3, pgen)


def test_msg_equations_random():
    # gen . theta_i == c_i on randomly grown configuration pairs
    rnd = random.Random(77)
    pgen = ParamGen(500)
    from oracles import random_expr

    for _ in range(100):
        base = random_expr(rnd, rnd.randint(0, 5), evars=0, svars=0)
        extra = random_expr(rnd, rnd.randint(0, 4), evars=0, svars=0)
        c1 = Configuration((TimedApp("F", (base,), 1),), (BULLET,))
        c2 = Configuration((TimedApp("F", (base[: len(base) // 2] + extra + base[len(base) // 2 :],),9),), (BULLET,))
        g = msg(c1, c2, pgen)
        for theta, target in ((g.theta1, c1), (g.theta2, c2)):
            applied = subst_config(g.gen, theta)
            assert [(e.fname, e.args) for e in applied.stack] == [
                (e.fname, e.args) for e in target.stack
            ]
            assert applied.tail == target.tail


def test_simplify_inlines_a_forwarder_chain():
    prog = parse_program(
        "Main { e.x => F(A e.x); } F { e.x => G(e.x B); } G { s.y e.z => e.z; }"
    )
    out = simplify_program(prog, "Main")
    assert list(out.defs) == ["Main", "G"]
    assert out.defs["Main"].rules[0].rhs == parse_expr("G(A e.x B)")


@pytest.mark.parametrize(
    "src",
    [
        "Main { e.x => G(e.x); } G { e.x => G(e.x); }",
        "Main { e.x => H(e.x); } H { e.x => K(A e.x); } K { e.x => H(e.x B); }",
    ],
    ids=["self", "two"],
)
def test_simplify_ends_on_forwarder_cycles(src):
    # a forwarder is never inlined inside its own body or expansion, so a
    # cycle of forwarders unrolls at most once a round
    out = simplify_program(parse_program(src), "Main")
    assert not [e for e in validate_program(out) if e.startswith("error")]
    (main,) = out.defs["Main"].rules
    assert [it.fname for it in iter_items(main.rhs) if isinstance(it, Call)] in (
        ["G"], ["H"], ["K"]
    )
    assert len(main.rhs[0].args[0]) <= 2 * SIMPLIFY_ROUNDS + 1
