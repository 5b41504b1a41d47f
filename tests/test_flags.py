"""Structure flags on items, and the walkers that skip subtrees by them.

Every fast walker is checked against the naive full traversal in
``oracles.py`` on random item trees.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    naive_bullet_count,
    naive_contains_call,
    naive_is_ground,
    naive_render_seq,
    naive_replace_bullet,
    naive_split_leftmost_call,
    naive_subst_seq,
    naive_subst_vars,
)
from scpv.config import _split_leftmost_call, replace_bullet, subst_seq
from scpv.driving import _subst_vars
from scpv.lang import (
    BULLET,
    HAS_BULLET,
    HAS_CALL,
    HAS_PARAM,
    HAS_VAR,
    Bullet,
    Call,
    Paren,
    Param,
    Sym,
    Var,
    bullet_count,
    contains_call,
    is_ground,
    iter_items,
    parse_expr,
    parse_program,
)
from scpv.engine import parse_entry_config
from scpv.transform import IncompleteGraph, _render_seq, _subst_vars_seq

S1, E2, E3 = Param("s", 1), Param("e", 2), Param("e", 3)
SX, EY, SZ = Var("s", "x"), Var("e", "y"), Var("s", "z")
LEAVES = (Sym("I"), Sym("a", char=True), Sym("Eval"), SX, EY, SZ, S1, E2, E3, BULLET)

items = st.recursive(
    st.sampled_from(LEAVES),
    lambda kids: st.one_of(
        st.lists(kids, max_size=4).map(lambda xs: Paren(tuple(xs))),
        st.builds(
            lambda f, args: Call(f, tuple(tuple(a) for a in args)),
            st.sampled_from(("F", "G")),
            st.lists(st.lists(kids, max_size=3), max_size=3),
        ),
    ),
    max_leaves=24,
)
seqs = st.lists(items, max_size=5).map(tuple)
one_item = items.map(lambda it: (it,))
thetas = st.fixed_dictionaries(
    {}, optional={S1: st.one_of(one_item, seqs), E2: seqs, E3: seqs}
)
envs = st.fixed_dictionaries({}, optional={SX: one_item, EY: seqs, SZ: one_item})

KIND_FLAG = {Call: HAS_CALL, Bullet: HAS_BULLET, Param: HAS_PARAM, Var: HAS_VAR}


def recomputed_flags(it) -> int:
    f = 0
    for x in iter_items((it,)):
        f |= KIND_FLAG.get(type(x), 0)
    return f


def flags_sound(seq) -> bool:
    return all(x.flags == recomputed_flags(x) for x in iter_items(seq))


def outcome(fn, *args):
    """The result of fn, or the type of the exception it raised."""
    try:
        return "ok", fn(*args)
    except (KeyError, ValueError, IncompleteGraph) as e:
        return "raise", type(e)


def rebuild(seq):
    """A fresh copy of seq, every paren and call constructed anew."""
    out = []
    for it in seq:
        if isinstance(it, Paren):
            out.append(Paren(rebuild(it.items)))
        elif isinstance(it, Call):
            out.append(Call(it.fname, tuple(rebuild(a) for a in it.args)))
        else:
            out.append(it)
    return tuple(out)


walker_settings = settings(max_examples=150, deadline=None)


@walker_settings
@given(seqs)
def test_flags_match_recomputation(seq):
    assert flags_sound(seq)


@walker_settings
@given(seqs)
def test_queries_agree_with_naive(seq):
    assert contains_call(seq) == naive_contains_call(seq)
    assert is_ground(seq) == naive_is_ground(seq)
    assert bullet_count(seq) == naive_bullet_count(seq)
    assert _split_leftmost_call(seq) == naive_split_leftmost_call(seq)


@walker_settings
@given(seqs, seqs)
def test_replace_bullet_agrees_with_naive(seq, value):
    got = replace_bullet(seq, value)
    assert got == naive_replace_bullet(seq, value)
    assert flags_sound(got)


@walker_settings
@given(seqs, thetas)
def test_subst_seq_agrees_with_naive(seq, theta):
    got = outcome(subst_seq, seq, theta)
    assert got == outcome(naive_subst_seq, seq, theta)
    if got[0] == "ok":
        assert flags_sound(got[1])


@walker_settings
@given(seqs, envs)
def test_subst_vars_agrees_with_naive(seq, env):
    got = outcome(_subst_vars, seq, env)
    assert got == outcome(naive_subst_vars, seq, env)
    if got[0] == "ok":
        assert flags_sound(got[1])


class KeepUnbound(dict):
    """An environment in which an unbound variable stands for itself."""

    def __missing__(self, v):
        return (v,)


@walker_settings
@given(seqs, envs)
def test_subst_vars_keeping_unbound_agrees_with_naive(seq, env):
    got = _subst_vars_seq(seq, env)
    assert got == naive_subst_vars(seq, KeepUnbound(env))
    assert flags_sound(got)


@walker_settings
@given(seqs)
def test_render_agrees_with_naive(seq):
    got = outcome(_render_seq, seq)
    assert got == outcome(naive_render_seq, seq)
    if got[0] == "ok":
        assert flags_sound(got[1])


@walker_settings
@given(seqs)
def test_build_route_changes_neither_equality_nor_hash(seq):
    direct = Paren(seq)
    routes = (
        Paren(rebuild(seq)),
        subst_seq((Paren((E3,)),), {E3: seq})[0],
        replace_bullet((Paren((BULLET,)),), seq)[0],
    )
    for it in routes:
        assert it == direct
        assert hash(it) == hash(direct)
        assert it.flags == direct.flags
        assert repr(it) == repr(direct)


def test_flags_stay_out_of_equality_and_repr():
    p = Paren(parse_expr("F(s.x) 'a'") + (BULLET,))
    assert p.flags == HAS_CALL | HAS_VAR | HAS_BULLET
    assert Paren(parse_expr("('a' I)")).flags == 0
    assert "flags" not in repr(p)
    assert p == Paren((Call("F", ((SX,),)), Sym("a", char=True), BULLET))


def test_render_finds_a_bullet_at_any_depth():
    ok = (Paren((Call("F", ((E2,), (Sym("I"),))),)),)
    assert _render_seq(ok) == (Paren((Call("F", ((Var("e", "2"),), (Sym("I"),))),)),)
    for bad in (
        (Paren((Paren((BULLET,)),)),),
        (Call("F", ((Sym("I"),), (Paren((BULLET,)),))),),
    ):
        with pytest.raises(IncompleteGraph):
            _render_seq(bad)


def test_entry_parameters_numbered_by_first_occurrence():
    prog = parse_program("F { e.x, e.y => e.x; }")
    cfg = parse_entry_config(prog, "F((s.b e.a), (e.a) s.c s.b)")
    s1, e2, s3 = Param("s", 1), Param("e", 2), Param("s", 3)
    assert cfg.stack[0].args == ((Paren((s1, e2)),), (Paren((e2,)), s3, s1))
