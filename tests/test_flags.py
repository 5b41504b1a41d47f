"""Structure flags on items, and the walkers that skip subtrees by them.

Every fast walker is checked against the naive full traversal in
``oracles.py`` on random item trees, and residual cleanup's call rewriter
against the walkers it replaced on random residual code.
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
    ref_canonical_def,
    ref_inline_calls,
    ref_rename_calls,
    subst_vars,
)
from scpv.config import _split_leftmost_call, replace_bullet, subst_seq
from scpv.lang import (
    BULLET,
    HAS_BULLET,
    HAS_CALL,
    HAS_PARAM,
    HAS_VAR,
    Bullet,
    Call,
    FuncDef,
    Paren,
    Param,
    Rule,
    Sym,
    Var,
    bullet_count,
    contains_call,
    is_ground,
    iter_items,
    map_calls,
    map_items,
    parse_expr,
    parse_program,
)
from scpv.engine import parse_entry_config
from scpv.transform import (
    INLINE_BUDGET,
    IncompleteGraph,
    _canonical_def,
    _inline,
    _render_seq,
    _subst_vars_seq,
)

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
    """The kinds at or below it, plus each parameter's signature bit."""
    f = 0
    for x in iter_items((it,)):
        f |= KIND_FLAG.get(type(x), 0)
        if isinstance(x, Param):
            f |= 16 << (x.num % 26)
    return f


def recomputed_size(it) -> int:
    return sum(1 for _ in iter_items((it,)))


def flags_sound(seq) -> bool:
    """Every item's cached flags and size agree with a recomputation."""
    return all(
        x.flags == recomputed_flags(x) and x.size == recomputed_size(x)
        for x in iter_items(seq)
    )


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
    got = outcome(subst_vars, seq, env)
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
@given(seqs, envs)
def test_map_items_returns_what_it_leaves_unchanged_itself(seq, env):
    def keep(v):
        return (v,)

    assert map_items(seq, HAS_VAR, keep) is seq
    for it in seq:
        if isinstance(it, (Paren, Call)) and not env.keys() & set(iter_items((it,))):
            hash(it)
            (got,) = map_items((it,), HAS_VAR, KeepUnbound(env).__getitem__)
            assert got is it and got._hash is not None


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


@walker_settings
@given(seqs)
def test_rebuilt_items_equal_and_hash_alike(seq):
    copy = rebuild(seq)
    assert copy == seq
    pairs = [
        (a, b)
        for a, b in zip(iter_items(seq), iter_items(copy))
        if isinstance(a, (Paren, Call))
    ]
    assert all(a is not b for a, b in pairs)
    # the copy's hashes are computed outermost first, the original's
    # innermost first; the second round reads them all from the cache
    hash(copy)
    for a, b in reversed(pairs):
        assert hash(a) == hash(b)
    for a, b in pairs:
        assert hash(a) == hash(b)


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


# ---------------------------------------------------------------------------
# Residual cleanup: map_calls against the walkers it replaced

# residual code holds symbols, variables, parens and calls of fixed arity
ARITY = {"F": 1, "G": 2, "H": 1, "K": 2}
SW, EV = Var("s", "w"), Var("e", "v")
DEF_VARS = (SX, SZ, SW, EY, EV)


def residual_seqs(names, leaves=(Sym("I"), Sym("a", char=True), SX, EY, SZ), size=16):
    """Residual-shaped sequences that call only the functions in names."""

    def call(kids):
        def build(f):
            arg = st.lists(kids, max_size=3).map(tuple)
            return st.lists(arg, min_size=ARITY[f], max_size=ARITY[f]).map(
                lambda args: Call(f, tuple(args))
            )

        return st.sampled_from(names).flatmap(build)

    items = st.recursive(
        st.sampled_from(leaves),
        lambda kids: st.one_of(
            st.lists(kids, max_size=4).map(lambda xs: Paren(tuple(xs))), call(kids)
        ),
        max_leaves=size,
    )
    return st.lists(items, max_size=5).map(tuple)


def forwarder(name, callees):
    """The one rule of a forwarder: each pattern empty or a fresh variable."""
    pats = st.lists(
        st.sampled_from(((), (SX,), (EY,), (SZ,))),
        min_size=ARITY[name],
        max_size=ARITY[name],
        unique_by=lambda p: p or object(),  # empty patterns may repeat
    )
    return st.builds(Rule, pats.map(tuple), residual_seqs(callees))


# F may call G and H, G may call H, H calls neither: the reference inliner
# cannot stop a cycle
inlinables = st.fixed_dictionaries(
    {},
    optional={
        "F": forwarder("F", ("G", "H", "K")),
        "G": forwarder("G", ("H", "K")),
        "H": forwarder("H", ("K",)),
    },
)
budgets = st.one_of(st.integers(0, 4), st.just(INLINE_BUDGET))


@walker_settings
@given(residual_seqs(tuple(ARITY)), inlinables, budgets)
def test_inlining_agrees_with_reference(seq, inlinable, budget):
    got_budget, want_budget = [budget], [budget]
    got = map_calls(seq, lambda c: _inline(c, inlinable, got_budget, ()))
    assert got == ref_inline_calls(seq, inlinable, want_budget)
    assert got_budget == want_budget
    assert flags_sound(got)


@walker_settings
@given(
    residual_seqs(tuple(ARITY)),
    st.dictionaries(st.sampled_from(tuple(ARITY)), st.sampled_from(tuple(ARITY))),
)
def test_renaming_agrees_with_reference(seq, mapping):
    got = map_calls(seq, lambda c: (Call(mapping.get(c.fname, c.fname), c.args),))
    assert got == ref_rename_calls(seq, mapping)
    assert flags_sound(got)


def definitions(name):
    small = residual_seqs(("F", "K"), (Sym("I"),) + DEF_VARS, size=5)
    return st.integers(1, 2).flatmap(
        lambda n: st.lists(
            st.builds(Rule, st.lists(small, min_size=n, max_size=n).map(tuple), small),
            min_size=1,
            max_size=2,
        ).map(lambda rules: FuncDef(name, n, tuple(rules)))
    )


def renamed(d):
    """d with its variables renamed, not always one to one nor to a
    variable of the same kind."""
    same_kind = {v: tuple(w for w in DEF_VARS if w.kind == v.kind) for v in DEF_VARS}
    env = st.fixed_dictionaries(
        {
            v: st.sampled_from(same_kind[v] * 3 + DEF_VARS).map(lambda w: (w,))
            for v in DEF_VARS
        }
    )

    def apply(env):
        def rn(seq):
            return _subst_vars_seq(seq, env)

        rules = tuple(Rule(tuple(map(rn, r.lhs)), rn(r.rhs)) for r in d.rules)
        return FuncDef("E", d.arity, rules)

    return env.map(apply)


definition_pairs = definitions("D").flatmap(
    lambda d: st.tuples(st.just(d), st.one_of(definitions("E"), renamed(d)))
)


@walker_settings
@given(definition_pairs)
def test_canonical_keys_agree_with_reference(pair):
    d1, d2 = pair
    k1, k2 = _canonical_def(d1), _canonical_def(d2)
    assert (k1 == k2) == (ref_canonical_def(d1) == ref_canonical_def(d2))
    if k1 == k2:
        assert hash(k1) == hash(k2)
