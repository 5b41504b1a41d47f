"""Rule matching, pre-decomposed rule tables, and instance matching for
folds and rule subsumption.

The packaged matchers are checked against the reference copies in
``oracles.py`` on random patterns and parameterized data, and the rule
table's pre-decomposition and instantiation plans against decomposing and
substituting after instantiation.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import models
from oracles import (
    E_PARAMS,
    S_PARAMS,
    SYMS,
    _random_pattern,
    draw_env,
    draw_value,
    open_data,
    ref_inst_seq,
    ref_match_rule,
    ref_pattern_instance,
)
from scpv.config import decompose_expr
from scpv.driving import (
    FAIL,
    REBUILD,
    SHARE,
    NotSupported,
    _instance,
    _match_rule,
    _subst_vars,
    rule_table,
)
from scpv.lang import (
    BULLET,
    MATCH_BUDGET,
    Budget,
    Call,
    Paren,
    Param,
    Rule,
    Var,
    inst_args,
    inst_seq,
    vars_of,
)

# rule patterns: symbols and two s-variables at any depth, an optional
# trailing e-variable per level; few names, so that variables repeat
SX, SY, EX, EY = Var("s", "x"), Var("s", "y"), Var("e", "x"), Var("e", "y")


def _with_tail(items):
    return st.tuples(
        st.lists(items, max_size=3), st.sampled_from(((), (EX,), (EY,)))
    ).map(lambda t: tuple(t[0]) + t[1])


drawn_patterns = _with_tail(
    st.recursive(
        st.sampled_from(SYMS[:2] + (SX, SY)),
        lambda kids: _with_tail(kids).map(Paren),
        max_leaves=8,
    )
)


def fill(seq, hole, value):
    """seq with each occurrence ``h`` of a ``hole`` item replaced by ``value(h)``."""
    out = []
    for it in seq:
        if isinstance(it, hole):
            out.extend(value(it))
        elif isinstance(it, Paren):
            out.append(Paren(fill(it.items, hole, value)))
        elif isinstance(it, Call):
            out.append(Call(it.fname, tuple(fill(a, hole, value) for a in it.args)))
        else:
            out.append(it)
    return tuple(out)


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except NotSupported:
        return "raise", NotSupported


matcher_settings = settings(max_examples=400, deadline=None)


@matcher_settings
@given(
    st.one_of(
        st.lists(drawn_patterns, min_size=1, max_size=2),
        st.randoms(use_true_random=False).map(
            lambda rnd: [_random_pattern(rnd, rnd.randint(0, 4))]
        ),
    ),
    st.sampled_from(("instance", "per-occurrence", "random")),
    st.data(),
)
def test_matcher_agrees_with_reference(lhs, shape, data):
    lhs = tuple(lhs)
    # data shaped like the pattern gets most attempts far; a fresh value per
    # occurrence of a repeated variable reaches the bound-variable cases
    if shape == "instance":
        values = draw_env(data.draw, vars_of(sum(lhs, ())), open_data)
        args = tuple(fill(p, Var, values.__getitem__) for p in lhs)
    elif shape == "per-occurrence":
        fresh = lambda v: draw_value(data.draw, v, open_data)  # noqa: E731
        args = tuple(fill(p, Var, fresh) for p in lhs)
    else:
        args = tuple(data.draw(open_data) for _ in lhs)
    env = {}
    got = outcome(_match_rule, lhs, args, env)
    want = outcome(ref_match_rule, lhs, args, {})
    if want[0] == "raise":
        assert got == want
        return
    kind, result = got
    ref = want[1]
    if ref[0] == "ok":
        assert result is None
        assert env == ref[1]
    elif ref[0] == "fail":
        assert result is FAIL
    else:
        assert result == ref[1]


ALL_RULES = models.shipped_rules()


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(ALL_RULES), st.data())
def test_predecomposition_commutes_with_instantiation(case, data):
    prog, fname, i = case
    row = rule_table(prog, fname)[i]
    rhs = prog.rules(fname)[i].rhs
    chain = [Call(f, args) for f, args, _ in row.chain]
    assert (chain, row.ctx) == decompose_expr(rhs)
    env = draw_env(data.draw, vars_of(rhs), open_data)
    want = decompose_expr(_subst_vars(rhs, env))
    inst = [Call(c.fname, tuple(_subst_vars(a, env) for a in c.args)) for c in chain]
    assert (inst, _subst_vars(row.ctx, env)) == want
    # each plan instantiates its sequence as _subst_vars does, and a looked-up
    # or shared one is not copied
    for _, args, plans in row.chain:
        for a, plan in zip(args, plans):
            got = _instance(plan, env)
            assert got == _subst_vars(a, env)
            if plan[0] != REBUILD:
                assert got is (a if plan[0] == SHARE else env[a[0]])
    assert _instance(row.ctx_plan, env) == _subst_vars(row.ctx, env)


# fold patterns: configuration items over parameters, with calls and bullets
fold_leaves = SYMS + S_PARAMS + E_PARAMS + (BULLET,)
fold_item = st.recursive(
    st.sampled_from(fold_leaves),
    lambda kids: st.one_of(
        st.lists(kids, max_size=3).map(lambda xs: Paren(tuple(xs))),
        st.builds(
            lambda f, args: Call(f, tuple(tuple(a) for a in args)),
            st.sampled_from(("F", "G")),
            st.lists(st.lists(kids, max_size=2), max_size=2),
        ),
    ),
    max_leaves=12,
)
fold_seqs = st.lists(fold_item, max_size=4).map(tuple)


@matcher_settings
@given(fold_seqs, st.booleans(), st.data())
def test_fold_matcher_agrees_with_reference(pat, close, data):
    if close:
        theta = draw_env(data.draw, S_PARAMS + E_PARAMS, fold_seqs)
        subj = fill(pat, Param, theta.__getitem__)
    else:
        subj = data.draw(fold_seqs)
    ref_budget, budget = Budget(MATCH_BUDGET), Budget(MATCH_BUDGET)
    want = ref_inst_seq(pat, subj, {}, ref_budget)
    got = inst_seq(pat, subj, {}, budget)
    if ref_budget.n > 0:
        assert got == want
    assert budget.n >= ref_budget.n


# residual rule patterns: symbols, s- and e-variables and parens
residual_item = st.recursive(
    st.sampled_from(SYMS[:2] + (SX, SY, EX, EY)),
    lambda kids: st.lists(kids, max_size=3).map(lambda xs: Paren(tuple(xs))),
    max_leaves=8,
)
residual_seqs = st.lists(residual_item, max_size=4).map(tuple)


@matcher_settings
@given(st.lists(residual_seqs, min_size=1, max_size=2), st.booleans(), st.data())
def test_subsumption_matcher_agrees_with_reference(general, close, data):
    general = tuple(general)
    if close:
        env = {
            v: (data.draw(st.sampled_from(SYMS + (SX, SY))),)
            if v.kind == "s"
            else data.draw(residual_seqs)
            for v in (SX, SY, EX, EY)
        }
        specific = tuple(fill(g, Var, env.__getitem__) for g in general)
    else:
        specific = tuple(data.draw(residual_seqs) for _ in general)
    budget = Budget(MATCH_BUDGET)
    got, want = {}, {}
    for g, sp in zip(general, specific):
        got = None if got is None else inst_seq(g, sp, got, budget)
        want = None if want is None else ref_pattern_instance(g, sp, want)
    if budget.n > 0:
        assert got == want
        assert inst_args(general, specific) == want


def test_instance_matchers_take_long_sequences():
    # one step per item, not one stack frame: 5,000 items match within the
    # budget and without RecursionError
    a, b = SYMS[1], SYMS[2]
    s1, e3 = S_PARAMS[0], E_PARAMS[0]
    pat = tuple(Paren((s1,)) if i % 2 else a for i in range(4999)) + (e3,)
    subj = tuple(Paren((b,)) if i % 2 else a for i in range(4999)) + (b, a)
    assert inst_seq(pat, subj, {}, Budget(MATCH_BUDGET)) == {s1: (b,), e3: (b, a)}
    early = Rule(((SX,) + (a,) * 4998 + (EX,),), ())
    late = Rule(((b,) + (a,) * 4998 + (EY,),), ())
    assert inst_args(early.lhs, late.lhs) is not None
    assert inst_args(late.lhs, early.lhs) is None
