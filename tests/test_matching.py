"""Compiled rule matching and instantiation, and instance matching for
folds and rule subsumption.

The packaged matchers are checked against the reference copies in
``oracles.py`` on random patterns and parameterized data, and each rule's
compiled right-hand side against decomposing and substituting after
instantiation.
"""

import re

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
    interp_match_rule,
    open_data,
    passive,
    ref_drive,
    ref_inst_seq,
    ref_match_rule,
    ref_pattern_instance,
    subst_vars,
)
from scpv.config import Clock, Configuration, ParamGen, TimedApp, decompose_expr
from scpv.driving import (
    FAIL,
    NotSupported,
    RuleRow,
    _build_source,
    _match_source,
    drive,
    rule_table,
)
from scpv.lang import (
    BULLET,
    HAS_VAR,
    MATCH_BUDGET,
    Budget,
    Call,
    FuncDef,
    Paren,
    Param,
    Program,
    Rule,
    Sym,
    Var,
    inst_args,
    inst_seq,
    parse_expr,
    parse_program,
    seq_flags,
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


def put_at(args, k, item):
    """args with their k-th item, counted depth-first into parens, replaced
    by ``item``."""
    left = k

    def level(seq):
        nonlocal left
        out = []
        for it in seq:
            left -= 1
            if left == -1:
                out.append(item)
            elif type(it) is Paren:
                out.append(Paren(level(it.items)))
            else:
                out.append(it)
        return tuple(out)

    return tuple(level(a) for a in args)


def count_items(seq) -> int:
    return sum(1 + (count_items(it.items) if type(it) is Paren else 0) for it in seq)


# a call or the bullet, which matching refuses where it inspects an item
ACTIVE = (BULLET, Call("F", ((SYMS[0],),)))


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except (NotSupported, AssertionError) as e:
        return "raise", repr(e)


matcher_settings = settings(max_examples=400, deadline=None)


@matcher_settings
@given(
    st.one_of(
        st.lists(drawn_patterns, min_size=1, max_size=2),
        st.randoms(use_true_random=False).map(
            lambda rnd: [_random_pattern(rnd, rnd.randint(0, 4))]
        ),
    ),
    st.sampled_from(("instance", "per-occurrence", "active", "random")),
    st.data(),
)
def test_matcher_agrees_with_reference(lhs, shape, data):
    lhs = tuple(lhs)
    # data shaped like the pattern gets most attempts far; a fresh value per
    # occurrence of a repeated variable reaches the bound-variable cases, and
    # a call or the bullet in place of one item the active-data refusal
    if shape in ("instance", "active"):
        values = draw_env(data.draw, vars_of(sum(lhs, ())), open_data)
        args = tuple(fill(p, Var, values.__getitem__) for p in lhs)
        if shape == "active" and (n := sum(map(count_items, args))):
            k = data.draw(st.integers(0, n - 1))
            args = put_at(args, k, data.draw(st.sampled_from(ACTIVE)))
    elif shape == "per-occurrence":
        fresh = lambda v: draw_value(data.draw, v, open_data)  # noqa: E731
        args = tuple(fill(p, Var, fresh) for p in lhs)
    else:
        args = tuple(data.draw(open_data) for _ in lhs)
    got = outcome(RuleRow(lhs, ()).match, args)
    env = {}
    interp = outcome(interp_match_rule, lhs, args, env)
    want = outcome(ref_match_rule, lhs, args, {})
    if want[0] == "raise":
        assert got == interp == want
        return
    result, ref = got[1], want[1]
    if ref[0] == "ok":
        # the same bindings, bound in the same order
        assert type(result) is dict and interp[1] is None
        assert list(result.items()) == list(env.items())
        assert result == ref[1]
    elif ref[0] == "fail":
        assert result is FAIL and interp[1] is FAIL
    else:
        assert result == interp[1] == ref[1]


ALL_RULES = models.shipped_rules()


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(ALL_RULES), st.data())
def test_predecomposition_commutes_with_instantiation(case, data):
    prog, fname, i = case
    row = rule_table(prog, fname)[i]
    rhs = prog.rules(fname)[i].rhs
    chain, rhs_ctx = decompose_expr(rhs)
    assert list(row.chain) == chain
    env = draw_env(data.draw, vars_of(rhs), open_data)
    top = data.draw(st.integers(10, 40))
    entries, ctx = row.build(env, top)
    want = decompose_expr(subst_vars(rhs, env))
    assert ([Call(e.fname, e.args) for e in entries], ctx) == want
    assert [e.time for e in entries] == [top - k for k in range(len(row.chain))]
    assert ctx == subst_vars(rhs_ctx, env)
    # each argument is instantiated as subst_vars does, and a lone variable
    # or a variable-free argument is not copied
    for entry, c in zip(entries, row.chain):
        for got, a in zip(entry.args, c.args):
            assert got == subst_vars(a, env)
            if len(a) == 1 and type(a[0]) is Var:
                assert got is env[a[0]]
            elif not seq_flags(a) & HAS_VAR:
                assert got is a


def _drives_as_the_reference(config, prog, now: int, num: int) -> tuple:
    """(branches, warnings) of ``drive`` from ``Clock(now)`` and
    ``ParamGen(num)``, asserting that ``ref_drive`` gives the same branches,
    clock, parameter supply and warnings, in order."""
    clock, pgen, warned = Clock(now), ParamGen(num), []
    ref_clock, ref_pgen, ref_warned = Clock(now), ParamGen(num), []
    got = drive(config, prog, clock, pgen, warned.append)
    assert got == ref_drive(config, prog, ref_clock, ref_pgen, ref_warned.append)
    assert (clock.now, pgen.next_num) == (ref_clock.now, ref_pgen.next_num)
    assert warned == ref_warned
    return got, warned


# rules over the characters that delimit or escape Python string literals
DQ, SQ, BS = Sym('"', char=True), Sym("'", char=True), Sym("\\", char=True)
EZ = Var("e", "z")
QUOTED = Program([
    FuncDef("F", 2, (
        Rule(((DQ, SX), (EX,)), (Call("G", ((SQ, SX, BS),)), DQ)),
        Rule(((SQ, Paren((BS, EY))), (SX, EZ)), (Paren((DQ,)), Call("F", ((SX,), (EY,))))),
        Rule(((BS,), (SX, SX, EX)), (Call("G", ((Call("G", ((EX,),)),),)),)),
        Rule(((EX,), (Paren((SQ, SX)),)),
             (SQ, EX, Call("G", ((SX,),)), Paren((BS, SX, DQ)), Call("G", ((EX,),)))),
    )),
    FuncDef("G", 1, (
        Rule(((DQ, EX),), (EX,)),
        Rule(((SX, EX),), (Call("G", ((EX, SX),)), BS)),
        Rule(((),), (SQ,)),
    )),
])
quoted_data = passive((DQ, SQ, BS) + S_PARAMS + E_PARAMS)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(("F", "G")), st.booleans(), st.data())
def test_rules_over_quote_characters_drive_as_the_reference(fname, close, data):
    if close:  # an instance of one rule's patterns, open where the values are
        rule = data.draw(st.sampled_from(QUOTED.rules(fname)))
        sym = st.sampled_from((DQ, SQ, BS) + S_PARAMS)
        values = {v: (data.draw(sym),) if v.kind == "s" else data.draw(quoted_data)
                  for v in vars_of(sum(rule.lhs, ()))}
        args = tuple(fill(p, Var, values.__getitem__) for p in rule.lhs)
    else:
        args = tuple(data.draw(quoted_data) for _ in range(QUOTED.arity(fname)))
    tail = data.draw(st.sampled_from(((BULLET,), (DQ, BULLET, Paren((SQ,))))))
    config = Configuration((TimedApp(fname, args, 1),), tail)
    now, num = data.draw(st.integers(10, 40)), data.draw(st.integers(100, 140))
    _drives_as_the_reference(config, QUOTED, now, num)


def test_deeply_nested_rules_drive_as_the_reference():
    # Python's parser refuses 200 nested parentheses; the generated source
    # nests to the same small depth whatever the rule's nesting
    deep, data = (EX,), (DQ, S_PARAMS[0])
    for _ in range(110):
        deep, data = (Paren(deep),), (Paren(data),)
    prog = Program([FuncDef("F", 1, (Rule((deep,), (Call("F", (deep,)), SQ) + deep),))])
    tags = []
    for arg in (data, (DQ,)):
        config = Configuration((TimedApp("F", (arg,), 1),), (BULLET,))
        got, _ = _drives_as_the_reference(config, prog, 5, 100)
        tags += [b.tag for b in got]
    assert tags == ["fired", "stuck"]


def test_symbol_decisions_under_a_shape_split_warn_as_the_reference():
    # F(e.1, s.2 s.3 s.4 s.5): e.1 is split against the paren; in the paren
    # case s.3 is decided against s.2, and in its equal case s.5 against
    # s.4, so the second warning comes before the first decision's
    # fall-through is walked
    prog = parse_program("F { (e.w) e.r, s.x s.x s.y s.y => A; e.u, e.v => B; }")
    args = ((Param("e", 1),), tuple(Param("s", i) for i in range(2, 6)))
    config = Configuration((TimedApp("F", args, 1),), (BULLET,))
    got, warned = _drives_as_the_reference(config, prog, 5, 100)
    assert [b.successor.tail for b in got] == [parse_expr(x) for x in "BBABB"]
    assert warned == [f"parameter-parameter symbol decision {d}" for d in ("s.3=s.2", "s.5=s.4")]


def test_generated_source_holds_no_program_text():
    rules = [r for fname in QUOTED.defs for r in QUOTED.rules(fname)]
    # a repeated e-variable, which no rule above has
    rules.append(Rule(((EX,), (Paren((EX,)),)), (EX,)))
    for rule in rules:
        chain, ctx = decompose_expr(rule.rhs)
        match_src = _match_source(rule.lhs)[0]
        for src in (match_src, _build_source(tuple(chain), ctx)[0]):
            # no string literal at all, so no symbol, name or message
            assert not {'"', "'", "\\"} & set(src)
            assert not {"F", "G", "x", "y", "z"} & set(src.split())
        # every miss goes through the module's decision, so the matcher
        # names no data it refuses and no check it leaves to that decision
        names = set(re.findall(r"\w+", match_src))
        assert not {"Call", "Bullet", "NotSupported", "is_ground"} & names


def test_rules_of_one_structure_share_a_compiled_function():
    # symbols, variables and function names differ; the structure is equal
    a = RuleRow(((SYMS[1], SX, Paren((EX,))),), (Call("F", ((SX, SYMS[2], EX),)),))
    b = RuleRow(((DQ, SY, Paren((EY,))),), (Call("G", ((SY, SQ, EY),)),))
    assert a.match.__code__ is b.match.__code__
    assert a.build.__code__ is b.build.__code__
    assert a.match is not b.match
    # a repeated variable is structure
    c = RuleRow(((SYMS[1], SX, Paren((SX,))),), (Call("F", ((SX, SYMS[2], EX),)),))
    assert c.match.__code__ is not a.match.__code__


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


def test_a_fixed_length_rest_leaves_one_split():
    # an e-hole whose rest at its level holds no e-hole can take one prefix
    # only: the matcher binds it without trying the others
    a, b = SYMS[1], SYMS[2]
    s1, e3 = S_PARAMS[0], E_PARAMS[0]
    subj = (a,) * 10_000
    for pat, want in [
        ((e3,), {e3: subj}),
        ((e3, s1), {e3: subj[:-1], s1: (a,)}),
        ((a, e3, Paren(())), None),
        ((e3, b), None),
    ]:
        budget = Budget(MATCH_BUDGET)
        assert inst_seq(pat, subj, {}, budget) == want
        assert MATCH_BUDGET - budget.n < 10
