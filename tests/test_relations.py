import random

from hypothesis import given, settings
from hypothesis import strategies as st

import models
from oracles import all_exprs, is_renaming, naive_embed, random_expr
from scpv.config import Clock, Configuration, ParamGen, TimedApp
from scpv.lang import BULLET, Call, Paren, Param, Sym, Var, iter_items, parse_expr
from scpv.relations import (
    _seq_embed,
    embed,
    strict_embed,
    turchin,
    whistle,
)


def test_fixed_facts():
    rnd = random.Random(2)
    for _ in range(50):
        t = random_expr(rnd, rnd.randint(0, 5))
        assert embed(t, (Paren(t),))
    assert embed((Param("e", 1),), (Param("e", 2),))
    assert embed((Var("e", "x"),), (Var("e", "y"),))
    assert not embed((Paren(()),), (Paren((Sym("a", char=True),)),))
    assert not embed((Paren(()),), (Paren((Var("s", "v"),)),))


def test_nil_embeds_everywhere():
    assert embed((), parse_expr("'a' ('b') e.x"))


def test_subsequence_embedding():
    rnd = random.Random(4)
    for _ in range(100):
        t = random_expr(rnd, rnd.randint(1, 6))
        idx = sorted(rnd.sample(range(len(t)), rnd.randint(1, len(t))))
        sub = tuple(t[i] for i in idx)
        assert embed(sub, t)


def test_agrees_with_naive_exhaustive():
    # all ground pairs over {'a', I} with combined size at most 8, under
    # the published relation and the whistle's guarded variant
    by_size = {n: list(all_exprs(n)) for n in range(8)}
    pairs = 0
    for guard in (False, True):
        for i in range(8):
            for j in range(8 - i):
                for a in by_size[i]:
                    for b in by_size[j]:
                        got = embed(a, b, guard)
                        assert got == naive_embed(a, b, guard), (a, b, guard)
                        pairs += 1
    assert pairs > 200_000


def test_agrees_with_naive_random():
    rnd = random.Random(6)
    for _ in range(10_000):
        a = random_expr(rnd, rnd.randint(0, 20), evars=2, svars=2)
        b = random_expr(rnd, rnd.randint(0, 20), evars=2, svars=2)
        for guard in (False, True):
            assert embed(a, b, guard) == naive_embed(a, b, guard), (a, b, guard)


LEAVES = (
    Sym("I"), Sym("A"), Var("s", "x"), Var("e", "y"), Param("s", 1), Param("e", 2), BULLET
)
items = st.recursive(
    st.sampled_from(LEAVES),
    lambda kids: st.one_of(
        st.lists(kids, max_size=3).map(lambda xs: Paren(tuple(xs))),
        st.builds(
            lambda f, args: Call(f, tuple(tuple(a) for a in args)),
            st.sampled_from(("F", "G")),
            st.lists(st.lists(kids, max_size=3), max_size=2),
        ),
    ),
    max_leaves=12,
)
seqs = st.lists(items, max_size=5).map(tuple)


@st.composite
def seq_pairs(draw):
    """(a, b) where b is drawn freely or built around a, so that a often
    embeds into b."""
    a, pre, post = draw(seqs), draw(seqs), draw(seqs)
    b = draw(
        st.sampled_from(
            (post, pre + a + post, pre + (Paren(a + post),), (Call("F", (pre, a)),) + post)
        )
    )
    return a, b


@settings(max_examples=300, deadline=None)
@given(seq_pairs(), st.booleans())
def test_embedding_closed_under_dropping_the_head(pair, guard):
    # the lemma that makes the greedy scan of _seq_embed complete, checked
    # on the clause-by-clause oracle, which the scan must agree with here too
    a, b = pair
    holds = naive_embed(a, b, guard)
    assert embed(a, b, guard) == holds
    if holds:
        assert naive_embed(a[1:], b, guard)


@settings(max_examples=300, deadline=None)
@given(seq_pairs(), st.booleans())
def test_embedding_never_grows(pair, guard):
    # the size lemma _seq_embed prunes by: an embedding maps the items of a
    # one-to-one into those of b, at any depth
    a, b = pair
    if naive_embed(a, b, guard):
        assert len(list(iter_items(a))) <= len(list(iter_items(b)))


def test_long_sequences_embed():
    # the recursive decision procedure overflowed the stack here
    for item in (Sym("I"), Paren((Sym("A"),))):
        assert embed((item,) * 2000, (item,) * 2001)


def test_long_paren_sequences_embed_in_one_scan():
    # no remainder dives into a head no larger than itself, so 2,000 parens
    # embed into 2,001 with one memo entry, not one per dive
    item = Paren((Sym("A"),))
    _seq_embed.cache_clear()
    assert embed((item,) * 2000, (item,) * 2001)
    assert _seq_embed.cache_info().misses == 1


def test_reflexive_transitive_random():
    rnd = random.Random(8)
    triples = 0
    for _ in range(10_000):
        a = random_expr(rnd, rnd.randint(0, 6))
        b = random_expr(rnd, rnd.randint(0, 6))
        c = random_expr(rnd, rnd.randint(0, 6))
        assert embed(a, a)
        if embed(a, b) and embed(b, c):
            triples += 1
            assert embed(a, c), (a, b, c)
    assert triples > 50


def test_monotonicity_corollary():
    rnd = random.Random(10)
    found = 0
    for _ in range(2000):
        a = random_expr(rnd, rnd.randint(0, 4))
        b = random_expr(rnd, rnd.randint(0, 4))
        if embed(a, b):
            continue
        found += 1
        pre = random_expr(rnd, rnd.randint(0, 3))
        post = random_expr(rnd, rnd.randint(0, 3))
        fa = (Call("f", (pre + a + post,)),)
        fb = (Call("f", (pre + b + post,)),)
        assert not embed(fa, fb)
    assert found > 100


def test_strict_embedding():
    p = parse_expr("('a' 'b')")
    assert not strict_embed(p, p)
    assert strict_embed(parse_expr("'a'"), p)


def test_encoded_subpattern_strictly_embeds():
    from scpv.encoding import encode_expr

    whole = encode_expr(parse_expr("(Invalid I e.is) : (Dirty e.ds)"))
    piece = encode_expr(parse_expr("(Dirty e.ds)"))
    assert strict_embed(piece, whole)
    assert not strict_embed(whole, piece)


# ---------------------------------------------------------------------------
# Turchin's relation


def _app(name, time, args=((),)):
    return TimedApp(name, args, time)


def _cfg(*apps):
    entries = []
    for i, a in enumerate(apps):
        args = a.args if i == 0 else ((BULLET,),)
        entries.append(TimedApp(a.fname, args, a.time))
    return Configuration(tuple(entries), (BULLET,))


def test_turchin_section_example():
    c1 = _cfg(_app("f", 4), _app("f", 3), _app("g", 2), _app("t", 1))
    c2 = _cfg(_app("f", 10), _app("f", 7), _app("g", 5), _app("h", 9), _app("t", 1))
    w = turchin(c1, c2)
    assert w is not None
    assert [e.fname for e in w.context_i] == ["t"]
    assert [e.time for e in w.context_i] == [1]
    assert [e.time for e in w.prefix_i] == [4, 3, 2]
    assert [e.time for e in w.prefix_j] == [10, 7, 5]


def _a3_path():
    """The non-transitivity example path, constructed with exact labels."""
    exs = (Var("e", "xs"),)
    d = (Sym("d", char=True),)
    dd = (Sym("d", char=True), Sym("d", char=True))
    c1 = Configuration(
        (
            TimedApp("Fab", (exs,), 3),
            TimedApp("Fb", ((BULLET,),), 2),
            TimedApp("C", ((BULLET,),), 1),
        ),
        (BULLET,),
    )
    c2 = Configuration(
        (
            TimedApp("Fab", (exs,), 5),
            TimedApp("Fc", ((BULLET,),), 4),
            TimedApp("Fb", ((BULLET,),), 2),
            TimedApp("C", ((BULLET,),), 1),
        ),
        (BULLET,),
    )
    c3 = Configuration(
        (
            TimedApp("Fab", (d,), 10),
            TimedApp("Fc", ((BULLET,),), 9),
            TimedApp("Fb", ((BULLET,),), 7),
            TimedApp("E", ((d + (BULLET,)),), 6),
            TimedApp("C", ((BULLET,),), 1),
        ),
        (BULLET,),
    )
    return c1, c2, c3


def test_a3_regression():
    c2, c3, c7 = _a3_path()
    w23 = turchin(c2, c3)
    assert w23 is not None
    assert [(e.fname, e.time) for e in w23.context_i] == [("Fb", 2), ("C", 1)]
    assert [(e.fname, e.time) for e in w23.prefix_i] == [("Fab", 3)]
    assert [(e.fname, e.time) for e in w23.prefix_j] == [("Fab", 5)]

    w37 = turchin(c3, c7)
    assert w37 is not None
    assert [(e.fname, e.time) for e in w37.context_i] == [("C", 1)]
    assert [(e.fname, e.time) for e in w37.prefix_i] == [
        ("Fab", 5),
        ("Fc", 4),
        ("Fb", 2),
    ]
    assert [(e.fname, e.time) for e in w37.prefix_j] == [
        ("Fab", 10),
        ("Fc", 9),
        ("Fb", 7),
    ]

    assert turchin(c2, c7) is None  # the relation is not transitive


def test_identical_configuration_no_witness():
    c = _cfg(_app("f", 4), _app("g", 2))
    assert turchin(c, c) is None


def test_whistle_single_node_continue():
    c = _cfg(_app("f", 1))
    assert not whistle([], c).is_act


def test_whistle_turchin_act():
    c2, c3, _ = _a3_path()
    d = whistle([c2], c3)
    assert d.is_act and d.kind == "turchin" and d.witness.l == 2


def test_whistle_prefix_not_embedding_continues():
    # name-equal prefixes whose arguments shrink strictly do not whistle
    small = (Sym("I"),)
    big = (Sym("I"), Sym("I"))
    ci = Configuration(
        (TimedApp("Match", (big,), 5), TimedApp("Eval", ((BULLET,),), 1)), (BULLET,)
    )
    cj = Configuration(
        (
            TimedApp("Match", (small,), 9),
            TimedApp("Match", ((BULLET,),), 8),
            TimedApp("Eval", ((BULLET,),), 1),
        ),
        (BULLET,),
    )
    assert turchin(ci, cj) is not None
    assert not whistle([ci], cj).is_act


def test_whistle_embed_fallback_accumulator():
    # same-shaped stacks with no shared labels fall back to embedding
    anc = Configuration(
        (TimedApp("Loop", (parse_expr("(Valid I)"),), 3),), (BULLET,)
    )
    cur = Configuration(
        (TimedApp("Loop", (parse_expr("(Valid I I)"),), 9),), (BULLET,)
    )
    d = whistle([anc], cur)
    assert d.is_act and d.kind == "embed"


def test_whistle_guarded_base_case_continues():
    # an empty counter growing to one item is an induction base case
    anc = Configuration(
        (TimedApp("Loop", (parse_expr("(Dirty)"),), 3),), (BULLET,)
    )
    cur = Configuration(
        (TimedApp("Loop", (parse_expr("(Dirty I)"),), 9),), (BULLET,)
    )
    assert not whistle([anc], cur).is_act


def test_well_disordering_budget_on_corpus_paths():
    # with the whistle acting disabled, every explored driving path of the
    # direct model reaches a whistle pair (or terminates) within the step
    # budget standing in for the infinite-path theorem
    from scpv.config import Clock, ParamGen
    from scpv.driving import drive
    from scpv.engine import make_entry_config

    syn = models.load("synapse.l")
    entry = make_entry_config(syn, "Main")
    clock, pgen = Clock(), ParamGen()
    budget = 10_000
    paths_done = 0
    work = [(entry, [], 0)]
    steps = 0
    while work and paths_done < 25 and steps < budget:
        cfg, path, depth = work.pop()
        steps += 1
        branches = drive(cfg, syn, clock, pgen)
        if not branches:  # a passive value
            paths_done += 1
            continue
        live = [b for b in branches if b.tag != "stuck"]
        if not live:
            paths_done += 1
            continue
        transitive = len(branches) == 1 and is_renaming(branches[0].contraction)
        for b in live:
            if transitive:
                work.append((b.successor, path, depth + 1))
            else:
                d = whistle([c for c in path], cfg)
                if d.is_act:
                    paths_done += 1
                    break
                work.append((b.successor, path + [cfg], depth + 1))
    assert steps < budget, "a corpus path exceeded the whistle budget"
    assert paths_done >= 10
