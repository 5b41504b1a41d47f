"""Each step builds only what it reads, and exactly what it built before:
successors built when first read, fold candidates passed over on their fold
keys, and chain keys as flat tuples."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import models
from oracles import (
    E_PARAMS,
    S_PARAMS,
    open_data,
    ref_chain_key,
    ref_drive,
    ref_find_fold,
)
from scpv import engine
from scpv.config import Clock, Configuration, ParamGen, TimedApp, subst_config
from scpv.driving import Branch, drive
from scpv.engine import Engine, Limits, _chain_key, verify_protocol
from scpv.lang import BULLET, Paren, Param, Sym, contains_call, parse_expr


def _record_drives(model, mode, passes=1):
    """(config, program, clock.now, pgen.next_num) of every drive in a run
    of ``verify_protocol``."""
    seen = []
    real = engine.drive

    def recording(config, prog, clock, pgen, warn=None):
        seen.append((config, prog, clock.now, pgen.next_num))
        return real(config, prog, clock, pgen, warn)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "drive", recording)
        verify_protocol(model, mode=mode, passes=passes, model_name="Synapse")
    return seen


def _unread(branch: Branch) -> bool:
    """The branch still holds the inputs of its successor: nothing has read
    it."""
    return type(branch._successor) is tuple


def _kind(config, prog) -> str:
    """'split' for a let-split at height 1, 'deep' for a narrowing under a
    stack of at least four entries, else 'other'."""
    branches = drive(config, prog, Clock(10**6), ParamGen(10**6))
    if len(config.stack) == 1 and any(b.deferred for b in branches):
        return "split"
    if len(config.stack) >= 4 and any(b.contraction for b in branches):
        return "deep"
    return "other"


@pytest.fixture(scope="module")
def drive_cases():
    """Drives of the shipped models whose top entry holds no call: every
    fifth, and up to 30 let-splits at height 1 and 30 narrowings under a
    deep stack, which the indirect runs make."""
    syn = models.load("synapse.l")
    runs = [(syn, "direct"), (syn, "indirect"), (models.load("mesi.spec"), "direct")]
    cases, counts = [], {"split": 0, "deep": 0}
    for model, mode in runs:
        for i, (config, prog, now, num) in enumerate(_record_drives(model, mode)):
            if not config.stack or any(contains_call(a) for a in config.stack[0].args):
                continue
            kind = _kind(config, prog)
            if kind != "other" and counts[kind] < 30:
                counts[kind] += 1
            elif i % 5:
                continue
            cases.append((config, prog, now, num))
    assert counts == {"split": 30, "deep": 30}
    return cases


def test_drive_reads_nothing_and_builds_the_reference_successors(drive_cases):
    for config, prog, now, num in drive_cases:
        clock, pgen = Clock(now), ParamGen(num)
        ref_clock, ref_pgen = Clock(now), ParamGen(num)
        got = drive(config, prog, clock, pgen)
        want = ref_drive(config, prog, ref_clock, ref_pgen)
        # no successor read yet: the labels and parameters are already taken
        assert (clock.now, pgen.next_num) == (ref_clock.now, ref_pgen.next_num)
        for b in got:
            assert _unread(b) == (b.tag == "fired" and not b.deferred)
        assert got == want
        for b in got:
            assert not _unread(b)
        assert (clock.now, pgen.next_num) == (ref_clock.now, ref_pgen.next_num)


def test_a_read_successor_is_kept_and_its_inputs_dropped():
    syn = models.load("synapse.l")
    config = Configuration((TimedApp("Main", (parse_expr("(rm) (I)"),), 0),), (BULLET,))
    (b,) = drive(config, syn, Clock(), ParamGen())
    assert _unread(b)
    succ = b.successor
    assert b.successor is succ and not _unread(b)
    assert repr(b).startswith("Branch(contraction={}, successor=")
    assert b == Branch({}, succ, "fired")


@pytest.mark.parametrize("mode", ["direct", "indirect"])
def test_find_fold_agrees_with_a_linear_scan(mode):
    lookups, found, differ = [], [], []
    real = Engine._find_fold

    def checked(self, config, candidate_ids):
        ids = list(candidate_ids)
        got = real(self, config, ids)
        want = ref_find_fold(self.graph, config, ids)
        lookups.append(len(ids))
        if got is not None:
            found.append(got[0])
        if got != want or (got and list(got[1].items()) != list(want[1].items())):
            differ.append((config, got, want))
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Engine, "_find_fold", checked)
        verify_protocol(models.load("synapse.l"), mode=mode, passes=2, model_name="Synapse")
    assert differ == []
    assert len(lookups) > 50 and sum(lookups) > 2 * len(lookups) and found


def test_a_fold_key_is_renewed_when_its_node_is_rewritten():
    # a restart gives a node a new configuration: the key made for the old
    # one must not pass over the new one
    syn = models.load("synapse.l")
    eng = Engine(syn, Limits())
    p, q = Param("e", 1), Param("e", 2)
    query = Configuration((TimedApp("Test", ((Sym("I"),),), 5),), (BULLET,))
    node = eng.graph.new_node(
        Configuration((TimedApp("Loop", ((p,),), 0),), (BULLET,))
    )
    assert eng._find_fold(query, [node.id]) is None
    old_key = node.fold_key
    node.config = Configuration((TimedApp("Test", ((q,),), 0),), (BULLET,))
    assert eng._find_fold(query, [node.id]) == (node.id, {q: (Sym("I"),)})
    assert node.fold_key is not old_key and node.fold_key[0] is node.config


def test_dead_nodes_keep_no_fold_key():
    eng = Engine(models.load("synapse.l"), Limits())
    p = Param("e", 1)
    eng.run(Configuration((TimedApp("Main", ((p,),), 0),), (BULLET,)))
    nodes = eng.graph.nodes.values()
    assert any(n.fold_key is not None for n in nodes)
    assert any(n.dead for n in nodes)
    assert all(n.fold_key is None for n in nodes if n.dead)


# ---------------------------------------------------------------------------
# Flat chain keys

DEEP_A = Paren((Paren((Paren((Sym("a", char=True),)),)),))
DEEP_I = Paren((Paren((Paren((Sym("I"),)),)),))
PARAMS = S_PARAMS + E_PARAMS


def _config(args, tail):
    stack = tuple(TimedApp(f, tuple(a), t) for t, (f, a) in enumerate(args))
    return Configuration(stack, tail)


configs = st.builds(
    _config,
    st.lists(
        st.tuples(st.sampled_from(["F", "G"]), st.lists(open_data, min_size=1, max_size=2)),
        max_size=3,
    ),
    open_data,
)


def _renamed(c, mapping, relabel=0):
    theta = {p: (q,) for p, q in mapping.items()}
    r = subst_config(c, theta)
    return Configuration(
        tuple(TimedApp(e.fname, e.args, e.time + relabel) for e in r.stack), r.tail
    )


@st.composite
def config_pairs(draw):
    c = draw(configs)
    how = draw(st.sampled_from(["rename", "swap", "deep", "other"]))
    if how == "rename":
        fresh = draw(st.permutations(range(50, 54)))
        mapping = {p: Param(p.kind, n) for p, n in zip(PARAMS, fresh)}
        return c, _renamed(c, mapping, draw(st.integers(0, 9))), True
    if how == "swap":
        mapping = {p: Param("e" if p.kind == "s" else "s", p.num) for p in PARAMS}
        return c, _renamed(c, mapping), None
    if how == "deep":
        p = draw(st.sampled_from(PARAMS))
        deep_a = _config([("F", [(DEEP_A, p)])], c.tail)
        return deep_a, _config([("F", [(DEEP_I, p)])], c.tail), False
    return c, draw(configs), None


@settings(max_examples=400, deadline=None)
@given(config_pairs())
def test_chain_keys_are_equal_exactly_for_renamings(pair):
    c, d, renaming = pair
    key_c, params_c = _chain_key(c)
    key_d, _ = _chain_key(d)
    ref_c, ref_params_c = ref_chain_key(c)
    ref_d, _ = ref_chain_key(d)
    assert params_c == ref_params_c
    assert (key_c == key_d) == (ref_c == ref_d)
    if renaming is not None:
        assert (key_c == key_d) is renaming


def test_swapped_parameter_kinds_give_different_keys():
    s, e = Param("s", 1), Param("e", 1)
    c = _config([("F", [(s, Sym("I"))])], (BULLET,))
    d = _config([("F", [(e, Sym("I"))])], (BULLET,))
    assert _chain_key(c)[0] != _chain_key(d)[0]
    assert ref_chain_key(c)[0] != ref_chain_key(d)[0]
