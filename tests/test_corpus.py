import random

import pytest

import models
from scpv.corpus import (
    INT_SRC,
    generate_model,
    int_entry_args,
    parse_protocol_spec,
    self_interpreter,
)
from scpv.encoding import encode_expr
from scpv.interp import UNDEFINED, eval_call
from scpv.lang import LangError, Paren, Sym, parse_expr, parse_program, validate_program


@pytest.fixture(scope="module")
def syn():
    return models.load("synapse.l")


@pytest.fixture(scope="module")
def interp(syn):
    return self_interpreter({"Synapse": syn})


def _random_input(rnd, junk=False):
    events = ["rm", "wh2", "wm"] + (["junk"] if junk else [])
    t = " ".join(rnd.choice(events) for _ in range(rnd.randint(0, 6)))
    k = " ".join("I" for _ in range(rnd.randint(0, 4)))
    return parse_expr(f"({t}) ({k})")


def _random_malformed(rnd):
    from oracles import random_ground

    return random_ground(rnd, rnd.randint(0, 5))


def test_interpreter_functions_present(syn, interp):
    assert not [d for d in validate_program(interp) if d.startswith("error")]
    names = list(parse_program(INT_SRC, validate=False).defs) + ["Prog"]
    assert set(names) == set(interp.defs)
    for name in names:
        with pytest.raises(LangError, match=f"program name {name} collides"):
            self_interpreter({name: syn})


def test_interpreter_fidelity_sampled(syn, interp):
    rnd = random.Random(101)
    undefined_seen = 0
    for i in range(500):
        d = _random_input(rnd, junk=True) if i % 3 else _random_malformed(rnd)
        direct = eval_call(syn, "Main", [d])
        via = eval_call(interp, "Int", int_entry_args("Synapse", "Main", encode_expr(d)))
        if direct is UNDEFINED:
            undefined_seen += 1
            assert via is UNDEFINED
        else:
            assert via == encode_expr(direct)
    assert undefined_seen > 30  # malformed shapes really exercise the deadlock


def test_interpreter_deadlock_is_undefined(interp):
    # a call whose data matches no rule interrupts the interpretation
    bad = encode_expr(parse_expr("'a' 'b'"))
    assert eval_call(interp, "Int", int_entry_args("Synapse", "Main", bad)) is UNDEFINED


def test_empty_program_map():
    empty = self_interpreter({})
    entry = int_entry_args("Synapse", "Main", encode_expr(parse_expr("( ) ( )")))
    assert eval_call(empty, "Int", entry) is UNDEFINED


def test_name_collision_rejected(syn):
    with pytest.raises(LangError):
        self_interpreter({"Eval": syn})


def test_distinct_rules_have_distinct_rhs_rest_pairs(syn):
    # the syntactic property the folding argument relies on
    seen = set()
    for d in syn.defs.values():
        for i, r in enumerate(d.rules):
            rest = tuple(d.rules[i + 1 :])
            key = (r.rhs, rest)
            assert key not in seen
            seen.add(key)


def test_mutant_reaches_false(syn):
    mut = models.load("synapse_unsafe_mutant.l")
    d = parse_expr("(rm wm) (I)")
    assert eval_call(mut, "Main", [d]) == (Sym("False"),)
    assert eval_call(syn, "Main", [d]) == (Sym("True"),)


def test_spec_parses():
    spec = models.spec("synapse.spec")
    assert spec.name == "synapse"
    assert [c.name for c in spec.counters] == ["invalid", "dirty", "valid"]
    assert [e.name for e in spec.events] == ["rh", "rm", "wh1", "wh2", "wm"]
    assert len(spec.unsafe) == 2


def test_generated_equals_handwritten(syn):
    gen = models.load("synapse.spec")
    rnd = random.Random(55)
    for _ in range(500):
        d = _random_input(rnd, junk=True)
        a = eval_call(syn, "Main", [d])
        b = eval_call(gen, "Main", [d])
        if a is UNDEFINED:
            assert b is UNDEFINED
        else:
            assert a == b


def test_generated_models_terminate():
    gen = models.load("synapse.spec")
    rnd = random.Random(57)
    for _ in range(10_000):
        t = " ".join(rnd.choice(["rm", "wh2", "wm"]) for _ in range(rnd.randint(0, 6)))
        k = " ".join("I" for _ in range(rnd.randint(0, 3)))
        eval_call(gen, "Main", [parse_expr(f"({t}) ({k})")], fuel=1_000_000)


def test_zero_event_spec():
    spec = parse_protocol_spec(
        """
        protocol p
        counter c init param
        unsafe c >= 2
        """
    )
    gen = generate_model(spec)
    assert eval_call(gen, "Main", [parse_expr("(x) ( )")]) is UNDEFINED
    assert eval_call(gen, "Main", [parse_expr("( ) ( )")]) == (Sym("True"),)


def test_unsafe_two_dirty_pattern():
    gen = models.load("synapse.spec")
    test_rules = gen.rules("Test")
    pat = test_rules[1].lhs[0]
    dirty = pat[1]
    assert isinstance(dirty, Paren)
    assert dirty.items[:3] == (Sym("Dirty"), Sym("I"), Sym("I"))


def test_external_specs_parse_and_run():
    for name in ("msi.spec", "mesi.spec"):
        model = models.load(name)
        assert eval_call(model, "Main", [parse_expr("( ) ( )")]) == (Sym("True"),)
