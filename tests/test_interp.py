import random

import pytest

import models
from oracles import match_ground
from scpv.interp import FuelExhausted, UNDEFINED, eval_call
from scpv.lang import Sym, Var, parse_expr, parse_program


@pytest.fixture(scope="module")
def syn():
    return models.load("synapse.l")


def test_test_empty_dirty_true(syn):
    d = parse_expr("(Invalid I) (Dirty) (Valid I)")
    assert eval_call(syn, "Test", [d]) == (Sym("True"),)


def test_test_dirty_and_valid_false(syn):
    d = parse_expr("(Invalid) (Dirty I) (Valid I)")
    assert eval_call(syn, "Test", [d]) == (Sym("False"),)


def test_no_rule_matches_undefined():
    p = parse_program("F { 'a' : [] => 'b'; }")
    assert eval_call(p, "F", [parse_expr("'c'")]) is UNDEFINED


def test_main_single_rm(syn):
    assert eval_call(syn, "Main", [parse_expr("(rm) ( )")]) == (Sym("True"),)


def test_main_empty_time(syn):
    for is_part in ("", "I", "I I I"):
        d = parse_expr(f"( ) ({is_part})")
        assert eval_call(syn, "Main", [d]) == (Sym("True"),)


def test_match_ground_svar_tail():
    env = match_ground(parse_expr("s.x : e.r"), parse_expr("'a' 'b'"))
    assert env[Var("s", "x")] == (Sym("a", char=True),)
    assert env[Var("e", "r")] == (Sym("b", char=True),)


def test_match_ground_paren():
    env = match_ground(parse_expr("(e.p) : e.q"), parse_expr("('a') "))
    assert env[Var("e", "p")] == (Sym("a", char=True),)
    assert env[Var("e", "q")] == ()


def test_match_ground_nil_vs_data_fails():
    assert match_ground((), parse_expr("'a'")) is None


def test_match_repeated_var_requires_equal():
    pat = parse_expr("s.x : s.x : e.r")
    assert match_ground(pat, parse_expr("'a' 'a' 'b'")) is not None
    assert match_ground(pat, parse_expr("'a' 'b' 'b'")) is None


def test_determinism(syn):
    d = parse_expr("(rm wh2 rm) (I I)")
    assert eval_call(syn, "Main", [d]) == eval_call(syn, "Main", [d])


def test_strictness_undefined_argument():
    p = parse_program(
        """
        F { e.x => 'k'; }
        G { 'a' => 'a'; }
        H { e.x => F(G('b')); }
        """
    )
    # the argument G('b') is undefined, so the whole call is undefined even
    # though F ignores its argument
    assert eval_call(p, "H", [()]) is UNDEFINED


def test_fuel_exhaustion():
    p = parse_program("L { e.x => L(e.x); }")
    with pytest.raises(FuelExhausted):
        eval_call(p, "L", [()], fuel=1000)


def test_synapse_terminates_on_random_streams(syn):
    rnd = random.Random(3)
    for _ in range(300):
        t = " ".join(rnd.choice(["rm", "wh2", "wm"]) for _ in range(rnd.randint(0, 8)))
        k = " ".join("I" for _ in range(rnd.randint(0, 4)))
        d = parse_expr(f"({t}) ({k})")
        out = eval_call(syn, "Main", [d], fuel=10_000_000)
        assert out is UNDEFINED or out in ((Sym("True"),), (Sym("False"),))
        if out is not UNDEFINED:
            assert out == (Sym("True"),)
