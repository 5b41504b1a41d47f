import random

import pytest

import models
from oracles import random_program
from scpv.encoding import (
    DecodeError,
    NotEncodable,
    decode_expr,
    decode_program,
    encode_expr,
    encode_program,
)
from scpv.lang import Call, Paren, Sym, Var, parse_expr, parse_program


def test_encode_variable():
    assert encode_expr((Var("e", "time"),)) == (
        Paren((Sym("Var"), Sym("e", char=True), Sym("time"))),
    )
    assert encode_expr((Var("s", "n"),)) == (
        Paren((Sym("Var"), Sym("s", char=True), Sym("n"))),
    )


def test_encode_symbol_and_nil_fixed_points():
    assert encode_expr((Sym("True"),)) == (Sym("True"),)
    assert encode_expr(()) == ()


def test_encode_application():
    e = (Call("Loop", ((Var("e", "x"),),)),)
    enc = encode_expr(e)
    assert enc == (
        Paren((Sym("Call"), Sym("Loop"), Paren((Sym("Var"), Sym("e", char=True), Sym("x"))))),
    )


def test_encode_paren_marker():
    assert encode_expr((Paren((Sym("I"),)),)) == (Paren((Sym("*", char=True), Sym("I"))),)


def test_cons_homomorphism():
    rnd = random.Random(5)
    from oracles import random_expr

    for _ in range(200):
        a = random_expr(rnd, rnd.randint(0, 4), evars=2, svars=2)
        b = random_expr(rnd, rnd.randint(0, 4), evars=2, svars=2)
        assert encode_expr(a + b) == encode_expr(a) + encode_expr(b)


def test_synapse_roundtrip():
    syn = models.load("synapse.l")
    assert decode_program(encode_program(syn)) == syn


def test_raw_var_datum_decodes_as_variable():
    d = parse_expr("(Var 's' n)")
    assert decode_expr(d) == (Var("s", "n"),)


def test_nil_is_encoded_nil_but_not_a_program():
    assert decode_expr(()) == ()
    with pytest.raises(DecodeError):
        decode_program(())


def test_non_unary_not_encodable():
    p = parse_program("F { e.x, e.y => e.x; }")
    with pytest.raises(NotEncodable):
        encode_program(p)


def test_decode_error_path():
    with pytest.raises(DecodeError):
        decode_expr((Paren((Sym("Bogus"), Sym("x"))),))


def test_injectivity_random_programs():
    rnd = random.Random(17)
    seen = {}
    for i in range(1000):
        p = random_program(rnd)
        enc = encode_program(p)
        if enc in seen:
            assert seen[enc] == p
        else:
            seen[enc] = p
    # distinct programs encode distinctly
    progs = list(seen.values())
    assert len({encode_program(p) for p in progs}) == len(progs)


def test_roundtrip_random_programs():
    rnd = random.Random(23)
    for _ in range(300):
        p = random_program(rnd)
        assert decode_program(encode_program(p)) == p
