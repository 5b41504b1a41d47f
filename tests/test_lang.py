import copy
import pickle

import pytest

import models
from oracles import multiplicity
from scpv.corpus import INT_SRC
from scpv.lang import (
    BULLET,
    Bullet,
    Call,
    LangError,
    Param,
    Paren,
    Sym,
    Var,
    parse_expr,
    parse_program,
    print_program,
    print_seq,
    validate_program,
    vars_of,
)


def test_parse_append_rules():
    text = """
    Append {
      ([]) : (e.ys) => e.ys;
      (s.x : e.xs) : (e.ys) => s.x : Append((e.xs) : (e.ys));
    }
    """
    p = parse_program(text)
    assert list(p.defs) == ["Append"]
    assert p.arity("Append") == 1
    assert len(p.rules("Append")) == 2


def test_smallest_definition():
    p = parse_program("F { [] => []; }")
    (rule,) = p.rules("F")
    assert rule.lhs == ((),)
    assert rule.rhs == ()


def test_free_variable_rejected():
    with pytest.raises(LangError) as e:
        parse_program("F { e.x => e.y; }")
    assert "free variable" in str(e.value)


def test_call_undefined_function_rejected():
    with pytest.raises(LangError):
        parse_program("F { e.x => G(e.x); }")


def test_arity_mismatch_rejected():
    with pytest.raises(LangError):
        parse_program("F { e.x => []; e.x, e.y => []; }")


def test_pattern_call_rejected():
    with pytest.raises(LangError):
        parse_program("F { e.x => []; } G { F(e.q) => []; }")


def test_mid_evar_pattern_rejected():
    with pytest.raises(LangError):
        parse_program("F { e.x 'a' => []; }")


def test_roundtrip_corpus():
    for p in (models.load("synapse.l"), parse_program(INT_SRC, validate=False)):
        assert parse_program(print_program(p), validate=False) == p


def test_empty_program_prints_empty():
    from scpv.lang import Program

    assert print_program(Program()) == ""


def test_append_prints_infix():
    e = parse_expr("e.x ++ 'a' 'b'")
    assert "++" in print_seq(e)
    assert parse_expr(print_seq(e)) == e


def test_multiplicity_direct_count():
    e = parse_expr("s.x : e.xs ++ e.xs")
    assert multiplicity(Var("e", "xs"), e) == 2
    assert multiplicity(Var("s", "x"), e) == 1


def test_multiplicity_nil_zero():
    assert multiplicity(Var("e", "x"), ()) == 0


def test_fig2_patterns_linear():
    # every variable occurs at most once in every Synapse pattern
    syn = models.load("synapse.l")
    for d in syn.defs.values():
        for r in d.rules:
            for pat in r.lhs:
                for v in vars_of(pat):
                    assert multiplicity(v, pat) < 2


def test_validation_totality_on_random_texts():
    # every parsed program yields a clean validation or diagnostics, never a crash
    bad = "F { (e.x => []; }"
    with pytest.raises(LangError):
        parse_program(bad)
    warn = parse_program("F { Call => Call; }", validate=False)
    msgs = validate_program(warn)
    assert any("reserved" in m for m in msgs)


def test_juxtaposition_and_cons_agree():
    assert parse_expr("(Invalid I e.is)") == parse_expr("(Invalid : I : e.is)")


def test_chars_and_idents_distinct():
    assert parse_expr("'a'") != parse_expr("a")
    assert parse_expr("'a'") == (Sym("a", char=True),)


def test_paren_pattern_tail_normalized():
    # the trailing-paren normalization: (e.time) : (e.is) is two paren terms
    p = parse_program("Main { (e.time) : (e.is) => []; }")
    (rule,) = p.rules("Main")
    (pat,) = rule.lhs
    assert len(pat) == 2 and all(isinstance(t, Paren) for t in pat)


# ---------------------------------------------------------------------------
# Item invariants

LEAF_ARGS = [
    (Sym, ("a",)),
    (Sym, ("a", True)),
    (Var, ("e", "x")),
    (Param, ("s", 3)),
    (Bullet, ()),
]
LEAF_IDS = ["sym", "char", "var", "param", "bullet"]


@pytest.mark.parametrize("cls, args", LEAF_ARGS, ids=LEAF_IDS)
def test_equal_leaves_are_one_object(cls, args):
    assert cls(*args) is cls(*args)
    assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__


def test_leaf_fields_tell_leaves_apart():
    assert Sym("a") is not Sym("a", char=True)
    assert Sym("a", char=True) is Sym("a", True)
    assert Var("s", "x") is not Var("e", "x")
    assert Param("e", 1) is not Param("e", 2)
    assert Bullet() is BULLET


@pytest.mark.parametrize(
    "it, field",
    [
        (Sym("a"), "name"),
        (Var("e", "x"), "kind"),
        (Param("s", 3), "num"),
        (BULLET, "flags"),
        (Paren((Sym("a"),)), "items"),
        (Call("F", ((Var("e", "x"),),)), "flags"),
    ],
    ids=["sym", "var", "param", "bullet", "paren", "call"],
)
def test_items_are_immutable(it, field):
    before = repr(it)
    with pytest.raises(AttributeError):
        setattr(it, field, None)
    with pytest.raises(AttributeError):
        delattr(it, field)
    assert repr(it) == before


@pytest.mark.parametrize("cls, args", LEAF_ARGS, ids=LEAF_IDS)
def test_copies_of_a_leaf_are_the_leaf(cls, args):
    it = cls(*args)
    assert copy.copy(it) is it
    assert copy.deepcopy(it) is it
    assert pickle.loads(pickle.dumps(it)) is it


def test_copies_of_a_composite_are_equal():
    p = Paren((Sym("a"), Call("F", ((Var("e", "x"),), (BULLET,)))))
    hash(p)
    for q in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert q == p and hash(q) == hash(p) and repr(q) == repr(p)
        assert q.flags == p.flags


class CountedHash:
    """An item whose every hash is counted."""

    flags = 0
    size = 1
    hashes = 0

    def __hash__(self):
        CountedHash.hashes += 1
        return 7


@pytest.mark.parametrize(
    "make", [lambda x: Paren((x,)), lambda x: Call("F", ((x,),))], ids=["paren", "call"]
)
def test_composites_hash_once(make):
    it = make(CountedHash())
    CountedHash.hashes = 0
    assert hash(it) == hash(it) == hash(it)
    assert CountedHash.hashes == 1
