"""The self-interpreter, and the generator that compiles a counting-abstraction
protocol spec into a model program. The models themselves are files in
``protocols/``."""

from __future__ import annotations

from dataclasses import dataclass

from .encoding import encode_program
from .lang import (
    Call,
    FuncDef,
    LangError,
    Paren,
    Program,
    Rule,
    Seq,
    Sym,
    Var,
    parse_program,
)

INT_SRC = """
-- Interpreter for the unary, append-free fragment of the language.
Int { (Call s.f e.d), e.P => Eval(EvalCall(s.f, e.d, e.P), e.P); }

Eval {
  (e.env) : (Call s.f e.q) : e.exp, e.P =>
      Eval(EvalCall(s.f, Eval((e.env) : e.q, e.P), e.P), e.P) ++ Eval((e.env) : e.exp, e.P);
  (e.env) : (Var e.var) : e.exp, e.P =>
      Subst(e.env, (Var e.var)) ++ Eval((e.env) : e.exp, e.P);
  (e.env) : ('*' e.q) : e.exp, e.P =>
      ('*' Eval((e.env) : e.q, e.P)) : Eval((e.env) : e.exp, e.P);
  (e.env) : s.x : e.exp, e.P => s.x : Eval((e.env) : e.exp, e.P);
  (e.env), e.P => [];
}

EvalCall { s.f, e.d, (Prog s.n) => Matching(F, [], LookFor(s.f, Prog(s.n)), e.d); }

Matching {
  F, e.old, ((e.p) '=' (e.exp)) : e.def, e.d =>
      Matching(Match(e.p, e.d, ([])), e.exp, e.def, e.d);
  (e.env), e.exp, e.def, e.d => (e.env) : e.exp;
}

Match {
  (Var 'e' s.n), e.d, (e.env) => PutVar((Var 'e' s.n) : e.d, (e.env));
  (Var 's' s.n) : e.p, s.x : e.d, (e.env) =>
      Match(e.p, e.d, PutVar((Var 's' s.n) : s.x, (e.env)));
  ('*' e.q) : e.p, ('*' e.x) : e.d, (e.env) =>
      Match(e.p, e.d, Match(e.q, e.x, (e.env)));
  s.x : e.p, s.x : e.d, (e.env) => Match(e.p, e.d, (e.env));
  [], [], (e.env) => (e.env);
  e.p, e.d, e.fail => F;
}

PutVar { e.assign, (e.env) => CheckRepVar(PutV((e.assign), e.env, [])); }

PutV {
  ((Var s.t s.n) : e.val), ((Var s.t s.n) : e.pval) : e.env, e.penv =>
      (Eq(e.val, e.pval)) : ((Var s.t s.n) : e.pval) : e.env;
  (e.assign), (e.passign) : e.env, e.penv =>
      PutV((e.assign), e.env, (e.passign) : e.penv);
  (e.assign), [], e.penv => (T) : (e.assign) : e.penv;
}

CheckRepVar {
  (T) : e.env => (e.env);
  (F) : e.env => F;
}

Eq {
  s.x : e.xs, s.x : e.ys => Eq(e.xs, e.ys);
  ('*' e.x) : e.xs, ('*' e.y) : e.ys => ContEq(Eq(e.x, e.y), e.xs, e.ys);
  [], [] => T;
  e.xs, e.ys => F;
}

ContEq {
  F, e.xs, e.ys => F;
  T, e.xs, e.ys => Eq(e.xs, e.ys);
}

LookFor {
  s.f, (s.f : e.def) : e.P => e.def;
  s.f, (s.g : e.def) : e.P => LookFor(s.f, e.P);
}

Subst {
  ((Var s.t s.n) : e.val) : e.env, (Var s.t s.n) => e.val;
  (e.assign) : e.env, e.var => Subst(e.env, e.var);
}
"""


def self_interpreter(programs: dict) -> Program:
    """The interpreter plus a Prog dispatch over the given models, each
    encoded here; ``programs`` maps a name symbol to a Program."""
    prog = parse_program(INT_SRC, validate=False)
    rules = []
    for name, model in programs.items():
        if name in prog.defs or name == "Prog":
            raise LangError(f"program name {name} collides with an interpreter function")
        (data,) = encode_program(model)
        rules.append(Rule(((Sym(name),),), data.items))
    if not rules:
        # a Prog with no programs: any lookup is undefined
        rules.append(Rule(((Sym("NoProgram"),),), ()))
    return prog.extended(FuncDef("Prog", 1, tuple(rules)))


def int_entry_args(model_name: str, entry: str, encoded_input: Seq):
    """Argument pair for Int: the encoded entry call and the Prog reference."""
    return [
        (Paren((Sym("Call"), Sym(entry)) + tuple(encoded_input)),),
        (Paren((Sym("Prog"), Sym(model_name))),),
    ]


# ---------------------------------------------------------------------------
# Counting-abstraction protocol specifications


@dataclass
class CounterSpec:
    name: str
    parameterized: bool


@dataclass
class EventSpec:
    name: str
    # alternative guards (a disjunction), each a dict counter -> k that
    # stands for the conjunction of counter >= k
    rows: list
    updates: dict  # counter -> (constant, [counter refs]); absent = unchanged


@dataclass
class CountingProtocolSpec:
    name: str
    counters: list
    events: list
    unsafe: list  # list of dicts counter -> k


def _bounds(words: list):
    """The conjunction ``c >= k, c >= k, ...`` as {c: k}, or None when the
    words do not have that form."""
    if len(words) % 4 != 3:
        return None
    bounds = {}
    for i in range(0, len(words), 4):
        c, op, k = words[i : i + 3]
        if op != ">=" or not k.isdecimal() or words[i + 3 : i + 4] not in ([], [","]):
            return None
        bounds[c] = int(k)
    return bounds


def _is_word(name: str) -> bool:
    """Letters, digits and ``_``: one symbol when a model is printed and read back."""
    return all(c.isalnum() or c == "_" for c in name)


def parse_protocol_spec(text: str) -> CountingProtocolSpec:
    """Parse a spec; a malformed line or name raises LangError naming the line."""
    name = "protocol"
    counters: list = []
    events: list = []
    unsafe: list = []
    cur: EventSpec | None = None
    for n, raw in enumerate(text.splitlines(), 1):
        line = raw.split("--")[0].strip()
        if not line:
            continue
        head, *args = line.replace(",", " , ").split()
        if head == "protocol" and len(args) == 1:
            name = args[0]
        elif (head == "counter" and args and _is_word(args[0])
              and args[1:] in ([], ["init", "zero"], ["init", "param"])):
            counters.append(CounterSpec(args[0], args[2:] == ["param"]))
        elif head == "event" and len(args) == 1 and _is_word(args[0]):
            cur = EventSpec(args[0], [{}], {})
            events.append(cur)
        elif head == "alt" and not args and cur is not None:
            cur.rows.append({})
        elif head == "guard" and cur is not None and (bounds := _bounds(args)):
            # guard <counter> >= <k>, ...: conjoined to the current row
            cur.rows[-1].update(bounds)
        elif (head == "update" and cur is not None and len(args) % 2 and len(args) > 2
              and args[1] == ":=" and set(args[3::2]) <= {"+"}):
            # update <counter> := term + term + ...
            terms = args[2::2]
            const = sum(int(t) for t in terms if t.isdecimal())
            refs = [t for t in terms if not t.isdecimal()]
            cur.updates[args[0]] = (const, refs)
        elif head == "unsafe" and (bounds := _bounds(args)):
            unsafe.append(bounds)
        else:
            raise LangError(f"bad protocol spec line {n}: {raw.strip()!r}")
    spec = CountingProtocolSpec(name, counters, events, unsafe)
    _validate_spec(spec)
    return spec


def _validate_spec(spec: CountingProtocolSpec) -> None:
    params = [c for c in spec.counters if c.parameterized]
    if len(params) != 1:
        raise LangError("exactly one parameterized counter is required")
    names = {c.name for c in spec.counters}
    if len(names) != len(spec.counters):
        raise LangError("counter names must be distinct")
    # a repeated event would only fire where the first one's guard fails
    if len({ev.name for ev in spec.events}) != len(spec.events):
        raise LangError("event names must be distinct")
    for ev in spec.events:
        for row in ev.rows:
            for c, k in row.items():
                if c not in names:
                    raise LangError(f"event {ev.name} guards unknown counter {c}")
                if k not in (1, 2):
                    raise LangError("guards are limited to k in {1, 2}")
        for c, (const, refs) in ev.updates.items():
            if c not in names or any(r not in names for r in refs):
                raise LangError(f"event {ev.name} updates unknown counter")
    for bounds in spec.unsafe:
        for c in bounds:
            if c not in names:
                raise LangError(f"unsafe state uses unknown counter {c}")


def _tag(c: CounterSpec) -> str:
    return c.name.capitalize()


I = Sym("I")


def _sum_expr(const: int, refs: list, evars: dict, param_name: str) -> Seq:
    """Unary sum: a run of I's followed by counter remainders via appends.

    Append recurses over its first operand, so the nesting lists the
    bounded counters first and the parameterized one last, the way the
    reference model writes its updates.
    """
    if not refs:
        return (I,) * const
    refs = [r for r in reversed(refs) if r != param_name] + [
        r for r in refs if r == param_name
    ]
    inner: Seq = (evars[refs[-1]],)
    for r in reversed(refs[:-1]):
        inner = (Call("Append", ((Paren((evars[r],)), Paren(inner)),)),)
    return (I,) * const + inner


def generate_model(spec: CountingProtocolSpec) -> Program:
    """Build a model program in the Main/Loop/Event/Append/Test shape."""
    evars = {c.name: Var("e", f"c{i}") for i, c in enumerate(spec.counters)}
    time_v = Var("e", "time")
    st = Var("s", "t")

    def counters_pat(extra_i: dict) -> tuple:
        return tuple(
            Paren((Sym(_tag(c)),) + (I,) * extra_i.get(c.name, 0) + (evars[c.name],))
            for c in spec.counters
        )

    def counters_plain() -> tuple:
        return counters_pat({})

    param = [c for c in spec.counters if c.parameterized][0]
    init = tuple(
        Paren((Sym(_tag(c)), I, evars[c.name]))
        if c is param
        else Paren((Sym(_tag(c)),))
        for c in spec.counters
    )
    main = FuncDef(
        "Main",
        1,
        (
            Rule(
                ((Paren((time_v,)), Paren((evars[param.name],))),),
                (Call("Loop", ((Paren((time_v,)),) + init,)),),
            ),
        ),
    )
    loop = FuncDef(
        "Loop",
        1,
        (
            Rule(
                ((Paren(()),) + counters_plain(),),
                (Call("Test", (counters_plain(),)),),
            ),
            Rule(
                ((Paren((st, time_v)),) + counters_plain(),),
                (
                    Call(
                        "Loop",
                        (
                            (Paren((time_v,)),)
                            + (Call("Event", ((st,) + counters_plain(),)),),
                        ),
                    ),
                ),
            ),
        ),
    )
    event_rules = []
    for ev in spec.events:
        if not ev.updates:
            continue
        for row in ev.rows:
            pat = (Sym(ev.name),) + counters_pat(row)
            rhs_parts = []
            for c in spec.counters:
                if c.name in ev.updates:
                    const, refs = ev.updates[c.name]
                    body = _sum_expr(const, refs, evars, param.name)
                else:
                    # unchanged: the guard-consumed items go back
                    body = (I,) * row.get(c.name, 0) + (evars[c.name],)
                rhs_parts.append(Paren((Sym(_tag(c)),) + body))
            event_rules.append(Rule((pat,), tuple(rhs_parts)))
    if not event_rules:
        event_rules.append(
            Rule(((Sym("NoEvent"),) + counters_plain(),), counters_plain())
        )
    event = FuncDef("Event", 1, tuple(event_rules))
    append = FuncDef(
        "Append",
        1,
        (
            Rule(
                ((Paren(()), Paren((Var("e", "ys"),))),),
                (Var("e", "ys"),),
            ),
            Rule(
                (
                    (
                        Paren((Var("s", "x"), Var("e", "xs"))),
                        Paren((Var("e", "ys"),)),
                    ),
                ),
                (
                    Var("s", "x"),
                    Call(
                        "Append",
                        ((Paren((Var("e", "xs"),)), Paren((Var("e", "ys"),))),),
                    ),
                ),
            ),
        ),
    )
    test_rules = [
        Rule((counters_pat(bounds),), (Sym("False"),)) for bounds in spec.unsafe
    ]
    test_rules.append(Rule((counters_plain(),), (Sym("True"),)))
    test = FuncDef("Test", 1, tuple(test_rules))
    return Program([main, loop, event, append, test])
