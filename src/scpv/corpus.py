"""In-repo programs: the self-interpreter, the Synapse N+1 model, an unsafe
mutant for negative testing, and a counting-abstraction model generator."""

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

SYNAPSE_SRC = """
-- Synapse N+1 cache coherence protocol, counting abstraction, unary counters.
Main { (e.time) : (e.is) => Loop((e.time) : (Invalid I e.is) : (Dirty) : (Valid)); }

Loop {
  ([]) : (Invalid e.is) : (Dirty e.ds) : (Valid e.vs) =>
      Test((Invalid e.is) : (Dirty e.ds) : (Valid e.vs));
  (s.t : e.time) : (Invalid e.is) : (Dirty e.ds) : (Valid e.vs) =>
      Loop((e.time) : Event(s.t : (Invalid e.is) : (Dirty e.ds) : (Valid e.vs)));
}

Event {
  rm : (Invalid I e.is) : (Dirty e.ds) : (Valid e.vs) =>
      (Invalid Append((e.ds) : (e.is))) : (Dirty) : (Valid I e.vs);
  wh2 : (Invalid e.is) : (Dirty e.ds) : (Valid I e.vs) =>
      (Invalid Append((e.vs) : (Append((e.ds) : (e.is))))) : (Dirty I) : (Valid);
  wm : (Invalid I e.is) : (Dirty e.ds) : (Valid e.vs) =>
      (Invalid Append((e.vs) : (Append((e.ds) : (e.is))))) : (Dirty I) : (Valid);
}

Append {
  ([]) : (e.ys) => e.ys;
  (s.x : e.xs) : (e.ys) => s.x : Append((e.xs) : (e.ys));
}

Test {
  (Invalid e.is) : (Dirty I e.ds) : (Valid I e.vs) => False;
  (Invalid e.is) : (Dirty I I e.ds) : (Valid e.vs) => False;
  (Invalid e.is) : (Dirty e.ds) : (Valid e.vs) => True;
}
"""

# wm keeps the Valid counter instead of resetting it: property (1) becomes
# reachable, e.g. by the event stream rm wm with one extra processor
SYNAPSE_UNSAFE_SRC = SYNAPSE_SRC.replace(
    """  wm : (Invalid I e.is) : (Dirty e.ds) : (Valid e.vs) =>
      (Invalid Append((e.vs) : (Append((e.ds) : (e.is))))) : (Dirty I) : (Valid);""",
    """  wm : (Invalid I e.is) : (Dirty e.ds) : (Valid e.vs) =>
      (Invalid Append((e.vs) : (Append((e.ds) : (e.is))))) : (Dirty I) : (Valid e.vs);""",
)

INTERPRETER_FUNCTIONS = (
    "Int", "Eval", "EvalCall", "Matching", "Match", "PutVar", "PutV",
    "CheckRepVar", "Eq", "ContEq", "LookFor", "Subst",
)


def synapse_model() -> Program:
    return parse_program(SYNAPSE_SRC)


def synapse_unsafe_mutant() -> Program:
    return parse_program(SYNAPSE_UNSAFE_SRC)


def self_interpreter(programs: dict) -> Program:
    """The interpreter plus a Prog dispatch over the given models, each
    encoded here; ``programs`` maps a name symbol to a Program."""
    prog = parse_program(INT_SRC, validate=False)
    rules = []
    for name, model in programs.items():
        if name in INTERPRETER_FUNCTIONS or name == "Prog":
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
class GuardRow:
    bounds: dict  # counter -> k (conjunction of counter >= k)


@dataclass
class EventSpec:
    name: str
    rows: list  # alternative GuardRows (disjunction)
    updates: dict  # counter -> (constant, [counter refs]); absent = unchanged


@dataclass
class CountingProtocolSpec:
    name: str
    counters: list
    events: list
    unsafe: list  # list of dicts counter -> k


def parse_protocol_spec(text: str) -> CountingProtocolSpec:
    name = "protocol"
    counters: list = []
    events: list = []
    unsafe: list = []
    cur: EventSpec | None = None
    for raw in text.splitlines():
        line = raw.split("--")[0].strip()
        if not line:
            continue
        words = line.replace(",", " , ").split()
        head = words[0]
        if head == "protocol":
            name = words[1]
        elif head == "counter":
            init = words[words.index("init") + 1] if "init" in words else "zero"
            counters.append(CounterSpec(words[1], init == "param"))
        elif head == "event":
            cur = EventSpec(words[1], [GuardRow({})], {})
            events.append(cur)
        elif head == "alt":
            cur.rows.append(GuardRow({}))
        elif head == "guard":
            # guard <counter> >= <k>
            cur.rows[-1].bounds[words[1]] = int(words[3])
        elif head == "update":
            # update <counter> := term + term + ...
            target = words[1]
            terms = [w for w in words[3:] if w not in ("+", ",")]
            const = sum(int(t) for t in terms if t.isdigit())
            refs = [t for t in terms if not t.isdigit()]
            cur.updates[target] = (const, refs)
        elif head == "unsafe":
            bounds = {}
            i = 1
            while i < len(words):
                if words[i] == ",":
                    i += 1
                    continue
                bounds[words[i]] = int(words[i + 2])
                i += 3
            unsafe.append(bounds)
        else:
            raise LangError(f"bad protocol spec line: {raw!r}")
    spec = CountingProtocolSpec(name, counters, events, unsafe)
    _validate_spec(spec)
    return spec


def _validate_spec(spec: CountingProtocolSpec) -> None:
    params = [c for c in spec.counters if c.parameterized]
    if len(params) != 1:
        raise LangError("exactly one parameterized counter is required")
    names = {c.name for c in spec.counters}
    for ev in spec.events:
        for row in ev.rows:
            for c, k in row.bounds.items():
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


def generate_model(
    spec: CountingProtocolSpec, include_identity_events: bool = False
) -> Program:
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
        if not ev.updates and not include_identity_events:
            continue
        for row in ev.rows:
            pat = (Sym(ev.name),) + counters_pat(row.bounds)
            rhs_parts = []
            for c in spec.counters:
                if c.name in ev.updates:
                    const, refs = ev.updates[c.name]
                    body = _sum_expr(const, refs, evars, param.name)
                else:
                    # unchanged: the guard-consumed items go back
                    body = (I,) * row.bounds.get(c.name, 0) + (evars[c.name],)
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


SYNAPSE_SPEC_SRC = """
protocol synapse
counter invalid init param
counter dirty init zero
counter valid init zero

-- five external events; rh and wh1 have empty updates ("nothing happened")
event rh
  guard dirty >= 1
  alt
  guard valid >= 1

event rm
  guard invalid >= 1
  update dirty := 0
  update valid := valid + 1
  update invalid := invalid + dirty

event wh1
  guard dirty >= 1

event wh2
  guard valid >= 1
  update valid := 0
  update dirty := 1
  update invalid := invalid + dirty + valid

event wm
  guard invalid >= 1
  update valid := 0
  update dirty := 1
  update invalid := invalid + dirty + valid

unsafe dirty >= 1, valid >= 1
unsafe dirty >= 2
"""

# Externally sourced transition tables (standard presentations of the MSI and
# MESI protocols); shipped as data, not anchored to the verified corpus.
MSI_SPEC_SRC = """
protocol msi
counter invalid init param
counter modified init zero
counter shared init zero

event t1  -- read miss
  guard invalid >= 1
  update invalid := invalid + modified
  update modified := 0
  update shared := shared + 1

event t2  -- write hit
  guard shared >= 1
  update invalid := invalid + shared + modified
  update shared := 0
  update modified := 1

event t3  -- write miss
  guard invalid >= 1
  update invalid := invalid + shared + modified
  update shared := 0
  update modified := 1

unsafe modified >= 1, shared >= 1
unsafe modified >= 2
"""

MESI_SPEC_SRC = """
protocol mesi
counter invalid init param
counter modified init zero
counter exclusive init zero
counter shared init zero

event rm
  guard invalid >= 1
  update invalid := invalid
  update shared := shared + exclusive + modified + 1
  update exclusive := 0
  update modified := 0

event wh1
  guard exclusive >= 1
  update exclusive := exclusive
  update modified := modified + 1

event wh2
  guard shared >= 1
  update invalid := invalid + modified + exclusive + shared
  update shared := 0
  update exclusive := 1
  update modified := 0

event wm
  guard invalid >= 1
  update invalid := invalid + modified + exclusive + shared
  update shared := 0
  update exclusive := 1
  update modified := 0

unsafe modified >= 1, shared >= 1
unsafe modified >= 2
unsafe modified >= 1, exclusive >= 1
unsafe exclusive >= 2
"""
