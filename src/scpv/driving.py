"""One-step symbolic unfolding of configurations.

Matching against parameterized data enumerates narrowing cases in rule
order. Branches are ordered; a later sibling covers the instances that no
earlier sibling claimed, which is exactly the rule fall-through order of
the language. Residual programs keep that order, so no negative information
needs to be recorded.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

from .config import (
    Clock,
    Configuration,
    ParamGen,
    TimedApp,
    compose_subst,
    decompose,
    decompose_expr,
    plug_app,
    replace_bullet,
    subst_app,
    subst_seq,
    timed_chain,
)
from .lang import (
    BULLET,
    HAS_VAR,
    Bullet,
    Call,
    Paren,
    Param,
    Program,
    Record,
    Seq,
    Sym,
    Var,
    contains_call,
    is_ground,
    seq_flags,
    slot_setters,
)


class NotSupported(Exception):
    """The driver refuses patterns outside the fragment it can narrow."""


class Branch(Record):
    """One case of a drive step: its contraction, and the successor, which
    is None for abnormal (stuck) cases; ``tag`` is 'fired', 'stuck' or
    'decompose'; ``deferred`` holds the (param, Configuration) continuations
    from tail splits.

    A fired branch may be given, as its successor, the tuple of the inputs
    of ``_build_successor``: the successor is built when first read, and
    stored through the slot setter in place of the inputs, as ``Paren``
    caches its hash."""

    __slots__ = ("contraction", "_successor", "tag", "deferred")
    _names = ("contraction", "successor", "tag", "deferred")

    def __init__(self, contraction: dict, successor: Configuration | tuple | None,
                 tag: str, deferred: tuple = ()):
        _branch_contraction(self, contraction)
        _branch_successor(self, successor)
        _branch_tag(self, tag)
        _branch_deferred(self, deferred)

    @property
    def successor(self) -> Optional[Configuration]:
        succ = self._successor
        if type(succ) is tuple:
            succ = _build_successor(*succ)
            _branch_successor(self, succ)
        return succ


_branch_contraction, _branch_successor, _branch_tag, _branch_deferred = slot_setters(Branch)


FAIL = ("fail",)


def _shape_cases(e: Param, pgen: ParamGen):
    s = pgen.fresh("s")
    e1 = pgen.fresh("e")
    q = pgen.fresh("e")
    e2 = pgen.fresh("e")
    return [{e: ()}, {e: (s, e1)}, {e: (Paren((q,)), e2)}]


# ---------------------------------------------------------------------------
# Rules compiled to Python, once per pattern structure
#
# A rule's matcher and its right-hand side builder are Python functions
# generated from the rule's structure alone: paren nesting, the positions of
# symbols and variables, and which occurrence of a variable binds it. Every
# symbol, variable, function name and message reaches the function as a
# closure constant ``K<i>``, so no program text is ever compiled, and rules of
# one structure share one compiled factory. A matcher tests only for a match;
# every miss goes through one decision, ``_differs`` or ``_blocked``.


def _blocked(x):
    """The miss of data item ``x`` where the pattern wants a paren, or a
    symbol for an s-variable's first occurrence: a shape split of an
    e-parameter, else no match."""
    tx = type(x)
    if tx is Param and x.kind == "e":
        return ("shape", x)
    if tx is Call or tx is Bullet:
        raise AssertionError(f"active or bullet data in matching: {x!r}")
    return FAIL


def _differs(x, want):
    """The miss of data item ``x`` where the pattern wants ``want``: a
    symbol, or a bound s-variable's value, a symbol or an s-parameter. A
    symbol ``x`` is decided against an s-parameter ``want``, an s-parameter
    ``x`` against ``want``; anything else misses as for ``_blocked``."""
    tx = type(x)
    if tx is Sym:
        return ("sym", want, x) if type(want) is Param else FAIL
    if tx is Param and x.kind == "s":
        return ("sym", x, want)
    return _blocked(x)


def _repeated(w, r, msg: str):
    """The miss of a repeated e-variable bound to ``w`` against the rest
    ``r``: no match when both are ground, else not supported."""
    if is_ground(w) and is_ground(r):
        return FAIL
    raise NotSupported(msg)


# the names generated code refers to; the source holds no string literal
_GENERATED_GLOBALS = {
    "FAIL": FAIL, "SHAPE": "shape", "E": "e",
    "Sym": Sym, "Param": Param, "Paren": Paren, "Call": Call, "TimedApp": TimedApp,
    "blocked": _blocked, "differs": _differs, "repeated": _repeated,
}


class _Source:
    """The body of one generated function, and the constants it names."""

    def __init__(self):
        self.lines = []
        self.consts = []
        self.locals = 0

    def const(self, value) -> str:
        self.consts.append(value)
        return f"K{len(self.consts) - 1}"

    def local(self, prefix: str) -> str:
        self.locals += 1
        return f"{prefix}{self.locals}"

    def emit(self, line: str) -> None:
        self.lines.append("        " + line)

    def finish(self, name: str, params: str) -> tuple:
        """(source, constants): the source defines ``make(K0, ...)``, which
        returns the function ``name(params)``."""
        consts = ", ".join(f"K{i}" for i in range(len(self.consts)))
        body = "\n".join(self.lines)
        src = f"def make({consts}):\n    def {name}({params}):\n{body}\n    return {name}\n"
        return src, tuple(self.consts)


@lru_cache(maxsize=512)
def _compiled(src: str):
    """The factory ``make`` that src defines; cached by source, which is a
    rule's structure, as ``re`` caches compiled patterns."""
    names = dict(_GENERATED_GLOBALS)
    exec(compile(src, "<scpv rule>", "exec"), names)
    return names["make"]


def _match_level(s: _Source, pat: Seq, d: str, bound: dict, order: list) -> None:
    """Emit the match of one pattern level against the data sequence in
    local ``d``; control falls through on a match. ``bound`` maps each
    variable bound so far to its local, ``order`` lists the bindings."""
    n = s.local("n")
    if not pat or not (type(pat[0]) is Var and pat[0].kind == "e"):
        s.emit(f"{n} = len({d})")
    for i, p in enumerate(pat):
        tp = type(p)
        if tp is Var and p.kind == "e":
            # the rest of the level; any items after it are never looked at
            rest = f"{d}[{i}:]" if i else d
            w = bound.get(p)
            if w is None:
                v = bound[p] = s.local("v")
                order.append((s.const(p), v))
                s.emit(f"{v} = {rest}")
            else:
                msg = s.const(f"repeated e-variable {p!r} against open data")
                s.emit(f"if {rest} != {w}: return repeated({w}, {rest}, {msg})")
            return
        x = s.local("x")
        s.emit(f"if {n} <= {i}: return FAIL")
        s.emit(f"{x} = {d}[{i}]")
        if tp is Sym:
            k = s.const(p)
            s.emit(f"if {x} is not {k}: return differs({x}, {k})")
        elif tp is Var and p in bound:  # a repeated s-variable
            w = bound[p]
            s.emit(f"if {x} is not {w}: return differs({x}, {w})")
        elif tp is Var:  # an s-variable's first occurrence binds it
            bound[p] = x
            order.append((s.const(p), f"({x},)"))
            s.emit(f"if type({x}) is not Sym and (type({x}) is not Param or {x}.kind == E):"
                   f" return blocked({x})")
        elif tp is Paren:
            s.emit(f"if type({x}) is not Paren: return blocked({x})")
            items = s.local("d")
            s.emit(f"{items} = {x}.items")
            _match_level(s, p.items, items, bound, order)
        else:
            s.emit(f"{x} = blocked({x})")
            s.emit(f"if {x} is FAIL: raise AssertionError({s.const(f'bad pattern item {p!r}')})")
            s.emit(f"return {x}")
            return
    x = s.local("x")
    s.emit(f"if {n} > {len(pat)}:")
    s.emit(f"    {x} = {d}[{len(pat)}]")
    s.emit(f"    return (SHAPE, {x}) if type({x}) is Param and {x}.kind == E else FAIL")


def _match_source(lhs: tuple) -> tuple:
    """The source and constants of ``match(args)``: the rule's bindings, as
    a dict in binding order, when every argument matches its pattern, in
    turn; otherwise FAIL or a narrowing request: ('shape', eparam) or
    ('sym', sparam, item), the latter an ordered decision: equal first,
    fall through otherwise."""
    s = _Source()
    args = [s.local("a") for _ in lhs]
    if args:
        s.emit(f"{', '.join(args)}, = args")
    bound, order = {}, []
    for pat, a in zip(lhs, args):
        _match_level(s, pat, a, bound, order)
    s.emit("return {" + ", ".join(f"{k}: {v}" for k, v in order) + "}")
    return s.finish("match", "args")


def _seq_expr(s: _Source, seq: Seq, lookup) -> str:
    """An expression for seq with each variable replaced by its value in
    ``env``: a lone variable's value and a variable-free sequence are the
    same objects, not copies."""
    if not seq_flags(seq) & HAS_VAR:
        return s.const(seq)
    if len(seq) == 1 and type(seq[0]) is Var:
        return lookup(seq[0])
    return _tuple_expr(s, seq, lookup)


def _tuple_expr(s: _Source, seq: Seq, lookup) -> str:
    # each rebuilt paren or call goes into a local of its own, so that the
    # source nests no deeper than the compiler allows, whatever the rule's
    # nesting
    parts = []
    for it in seq:
        if not it.flags & HAS_VAR:
            parts.append(s.const(it))
        elif type(it) is Var:
            parts.append("*" + lookup(it))
        else:
            if type(it) is Paren:
                made = f"Paren({_tuple_expr(s, it.items, lookup)})"
            else:
                args = "".join(_seq_expr(s, a, lookup) + ", " for a in it.args)
                made = f"Call({s.const(it.fname)}, ({args}))"
            t = s.local("t")
            s.emit(f"{t} = {made}")
            parts.append(t)
    return "(" + "".join(p + ", " for p in parts) + ")"


def _build_source(chain: tuple, ctx: Seq) -> tuple:
    """The source and constants of ``build(env, top)``: the chain's entries
    with the variables of ``env`` in their arguments, labelled ``top``,
    ``top - 1``, ... from the outermost application, and ``ctx`` with them."""
    s = _Source()
    lookups = {}

    def lookup(v):
        local = lookups.get(v)
        if local is None:
            local = lookups[v] = s.local("v")
            s.emit(f"{local} = env[{s.const(v)}]")
        return local

    entries = []
    for i, c in enumerate(chain):
        args = "".join(_seq_expr(s, a, lookup) + ", " for a in c.args)
        when = f"top - {i}" if i else "top"
        entries.append(f"TimedApp({s.const(c.fname)}, ({args}), {when}), ")
    ctx = _seq_expr(s, ctx, lookup)
    s.emit(f"return ({''.join(entries)}), {ctx}")
    return s.finish("build", "env, top")


# ---------------------------------------------------------------------------
# Driving proper


class RuleRow:
    """One rule of a function, compiled for firing.

    With ``chain, ctx = decompose_expr(rhs)``, ``chain`` is the chain as a
    tuple. ``match(args)`` matches the rule's patterns (``_match_source``),
    and ``build(env, top)`` gives the chain's entries and ``ctx`` under the
    bindings ``env`` (``_build_source``). ``tail_call`` is true when ``ctx``
    is the bare bullet, so the rule's result is the result of its outermost
    call; ``ctx_call`` when ``ctx`` holds a call, so firing it at the bottom
    of a stack is a let-split."""

    __slots__ = ("chain", "match", "build", "tail_call", "ctx_call")

    def __init__(self, lhs: tuple, rhs: Seq):
        chain, ctx = decompose_expr(rhs)
        self.chain = tuple(chain)
        src, consts = _match_source(lhs)
        self.match = _compiled(src)(*consts)
        src, consts = _build_source(self.chain, ctx)
        self.build = _compiled(src)(*consts)
        self.tail_call = ctx == (BULLET,)
        self.ctx_call = contains_call(ctx)


def rule_table(prog: Program, fname: str) -> tuple:
    """The rules of ``fname`` as ``RuleRow``s, built on first use and kept
    on the program.

    Decomposing before instantiation is exact: decomposing the right-hand
    side with the bindings ``env`` substituted gives the chain with ``env``
    substituted in each argument, and ``ctx`` with ``env``. The values of ``env`` come from the top entry's arguments, which hold no
    call (nested calls are hoisted before a rule fires) and no bullet
    (``check_config``), so substitution moves no call and adds no bullet.
    """
    table = prog.rule_tables.get(fname)
    if table is None:
        if fname not in prog.defs:
            raise ValueError(f"call to undefined function {fname}")
        table = tuple(RuleRow(r.lhs, r.rhs) for r in prog.rules(fname))
        prog.rule_tables[fname] = table
    return table


def _let_split(config: Configuration, theta: dict, row: RuleRow, env: dict,
               top: int, clock: Clock, pgen: ParamGen) -> tuple:
    """The successor and deferred parts of firing ``row`` at the bottom of
    the stack when its ``ctx`` holds a call, with the chain labelled from
    ``top`` down: the chain's result is a fresh connector parameter, and
    only the tail with ``ctx`` in its bullet and the connector in ``ctx``'s
    is decomposed, into the deferred parts. The tail holds no call
    (``check_config``), so this is ``decompose`` of the tail with the
    instantiated right-hand side in its bullet: the same configurations,
    clock ticks and fresh parameters, in the same order."""
    entries, ctx = row.build(env, top)
    connector = pgen.fresh("e")
    ctx = replace_bullet(ctx, (connector,))
    tail = replace_bullet(subst_seq(config.tail, theta), ctx)
    cont, more = decompose(tail, clock, pgen)
    return Configuration(entries, (BULLET,)), ((connector, cont), *more)


def _build_successor(config: Configuration, theta: dict, row: RuleRow, env: dict,
                     top: int) -> Configuration:
    """Pop the fired top, thread its result, restore stack form: the rule's
    chain, labelled from ``top`` down, is stacked on the entries below,
    the outermost application getting the earliest label, as
    ``timed_chain`` stamps them. Its result flows into the entry below,
    which a tail call leaves as it is, or at the bottom of the stack into
    the tail; a let-split there is ``_let_split``'s."""
    entries, ctx = row.build(env, top)
    stack = config.stack
    tail = subst_seq(config.tail, theta)
    if len(stack) == 1:
        if not row.tail_call:
            tail = replace_bullet(tail, ctx)
        return Configuration(entries, tail)
    below = stack[1:]
    if theta:
        below = tuple([subst_app(e, theta) for e in below])
    if not row.tail_call:
        below = (plug_app(below[0], ctx),) + below[1:]
    return Configuration(entries + below, tail)


def drive(config: Configuration, prog: Program, clock: Clock, pgen: ParamGen,
          warn=None) -> tuple:
    """One driving step of the topmost stack entry: its ``Branch``es, in
    rule order. An empty stack has none: its tail is a passive value, which
    holds no call (``check_config``).

    The walk enumerates the narrowing cases depth first, with its own stack
    of (arguments, θ, first rule to try): a shape split pushes its three
    cases last first, a symbol decision its fall-through and then its equal
    case, so each is popped in branch order. The walk ends before any
    branch fires, since a let-split takes fresh parameters that the later
    shape splits would otherwise follow. Then each fired branch takes its
    labels, in branch order; its successor is built when first read,
    except a let-split's, which takes labels and parameters as it is
    built."""
    if not config.stack:
        return ()

    top = config.stack[0]
    # restore call-by-value order: nested calls in the top's arguments are
    # hoisted onto the stack before the entry itself can fire
    for k, a in enumerate(top.args):
        if contains_call(a):
            chain, actx = decompose_expr(a)
            newtop = TimedApp(
                top.fname, top.args[:k] + (actx,) + top.args[k + 1 :], top.time
            )
            succ = Configuration(
                timed_chain(chain, clock) + (newtop,) + config.stack[1:], config.tail
            )
            return (Branch({}, succ, "decompose"),)

    table = rule_table(prog, top.fname)
    walked = []  # (θ, fired row or None, bindings), in branch order
    work = [(top.args, {}, 0)]
    try:
        while work:
            args, theta, ri = work.pop()
            for ri in range(ri, len(table)):
                req = table[ri].match(args)
                if req is not FAIL:
                    break
            else:
                walked.append((theta, None, None))
                continue
            if type(req) is dict:
                walked.append((theta, table[ri], req))
                continue
            if req[0] == "shape":
                cases = reversed(_shape_cases(req[1], pgen))
            else:
                # ('sym', sparam, item): equal first, fall through otherwise
                sparam, item = req[1], req[2]
                if isinstance(item, Param) and warn:
                    warn(f"parameter-parameter symbol decision {sparam!r}={item!r}")
                work.append((args, theta, ri + 1))
                cases = ({sparam: (item,)},)
            for case in cases:
                work.append((tuple([subst_seq(a, case) for a in args]),
                             compose_subst(theta, case), ri))
    except NotSupported as e:
        raise NotSupported(f"{e}, in a rule of {top.fname}") from None

    branches = []
    bottom = len(config.stack) == 1
    for theta, row, env in walked:
        if row is None:
            branches.append(Branch(theta, None, "stuck"))
            continue
        top = clock.now = clock.now + len(row.chain)
        if bottom and row.ctx_call:
            succ, deferred = _let_split(config, theta, row, env, top, clock, pgen)
            branches.append(Branch(theta, succ, "fired", deferred))
        else:
            branches.append(Branch(theta, (config, theta, row, env, top), "fired"))
    return tuple(branches)
