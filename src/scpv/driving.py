"""One-step symbolic unfolding of configurations.

Matching against parameterized data enumerates narrowing cases in rule
order. Branches are ordered; a later sibling covers the instances that no
earlier sibling claimed, which is exactly the rule fall-through order of
the language. Residual programs keep that order, so no negative information
needs to be recorded.
"""

from __future__ import annotations

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
    map_items,
    seq_flags,
    slot_setters,
)


class NotSupported(Exception):
    """The driver refuses patterns outside the fragment it can narrow."""


class Branch(Record):
    """One case of a drive step: its contraction, and the successor, which
    is None for abnormal (stuck) cases; ``tag`` is 'fired', 'stuck' or
    'decompose'; ``deferred`` holds the (param, Configuration) continuations
    from tail splits."""

    __slots__ = ("contraction", "successor", "tag", "deferred")

    def __init__(self, contraction: dict, successor: Optional[Configuration],
                 tag: str, deferred: tuple = ()):
        _branch_contraction(self, contraction)
        _branch_successor(self, successor)
        _branch_tag(self, tag)
        _branch_deferred(self, deferred)


_branch_contraction, _branch_successor, _branch_tag, _branch_deferred = (
    slot_setters(Branch)
)


# ---------------------------------------------------------------------------
# Three-valued matching over parameterized data


def _subst_vars(seq: Seq, env: dict) -> Seq:
    """Instantiate a rule's variables; an unbound one raises KeyError."""
    return map_items(seq, HAS_VAR, env.__getitem__)


FAIL = ("fail",)


def _match_one(pat: Seq, data: Seq, env: dict):
    """Match one pattern against one parameterized argument.

    Binds into ``env`` in place. Returns None on a match, FAIL, or a
    narrowing request: ('shape', eparam) or ('sym', sparam, item) — the
    latter is an ordered decision: equal first, fall through otherwise.
    After FAIL or a request ``env`` may hold partial bindings; callers
    start every rule attempt from a fresh dict.
    """
    i = j = 0
    while True:
        if i >= len(pat):
            if j >= len(data):
                return None
            d = data[j]
            if type(d) is Param and d.kind == "e":
                return ("shape", d)
            return FAIL
        p = pat[i]
        tp = type(p)
        if tp is Var and p.kind == "e":
            rest = data[j:]
            bound = env.get(p)
            if bound is None:
                env[p] = rest
                return None
            if bound == rest:
                return None
            if is_ground(bound) and is_ground(rest):
                return FAIL
            raise NotSupported(f"repeated e-variable {p!r} against open data")
        if j >= len(data):
            return FAIL
        d = data[j]
        td = type(d)
        if td is Param and d.kind == "e":
            return ("shape", d)
        if td is Call or td is Bullet:
            raise AssertionError(f"active or bullet data in matching: {d!r}")
        if tp is Paren:
            if td is not Paren:
                return FAIL
            got = _match_one(p.items, d.items, env)
            if got is not None:
                return got
        elif tp is not Sym and tp is not Var:
            raise AssertionError(f"bad pattern item {p!r}")
        elif td is Paren:
            return FAIL
        elif tp is Var and p not in env:  # an unbound s-variable
            env[p] = (d,)
        else:
            # a symbol, or the symbol or s-parameter bound to an s-variable,
            # against a symbol or an s-parameter d; where they differ, a
            # decision on d if d is a parameter, else on the bound one, and
            # no match between two symbols
            want = p if tp is Sym else env[p][0]
            if d != want:
                if td is Param:
                    return ("sym", d, want)
                if type(want) is Sym:
                    return FAIL
                return ("sym", want, d)
        i += 1
        j += 1


def _match_rule(lhs: tuple, args: tuple, env: dict):
    """Match every argument in turn; the result as for ``_match_one``."""
    for pat, d in zip(lhs, args):
        got = _match_one(pat, d, env)
        if got is not None:
            return got
    return None


def _shape_cases(e: Param, pgen: ParamGen):
    s = pgen.fresh("s")
    e1 = pgen.fresh("e")
    q = pgen.fresh("e")
    e2 = pgen.fresh("e")
    return [{e: ()}, {e: (s, e1)}, {e: (Paren((q,)), e2)}]


# ---------------------------------------------------------------------------
# Driving proper


class RuleRow(Record):
    """One rule of a function, compiled for firing.

    ``chain`` and ``ctx`` are ``decompose_expr(rhs)``; each chain entry is
    ``(fname, args, plans)``, with one plan per argument, and ``ctx_plan``
    is ``ctx``'s (``_plan``). ``tail_call`` is true when ``ctx`` is the bare
    bullet, so the rule's result is the result of its outermost call;
    ``ctx_call`` when ``ctx`` holds a call, so firing it at the bottom of a
    stack is a let-split."""

    __slots__ = ("lhs", "chain", "ctx", "ctx_plan", "tail_call", "ctx_call")

    def __init__(self, lhs: tuple, rhs: Seq):
        chain, ctx = decompose_expr(rhs)
        _row_lhs(self, lhs)
        _row_chain(self, tuple([
            (c.fname, c.args, tuple([_plan(a) for a in c.args])) for c in chain
        ]))
        _row_ctx(self, ctx)
        _row_ctx_plan(self, _plan(ctx))
        _row_tail_call(self, ctx == (BULLET,))
        _row_ctx_call(self, contains_call(ctx))


(_row_lhs, _row_chain, _row_ctx, _row_ctx_plan, _row_tail_call,
 _row_ctx_call) = slot_setters(RuleRow)

# the kinds of instantiation plan: a lone variable is looked up, a
# variable-free sequence is shared, any other is rebuilt
LOOKUP, SHARE, REBUILD = "lookup", "share", "rebuild"


def _plan(seq: Seq) -> tuple:
    """How ``_instance`` instantiates seq: ``(kind, what)``."""
    if len(seq) == 1 and type(seq[0]) is Var:
        return LOOKUP, seq[0]
    if not seq_flags(seq) & HAS_VAR:
        return SHARE, seq
    return REBUILD, seq


def _instance(plan: tuple, env: dict) -> Seq:
    """``_subst_vars`` of the planned sequence; a looked-up or shared one is
    the same object, not a copy."""
    kind, what = plan
    if kind == LOOKUP:
        return env[what]
    if kind == SHARE:
        return what
    return _subst_vars(what, env)


def rule_table(prog: Program, fname: str) -> tuple:
    """The rules of ``fname`` as ``RuleRow``s, built on first use and kept
    on the program.

    Decomposing before instantiation is exact:
    ``decompose_expr(_subst_vars(rhs, env))`` is the chain with
    ``_subst_vars`` applied to each argument, and ``_subst_vars(ctx, env)``.
    The values of ``env`` come from the top entry's arguments, which hold no
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


def _walk(table, args, theta, start, pgen, warn, out):
    """Ordered branch enumeration: append (theta, kind, rule_idx, env) to out."""
    # module-level rather than a closure, which would be rebuilt on every drive
    for ri in range(start, len(table)):
        env = {}
        req = _match_rule(table[ri].lhs, args, env)
        if req is FAIL:
            continue
        if req is None:
            out.append((theta, "fire", ri, env))
            return
        if req[0] == "shape":
            for case in _shape_cases(req[1], pgen):
                _walk(
                    table,
                    tuple([subst_seq(a, case) for a in args]),
                    compose_subst(theta, case),
                    ri, pgen, warn, out,
                )
            return
        if req[0] == "sym":
            sparam, item = req[1], req[2]
            if isinstance(item, Param) and warn:
                warn(f"parameter-parameter symbol decision {sparam!r}={item!r}")
            case = {sparam: (item,)}
            _walk(
                table,
                tuple([subst_seq(a, case) for a in args]),
                compose_subst(theta, case),
                ri, pgen, warn, out,
            )
            _walk(table, args, theta, ri + 1, pgen, warn, out)
            return
        raise AssertionError(req)
    out.append((theta, "stuck", None, None))


def _fire_successor(config: Configuration, theta: dict, row: RuleRow, env: dict,
                    clock: Clock, pgen: ParamGen):
    """Pop the fired top, thread its result, restore stack form.

    The rule's chain is stacked with fresh labels, the outermost application
    getting the earliest, as ``timed_chain`` stamps them. Its result flows
    into the entry below, which a tail call leaves as it is, or at the bottom
    of the stack into the tail. There a ``ctx`` that holds a call makes a
    let-split: the chain's result is a fresh connector parameter, and only
    the tail with ``ctx`` in its bullet and the connector in ``ctx``'s is
    decomposed, into the deferred parts. The tail holds no call
    (``check_config``), so this is ``decompose`` of the tail with the
    instantiated right-hand side in its bullet: the same configurations,
    clock ticks and fresh parameters, in the same order."""
    stack = config.stack
    tail = subst_seq(config.tail, theta)
    chain = row.chain
    top = clock.now + len(chain)
    clock.now = top
    entries = tuple([
        TimedApp(fname, tuple([_instance(p, env) for p in plans]), top - i)
        for i, (fname, _, plans) in enumerate(chain)
    ])
    if len(stack) == 1:
        if row.ctx_call:
            connector = pgen.fresh("e")
            ctx = replace_bullet(_instance(row.ctx_plan, env), (connector,))
            cont, more = decompose(replace_bullet(tail, ctx), clock, pgen)
            return Configuration(entries, (BULLET,)), ((connector, cont), *more)
        if not row.tail_call:
            tail = replace_bullet(tail, _instance(row.ctx_plan, env))
        return Configuration(entries, tail), ()
    below = stack[1:]
    if theta:
        below = tuple([subst_app(e, theta) for e in below])
    if not row.tail_call:
        below = (plug_app(below[0], _instance(row.ctx_plan, env)),) + below[1:]
    return Configuration(entries + below, tail), ()


def drive(config: Configuration, prog: Program, clock: Clock, pgen: ParamGen,
          warn=None) -> tuple:
    """One driving step of the topmost stack entry: its ``Branch``es, in
    rule order. An empty stack has none: its tail is a passive value, which
    holds no call (``check_config``)."""
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
    walked = []
    _walk(table, top.args, {}, 0, pgen, warn, walked)
    branches = []
    for theta, kind, ri, env in walked:
        if kind == "stuck":
            branches.append(Branch(theta, None, "stuck"))
        else:
            succ, deferred = _fire_successor(config, theta, table[ri], env, clock, pgen)
            branches.append(Branch(theta, succ, "fired", deferred))
    return tuple(branches)

