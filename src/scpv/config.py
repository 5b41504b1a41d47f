"""Parameterized configurations: timed application stacks over a passive tail.

A configuration is a stack of timed function applications chained by a
bullet placeholder, plus a passive tail expression. Substitution, the
let-style decomposition of raw expressions into stack form, and the
supporting clocks live here.
"""

from __future__ import annotations

from operator import is_

from .lang import (
    BULLET,
    HAS_BULLET,
    HAS_CALL,
    HAS_PARAM,
    Call,
    Param,
    Paren,
    Record,
    Seq,
    bullet_count,
    contains_call,
    map_items,
    print_seq,
    seq_flags,
    slot_setters,
)


class Clock:
    """Monotone time source; one per engine task tree."""

    def __init__(self, start: int = 0):
        self.now = start

    def tick(self) -> int:
        self.now += 1
        return self.now


class ParamGen:
    """Fresh-parameter supply, shared between driving and generalization."""

    def __init__(self, start: int = 100):
        self.next_num = start

    def fresh(self, kind: str) -> Param:
        p = Param(kind, self.next_num)
        self.next_num += 1
        return p


class TimedApp(Record):
    """An application ``fname(args)`` on a configuration's stack, labelled
    with the time it was created at."""

    __slots__ = ("fname", "args", "time")

    def __init__(self, fname: str, args: tuple, time: int):
        _app_fname(self, fname)
        _app_args(self, args)
        _app_time(self, time)

    def __repr__(self):
        inner = ", ".join(print_seq(a) for a in self.args)
        return f"{self.fname}@{self.time}({inner})"


class Configuration(Record):
    """A stack of ``TimedApp`` entries, top first, over a passive tail."""

    __slots__ = ("stack", "tail")

    def __init__(self, stack: tuple, tail: Seq):
        _config_stack(self, stack)
        _config_tail(self, tail)

    def __repr__(self):
        parts = [repr(e) for e in self.stack]
        parts.append(print_seq(self.tail))
        return ", ".join(parts)


_app_fname, _app_args, _app_time = slot_setters(TimedApp)
_config_stack, _config_tail = slot_setters(Configuration)


def check_config(c: Configuration) -> None:
    """Assert the bullet and time-label invariants, and that the tail holds
    no call (``decompose`` stacks every reachable call, and a let-split
    leaves the bare bullet); used in tests and debug."""
    times = [e.time for e in c.stack]
    assert len(set(times)) == len(times), f"duplicate time labels in {c!r}"
    for i, e in enumerate(c.stack):
        n = sum(bullet_count(a) for a in e.args)
        want = 0 if i == 0 else 1
        assert n == want, f"entry {i} of {c!r} has {n} bullets"
    if c.stack:
        assert bullet_count(c.tail) == 1, f"tail of {c!r} must hold one bullet"
    assert not contains_call(c.tail), f"a call in the tail of {c!r}"


# ---------------------------------------------------------------------------
# Substitution


def subst_seq(seq: Seq, theta: dict) -> Seq:
    """Apply a parameter substitution, as one ``map_items`` leaf; e-parameters
    splice their sequences. Only subtrees whose flags share a signature bit
    with theta's parameters are entered. What it leaves unchanged is the
    same object: a paren or call none of whose parameters is bound, and seq
    when no item changed."""
    if not theta:
        return seq

    def leaf(p):
        v = theta.get(p, (p,))
        if p.kind == "s" and len(v) != 1:
            raise ValueError(f"s-parameter {p!r} bound to a sequence")
        return v

    mask = 0
    for p in theta:
        mask |= p.flags
    return map_items(seq, mask & ~HAS_PARAM, leaf)


def subst_app(app: TimedApp, theta: dict) -> TimedApp:
    """The entry under theta; the entry itself when no argument changed."""
    if not theta:
        return app
    args = tuple([subst_seq(a, theta) for a in app.args])
    return app if all(map(is_, args, app.args)) else TimedApp(app.fname, args, app.time)


def subst_config(c: Configuration, theta: dict) -> Configuration:
    if not theta:
        return c
    return Configuration(
        tuple([subst_app(e, theta) for e in c.stack]), subst_seq(c.tail, theta)
    )


def compose_subst(first: dict, second: dict) -> dict:
    """The substitution equal to applying ``first`` then ``second``."""
    out = {p: subst_seq(v, second) for p, v in first.items()}
    for p, v in second.items():
        if p not in out:
            out[p] = v
    return out


def replace_bullet(seq: Seq, value: Seq) -> Seq:
    return map_items(seq, HAS_BULLET, lambda _: value)


def plug_app(app: TimedApp, value: Seq) -> TimedApp:
    """Fill the entry's bullet; the label is kept, this is the same application.
    Only the argument that holds the bullet is rebuilt (``check_config``: an
    entry below the top holds one)."""
    args = app.args
    for k, a in enumerate(args):
        if seq_flags(a) & HAS_BULLET:
            filled = args[:k] + (replace_bullet(a, value),) + args[k + 1 :]
            return TimedApp(app.fname, filled, app.time)
    return app


# ---------------------------------------------------------------------------
# Decomposition into stack form


def _split_leftmost_call(seq: Seq):
    """Locate the leftmost call item, descending through parens only.

    Returns (call, ctx) where ctx is seq with that item replaced by a bullet,
    or None when seq is passive.
    """
    for i, it in enumerate(seq):
        if isinstance(it, Call):
            return it, seq[:i] + (BULLET,) + seq[i + 1 :]
        if it.flags & HAS_CALL:  # a paren: its call is reachable through parens
            call, inner_ctx = _split_leftmost_call(it.items)
            return call, seq[:i] + (Paren(inner_ctx),) + seq[i + 1 :]
    return None


def decompose_expr(seq: Seq):
    """Extract the leftmost-innermost call chain of an expression.

    Returns (chain, ctx): chain is a list of Call items ordered innermost
    first, each later element holding one bullet where the previous result
    flows in; ctx is the expression with the chain's outermost call replaced
    by a bullet. For passive expressions the chain is empty and ctx is seq.

    Appends never enter the chain: concatenation is part of the normal form.
    """
    got = _split_leftmost_call(seq)
    if got is None:
        return [], seq
    cur, ctx = got
    chain = []  # outermost first until reversed
    while True:
        for k, a in enumerate(cur.args):
            sub = _split_leftmost_call(a)
            if sub is not None:
                inner, arg_ctx = sub
                chain.append(Call(cur.fname, cur.args[:k] + (arg_ctx,) + cur.args[k + 1 :]))
                cur = inner
                break
        else:
            chain.append(cur)
            chain.reverse()
            return chain, ctx


def timed_chain(chain, clock: Clock):
    """Stamp a chain with fresh labels, outermost application first."""
    times = [clock.tick() for _ in chain]
    # chain is innermost-first; the outermost gets the earliest label
    return tuple([TimedApp(c.fname, c.args, t) for c, t in zip(chain, reversed(times))])


def decompose(seq: Seq, clock: Clock, pgen: ParamGen):
    """Split a raw expression into a primary configuration plus deferred
    continuations connected by fresh parameters (the let-decomposition)."""
    chain, ctx = decompose_expr(seq)
    if not chain:
        return Configuration((), seq), []
    stack = timed_chain(chain, clock)
    if contains_call(ctx):
        p = pgen.fresh("e")
        cont_seq = replace_bullet(ctx, (p,))
        cont_cfg, more = decompose(cont_seq, clock, pgen)
        return Configuration(stack, (BULLET,)), [(p, cont_cfg)] + more
    return Configuration(stack, ctx), []
