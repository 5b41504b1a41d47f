"""Reference call-by-value interpreter over ground data.

This is the oracle every other component is tested against. It is written
with an explicit frame stack so deeply nested interpreted programs cannot
blow the Python recursion limit.
"""

from __future__ import annotations

from typing import Optional, Union

from .lang import Call, Paren, Program, Seq, Sym, Var, is_ground


class FuelExhausted(Exception):
    """Raised when the rewriting-step budget runs out."""


class Undefined:
    """Outcome of a call that matched no rule anywhere in its evaluation."""

    _inst = None

    def __new__(cls):
        if cls._inst is None:
            cls._inst = super().__new__(cls)
        return cls._inst

    def __repr__(self):
        return "Undefined"


UNDEFINED = Undefined()

DEFAULT_FUEL = 10_000_000


def match_seq(pat: Seq, data: Seq, env: dict) -> Optional[dict]:
    """Deterministic left-to-right match of one pattern against ground data.

    Returns the extended environment, or None on failure. Repeated variables
    must rebind to equal values.
    """
    env = dict(env)
    i = j = 0
    while i < len(pat):
        p = pat[i]
        if isinstance(p, Var) and p.kind == "e":
            # tail position by pattern well-formedness
            rest = data[j:]
            if p in env:
                return env if env[p] == rest else None
            env[p] = rest
            return env
        if j >= len(data):
            return None
        d = data[j]
        if isinstance(p, Sym):
            if d != p:
                return None
        elif isinstance(p, Var):  # s-variable
            if not isinstance(d, Sym):
                return None
            if p in env:
                if env[p] != (d,):
                    return None
            else:
                env[p] = (d,)
        elif isinstance(p, Paren):
            if not isinstance(d, Paren):
                return None
            sub = match_seq(p.items, d.items, env)
            if sub is None:
                return None
            env = sub
        else:
            raise ValueError(f"bad pattern item {p!r}")
        i += 1
        j += 1
    return env if j == len(data) else None


def _match_rule(rule, args) -> Optional[dict]:
    env: Optional[dict] = {}
    for pat, d in zip(rule.lhs, args):
        env = match_seq(pat, d, env)
        if env is None:
            return None
    return env


class _Frame:
    __slots__ = ("env", "items", "idx", "out", "dest", "mode")

    def __init__(self, env, items, dest, mode):
        self.env = env
        self.items = items
        self.idx = 0
        self.out = []
        self.dest = dest  # parent frame or None
        self.mode = mode  # 'top' | 'splice' | 'paren' | 'arg'


class _CallSite:
    __slots__ = ("fname", "args", "idx", "vals", "env", "dest", "mode")

    def __init__(self, fname, args, env, dest, mode):
        self.fname = fname
        self.args = args
        self.idx = 0
        self.vals = []
        self.env = env
        self.dest = dest
        self.mode = mode


def eval_seq(prog: Program, seq: Seq, env: dict, fuel: int = DEFAULT_FUEL):
    """Evaluate an expression under an environment.

    Returns (value, fuel_left) where value is a ground Seq or UNDEFINED.
    """
    root = _Frame(env, seq, None, "top")
    stack = [root]

    def deliver(frame, value):
        if frame.mode == "top":
            return value
        parent = frame.dest
        if frame.mode == "splice":
            parent.out.extend(value)
        elif frame.mode == "paren":
            parent.out.append(Paren(tuple(value)))
        elif frame.mode == "arg":
            parent.vals.append(tuple(value))
        return None

    while stack:
        top = stack[-1]
        if isinstance(top, _CallSite):
            if top.idx < len(top.args):
                a = top.args[top.idx]
                top.idx += 1
                stack.append(_Frame(top.env, a, top, "arg"))
                continue
            fuel -= 1
            if fuel <= 0:
                raise FuelExhausted(f"fuel exhausted in {top.fname}")
            if top.fname not in prog.defs:
                raise ValueError(f"call to undefined function {top.fname}")
            fired = None
            for rule in prog.rules(top.fname):
                got = _match_rule(rule, top.vals)
                if got is not None:
                    fired = (rule, got)
                    break
            if fired is None:
                return UNDEFINED, fuel
            stack.pop()
            rule, newenv = fired
            stack.append(_Frame(newenv, rule.rhs, top.dest, top.mode))
            continue
        if top.idx >= len(top.items):
            stack.pop()
            value = tuple(top.out)
            res = deliver(top, value)
            if top.mode == "top":
                return res, fuel
            continue
        it = top.items[top.idx]
        top.idx += 1
        if isinstance(it, Sym):
            top.out.append(it)
        elif isinstance(it, Var):
            try:
                top.out.extend(top.env[it])
            except KeyError:
                raise ValueError(f"unbound variable {it!r}")
        elif isinstance(it, Paren):
            stack.append(_Frame(top.env, it.items, top, "paren"))
        elif isinstance(it, Call):
            stack.append(_CallSite(it.fname, it.args, top.env, top, "splice"))
        else:
            raise ValueError(f"cannot evaluate item {it!r}")
    raise AssertionError("evaluator stack underflow")


def eval_call(
    prog: Program, fname: str, args, fuel: int = DEFAULT_FUEL
) -> Union[Seq, Undefined]:
    """Run ``fname`` on ground arguments; the leftmost-innermost semantics."""
    args = [tuple(a) for a in args]
    for a in args:
        if not is_ground(a):
            raise ValueError("eval_call arguments must be ground data")
    if fname not in prog.defs:
        raise ValueError(f"call to undefined function {fname}")
    if len(args) != prog.arity(fname):
        raise ValueError(f"arity mismatch calling {fname}")
    value, _ = eval_seq(prog, (Call(fname, tuple(args)),), {}, fuel)
    return value
