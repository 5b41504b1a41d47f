"""One-step symbolic unfolding of configurations.

Matching against parameterized data enumerates narrowing cases in rule
order. Branches are ordered; a later sibling covers the instances that no
earlier sibling claimed, which is exactly the rule fall-through order of
the language. Residual programs keep that order, so no negative information
needs to be recorded.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    HAS_VAR,
    Bullet,
    Call,
    Paren,
    Param,
    Program,
    Seq,
    Sym,
    Var,
    contains_call,
    is_ground,
)


class NotSupported(Exception):
    """The driver refuses patterns outside the fragment it can narrow."""


@dataclass(frozen=True)
class Branch:
    contraction: dict
    successor: Optional[Configuration]  # None for abnormal (stuck) cases
    tag: str  # 'fired' | 'stuck' | 'decompose'
    rule_index: Optional[int] = None
    deferred: tuple = ()  # (param, Configuration) continuations from tail splits


@dataclass(frozen=True)
class StepResult:
    kind: str  # 'branches' | 'passive' | 'split'
    branches: tuple = ()
    value: Seq = ()
    primary: Optional[Configuration] = None
    deferred: tuple = ()


# ---------------------------------------------------------------------------
# Three-valued matching over parameterized data


def _subst_vars(seq: Seq, env: dict) -> Seq:
    out = []
    for it in seq:
        if not it.flags & HAS_VAR:
            out.append(it)
        elif isinstance(it, Var):
            out.extend(env[it])
        elif isinstance(it, Paren):
            out.append(Paren(_subst_vars(it.items, env)))
        else:
            out.append(Call(it.fname, tuple(_subst_vars(a, env) for a in it.args)))
    return tuple(out)


def _match_one(pat: Seq, data: Seq, env: dict):
    """Match one pattern against one parameterized argument.

    Returns ('ok', env) | ('fail',) | ('need', request). Requests:
    ('shape', eparam) and ('sym', sparam, item) — the latter is an ordered
    decision: equal first, fall through otherwise.
    """
    i = j = 0
    while True:
        if i >= len(pat):
            if j >= len(data):
                return ("ok", env)
            d = data[j]
            if isinstance(d, Param) and d.kind == "e":
                return ("need", ("shape", d))
            return ("fail",)
        p = pat[i]
        if isinstance(p, Var) and p.kind == "e":
            rest = data[j:]
            if p in env:
                if env[p] == rest:
                    return ("ok", env)
                if is_ground(env[p]) and is_ground(rest):
                    return ("fail",)
                raise NotSupported(
                    f"repeated e-variable {p!r} against open data"
                )
            env = dict(env)
            env[p] = rest
            return ("ok", env)
        if j >= len(data):
            return ("fail",)
        d = data[j]
        if isinstance(d, Param) and d.kind == "e":
            return ("need", ("shape", d))
        if isinstance(d, (Call, Bullet)):
            raise AssertionError(f"active or bullet data in matching: {d!r}")
        if isinstance(p, Sym):
            if isinstance(d, Sym):
                if d != p:
                    return ("fail",)
            elif isinstance(d, Param):  # s-parameter
                return ("need", ("sym", d, p))
            else:
                return ("fail",)
        elif isinstance(p, Var):  # s-variable
            if p in env:
                b = env[p][0]
                if isinstance(b, Sym):
                    if isinstance(d, Sym):
                        if d != b:
                            return ("fail",)
                    elif isinstance(d, Param):
                        return ("need", ("sym", d, b))
                    else:
                        return ("fail",)
                else:  # bound to an s-parameter
                    if isinstance(d, Sym):
                        return ("need", ("sym", b, d))
                    if isinstance(d, Param):
                        if d == b:
                            pass
                        else:
                            return ("need", ("sym", d, b))
                    else:
                        return ("fail",)
            else:
                if isinstance(d, Sym) or (isinstance(d, Param) and d.kind == "s"):
                    env = dict(env)
                    env[p] = (d,)
                else:
                    return ("fail",)
        elif isinstance(p, Paren):
            if isinstance(d, Paren):
                got = _match_one(p.items, d.items, env)
                if got[0] != "ok":
                    return got
                env = got[1]
            else:
                return ("fail",)
        else:
            raise AssertionError(f"bad pattern item {p!r}")
        i += 1
        j += 1


def _match_rule(lhs: tuple, args: tuple, env: dict):
    for pat, d in zip(lhs, args):
        got = _match_one(pat, d, env)
        if got[0] != "ok":
            return got
        env = got[1]
    return ("ok", env)


def _shape_cases(e: Param, pgen: ParamGen):
    s = pgen.fresh("s")
    e1 = pgen.fresh("e")
    q = pgen.fresh("e")
    e2 = pgen.fresh("e")
    return [{e: ()}, {e: (s, e1)}, {e: (Paren((q,)), e2)}]


# ---------------------------------------------------------------------------
# Driving proper


def _walk_rules(rules, args, pgen: ParamGen, warn=None):
    """Ordered branch enumeration: list of (theta, kind, rule_idx, env)."""
    out = []

    def walk(cur_args, theta, start):
        for ri in range(start, len(rules)):
            got = _match_rule(rules[ri].lhs, cur_args, {})
            if got[0] == "fail":
                continue
            if got[0] == "ok":
                out.append((theta, "fire", ri, got[1]))
                return
            req = got[1]
            if req[0] == "shape":
                for case in _shape_cases(req[1], pgen):
                    walk(
                        tuple(subst_seq(a, case) for a in cur_args),
                        compose_subst(theta, case),
                        ri,
                    )
                return
            if req[0] == "sym":
                sparam, item = req[1], req[2]
                if isinstance(item, Param) and warn:
                    warn(f"parameter-parameter symbol decision {sparam!r}={item!r}")
                case = {sparam: (item,)}
                walk(
                    tuple(subst_seq(a, case) for a in cur_args),
                    compose_subst(theta, case),
                    ri,
                )
                walk(cur_args, theta, ri + 1)
                return
            raise AssertionError(req)
        out.append((theta, "stuck", None, None))

    walk(tuple(args), {}, 0)
    return out


def _fire_successor(config: Configuration, theta: dict, rhs: Seq, env: dict,
                    clock: Clock, pgen: ParamGen):
    """Pop the fired top, thread its result, restore stack form."""
    result = _subst_vars(rhs, env)
    rest = [subst_app(e, theta) for e in config.stack[1:]]
    tail = subst_seq(config.tail, theta)
    if rest:
        chain, ctx = decompose_expr(result)
        entries = timed_chain(chain, clock) if chain else ()
        rest[0] = plug_app(rest[0], ctx)
        return Configuration(entries + tuple(rest), tail), ()
    raw = replace_bullet(tail, result) if config.stack else result
    succ, deferred = decompose(raw, clock, pgen)
    return succ, tuple(deferred)


def drive(config: Configuration, prog: Program, clock: Clock, pgen: ParamGen,
          warn=None) -> StepResult:
    """One driving step of the topmost stack entry."""
    if not config.stack:
        if contains_call(config.tail):
            primary, deferred = decompose(config.tail, clock, pgen)
            return StepResult("split", primary=primary, deferred=tuple(deferred))
        return StepResult("passive", value=config.tail)

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
            return StepResult(
                "branches", branches=(Branch({}, succ, "decompose"),)
            )

    if top.fname not in prog.defs:
        raise ValueError(f"call to undefined function {top.fname}")
    raw = _walk_rules(prog.rules(top.fname), top.args, pgen, warn)
    branches = []
    for theta, kind, ri, env in raw:
        if kind == "stuck":
            branches.append(Branch(theta, None, "stuck"))
        else:
            succ, deferred = _fire_successor(
                config, theta, prog.rules(top.fname)[ri].rhs, env, clock, pgen
            )
            branches.append(Branch(theta, succ, "fired", ri, deferred))
    return StepResult("branches", branches=tuple(branches))


def is_renaming(theta: dict) -> bool:
    """True when no parameter is split or instantiated to structure."""
    for p, v in theta.items():
        if len(v) != 1 or not isinstance(v[0], Param) or v[0].kind != p.kind:
            return False
    return True


def is_transitive(config: Configuration, prog: Program) -> bool:
    """A configuration whose one-step unfolding has a single outgoing edge.

    Probed by actually driving with throwaway clocks, per the definition.
    """
    res = drive(config, prog, Clock(10**9), ParamGen(10**9))
    if res.kind == "passive":
        return False
    if res.kind == "split":
        return True
    if len(res.branches) != 1:
        return False
    b = res.branches[0]
    return b.tag != "stuck" and is_renaming(b.contraction)


def narrow_match(pat: Seq, data: Seq, pgen: ParamGen, env: Optional[dict] = None):
    """Complete ordered case analysis of one pattern against open data.

    Returns (successes, failures): successes are (contraction, env) pairs,
    failures are contractions of the definitely-failing cases, in decision
    order. Every ground instance of the data is covered by exactly one case
    under first-match reading.
    """
    succ, fail = [], []

    def walk(d, theta, env):
        got = _match_one(pat, d, env)
        if got[0] == "ok":
            succ.append((theta, got[1]))
            return
        if got[0] == "fail":
            fail.append(theta)
            return
        req = got[1]
        if req[0] == "shape":
            for case in _shape_cases(req[1], pgen):
                walk(subst_seq(d, case), compose_subst(theta, case), env)
            return
        sparam, item = req[1], req[2]
        case = {sparam: (item,)}
        walk(subst_seq(d, case), compose_subst(theta, case), env)
        fail.append(theta)

    walk(tuple(data), {}, dict(env or {}))
    return succ, fail
