"""Independent oracles and generators shared by the test suite.

The naive embedding below follows the definition clause by clause as a
memoized derivability search; the packaged implementation is a greedy scan.
Agreement between the two is an acceptance criterion.

The naive walkers enter every subtree; the packaged ones skip subtrees
whose structure flags show that nothing below them can change.

The reference rule matcher at the end copies its env at each binding, and
the reference fold matcher enters every pattern item; the packaged ones bind
in place and decide parameter-free pattern items by equality, and are
checked against them. The reference rule-subsumption matcher is the
recursive variable matcher that residual cleanup used before folding and
subsumption shared ``lang.inst_seq``.

The reference msg decides whether two items align in one routine and
generalizes them in another, as msg did before one routine did both.

The reference skip loop drives every step of a transitive chain, as the
engine did before it replayed chains from a memo.

The reference substitution rebuilds every item that holds a parameter,
as ``config.subst_seq`` did before it kept unchanged parens, calls and
sequences as the same objects.

The residual cleanup references are the call walkers that forwarder
inlining, the rename after merging and the definition key used before they
were built on ``lang.map_calls`` and ``lang.map_items``.

The reference rule firing decomposes the right-hand side and rebuilds every
argument, the entry below and, at the bottom of the stack, the whole
successor, as driving did before its rule rows held instantiation plans.

The hypothesis strategies at the end draw parameterized data: symbols,
parameters and parens, with no call and no bullet.
"""

from __future__ import annotations

import random
from functools import lru_cache

from hypothesis import strategies as st

from scpv.config import (
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
)
from scpv.driving import (
    FAIL,
    NotSupported,
    _match_one,
    _shape_cases,
    _subst_vars,
    drive,
)
from scpv.lang import (
    BULLET,
    HAS_BULLET,
    HAS_PARAM,
    HAS_VAR,
    Bullet,
    Call,
    FuncDef,
    Paren,
    Param,
    Program,
    Rule,
    Seq,
    Sym,
    Var,
    bullet_count,
    is_ground,
    is_sym_kind,
    iter_items,
    map_items,
)
from scpv.interp import eval_seq, match_seq  # noqa: used by helpers below
from scpv.relations import _config_embed
from scpv.transform import Generalization, Incompatible, _subst_vars_seq


def _sym_kind(it) -> bool:
    return isinstance(it, Sym) or (isinstance(it, (Var, Param)) and it.kind == "s")


def _blocked(a, b) -> bool:
    # the published restriction: ([]) embeds neither into (sym) nor (s-var)
    return (
        isinstance(a, Paren)
        and not a.items
        and isinstance(b, Paren)
        and len(b.items) == 1
        and _sym_kind(b.items[0])
    )


def _base_case(a) -> bool:
    # the guarded variant: a paren holding at most one symbol is an
    # induction base case
    return (
        isinstance(a, Paren)
        and len(a.items) <= 1
        and all(isinstance(it, Sym) for it in a.items)
    )


@lru_cache(maxsize=1 << 20)
def naive_embed(s: Seq, t: Seq, guard: bool = False) -> bool:
    if s == t or not s:
        return True
    if not t:
        return False
    head, rest = t[0], t[1:]
    # prepending on the right keeps embeddings
    if naive_embed(s, rest, guard):
        return True
    # diving into a paren or a call argument
    if isinstance(head, Paren) and naive_embed(s, head.items, guard):
        return True
    if isinstance(head, Call) and any(naive_embed(s, a, guard) for a in head.args):
        return True
    # head-to-head congruence
    if s and naive_term_embed(s[0], head, guard) and naive_embed(s[1:], rest, guard):
        return True
    return False


def naive_term_embed(a, b, guard: bool = False) -> bool:
    if a == b:
        return True
    if isinstance(a, (Var, Param)) and isinstance(b, (Var, Param)):
        return a.kind == b.kind
    if isinstance(b, Paren):
        if _blocked(a, b):
            return False
        if guard and _base_case(a):
            return False  # a base case embeds only into itself
        if isinstance(a, Paren) and naive_embed(a.items, b.items, guard):
            return True
        return naive_embed((a,), b.items, guard)
    if isinstance(b, Call):
        if (
            isinstance(a, Call)
            and a.fname == b.fname
            and len(a.args) == len(b.args)
            and all(naive_embed(x, y, guard) for x, y in zip(a.args, b.args))
        ):
            return True
        return any(naive_embed((a,), arg, guard) for arg in b.args)
    return False


# ---------------------------------------------------------------------------
# Expression generators

ALPHABET = (Sym("a", char=True), Sym("I"))


def expr_size(seq: Seq) -> int:
    n = 0
    for it in seq:
        if isinstance(it, Paren):
            n += 1 + expr_size(it.items)
        else:
            n += 1
    return n


def all_exprs(size: int, alphabet=ALPHABET):
    """Every ground expression whose symbol-plus-paren count equals size."""
    if size == 0:
        yield ()
        return
    for head_size in range(1, size + 1):
        heads = []
        if head_size == 1:
            heads.extend(alphabet)
        heads.extend(Paren(inner) for inner in all_exprs(head_size - 1, alphabet))
        for head in heads:
            for tail in all_exprs(size - head_size, alphabet):
                yield (head,) + tail


def random_expr(rnd: random.Random, size: int, evars=0, svars=0) -> Seq:
    out = []
    budget = size
    while budget > 0:
        kind = rnd.random()
        if kind < 0.55 or budget < 2:
            out.append(rnd.choice(ALPHABET))
            budget -= 1
        elif kind < 0.8:
            inner_size = rnd.randint(0, budget - 1)
            out.append(Paren(random_expr(rnd, inner_size, evars, svars)))
            budget -= inner_size + 1
        elif kind < 0.9 and svars:
            out.append(Var("s", f"v{rnd.randrange(svars)}"))
            budget -= 1
        elif evars:
            out.append(Var("e", f"w{rnd.randrange(evars)}"))
            budget -= 1
        else:
            out.append(rnd.choice(ALPHABET))
            budget -= 1
    return tuple(out)


def random_ground(rnd: random.Random, size: int) -> Seq:
    return random_expr(rnd, size, evars=0, svars=0)


# ---------------------------------------------------------------------------
# Small random encodable programs (unary, variable-safe)


def random_program(rnd: random.Random, n_funcs=2, n_rules=2) -> Program:
    names = [f"G{i}" for i in range(n_funcs)]
    defs = []
    for name in names:
        rules = []
        for _ in range(rnd.randint(1, n_rules)):
            pat = _random_pattern(rnd, rnd.randint(0, 3))
            pat_vars = [v for v in _vars_in(pat)]
            body = _random_body(rnd, rnd.randint(0, 3), pat_vars, names)
            rules.append(Rule((pat,), body))
        defs.append(FuncDef(name, 1, tuple(rules)))
    return Program(defs)


def _vars_in(seq):
    for it in seq:
        if isinstance(it, Var):
            yield it
        elif isinstance(it, Paren):
            yield from _vars_in(it.items)


def _random_pattern(rnd, size, depth=0) -> Seq:
    out = []
    for i in range(size):
        c = rnd.random()
        if c < 0.4:
            out.append(rnd.choice(ALPHABET))
        elif c < 0.6:
            out.append(Var("s", f"s{rnd.randrange(3)}"))
        elif c < 0.8 and depth < 2:
            out.append(Paren(_random_pattern(rnd, rnd.randint(0, 2), depth + 1)))
        else:
            out.append(rnd.choice(ALPHABET))
    if rnd.random() < 0.5:
        out.append(Var("e", "r"))
    return tuple(out)


def _random_body(rnd, size, pat_vars, names, depth=0) -> Seq:
    out = []
    for _ in range(size):
        c = rnd.random()
        if c < 0.35:
            out.append(rnd.choice(ALPHABET))
        elif c < 0.55 and pat_vars:
            out.append(rnd.choice(pat_vars))
        elif c < 0.75 and depth < 2:
            out.append(Paren(_random_body(rnd, rnd.randint(0, 2), pat_vars, names, depth + 1)))
        elif depth < 2:
            out.append(
                Call(
                    rnd.choice(names),
                    (_random_body(rnd, rnd.randint(0, 2), pat_vars, names, depth + 1),),
                )
            )
        else:
            out.append(rnd.choice(ALPHABET))
    return tuple(out)


# ---------------------------------------------------------------------------
# Configurations as expressions (for evaluator cross-checks)


def config_to_expr(c: Configuration) -> Seq:
    from scpv.config import replace_bullet
    from scpv.lang import Call as C

    expr = None
    for entry in c.stack:  # top first; each later entry consumes the result
        body = (C(entry.fname, entry.args),)
        expr = body if expr is None else replace_bullet(body, expr)
    if expr is None:
        return c.tail
    return replace_bullet(c.tail, expr)


def eval_ground_expr(prog, seq, fuel=2_000_000):
    value, _ = eval_seq(prog, seq, {}, fuel)
    return value


# ---------------------------------------------------------------------------
# Naive structural walkers: full traversals that ignore the structure flags


def naive_contains_call(seq: Seq) -> bool:
    for it in seq:
        if isinstance(it, Call):
            return True
        if isinstance(it, Paren) and naive_contains_call(it.items):
            return True
    return False


def naive_is_ground(seq: Seq) -> bool:
    return all(isinstance(it, (Sym, Paren)) for it in iter_items(seq))


def naive_bullet_count(seq: Seq) -> int:
    return sum(1 for it in iter_items(seq) if isinstance(it, Bullet))


def naive_replace_bullet(seq: Seq, value: Seq) -> Seq:
    out = []
    for it in seq:
        if isinstance(it, Bullet):
            out.extend(value)
        elif isinstance(it, Paren):
            out.append(Paren(naive_replace_bullet(it.items, value)))
        elif isinstance(it, Call):
            out.append(Call(it.fname, tuple(naive_replace_bullet(a, value) for a in it.args)))
        else:
            out.append(it)
    return tuple(out)


def naive_subst_seq(seq: Seq, theta: dict) -> Seq:
    if not theta:
        return seq
    out = []
    for it in seq:
        if isinstance(it, Param):
            rep = theta.get(it)
            if rep is None:
                out.append(it)
            else:
                if it.kind == "s" and len(rep) != 1:
                    raise ValueError(f"s-parameter {it!r} bound to a sequence")
                out.extend(rep)
        elif isinstance(it, Paren):
            out.append(Paren(naive_subst_seq(it.items, theta)))
        elif isinstance(it, Call):
            out.append(Call(it.fname, tuple(naive_subst_seq(a, theta) for a in it.args)))
        else:
            out.append(it)
    return tuple(out)


def ref_subst_seq(seq: Seq, theta: dict) -> Seq:
    if not theta:
        return seq

    def leaf(p):
        rep = theta.get(p)
        if rep is None:
            return (p,)
        if p.kind == "s" and len(rep) != 1:
            raise ValueError(f"s-parameter {p!r} bound to a sequence")
        return rep

    return map_items(seq, HAS_PARAM, leaf)


def naive_subst_vars(seq: Seq, env: dict) -> Seq:
    out = []
    for it in seq:
        if isinstance(it, Var):
            out.extend(env[it])
        elif isinstance(it, Paren):
            out.append(Paren(naive_subst_vars(it.items, env)))
        elif isinstance(it, Call):
            out.append(Call(it.fname, tuple(naive_subst_vars(a, env) for a in it.args)))
        else:
            out.append(it)
    return tuple(out)


def naive_render_seq(seq: Seq) -> Seq:
    """Parameters as residual variables; a bullet raises ``IncompleteGraph``."""
    from scpv.transform import IncompleteGraph

    out = []
    for it in seq:
        if isinstance(it, Param):
            out.append(Var(it.kind, str(it.num)))
        elif isinstance(it, Bullet):
            raise IncompleteGraph("bullet escaped into residual code")
        elif isinstance(it, Paren):
            out.append(Paren(naive_render_seq(it.items)))
        elif isinstance(it, Call):
            out.append(Call(it.fname, tuple(naive_render_seq(a) for a in it.args)))
        else:
            out.append(it)
    return tuple(out)


def naive_split_leftmost_call(seq: Seq):
    for i, it in enumerate(seq):
        if isinstance(it, Call):
            return it, seq[:i] + (BULLET,) + seq[i + 1 :]
        if isinstance(it, Paren):
            got = naive_split_leftmost_call(it.items)
            if got is not None:
                call, inner_ctx = got
                return call, seq[:i] + (Paren(inner_ctx),) + seq[i + 1 :]
    return None


# ---------------------------------------------------------------------------
# Reference matchers: copying, tuple-returning rule matching, and fold
# matching that enters every pattern item


def ref_match_one(pat: Seq, data: Seq, env: dict):
    """Returns ('ok', env) | ('fail',) | ('need', request), never mutating
    the env it is given."""
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
                raise NotSupported(f"repeated e-variable {p!r} against open data")
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
                        if d != b:
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
                got = ref_match_one(p.items, d.items, env)
                if got[0] != "ok":
                    return got
                env = got[1]
            else:
                return ("fail",)
        else:
            raise AssertionError(f"bad pattern item {p!r}")
        i += 1
        j += 1


def ref_match_rule(lhs: tuple, args: tuple, env: dict):
    for pat, d in zip(lhs, args):
        got = ref_match_one(pat, d, env)
        if got[0] != "ok":
            return got
        env = got[1]
    return ("ok", env)


def narrow_match(pat: Seq, data: Seq, pgen, env=None):
    """Complete ordered case analysis of one pattern against open data.

    Returns (successes, failures): successes are (contraction, env) pairs,
    failures are contractions of the definitely-failing cases, in decision
    order. Every ground instance of the data is covered by exactly one case
    under first-match reading.
    """
    succ, fail = [], []

    def walk(d, theta, env):
        bound = dict(env)
        req = _match_one(pat, d, bound)
        if req is None:
            succ.append((theta, bound))
            return
        if req is FAIL:
            fail.append(theta)
            return
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
    branches = drive(config, prog, Clock(10**9), ParamGen(10**9))
    if len(branches) != 1:  # a passive value has none
        return False
    b = branches[0]
    return b.tag != "stuck" and is_renaming(b.contraction)


def ref_skip_chain(config: Configuration, prog: Program, clock: Clock,
                   pgen: ParamGen, trace) -> tuple:
    """The transitive-skip loop of ``Engine.step`` with no chain memo: drive
    every configuration of the chain. It stops where a step is not
    transitive, where the successor equals the checkpoint with labels
    ignored, or where the checkpoint is about to move (at each power of two
    skips) and the successor embeds it. Returns (end, drive of the end,
    skips) and counts the skips in ``trace.transitive_steps``."""
    skipped = 0
    checkpoint = config
    while True:
        branches = drive(config, prog, clock, pgen, trace.warn)
        if len(branches) != 1:
            break
        b = branches[0]
        if b.tag == "stuck" or not is_renaming(b.contraction) or b.deferred:
            break
        succ = b.successor
        same = [(e.fname, e.args) for e in succ.stack] == [
            (e.fname, e.args) for e in checkpoint.stack
        ] and succ.tail == checkpoint.tail
        n = skipped + 1
        if same or (n & (n - 1) == 0 and _config_embed(checkpoint, succ)):
            break
        config = succ
        trace.transitive_steps += 1
        skipped = n
        if n & (n - 1) == 0:
            checkpoint = config
    return config, branches, skipped


def ref_fire_successor(config: Configuration, theta: dict, rhs: Seq, env: dict,
                       clock: Clock, pgen: ParamGen):
    """Pop the fired top, thread its result, restore stack form."""
    chain, ctx = decompose_expr(rhs)
    stack = config.stack
    if len(stack) > 1:
        below, tail = stack[1:], config.tail
        if theta:
            below = tuple([subst_app(e, theta) for e in below])
            tail = subst_seq(tail, theta)
        times = [clock.tick() for _ in chain]
        # chain is innermost-first; the outermost gets the earliest label
        entries = tuple([
            TimedApp(c.fname, tuple([_subst_vars(a, env) for a in c.args]), t)
            for c, t in zip(chain, reversed(times))
        ])
        plugged = plug_app(below[0], _subst_vars(ctx, env))
        return Configuration(entries + (plugged,) + below[1:], tail), ()
    raw = replace_bullet(subst_seq(config.tail, theta), _subst_vars(rhs, env))
    succ, deferred = decompose(raw, clock, pgen)
    return succ, tuple(deferred)


def ref_inst_seq(pat: Seq, subj: Seq, th: dict, budget):
    """Fold matching that enters every pattern item; ``budget`` is a
    ``lang.Budget``."""
    if not budget.spend():
        return None
    if not pat:
        return th if not subj else None
    p, rest = pat[0], pat[1:]
    if isinstance(p, Param) and p.kind == "e":
        if p in th:
            v = th[p]
            if subj[: len(v)] == v:
                return ref_inst_seq(rest, subj[len(v) :], th, budget)
            return None
        for k in range(len(subj) + 1):
            th2 = dict(th)
            th2[p] = subj[:k]
            got = ref_inst_seq(rest, subj[k:], th2, budget)
            if got is not None:
                return got
        return None
    if not subj:
        return None
    d = subj[0]
    if isinstance(p, Param):  # s-parameter
        if not (isinstance(d, Sym) or (isinstance(d, Param) and d.kind == "s")):
            return None
        if p in th:
            if th[p] != (d,):
                return None
            return ref_inst_seq(rest, subj[1:], th, budget)
        th2 = dict(th)
        th2[p] = (d,)
        return ref_inst_seq(rest, subj[1:], th2, budget)
    if isinstance(p, (Sym, Bullet)):
        if p != d:
            return None
        return ref_inst_seq(rest, subj[1:], th, budget)
    if isinstance(p, Paren):
        if not isinstance(d, Paren):
            return None
        got = ref_inst_seq(p.items, d.items, th, budget)
        if got is None:
            return None
        return ref_inst_seq(rest, subj[1:], got, budget)
    if isinstance(p, Call):
        if not (isinstance(d, Call) and d.fname == p.fname and len(d.args) == len(p.args)):
            return None
        got = th
        for pa, da in zip(p.args, d.args):
            got = ref_inst_seq(pa, da, got, budget)
            if got is None:
                return None
        return ref_inst_seq(rest, subj[1:], got, budget)
    return None


def ref_pattern_instance(general: Seq, specific: Seq, th: dict):
    """Match one residual pattern against another, variables as holes."""
    if not general:
        return th if not specific else None
    p, rest = general[0], general[1:]
    if isinstance(p, Var) and p.kind == "e":
        if p in th:
            v = th[p]
            return (
                ref_pattern_instance(rest, specific[len(v):], th)
                if specific[: len(v)] == v
                else None
            )
        for k in range(len(specific) + 1):
            th2 = dict(th)
            th2[p] = specific[:k]
            got = ref_pattern_instance(rest, specific[k:], th2)
            if got is not None:
                return got
        return None
    if not specific:
        return None
    d = specific[0]
    if isinstance(p, Var):  # s-variable hole
        if not (isinstance(d, Sym) or (isinstance(d, Var) and d.kind == "s")):
            return None
        if p in th:
            return ref_pattern_instance(rest, specific[1:], th) if th[p] == (d,) else None
        th2 = dict(th)
        th2[p] = (d,)
        return ref_pattern_instance(rest, specific[1:], th2)
    if isinstance(p, Sym):
        return ref_pattern_instance(rest, specific[1:], th) if p == d else None
    if isinstance(p, Paren):
        if not isinstance(d, Paren):
            return None
        got = ref_pattern_instance(p.items, d.items, th)
        if got is None:
            return None
        return ref_pattern_instance(rest, specific[1:], got)
    return None


# ---------------------------------------------------------------------------
# Reference most specific generalization


def _ref_ground_item(it) -> bool:
    return not it.flags & (HAS_PARAM | HAS_VAR | HAS_BULLET)


def _ref_alignable(x, y) -> bool:
    if x == y and _ref_ground_item(x):
        return True
    if isinstance(x, Bullet) and isinstance(y, Bullet):
        return True
    if is_sym_kind(x) and is_sym_kind(y):
        return True
    if isinstance(x, Param) and isinstance(y, Param) and x.kind == y.kind:
        return True
    if isinstance(x, Paren) and isinstance(y, Paren):
        return True
    if isinstance(x, Call) and isinstance(y, Call):
        return x.fname == y.fname and len(x.args) == len(y.args)
    return False


def _ref_msg_seq(a: Seq, b: Seq, pgen: ParamGen, th1: dict, th2: dict) -> Seq:
    a, b = tuple(a), tuple(b)
    lo = 0
    left = []
    while lo < len(a) and lo < len(b) and _ref_alignable(a[lo], b[lo]):
        left.append(_ref_msg_item(a[lo], b[lo], pgen, th1, th2))
        lo += 1
    hi = 0
    right = []
    while (
        len(a) - hi > lo
        and len(b) - hi > lo
        and _ref_alignable(a[-1 - hi], b[-1 - hi])
    ):
        right.append(_ref_msg_item(a[-1 - hi], b[-1 - hi], pgen, th1, th2))
        hi += 1
    mid_a, mid_b = a[lo : len(a) - hi], b[lo : len(b) - hi]
    middle = []
    if mid_a or mid_b:
        if bullet_count(mid_a) or bullet_count(mid_b):
            raise Incompatible("bullets cannot be generalized away")
        p = pgen.fresh("e")
        th1[p] = mid_a
        th2[p] = mid_b
        middle = [p]
    return tuple(left + middle + list(reversed(right)))


def _ref_msg_item(x, y, pgen: ParamGen, th1, th2):
    if x == y and _ref_ground_item(x):
        return x
    if isinstance(x, Bullet):
        return x
    if isinstance(x, Paren) and isinstance(y, Paren):
        return Paren(_ref_msg_seq(x.items, y.items, pgen, th1, th2))
    if isinstance(x, Call) and isinstance(y, Call):
        return Call(
            x.fname,
            tuple(_ref_msg_seq(p, q, pgen, th1, th2) for p, q in zip(x.args, y.args)),
        )
    if isinstance(x, Param) and isinstance(y, Param) and x.kind == y.kind == "e":
        p = pgen.fresh("e")
        th1[p] = (x,)
        th2[p] = (y,)
        return p
    # both symbol-kind
    p = pgen.fresh("s")
    th1[p] = (x,)
    th2[p] = (y,)
    return p


def ref_msg(c1: Configuration, c2: Configuration, pgen: ParamGen) -> Generalization:
    """msg with alignment decided before each item is generalized."""
    if len(c1.stack) != len(c2.stack):
        raise Incompatible("stack heights differ")
    th1: dict = {}
    th2: dict = {}
    entries = []
    for f, g in zip(c1.stack, c2.stack):
        if f.fname != g.fname or len(f.args) != len(g.args):
            raise Incompatible(f"stack entries {f.fname}/{g.fname} differ")
        args = tuple(_ref_msg_seq(p, q, pgen, th1, th2) for p, q in zip(f.args, g.args))
        entries.append(TimedApp(f.fname, args, f.time))
    tail = _ref_msg_seq(c1.tail, c2.tail, pgen, th1, th2)
    return Generalization(Configuration(tuple(entries), tail), th1, th2)


# ---------------------------------------------------------------------------
# Residual cleanup references


def ref_inline_calls(seq: Seq, inlinable: dict, budget: list) -> Seq:
    """Forwarder inlining; ``inlinable`` maps a name to its one rule, and
    must hold no cycle, since this walker does not stop one."""
    out = []
    for it in seq:
        if isinstance(it, Paren):
            out.append(Paren(ref_inline_calls(it.items, inlinable, budget)))
            continue
        if not isinstance(it, Call):
            out.append(it)
            continue
        args = tuple(ref_inline_calls(a, inlinable, budget) for a in it.args)
        rule = inlinable.get(it.fname)
        if rule is not None and budget[0] > 0:
            env = {}
            ok = True
            for pat, arg in zip(rule.lhs, args):
                if len(pat) == 1 and isinstance(pat[0], Var):
                    v = pat[0]
                    if v.kind == "e":
                        env[v] = arg
                    elif len(arg) == 1 and _sym_kind(arg[0]):
                        env[v] = arg
                    else:
                        ok = False
                        break
                elif pat == () and arg == ():
                    continue
                else:
                    ok = False
                    break
            if ok:
                budget[0] -= 1
                out.extend(
                    ref_inline_calls(_subst_vars_seq(rule.rhs, env), inlinable, budget)
                )
                continue
        out.append(Call(it.fname, args))
    return tuple(out)


def ref_canonical_def(d: FuncDef) -> tuple:
    """Shape of a definition with variables numbered by first occurrence."""
    names: dict = {}

    def canon(seq):
        out = []
        for it in seq:
            if isinstance(it, Var):
                key = ("v", it)
                if key not in names:
                    names[key] = len(names)
                out.append((it.kind, names[key]))
            elif isinstance(it, Paren):
                out.append(("p", canon(it.items)))
            elif isinstance(it, Call):
                out.append(("c", it.fname, tuple(canon(a) for a in it.args)))
            else:
                out.append(it)
        return tuple(out)

    body = []
    for r in d.rules:
        body.append((tuple(canon(p) for p in r.lhs), canon(r.rhs)))
    return (d.arity, tuple(body))


def ref_rename_calls(seq: Seq, mapping: dict) -> Seq:
    out = []
    for it in seq:
        if isinstance(it, Paren):
            out.append(Paren(ref_rename_calls(it.items, mapping)))
        elif isinstance(it, Call):
            out.append(
                Call(
                    mapping.get(it.fname, it.fname),
                    tuple(ref_rename_calls(a, mapping) for a in it.args),
                )
            )
        else:
            out.append(it)
    return tuple(out)


# ---------------------------------------------------------------------------
# Small helpers with no use in the library


def cat(*seqs: Seq) -> Seq:
    """Concatenation; the `++` constructor in normal form."""
    out = []
    for s in seqs:
        out.extend(s)
    return tuple(out)


def normalize(seq) -> Seq:
    """Flatten any stray nesting into the tuple segment form (idempotent)."""
    out = []
    for it in seq:
        if isinstance(it, (tuple, list)):
            out.extend(normalize(tuple(it)))
        elif isinstance(it, Paren):
            out.append(Paren(normalize(it.items)))
        elif isinstance(it, Call):
            out.append(Call(it.fname, tuple(normalize(a) for a in it.args)))
        else:
            out.append(it)
    return tuple(out)


def multiplicity(v, seq: Seq) -> int:
    """Number of occurrences of a variable in an expression."""
    return sum(1 for it in iter_items(seq) if it == v)


def match_ground(pat: Seq, data: Seq, env=None):
    """The reference interpreter's matcher, from an empty environment."""
    return match_seq(pat, data, env or {})


# ---------------------------------------------------------------------------
# Hypothesis strategies for parameterized data


SYMS = (Sym("a", char=True), Sym("I"), Sym("T"))
S_PARAMS = (Param("s", 1), Param("s", 2))
E_PARAMS = (Param("e", 3), Param("e", 4))


def passive(leaves):
    """Sequences of the given leaves and parens: no call, no bullet."""
    item = st.recursive(
        st.sampled_from(leaves),
        lambda kids: st.lists(kids, max_size=3).map(lambda xs: Paren(tuple(xs))),
        max_leaves=10,
    )
    return st.lists(item, max_size=4).map(tuple)


open_data = passive(SYMS + S_PARAMS + E_PARAMS)
sym_like = st.sampled_from(SYMS + S_PARAMS)


def draw_value(draw, v, values):
    """One symbol-like item for an s-variable or s-parameter, a sequence
    from ``values`` for an e-variable or e-parameter."""
    return (draw(sym_like),) if v.kind == "s" else draw(values)


def draw_env(draw, names, values):
    return {v: draw_value(draw, v, values) for v in names}
