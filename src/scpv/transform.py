"""Most specific generalization, fold-instance matching, task decomposition
and residual-program construction."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .config import (
    Configuration,
    ParamGen,
    TimedApp,
    compose_subst,
    plug_app,
    subst_seq,
)
from .lang import (
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
    inst_args,
    is_sym_kind,
    iter_items,
    map_calls,
    map_items,
    vars_of,
)


class Incompatible(Exception):
    """Top-level shapes cannot be merged into a common configuration."""


@dataclass(frozen=True)
class Generalization:
    gen: Configuration
    theta1: dict
    theta2: dict


def _ground_item(it) -> bool:
    return not it.flags & (HAS_PARAM | HAS_VAR | HAS_BULLET)


def msg_seq(a: Seq, b: Seq, pgen: ParamGen, th1: dict, th2: dict) -> Seq:
    """Generalize two sequences: greedy alignment from both ends, one fresh
    e-parameter for the mismatching middle."""
    a, b = tuple(a), tuple(b)
    n = min(len(a), len(b))
    lo = hi = 0
    left, right = [], []
    while lo < n:
        it = _msg_item(a[lo], b[lo], pgen, th1, th2)
        if it is None:
            break
        left.append(it)
        lo += 1
    while n - hi > lo:
        it = _msg_item(a[-1 - hi], b[-1 - hi], pgen, th1, th2)
        if it is None:
            break
        right.append(it)
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


def _msg_item(x, y, pgen: ParamGen, th1, th2):
    """The generalization of two items, or None when they do not align; a
    fresh parameter is taken only once they do."""
    tx, ty = type(x), type(y)
    if (x == y and _ground_item(x)) or (tx is Bullet and ty is Bullet):
        return x
    if tx is Paren and ty is Paren:
        return Paren(msg_seq(x.items, y.items, pgen, th1, th2))
    if tx is Call and ty is Call:
        if x.fname != y.fname or len(x.args) != len(y.args):
            return None
        return Call(
            x.fname,
            tuple(msg_seq(p, q, pgen, th1, th2) for p, q in zip(x.args, y.args)),
        )
    if tx is Param and ty is Param and x.kind == y.kind == "e":
        kind = "e"
    elif is_sym_kind(x) and is_sym_kind(y):
        kind = "s"
    else:
        return None
    p = pgen.fresh(kind)
    th1[p] = (x,)
    th2[p] = (y,)
    return p


def msg(c1: Configuration, c2: Configuration, pgen: ParamGen) -> Generalization:
    """Most specific generalization of two same-shaped configurations.

    Returns gen with fresh parameters and the two witnessing substitutions;
    the ancestor's time labels are kept on the generalized entries.
    """
    if len(c1.stack) != len(c2.stack):
        raise Incompatible("stack heights differ")
    th1: dict = {}
    th2: dict = {}
    entries = []
    for f, g in zip(c1.stack, c2.stack):
        if f.fname != g.fname or len(f.args) != len(g.args):
            raise Incompatible(f"stack entries {f.fname}/{g.fname} differ")
        args = tuple(msg_seq(p, q, pgen, th1, th2) for p, q in zip(f.args, g.args))
        entries.append(TimedApp(f.fname, args, f.time))
    tail = msg_seq(c1.tail, c2.tail, pgen, th1, th2)
    return Generalization(Configuration(tuple(entries), tail), th1, th2)


# ---------------------------------------------------------------------------
# Fold-instance matching


def fold_instance(ancestor: Configuration, current: Configuration) -> Optional[dict]:
    """A substitution with ancestor applied equal to current, labels ignored."""
    if len(ancestor.stack) != len(current.stack):
        return None
    for f, g in zip(ancestor.stack, current.stack):
        if f.fname != g.fname or len(f.args) != len(g.args):
            return None
    return inst_args(
        [a for f in ancestor.stack for a in f.args] + [ancestor.tail],
        [a for g in current.stack for a in g.args] + [current.tail],
    )


# ---------------------------------------------------------------------------
# Task decomposition at a Turchin split point


def split_task(c: Configuration, l: int, pgen: ParamGen):
    """Cut a configuration at stack position l (1-based, 1 < l <= height).

    Returns (prefix task, context task, connector): the prefix computes the
    top l-1 entries into a bullet tail; the context receives that value
    through a fresh parameter where its first entry's bullet was.
    """
    k = len(c.stack)
    if not 1 < l <= k:
        raise ValueError(f"split index {l} out of range for height {k}")
    prefix = Configuration(c.stack[: l - 1], (BULLET,))
    connector = pgen.fresh("e")
    context = Configuration((plug_app(c.stack[l - 1], (connector,)),) + c.stack[l:], c.tail)
    return prefix, context, connector


# ---------------------------------------------------------------------------
# Residual construction


class IncompleteGraph(Exception):
    pass


def _render_leaf(it) -> Seq:
    if isinstance(it, Bullet):
        raise IncompleteGraph("bullet escaped into residual code")
    return (Var(it.kind, str(it.num)),)


def _render_seq(seq: Seq) -> Seq:
    """Parameters become ordinary variables in residual code."""
    return map_items(seq, HAS_PARAM | HAS_BULLET, _render_leaf)


UNDEF_NAME = "Undef"


class _Emitter:
    """Reads residual functions off the graph.

    All expressions are kept in parameter space; rendering to source
    variables happens once per emitted rule.
    """

    def __init__(self, graph, entry_id: int, entry_name: str):
        self.g = graph
        # a node is named and queued for emission when first demanded; the
        # entry is demanded from the start
        self.fn_name: dict[int, str] = {entry_id: entry_name}
        self.pending: list[int] = [entry_id]
        self.fn_formals: dict[int, list] = {}
        self.emitted: dict[str, FuncDef] = {}
        self.need_undef = False

    def formals_of(self, nid: int) -> list:
        if nid not in self.fn_formals:
            c = self.g.node(nid).config
            self.fn_formals[nid] = vars_of(
                tuple(it for e in c.stack for a in e.args for it in a) + c.tail
            )
        return self.fn_formals[nid]

    def demand(self, nid: int) -> str:
        """The name of the function that node nid starts."""
        name = self.fn_name.get(nid)
        if name is None:
            name = self.fn_name[nid] = f"F{nid}"
            self.pending.append(nid)
        return name

    def call_expr(self, nid: int, theta: dict) -> Seq:
        name = self.demand(nid)
        formals = self.formals_of(nid)
        # parameterless functions take one empty argument so the printed
        # program reparses with a consistent arity
        args = tuple(subst_seq((p,), theta) for p in formals) or ((),)
        return (Call(name, args),)

    # -- expression for a node referenced in value position ---------------

    def node_expr(self, nid: int, body: bool = False) -> Seq:
        """The value of node nid; with ``body``, the right-hand side of the
        function nid starts rather than a call of it."""
        node = self.g.node(nid)
        if node.entry_subst is not None and not body:
            return self.call_expr(nid, node.entry_subst)
        if node.kind == "passive":
            return node.value
        if node.kind == "fold":
            return self.call_expr(node.fold_target, node.fold_theta)
        if node.kind == "letsplit":
            return self.let_expr(node)
        if node.kind == "drive":
            # a branching point in value position becomes a function
            return self.call_expr(nid, {})
        raise IncompleteGraph(f"open node {nid} in residual graph")

    def let_expr(self, node) -> Seq:
        # children: [(connector or None, node_id)]; a part's connector
        # carries the previous part's value, the last part is the whole value
        parts = node.children
        expr = self.node_expr(parts[-1][1])
        for i in range(len(parts) - 1, 0, -1):
            connector = parts[i][0]
            expr = subst_seq(expr, {connector: self.node_expr(parts[i - 1][1])})
        return expr

    # -- rule flattening ---------------------------------------------------

    def emit(self) -> None:
        while self.pending:
            nid = self.pending.pop(0)
            name = self.fn_name[nid]
            formals = self.formals_of(nid)
            rules: list[Rule] = []
            self.flatten(nid, {}, formals, rules, root=True)
            if not rules:
                # every instance is undefined: keep the entry well-formed
                self.need_undef = True
                rules.append(
                    Rule(
                        tuple((p,) for p in formals),
                        (Call(UNDEF_NAME, ((),)),),
                    )
                )
            self.emitted[name] = FuncDef(
                name,
                max(1, len(formals)),
                tuple(
                    Rule(
                        tuple(_render_seq(p) for p in r.lhs) or ((),),
                        _render_seq(r.rhs),
                    )
                    for r in rules
                ),
            )

    def flatten(self, nid: int, theta: dict, formals, rules, root=False) -> None:
        """One rule per leaf below nid: a drive node's branches are inlined
        unless it starts a function of its own, a stuck leaf adds no rule."""
        node = self.g.node(nid)
        if node.kind == "drive" and (root or node.entry_subst is None):
            for contraction, cid in node.children:
                self.flatten(cid, compose_subst(theta, contraction), formals, rules)
        elif node.kind != "stuck":
            lhs = tuple(subst_seq((p,), theta) for p in formals)
            rules.append(Rule(lhs, self.node_expr(nid, body=root)))


def build_residual(graph, entry_id: int, entry_name: str) -> Program:
    """Read the folded process graph off into a program.

    One residual function per fold target, generalization point and
    branching point referenced in value position. Only functions reachable
    from the entry are emitted, which is the dead-code removal pass.
    """
    em = _Emitter(graph, entry_id, entry_name)
    em.emit()
    defs = list(em.emitted.values())
    if em.need_undef:
        defs.append(
            FuncDef(
                UNDEF_NAME,
                1,
                (Rule(((Sym("never"),),), (Sym("never"),)),),
            )
        )
    return Program(defs)


# ---------------------------------------------------------------------------
# Residual cleanup: the simplified global analysis

SIMPLIFY_ROUNDS = 12  # rounds of inlining, merging and dead-code removal
INLINE_BUDGET = 10_000  # forwarder expansions per round


def _drop_dead_rules(d: FuncDef) -> FuncDef:
    kept: list = []
    for r in d.rules:
        if any(inst_args(k.lhs, r.lhs) is not None for k in kept):
            continue
        kept.append(r)
    return FuncDef(d.name, d.arity, tuple(kept))


def _subst_vars_seq(seq: Seq, env: dict) -> Seq:
    """Instantiate variables; an unbound one stays as it is."""
    return map_items(seq, HAS_VAR, lambda v: env.get(v, (v,)))


def _inline(call: Call, inlinable: dict, budget: list, expanding: tuple) -> Seq:
    """The expansion of a call of a forwarder, itself inlined. A call of a
    function in ``expanding``, whose body or expansion this is, is kept, so
    that forwarder cycles end."""
    rule = inlinable.get(call.fname)
    if rule is None or budget[0] <= 0 or call.fname in expanding:
        return (call,)
    env = inst_args(rule.lhs, call.args)
    if env is None:
        return (call,)
    budget[0] -= 1
    inner = expanding + (call.fname,)
    return map_calls(
        _subst_vars_seq(rule.rhs, env), lambda c: _inline(c, inlinable, budget, inner)
    )


def _canonical_def(d: FuncDef) -> FuncDef:
    """d without its name and with its variables numbered by first
    occurrence: definitions with equal shapes are merged."""
    names: dict = {}

    def number(v):
        if v not in names:
            names[v] = Var(v.kind, str(len(names)))
        return (names[v],)

    def canon(seq):
        return map_items(seq, HAS_VAR, number)

    return FuncDef(
        "", d.arity, tuple(Rule(tuple(map(canon, r.lhs)), canon(r.rhs)) for r in d.rules)
    )


def _is_forwarder(d: FuncDef) -> bool:
    """One rule whose patterns are empty or distinct bare variables: a
    transitive chain, inlined at every call site."""
    if len(d.rules) != 1:
        return False
    bound = [p for p in d.rules[0].lhs if p]
    bare = {p[0] for p in bound if len(p) == 1 and type(p[0]) is Var}
    return len(bare) == len(bound)


def _map_bodies(d: FuncDef, call) -> FuncDef:
    return FuncDef(
        d.name, d.arity, tuple(Rule(r.lhs, map_calls(r.rhs, call)) for r in d.rules)
    )


def simplify_program(prog: Program, entry: str) -> Program:
    """Dead-code removal plus inlining of pattern-free forwarder functions
    and merging of structurally identical definitions."""
    defs = {d.name: _drop_dead_rules(d) for d in prog.defs.values()}
    for _ in range(SIMPLIFY_ROUNDS):
        old = defs
        inlinable = {
            d.name: d.rules[0]
            for d in defs.values()
            if d.name != entry and _is_forwarder(d)
        }
        if inlinable:
            budget = [INLINE_BUDGET]
            defs = {
                n: _map_bodies(d, lambda c: _inline(c, inlinable, budget, (n,)))
                for n, d in defs.items()
            }
        # merge structurally identical definitions
        canon_map: dict = {}
        rename: dict = {}
        for d in defs.values():
            if d.name == entry:
                continue
            key = _canonical_def(d)
            if key in canon_map:
                rename[d.name] = canon_map[key]
            else:
                canon_map[key] = d.name
        if rename:
            # follow chains in case targets were themselves renamed
            def resolve(n):
                while n in rename:
                    n = rename[n]
                return n

            defs = {
                n: _map_bodies(d, lambda c: (Call(resolve(c.fname), c.args),))
                for n, d in defs.items()
                if n not in rename
            }
        # dead-code: keep what the entry reaches
        reachable = {entry}
        work = [entry]
        while work:
            f = work.pop()
            if f not in defs:
                continue
            for r in defs[f].rules:
                for it in iter_items(r.rhs):
                    if isinstance(it, Call) and it.fname not in reachable:
                        reachable.add(it.fname)
                        work.append(it.fname)
        defs = {n: d for n, d in defs.items() if n in reachable}
        if defs == old:
            break
    return Program(defs.values())
