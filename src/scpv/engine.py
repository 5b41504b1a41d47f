"""The unfold-fold control loop: task queue, transitive skipping, whistle
consultation, folding, generalization, residual construction, the
syntactic safety scan and the counterexample check at each unsafe leaf."""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

from .config import (
    Clock,
    Configuration,
    ParamGen,
    TimedApp,
    check_config,
    compose_subst,
    decompose,
    subst_config,
    subst_seq,
)
from .corpus import int_entry_args, self_interpreter
from .driving import drive
from .encoding import DecodeError, decode_expr
from .interp import UNDEFINED, FuelExhausted, eval_call
from .lang import (
    BULLET,
    HAS_PARAM,
    HAS_VAR,
    LangError,
    Paren,
    Param,
    Program,
    Seq,
    Sym,
    call_errors,
    contains_call,
    is_ground,
    iter_items,
    map_items,
    parse_expr,
    print_seq,
    vars_of,
)
from .relations import _config_embed, strict_embed, whistle
from .transform import (
    Incompatible,
    build_residual,
    fold_instance,
    fold_levels,
    msg,
    simplify_program,
    split_task,
)


class PassStopped(Exception):
    """A pass ended before its graph was complete; ``graph`` and ``trace``
    are as it left them."""

    def __init__(self, msg, graph=None, trace=None):
        super().__init__(msg)
        self.graph = graph
        self.trace = trace


class BudgetExceeded(PassStopped):
    """A node, depth, time or nesting budget ran out."""


class CounterexampleFound(PassStopped):
    """A completed leaf gave an input that the model confirms unsafe; the
    pass stops there."""


class PropertyViolation(AssertionError):
    """An instrumented invariant of the strategy failed during a run."""


@dataclass
class Limits:
    max_nodes: int = 200_000
    max_depth: int = 5_000
    time_budget_s: float = 120.0


@dataclass
class Node:
    id: int
    config: Configuration
    kind: str = "open"  # open|drive|passive|stuck|fold|letsplit
    # drive: (contraction, child_id); letsplit: (connector or None, child_id)
    children: list = field(default_factory=list)
    parent: Optional[int] = None
    path: tuple = ()  # whistle ancestors (node ids), oldest first
    value: Seq = ()
    fold_target: Optional[int] = None
    fold_theta: Optional[dict] = None
    entry_subst: Optional[dict] = None  # set when generalization replaced this node
    dead: bool = False
    pending_children: int = 0
    fold_key: Optional[tuple] = None  # _fold_key of config, made by a fold lookup


class ProcessGraph:
    def __init__(self):
        self.nodes: dict[int, Node] = {}
        self.next_id = 0
        self.by_shape: dict[tuple, list] = {}
        self.fold_sources: dict[int, list] = {}
        self.task_roots: dict[tuple, list] = {}

    def new_node(self, config: Configuration, parent=None, path=()) -> Node:
        if __debug__:
            check_config(config)
        n = Node(self.next_id, config, parent=parent, path=tuple(path))
        self.next_id += 1
        self.nodes[n.id] = n
        return n

    def node(self, nid: int) -> Node:
        return self.nodes[nid]

    def shape_key(self, c: Configuration) -> tuple:
        return tuple([e.fname for e in c.stack])

    def complete_candidates(self, c: Configuration):
        """The completed drive nodes of c's stack shape, in completion order."""
        return self.by_shape.get(self.shape_key(c), ())

    def stats(self) -> dict:
        return {"nodes": sum(1 for n in self.nodes.values() if not n.dead)}


class Trace:
    """Deterministic event log; serializes to JSON lines, schema v1.

    ``emit`` stores configurations, substitutions (dicts) and drive branches
    as they are; their text is printed once, when ``events`` or ``to_jsonl``
    first reads the event (``_printed``), so a run that writes no trace
    prints no configuration and no substitution. Configurations and
    branches are frozen, and no substitution is changed once made.
    """

    def __init__(self, instrument: bool = False):
        self._events: list[dict] = []
        self._rendered = 0
        self.instrument = instrument
        self.violations: list[str] = []
        self.first_generalization: Optional[dict] = None
        self.warnings: list[str] = []
        self.msg_checked = 0
        self.fold_checked = 0
        self.transitive_steps = 0
        self.transitive_replayed = 0  # skips answered from a chain memo

    def emit(self, ev: str, **fields) -> None:
        rec = {"v": 1, "ev": ev}
        rec.update(fields)
        self._events.append(rec)

    @property
    def event_count(self) -> int:
        return len(self._events)

    @property
    def events(self) -> list[dict]:
        """The event records, with every configuration, substitution and
        drive branch printed."""
        for rec in self._events[self._rendered :]:
            for k, v in rec.items():
                rec[k] = _printed(v)
        self._rendered = len(self._events)
        return self._events

    def warn(self, msg: str) -> None:
        self.warnings.append(msg)

    def to_jsonl(self) -> str:
        return "\n".join(json.dumps(e, sort_keys=True) for e in self.events)


def _theta_str(theta: dict) -> dict:
    return {repr(p): print_seq(v) for p, v in theta.items()}


def _printed(v):
    """The JSON form of an event field as ``Trace.emit`` stored it: a
    configuration, a substitution, or a drive's tuple of branches."""
    t = type(v)
    if t is Configuration:
        return repr(v)
    if t is dict:
        return _theta_str(v)
    if t is tuple:
        return [{"theta": _theta_str(b.contraction), "tag": b.tag} for b in v]
    return v


# ---------------------------------------------------------------------------
# Strategy-property instrumentation (the proposition checks)


def _match_headed_nil(c: Configuration) -> bool:
    """The first-generalization form: a Match of the empty pattern on top,
    with the surrounding Matching and Eval applications below."""
    if not c.stack or c.stack[0].fname != "Match":
        return False
    args = c.stack[0].args
    below = {e.fname for e in c.stack[1:]}
    return (
        len(args) == 3
        and args[0] == ()
        and "Matching" in below
        and "Eval" in below
    )


def _equal_but_labels(a: Configuration, b: Configuration) -> bool:
    """The same configuration once time labels are ignored."""
    if len(a.stack) != len(b.stack) or a.tail != b.tail:
        return False
    for e, f in zip(a.stack, b.stack):
        if e.fname != f.fname or e.args != f.args:
            return False
    return True


def _check_action(trace: Trace, what: str, c1: Configuration, c2: Configuration):
    """Instrumented invariants for fold/generalize pairs on interpreter runs."""
    if not trace.instrument:
        return
    shared = {(e.fname, e.time) for e in c1.stack} & {(e.fname, e.time) for e in c2.stack}
    if any(fname == "Matching" for fname, _ in shared):
        trace.violations.append(
            f"{what} between configurations sharing a timed Matching application"
        )
    # a shared entry means neither stack is empty
    if shared and c1.stack[0].fname == "Match" == c2.stack[0].fname:
        p1, p2 = c1.stack[0].args[0], c2.stack[0].args[0]
        if is_ground(p1) and is_ground(p2) and (
            strict_embed(p1, p2) or strict_embed(p2, p1)
        ):
            trace.violations.append(
                f"{what} between Match configurations of one big-step "
                "with strictly related constant patterns"
            )


def _note_generalization(trace: Trace, c1: Configuration, c2: Configuration):
    if trace.instrument and trace.first_generalization is None:
        trace.first_generalization = {
            "match_nil_headed": _match_headed_nil(c1) and _match_headed_nil(c2),
            "prev": repr(c1),
            "cur": repr(c2),
        }


# ---------------------------------------------------------------------------
# Transitive chains


def _skip_to(branches: tuple, skipped: int, checkpoint: Configuration):
    """The successor a chain skips to after ``skipped`` skips, or None where
    it stops: the step is not transitive, or its successor is the
    checkpoint with labels ignored (a cycle) or, where the checkpoint is
    about to move, embeds the checkpoint (growth).

    A step is transitive when it has one branch, neither stuck nor a task
    split. Its contraction is empty, since every narrowing gives at least
    two branches; so the step takes no fresh parameter either."""
    if len(branches) != 1:
        return None
    b = branches[0]
    if b.tag == "stuck" or b.deferred:
        return None
    assert not b.contraction, f"a lone branch narrows: {b!r}"
    succ = b.successor
    if _equal_but_labels(succ, checkpoint):
        return None
    n = skipped + 1
    if n & (n - 1) == 0 and _config_embed(checkpoint, succ):
        return None
    return succ


# the boundaries in a flat chain key: after each argument's items, after
# each entry, around a paren's items, and around a call's name and arguments
_ARG, _ENTRY, _OPEN, _CALL, _CLOSE = (object() for _ in range(5))


def _chain_key(c: Configuration):
    """c up to parameter renaming, as one flat tuple: its labels dropped,
    its parameter-free items as they are, the parameter numbered n by first
    occurrence as 2n, or 2n + 1 for an s-parameter, and boundary markers
    for its structure; and those parameters, in that order. Two keys are
    equal exactly when the configurations are renamings of each other."""
    seen: dict = {}
    out: list = []
    add = out.append

    def walk(seq):
        for it in seq:
            if not it.flags & HAS_PARAM:
                add(it)
            elif type(it) is Param:
                code = seen.get(it)
                if code is None:
                    code = seen[it] = 2 * len(seen) + (it.kind == "s")
                add(code)
            elif type(it) is Paren:
                add(_OPEN)
                walk(it.items)
                add(_CLOSE)
            else:
                add(_CALL)
                add(it.fname)
                for a in it.args:
                    walk(a)
                    add(_ARG)
                add(_CLOSE)

    for e in c.stack:
        for a in e.args:
            walk(a)
            add(_ARG)
        add(_ENTRY)
    walk(c.tail)
    return tuple(out), tuple(seen)


# ---------------------------------------------------------------------------
# Fold keys


# facts a fold key keeps per level: enough to pass over most candidates
# that cannot match, few enough to keep a key small
_PROBES_PER_LEVEL = 4


def _fold_key(c: Configuration, shape: tuple) -> tuple:
    """(c, shape, probes) for c as a fold target whose stack shape is
    ``shape``. The probes are facts that every instance of c shares, as a
    flat tuple of (level, position, want) triples over ``fold_levels``:
    position None wants the level ``want`` items long, where it has no
    top-level e-parameter; otherwise the item at ``position`` is the
    parameter-free item ``want``, before the level's first top-level
    e-parameter or, counted from the end, after its last. Every item there
    stands for exactly one item of an instance, so it sits at the same
    position in it. At most ``_PROBES_PER_LEVEL`` facts per level are kept,
    the outermost first."""
    probes = []
    for k, seq in enumerate(fold_levels(c)):
        holes = [i for i, it in enumerate(seq) if type(it) is Param and it.kind == "e"]
        n = len(seq)
        room = _PROBES_PER_LEVEL
        if not holes:
            probes += (k, None, n)
            room -= 1
            fixed = range(n)
        else:
            fixed = [*range(holes[0]), *range(-1, holes[-1] - n, -1)]
        for i in fixed:
            if not room:
                break
            if not seq[i].flags & HAS_PARAM:
                probes += (k, i, seq[i])
                room -= 1
    return c, shape, tuple(probes)


def _may_fold(probes: tuple, levels: list) -> bool:
    """Whether the configuration of ``levels`` passes every probe of a fold
    key; False only when it is no instance of the key's configuration."""
    it = iter(probes)
    try:
        for k, pos, want in zip(it, it, it):
            seq = levels[k]
            if pos is None:
                if len(seq) != want:
                    return False
            elif seq[pos] != want:
                return False
    except IndexError:  # too short to match
        return False
    return True


# ---------------------------------------------------------------------------
# The engine


class Engine:
    def __init__(
        self,
        prog: Program,
        limits: Limits,
        trace: Optional[Trace] = None,
        witness: Optional[WitnessSearch] = None,
    ):
        self.prog = prog
        self.limits = limits
        self.trace = trace or Trace()
        self.witness = witness
        self.graph = ProcessGraph()
        self.clock = Clock()
        self.pgen = ParamGen()
        self.t0 = time.monotonic()
        self.tasks: list[int] = []  # FIFO of task-root node ids
        self.agenda: list[int] = []  # LIFO within the current task
        # transitive chains driven in this pass, by the function names of
        # their first successor's stack and then its _chain_key (see
        # _replay); they depend only on the program
        self.chains: dict[tuple, dict] = {}

    # -- bookkeeping -------------------------------------------------------

    def _check_budget(self) -> None:
        if time.monotonic() - self.t0 > self.limits.time_budget_s:
            raise BudgetExceeded("time budget exceeded", self.graph, self.trace)

    def _new_node(self, config: Configuration, parent=None, path=()) -> Node:
        """A new graph node; the node budget runs out before the graph would
        hold more than ``max_nodes`` nodes."""
        if len(self.graph.nodes) >= self.limits.max_nodes:
            raise BudgetExceeded("node budget exceeded", self.graph, self.trace)
        return self.graph.new_node(config, parent, path)

    def _enqueue_task(self, node: Node) -> None:
        """Queue a specialization task, folding it into an equivalent
        earlier task root instead when one exists."""
        key = self.graph.shape_key(node.config)
        found = self._find_fold(node.config, self.graph.task_roots.get(key, ()))
        if found is not None:
            self._fold(node, *found)
            return
        self.graph.task_roots.setdefault(key, []).append(node.id)
        self.tasks.append(node.id)

    def _kill_below(self, nid: int) -> None:
        """Remove the sub-tree below nid and its nodes from the agenda and
        from the fold-target indexes; then reopen surviving fold sources
        whose target was removed."""
        node = self.graph.node(nid)
        stack = [cid for _, cid in node.children]
        node.children = []
        killed = []
        while stack:
            child = self.graph.node(stack.pop())
            if not child.dead:
                child.dead = True
                child.fold_key = None
                killed.append(child.id)
                stack.extend(cid for _, cid in child.children)
        # every node below nid is dead before any source is reopened
        self.agenda = [a for a in self.agenda if not self.graph.node(a).dead]
        # a node keeps its stack shape for life (msg keeps it), so a killed
        # id sits under its shape's key; the live ids keep completion order
        graph = self.graph
        for key in {graph.shape_key(graph.node(k).config) for k in killed}:
            for index in (graph.by_shape, graph.task_roots):
                ids = index.get(key)
                if ids:
                    index[key] = [i for i in ids if not graph.node(i).dead]
        for tid in killed:
            for sid in self.graph.fold_sources.pop(tid, ()):
                self._reopen(sid, f"target {tid} removed")

    def _reopen(self, sid: int, why: str) -> None:
        """Undo the fold of a surviving source and queue it as a task."""
        s = self.graph.node(sid)
        if s.dead:
            return
        s.kind = "open"
        s.fold_target = None
        s.fold_theta = None
        self.trace.warn(f"fold source {sid} reopened, {why}")
        self.tasks.append(sid)

    def _retarget_folds(self, target: Node, theta1: dict) -> None:
        """After a generalization the target is more general; existing fold
        substitutions compose with the generalization witness. Where the
        witness binds a subterm that holds a call, every composition would
        hold it (``_find_fold`` would refuse such a fold), so the
        sources are reopened instead."""
        if any(contains_call(v) for v in theta1.values()):
            for sid in self.graph.fold_sources.pop(target.id, ()):
                self._reopen(sid, f"a call in the generalization of {target.id}")
            return
        for sid in self.graph.fold_sources.get(target.id, ()):
            s = self.graph.node(sid)
            if s.dead:
                continue
            s.fold_theta = {
                p: subst_seq(v, s.fold_theta) for p, v in theta1.items()
            }

    def _complete(self, node: Node) -> None:
        """Complete node, and each ancestor whose last pending child it was;
        a completed drive node becomes a fold target (``by_shape``)."""
        while True:
            if node.kind == "drive":
                key = self.graph.shape_key(node.config)
                self.graph.by_shape.setdefault(key, []).append(node.id)
            if node.parent is None:
                return
            node = self.graph.node(node.parent)
            node.pending_children -= 1
            if node.pending_children > 0:
                return

    # -- main loop -----------------------------------------------------------

    def run(self, entry: Configuration) -> int:
        root = self._new_node(entry)
        self.tasks.append(root.id)
        while self.tasks:
            task = self.tasks.pop(0)
            if self.graph.node(task).dead:
                continue
            self.agenda = [task]
            while self.agenda:
                nid = self.agenda.pop()
                node = self.graph.node(nid)
                if node.dead or node.kind != "open":
                    continue
                self.step(node)
        return root.id

    def step(self, node: Node) -> None:
        self._check_budget()
        if len(node.path) > self.limits.max_depth:
            raise BudgetExceeded("depth budget exceeded", self.graph, self.trace)

        # transitive configurations are skipped and removed from the tree;
        # generalization points and fold targets keep their configuration,
        # other code refers to their parameters
        protected = node.entry_subst is not None or node.id in self.graph.fold_sources
        node.config, branches, skipped = self._skip_chain(node.config, protected)
        if skipped:
            self.trace.emit("TransitiveSkip", node=node.id, count=skipped)

        if not node.config.stack:
            node.kind = "passive"
            node.value = node.config.tail
            self.trace.emit("Drive", node=node.id, out="passive")
            self._complete(node)
            if (
                self.witness is not None
                and self.witness.check(self.graph, node)
                and self.witness.stop
            ):
                raise CounterexampleFound(
                    "counterexample confirmed", self.graph, self.trace
                )
            return

        # eager folding: path ancestors and completed drive nodes
        found = self._find_fold(node.config, node.path) or self._find_fold(
            node.config, self.graph.complete_candidates(node.config)
        )
        if found is not None:
            self._fold(node, *found)
            return

        # the whistle
        decision = whistle(
            [self.graph.node(a).config for a in node.path], node.config
        )
        if decision.is_act:
            anc_id = node.path[decision.ancestor]
            self.trace.emit(
                "WhistleAct",
                node=node.id,
                ancestor=anc_id,
                kind=decision.kind,
                split=decision.witness.l if decision.witness else None,
            )
            if decision.kind == "turchin":
                self._act_split(node, anc_id, decision.witness)
                return
            if self._act_generalize(node, anc_id):
                return

        self._make_drive(node, branches)

    # -- transitive chains -----------------------------------------------------

    def _skip_chain(self, config: Configuration, protected: bool):
        """Drive ``config`` and, unless ``protected``, skip the transitive
        steps from it; return the chain's end, the branches of its drive
        and the number of skips.

        A chain that comes back to its checkpoint, labels ignored, is a
        cycle, and one whose successor embeds the checkpoint grows: the
        last configuration is driven, so that the cycle folds and the growth
        meets the whistle. The checkpoint moves to the current configuration
        at each power of two skips (Brent), and the embedding is tested only
        there, so a chain of n skips makes O(log n) tests.

        After one skip the loop's state is the first successor ``start``
        alone, so a chain already driven from a renaming of ``start`` is
        replayed to its end (``_replay``), and only the end is driven. A
        chain that ends at ``start`` is not kept: renaming its end costs
        about as much as driving it.
        """
        branches = drive(config, self.prog, self.clock, self.pgen, self.trace.warn)
        start = None if protected else _skip_to(branches, 0, config)
        if start is None:
            return config, branches, 0
        self.trace.transitive_steps += 1
        self._check_budget()
        shape = self.graph.shape_key(start)
        stored = self.chains.get(shape)
        key = None
        if stored is not None:
            key, params = _chain_key(start)
            chain = stored.get(key)
            if chain is not None:
                config, skipped = self._replay(chain, start, params)
                branches = drive(config, self.prog, self.clock, self.pgen, self.trace.warn)
                return config, branches, skipped
        now = self.clock.now
        config = checkpoint = start
        skipped = 1
        while True:
            ticks = self.clock.now - now
            branches = drive(config, self.prog, self.clock, self.pgen, self.trace.warn)
            succ = _skip_to(branches, skipped, checkpoint)
            if succ is None:
                break
            config = succ
            self.trace.transitive_steps += 1
            skipped += 1
            if skipped & (skipped - 1) == 0:
                checkpoint = config
            self._check_budget()
        if skipped > 1:
            if key is None:
                key, params = _chain_key(start)
            self.chains.setdefault(shape, {})[key] = (
                params,
                tuple(e.time for e in start.stack),
                now,
                config,
                skipped - 1,
                ticks,
            )
        return config, branches, skipped

    def _replay(self, chain: tuple, start: Configuration, params: tuple):
        """The stored chain's end renamed to run from ``start``, whose
        parameters by first occurrence are ``params``, and the skips; the
        clock advances as the drives before the end's did.

        ``chain`` holds, as driven from its first successor: the successor's
        parameters by first occurrence and its labels top first,
        ``clock.now`` at the successor, the chain's end, the skips after the
        first, and how many labels the chain took before the end was driven.

        This is exact: ``drive`` reads labels only to copy them, compares
        parameters only for equality, and takes fresh labels only by
        advancing the clock. A transitive step takes no fresh parameter
        (``_skip_to``), so every parameter of the end is one of the
        successor's; a KeyError here would mean that one was taken. So the
        successor's parameters and labels map by position, and the labels
        the chain took map by their offset from where the clock stood. Only the end's drive, which the caller makes, can warn: a
        warning comes with two branches, and they end a chain."""
        old_params, old_labels, now, end, skips, ticks = chain
        pmap = dict(zip(old_params, params))
        lmap = dict(zip(old_labels, (e.time for e in start.stack)))
        lshift = self.clock.now - now

        def leaf(p):
            return (pmap[p],)

        def seq(s):
            return map_items(s, HAS_PARAM, leaf)

        self.clock.now += ticks
        self.trace.transitive_steps += skips
        self.trace.transitive_replayed += skips
        self._check_budget()
        stack = tuple(
            TimedApp(e.fname, tuple(map(seq, e.args)), lmap.get(e.time, e.time + lshift))
            for e in end.stack
        )
        return Configuration(stack, seq(end.tail)), skips + 1

    # -- node constructors ---------------------------------------------------

    def _make_drive(self, node: Node, branches) -> None:
        node.kind = "drive"
        self.trace.emit(
            "Drive",
            node=node.id,
            config=node.config,
            branches=branches,
        )
        # a stuck leaf or a task split is an empty placeholder on the
        # node's own path; any other branch is driven below the node
        node.pending_children = len(branches)
        driven = []
        for b in branches:
            placeholder = b.tag == "stuck" or bool(b.deferred)
            child = self._new_node(
                Configuration((), ()) if placeholder else b.successor,
                parent=node.id,
                path=node.path if placeholder else node.path + (node.id,),
            )
            node.children.append((b.contraction, child.id))
            if b.tag == "stuck":
                child.kind = "stuck"
                self._complete(child)
            elif placeholder:
                self._make_letsplit(child, b.successor, b.deferred)
            else:
                driven.append(child.id)
        self.agenda.extend(reversed(driven))

    def _make_letsplit(self, node: Node, primary: Configuration, deferred) -> None:
        node.kind = "letsplit"
        # the first configuration continues the current unfolding and keeps
        # its ancestor path; the continuations are postponed as separate
        # tasks, unfolded completely independently
        first = self._new_node(primary, parent=node.id, path=node.path)
        node.children = [(None, first.id)]
        for p, cfg in deferred:
            part = self._new_node(cfg, parent=node.id, path=())
            node.children.append((p, part.id))
        node.pending_children = len(node.children)
        self.trace.emit(
            "TaskSplit", node=node.id, parts=[pid for _, pid in node.children]
        )
        self.agenda.append(first.id)
        for _, pid in node.children[1:]:
            self._enqueue_task(self.graph.node(pid))

    # -- folding ---------------------------------------------------------------

    def _find_fold(self, config: Configuration, candidate_ids):
        """The first live candidate that config is an instance of, and the
        substitution; None when there is none. A substitution that binds a
        call is refused: the residual passes a fold's substitution as the
        arguments of its call, so a call there would name a function that
        the residual does not define.

        A candidate whose fold key (``_fold_key``, made once per candidate
        configuration) has another shape, or a probe that config fails, is
        no instance, and it is passed over without a match."""
        graph = self.graph
        shape = levels = None
        for cid in candidate_ids:
            cand = graph.node(cid)
            if cand.dead:
                continue
            key = cand.fold_key
            if key is None or key[0] is not cand.config:
                key = _fold_key(cand.config, graph.shape_key(cand.config))
                cand.fold_key = key
            if shape is None:
                shape = graph.shape_key(config)
            if key[1] != shape:
                continue
            if levels is None:
                levels = fold_levels(config)
            if not _may_fold(key[2], levels):
                continue
            theta = fold_instance(cand.config, config)
            if theta is not None and not any(contains_call(v) for v in theta.values()):
                return cid, theta
        return None

    def _fold(self, source: Node, target_id: int, theta: dict) -> None:
        """Fold source into the target: record the fold, check the strategy
        invariants and the instance equation target*theta = source, and
        complete source."""
        target = self.graph.node(target_id).config
        source.kind = "fold"
        source.fold_target = target_id
        source.fold_theta = theta
        self.graph.fold_sources.setdefault(target_id, []).append(source.id)
        self.trace.emit(
            "Fold", node=source.id, target=target_id, theta=theta
        )
        _check_action(self.trace, "fold", target, source.config)
        if (
            self.trace.instrument
            and self.trace.first_generalization is None
            and not _match_headed_nil(source.config)
        ):
            self.trace.violations.append(
                "fold before the first generalization is not Match-[]-headed"
            )
        if not _equal_but_labels(subst_config(target, theta), source.config):
            raise PropertyViolation(
                f"fold substitution fails the instance equation for node {target_id}"
            )
        self.trace.fold_checked += 1
        self._complete(source)

    # -- whistle actions ---------------------------------------------------------

    def _generalize(self, c1: Configuration, c2: Configuration, what: str):
        """The msg of c1 and c2, with its strategy invariants and both
        equations gen*theta1 = c1, gen*theta2 = c2 checked; None, after a
        warning prefixed ``what``, when the two have no msg."""
        try:
            g = msg(c1, c2, self.pgen)
        except Incompatible as e:
            self.trace.warn(f"{what}: {e}")
            return None
        _check_action(self.trace, "generalize", c1, c2)
        _note_generalization(self.trace, c1, c2)
        for theta, target, tag in ((g.theta1, c1, 1), (g.theta2, c2, 2)):
            if not _equal_but_labels(subst_config(g.gen, theta), target):
                raise PropertyViolation(f"msg equation gen*theta{tag} failed")
        self.trace.msg_checked += 1
        return g

    def _act_generalize(self, node: Node, anc_id: int) -> bool:
        """Generalize the whistle's ancestor and restart it; False when the
        pair has no msg, and the node is driven instead."""
        anc = self.graph.node(anc_id)
        g = self._generalize(anc.config, node.config, "msg failed on whistle pair")
        if g is None:
            return False
        self.trace.emit(
            "Generalize",
            node=node.id,
            ancestor=anc_id,
            gen=g.gen,
            theta1=g.theta1,
            theta2=g.theta2,
        )
        self._restart(anc, g.gen, g.theta1)
        return True

    def _act_split(self, node: Node, anc_id: int, witness) -> None:
        anc = self.graph.node(anc_id)
        l = witness.l
        prefix, context, connector = split_task(anc.config, l, self.pgen)
        # the prefix task starts generalized when the current configuration's
        # prefix is no instance of it. The context needs no such check: it is
        # the shared suffix of same-labelled applications, which change only
        # by substitution and by the filling of the boundary's bullet, which
        # the connector takes up, so the current context is an instance of it
        cur_prefix = Configuration(node.config.stack[: l - 1], (BULLET,))
        prefix_entry = None
        if fold_instance(prefix, cur_prefix) is None:
            g = self._generalize(prefix, cur_prefix, "prefix msg failed")
            if g is not None:
                prefix, prefix_entry = g.gen, g.theta1
        self.trace.emit("TaskSplit", node=anc_id, split=l, prefix=prefix, context=context)
        self._kill_below(anc_id)
        anc.kind = "letsplit"
        p_node = self._new_node(prefix, parent=anc_id, path=())
        p_node.entry_subst = prefix_entry
        c_node = self._new_node(context, parent=anc_id, path=())
        anc.children = [(None, p_node.id), (connector, c_node.id)]
        anc.pending_children = 2
        self._enqueue_task(p_node)
        self._enqueue_task(c_node)

    def _restart(self, anc: Node, gen: Configuration, theta1: dict) -> None:
        self._kill_below(anc.id)
        anc.config = gen
        anc.kind = "open"
        anc.entry_subst = (
            theta1
            if anc.entry_subst is None
            else {
                p: subst_seq(v, anc.entry_subst)
                for p, v in theta1.items()
            }
        )
        anc.pending_children = 0
        self._retarget_folds(anc, theta1)
        self.agenda.append(anc.id)


# ---------------------------------------------------------------------------
# Public entry points


def supercompile(
    prog: Program,
    entry: Configuration,
    limits: Optional[Limits] = None,
    trace: Optional[Trace] = None,
    entry_name: str = "Start",
    witness: Optional[WitnessSearch] = None,
):
    """Drive, fold and residualize one entry configuration; ``witness``
    checks each passive leaf as it completes. A residual that calls a
    function it does not define, or with the wrong arity, raises
    ``PropertyViolation``: no verdict may come from it. Nesting deeper than
    Python's recursion limit, where the walkers recurse, is a budget exit."""
    limits = limits or Limits()
    trace = trace or Trace()
    eng = Engine(prog, limits, trace, witness)
    try:
        root_id = eng.run(entry)
        residual = build_residual(eng.graph, root_id, entry_name)
        residual = simplify_program(residual, entry_name)
    except RecursionError:
        raise BudgetExceeded(
            "nesting budget exceeded: deeper than Python's recursion limit "
            f"({sys.getrecursionlimit()})", eng.graph, trace,
        ) from None
    for d in residual.defs.values():
        for r in d.rules:
            errors = call_errors(r.rhs, residual, d.name)
            if errors:
                raise PropertyViolation(f"unclosed residual: {errors[0].removeprefix('error: ')}")
    for name in residual.defs:
        trace.emit("ResidualFn", name=name, rules=len(residual.defs[name].rules))
    return residual, eng.graph, trace


@dataclass
class SafetyVerdict:
    safe: bool
    witnesses: list


def verify_safety(residual: Program, unsafe_symbol: str = "False") -> SafetyVerdict:
    """Scan every rule's right-hand side for the unsafe identifier."""
    bad = Sym(unsafe_symbol)
    witnesses = []
    for d in residual.defs.values():
        for i, r in enumerate(d.rules):
            if any(it == bad for it in iter_items(r.rhs)):
                witnesses.append((d.name, i))
    return SafetyVerdict(not witnesses, witnesses)


# ---------------------------------------------------------------------------
# Counterexamples from the process graph

WITNESS_FUEL = 100_000


def _path_subst(graph: ProcessGraph, leaf_id: int) -> dict:
    """Compose the contractions from the root down to a leaf, as one
    substitution over the root's parameters.

    At a generalized node the substitution is renamed back through its
    ``entry_subst``: a generalization parameter that stands for a single
    parameter of the node's first configuration passes its binding on (the
    first binding of that parameter wins). A task-split part adds nothing.
    Best-effort: the leaf's instance need not reach the leaf's value.
    """
    sigma: dict = {}
    nid = leaf_id
    while True:
        node = graph.node(nid)
        if node.entry_subst is not None:
            back: dict = {}
            for x, v in node.entry_subst.items():
                if len(v) == 1 and type(v[0]) is Param and v[0] not in back:
                    back[v[0]] = sigma.get(x, (x,))
            sigma = back
        if node.parent is None:
            return sigma
        parent = graph.node(node.parent)
        if parent.kind == "drive":
            theta = next(t for t, cid in parent.children if cid == nid)
            sigma = compose_subst(theta, sigma)
        nid = node.parent


def _first_symbol(model: Program, default: Sym) -> Sym:
    """The first symbol in the model's rule patterns."""
    for d in model.defs.values():
        for r in d.rules:
            for pat in r.lhs:
                for it in iter_items(pat):
                    if type(it) is Sym:
                        return it
    # no pattern tests a symbol, so every symbol behaves alike
    return default


class WitnessSearch:
    """The counterexample check of one pass: each passive leaf whose value
    holds the unsafe symbol gives a candidate input, tried on the *model*
    when the leaf completes.

    The candidate is the path substitution applied to ``entry_args``, with
    each e-parameter left made empty and each s-parameter made the model's
    first pattern symbol. ``to_input`` maps that ground instance to the
    model's arguments (it may raise ``DecodeError``). Every new input is run
    through ``interp.eval_call`` with ``WITNESS_FUEL`` steps; ``runs`` and
    ``exhausted`` count the runs and those that ran out of fuel. The first
    confirmed input is ``found``, from leaf ``node``; no leaf is checked
    after it. ``stop`` asks the engine to end the pass there.

    Checking at completion misses nothing a scan of the finished graph
    would try: a completed leaf's path to the root and the substitutions on
    it never change, since a restart or a split kills every node below the
    node it rewrites.
    """

    def __init__(
        self,
        entry_args: tuple,
        model: Program,
        entry: str,
        to_input,
        unsafe_symbol: str = "False",
        stop: bool = True,
    ):
        self.entry_args = entry_args
        self.model = model
        self.entry = entry
        self.to_input = to_input
        self.bad = Sym(unsafe_symbol)
        self.sym = _first_symbol(model, self.bad)
        self.stop = stop
        self.tried: set = set()
        self.runs = self.exhausted = 0
        self.found: Optional[tuple] = None
        self.node: Optional[int] = None

    def check(self, graph: ProcessGraph, node: Node) -> bool:
        """Try the leaf's candidate; True when the model confirms it."""
        if self.found is not None or self.bad not in iter_items(node.value):
            return False
        sigma = _path_subst(graph, node.id)
        args = [subst_seq(a, sigma) for a in self.entry_args]
        fill = {
            p: () if p.kind == "e" else (self.sym,)
            for a in args
            for p in vars_of(a)
            if type(p) is Param
        }
        try:
            inp = tuple(self.to_input([subst_seq(a, fill) for a in args]))
        except DecodeError:
            return False
        if inp in self.tried or not all(is_ground(a) for a in inp):
            return False
        self.tried.add(inp)
        self.runs += 1
        try:
            out = eval_call(self.model, self.entry, inp, WITNESS_FUEL)
        except FuelExhausted:
            self.exhausted += 1
            return False
        if out is UNDEFINED or self.bad not in iter_items(out):
            return False
        self.found, self.node = inp, node.id
        return True


def _check_defined(prog: Program, fname: str) -> None:
    if fname not in prog.defs:
        raise LangError(f"no function {fname}")


def make_entry_config(prog: Program, fname: str) -> Configuration:
    """A fully parameterized call of a defined function, as a configuration."""
    _check_defined(prog, fname)
    pgen = ParamGen(1)
    args = tuple((pgen.fresh("e"),) for _ in range(prog.arity(fname)))
    return Configuration((TimedApp(fname, args, 0),), (BULLET,))


def parse_entry_config(prog: Program, text: str):
    """Parse a CLI entry expression; free variables become parameters,
    numbered in order of first occurrence. Every call must name a function
    of prog with its arity."""
    seq = parse_expr(text)
    errors = call_errors(seq, prog, "the entry")
    if errors:
        raise LangError("; ".join(e.removeprefix("error: ") for e in errors))
    pgen = ParamGen(1)
    mapping = {}

    def fresh(v):
        if v not in mapping:
            mapping[v] = pgen.fresh(v.kind)
        return (mapping[v],)

    seq = map_items(seq, HAS_VAR, fresh)
    cfg, deferred = decompose(seq, Clock(), ParamGen(50))
    if deferred:
        raise LangError("entry expressions must decompose to a single task")
    return cfg


# the Trace counters that each pass reports as its own share
PASS_COUNTERS = ("msg_checked", "fold_checked", "transitive_steps", "transitive_replayed")


def _input_reader(mode: str, pass_index: int):
    """Map a ground instance of a pass's entry arguments to the model's
    arguments: as is in direct mode; in indirect mode, decode the input
    after ``Call <entry>`` in pass 1 and ``IntRes``'s argument later."""
    if mode == "direct":
        return lambda args: args
    if pass_index == 0:
        return lambda args: (decode_expr(args[0][0].items[2:]),)
    return lambda args: (decode_expr(args[0]),)


def verify_protocol(
    model: Program,
    mode: str = "direct",
    passes: int = 1,
    limits: Optional[Limits] = None,
    entry: str = "Main",
    unsafe_symbol: str = "False",
    instrument: bool = False,
    model_name: str = "Model",
    need_residual: bool = False,
):
    """Run the whole verification pipeline and report the verdict.

    Each pass checks its unsafe leaves as they complete
    (``WitnessSearch``). A confirmed input is the report's ``witness`` and
    ends the run; it stops the pass at once, and ``residual`` stays the
    last completed pass's (None in pass 1). With ``need_residual`` the pass
    goes on to complete and build its residual, since a residual can only
    come from a completed pass; a budget exit after the witness still
    reports it, with no residual. One trace covers every pass.
    """
    _check_defined(model, entry)
    limits = limits or Limits()
    report = {
        "mode": mode,
        "passes": [],
        "safe": None,
        "residual": None,
        "violations": [],
        "warnings": [],
    }
    if mode == "direct":
        prog = model
        entry_cfg = make_entry_config(model, entry)
        entry_fn = entry
    elif mode == "indirect":
        prog = self_interpreter({model_name: model})
        args = int_entry_args(model_name, entry, (ParamGen(1).fresh("e"),))
        entry_cfg = Configuration((TimedApp("Int", tuple(args), 0),), (BULLET,))
        entry_fn = "Int"
    else:
        raise ValueError(f"unknown mode {mode!r}")

    # one trace for the whole run; a Pass event opens every pass after the first
    trace = Trace(instrument=instrument and mode == "indirect")
    current = prog
    for p_i in range(passes):
        t0 = time.monotonic()
        if p_i:
            trace.instrument = False
            trace.emit("Pass", **{"pass": p_i + 1})
        counted = {k: getattr(trace, k) for k in PASS_COUNTERS}
        search = WitnessSearch(
            entry_cfg.stack[0].args, model, entry, _input_reader(mode, p_i),
            unsafe_symbol, stop=not need_residual,
        )
        try:
            residual, graph, trace = supercompile(
                current, entry_cfg, limits, trace,
                entry_name=f"{entry_fn}Res", witness=search,
            )
        except CounterexampleFound as e:
            residual, graph = None, e.graph
        except BudgetExceeded as e:
            if search.found is None:
                raise
            # the witness stands, but this pass leaves no residual
            residual, graph = None, e.graph
            report["residual"] = None
        witness = search.found
        if residual is None:
            safe, scan = False, []
        else:
            verdict = verify_safety(residual, unsafe_symbol)
            safe, scan = verdict.safe and witness is None, verdict.witnesses
            report["residual"] = residual
        report["passes"].append(
            {
                "pass": p_i + 1,
                "safe": safe,
                "witnesses": scan,
                "witness_candidates": search.runs,
                "witness_fuel_exhausted": search.exhausted,
                "witness_node": search.node,
                "functions": 0 if residual is None else len(residual.defs),
                "nodes": graph.stats()["nodes"],
                **{k: getattr(trace, k) - n for k, n in counted.items()},
                "seconds": round(time.monotonic() - t0, 3),
            }
        )
        report["safe"] = safe
        report["witness"] = witness and ", ".join(print_seq(a) for a in witness)
        # a confirmed counterexample is final: later passes only remove
        # spurious unsafe occurrences
        if safe or witness or p_i + 1 >= passes:
            break
        current = residual
        entry_cfg = make_entry_config(residual, f"{entry_fn}Res")
    report["violations"] = trace.violations
    report["warnings"] = trace.warnings
    report["trace"] = trace
    report["first_generalization"] = trace.first_generalization
    report["passes_used"] = len(report["passes"])
    return report
