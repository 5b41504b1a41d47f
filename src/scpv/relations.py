"""Termination relations: the restricted homeomorphic embedding, Turchin's
timed-stack relation, and the composed whistle controlling the unfold-fold
loop.

The embedding works on concatenation-normal sequences directly: a sequence
embeds into another when its items map order-preservingly into embedding
items, a whole remainder may dive into a paren or a call argument, and the
basic-case restriction removes the pairs (([]), (sym)) and (([]), (s-var)).

Sequence embedding is decided by one greedy left-to-right scan over the
larger sequence, recursing only into paren and call nesting; see
``_seq_embed`` for why matching each item as early as possible is complete.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .config import Configuration, TimedApp
from .lang import Bullet, Call, Paren, Param, Seq, Sym, Var, is_sym_kind


def _restricted(x, y) -> bool:
    """The basic-case restriction: ([]) never embeds into (sym) or (s-var)."""
    return (
        isinstance(x, Paren)
        and not x.items
        and isinstance(y, Paren)
        and len(y.items) == 1
        and is_sym_kind(y.items[0])
    )


def _small_symbol_paren(x) -> bool:
    return (
        isinstance(x, Paren)
        and len(x.items) <= 1
        and all(isinstance(it, Sym) for it in x.items)
    )


@lru_cache(maxsize=1 << 20)
def _seq_embed(a: Seq, b: Seq, guard: bool) -> bool:
    """Whether ``a`` embeds into ``b``: ``a`` is empty; or ``a`` dives whole
    into the interior of ``b``'s head (a paren's items or one call
    argument); or ``a[0]`` embeds into ``b[0]`` and ``a[1:]`` into
    ``b[1:]``; or ``a`` embeds into ``b[1:]``.

    The scan keeps an index ``i`` into ``a``, tries the dives of ``a[i:]``
    at each item of ``b``, and otherwise advances ``i`` past the first item
    ``a[i]`` embeds into. It decides the same relation because:

    - embedding is closed under dropping ``a``'s head, ``E(a, b)`` implies
      ``E(a[1:], b)`` (by induction over the three clauses), so matching
      ``a[i]`` at the earliest item it embeds into loses nothing;
    - a dive of ``a[i:]`` into a later item of ``b`` implies a dive of
      ``a[i+1:]`` into the same item, which the rest of the scan finds.

    Every clause maps the items of ``a`` one-to-one into those of ``b``, at
    any depth, so ``E(a, b)`` implies ``size(a) <= size(b)``, where an
    item's ``size`` counts the items at or below it. The scan skips what
    this rules out: a dive into a head no larger than ``a[i:]`` (its
    interior is smaller than the head), an item larger than the head, and
    the rest of ``b`` once ``a[i:]`` is larger than it. So no slice of
    ``a`` is longer than the head it dives into.
    """
    i, n = 0, len(a)
    if not n:
        return True
    need = 0  # size of a[i:]
    for x in a:
        need += x.size
    left = 0  # size of b from head on
    for head in b:
        left += head.size
    if need > left:
        return False
    for head in b:
        hs = head.size
        # whole-remainder dives: a[i:] into the interior of b's item
        if hs > need:
            if isinstance(head, Paren):
                if _seq_embed(a[i:], head.items, guard):
                    return True
            elif isinstance(head, Call):
                for arg in head.args:
                    if _seq_embed(a[i:], arg, guard):
                        return True
        # match a[i] at the earliest item it embeds into
        x = a[i]
        if x.size <= hs and _item_embed(x, head, guard):
            i += 1
            if i == n:
                return True
            need -= x.size
        left -= hs
        if need > left:
            return False
    return False


def _item_embed(x, y, guard: bool) -> bool:
    if x == y:
        return True
    if isinstance(x, (Var, Param)) and isinstance(y, (Var, Param)):
        return x.kind == y.kind
    if isinstance(x, Bullet) and isinstance(y, Bullet):
        return True
    if isinstance(y, Paren):
        if _restricted(x, y):
            return False
        if guard and _small_symbol_paren(x):
            # varied restriction: parens holding at most one symbol are
            # induction base cases and embed only into themselves
            return x == y
        if isinstance(x, Paren):
            return _seq_embed(x.items, y.items, guard)
        return _seq_embed((x,), y.items, guard)
    if isinstance(y, Call):
        if isinstance(x, Call) and x.fname == y.fname and len(x.args) == len(y.args):
            if all(_seq_embed(p, q, guard) for p, q in zip(x.args, y.args)):
                return True
        return any(_seq_embed((x,), arg, guard) for arg in y.args)
    return False


def embed(a: Seq, b: Seq, guard_base_cases: bool = False) -> bool:
    """The restricted homeomorphic embedding on normal-form expressions.

    ``guard_base_cases`` switches on a strengthened variant of the basic-case
    restriction used by the whistle fallback; the default relation is the
    published one.
    """
    return _seq_embed(tuple(a), tuple(b), guard_base_cases)


def strict_embed(a: Seq, b: Seq) -> bool:
    a, b = tuple(a), tuple(b)
    return a != b and embed(a, b)


def app_embed(f: TimedApp, g: TimedApp, guard: bool = False) -> bool:
    """Element-wise embedding of two applications, names included."""
    return (
        f.fname == g.fname
        and len(f.args) == len(g.args)
        and all(_seq_embed(a, b, guard) for a, b in zip(f.args, g.args))
    )


# ---------------------------------------------------------------------------
# Turchin's relation on timed configurations


@dataclass(frozen=True)
class TurchinWitness:
    l: int  # 1-based split index into the earlier configuration's stack
    prefix_i: tuple
    prefix_j: tuple
    context_i: tuple


def turchin(ci: Configuration, cj: Configuration) -> Optional[TurchinWitness]:
    """The well-disordering on timed stacks; None when the pair is unrelated.

    The context is the longest shared suffix of same-named, same-timed
    applications; the prefixes must be name-equal position-wise and the
    boundary entries must differ.
    """
    k, m = len(ci.stack), len(cj.stack)
    if k < 2 or m < k:
        return None
    shared = 0
    while (
        shared < k - 1
        and ci.stack[k - 1 - shared].fname == cj.stack[m - 1 - shared].fname
        and ci.stack[k - 1 - shared].time == cj.stack[m - 1 - shared].time
    ):
        shared += 1
    if shared == 0:
        return None
    bi, bj = ci.stack[k - 1 - shared], cj.stack[m - 1 - shared]
    if bi.fname == bj.fname and bi.time == bj.time:
        return None  # the boundary entries must differ
    l = k - shared + 1  # 1-based, > 1 by the loop bound
    for s in range(l - 1):
        if ci.stack[s].fname != cj.stack[s].fname:
            return None
    return TurchinWitness(
        l,
        ci.stack[: l - 1],
        cj.stack[: l - 1],
        ci.stack[l - 1 :],
    )


@dataclass(frozen=True)
class WhistleDecision:
    ancestor: Optional[int] = None  # index into the path
    witness: Optional[TurchinWitness] = None
    kind: Optional[str] = None  # 'turchin' | 'embed'; None: go on driving

    @property
    def is_act(self) -> bool:
        return self.kind is not None


CONTINUE = WhistleDecision()


def _config_embed(ci: Configuration, cj: Configuration) -> bool:
    # the fallback runs with the strengthened base-case guard, which keeps
    # bounded counters (empty or one item) out of accumulator generalization
    return (
        len(ci.stack) == len(cj.stack)
        and all(app_embed(f, g, guard=True) for f, g in zip(ci.stack, cj.stack))
        and embed(ci.tail, cj.tail, guard_base_cases=True)
    )


def whistle(path, current: Configuration) -> WhistleDecision:
    """Scan ancestors oldest-first with the composed relation.

    A Turchin witness whose prefixes embed element-wise triggers the split
    action. Pairs the timed relation cannot relate at all (short or fully
    fresh stacks) fall back to whole-configuration embedding, which is what
    closes loops whose stack never keeps a shared suffix.
    """
    witnesses = []
    for idx, anc in enumerate(path):
        w = turchin(anc, current)
        if w is None:
            continue
        witnesses.append(idx)
        if all(app_embed(f, g) for f, g in zip(w.prefix_i, w.prefix_j)):
            return WhistleDecision(idx, w, "turchin")
    related = set(witnesses)
    for idx, anc in enumerate(path):
        if idx in related:
            continue
        if _config_embed(anc, current):
            return WhistleDecision(idx, None, "embed")
    return CONTINUE
