"""Seeded generator of counting-abstraction protocol specifications.

The benchmark hands the library only the ``.spec`` text this module writes;
``parse_protocol_spec`` and ``generate_model`` turn it into a model. Run it on
its own to see a draw: ``python3 perfbench/specgen.py --seed 3 --count 2``.
"""

from __future__ import annotations

import argparse
import random

COUNTER_NAMES = ("invalid", "shared", "exclusive", "owned", "modified", "forward",
                 "pending", "dirty")
EVENT_NAMES = ("rm", "wm", "rh", "wh", "evict", "fetch", "upgrade", "flush", "inv",
               "put", "grant", "ack")


def _event(rnd: random.Random, name: str, counters: list) -> list:
    """One event: a guard on a source counter, a move of one processor to a
    target counter, and maybe a flush of other counters into the
    parameterized one. The first guard row conserves the number of
    processors; an ``alt`` row need not."""
    param = counters[0]
    source = rnd.choice(counters)
    k = 2 if rnd.random() < 0.15 else 1
    lines = [f"event {name}", f"  guard {source} >= {k}"]
    if rnd.random() < 0.2:
        other = rnd.choice([c for c in counters if c != source])
        lines += ["  alt", f"  guard {other} >= 1"]
    target = rnd.choice([c for c in counters if c != source])
    flushed = [c for c in counters[1:] if c != target and rnd.random() < 0.3]
    updates = {c: ["0"] for c in flushed}
    # the guard consumed k processors of the source: one goes to the target
    # and the other k - 1 go back, with the source's remainder
    updates[target] = [target, "1"]
    back = [str(k - 1)] if k > 1 else []
    if source in flushed:
        updates[param] = updates.get(param, [param]) + back
    elif source != target:
        updates[source] = [source] + back
    if flushed:
        updates[param] = updates.get(param, [param]) + flushed
    for c in counters:
        if c in updates:
            lines.append(f"  update {c} := {' + '.join(updates[c])}")
    return lines


def generate_spec(rnd: random.Random, name: str, counter_names=COUNTER_NAMES,
                  event_names=EVENT_NAMES) -> str:
    """One spec: 3 to 5 counters, 3 to 6 events, 1 to 3 unsafe conjunctions.

    The draws from ``rnd`` depend only on how many names there are, so other
    names give the same protocol under other names."""
    counters = list(counter_names[: rnd.randint(3, 5)])
    lines = [f"protocol {name}", f"counter {counters[0]} init param"]
    lines += [f"counter {c} init zero" for c in counters[1:]]
    for i in range(rnd.randint(3, 6)):
        lines += _event(rnd, event_names[i], counters)
    for _ in range(rnd.randint(1, 3)):
        picked = rnd.sample(counters[1:], rnd.choice((1, 2)))
        if len(picked) == 1:
            lines.append(f"unsafe {picked[0]} >= 2")
        else:
            lines.append(f"unsafe {picked[0]} >= 1, {picked[1]} >= 1")
    return "\n".join(lines) + "\n"


def generate_specs(seed: int, count: int, names_seed=None) -> list:
    """``count`` spec texts drawn from ``seed``; the same seed gives the same
    texts. With ``names_seed``, each spec's counters and events get names
    drawn from it instead of the first names of the pools."""
    rnd = random.Random(seed)
    names = random.Random(names_seed) if names_seed is not None else None
    specs = []
    for i in range(count):
        counters, events = COUNTER_NAMES, EVENT_NAMES
        if names is not None:
            counters = names.sample(COUNTER_NAMES, len(COUNTER_NAMES))
            events = names.sample(EVENT_NAMES, len(EVENT_NAMES))
        specs.append(generate_spec(rnd, f"gen{seed}x{i}", counters, events))
    return specs


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--count", type=int, default=1)
    ap.add_argument("--names-seed", type=int, default=None)
    args = ap.parse_args()
    print("\n".join(generate_specs(args.seed, args.count, args.names_seed)))
