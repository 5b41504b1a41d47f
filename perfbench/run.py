"""Benchmark of scpv: time to verdict, decided share and per-layer cost.

    python3 perfbench/run.py --workload indirect-safe --seed 1 --seconds 20 --trace 0

Run from the root of a source tree (the library is imported from ``src/`` and
the models are read from ``protocols/``). One process, one thread. With
``--trace 0`` the run times set-up and verification untraced, scales each
timed interval by the host-speed probe sampled around it (``hostprobe.py``)
and prints the end-to-end metrics; with ``--trace 1`` it wraps the library's layers (see ``tracer.py``)
and prints the per-layer metrics. The last line of standard output is one
JSON object; the lines before it restate every metric with its unit. The exit
code is 1 when a verdict or residual disagrees with the reference
interpreter, and 2 when the library cannot be loaded.

Workloads (README.md in this directory says why each was chosen):

* ``indirect-safe``: ``synapse.l`` and ``mesi.spec``, indirect mode, 2 passes.
* ``direct-sweep``: the four shipped safe models and ``SWEEP_SIZE`` generated
  specs, direct mode, 1 pass, node cap ``SWEEP_CAP``.
* ``unsafe``: ``synapse_unsafe_mutant.l`` direct 1 pass, direct 2 passes, and
  indirect 1 pass under node cap ``UNSAFE_INDIRECT_CAP``.

Node caps stand in for the CLI's 120 s time budget: a cap is reached at the
same point on every machine, a time budget is not. Each verify call starts
with the embedding memo (``relations._seq_embed``) cleared, in process, since
a CLI user pays for filling it on every run.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import oracle
import specgen
from hostprobe import WINDOW_S, HostProbe
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("lang", "config", "driving", "relations", "transform", "engine",
           "encoding", "corpus", "interp")

SAFE_CAP = 20_000  # never reached by the calls that end in a verdict
SWEEP_CAP = 1_000
SWEEP_SIZE = 40
# the generated specs' structure is one fixed draw, so that exact counts are
# comparable across seeds; --seed renames their counters and events and
# orders the calls
SWEEP_STRUCTURE_SEED = 3
UNSAFE_INDIRECT_CAP = 1_000
SETUP_REPS = 15
MIN_PASSES = 2
SPANS_DIR = ROOT / ".perfbench-out"


@dataclass(frozen=True)
class Call:
    model: str
    mode: str
    passes: int
    cap: int


SHIPPED_SAFE = ("synapse.l", "msi.spec", "mesi.spec", "synapse.spec")
MUTANT = "synapse_unsafe_mutant.l"


def workload_inputs(name: str, seed: int):
    """(model sources, calls): a source is a protocols/ file name or spec text."""
    if name == "indirect-safe":
        sources = {m: m for m in ("synapse.l", "mesi.spec")}
        calls = [Call(m, "indirect", 2, SAFE_CAP) for m in sources]
    elif name == "direct-sweep":
        sources = {m: m for m in SHIPPED_SAFE}
        texts = specgen.generate_specs(SWEEP_STRUCTURE_SEED, SWEEP_SIZE, names_seed=seed)
        sources.update((f"gen{i}", text) for i, text in enumerate(texts))
        calls = [Call(m, "direct", 1, SWEEP_CAP) for m in sources]
    elif name == "unsafe":
        sources = {MUTANT: MUTANT}
        calls = [
            Call(MUTANT, "direct", 1, SAFE_CAP),
            Call(MUTANT, "direct", 2, SAFE_CAP),
            Call(MUTANT, "indirect", 1, UNSAFE_INDIRECT_CAP),
        ]
    else:
        raise ValueError(f"unknown workload {name!r}")
    random.Random(seed).shuffle(calls)
    return sources, calls


WORKLOADS = ("indirect-safe", "direct-sweep", "unsafe")


# ---------------------------------------------------------------------------
# Set-up


class SourceMissing(Exception):
    """The library or a model file is not in the source tree."""


def import_library() -> SimpleNamespace:
    """Import scpv afresh from the source tree, dropping any earlier import."""
    for key in [k for k in sys.modules if k == "scpv" or k.startswith("scpv.")]:
        del sys.modules[key]
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    try:
        lib = SimpleNamespace(
            **{m: importlib.import_module(f"scpv.{m}") for m in MODULES}, MODULES=MODULES
        )
    except ImportError as e:
        raise SourceMissing(f"cannot import scpv from {src}: {e}") from e
    if not Path(lib.engine.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SourceMissing(f"scpv was imported from {lib.engine.__file__}, not {src}")
    return lib


def load_models(lib, sources: dict) -> dict:
    models = {}
    for key, source in sources.items():
        if source.endswith((".l", ".spec")):
            path = ROOT / "protocols" / source
            if not path.is_file():
                raise SourceMissing(f"model file {path} is missing")
            text = path.read_text(encoding="utf-8")
        else:
            text = source
        if source.endswith(".l"):
            models[key] = lib.lang.parse_program(text)
        else:
            models[key] = lib.corpus.generate_model(lib.corpus.parse_protocol_spec(text))
    return models


def setup(name: str, seed: int, tracer=None):
    """Import, make the inputs, load every model and build the self-interpreter
    over them; returns (lib, models, calls)."""
    lib = import_library()
    if tracer is not None:
        tracer.install(lib)
    sources, calls = workload_inputs(name, seed)
    models = load_models(lib, sources)
    lib.corpus.self_interpreter({f"M{i}": m for i, m in enumerate(models.values())})
    return lib, models, calls


# ---------------------------------------------------------------------------
# Verification passes


def verify(lib, model, call: Call, probe: HostProbe) -> dict:
    """One verify_protocol call, from a cold embedding memo. Its time leaves
    out the time the host probe spent inside it."""
    probed = probe.spent_s
    memo = lib.relations._seq_embed
    memo.cache_clear()
    limits = lib.engine.Limits(max_nodes=call.cap, time_budget_s=float("inf"))
    t0 = time.perf_counter()
    try:
        report = lib.engine.verify_protocol(
            model, mode=call.mode, passes=call.passes, limits=limits
        )
    except lib.engine.BudgetExceeded as e:
        report, graph = None, e.graph
    t1 = time.perf_counter()
    if report is None:
        root = graph.nodes[0].config.stack
        # the entry of a later pass is the previous residual's *Res function
        started = 2 if root and root[0].fname.endswith("Res") else 1
        out = {"verdict": "budget", "nodes": [graph.stats()["nodes"]],
               "functions": [], "passes_used": started, "residual": None}
    else:
        out = {
            "verdict": "safe" if report["safe"] else "unsafe",
            "nodes": [p["nodes"] for p in report["passes"]],
            "functions": [p["functions"] for p in report["passes"]],
            "passes_used": report["passes_used"],
            "residual": report["residual"],
        }
    info = memo.cache_info()
    out.update(seconds=t1 - t0 - (probe.spent_s - probed),
               start=t0, end=t1, memo_hits=info.hits, memo_misses=info.misses)
    return out


def run_call(lib, model, call: Call, probe: HostProbe) -> dict:
    t0 = time.perf_counter()
    try:
        return verify(lib, model, call, probe)
    except Exception:  # a crash is a failed operation; the run goes on
        traceback.print_exc(file=sys.stderr)
        return {"verdict": "error", "seconds": 0.0, "start": t0, "end": time.perf_counter(),
                "nodes": [], "functions": [], "passes_used": 0, "residual": None,
                "memo_hits": 0, "memo_misses": 0}


def fingerprint(lib, r: dict) -> tuple:
    """Everything a repeated call must reproduce exactly: verdict, counts, residual."""
    return (r["verdict"], r["nodes"], r["functions"], r["passes_used"],
            r["residual"] and lib.lang.print_program(r["residual"]))


def exact_counts(results: list) -> dict:
    decided = [r for r in results if r["verdict"] in ("safe", "unsafe")]
    return {
        "decided_share": len(decided) / len(results),
        "graph_nodes": sum(sum(r["nodes"]) for r in results),
        "residual_functions": sum(sum(r["functions"]) for r in results),
        "passes_used": sum(r["passes_used"] for r in results),
    }


def check(lib, models: dict, calls: list, results: list) -> dict:
    """Compare every decided call with the reference interpreter's answers."""
    answers = {key: oracle.model_answers(lib, models[key]) for key in {c.model for c in calls}}
    totals = {"wrong_verdicts": 0, "unconfirmed_unsafe": 0, "residual_mismatches": 0, "inputs": 0}
    for call, r in zip(calls, results):
        if r["residual"] is None:
            continue
        entry = ("Int" if call.mode == "indirect" else "Main") + "Res"
        got = oracle.check_call(lib, answers[call.model], call.mode,
                                r["verdict"] == "safe", r["residual"], entry)
        for k in totals:
            totals[k] += got[k]
    return totals


# ---------------------------------------------------------------------------
# Metrics


def layer_metrics(passes: list, check_summary: dict, setup_summary: dict,
                  memo: tuple, coverage: list, walls: list) -> dict:
    """Per-layer metrics: exact counts from the first traced pass, times as
    medians over the traced passes."""

    def med(name, field):
        return statistics.median(p.get(name, {}).get(field, 0.0) for p in passes)

    first = passes[0]

    def calls(name):
        return first.get(name, {}).get("calls", 0)

    hits = first["_hits"]
    step_calls = calls("engine.step")
    memo_hits, memo_total = memo
    m = {
        "driving.drive.calls": calls("driving.drive"),
        "driving.drive.self_s": med("driving.drive", "self_s"),
        "driving.drive_per_step": calls("driving.drive") / step_calls if step_calls else 0.0,
        "config.decompose.self_s": med("config.decompose", "self_s"),
        "config.subst_config.self_s": med("config.subst_config", "self_s"),
        "lang.print_seq.self_s": med("lang.print_seq", "self_s"),
        "relations.whistle.calls": calls("relations.whistle"),
        "relations.whistle.self_s": med("relations.whistle", "self_s"),
        "relations.whistle.act_ratio": (
            hits["relations.whistle"] / calls("relations.whistle")
            if calls("relations.whistle") else 0.0),
        "relations.embed_memo.hit_ratio": memo_hits / memo_total if memo_total else 0.0,
        "transform.fold_instance.calls": calls("transform.fold_instance"),
        "transform.fold_instance.self_s": med("transform.fold_instance", "self_s"),
        "transform.fold_instance.hit_ratio": (
            hits["transform.fold_instance"] / calls("transform.fold_instance")
            if calls("transform.fold_instance") else 0.0),
        "engine.complete_candidates.calls": first["_counted"].get(
            "engine.complete_candidates", 0),
        "transform.msg.calls": calls("transform.msg"),
        "transform.split_task.calls": calls("transform.split_task"),
        "transform.build_residual.self_s": med("transform.build_residual", "self_s"),
        "transform.simplify_program.self_s": med("transform.simplify_program", "self_s"),
        "engine.verify_safety.self_s": med("engine.verify_safety", "self_s"),
        "engine.step.calls": step_calls,
        "engine.step.self_s": med("engine.step", "self_s"),
        "lang.parse_program.s": setup_summary.get("lang.parse_program", {}).get("s", 0.0),
        "corpus.generate_model.s": setup_summary.get("corpus.generate_model", {}).get("s", 0.0),
        "corpus.self_interpreter.s": setup_summary.get("corpus.self_interpreter", {}).get("s", 0.0),
        "encoding.encode_program.s": setup_summary.get("encoding.encode_program", {}).get("s", 0.0),
        "interp.eval_call.calls": check_summary.get("interp.eval_call", {}).get("calls", 0),
        "interp.eval_call.s": check_summary.get("interp.eval_call", {}).get("s", 0.0),
    }
    for mod in LAYER_MODULES:
        m[f"module.{mod}.self_s"] = statistics.median(
            sum(v["self_s"] for k, v in p.items() if k.startswith(mod + ".")) for p in passes
        )
    m["trace.verify_s"] = statistics.median(walls)
    m["trace.self_coverage"] = statistics.median(coverage)
    return m


LAYER_MODULES = ("engine", "driving", "config", "lang", "relations", "transform",
                 "corpus", "encoding")

UNITS = {
    "setup_s": "s", "verify_s": "s", "decided_share": "share", "graph_nodes": "count",
    "residual_functions": "count", "passes_used": "count", "peak_rss_mb": "MB",
    "wrong_verdicts": "count", "residual_mismatches": "count",
    "unconfirmed_unsafe": "count",
}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith((".self_s", ".s", "verify_s")):
        return "s"
    if name.endswith(".calls"):
        return "count"
    return "ratio"


def bench(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run: set up, verify for ``seconds``, check; returns everything.

    Every timed interval is kept as (seconds, start, end): its time without
    the host probe's, and the perf_counter readings around it. Untraced runs
    scale each by the host probe samples around it (``hostprobe.py``); traced
    runs keep their times unscaled."""
    tracer = Tracer() if trace else None
    probe = HostProbe()  # never started in a traced run, so it takes no time
    setup_times = []
    if not trace:
        probe.start()
    try:
        for rep in range(SETUP_REPS):
            gc.collect()  # the garbage of the previous import is not set-up work
            last = rep == SETUP_REPS - 1
            probed = probe.spent_s
            t0 = time.perf_counter()
            lib, models, calls = setup(name, seed, tracer if last else None)
            t1 = time.perf_counter()
            setup_times.append((t1 - t0 - (probe.spent_s - probed), t0, t1))
        # the collector need not scan the loaded models and the library again
        # in every call: a CLI run holds one model, this process holds them all
        gc.collect()
        gc.freeze()
        # the tracer was installed in the last set-up, so far all spans are its
        setup_summary = tracer.summary() if tracer else {}
        passes, walls, coverage, pass_times = [], [], [], []
        first_results, deterministic = None, True
        failed = attempted = 0
        memo = (0, 0)
        start = time.perf_counter()
        # stop before a pass that would end after ``seconds``
        while len(walls) < MIN_PASSES or (
            time.perf_counter() - start + statistics.median(walls) <= seconds
        ):
            mark = tracer.mark() if tracer else 0
            counted = dict(tracer.calls) if tracer else {}
            hits = dict(tracer.hits) if tracer else {}
            results = []
            t0 = time.perf_counter()
            for k, call in enumerate(calls):
                gc.collect()  # the previous call's garbage is not this call's work
                r = run_call(lib, models[call.model], call, probe)
                results.append(r)
                failed += r["verdict"] == "error"
                if first_results is not None:
                    deterministic &= fingerprint(lib, r) == fingerprint(lib, first_results[k])
            walls.append(time.perf_counter() - t0)
            attempted += len(results)
            pass_times.append((sum(r["seconds"] for r in results),
                               results[0]["start"], results[-1]["end"]))
            if first_results is None:
                first_results = results
                memo = (sum(r["memo_hits"] for r in results),
                        sum(r["memo_hits"] + r["memo_misses"] for r in results))
            if tracer:
                summary = tracer.summary(mark)
                summary["_counted"] = {k: v - counted.get(k, 0) for k, v in tracer.calls.items()}
                summary["_hits"] = {k: v - hits.get(k, 0) for k, v in tracer.hits.items()}
                passes.append(summary)
                coverage.append(sum(v["self_s"] for k, v in summary.items()
                                    if not k.startswith("_")) / walls[-1])
        if not trace:
            time.sleep(WINDOW_S)  # the last probe window reaches past the last call
        probe.stop()
        mark = tracer.mark() if tracer else 0
        verdicts = check(lib, models, calls, first_results)
        check_summary = tracer.summary(mark) if tracer else {}
    finally:
        gc.unfreeze()
        probe.stop()
        if tracer:
            tracer.uninstall()

    def scaled(t):
        return t[0] if trace else t[0] * probe.scale(t[1], t[2])

    out = {
        "lib": lib,
        "calls": calls,
        "results": first_results,
        "passes_run": len(walls),
        "deterministic": deterministic,
        "setup_s": statistics.median(scaled(t) for t in setup_times),
        "setup_s_unscaled": statistics.median(t[0] for t in setup_times),
        "walls": walls,
        # a pass is scaled as a whole: its calls' time and the probe samples
        # then cover the same seconds, which a call of a few milliseconds and
        # the samples around it do not
        "verify_s": statistics.median(scaled(t) for t in pass_times),
        "verify_s_unscaled": statistics.median(t[0] for t in pass_times),
        "counts": exact_counts(first_results),
        "verdicts": verdicts,
        "failed": failed,
        "attempted": attempted,
        "tracer": tracer,
    }
    if tracer:
        out["layers"] = layer_metrics(passes, check_summary, setup_summary, memo,
                                      coverage, walls)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="scpv verification benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        res = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except SourceMissing as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    v = res["verdicts"]
    correct = (res["deterministic"] and v["wrong_verdicts"] == 0
               and v["residual_mismatches"] == 0)
    if args.trace:
        metrics = res["layers"]
        SPANS_DIR.mkdir(exist_ok=True)
        res["tracer"].write(SPANS_DIR / f"spans-{args.workload}.tsv.gz")
    else:
        metrics = {
            "setup_s": res["setup_s"],
            "verify_s": res["verify_s"],
            **res["counts"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    shown = dict(metrics) if args.trace else {**metrics, **{k: v[k] for k in (
        "wrong_verdicts", "residual_mismatches", "unconfirmed_unsafe")}}
    print(f"# workload {args.workload}, seed {args.seed}, {res['passes_run']} passes of "
          f"{len(res['calls'])} verify calls, {v['inputs']} interpreter-checked inputs, "
          f"deterministic={res['deterministic']}")
    print("# pass wall times (s): " + " ".join(f"{w:.3f}" for w in res["walls"]))
    if not args.trace:
        print(f"# unscaled by the host probe: setup_s = {res['setup_s_unscaled']} s, "
              f"verify_s = {res['verify_s_unscaled']} s")
    for k, val in shown.items():
        print(f"{k} = {val} {unit_of(k)}")
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": val, "unit": unit_of(k)} for k, val in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
