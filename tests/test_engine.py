import json
import random

import pytest

import models
from scpv.config import Configuration, TimedApp
from scpv.corpus import self_interpreter
from scpv.encoding import encode_expr
from scpv.engine import (
    BudgetExceeded,
    Limits,
    Trace,
    WitnessSearch,
    make_entry_config,
    parse_entry_config,
    supercompile,
    verify_protocol,
    verify_safety,
)
from scpv.interp import UNDEFINED, eval_call
from scpv.lang import BULLET, Sym, iter_items, parse_expr


@pytest.fixture(scope="module")
def syn():
    return models.load("synapse.l")


@pytest.fixture(scope="module")
def direct_run(syn):
    entry = make_entry_config(syn, "Main")
    return supercompile(syn, entry, Limits(time_budget_s=60), Trace(), entry_name="MainRes")


def test_direct_residual_safe(direct_run):
    residual, graph, trace = direct_run
    v = verify_safety(residual)
    assert v.safe and not v.witnesses


def test_direct_residual_equivalent(syn, direct_run):
    residual, _, _ = direct_run
    rnd = random.Random(71)
    for _ in range(200):
        t = " ".join(rnd.choice(["rm", "wh2", "wm", "zz"]) for _ in range(rnd.randint(0, 8)))
        k = " ".join("I" for _ in range(rnd.randint(0, 4)))
        d = parse_expr(f"({t}) ({k})")
        a = eval_call(syn, "Main", [d])
        b = eval_call(residual, "MainRes", [d])
        if a is UNDEFINED:
            assert b is UNDEFINED
        else:
            assert a == b


def test_residual_validates(direct_run):
    from scpv.lang import validate_program

    residual, _, _ = direct_run
    assert not [m for m in validate_program(residual) if m.startswith("error")]


def test_ground_entry_residualizes_to_constant(syn):
    cfg = Configuration(
        (TimedApp("Main", (parse_expr("(rm) (I)"),), 0),), (BULLET,)
    )
    residual, graph, _ = supercompile(syn, cfg, Limits(), Trace(), entry_name="K")
    (rule,) = residual.defs["K"].rules
    assert rule.rhs == (Sym("True"),)


def test_trace_determinism(syn):
    entry1 = make_entry_config(syn, "Main")
    entry2 = make_entry_config(syn, "Main")
    _, _, t1 = supercompile(syn, entry1, Limits(), Trace(), entry_name="M")
    _, _, t2 = supercompile(syn, entry2, Limits(), Trace(), entry_name="M")
    assert t1.to_jsonl() == t2.to_jsonl()
    for line in t1.to_jsonl().splitlines():
        assert json.loads(line)["v"] == 1


def test_trace_renders_the_same_text_on_every_read(syn):
    # configurations are stored on emit and printed when first read
    entry = make_entry_config(syn, "Main")
    _, _, fresh = supercompile(syn, entry, Limits(), Trace(), entry_name="M")
    _, _, read = supercompile(syn, entry, Limits(), Trace(), entry_name="M")
    count = read.event_count
    events = read.events
    assert count == len(events) > 0
    printed = [e["config"] for e in events if "config" in e]
    assert printed and all(isinstance(c, str) for c in printed)
    text = fresh.to_jsonl()
    assert fresh.to_jsonl() == text
    assert read.to_jsonl() == text
    # events emitted after a read are printed on the next read
    read.emit("Drive", node=-1, config=entry)
    assert read.events[-1]["config"] == repr(entry)
    assert read.to_jsonl() == text + "\n" + json.dumps(read.events[-1], sort_keys=True)


def test_trace_text_is_the_same_read_early_or_late(syn, monkeypatch):
    # substitutions are stored on emit and printed when first read, so the
    # text must not depend on when the events are read: no substitution may
    # change after it is emitted
    import scpv.engine as engine

    late = verify_protocol(syn, mode="indirect", passes=2)["trace"].to_jsonl()
    step = engine.Engine.step

    def step_and_read(self, node):
        step(self, node)
        self.trace.events

    monkeypatch.setattr(engine.Engine, "step", step_and_read)
    early = verify_protocol(syn, mode="indirect", passes=2)["trace"].to_jsonl()
    assert early == late


def test_generalization_that_binds_a_call_reopens_its_fold_sources(syn):
    # a fold passes its substitution as the arguments of a residual call;
    # composed with a generalization witness that binds a call, it would
    # pass that call, so the sources are reopened instead of retargeted
    from scpv.config import subst_config
    from scpv.engine import Engine, _equal_but_labels
    from scpv.lang import Call, Param

    x, y, g = Param("e", 1), Param("e", 2), Param("e", 200)

    def main(time, *args):
        return Configuration((TimedApp("Main", (args,), time),), (BULLET,))

    def folded_graph():
        eng = Engine(syn, Limits(), Trace())
        target = eng.graph.new_node(main(1, x, Call("F", ((y,),))))
        sources = [
            eng.graph.new_node(main(2 + i, Sym(a), Call("F", ((Sym("b"),),))))
            for i, a in enumerate("ac")
        ]
        for s, a in zip(sources, "ac"):
            eng._fold(s, target.id, {x: (Sym(a),), y: (Sym("b"),)})
        return eng, target, sources

    # the call stays in the generalization: the folds are retargeted
    eng, target, sources = folded_graph()
    eng._restart(target, main(1, x, Call("F", ((g,),))), {x: (x,), g: (y,)})
    for s in sources:
        assert s.kind == "fold" and s.fold_target == target.id
        assert _equal_but_labels(subst_config(target.config, s.fold_theta), s.config)
    assert eng.graph.fold_sources[target.id] == [s.id for s in sources]
    assert not eng.trace.warnings

    # the generalization binds the call: every source is reopened
    eng, target, sources = folded_graph()
    eng._restart(target, main(1, x, g), {x: (x,), g: (Call("F", ((y,),)),)})
    for s in sources:
        assert (s.kind, s.fold_target, s.fold_theta) == ("open", None, None)
        assert s.id in eng.tasks
    assert target.id not in eng.graph.fold_sources
    assert eng.trace.warnings == [
        f"fold source {s.id} reopened, a call in the generalization of {target.id}"
        for s in sources
    ]


def test_mutant_unsafe_direct():
    mut = models.load("synapse_unsafe_mutant.l")
    rep = verify_protocol(mut, mode="direct", passes=1, limits=Limits(time_budget_s=60))
    assert rep["safe"] is False
    # the evaluator exhibits the concrete counterexample independently
    assert eval_call(mut, "Main", [parse_expr("(rm wm) (I)")]) == (Sym("False"),)


def test_source_scan_is_purely_syntactic(syn):
    # the scan applies to residuals; on the source itself it reports the
    # False occurrences sitting in the Test rules
    v = verify_safety(syn)
    assert not v.safe
    assert all(fn == "Test" for fn, _ in v.witnesses)


def test_empty_program_safe():
    from scpv.lang import Program

    assert verify_safety(Program()).safe


def test_budget_exceeded_carries_graph(syn):
    entry = make_entry_config(syn, "Main")
    with pytest.raises(BudgetExceeded) as e:
        supercompile(syn, entry, Limits(max_nodes=5), Trace())
    assert e.value.graph is not None


def test_direct_verify_report(syn):
    rep = verify_protocol(syn, mode="direct", passes=1, limits=Limits(time_budget_s=60))
    assert rep["safe"] is True
    assert rep["passes_used"] == 1
    assert rep["passes"][0]["nodes"] > 10


@pytest.mark.parametrize("mode, passes", [("direct", 1), ("indirect", 2)])
def test_every_fold_is_checked(syn, mode, passes):
    # each pass's instance-equation count covers every Fold event of that
    # pass, task-root folds included; a Pass event opens every later pass
    rep = verify_protocol(syn, mode=mode, passes=passes)
    events = rep["trace"].events
    cuts = [0] + [i for i, e in enumerate(events) if e["ev"] == "Pass"] + [len(events)]
    folds = [sum(e["ev"] == "Fold" for e in events[a:b]) for a, b in zip(cuts, cuts[1:])]
    assert len(folds) == passes
    assert [p["fold_checked"] for p in rep["passes"]] == folds


def test_indirect_first_generalization_shape(syn):
    rep = verify_protocol(
        syn,
        mode="indirect",
        passes=2,
        limits=Limits(time_budget_s=240),
        instrument=True,
        model_name="Synapse",
    )
    assert rep["safe"] is True
    assert rep["passes_used"] <= 2
    assert rep["violations"] == []
    assert rep["passes"][0]["transitive_steps"] > 0
    fg = rep["first_generalization"]
    assert fg is not None and fg["match_nil_headed"]


def test_indirect_entry_equivalent_to_direct(syn):
    interp = self_interpreter({"Synapse": syn})
    cfg = parse_entry_config(interp, "Int((Call Main e.d), (Prog Synapse))")
    assert [e.fname for e in cfg.stack] == ["Int"]
    residual, _, _ = supercompile(
        interp, cfg, Limits(time_budget_s=240), Trace(), entry_name="IntRes"
    )
    rnd = random.Random(72)
    for _ in range(60):
        t = " ".join(rnd.choice(["rm", "wh2", "wm"]) for _ in range(rnd.randint(0, 5)))
        k = " ".join("I" for _ in range(rnd.randint(0, 3)))
        d = parse_expr(f"({t}) ({k})")
        a = eval_call(syn, "Main", [d])
        b = eval_call(residual, "IntRes", [encode_expr(d)])
        if a is UNDEFINED:
            assert b is UNDEFINED
        else:
            assert b == encode_expr(a)


def test_transitive_skips_recorded(syn, direct_run):
    _, _, trace = direct_run
    assert any(e["ev"] == "TransitiveSkip" for e in trace.events)


@pytest.mark.parametrize(
    "src, fn",
    [
        ("G { e.x => G(e.x); }", "G"),
        ("G { e.x => H(e.x); } H { e.x => G(e.x); }", "G"),
        ("Main { e.x => G(e.x); } G { e.x => G(e.x); }", "Main"),
    ],
    ids=["self", "two", "behind-a-call"],
)
def test_transitive_cycle_folds(src, fn):
    # a transitive chain that comes back to an earlier configuration is
    # driven where it closes, and folds, instead of being skipped forever
    from scpv.lang import parse_program, print_program

    prog = parse_program(src)
    limits = Limits(time_budget_s=2)
    residual, graph, _ = supercompile(
        prog, make_entry_config(prog, fn), limits, entry_name=f"{fn}Res"
    )
    assert print_program(residual) == f"{fn}Res {{\n  e.1 => {fn}Res(e.1);\n}}\n"
    assert graph.stats()["nodes"] == 2
    rep = verify_protocol(prog, entry=fn, limits=limits)
    assert rep["safe"] is True and rep["passes"][0]["fold_checked"] == 1


def test_transitive_growth_ends():
    # a transitive chain whose successor embeds its checkpoint grows: it is
    # driven there, so that the whistle generalizes and the loop folds
    from scpv.lang import parse_program, print_program

    prog = parse_program("G { e.x => G(A e.x); }")
    residual, _, _ = supercompile(
        prog, make_entry_config(prog, "G"), Limits(time_budget_s=1)
    )
    assert print_program(residual) == "Start {\n  e.1 => Start(A e.1);\n}\n"


def _renamed(c, dp: int, dt: int):
    """c with every parameter number raised by dp and every label by dt."""
    from scpv.config import subst_config
    from scpv.lang import Param, vars_of

    ps = {p for e in c.stack for a in e.args for p in vars_of(a)}
    ps |= set(vars_of(c.tail))
    c = subst_config(c, {p: (Param(p.kind, p.num + dp),) for p in ps if type(p) is Param})
    return Configuration(
        tuple(TimedApp(e.fname, e.args, e.time + dt) for e in c.stack), c.tail
    )


@pytest.fixture(scope="module")
def indirect_starts(syn):
    """Every step's start configuration in indirect pass 1 of synapse.l, with
    the clock and the ParamGen as they stood."""
    from scpv.engine import Engine

    class Recording(Engine):
        def step(self, node):
            self.starts.append((node.config, self.clock.now, self.pgen.next_num))
            super().step(node)

    prog = self_interpreter({"Synapse": syn})
    eng = Recording(prog, Limits(time_budget_s=240), Trace())
    eng.starts = []
    eng.run(parse_entry_config(prog, "Int((Call Main e.d), (Prog Synapse))"))
    return prog, eng.starts


def test_chain_replay_matches_reference(indirect_starts):
    # a chain replayed from the memo for a renamed start ends where the
    # plain skip loop ends: the same configuration and labels, the same
    # drive result, skips, clock, ParamGen and warnings
    from scpv.config import Clock, ParamGen
    from scpv.engine import Engine

    from oracles import ref_skip_chain

    prog, starts = indirect_starts
    replayed = 0
    for c, now, base in starts[::5]:
        eng = Engine(prog, Limits(time_budget_s=240), Trace())
        eng.clock.now, eng.pgen.next_num = now, base
        # the second start's labels and parameters stay below the supplies
        for start in (c, _renamed(c, 5000, 700)):
            clock, pgen, ref = Clock(eng.clock.now), ParamGen(eng.pgen.next_num), Trace()
            steps, warned = eng.trace.transitive_steps, len(eng.trace.warnings)
            got = eng._skip_chain(start, False)
            want = ref_skip_chain(start, prog, clock, pgen, ref)
            assert got == want  # labels included
            assert [list(b.contraction.items()) for b in got[1]] == [
                list(b.contraction.items()) for b in want[1]
            ]
            assert (eng.clock.now, eng.pgen.next_num) == (clock.now, pgen.next_num)
            assert eng.trace.transitive_steps - steps == ref.transitive_steps
            assert eng.trace.warnings[warned:] == ref.warnings
            eng.clock.now += 1000
            eng.pgen.next_num += 9000
        replayed += eng.trace.transitive_replayed
    assert replayed > 0


def test_chain_that_warns_warns_every_visit():
    # both F children skip through G into a parameter-parameter decision;
    # the second chain is replayed and its last configuration driven for
    # real, so the warning comes out twice
    from scpv.lang import parse_program

    prog = parse_program(
        "Main { A, s.x, s.y => F(s.x, s.y); B, s.x, s.y => F(s.x, s.y); }\n"
        "F { s.x, s.y => G(s.x, s.y); }\n"
        "G { s.x, s.y => Eq(s.x s.y); }\n"
        "Eq { s.x s.x => T; s.x s.y => N; }\n"
    )
    trace = Trace()
    entry = parse_entry_config(prog, "Main(s.a, s.b, s.c)")
    supercompile(prog, entry, Limits(time_budget_s=5), trace)
    assert trace.warnings == ["parameter-parameter symbol decision s.3=s.2"] * 2
    assert trace.transitive_steps == 4
    assert trace.transitive_replayed == 1


def test_chain_memo_counts_replayed_skips(syn):
    rep = verify_protocol(syn, mode="indirect", passes=2, model_name="Synapse")
    assert rep["safe"] is True and rep["passes_used"] == 2
    first, second = rep["passes"]
    assert 0 < first["transitive_replayed"] <= first["transitive_steps"]
    # pass 2 skips 9 steps in 7 chains, 6 of them one skip long and the
    # other met once, so none of its skips can come from the memo
    assert 0 == second["transitive_replayed"] <= second["transitive_steps"]


def test_residual_prints_and_reparses(syn, direct_run):
    from scpv.lang import parse_program, print_program, validate_program

    residual, _, _ = direct_run
    back = parse_program(print_program(residual))
    assert not [m for m in validate_program(back) if m.startswith("error")]
    rnd = random.Random(5)
    for _ in range(50):
        t = " ".join(rnd.choice(["rm", "wh2", "wm"]) for _ in range(rnd.randint(0, 6)))
        d = parse_expr(f"({t}) (I I)")
        a = eval_call(residual, "MainRes", [d])
        b = eval_call(back, "MainRes", [d])
        assert (a is UNDEFINED and b is UNDEFINED) or a == b


def test_fold_edges_expose_equations(syn):
    from scpv.config import subst_config
    from scpv.engine import Engine

    entry = make_entry_config(syn, "Main")
    eng = Engine(syn, Limits(), Trace())
    eng.run(entry)
    folds = [n for n in eng.graph.nodes.values() if not n.dead and n.kind == "fold"]
    assert folds
    for n in folds:
        applied = subst_config(eng.graph.node(n.fold_target).config, n.fold_theta)
        current = n.config
        assert [(x.fname, x.args) for x in applied.stack] == [
            (x.fname, x.args) for x in current.stack
        ]


def test_trace_covers_graph_events(syn):
    from scpv.engine import Engine

    entry = make_entry_config(syn, "Main")
    eng = Engine(syn, Limits(), Trace())
    eng.run(entry)
    drive_ids = {e["node"] for e in eng.trace.events if e["ev"] == "Drive"}
    fold_ids = {e["node"] for e in eng.trace.events if e["ev"] == "Fold"}
    for n in eng.graph.nodes.values():
        if n.dead:
            continue
        if n.kind == "drive":
            assert n.id in drive_ids
        if n.kind == "fold":
            assert n.id in fold_ids


def test_golden_first_generalization_and_foldings(syn):
    # the unfolding history's first generalization accumulates the Valid
    # counter: the generalized spot maps to [] in the earlier configuration
    # and to I in the later one, and the loop then closes with one folding
    # that grows the accumulator and one that resets it
    rep = verify_protocol(
        syn,
        mode="indirect",
        passes=1,
        limits=Limits(time_budget_s=120),
        instrument=True,
        model_name="Synapse",
    )
    trace = rep["trace"]
    gens = [e for e in trace.events if e["ev"] == "Generalize"]
    assert gens
    first = gens[0]
    accs = [
        p
        for p in first["theta1"]
        if first["theta1"][p] == "[]" and first["theta2"][p] == "I"
    ]
    assert accs, "no []-to-I accumulator in the first generalization"
    assert any(f"('*' Valid I {a})" in first["gen"] for a in accs)
    folds = [
        e
        for e in trace.events
        if e["ev"] == "Fold" and e["target"] == first["ancestor"]
    ]
    assert any(
        any(f["theta"].get(a, "").startswith("I e.") for a in accs) for f in folds
    ), "no folding grows the accumulator"
    assert any(
        any(f["theta"].get(a) == "[]" for a in accs) for f in folds
    ), "no folding resets the accumulator"


def test_external_protocols_best_effort():
    # the non-Synapse tables are externally sourced data; run them behind a
    # small budget without gating on their verdicts
    for name in ("msi.spec", "mesi.spec"):
        model = models.load(name)
        try:
            rep = verify_protocol(
                model, mode="direct", passes=1, limits=Limits(time_budget_s=20)
            )
        except BudgetExceeded:
            pytest.skip("external protocol exceeded its best-effort budget")
        assert rep["safe"] is True


def test_golden_append_forced_splits(syn):
    # the later generalizations are forced by the interpreted Append: the
    # stack splits between a Match-headed matching prefix and a context
    # whose first entry is the suspended interpreted-call application
    rep = verify_protocol(
        syn,
        mode="indirect",
        passes=1,
        limits=Limits(time_budget_s=120),
        model_name="Synapse",
    )
    splits = [
        e
        for e in rep["trace"].events
        if e["ev"] == "TaskSplit" and e.get("split") is not None
    ]
    assert splits
    assert any(
        s["prefix"].startswith("Match@") and s["context"].startswith("EvalCall@")
        for s in splits
    )
    assert any("Eval(" in s["context"] for s in splits)  # suspended call stack


# ---------------------------------------------------------------------------
# Confirmed counterexamples

# the last of `python3 perfbench/specgen.py --seed 3 --count 40 --names-seed 1`
# (spec 39 of the direct-sweep workload at seed 1); every False leaf of its
# graph lies below a generalized node, so its witness comes through the
# renaming of a generalization's entry substitution
GEN39_SPEC = """\
protocol gen3x39
counter owned init param
counter dirty init zero
counter pending init zero
counter forward init zero
event flush
  guard dirty >= 1
  alt
  guard forward >= 1
  update owned := owned + 1
  update dirty := dirty
event inv
  guard owned >= 1
  update owned := owned + dirty + forward
  update dirty := 0
  update pending := pending + 1
  update forward := 0
event put
  guard owned >= 1
  update owned := owned + pending
  update dirty := dirty + 1
  update pending := 0
unsafe pending >= 2
unsafe dirty >= 2
unsafe forward >= 2
"""


def test_unsafe_two_passes_stop_at_the_witness():
    mut = models.load("synapse_unsafe_mutant.l")
    rep = verify_protocol(mut, mode="direct", passes=2)
    assert rep["safe"] is False
    assert rep["passes_used"] == 1
    assert rep["passes"][0]["witness_candidates"] >= 1
    assert rep["witness"] == "(rm wm) (I)"
    assert eval_call(mut, "Main", [parse_expr(rep["witness"])]) == (Sym("False"),)
    # the pass stops at the confirming leaf; the completed pass has 90 nodes
    assert rep["passes"][0]["nodes"] < 90


@pytest.mark.parametrize("mode", ["direct", "indirect"])
@pytest.mark.parametrize("name", ["synapse.l", "msi.spec", "mesi.spec", "synapse.spec"])
def test_safe_models_have_no_witness(name, mode):
    rep = verify_protocol(models.load(name), mode=mode, passes=1)
    assert rep["witness"] is None
    # indirect pass 1 keeps a spurious False; its candidates run and fail
    assert rep["safe"] is (mode == "direct")
    assert rep["passes"][0]["witness_fuel_exhausted"] == 0


def test_witness_through_a_generalization():
    from scpv.corpus import generate_model, parse_protocol_spec

    model = generate_model(parse_protocol_spec(GEN39_SPEC))
    entry = make_entry_config(model, "Main")
    _, graph, _ = supercompile(model, entry, Limits(max_nodes=1_000))
    leaves = [
        n for n in graph.nodes.values()
        if not n.dead and n.kind == "passive" and Sym("False") in iter_items(n.value)
    ]
    assert leaves

    def generalized_above(n):
        while n.entry_subst is None:
            if n.parent is None:
                return False
            n = graph.node(n.parent)
        return True

    assert all(generalized_above(n) for n in leaves)
    search = WitnessSearch(entry.stack[0].args, model, "Main", lambda args: args)
    confirmed = [n.id for n in leaves if search.check(graph, n)]
    found = search.found
    assert found == (parse_expr("(inv put put) (I)"),)
    assert confirmed == [search.node]
    assert search.runs >= 1 and search.exhausted == 0
    assert eval_call(model, "Main", found) == (Sym("False"),)
    rep = verify_protocol(model, mode="direct", passes=1, limits=Limits(max_nodes=1_000))
    assert rep["witness"] == "(inv put put) (I)"


def test_stopped_report_keeps_the_benchmark_keys():
    # perfbench/run.py reads these keys of every report; a report that stops
    # on a witness must still carry them, or its calls count as failed
    from scpv.lang import Program

    rep = verify_protocol(models.load("synapse_unsafe_mutant.l"), mode="direct", passes=2)
    assert rep["witness"] is not None
    assert rep["safe"] is False
    assert rep["passes_used"] == len(rep["passes"]) == 1
    for p in rep["passes"]:
        assert isinstance(p["nodes"], int) and isinstance(p["functions"], int)
    # the pass stopped at the witness, so no pass completed
    assert rep["residual"] is None
    whole = verify_protocol(
        models.load("synapse_unsafe_mutant.l"), mode="direct", passes=2, need_residual=True
    )
    assert isinstance(whole["residual"], Program)
    assert "MainRes" in whole["residual"].defs


def test_budget_exit_in_a_later_pass_keeps_earlier_events(syn, monkeypatch):
    import scpv.engine as engine

    one = verify_protocol(syn, mode="indirect", passes=1)["trace"].events
    limits = Limits()
    scan = engine.verify_safety

    def scan_then_shrink(residual, unsafe_symbol):
        limits.max_nodes = 5  # the next pass exceeds its budget at once
        return scan(residual, unsafe_symbol)

    monkeypatch.setattr(engine, "verify_safety", scan_then_shrink)
    with pytest.raises(BudgetExceeded) as e:
        verify_protocol(syn, mode="indirect", passes=2, limits=limits)
    events = e.value.trace.events
    assert events[: len(one)] == one
    assert events[len(one)] == {"v": 1, "ev": "Pass", "pass": 2}
    assert len(events) > len(one) + 1


# the 16th and 21st of `python3 perfbench/specgen.py --seed 3 --count 40
# --names-seed 1` (specs 15 and 20 of the direct-sweep workload at seed 1)
GEN15_SPEC = """\
protocol gen3x15
counter shared init param
counter owned init zero
counter exclusive init zero
event wm
  guard owned >= 1
  update shared := shared + 1 + owned
  update owned := 0
event upgrade
  guard shared >= 1
  update shared := shared + owned
  update owned := 0
  update exclusive := exclusive + 1
event ack
  guard owned >= 1
  update shared := shared + 1 + exclusive
  update owned := owned
  update exclusive := 0
event rm
  guard shared >= 2
  update shared := shared + 1
  update owned := owned + 1
unsafe exclusive >= 1, owned >= 1
"""

GEN20_SPEC = """\
protocol gen3x20
counter dirty init param
counter pending init zero
counter shared init zero
event rh
  guard shared >= 1
  update dirty := dirty + shared
  update pending := pending + 1
  update shared := 0
event ack
  guard shared >= 1
  update pending := pending + 1
  update shared := shared
event fetch
  guard pending >= 1
  update pending := pending
  update shared := shared + 1
event evict
  guard pending >= 1
  update pending := pending
  update shared := shared + 1
event wm
  guard dirty >= 1
  update dirty := dirty
  update pending := pending + 1
event put
  guard dirty >= 1
  update dirty := dirty
  update pending := pending + 1
unsafe pending >= 2
unsafe shared >= 1, pending >= 1
unsafe pending >= 1, shared >= 1
"""


def _spec_model(text):
    from scpv.corpus import generate_model, parse_protocol_spec

    return generate_model(parse_protocol_spec(text))


def test_witness_stops_a_pass_before_its_node_cap():
    # the whole pass runs past 1,000 nodes; its first False leaf confirms
    model = _spec_model(GEN15_SPEC)
    with pytest.raises(BudgetExceeded):
        supercompile(model, make_entry_config(model, "Main"), Limits(max_nodes=1_000))
    rep = verify_protocol(model, mode="direct", passes=1, limits=Limits(max_nodes=1_000))
    assert rep["safe"] is False
    assert rep["witness"] == "(upgrade rm) (I I)"
    assert eval_call(model, "Main", [parse_expr(rep["witness"])]) == (Sym("False"),)
    (p,) = rep["passes"]
    assert p["nodes"] < 100 and p["functions"] == 0 and p["witnesses"] == []
    assert p["witness_node"] is not None and rep["residual"] is None


def test_witness_from_a_leaf_a_generalization_later_kills():
    model = _spec_model(GEN20_SPEC)
    entry = make_entry_config(model, "Main")
    search = WitnessSearch(entry.stack[0].args, model, "Main", lambda args: args, stop=False)
    _, graph, _ = supercompile(model, entry, Limits(max_nodes=1_000), witness=search)
    # a scan of the finished graph could not see the confirming leaf
    assert graph.node(search.node).dead
    rep = verify_protocol(model, mode="direct", passes=1, limits=Limits(max_nodes=1_000))
    assert rep["witness"] == "(wm fetch wm) (I)"
    assert rep["passes"][0]["witness_node"] == search.node
    assert eval_call(model, "Main", [parse_expr(rep["witness"])]) == (Sym("False"),)


def test_need_residual_completes_the_pass_after_the_witness():
    from scpv.lang import Program

    rep = verify_protocol(models.load("synapse_unsafe_mutant.l"), mode="direct", passes=1, need_residual=True)
    assert rep["safe"] is False and rep["witness"] == "(rm wm) (I)"
    (p,) = rep["passes"]
    assert p["nodes"] == 90 and p["functions"] > 0
    assert isinstance(rep["residual"], Program) and "MainRes" in rep["residual"].defs


# specs 4, 19, 23 and 32 of `python3 perfbench/specgen.py --seed 3 --count 40
# --names-seed 1`, which with GEN39_SPEC are the specs whose indirect runs
# built a residual that calls a function it does not define, while folds
# could bind a parameter to a sequence holding a call
GEN4_SPEC = """\
protocol gen3x4
counter pending init param
counter exclusive init zero
counter owned init zero
event grant
  guard owned >= 1
  alt
  guard exclusive >= 1
  update exclusive := exclusive + 1
  update owned := owned
event rh
  guard pending >= 1
  update pending := pending + owned
  update exclusive := exclusive + 1
  update owned := 0
event ack
  guard owned >= 1
  update pending := pending + owned
  update exclusive := exclusive + 1
  update owned := 0
event inv
  guard pending >= 2
  update pending := pending + 1
  update owned := owned + 1
event wh
  guard owned >= 1
  update pending := pending + 1
  update owned := owned
event rm
  guard pending >= 1
  update pending := pending
  update owned := owned + 1
unsafe owned >= 1, exclusive >= 1
unsafe exclusive >= 1, owned >= 1
unsafe exclusive >= 2
"""

GEN19_SPEC = """\
protocol gen3x19
counter forward init param
counter invalid init zero
counter modified init zero
counter dirty init zero
event wh
  guard forward >= 2
  update forward := forward + 1 + modified + dirty
  update invalid := invalid + 1
  update modified := 0
  update dirty := 0
event upgrade
  guard forward >= 1
  update forward := forward + invalid
  update invalid := 0
  update modified := modified + 1
event wm
  guard dirty >= 1
  update forward := forward + dirty
  update invalid := invalid + 1
  update dirty := 0
unsafe invalid >= 1, modified >= 1
unsafe modified >= 2
"""

GEN23_SPEC = """\
protocol gen3x23
counter modified init param
counter pending init zero
counter exclusive init zero
event flush
  guard modified >= 1
  alt
  guard pending >= 1
  update modified := modified + pending
  update pending := 0
  update exclusive := exclusive + 1
event rm
  guard modified >= 1
  update modified := modified
  update exclusive := exclusive + 1
event rh
  guard exclusive >= 1
  update modified := modified + 1
  update exclusive := exclusive
event inv
  guard pending >= 1
  update pending := pending
  update exclusive := exclusive + 1
event fetch
  guard modified >= 1
  update modified := modified
  update pending := pending + 1
unsafe exclusive >= 2
"""

GEN32_SPEC = """\
protocol gen3x32
counter forward init param
counter pending init zero
counter modified init zero
counter dirty init zero
event grant
  guard modified >= 1
  update forward := forward + 1 + modified + dirty
  update modified := 0
  update dirty := 0
event rm
  guard modified >= 2
  alt
  guard forward >= 1
  update forward := forward + 1 + 1 + modified + dirty
  update modified := 0
  update dirty := 0
event upgrade
  guard modified >= 1
  update modified := modified
  update dirty := dirty + 1
event rh
  guard dirty >= 1
  update modified := modified + 1
  update dirty := dirty
event put
  guard dirty >= 2
  update forward := forward + pending
  update pending := 0
  update modified := modified + 1
  update dirty := dirty + 1
event flush
  guard forward >= 1
  update forward := forward + pending
  update pending := 0
  update modified := modified + 1
unsafe modified >= 1, pending >= 1
"""



def test_indirect_folds_on_generated_specs_keep_residuals_closed():
    specs = {4: GEN4_SPEC, 19: GEN19_SPEC, 23: GEN23_SPEC, 32: GEN32_SPEC, 39: GEN39_SPEC}
    limits = Limits(max_nodes=1_000)
    for i, text in specs.items():
        model = _spec_model(text)
        verdicts = {}
        for mode in ("direct", "indirect"):
            try:
                rep = verify_protocol(model, mode=mode, passes=2, limits=limits)
            except BudgetExceeded:
                continue
            verdicts[mode] = rep["safe"], rep["witness"]
            if rep["witness"] is not None:
                witness = [parse_expr(rep["witness"])]
                assert eval_call(model, "Main", witness) == (Sym("False"),), (i, mode)
        if i in (4, 19, 39):
            safe, witness = verdicts["direct"]
            assert safe is False and witness is not None, i
        if i == 23:
            assert verdicts["indirect"] == (False, "(flush rm) (I)")
        if len(verdicts) == 2:
            assert verdicts["direct"][0] == verdicts["indirect"][0], i


def test_node_cap_is_exact():
    # one drive of pass 2 makes 2,820 branches; the cap stops it part way,
    # not at the next step
    with pytest.raises(BudgetExceeded) as e:
        verify_protocol(
            _spec_model(GEN23_SPEC), mode="direct", passes=2, limits=Limits(max_nodes=1_000)
        )
    assert len(e.value.graph.nodes) <= 1_000


def test_completion_index_holds_each_completed_drive_node_once(syn):
    # only a drive node is a fold target among the completed nodes
    prog = self_interpreter({"Synapse": syn})
    cfg = parse_entry_config(prog, "Int((Call Main e.d), (Prog Synapse))")
    _, graph, _ = supercompile(prog, cfg, Limits(time_budget_s=240), Trace(), entry_name="IntRes")
    ids = [nid for nids in graph.by_shape.values() for nid in nids]
    assert ids and len(ids) == len(set(ids))
    assert all(graph.node(nid).kind == "drive" for nid in ids)
