"""Command-line front end: run, encode, supercompile, verify."""

from __future__ import annotations

import argparse
import json
import sys

from .corpus import generate_model, parse_protocol_spec
from .encoding import decode_program, encode_program
from .engine import (
    BudgetExceeded,
    Limits,
    PropertyViolation,
    Trace,
    make_entry_config,
    parse_entry_config,
    supercompile,
    verify_protocol,
)
from .interp import UNDEFINED, FuelExhausted, eval_call
from .lang import LangError, is_ground, parse_expr, parse_program, print_program, print_seq

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNDEFINED = 2
EXIT_UNSAFE = 3
EXIT_BUDGET = 4


def _load_program(path: str):
    with open(path, "r", encoding="utf-8") as f:
        try:
            text = f.read()
        except UnicodeDecodeError as e:
            raise LangError(f"{path} is not UTF-8 text: {e}") from None
    if path.endswith(".spec"):
        return generate_model(parse_protocol_spec(text))
    return parse_program(text)


def _limits(args) -> Limits:
    return Limits(
        max_nodes=args.max_nodes,
        max_depth=args.max_depth,
        time_budget_s=args.time_budget_s,
    )


def _write_trace(path, trace) -> None:
    """Write the trace as JSON lines, when a path and a trace are given."""
    if path and trace:
        with open(path, "w", encoding="utf-8") as f:
            f.write(trace.to_jsonl() + "\n")


def _add_limit_flags(p):
    d = Limits()
    p.add_argument("--max-nodes", type=int, default=d.max_nodes)
    p.add_argument("--max-depth", type=int, default=d.max_depth)
    p.add_argument("--time-budget-s", type=float, default=d.time_budget_s)
    p.add_argument("--trace", default=None, help="write the event trace (JSON lines)")


def cmd_run(args) -> int:
    prog = _load_program(args.program)
    if args.function not in prog.defs:
        print(f"error: no function {args.function}", file=sys.stderr)
        return EXIT_ERROR
    arity = prog.arity(args.function)
    argv = [parse_expr(a) for a in [args.data] + args.more]
    if len(argv) != arity:
        print(f"error: {args.function} expects {arity} arguments", file=sys.stderr)
        return EXIT_ERROR
    if not all(is_ground(a) for a in argv):
        print("error: run takes ground data: symbols and parens", file=sys.stderr)
        return EXIT_ERROR
    try:
        out = eval_call(prog, args.function, argv)
    except FuelExhausted as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return EXIT_BUDGET
    if out is UNDEFINED:
        print("undefined")
        return EXIT_UNDEFINED
    print(print_seq(out))
    return EXIT_OK


def cmd_encode(args) -> int:
    prog = _load_program(args.program)
    data = encode_program(prog)
    text = print_seq(data)
    if args.check and decode_program(data) != prog:
        print("error: the encoded program does not decode to itself", file=sys.stderr)
        return EXIT_ERROR
    if args.output:
        with open(args.output, "w", encoding="utf-8") as f:
            f.write(text + "\n")
    else:
        print(text)
    return EXIT_OK


def cmd_supercompile(args) -> int:
    prog = _load_program(args.program)
    if args.entry:
        entry = parse_entry_config(prog, args.entry)
        entry_name = entry.stack[0].fname + "Res" if entry.stack else "Res"
    else:
        entry = make_entry_config(prog, args.function)
        entry_name = args.function + "Res"
    trace = Trace()
    try:
        residual, graph, trace = supercompile(
            prog, entry, _limits(args), trace, entry_name=entry_name
        )
    except BudgetExceeded as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        _write_trace(args.trace, e.trace)
        return EXIT_BUDGET
    text = print_program(residual)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        print(text)
    _write_trace(args.trace, trace)
    return EXIT_OK


def cmd_verify(args) -> int:
    prog = _load_program(args.model)
    try:
        report = verify_protocol(
            prog,
            mode=args.mode,
            passes=args.passes,
            limits=_limits(args),
            entry=args.entry,
            unsafe_symbol=args.unsafe_symbol,
            instrument=args.instrument,
            model_name=args.model_name,
            need_residual=args.residual is not None,
        )
    except BudgetExceeded as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        _write_trace(args.trace, e.trace)
        return EXIT_BUDGET
    lines = {
        "mode": report["mode"],
        "safe": report["safe"],
        "passes_used": report["passes_used"],
        "passes": report["passes"],
        "witness": report["witness"],
        "violations": report["violations"],
        "warnings": report["warnings"],
        "events": report["trace"].event_count,
    }
    print(json.dumps(lines, indent=2, default=str))
    _write_trace(args.trace, report["trace"])
    if args.residual is not None:
        if report["residual"] is None:
            # the budget ran out after the witness, before the pass completed
            print("note: no residual written: the pass did not complete", file=sys.stderr)
            return EXIT_UNSAFE
        with open(args.residual, "w", encoding="utf-8") as f:
            f.write(print_program(report["residual"]))
    return EXIT_OK if report["safe"] else EXIT_UNSAFE


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="scpv",
        description="Supercompilation-based safety verification for protocol models.",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("run", help="evaluate a function on ground data")
    p.add_argument("program")
    p.add_argument("function")
    p.add_argument("data")
    p.add_argument("more", nargs="*")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("encode", help="emit the encoded form of a program")
    p.add_argument("program")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--check", action="store_true")
    p.set_defaults(fn=cmd_encode)

    p = sub.add_parser("supercompile", help="specialize a parameterized entry")
    p.add_argument("program")
    p.add_argument("--function", default="Main")
    p.add_argument("--entry", default=None, help="entry expression, free vars become parameters")
    p.add_argument("-o", "--output", default=None)
    _add_limit_flags(p)
    p.set_defaults(fn=cmd_supercompile)

    p = sub.add_parser("verify", help="verify a protocol model")
    p.add_argument("model")
    p.add_argument("--mode", choices=("direct", "indirect"), default="direct")
    p.add_argument("--passes", type=int, default=1, choices=(1, 2))
    p.add_argument("--entry", default="Main")
    p.add_argument("--model-name", default="Model")
    p.add_argument("--unsafe-symbol", default="False")
    p.add_argument("--instrument", action="store_true")
    p.add_argument("--residual", default=None, help="write the final residual program")
    _add_limit_flags(p)
    p.set_defaults(fn=cmd_verify)

    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on a usage error, the code of an undefined
        # result; --help exits 0
        return EXIT_ERROR if e.code else EXIT_OK
    try:
        return args.fn(args)
    except (LangError, PropertyViolation, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
