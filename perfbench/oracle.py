"""Known answers from the reference interpreter, never from the supercompiler.

Every model of the benchmark has the Main/Loop/Event/Test shape: ``Main``
takes ``(events) (I ... I)``, ``Loop`` applies ``Event`` to the stream left to
right and ``Test`` answers ``True`` or ``False`` at its end. A stream whose
prefix is undefined (an event whose guard fails) is undefined whatever
follows, so the enumeration extends only defined prefixes; every other stream
up to ``MAX_EVENTS`` events is run, for ``0 .. MAX_EXTRA`` extra processors.
"""

from __future__ import annotations

MAX_EVENTS = 4
MAX_EXTRA = 2


def event_alphabet(lib, model) -> list:
    """The event symbols the model's ``Event`` rules accept, in rule order."""
    Sym = lib.lang.Sym
    out = []
    for rule in model.rules("Event"):
        head = rule.lhs[0][0]
        if isinstance(head, Sym) and head not in out:
            out.append(head)
    return out


def model_answers(lib, model) -> dict:
    """Map each input with a defined answer to that answer."""
    Paren, Sym = lib.lang.Paren, lib.lang.Sym
    eval_call, UNDEFINED = lib.interp.eval_call, lib.interp.UNDEFINED
    alphabet = event_alphabet(lib, model)
    answers = {}
    for extra in range(MAX_EXTRA + 1):
        procs = Paren((Sym("I"),) * extra)
        frontier = [()]
        for length in range(MAX_EVENTS + 1):
            grown = []
            for stream in frontier:
                arg = (Paren(stream), procs)
                out = eval_call(model, "Main", [arg])
                if out is UNDEFINED:
                    continue
                answers[arg] = out
                if length < MAX_EVENTS:
                    grown += [stream + (e,) for e in alphabet]
            frontier = grown
    return answers


def check_call(lib, answers: dict, mode: str, verdict_safe: bool, residual, entry: str) -> dict:
    """Judge one verdict and its residual against the model's answers.

    A ``False`` answer makes a safe verdict wrong; an unsafe verdict with no
    ``False`` answer is unconfirmed. The residual must give every defined
    answer: direct residuals take the raw input, indirect ones its encoding.
    """
    eval_call = lib.interp.eval_call
    encode = lib.encoding.encode_expr
    false = (lib.lang.Sym("False"),)
    reached = any(out == false for out in answers.values())
    mismatches = 0
    for arg, out in answers.items():
        if mode == "indirect":
            mismatches += eval_call(residual, entry, [encode(arg)]) != encode(out)
        else:
            mismatches += eval_call(residual, entry, [arg]) != out
    return {
        "wrong_verdicts": int(verdict_safe and reached),
        "unconfirmed_unsafe": int(not verdict_safe and not reached),
        "residual_mismatches": mismatches,
        "inputs": len(answers),
    }
