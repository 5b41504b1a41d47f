"""The models shipped in ``protocols/``, loaded the way the command line
loads them."""

import os

from scpv.cli import _load_program
from scpv.corpus import parse_protocol_spec, self_interpreter

PROTOCOLS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "protocols")


def path(name: str) -> str:
    return os.path.join(PROTOCOLS, name)


def load(name: str):
    """The program of ``protocols/<name>``: parsed, or generated from a spec."""
    return _load_program(path(name))


def spec(name: str):
    """The parsed spec in ``protocols/<name>``."""
    with open(path(name), encoding="utf-8") as f:
        return parse_protocol_spec(f.read())


def shipped_programs():
    """The shipped models, after the self-interpreter over Synapse."""
    names = ("synapse.l", "synapse_unsafe_mutant.l", "msi.spec", "mesi.spec", "synapse.spec")
    progs = [load(name) for name in names]
    return [self_interpreter({"Synapse": progs[0]})] + progs


def shipped_rules():
    """Every rule of ``shipped_programs()``, as (program, function, index)."""
    return [
        (prog, fname, i)
        for prog in shipped_programs()
        for fname in prog.defs
        for i in range(len(prog.rules(fname)))
    ]
