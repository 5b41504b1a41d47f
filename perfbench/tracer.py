"""In-memory span tracing of the scpv layers, installed from outside.

``Tracer.install`` replaces each traced function with a wrapper at every name
a module of the library binds it under (``engine`` does ``from .driving import
drive``, so ``scpv.engine.drive`` is the name ``Engine.step`` looks up), and on
the class for methods. Each wrapped call records a span (name, start, end,
parent) into flat arrays; nothing is written until ``write``. ``uninstall``
puts the originals back.
"""

from __future__ import annotations

import gzip
import time
from array import array

# (module, attribute) of every traced function; "Class.method" for methods.
# Names in RESULT_HITS also count the calls whose result is a useful outcome.
TRACED = (
    ("engine", "verify_protocol"),
    ("engine", "supercompile"),
    ("engine", "verify_safety"),
    ("engine", "Engine.step"),
    ("driving", "drive"),
    ("config", "decompose"),
    ("config", "subst_config"),
    ("lang", "print_seq"),
    ("lang", "parse_program"),
    ("relations", "whistle"),
    ("transform", "fold_instance"),
    ("transform", "msg"),
    ("transform", "split_task"),
    ("transform", "build_residual"),
    ("transform", "simplify_program"),
    ("corpus", "generate_model"),
    ("corpus", "self_interpreter"),
    ("encoding", "encode_program"),
    ("interp", "eval_call"),
)
RESULT_HITS = {
    "relations.whistle": lambda r: r.is_act,
    "transform.fold_instance": lambda r: r is not None,
}
# generator methods: a span would end before the caller iterates, so only
# their calls are counted
COUNTED = (("engine", "ProcessGraph.complete_candidates"),)

MARK = "_perfbench_wrapped"


class Tracer:
    def __init__(self):
        self.names: list = []
        # span i occupies spans[4*i : 4*i+4] = name id, start ns, end ns, parent
        self.spans = array("q")
        self.open: list = [-1]
        self.calls: dict = {}
        self.hits: dict = {}
        self._patches: list = []

    # -- installing ------------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, open_, clock = self.spans, self.open, time.perf_counter_ns
        classify = RESULT_HITS.get(name)
        self.hits.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            idx = len(spans) >> 2
            spans.extend((name_id, clock(), 0, open_[-1]))
            open_.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[4 * idx + 2] = clock()
                open_.pop()
            if classify is not None and classify(result):
                self.hits[name] += 1
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn):
        calls = self.calls
        calls[name] = 0

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, lib) -> None:
        """Wrap every traced function of the library namespace ``lib``."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [getattr(lib, m) for m in lib.MODULES]
        for group, make in ((TRACED, self._span_wrapper), (COUNTED, self._count_wrapper)):
            for mod_name, attr in group:
                mod = getattr(lib, mod_name)
                name = f"{mod_name}.{attr.split('.')[-1]}"
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    owner = getattr(mod, cls_name)
                    original = owner.__dict__[meth]
                    sites = [(owner, meth)]
                else:
                    original = getattr(mod, attr)
                    sites = [
                        (m, key)
                        for m in modules
                        for key, value in vars(m).items()
                        if value is original
                    ]
                wrapper = make(name, original)
                setattr(wrapper, MARK, name)
                for owner, key in sites:
                    self._patches.append((owner, key, original))
                    setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches = []

    # -- reading -----------------------------------------------------------------

    def mark(self) -> int:
        """Position to pass to ``summary`` for the spans recorded after now."""
        return len(self.spans) >> 2

    def summary(self, start: int = 0) -> dict:
        """Per span name over the spans from ``start`` on: calls, inclusive
        seconds of the outermost calls, and self seconds (duration minus the
        part that child spans cover)."""
        s = self.spans
        end = len(s) >> 2
        child = {}
        for i in range(start, end):
            parent = s[4 * i + 3]
            if parent >= start:
                child[parent] = child.get(parent, 0) + s[4 * i + 2] - s[4 * i + 1]
        out = {}
        for i in range(start, end):
            nid, t0, t1, parent = s[4 * i : 4 * i + 4]
            rec = out.setdefault(self.names[nid], [0, 0, 0])
            rec[0] += 1
            if parent < start or self.names[s[4 * parent]] != self.names[nid]:
                rec[1] += t1 - t0  # recursive calls are inside this one
            rec[2] += t1 - t0 - child.get(i, 0)
        return {
            name: {"calls": c, "s": incl / 1e9, "self_s": own / 1e9}
            for name, (c, incl, own) in out.items()
        }

    def write(self, path) -> None:
        """Write every span as a gzipped tab-separated line: index, name,
        start and end in ns, index of the parent span (-1 for none)."""
        s = self.spans
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as f:
            f.write("span\tname\tstart_ns\tend_ns\tparent\n")
            for i in range(len(s) >> 2):
                nid, t0, t1, parent = s[4 * i : 4 * i + 4]
                f.write(f"{i}\t{self.names[nid]}\t{t0}\t{t1}\t{parent}\n")


def installed(lib) -> list:
    """Names of the library that are still bound to a tracing wrapper."""
    found = []
    for m in lib.MODULES:
        mod = getattr(lib, m)
        for key, value in vars(mod).items():
            if hasattr(value, MARK):
                found.append(f"{m}.{key}")
            if isinstance(value, type):
                found += [
                    f"{m}.{key}.{k}" for k, v in vars(value).items() if hasattr(v, MARK)
                ]
    return found
