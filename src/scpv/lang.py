"""Core syntax for the object language: flat expression sequences, programs,
parsing, printing and validation, plus the tree operations the rest of the
package builds on: the item rebuilders ``map_items`` (leaves; every
substitution, renaming and bullet fill is one leaf function over it) and
``map_calls`` (calls), and the instance matchers ``inst_seq`` and
``inst_args``.

Expressions are kept in concatenation-normal form throughout: an expression
is a tuple of items, `[]` is the empty tuple, `:` and `++` both concatenate.
This makes the associativity/unit equalities of the append constructor hold
by construction.

Every item carries ``flags``, a bitmask of the kinds of item found at or
below it (``HAS_CALL``, ``HAS_BULLET``, ``HAS_PARAM``, ``HAS_VAR``) plus a
parameter signature: parameter number ``n`` sets bit ``4 + n % 26``, so a
subtree whose flags miss every bit of a substitution's parameters holds none
of them, and flags stay small ints. ``Sym``, ``Var`` and ``Bullet`` have
constant flags; ``Paren`` and ``Call`` derive theirs from their children
once, at construction, so that walkers can return a subtree unchanged
without entering it. Items also carry ``size``, the number of items at or
below them: 1 for a leaf, cached at construction by ``Paren`` and ``Call``.
The embedding prunes by it.

The leaves ``Sym``, ``Var``, ``Param`` and ``Bullet`` are interned: their
constructor returns the one object with the given fields (copying and
unpickling go through it too), so leaf equality is identity and ``==`` and
``hash`` on a leaf run in C. ``Paren`` and ``Call`` compare structurally and
compute their hash once, on first use, into a slot. Neither ``flags``,
``size`` nor the cached hash takes part in ``==`` or printing. Invariant:
items are built only through their constructors, never with
``object.__new__``, and no field is ever assigned afterwards (assignment
raises), because that would leave ``flags``, ``size`` or the cached hash
stale and break interning.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from operator import attrgetter, is_
from typing import Iterable, Optional, Union


class LangError(Exception):
    """Syntax or validation error, with source position when available."""

    def __init__(self, msg: str, line: int = 0, col: int = 0):
        self.msg = msg
        self.line = line
        self.col = col
        where = f" at {line}:{col}" if line else ""
        super().__init__(f"{msg}{where}")


# ---------------------------------------------------------------------------
# Items

HAS_CALL = 1
HAS_BULLET = 2
HAS_PARAM = 4
HAS_VAR = 8


_set = object.__setattr__


def _frozen(self, name, *value):
    raise FrozenInstanceError(f"cannot assign to field {name!r} of {type(self).__name__}")


class Record:
    """A frozen record with slots, the fields being ``__slots__``: ``==``,
    ``hash``, ``repr``, copying and pickling behave as for a frozen
    dataclass with those fields. A subclass's ``__init__`` stores each field
    through the setters that ``slot_setters`` fetches once, since assignment
    raises."""

    __slots__ = ()
    __setattr__ = __delattr__ = _frozen

    def __init_subclass__(cls):
        cls._fields = attrgetter(*cls.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields(self) == other._fields(other)

    def __hash__(self):
        return hash(self._fields(self))

    def __reduce__(self):
        return type(self), self._fields(self)

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


def slot_setters(cls) -> tuple:
    """The ``__set__`` of each of ``cls.__slots__``, in order."""
    return tuple(cls.__dict__[name].__set__ for name in cls.__slots__)


class _Leaf:
    """An interned item: the constructor returns the one object of its class
    with the given fields, so ``==`` and ``hash`` are object identity."""

    __slots__ = ()
    __setattr__ = __delattr__ = _frozen
    size = 1

    def __init_subclass__(cls):
        cls._table = {}  # fields -> the one leaf with them

    @classmethod
    def _interned(cls, *fields):
        it = cls._table.get(fields)
        if it is None:
            it = cls._table[fields] = object.__new__(cls)
            for name, value in zip(cls.__slots__, fields):
                _set(it, name, value)
        return it

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


class Sym(_Leaf):
    """A symbol: an identifier (``True``) or a character literal (``'a'``)."""

    __slots__ = ("name", "char")
    flags = 0

    def __new__(cls, name: str, char: bool = False):
        return cls._interned(name, char)

    def __repr__(self):
        return f"'{self.name}'" if self.char else self.name


class Var(_Leaf):
    """A program variable, kind 's' (one symbol) or 'e' (any expression)."""

    __slots__ = ("kind", "name")
    flags = HAS_VAR

    def __new__(cls, kind: str, name: str):
        return cls._interned(kind, name)

    def __repr__(self):
        return f"{self.kind}.{self.name}"


class Param(_Leaf):
    """A configuration parameter, globally numbered within one run."""

    __slots__ = ("kind", "num", "flags")

    def __new__(cls, kind: str, num: int):
        it = cls._table.get((kind, num))
        if it is None:
            it = cls._interned(kind, num)
            _set(it, "flags", HAS_PARAM | 16 << (num % 26))
        return it

    def __reduce__(self):
        return Param, (self.kind, self.num)

    def __repr__(self):
        return f"{self.kind}.{self.num}"


class Paren:
    """The unnamed tree constructor ``( ... )``."""

    __slots__ = ("items", "flags", "size", "_hash")
    __setattr__ = __delattr__ = _frozen

    def __init__(self, items: "Seq"):
        _paren_items(self, items)
        f = 0
        n = 1
        for it in items:
            f |= it.flags
            n += it.size
        _paren_flags(self, f)
        _paren_size(self, n)
        _paren_hash(self, None)

    def __eq__(self, other):
        if type(other) is not Paren:
            return NotImplemented
        return self.items == other.items

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(self.items)
            _paren_hash(self, h)
        return h

    def __reduce__(self):
        # a copy hashes afresh: leaf hashes are identities, valid in one process
        return Paren, (self.items,)

    def __repr__(self):
        return print_seq((self,))


class Call:
    """Function application; every argument is a sequence."""

    __slots__ = ("fname", "args", "flags", "size", "_hash")
    __setattr__ = __delattr__ = _frozen

    def __init__(self, fname: str, args: tuple):
        _call_fname(self, fname)
        _call_args(self, args)
        f = HAS_CALL
        n = 1
        for a in args:
            for it in a:
                f |= it.flags
                n += it.size
        _call_flags(self, f)
        _call_size(self, n)
        _call_hash(self, None)

    def __eq__(self, other):
        if type(other) is not Call:
            return NotImplemented
        return self.fname == other.fname and self.args == other.args

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.fname, self.args))
            _call_hash(self, h)
        return h

    def __reduce__(self):
        return Call, (self.fname, self.args)

    def __repr__(self):
        return print_seq((self,))


# the slots' own setters, fetched once: assignment raises, so constructors
# store their fields through these
_paren_items, _paren_flags, _paren_size, _paren_hash = slot_setters(Paren)
_call_fname, _call_args, _call_flags, _call_size, _call_hash = slot_setters(Call)


class Bullet(_Leaf):
    """Placeholder threading a stack result through a configuration."""

    __slots__ = ()
    flags = HAS_BULLET

    def __new__(cls):
        return cls._interned()

    def __repr__(self):
        return "•"


Item = Union[Sym, Var, Param, Paren, Call, Bullet]
Seq = tuple
NIL: Seq = ()
BULLET = Bullet()


# ---------------------------------------------------------------------------
# Programs


@dataclass(frozen=True)
class Rule:
    lhs: tuple  # one pattern Seq per parameter
    rhs: Seq


@dataclass(frozen=True)
class FuncDef:
    name: str
    arity: int
    rules: tuple


class Program:
    """Ordered collection of function definitions.

    ``rule_tables`` holds driving's per-function rule tables, built on a
    function's first drive (``driving.rule_table``); it takes no part in
    equality.
    """

    def __init__(self, defs: Iterable[FuncDef] = ()):
        self.defs: dict[str, FuncDef] = {}
        self.rule_tables: dict[str, tuple] = {}
        for d in defs:
            if d.name in self.defs:
                raise LangError(f"duplicate definition of {d.name}")
            self.defs[d.name] = d

    def __eq__(self, other):
        return isinstance(other, Program) and list(self.defs.items()) == list(
            other.defs.items()
        )

    def __repr__(self):
        return f"<Program {', '.join(self.defs)}>"

    def arity(self, fname: str) -> int:
        return self.defs[fname].arity

    def rules(self, fname: str) -> tuple:
        return self.defs[fname].rules

    def extended(self, d: FuncDef) -> "Program":
        p = Program(self.defs.values())
        if d.name in p.defs:
            raise LangError(f"duplicate definition of {d.name}")
        p.defs[d.name] = d
        return p


# ---------------------------------------------------------------------------
# Structure queries


def iter_items(seq: Seq):
    """All items of seq, recursing through parens and call arguments."""
    for it in seq:
        yield it
        if isinstance(it, Paren):
            yield from iter_items(it.items)
        elif isinstance(it, Call):
            for a in it.args:
                yield from iter_items(a)


def vars_of(seq: Seq) -> list:
    """The variables and parameters of seq, in order of first occurrence."""
    found = (it for it in iter_items(seq) if isinstance(it, (Var, Param)))
    return list(dict.fromkeys(found))


def seq_flags(seq: Seq) -> int:
    """The union of the flags of the items of seq, at any depth."""
    f = 0
    for it in seq:
        f |= it.flags
    return f


def contains_call(seq: Seq) -> bool:
    return bool(seq_flags(seq) & HAS_CALL)


def is_ground(seq: Seq) -> bool:
    """True iff seq lies in the data set: symbols and parens only."""
    return not seq_flags(seq)


def is_sym_kind(it) -> bool:
    """A symbol, or an s-variable or s-parameter: an item standing for one
    symbol."""
    t = type(it)
    return t is Sym or ((t is Var or t is Param) and it.kind == "s")


def map_items(seq: Seq, mask: int, leaf) -> Seq:
    """seq rebuilt with every leaf item whose flags meet ``mask`` replaced by
    the sequence ``leaf(item)``; parens and calls whose flags miss ``mask``
    are kept without being entered. What comes out unchanged is the same
    object, with its cached hash: a paren or call none of whose children
    changed, and seq itself when none of its items did."""
    out = []
    same = True
    for it in seq:
        if not it.flags & mask:
            out.append(it)
        elif type(it) is Paren:
            items = map_items(it.items, mask, leaf)
            if items is it.items:
                out.append(it)
            else:
                out.append(Paren(items))
                same = False
        elif type(it) is Call:
            args = tuple([map_items(a, mask, leaf) for a in it.args])
            if all(map(is_, args, it.args)):
                out.append(it)
            else:
                out.append(Call(it.fname, args))
                same = False
        else:
            new = leaf(it)
            out.extend(new)
            if len(new) != 1 or new[0] is not it:
                same = False
    return seq if same else tuple(out)


def map_calls(seq: Seq, call) -> Seq:
    """seq rebuilt bottom-up: each call's arguments are rebuilt first, then
    the call is replaced by the sequence ``call(c)``; parens and calls that
    hold no call are kept without being entered."""
    out = []
    for it in seq:
        if not it.flags & HAS_CALL:
            out.append(it)
        elif type(it) is Paren:
            out.append(Paren(map_calls(it.items, call)))
        else:
            out.extend(call(Call(it.fname, tuple(map_calls(a, call) for a in it.args))))
    return tuple(out)


def bullet_count(seq: Seq) -> int:
    n = 0
    for it in seq:
        if it.flags & HAS_BULLET:
            if isinstance(it, Bullet):
                n += 1
            elif isinstance(it, Paren):
                n += bullet_count(it.items)
            else:
                n += sum(bullet_count(a) for a in it.args)
    return n


# ---------------------------------------------------------------------------
# Instance matching

MATCH_BUDGET = 200_000


class Budget:
    """Steps left to a search; ``spend`` turns false when they run out."""

    def __init__(self, n):
        self.n = n

    def spend(self):
        self.n -= 1
        return self.n > 0


def inst_seq(pat: Seq, subj: Seq, th: dict, budget: Budget) -> Optional[dict]:
    """A substitution extending ``th`` with pat instantiated equal to subj,
    or None; also None once ``budget`` runs out, one step per pattern item
    and one at each sequence end.

    Parameters and variables are both holes. That is exact for both callers:
    a fold pattern is a configuration, which holds parameters and never a
    variable, and a residual rule pattern holds variables and never a
    parameter. An s-hole takes one symbol-kind item (``is_sym_kind``); an
    e-hole takes the shortest prefix that lets the rest match, and the first
    solution inside a paren or a call is kept without backtracking into it.
    An e-hole whose rest at this level holds no e-hole matches one item per
    pattern item, so it can take only one prefix, which is bound directly.
    Bindings go into ``th`` in place, so callers pass a dict they own; each
    e-hole alternative starts from a copy.
    """
    i = j = 0
    n, m = len(pat), len(subj)
    while budget.spend():
        if i == n:
            return th if j == m else None
        p = pat[i]
        tp = type(p)
        if not p.flags & (HAS_PARAM | HAS_VAR):
            # a pattern item without holes holds no choice point: equality decides it
            if j == m or p != subj[j]:
                return None
        elif (tp is Param or tp is Var) and p.kind == "e":
            v = th.get(p)
            if v is None:
                rest = pat[i + 1 :]
                if not any(type(q) in (Param, Var) and q.kind == "e" for q in rest):
                    # every item of rest takes one subject item
                    k = m - len(rest)
                    if k < j:
                        return None
                    th[p] = subj[j:k]
                    i += 1
                    j = k
                    continue
                for k in range(j, m + 1):
                    th2 = dict(th)
                    th2[p] = subj[j:k]
                    got = inst_seq(rest, subj[k:], th2, budget)
                    if got is not None:
                        return got
                return None
            if subj[j : j + len(v)] != v:
                return None
            i += 1
            j += len(v)
            continue
        elif j == m:
            return None
        else:
            d = subj[j]
            if tp is Paren:
                if type(d) is not Paren:
                    return None
                th = inst_seq(p.items, d.items, th, budget)
                if th is None:
                    return None
            elif tp is Call:
                if not (type(d) is Call and d.fname == p.fname and len(d.args) == len(p.args)):
                    return None
                for pa, da in zip(p.args, d.args):
                    th = inst_seq(pa, da, th, budget)
                    if th is None:
                        return None
            else:  # an s-hole
                if not is_sym_kind(d):
                    return None
                v = th.get(p)
                if v is None:
                    th[p] = (d,)
                elif v != (d,):
                    return None
        i += 1
        j += 1
    return None


def inst_args(pats, subjs) -> Optional[dict]:
    """``inst_seq`` over the pairs of two equally long lists of sequences in
    turn, under one budget: a substitution taking every pattern to its
    subject, or None."""
    budget = Budget(MATCH_BUDGET)
    th: Optional[dict] = {}
    for pat, subj in zip(pats, subjs):
        th = inst_seq(pat, subj, th, budget)
        if th is None:
            return None
    return th


# ---------------------------------------------------------------------------
# Lexer

_PUNCT = ("=>", "++", "[]", "{", "}", "(", ")", ",", ";", ":")


def _lex(text: str):
    toks = []
    i, line, col = 0, 1, 1
    n = len(text)

    def word_at(j):
        k = j
        while k < n and (text[k].isalnum() or text[k] == "_"):
            k += 1
        return text[j:k], k

    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c.isspace():
            i += 1
            col += 1
            continue
        if text.startswith("--", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c == "'":
            if i + 2 < n and text[i + 2] == "'":
                toks.append(("CHAR", text[i + 1], line, col))
                i += 3
                col += 3
                continue
            raise LangError("unterminated character literal", line, col)
        if c.isalnum() or c == "_":
            w, j = word_at(i)
            if w in ("s", "e") and j < n and text[j] == ".":
                name, k = word_at(j + 1)
                if name:
                    toks.append(("VAR", (w, name), line, col))
                    col += k - i
                    i = k
                    continue
            if j < n and text[j] == "(":
                toks.append(("CALLNAME", w, line, col))
            else:
                toks.append(("IDENT", w, line, col))
            col += j - i
            i = j
            continue
        for p in _PUNCT:
            if text.startswith(p, i):
                toks.append((p, p, line, col))
                i += len(p)
                col += len(p)
                break
        else:
            raise LangError(f"unexpected character {c!r}", line, col)
    toks.append(("EOF", None, line, col))
    return toks


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, text: str):
        self.toks = _lex(text)
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind):
        t = self.next()
        if t[0] != kind:
            raise LangError(f"expected {kind!r}, found {t[1]!r}", t[2], t[3])
        return t

    def parse_program(self) -> Program:
        defs = []
        while self.peek()[0] != "EOF":
            defs.append(self.parse_def())
        return Program(defs)

    def parse_def(self) -> FuncDef:
        t = self.next()
        if t[0] not in ("IDENT", "CALLNAME"):
            raise LangError(f"expected function name, found {t[1]!r}", t[2], t[3])
        name = t[1]
        self.expect("{")
        rules = []
        while self.peek()[0] != "}":
            rules.append(self.parse_rule())
        self.expect("}")
        if not rules:
            raise LangError(f"function {name} has no rules", t[2], t[3])
        arity = len(rules[0].lhs)
        for r in rules:
            if len(r.lhs) != arity:
                raise LangError(f"arity mismatch in rules of {name}", t[2], t[3])
        return FuncDef(name, arity, tuple(rules))

    def parse_rule(self) -> Rule:
        pats = [self.parse_seq(stop=(",", "=>"))]
        while self.peek()[0] == ",":
            self.next()
            pats.append(self.parse_seq(stop=(",", "=>")))
        self.expect("=>")
        rhs = self.parse_seq(stop=(";",))
        self.expect(";")
        return Rule(tuple(pats), rhs)

    def parse_seq(self, stop) -> Seq:
        """A sequence of elements; juxtaposition, ':' and '++' all concatenate."""
        out = []
        while True:
            t = self.peek()
            if t[0] in stop or t[0] in ("EOF", ")", "}"):
                break
            if t[0] in (":", "++"):
                self.next()
                continue
            out.extend(self.parse_element())
        return tuple(out)

    def parse_element(self) -> Seq:
        t = self.next()
        kind, val, line, col = t
        if kind == "[]":
            return NIL
        if kind == "CHAR":
            return (Sym(val, char=True),)
        if kind == "IDENT":
            return (Sym(val),)
        if kind == "VAR":
            return (Var(val[0], val[1]),)
        if kind == "(":
            inner = self.parse_seq(stop=(")",))
            self.expect(")")
            return (Paren(inner),)
        if kind == "CALLNAME":
            self.expect("(")
            args = []
            if self.peek()[0] != ")":
                args.append(self.parse_seq(stop=(",", ")")))
                while self.peek()[0] == ",":
                    self.next()
                    args.append(self.parse_seq(stop=(",", ")")))
            self.expect(")")
            return (Call(val, tuple(args)),)
        raise LangError(f"unexpected token {val!r}", line, col)


def parse_expr(text: str) -> Seq:
    p = _Parser(text)
    seq = p.parse_seq(stop=("EOF",))
    p.expect("EOF")
    return seq


def parse_program(text: str, validate: bool = True) -> Program:
    prog = _Parser(text).parse_program()
    if validate:
        errors = [d for d in validate_program(prog) if d.startswith("error")]
        if errors:
            raise LangError("; ".join(e.removeprefix("error: ") for e in errors))
    return prog


# ---------------------------------------------------------------------------
# Validation

RESERVED_MARKERS = ("Call", "Var")
RESERVED_CHARS = ("*", "=")


def _check_pattern(seq: Seq, fname: str, out: list):
    n = len(seq)
    for i, it in enumerate(seq):
        if isinstance(it, Call):
            out.append(f"error: function application in a pattern of {fname}")
        elif isinstance(it, (Bullet, Param)):
            out.append(f"error: non-pattern item {it!r} in a pattern of {fname}")
        elif isinstance(it, Var) and it.kind == "e" and i != n - 1:
            out.append(
                f"error: e-variable {it!r} not in tail position in a pattern of {fname}"
            )
        elif isinstance(it, Paren):
            _check_pattern(it.items, fname, out)


def call_errors(seq: Seq, prog: Program, where: str) -> list:
    """An ``error:`` diagnostic for each call in seq to a function that prog
    does not define, or with the wrong number of arguments."""
    out = []
    for it in iter_items(seq):
        if isinstance(it, Call):
            if it.fname not in prog.defs:
                out.append(f"error: call to undefined function {it.fname} in {where}")
            elif len(it.args) != prog.defs[it.fname].arity:
                out.append(f"error: call to {it.fname} with wrong arity in {where}")
    return out


def validate_program(prog: Program) -> list:
    """Run the arity, rhs-variable and pattern checks; return diagnostics.

    Messages are prefixed ``error:`` or ``warning:``.
    """
    out: list[str] = []
    for d in prog.defs.values():
        for r in d.rules:
            if len(r.lhs) != d.arity:
                out.append(f"error: arity mismatch in a rule of {d.name}")
            for pat in r.lhs:
                _check_pattern(pat, d.name, out)
            lhs_vars = set()
            for pat in r.lhs:
                lhs_vars.update(v for v in vars_of(pat) if isinstance(v, Var))
            for v in vars_of(r.rhs):
                if isinstance(v, Var) and v not in lhs_vars:
                    out.append(f"error: free variable {v!r} in a rule of {d.name}")
            out.extend(call_errors(r.rhs, prog, d.name))
            for pat in r.lhs:
                for it in iter_items(pat):
                    if isinstance(it, Sym) and not it.char and it.name in RESERVED_MARKERS:
                        out.append(
                            f"warning: reserved marker symbol {it.name} used in {d.name}"
                        )
                    if isinstance(it, Sym) and it.char and it.name in RESERVED_CHARS:
                        out.append(
                            f"warning: reserved marker character {it.name!r} used in {d.name}"
                        )
    return out


# ---------------------------------------------------------------------------
# Printing


def _seq_valued(it: Item) -> bool:
    return isinstance(it, Call) or (isinstance(it, (Var, Param)) and it.kind == "e")


def print_seq(seq: Seq) -> str:
    """Canonical text: terms juxtaposed, `++` at sequence-valued boundaries
    (calls anywhere, e-variables except as the final tail). Iterative, with
    an explicit stack of pieces (text, sequences and composite items), so
    that any depth the parser accepts prints."""
    out = []
    todo = [seq]
    push = todo.append
    while todo:
        x = todo.pop()
        t = type(x)
        if t is str:
            out.append(x)
        elif t is Paren:
            push(")")
            push(x.items)
            push("(")
        elif t is Call:
            push(")")
            for k in range(len(x.args) - 1, -1, -1):
                push(x.args[k])
                if k:
                    push(", ")
            push(f"{x.fname}(")
        elif not x:
            out.append("[]")
        else:  # a sequence: its items, last first, leaves printed at once
            last = len(x) - 1
            for i in range(last, -1, -1):
                it = x[i]
                push(it if type(it) is Paren or type(it) is Call else repr(it))
                if i:
                    boundary = _seq_valued(x[i - 1]) or (
                        _seq_valued(it) and not (i == last and not isinstance(it, Call))
                    )
                    push(" ++ " if boundary else " ")
    return "".join(out)


def print_program(prog: Program) -> str:
    lines = []
    for d in prog.defs.values():
        lines.append(f"{d.name} {{")
        for r in d.rules:
            pats = ", ".join(print_seq(p) for p in r.lhs)
            lines.append(f"  {pats} => {print_seq(r.rhs)};")
        lines.append("}")
        lines.append("")
    return "\n".join(lines)
