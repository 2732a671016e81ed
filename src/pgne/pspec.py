"""Textual exchange format for membrane systems.

A system file is a token stream with four sections:

    system 'name                      # optional
    alphabet:                         # optional, validated when present
      cyc1 mcand ...
    membranes:
      [ '0 ^0 { mplier^4 }
        [ '1 ^0 { cyc1 mcand^3 } ]
        [ '2 ^0 ] ]
    rules:
      rule 'RS01 at '1 ^0 -> ^0 in( mcand -> mcand1 )
      rule 'RS31 at '1 ^+ -> ^- in( cyc4 -> cyc6 ) out( none -> waste )
      rule 'RS05 at '0 ^0 -> ^0 child( '1 ^0 -> ^+ : round0 -> none )
    priority:
      'RS07 > 'RS08

`#` comments run to end of line.  Symbol atoms reuse the multiset
notation `base{p1,p2}^count`; `none` denotes the empty multiset and
stands alone, without a count, parameters or other symbols.
Serialization is canonical: declaration order for rules, tree order for
membranes, sorted symbol text inside every multiset, sorted priority
pairs, two-space indent per tree depth.  parse(serialize(s)) is
structurally equal to s: the serializer refuses a symbol the lexer would
read back differently (base `none`, or a parameter that is not an int or a
non-numeric identifier).  Parse errors give the line and column of the
offending token where there is one.

The lexer is one `findall` pass that returns the token texts as plain
strings.  A memo local to the parse reads each distinct text, so each
distinct symbol, once, into a plain tuple shared by all its occurrences.
Token offsets are not kept; an error finds them with one more scan.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from .engine import (MINUS, NEUTRAL, PLUS, ChildPattern, MembraneNode,
                     PSystem, RuleSpec)
from .symbols import Multiset, Sym, sym

_ID = r"[A-Za-z0-9_@.]+"
_IDENT = re.compile(_ID)
_CHARGE_TEXT = {NEUTRAL: "^0", PLUS: "^+", MINUS: "^-"}
_CHARGE_VAL = {"0": NEUTRAL, "+": PLUS, "-": MINUS}
_SECTIONS = ("alphabet", "membranes", "rules", "priority")


class PSpecError(Exception):
    """Malformed system text; carries the offending position."""

    def __init__(self, message: str, line: int = 0, col: int = 0) -> None:
        where = f" (line {line}, col {col})" if line else ""
        super().__init__(message + where)
        self.line = line
        self.col = col


# ============================================================
# Lexer
# ============================================================


# A token is a plain tuple (kind, text, value, count), shared by every
# occurrence of its text.  kind: word label charge symbol punct eof; value:
# the Sym of a word or symbol, the charge of a charge; a label's text drops
# the quote.
Tok = Tuple[str, str, object, int]


def _error(text: str, msg: str, pos: int) -> PSpecError:
    """PSpecError at 1-based line and column of offset pos in text."""
    line = text.count("\n", 0, pos) + 1
    return PSpecError(msg, line, pos - text.rfind("\n", 0, pos))


# One token.  Parameter lists run to the next '}', newlines included; an
# empty 'close' means there is none.  Any other character is 'bad'.
_TOKEN = re.compile(r"""
      (?P<punct>->|[\[\](){}>:])
    | (?P<label>'%(id)s)
    | (?P<charge>\^[0+-])
    | (?P<symbol>(?P<atom>%(id)s)
          (?:\{(?P<params>[^}]*)(?P<close>\}?))?
          (?:\^(?P<count>[0-9]+))?)
    | (?P<bad>.)""" % {"id": _ID}, re.VERBOSE | re.DOTALL)
# The scan: a whitespace run or a comment, each with an empty group, or a
# token (the same grammar, its groups made one) and the whitespace after
# it.  Skipping is never a prefix of the token: at the end of the text
# that would backtrack and hand a space or a '#' to 'bad'.
_SCAN = re.compile(r"[ \t\r\n]+|\#[^\n]*|(%s)[ \t\r\n]*"
                   % re.sub(r"\(\?P<\w+>", "(?:", _TOKEN.pattern),
                   re.VERBOSE | re.DOTALL)
_NUMBER = re.compile(r"-?[0-9]+")
_BAD_CHAR = {"-": "stray '-'; expected '->'",
             "'": "empty label after quote",
             "^": "bad charge; expected ^0, ^+ or ^-"}


def _starts(text: str) -> List[int]:
    """The offset of each token of text, the end of text last (for eof)."""
    starts = [m.start(1) for m in _SCAN.finditer(text) if m.lastindex]
    starts.append(len(text))
    return starts


def _params(inner: str) -> List[object]:
    """Integer and identifier parameters of the list text inner."""
    params: List[object] = []
    for piece in inner.split(",") if inner.strip() else ():
        piece = piece.strip()
        if not piece:
            raise PSpecError("empty parameter")
        if _NUMBER.fullmatch(piece):
            params.append(int(piece))
        elif _IDENT.fullmatch(piece):
            params.append(piece)
        else:
            raise PSpecError(f"bad parameter {piece!r}")
    return params


def _read(tok: str) -> Tok:
    """The token for text tok; its error carries no position."""
    m = _TOKEN.fullmatch(tok)
    kind = m.lastgroup
    if kind == "punct":
        return kind, tok, None, 1
    if kind == "label":
        return kind, tok[1:], None, 1
    if kind == "charge":
        return kind, tok, _CHARGE_VAL[tok[1]], 1
    if kind == "bad":
        raise PSpecError(_BAD_CHAR.get(tok, f"unexpected character {tok!r}"))
    inner, count = m.group("params", "count")
    if inner is None and count is None:
        # Bare word: keyword or plain symbol, parser decides.
        return "word", tok, sym(tok), 1
    if inner is not None and not m.group("close"):
        raise PSpecError("unterminated parameter list")
    params = _params(inner) if inner else []
    return (kind, tok, sym(m.group("atom"), *params),
            int(count) if count else 1)


def _lex(text: str) -> List[Tok]:
    """The tokens of text, ending in eof."""
    texts = list(filter(None, _SCAN.findall(text)))
    # Each distinct text is read once, in order of first occurrence, so
    # the first bad text raises, at its first occurrence.
    seen: Dict[str, Tok] = {}
    for tok in dict.fromkeys(texts):
        try:
            seen[tok] = _read(tok)
        except PSpecError as e:
            pos = _starts(text)[texts.index(tok)]
            raise _error(text, str(e), pos) from None
    toks = list(map(seen.__getitem__, texts))
    toks.append(("eof", "", None, 1))
    return toks


# ============================================================
# Parser
# ============================================================


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = _lex(text)
        self.pos = 0
        # Index of the first token of each symbol base, in text order.
        self.bases: Dict[str, int] = {}

    def peek(self) -> Tok:
        return self.tokens[self.pos]

    def next(self) -> Tok:
        t = self.tokens[self.pos]
        if t[0] != "eof":
            self.pos += 1
        return t

    def fail(self, msg: str, i: Optional[int] = None) -> PSpecError:
        """Error at token i, by default the next one."""
        pos = _starts(self.text)[self.pos if i is None else i]
        return _error(self.text, msg, pos)

    def take(self, kind: str, text: Optional[str] = None,
             what: str = "") -> Tok:
        """Next token, which must be of kind (and text, when given)."""
        t = self.tokens[self.pos]
        if t[0] != kind or (text is not None and t[1] != text):
            raise self.fail(f"expected {what or repr(text)}, found {t[1]!r}")
        self.pos += 1
        return t

    def at(self, kind: str, *texts: str) -> bool:
        t = self.tokens[self.pos]
        return t[0] == kind and t[1] in texts

    def at_section(self) -> bool:
        return (self.at("word", *_SECTIONS)
                and self.tokens[self.pos + 1][:2] == ("punct", ":"))

    # ---- multisets ----

    def multiset(self) -> Dict[Sym, int]:
        out: Dict[Sym, int] = {}
        if self.at("word", "none"):
            self.pos += 1
            return out
        toks, i, bases = self.tokens, self.pos, self.bases
        t = toks[i]
        while t[0] == "word" or t[0] == "symbol":
            s, count = t[2], t[3]
            if s.base == "none":
                raise self.fail("'none' must stand alone", i)
            if count < 1:
                raise self.fail("zero count is not allowed", i)
            bases.setdefault(s.base, i)
            out[s] = out.get(s, 0) + count
            i += 1
            t = toks[i]
        self.pos = i
        if not out:
            raise self.fail("expected a multiset or 'none'")
        return out

    # ---- membranes ----

    def membrane(self, seen: Dict[str, int]) -> MembraneNode:
        """One bracketed membrane and its subtree, at any depth.

        The open membranes wait on a stack, so nesting costs no recursion.
        """
        open_: List[MembraneNode] = []
        while True:
            self.take("punct", "[")
            me = self.pos
            label = self.take("label", what="membrane label")[1]
            if label in seen:
                raise self.fail(f"duplicate membrane label '{label}", me)
            seen[label] = me
            charge = self.take("charge", what="charge")[2]
            contents: Dict[Sym, int] = {}
            if self.at("punct", "{"):
                self.pos += 1
                contents = self.multiset()
                self.take("punct", "}")
            node = MembraneNode(label, contents=Multiset(contents),
                                charge=charge)
            if open_:
                open_[-1].children.append(node)
            open_.append(node)
            # Close membranes until one opens a next child.
            while not self.at("punct", "["):
                self.take("punct", "]")
                node = open_.pop()
                if not open_:
                    return node

    # ---- rules ----

    def charge_pair(self) -> Tuple[int, int]:
        pre = self.take("charge", what="charge")[2]
        self.take("punct", "->")
        return pre, self.take("charge", what="charge")[2]

    def mset_pair(self) -> Tuple[Dict[Sym, int], Dict[Sym, int]]:
        consume = self.multiset()
        self.take("punct", "->")
        produce = self.multiset()
        self.take("punct", ")")
        return consume, produce

    def rule(self) -> RuleSpec:
        self.take("word", "rule")
        rid = self.take("label", what="rule label")[1]
        self.take("word", "at")
        target = self.take("label", what="target label")[1]
        pre, post = self.charge_pair()
        clauses: Dict[str, object] = {}
        while self.at("word", "in", "out", "child"):
            word = self.next()[1]
            if word in clauses:
                raise self.fail(f"duplicate clause {word!r}", self.pos - 1)
            self.take("punct", "(")
            if word == "child":
                clabel = self.take("label", what="child label")[1]
                cpre, cpost = self.charge_pair()
                self.take("punct", ":")
                clauses["child"] = ChildPattern(clabel, cpre, cpost,
                                                *self.mset_pair())
            else:
                clauses[word] = self.mset_pair()
        cin = clauses.get("in", ({}, {}))
        cout = clauses.get("out", ({}, {}))
        return RuleSpec(id=rid, target=target, pre=pre, post=post,
                        consume_out=cout[0], produce_out=cout[1],
                        consume_in=cin[0], produce_in=cin[1],
                        child=clauses.get("child"))

    # ---- whole file ----

    def system(self) -> PSystem:
        name = ""
        if self.at("word", "system"):
            self.pos += 1
            name = self.take("label", what="system name label")[1]
        seen_sections: List[str] = []
        alphabet: Optional[List[str]] = None
        tree: Optional[MembraneNode] = None
        rules: List[RuleSpec] = []
        rule_ids: Dict[str, int] = {}  # token index of each rule
        priority: List[Tuple[str, str]] = []
        named: List[Tuple[str, int]] = []  # priority's labels, token index
        while self.peek()[0] != "eof":
            if not self.at_section():
                raise self.fail("expected a section header")
            head = self.next()[1]
            self.pos += 1  # the ':' at_section saw
            if head in seen_sections:
                raise self.fail(f"duplicate section {head!r}")
            seen_sections.append(head)
            if head == "alphabet":
                alphabet = []
                while self.peek()[0] == "word" and not self.at_section():
                    alphabet.append(self.next()[1])
            elif head == "membranes":
                tree = self.membrane({})
            elif head == "rules":
                while self.at("word", "rule"):
                    i = self.pos
                    r = self.rule()
                    if r.id in rule_ids:
                        raise self.fail(f"duplicate rule id '{r.id}", i)
                    rule_ids[r.id] = i
                    rules.append(r)
            else:
                while self.peek()[0] == "label":
                    i = self.pos
                    a = self.next()[1]
                    self.take("punct", ">")
                    b = self.take("label", what="rule label")[1]
                    priority.append((a, b))
                    named += ((a, i), (b, i + 2))
        if tree is None:
            raise self.fail("missing membranes section")
        sysd = PSystem(tree, rules, priority, name)
        _check_refs(sysd, rule_ids, named, alphabet, self.bases, self.fail)
        return sysd


def _rule_syms(r: RuleSpec) -> Iterator[Sym]:
    for ms in (r.consume_out, r.produce_out, r.consume_in, r.produce_in):
        yield from ms
    if r.child:
        yield from r.child.consume
        yield from r.child.produce


def _check_refs(sysd: PSystem, rule_ids: Dict[str, int],
                named: List[Tuple[str, int]], alphabet: Optional[List[str]],
                bases: Dict[str, int],
                fail: Callable[[str, int], PSpecError]) -> None:
    parents = {node.label: parent and parent.label
               for node, parent in sysd.walk()}
    for r in sysd.rules:
        i = rule_ids[r.id]
        if r.target not in parents:
            raise fail(f"rule '{r.id} targets unknown membrane "
                       f"'{r.target}", i)
        if r.child and parents.get(r.child.label) != r.target:
            raise fail(f"rule '{r.id}: '{r.child.label} is not a "
                       f"child of '{r.target}", i)
    for label, i in named:
        if label not in rule_ids:
            raise fail(f"priority names unknown rule '{label}", i)
    if alphabet is not None:
        allowed = set(alphabet)
        missing = [base for base in bases if base not in allowed]
        if missing:
            raise fail(f"symbols missing from alphabet: "
                       f"{', '.join(sorted(missing))}", bases[missing[0]])


def parse_system(text: str) -> PSystem:
    """Parse system text; raises PSpecError with position on bad input."""
    return _Parser(text).system()


# ============================================================
# Serializer
# ============================================================


def _check_ident(kind: str, text: str) -> str:
    if not _IDENT.fullmatch(text):
        raise PSpecError(f"{kind} {text!r} is not serializable")
    return text


def _param_ok(p: object) -> bool:
    # An int, or an identifier the lexer will not read back as an int.
    return type(p) is int or (type(p) is str and bool(_IDENT.fullmatch(p))
                              and not _NUMBER.fullmatch(p))


def _mset_text(ms: Dict[Sym, int]) -> str:
    if not ms:
        return "none"
    parts = []
    for s in sorted(ms, key=lambda s: s.text):
        cnt = ms[s]
        parts.append(s.text if cnt == 1 else f"{s.text}^{cnt}")
    return " ".join(parts)


def _membrane_lines(sysd: PSystem, out: List[str]) -> None:
    # Membranes with children whose "]" line is still due, innermost last.
    opened: List[MembraneNode] = []

    def close_until(parent: Optional[MembraneNode]) -> None:
        while opened and opened[-1] is not parent:
            opened.pop()
            out.append("  " * (len(opened) + 1) + "]")

    for node, parent in sysd.walk():
        close_until(parent)
        head = (f"{'  ' * (len(opened) + 1)}[ "
                f"'{_check_ident('label', node.label)} "
                f"{_CHARGE_TEXT[node.charge]}")
        if node.contents.counts:
            head += " { " + _mset_text(node.contents.counts) + " }"
        if node.children:
            out.append(head)
            opened.append(node)
        else:
            out.append(head + " ]")
    close_until(None)


def _rule_text(r: RuleSpec) -> str:
    parts = [f"rule '{_check_ident('rule id', r.id)} "
             f"at '{_check_ident('label', r.target)} "
             f"{_CHARGE_TEXT[r.pre]} -> {_CHARGE_TEXT[r.post]}"]
    if r.consume_in or r.produce_in:
        parts.append(f"in( {_mset_text(r.consume_in)} -> "
                     f"{_mset_text(r.produce_in)} )")
    if r.consume_out or r.produce_out:
        parts.append(f"out( {_mset_text(r.consume_out)} -> "
                     f"{_mset_text(r.produce_out)} )")
    if r.child:
        c = r.child
        parts.append(f"child( '{_check_ident('label', c.label)} "
                     f"{_CHARGE_TEXT[c.pre]} -> {_CHARGE_TEXT[c.post]} : "
                     f"{_mset_text(c.consume)} -> {_mset_text(c.produce)} )")
    return "  " + " ".join(parts)


def serialize_system(sysd: PSystem) -> str:
    """Canonical text for a system; stable under parse/serialize."""
    lines: List[str] = []
    if sysd.name:
        lines.append(f"system '{_check_ident('system name', sysd.name)}")
        lines.append("")
    # Each distinct symbol once, in first-seen order, so a refusal names
    # the same symbol on every run.
    syms: Dict[Sym, object] = {}
    for node, _ in sysd.walk():
        syms.update(node.contents.counts)
    for r in sysd.rules:
        syms.update(dict.fromkeys(_rule_syms(r)))
    for s in syms:
        if (s.base == "none" or not _IDENT.fullmatch(s.base)
                or not all(map(_param_ok, s.params))):
            raise PSpecError(f"symbol {s.text!r} is not serializable")
    if syms:
        lines.append("alphabet:")
        row = sorted({s.base for s in syms})
        for i in range(0, len(row), 8):
            lines.append("  " + " ".join(row[i:i + 8]))
        lines.append("")
    lines.append("membranes:")
    _membrane_lines(sysd, lines)
    lines.append("")
    lines.append("rules:")
    for r in sysd.rules:
        lines.append(_rule_text(r))
    if sysd.priority:
        lines.append("")
        lines.append("priority:")
        for a, b in sorted(sysd.priority):
            lines.append(f"  '{_check_ident('rule id', a)} > "
                         f"'{_check_ident('rule id', b)}")
    return "\n".join(lines) + "\n"


# ============================================================
# Structural equality
# ============================================================


def systems_equal(a: PSystem, b: PSystem) -> bool:
    """Same tree, same rules in the same order, same priority relation."""
    return (a.name == b.name and a.tree == b.tree and a.rules == b.rules
            and sorted(a.priority) == sorted(b.priority))


def load_system(path: str) -> PSystem:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_system(fh.read())
