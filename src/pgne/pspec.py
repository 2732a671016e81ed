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
notation `base{p1,p2}^count`; `none` denotes the empty multiset.
Serialization is canonical: declaration order for rules, tree order for
membranes, sorted symbol text inside every multiset, sorted priority
pairs, two-space indent per tree depth.  parse(serialize(s)) is
structurally equal to s: the serializer refuses a symbol the lexer would
read back differently (base `none`, or a parameter that is not an int or a
non-numeric identifier).  Parse errors give the line and column of the
offending token where there is one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
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


@dataclass(slots=True)
class Token:
    kind: str  # word label charge symbol punct eof
    text: str
    pos: int  # offset into the text
    # symbol extras
    symbol: Optional[Sym] = None
    count: int = 1
    charge: int = NEUTRAL


def _error(text: str, msg: str, pos: int) -> PSpecError:
    """PSpecError at 1-based line and column of offset pos in text."""
    line = text.count("\n", 0, pos) + 1
    return PSpecError(msg, line, pos - text.rfind("\n", 0, pos))


# Whitespace and comments, then one token.  Parameter lists run to the
# next '}', newlines included; an empty 'close' means there is none.
# Only the end of the text matches no token.
_TOKEN = re.compile(r"""
    (?:[ \t\r\n]+|\#[^\n]*)*
    (?: (?P<punct>->|[\[\](){}>:])
      | (?P<label>'%(id)s)
      | (?P<charge>\^[0+-])
      | (?P<symbol>(?P<atom>%(id)s)
            (?:\{(?P<params>[^}]*)(?P<close>\}?))?
            (?:\^(?P<count>[0-9]+))?)
      | (?P<bad>.)
    )?""" % {"id": _ID}, re.VERBOSE | re.DOTALL)
_NUMBER = re.compile(r"-?[0-9]+")
_BAD_CHAR = {"-": "stray '-'; expected '->'",
             "'": "empty label after quote",
             "^": "bad charge; expected ^0, ^+ or ^-"}


def _params(text: str, inner: str, start: int) -> List[object]:
    """Integer and identifier parameters of the list text inner."""
    params: List[object] = []
    for piece in inner.split(",") if inner.strip() else ():
        piece = piece.strip()
        if not piece:
            raise _error(text, "empty parameter", start)
        if _NUMBER.fullmatch(piece):
            params.append(int(piece))
        elif _IDENT.fullmatch(piece):
            params.append(piece)
        else:
            raise _error(text, f"bad parameter {piece!r}", start)
    return params


def _lex(text: str) -> Iterator[Token]:
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind is None:
            yield Token("eof", "", len(text))
            return
        tok, start = m.group(kind), m.start(kind)
        if kind == "punct":
            yield Token(kind, tok, start)
        elif kind == "symbol":
            inner, count = m.group("params", "count")
            if inner is None and count is None:
                # Bare word: keyword or plain symbol, parser decides.
                yield Token("word", tok, start, symbol=sym(tok))
                continue
            if inner is not None and not m.group("close"):
                raise _error(text, "unterminated parameter list", start)
            params = _params(text, inner, start) if inner else []
            yield Token(kind, tok, start, symbol=sym(m.group("atom"), *params),
                        count=int(count) if count else 1)
        elif kind == "label":
            yield Token(kind, tok[1:], start)
        elif kind == "charge":
            yield Token(kind, tok, start, charge=_CHARGE_VAL[tok[1]])
        else:
            raise _error(text, _BAD_CHAR.get(tok, f"unexpected character "
                                                  f"{tok!r}"), start)


# ============================================================
# Parser
# ============================================================


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = list(_lex(text))
        self.pos = 0
        # First token of each symbol base, in text order.
        self.bases: Dict[str, Token] = {}

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        t = self.tokens[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def fail(self, msg: str, t: Optional[Token] = None) -> PSpecError:
        return _error(self.text, msg, (t or self.peek()).pos)

    def expect_punct(self, text: str) -> Token:
        t = self.next()
        if t.kind != "punct" or t.text != text:
            raise self.fail(f"expected {text!r}, found {t.text!r}", t)
        return t

    def expect_label(self, what: str) -> str:
        t = self.next()
        if t.kind != "label":
            raise self.fail(f"expected {what} label, found {t.text!r}", t)
        return t.text

    def expect_charge(self) -> int:
        t = self.next()
        if t.kind != "charge":
            raise self.fail(f"expected charge, found {t.text!r}", t)
        return t.charge

    def at_word(self, *words: str) -> bool:
        t = self.peek()
        return t.kind == "word" and t.text in words

    def at_section(self) -> bool:
        if not self.at_word(*_SECTIONS):
            return False
        nxt = self.tokens[self.pos + 1]
        return nxt.kind == "punct" and nxt.text == ":"

    # ---- multisets ----

    def multiset(self) -> Dict[Sym, int]:
        out: Dict[Sym, int] = {}
        if self.at_word("none"):
            self.next()
            return out
        while self.peek().kind in ("word", "symbol"):
            t = self.next()
            if t.count < 1:
                raise self.fail("zero count is not allowed", t)
            self.bases.setdefault(t.symbol.base, t)
            out[t.symbol] = out.get(t.symbol, 0) + t.count
        if not out:
            raise self.fail("expected a multiset or 'none'")
        return out

    # ---- membranes ----

    def membrane(self, seen: Dict[str, Token]) -> MembraneNode:
        self.expect_punct("[")
        me = self.peek()
        label = self.expect_label("membrane")
        if label in seen:
            raise self.fail(f"duplicate membrane label '{label}", me)
        seen[label] = me
        charge = self.expect_charge()
        contents: Dict[Sym, int] = {}
        if self.peek().kind == "punct" and self.peek().text == "{":
            self.next()
            contents = self.multiset()
            self.expect_punct("}")
        children: List[MembraneNode] = []
        while self.peek().kind == "punct" and self.peek().text == "[":
            children.append(self.membrane(seen))
        self.expect_punct("]")
        return MembraneNode(label, children=children,
                            contents=Multiset(contents), charge=charge)

    # ---- rules ----

    def charge_pair(self) -> Tuple[int, int]:
        pre = self.expect_charge()
        self.expect_punct("->")
        post = self.expect_charge()
        return pre, post

    def mset_pair(self) -> Tuple[Dict[Sym, int], Dict[Sym, int]]:
        self.expect_punct("(")
        consume = self.multiset()
        self.expect_punct("->")
        produce = self.multiset()
        self.expect_punct(")")
        return consume, produce

    def rule(self) -> RuleSpec:
        t = self.next()
        if not (t.kind == "word" and t.text == "rule"):
            raise self.fail(f"expected 'rule', found {t.text!r}", t)
        rid = self.expect_label("rule")
        t = self.next()
        if not (t.kind == "word" and t.text == "at"):
            raise self.fail(f"expected 'at', found {t.text!r}", t)
        target = self.expect_label("target")
        pre, post = self.charge_pair()
        clauses: Dict[str, object] = {}
        while self.at_word("in", "out", "child"):
            t = self.next()
            if t.text in clauses:
                raise self.fail(f"duplicate clause {t.text!r}", t)
            if t.text == "child":
                self.expect_punct("(")
                clabel = self.expect_label("child")
                cpre, cpost = self.charge_pair()
                self.expect_punct(":")
                consume = self.multiset()
                self.expect_punct("->")
                produce = self.multiset()
                self.expect_punct(")")
                clauses["child"] = ChildPattern(clabel, cpre, cpost,
                                                consume, produce)
            else:
                clauses[t.text] = self.mset_pair()
        cin = clauses.get("in", ({}, {}))
        cout = clauses.get("out", ({}, {}))
        return RuleSpec(id=rid, target=target, pre=pre, post=post,
                        consume_out=cout[0], produce_out=cout[1],
                        consume_in=cin[0], produce_in=cin[1],
                        child=clauses.get("child"))

    # ---- whole file ----

    def system(self) -> PSystem:
        name = ""
        if self.at_word("system"):
            self.next()
            name = self.expect_label("system name")
        seen_sections: List[str] = []
        alphabet: Optional[List[str]] = None
        tree: Optional[MembraneNode] = None
        rules: List[RuleSpec] = []
        rule_ids: Dict[str, Token] = {}
        priority: List[Tuple[str, str]] = []
        named: List[Token] = []  # priority's label tokens
        while self.peek().kind != "eof":
            if not self.at_section():
                raise self.fail("expected a section header")
            head = self.next().text
            self.expect_punct(":")
            if head in seen_sections:
                raise self.fail(f"duplicate section {head!r}")
            seen_sections.append(head)
            if head == "alphabet":
                alphabet = []
                while self.peek().kind == "word" and not self.at_section():
                    alphabet.append(self.next().text)
            elif head == "membranes":
                tree = self.membrane({})
            elif head == "rules":
                while self.at_word("rule") and not self.at_section():
                    t = self.peek()
                    r = self.rule()
                    if r.id in rule_ids:
                        raise self.fail(f"duplicate rule id '{r.id}", t)
                    rule_ids[r.id] = t
                    rules.append(r)
            else:
                while self.peek().kind == "label":
                    a = self.next()
                    self.expect_punct(">")
                    b = self.peek()
                    self.expect_label("rule")
                    priority.append((a.text, b.text))
                    named += (a, b)
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


def _check_refs(sysd: PSystem, rule_ids: Dict[str, Token], named: List[Token],
                alphabet: Optional[List[str]], bases: Dict[str, Token],
                fail: Callable[[str, Token], PSpecError]) -> None:
    parents = {node.label: parent and parent.label
               for node, parent in sysd.walk()}
    for r in sysd.rules:
        t = rule_ids[r.id]
        if r.target not in parents:
            raise fail(f"rule '{r.id} targets unknown membrane "
                       f"'{r.target}", t)
        if r.child and parents.get(r.child.label) != r.target:
            raise fail(f"rule '{r.id}: '{r.child.label} is not a "
                       f"child of '{r.target}", t)
    for t in named:
        if t.text not in rule_ids:
            raise fail(f"priority names unknown rule '{t.text}", t)
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
