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
pairs, and a two-space indent per tree depth for the first 8 levels, with
deeper membranes lined up with the eighth.  parse(serialize(s)) is
structurally equal to s: the serializer refuses a symbol the lexer would
read back differently (base `none`, or a parameter that is not an int or
a non-numeric identifier) and a count that is not a positive integer; a
count equal to a positive int, such as 2.0, is written as that int.
Parse errors give the line and column of the offending token where there
is one.

The lexer works line by line.  A scan matches a token, with the
whitespace after it, before a whitespace run or a comment; a character
that starts none of these is a one-character 'bad' token.  A line is read
by its space-separated pieces, each distinct piece scanned and read once
into a tuple of plain token tuples shared by all its occurrences; a line
with a comment, or with a piece that fails alone (a parameter list with a
space in it), is scanned whole.  Only a text in which some line fails to
lex alone (an error, or a parameter list that runs past a newline) is
scanned at once, and every lexing error comes from that scan.  Token
offsets are not kept; an error finds them with one more scan.

Consecutive systems of one shape share most rules, and most rule lines.
A table kept for the last text parsed or system serialized lets the next
parse take a line it saw before, and its tokens, and a rule statement
that is such a line, unless the next line goes on with a clause; and
lets the next serialize take the line of a rule object it wrote or read
before.  A serialized system so parses back to its own rule objects.
The table holds one system's rules and one text's lines, and changes
no outcome: each reused value is the one a fresh read gives.
"""

from __future__ import annotations

import re
from itertools import accumulate, chain
from operator import attrgetter, itemgetter
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from .engine import (MINUS, NEUTRAL, PLUS, ChildPattern, MembraneNode,
                     PSystem, RuleSpec, StructureError, _count)
from .symbols import Multiset, Sym, sym

_ID = r"[A-Za-z0-9_@.]+"
_IDENT = re.compile(_ID)
_CHARGE_TEXT = {NEUTRAL: "^0", PLUS: "^+", MINUS: "^-"}
_CHARGE_VAL = {"0": NEUTRAL, "+": PLUS, "-": MINUS}
_SECTIONS = ("alphabet", "membranes", "rules", "priority")
_CLAUSES = ("in", "out", "child")
_TEXT = attrgetter("_text")


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
# empty 'close' means there is none.  Any other character that does not
# start a whitespace run or a comment is 'bad'.
_TOKEN = re.compile(r"""
      (?P<punct>->|[\[\](){}>:])
    | (?P<label>'%(id)s)
    | (?P<charge>\^[0+-])
    | (?P<symbol>(?P<atom>%(id)s)
          (?:\{(?P<params>[^}]*)(?P<close>\}?))?
          (?:\^(?P<count>[0-9]+))?)
    | (?P<bad>[^ \t\r\n\#])""" % {"id": _ID}, re.VERBOSE | re.DOTALL)
# The scan: a token (the same grammar, its groups made one) and the
# whitespace after it, or else a whitespace run or a comment, each with an
# empty group.  Tokens are tried first, as most matches are tokens; no
# token starts with a character that a skip can match.
_SCAN = re.compile(r"(%s)[ \t\r\n]*|[ \t\r\n]+|\#[^\n]*"
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
    if tok[0] == "'" and tok != "'":
        # Most distinct texts are rule labels.  A scanned text that opens
        # with a quote and goes on is a label, so it needs no match.
        return "label", tok[1:], None, 1
    m = _TOKEN.fullmatch(tok)
    kind = m.lastgroup
    if kind == "punct":
        return kind, tok, None, 1
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


_EOF: Tok = ("eof", "", None, 1)


class _Reader(dict):
    """Text to the tuple of its tokens, scanned and read on its first
    lookup, or taken from the reader of the previous text."""

    __slots__ = ("prev",)

    def __init__(self, prev: Dict[str, Tuple[Tok, ...]]) -> None:
        super().__init__()
        self.prev = prev

    def __missing__(self, text: str) -> Tuple[Tok, ...]:
        toks = self.prev.get(text)
        if toks is None:
            toks = tuple(map(_read, filter(None, _SCAN.findall(text))))
        self[text] = toks
        return toks


def _lex_whole(text: str, reader: _Reader) -> List[Tok]:
    """The tokens of text, without eof, from one scan of the whole text.

    Texts are read in order of occurrence, so the first bad text raises,
    at its first occurrence: the first text the reader lacks after that.
    """
    texts = list(filter(None, _SCAN.findall(text)))
    try:
        return list(chain.from_iterable(map(reader.__getitem__, texts)))
    except PSpecError as e:
        bad = next(i for i, tok in enumerate(texts) if tok not in reader)
        raise _error(text, str(e), _starts(text)[bad]) from None


def _lex(text: str, lines_toks: Dict[str, Tuple[Tok, ...]],
         prev: Dict[str, Tuple[Tok, ...]]):
    """The tokens of text, ending in eof; the line and its end token index
    at each token index that starts a line; each line's tokens; the reader.

    A line in lines_toks reuses its tokens.  Any other line is read by its
    space-separated pieces, each of which the reader scans once, or if it
    has a comment or a piece fails, scanned whole.  If some line does not
    lex alone (an error, or a parameter list that runs past a newline),
    the whole text is scanned at once and no line is known.
    """
    lines = text.split("\n")
    reader = _Reader(prev)
    read = reader.__getitem__

    def line_tokens(line: str) -> Tuple[Tok, ...]:
        # No token holds a space but a parameter list, whose piece then
        # fails as unterminated; a comment may hold anything.
        if "#" not in line:
            try:
                return tuple(chain.from_iterable(map(read, line.split(" "))))
            except PSpecError:
                pass
        return tuple(chain.from_iterable(
            map(read, filter(None, _SCAN.findall(line)))))

    known = lines_toks.get
    try:
        per_line = [known(line) or line_tokens(line) for line in lines]
    except PSpecError:
        toks = _lex_whole(text, reader)
        toks.append(_EOF)
        return toks, {}, {}, reader
    starts = list(accumulate(map(len, per_line), initial=0))
    toks = list(chain.from_iterable(per_line))
    toks.append(_EOF)
    # A blank line starts where the next line does; the later line wins.
    heads = dict(zip(starts, zip(lines, starts[1:])))
    return toks, heads, dict(zip(lines, per_line)), reader


# ============================================================
# Reuse table
# ============================================================


# What the last text parsed or system serialized leaves for the next one.
# An entry is a list [line, rule, exact, written, bases]: a rule line
# without its newline; the rule; whether a parse of the line gives that
# very value; whether the line is the one serialize writes for the rule;
# and the symbol bases of the rule.  Each of the last three is None until
# asked.  A parse makes an entry for each rule that is a whole line, a
# serialize one for each rule.  The table holds the entries of the last
# of them, and the tokens of each line and of each piece read of the last
# text parsed.  Rules are immutable, so an entry stays true while it is
# held; the table holds one system's entries, and one text's tokens.
_Table = Tuple[List[list], Dict[str, Tuple[Tok, ...]],
               Dict[str, Tuple[Tok, ...]]]
_COLD: _Table = ([], {}, {})
_LINES: _Table = _COLD
_LINE = itemgetter(0)
_RULE = itemgetter(1)


def _exact(e: list) -> bool:
    """Whether a parse of e's line gives e's rule itself: no subclass, str
    names, int charges and counts, and interned symbols, as a parse makes
    them."""
    if e[2] is None:
        r = e[1]
        c = r.child
        names, ints = [r.id, r.target], [r.pre, r.post]
        msets = [r.consume_out, r.produce_out, r.consume_in, r.produce_in]
        if c is not None:
            names.append(c.label)
            ints += c.pre, c.post
            msets += c.consume, c.produce
        ints += chain.from_iterable(ms.values() for ms in msets)
        e[2] = (type(r) is RuleSpec and (c is None or type(c) is ChildPattern)
                and all(type(x) is str for x in names)
                and all(type(x) is int for x in ints)
                and all(sym(s.base, *s.params) is s
                        for s in chain.from_iterable(msets)))
    return e[2]


def _bases(e: list) -> frozenset:
    """The symbol bases of e's rule."""
    if e[4] is None:
        r = e[1]
        msets = [r.consume_out, r.produce_out, r.consume_in, r.produce_in]
        if r.child is not None:
            msets += r.child.consume, r.child.produce
        e[4] = frozenset(s.base for ms in msets for s in ms)
    return e[4]


# ============================================================
# Parser
# ============================================================


class _Parser:
    def __init__(self, text: str, table: _Table) -> None:
        self.text = text
        self.known = dict(zip(map(_LINE, table[0]), table[0]))
        self.tokens, self.heads, self.lines, self.reader = _lex(
            text, table[1], table[2])
        self.pos = 0
        # Index of the first token of each symbol base, in text order.
        self.bases: Dict[str, int] = {}
        # The entry of each rule that is a whole line; those of them the
        # table gave, whose bases are not in self.bases.
        self.entries: List[list] = []
        self.reused: List[list] = []

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

    def multiset(self, end: str) -> Dict[Sym, int]:
        """A multiset or 'none', then the punctuation end."""
        out: Dict[Sym, int] = {}
        toks, i, bases = self.tokens, self.pos, self.bases
        t = toks[i]
        if t[1] == "none" and t[0] == "word":
            i += 1
        else:
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
            if not out:
                raise self.fail("expected a multiset or 'none'")
        self.pos = i
        if toks[i][1] != end:
            self.take("punct", end)
        self.pos = i + 1
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
                contents = self.multiset("}")
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

    def rule(self) -> RuleSpec:
        toks, i = self.tokens, self.pos
        # A rule that is a whole line known to the table is the table's
        # rule, unless the next line goes on with a clause.
        head = self.heads.get(i)
        if head is not None:
            e = self.known.get(head[0])
            if e is not None:
                t = toks[head[1]]
                if (t[0] != "word" or t[1] not in _CLAUSES) and _exact(e):
                    self.pos = head[1]
                    self.entries.append(e)
                    self.reused.append(e)
                    return e[1]
        # The header, rule 'id at 'target ^pre -> ^post, in one check; the
        # eof token fails it before the check runs past the last token.
        if not (toks[i + 1][0] == "label" and toks[i + 2][:2] == ("word", "at")
                and toks[i + 3][0] == "label" and toks[i + 4][0] == "charge"
                and toks[i + 5][1] == "->" and toks[i + 6][0] == "charge"):
            # Raise the error of the first bad token.
            self.take("word", "rule")
            self.take("label", what="rule label")
            self.take("word", "at")
            self.take("label", what="target label")
            self.charge_pair()
        self.pos = i + 7
        clauses: Dict[str, object] = {}
        t = toks[i + 7]
        while t[0] == "word" and t[1] in _CLAUSES:
            word = t[1]
            if word in clauses:
                raise self.fail(f"duplicate clause {word!r}")
            self.pos += 1
            self.take("punct", "(")
            if word == "child":
                clabel = self.take("label", what="child label")[1]
                cpre, cpost = self.charge_pair()
                self.take("punct", ":")
                clauses["child"] = ChildPattern(clabel, cpre, cpost,
                                                self.multiset("->"),
                                                self.multiset(")"))
            else:
                clauses[word] = self.multiset("->"), self.multiset(")")
            t = toks[self.pos]
        r = RuleSpec(toks[i + 1][1], toks[i + 3][1], toks[i + 4][2],
                     toks[i + 6][2], *(clauses.get("out") or ({}, {})),
                     *(clauses.get("in") or ({}, {})), clauses.get("child"))
        if head is not None and self.pos == head[1]:
            self.entries.append([head[0], r, True, None, None])
        return r

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
        if alphabet is not None and self.reused:
            if set().union(*map(_bases, self.reused)).difference(alphabet):
                # Where a reused rule's symbols sit is not kept; a parse
                # without the table raises the error a cold parse does.
                _Parser(self.text, _COLD).system()
        # Any base missing now is in no reused rule, so self.bases holds
        # its first place.
        _check_refs(sysd, rule_ids, named, alphabet, self.bases, self.fail)
        return sysd

    def table(self) -> _Table:
        """The table this parse leaves: its whole-line rules, its lines."""
        self.reader.prev = {}
        return self.entries, self.lines, self.reader


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
    global _LINES
    parser = _Parser(text, _LINES)
    sysd = parser.system()
    _LINES = parser.table()
    return sysd


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


def _power(s: Sym, n: object) -> str:
    """s^n, n written as the positive int it equals, as compile reads it."""
    try:
        k = _count("", s, n)
    except StructureError:
        raise PSpecError(f"count {n!r} of symbol {s.text!r} is not "
                         f"serializable") from None
    return f"{s._text}^{k}"


def _mset_text(ms: Mapping[Sym, int]) -> str:
    if not ms:
        return "none"
    # Most multisets hold one symbol, which needs no sort and no join.
    if len(ms) == 1:
        (s, n), = ms.items()
        return s._text if n == 1 else _power(s, n)
    return " ".join([s._text if (n := ms[s]) == 1 else _power(s, n)
                     for s in sorted(ms, key=_TEXT)])


# Nesting levels that indent further; deeper membranes line up with the
# last of them, so the text stays linear in the depth.  Built systems are
# at most 4 levels deep, and the parser ignores whitespace.
_INDENT_LEVELS = 8


def _indent(depth: int) -> str:
    return "  " * min(depth, _INDENT_LEVELS)


def _membrane_lines(sysd: PSystem, out: List[str]) -> None:
    # Membranes with children whose "]" line is still due, innermost last.
    opened: List[MembraneNode] = []

    def close_until(parent: Optional[MembraneNode]) -> None:
        while opened and opened[-1] is not parent:
            opened.pop()
            out.append(_indent(len(opened) + 1) + "]")

    for node, parent in sysd.walk():
        close_until(parent)
        head = (f"{_indent(len(opened) + 1)}[ "
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
    rid, target, pre, post, cout, pout, cin, pin, c = r
    text = (f"  rule '{_check_ident('rule id', rid)} "
            f"at '{_check_ident('label', target)} "
            f"{_CHARGE_TEXT[pre]} -> {_CHARGE_TEXT[post]}")
    if cin or pin:
        text += f" in( {_mset_text(cin)} -> {_mset_text(pin)} )"
    if cout or pout:
        text += f" out( {_mset_text(cout)} -> {_mset_text(pout)} )"
    if c:
        text += (f" child( '{_check_ident('label', c.label)} "
                 f"{_CHARGE_TEXT[c.pre]} -> {_CHARGE_TEXT[c.post]} : "
                 f"{_mset_text(c.consume)} -> {_mset_text(c.produce)} )")
    return text


def serialize_system(sysd: PSystem) -> str:
    """Canonical text for a system; stable under parse/serialize."""
    global _LINES
    lines: List[str] = []
    if sysd.name:
        lines.append(f"system '{_check_ident('system name', sysd.name)}")
        lines.append("")
    # Each distinct symbol once, in first-seen order, so a refusal names
    # the same symbol on every run.  A rule whose line in the table was
    # written before passed; only the other rules' symbols are read.
    syms: Dict[Sym, object] = {}
    for node, _ in sysd.walk():
        syms.update(node.contents.counts)
    ids = dict(zip(map(id, map(_RULE, _LINES[0])), _LINES[0]))
    rules = sysd.rules
    entries: List[Optional[list]] = []
    known: List[list] = []  # the entries of rules whose line is written
    fresh: List[int] = []  # the place of each other rule
    for i, r in enumerate(rules):
        e = ids.get(id(r))
        if e is not None and e[1] is not r:
            e = None
        if e is not None and e[3]:
            known.append(e)
        else:
            fresh.append(i)
            # Most are the shared empty multiset; update on a dict subclass
            # first looks up its keys method, so skip those.
            for ms in (r.consume_out, r.produce_out, r.consume_in,
                       r.produce_in):
                if ms:
                    syms.update(ms)
            if r.child:
                syms.update(r.child.consume)
                syms.update(r.child.produce)
        entries.append(e)
    for s in syms:
        if (s.base == "none" or not _IDENT.fullmatch(s.base)
                or not all(map(_param_ok, s.params))):
            raise PSpecError(f"symbol {s.text!r} is not serializable")
    bases = {s.base for s in syms}.union(*map(_bases, known))
    if bases:
        lines.append("alphabet:")
        row = sorted(bases)
        for i in range(0, len(row), 8):
            lines.append("  " + " ".join(row[i:i + 8]))
        lines.append("")
    lines.append("membranes:")
    _membrane_lines(sysd, lines)
    lines.append("")
    lines.append("rules:")
    for i in fresh:
        r, e = rules[i], entries[i]
        line = _rule_text(r)
        if e is not None and e[0] == line:
            e[3] = True  # a line read as serialize writes it
        else:
            entries[i] = [line, r, None, True, None]
    lines += map(_LINE, entries)
    if sysd.priority:
        lines.append("")
        lines.append("priority:")
        for a, b in sorted(sysd.priority):
            lines.append(f"  '{_check_ident('rule id', a)} > "
                         f"'{_check_ident('rule id', b)}")
    _LINES = entries, _LINES[1], _LINES[2]
    return "\n".join(lines) + "\n"


# ============================================================
# Structural equality
# ============================================================


def _same_tree(a: MembraneNode, b: MembraneNode) -> bool:
    """Membranes compared pairwise in preorder: label, charge, contents and
    number of children.  An explicit stack, not recursion, holds the pairs
    still due, so depth costs no stack frames."""
    due = [(a, b)]
    while due:
        x, y = due.pop()
        if (x.label != y.label or x.charge != y.charge
                or x.contents.counts != y.contents.counts
                or len(x.children) != len(y.children)):
            return False
        due += zip(x.children, y.children)
    return True


def systems_equal(a: PSystem, b: PSystem) -> bool:
    """Same tree, same rules in the same order, same priority relation."""
    return (a.name == b.name and _same_tree(a.tree, b.tree)
            and a.rules == b.rules
            and (a.priority == b.priority
                 or sorted(a.priority) == sorted(b.priority)))


def load_system(path: str) -> PSystem:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_system(fh.read())
