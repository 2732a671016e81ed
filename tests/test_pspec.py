"""Parser, serializer, and round-trip checks for the system text format."""

from __future__ import annotations

import gc
import hashlib
import operator
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pgne.pspec as pspec
from pgne.builder import build_gne_system, build_mult_system
from pgne.engine import (MINUS, NEUTRAL, PLUS, ChildPattern, MembraneNode,
                        PSystem, RuleSpec, compile_system, read_region,
                        run)
from pgne.harness import sample_experiment
from pgne.pspec import (PSpecError, parse_system, serialize_system,
                        systems_equal)
from pgne.symbols import Multiset, sym

SMALL = """
# two nested membranes with a couple of rules
system 'demo
membranes:
  [ '0 ^0 { seed^2 }
    [ 'a ^+ { tok{1,2}^3 } ]
  ]
rules:
  rule 'r1 at 'a ^+ -> ^0 in( tok{1,2} -> done ) out( none -> flag )
  rule 'r2 at '0 ^0 -> ^0 in( seed -> none ) child( 'a ^0 -> ^+ : done -> tok{1,2} )
priority:
  'r1 > 'r2
"""


def test_parse_small():
    s = parse_system(SMALL)
    assert s.name == "demo"
    assert s.tree.label == "0"
    assert s.tree.contents.get(sym("seed")) == 2
    inner = s.tree.children[0]
    assert inner.label == "a" and inner.charge == PLUS
    assert inner.contents.get(sym("tok", 1, 2)) == 3
    r1, r2 = s.rules
    assert r1.id == "r1" and r1.pre == PLUS and r1.post == NEUTRAL
    assert r1.consume_in == {sym("tok", 1, 2): 1}
    assert r1.produce_in == {sym("done"): 1}
    assert r1.consume_out == {} and r1.produce_out == {sym("flag"): 1}
    assert r2.child == ChildPattern("a", NEUTRAL, PLUS,
                                    {sym("done"): 1}, {sym("tok", 1, 2): 1})
    assert s.priority == [("r1", "r2")]


def test_round_trip_small():
    s = parse_system(SMALL)
    assert systems_equal(parse_system(serialize_system(s)), s)


def test_serialize_is_canonical_fixed_point():
    s = parse_system(SMALL)
    text = serialize_system(s)
    assert serialize_system(parse_system(text)) == text


def test_round_trip_mult_system():
    s = build_mult_system(9, 7)
    text = serialize_system(s)
    pspec._SNAP = None  # read every line afresh
    t = parse_system(text)
    assert systems_equal(t, s)
    # The reparsed system must behave identically, not just look alike.
    a = run(compile_system(s), max_steps=60)
    b = run(compile_system(t), max_steps=60)
    assert a.final.contents == b.final.contents
    assert a.final.charges == b.final.charges
    assert ([[(cr.id, c) for cr, c in step] for step in a.records]
            == [[(cr.id, c) for cr, c in step] for step in b.records])


@pytest.mark.parametrize("seed", [0, 4])
def test_round_trip_gne_system(seed):
    spec = sample_experiment(seed, "small", loops=2)
    s = build_gne_system(spec)
    text = serialize_system(s)
    pspec._SNAP = None  # read every line afresh
    assert systems_equal(parse_system(text), s)


def test_alphabet_is_validated():
    bad = SMALL.replace("system 'demo", "system 'demo\nalphabet:\n  seed tok")
    with pytest.raises(PSpecError, match="missing from alphabet"):
        parse_system(bad)
    ok = SMALL.replace("system 'demo",
                       "system 'demo\nalphabet:\n  seed tok done flag")
    parse_system(ok)


# ============================================================
# Error positions and malformed input
# ============================================================


def check_error(text, needle, line=None, col=None):
    with pytest.raises(PSpecError) as info:
        parse_system(text)
    assert needle in str(info.value)
    if line is not None:
        assert info.value.line == line
    if col is not None:
        assert info.value.col == col
    return info.value


def test_duplicate_membrane_label():
    check_error("membranes:\n  [ 'x ^0 [ 'x ^0 ] ]", "duplicate membrane")


def test_duplicate_rule_id():
    text = ("membranes:\n  [ 'm ^0 ]\nrules:\n"
            "  rule 'r at 'm ^0 -> ^0 in( a -> b )\n"
            "  rule 'r at 'm ^0 -> ^0 in( b -> a )\n")
    check_error(text, "duplicate rule id", line=5)


def test_unknown_target():
    text = "membranes:\n  [ 'm ^0 ]\nrules:\n  rule 'r at 'q ^0 -> ^0 in( a -> b )\n"
    check_error(text, "unknown membrane")


def test_child_must_be_direct():
    text = ("membranes:\n  [ 'm ^0 [ 'n ^0 ] ]\nrules:\n"
            "  rule 'r at 'n ^0 -> ^0 child( 'm ^0 -> ^0 : a -> b )\n")
    check_error(text, "not a child")


def test_priority_names_unknown_rule():
    text = ("membranes:\n  [ 'm ^0 ]\nrules:\n"
            "  rule 'r at 'm ^0 -> ^0 in( a -> b )\npriority:\n  'r > 'zz\n")
    check_error(text, "unknown rule")


def test_unknown_priority_rule_position():
    text = ("membranes:\n  [ 'm ^0 ]\nrules:\n"
            "  rule 'r at 'm ^0 -> ^0 in( a -> b )\npriority:\n"
            "  'r > 'r\n  'zz > 'r\n")
    check_error(text, "unknown rule 'zz (line 7, col 3)", line=7)


def test_missing_alphabet_symbol_position():
    # The first token whose base is missing, not the first missing base.
    text = ("alphabet:\n  a b\nmembranes:\n  [ 'm ^0 { a b{1} } ]\n"
            "rules:\n  rule 'r at 'm ^0 -> ^0 in( a -> z y{2} )\n")
    check_error(text, "missing from alphabet: y, z (line 6, col 35)", line=6)


# A symbol repeated on a later line: the error names its first occurrence.
@pytest.mark.parametrize("atom,needle", [
    ("a^0", "zero count"), ("a{x-y}", "bad parameter 'x-y'")])
def test_repeated_symbol_error_names_first_occurrence(atom, needle):
    text = (f"membranes:\n  [ 'm ^0 {{ b {atom} }}\n"
            f"    [ 'n ^0 {{ {atom} }} ] ]\n")
    assert check_error(text, needle, line=2).col == 15


def test_repeated_missing_base_names_first_occurrence():
    text = ("alphabet:\n  b\nmembranes:\n  [ 'm ^0 { b a{1} }\n"
            "    [ 'n ^0 { a{1} } ] ]\n")
    assert check_error(text, "missing from alphabet: a", line=4).col == 15


def test_zero_count_rejected():
    check_error("membranes:\n  [ 'm ^0 { a^0 } ]", "zero count")


# `none` is the empty multiset, never a symbol: anywhere but alone it is
# refused at its token, since the serializer could not write it back.
@pytest.mark.parametrize("body,col", [
    ("a none", 15), ("none^2 a", 13), ("none{1}", 13), ("a b none{2}^3", 17)])
def test_none_must_stand_alone(body, col):
    check_error(f"membranes:\n  [ 'm ^0 {{ {body} }} ]",
                "'none' must stand alone", line=2, col=col)


def test_none_must_stand_alone_in_rules():
    text = ("membranes:\n  [ 'm ^0 ]\nrules:\n"
            "  rule 'r at 'm ^0 -> ^0 in( a none -> b )\n")
    check_error(text, "'none' must stand alone", line=4, col=32)
    text = text.replace("a none -> b", "a -> b none^2")
    check_error(text, "'none' must stand alone", line=4, col=37)


def test_bad_charge_position():
    check_error("membranes:\n  [ 'm ^* ]", "bad charge", line=2)


def test_stray_dash():
    check_error("membranes:\n  [ 'm ^0 { a } - ]", "stray '-'")


def test_unterminated_params():
    check_error("membranes:\n  [ 'm ^0 { a{1 ]", "unterminated")


def test_params_may_contain_spaces():
    # find-the-brace lexing tolerates padding inside parameter lists
    s = parse_system("membranes:\n  [ 'm ^0 { a{1, 2} } ]")
    assert s.tree.contents.get(sym("a", 1, 2)) == 1


def test_positions_count_newlines_inside_parameter_lists():
    text = "membranes:\n  [ 'm ^0 { a{1,\n2} } ^* ]"
    check_error(text, "bad charge", line=3)
    with pytest.raises(PSpecError) as info:
        parse_system(text)
    assert info.value.col == 6
    check_error("membranes:\n  [ 'm ^0 { a{1,\n2} } ]\njunk",
                "expected a section header", line=4)


@pytest.mark.parametrize("atom,needle", [
    ("a^\u00b2", "bad charge"), ("a{\u00b2}", "bad parameter"),
    ("a^\u0663", "bad charge"), ("a{\u0663}", "bad parameter")])
def test_non_ascii_digits_are_pspec_errors(atom, needle):
    # Counts and integer parameters are ASCII digits only.
    check_error(f"membranes:\n  [ 'm ^0 {{ {atom} }} ]", needle, line=2)


def test_missing_membranes_section():
    check_error("rules:\n", "missing membranes")
    check_error("# nothing\n", "missing membranes")
    check_error("", "missing membranes section")


def test_hash_inside_parameter_list():
    check_error("membranes:\n  [ 'm ^0 { a{1,#2} } ]",
                "bad parameter '#2'", line=2, col=13)


@pytest.mark.parametrize("text,col", [
    ("membranes:\r\n  [ 'm ^0 { a^0 } ]", 13),
    ("membranes:\n\t[ 'm ^0 { a^0 } ]", 12)])
def test_crlf_and_tab_line_starts(text, col):
    check_error(text, "zero count", line=2, col=col)


# Errors near the end of a full-size system: both positions come from
# token offsets that are worked out only when an error is raised.
@pytest.fixture(scope="module")
def default_text():
    return serialize_system(build_gne_system(sample_experiment(27, "default")))


@pytest.fixture(scope="module")
def default_lines(default_text):
    return default_text.split("\n")


@pytest.fixture
def written_snapshot():
    """The snapshot a cold serialize of the default system leaves."""
    pspec._SNAP = None
    serialize_system(build_gne_system(sample_experiment(27, "default")))
    return pspec._SNAP


def test_error_position_on_last_rule_line(default_lines):
    lines = list(default_lines)
    n = lines.index("priority:") - 2
    assert lines[n].startswith("  rule ")
    col = lines[n].rfind("->") + 1
    lines[n] = lines[n][:col - 1] + "-" + lines[n][col + 1:]
    check_error("\n".join(lines), "stray '-'", line=n + 1, col=col)


def test_error_position_on_last_priority_pair(default_lines):
    lines = list(default_lines)
    n = len(lines) - 2
    head, _, _ = lines[n].rpartition("'")
    lines[n] = head + "'nosuch"
    check_error("\n".join(lines), "priority names unknown rule 'nosuch",
                line=n + 1, col=len(head) + 1)


def test_duplicate_section():
    check_error("membranes:\n  [ 'm ^0 ]\nmembranes:\n  [ 'q ^0 ]",
                "duplicate section")


def test_duplicate_clause():
    text = ("membranes:\n  [ 'm ^0 ]\nrules:\n"
            "  rule 'r at 'm ^0 -> ^0 in( a -> b ) in( c -> d )\n")
    check_error(text, "duplicate clause")


# One rule line broken at a single point: each header token, each clause
# token, an empty multiset, a duplicate clause, and text that ends inside
# the header or a clause.  Message, line and column are pinned.
_GRAMMAR_ERRORS = pytest.mark.parametrize("rule,message,line,col", [
    ("rule r at 'm ^0 -> ^+", "expected rule label, found 'r'", 4, 8),
    ("rule 'r on 'm ^0 -> ^+", "expected 'at', found 'on'", 4, 11),
    ("rule 'r 'at 'm ^0 -> ^+", "expected 'at', found 'at'", 4, 11),
    ("rule 'r at m ^0 -> ^+", "expected target label, found 'm'", 4, 14),
    ("rule 'r at at ^0 -> ^+", "expected target label, found 'at'", 4, 14),
    ("rule 'r at 'm -> ^+", "expected charge, found '->'", 4, 17),
    ("rule 'r at 'm ^0 > ^+", "expected '->', found '>'", 4, 20),
    ("rule 'r at 'm ^0 -> in( a -> b )", "expected charge, found 'in'",
     4, 23),
    ("rule 'r at 'm ^0 -> ^+ in [ a -> b )", "expected '(', found '['",
     4, 29),
    ("rule 'r at 'm ^0 -> ^+ in( a b )", "expected '->', found ')'", 4, 34),
    ("rule 'r at 'm ^0 -> ^+ in( a -> b ]", "expected ')', found ']'",
     4, 37),
    ("rule 'r at 'm ^0 -> ^+ child( c ^0 -> ^- : x -> y )",
     "expected child label, found 'c'", 4, 33),
    ("rule 'r at 'm ^0 -> ^+ child( 'c : -> ^- : x -> y )",
     "expected charge, found ':'", 4, 36),
    ("rule 'r at 'm ^0 -> ^+ child( 'c ^0 ^- : x -> y )",
     "expected '->', found '^-'", 4, 39),
    ("rule 'r at 'm ^0 -> ^+ child( 'c ^0 -> : x -> y )",
     "expected charge, found ':'", 4, 42),
    ("rule 'r at 'm ^0 -> ^+ child( 'c ^0 -> ^- x -> y )",
     "expected ':', found 'x'", 4, 45),
    ("rule 'r at 'm ^0 -> ^+ child( 'c ^0 -> ^- : x -> y",
     "expected ')', found ''", 4, 53),
    ("rule 'r at 'm ^0 -> ^+ in( -> b )", "expected a multiset or 'none'",
     4, 30),
    ("rule 'r at 'm ^0 -> ^+ out( a -> )", "expected a multiset or 'none'",
     4, 36),
    ("rule 'r at 'm ^0 -> ^+ out( a -> b ) out( c -> d )",
     "duplicate clause 'out'", 4, 40),
    ("rule", "expected rule label, found ''", 4, 7),
    ("rule 'r", "expected 'at', found ''", 4, 10),
    ("rule 'r at", "expected target label, found ''", 4, 13),
    ("rule 'r at 'm", "expected charge, found ''", 4, 16),
    ("rule 'r at 'm ^0", "expected '->', found ''", 4, 19),
    ("rule 'r at 'm ^0 ->", "expected charge, found ''", 4, 22),
    ("rule 'r at 'm ^0 -> ^+ in(", "expected a multiset or 'none'", 4, 29),
    ("rule 'r at 'm ^0 -> ^+ in( a", "expected '->', found ''", 4, 31),
    ("rule 'r at 'm ^0 -> ^+ in( a -> b", "expected ')', found ''", 4, 36),
    ("rule 'r at 'm ^0 -> ^+ child( 'c ^0 -> ^- :",
     "expected a multiset or 'none'", 4, 46)])


@_GRAMMAR_ERRORS
def test_rule_grammar_errors(rule, message, line, col):
    with pytest.raises(PSpecError) as info:
        parse_system("membranes:\n  [ 'm ^0 [ 'c ^0 ] ]\nrules:\n  " + rule)
    assert str(info.value) == f"{message} (line {line}, col {col})"
    assert (info.value.line, info.value.col) == (line, col)


def test_unserializable_label():
    s = PSystem(MembraneNode("has space"), [])
    with pytest.raises(PSpecError, match="not serializable"):
        serialize_system(s)


def test_comments_and_counts():
    text = ("membranes:  # trailing comment\n"
            "  [ 'm ^0 { a^1 b^12 } ]  # byte count\n")
    s = parse_system(text)
    assert s.tree.contents.get(sym("a")) == 1
    assert s.tree.contents.get(sym("b")) == 12
    # A comment may touch the token before it, and end the text.
    assert parse_system("membranes:#x\n  [ 'm ^0 ]").tree.label == "m"
    s = parse_system("membranes:\n  [ 'm ^0 { a } ] # trailing")
    assert s.tree.contents.get(sym("a")) == 1


def test_order_of_rules_is_preserved():
    text = ("membranes:\n  [ 'm ^0 ]\nrules:\n"
            "  rule 'zz at 'm ^0 -> ^0 in( a -> b )\n"
            "  rule 'aa at 'm ^0 -> ^0 in( b -> a )\n")
    s = parse_system(text)
    assert [r.id for r in s.rules] == ["zz", "aa"]
    # Rank is declaration order, so reordering changes the system.
    t = parse_system(serialize_system(s))
    assert [r.id for r in t.rules] == ["zz", "aa"]


def test_deep_membrane_chain_round_trips_and_runs():
    # Parsing keeps open membranes on a stack, and systems_equal compares
    # walk rows, so depth costs no recursion.  The indent stops growing
    # after a few levels, so the text is linear in the depth.
    n = 5000
    tree = MembraneNode(f"m{n - 1}", contents=Multiset({sym("a"): 1}))
    for i in range(n - 2, -1, -1):
        tree = MembraneNode(f"m{i}", children=[tree], charge=i % 3 - 1)
    sysd = PSystem(tree, [RuleSpec("r", f"m{n - 1}", consume_in={sym("a"): 1},
                                   produce_out={sym("b"): 1})])
    text = serialize_system(sysd)
    assert len(text) < 64 * n
    assert max(len(line) - len(line.lstrip()) for line in text.splitlines()) == 16
    back = parse_system(text)

    def view(s):
        return [(node.label, parent and parent.label, node.charge,
                 node.contents.counts) for node, parent in s.walk()]
    assert view(back) == view(sysd)
    assert systems_equal(back, sysd)
    changed = parse_system(text)
    at_4000 = [node for node, _ in changed.walk()][4000]
    assert at_4000.label == "m4000"
    at_4000.contents.counts[sym("a")] = 1
    assert not systems_equal(changed, sysd)
    trace = run(back, max_steps=5)
    assert trace.halted and trace.steps == 1
    assert read_region(trace.final, f"m{n - 2}").counts == {sym("b"): 1}


def test_systems_equal_detects_differences():
    s = parse_system(SMALL)
    t = parse_system(SMALL)
    assert systems_equal(s, t)
    t.rules[0] = t.rules[0]._replace(
        produce_in={**t.rules[0].produce_in, sym("done"): 2})
    assert not systems_equal(s, t)
    u = parse_system(SMALL)
    u.tree.children[0].charge = MINUS
    assert not systems_equal(s, u)
    v = parse_system(SMALL)
    v.rules.reverse()
    assert not systems_equal(s, v)


# ============================================================
# Unserializable symbols and fuzzing
# ============================================================


@pytest.mark.parametrize("s", [
    sym("none"), sym("a", "12"), sym("a", "-3"), sym("a", "x y"),
    sym("a", "b}c"), sym("x y")],
    ids=repr)
def test_unserializable_symbols_refused(s):
    # Each would read back as another system, or not at all.
    sysd = PSystem(MembraneNode("m", contents=Multiset({s: 1})), [])
    with pytest.raises(PSpecError, match="not serializable"):
        serialize_system(sysd)


# A count is written as the positive int it equals, as compile_system
# reads it; any other count is refused by symbol, wherever it sits.
@pytest.mark.parametrize("n,written", [
    (2.5, None), (2.0, "a^2"), (True, "a"), (0, None), (-1, None),
    (False, None)], ids=repr)
@pytest.mark.parametrize("where,around", [
    ("contents", "[ 'm ^0 {{ {} }}"), ("rule", "in( b -> {} )"),
    ("child", "^0 : {} -> b )")])
def test_counts_serialize_as_positive_ints(n, written, where, around):
    ms = {sym("a"): n}
    sysd = PSystem(MembraneNode("m", children=[MembraneNode("c")]),
                   [RuleSpec("r", "m", consume_in={sym("b"): 1},
                             produce_in=ms if where == "rule" else {},
                             child=ChildPattern(
                                 "c", consume=ms if where == "child" else {},
                                 produce={sym("b"): 1}))])
    if where == "contents":
        sysd.tree.contents.counts.update(ms)
    if written is None:
        with pytest.raises(PSpecError, match=re.escape(
                f"count {n!r} of symbol 'a' is not serializable")):
            serialize_system(sysd)
        return
    text = serialize_system(sysd)
    assert around.format(written) in text
    back = parse_system(text)
    assert systems_equal(back, sysd)
    assert serialize_system(back) == text


# Bases include section and clause keywords and a digit string, all of
# which the format must carry as plain symbols.
_BASES = ["a", "b2", "x.y", "q@1", "_", "12", "rule", "in", "membranes"]
_PARAM = st.one_of(st.integers(-20, 20),
                   st.sampled_from(["k", "i1", "1a", "none", "at"]))
_SYM = st.builds(lambda b, ps: sym(b, *ps), st.sampled_from(_BASES),
                 st.lists(_PARAM, max_size=2))
_MSET = st.dictionaries(_SYM, st.integers(1, 12), max_size=3)
_CHARGE = st.sampled_from([NEUTRAL, PLUS, MINUS])


@st.composite
def random_systems(draw):
    nodes = []

    def node(depth):
        label = draw(st.sampled_from(["m", "0", "x.", "@", "_"])) + str(
            len(nodes))
        me = MembraneNode(label, contents=Multiset(draw(_MSET)),
                          charge=draw(_CHARGE))
        nodes.append(me)
        if depth < 3:
            me.children = [node(depth + 1)
                           for _ in range(draw(st.integers(0, 2)))]
        return me

    tree = node(1)
    rules = []
    for n in range(draw(st.integers(0, 4))):
        target = draw(st.sampled_from(nodes))
        pre, post = draw(_CHARGE), draw(_CHARGE)
        ins = (draw(_MSET), draw(_MSET)) if draw(st.booleans()) else ({}, {})
        outs = (draw(_MSET), draw(_MSET)) if draw(st.booleans()) else ({}, {})
        child = None
        if target.children and draw(st.booleans()):
            below = draw(st.sampled_from(target.children))
            child = ChildPattern(below.label, draw(_CHARGE), draw(_CHARGE),
                                 draw(_MSET), draw(_MSET))
        rules.append(RuleSpec(f"r{n}", target.label, pre, post, *outs, *ins,
                              child))
    # Pairs point down the declaration order, so the relation is acyclic.
    pairs = [(a.id, b.id) for i, a in enumerate(rules) for b in rules[i + 1:]]
    priority = draw(st.lists(st.sampled_from(pairs), unique=True)
                    if pairs else st.just([]))
    return PSystem(tree, rules, priority,
                   draw(st.sampled_from(["", "demo", "g.1"])))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(random_systems())
def test_fuzz_round_trip(sysd):
    # A parse right after the serialize takes the rules from the snapshot;
    # one without it reads every rule line.
    text = serialize_system(sysd)
    for snap in (pspec._SNAP, None):
        pspec._SNAP = snap
        back = parse_system(text)
        assert systems_equal(back, sysd)
        assert serialize_system(back) == text


# Every space and newline of the canonical text becomes a run of one to
# three spaces, tabs, newlines, CRLFs and comments, and one such run comes
# before the first token; the parse is the same.
_GAPS = [" ", "\t", "\n", "\r\n", " # note\n"]


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(random_systems(), st.integers(0, 2**32 - 1))
def test_fuzz_non_canonical_spacing(sysd, seed):
    rng = random.Random(seed)

    def gap(_=None):
        return "".join(rng.choice(_GAPS) for _ in range(rng.randint(1, 3)))
    text = serialize_system(sysd)
    back = parse_system(gap() + re.sub(r"[ \n]", gap, text))
    assert systems_equal(back, sysd)
    assert serialize_system(back) == text


_EDIT_CHARS = list("\u00b2\u00e9\n{}'^-,# a1+>:()[]") + [
    "->", "{1,\n2}", "^\u00b2", "{\u00b2}", "{--1}"]


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(random_systems(), st.lists(
    st.tuples(st.floats(0, 1), st.integers(0, 3),
              st.sampled_from(_EDIT_CHARS)), min_size=1, max_size=3))
def test_fuzz_edits_raise_only_pspec_error(sysd, edits):
    text = serialize_system(sysd)
    for where, cut, ins in edits:
        i = int(where * len(text))
        text = text[:i] + ins + text[i + cut:]
    try:
        parse_system(text)
    except PSpecError as e:
        assert 0 <= e.line <= text.count("\n") + 1


# Single random edits of three texts; each outcome is the error with its
# position, or the re-serialized system.  The digest pins every outcome,
# so a change to the lexer or parser must keep messages, lines, columns
# and accepted systems exactly as they are.
_PIN_EDITS = _EDIT_CHARS + ["^0", "none", "rule", "'x"]
_PIN_TEXTS = [
    (lambda: SMALL, 300),
    (lambda: serialize_system(build_mult_system(3, 5)), 200),
    (lambda: serialize_system(build_gne_system(
        sample_experiment(0, "small", loops=2))), 30)]
EDIT_OUTCOMES_SHA256 = (
    "a6260ff8e8042a9a8ce95259bbc25517636cdebd4dd532443fb3dd3d73c10d71")


def edit_outcome(text, snap):
    """The re-serialized parse of text, or its error, from snapshot snap
    (None: cold)."""
    pspec._SNAP = snap
    try:
        return "ok:" + serialize_system(parse_system(text))
    except PSpecError as e:
        return f"err:{e}|{e.line}|{e.col}"


def edit_outcomes_digest(written):
    """The digest of the pinned edits' outcomes, each cold or, if written,
    from the snapshot left by the serialize that made the unedited text."""
    rng = random.Random(0)
    h = hashlib.sha256()
    for make, n in _PIN_TEXTS:
        pspec._SNAP = None
        text = make()
        own = pspec._SNAP if written else None
        for _ in range(n):
            i = rng.randrange(len(text) + 1)
            cut = rng.randrange(4)
            edited = text[:i] + rng.choice(_PIN_EDITS) + text[i + cut:]
            h.update(edit_outcome(edited, own).encode() + b"\0")
    return h.hexdigest()


def test_edit_outcomes_pinned():
    assert edit_outcomes_digest(False) == EDIT_OUTCOMES_SHA256


# From the snapshot the serialize that made the text leaves, every edit but
# the 3 that give the text back is read whole: the digest is the cold one.
def test_edit_outcomes_pinned_from_the_written_snapshot():
    assert edit_outcomes_digest(True) == EDIT_OUTCOMES_SHA256


# ============================================================
# The snapshot changes no outcome
# ============================================================


def test_base_dropped_from_alphabet(default_lines):
    # The error names the first token with a missing base.
    start = default_lines.index("alphabet:") + 1
    end = default_lines.index("", start)
    bases = " ".join(default_lines[start:end]).split()
    last = default_lines.index("priority:") - 2
    for base in bases[::7]:
        lines = [" ".join(b for b in row.split(" ") if b != base)
                 if start <= n < end else row
                 for n, row in enumerate(default_lines)]
        edited = "\n".join(lines)
        assert edit_outcome(edited, None).startswith(
            f"err:symbols missing from alphabet: {base} ")
        # The last rule line brings one more missing base.
        lines[last] = lines[last].replace("in( ", "in( zz ", 1)
        edited = "\n".join(lines)
        assert edit_outcome(edited, None).startswith(
            f"err:symbols missing from alphabet: {base}, zz ")


def _rule_at(lines, rid):
    """The index of the line of rule rid."""
    return next(n for n, line in enumerate(lines)
                if line.startswith(f"  rule '{rid} "))


def _default_edits(lines):
    """Edits of whole rule lines of the default text, by name: each maps a
    line index to its new text, or to None to delete it; a list of several
    lines inserts them."""
    s102, s107 = _rule_at(lines, "S1R02"), _rule_at(lines, "S1R07_k01_i03")
    s106 = _rule_at(lines, "S1R06")
    named = lines[lines.index("priority:") + 1].split("'")[1].split()[0]
    last = lines.index("priority:") - 1  # the blank line after the rules
    bump = re.sub(r"\^(\d+)", lambda m: f"^{int(m.group(1)) + 1}",
                  lines[s102], count=1)
    more = lines[s107].replace(" )", " pl{1} )", 1)
    return {
        "coefficient": {s102: bump},
        "coefficients": {s102: bump, s107: more},
        "unchanged": {},
        "spacing": {s102: lines[s102].replace(" -> ", "  ->  ")},
        "comment": {s107: more + "  # edited"},
        "two rules on one line": {s107: more + lines[s102][1:]},
        "duplicate id": {s107: lines[s107].replace(
            "'S1R07_k01_i03 ", "'S1R02 ", 1)},
        "priority names a renamed rule": {
            _rule_at(lines, named): lines[_rule_at(lines, named)].replace(
                f"'{named} ", f"'{named}x ", 1)},
        "fresh id": {s107: lines[s107].replace(
            "'S1R07_k01_i03 ", "'S1R07_fresh ", 1)},
        "unknown target": {s107: lines[s107].replace(" at 'P ", " at 'Q9 ")},
        "unknown child": {s106: lines[s106].replace("child( 'P ",
                                                    "child( 'Q9 ")},
        "not a child": {s106: lines[s106].replace("child( 'P ",
                                                  "child( '0 ")},
        "base missing from alphabet": {
            s107: lines[s107].replace(" )", " zz{1} )", 1)},
        "base new to the rule": {s107: lines[s107].replace(" )", " tick )")},
        "rule split over two lines": {
            s102: [lines[s102].split(" in( ")[0],
                   "    in( " + lines[s102].split(" in( ")[1]],
            lines.index("rules:") - 1: None},
        "rule line becomes a clause line": {s102 + 1: "  out( none -> tick )"},
        "rule then an out clause line": {last: "  out( none -> tick )"},
        "rule then an in clause line": {last: "  in( none -> tick )"},
        "inserted rule line": {s102: [lines[s102], lines[s102].replace(
            "'S1R02 ", "'S1R02b ", 1)]},
        "deleted rule line": {s107: None},
        "deleted and inserted": {s107: None, last: [
            lines[s102].replace("'S1R02 ", "'S1R02b ", 1), ""]},
    }


def _edited(lines, edit):
    out = []
    for n, line in enumerate(lines):
        new = edit.get(n, line)
        out += new if isinstance(new, list) else [] if new is None else [new]
    return "\n".join(out)


def test_whole_rule_line_edits_warm_match_cold(default_lines,
                                               written_snapshot):
    # Each edit from the snapshot the serialize of the unedited text left
    # gives the cold outcome: the error with its place, or the same system
    # written back.
    outcomes = {}
    for name, edit in _default_edits(default_lines).items():
        text = _edited(default_lines, edit)
        cold = edit_outcome(text, None)
        assert edit_outcome(text, written_snapshot) == cold, name
        outcomes[name] = cold
    assert outcomes["unchanged"].startswith("ok:")
    assert outcomes["coefficient"] != outcomes["unchanged"]
    assert "duplicate rule id 'S1R02" in outcomes["duplicate id"]
    assert "priority names unknown rule" in outcomes[
        "priority names a renamed rule"]
    assert "targets unknown membrane 'Q9" in outcomes["unknown target"]
    assert "'Q9 is not a child of '0" in outcomes["unknown child"]
    assert "'0 is not a child of '0" in outcomes["not a child"]
    assert "missing from alphabet: zz" in outcomes[
        "base missing from alphabet"]
    assert "duplicate clause 'in'" in outcomes["rule then an in clause line"]


def test_warm_calls_read_and_write_only_what_changed(monkeypatch):
    # The calls of a spec-roundtrip op: each game is written and its text
    # parsed back, game 4 after game 3.
    games = [build_gne_system(sample_experiment(s, "default")) for s in (3, 4)]
    texts = [serialize_system(g) for g in games]
    old, new = (t.split("\n") for t in texts)
    assert sum(map(operator.ne, old, new)) == 9
    pspec._SNAP = None
    serialize_system(games[0])
    lex, text_of = pspec._lex, pspec._rule_text
    read, written = [], []
    monkeypatch.setattr(pspec, "_lex", lambda text: (
        read.append(text), lex(text))[1])
    monkeypatch.setattr(pspec, "_rule_text", lambda r: (
        written.append(r), text_of(r))[1])
    # A parse of the text just written reads no line; the next serialize
    # renders only the rules it does not share.
    parse_system(texts[0])
    assert serialize_system(games[1]) == texts[1]
    back = parse_system(texts[1])
    assert read == []
    assert written == [r for r, q in zip(games[1].rules, games[0].rules)
                       if r is not q]
    # Any other text, here game 3's after game 4's, is read whole.
    parse_system(texts[0])
    assert read == [texts[0]]
    monkeypatch.undo()
    pspec._SNAP = None
    assert systems_equal(back, parse_system(texts[1]))


@pytest.fixture
def lexed(monkeypatch):
    """The texts that _lex reads from here on."""
    texts, lex = [], pspec._lex
    monkeypatch.setattr(pspec, "_lex", lambda text: (
        texts.append(text), lex(text))[1])
    return texts


def test_the_written_text_read_from_a_file_parses_warm(tmp_path, lexed):
    # Another object of the same value as the text serialize returned.
    sysd = build_gne_system(sample_experiment(3, "default"))
    text = serialize_system(sysd)
    path = tmp_path / "game.pspec"
    path.write_bytes(text.encode())
    read = path.read_bytes().decode()
    assert read == text and read is not text
    back = parse_system(read)
    assert lexed == []
    assert all(map(operator.is_, back.rules, sysd.rules))
    assert systems_equal(back, sysd)


def test_a_text_one_newline_longer_parses_cold(lexed):
    sysd = build_gne_system(sample_experiment(3, "default"))
    text = serialize_system(sysd) + "\n"
    from_snapshot = edit_outcome(text, pspec._SNAP)
    assert lexed == [text]
    assert from_snapshot == edit_outcome(text, None) == "ok:" + text[:-1]


def test_a_cold_parse_drops_the_snapshot():
    sysd = build_gne_system(sample_experiment(3, "default"))
    text = serialize_system(sysd)
    serialize_system(build_mult_system(3, 5))
    back = parse_system(text)
    assert pspec._SNAP is None
    assert not any(map(operator.is_, back.rules, sysd.rules))
    assert serialize_system(back) == text


def _cold(call, arg):
    """call(arg) with no snapshot, keeping the one there is."""
    snap, pspec._SNAP = pspec._SNAP, None
    try:
        return call(arg)
    finally:
        pspec._SNAP = snap


def _typed(ms):
    return sorted((s.text, n, type(n)) for s, n in ms.items())


def _view(sysd):
    """Everything in sysd, as values that tell 2 from 2.0 and 1 from True."""
    return ([(node.label, parent and parent.label, node.charge,
              type(node.charge), _typed(node.contents.counts))
             for node, parent in sysd.walk()],
            [(type(r), r, list(map(_typed, pspec._msets(r))))
             for r in sysd.rules], sysd.priority, sysd.name)


def _swap(sysd, rid, swap):
    i = [r.id for r in sysd.rules].index(rid)
    sysd.rules[i] = swap(sysd.rules[i])


def _more(r, s, n=1):
    """r with n more of symbol s among its target's products."""
    return r._replace(produce_in={**r.produce_in, s: n})


_MUTATIONS = {
    "contents": lambda s: s.tree.contents.counts.update({sym("tick"): 5}),
    "charge": lambda s: setattr(s.tree.children[0], "charge", PLUS),
    "rule": lambda s: _swap(s, "S1R02", lambda r: _more(r, sym("zz"))),
    "priority": lambda s: s.priority.append(("S1R02", "S1R06")),
}


@pytest.mark.parametrize("mutation", _MUTATIONS)
@pytest.mark.parametrize("first", ["serialize", "reserialize", "parse"])
def test_snapshot_holds_nothing_the_caller_can_change(first, mutation):
    # The snapshot keeps its own tree and lists: changing the system a call
    # took or gave, cold or warm, changes neither the next parse nor the
    # next serialize.
    mutate = _MUTATIONS[mutation]
    sysd = build_gne_system(sample_experiment(3, "default"))
    pspec._SNAP = None
    text = serialize_system(sysd)
    if first == "reserialize":
        assert serialize_system(sysd) == text
    if first == "parse":
        sysd = parse_system(text)
    mutate(sysd)
    back = parse_system(text)
    assert _view(back) == _view(_cold(parse_system, text))
    assert not systems_equal(back, sysd)
    again = serialize_system(sysd)
    assert again == _cold(serialize_system, sysd) != text
    mutate(back)
    assert serialize_system(back) == again
    assert _view(parse_system(again)) == _view(_cold(parse_system, again))


def _outcome(call, arg):
    try:
        return call(arg)
    except PSpecError as e:
        return f"err:{e}"


# A serialize after a serialize and a parse of the same system with a rule
# swapped: the text, or the error, is the cold one, and so is the parse of
# the text.
@pytest.mark.parametrize("rid,swap", [
    ("S1R02", lambda r: _more(r, sym("pl", 1), 3)),
    ("S1R02", lambda r: _more(r, sym("zz"))),
    ("S1R02", lambda r: _more(r, sym("pl", "x y"))),
    ("S1R02", lambda r: _more(r, sym("pl", 1), 2.0)),
    ("S1R02", lambda r: _more(r, sym("pl", 1), 2.5)),
    ("S1R02", lambda r: r._replace(id="S1R02x")),
    ("S1R02", lambda r: r._replace(id="S1R06")),
    ("S2R10_k01", lambda r: r._replace(id="S2R10_k01x")),
    ("S1R02", lambda r: r._replace(id="has space")),
    ("S1R02", lambda r: r._replace(target="Q9")),
    ("S1R02", lambda r: r._replace(pre=7))],
    ids=["count", "new base", "bad param", "float count", "bad count",
         "renamed", "duplicate id", "renamed in priority", "bad id",
         "unknown target", "bad charge"])
def test_rule_swaps_serialize_as_cold(rid, swap):
    sysd = build_gne_system(sample_experiment(3, "default"))
    pspec._SNAP = None
    parse_system(serialize_system(sysd))
    _swap(sysd, rid, swap)
    try:
        text = _cold(serialize_system, sysd)
    except KeyError:  # a charge with no text is not a PSpecError
        with pytest.raises(KeyError):
            serialize_system(sysd)
        return
    except PSpecError as e:
        text = f"err:{e}"
    assert _outcome(serialize_system, sysd) == text
    if not text.startswith("err:"):
        assert (_outcome(lambda t: _view(parse_system(t)), text)
                == _cold(lambda t: _outcome(
                    lambda u: _view(parse_system(u)), t), text))


def test_serialized_system_parses_back_to_its_rules():
    sysd = build_gne_system(sample_experiment(3, "default"))
    text = serialize_system(sysd)
    back = parse_system(text)
    assert all(map(operator.is_, back.rules, sysd.rules))
    assert systems_equal(back, sysd)
    assert serialize_system(back) == text
    # A game of the same shape shares all but its coefficient rules, whose
    # lines alone are written afresh.
    other = build_gne_system(sample_experiment(4, "default"))
    shared = sum(map(operator.is_, other.rules, sysd.rules))
    assert shared == len(other.rules) - 9
    text = serialize_system(other)
    back = parse_system(text)
    assert all(map(operator.is_, back.rules, other.rules))
    pspec._SNAP = None
    cold = parse_system(text)
    assert not any(map(operator.is_, cold.rules, other.rules))
    assert systems_equal(cold, back)


_CACHED = ("membranes:\n  [ 'm ^0 ]\nrules:\n"
           "  rule 'r at 'm ^0 -> ^0 in( a -> b )\n")


# A rule line followed by a clause line parses alike after a parse, a
# reserialize or a write of the rule line alone.
@pytest.mark.parametrize("warm", [
    lambda: parse_system(_CACHED),
    lambda: serialize_system(parse_system(_CACHED)),
    lambda: serialize_system(PSystem(MembraneNode("m"), [RuleSpec(
        "r", "m", consume_in={sym("a"): 1}, produce_in={sym("b"): 1})]))],
    ids=["parsed", "reserialized", "written"])
def test_cached_rule_line_followed_by_a_clause(warm):
    warm()
    s = parse_system(_CACHED + "  out( c -> d )\n")
    assert s.rules == [RuleSpec("r", "m", consume_in={sym("a"): 1},
                                produce_in={sym("b"): 1},
                                consume_out={sym("c"): 1},
                                produce_out={sym("d"): 1})]
    warm()
    e = check_error(_CACHED + "  in( c -> d )\n", "duplicate clause 'in'")
    assert (e.line, e.col) == (5, 3)


# Parameter lists that run past a newline, hold a '#' or a space, and a
# comment that opens one.
@pytest.mark.parametrize("text,outcome", [
    ("membranes:\n  [ 'm ^0 { a{1,\n2} } ]\n",
     "ok:alphabet:\n  a\n\nmembranes:\n  [ 'm ^0 { a{1,2} } ]\n\nrules:\n"),
    ("membranes:\n  [ 'm ^0 { a{1,#\n2} } ]\n",
     "err:bad parameter '#\\n2' (line 2, col 13)|2|13"),
    ("membranes:\n  [ 'm ^0 { a{1, 2} b } ] # a{3\n",
     "ok:alphabet:\n  a b\n\nmembranes:\n  [ 'm ^0 { a{1,2} b } ]\n\n"
     "rules:\n"),
    ("membranes:\n  [ 'm ^0 { a{1,\n2} } ^* ]\n",
     "err:bad charge; expected ^0, ^+ or ^- (line 3, col 6)|3|6")],
    ids=["newline", "hash", "space and comment", "newline then bad charge"])
def test_multiline_and_commented_parameters(text, outcome):
    assert edit_outcome(text, None) == outcome


def test_written_tree_is_read_back_as_a_cold_parse_reads_it():
    tree = MembraneNode("m", [MembraneNode("c", charge=True)],
                        Multiset({sym("a"): 2.0, sym("b"): True}))
    pspec._SNAP = None
    text = serialize_system(PSystem(tree, []))
    assert "[ 'm ^0 { a^2 b }" in text and "[ 'c ^+ ]" in text
    assert _view(parse_system(text)) == _view(_cold(parse_system, text))


def test_written_repeated_label_is_refused_as_a_cold_parse_refuses_it():
    tree = MembraneNode("m", [MembraneNode("c"), MembraneNode("c")])
    pspec._SNAP = None
    text = serialize_system(PSystem(tree, []))
    warm = check_error(text, "duplicate membrane label 'c", line=4, col=7)
    assert str(_cold(lambda t: check_error(t, "duplicate"), text)) == str(warm)


def test_float_count_is_written_as_int_and_read_back_as_int():
    r = RuleSpec("r", "m", consume_in={sym("a"): 2.0},
                 produce_in={sym("b"): 1})
    sysd = PSystem(MembraneNode("m"), [r])
    text = serialize_system(sysd)
    assert "in( a^2 -> b )" in text
    back = parse_system(text)
    assert back.rules[0] is not r and back.rules[0] == r
    assert type(back.rules[0].consume_in[sym("a")]) is int
    assert serialize_system(back) == text


def test_table_keeps_only_the_last_system():
    default = serialize_system(build_gne_system(
        sample_experiment(5, "default")))
    mult = serialize_system(build_mult_system(6, 7))
    pspec._SNAP = None
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        serialize_system(parse_system(default))
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - base
        assert len(pspec._SNAP.rules) == 1976
        serialize_system(parse_system(mult))
        gc.collect()
        left = tracemalloc.get_traced_memory()[0] - base
        assert len(pspec._SNAP.rules) == 44
    finally:
        tracemalloc.stop()
    assert held > 1_000_000
    assert left < held / 10
