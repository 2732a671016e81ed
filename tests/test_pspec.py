"""Parser, serializer, and round-trip checks for the system text format."""

from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    t = parse_system(serialize_system(s))
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
    assert systems_equal(parse_system(serialize_system(s)), s)


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
def default_lines():
    sysd = build_gne_system(sample_experiment(27, "default"))
    return serialize_system(sysd).split("\n")


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
    # Parsing keeps open membranes on a stack, so depth costs no recursion.
    # Compared by walk, since systems_equal's dataclass == recurses.
    n = 5000
    tree = MembraneNode(f"m{n - 1}", contents=Multiset({sym("a"): 1}))
    for i in range(n - 2, -1, -1):
        tree = MembraneNode(f"m{i}", children=[tree], charge=i % 3 - 1)
    sysd = PSystem(tree, [RuleSpec("r", f"m{n - 1}", consume_in={sym("a"): 1},
                                   produce_out={sym("b"): 1})])
    back = parse_system(serialize_system(sysd))

    def view(s):
        return [(node.label, parent and parent.label, node.charge,
                 node.contents.counts) for node, parent in s.walk()]
    assert view(back) == view(sysd)
    trace = run(back, max_steps=5)
    assert trace.halted and trace.steps == 1
    assert read_region(trace.final, f"m{n - 2}").counts == {sym("b"): 1}


def test_systems_equal_detects_differences():
    s = parse_system(SMALL)
    t = parse_system(SMALL)
    assert systems_equal(s, t)
    t.rules[0].produce_in[sym("done")] = 2
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
        r = RuleSpec(f"r{n}", target.label, draw(_CHARGE), draw(_CHARGE))
        if draw(st.booleans()):
            r.consume_in, r.produce_in = draw(_MSET), draw(_MSET)
        if draw(st.booleans()):
            r.consume_out, r.produce_out = draw(_MSET), draw(_MSET)
        if target.children and draw(st.booleans()):
            child = draw(st.sampled_from(target.children))
            r.child = ChildPattern(child.label, draw(_CHARGE), draw(_CHARGE),
                                   draw(_MSET), draw(_MSET))
        rules.append(r)
    # Pairs point down the declaration order, so the relation is acyclic.
    pairs = [(a.id, b.id) for i, a in enumerate(rules) for b in rules[i + 1:]]
    priority = draw(st.lists(st.sampled_from(pairs), unique=True)
                    if pairs else st.just([]))
    return PSystem(tree, rules, priority,
                   draw(st.sampled_from(["", "demo", "g.1"])))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(random_systems())
def test_fuzz_round_trip(sysd):
    text = serialize_system(sysd)
    back = parse_system(text)
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
    "fafb4796c748cc8c8a1a0bf907eed60785c0ae0a2d760556521299783ed4fc55")


def test_edit_outcomes_pinned():
    rng = random.Random(0)
    h = hashlib.sha256()
    for make, n in _PIN_TEXTS:
        text = make()
        for _ in range(n):
            i = rng.randrange(len(text) + 1)
            cut = rng.randrange(4)
            edited = text[:i] + rng.choice(_PIN_EDITS) + text[i + cut:]
            try:
                outcome = "ok:" + serialize_system(parse_system(edited))
            except PSpecError as e:
                outcome = f"err:{e}|{e.line}|{e.col}"
            h.update(outcome.encode() + b"\0")
    assert h.hexdigest() == EDIT_OUTCOMES_SHA256
