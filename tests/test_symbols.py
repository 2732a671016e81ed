"""Interning, symbol text, and multiset construction."""

from __future__ import annotations

import copy
import pickle

import pytest

from pgne import ENV_LABEL, build_mult_system, read_region, run
from pgne.engine import RuleSpec
from pgne.symbols import Multiset, sym


def test_interning_is_identity():
    assert sym("a") is sym("a")
    assert sym("pay", 1, 2) is sym("pay", 1, 2)
    assert sym("pay", 1, 2) is not sym("pay", 2, 1)
    assert sym("a") is not sym("a", 0)


@pytest.mark.parametrize("base, param", [("ratio", 1.5), ("flag", True)])
def test_sym_refuses_bool_and_float(base, param):
    # Each equals an int, so interning would alias it with one; a refusal
    # leaves nothing behind for the int to alias.
    with pytest.raises(TypeError, match="ints or strs"):
        sym(base, param)
    assert sym(base, int(param)).text == f"{base}{{{int(param)}}}"


@pytest.mark.parametrize("s", [sym("a"), sym("share", 1, 2, 3)])
def test_copies_give_back_the_interned_symbol(s):
    assert pickle.loads(pickle.dumps(s)) is s
    assert copy.copy(s) is s
    assert copy.deepcopy(s) is s


def test_copied_rules_and_systems_keep_their_symbols():
    rule = RuleSpec("r", "m", consume_in={sym("a"): 1})
    assert copy.deepcopy(rule) == rule
    # An unpickled system's symbols are the ones its rules and a reader
    # look up, so it still multiplies.
    final = run(pickle.loads(pickle.dumps(build_mult_system(7, 8))), 100).final
    assert read_region(final, ENV_LABEL).get(sym("unit")) == 56


def test_text_forms():
    assert sym("unit").text == "unit"
    assert sym("share", 1, 3, 2).text == "share{1,3,2}"
    assert sym("w", "k", 4).text == "w{k,4}"


def test_multiset_basics():
    m = Multiset.of(sym("a"), (sym("b"), 3), sym("a"))
    assert m.get(sym("a")) == 2
    assert m.get(sym("b")) == 3
    assert m.get(sym("c")) == 0
    assert dict(m.items()) == m.counts == {sym("a"): 2, sym("b"): 3}
    assert m == Multiset({sym("b"): 3, sym("a"): 2})
    assert repr(m) == "a^2 b^3" and repr(Multiset()) == "~"


def test_zero_counts_never_stored():
    m = Multiset({sym("a"): 0, sym("b"): 2})
    assert sym("a") not in m.counts
    assert Multiset.of((sym("b"), 0)) == Multiset()


def test_negative_counts_rejected():
    with pytest.raises(ValueError):
        Multiset({sym("a"): -1})
    with pytest.raises(ValueError):
        Multiset.of(sym("a"), (sym("a"), -2))
