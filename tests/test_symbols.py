"""Interning, symbol text, and multiset arithmetic."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

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


def test_text_forms():
    assert sym("unit").text == "unit"
    assert sym("share", 1, 3, 2).text == "share{1,3,2}"
    assert sym("w", "k", 4).text == "w{k,4}"


def test_multiset_basics():
    m = Multiset.of(sym("a"), (sym("b"), 3))
    assert m.get(sym("a")) == 1
    assert m[sym("b")] == 3
    assert m.total() == 4
    assert sym("a") in m and sym("c") not in m
    m.add(sym("a"), 2)
    m.remove(sym("b"), 3)
    assert m.counts == {sym("a"): 3}


def test_zero_counts_never_stored():
    m = Multiset({sym("a"): 0, sym("b"): 2})
    assert sym("a") not in m.counts
    m.add(sym("b"), -2)
    assert m.counts == {}
    assert Multiset() == m


def test_negative_counts_rejected():
    with pytest.raises(ValueError):
        Multiset({sym("a"): -1})
    m = Multiset.of(sym("a"))
    with pytest.raises(ValueError):
        m.remove(sym("a"), 2)


def test_update_with_scale():
    m = Multiset({sym("a"): 1})
    m.update({sym("a"): 2, sym("b"): 1}, scale=3)
    assert m.counts == {sym("a"): 7, sym("b"): 3}


@given(st.dictionaries(st.sampled_from("abcde"), st.integers(0, 50),
                       max_size=5),
       st.dictionaries(st.sampled_from("abcde"), st.integers(0, 50),
                       max_size=5))
def test_update_then_downdate_is_identity(d1, d2):
    base = {sym(k): v for k, v in d1.items() if v}
    extra = {sym(k): v for k, v in d2.items()}
    m = Multiset(base)
    m.update(extra, scale=1)
    m.update(extra, scale=-1)
    assert m.counts == base
