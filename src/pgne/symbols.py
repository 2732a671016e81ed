"""Interned object symbols and integer multisets.

Membrane systems shuffle enormous numbers of identical objects around, so
the representation here is deliberately plain: a symbol is an interned
(base, params) pair and a region's contents is a dict mapping symbol to
count.  Interning makes symbol equality a pointer comparison, which is
where a naive implementation spends most of its time.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Tuple


class Sym:
    """An object species: a base name plus a tuple of integer/str parameters.

    Instances are interned; use :func:`sym` to obtain one.  Equality and
    hashing are identity-based.
    """

    __slots__ = ("base", "params", "_text")

    def __init__(self, base: str, params: Tuple) -> None:
        self.base = base
        self.params = params
        if params:
            self._text = base + "{" + ",".join(str(p) for p in params) + "}"
        else:
            self._text = base

    def __repr__(self) -> str:
        return self._text

    def __reduce__(self):
        # pickle, copy and deepcopy rebuild through `sym`, so they give back
        # the interned symbol: a fresh Sym would equal no other.
        return sym, (self.base, *self.params)

    @property
    def text(self) -> str:
        return self._text


_INTERN: Dict[Tuple[str, Tuple], Sym] = {}


def sym(base: str, *params) -> Sym:
    """Return the unique Sym for this base and parameter tuple.

    A new symbol's parameters must be ints or strs: a bool or a float would
    intern equal to an int, and the text would depend on which came first.
    """
    key = (base, params)
    s = _INTERN.get(key)
    if s is None:
        if any(isinstance(p, (bool, float)) for p in params):
            raise TypeError(f"{base}{params}: parameters must be ints or strs")
        s = Sym(base, params)
        _INTERN[key] = s
    return s


class Multiset:
    """A finite multiset of Syms with non-negative integer counts.

    Zero-count entries are never stored, so two multisets with equal
    contents have equal dicts.
    """

    __slots__ = ("counts",)

    def __init__(self, counts: Mapping[Sym, int] | None = None) -> None:
        self.counts: Dict[Sym, int] = {}
        if counts:
            for s, n in counts.items():
                if n < 0:
                    raise ValueError(f"negative multiplicity for {s}: {n}")
                if n:
                    self.counts[s] = n

    @classmethod
    def of(cls, *items: Sym | Tuple[Sym, int]) -> "Multiset":
        counts: Dict[Sym, int] = {}
        for it in items:
            s, n = it if isinstance(it, tuple) else (it, 1)
            counts[s] = counts.get(s, 0) + n
        return cls(counts)

    def get(self, s: Sym) -> int:
        return self.counts.get(s, 0)

    def items(self) -> Iterable[Tuple[Sym, int]]:
        return self.counts.items()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Multiset):
            return self.counts == other.counts
        return NotImplemented

    def __repr__(self) -> str:
        if not self.counts:
            return "~"
        parts = []
        for s in sorted(self.counts, key=lambda t: t.text):
            n = self.counts[s]
            parts.append(s.text if n == 1 else f"{s.text}^{n}")
        return " ".join(parts)
