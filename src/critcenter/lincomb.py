"""Finite rational linear combinations of hashable keys.

The sparse exact types (NC polynomials, module vectors, commutative symbols)
are all a dict from a normal-form key to a nonzero Fraction.  This module
owns that representation: sums accumulate into one dict and delete the keys
that cancel, so no table ever stores a zero and equality is dict equality.
"""

from __future__ import annotations

from fractions import Fraction


def _accumulate(table, terms, scale=1):
    """Add scale * terms into table in place, deleting cancelled keys.

    ``terms`` maps keys to nonzero Fractions, so a nonzero ``scale`` keeps
    every value in ``table`` a nonzero Fraction.  Callers own ``table``: it
    must never be a dict that a cache or another combination holds.
    """
    if not scale:
        return
    for key, c in terms.items():
        old = table.get(key)
        if old is None:
            table[key] = c * scale
            continue
        c = old + c * scale
        if c:
            table[key] = c
        else:
            del table[key]


class LinComb:
    """A finite rational combination of keys with no zero coefficient.

    Subclasses that use this constructor define ``_key``, which brings a key
    given to it into normal form.  Tables built elsewhere already hold
    normal keys and nonzero Fractions; ``_adopt`` wraps them as they stand.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        table = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for key, c in items:
                c = Fraction(c)
                if c:
                    key = self._key(key)
                    c += table.get(key, 0)
                    if c:
                        table[key] = c
                    else:
                        del table[key]
        self._terms = table

    @classmethod
    def _adopt(cls, table):
        """Wrap a table of normal keys with nonzero Fraction values.

        The combination takes ownership of ``table`` without copying or
        re-normalising it, so sums built in one dict stay linear.
        """
        obj = cls.__new__(cls)
        obj._terms = table
        return obj

    def _new(self, table):
        """A combination of the same kind as self that adopts ``table``."""
        return type(self)._adopt(table)

    @classmethod
    def zero(cls, *context):
        """The empty combination; ``context`` is what the constructor takes first."""
        return cls(*context)

    def is_zero(self):
        return not self._terms

    def __add__(self, other):
        table = dict(self._terms)
        _accumulate(table, other._terms)
        return self._new(table)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, scalar):
        scalar = Fraction(scalar)
        if not scalar:
            return self._new({})
        return self._new({key: c * scalar for key, c in self._terms.items()})

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))
