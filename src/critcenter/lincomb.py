"""Finite exact linear combinations of hashable keys.

The sparse exact types (NC polynomials, module vectors, commutative symbols)
are all a dict from a normal-form key to a nonzero scalar in canonical form:
an int when integral, else a Fraction (``hash(3) == hash(Fraction(3))``, so
equality and hashing cannot tell).  This module owns that representation:
sums accumulate into one dict and delete the keys that cancel, so no table
ever stores a zero and equality is dict equality.
"""

from __future__ import annotations

from fractions import Fraction


def canonical(value):
    """An exact scalar as an int when integral, else as a Fraction."""
    if type(value) is int:
        return value
    if type(value) is not Fraction:
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def _accumulate(table, terms, scale=1):
    """Add scale * terms into table in place, deleting cancelled keys.

    ``terms`` maps keys to int or Fraction values, never zero, and so does
    ``table`` afterwards.  Callers own ``table``: it must never be a dict
    that a cache or another combination holds.
    """
    if not scale:
        return
    for key, c in terms.items():
        c = c * scale
        old = table.get(key)
        if old is not None:
            c += old
            if not c:
                del table[key]
                continue
        if type(c) is not int and c.denominator == 1:
            c = c.numerator
        table[key] = c


class LinComb:
    """A finite exact combination of keys with no zero coefficient.

    Subclasses that use this constructor define ``_key``, which brings a key
    given to it into normal form.  Tables built elsewhere already hold normal
    keys and int or Fraction values, never zero; ``_adopt`` wraps them.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        table = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for key, c in items:
                c = canonical(c)
                if c:
                    key = self._key(key)
                    c = canonical(c + table.get(key, 0))
                    if c:
                        table[key] = c
                    else:
                        del table[key]
        self._terms = table

    @classmethod
    def _adopt(cls, table):
        """Wrap a table of normal keys whose values are int or Fraction, never zero.

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
        table = {}
        _accumulate(table, self._terms, canonical(scalar))
        return self._new(table)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))
