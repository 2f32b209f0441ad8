"""Finite exact linear combinations of hashable keys.

The sparse exact types (NC polynomials, module vectors) are each a dict
from a normal-form key to a nonzero scalar in canonical form: an int when
integral, else a Fraction (``hash(3) == hash(Fraction(3))``, so
equality and hashing cannot tell).  This module owns that representation:
sums accumulate into one dict and delete the keys that cancel, so no table
ever stores a zero and equality is dict equality.  It also owns their text
form (``signed_sum``, shared with Laurent elements) and their JSON form, a
list of ``{"coeff": "num/den", "word": [token, ...]}``.

The tables, and the memos that map words to them, are acyclic: a key is
a tuple of generators, a value a scalar or, in a memo, a table, and
nothing refers back to the dict that holds it.  The keys are tuples of a
tuple subclass (``algebra.Gen``), which the cyclic garbage collector never
stops tracking, so each collection walks every live table again; left on,
collection takes over a quarter of the n = 7 chain's time.  The chain's
stages build and drop such tables, and each frees all it drops by
reference counting (``tests/test_memo_lifetimes.py`` checks that none
leaves cyclic garbage), so a collection during a stage frees nothing that
one after it would not.  ``gc_paused`` therefore switches the collector
off for the length of a stage.
"""

from __future__ import annotations

import functools
import gc
from fractions import Fraction

from .errors import ValidationError


def canonical(value):
    """An int or a Fraction, as an int when integral.

    Any other value raises ValidationError: a float, a bool, a Decimal or a
    string is not an exact scalar here.  Text goes through
    ``scalar_from_str``.
    """
    if type(value) is int:
        return value
    if type(value) is not Fraction:
        raise ValidationError(f"scalar must be an int or a Fraction, got {value!r}")
    return value.numerator if value.denominator == 1 else value


def scalar_from_str(text):
    """Parse "num/den" (or a bare integer string) into a Fraction.

    Exponent notation is refused: "1e999999999" would build 10**999999999.
    """
    try:
        if "e" in str(text).lower():
            raise ValueError("exponent notation")
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"not a rational number: {text!r}") from exc


def scalar_to_str(value):
    return str(Fraction(value))


def gc_paused(stage):
    """Run ``stage`` with the cyclic garbage collector off, as the module docstring allows.

    An enabled collector is enabled again when the stage returns or raises;
    one that the caller disabled stays off, so nested stages leave it to
    the outermost.
    """

    @functools.wraps(stage)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return stage(*args, **kwargs)
        gc.disable()
        try:
            return stage(*args, **kwargs)
        finally:
            gc.enable()

    return paused


def signed_sum(terms):
    """The text of sum c * body over (c, body) pairs, as "a - b", never "a + -b".

    A unit coefficient is left out, and an empty body stands for the bare
    scalar c.  The empty sum is "0".
    """
    parts = []
    for c, body in terms:
        if not body:
            parts.append(str(c))
        elif c == 1:
            parts.append(body)
        elif c == -1:
            parts.append(f"-{body}")
        else:
            parts.append(f"{c}*{body}")
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"


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
    keys and int or Fraction values, never zero; ``_adopt`` wraps them.  Text
    and JSON read a key as a word, a tuple of factors: shorter words display
    first (``_display_key``), and a key's JSON word is the repr of each
    factor (``_tokens``).  A subclass may override these and ``_body``, a
    key's text.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        table = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for key, c in items:
                c = canonical(c)
                if c:
                    _accumulate(table, {self._key(key): c})
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

    # -- presentation ------------------------------------------------------

    @staticmethod
    def _display_key(key):
        return len(key), key

    @staticmethod
    def _tokens(key):
        return [repr(factor) for factor in key]

    def _body(self, key):
        return "*".join(self._tokens(key)) or "1"

    def items(self):
        """The terms as (key, coeff) pairs in display order."""
        order = self._display_key
        return sorted(self._terms.items(), key=lambda kv: order(kv[0]))

    def __str__(self):
        return signed_sum((c, self._body(key)) for key, c in self.items())

    __repr__ = __str__

    def to_json(self):
        return [
            {"coeff": scalar_to_str(c), "word": self._tokens(key)}
            for key, c in self.items()
        ]

    @staticmethod
    def _terms_from_json(data, read_word):
        """(coeff, read_word(word)) per JSON term; a word is a list of token strings."""
        if not isinstance(data, list):
            raise ValidationError(f"not a list of terms: {data!r}")
        terms = []
        for term in data:
            if not isinstance(term, dict) or not {"coeff", "word"} <= term.keys():
                raise ValidationError(f"not a {{coeff, word}} term: {term!r}")
            word = term["word"]
            if not isinstance(word, list) or not all(isinstance(t, str) for t in word):
                raise ValidationError(f"a word is a list of token strings, not {word!r}")
            terms.append((scalar_from_str(term["coeff"]), read_word(word)))
        return terms
