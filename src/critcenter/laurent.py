"""Exact Laurent series arithmetic over the rationals.

Coefficients are exact scalars in the package's canonical form
(``lincomb.canonical``): an int when integral, a `fractions.Fraction`
otherwise, never zero and never a float, so ``coefficient`` and ``residue``
may return an int.  A LaurentElement is a finite rational combination of
integer powers of t, optionally truncated: when ``precision`` is set to p,
coefficients of t^k for k >= p are unknown and the element stands for its
stored part plus O(t^p).  Exact (untruncated) elements have
``precision is None``.

The valuation of the exact zero element is the sentinel ``INFINITY``, which
compares greater than every integer.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    PrecisionExhaustedError,
    UndeterminedCoefficientError,
    UndeterminedResidueError,
    UndeterminedValuationError,
    ValidationError,
    ZeroDivisorError,
)
from .lincomb import canonical

Scalar = Fraction


def scalar_from_str(text):
    """Parse "num/den" (or a bare integer string) into a Fraction."""
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"not a rational number: {text!r}") from exc


def int_from_json(value, what):
    """A JSON integer; floats, strings and booleans raise ValidationError."""
    if type(value) is not int:
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    return value


def scalar_to_str(value):
    return str(Fraction(value))


class _Infinity:
    """Sentinel for the valuation of zero; larger than every integer."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __neg__(self):
        raise ArithmeticError("negative infinity is not modelled")

    def __repr__(self):
        return "INFINITY"


INFINITY = _Infinity()


def _normal(table, precision):
    """The nonzero terms of ``table`` below the precision, values canonical."""
    return {
        k: canonical(c)
        for k, c in table.items()
        if c and (precision is None or k < precision)
    }


def _min_prec(p, q):
    if p is None:
        return q
    if q is None:
        return p
    return min(p, q)


class LaurentElement:
    """A Laurent polynomial/truncated series with exact coefficients.

    Stored as a map exponent -> nonzero canonical coefficient.  When
    ``precision`` is set, no stored exponent reaches it.
    """

    __slots__ = ("_coeff", "precision")

    def __init__(self, coeff=None, precision=None):
        table = {}
        if coeff:
            for k, c in (coeff.items() if isinstance(coeff, dict) else coeff):
                k = int(k)
                table[k] = table.get(k, 0) + canonical(c)
        self._coeff = _normal(table, precision)
        self.precision = precision

    @classmethod
    def _adopt(cls, table, precision):
        """An element of the terms of ``table``, whose values are int or Fraction."""
        obj = cls.__new__(cls)
        obj._coeff = _normal(table, precision)
        obj.precision = precision
        return obj

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, precision=None):
        return cls({}, precision)

    @classmethod
    def one(cls):
        return cls({0: 1})

    @classmethod
    def monomial(cls, exponent, coefficient=1):
        return cls({int(exponent): coefficient})

    @classmethod
    def constant(cls, value):
        return cls({0: value})

    # -- basic queries -----------------------------------------------------

    def items(self):
        return sorted(self._coeff.items())

    def is_zero(self):
        """True when the element is exactly zero (not merely zero mod t^p)."""
        return not self._coeff and self.precision is None

    def is_zero_mod_precision(self):
        return not self._coeff

    def coefficient(self, k):
        """The coefficient of t^k; errors if k is hidden by the precision."""
        if self.precision is not None and k >= self.precision:
            raise UndeterminedCoefficientError(
                f"coefficient of t^{k} not determined at precision O(t^{self.precision})"
            )
        return self._coeff.get(k, 0)

    def residue(self):
        """The coefficient of t^-1."""
        if self.precision is not None and self.precision <= -1:
            raise UndeterminedResidueError(
                f"residue not determined at precision O(t^{self.precision})"
            )
        return self._coeff.get(-1, 0)

    def valuation(self):
        """Smallest exponent with nonzero coefficient; INFINITY for zero."""
        if self._coeff:
            return min(self._coeff)
        if self.precision is not None:
            raise UndeterminedValuationError(
                f"element is zero up to O(t^{self.precision}); valuation undetermined"
            )
        return INFINITY

    def _lower_bound(self):
        # Smallest exponent that could carry a nonzero coefficient.
        if self._coeff:
            return min(self._coeff)
        return self.precision  # None for exact zero

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, LaurentElement):
            return NotImplemented
        prec = _min_prec(self.precision, other.precision)
        table = dict(self._coeff)
        for k, c in other._coeff.items():
            table[k] = table.get(k, 0) + c
        return self._adopt(table, prec)

    def __neg__(self):
        return self._adopt({k: -c for k, c in self._coeff.items()}, self.precision)

    def __sub__(self, other):
        if not isinstance(other, LaurentElement):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, LaurentElement):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return LaurentElement.zero()
        prec = None
        if other.precision is not None:
            lb = self._lower_bound()
            prec = _min_prec(prec, None if lb is None else lb + other.precision)
        if self.precision is not None:
            lb = other._lower_bound()
            prec = _min_prec(prec, None if lb is None else lb + self.precision)
        table = {}
        for k1, c1 in self._coeff.items():
            for k2, c2 in other._coeff.items():
                k = k1 + k2
                if prec is not None and k >= prec:
                    continue
                table[k] = table.get(k, 0) + c1 * c2
        return self._adopt(table, prec)

    __rmul__ = __mul__

    def scale(self, scalar):
        scalar = canonical(scalar)
        if not scalar:
            return LaurentElement.zero()
        return self._adopt(
            {k: c * scalar for k, c in self._coeff.items()}, self.precision
        )

    # -- calculus ----------------------------------------------------------

    def derivative(self):
        """Termwise d/dt; the precision bound drops by one."""
        prec = None if self.precision is None else self.precision - 1
        return self._adopt(
            {k - 1: k * c for k, c in self._coeff.items() if k != 0}, prec
        )

    def invert(self, order):
        """A series b with self*b = 1 + O(t^order); b has valuation -v(self).

        A single stored monomial inverts exactly.  Otherwise the result is
        precision-tracked and truncated at the requested order: writing
        self = t^v (c_0 + c_1 t + ...), its coefficients b_k (at t^(k-v))
        follow from b_0 = 1/c_0 and b_k = -(1/c_0) sum_{j=1..k} c_j b_{k-j}.
        """
        if self.is_zero():
            raise ZeroDivisorError("cannot invert the zero series")
        v = self.valuation()  # raises UndeterminedValuationError on O(t^p) zero
        inverse = Fraction(1) / self._coeff[v]
        if len(self._coeff) == 1 and self.precision is None:
            return LaurentElement.monomial(-v, inverse)
        effective = order
        if self.precision is not None:
            effective = min(effective, self.precision - v)
        if effective <= 0:
            raise PrecisionExhaustedError(
                f"cannot invert to order {order} with input precision O(t^{self.precision})"
            )
        tail = sorted((k - v, c) for k, c in self._coeff.items() if k != v)
        b = [inverse]
        for k in range(1, effective):
            total = 0
            for j, c in tail:
                if j > k:
                    break
                total += c * b[k - j]
            b.append(-total * inverse)
        return self._adopt({k - v: c for k, c in enumerate(b)}, effective - v)

    def truncate(self, precision):
        return self._adopt(self._coeff, _min_prec(self.precision, precision))

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, LaurentElement):
            return NotImplemented
        return self._coeff == other._coeff and self.precision == other.precision

    def __hash__(self):
        return hash((tuple(sorted(self._coeff.items())), self.precision))

    def agrees_with(self, other, upto=None):
        """Equality of all coefficients determined on both sides (below upto)."""
        bound = _min_prec(self.precision, other.precision)
        bound = _min_prec(bound, upto)
        exps = set(self._coeff) | set(other._coeff)
        for k in exps:
            if bound is not None and k >= bound:
                continue
            if self._coeff.get(k, 0) != other._coeff.get(k, 0):
                return False
        return True

    # -- presentation ------------------------------------------------------

    def __repr__(self):
        return f"LaurentElement({self!s})"

    def __str__(self):
        parts = []
        for k, c in self.items():
            if k == 0:
                parts.append(str(c))
            else:
                base = "t" if k == 1 else f"t^{k}"
                if c == 1:
                    parts.append(base)
                elif c == -1:
                    parts.append(f"-{base}")
                else:
                    parts.append(f"{c}*{base}")
        body = " + ".join(parts).replace("+ -", "- ") if parts else "0"
        if self.precision is not None:
            tail = f"O(t^{self.precision})"
            body = tail if body == "0" else f"{body} + {tail}"
        return body

    # -- serialization -----------------------------------------------------

    def to_json(self):
        data = {"terms": [[k, scalar_to_str(c)] for k, c in self.items()]}
        if self.precision is not None:
            data["precision"] = self.precision
        return data

    @classmethod
    def from_json(cls, data):
        if isinstance(data, list):
            data = {"terms": data}
        if not isinstance(data, dict) or "terms" not in data:
            raise ValidationError(f"not a Laurent element: {data!r}")
        try:
            terms = [
                (int_from_json(k, "exponent"), scalar_from_str(c))
                for k, c in data["terms"]
            ]
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"bad Laurent terms: {exc}") from exc
        prec = data.get("precision")
        return cls(terms, None if prec is None else int_from_json(prec, "precision"))
