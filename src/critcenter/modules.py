"""Root modules and the action of Fourier coefficients on them.

A root function assigns a depth r(i, j) >= 0 to every matrix position, with
r(i, i) > 0 and the subadditivity r(i, j) + r(j, k) >= r(i, k); the span of
the e_ij[u] with u >= r(i, j) is then a subalgebra of gl_n[[t]] on which the
central extension splits.  The root module it induces is generated by a
vector v_0 with e_ij[u].v_0 = 0 for u >= r(i, j), and has a PBW basis of
ordered creation monomials (factors e_ij[u] with u < r(i, j), sorted by
degree then index) applied to v_0.

Generators act by straightening: annihilators commute rightwards through a
creation word until they reach v_0, collecting bracket and central terms on
the way; at the critical level the central element acts as 1 and all results
are exact.

States (vacuum-module vectors, i.e. words of negative-degree generators) act
through their fields.  The field of x[-m-1] is the m-th divided z-derivative
of the field of x[-1], with coefficients

    (x[-m-1])_(p) = (-1)^m binom(p, m) x[p - m],

and the field of a product state is the normally ordered product, giving the
recursion

    (x[-m-1] B)_(s) v = sum_{p <= -1} c_p x[p-m] (B_(s-p-1) v)
                      + sum_{p >= 0} c_p B_(s-p-1) (x[p-m] v),

with c_p the coefficient above.  The recursion reads B only through its
modes B_(s), so B may be any product expression: a word, or a node of the
first-column minor table of cdet(tau + E[-1]) (``sugawara.ss_nodes``), a
sum of terms coef * x[-m-1] * child whose children are nodes again.  The
vanishing scan reads each S_l, and its certified bound, from its node and
never straightens it into PBW words; the straightened S_l is the test oracle.

Both sums are truncated by certified annihilation bounds derived from the
basic vanishing rule: a word x_{n_1} ... x_{n_k} kills v_0 whenever
sum n_i >= sum r(alpha_i).  Every truncation is certified, never heuristic,
so reported zeroes are exact.

When every depth r(i, j) is at most 1, a sharper truncation holds, by loop
degree; it holds at any level.  The module is graded by loop degree: v_0 has
degree 0, e_ij[u] raises degree by u, and the cocycle pairs only modes of
opposite degree.  Every creation factor has u < r(i, j) <= 1, so every PBW
monomial has degree <= 0 and every vector of positive degree is 0.  Give a
word the degree D = sum u of its factors, and a MinorNode F[R, J] the degree
J - |R| (``RootModule._degree``).  On a monomial of degree d, word_(s) has
degree d + s + 1 + D, by induction on the recursion: both terms of
(x[-m-1] B)_(s) have degree (p - m) + (d + s - p + deg B) = d + s + 1 + D,
and ()_(-1) is the identity.  Hence the degree cut:

    word_(s) mono = 0 for s >= -D - d,   and   x[p - m] mono = 0 for p - m > -d.

The scan uses the cut only to skip work: it truncates both sums and the
scan's starting cell, while the bounds it reports stay the depth bounds.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction

from .algebra import AffineAlgebra, BilinearForm, Gen, gen_from_str, gen_sort_key
from .errors import DomainError, ValidationError
from .laurent import LaurentElement, scalar_from_str, scalar_to_str
from .lincomb import LinComb, _accumulate, canonical
from .pbw import NCPoly
from .sugawara import MinorNode, ss_nodes
from .diffop import Oper, irregularity


def _gbinom(top, k):
    """binom(top, k) for any integer top and k >= 0, as an exact integer."""
    if k < 0:
        return 0
    value = 1
    for step in range(k):
        value *= top - step
    return value // math.factorial(k)


def _field_mode(head, m, p):
    """The mode x[p - m] and coefficient (-1)^m binom(p, m) of (x[-m-1])_(p)."""
    return Gen(head.i, head.j, p - m), (-1) ** (m % 2) * _gbinom(p, m)


class RootFunction:
    """Depth function r(i, j) on the full index square {1..n}^2."""

    def __init__(self, n, values, kind="custom", params=None, _allow_zero_diagonal=False):
        self.n = n
        self._values = {}
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                try:
                    v = int(values[(i, j)])
                except KeyError as exc:
                    raise ValidationError(f"missing depth at {(i, j)}") from exc
                self._values[(i, j)] = v
        self.kind = kind
        self.params = dict(params or {})
        self._validate(_allow_zero_diagonal)

    def _validate(self, allow_zero_diagonal):
        n = self.n
        for (i, j), v in self._values.items():
            if v < 0:
                raise ValidationError(f"negative depth r{(i, j)} = {v}")
            if i == j and v == 0 and not allow_zero_diagonal:
                raise ValidationError(f"diagonal depth r{(i, i)} must be positive")
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                for k in range(1, n + 1):
                    if self(i, j) + self(j, k) < self(i, k):
                        raise ValidationError(
                            f"subadditivity fails: r{(i, j)}+r{(j, k)} < r{(i, k)}"
                        )

    def __call__(self, i, j):
        return self._values[(i, j)]

    def __eq__(self, other):
        if not isinstance(other, RootFunction):
            return NotImplemented
        return self.n == other.n and self._values == other._values

    def describe(self):
        def fmt(value):
            if isinstance(value, tuple):
                return "(" + ", ".join(str(c) for c in value) + ")"
            return str(value)

        inner = ", ".join(f"{k}={fmt(v)}" for k, v in sorted(self.params.items()))
        return f"{self.kind}(n={self.n}{', ' + inner if inner else ''})"

    __repr__ = describe

    def as_matrix(self):
        return [
            [self(i, j) for j in range(1, self.n + 1)] for i in range(1, self.n + 1)
        ]

    def threshold(self, ell):
        """Theoretical vanishing threshold for the degree-l operators (or None)."""
        if self.kind == "constant":
            return ell * self.params["m"]
        if self.kind == "km0":
            return self.params["m"] + ell - 1
        if self.kind == "moy-prasad":
            return math.ceil((self.params["r"] + 1) * ell)
        return None


def root_fn_constant(n, m):
    """r(i, j) = m everywhere: the congruence subalgebra t^m gl_n[[t]]."""
    if m <= 0:
        raise DomainError("congruence depth m must be positive")
    values = {(i, j): m for i in range(1, n + 1) for j in range(1, n + 1)}
    return RootFunction(n, values, "constant", {"m": m})


def root_fn_km0(n, m):
    """Depth m on the whole bottom row, 0 on the last column above it, 1 elsewhere."""
    if m <= 0:
        raise DomainError("conductor depth m must be positive")
    values = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == n:
                values[(i, j)] = m
            elif j == n:
                values[(i, j)] = 0
            else:
                values[(i, j)] = 1
    return RootFunction(n, values, "km0", {"m": m})


def root_fn_moy_prasad(n, x, r):
    """r(i, j) = 1 - ceil(x_i - x_j - r) off the diagonal, 1 + floor(r) on it."""
    x = [Fraction(c) for c in x]
    r = Fraction(r)
    if len(x) != n:
        raise ValidationError("point must have one coordinate per row")
    if r < 0:
        raise ValidationError("depth parameter r must be nonnegative")
    values = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                values[(i, j)] = 1 + math.floor(r)
            else:
                values[(i, j)] = 1 - math.ceil(x[i - 1] - x[j - 1] - r)
    return RootFunction(n, values, "moy-prasad", {"x": tuple(x), "r": r})


def _vacuum_root_fn(n):
    # Internal: r = 0 everywhere realizes the vacuum module gl_n[[t]].v_0 = 0.
    values = {(i, j): 0 for i in range(1, n + 1) for j in range(1, n + 1)}
    return RootFunction(n, values, "vacuum", {}, _allow_zero_diagonal=True)


class ModuleVector(LinComb):
    """Finite exact combination of ordered creation monomials applied to v_0."""

    __slots__ = ()

    _key = staticmethod(tuple)

    @classmethod
    def vacuum(cls):
        return cls({(): 1})

    def items(self):
        return sorted(
            self._terms.items(),
            key=lambda kv: (len(kv[0]), [gen_sort_key(g) for g in kv[0]]),
        )

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for word, c in self.items():
            body = "*".join(repr(g) for g in word) if word else "v0"
            if word:
                body += "*v0"
            if c == 1:
                parts.append(body)
            elif c == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{c}*{body}")
        return " + ".join(parts).replace("+ -", "- ")

    __repr__ = __str__

    def to_json(self):
        return [
            {"coeff": scalar_to_str(c), "word": [repr(g) for g in word]}
            for word, c in self.items()
        ]

    @classmethod
    def from_json(cls, data):
        terms = []
        for entry in data:
            word = tuple(gen_from_str(tok) for tok in entry["word"])
            terms.append((word, scalar_from_str(entry["coeff"])))
        return cls(terms)


def _field_states(state):
    """A state for the field recursion: {word: coeff}, or {node: 1} for a MinorNode."""
    if type(state) is MinorNode:
        return {state: 1}
    return _state_words(state)


def _state_words(state):
    """Normalize a state to {word: coeff}; words must have negative degrees."""
    if isinstance(state, NCPoly):
        words = state.words()
    elif isinstance(state, ModuleVector):
        words = dict(state._terms)
    elif isinstance(state, dict):
        words = {tuple(w): canonical(c) for w, c in state.items()}
    elif isinstance(state, (tuple, list)):
        words = {tuple(state): 1}
    else:
        raise ValidationError(f"cannot interpret state {state!r}")
    for word in words:
        for g in word:
            if not isinstance(g, Gen):
                raise ValidationError("states contain loop generators only")
            if g.u >= 0:
                raise ValidationError(
                    f"state factor {g!r} has nonnegative degree; states live in"
                    " strictly negative degrees"
                )
    return words


class RootModule:
    """The induced module for a root function, with exact generator action.

    The level defaults to critical; any other level is accepted for sanity
    experiments, but no centrality or vanishing statement is claimed there.
    Straightening and field actions are memoized per instance, so reuse one
    RootModule across a computation.
    """

    def __init__(self, rf, level=Fraction(-1, 2)):
        self.rf = rf
        self.algebra = AffineAlgebra(rf.n, BilinearForm(rf.n, level))
        self._act_cache = {}
        self._fourier_cache = {}
        self._move_cache = {}
        self._depths = {}
        self._degrees = {}
        # The degree cut of the module docstring needs every r(i, j) <= 1.
        self._degree_cut = all(
            rf(i, j) <= 1 for i in range(1, rf.n + 1) for j in range(1, rf.n + 1)
        )
        # The basic vanishing rule (degree sum >= depth sum kills v_0) needs
        # positive diagonal depths: a central contraction removes a pair of
        # opposite factors of total degree zero and total depth at least
        # r(i, i), so with a zero diagonal the empty word is reachable on the
        # boundary and the rule must be padded by one.
        self._lemma_slack = (
            0 if all(rf(i, i) > 0 for i in range(1, rf.n + 1)) else 1
        )

    # -- creation data -----------------------------------------------------

    def is_creation(self, g):
        return g.u < self.rf(g.i, g.j)

    def creation_shift(self, vec):
        """max over monomials of sum (r(i,j) - u) over factors; 0 for v_0."""
        return max(0, max(map(self._depth, vec._terms), default=0))

    # -- generator action --------------------------------------------------

    def act(self, g, vec):
        """Exact action of e_ij[u] on a module vector, in creation-basis form."""
        if not isinstance(g, Gen):
            raise ValidationError("act expects a loop generator")
        out = {}
        for word, c in vec._terms.items():
            _accumulate(out, self._act_word(g, word), c)
        return ModuleVector._adopt(out)

    def _act_word(self, g, word):
        key = (g, word)
        hit = self._act_cache.get(key)
        if hit is not None:
            return hit
        creation = self.is_creation(g)
        if not word:
            result = {(g,): 1} if creation else {}
            self._act_cache[key] = result
            return result
        head = word[0]
        if creation and gen_sort_key(g) <= gen_sort_key(head):
            result = {(g,) + word: 1}
            self._act_cache[key] = result
            return result
        # g h = h g + [g, h]
        tail = word[1:]
        out = {}
        moved = self._act_word(g, tail)
        for w, c in moved.items():
            _accumulate(out, self._act_word(head, w), c)
        lie, central = self.algebra.bracket(g, head)
        for gen2, c in lie:
            _accumulate(out, self._act_word(gen2, tail), c)
        if central:
            _accumulate(out, {tail: central})
        self._act_cache[key] = out
        return out

    def act_word(self, word, vec):
        """Apply a word of generators, rightmost factor first."""
        for g in reversed(tuple(word)):
            if vec.is_zero():
                return vec
            vec = self.act(g, vec)
        return vec

    def act_poly(self, poly, vec):
        """Apply a tau-free NC polynomial (PBW-ordered words act as written)."""
        table = {}
        for word, c in poly.words().items():
            _accumulate(table, self.act_word(word, vec)._terms, c)
        return ModuleVector._adopt(table)

    # -- certified annihilation bounds --------------------------------------

    def _depth(self, word):
        """sum (r(i,j) - u) over a word's factors, or W(node) for a MinorNode."""
        depth = self._depths.get(word)
        if depth is None:
            if type(word) is MinorNode:
                depth = max(
                    self._depth(child)
                    + (0 if head is None else self.rf(head.i, head.j) - head.u)
                    for _coef, head, child in word.terms
                )
            else:
                depth = sum(self.rf(g.i, g.j) - g.u for g in word)
            self._depths[word] = depth
        return depth

    def _degree(self, word):
        """Loop degree: sum u over a word's factors, power - len(rows) for a MinorNode.

        A node is homogeneous of that degree, by the table recursion of
        ``sugawara``: F[empty, 0] = 1 has degree 0; the tau term of F[R, J]
        is F[R - i, J - 1], of degree (J - 1) - (|R| - 1), and its other
        terms e_ic[-1-q] F[R - i, J + q] have degree
        (-1 - q) + (J + q) - (|R| - 1); both are J - |R|.
        """
        degree = self._degrees.get(word)
        if degree is None:
            if type(word) is MinorNode:
                degree = word.power - len(word.rows)
            else:
                degree = sum(g.u for g in word)
            self._degrees[word] = degree
        return degree

    def _min_degree(self, vec):
        """The lowest degree d of vec's monomials, so the degree cut holds for vec."""
        return min(map(self._degree, vec._terms), default=0)

    def word_annihilation_bound(self, word, vec):
        """Certified N with word_(s) vec = 0 for all s >= N.

        For a nonempty word x_{n_1} ... x_{n_k} acting on a creation
        monomial, every expansion term is a word of generator modes summing
        to sum n_i + s + 1, so the basic vanishing rule kills everything as
        soon as s >= sum r(alpha_i) - sum n_i - 1 + shift(vec), where
        shift(vec) collects (r - u) over the creation factors of vec.  This
        sharpens by one the naive per-factor count, which is not a valid
        bound: reordering corrections inside a field expansion can land
        exactly on the boundary.

        ``word`` may also be a MinorNode.  Its depth W is the largest, over
        its terms (coef, head, child), of r(head) - u(head) + W(child), where
        a tau term counts as W(child) and W(()) = 0.  Expanding the node's
        products gives words head * w with w a word of the child, so by
        induction every word of the node has sum (r - u) <= W.  The node's
        field is the sum of its words' fields, so W - 1 + shift(vec) bounds
        each nonempty word by the argument above, and hence the node.  A
        node with W = 0 reaches () through tau terms only: it is a multiple
        of the vacuum, of degree 0, and acts only at s = -1.
        """
        if vec.is_zero() or not word:
            return 0  # the vacuum field is the identity: only s = -1 acts
        depth = self._depth(word)
        if not depth:
            return 0
        return depth - 1 + self.creation_shift(vec) + self._lemma_slack

    def annihilation_bound(self, state, vec):
        """Certified N with state_(s) vec = 0 for all s >= N."""
        words = _field_states(state)
        if not words:
            return 0
        return max(self.word_annihilation_bound(w, vec) for w in words)

    def generator_annihilation_degree(self, g, vec):
        """Certified J with e_ij[u] vec = 0 for all u >= J."""
        return self.rf(g.i, g.j) + self.creation_shift(vec) + self._lemma_slack

    # -- Fourier action ------------------------------------------------------

    def fourier_act(self, state, s, vec, on_term=None):
        """The s-th Fourier coefficient of the field of a state, applied to vec.

        ``state`` is a state as ``_state_words`` reads it, or a MinorNode of
        ``sugawara.ss_nodes``.  ``on_term`` (optional) receives, for every
        surviving expansion path, the operator word as a tuple of (generator
        index pair, mode) entries in left-to-right operator order, together
        with its coefficient.
        """
        table = {}
        for word, c in _field_states(state).items():
            trace = None if on_term is None else (on_term, c, (), ())
            _accumulate(table, self._fourier_word(word, s, vec, trace)._terms, c)
        return ModuleVector._adopt(table)

    def _fourier_word(self, word, s, vec, trace=None):
        """word_(s) vec by the field recursion in the module docstring.

        ``word`` is a word or a MinorNode.  word_(s) is linear in vec, so an
        untraced call expands it once per unit monomial of ``vec`` (cached
        under ``(word, s, monomial)``) and sums those tables with vec's
        coefficients: exact by linearity, and each expansion is truncated by
        its own monomial's certified bounds.

        ``trace`` is ``(on_term, coeff, left, right)``: the coefficient of the
        path so far and the modes already placed left and right of this
        word's field.  A traced call reports to ``on_term`` every path that
        ends on the vacuum field at index -1, so it must visit each path: it
        expands ``vec`` whole and neither reads nor fills the cache.

        Under the degree cut (module docstring) a monomial of degree
        d >= -D - s gives 0; it is skipped, neither expanded nor cached.  A
        traced call is skipped when every monomial of ``vec`` is, and it
        loses no path: the modes of each path of word_(s) have degrees summing
        to s + 1 + D, and those placed left (p <= -1) have negative degree, so
        the path ends on a vector whose monomials have degree at least
        d + s + 1 + D >= 1.  That vector is 0, and the path is not reported.
        """
        if vec.is_zero():
            return ModuleVector.zero()
        if not word:
            if s != -1:
                return ModuleVector.zero()
            if trace:
                on_term, coeff, left, right = trace
                on_term(left + right, coeff)
            return vec
        top = -self._degree(word) - s if self._degree_cut else None
        if trace:
            if top is not None and self._min_degree(vec) >= top:
                return ModuleVector.zero()
            return ModuleVector._adopt(self._fourier_expand(word, s, vec, trace))
        cache = self._fourier_cache
        total = {}
        for mono, c in vec._terms.items():
            if top is not None and self._degree(mono) >= top:
                continue
            key = (word, s, mono)
            table = cache.get(key)
            if table is None:
                unit = ModuleVector._adopt({mono: 1})
                table = cache[key] = self._fourier_expand(word, s, unit)
            _accumulate(total, table, c)
        return ModuleVector._adopt(total)

    def _fourier_expand(self, word, s, vec, trace=None):
        """The table of word_(s) vec for a nonempty word or a node, and nonzero vec.

        A node is the sum of its terms (coef, head, child): the product state
        coef * head * child, or coef * child for a tau term (head None).  A
        word is the one-term state (1, word[0], word[1:]).  An untraced call
        gets a unit ``vec``.
        """
        if trace:
            on_term, coeff, left, right = trace
        mono = None if trace else next(iter(vec._terms))
        d = self._min_degree(vec) if self._degree_cut else None
        terms = word.terms if type(word) is MinorNode else ((1, word[0], word[1:]),)
        total = {}
        for coef, head, tail in terms:
            if head is None:
                sub = trace and (on_term, coeff * coef, left, right)
                _accumulate(total, self._fourier_word(tail, s, vec, sub)._terms, coef)
                continue
            m = -head.u - 1
            # creation side: p <= -1, head mode p - m applied after the tail field
            bound = self.word_annihilation_bound(tail, vec)
            if d is not None:
                bound = min(bound, -self._degree(tail) - d)
            for p in range(s - bound, 0):
                sub = None
                if trace:
                    mode, c = _field_mode(head, m, p)
                    sub = (on_term, coeff * coef * c, left + (mode,), right)
                inner = self._fourier_word(tail, s - p - 1, vec, sub)
                if inner.is_zero():
                    continue
                mode, c = _field_mode(head, m, p)
                _accumulate(total, self.act(mode, inner)._terms, coef * c)
            # annihilation side: p >= m, head acts first
            for p, c, mode, moved in self._moves(head, vec, mono):
                sub = trace and (on_term, coeff * coef * c, left, (mode,) + right)
                inner = self._fourier_word(tail, s - p - 1, moved, sub)
                _accumulate(total, inner._terms, coef * c)
        return total

    def _moves(self, head, vec, mono):
        """The annihilation side of head's field on vec, as (p, c_p, mode, mode.vec).

        These are the modes x[p - m] for m <= p < m + J, with J from
        ``generator_annihilation_degree`` (the binomial vanishes below m),
        that do not kill vec.  Under the degree cut, x[p - m] kills vec once
        p - m > -d, so J drops to 1 - d where that is smaller.  The moves
        depend on neither s nor the rest of the state, so when vec is the
        unit monomial ``mono`` they are cached under ``(head, mono)``;
        ``mono`` is None for a traced call.
        """
        if mono is not None:
            hit = self._move_cache.get((head, mono))
            if hit is not None:
                return hit
        m = -head.u - 1
        top = self.generator_annihilation_degree(head, vec)
        if self._degree_cut:
            top = min(top, 1 - self._min_degree(vec))
        moves = []
        for p in range(m, m + top):
            mode, c = _field_mode(head, m, p)
            moved = self.act(mode, vec)
            if not moved.is_zero():
                moves.append((p, c, mode, moved))
        moves = tuple(moves)
        if mono is not None:
            self._move_cache[head, mono] = moves
        return moves


# -- module-level operations ---------------------------------------------


def lemma_relations_bound(word, rf):
    """Whether sum of degrees >= sum of depths, which forces word.v_0 = 0."""
    degrees = 0
    depths = 0
    for entry in word:
        g = entry if isinstance(entry, Gen) else Gen(*entry)
        degrees += g.u
        depths += rf(g.i, g.j)
    return degrees >= depths


def vacuum_module(n):
    """The vacuum module gl_n[[t]].v_0 = 0 at critical level.

    States are its vectors; acting with Fourier coefficients here realizes
    products inside the vertex algebra itself.
    """
    return RootModule(_vacuum_root_fn(n))


def state_is_central(state, n):
    """Exact membership test for the centre of the vacuum vertex algebra.

    A state lies in the centre iff gl_n[t] kills it, i.e. e_ij[u] kills it
    for every u >= 0.  It suffices that every monomial of the state vector
    has gl_n-weight 0 and that the n generators e_{i,i+1}[0] (1 <= i < n)
    and e_{n,1}[1] kill it:

    * Weight.  e_ii[0] kills v_0 and acts on a creation monomial by its
      weight, the count of factors with row i minus those with column i.
      The monomials are a basis, so a monomial of nonzero weight means some
      e_ii[0] does not kill the vector, and it is not central.
    * n_-[0].  Each graded piece of the vacuum module is a finite-dimensional
      sl_n-module, and the vector lies in finitely many of them.  A vector of
      weight 0 that n_+[0] kills (the e_{i,i+1}[0] generate n_+) generates a
      finite-dimensional highest-weight module of highest weight 0.  That
      module is a quotient of the Verma module, semisimple by Weyl's theorem
      and generated by one highest-weight vector, so it is irreducible: the
      trivial module.  So n_-[0] kills the vector too, and with the Cartan
      part, sl_n[0] does.
    * The annihilator of a vector is a Lie subalgebra, since
      [x, y] v = x (y v) - y (x v).
    * sl_n and e_{n,1}[1] generate sl_n[t]: the adjoint sl_n-module sl_n t
      is irreducible and contains e_{n,1}[1], so it is generated; and
      [sl_n t, sl_n t^k] = sl_n t^(k+1) because [sl_n, sl_n] = sl_n.
    * No central term arises on the way: the cocycle of e_ij[a], e_kl[b]
      carries the factor b d_{a+b,0}, which vanishes for a, b >= 0.
    * gl_n[t] = sl_n[t] + I[t], and each I[u], u >= 0, kills every vector:
      (I, e_ij) = 2n d_ij - 2n d_ij = 0 in the modified form, so I[u] is
      central in the affine algebra, and I[u] v_0 = 0 in the vacuum module.

    At n = 1, sl_1 = 0 and gl_1[t] = I[t], so every state is central; the
    one check left, on e_{1,1}[1] = I[1], always passes.
    """
    mod = vacuum_module(n)
    words = _state_words(state)
    table = {}
    for w, c in words.items():
        _accumulate(table, mod.act_word(w, ModuleVector.vacuum())._terms, c)
    vec = ModuleVector._adopt(table)
    for word in vec._terms:
        weight = [0] * (n + 1)
        for g in word:
            weight[g.i] += 1
            weight[g.j] -= 1
        if any(weight):
            return False
    generators = [Gen(i, i + 1, 0) for i in range(1, n)] + [Gen(n, 1, 1)]
    return all(mod.act(g, vec).is_zero() for g in generators)


def ss_operator_act(n, ell, N, rf):
    """Apply the N-th Fourier coefficient of S_l, from its node, to v_0."""
    if not 1 <= ell <= n:
        raise ValidationError(f"component index {ell} out of range 1..{n}")
    mod = RootModule(rf)
    return mod.fourier_act(ss_nodes(n)[ell - 1], N, ModuleVector.vacuum())


def _workers_from_env(cells):
    raw = os.environ.get("CRITCENTER_WORKERS", "").strip()
    if raw:
        try:
            requested = int(raw)
        except ValueError as exc:
            raise ValidationError(f"CRITCENTER_WORKERS must be an integer: {raw!r}") from exc
        return max(1, requested)
    return max(1, min(4, cells))


def vanishing_report(n, rf, scan_window=3):
    """Scan the Fourier coefficients of every S_l around its threshold.

    For each l the report records the theoretical threshold, whether
    vanishing at and above it is fully verified (explicit checks up to the
    certified bound, the bound covering the rest), the smallest N in the
    scanned range above which everything vanishes, and a witness vector for
    the largest nonvanishing N seen.

    Each l is scanned downward from the top of its range and stops at the
    first nonzero cell: the largest nonvanishing N and its witness.  The
    report reads no cell below it, so none is computed.  Cells and
    ``certified_from`` come from S_l's node (``sugawara.ss_nodes``), whose
    bound on v_0, W - 1 + slack, equals the straightened S_l's, the largest
    depth sum (r - u) of its words (all of degree -l < 0), less 1, plus slack:

    * Multiplying the node out straightens products of generators, which
      never raises sum (r - u): a bracket e_ij[a], e_jk[b] -> e_ik[a+b]
      cannot, by subadditivity, and a central contraction removes
      r(i,j) + r(j,i) >= 0.  So no straightened word is deeper than W.
    * A path word of the node comes from a permutation s with tau on fixed
      columns T; let K be the others.  Adding the l - |K| factors e_cc[-1]
      for some c in T gives a top-symbol monomial of S_l, with coefficient
      +-1 from a principal l-minor, and depth at least the path word's,
      because r >= 0.  So some straightened word has depth >= W.

    When every r(i, j) <= 1, the scan of S_l starts below min(hi, l) instead:
    S_l has degree -l, so S_l,(N) v_0 = 0 for N >= l by the degree cut
    (module docstring), and the cells in between are not computed.
    ``certified_from`` stays the depth bound W - 1 + slack.
    """
    if rf.n != n:
        raise ValidationError("root function rank does not match n")
    if scan_window < 0:
        raise ValidationError(f"scan window must be nonnegative, got {scan_window}")
    nodes = ss_nodes(n)
    mod = RootModule(rf)
    vacuum = ModuleVector.vacuum()

    rows = []
    for ell in range(1, n + 1):
        thr = rf.threshold(ell)
        certified = mod.annihilation_bound(nodes[ell - 1], vacuum)
        if thr is None:
            thr = certified
        hi = max(certified, thr)  # explicit checks cover [thr - window, hi)
        rows.append((ell, thr, certified, thr - scan_window, hi))

    def scan(row):
        ell, _thr, _certified, lo, hi = row
        if mod._degree_cut:
            hi = min(hi, -mod._degree(nodes[ell - 1]))  # v_0 has degree 0
        for N in range(hi - 1, lo - 1, -1):
            value = mod.fourier_act(nodes[ell - 1], N, vacuum)
            if not value.is_zero():
                return N, value
        return None, None

    workers = _workers_from_env(len(rows))
    if workers > 1 and len(rows) > 1:
        from concurrent.futures import ThreadPoolExecutor  # pulls in logging

        with ThreadPoolExecutor(max_workers=workers) as pool:
            found = list(pool.map(scan, rows))
    else:
        found = [scan(row) for row in rows]

    report = {
        "case": rf.describe(),
        "n": n,
        "scan_window": scan_window,
        "thresholds_theoretical": [],
        "certified_from": [],
        "verified": [],
        "observed_min_vanishing": [],
        "witnesses": [],
        "witness_N": [],
    }
    for (ell, thr, certified, lo, hi), (largest_bad, witness) in zip(rows, found):
        report["thresholds_theoretical"].append(thr)
        report["certified_from"].append(certified)
        report["verified"].append(largest_bad is None or largest_bad < thr)
        report["observed_min_vanishing"].append(
            lo if largest_bad is None else largest_bad + 1
        )
        report["witnesses"].append(None if witness is None else witness.to_json())
        report["witness_N"].append(largest_bad)
    return report


def conductor_irregularity_report(n, m, scan_window=3):
    """Combine the conductor-subalgebra vanishing with the pole-order calculus.

    Annihilation by the depth-m conductor subalgebra forces a_{l,N} = 0 for
    N >= m + l - 1, i.e. pole bounds -v(a_l) <= m + l - 1 for any compatible
    oper.  Feeding the bounds into the irregularity formula yields
    Irr <= m - 1, and the oper saturating every bound attains it exactly.
    """
    if m < 1:
        raise DomainError("conductor depth m must be positive")
    rf = root_fn_km0(n, m)
    vanishing = vanishing_report(n, rf, scan_window=scan_window)
    if not all(vanishing["verified"]):
        raise AssertionError(
            "internal invariant violation: conductor vanishing failed"
        )
    pole_bounds = [m + ell - 1 for ell in range(1, n + 1)]
    witness = Oper(
        [LaurentElement.monomial(-(m + ell - 1)) for ell in range(1, n + 1)]
    )
    witness_irr = irregularity(witness)
    return {
        "case": vanishing["case"],
        "n": n,
        "m": m,
        "thresholds_theoretical": vanishing["thresholds_theoretical"],
        "observed_min_vanishing": vanishing["observed_min_vanishing"],
        "witnesses": vanishing["witnesses"],
        "pole_bounds": pole_bounds,
        "witness_oper": witness.to_json(),
        "witness_irregularity": witness_irr,
        "irregularity_bound": m - 1,
        "vanishing_verified": all(vanishing["verified"]),
    }
