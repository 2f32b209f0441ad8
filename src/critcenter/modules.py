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
from fractions import Fraction

from .algebra import TAU, AffineAlgebra, BilinearForm, Gen, gen_sort_key, word_from_tokens
from .errors import DomainError, ValidationError
from .laurent import LaurentElement
from .lincomb import LinComb, _accumulate, canonical
from .pbw import NCPoly, _straighten
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
                    v = values[(i, j)]
                except KeyError as exc:
                    raise ValidationError(f"missing depth at {(i, j)}") from exc
                if type(v) is not int:
                    raise ValidationError(f"depth r{(i, j)} must be an integer, got {v!r}")
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
        try:
            return self._values[(i, j)]
        except KeyError:
            raise ValidationError(f"index {(i, j)} outside 1..{self.n}") from None

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


def _check_depth(m, name):
    """A depth parameter is a positive int; like RootFunction, never truncate it."""
    if type(m) is not int:
        raise ValidationError(f"{name} m must be an integer, got {m!r}")
    if m <= 0:
        raise DomainError(f"{name} m must be positive")


def root_fn_constant(n, m):
    """r(i, j) = m everywhere: the congruence subalgebra t^m gl_n[[t]]."""
    _check_depth(m, "congruence depth")
    values = {(i, j): m for i in range(1, n + 1) for j in range(1, n + 1)}
    return RootFunction(n, values, "constant", {"m": m})


def root_fn_km0(n, m):
    """Depth m on the whole bottom row, 0 on the last column above it, 1 elsewhere."""
    _check_depth(m, "conductor depth")
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


class ModuleVector(LinComb):
    """Finite exact combination of ordered creation monomials applied to v_0."""

    __slots__ = ()

    _key = staticmethod(tuple)

    @classmethod
    def vacuum(cls):
        return cls({(): 1})

    @staticmethod
    def _display_key(word):
        return len(word), [gen_sort_key(g) for g in word]

    @staticmethod
    def _tokens(word):
        return [repr(g) for g in word]

    def _body(self, word):
        return "*".join(self._tokens(word) + ["v0"])

    @classmethod
    def from_json(cls, data):
        """Terms whose words are basis monomials: loop generators in
        nondecreasing ``gen_sort_key`` order, as ``RootModule.act`` writes them."""
        terms = cls._terms_from_json(data, word_from_tokens)
        for _c, word in terms:
            if TAU in word:
                raise ValidationError("module vector words hold loop generators only")
            keys = [gen_sort_key(g) for g in word]
            if keys != sorted(keys):
                raise ValidationError(
                    f"module vector word {list(map(repr, word))} is not in PBW order"
                )
        return cls((word, c) for c, word in terms)


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

    # -- Fourier action ------------------------------------------------------

    def fourier_act(self, state, s, vec):
        """The s-th Fourier coefficient of the field of a state, applied to vec.

        ``state`` is a state as ``_state_words`` reads it, or a MinorNode of
        ``sugawara.ss_nodes``.
        """
        table = {}
        for word, c in _field_states(state).items():
            _accumulate(table, self._fourier_word(word, s, vec)._terms, c)
        return ModuleVector._adopt(table)

    def _fourier_word(self, word, s, vec):
        """word_(s) vec by the field recursion in the module docstring.

        ``word`` is a word or a MinorNode.  word_(s) is linear in vec, so it
        is expanded once per unit monomial of ``vec`` (cached under
        ``(word, s, monomial)``) and those tables are summed with vec's
        coefficients: exact by linearity, and each expansion is truncated by
        its own monomial's certified bounds.

        Under the degree cut (module docstring) a monomial of degree
        d >= -D - s gives 0; it is skipped, neither expanded nor cached.
        """
        if not word:
            return vec if s == -1 else ModuleVector.zero()
        top = -self._degree(word) - s if self._degree_cut else None
        cache = self._fourier_cache
        total = {}
        for mono, c in vec._terms.items():
            if top is not None and self._degree(mono) >= top:
                continue
            key = (word, s, mono)
            table = cache.get(key)
            if table is None:
                table = cache[key] = self._fourier_expand(word, s, mono)
            _accumulate(total, table, c)
        return ModuleVector._adopt(total)

    def _fourier_expand(self, word, s, mono):
        """The table of word_(s) mono for a nonempty word or a node and a unit monomial.

        A node is the sum of its terms (coef, head, child): the product state
        coef * head * child, or coef * child for a tau term (head None).  A
        word is the one-term state (1, word[0], word[1:]).
        """
        vec = ModuleVector._adopt({mono: 1})
        d = self._degree(mono) if self._degree_cut else None
        terms = word.terms if type(word) is MinorNode else ((1, word[0], word[1:]),)
        total = {}
        for coef, head, tail in terms:
            if head is None:
                _accumulate(total, self._fourier_word(tail, s, vec)._terms, coef)
                continue
            m = -head.u - 1
            # creation side: p <= -1, head mode p - m applied after the tail field
            bound = self.word_annihilation_bound(tail, vec)
            if d is not None:
                bound = min(bound, -self._degree(tail) - d)
            for p in range(s - bound, 0):
                inner = self._fourier_word(tail, s - p - 1, vec)
                if inner.is_zero():
                    continue
                mode, c = _field_mode(head, m, p)
                _accumulate(total, self.act(mode, inner)._terms, coef * c)
            # annihilation side: p >= m, head acts first
            for p, c, moved in self._moves(head, mono):
                inner = self._fourier_word(tail, s - p - 1, moved)
                _accumulate(total, inner._terms, coef * c)
        return total

    def _moves(self, head, mono):
        """The annihilation side of head's field on mono, as (p, c_p, x[p - m].mono).

        These are the modes x[p - m] for m <= p < m + J (the binomial
        vanishes below m) that do not kill the unit monomial ``mono``, where
        J is the certified bound r(head) + shift(mono) + slack: x[u] mono = 0
        for all u >= J, with shift from ``creation_shift`` and slack
        ``_lemma_slack``.  Under the degree cut, x[p - m] kills mono once
        p - m > -d, so J drops to 1 - d where that is smaller.  The moves
        depend on neither s nor the rest of the state, so they are cached
        under ``(head, mono)``.
        """
        hit = self._move_cache.get((head, mono))
        if hit is not None:
            return hit
        vec = ModuleVector._adopt({mono: 1})
        m = -head.u - 1
        top = self.rf(head.i, head.j) + self.creation_shift(vec) + self._lemma_slack
        if self._degree_cut:
            top = min(top, 1 - self._degree(mono))
        moves = []
        for p in range(m, m + top):
            mode, c = _field_mode(head, m, p)
            moved = self.act(mode, vec)
            if not moved.is_zero():
                moves.append((p, c, moved))
        moves = self._move_cache[head, mono] = tuple(moves)
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


def state_is_central(state, n):
    """Exact membership test for the centre of the vacuum vertex algebra.

    A state lies in the centre iff gl_n[t] kills it, i.e. e_ij[u] kills it
    for every u >= 0.  It suffices that the n generators e_{i,i+1}[0]
    (1 <= i < n) and e_{n,1}[1] kill it:

    * The annihilator of a vector is a Lie subalgebra, since
      [x, y] v = x (y v) - y (x v).
    * The generators generate n_+[0] and sl_n t[t] = sl_n tensor tC[t]:
      n_+[0] applied to e_{n,1}[1] gives sl_n t, as e_{n,1} is the lowest
      weight vector of the irreducible adjoint module, and
      [sl_n t, sl_n t^k] = sl_n t^(k+1) as [sl_n, sl_n] = sl_n.  No central
      term arises: the cocycle of e_ij[a], e_kl[b] carries the factor
      b d_{a+b,0}, which vanishes for a, b >= 0.
    * Weight 0.  e_ii[0] acts on a creation monomial by its weight, the
      count of factors with row i minus those with column i, and each root
      vector or Cartan element of n_+[0] + sl_n t[t] shifts weights by a
      fixed amount.  So each weight component v_lambda of the vector is
      killed too: a highest-weight vector for sl_n[0] in finitely many
      graded pieces (finite-dimensional sl_n-modules), so lambda is
      dominant.  The form restricts to the Killing form 2n tr(XY) of sl_n,
      so the level is critical for sl_n too, and the mode S_(1) of sl_n's
      quadratic Segal-Sugawara vector S = 1/2 sum_a J^a[-1] J_a[-1] v_0
      commutes with affine sl_n (S is central) and with each I[u] (its
      field has no singular product with an sl_n field).  It kills v_0, so
      it acts as 0.  On v_lambda every term of S_(1) but
      1/2 sum_a J^a[0] J_a[0] ends in a mode of sl_n t[t], so S_(1) acts
      as the Casimir 1/2 (lambda, lambda + 2 rho), positive for dominant
      lambda != 0.  So lambda is 0 on the Cartan subalgebra of sl_n: the
      gl_n weight is constant over i.  It sums to 0 over i, as each factor
      adds 1 at its row and -1 at its column, so it is 0.
    * n_-[0].  Each graded piece of the vacuum module is a finite-dimensional
      sl_n-module, and the vector lies in finitely many of them.  A vector of
      weight 0 that n_+[0] kills generates a finite-dimensional
      highest-weight module of highest weight 0.  That module is a quotient
      of the Verma module, semisimple by Weyl's theorem and generated by one
      highest-weight vector, so it is irreducible: the trivial module.  So
      n_-[0] kills the vector too, and with the Cartan part and sl_n t[t],
      sl_n[t] does.
    * gl_n[t] = sl_n[t] + I[t], and each I[u], u >= 0, kills every vector:
      (I, e_ij) = 2n d_ij - 2n d_ij = 0 in the modified form, so I[u] is
      central in the affine algebra, and I[u] v_0 = 0 in the vacuum module.

    At n = 1, sl_1 = 0 and gl_1[t] = I[t], so every state is central; the
    one check left, on e_{1,1}[1] = I[1], always passes.

    The generators act as derivations, with no module built.  The state
    vector is sum c_w w v_0 over the state's deglex normal words w, each a
    basis vector of the vacuum module, since every factor has negative
    degree.  A generator g of degree >= 0 kills v_0, so

        g w v_0 = [g, w] v_0 = sum_i w_<i [g, w_i] w_>i v_0,

    where [g, w_i] gives its loop part, and its central scalar (the central
    element acts as 1) times w_<i w_>i.  A loop term h of degree >= 0 kills
    v_0 in turn, so h w_>i v_0 expands by the same rule; every term is then
    a word of negative-degree factors.  Straightening (``pbw._straighten``)
    keeps them so, as brackets of negative-degree generators have negative
    degree and no central term, and gives distinct basis vectors: g kills
    the state iff the straightened sum is 0.

    A state that is not already an NCPoly over the critical rank-n algebra
    (a dict, tuple, ModuleVector, or an NCPoly over another level or rank)
    is read as its words, straightened over ``AffineAlgebra.critical(n)``,
    so that every bracket is taken at the critical level.
    """
    algebra, words = _critical_words(state, n)
    generators = [Gen(i, i + 1, 0) for i in range(1, n)] + [Gen(n, 1, 1)]
    return all(_kills_state(algebra, g, words) for g in generators)


def _critical_words(state, n):
    """The state as (critical rank-n algebra, {deglex normal word: coeff})."""
    words = _state_words(state)
    for word in words:
        for g in word:
            if not (1 <= g.i <= n and 1 <= g.j <= n):
                raise ValidationError(f"state factor {g!r} has an index outside 1..{n}")
    if (
        isinstance(state, NCPoly)
        and state.algebra.n == n
        and state.algebra.form.multiple == BilinearForm.critical(n).multiple
    ):
        algebra = state.algebra
    else:
        algebra = AffineAlgebra.critical(n)
    table = {}
    for word, c in words.items():
        _accumulate(table, _straighten(algebra, word), c)
    return algebra, {word: c for (_k, word), c in table.items()}


def _kills_state(algebra, g, words):
    """Whether g kills sum c_w w v_0, expanded as in ``state_is_central``."""
    raw = {}
    for word, c in words.items():
        _derive(algebra, g, word, c, (), raw)
    out = {}
    for word, c in raw.items():
        if c:
            _accumulate(out, _straighten(algebra, word), c)
    return not out


def _derive(algebra, g, word, c, left, raw):
    """Add c * left * [g, word] v_0 to raw as words of negative-degree factors."""
    for i, x in enumerate(word):
        lie, central = algebra.bracket(g, x)
        if not lie and not central:
            continue
        pre, post = left + word[:i], word[i + 1 :]
        for h, c2 in lie:
            if h.u >= 0:
                _derive(algebra, h, post, c * c2, pre, raw)
            else:
                key = pre + (h,) + post
                raw[key] = raw.get(key, 0) + c * c2
        if central:
            key = pre + post
            raw[key] = raw.get(key, 0) + c * central


def ss_operator_act(n, ell, N, rf):
    """Apply the N-th Fourier coefficient of S_l, from its node, to v_0."""
    if rf.n != n:
        raise ValidationError("root function rank does not match n")
    if not 1 <= ell <= n:
        raise ValidationError(f"component index {ell} out of range 1..{n}")
    mod = RootModule(rf)
    return mod.fourier_act(ss_nodes(n)[ell - 1], N, ModuleVector.vacuum())


def _workers_from_env(cells):
    """Always 1: the per-l scans run in-line (see ``vanishing_report``).

    Under the GIL a thread pool only makes the pure-Python scans take turns.
    Nothing here calls this; it stays only as a name the benchmark's tracer
    patches, until that tracer drops it.
    """
    return 1


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

    found = [scan(row) for row in rows]  # in-line: a pool only takes turns under the GIL

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
    rf = root_fn_km0(n, m)
    vanishing = vanishing_report(n, rf, scan_window=scan_window)
    if not all(vanishing["verified"]):
        raise AssertionError(
            "internal invariant violation: conductor vanishing failed"
        )
    pole_bounds = vanishing["thresholds_theoretical"]
    witness = Oper([LaurentElement.monomial(-bound) for bound in pole_bounds])
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
