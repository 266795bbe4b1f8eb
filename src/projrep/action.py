"""Polynomial vector fields acting on graded tensor spaces.

The Lie algebra spanned by the derivatives, the scalings x_i d_j, and the
pseudo-translations p_i = x_i * sum_j x_j d_j is a copy of sl(n+1) inside the
polynomial vector fields.  Twisting by a gl(n)-module V turns the polynomial
space tensor V into a representation of that copy.

On x^m tensor V each operator of the span acts as a polynomial move times
Id_V plus shifted copies of the generator matrices E_{i,j} = V.e(i, j).
`operator_matrix` uses that structure: once per module it splits the
operator (`projective_components`) into moves and generator blocks, terms
that point at V's generators, and per degree it assembles the exact sparse
matrix block by block, one dim(V)-square block per monomial.  The target
degree is read off the operator, whose shift is computed once with its
terms, so only a nonzero operator with a uniform degree shift has a
matrix.  `commutator_equals` is the matrix side of a Lie relation: whether
the commutator of two operator matrices equals a target (the matrix of a
bracket, or zero), decided in one exact pass of
`linalg.product_difference_equals` that builds no product; the Chevalley
relations use it.  The bracket check runs the same pass on a per-module
table, each spanning operator's matrices on every degree it needs, fetched
once, against the matrix of each pair's symbolic bracket, which
`WittElement.bracket` forms in one pass over the pairs of terms once per n
(`spanning_brackets`), for every module.  `act` applies an operator to one
graded element term by term; the matrix path never calls it, and it is the
independent oracle that the `action-oracle` suite of `selfcheck` compares
every column with.  On vectors of one graded piece the same rule runs on
integers: `weight_space` lists a weight space's basis, `gl_restriction`
gives the columns of a sum of E_{a,b} on it, x-moves included, and `p_step`
takes one p_i step; the irreducibility analysis reads no generator itself.

Degrees: derivatives lower by one, scalings preserve, pseudo-translations
raise by one.  Monomials are exponent tuples, ordered descending
lexicographically within a degree (x_1 before x_2, so the pure x_1 power
comes first); inside one monomial the module basis index runs in order.
`graded_basis(V, k)` is the one index of that order, {m: position of
x^m (x) v_0}: x^m (x) v_q sits at basis[m] + q, and every package module
that addresses a graded piece reads its positions there.
"""

from __future__ import annotations

import functools
import math
import operator
from collections import namedtuple

from .errors import UnsupportedOperatorError
from .glmodules import module_memo
from .linalg import Matrix, _check_scalar, _norm, add_into, product_difference_equals

__all__ = [
    "ChevalleySet",
    "GradedElement",
    "WittElement",
    "act",
    "chevalley_generators",
    "commutator_equals",
    "derivative_op",
    "gl_restriction",
    "graded_basis",
    "graded_dimension",
    "monomials_of_degree",
    "operator_matrix",
    "p_step",
    "projective_components",
    "pseudo_translation_op",
    "scaling_op",
    "spanning_brackets",
    "spanning_operators",
    "triangle_delta",
    "verify_bracket_consistency",
    "weight_space",
]


# -- symbolic vector fields ----------------------------------------------------


class WittElement:
    """A polynomial vector field sum_i f_i d_i, stored as {(monomial, i): coeff}.

    Immutable and hashable; usable as a cache key.  The degree shift is
    computed once, with the terms.
    """

    __slots__ = ("n", "terms", "_hash", "_shift")

    def __init__(self, n, terms=None):
        self.n = n
        clean = {}
        if terms:
            for (mono, i), v in terms.items():
                v = _norm(_check_scalar(v))
                if v == 0:
                    continue
                if len(mono) != n or not (0 <= i < n):
                    raise ValueError("malformed vector-field term")
                clean[(tuple(mono), i)] = v
        self.terms = clean
        self._hash = None
        shifts = {sum(m) - 1 for (m, _) in clean}
        self._shift = shifts.pop() if len(shifts) == 1 else None

    def is_zero(self):
        return not self.terms

    def degree_shift(self):
        """Uniform degree shift |monomial| - 1, or None for 0 / mixed elements."""
        return self._shift

    def __add__(self, other):
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        return WittElement(self.n, add_into(dict(self.terms), other.terms.items()))

    def __neg__(self):
        return WittElement(self.n, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rmul__(self, scalar):
        if scalar == 0:
            return WittElement(self.n)
        return WittElement(self.n, {k: v * scalar for k, v in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, WittElement):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.n, tuple(sorted(self.terms.items()))))
        return self._hash

    def bracket(self, other):
        """Lie bracket of vector fields, one pass over the pairs of terms:
        [f d_j, g d_i] = f (d_j g) d_i - g (d_i f) d_j."""
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        out = {}
        for (ma, j), va in self.terms.items():
            for (mb, i), vb in other.terms.items():
                if mb[j]:
                    key = (_shift_mono(map(operator.add, ma, mb), down=j), i)
                    out[key] = out.get(key, 0) + va * vb * mb[j]
                if ma[i]:
                    key = (_shift_mono(map(operator.add, ma, mb), down=i), j)
                    out[key] = out.get(key, 0) - va * vb * ma[i]
        return WittElement(self.n, out)

    def __repr__(self):
        if not self.terms:
            return "WittElement(0)"
        bits = []
        for (mono, i), v in sorted(self.terms.items()):
            m = "*".join(f"x{t+1}^{e}" if e > 1 else f"x{t+1}" for t, e in enumerate(mono) if e)
            bits.append(f"{v}*{m or '1'}*d{i+1}")
        return "WittElement(" + " + ".join(bits) + ")"


def _unit(n, i):
    return tuple(1 if t == i else 0 for t in range(n))


@functools.cache
def derivative_op(n, i):
    """d_{x_{i+1}} (argument 0-based)."""
    return WittElement(n, {((0,) * n, i): 1})


@functools.cache
def scaling_op(n, i, j):
    """x_{i+1} d_{x_{j+1}} (arguments 0-based)."""
    return WittElement(n, {(_unit(n, i), j): 1})


@functools.cache
def pseudo_translation_op(n, i):
    """p_{i+1} = x_{i+1} * sum_j x_j d_j (argument 0-based)."""
    terms = {}
    ei = _unit(n, i)
    for j in range(n):
        mono = tuple(a + b for a, b in zip(ei, _unit(n, j)))
        terms[(mono, j)] = terms.get((mono, j), 0) + 1
    return WittElement(n, terms)


def spanning_operators(n):
    """The full spanning set: scalings, derivatives, pseudo-translations."""
    ops = []
    for i in range(n):
        for j in range(n):
            ops.append((f"x{i+1}d{j+1}", scaling_op(n, i, j)))
    for i in range(n):
        ops.append((f"d{i+1}", derivative_op(n, i)))
    for i in range(n):
        ops.append((f"p{i+1}", pseudo_translation_op(n, i)))
    return ops


class ChevalleySet(namedtuple("ChevalleySet", "e f h")):
    """Chevalley generators of the embedded sl(n+1)."""

    __slots__ = ()


def chevalley_generators(n):
    """h_i, e_i, f_i for i < n from the scalings; the last triple uses p and d."""
    if n < 1:
        raise ValueError("n must be >= 1")
    e, f, h = [], [], []
    for i in range(n - 1):
        h.append(scaling_op(n, i, i) - scaling_op(n, i + 1, i + 1))
        e.append(scaling_op(n, i, i + 1))
        f.append(scaling_op(n, i + 1, i))
    hn = scaling_op(n, n - 1, n - 1)
    for l in range(n):
        hn = hn + scaling_op(n, l, l)
    h.append(hn)
    e.append(pseudo_translation_op(n, n - 1))
    f.append(-1 * derivative_op(n, n - 1))
    return ChevalleySet(tuple(e), tuple(f), tuple(h))


# -- decomposition into the projective span -------------------------------------


def projective_components(op):
    """Split op into derivative, scaling and pseudo-translation coefficients.

    Returns (deriv, gl, pseudo) keyed by 0-based indices.  Raises
    UnsupportedOperatorError when op is not a combination of the spanning set
    (the reconstruction from the extracted coefficients must reproduce op
    exactly).
    """
    n = op.n
    deriv, gl, pseudo = {}, {}, {}
    for (mono, d), v in op.terms.items():
        deg = sum(mono)
        if deg == 0:
            deriv[d] = deriv.get(d, 0) + v
        elif deg == 1:
            a = mono.index(1)
            gl[(a, d)] = gl.get((a, d), 0) + v
        elif deg == 2:
            # the x_i^2 d_i term appears in p_i alone, with coefficient 1
            if mono[d] == 2 and all(mono[t] == 0 for t in range(n) if t != d):
                pseudo[d] = pseudo.get(d, 0) + v
        else:
            raise UnsupportedOperatorError(f"term of degree {deg} in {op!r}")
    rebuilt = {}
    for i, v in deriv.items():
        add_into(rebuilt, derivative_op(n, i).terms.items(), v)
    for (i, j), v in gl.items():
        add_into(rebuilt, scaling_op(n, i, j).terms.items(), v)
    for i, v in pseudo.items():
        add_into(rebuilt, pseudo_translation_op(n, i).terms.items(), v)
    if rebuilt != op.terms:
        raise UnsupportedOperatorError(f"{op!r} is outside the projective span")
    return deriv, gl, pseudo


# -- graded elements and bases ---------------------------------------------------


class GradedElement:
    """Element of the degree-k graded piece: {(exponent tuple, basis index): coeff}."""

    __slots__ = ("degree", "coords")

    def __init__(self, degree, coords=None):
        self.degree = degree
        clean = {}
        if coords:
            for (mono, j), v in coords.items():
                v = _norm(_check_scalar(v))
                if v == 0:
                    continue
                if sum(mono) != degree:
                    raise ValueError(
                        f"monomial {mono} has degree {sum(mono)}, element is graded of degree {degree}"
                    )
                clean[(tuple(mono), j)] = v
        self.coords = clean

    def is_zero(self):
        return not self.coords

    def __eq__(self, other):
        if not isinstance(other, GradedElement):
            return NotImplemented
        return self.degree == other.degree and self.coords == other.coords

    def __repr__(self):
        return f"GradedElement(degree={self.degree}, nnz={len(self.coords)})"


def monomials_of_degree(n, k):
    """Exponent tuples of total degree k, descending lexicographic order."""
    if k < 0:
        return []
    out = []

    def rec(pos, rem, prefix):
        if pos == n - 1:
            out.append(prefix + (rem,))
            return
        for v in range(rem, -1, -1):
            rec(pos + 1, rem - v, prefix + (v,))

    if n == 0:
        return [()] if k == 0 else []
    rec(0, k, ())
    return out


def graded_dimension(V, k):
    if k < 0:
        return 0
    return math.comb(k + V.n - 1, V.n - 1) * V.dim


def graded_basis(V, k):
    """{m: position of x^m (x) v_0} over the degree-k monomials in basis
    order, so x^m (x) v_q sits at basis[m] + q and the piece has
    len(basis) * V.dim vectors; empty for k < 0.  Memoized per module."""
    return module_memo(
        V, "basis", k, lambda: {m: t * V.dim for t, m in enumerate(monomials_of_degree(V.n, k))}
    )


# -- the action, one basis vector at a time (the oracle) ---------------------------


def _shift_mono(mono, up=None, down=None):
    m = list(mono)
    if up is not None:
        m[up] += 1
    if down is not None:
        m[down] -= 1
    return tuple(m)


def act(op, element, V):
    """Apply a projective-span operator to a graded element, term by term.

    The operator must be nonzero with a uniform degree shift (all spanning
    elements and their brackets are); the result lives in degree k+shift.  On
    f tensor v_t, d_i differentiates f; x_i d_j differentiates and shifts f and
    adds f tensor E_{i,j} v_t; p_i multiplies f by (deg f + b) x_i and adds
    x_j f tensor E_{i,j} v_t for every j.  This is the independent oracle for
    `operator_matrix`, which assembles whole matrices block by block instead.
    """
    if op.n != V.n:
        raise ValueError("dimension mismatch between operator and module")
    shift = op.degree_shift()
    if shift is None:
        raise UnsupportedOperatorError(f"{op!r} has no uniform degree shift")
    deriv, gl, pseudo = projective_components(op)
    # (coefficient, index raised, index lowered) of each polynomial move
    moves = [(c, None, i) for i, c in deriv.items()]
    moves += [(c, i, j) for (i, j), c in gl.items()]
    moves += [(c, i, None) for i, c in pseudo.items()]
    # (coefficient, generator E_{i,j}, index raised) of each twist
    twists = [(c, V.e(i, j), None) for (i, j), c in gl.items()]
    twists += [(c, V.e(i, j), j) for i, c in pseudo.items() for j in range(V.n)]
    out = {}
    for (mono, t), val in element.coords.items():
        for c, up, down in moves:
            weight = sum(mono) + V.b if down is None else mono[down]
            if weight:
                add_into(out, [((_shift_mono(mono, up, down), t), c * val * weight)])
        for c, e, up in twists:
            m = _shift_mono(mono, up)
            add_into(out, (((m, r), a) for r, a in e.column(t).items()), c * val)
    return GradedElement(element.degree + shift, out)


# -- the action on parts of a graded piece ------------------------------------------


def weight_space(V, weight):
    """[(position, m, q)], ascending: the basis of the graded weight space of
    `weight`, a lattice weight (ints relative to mu_n, as ``V.lattice_weights``).
    x^m (x) v_q has weight m + w_q, so it holds the q with m = weight -
    lattice_weights[q] >= 0, one m per distinct lattice weight
    (``V.weight_groups``); all lattice weights have one sum, so the weight
    fixes the degree."""
    basis = graded_basis(V, sum(weight) - sum(V.lattice_weights[0]))
    support = []
    for lw, qs in V.weight_groups.items():
        m = tuple(map(operator.sub, weight, lw))
        if min(m) >= 0:
            start = basis[m]
            support.extend([(start + q, m, q) for q in qs])
    return sorted(support)


def gl_restriction(V, pairs, support):
    """(den, columns): the sum of E_ab over `pairs` (0-based) on the vectors
    [(position, m, q)] of `support`, all of one degree, as integer columns
    {position: int} over one denominator, in support order.
    E_ab (x^m (x) v_q) = m_b x^(m + e_a - e_b) (x) v_q + x^m (x) E_ab v_q:
    the x-move x_a d_b, then E_ab's column q on the block of m."""
    gens = [(a, b, V.e(a, b)) for a, b in pairs]
    den = math.lcm(*(e.den for _, _, e in gens))
    gens = [(a, b, den // e.den, e.columns) for a, b, e in gens]
    basis = graded_basis(V, sum(support[0][1])) if support else {}
    columns = []
    for pos, m, q in support:
        col = {}
        start = pos - q  # x^m (x) v_r sits at start + r
        for a, b, f, ecols in gens:
            if m[b]:  # the x-move x_a d_b
                r = basis[_shift_mono(m, a, b)] + q
                col[r] = col.get(r, 0) + den * m[b]
            if q in ecols:
                for r, x in ecols[q].items():
                    col[start + r] = col.get(start + r, 0) + f * x
        if not all(col.values()):
            col = {r: v for r, v in col.items() if v}
        columns.append(col)
    return den, columns


def _p_step_table(V, k):
    """(L, move, starts, twists), memoized per module and degree: L is the
    lcm of b's denominator and of every generator's, move = L (k + b), and
    twists[i][q] the (j, r, L E_ij[r, q]), all ints; starts[t][j] is the
    position of x^(m+e_j) (x) v_0 in degree k + 1, m the t-th monomial of
    degree k.  L and twists are shared with degree 0.  Kept apart from
    `p_step`: a closure in it slows every chain step by about 7 %."""

    def build():
        n = V.n
        if k:
            L, _, _, twists = _p_step_table(V, 0)
        else:
            L = math.lcm(V.b.denominator, *(V.e(i, j).den for i in range(n) for j in range(n)))
            twists = [[[] for _ in range(V.dim)] for _ in range(n)]
            for i in range(n):
                for j in range(n):
                    e = V.e(i, j)
                    f = L // e.den
                    for q, col in e.columns.items():
                        twists[i][q] += [(j, r, a * f) for r, a in col.items()]
        move = L * k + V.b.numerator * (L // V.b.denominator)
        up = graded_basis(V, k + 1)
        starts = [
            [up[m[:j] + (m[j] + 1,) + m[j + 1:]] for j in range(n)] for m in graded_basis(V, k)
        ]
        return L, move, starts, twists

    return module_memo(V, "p_step", k, build)


def p_step(V, i, k, vec):
    """(L, L * p_i vec) for an integer vector {position: int} of the degree-k
    piece: the image in degree k + 1, no zero entry, from `_p_step_table`;
    p_i (x^m (x) v_q) = (|m| + b) x^(m+e_i) (x) v_q + sum_j x^(m+e_j) (x) E_ij v_q."""
    L, move, starts, twists = _p_step_table(V, k)
    twist, dim = twists[i], V.dim
    acc = {}
    for pos, x in vec.items():
        t, s = divmod(pos, dim)
        start = starts[t]
        if move:
            r = start[i] + s
            acc[r] = acc.get(r, 0) + move * x
        for j, r, a in twist[s]:
            r += start[j]
            acc[r] = acc.get(r, 0) + a * x
    if not all(acc.values()):
        acc = {r: v for r, v in acc.items() if v}
    return L, acc


# -- per-degree matrices, assembled block by block (cached) -----------------------


def _plan(op, V):
    """The degree-free part of op's assembly: the moves of d_i and x_i d_j,
    the p_i coefficients, and the generator blocks, each a list of
    (coefficient, V.e(i, j)) terms; `_assemble` keeps it per module."""
    deriv, gl, pseudo = projective_components(op)
    # (coefficient, index raised, index lowered) of each polynomial move
    moves = [(c, None, i) for i, c in deriv.items()]
    moves += [(c, i, j) for (i, j), c in gl.items()]
    # (index raised, (coefficient, generator) terms) of each generator block
    blocks = [(None, [(c, V.e(i, j)) for (i, j), c in gl.items()])] if gl else []
    if pseudo:
        blocks += [(j, [(c, V.e(i, j)) for i, c in pseudo.items()]) for j in range(V.n)]
    return moves, pseudo, blocks


def _assemble(op, V, k, src, dst):
    """(den, columns): op's matrix from the degree-k basis `src` to `dst`
    (`graded_basis`) as integer columns {col: {row: int}} over one
    denominator.

    Each operator acts on x^m tensor V as a polynomial move times Id_V plus
    generator blocks: d_i moves m to m - e_i (weight m_i); x_i d_j moves m to
    m + e_i - e_j (weight m_j) and adds E_{i,j} on the block of m; p_i moves m
    to m + e_i (weight |m| + b) and adds E_{i,j} on the block of m + e_j.  The
    block of m starts at basis[m].  Only the p_i weight k + b and the
    positions depend on the degree k; the rest is `_plan`'s.  Each block term
    c * E_{i,j} adds E_{i,j}'s integer columns scaled to the common
    denominator, the lcm over the moves and every c.den * E_{i,j}.den.
    """
    moves, pseudo, blocks = module_memo(V, "plan", op, lambda: _plan(op, V))
    d = V.dim
    moves = moves + [(c * (k + V.b), i, None) for i, c in pseudo.items()]
    den = math.lcm(*(c.denominator for c, _, _ in moves),
                   *(c.denominator * e.den for _, terms in blocks for c, e in terms))
    moves = [(c.numerator * (den // c.denominator), up, down) for c, up, down in moves]
    blocks = [(up, [(c.numerator * (den // (c.denominator * e.den)), e.columns) for c, e in terms])
              for up, terms in blocks]
    # keys take their positions from this list, so the cached columns share
    # one int object per position instead of holding fresh sums
    pos = list(range(max(len(src), len(dst)) * d))
    cols = {}
    for mono, col in src.items():
        poly = {}
        for c, up, down in moves:
            weight = 1 if down is None else mono[down]
            if weight:
                m = _shift_mono(mono, up, down)
                poly[m] = poly.get(m, 0) + c * weight
        out = [{} for _ in range(d)]
        for m, s in poly.items():
            if s:
                row = dst[m]
                for t in range(d):
                    out[t][pos[row + t]] = s
        for up, terms in blocks:
            row = dst[_shift_mono(mono, up)]
            for f, columns in terms:
                for t, entries in columns.items():
                    acc = out[t]
                    for r, a in entries.items():
                        key = pos[row + r]
                        s = acc.get(key, 0) + a * f
                        if s:
                            acc[key] = s
                        else:
                            del acc[key]
        for t, acc in enumerate(out):
            if acc:
                cols[pos[col + t]] = acc
    return den, cols


def operator_matrix(op, V, k):
    """Exact matrix of `op` from the degree-k basis to the shifted target basis.

    The zero operator and operators mixing degree shifts have no target
    degree; they raise UnsupportedOperatorError.
    """

    def build():
        if op.n != V.n:
            raise ValueError("dimension mismatch between operator and module")
        shift = op.degree_shift()
        if shift is None:
            raise UnsupportedOperatorError(f"{op!r} has no uniform degree shift")
        src = graded_basis(V, k)
        dst = graded_basis(V, k + shift)
        d = V.dim
        return Matrix.from_int_columns(len(dst) * d, len(src) * d, *_assemble(op, V, k, src, dst))

    return module_memo(V, "matrix", (op, k), build)


def commutator_equals(u, w, V, k, target):
    """Whether the matrix of uw - wu on the degree-k piece equals target, a
    Matrix, or zero when it is None; exact, and the commutator is never built."""
    return product_difference_equals(
        operator_matrix(u, V, k + w.degree_shift()),
        operator_matrix(w, V, k),
        operator_matrix(w, V, k + u.degree_shift()),
        operator_matrix(u, V, k),
        target,
    )


def triangle_delta(i, j, k, V):
    """Matrix of the degree-preserving bookkeeping operator on degree zero.

    For i != j this is x_{j+1} d_{x_{i+1}}; on the diagonal it is the Euler
    field plus x_{i+1} d_{x_{i+1}} plus the constant k-1, where k counts the
    raising factors being peeled off (arguments 0-based).
    """
    n = V.n
    if i != j:
        return operator_matrix(scaling_op(n, j, i), V, 0)
    op = scaling_op(n, i, i)
    for l in range(n):
        op = op + scaling_op(n, l, l)
    m = operator_matrix(op, V, 0)
    if k != 1:
        m = m + Matrix.identity(m.rows).scale(k - 1)
    return m


@functools.cache
def spanning_brackets(n):
    """(ops, brackets): the spanning operators of n, and brackets[a][b - a - 1]
    = [ops[a], ops[b]] for a < b, as tuples.  The brackets depend on n alone,
    so every module's bracket check reads the same elements."""
    ops = tuple(op for _, op in spanning_operators(n))
    return ops, tuple(tuple(u.bracket(w) for w in ops[a + 1:]) for a, u in enumerate(ops))


def verify_bracket_consistency(n, V, k_max):
    """Check that symbolic brackets match matrix commutators on all pieces.

    For every unordered pair from the spanning set and every degree up to
    k_max the commutator of the operator matrices must equal the matrix of
    the symbolic bracket (from `spanning_brackets(n)`) exactly, or vanish
    where the bracket does.  The factors are fetched once, into a table of each
    spanning operator's matrices on degrees -1 .. k_max + 1.  A negative
    k_max raises ValueError.
    """
    if k_max < 0:
        raise ValueError(f"degree cap must be >= 0, got {k_max}")
    ops, brackets = spanning_brackets(n)
    table = [({k: operator_matrix(op, V, k) for k in range(-1, k_max + 2)}, op.degree_shift()) for op in ops]
    for a, (mu, su) in enumerate(table):
        for (mw, sw), bracket in zip(table[a + 1:], brackets[a]):
            for k in range(k_max + 1):
                target = None if bracket.is_zero() else operator_matrix(bracket, V, k)
                if not product_difference_equals(mu[k + sw], mw[k], mw[k + su], mu[k], target):
                    return False
    return True
