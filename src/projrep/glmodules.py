"""Finite-dimensional irreducible gl(n)-modules with explicit generator matrices.

A module is labelled by nonnegative Dynkin labels (a_1, ..., a_{n-1}) for the
traceless part plus a rational central scalar b for the identity matrix.
Construction uses the Gelfand-Tsetlin basis: one basis vector per pattern,
a triangular array of integer rows, row n (the top) being mu - mu_n and row
k - 1 interlacing row k.  A pattern's weight is read off its row sums, and
the simple generators E_{k,k+1} and E_{k+1,k} act by closed-form rational
coefficients in the l-values l_ki = L_ki - i + 1 of rows k and k +- 1 (see
`build_irreducible`), computed once per pair of rows and applied by integer
pattern codes; every other E_{i,j} is `linalg.commutator` of two generators
nearer the diagonal.  No elimination is involved.  A weight is an n-tuple,
index i holding the E_{i,i} eigenvalue.  The weights of a module differ by
roots, so a module stores each as an integer tuple relative to mu_n, and
only `dominant_weight_spaces` decides dominance, on those tuples.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections import Counter, namedtuple
from fractions import Fraction
from math import factorial, lcm, prod

from .errors import ConsistencyViolationError, DimensionCapError
from .linalg import Matrix, commutator, product_difference_equals

__all__ = [
    "DominantLabels",
    "GlModule",
    "build_irreducible",
    "clear_caches",
    "dominant_gaps",
    "dominant_weight_spaces",
    "is_dominant",
    "module_memo",
    "orbit_size",
    "pieri_index_set",
    "validate_module",
    "weight_add",
    "weight_from_labels",
    "weyl_dimension",
]

DEFAULT_DIM_CAP = 5000


class DominantLabels(namedtuple("DominantLabels", "n dynkin b")):
    """Dynkin labels of the traceless part plus the central scalar b."""

    __slots__ = ()

    def __new__(cls, n, dynkin, b):
        if n < 1:
            raise ValueError("n must be >= 1")
        dyn = tuple(int(a) for a in dynkin)
        if len(dyn) != n - 1:
            raise ValueError(f"expected {n - 1} Dynkin labels, got {len(dyn)}")
        if any(a < 0 for a in dyn):
            raise ValueError("Dynkin labels must be nonnegative")
        return super().__new__(cls, n, dyn, Fraction(b))


def weight_add(mu, c):
    return tuple(map(operator.add, mu, c))


def dominant_gaps(mu):
    """Consecutive differences of a dominant weight, as nonnegative ints."""
    gaps = []
    for i in range(len(mu) - 1):
        d = mu[i] - mu[i + 1]
        if d != int(d) or d < 0:
            raise ValueError(f"weight {mu} is not dominant: gap {i} is {d}")
        gaps.append(int(d))
    return gaps


def is_dominant(w):
    """Whether the weight is non-increasing, w_1 >= w_2 >= ... >= w_n: the one
    weight of its S_n-orbit that a finite-dimensional module's highest
    weights and dominant weight spaces are taken from."""
    return all(map(operator.ge, w, w[1:]))


def orbit_size(w):
    """|S_n . w| = n! / prod m!, m running over the multiplicities of w's entries."""
    size = factorial(len(w))
    for m in Counter(w).values():
        size //= factorial(m)
    return size


def weight_from_labels(labels):
    """Highest weight of the module: mu_j = sum_{i>=j} a_i + (b - sum i*a_i)/n."""
    n = labels.n
    a = labels.dynkin
    shift = Fraction(labels.b - sum((i + 1) * ai for i, ai in enumerate(a)), n)
    return tuple(sum(a[j:]) + shift for j in range(n - 1)) + (shift,)


def weyl_dimension(mu, gaps=None):
    """prod_{i<j} (mu_i - mu_j + j - i)/(j - i); requires integer dominant gaps.

    mu_i - mu_j is the sum of gaps i..j-1, so the product runs on integers;
    `gaps` are mu's `dominant_gaps`, computed here when not given.
    """
    if gaps is None:
        gaps = dominant_gaps(mu)
    num = 1
    den = 1
    for i in range(len(gaps)):
        diff = 0
        for j in range(i, len(gaps)):
            diff += gaps[j]
            num *= diff + j + 1 - i
            den *= j + 1 - i
    q, rem = divmod(num, den)
    if rem:
        raise ConsistencyViolationError(f"Weyl dimension {num}/{den} is not an integer")
    return q


def pieri_index_set(mu, j):
    """All c in N^n with |c| = j and c_{s+1} <= mu_s - mu_{s+1}.

    These index the summands mu + c of the tensor product of the module with
    the degree-j symmetric power of the vector representation.  Returned in
    descending lexicographic order (c_1 largest first); c_1 is unconstrained.
    """
    n = len(mu)
    gaps = dominant_gaps(mu)
    out = []

    def rec_capped(pos, remaining, prefix):
        if pos == n:
            if remaining == 0:
                out.append(prefix)
            return
        cap = remaining if pos == 0 else min(remaining, gaps[pos - 1])
        for v in range(cap, -1, -1):
            rec_capped(pos + 1, remaining - v, prefix + (v,))

    rec_capped(0, int(j), ())
    return tuple(out)


class GlModule:
    """Concrete gl(n)-module: weights per basis vector and all E_{i,j} matrices.

    ``lattice_weights[q]`` is the weight of basis vector q minus mu_n, ints,
    and ``basis_weights[q]`` the weight, computed on first read, as is
    ``highest_weight``.  ``action[i][j]`` is the matrix of E_{i+1,j+1}
    (0-based storage of the 1-based generators).  Instances are immutable
    after construction; ``memo`` holds the derived data that ``module_memo``
    caches for them.
    """

    highest_index = 0  # patterns are sorted by weight, the highest first

    def __init__(self, labels, lattice_weights, action):
        self.labels = labels
        self.n = labels.n
        self.lattice_weights = tuple(tuple(w) for w in lattice_weights)
        self.dim = len(self.lattice_weights)
        self.action = tuple(tuple(row) for row in action)
        self.memo = {}

    @property
    def b(self):
        return self.labels.b

    def _weights(self, lattice_weights):
        """The weights of these lattice weights: mu_n added to each entry."""
        mu_n = weight_from_labels(self.labels)[-1]
        return tuple(tuple(x + mu_n for x in w) for w in lattice_weights)

    @functools.cached_property
    def basis_weights(self):
        return self._weights(self.lattice_weights)

    @functools.cached_property
    def highest_weight(self):
        return self._weights([self.lattice_weights[self.highest_index]])[0]

    def e(self, i, j):
        """Matrix of E_{i+1,j+1} (arguments 0-based)."""
        return self.action[i][j]

    def __repr__(self):
        return (
            f"GlModule(n={self.n}, dynkin={self.labels.dynkin}, "
            f"b={self.labels.b}, dim={self.dim})"
        )


def dominant_weight_spaces(V, shifts):
    """{w: [t * dim + q]}: the positions of shifts x basis, row-major, whose
    weight w = lattice_weights[q] + shifts[t] is dominant, ascending per w.

    Shifts the monomials of one degree give positions in that graded piece;
    shifts +-e_i give the indices of C^n (x) V or of its dual.  Keys relative
    to mu_n have the dominance and orbit sizes of the weights themselves.
    """
    spaces = {}
    pos = 0
    for s in shifts:
        for lw in V.lattice_weights:
            w = weight_add(lw, s)
            if is_dominant(w):
                spaces.setdefault(w, []).append(pos)
            pos += 1
    return spaces


# -- construction -------------------------------------------------------------


def _gt_patterns(top):
    """Every Gelfand-Tsetlin pattern with top row `top`, as a tuple of rows
    from row 1 (one entry) up to the top row: row k - 1 interlaces row k,
    row_k[i] >= row_{k-1}[i] >= row_k[i+1]."""
    patterns = []

    def below(rows):
        upper = rows[0]
        if len(upper) == 1:
            patterns.append(rows)
            return
        ranges = [range(lo, hi + 1) for hi, lo in zip(upper, upper[1:])]
        for row in itertools.product(*ranges):
            below((row,) + rows)

    below((tuple(top),))
    return patterns


def build_irreducible(labels, dim_cap=DEFAULT_DIM_CAP):
    """Construct the irreducible module for the given labels.

    Refuses construction when the Weyl dimension exceeds `dim_cap`.  The basis
    is the Gelfand-Tsetlin basis: one vector xi_L per pattern L with top row
    mu - mu_n, all integers (`_gt_patterns`), sorted by weight, descending,
    so the highest pattern comes first.  E_kk acts on xi_L by the lattice
    weight sum row_k - sum row_{k-1}, plus mu_n.  With l_ki = L_ki - i + 1
    (i 1-based), the simple generators act in closed form (Gelfand and
    Tsetlin 1950; Molev, arXiv math/0211289, Thm. 2.3):

      E_{k,k+1} xi_L = -sum_i prod_j (l_ki - l_{k+1,j}) / prod_{j!=i} (l_ki - l_kj) xi_{L+d_ki}
      E_{k+1,k} xi_L =  sum_i prod_j (l_ki - l_{k-1,j}) / prod_{j!=i} (l_ki - l_kj) xi_{L-d_ki}

    L +- d_ki is L with entry i of row k raised or lowered by 1, found as an
    offset of L's integer code (radix max(mu - mu_n) + 2); a term whose array
    is not a pattern is dropped.  E_{i,j} with |i - j| >= 2 is
    [E_{i,i+1}, E_{i+1,j}] or [E_{j,j-1}, E_{j-1,i}], from
    `linalg.commutator`.  Entries are stored column by column, rows
    ascending within a column.
    """
    n = labels.n
    mu = weight_from_labels(labels)
    target_dim = weyl_dimension(mu)
    if target_dim > dim_cap:
        raise DimensionCapError(
            f"module dimension {target_dim} exceeds cap {dim_cap}"
        )

    def lattice_weight(pattern):
        sums = [0] + [sum(row) for row in pattern]
        return tuple(sums[k + 1] - sums[k] for k in range(n))

    top = [int(x - mu[-1]) for x in mu]
    weights, patterns = zip(*sorted(
        ((lattice_weight(p), p) for p in _gt_patterns(top)), key=operator.itemgetter(0), reverse=True
    ))
    dim = len(patterns)
    if dim != target_dim:
        raise ConsistencyViolationError(
            f"{dim} Gelfand-Tsetlin patterns, Weyl formula says {target_dim}"
        )
    # entry p of a pattern's rows, read from row 1 up, is the digit of radix**p
    # of its code; entries lie in 0 .. radix - 2, so moving one by +-1 adds
    # +-radix**p, and an array that is no pattern gets a digit radix - 1 (or a
    # negative code) and matches no code
    radix = top[0] + 2
    codes = [sum(x * radix**p for p, x in enumerate(itertools.chain(*pattern))) for pattern in patterns]
    index_of = {code: idx for idx, code in enumerate(codes)}

    def simple(k, step):
        """E_{k+1,k+2} (step 1) or E_{k+2,k+1} (step -1), k 0-based: row k of
        each pattern moves, and the numerators read the l-values of row
        k + step.  Each coefficient is an int pair (num, den), den > 0,
        computed once per pair of rows k and k + step with the code offset of
        its move; the matrix is their nums scaled to the lcm of the dens,
        over that lcm."""
        table, columns = {}, {}
        for c, (pattern, code) in enumerate(zip(patterns, codes)):
            key = pattern[k], pattern[k + step] if k + step >= 0 else ()
            coeffs = table.get(key)
            if coeffs is None:
                row, other = ([x - i for i, x in enumerate(r)] for r in key)
                coeffs = table[key] = []
                for i, li in enumerate(row):
                    if num := -step * prod(li - x for x in other):
                        den = prod(li - x for j, x in enumerate(row) if j != i)
                        offset = step * radix ** (k * (k + 1) // 2 + i)
                        coeffs.append((offset, (-num, -den) if den < 0 else (num, den)))
            col = sorted((t, coeff) for d, coeff in coeffs if (t := index_of.get(code + d)) is not None)
            if col:
                columns[c] = dict(col)
        scale = lcm(*(den for col in columns.values() for _, den in col.values()))
        ints = {c: {r: num * (scale // den) for r, (num, den) in col.items()} for c, col in columns.items()}
        return Matrix.from_int_columns(dim, dim, scale, ints)

    # E_{i,i} is diagonal with entries w_i + mu_n, integers over mu_n's denominator
    num, den = mu[-1].numerator, mu[-1].denominator
    action = [[None] * n for _ in range(n)]
    for i in range(n):
        diag = {col: {col: v} for col, w in enumerate(weights) if (v := w[i] * den + num)}
        action[i][i] = Matrix.from_int_columns(dim, dim, den, diag)
    for k in range(n - 1):
        action[k][k + 1] = simple(k, 1)
        action[k + 1][k] = simple(k, -1)
    # [E_{i,i+1}, E_{i+1,j}] = E_{i,j} and [E_{j,j-1}, E_{j-1,i}] = E_{j,i}
    for gap in range(2, n):
        for i in range(n - gap):
            j = i + gap
            action[i][j] = commutator(action[i][i + 1], action[i + 1][j])
            action[j][i] = commutator(action[j][j - 1], action[j - 1][i])

    mod = GlModule(labels, weights, action)
    if mod.highest_weight != mu:
        raise ConsistencyViolationError(
            "built module's highest weight differs from the requested labels"
        )
    return mod


# -- invariants ----------------------------------------------------------------


def validate_module(V):
    """Check every structural invariant; raises ConsistencyViolationError."""
    n, d = V.n, V.dim

    def fail(msg):
        raise ConsistencyViolationError(f"{V!r}: {msg}")

    idm = Matrix.identity(d)
    for i in range(n):
        expected = Matrix(d, d, {(t, t): V.basis_weights[t][i] for t in range(d)})
        if V.e(i, i) != expected:
            fail(f"E_{i+1},{i+1} is not diagonal with the recorded weights")
    total = Matrix.zeros(d, d)
    for i in range(n):
        total = total + V.e(i, i)
    if total != idm.scale(V.b):
        fail("sum of Cartan generators is not b * Id")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    # [E_ij, E_kl] = delta_kj E_il - delta_il E_kj
                    rhs = V.e(i, l) if k == j else None
                    if i == l:
                        rhs = -V.e(k, j) if rhs is None else rhs - V.e(k, j)
                    if not product_difference_equals(V.e(i, j), V.e(k, l), V.e(k, l), V.e(i, j), rhs):
                        fail(f"commutation fails on E_{i+1},{j+1}, E_{k+1},{l+1}")
    for i in range(n):
        for j in range(i + 1, n):
            if V.e(i, j).column(V.highest_index):
                fail(f"highest vector not annihilated by E_{i+1},{j+1}")
    if V.dim != weyl_dimension(V.highest_weight):
        fail("dimension does not match the Weyl formula")
    return True


# -- caches: constructed modules, and memo tables per module ---------------------

_module_cache = {}


def module_memo(V, table, key, compute):
    """compute(), memoized under `key` in V's memo table named `table`.

    The tables live on V and are freed with it.
    """
    memo = V.memo.setdefault(table, {})
    hit = memo.get(key)
    if hit is None:
        hit = memo[key] = compute()
    return hit


def cached_module(n, dynkin, b, dim_cap=DEFAULT_DIM_CAP):
    """Memoized build_irreducible; modules are immutable so sharing is safe."""
    key = (n, tuple(dynkin), Fraction(b), dim_cap)
    mod = _module_cache.get(key)
    if mod is None:
        mod = _module_cache[key] = build_irreducible(
            DominantLabels(n, tuple(dynkin), Fraction(b)), dim_cap
        )
    return mod


def clear_caches():
    """Forget every cached module, and with them their memo tables."""
    _module_cache.clear()
