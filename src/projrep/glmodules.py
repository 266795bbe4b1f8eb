"""Finite-dimensional irreducible gl(n)-modules with explicit generator matrices.

A module is labelled by nonnegative Dynkin labels (a_1, ..., a_{n-1}) for the
traceless part plus a rational central scalar b for the identity matrix.
Construction uses the Gelfand-Tsetlin basis: one basis vector per pattern,
a triangular array of integer rows, row n (the top) being mu - mu_n and row
k - 1 interlacing row k.  A pattern's weight is read off its row sums, and
the simple generators E_{k,k+1} and E_{k+1,k} act by closed-form rational
coefficients in the l-values l_ki = L_ki - i + 1 of rows k and k +- 1 (see
`build_irreducible`), both written in one pass per pair of rows, from moves
computed once per rows k - 1, k, k + 1 and found by integer pattern codes;
every other E_{i,j} is `linalg.commutator` of two generators nearer the
diagonal.  No elimination is involved.  A weight is an n-tuple,
index i holding the E_{i,i} eigenvalue.  The weights of a module differ by
roots, so a module stores each as an integer tuple relative to mu_n, and
only `dominant_weight_spaces` decides dominance, on those tuples.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections import Counter, defaultdict, namedtuple
from fractions import Fraction
from math import factorial, lcm

from .errors import ConsistencyViolationError, DimensionCapError
from .linalg import Matrix, commutator, product_difference_equals

__all__ = [
    "DominantLabels",
    "GlModule",
    "build_irreducible",
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


def weyl_dimension(mu=None, gaps=None):
    """prod_{i<j} (mu_i - mu_j + j - i)/(j - i); requires integer dominant gaps.

    mu_i - mu_j is the sum of gaps i..j-1, so the product runs on integers;
    `gaps` are mu's `dominant_gaps`, computed from mu when not given.
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
        cap = remaining if pos == 0 else min(remaining, gaps[pos - 1])
        if pos == n - 1:  # the remainder fixes the last entry, if it fits its gap
            if cap == remaining >= 0:
                out.append(prefix + (remaining,))
            return
        for v in range(cap, -1, -1):
            rec_capped(pos + 1, remaining - v, prefix + (v,))

    rec_capped(0, int(j), ())
    return tuple(out)


class GlModule:
    """Concrete gl(n)-module: weights per basis vector and all E_{i,j} matrices.

    ``lattice_weights[q]`` is the weight of basis vector q minus mu_n, ints,
    and ``basis_weights[q]`` the weight, computed on first read, as are
    ``highest_weight`` and ``weight_groups``, the positions per lattice weight.  ``action[i][j]`` is the matrix of E_{i+1,j+1}
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
    def weight_groups(self):
        """{lattice weight: [q, ...]}: the basis positions of each distinct
        lattice weight, ascending, the weights in order of their first position."""
        groups = {}
        for q, lw in enumerate(self.lattice_weights):
            groups.setdefault(lw, []).append(q)
        return groups

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
    weight w = lattice_weights[q] + shifts[t] is dominant, ascending per w,
    the keys in order of their first position.

    Dominance is tested once per shift and distinct lattice weight
    (``V.weight_groups``), whose positions all share the weight.  Shifts the
    monomials of one degree give positions in that graded piece; shifts
    +-e_i give the indices of C^n (x) V or of its dual.  Keys relative to
    mu_n have the dominance and orbit sizes of the weights themselves.
    """
    spaces = {}
    for t, s in enumerate(shifts):
        offset = t * V.dim
        for lw, qs in V.weight_groups.items():
            w = weight_add(lw, s)
            if is_dominant(w):
                spaces.setdefault(w, []).extend([offset + q for q in qs])
    return spaces


# -- construction -------------------------------------------------------------


def _patterns(top, radix):
    """(lattice weight, rows, code) of every Gelfand-Tsetlin pattern with top
    row `top`, from one recursion down from the top row.  ``rows`` runs from
    row 1 (one entry) up to the top row, row k - 1 interlacing row k,
    row_k[i] >= row_{k-1}[i] >= row_k[i+1]; the lattice weight's entry k is
    sum row_k - sum row_{k-1}; entry p of the rows, read from row 1 up, is
    the digit of radix**p of the code.  Patterns come in lexicographic order
    of (row n - 1, ..., row 1)."""
    out = []

    def below(rows, weight, code):
        upper = rows[0]
        s = sum(upper)
        if len(upper) == 1:  # n = 1
            out.append(((s,) + weight, rows, code))
        elif len(upper) == 2:  # row 1: one entry, the digit of radix**0
            out.extend(((x, s - x) + weight, ((x,),) + rows, code + x) for x in range(upper[1], upper[0] + 1))
        else:  # the row below has m entries, digits from radix**(m(m-1)/2) on
            m = len(upper) - 1
            powers = [radix**p for p in range(m * (m - 1) // 2, m * (m + 1) // 2)]
            for row in itertools.product(*(range(lo, hi + 1) for hi, lo in zip(upper, upper[1:]))):
                below((row,) + rows, (s - sum(row),) + weight, code + sum(map(operator.mul, row, powers)))

    n = len(top)
    below((tuple(top),), (), sum(x * radix**p for p, x in enumerate(top, n * (n - 1) // 2)))
    return out


def _moves(lower, row, upper, offsets):
    """[(offset, raising, lowering)]: the moves L -> L + d_i of entry i of
    `row` that keep L a pattern, for a pattern L with rows `lower`, `row`,
    `upper` around it, i descending, each at its code offset (``offsets``,
    i descending).  ``raising`` is the int pair (num, den), den > 0, of
    E_{k,k+1}[L + d_i, L], and ``lowering`` that of E_{k+1,k}[L, L + d_i]:

      raising  = -prod_j (l_i - u_j) / prod_{j!=i} (l_i - l_j)
      lowering =  prod_j (l_i + 1 - d_j) / prod_{j!=i} (l_i + 1 - l_j)

    with l, u and d the l-values of `row`, `upper` and `lower`.  L + d_i is a
    pattern unless row[i] = upper[i] or lower[i-1] = row[i], and those are
    exactly the cases where a numerator vanishes: for a move that keeps a
    pattern, neither coefficient is zero."""
    l = [x - i for i, x in enumerate(row)]
    u = [x - j for j, x in enumerate(upper)]
    d = [x - j for j, x in enumerate(lower)]
    out = []
    i = len(row)
    for offset in offsets:
        i -= 1
        if row[i] == upper[i] or (i and lower[i - 1] == row[i]):
            continue
        li = l[i]
        up = -1
        for x in u:
            up *= li - x
        down = 1
        for x in d:
            down *= li + 1 - x
        up_den = down_den = 1
        for j, x in enumerate(l):
            if j != i:
                up_den *= li - x
                down_den *= li + 1 - x
        if i % 2:  # the i factors j < i of each den are negative
            up, up_den, down, down_den = -up, -up_den, -down, -down_den
        out.append((offset, (up, up_den), (down, down_den)))
    return out


def build_irreducible(labels, dim_cap=DEFAULT_DIM_CAP):
    """Construct the irreducible module for the given labels.

    Refuses construction when the Weyl dimension exceeds `dim_cap`.  The basis
    is the Gelfand-Tsetlin basis: one vector xi_L per pattern L with top row
    mu - mu_n, all integers (`_patterns`, which yields each pattern with its
    lattice weight and integer code), sorted by weight, descending, so the
    highest pattern comes first.  E_kk acts on xi_L by the lattice weight
    sum row_k - sum row_{k-1}, plus mu_n.  With l_ki = L_ki - i + 1 (i
    1-based), the simple generators act in closed form (Gelfand and Tsetlin
    1950; Molev, arXiv math/0211289, Thm. 2.3):

      E_{k,k+1} xi_L = -sum_i prod_j (l_ki - l_{k+1,j}) / prod_{j!=i} (l_ki - l_kj) xi_{L+d_ki}
      E_{k+1,k} xi_L =  sum_i prod_j (l_ki - l_{k-1,j}) / prod_{j!=i} (l_ki - l_kj) xi_{L-d_ki}

    L +- d_ki is L with entry i of row k raised or lowered by 1.  One pass
    per pair of rows k, k + 1 finds each move L -> L + d_ki that keeps a
    pattern (`_moves`, once per rows k - 1, k, k + 1) at an offset of L's
    code (radix max(mu - mu_n) + 2), and writes E_{k,k+1}[L + d_ki, L] and
    E_{k+1,k}[L, L + d_ki] in the same step; a term whose array is not a
    pattern has a zero coefficient, so the two supports are transposes.
    E_{i,j} with |i - j| >= 2 is [E_{i,i+1}, E_{i+1,j}] or
    [E_{j,j-1}, E_{j-1,i}], from `linalg.commutator`.  Entries are stored
    column by column, rows ascending within a column.
    """
    n = labels.n
    mu = weight_from_labels(labels)
    target_dim = weyl_dimension(mu)
    if target_dim > dim_cap:
        raise DimensionCapError(
            f"module dimension {target_dim} exceeds cap {dim_cap}"
        )

    top = [int(x - mu[-1]) for x in mu]
    # entries lie in 0 .. radix - 2, so raising one by 1 adds the power of its
    # digit to the code and carries nothing
    radix = top[0] + 2
    weights, patterns, codes = zip(*sorted(_patterns(top, radix), key=operator.itemgetter(0), reverse=True))
    dim = len(patterns)
    if dim != target_dim:
        raise ConsistencyViolationError(
            f"{dim} Gelfand-Tsetlin patterns, Weyl formula says {target_dim}"
        )
    index_of = {code: idx for idx, code in enumerate(codes)}

    def row_pair(k):
        """E_{k+1,k+2} and E_{k+2,k+1}, k 0-based: row k of the patterns moves.

        A first pass takes each pattern's moves from a table keyed by its
        rows k - 1, k, k + 1; every move in the table is made, so the lcm of
        the table's dens is each matrix's den, and the pairs are scaled to it
        in place.  The second pass finds each target L + d_i by its code,
        always a pattern, and writes both entries.  Every target has a
        weight above L's, so it sorts before L, and among patterns of one
        weight later ones are lexicographically larger: in a column of
        E_{k+1,k+2} the targets ascend as i descends, and the columns of
        E_{k+2,k+1} fill with rows ascending, in an order sorted at the end.
        """
        offsets = [radix ** (k * (k + 1) // 2 + i) for i in reversed(range(k + 1))]
        lo = max(k - 1, 0)
        table, found = {}, []
        for pattern in patterns:
            key = pattern[lo:k + 2]
            moves = table.get(key)
            if moves is None:
                moves = table[key] = _moves(key[0] if k else (), *key[-2:], offsets)
            found.append(moves)
        up_scale = lcm(*(up[1] for moves in table.values() for _, up, _ in moves))
        down_scale = lcm(*(down[1] for moves in table.values() for _, _, down in moves))
        for moves in table.values():
            moves[:] = [(offset, up * (up_scale // up_den), down * (down_scale // down_den))
                        for offset, (up, up_den), (down, down_den) in moves]
        raising, lowering = {}, defaultdict(dict)
        for c, (code, moves) in enumerate(zip(codes, found)):
            if moves:
                col = raising[c] = {}
                for offset, up, down in moves:
                    t = index_of[code + offset]
                    col[t] = up
                    lowering[t][c] = down
        return (Matrix.from_int_columns(dim, dim, up_scale, raising),
                Matrix.from_int_columns(dim, dim, down_scale, dict(sorted(lowering.items()))))

    # E_{i,i} is diagonal with entries w_i + mu_n, integers over mu_n's denominator
    num, den = mu[-1].numerator, mu[-1].denominator
    action = [[None] * n for _ in range(n)]
    for i in range(n):
        diag = {col: {col: v} for col, w in enumerate(weights) if (v := w[i] * den + num)}
        action[i][i] = Matrix.from_int_columns(dim, dim, den, diag)
    for k in range(n - 1):
        action[k][k + 1], action[k + 1][k] = row_pair(k)
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


# -- memo tables per module -----------------------------------------------------


def module_memo(V, table, key, compute):
    """compute(), memoized under `key` in V's memo table named `table`.

    The tables live on V and are freed with it.
    """
    memo = V.memo.setdefault(table, {})
    hit = memo.get(key)
    if hit is None:
        hit = memo[key] = compute()
    return hit
