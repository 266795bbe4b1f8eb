"""Finite-dimensional irreducible gl(n)-modules with explicit generator matrices.

A module is labelled by nonnegative Dynkin labels (a_1, ..., a_{n-1}) for the
traceless part plus a rational central scalar b for the identity matrix.
Construction realizes it inside the product of the symmetric powers
Sym^{a_d}(Lambda^d) of the exterior powers of the vector representation (the
Plucker realization): the product of the top wedges is a highest-weight
vector, and its cyclic span under the simple lowerings F_j = E_{j+1,j} is the
module.  The Cartan diagonal is then shifted so the identity acts by b.  Only
the lowerings act on the symmetric powers.  Their columns are read off the
span's insertions, the simple raisings follow from
E_i F_j = F_j E_i + delta_ij H_i in module coordinates, and every other
E_{i,j} is a commutator of two generators nearer the diagonal.  A weight is
an n-tuple, index i holding the E_{i,i} eigenvalue.  The weights of a module
differ by roots, so a module stores each as an integer tuple relative to
mu_n, and only `dominant_weight_spaces` decides dominance, on those tuples.
"""

from __future__ import annotations

import itertools
import operator
from bisect import bisect_right
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .errors import ConsistencyViolationError, DimensionCapError
from .linalg import EchelonSpan, Matrix, add_into

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


@dataclass(frozen=True)
class DominantLabels:
    """Dynkin labels of the traceless part plus the central scalar b."""

    n: int
    dynkin: tuple
    b: Fraction

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        dyn = tuple(int(a) for a in self.dynkin)
        if len(dyn) != self.n - 1:
            raise ValueError(f"expected {self.n - 1} Dynkin labels, got {len(dyn)}")
        if any(a < 0 for a in dyn):
            raise ValueError("Dynkin labels must be nonnegative")
        object.__setattr__(self, "dynkin", dyn)
        object.__setattr__(self, "b", Fraction(self.b))


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


def weyl_dimension(mu):
    """prod_{i<j} (mu_i - mu_j + j - i)/(j - i); requires integer dominant gaps."""
    dominant_gaps(mu)
    n = len(mu)
    num = 1
    den = 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= int(mu[i] - mu[j]) + j - i
            den *= j - i
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
    and ``basis_weights[q]`` the weight.  ``action[i][j]`` is the matrix of
    E_{i+1,j+1} (0-based storage of the 1-based generators).  Instances are
    immutable after construction; ``memo`` holds the derived data that
    ``module_memo`` caches for them.
    """

    highest_index = 0  # the lowering closure starts from the highest vector

    def __init__(self, labels, lattice_weights, action):
        self.labels = labels
        self.n = labels.n
        self.lattice_weights = tuple(tuple(w) for w in lattice_weights)
        self.dim = len(self.lattice_weights)
        base = weight_from_labels(labels)[-1]
        self.basis_weights = tuple(tuple(x + base for x in w) for w in self.lattice_weights)
        self.action = tuple(tuple(row) for row in action)
        self.memo = {}

    @property
    def b(self):
        return self.labels.b

    @property
    def highest_weight(self):
        return self.basis_weights[self.highest_index]

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


def _wedge_basis(n, d):
    return list(itertools.combinations(range(n), d))


def _wedge_apply(n, i, j, subset):
    """E_{i,j} on a wedge basis element; returns (target_subset, sign) or None."""
    if j not in subset:
        return None
    if i == j:
        return subset, 1
    if i in subset:
        return None
    lst = [i if s == j else s for s in subset]
    lo, hi = min(i, j), max(i, j)
    crossings = sum(1 for s in subset if lo < s < hi and s != j)
    target = tuple(sorted(lst))
    return target, (-1) ** crossings


def _wedge_table(n, d):
    """E_{i,j} on the degree-d wedge basis, tabulated: table[i][j][idx] is
    (target index, sign) or None for the basis element at position idx."""
    basis = _wedge_basis(n, d)
    position = {subset: idx for idx, subset in enumerate(basis)}
    table = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            row = []
            for subset in basis:
                hit = _wedge_apply(n, i, j, subset)
                row.append(None if hit is None else (position[hit[0]], hit[1]))
            table[i][j] = row
    return table


def build_irreducible(labels, dim_cap=DEFAULT_DIM_CAP):
    """Construct the irreducible module for the given labels.

    Refuses construction when the Weyl dimension exceeds `dim_cap`.  A basis
    vector of prod_d Sym^{a_d}(Lambda^d) is a key of wedge-basis positions,
    one per factor, with the a_d factors of degree d in one block kept sorted
    ascending: a monomial.  A lowering acts as a derivation, through a table
    of its action on each wedge basis built once per module (`_wedge_table`):
    a wedge element x that occurs m times in a block, and that the table maps
    to (tgt, sign), adds m * sign times the monomial with one x replaced by
    tgt.  A block of one factor is the factor itself.

    The lowering closure runs first in, first out.  Each image F_j u enters
    the EchelonSpan of its weight once: a new basis vector v gives F_j a unit
    column, and a dependent image gives its coordinates.  A basis vector is
    a fixed word in the F_j applied to the top vector, and whether an image
    is new, and its coordinates when it is not, depend only on the module and
    not on the space around it; so the basis and every generator are those of
    the closure in the full tensor product prod_d (Lambda^d)^{(x) a_d}.  For a
    new v = F_j u the raisings are E_i v = F_j (E_i u) + delta_ij (w_i -
    w_{i+1}) u, where w is u's weight; E_i u and the F_j columns of the
    vectors above u are known by then.  E_{i,j} with |i - j| >= 2 is
    [E_{i,i+1}, E_{i+1,j}] or [E_{j,j-1}, E_{j-1,i}].  Entries are stored
    column by column, rows ascending within a column.
    """
    n = labels.n
    mu = weight_from_labels(labels)
    target_dim = weyl_dimension(mu)
    if target_dim > dim_cap:
        raise DimensionCapError(
            f"module dimension {target_dim} exceeds cap {dim_cap}"
        )

    # a_d factors of the d-th exterior power, in one contiguous block per d
    fund = [i + 1 for i, ai in enumerate(labels.dynkin) for _ in range(ai)]
    wedge = {d: _wedge_basis(n, d) for d in set(fund)}
    table = {d: _wedge_table(n, d) for d in wedge}
    blocks = []
    for d in sorted(wedge):
        lo = fund.index(d)
        blocks.append((lo, lo + fund.count(d), d))

    def key_weight(key):
        w = [0] * n
        for f, d in enumerate(fund):
            for s in wedge[d][key[f]]:
                w[s] += 1
        return tuple(w)

    def sym_apply(i, j, vec):
        # a block of one factor acts as that factor does: no count, no sort
        singles = [(lo, table[d][i][j]) for lo, hi, d in blocks if hi - lo == 1]
        multis = [(lo, hi, table[d][i][j]) for lo, hi, d in blocks if hi - lo > 1]
        out = {}
        for key, val in vec.items():
            for f, row in singles:
                hit = row[key[f]]
                if hit is None:
                    continue
                tgt, sign = hit
                nk = key[:f] + (tgt,) + key[f + 1:]
                s = out.get(nk, 0) + sign * val
                if s == 0:
                    out.pop(nk, None)
                else:
                    out[nk] = s
            for lo, hi, row in multis:
                p = lo
                while p < hi:
                    x = key[p]
                    q = bisect_right(key, x, p, hi)
                    hit = row[x]
                    if hit is not None:
                        # one of the q - p copies of x becomes tgt; the block stays sorted
                        tgt, sign = hit
                        at = bisect_right(key, tgt, lo, hi)
                        if at > p:
                            nk = key[:p] + key[p + 1:at] + (tgt,) + key[at:]
                        else:
                            nk = key[:at] + (tgt,) + key[at:p] + key[p + 1:]
                        s = out.get(nk, 0) + (q - p) * sign * val
                        if s == 0:
                            out.pop(nk, None)
                        else:
                            out[nk] = s
                    p = q
        return out

    top_key = tuple(wedge[d].index(tuple(range(d))) for d in fund)
    top = {top_key: 1}

    # cyclic span of the top vector under the simple lowerings, weight by weight
    flat = {}

    def flatten(vec):
        out = {}
        for key, val in vec.items():
            idx = flat.get(key)
            if idx is None:
                idx = flat[key] = len(flat)
            out[idx] = val
        return out

    # A basis vector is named (weight, id in its weight's span).  lower[j] and
    # raise_[j] map each name to its column of F_j = E_{j+1,j} and of
    # E_j = E_{j,j+1}, as {name: coefficient}.
    top_weight = key_weight(top_key)
    top_name = (top_weight, 0)
    spans = {top_weight: EchelonSpan()}
    spans[top_weight].insert(flatten(top))
    lower = [{} for _ in range(n - 1)]
    raise_ = [{top_name: {}} for _ in range(n - 1)]
    # First in, first out: a vector is taken only after every vector one
    # lowering nearer the top, so the F columns the raisings read are known.
    queue = deque([(top, top_name)])
    while queue:
        vec, u = queue.popleft()
        w = u[0]
        for j in range(n - 1):
            img = sym_apply(j + 1, j, vec)
            if not img:
                lower[j][u] = {}
                continue
            tw = tuple(w[t] + (1 if t == j + 1 else 0) - (1 if t == j else 0) for t in range(n))
            span = spans.get(tw)
            if span is None:
                span = spans[tw] = EchelonSpan()
            new_id, coords = span.insert_or_coords(flatten(img))
            if new_id is None:
                lower[j][u] = {(tw, t): c for t, c in enumerate(coords) if c != 0}
                continue
            v = (tw, new_id)
            lower[j][u] = {v: 1}
            queue.append((img, v))
            # E_i v = E_i F_j u = F_j E_i u + delta_ij (w_i - w_{i+1}) u
            for i in range(n - 1):
                col = {}
                for x, c in raise_[i][u].items():
                    add_into(col, lower[j][x].items(), c)
                if i == j:
                    add_into(col, [(u, w[i] - w[i + 1])])
                raise_[i][v] = col

    names = [(w, t) for w in sorted(spans, reverse=True) for t in range(spans[w].dim)]
    dim = len(names)
    if dim != target_dim:
        raise ConsistencyViolationError(
            f"lowering closure produced dimension {dim}, Weyl formula says {target_dim}"
        )
    index_of = {name: idx for idx, name in enumerate(names)}

    # generators are stored with columns ascending, and rows ascending in each
    def from_columns(columns):
        return Matrix.from_cols(
            [dict(sorted((index_of[x], c) for x, c in columns[u].items())) for u in names], dim
        )

    def commutator(a, b):
        m = a @ b - b @ a
        cols = {j: dict(sorted(m.columns[j].items())) for j in sorted(m.columns)}
        return Matrix.from_int_columns(dim, dim, m.den, cols)

    # E_{i,i} is diagonal with entries w_i + mu_n, integers over mu_n's denominator
    num, den = mu[-1].numerator, mu[-1].denominator
    action = [[None] * n for _ in range(n)]
    for i in range(n):
        diag = {col: {col: v} for col, (w, _) in enumerate(names) if (v := w[i] * den + num)}
        action[i][i] = Matrix.from_int_columns(dim, dim, den, diag)
    for j in range(n - 1):
        action[j + 1][j] = from_columns(lower[j])
        action[j][j + 1] = from_columns(raise_[j])
    # [E_{i,i+1}, E_{i+1,j}] = E_{i,j} and [E_{j,j-1}, E_{j-1,i}] = E_{j,i}
    for gap in range(2, n):
        for i in range(n - gap):
            j = i + gap
            action[i][j] = commutator(action[i][i + 1], action[i + 1][j])
            action[j][i] = commutator(action[j][j - 1], action[j - 1][i])

    mod = GlModule(labels, [w for w, _ in names], action)
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
                    lhs = V.e(i, j) @ V.e(k, l) - V.e(k, l) @ V.e(i, j)
                    rhs = Matrix.zeros(d, d)
                    if k == j:
                        rhs = rhs + V.e(i, l)
                    if i == l:
                        rhs = rhs - V.e(k, j)
                    if lhs != rhs:
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
