"""Irreducibility analysis of the graded module generated from degree zero.

The chain map phi: x^m (x) v_q -> p^m (1 (x) v_q) acts on each Pieri
summand V(mu + c) of S^k(C^n) (x) V by one scalar q_c, and the chain span
S_k is the sum of the summands with q_c != 0.  Both sides are implemented:
the closed-form product q_c, and brute force that pushes each summand's
maximal vector through phi and reads the ratio; the chain ranks sum the
summands with a nonzero ratio, and an elimination over every dominant
weight space stays behind as their oracle.  Vectors are positional,
{position: value} in the order of `action.graded_basis`, where x^m (x) v_q
sits at basis[m] + q; `action` applies the twisted action to them (the
weight spaces, the simple raisers on one, the p_i steps), and this module
reads no generator.  When the module is reducible the two-step composition
series and the residual quotient data are reported.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .action import (
    gl_restriction,
    graded_basis,
    graded_dimension,
    operator_matrix,
    p_step,
    weight_space,
)
from .errors import ConsistencyViolationError, MultiplicityAnomalyError
from .glmodules import (
    dominant_gaps,
    dominant_weight_spaces,
    module_memo,
    orbit_size,
    pieri_index_set,
    weight_add,
    weyl_dimension,
)
from .linalg import EchelonSpan, Matrix, format_rational, integer_kernel

__all__ = [
    "CriterionWitness",
    "JordanHolderReport",
    "criterion",
    "criterion_equivalence_check",
    "first_rank_deficiency",
    "jordan_holder",
    "q_coefficient",
    "q_coefficient_bruteforce",
    "residual_summands",
    "up_submodule_matrix",
    "up_submodule_rank",
]

# Nothing here assembles an operator matrix.  The name stays bound because
# perfbench's tracer rebinds operator_matrix in every projrep namespace that
# holds it, and perfbench/test_perfbench.py reads irreducibility.operator_matrix.
_TRACED = (operator_matrix,)


# -- closed form ---------------------------------------------------------------


def _admissible(mu, c, gaps=None):
    """c as a tuple of ints, once checked to be a shift of `pieri_index_set`:
    n entries, each >= 0, with c_{s+1} <= mu_s - mu_{s+1}; `gaps` are mu's
    `dominant_gaps`, computed here when not given."""
    c = tuple(int(x) for x in c)
    if gaps is None:
        gaps = dominant_gaps(mu)
    if len(c) != len(mu) or min(c, default=0) < 0 or any(x > g for x, g in zip(c[1:], gaps)):
        raise ValueError(f"{c} is not an admissible shift for {mu}")
    return c


def q_coefficient(mu, c, gaps=None):
    """prod_{s=1..n} prod_{i=1..c_s} (mu_s + |mu| - s + i); empty products are 1.

    The factors are multiplied as integers over mu's common denominator D,
    and the product is divided by D^|c| once.  `gaps` are mu's
    `dominant_gaps`, computed here when not given.
    """
    c = _admissible(mu, c, gaps)
    den = math.lcm(*(x.denominator for x in mu))
    nums = [x.numerator * (den // x.denominator) for x in mu]
    tot = sum(nums)
    q = 1
    for s, cs in enumerate(c):
        base = nums[s] + tot - (s + 1) * den
        for i in range(1, cs + 1):
            q *= base + i * den
    return Fraction(q, den ** sum(c))


def _is_nonpositive_integer(x):
    f = Fraction(x)
    return f.denominator == 1 and f.numerator <= 0


class CriterionWitness(namedtuple("CriterionWitness", "verdict failing_pairs first_failure_degree")):
    """Verdict of the closed-form irreducibility test with its failing pairs.

    Failing pairs are (i, s) with i 1-based: the degree-s obstruction at
    coordinate i (eligible only when i == 1 or the (i-1)-th dominant gap is
    at least s).  first_failure_degree is the least failing s.
    """

    __slots__ = ()

    @property
    def reducible(self):
        return self.verdict == "reducible"

    def to_json(self):
        return {
            "verdict": self.verdict,
            "failing_pairs": [list(p) for p in self.failing_pairs],
            "first_failure_degree": self.first_failure_degree,
        }


def criterion(mu):
    """Decide irreducibility from the weight alone.

    For i = 1 the obstruction exists iff mu_1 + |mu| is a nonpositive integer;
    for i >= 2 the candidate s = i - mu_i - |mu| must be an integer within
    the (i-1)-th dominant gap.
    """
    n = len(mu)
    gaps = dominant_gaps(mu)
    tot = sum(mu)
    failing = []
    t1 = Fraction(mu[0] + tot)
    if t1.denominator == 1 and t1.numerator <= 0:
        failing.append((1, 1 - int(t1)))
    for i in range(2, n + 1):
        s = Fraction(i - mu[i - 1] - tot)
        if s.denominator == 1 and 1 <= s.numerator <= gaps[i - 2]:
            failing.append((i, int(s)))
    failing.sort(key=lambda p: (p[1], p[0]))
    if failing:
        return CriterionWitness("reducible", tuple(failing), failing[0][1])
    return CriterionWitness("irreducible", (), None)


def _in_integer_range(x, lo, hi):
    f = Fraction(x)
    return f.denominator == 1 and lo <= f.numerator <= hi


def criterion_equivalence_check(mu):
    """Evaluate the two equivalent closed forms of the criterion independently.

    One form bounds mu_1 + |mu| away from the nonpositive integers and one
    integer window, plus a window per middle coordinate; the other quantifies
    over all degrees s with eligibility per coordinate.  Returns True iff the
    verdicts agree.
    """
    n = len(mu)
    tot = sum(mu)
    t1 = mu[0] + tot
    ok = not _is_nonpositive_integer(t1)
    if n >= 2:
        gap1 = int(mu[0] - mu[1])
        ok = ok and not _in_integer_range(t1, 2, 1 + gap1)
    for i in range(2, n):  # 1-based middle coordinates 2..n-1
        gap = int(mu[i - 1] - mu[i])
        ok = ok and not _in_integer_range(mu[i - 1] + tot - i, 1, gap)
    return ok == (not criterion(mu).reducible)


def residual_summands(mu, j):
    """Admissible shifts at degree j whose closed-form coefficient vanishes,
    read off its factors without forming it: the factor mu_s + |mu| - s + i
    of `q_coefficient` is zero at i = s - mu_s - |mu| (s 1-based), if that
    is an integer in [1, c_s]."""
    tot = sum(mu)
    roots = [(s, s + 1 - x - tot) for s, x in enumerate(mu)]
    roots = [(s, int(i)) for s, i in roots if _in_integer_range(i, 1, j)]
    return tuple(c for c in pieri_index_set(mu, j) if any(c[s] >= i for s, i in roots))


# -- brute force ---------------------------------------------------------------


def _chain_vector(V, c, q):
    """p^c (1 (x) v_q) in the degree-|c| basis as (den, {position: int}) in
    lowest terms: the exact vector is the ints over den.  Built from the
    chain with c's first nonzero exponent lowered by one step L * p_i on
    the integer vector (`action.p_step`), so no operator matrix is
    assembled."""

    def build():
        if sum(c) == 0:
            return 1, {q: 1}
        i = next(t for t, x in enumerate(c) if x)
        prev = c[:i] + (c[i] - 1,) + c[i + 1:]
        den, vec = _chain_vector(V, prev, q)
        L, acc = p_step(V, i, sum(prev), vec)
        den *= L
        g = math.gcd(den, *acc.values())
        if g != 1:
            den //= g
            acc = {r: v // g for r, v in acc.items()}
        return den, acc

    return module_memo(V, "chain", (c, q), build)


def up_submodule_matrix(V, k):
    """The degree-k chain matrix: columns are all ordered p-products applied
    to the degree-zero basis, in lexicographic chain order."""
    chains = [_chain_vector(V, c, q) for c in graded_basis(V, k) for q in range(V.dim)]
    den = math.lcm(*(d for d, _ in chains))
    cols = {
        t: {r: v * (den // d) for r, v in vec.items()}
        for t, (d, vec) in enumerate(chains)
        if vec
    }
    return Matrix.from_int_columns(graded_dimension(V, k), len(chains), den, cols)


def _maximal_coordinates(V, c, support):
    """The maximal vector xi_c of weight mu + c as a primitive integer
    vector {position: int}: the one relation among the columns of the
    simple raisers E_{a,a+1} (`action.gl_restriction`) on its weight space
    `support` (`action.weight_space`).  They generate every raiser, and each
    lands on its own weight, so the kernel of their sum is their joint
    kernel.  A kernel that is not a line raises MultiplicityAnomalyError."""
    _, columns = gl_restriction(V, [(a, a + 1) for a in range(V.n - 1)], support)
    kern = integer_kernel(columns, graded_dimension(V, sum(c)))
    if len(kern) != 1:
        raise MultiplicityAnomalyError(
            f"maximal vector space for shift {tuple(c)} has dimension {len(kern)}"
        )
    return {support[j][0]: x for j, x in kern[0].items()}


def _chain_ratio(V, c):
    """q_c by brute force: the scalar by which the chain map
    phi: x^m (x) v_q -> p^m (1 (x) v_q) acts on the summand V(mu + c).

    phi is gl(n)-equivariant ([x_i d_j, p_l] = delta_jl p_i), and by Pieri's
    rule S^k(C^n) (x) V holds each V(mu + c) once, so phi(xi_c) = q_c xi_c
    for the maximal vector xi_c (`_maximal_coordinates`).  phi(xi_c) is
    summed on integers over the lcm of the chain vectors' denominators.
    Raises ConsistencyViolationError when xi_c misses x^c (x) v_top or
    phi(xi_c) is not proportional to it.  Memoized per module and shift.
    """

    def compute():
        support = weight_space(V, weight_add(V.lattice_weights[V.highest_index], c))
        xi = _maximal_coordinates(V, c, support)
        lead = graded_basis(V, sum(c))[c] + V.highest_index
        if lead not in xi:
            raise ConsistencyViolationError(
                "maximal vector lacks the distinguished leading coordinate"
            )
        chains = [(xi[pos], _chain_vector(V, m, q)) for pos, m, q in support if pos in xi]
        den = math.lcm(*(d for _, (d, _) in chains))
        image = {}
        for x, (d, vec) in chains:
            f = x * (den // d)
            for r, v in vec.items():
                image[r] = image.get(r, 0) + f * v
        top, hat = xi[lead], image.get(lead, 0)
        if any(image.get(r, 0) * top != hat * xi.get(r, 0) for r in image.keys() | xi.keys()):
            raise ConsistencyViolationError(
                f"chain image of the maximal vector for {c} is not proportional to it"
            )
        return Fraction(hat, den * top)

    return module_memo(V, "ratio", c, compute)


def up_submodule_rank(V, k):
    """Dimension of S_k, the degree-k piece of the span of all p-chains.

    S_k is the image of the chain map on S^k(C^n) (x) V, the sum of the
    Pieri summands V(mu + c), c in `pieri_index_set`, on which the map's
    scalar q_c (`_chain_ratio`) is nonzero; each counts with its Weyl
    dimension, read off the integer lattice weights.  Equal to the rank of
    the chain matrix.  Memoized per module and degree.
    """

    def compute():
        top = V.lattice_weights[V.highest_index]
        return sum(
            weyl_dimension(weight_add(top, c))
            for c in pieri_index_set(top, k)
            if _chain_ratio(V, c)
        )

    return module_memo(V, "rank", k, compute)


def _all_dominant_rank(V, k):
    """Oracle for `up_submodule_rank`: every chain vector of dominant weight
    is built and eliminated, one EchelonSpan per weight
    (`dominant_weight_spaces`).  The span's weight multiplicities are
    invariant under S_n, which permutes coordinates, so each span's
    dimension counts once per weight in its S_n-orbit."""
    monos = list(graded_basis(V, k))
    total = 0
    for w, positions in dominant_weight_spaces(V, monos).items():
        span = EchelonSpan()
        for pos in positions:
            t, q = divmod(pos, V.dim)
            _, vec = _chain_vector(V, monos[t], q)
            if vec:
                span.insert(vec)
        total += span.dim * orbit_size(w)
    return total


def q_coefficient_bruteforce(V, c):
    """Independent oracle for q_coefficient: the chain map's scalar on the
    maximal vector of weight mu + c (`_chain_ratio`)."""
    return _chain_ratio(V, _admissible(V.highest_weight, c))


# -- criterion vs brute force, composition series -------------------------------


def first_rank_deficiency(V, k_max):
    """Least degree j <= k_max with a rank deficit, or None if all are full."""
    for j in range(k_max + 1):
        if up_submodule_rank(V, j) < graded_dimension(V, j):
            return j
    return None


class JordanHolderReport(namedtuple("JordanHolderReport", (
    "k i0 corollary_k corollary_consistent residual_index residual_weight"
    " submodule_dims_by_degree quotient_character finite_dim_flag"
    " finite_dim_highest_labels finite_dim_total"
))):
    """Two-step composition series data for a reducible module.

    k is the last fully-generated degree (from the closed-form witness);
    corollary_k is the same number recomputed from the minimal-coordinate
    formula, with corollary_consistent recording their agreement.  The
    residual summand at degree k+1 is (k+1) * eps_r with the reported
    1-based r; the quotient carries the central character of mu + (k+1)eps_r.
    """

    __slots__ = ()

    def to_json(self):
        return {
            "k": self.k,
            "i0": self.i0,
            "corollary_k": self.corollary_k,
            "corollary_consistent": self.corollary_consistent,
            "residual_index": self.residual_index,
            "residual_weight": [format_rational(x) for x in self.residual_weight],
            "submodule_dims_by_degree": list(self.submodule_dims_by_degree),
            "quotient_character": [format_rational(x) for x in self.quotient_character],
            "finite_dim_flag": self.finite_dim_flag,
            "finite_dim_highest_labels": (
                list(self.finite_dim_highest_labels)
                if self.finite_dim_highest_labels is not None
                else None
            ),
            "finite_dim_total": self.finite_dim_total,
        }


def _corollary_threshold(mu):
    """(i0, k) from the minimal-coordinate formula, or (None, None)."""
    tot = sum(mu)
    for i in range(1, len(mu) + 1):
        if _is_nonpositive_integer(mu[i - 1] + tot - i + 1):
            return i, int(-(mu[i - 1]) - tot + i - 1)
    return None, None


def _sl_labels_to_partition(labels):
    n1 = len(labels) + 1
    return tuple(sum(labels[j:]) for j in range(n1 - 1)) + (0,)


def _residual_index(mu, k):
    """1-based r of the single residual summand (k+1) e_r at degree k+1."""
    res = residual_summands(mu, k + 1)
    if len(res) != 1:
        raise ConsistencyViolationError(
            f"expected a single residual summand at degree {k + 1}, got {res}"
        )
    c = res[0]
    nz = [t for t, x in enumerate(c) if x]
    if len(nz) != 1 or c[nz[0]] != k + 1:
        raise ConsistencyViolationError(
            f"residual summand {c} is not concentrated on one coordinate"
        )
    return nz[0] + 1


def _linked(mu, nu):
    """Whether the sl(n+1) weights of mu and nu share a central character.

    The weight of mu is lambda = (-|mu|, mu_1, ..., mu_n).  By Harish-Chandra's
    theorem the characters agree exactly when the two lambda + rho are
    permutations of each other, rho = (n, n-1, ..., 0).
    """

    def shifted(w):
        lam = (-sum(w),) + tuple(w)
        return sorted(x + len(w) - a for a, x in enumerate(lam))

    return shifted(mu) == shifted(nu)


def _central_character(mu):
    """The quadratic Casimir's scalar c(lambda) for lambda = (-|mu|, mu_1, ..., mu_n).

    c(lambda) = sum_a lambda_a^2 + sum_a lambda_a (n - 2a) over a = 0..n; the
    term -(sum_a lambda_a)^2 / (n+1) of the gl(n+1) formula vanishes here.
    """
    n = len(mu)
    lam = (-sum(mu),) + tuple(mu)
    return sum(x * x + x * (n - 2 * a) for a, x in enumerate(lam))


def jordan_holder(V, degree_cap=None):
    """Verify the composition series of a reducible module by brute force.

    Checks, degree by degree, that the chain span fills everything through
    degree k and first falls short at k+1 with a single missing summand of
    the predicted shape, whose weight must be linked to mu (a permutation of
    the rho-shifted weights) and give the quadratic Casimir the same scalar;
    closed-form/brute-force disagreements raise
    ConsistencyViolationError instead of being reconciled.
    """
    mu = V.highest_weight
    wit = criterion(mu)
    if not wit.reducible:
        raise ValueError("module is irreducible; no composition series to report")
    k = wit.first_failure_degree - 1
    i0, cor_k = _corollary_threshold(mu)
    cap = degree_cap if degree_cap is not None else max(4, k + 2)

    dims = []
    for j in range(cap + 1):
        r = up_submodule_rank(V, j)
        dims.append(r)
        full = graded_dimension(V, j)
        expected = full - sum(
            weyl_dimension(weight_add(mu, c)) for c in residual_summands(mu, j)
        )
        if r != expected:
            raise ConsistencyViolationError(
                f"degree {j}: chain rank {r} != decomposition prediction {expected}"
            )
        if j <= k and r != full:
            raise ConsistencyViolationError(
                f"degree {j} <= {k} should be full but rank is {r} of {full}"
            )
        if j == k + 1 and r >= full:
            raise ConsistencyViolationError(
                f"degree {k + 1} should be deficient but rank is full ({r})"
            )

    r_index = _residual_index(mu, k)
    residual_weight = weight_add(
        mu, tuple(k + 1 if t == r_index - 1 else 0 for t in range(len(mu)))
    )
    shown = ", ".join(map(format_rational, residual_weight))
    if not _linked(mu, residual_weight):
        raise ConsistencyViolationError(
            f"quotient weight ({shown}) is not linked to the module's: "
            "the central characters differ"
        )
    c_mu, c_quotient = _central_character(mu), _central_character(residual_weight)
    if c_quotient != c_mu:
        raise ConsistencyViolationError(
            f"quotient weight ({shown}) has Casimir eigenvalue "
            f"{format_rational(c_quotient)}, the module's is {format_rational(c_mu)}"
        )

    finite = i0 == 1
    labels = None
    total = None
    if finite:
        gaps = dominant_gaps(mu)
        labels = (k,) + tuple(gaps)
        total = weyl_dimension(_sl_labels_to_partition(labels))

    return JordanHolderReport(
        k=k,
        i0=i0,
        corollary_k=cor_k,
        corollary_consistent=cor_k == k,
        residual_index=r_index,
        residual_weight=residual_weight,
        submodule_dims_by_degree=tuple(dims),
        quotient_character=residual_weight,
        finite_dim_flag=finite,
        finite_dim_highest_labels=labels,
        finite_dim_total=total,
    )
