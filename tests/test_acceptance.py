"""Acceptance criteria, one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Every assertion is exact: the checked statements are
algebraic identities over the rationals, so there are no tolerances anywhere.
"""

import functools
import itertools
import math
import random
import time
from fractions import Fraction as F

from projrep.action import (
    ChevalleySet,
    chevalley_generators,
    derivative_op,
    graded_basis,
    graded_dimension,
    operator_matrix,
    pseudo_translation_op,
    triangle_delta,
    verify_bracket_consistency,
)
from projrep.charident import (
    check_characteristic_identity,
    predicted_sigma2_roots,
    sigma2_tilde,
)
from projrep.glmodules import (
    cached_module,
    pieri_index_set,
    weight_add,
    weight_from_labels,
    weyl_dimension,
    DominantLabels,
)
from projrep.irreducibility import (
    criterion,
    criterion_equivalence_check,
    first_rank_deficiency,
    jordan_holder,
    residual_summands,
    up_submodule_rank,
)
from projrep.linalg import Matrix
from projrep.selfcheck import (
    check_adjoint_identities,
    check_chevalley_relations,
    check_derivative_chain_identity,
    check_jordan_holder,
    check_projector_suite,
    check_q_equivalence,
    check_sigma2_identity,
    eligible_indices,
)

B_VALUES = (F(-2), F(-1), F(0), F(1), F(2), F(1, 2))


def sweep_points():
    for n in (1, 2, 3):
        for dynkin in itertools.product(range(3), repeat=n - 1):
            for b in B_VALUES:
                yield n, dynkin, b


SWEEP = list(sweep_points())


def criterion_line(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num}: FAIL - {desc}")
                raise
            print(f"ACCEPTANCE {num}: PASS - {desc}")
        return wrapper
    return deco


@criterion_line(1, "bracket consistency through degree 4 over the full sweep, exact, under 2 minutes")
def test_criterion_1_representation_correctness():
    start = time.monotonic()
    for n, dynkin, b in SWEEP:
        V = cached_module(n, dynkin, b)
        assert verify_bracket_consistency(n, V, 4), (n, dynkin, b)
    elapsed = time.monotonic() - start
    print(f"  [criterion 1 sweep: {len(SWEEP)} modules in {elapsed:.1f}s]")
    assert elapsed < 120.0, f"sweep took {elapsed:.1f}s, budget is 120s"


@criterion_line(2, "quadratic characteristic identity: zero residual, full multiplicities, eligible roots")
def test_criterion_2_characteristic_identity():
    for n, dynkin, b in SWEEP:
        V = cached_module(n, dynkin, b)
        assert V.dim <= 300
        ok, detail = check_sigma2_identity(V)
        assert ok, (n, dynkin, b, detail)


@criterion_line(3, "adjoint identities and the full projector suite, exact")
def test_criterion_3_adjoint_and_projectors():
    for n, dynkin, b in SWEEP:
        V = cached_module(n, dynkin, b)
        ok, detail = check_adjoint_identities(V)
        assert ok, (n, dynkin, b, detail)
        ok, detail = check_projector_suite(V)
        assert ok, (n, dynkin, b, detail)


@criterion_line(4, "closed-form chain coefficients equal the maximal-vector oracle for |c| <= 3")
def test_criterion_4_q_closed_form():
    for n, dynkin, b in SWEEP:
        V = cached_module(n, dynkin, b)
        ok, detail = check_q_equivalence(V, 3)
        assert ok, (n, dynkin, b, detail)


@criterion_line(5, "irreducibility verdicts: both closed forms and brute force agree; anchors hold")
def test_criterion_5_verdict_agreement():
    for n, dynkin, b in SWEEP:
        V = cached_module(n, dynkin, b)
        mu = V.highest_weight
        assert criterion_equivalence_check(mu), (n, dynkin, b)
        wit = criterion(mu)
        deficiency = first_rank_deficiency(V, 4)
        if wit.reducible and wit.first_failure_degree <= 4:
            assert deficiency == wit.first_failure_degree, (n, dynkin, b)
        else:
            assert deficiency is None, (n, dynkin, b)

    # anchored instances
    trivial = cached_module(2, (0,), F(0))
    wit = criterion(trivial.highest_weight)
    assert wit.reducible and wit.first_failure_degree == 1
    assert first_rank_deficiency(trivial, 4) == 1

    vector = cached_module(2, (1,), F(1))
    jh = jordan_holder(vector)
    assert jh.k == 0 and jh.residual_weight == (1, 1)
    assert residual_summands(vector.highest_weight, 1) == ((0, 1),)

    half = cached_module(2, (0,), F(1, 2))
    assert not criterion(half.highest_weight).reducible
    for j in range(7):
        assert up_submodule_rank(half, j) == graded_dimension(half, j), j


@criterion_line(6, "composition series: singleton residual, matching thresholds, rank identity, finite part")
def test_criterion_6_jordan_holder_structure():
    reducible_points = []
    for n, dynkin, b in SWEEP:
        mu = weight_from_labels(DominantLabels(n, dynkin, b))
        if criterion(mu).reducible:
            reducible_points.append((n, dynkin, b))
    assert reducible_points, "sweep contains no reducible case?"
    for n, dynkin, b in reducible_points:
        V = cached_module(n, dynkin, b)
        wit = criterion(V.highest_weight)
        k = wit.first_failure_degree - 1
        report = jordan_holder(V, degree_cap=k + 2)  # raises on any rank-identity defect
        assert len(residual_summands(V.highest_weight, k + 1)) == 1, (n, dynkin, b)
        assert report.corollary_consistent, (n, dynkin, b)
        assert report.corollary_k == first_rank_deficiency(V, k + 2) - 1, (n, dynkin, b)
        ok, detail = check_jordan_holder(V)  # includes finite-dimension termination
        assert ok, (n, dynkin, b, detail)
    print(f"  [criterion 6: {len(reducible_points)} reducible sweep cases verified]")


@criterion_line(7, "tensor dimension identity for all sweep weights and degrees up to 4")
def test_criterion_7_pieri_dimensions():
    for n, dynkin, b in SWEEP:
        mu = weight_from_labels(DominantLabels(n, dynkin, b))
        for k in range(5):
            lhs = sum(weyl_dimension(weight_add(mu, c)) for c in pieri_index_set(mu, k))
            assert lhs == weyl_dimension(mu) * math.comb(k + n - 1, n - 1), (n, dynkin, b, k)


def _sigma2_suite_passes(V, roots):
    """The criterion-2 suite as a predicate: distinct roots, zero residual,
    multiplicities filling the space at eligible positions only."""
    if len({F(r) for r in roots}) != len(roots):
        return False
    report = check_characteristic_identity(sigma2_tilde(V), roots)
    if not report.residual_is_zero:
        return False
    if sum(report.multiplicities) != V.n * V.dim:
        return False
    i1 = eligible_indices(V.highest_weight, 1)
    return all(m == 0 or (i + 1) in i1 for i, m in enumerate(report.multiplicities))


@criterion_line(8, "mutation sensitivity: sign flip, dropped shift term, perturbed root all break the suites")
def test_criterion_8_mutation_sensitivity():
    # (a) flipping the sign of the lowering derivative breaks the triple relations
    for n, dynkin, b in [(2, (1,), F(1)), (3, (1, 0), F(-1)), (1, (), F(1, 2))]:
        V = cached_module(n, dynkin, b)
        g = chevalley_generators(n)
        assert check_chevalley_relations(V, k_max=2)[0]
        mutated = ChevalleySet(g.e, g.f[:-1] + (-1 * g.f[-1],), g.h)
        ok, _ = check_chevalley_relations(V, k_max=2, gens=mutated)
        assert not ok, (n, dynkin, b, "sign flip went unnoticed")

    # (b) dropping the k-1 shift from the diagonal bookkeeping operator breaks
    # the derivative/chain identity
    V = cached_module(2, (1,), F(1))

    def delta_without_shift(i, j, k, mod):
        m = triangle_delta(i, j, k, mod)
        if i == j and k != 1:
            m = m + Matrix.identity(m.rows).scale(-(k - 1))
        return m

    vec = {graded_basis(V, 0)[(0, 0)]: 1}
    p0_from0 = operator_matrix(pseudo_translation_op(2, 0), V, 0)
    p0_from1 = operator_matrix(pseudo_translation_op(2, 0), V, 1)
    chain_img = p0_from1.apply(p0_from0.apply(vec))
    lhs = operator_matrix(derivative_op(2, 0), V, 2).apply(chain_img)

    def rhs_with(delta):
        acc = {}
        for _ in range(2):  # both chain slots carry the same index here
            start = delta(0, 0, 2, V).apply(vec)
            img = p0_from0.apply(start)
            for pos, v in img.items():
                s = acc.get(pos, 0) + v
                if s == 0:
                    acc.pop(pos, None)
                else:
                    acc[pos] = s
        return acc

    assert rhs_with(triangle_delta) == lhs
    assert rhs_with(delta_without_shift) != lhs
    rng = random.Random(5)
    ok, _ = check_derivative_chain_identity(V, rng, cases=12, delta=delta_without_shift)
    assert not ok, "mutated bookkeeping operator went unnoticed"

    # (c) perturbing any single predicted root by one breaks the suite
    for n, dynkin, b in [(2, (1,), F(1)), (2, (0,), F(0)), (3, (0, 0), F(0)), (3, (2, 1), F(1, 2))]:
        V = cached_module(n, dynkin, b)
        roots = predicted_sigma2_roots(V.highest_weight)
        assert _sigma2_suite_passes(V, roots)
        for i in range(len(roots)):
            perturbed = list(roots)
            perturbed[i] += 1
            assert not _sigma2_suite_passes(V, perturbed), (n, dynkin, b, i, "+1")
        # realized roots must also be detected when shifted down
        report = check_characteristic_identity(sigma2_tilde(V), roots)
        for i, mult in enumerate(report.multiplicities):
            if mult == 0:
                continue
            perturbed = list(roots)
            perturbed[i] -= 1
            assert not _sigma2_suite_passes(V, perturbed), (n, dynkin, b, i, "-1")
