from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from conftest import cached_module
from projrep import selfcheck
from projrep.action import (
    GradedElement,
    WittElement,
    act,
    chevalley_generators,
    commutator_equals,
    derivative_op,
    gl_restriction,
    graded_basis,
    graded_dimension,
    monomials_of_degree,
    operator_matrix,
    p_step,
    projective_components,
    pseudo_translation_op,
    scaling_op,
    spanning_brackets,
    spanning_operators,
    triangle_delta,
    verify_bracket_consistency,
    weight_space,
)
from projrep.errors import UnsupportedOperatorError
from projrep.glmodules import (
    DominantLabels,
    build_irreducible,
    dominant_weight_spaces,
    pieri_index_set,
    weight_add,
)
from projrep.linalg import Matrix, add_into
from projrep.selfcheck import (
    check_action_oracle,
    check_cartan_diagonal,
    check_chevalley_relations,
    check_derivative_chain_identity,
    check_derivative_surjectivity,
    standard_sweep,
)


def euler_field(n):
    op = scaling_op(n, 0, 0)
    for l in range(1, n):
        op = op + scaling_op(n, l, l)
    return op


def test_chevalley_examples():
    g = chevalley_generators(2)
    assert g.e[1] == pseudo_translation_op(2, 1)
    assert g.f[1] == -1 * derivative_op(2, 1)
    assert g.h[1] == scaling_op(2, 0, 0) + scaling_op(2, 1, 1) + scaling_op(2, 1, 1)
    g1 = chevalley_generators(1)
    assert g1.e[0] == WittElement(1, {((2,), 0): 1})
    assert g1.f[0] == WittElement(1, {((0,), 0): -1})
    assert g1.h[0] == WittElement(1, {((1,), 0): 2})


def test_chevalley_triples_symbolically():
    for n in (1, 2, 3):
        g = chevalley_generators(n)
        for i in range(n):
            assert g.e[i].bracket(g.f[i]) == g.h[i]
            assert g.h[i].bracket(g.e[i]) == 2 * g.e[i]
            assert g.h[i].bracket(g.f[i]) == -2 * g.f[i]
        for i in range(n):
            for j in range(n):
                if i != j:
                    assert g.e[i].bracket(g.f[j]).is_zero()


def test_bracket_rules():
    n = 3
    for i in range(n):
        for j in range(n):
            br = derivative_op(n, j).bracket(pseudo_translation_op(n, i))
            if i != j:
                assert br == scaling_op(n, i, j)
            else:
                assert br == euler_field(n) + scaling_op(n, i, i)
    # [x_i d_j, p_k] = delta_jk p_i
    assert scaling_op(n, 0, 1).bracket(pseudo_translation_op(n, 1)) == pseudo_translation_op(n, 0)
    assert scaling_op(n, 0, 1).bracket(pseudo_translation_op(n, 2)).is_zero()
    # [x_i d_j, d_k] = -delta_ik d_j
    assert scaling_op(n, 2, 0).bracket(derivative_op(n, 2)) == -1 * derivative_op(n, 0)
    # [x_i d_j, x_k d_l] = delta_jk x_i d_l - delta_il x_k d_j
    assert scaling_op(n, 0, 1).bracket(scaling_op(n, 1, 2)) == scaling_op(n, 0, 2)
    assert scaling_op(n, 0, 1).bracket(scaling_op(n, 1, 0)) == (
        scaling_op(n, 0, 0) - scaling_op(n, 1, 1)
    )
    # abelian pieces
    assert pseudo_translation_op(n, 0).bracket(pseudo_translation_op(n, 2)).is_zero()
    assert derivative_op(n, 0).bracket(derivative_op(n, 1)).is_zero()


def test_projective_components_roundtrip():
    n = 2
    op = 3 * pseudo_translation_op(n, 0) + scaling_op(n, 1, 0) - 2 * derivative_op(n, 1)
    deriv, gl, pseudo = projective_components(op)
    assert deriv == {1: -2}
    assert gl == {(1, 0): 1}
    assert pseudo == {0: 3}


def test_projective_components_rejects_outside_span():
    n = 2
    cubic = WittElement(n, {((3, 0), 0): 1})
    with pytest.raises(UnsupportedOperatorError):
        projective_components(cubic)
    # a quadratic field that is not a pseudo-translation combination
    stray = WittElement(n, {((1, 1), 0): 1})
    with pytest.raises(UnsupportedOperatorError):
        projective_components(stray)
    # p_i with one term missing is not in the span either
    broken = pseudo_translation_op(n, 0) - WittElement(n, {((1, 1), 1): 1})
    with pytest.raises(UnsupportedOperatorError):
        projective_components(broken)


def test_projective_components_rejects_a_wrong_coefficient():
    # every key of p_1 is present; only the x1*x2*d2 coefficient is doubled
    n = 2
    p1 = pseudo_translation_op(n, 0)
    assert p1.terms == {((2, 0), 0): 1, ((1, 1), 1): 1}
    doubled = WittElement(n, {((2, 0), 0): 1, ((1, 1), 1): 2})
    with pytest.raises(UnsupportedOperatorError):
        projective_components(doubled)


def test_act_derivative_kills_constants():
    V = cached_module(2, (1,), F(1))
    one = GradedElement(0, {((0, 0), 0): 1})
    assert act(derivative_op(2, 0), one, V).is_zero()


def test_act_pseudo_on_constants():
    # p_i(1 (x) v) = x_i (x) (sum_j E_jj).v + sum_j x_j (x) E_ij.v
    V = cached_module(2, (1,), F(1))
    one_v1 = GradedElement(0, {((0, 0), 1): 1})  # basis vector of weight (0,1)
    img = act(pseudo_translation_op(2, 0), one_v1, V)
    # central: x1 (x) v1; E_11.v1 = 0; E_12.v1 = v0 -> x2 (x) v0
    assert img == GradedElement(1, {((1, 0), 1): 1, ((0, 1), 0): 1})


def test_act_scaling_example():
    V = cached_module(2, (1,), F(1))
    x1_v0 = GradedElement(1, {((1, 0), 0): 1})
    img = act(scaling_op(2, 0, 0), x1_v0, V)
    assert img == GradedElement(1, {((1, 0), 0): 2})  # x1 (x) v + x1 (x) E_11 v


def test_act_mixed_shift_rejected():
    V = cached_module(2, (0,), F(0))
    one = GradedElement(0, {((0, 0), 0): 1})
    with pytest.raises(UnsupportedOperatorError):
        act(pseudo_translation_op(2, 0) + derivative_op(2, 0), one, V)


def test_graded_basis_order_and_size():
    # x^m (x) v_q sits at basis[m] + q
    V = cached_module(2, (1,), F(1))
    assert graded_basis(V, 0) == {(0, 0): 0}
    gb2 = graded_basis(V, 2)
    assert list(gb2) == [(2, 0), (1, 1), (0, 2)]
    assert len(gb2) * V.dim == 6
    W = cached_module(3, (1, 0), F(0))
    assert len(graded_basis(W, 1)) * W.dim == 9 and graded_dimension(W, 1) == 9
    for n, dynkin in [(1, ()), (2, (2,)), (3, (1, 0)), (3, (1, 1))]:
        V = cached_module(n, dynkin, F(1, 2))
        top = V.lattice_weights[V.highest_index]
        for k in range(4):
            basis = graded_basis(V, k)
            assert list(basis.items()) == [
                (m, t * V.dim) for t, m in enumerate(monomials_of_degree(n, k))
            ]
            assert len(basis) * V.dim == graded_dimension(V, k)
            spaces = dominant_weight_spaces(V, list(basis))
            for c in pieri_index_set(top, k):
                support = weight_space(V, weight_add(top, c))
                assert [pos for pos, _, _ in support] == spaces[weight_add(top, c)]
                assert all(pos == basis[m] + q for pos, m, q in support)


# n <= 3, labels <= 2, one b each: of the action, only the p_i move reads b
RESTRICTION_MODULES = [
    (1, (), F(-2)), (2, (1,), F(1, 2)), (2, (2,), F(0)), (3, (1, 0), F(1, 2)),
    (3, (1, 1), F(-1)), (3, (2, 1), F(1, 3)),
]


def _graded_weights(V, k):
    """{lattice weight: [(position, m, q)]} of the degree-k piece, by a pass
    over every basis vector."""
    basis = graded_basis(V, k)
    spaces = {}
    for m, start in basis.items():
        for q, lw in enumerate(V.lattice_weights):
            spaces.setdefault(weight_add(lw, m), []).append((start + q, m, q))
    return spaces


@pytest.mark.parametrize("point", RESTRICTION_MODULES)
def test_weight_space_is_a_filter_of_the_basis(point):
    V = cached_module(*point)
    dominant = nondominant = 0
    for k in range(4):
        for w, support in _graded_weights(V, k).items():
            assert weight_space(V, w) == support, (k, w)
            if all(x >= y for x, y in zip(w, w[1:])):
                dominant += 1
            else:
                nondominant += 1
        if V.n > 1:  # degree k, first entry past every weight's of the piece
            top = V.lattice_weights[0]
            assert weight_space(V, (top[0] + k + 1,) + top[1:-1] + (top[-1] - 1,)) == []
    assert dominant and (nondominant or V.n == 1)


@pytest.mark.parametrize("point", RESTRICTION_MODULES)
def test_gl_restriction_matches_the_scaling_matrices(point):
    """Every E_ab, lowerings and diagonal included, on every weight space
    of degree <= 3 against the columns of x_a d_b's operator matrix; and
    the simple raisers together against the sum of their matrices."""
    V = cached_module(*point)
    n = V.n
    pairs = [(a, b) for a in range(n) for b in range(n)]
    raisers = [(a, a + 1) for a in range(n - 1)]
    for k in range(4):
        summed = Matrix(graded_dimension(V, k), graded_dimension(V, k))
        for a, b in raisers:
            summed = summed + operator_matrix(scaling_op(n, a, b), V, k)
        for w in _graded_weights(V, k):
            support = weight_space(V, w)
            for a, b in pairs:
                den, cols = gl_restriction(V, [(a, b)], support)
                m = operator_matrix(scaling_op(n, a, b), V, k)
                assert len(cols) == len(support)
                for (pos, _, _), col in zip(support, cols):
                    assert {r: F(v, den) for r, v in col.items()} == m.column(pos), (k, w, a, b)
            den, cols = gl_restriction(V, raisers, support)
            for (pos, _, _), col in zip(support, cols):
                assert {r: F(v, den) for r, v in col.items()} == summed.column(pos), (k, w)


@pytest.mark.parametrize("point", RESTRICTION_MODULES)
def test_p_step_is_the_scaled_p_matrix(point):
    V = build_irreducible(DominantLabels(*point))
    for k in range(3):
        for i in range(V.n):
            m = operator_matrix(pseudo_translation_op(V.n, i), V, k)
            for pos in range(graded_dimension(V, k)):
                L, image = p_step(V, i, k, {pos: 1})
                assert image == {r: v * L for r, v in m.column(pos).items()}, (k, i, pos)


def test_monomial_order_matches_chain_order():
    # descending lexicographic exponents == lexicographic multiset chains
    assert monomials_of_degree(3, 2) == [
        (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2),
    ]


def test_operator_matrix_examples():
    V = cached_module(2, (1,), F(1))
    m = operator_matrix(derivative_op(2, 0), V, 0)
    assert m.rows == 0 and m.cols == 2
    T = cached_module(2, (0,), F(0))
    assert operator_matrix(pseudo_translation_op(2, 0), T, 0).is_zero()
    hn = chevalley_generators(2).h[1]
    mh = operator_matrix(hn, V, 3)
    assert all(r == c for (r, c) in mh.entries)


def test_triangle_delta_examples():
    T = cached_module(2, (0,), F(0))
    V = cached_module(2, (1,), F(1))
    # off-diagonal on constants: only the generator twist survives
    td = triangle_delta(0, 1, 1, V)
    assert td == V.e(1, 0)
    # diagonal, k=1 on constants: b*Id + (b + E_ii) diag part
    assert triangle_delta(0, 0, 1, V) == Matrix(2, 2, {(0, 0): 2, (1, 1): 1})
    # diagonal, k=2 on the trivial module: the k-1 shift alone
    assert triangle_delta(0, 0, 2, T) == Matrix.identity(1)


def test_grading_shapes():
    V = cached_module(2, (1,), F(1))
    for k in range(3):
        up = operator_matrix(pseudo_translation_op(2, 0), V, k)
        assert (up.rows, up.cols) == (graded_dimension(V, k + 1), graded_dimension(V, k))
        keep = operator_matrix(scaling_op(2, 0, 1), V, k)
        assert keep.rows == keep.cols == graded_dimension(V, k)
        down = operator_matrix(derivative_op(2, 1), V, k)
        assert (down.rows, down.cols) == (graded_dimension(V, k - 1), graded_dimension(V, k))


@pytest.mark.parametrize("n,dynkin,b", [
    (1, (), F(0)),
    (1, (), F(-3, 2)),
    (2, (0,), F(0)),
    (2, (1,), F(1)),
    (2, (2,), F(1, 2)),
    (3, (1, 0), F(-1)),
])
def test_bracket_consistency_small(n, dynkin, b):
    V = cached_module(n, dynkin, b)
    assert verify_bracket_consistency(n, V, 3)


def test_bracket_consistency_rejects_a_negative_degree_cap():
    V = cached_module(2, (1,), F(1))
    with pytest.raises(ValueError):
        verify_bracket_consistency(2, V, -1)


def test_commutator_equals_matches_explicit_products():
    # the fused check against a @ b - c @ d == target, on every spanning pair
    # of a grid of modules: zero brackets, nonzero ones, and targets scaled
    # off the true value or onto another denominator
    zero_brackets = mixed_dens = 0
    for n, dynkin in ((1, ()), (2, (1,)), (3, (1, 0))):
        for b in (F(0), F(1, 2), F(-3, 2)):
            V = cached_module(n, dynkin, b)
            ops = [op for _, op in spanning_operators(n)]
            for x, u in enumerate(ops):
                for w in ops[x + 1:]:
                    bracket = u.bracket(w)
                    for k in range(2):
                        uw = operator_matrix(u, V, k + w.degree_shift()) @ operator_matrix(w, V, k)
                        wu = operator_matrix(w, V, k + u.degree_shift()) @ operator_matrix(u, V, k)
                        commutator = uw - wu
                        mixed_dens += uw.den != wu.den
                        if bracket.is_zero():
                            zero_brackets += 1
                            targets = [None]
                        else:
                            m = operator_matrix(bracket, V, k)
                            targets = [None, m, m.scale(2), m.scale(F(1, 3))]
                        zero = Matrix.zeros(commutator.rows, commutator.cols)
                        for target in targets:
                            expected = commutator == (zero if target is None else target)
                            assert commutator_equals(u, w, V, k, target) == expected, (u, w, k)
    assert zero_brackets and mixed_dens


def _corrupt_assembly(monkeypatch, op, degree, edit):
    """Make `_assemble` pass op's integer columns at this degree through
    edit(den, cols) before the matrix is built."""
    import projrep.action as action_mod

    original = action_mod._assemble

    def corrupted(o, V, k, src, dst):
        den, cols = original(o, V, k, src, dst)
        if o == op and k == degree:
            edit(den, cols)
        return den, cols

    monkeypatch.setattr(action_mod, "_assemble", corrupted)


def test_bracket_check_catches_a_perturbed_bracket_entry(monkeypatch):
    # x1d3 = [x1d2, x2d3] = [d3, p1] is a nonzero bracket; one entry of its
    # degree-1 matrix is doubled
    x1d3 = scaling_op(3, 0, 2)
    V = build_irreducible(DominantLabels(3, (1, 1), F(1, 2)))
    assert verify_bracket_consistency(3, V, 1)

    def double(den, cols):
        col = cols[min(cols)]
        col[min(col)] *= 2

    _corrupt_assembly(monkeypatch, x1d3, 1, double)
    W = build_irreducible(DominantLabels(3, (1, 1), F(1, 2)))
    assert not verify_bracket_consistency(3, W, 1)


def test_bracket_check_catches_a_target_column_where_the_commutator_vanishes(monkeypatch):
    # [x1d2, x2d1] = x1d1 - x2d2, which no other pair reaches; on degree 0 it
    # is E_11 - E_22, zero on the basis vectors with w_1 = w_2
    h = scaling_op(3, 0, 0) - scaling_op(3, 1, 1)
    assert scaling_op(3, 0, 1).bracket(scaling_op(3, 1, 0)) == h
    V = build_irreducible(DominantLabels(3, (1, 1), F(1, 2)))
    zero_cols = set(range(V.dim)) - set(operator_matrix(h, V, 0).columns)
    assert zero_cols
    assert verify_bracket_consistency(3, V, 0)

    def fill(den, cols):
        cols[min(zero_cols)] = {0: den}

    _corrupt_assembly(monkeypatch, h, 0, fill)
    W = build_irreducible(DominantLabels(3, (1, 1), F(1, 2)))
    assert not verify_bracket_consistency(3, W, 0)


def test_bracket_check_builds_no_product_difference_or_twist_sum(monkeypatch):
    # b = 1/2 puts Fractions in every generator; the module is built first,
    # since its own commutators use products
    V = build_irreducible(DominantLabels(3, (1, 1), F(1, 2)))

    def forbidden(*args, **kwargs):
        raise AssertionError("the bracket check must not build an intermediate Matrix")

    for name in ("__matmul__", "__sub__", "__add__", "scale"):
        monkeypatch.setattr(Matrix, name, forbidden)
    assert verify_bracket_consistency(3, V, 1)


def test_each_operator_is_split_once_per_module(monkeypatch):
    # the degree-free plan (components and generator blocks) of an operator is
    # built once per module and shared by its matrices at every degree
    import projrep.action as action_mod

    split, assembled = [], []
    original_split, original_assemble = action_mod.projective_components, action_mod._assemble

    def counting_split(op):
        split.append(op)
        return original_split(op)

    def recording_assemble(op, V, k, src, dst):
        assembled.append(op)
        return original_assemble(op, V, k, src, dst)

    monkeypatch.setattr(action_mod, "projective_components", counting_split)
    monkeypatch.setattr(action_mod, "_assemble", recording_assemble)
    V = build_irreducible(DominantLabels(3, (1, 1), F(1, 2)))
    assert verify_bracket_consistency(3, V, 2)
    assert len(assembled) > len(set(assembled))  # operators assembled at several degrees
    assert len(split) == len(set(split))
    assert set(split) == set(assembled)


def test_reused_plan_keeps_the_pseudo_translation_weight_per_degree():
    # p_1 moves x^m to x^(m + e_1) with weight |m| + b: degree 2 first, then
    # degree 1 from the same plan, each column against the act oracle
    V = build_irreducible(DominantLabels(3, (1, 1), F(1, 2)))
    p1 = pseudo_translation_op(3, 0)
    for k in (2, 1):
        m = operator_matrix(p1, V, k)
        src, dst = graded_basis(V, k), graded_basis(V, k + 1)
        for mono, start in src.items():
            for q in range(V.dim):
                image = act(p1, GradedElement(k, {(mono, q): 1}), V)
                expected = {dst[x] + r: v for (x, r), v in image.coords.items()}
                assert m.column(start + q) == expected, (k, mono, q)


def test_chevalley_relations_hold():
    V = cached_module(2, (1,), F(1, 2))
    ok, detail = check_chevalley_relations(V, k_max=2)
    assert ok, detail


def test_derivative_surjectivity():
    V = cached_module(2, (1,), F(-1))
    ok, detail = check_derivative_surjectivity(V, 3)
    assert ok, detail


def test_cartan_diagonal_eigenvalues():
    V = cached_module(2, (2,), F(1, 2))
    ok, detail = check_cartan_diagonal(V, 3)
    assert ok, detail


def test_derivative_chain_identity_on_every_sorted_chain():
    for point in [(2, (1,), F(1)), (3, (1, 0), F(-2)), (2, (2,), F(1, 2))]:
        ok, detail = check_derivative_chain_identity(cached_module(*point))
        assert ok, (point, detail)


def test_derivative_chain_identity_refuses_a_dropped_shift_across_the_sweep(monkeypatch):
    """Without the constant k - 1 on the diagonal of triangle_delta the suite
    refuses every module of the n <= 3 sweep but the three trivial ones with
    b = 0, where every chain vector vanishes and no check can see the fault."""

    def without_shift(i, j, k, V):
        m = triangle_delta(i, j, k, V)
        return m + Matrix.identity(m.rows).scale(1 - k) if i == j and k != 1 else m

    monkeypatch.setattr(selfcheck, "triangle_delta", without_shift)
    passed = [point for point in standard_sweep(3)
              if check_derivative_chain_identity(cached_module(*point))[0]]
    assert passed == [(1, (), 0), (2, (0,), 0), (3, (0, 0), 0)]


def test_sign_flip_in_twisted_action_breaks_bracket_consistency(monkeypatch):
    """An injected fault in the pseudo-translation twist must be caught."""
    import projrep.action as action_mod

    original = action_mod._plan

    def flipped(op, V):
        # negate the coefficients of the p_i blocks, keep the rest
        moves, pseudo, blocks = original(op, V)
        return moves, pseudo, [(up, terms if up is None else [(-c, e) for c, e in terms])
                               for up, terms in blocks]

    # fresh module instances: plans and operator matrices are cached per instance
    V = build_irreducible(DominantLabels(2, (1,), F(1)))
    assert verify_bracket_consistency(2, V, 2)
    W = build_irreducible(DominantLabels(2, (1,), F(1)))
    monkeypatch.setattr(action_mod, "_plan", flipped)
    assert not verify_bracket_consistency(2, W, 2)


def test_twist_blocks_assemble_without_fraction_arithmetic(monkeypatch):
    # b = 1/2 puts Fractions in every generator; the generator blocks are
    # added on their integer columns
    from test_linalg import _count_fraction_arithmetic

    V = build_irreducible(DominantLabels(3, (2, 1), F(1, 2)))
    calls = []
    _count_fraction_arithmetic(monkeypatch, calls)
    matrices = [operator_matrix(scaling_op(3, i, j), V, 2) for i in range(3) for j in range(3)]
    monkeypatch.undo()
    assert calls == []
    assert all(m.den > 1 for m in matrices[::4])  # x_i d_i carries E_ii, weights in 1/6 Z


def test_witt_bracket_antisymmetry_and_jacobi():
    import itertools
    import random as rnd

    rng = rnd.Random(3)
    n = 2
    basis = [op for _, op in spanning_operators(n)]

    def random_element():
        out = WittElement(n)
        for op in rng.sample(basis, 3):
            out = out + rng.choice([-2, -1, 1, 2]) * op
        return out

    for _ in range(10):
        a, b, c = random_element(), random_element(), random_element()
        assert a.bracket(b) == -1 * b.bracket(a)
        jacobi = (
            a.bracket(b.bracket(c))
            + b.bracket(c.bracket(a))
            + c.bracket(a.bracket(b))
        )
        assert jacobi.is_zero()
    # closure: brackets of spanning elements stay inside the span
    for u, w in itertools.combinations(basis, 2):
        projective_components(u.bracket(w))


def _oracle_bracket(a, b):
    """The bracket by polynomial calculus, direction by direction: the d_i
    coefficient of [sum_j f_j d_j, sum_j g_j d_j] is
    sum_j (f_j * d_j g_i - g_j * d_j f_i)."""

    def by_direction(op):
        polys = {}
        for (mono, i), v in op.terms.items():
            polys.setdefault(i, {})[mono] = v
        return polys

    def mul(p, q):
        out = {}
        for ma, va in p.items():
            add_into(out, ((tuple(x + y for x, y in zip(ma, mb)), vb) for mb, vb in q.items()), va)
        return out

    def diff(p, j):
        out = {}
        for mono, v in p.items():
            if mono[j]:
                m = mono[:j] + (mono[j] - 1,) + mono[j + 1:]
                out[m] = out.get(m, 0) + v * mono[j]
        return out

    f, g = by_direction(a), by_direction(b)
    out = {}
    for i in range(a.n):
        for j in range(a.n):
            add_into(out, (((m, i), v) for m, v in mul(f.get(j, {}), diff(g.get(i, {}), j)).items()))
            add_into(out, (((m, i), v) for m, v in mul(g.get(j, {}), diff(f.get(i, {}), j)).items()), -1)
    return WittElement(a.n, out)


@st.composite
def vector_field_pairs(draw):
    """Two polynomial vector fields on n <= 4 variables, up to five terms each,
    monomials of degree <= 3, rational coefficients."""
    n = draw(st.integers(1, 4))
    fields = []
    for _ in range(2):
        terms = {}
        for _ in range(draw(st.integers(0, 5))):
            hits = draw(st.lists(st.integers(0, n - 1), max_size=3))
            mono = tuple(hits.count(t) for t in range(n))
            coeff = draw(st.fractions(min_value=-3, max_value=3, max_denominator=4))
            terms[(mono, draw(st.integers(0, n - 1)))] = coeff
        fields.append(WittElement(n, terms))
    return fields


@settings(max_examples=100, deadline=None)
@given(vector_field_pairs())
def test_bracket_matches_the_polynomial_calculus_oracle(fields):
    a, b = fields
    assert a.bracket(b) == _oracle_bracket(a, b)


@pytest.mark.parametrize("n", range(1, 6))
def test_bracket_matches_the_oracle_on_every_spanning_pair(n):
    ops = [op for _, op in spanning_operators(n)]
    for u in ops:
        for w in ops:
            assert u.bracket(w) == _oracle_bracket(u, w), (u, w)


def test_bracket_rejects_fields_on_different_variables():
    with pytest.raises(ValueError):
        derivative_op(2, 0).bracket(derivative_op(3, 0))


def test_operator_matrix_matches_act_composition():
    # matrices compose exactly like repeated act() application
    V = cached_module(2, (1,), F(1))
    p0 = pseudo_translation_op(2, 0)
    d1 = derivative_op(2, 1)
    gb1 = graded_basis(V, 1)
    comp = operator_matrix(d1, V, 2) @ operator_matrix(p0, V, 1)
    for mono, start in gb1.items():
        for q in range(V.dim):
            elem = GradedElement(1, {(mono, q): 1})
            image = act(d1, act(p0, elem, V), V)
            expected = {gb1[x] + r: v for (x, r), v in image.coords.items()} if image.degree == 1 else {}
            assert {r: v for (r, c), v in comp.entries.items() if c == start + q} == expected


B_VALUES = [F(-2), F(-1), F(0), F(1), F(2), F(1, 2)]
COEFFS = [0, 1, -1, 2, F(1, 2), F(-3, 2)]


@st.composite
def module_ops_and_degree(draw):
    """A module (n <= 3, labels <= 2), two same-shift combinations of spanning
    operators, and a degree k <= 3."""
    n = draw(st.integers(1, 3))
    dynkin = tuple(draw(st.lists(st.integers(0, 2), min_size=n - 1, max_size=n - 1)))
    V = cached_module(n, dynkin, draw(st.sampled_from(B_VALUES)))
    by_shift = {}
    for _, op in spanning_operators(n):
        by_shift.setdefault(op.degree_shift(), []).append(op)
    ops = []
    for _ in range(2):
        shift = draw(st.sampled_from(sorted(by_shift)))
        op = WittElement(n)
        for term in by_shift[shift]:
            op = op + draw(st.sampled_from(COEFFS)) * term
        ops.append((op, shift))
    (u, su), (w, sw) = ops
    ops.append((u.bracket(w), su + sw))
    return V, ops, draw(st.integers(0, 3))


@settings(max_examples=100, deadline=None)
@given(module_ops_and_degree())
def test_operator_matrix_columns_equal_act(case):
    V, ops, k = case
    src = graded_basis(V, k)
    for op, shift in ops:
        if op.is_zero():
            continue  # no degree shift, so no matrix
        m = operator_matrix(op, V, k)
        dst = graded_basis(V, k + shift)
        assert (m.rows, m.cols) == (len(dst) * V.dim, len(src) * V.dim)
        for v in m.entries.values():
            assert v != 0 and (type(v) is int or (type(v) is F and v.denominator > 1))
        for mono, start in src.items():
            for q in range(V.dim):
                image = act(op, GradedElement(k, {(mono, q): 1}), V)
                expected = {dst[x] + r: v for (x, r), v in image.coords.items()}
                assert m.column(start + q) == expected, (op, mono, q)


def test_operator_matrix_rejects_operators_outside_the_span():
    V = cached_module(2, (1,), F(1))
    with pytest.raises(UnsupportedOperatorError):
        operator_matrix(WittElement(2, {((3, 0), 0): 1}), V, 1)  # x1^3 d1
    with pytest.raises(UnsupportedOperatorError):
        operator_matrix(pseudo_translation_op(2, 0) + derivative_op(2, 0), V, 1)


@pytest.mark.parametrize("n,k", [(1, 0), (2, 1), (3, 2)])
def test_zero_operator_has_no_matrix(n, k):
    V = cached_module(n, (0,) * (n - 1), F(1))
    with pytest.raises(UnsupportedOperatorError):
        operator_matrix(WittElement(n), V, k)
    # nor a target degree for act
    one = GradedElement(k, {(monomials_of_degree(n, k)[0], 0): 1})
    with pytest.raises(UnsupportedOperatorError):
        act(WittElement(n), one, V)


def test_bracket_check_catches_a_nonzero_bracket_reported_as_zero(monkeypatch):
    d, p = derivative_op(2, 0), pseudo_translation_op(2, 0)
    original = WittElement.bracket
    assert not original(d, p).is_zero()

    def lying(self, other):
        return WittElement(self.n) if (self, other) == (d, p) else original(self, other)

    V = cached_module(2, (1,), F(1))
    assert verify_bracket_consistency(2, V, 2)
    monkeypatch.setattr(WittElement, "bracket", lying)
    # the brackets of n are built once: rebuild them with the lying bracket,
    # and again once it is undone, so that no later test reads this table
    spanning_brackets.cache_clear()
    try:
        assert not verify_bracket_consistency(2, V, 2)
    finally:
        monkeypatch.undo()
        spanning_brackets.cache_clear()


def test_bracket_check_assembles_each_nonzero_matrix_once(monkeypatch):
    import projrep.action as action_mod

    original = action_mod._assemble
    assembled = []

    def recording(op, V, k, src, dst):
        assembled.append((op, k))
        return original(op, V, k, src, dst)

    monkeypatch.setattr(action_mod, "_assemble", recording)
    # a fresh module instance: operator matrices are cached per instance
    V = build_irreducible(DominantLabels(3, (1, 0), F(-1)))
    assert verify_bracket_consistency(3, V, 2)
    assert assembled
    assert not [op for op, _ in assembled if op.is_zero()]
    assert len(assembled) == len(set(assembled))


def test_bracket_check_fetches_each_spanning_matrix_once(monkeypatch):
    # the factors come from a table of every spanning operator on degrees
    # -1 .. k_max + 1; a bracket is an element of its own, so a target equal
    # to a spanning operator is not a table fetch
    import projrep.action as action_mod

    original = action_mod.operator_matrix
    fetched = []

    def recording(op, V, k):
        fetched.append((op, k))
        return original(op, V, k)

    monkeypatch.setattr(action_mod, "operator_matrix", recording)
    V = build_irreducible(DominantLabels(3, (1, 1), F(1, 2)))
    assert verify_bracket_consistency(3, V, 2)
    spanning = [op for _, op in spanning_operators(3)]
    table = [(op, k) for op, k in fetched if any(op is s for s in spanning)]
    assert len(table) == len(set(table)) == len(spanning) * 5


def test_spanning_brackets_are_built_once_per_n(monkeypatch):
    # the brackets depend on n alone: the first n = 3 module's check forms
    # all 105 of them, and a second module's check reads the same table
    original = WittElement.bracket
    calls = []

    def counting(self, other):
        calls.append((self, other))
        return original(self, other)

    spanning_brackets.cache_clear()
    monkeypatch.setattr(WittElement, "bracket", counting)
    made = []
    for _ in range(2):
        V = build_irreducible(DominantLabels(3, (1, 1), F(1, 2)))
        before = len(calls)
        assert verify_bracket_consistency(3, V, 1)
        made.append(len(calls) - before)
    assert made == [105, 0]


def test_plans_point_at_the_generators_and_copy_none(monkeypatch):
    # a plan's generator blocks are (coefficient, V.e(i, j)) terms: no plan
    # of a spanning operator or a nonzero bracket builds a Matrix
    import projrep.action as action_mod

    V = build_irreducible(DominantLabels(3, (1, 1), F(1, 2)))
    ops = [op for _, op in spanning_operators(3)]
    brackets = [u.bracket(w) for a, u in enumerate(ops) for w in ops[a + 1:]]
    original = Matrix.from_int_columns.__func__
    built = []

    def counting(cls, *args):
        built.append(args)
        return original(cls, *args)

    monkeypatch.setattr(Matrix, "from_int_columns", classmethod(counting))
    plans = [action_mod._plan(op, V) for op in ops + [w for w in brackets if not w.is_zero()]]
    monkeypatch.undo()
    assert built == []
    generators = {id(V.e(i, j)) for i in range(3) for j in range(3)}
    assert all(id(e) in generators
               for _, _, blocks in plans for _, terms in blocks for _, e in terms)


@pytest.mark.parametrize("n,dynkin,b,k_max,count", [
    (3, (1, 1), F(1, 2), 2, 114),
    (2, (1,), F(1), 4, 86),
    (3, (2, 0), F(-2), 1, 86),
])
def test_bracket_check_assembles_the_pinned_matrix_set(monkeypatch, n, dynkin, b, k_max, count):
    # the table's spanning matrices and the nonzero brackets' targets, each
    # (operator, degree) once: the set that four fetches per commutator made
    import projrep.action as action_mod

    original = action_mod._assemble
    assembled = []

    def recording(op, V, k, src, dst):
        assembled.append((op, k))
        return original(op, V, k, src, dst)

    monkeypatch.setattr(action_mod, "_assemble", recording)
    V = build_irreducible(DominantLabels(n, dynkin, b))
    assert verify_bracket_consistency(n, V, k_max)
    assert len(assembled) == len(set(assembled)) == count


def test_matrix_path_does_not_call_act(monkeypatch):
    import projrep.action as action_mod
    from projrep.glmodules import DominantLabels, build_irreducible

    def forbidden(*args, **kwargs):
        raise AssertionError("operator matrices must not be built column by column with act()")

    monkeypatch.setattr(action_mod, "act", forbidden)
    V = build_irreducible(DominantLabels(2, (1,), F(1, 2)))
    m = operator_matrix(pseudo_translation_op(2, 0), V, 2)
    assert (m.rows, m.cols) == (graded_dimension(V, 3), graded_dimension(V, 2))
    assert verify_bracket_consistency(2, V, 2)


def test_act_does_not_call_the_matrix_path(monkeypatch):
    import projrep.action as action_mod

    def forbidden(*args, **kwargs):
        raise AssertionError("act must stay independent of the matrix assembly")

    monkeypatch.setattr(action_mod, "_assemble", forbidden)
    monkeypatch.setattr(action_mod, "operator_matrix", forbidden)
    V = cached_module(2, (1,), F(1, 2))
    x1_v0 = GradedElement(1, {((1, 0), 0): 1})
    for _, op in spanning_operators(2):
        act(op, x1_v0, V)


def test_action_oracle_catches_a_corrupted_matrix_entry(monkeypatch):
    import projrep.selfcheck as selfcheck_mod

    V = cached_module(2, (1,), F(1, 2))
    assert check_action_oracle(V)[0]
    original = selfcheck_mod.operator_matrix
    target = pseudo_translation_op(2, 1)

    def corrupted(op, V, k):
        m = original(op, V, k)
        if op != target or k != 1:
            return m
        (r, c), v = next(iter(m.entries.items()))
        return Matrix(m.rows, m.cols, {**m.entries, (r, c): v + 1})

    monkeypatch.setattr(selfcheck_mod, "operator_matrix", corrupted)
    ok, detail = check_action_oracle(V)
    assert not ok and detail.startswith("p2 column")
