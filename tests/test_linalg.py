import math
import random
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from projrep.linalg import (
    DegenerateSpectrumError,
    EchelonSpan,
    Matrix,
    block,
    charpoly,
    commutator,
    eval_operator_polynomial,
    format_rational,
    idempotent_from_spectrum,
    kernel_basis,
    kron,
    parse_rational,
    polynomial_traces,
    product_difference_equals,
    rank,
)


def from_rows(data):
    """The Matrix with these dense rows."""
    cols = len(data[0]) if data else 0
    return Matrix(len(data), cols, {(r, c): v for r, row in enumerate(data) for c, v in enumerate(row)})


def to_dense(m):
    return [[m.entries.get((r, c), 0) for c in range(m.cols)] for r in range(m.rows)]


def test_rank_identity():
    assert rank(Matrix.identity(3)) == 3


def test_rank_zero():
    assert rank(Matrix.zeros(4, 4)) == 0


def test_rank_proportional_rows():
    assert rank(from_rows([[1, 2], [2, 4]])) == 1


def test_kernel_identity_empty():
    assert kernel_basis(Matrix.identity(2)) == []


def test_kernel_single_row():
    assert kernel_basis(from_rows([[1, 1]])) == [(F(1), F(-1))]


def test_kernel_proportional_rows():
    # one vector proportional to (2, -1), normalized to leading 1
    assert kernel_basis(from_rows([[1, 2], [2, 4]])) == [(F(1), F(-1, 2))]


def test_kernel_without_rows_is_every_unit_vector():
    assert kernel_basis(Matrix.zeros(0, 3)) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_kernel_without_columns_is_empty():
    assert kernel_basis(Matrix.zeros(2, 0)) == []


def test_kernel_tags_sit_past_every_row():
    # column 1 is zero; a tag at index 1 instead of rows + 1 would be a pivot
    assert kernel_basis(Matrix(2, 3, {(0, 0): 1, (1, 2): 1})) == [(0, 1, 0)]


def test_eval_poly_scalar_matrix():
    op = Matrix.identity(3).scale(2)
    assert eval_operator_polynomial(op, [2]).is_zero()


def test_eval_poly_diagonal():
    op = from_rows([[2, 0], [0, 0]])
    assert eval_operator_polynomial(op, [2, 0]).is_zero()


def test_eval_poly_nilpotent_residual():
    op = from_rows([[0, 1], [0, 0]])
    assert eval_operator_polynomial(op, [0]) == op


def test_eval_poly_empty_roots_is_identity():
    op = from_rows([[3, 1], [0, 5]])
    assert eval_operator_polynomial(op, []) == Matrix.identity(2)


def test_eval_poly_rejects_nonsquare():
    with pytest.raises(ValueError):
        eval_operator_polynomial(Matrix.zeros(2, 3), [0])


def _check_polynomial_traces(op, roots):
    """polynomial_traces of op on roots p_l / Q against the operator
    polynomials: traces[s] = (Q * op.den)^s * tr P_s, with P_s the product
    over the last s roots, and `vanishes` iff the whole product is zero."""
    q = math.lcm(*(F(r).denominator for r in roots))
    traces, vanishes = polynomial_traces(op, [int(r * q) for r in roots], q)
    m = len(roots)
    expected = [
        (q * op.den) ** s * sum(eval_operator_polynomial(op, roots[m - s:]).entries.get((i, i), 0)
                                for i in range(op.rows))
        for s in range(m)
    ]
    assert traces == expected
    assert all(type(t) is int for t in traces)
    assert vanishes == eval_operator_polynomial(op, roots).is_zero()
    return vanishes


MIXED_ROOTS = [F(1, 2), F(5, 3), F(-13, 8), F(2), F(0), F(-1)]


@pytest.mark.parametrize("seed", range(12))
def test_polynomial_traces_match_the_operator_polynomial(seed):
    # random integer columns over den 1, 4 or 6: the identity fails on them
    rng = random.Random(seed)
    den, size = (1, 4, 6)[seed % 3], rng.randint(1, 7)
    cols = {c: {r: rng.choice([-3, -1, 1, 2, 5]) for r in range(size) if rng.random() < 0.4}
            for c in range(size)}
    cols[0][0] = 1
    op = Matrix.from_int_columns(size, size, den, {c: col for c, col in cols.items() if col})
    assert op.den == den
    roots = rng.sample(MIXED_ROOTS, rng.randint(1, 4))
    assert not _check_polynomial_traces(op, roots)


@pytest.mark.parametrize("seed", range(12))
def test_polynomial_traces_of_a_vanishing_product(seed):
    # a triangular matrix with distinct diagonal entries, indices permuted,
    # is diagonalizable; its spectrum lies among the roots, not all of which
    # it realizes
    rng = random.Random(seed)
    roots = rng.sample(MIXED_ROOTS, rng.randint(2, 5))
    present = rng.sample(roots, rng.randint(1, len(roots) - 1))
    size, at = len(present), rng.sample(range(len(present)), len(present))
    op = Matrix(size, size, {
        (at[i], at[j]): present[i] if i == j else F(rng.randint(-4, 4), rng.choice([1, 2, 3]))
        for i in range(size) for j in range(i, size)
    })
    assert _check_polynomial_traces(op, roots)
    # without one realized root the product is not zero
    assert not _check_polynomial_traces(op, [r for r in roots if r != present[0]])


def test_polynomial_traces_edge_cases():
    op = from_rows([[F(1, 4), 1], [0, F(-3, 2)]])
    assert polynomial_traces(op, [], 1) == ([], False)
    assert polynomial_traces(Matrix.zeros(0, 0), [], 1) == ([], True)
    assert polynomial_traces(Matrix.zeros(0, 0), [1, -5], 3) == ([0, 0], True)
    # roots 1/4 and -3/2 over Q = 4, op over D = 4: the first factor is
    # 4 * C + 6 * 4 * Id with tr C = 1 - 6, so its trace is 4 * (-5) + 48 = 28
    assert polynomial_traces(op, [1, -6], 4) == ([2, 28], True)
    assert _check_polynomial_traces(op, [F(1, 4), F(-3, 2)])
    assert not _check_polynomial_traces(from_rows([[0, 1], [0, 0]]), [F(0)])
    with pytest.raises(ValueError):
        polynomial_traces(Matrix.zeros(2, 3), [0], 1)


def test_idempotent_diagonal():
    op = from_rows([[2, 0], [0, 0]])
    assert idempotent_from_spectrum(op, 2, [0]) == from_rows([[1, 0], [0, 0]])
    assert idempotent_from_spectrum(op, 0, [2]) == from_rows([[0, 0], [0, 1]])


def test_idempotent_repeated_root_rejected():
    op = Matrix.identity(2)
    with pytest.raises(DegenerateSpectrumError):
        idempotent_from_spectrum(op, 1, [1])
    with pytest.raises(DegenerateSpectrumError):
        idempotent_from_spectrum(op, 2, [0, 0])


def _random_matrix(rng, rows, cols):
    values = [0, 0, 1, -2, F(1, 3)]
    cells = [(r, c) for r in range(rows) for c in range(cols)]
    return Matrix(rows, cols, {rc: rng.choice(values) for rc in cells})


@pytest.mark.parametrize("shape", [
    [[(2, 3), (2, 1), (2, 4)]],           # 1 x m
    [[(3, 2)], [(1, 2)], [(4, 2)]],       # m x 1
    [[(2, 3), (2, 1)], [(3, 3), (3, 1)]],  # 2 x 2
])
def test_block_matches_dense_reference(shape):
    rng = random.Random(len(shape))
    grid = [[_random_matrix(rng, r, c) for r, c in row] for row in shape]
    dense = [
        [x for m in row for x in to_dense(m)[r]]
        for row in grid
        for r in range(row[0].rows)
    ]
    assert block(grid) == from_rows(dense)


@pytest.mark.parametrize("grid", [
    [[Matrix.zeros(2, 2), Matrix.zeros(3, 1)]],
    [[Matrix.zeros(2, 2)], [Matrix.zeros(1, 3)]],
    [[Matrix.zeros(1, 1), Matrix.zeros(1, 1)], [Matrix.zeros(1, 1)]],
])
def test_block_rejects_ragged_grid(grid):
    with pytest.raises(ValueError):
        block(grid)


def test_idempotent_from_block_operator():
    # the degree-one chain matrix of the n=2 vector module with b=1,
    # written out by hand; spectral projector at the root 2 has rank 3
    sigma = from_rows([
        [2, 0, 0, 0],
        [0, 1, 1, 0],
        [0, 1, 1, 0],
        [0, 0, 0, 2],
    ])
    p = idempotent_from_spectrum(sigma, 2, [0])
    assert p @ p == p
    assert rank(p) == 3
    assert p == sigma.scale(F(1, 2))


def test_operator_polynomial_rejects_float_roots():
    op = from_rows([[1, 2], [0, F(1, 3)]])
    for m in (op, Matrix.zeros(0, 0)):
        with pytest.raises(TypeError):
            eval_operator_polynomial(m, [0.5])
        with pytest.raises(TypeError):
            eval_operator_polynomial(m, [1, F(1, 2), 0.5])
        with pytest.raises(TypeError):
            idempotent_from_spectrum(m, 0.5, [1])
        with pytest.raises(TypeError):
            idempotent_from_spectrum(m, 1, [0.5])


def _count_fraction_arithmetic(monkeypatch, calls):
    """Append the name of every Fraction add, multiply and subtract to `calls`
    until monkeypatch.undo()."""
    for name in ("__add__", "__radd__", "__mul__", "__rmul__", "__sub__", "__rsub__"):
        original = getattr(F, name)

        def counting(self, other, original=original, name=name):
            calls.append(name)
            return original(self, other)

        monkeypatch.setattr(F, name, counting)


def test_operator_polynomial_does_no_fraction_arithmetic_per_entry(monkeypatch):
    # the same roots on a 3x3 and on a 30x30 operator: any Fraction work per
    # entry would make the two counts differ
    rng = random.Random(5)

    def rational(n):
        return from_rows([
            [F(rng.randint(-6, 6), rng.choice([1, 2, 3, 5, 7])) if rng.randint(0, 2) else 0
             for _ in range(n)]
            for _ in range(n)
        ])

    roots, target = [F(1, 3), 2, F(-3, 5)], F(1, 2)
    counts = []
    for op in (rational(3), rational(30)):
        calls = []
        _count_fraction_arithmetic(monkeypatch, calls)
        result = eval_operator_polynomial(op, roots)
        p = idempotent_from_spectrum(op, target, roots)
        monkeypatch.undo()
        assert not result.is_zero() and not p.is_zero()
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_products_and_sums_run_without_fraction_arithmetic(monkeypatch):
    rng = random.Random(11)

    def rational(rows, cols):
        return from_rows([
            [F(rng.randint(-6, 6), rng.choice([1, 2, 3, 5, 7])) for _ in range(cols)]
            for _ in range(rows)
        ])

    a, b, c, d = rational(4, 5), rational(5, 3), rational(4, 6), rational(6, 3)
    ab, cd = dense_product(to_dense(a), to_dense(b)), dense_product(to_dense(c), to_dense(d))
    expected = [[x - y for x, y in zip(r, r2)] for r, r2 in zip(ab, cd)]
    calls = []
    _count_fraction_arithmetic(monkeypatch, calls)
    result = a @ b - c @ d
    monkeypatch.undo()
    assert calls == []
    assert to_dense(result) == expected


def test_matmul_matches_dense():
    rng = random.Random(7)
    a = from_rows([[rng.randint(-9, 9) for _ in range(6)] for _ in range(5)])
    b = from_rows([
        [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(4)] for _ in range(6)
    ])
    c = to_dense(a @ b)
    ad, bd = to_dense(a), to_dense(b)
    for i in range(5):
        for j in range(4):
            assert c[i][j] == sum(ad[i][k] * bd[k][j] for k in range(6))


def test_matmul_huge_entries_fallback():
    # entries far beyond int64: the product uses unbounded ints and stays exact
    big = 2 ** 80
    a = from_rows([[big, 1], [0, big]])
    b = from_rows([[big, 0], [1, 1]])
    c = to_dense(a @ b)
    assert c[0][0] == big * big + 1
    assert c[1][0] == big
    assert c[1][1] == big


def _explicit(a, b, c, d, target):
    return a @ b - c @ d == (target if target is not None else Matrix.zeros(a.rows, b.cols))


def test_product_difference_hand_made_cases():
    ident = Matrix.identity(3)
    assert product_difference_equals(ident, ident, ident, ident)
    assert not product_difference_equals(ident, ident, ident, ident, ident)
    # a @ b column 0 is {0: 1, 1: 1} and c @ d column 0 is {0: 1}: the
    # difference is e_1 alone, and row 0 cancels to a zero in the sum
    a = from_rows([[1, 0, 0], [1, 0, 0], [0, 0, 0]])
    e00 = from_rows([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    e10 = from_rows([[0, 0, 0], [1, 0, 0], [0, 0, 0]])
    e20 = from_rows([[0, 0, 0], [0, 0, 0], [1, 0, 0]])
    assert product_difference_equals(a, e00, e00, e00, e10)
    # as many target entries as accumulated ones, but row 2 is never met
    assert not product_difference_equals(a, e00, e00, e00, e10 + e20)
    assert not product_difference_equals(a, e00, e00, e00, e20)
    assert not product_difference_equals(a, e00, e00, e00)
    # a target column that neither product stores
    assert product_difference_equals(e00, e00, e00, e00)
    assert not product_difference_equals(e00, e00, e00, e00, from_rows([[0, 1, 0], [0, 0, 0], [0, 0, 0]]))
    # denominators 6 and 5 on the products, 30 and then 35 on the target
    half, third = ident.scale(F(1, 2)), ident.scale(F(1, 3))
    fifth = ident.scale(F(1, 5))
    target = ident.scale(F(1, 6) - F(1, 5))
    assert product_difference_equals(half, third, fifth, ident, target)
    assert not product_difference_equals(half, third, fifth, ident, target.scale(F(6, 7)))
    assert not product_difference_equals(half, third, fifth, ident)


def test_product_difference_rejects_shape_mismatch():
    sq, wide = Matrix.zeros(2, 2), Matrix.zeros(2, 3)
    with pytest.raises(ValueError):
        product_difference_equals(sq, wide, sq, sq)
    with pytest.raises(ValueError):
        product_difference_equals(wide, sq, sq, sq)
    with pytest.raises(ValueError):
        product_difference_equals(sq, sq, sq, sq, wide)


def test_product_difference_matches_explicit_products():
    # random sparse rational factors with unrelated denominators; the target
    # is the true difference, zero, or the difference with one entry moved,
    # added or rescaled
    rng = random.Random(19)
    values = [0, 0, 0, 1, -1, 2, F(1, 2), F(-3, 2), F(2, 3), F(5, 7)]

    def rand(rows, cols):
        return from_rows([[rng.choice(values) for _ in range(cols)] for _ in range(rows)])

    outcomes = set()
    for _ in range(300):
        p, q, r, s = (rng.randint(1, 4) for _ in range(4))
        a, b, c, d = rand(p, q), rand(q, s), rand(p, r), rand(r, s)
        true = a @ b - c @ d
        ent = dict(true.entries)
        i, j = rng.randrange(p), rng.randrange(s)
        ent[(i, j)] = ent.get((i, j), 0) + rng.choice([1, F(1, 3)])
        for target in (None, true, Matrix(p, s, ent), true.scale(F(7, 11)), rand(p, s)):
            got = product_difference_equals(a, b, c, d, target)
            assert got == _explicit(a, b, c, d, target)
            outcomes.add(got)
    assert outcomes == {True, False}
    # rectangular shapes up to 12 with narrow inner dimensions; the fault is
    # a unit at a position P in the last row or column, alone or moved to
    # any other position Q.  A moved unit cancels under any key that maps
    # P and Q to one accumulator slot, so every position must keep its own.
    for p, q, r, s in [(12, 2, 3, 5), (5, 3, 1, 12), (7, 1, 2, 11), (11, 4, 2, 3),
                       (1, 2, 2, 12), (12, 3, 2, 1), (2, 1, 1, 9), (9, 2, 1, 2)]:
        a, b, c, d = rand(p, q), rand(q, s), rand(p, r), rand(r, s)
        true = a @ b - c @ d
        assert product_difference_equals(a, b, c, d, true)
        for i, j in {(p - 1, rng.randrange(s)), (rng.randrange(p), s - 1), (p - 1, s - 1)}:
            unit = Matrix(p, s, {(i, j): 1})
            assert not product_difference_equals(a, b, c, d, true + unit)
            for k in range(p * s):
                target = true + unit - Matrix(p, s, {divmod(k, s): 1})
                got = product_difference_equals(a, b, c, d, target)
                assert got == _explicit(a, b, c, d, target) == (divmod(k, s) == (i, j))


def test_float_rejected():
    with pytest.raises(TypeError):
        Matrix(1, 1, {(0, 0): 0.5})
    with pytest.raises(TypeError):
        Matrix.identity(2).scale(0.5)
    with pytest.raises(TypeError):
        from_rows([[0.1, 0], [0, 1]])


def test_kron_block_structure():
    a = from_rows([[1, 2], [0, 1]])
    b = from_rows([[3, 0], [1, 1]])
    k = to_dense(kron(a, b))
    assert k[0][0] == 3 and k[0][2] == 6 and k[1][2] == 2 and k[2][2] == 3
    assert k[3][2] == 1 and k[3][3] == 1


def test_charpoly_small():
    m = from_rows([[2, 1], [0, F(1, 3)]])
    assert charpoly(m) == [1, F(-7, 3), F(2, 3)]


def test_parse_format_rational():
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational("-7") == -7
    assert format_rational(F(3, 4)) == "3/4"
    assert format_rational(F(6, 2)) == "3"


def test_parse_rational_refuses_more_digits_than_int_str_allows():
    # Fraction would build 10**999999999; digits plus exponent are counted before it runs
    limit = sys.get_int_max_str_digits()
    for text in ("1e999999999", "1e5000", "-2.5E+9999", "1e-5000", "7" * (limit + 1)):
        with pytest.raises(ValueError, match=f"more than {limit} digits"):
            parse_rational(text)
    assert parse_rational("5e" + str(limit - 1)) == 5 * 10 ** (limit - 1)


def test_format_rational_refuses_more_digits_than_int_str_allows():
    # str() of a longer int raises Python's own message; the limit is named instead
    limit = sys.get_int_max_str_digits()
    for value in (10**limit, F(1, 10**limit), F(-(10**limit), 3)):
        with pytest.raises(ValueError, match=f"cannot print a rational of more than {limit} digits"):
            format_rational(value)
    assert format_rational(10 ** (limit - 1)) == "1" + "0" * (limit - 1)
    assert format_rational(F(-1, 10 ** (limit - 1))) == "-1/1" + "0" * (limit - 1)


def test_parse_rational_error_names_every_accepted_form():
    with pytest.raises(ValueError, match="integer or num/den, or an exact decimal such as 0.5"):
        parse_rational("x/2")


# -- properties ------------------------------------------------------------------

small_frac = st.builds(F, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def rational_matrix(draw, max_dim=5):
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    data = draw(
        st.lists(
            st.lists(small_frac, min_size=cols, max_size=cols),
            min_size=rows, max_size=rows,
        )
    )
    return from_rows(data)


@settings(max_examples=40, deadline=None)
@given(rational_matrix())
def test_rank_nullity(m):
    assert rank(m) + len(kernel_basis(m)) == m.cols


@settings(max_examples=40, deadline=None)
@given(rational_matrix(), st.randoms(use_true_random=False))
def test_rank_permutation_invariant(m, rng):
    rows = list(range(m.rows))
    cols = list(range(m.cols))
    rng.shuffle(rows)
    rng.shuffle(cols)
    permuted = Matrix(
        m.rows, m.cols,
        {(rows[r], cols[c]): v for (r, c), v in m.entries.items()},
    )
    assert rank(permuted) == rank(m)


@settings(max_examples=40, deadline=None)
@given(rational_matrix())
def test_kernel_vectors_annihilated(m):
    for vec in kernel_basis(m):
        image = m.apply({i: v for i, v in enumerate(vec) if v != 0})
        assert image == {}
        lead = next(v for v in vec if v != 0)
        assert lead == 1


@settings(max_examples=60, deadline=None)
@given(rational_matrix())
def test_kernel_basis_is_the_reduced_basis(m):
    # the free columns are those that depend on the columns before them; the
    # t-th vector is nonzero at the t-th free column and 0 at every other one,
    # which fixes it up to scale, and the scale puts 1 first
    def prefix_rank(j):
        return rank(Matrix(m.rows, j, {k: v for k, v in m.entries.items() if k[1] < j}))

    free = [j for j in range(m.cols) if prefix_rank(j + 1) == prefix_rank(j)]
    basis = kernel_basis(m)
    assert len(basis) == len(free)
    for vec, own in zip(basis, free):
        assert len(vec) == m.cols
        assert m.apply({i: v for i, v in enumerate(vec) if v != 0}) == {}
        assert vec[own] != 0
        assert all(vec[j] == 0 for j in free if j != own)
        assert next(v for v in vec if v != 0) == 1


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.integers(-3, 3), min_size=2, max_size=4),
    st.integers(0, 10_000),
)
def test_spectral_resolution(diag, seed):
    # conjugated diagonal operator: projectors resolve the identity, are
    # mutually annihilating, and their product with the operator reassembles it
    n = len(diag)
    rng = random.Random(seed)
    # a unimodular change of basis: a product of elementary matrices
    # I + t*E_ij (i != j), whose inverses are I - t*E_ij
    lower = [(i, j, rng.randint(-2, 2)) for i in range(n) for j in range(i)]
    factors = lower + [(j, i, t) for i, j, t in lower]

    def product(factors):
        m = Matrix.identity(n)
        for i, j, t in factors:
            m = m @ Matrix(n, n, {(r, r): 1 for r in range(n)} | {(i, j): t})
        return m

    op = product(factors)
    op_inv = product([(i, j, -t) for i, j, t in reversed(factors)])
    assert op @ op_inv == Matrix.identity(n)
    d = Matrix(n, n, {(i, i): diag[i] for i in range(n)})
    a = op @ d @ op_inv
    spectrum = sorted(set(diag))
    total = Matrix.zeros(n, n)
    projectors = []
    for t in spectrum:
        p = idempotent_from_spectrum(a, t, [s for s in spectrum if s != t])
        assert p @ p == p
        projectors.append((t, p))
        total = total + p
    assert total == Matrix.identity(n)
    for i in range(len(projectors)):
        for j in range(i + 1, len(projectors)):
            assert (projectors[i][1] @ projectors[j][1]).is_zero()
    recombined = Matrix.zeros(n, n)
    for t, p in projectors:
        recombined = recombined + p.scale(t)
    assert recombined == a


def relation_coords(inserted, vec, cols):
    """vec's coefficients over the independent vectors `inserted`, read off
    kernel_basis of the matrix [inserted | vec]; None when vec lies outside
    their span."""
    kernel = kernel_basis(Matrix.from_cols(inserted + [vec], cols))
    if not kernel:
        return None
    # the one relation has a nonzero last entry, as the inserted are independent
    (relation,) = kernel
    return [-x / relation[-1] for x in relation[:-1]]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(small_frac, min_size=4, max_size=4), min_size=1, max_size=6))
def test_echelon_span_membership_and_coords(rows):
    span = EchelonSpan()
    inserted = []
    for row in rows:
        vec = {i: v for i, v in enumerate(row) if v != 0}
        if span.insert(vec) is not None:
            inserted.append(vec)
    assert span.dim == len(inserted)
    assert span.dim == rank(from_rows(rows))
    for vec in inserted:
        assert span.insert(vec) is None
        coords = relation_coords(inserted, vec, 4)
        assert coords is not None
        rebuilt = {}
        for x, base in zip(coords, inserted):
            for i, v in base.items():
                s = rebuilt.get(i, 0) + x * v
                if s == 0:
                    rebuilt.pop(i, None)
                else:
                    rebuilt[i] = s
        assert rebuilt == vec


# -- an independent elimination oracle -------------------------------------------


def gauss_jordan(rows, cols):
    """Dense Fraction Gauss-Jordan: (nonzero rows of the RREF, pivot columns)."""
    a = [[F(v) for v in row] for row in rows]
    pivots = []
    for c in range(cols):
        r = len(pivots)
        p = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        a[r] = [v / a[r][c] for v in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return a[:len(pivots)], pivots


def oracle_kernel(rows, cols):
    """The null-space basis read off the RREF, one vector per free column,
    each scaled so its first nonzero entry is 1."""
    rref, pivots = gauss_jordan(rows, cols)
    basis = []
    for f in range(cols):
        if f in pivots:
            continue
        vec = [F(0)] * cols
        vec[f] = F(1)
        for row, p in zip(rref, pivots):
            vec[p] = -row[f]
        lead = next(v for v in vec if v != 0)
        basis.append(tuple(v / lead for v in vec))
    return basis


def oracle_coords(inserted, vec, cols):
    """Coefficients of vec over the independent vectors `inserted`, or None."""
    aug = [[base[i] for base in inserted] + [vec[i]] for i in range(cols)]
    rref, pivots = gauss_jordan(aug, len(inserted) + 1)
    if len(inserted) in pivots:
        return None
    return [row[-1] for row in rref]


huge_int = st.one_of(
    st.just(0),
    st.integers(-4, 4).map(lambda d: 2 ** 70 + d),
    st.integers(-4, 4).map(lambda d: -(2 ** 70) + d),
)


@st.composite
def dense_rows(draw):
    """Rows of a random rational matrix up to 7x7 (zeros included) or of an
    integer matrix with entries near 2**70; some rows are integer combinations
    of earlier ones, so ranks are often deficient."""
    rows = draw(st.integers(1, 7))
    cols = draw(st.integers(1, 7))
    scalar = draw(st.sampled_from([st.one_of(st.just(0), small_frac), huge_int]))
    data = []
    for _ in range(rows):
        if data and draw(st.booleans()):
            x, y = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
            a, b = draw(st.sampled_from(data)), draw(st.sampled_from(data))
            data.append([x * u + y * v for u, v in zip(a, b)])
        else:
            data.append(draw(st.lists(scalar, min_size=cols, max_size=cols)))
    return data, cols


@settings(max_examples=150, deadline=None)
@given(dense_rows(), st.lists(small_frac, min_size=7, max_size=7))
def test_elimination_matches_dense_gauss_jordan(drawn, extra):
    data, cols = drawn
    m = from_rows(data)
    rref, _ = gauss_jordan(data, cols)
    assert rank(m) == rank(from_rows([list(col) for col in zip(*data)])) == len(rref)
    assert kernel_basis(m) == oracle_kernel(data, cols)

    span = EchelonSpan()
    inserted = []
    for row in data:
        new_id = span.insert({i: v for i, v in enumerate(row) if v != 0})
        if new_id is not None:
            assert new_id == len(inserted)
            inserted.append(row)
    assert span.dim == len(rref) == len(inserted)
    assert gauss_jordan(inserted, cols)[0] == rref
    combination = [sum(x * row[i] for x, row in zip(extra, data)) for i in range(cols)]
    sparse = [{i: v for i, v in enumerate(row) if v != 0} for row in inserted]
    # extra comes last: the membership check inserts it when it lies outside
    for vec in data + [combination, extra[:cols]]:
        expected = oracle_coords(inserted, vec, cols)
        sparse_vec = {i: v for i, v in enumerate(vec) if v != 0}
        assert relation_coords(sparse, sparse_vec, cols) == expected
        assert (span.insert(sparse_vec) is None) == (expected is not None)


# coprime denominators, so the common denominator of a matrix is a real lcm
mixed_frac = st.builds(F, st.integers(-6, 6), st.sampled_from([1, 2, 3, 5, 7]))
sparse_scalar = st.one_of(st.just(0), mixed_frac)


def sparse_matrix(rows, cols):
    row = st.lists(sparse_scalar, min_size=cols, max_size=cols)
    return st.lists(row, min_size=rows, max_size=rows).map(from_rows)


@st.composite
def matmul_triple(draw, max_dim=5):
    """(a, a2, b) with a, a2 of one shape and b composable on the right."""
    rows, inner, cols = (draw(st.integers(1, max_dim)) for _ in range(3))
    return draw(sparse_matrix(rows, inner)), draw(sparse_matrix(rows, inner)), draw(
        sparse_matrix(inner, cols)
    )


def dense_product(xd, yd):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*yd)] for row in xd]


def assert_clean(m):
    # what the validating constructor would store: nonzero, ints for integers
    for v in m.entries.values():
        assert v != 0
        assert type(v) is int or (type(v) is F and v.denominator > 1)
    assert Matrix(m.rows, m.cols, m.entries).entries == m.entries
    # the stored form is canonical: integer columns, none empty, over a
    # positive denominator that shares no factor with them
    assert type(m.den) is int and m.den >= 1
    for c, col in m.columns.items():
        assert 0 <= c < m.cols and col
        assert all(type(v) is int and v != 0 and 0 <= r < m.rows for r, v in col.items())
    assert math.gcd(m.den, *(v for col in m.columns.values() for v in col.values())) == 1
    assert Matrix(m.rows, m.cols, m.entries) == m


@settings(max_examples=60, deadline=None)
@given(matmul_triple(), small_frac.filter(lambda x: x != 0))
def test_exact_operations_match_dense_and_store_clean_entries(mats, s):
    a, a2, b = mats
    ad, a2d, bd = to_dense(a), to_dense(a2), to_dense(b)
    # the product caches a's integer form, which both sums then read
    prod, total, diff = a @ b, a + a2, a - a2
    assert to_dense(prod) == dense_product(ad, bd)
    assert to_dense(total) == [[x + y for x, y in zip(r, r2)] for r, r2 in zip(ad, a2d)]
    assert to_dense(diff) == [[x - y for x, y in zip(r, r2)] for r, r2 in zip(ad, a2d)]
    assert diff == a + (-a2)
    # sums of products, which keep the integer form they computed
    commutator_like = prod - a2 @ b
    assert commutator_like == diff @ b
    assert to_dense(commutator_like) == dense_product(to_dense(diff), bd)
    for m in (prod, total, diff, commutator_like, -a, a.scale(s), kron(a, b)):
        assert_clean(m)
    assert_clean(block([[a, a2], [a2, a]]))
    # a sum that cancels to zero keeps no denominator
    frac = a + Matrix(a.rows, a.cols, {(0, 0): F(1, 11)})
    assert frac.den % 11 == 0
    zero = frac - frac
    assert_clean(zero)
    assert zero.is_zero() and zero.den == 1 and zero == Matrix.zeros(a.rows, a.cols)


def _reference_product(op, roots):
    """Left-to-right product of (op - r*Id), built with @ and -."""
    n = op.rows
    out = Matrix.identity(n)
    for r in roots:
        out = out @ (op - Matrix.identity(n).scale(r))
    return out


@st.composite
def square_rational_matrix(draw, max_dim=6):
    n = draw(st.integers(0, max_dim))
    entry = st.one_of(st.just(0), st.integers(-5, 5), small_frac)
    return from_rows([[draw(entry) for _ in range(n)] for _ in range(n)])


@settings(max_examples=60, deadline=None)
@given(square_rational_matrix(), st.lists(mixed_frac, max_size=3), mixed_frac)
def test_integer_operator_product_matches_matrix_product(op, roots, target):
    value = eval_operator_polynomial(op, roots)
    assert value == _reference_product(op, roots)
    assert_clean(value)
    others = [r for r in dict.fromkeys(roots) if r != target]
    den = F(1)
    for l in others:
        den *= target - l
    p = idempotent_from_spectrum(op, target, others)
    assert p == _reference_product(op, others).scale(1 / den)
    assert_clean(p)
    assert_clean(op - Matrix.identity(op.rows).scale(target))
    # the commutator with the transpose, which op need not commute with
    transpose = Matrix(op.cols, op.rows, {(c, r): v for (r, c), v in op.entries.items()})
    bracket = commutator(op, transpose)
    assert bracket == op @ transpose - transpose @ op
    assert_clean(bracket)
    assert commutator(op, value).is_zero()


@settings(max_examples=60, deadline=None)
@given(square_rational_matrix())
def test_charpoly_satisfies_cayley_hamilton(m):
    # sum_k c_k m^(n-k) = 0, and c_1 = -trace
    coeffs = charpoly(m)
    assert len(coeffs) == m.rows + 1 and coeffs[0] == 1
    total, power = Matrix.zeros(m.rows, m.rows), Matrix.identity(m.rows)
    for c in reversed(coeffs):
        total = total + power.scale(c)
        power = power @ m
    assert total.is_zero()
    if m.rows:
        assert coeffs[1] == -sum(m.entries.get((i, i), 0) for i in range(m.rows))


@settings(max_examples=60, deadline=None)
@given(matmul_triple(), st.data())
def test_apply_matches_the_dense_product(mats, data):
    a = mats[0]
    entry = st.one_of(st.just(0), st.integers(-5, 5), mixed_frac)
    vec = data.draw(st.lists(entry, min_size=a.cols, max_size=a.cols))
    dense = [sum(x * y for x, y in zip(row, vec)) for row in to_dense(a)]
    image = a.apply(dict(enumerate(vec)))
    assert image == {r: v for r, v in enumerate(dense) if v}
    assert all(type(v) is int or (type(v) is F and v.denominator > 1) for v in image.values())


@pytest.mark.parametrize("n,dynkin,b", [(2, (2,), F(1, 2)), (3, (1, 1), F(1, 3)), (3, (2, 0), F(-2))])
def test_weight_blocks_store_the_canonical_form(n, dynkin, b):
    from projrep.charident import sigma2_tilde, weight_blocks
    from projrep.glmodules import cached_module

    V = cached_module(n, dynkin, b)
    assert_clean(sigma2_tilde(V))
    for dual in (False, True):
        for m, _ in weight_blocks(V, dual):
            assert_clean(m)
            assert_clean(m - Matrix.identity(m.rows).scale(b))
