import itertools
import random
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from projrep.charident import (
    OPERATORS,
    SpectrumReport,
    adjoint_matrices,
    block_report,
    brute_force_spectrum,
    check_characteristic_identity,
    full_operator,
    identity_on_blocks,
    predicted_adjoint_roots,
    predicted_sigma2_roots,
    projector_rank,
    sigma2_tilde,
    tensor_projector,
    weight_blocks,
)
from projrep.errors import ConsistencyViolationError
from projrep.glmodules import (
    DominantLabels,
    build_irreducible,
    cached_module,
    clear_caches,
    dominant_weight_spaces,
    is_dominant,
    orbit_size,
    weight_from_labels,
)
from projrep.linalg import DegenerateSpectrumError, Matrix, rank
from projrep.selfcheck import (
    check_adjoint_identities,
    check_projector_equivariance,
    check_projector_suite,
    check_sigma2_identity,
    check_spectrum_oracle,
    eligible_indices,
    run_selfcheck,
)

SWEEP = [
    (1, (), F(0)), (1, (), F(2)), (1, (), F(1, 2)),
    (2, (0,), F(0)), (2, (0,), F(-2)), (2, (1,), F(1)), (2, (1,), F(1, 2)),
    (2, (2,), F(-1)),
    (3, (0, 0), F(0)), (3, (1, 0), F(1)), (3, (0, 1), F(-2)), (3, (1, 1), F(1, 2)),
    (3, (2, 2), F(2)),
]


def test_sigma2_trivial_is_zero():
    T = cached_module(2, (0,), F(0))
    s = sigma2_tilde(T)
    assert s.is_zero() and s.rows == 2


def test_sigma2_vector_rep_trace_and_entries():
    V = cached_module(2, (1,), F(1))
    s = sigma2_tilde(V)
    assert sum(v for (r, c), v in s.entries.items() if r == c) == 6
    # frozen from the hand computation of the degree-one chains
    assert s == Matrix(4, 4, {(0, 0): 2, (1, 1): 1, (1, 2): 1, (2, 1): 1, (2, 2): 1, (3, 3): 2})


def test_sigma2_trivial_higher_rank_scalar():
    # E_ii acts by t/3 on the trivial module, so every diagonal block is 4t/3
    for t in (F(5), F(-1), F(2, 3)):
        T = cached_module(3, (0, 0), t)
        assert sigma2_tilde(T) == Matrix.identity(3).scale(F(4, 3) * t)


def test_predicted_sigma2_roots_examples():
    assert predicted_sigma2_roots(weight_from_labels(DominantLabels(2, (1,), F(1)))) == [2, 0]
    assert predicted_sigma2_roots((F(0), F(0))) == [0, -1]
    # trivial weight with central scalar t: roots t/3 + t - i + 1
    for t in (F(0), F(3), F(1, 2)):
        mu = weight_from_labels(DominantLabels(3, (0, 0), t))
        assert predicted_sigma2_roots(mu) == [t / 3 + t - i for i in range(3)]
    assert predicted_sigma2_roots(weight_from_labels(DominantLabels(3, (0, 0), F(0)))) == [0, -1, -2]


def test_check_identity_examples():
    T = cached_module(2, (0,), F(0))
    rep = check_characteristic_identity(sigma2_tilde(T), [0, -1])
    assert rep.residual_is_zero and rep.multiplicities == (2, 0)
    V = cached_module(2, (1,), F(1))
    rep_v = check_characteristic_identity(sigma2_tilde(V), [2, 0])
    assert rep_v.residual_is_zero and rep_v.multiplicities == (3, 1)
    # feeding the full brute-force spectrum always annihilates
    spectrum, complete = brute_force_spectrum(sigma2_tilde(V))
    assert complete
    rep_full = check_characteristic_identity(sigma2_tilde(V), sorted(spectrum))
    assert rep_full.residual_is_zero


def test_adjoint_examples():
    T = cached_module(2, (0,), F(0))
    m = adjoint_matrices(T, dual=True)
    assert m.is_zero() and adjoint_matrices(T, dual=False).is_zero()
    d, dt = predicted_adjoint_roots((F(0), F(0)))
    assert d == [1, 0] and dt == [0, 1]
    assert check_characteristic_identity(m, d).residual_is_zero

    V = cached_module(2, (1,), F(1))
    d, dt = predicted_adjoint_roots(V.highest_weight)
    assert d == [2, 0] and dt == [-1, 1]

    d3, _ = predicted_adjoint_roots((F(0), F(0), F(0)))
    assert d3 == [2, 1, 0]


def test_adjoint_block_transpose_relation():
    V = cached_module(3, (1, 1), F(1, 2))
    m, mt = adjoint_matrices(V, dual=True), adjoint_matrices(V, dual=False)
    n, dv = V.n, V.dim

    def block(op, i, j):
        return Matrix(dv, dv, {
            (r - i * dv, c - j * dv): v for (r, c), v in op.entries.items()
            if r // dv == i and c // dv == j
        })

    for i in range(n):
        for j in range(n):
            assert block(mt, i, j) == -block(m, j, i)


def test_projector_examples():
    V = cached_module(2, (1,), F(1))
    p1 = tensor_projector(V, 1, dual=False)
    p2 = tensor_projector(V, 2, dual=False)
    assert rank(p1) == 3 and p1 @ p1 == p1
    assert rank(p2) == 1 and p2 @ p2 == p2
    assert (p1 @ p2).is_zero()
    assert p1 + p2 == Matrix.identity(4)
    for n, b in [(2, F(3)), (3, F(1, 2)), (4, F(-2))]:
        T = cached_module(n, (0,) * (n - 1), b)
        assert tensor_projector(T, 1, dual=False) == Matrix.identity(n)


def test_projector_absent_summand_is_zero():
    # trivial module: only the first shift survives, the others vanish
    T = cached_module(3, (0, 0), F(1))
    for r in (2, 3):
        assert tensor_projector(T, r, dual=False).is_zero()


def test_projector_r_out_of_range():
    V = cached_module(2, (1,), F(1))
    with pytest.raises(ValueError):
        tensor_projector(V, 3, dual=False)


@pytest.mark.parametrize("n,dynkin,b", SWEEP)
def test_sigma2_identity_sweep(n, dynkin, b):
    ok, detail = check_sigma2_identity(cached_module(n, dynkin, b))
    assert ok, detail


@pytest.mark.parametrize("n,dynkin,b", SWEEP)
def test_adjoint_identities_sweep(n, dynkin, b):
    ok, detail = check_adjoint_identities(cached_module(n, dynkin, b))
    assert ok, detail


@pytest.mark.parametrize("n,dynkin,b", SWEEP)
def test_projector_suite_sweep(n, dynkin, b):
    ok, detail = check_projector_suite(cached_module(n, dynkin, b))
    assert ok, detail


@pytest.mark.parametrize("n,dynkin,b", [
    (2, (1,), F(1)), (2, (2,), F(1, 2)), (3, (1, 0), F(-1)), (3, (1, 1), F(2)),
])
def test_projector_equivariance(n, dynkin, b):
    ok, detail = check_projector_equivariance(cached_module(n, dynkin, b))
    assert ok, detail


def test_identity_on_larger_rank_module():
    # one point beyond the standard sweep: n=4 with a three-step flag module
    V = cached_module(4, (1, 1, 1), F(-3, 2))
    assert V.dim == 64
    ok, detail = check_sigma2_identity(V)
    assert ok, detail
    ok, detail = check_adjoint_identities(V)
    assert ok, detail


def test_identity_and_projectors_rank4_rational_scalar():
    V = cached_module(4, (1, 0, 1), F(1, 2))
    assert V.dim == 15
    ok, detail = check_sigma2_identity(V)
    assert ok, detail
    ok, detail = check_projector_suite(V)
    assert ok, detail


@pytest.mark.parametrize("n,dynkin,b", [
    (2, (0,), F(0)), (2, (1,), F(1)), (2, (2,), F(-1)),
    (3, (1, 0), F(1, 2)), (3, (1, 1), F(1)),
])
def test_spectrum_oracle_confirms_closed_forms(n, dynkin, b):
    """The rational-root oracle finds exactly the predicted roots."""
    V = cached_module(n, dynkin, b)
    mu = V.highest_weight
    spectrum, complete = brute_force_spectrum(sigma2_tilde(V))
    assert complete
    predicted = predicted_sigma2_roots(mu)
    i1 = eligible_indices(mu, 1)
    expected = {predicted[i - 1] for i in i1}
    realized = set(spectrum)
    assert realized <= set(predicted)
    # every realized root is one of the predicted ones at an eligible index
    assert realized <= expected
    d, _ = predicted_adjoint_roots(mu)
    spec_m, complete_m = brute_force_spectrum(adjoint_matrices(V, dual=True))
    assert complete_m and set(spec_m) <= set(d)


def test_spectrum_oracle_catches_a_shifted_predicted_root(monkeypatch):
    import projrep.charident as charident_mod

    V = cached_module(3, (1, 0), F(1, 2))
    assert check_spectrum_oracle(V)[0]
    original = charident_mod.predicted_sigma2_roots

    def shifted(mu):
        roots = original(mu)
        return [roots[0] + F(1, 3)] + roots[1:]

    monkeypatch.setattr(charident_mod, "predicted_sigma2_roots", shifted)
    # the block report is memoized per module: V keeps the one it has
    with pytest.raises(ConsistencyViolationError, match="^sigma2: "):
        check_spectrum_oracle(build_irreducible(V.labels))
    clear_caches()
    records = [r for r in run_selfcheck(n_max=1) if r.check == "spectrum-oracle"]
    assert records and not any(r.ok for r in records)
    assert all(r.detail.startswith("consistency violation: sigma2: ") for r in records)


# criterion 1's grid, then larger ranks at an integral, a half-integral and a
# negative central scalar
BLOCK_ORACLE_POINTS = [
    (n, dynkin, b)
    for n in (1, 2, 3)
    for dynkin in itertools.product(range(3), repeat=n - 1)
    for b in (F(-2), F(-1), F(0), F(1), F(2), F(1, 2))
] + [
    (n, dynkin, b)
    for n, dynkin in ((4, (1, 0, 1)), (4, (1, 1, 1)), (4, (0, 2, 0)), (5, (1, 0, 0, 1)), (5, (0, 1, 1, 0)),
                      (3, (4, 4)), (4, (2, 0, 2)))
    for b in (F(0), F(1, 2), F(-2))
]


def _grid_of(V, name):
    """(dual, sign, shift) of the block operator `name` = sign * G + shift * Id,
    G the generator grid E_{i,j} on the dual, else E_{j,i}."""
    return {"sigma2": (False, 1, V.b), "adjoint": (True, 1, 0), "adjoint_dual": (False, -1, 0)}[name]


@pytest.mark.parametrize("n,dynkin,b", BLOCK_ORACLE_POINTS)
def test_block_path_matches_full_matrix_oracle(n, dynkin, b):
    """Residual flags, multiplicities and projector ranks read off the
    dominant weight blocks equal the all-columns computation."""
    V = cached_module(n, dynkin, b)
    for name in OPERATORS:
        op = full_operator(V, name)
        report = block_report(V, name)
        assert report == check_characteristic_identity(op, report.roots)
        # a wrong root set: a root that is not realized can move without
        # breaking the identity; otherwise the blocks refuse it
        roots = report.roots
        wrong = [roots[0] + 1] + list(roots[1:])
        oracle = check_characteristic_identity(op, wrong)
        dual, sign, shift = _grid_of(V, name)
        blocks = weight_blocks(V, dual)
        on_grid = [(r - shift) / sign for r in wrong]
        if len(set(wrong)) < len(wrong):
            # only d~ steps up, by the first label plus one
            assert name == "adjoint_dual" and dynkin[0] == 0
            with pytest.raises(DegenerateSpectrumError):
                identity_on_blocks(blocks, on_grid)
        elif oracle.residual_is_zero:
            assert identity_on_blocks(blocks, on_grid) == SpectrumReport(
                tuple(on_grid), True, oracle.multiplicities)
        else:
            with pytest.raises(ConsistencyViolationError):
                identity_on_blocks(blocks, on_grid)
    for dual in (False, True):
        for r in range(1, n + 1):
            assert projector_rank(V, r, dual) == rank(tensor_projector(V, r, dual))


@st.composite
def dominant_labels(draw):
    n = draw(st.integers(1, 6))
    dynkin = draw(st.lists(st.integers(0, 5), min_size=n - 1, max_size=n - 1))
    b = draw(st.fractions(min_value=-10, max_value=10, max_denominator=6))
    return DominantLabels(n, tuple(dynkin), b)


@settings(max_examples=100, deadline=None)
@given(dominant_labels())
def test_predicted_roots_step_by_a_label_plus_one(labels):
    """Consecutive predicted roots differ by a Dynkin label plus one: the
    sigma2 roots and d strictly decrease, d~ strictly increases, and no root
    list repeats a root, so `identity_on_blocks` never meets one that does."""
    mu = weight_from_labels(labels)
    d, dt = predicted_adjoint_roots(mu)
    steps = [a + 1 for a in labels.dynkin]
    for roots, direction in ((predicted_sigma2_roots(mu), -1), (d, -1), (dt, 1)):
        assert [direction * (y - x) for x, y in zip(roots, roots[1:])] == steps
    # sigma2 = b * Id - adjoint_dual on one grid, and their roots agree
    m = predicted_sigma2_roots(mu)
    assert all(m[i] - labels.b == -dt[i] == mu[i] - i for i in range(labels.n))


def test_blocks_are_the_dominant_weight_spaces():
    """The blocks of n = 4, labels 1,1,1 are the dominant weight spaces of
    C^n (x) V and of its dual: one block per dominant weight, of that
    weight's multiplicity, together covering fewer than n*dim indices."""
    V = cached_module(4, (1, 1, 1), F(0))
    n, dim = V.n, V.dim
    for name in OPERATORS:
        dual, scale, shift = _grid_of(V, name)
        blocks, op = weight_blocks(V, dual), full_operator(V, name)
        sign = -1 if dual else 1
        # each block, cut from the generators, makes the full operator
        # restricted to the positions of its weight
        shifts = [tuple(sign * (t == i) for t in range(n)) for i in range(n)]
        entries = op.entries
        for (b, _), indices in zip(blocks, dominant_weight_spaces(V, shifts).values()):
            restricted = {(s, t): entries.get((g, h), 0)
                          for s, g in enumerate(indices) for t, h in enumerate(indices)}
            assert (b.scale(scale) + Matrix.identity(b.rows).scale(shift)
                    == Matrix(len(indices), len(indices), restricted))
        mult = Counter(
            tuple(x + sign * (t == i) for t, x in enumerate(w))
            for w in V.basis_weights for i in range(n)
        )
        dominant = sorted((k, orbit_size(w)) for w, k in mult.items() if is_dominant(w))
        assert sorted((b.rows, size) for b, size in blocks) == dominant
        assert all(b.rows == b.cols for b, _ in blocks)
        assert sum(b.rows for b, _ in blocks) < n * dim
        assert sum(b.rows * size for b, size in blocks) == n * dim


# -- the trace solver on its own ------------------------------------------------


def _conjugated_diagonal(rng, diagonal):
    """S D S^-1 for D = diag(diagonal) and a random unimodular integer S,
    built from elementary similarities: row i += c * row j, then column
    j -= c * column i."""
    size = len(diagonal)
    dense = [[diagonal[i] if i == j else 0 for j in range(size)] for i in range(size)]
    for _ in range(3 * size):
        i, j = rng.sample(range(size), 2)
        c = rng.choice([-2, -1, 1, 2])
        dense[i] = [x + c * y for x, y in zip(dense[i], dense[j])]
        for row in dense:
            row[j] -= c * row[i]
    return Matrix(size, size, {(r, k): v for r, row in enumerate(dense) for k, v in enumerate(row) if v})


def _counting_ranks(monkeypatch):
    """A list that receives one entry per rank taken in charident."""
    import projrep.charident as charident_mod

    calls = []
    real = charident_mod.rank

    def counting(m):
        calls.append(m.rows)
        return real(m)

    monkeypatch.setattr(charident_mod, "rank", counting)
    return calls


@pytest.mark.parametrize("seed", range(12))
def test_trace_multiplicities_equal_rank_multiplicities(seed, monkeypatch):
    """On a diagonalizable S D S^-1 with prescribed distinct roots, some of
    them absent from D, the trace multiplicities take no rank and equal the
    eigenspace dimensions that the rank oracle measures."""
    rng = random.Random(seed)
    roots = rng.sample([F(-3), F(-1), F(0), F(1, 2), F(2), F(5, 3), F(4)], rng.randint(1, 5))
    present = rng.sample(roots, rng.randint(1, len(roots)))
    diagonal = [rng.choice(present) for _ in range(rng.randint(2, 7))]
    op = _conjugated_diagonal(rng, diagonal)
    calls = _counting_ranks(monkeypatch)
    report = identity_on_blocks([(op, 3)], roots)
    assert calls == []
    assert report.residual_is_zero
    assert report.multiplicities == tuple(3 * diagonal.count(r) for r in roots)
    monkeypatch.undo()
    oracle = check_characteristic_identity(op, roots)
    assert report == SpectrumReport(oracle.roots, True, tuple(3 * m for m in oracle.multiplicities))


REFUSALS = {
    "jordan block": ConsistencyViolationError,
    "repeated root": DegenerateSpectrumError,
    "shifted root": ConsistencyViolationError,
}


@pytest.mark.parametrize("case", list(REFUSALS))
def test_trace_solver_refuses_what_traces_cannot_decide(case, monkeypatch):
    """Where the traces cannot decide, a nonzero residual or a repeated root,
    the blocks are refused, and no rank measures them instead."""
    rng = random.Random(case)
    roots = [F(2), F(-1), F(1, 2)]
    if case == "jordan block":
        dense = {(0, 0): 2, (0, 1): 1, (1, 1): 2, (2, 2): -1, (3, 3): F(1, 2)}
        op = Matrix(4, 4, dense)
    else:
        op = _conjugated_diagonal(rng, [F(2), F(2), F(-1), F(1, 2), F(1, 2)])
        if case == "repeated root":
            roots = [F(2), F(-1), F(1, 2), F(2)]
        else:
            roots = [F(3), F(-1), F(1, 2)]
    calls = _counting_ranks(monkeypatch)
    with pytest.raises(REFUSALS[case]):
        identity_on_blocks([(op, 1)], roots)
    assert calls == []
