import copy
import itertools
import math
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from conftest import cached_module
import projrep.action as action
import projrep.irreducibility as irreducibility
from projrep.action import (
    derivative_op,
    graded_basis,
    graded_dimension,
    monomials_of_degree,
    operator_matrix,
    pseudo_translation_op,
    weight_space,
)
from projrep.cli import main
from projrep.errors import ConsistencyViolationError, MultiplicityAnomalyError
from projrep.glmodules import (
    DominantLabels,
    GlModule,
    build_irreducible,
    pieri_index_set,
    weight_add,
    weight_from_labels,
    weyl_dimension,
)
from projrep.irreducibility import (
    _central_character,
    _chain_vector,
    criterion,
    criterion_equivalence_check,
    first_rank_deficiency,
    jordan_holder,
    q_coefficient,
    q_coefficient_bruteforce,
    residual_summands,
    up_submodule_matrix,
    up_submodule_rank,
)
from projrep.linalg import EchelonSpan, Matrix, block, kernel_basis, rank
from projrep.selfcheck import (
    _casimir,
    check_casimir,
    check_chain_oracle,
    check_derivative_escape,
    check_intertwiner,
    check_jordan_holder,
    check_submodule_invariance,
)


def mu_of(n, dynkin, b):
    return weight_from_labels(DominantLabels(n, dynkin, b))


def top_weight_space(V, c):
    """The degree-|c| weight space of mu + c, which holds the maximal vector
    of the Pieri summand V(mu + c)."""
    return weight_space(V, weight_add(V.lattice_weights[V.highest_index], c))


def test_q_closed_form_examples():
    assert q_coefficient((F(1), F(0)), (0, 0)) == 1
    assert q_coefficient((F(1), F(0)), (0, 1)) == 0
    assert q_coefficient((F(1), F(0)), (1, 0)) == 2
    with pytest.raises(ValueError):
        q_coefficient((F(1), F(0)), (0, 2))  # violates the gap constraint


def test_residual_summands_builds_the_index_set_once(monkeypatch):
    """q_coefficient checks its shift from the definition, so one degree of
    residual_summands enumerates pieri_index_set once, not once per shift."""
    calls = []
    original = irreducibility.pieri_index_set

    def counting(mu, j):
        calls.append(j)
        return original(mu, j)

    monkeypatch.setattr(irreducibility, "pieri_index_set", counting)
    mu = mu_of(4, (2, 1, 2), F(-3))
    for j in range(5):
        calls.clear()
        residual_summands(mu, j)
        assert len(calls) <= 1, (j, calls)


# n <= 4, labels <= 2, reducible and irreducible values of b
RESIDUAL_SWEEP = [
    (n, dynkin, b)
    for n in range(1, 5)
    for dynkin in itertools.product(range(3), repeat=n - 1)
    for b in [F(-5), F(-3), F(-2), F(-1), F(0), F(2), F(1, 2), F(-3, 2)]
]


def _product_q(mu, c):
    """prod_{s=1..n} prod_{i=1..c_s} (mu_s + |mu| - s + i), factor by factor."""
    q = F(1)
    for s, (x, cs) in enumerate(zip(mu, c), 1):
        for i in range(1, cs + 1):
            q *= x + sum(mu) - s + i
    return q


def test_residual_summands_are_the_zero_products():
    found = 0
    for point in RESIDUAL_SWEEP:
        mu = mu_of(*point)
        for j in range(6):
            expected = tuple(c for c in pieri_index_set(mu, j) if _product_q(mu, c) == 0)
            assert residual_summands(mu, j) == expected, (point, j)
            found += len(expected)
    assert found


def test_residual_summands_form_no_product(monkeypatch):
    # the vanishing is read off the factors, so a degree in the thousands
    # costs no product of thousands of factors
    def forbidden(*args):
        raise AssertionError("residual_summands must not form q_c")

    monkeypatch.setattr(irreducibility, "q_coefficient", forbidden)
    assert residual_summands(mu_of(2, (1,), F(-1)), 3) == ((3, 0), (2, 1))
    assert residual_summands(mu_of(1, (), F(-2000)), 4000) == ()
    assert residual_summands(mu_of(1, (), F(-2000)), 4001) == ((4001,),)


def test_admissibility_is_the_index_set():
    mu = mu_of(3, (1, 2), F(1, 2))
    for j in range(4):
        members = set(pieri_index_set(mu, j))
        for c in itertools.product(range(-1, j + 1), repeat=3):
            if sum(c) != j:
                continue
            if c in members:
                q_coefficient(mu, c)
            else:
                with pytest.raises(ValueError):
                    q_coefficient(mu, c)
    with pytest.raises(ValueError):
        q_coefficient(mu, (1, 0))


def test_q_bruteforce_examples():
    V = cached_module(2, (1,), F(1))
    assert q_coefficient_bruteforce(V, (0, 0)) == 1
    assert q_coefficient_bruteforce(V, (0, 1)) == 0
    assert q_coefficient_bruteforce(V, (1, 0)) == 2
    T = cached_module(2, (0,), F(0))
    assert q_coefficient_bruteforce(T, (1, 0)) == 0


@pytest.mark.parametrize("n,dynkin,b", [
    (1, (), F(-2)),
    (2, (1,), F(1)),
    (2, (2,), F(1, 2)),
    (3, (1, 0), F(-1)),
    (3, (0, 2), F(0)),
])
def test_q_closed_form_matches_oracle(n, dynkin, b):
    V = cached_module(n, dynkin, b)
    mu = V.highest_weight
    from projrep.glmodules import pieri_index_set

    for j in range(4):
        for c in pieri_index_set(mu, j):
            assert q_coefficient(mu, c) == q_coefficient_bruteforce(V, c), c


def test_q_coefficient_recursion():
    # peeling one unit off coordinate s multiplies by (mu_s + |mu| - s + c_s)
    from projrep.glmodules import pieri_index_set

    for point in [(2, (1,), F(1, 2)), (3, (2, 1), F(-1)), (3, (0, 2), F(2))]:
        mu = mu_of(*point)
        tot = sum(mu)
        for j in range(1, 5):
            for c in pieri_index_set(mu, j):
                for s in range(len(c)):
                    if c[s] == 0:
                        continue
                    prev = c[:s] + (c[s] - 1,) + c[s + 1:]
                    factor = mu[s] + tot - (s + 1) + c[s]
                    assert q_coefficient(mu, c) == factor * q_coefficient(mu, prev)


def test_maximal_vector_normalization(monkeypatch):
    # the maximal vector is a primitive integer vector with a nonzero
    # coordinate at x^c (x) v_top; the ratio read there is q_c, and a
    # maximal vector without that coordinate is refused
    V = build_irreducible(DominantLabels(2, (1,), F(1)))
    c = (1, 0)
    xi = irreducibility._maximal_coordinates(V, c, top_weight_space(V, c))
    lead = graded_basis(V, 1)[c] + V.highest_index
    assert xi.get(lead) and math.gcd(*xi.values()) == 1
    assert irreducibility._chain_ratio(V, c) == q_coefficient_bruteforce(V, c) == 2
    original = irreducibility._maximal_coordinates
    monkeypatch.setattr(
        irreducibility, "_maximal_coordinates",
        lambda W, d, support: {p: x for p, x in original(W, d, support).items() if p != lead},
    )
    W = build_irreducible(DominantLabels(2, (1,), F(1)))
    with pytest.raises(ConsistencyViolationError, match="leading coordinate"):
        q_coefficient_bruteforce(W, c)


def test_bruteforce_q_rejects_an_image_not_proportional_to_the_maximal_vector(monkeypatch):
    # the first p-step of x^c (x) v_top, the maximal vector's lead, gains an
    # entry off the maximal vector's weight space, so the image leaves its
    # span; the chain ranks read the same ratio and refuse it too
    V = build_irreducible(DominantLabels(2, (1,), F(1)))
    c = (1, 0)
    assert q_coefficient_bruteforce(V, c) == q_coefficient(V.highest_weight, c)
    xi = irreducibility._maximal_coordinates(V, c, top_weight_space(V, c))
    off = next(pos for pos in range(graded_dimension(V, 1)) if pos not in xi)
    original = irreducibility.p_step

    def perturbed(W, i, k, vec):
        L, image = original(W, i, k, vec)
        if (i, k) != (0, 0) or W.highest_index not in vec:
            return L, image
        return L, {**image, off: image.get(off, 0) + 1}

    monkeypatch.setattr(irreducibility, "p_step", perturbed)
    V = build_irreducible(DominantLabels(2, (1,), F(1)))
    with pytest.raises(ConsistencyViolationError, match="not proportional"):
        q_coefficient_bruteforce(V, c)
    with pytest.raises(ConsistencyViolationError, match="not proportional"):
        up_submodule_rank(V, 1)


def test_analyze_refuses_a_corrupted_chain_vector_on_an_irreducible_module(capsys, monkeypatch):
    # n = 2, label 1, b = 1/2 is irreducible, so every chain span fills its
    # degree; a second p_1 step with one extra entry, as in the chain of
    # x_1^2 (x) v_0, leaves the span as it is, but the chain image of the
    # maximal vector for (2, 0) is no longer proportional to it
    original = irreducibility.p_step

    def corrupted(W, i, k, vec):
        L, image = original(W, i, k, vec)
        if (i, k) != (0, 1):
            return L, image
        extra = next(r for r in itertools.count() if r not in image)
        return L, {**image, extra: 1}

    monkeypatch.setattr(irreducibility, "p_step", corrupted)
    assert main(["analyze", "-n", "2", "-a", "1", "-b", "1/2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "not proportional" in err


def test_one_vector_weight_space_needs_no_elimination(monkeypatch):
    """A top weight space of one vector holds the maximal vector exactly
    when the vector's raiser column vanishes: no kernel is eliminated, and
    a column that does not vanish leaves a space of dimension 0, as the
    kernel would."""
    from projrep.linalg import integer_kernel

    V = build_irreducible(DominantLabels(4, (2, 0, 0), F(0)))
    top = V.lattice_weights[V.highest_index]
    singles = [
        c for k in range(5) for c in pieri_index_set(top, k) if len(top_weight_space(V, c)) == 1
    ]
    assert (4, 0, 0, 0) in singles

    def forbidden(*args):
        raise AssertionError("a one-vector weight space went through integer_kernel")

    monkeypatch.setattr(irreducibility, "integer_kernel", forbidden)
    for c in singles:
        support = top_weight_space(V, c)
        assert irreducibility._maximal_coordinates(V, c, support) == {support[0][0]: 1}, c
    original = irreducibility.gl_restriction

    def raised(W, pairs, support):
        den, columns = original(W, pairs, support)
        return den, [{**col, 0: col.get(0, 0) + 1} for col in columns]

    monkeypatch.setattr(irreducibility, "gl_restriction", raised)
    c = singles[-1]
    with pytest.raises(MultiplicityAnomalyError, match=f"for shift {re.escape(str(c))} has dimension 0"):
        irreducibility._maximal_coordinates(V, c, top_weight_space(V, c))
    assert integer_kernel([{0: 1}], graded_dimension(V, sum(c))) == []


@pytest.mark.parametrize("point", [(2, (1,), F(1, 2)), (3, (1, 1), F(1, 2))])
def test_criterion_suite_catches_maximal_vectors_without_the_x_move(monkeypatch, point):
    """With the x-move x_a d_(a+1) dropped from the raisers, the kernel is not
    the maximal vector; on these irreducible modules every span fills its
    degree, yet the criterion suite must still fail."""
    import inspect

    from projrep.selfcheck import check_criterion_vs_bruteforce

    source = inspect.getsource(action.gl_restriction)
    assert source.count("if m[b]:") == 1
    namespace = dict(vars(action))
    exec(source.replace("if m[b]:", "if False:"), namespace)
    monkeypatch.setattr(irreducibility, "gl_restriction", namespace["gl_restriction"])
    V = build_irreducible(DominantLabels(*point))
    with pytest.raises(ConsistencyViolationError, match="not proportional"):
        check_criterion_vs_bruteforce(V)


def test_up_submodule_rank_examples():
    V = cached_module(2, (1,), F(1))
    T = cached_module(2, (0,), F(0))
    assert up_submodule_rank(V, 0) == V.dim
    assert up_submodule_rank(T, 1) == 0
    assert up_submodule_rank(V, 1) == 3


def test_up_submodule_matrix_is_square_and_ordered():
    V = cached_module(2, (1,), F(1))
    m1 = up_submodule_matrix(V, 1)
    assert m1.rows == m1.cols == 4
    # frozen degree-one chain columns for the vector module with b = 1
    assert m1 == Matrix(4, 4, {(0, 0): 2, (1, 1): 1, (1, 2): 1, (2, 1): 1, (2, 2): 1, (3, 3): 2})


@pytest.mark.parametrize("n,dynkin,b,k", [
    (2, (1,), F(1), 2),
    (2, (2,), F(-1), 3),
    (3, (1, 0), F(1, 2), 2),
])
def test_blocked_rank_matches_direct_rank(n, dynkin, b, k):
    V = cached_module(n, dynkin, b)
    assert up_submodule_rank(V, k) == rank(up_submodule_matrix(V, k))


def all_weights_rank(V, k):
    """Chain rank with every weight space eliminated: one EchelonSpan per
    weight, no use of the S_n symmetry."""
    spans = {}
    for c in monomials_of_degree(V.n, k):
        for q in range(V.dim):
            vec = _chain_vector(V, c, q)[1]
            if vec:
                w = weight_add(V.basis_weights[q], c)
                spans.setdefault(w, EchelonSpan()).insert(vec)
    return sum(span.dim for span in spans.values())


# n <= 4 and Dynkin labels <= 2, leaving out the modules above dimension 150
# (a few seconds each to build)
SMALL_LABELS = [
    (n, dynkin)
    for n in range(1, 5)
    for dynkin in itertools.product(range(3), repeat=n - 1)
    if weyl_dimension(weight_from_labels(DominantLabels(n, dynkin, F(0)))) <= 150
]


@st.composite
def chain_rank_case(draw):
    n, dynkin = draw(st.sampled_from(SMALL_LABELS))
    b = draw(st.sampled_from([F(-2), F(-1), F(0), F(1), F(2), F(1, 2), F(-3, 2)]))
    V = cached_module(n, dynkin, b)
    # degree <= 3, as far as the degree-k piece has at most 1,500 dimensions
    top = max(k for k in range(4) if k == 0 or graded_dimension(V, k) <= 1500)
    return V, draw(st.integers(0, top))


@settings(max_examples=40, deadline=None)
@given(chain_rank_case())
def test_dominant_chain_rank_matches_all_weights(case):
    V, k = case
    r = up_submodule_rank(V, k)
    assert r == all_weights_rank(V, k)
    if graded_dimension(V, k) <= 200:
        assert r == rank(up_submodule_matrix(V, k))


# modules with their degree caps: n = 3, labels 1,0, b = -2 and n = 2,
# label 1, b = -1 are reducible with finite chain spans, so their top
# weight spaces go unfilled and the maximal vectors decide; the other two
# are irreducible
TOP_WEIGHT_MODULES = [
    ((3, (1, 0), F(-2)), 5),
    ((3, (2, 1), F(-3)), 5),
    ((2, (1,), F(-1)), 6),
    ((3, (2, 2), F(1, 2)), 4),
]


@pytest.mark.parametrize("point,top", TOP_WEIGHT_MODULES)
def test_top_weight_chain_rank_matches_all_weights(point, top):
    V = cached_module(*point)
    for k in range(top + 1):
        assert up_submodule_rank(V, k) == all_weights_rank(V, k), (point, k)


def test_criterion_suite_compares_the_chain_ranks_with_the_oracle(monkeypatch):
    import projrep.selfcheck as selfcheck

    V = cached_module(2, (1,), F(-1))
    assert selfcheck.check_criterion_vs_bruteforce(V) == (True, "first deficiency 2, witness 2")
    monkeypatch.setattr(
        selfcheck, "_all_dominant_rank", lambda V, k: up_submodule_rank(V, k) + (k == 3)
    )
    assert selfcheck.check_criterion_vs_bruteforce(V) == (
        False, "degree 3: chain rank 0, all dominant weights 1"
    )


def _count_maximal_vectors(monkeypatch, calls):
    """Append the shift c of every maximal vector the chain ranks build to
    `calls` until monkeypatch.undo()."""
    original = irreducibility._maximal_coordinates

    def counting(V, c, support):
        calls.append(c)
        return original(V, c, support)

    monkeypatch.setattr(irreducibility, "_maximal_coordinates", counting)


@pytest.mark.parametrize("point,k,c", [
    ((2, (1,), F(-1)), 1, (0, 1)),
    ((3, (1, 0), F(-2)), 2, (1, 1, 0)),
])
def test_chain_rank_sees_a_chain_vector_dropped_from_a_top_weight_space(monkeypatch, point, k, c):
    """With a basis vector in the maximal vector's support dropped from the
    chain image (its degree-0 entry removed before the first p-step), and
    q_c != 0, the chain image of the maximal vector is no longer
    proportional to it, and the rank refuses it."""
    sound = build_irreducible(DominantLabels(*point))
    support = top_weight_space(sound, c)
    pos, m, q = support[-1]
    xi = irreducibility._maximal_coordinates(sound, c, support)
    assert pos in xi
    assert q_coefficient_bruteforce(sound, c) != 0
    # the degree-0 vector that carries x^m's coordinates into the pass
    start = {r: xi[p] for p, mono, r in support if mono == m and p in xi}
    V = build_irreducible(DominantLabels(*point))
    original = irreducibility.p_step

    def dropped(W, i, k, vec):
        if k == 0 and vec == start:
            vec = {r: x for r, x in vec.items() if r != q}
        return original(W, i, k, vec)

    monkeypatch.setattr(irreducibility, "p_step", dropped)
    built = []
    _count_maximal_vectors(monkeypatch, built)
    with pytest.raises(ConsistencyViolationError, match="not proportional"):
        up_submodule_rank(V, k)
    monkeypatch.undo()
    assert c in built


def _summed_chain_ratio(V, c):
    """q_c read off the memoized chain vectors: the maximal vector's
    coordinates times the chain vectors of its basis vectors, summed over
    the lcm of their denominators."""
    support = top_weight_space(V, c)
    xi = irreducibility._maximal_coordinates(V, c, support)
    chains = [(xi[pos], _chain_vector(V, m, q)) for pos, m, q in support if pos in xi]
    den = math.lcm(*(d for _, (d, _) in chains))
    lead = graded_basis(V, sum(c))[c] + V.highest_index
    hat = sum(x * (den // d) * vec.get(lead, 0) for x, (d, vec) in chains)
    return F(hat, den * xi[lead])


# n <= 3 with labels <= 2 and n = 4 with labels <= 1, at the six b of the
# acceptance grid
PASS_ORACLE_POINTS = [
    (n, dynkin, b)
    for n in range(1, 5)
    for dynkin in itertools.product(range(3 if n < 4 else 2), repeat=n - 1)
    for b in (F(-2), F(-1), F(0), F(1), F(2), F(1, 2))
]


def test_merged_pass_matches_the_chain_vectors(monkeypatch):
    """The chain ranks push each maximal vector through one p-step pass and
    build no chain vector; the ratio they read equals the one summed from
    the chain vectors, through degree 4."""
    calls = []
    original = irreducibility._chain_vector

    def counting(*args):
        calls.append(args[1:])
        return original(*args)

    for point in PASS_ORACLE_POINTS:
        V = build_irreducible(DominantLabels(*point))
        monkeypatch.setattr(irreducibility, "_chain_vector", counting)
        for k in range(5):
            up_submodule_rank(V, k)
        monkeypatch.undo()
        assert calls == [], point
        top = V.lattice_weights[V.highest_index]
        for k in range(5):
            for c in pieri_index_set(top, k):
                assert irreducibility._chain_ratio(V, c) == _summed_chain_ratio(V, c), (point, c)


def test_proportionality_check_sees_a_dropped_diagonal_twist(monkeypatch):
    """With E_ii (i > 0) dropped from the twist of p_i, the chain image of
    the maximal vector for (0, 1) on n = 2, label 1, b = 1/2 leaves its
    line, and the rank refuses it."""
    original = action._p_step_table

    def without_diagonal(V, k):
        L, move, starts, twists = original(V, k)
        twists = [[[t for t in col if i == 0 or t[0] != i] for col in twist]
                  for i, twist in enumerate(twists)]
        return L, move, starts, twists

    monkeypatch.setattr(action, "_p_step_table", without_diagonal)
    V = build_irreducible(DominantLabels(2, (1,), F(1, 2)))
    with pytest.raises(ConsistencyViolationError, match=r"for \(0, 1\) is not proportional"):
        up_submodule_rank(V, 1)


def test_chain_vectors_store_integers_as_int():
    # ints over one denominator, in lowest terms
    V = cached_module(4, (1, 1, 1), F(0))
    for c in [(2, 1, 0, 0), (1, 1, 1, 0), (0, 2, 0, 1)]:
        for q in range(V.dim):
            den, vec = _chain_vector(V, c, q)
            assert all(type(v) is int for v in (den, *vec.values())), (c, q)
            assert math.gcd(den, *vec.values()) == 1, (c, q)


def test_chain_rank_reads_dominance_off_integer_weights(monkeypatch):
    # the rank is integer work alone, whatever the chain vectors memoized:
    # weights, Weyl dimensions, the maximal vectors and their chain images,
    # one maximal vector per Pieri shift.  The weights of n = 4, labels
    # 1,1,1, b = 0 lie in -3/2 + Z^4; n = 2, label 1, b = -1 is reducible.
    # The q oracle reads the ratios the rank memoized and builds no more
    from test_linalg import _count_fraction_arithmetic

    for point, k in [((4, (1, 1, 1), F(0)), 3), ((2, (1,), F(-1)), 2)]:
        V = build_irreducible(DominantLabels(*point))
        shifts = list(pieri_index_set(V.highest_weight, k))
        up_submodule_matrix(V, k)
        calls, built = [], []
        _count_fraction_arithmetic(monkeypatch, calls)
        _count_maximal_vectors(monkeypatch, built)
        r = up_submodule_rank(V, k)
        assert calls == [], point
        assert built == shifts, point
        for c in shifts:
            q_coefficient_bruteforce(V, c)
        monkeypatch.undo()
        assert built == shifts, point
        assert r == all_weights_rank(V, k), point


@pytest.mark.parametrize("b", [F(0), F(1, 2)])
def test_elimination_leaves_its_input_vectors_unchanged(monkeypatch, b):
    # the chain matrix holds the memoized chain vectors, and rank and
    # kernel_basis hand its columns to EchelonSpan, which combines vectors
    # in place once it has copied them; the chain ranks read neither, but
    # their maximal vectors hand raiser columns to integer_kernel, which
    # reduces them unscaled, each as a tagged copy
    V = build_irreducible(DominantLabels(3, (1, 1), b))
    m = up_submodule_matrix(V, 3)
    columns, chains = copy.deepcopy(m.columns), copy.deepcopy(V.memo["chain"])
    original, kept = irreducibility.integer_kernel, []

    def watched(cols, rows):
        before = copy.deepcopy(cols)
        relations = original(cols, rows)
        kept.append(cols == before)
        return relations

    monkeypatch.setattr(irreducibility, "integer_kernel", watched)
    r = rank(m)
    kernel = kernel_basis(m)
    assert up_submodule_rank(V, 3) == r == m.cols - len(kernel)
    assert m.columns == columns
    assert V.memo["chain"] == chains
    assert kept and all(kept)


# b = 1/2 at n = 2, 3, 4, and n = 4, labels 1,1,1, b = 0, whose weights lie
# in -3/2 + Z^4
CHAIN_ORACLE_MODULES = [
    (2, (1,), F(1, 2)),
    (3, (1, 1), F(1, 2)),
    (4, (1, 0, 1), F(1, 2)),
    (4, (1, 1, 1), F(0)),
]


@pytest.mark.parametrize("n,dynkin,b", CHAIN_ORACLE_MODULES)
def test_chain_oracle_suite_passes(n, dynkin, b):
    V = build_irreducible(DominantLabels(n, dynkin, b))
    ok, detail = check_chain_oracle(V)
    assert ok, detail


@pytest.mark.parametrize("n,dynkin,b", [m for m in CHAIN_ORACLE_MODULES if m[2] != 0])
def test_chain_oracle_catches_a_step_without_b(monkeypatch, n, dynkin, b):
    """The move coefficient of L * p_i on degree k is L (k + b); with L k in
    its place the chain vectors differ from the p_i matrices' images."""
    original = action._p_step_table

    def without_b(V, k):
        L, _, starts, twists = original(V, k)
        return L, L * k, starts, twists

    monkeypatch.setattr(action, "_p_step_table", without_b)
    # a fresh module instance: chain vectors are memoized per instance
    V = build_irreducible(DominantLabels(n, dynkin, b))
    assert not check_chain_oracle(V)[0]


def test_chain_ranks_assemble_no_operator_matrix(monkeypatch):
    """Chain vectors and maximal vectors are built from the generator
    columns: neither the operator-matrix assembly nor Matrix.apply runs
    under up_submodule_rank, on an irreducible module and on a reducible
    one, each building one maximal vector per Pieri shift."""
    import projrep.action as action_mod

    def forbidden(*args, **kwargs):
        raise AssertionError("chain ranks must not go through operator matrices")

    for point, k in [((3, (1, 1), F(1, 2)), 3), ((2, (1,), F(-1)), 2)]:
        monkeypatch.setattr(action_mod, "_assemble", forbidden)
        monkeypatch.setattr(Matrix, "apply", forbidden)
        built = []
        _count_maximal_vectors(monkeypatch, built)
        V = build_irreducible(DominantLabels(*point))
        r = up_submodule_rank(V, k)
        monkeypatch.undo()
        assert built == list(pieri_index_set(V.highest_weight, k)), point
        assert r == rank(up_submodule_matrix(V, k)), point


def test_criterion_examples():
    w = criterion((F(0), F(0)))
    assert w.reducible and w.failing_pairs == ((1, 1),) and w.first_failure_degree == 1
    w2 = criterion(mu_of(2, (0,), F(1, 2)))
    assert not w2.reducible and w2.first_failure_degree is None
    w3 = criterion((F(1), F(0)))
    assert w3.reducible and w3.failing_pairs == ((2, 1),) and w3.first_failure_degree == 1


def test_criterion_eligibility_filter():
    # candidate s exists at i=2 but the gap is too small: stays irreducible
    mu = mu_of(2, (0,), F(2, 3))  # (1/3, 1/3)
    w = criterion(mu)
    assert not w.reducible


@pytest.mark.parametrize("b", [F(-3), F(-2), F(-1), F(0), F(1), F(2), F(3)])
def test_criterion_equivalence_trivial_family(b):
    assert criterion_equivalence_check(mu_of(2, (0,), b))


def test_criterion_equivalence_sweep():
    for n in (1, 2, 3):
        import itertools

        for dynkin in itertools.product(range(2), repeat=n - 1):
            for b in (F(-2), F(-1), F(0), F(1), F(2), F(1, 2)):
                assert criterion_equivalence_check(mu_of(n, dynkin, b)), (n, dynkin, b)
    assert criterion_equivalence_check(mu_of(2, (2,), F(-1)))


@st.composite
def module_point(draw):
    n = draw(st.integers(1, 3))
    dynkin = tuple(draw(st.lists(st.integers(0, 3), min_size=n - 1, max_size=n - 1)))
    b = draw(st.sampled_from([F(-2), F(-1), F(0), F(1), F(2), F(1, 2), F(-3, 2), F(1, 3)]))
    return n, dynkin, b


@settings(max_examples=50, deadline=None)
@given(module_point())
def test_closed_forms_agree_with_brute_force(point):
    # the closed-form verdict, its inequality form and the first brute-force
    # rank deficiency through degree 4 agree; q_c matches its oracle for |c| <= 2
    V = cached_module(*point)
    mu = V.highest_weight
    first = criterion(mu).first_failure_degree
    assert criterion_equivalence_check(mu)
    assert first_rank_deficiency(V, 4) == (first if first is not None and first <= 4 else None)
    for j in range(3):
        for c in pieri_index_set(mu, j):
            assert q_coefficient(mu, c) == q_coefficient_bruteforce(V, c), c


def test_residual_summands_examples():
    assert residual_summands((F(1), F(0)), 1) == ((0, 1),)
    assert residual_summands((F(0), F(0)), 1) == ((1, 0),)
    mu = mu_of(2, (0,), F(1, 2))
    for j in range(1, 5):
        assert residual_summands(mu, j) == ()


def test_jordan_holder_trivial():
    T = cached_module(2, (0,), F(0))
    jh = jordan_holder(T)
    assert jh.k == 0 and jh.i0 == 1 and jh.corollary_consistent
    assert jh.residual_index == 1 and jh.residual_weight == (1, 0)
    assert jh.finite_dim_flag and jh.finite_dim_highest_labels == (0, 0)
    assert jh.finite_dim_total == 1
    assert jh.submodule_dims_by_degree[:2] == (1, 0)


def test_jordan_holder_vector_rep():
    V = cached_module(2, (1,), F(1))
    jh = jordan_holder(V)
    assert jh.k == 0 and jh.i0 == 2 and jh.corollary_consistent
    assert jh.residual_weight == (1, 1) and not jh.finite_dim_flag
    assert jh.finite_dim_highest_labels is None and jh.finite_dim_total is None


def test_jordan_holder_deep_failure():
    T = cached_module(2, (0,), F(-2))
    jh = jordan_holder(T)
    assert jh.k == 3 and jh.i0 == 1
    assert criterion(T.highest_weight).first_failure_degree == 4
    assert first_rank_deficiency(T, 5) == 4
    assert jh.submodule_dims_by_degree == (1, 2, 3, 4, 0, 0)
    assert jh.finite_dim_total == 10  # graded dims 1+2+3+4


def test_jordan_holder_finite_nontrivial():
    V = cached_module(2, (1,), F(-1))
    jh = jordan_holder(V, degree_cap=4)
    assert jh.k == 1 and jh.i0 == 1
    assert jh.submodule_dims_by_degree == (2, 4, 2, 0, 0)
    assert jh.finite_dim_highest_labels == (1, 1)
    assert jh.finite_dim_total == 8
    ok, detail = check_jordan_holder(V)
    assert ok, detail


def test_jordan_holder_rational_central_scalar():
    # reducible with non-integer b: gap-2 shift at the second coordinate
    V = cached_module(3, (2, 0), F(1, 2))
    assert V.highest_weight == (F(3, 2), F(-1, 2), F(-1, 2))
    w = criterion(V.highest_weight)
    assert w.reducible and w.failing_pairs == ((2, 2),)
    jh = jordan_holder(V)
    assert jh.k == 1 and jh.i0 == 2 and jh.corollary_consistent
    assert jh.residual_index == 2
    assert not jh.finite_dim_flag


def test_jordan_holder_rank_one_corner():
    # n=1: polynomials in one variable, everything 1-dimensional per degree
    V = cached_module(1, (), F(-2))
    w = criterion(V.highest_weight)
    assert w.reducible and w.first_failure_degree == 5
    jh = jordan_holder(V)
    assert jh.k == 4 and jh.i0 == 1 and jh.corollary_consistent
    assert jh.submodule_dims_by_degree == (1, 1, 1, 1, 1, 0, 0)
    assert jh.finite_dim_highest_labels == (4,)
    assert jh.finite_dim_total == 5


def test_derivative_escape_beyond_first_degree():
    # the residual complement keeps escaping under derivatives further up
    V = cached_module(2, (1,), F(1))  # k = 0
    for j in (2, 3):
        mj = up_submodule_matrix(V, j)
        residual = kernel_basis(mj)
        assert residual
        low = up_submodule_matrix(V, j - 1)
        base = rank(low)
        for l in range(V.n):
            dmat = operator_matrix(derivative_op(V.n, l), V, j)
            cols = [dmat.apply({t: v for t, v in enumerate(vec) if v != 0})
                    for vec in residual]
            from projrep.linalg import Matrix as _M

            assert rank(block([[low, _M.from_cols(cols, dmat.rows)]])) > base


def test_wrong_residual_index_breaks_linkage(capsys, monkeypatch):
    # mu = (1, 0) loses the summand at r = 2; r = 1 gives an unlinked weight
    V = cached_module(2, (1,), F(1))
    assert jordan_holder(V).residual_index == 2
    monkeypatch.setattr(irreducibility, "_residual_index", lambda mu, k: 1)
    with pytest.raises(ConsistencyViolationError, match="not linked"):
        jordan_holder(V)
    assert main(["analyze", "-n", "2", "-a", "1", "-b", "1"]) == 2
    assert "not linked" in capsys.readouterr().err


def test_jordan_holder_rejects_irreducible():
    V = cached_module(2, (0,), F(1, 2))
    with pytest.raises(ValueError):
        jordan_holder(V)


@pytest.mark.parametrize("dynkin, b, c", [
    ((1, 0), F(-2), 16),
    ((2, 2), F(1, 2), F(43, 3)),
    ((1, 1), F(1, 3), F(130, 27)),
])
def test_casimir_acts_by_the_central_character(dynkin, b, c):
    V = cached_module(3, dynkin, b)
    assert _central_character(V.highest_weight) == c
    for k in range(3):
        casimir = _casimir(V, k)
        assert casimir == Matrix.identity(casimir.rows).scale(c)
    assert check_casimir(V, 2)[0]


# criterion 1's grid: n <= 3, labels <= 2, six values of b
CRITERION_1_GRID = [
    (n, dynkin, b)
    for n in (1, 2, 3)
    for dynkin in itertools.product(range(3), repeat=n - 1)
    for b in (F(-2), F(-1), F(0), F(1), F(2), F(1, 2))
]


def test_casimir_acts_by_the_central_character_over_criterion_1_grid():
    assert len(CRITERION_1_GRID) == 78
    failed = []
    for n, dynkin, b in CRITERION_1_GRID:
        ok, detail = check_casimir(cached_module(n, dynkin, b), 3)
        if not ok:
            failed.append((n, dynkin, b, detail))
    assert failed == []


def test_casimir_suite_catches_one_corrupted_generator_entry():
    V = cached_module(3, (1, 1), F(1, 3))
    assert check_casimir(V)[0]
    action = [list(row) for row in V.action]
    e = action[0][1]
    pos, value = next(iter(e.entries.items()))
    action[0][1] = Matrix(e.rows, e.cols, {**e.entries, pos: value + 1})
    corrupted = GlModule(V.labels, V.lattice_weights, action)
    ok, detail = check_casimir(corrupted)
    assert not ok and detail == "C_0 is not 130/27 * Id"


def test_jordan_holder_checks_the_quotient_central_character(monkeypatch):
    # with the linkage check stubbed out, the Casimir check alone must catch
    # every wrong residual index
    V = cached_module(3, (1, 0), F(-2))
    right = jordan_holder(V).residual_index
    monkeypatch.setattr(irreducibility, "_linked", lambda mu, nu: True)
    assert jordan_holder(V).residual_index == right
    for wrong in range(1, V.n + 1):
        if wrong != right:
            monkeypatch.setattr(irreducibility, "_residual_index", lambda mu, k: wrong)
            with pytest.raises(ConsistencyViolationError, match="Casimir eigenvalue"):
                jordan_holder(V)


def test_quotient_weight_has_the_module_central_character():
    V = cached_module(3, (1, 0), F(-2))
    mu = V.highest_weight
    report = jordan_holder(V)
    assert _central_character(report.residual_weight) == _central_character(mu) == 16
    # the summand at any other index would carry another central character
    step = report.k + 1
    for r in range(len(mu)):
        if r != report.residual_index - 1:
            wrong = weight_add(mu, tuple(step if t == r else 0 for t in range(len(mu))))
            assert _central_character(wrong) != 16


def test_tensor_action_map_examples():
    # the degree-raising map: column block i is the i-th pseudo-translation
    # on the degree-j basis
    def tensor_action_map(V, j):
        return block([[operator_matrix(pseudo_translation_op(V.n, i), V, j) for i in range(V.n)]])

    T = cached_module(2, (0,), F(0))
    tm = tensor_action_map(T, 0)
    assert tm.is_zero() and tm.rows == 2 and tm.cols == 2
    # when degree j is fully generated, the image of the map is the whole
    # degree-(j+1) chain span
    V = cached_module(2, (1,), F(1, 2))  # irreducible point
    for j in range(3):
        tj = tensor_action_map(V, j)
        mj1 = up_submodule_matrix(V, j + 1)
        assert rank(tj) == up_submodule_rank(V, j + 1)
        assert rank(block([[tj, mj1]])) == rank(tj)


@pytest.mark.parametrize("n,dynkin,b", [
    (2, (1,), F(1)), (2, (2,), F(1, 2)), (3, (1, 0), F(-1)),
])
def test_intertwiner_identity(n, dynkin, b):
    ok, detail = check_intertwiner(cached_module(n, dynkin, b), j_max=2)
    assert ok, detail


@pytest.mark.parametrize("n,dynkin,b", [
    (2, (0,), F(0)),
    (2, (1,), F(1)),
    (3, (1, 0), F(1)),
])
def test_derivative_escape(n, dynkin, b):
    ok, detail = check_derivative_escape(cached_module(n, dynkin, b))
    assert ok, detail


@pytest.mark.parametrize("n,dynkin,b", [
    (2, (0,), F(0)), (2, (1,), F(1)), (2, (0,), F(1, 2)), (3, (1, 0), F(1)),
])
def test_submodule_invariance(n, dynkin, b):
    ok, detail = check_submodule_invariance(cached_module(n, dynkin, b), j_max=2)
    assert ok, detail


def test_rank_decomposition_identity():
    # chain rank at each degree equals full dimension minus the vanished summands
    for point, top in [
        ((2, (0,), F(0)), 4), ((2, (1,), F(1)), 4), ((2, (0,), F(-2)), 4),
        ((3, (1, 0), F(1)), 4), ((4, (1, 1, 1), F(0)), 3),
        ((5, (1, 1, 0, 1), F(1, 3)), 3),
    ]:
        V = cached_module(*point)
        mu = V.highest_weight
        for j in range(top + 1):
            expected = graded_dimension(V, j) - sum(
                weyl_dimension(weight_add(mu, c)) for c in residual_summands(mu, j)
            )
            assert up_submodule_rank(V, j) == expected, (point, j)


def test_residual_complement_is_kernel_of_chain_map():
    # kernel vectors of the chain matrix span the complement; their spans
    # match the vanished summands' total dimension
    from projrep.glmodules import weight_add, weyl_dimension

    V = cached_module(2, (1,), F(1))
    mu = V.highest_weight
    for j in (1, 2):
        mj = up_submodule_matrix(V, j)
        kern = kernel_basis(mj)
        missing = sum(weyl_dimension(weight_add(mu, c)) for c in residual_summands(mu, j))
        assert len(kern) == missing
