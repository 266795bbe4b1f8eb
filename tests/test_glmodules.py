import hashlib
import itertools
import math
from fractions import Fraction as F

import pytest

import projrep.glmodules as glmodules
from projrep.action import graded_basis, monomials_of_degree, operator_matrix, scaling_op
from projrep.errors import DimensionCapError
from projrep.glmodules import (
    DominantLabels,
    build_irreducible,
    cached_module,
    clear_caches,
    dominant_gaps,
    dominant_weight_spaces,
    is_dominant,
    pieri_index_set,
    validate_module,
    weight_add,
    weight_from_labels,
    weyl_dimension,
)
from projrep.linalg import EchelonSpan, joint_kernel

SMALL_SWEEP = [
    (1, (), F(0)), (1, (), F(-2)), (1, (), F(1, 2)),
    (2, (0,), F(0)), (2, (1,), F(1)), (2, (2,), F(-1)), (2, (1,), F(1, 2)),
    (3, (0, 0), F(0)), (3, (1, 0), F(1)), (3, (1, 1), F(-2)), (3, (2, 1), F(1, 2)),
]


def test_weight_from_labels_examples():
    assert weight_from_labels(DominantLabels(2, (0,), F(0))) == (0, 0)
    assert weight_from_labels(DominantLabels(2, (1,), F(1))) == (1, 0)
    assert weight_from_labels(DominantLabels(3, (1, 0), F(1))) == (1, 0, 0)


def test_weyl_dimension_examples():
    assert weyl_dimension((0, 0, 0, 0)) == 1
    assert weyl_dimension((7, 0)) == 8
    assert weyl_dimension((1, 1, 0)) == 3
    with pytest.raises(ValueError):
        weyl_dimension((0, 1))
    with pytest.raises(ValueError):
        weyl_dimension((F(1, 2), 0))


def test_pieri_examples():
    assert pieri_index_set((3, 1), 0) == ((0, 0),)
    assert pieri_index_set((1, 0), 1) == ((1, 0), (0, 1))
    assert pieri_index_set((1, 1, 1), 2) == ((2, 0, 0),)


def test_pieri_constraints_hold():
    mu = (F(5, 2), F(3, 2), F(-1, 2))
    for k in range(5):
        for c in pieri_index_set(mu, k):
            assert sum(c) == k
            gaps = dominant_gaps(mu)
            for s in range(len(mu) - 1):
                assert c[s + 1] <= gaps[s]


@pytest.mark.parametrize("n,dynkin,b", SMALL_SWEEP)
def test_pieri_dimension_identity(n, dynkin, b):
    mu = weight_from_labels(DominantLabels(n, dynkin, b))
    for k in range(5):
        lhs = sum(weyl_dimension(weight_add(mu, c)) for c in pieri_index_set(mu, k))
        assert lhs == weyl_dimension(mu) * math.comb(k + n - 1, n - 1)


def test_build_trivial():
    V = build_irreducible(DominantLabels(2, (0,), F(0)))
    assert V.dim == 1
    assert all(V.e(i, j).is_zero() for i in range(2) for j in range(2))


def test_build_vector_rep():
    V = build_irreducible(DominantLabels(2, (1,), F(1)))
    assert V.dim == 2
    assert set(V.basis_weights) == {(1, 0), (0, 1)}
    assert V.highest_weight == (1, 0)


def test_build_sl3_adjoint_shape():
    V = build_irreducible(DominantLabels(3, (1, 1), F(7)))
    assert V.dim == 8


# n = 4 and 5 with fractional b: the generators E_ij with |i - j| = 2, 3, 4
# are built as commutators, and validate_module checks every gl(n) relation
WIDE_SWEEP = [
    (4, (1, 0, 1), F(1, 2)), (4, (1, 1, 1), F(-1, 3)),
    (5, (1, 0, 0, 1), F(1, 2)), (5, (0, 1, 0, 1), F(2, 5)),
]
# some a_d >= 3 at n >= 3, past the selfcheck sweep's labels: the lowerings
# act on monomials in which one wedge element occurs three or more times
REPEATED_SWEEP = [(3, (4, 1), F(1, 2)), (4, (3, 0, 1), F(0))]


@pytest.mark.parametrize("n,dynkin,b", SMALL_SWEEP + WIDE_SWEEP + REPEATED_SWEEP)
def test_module_invariants(n, dynkin, b):
    V = cached_module(n, dynkin, b)
    assert validate_module(V)


@pytest.mark.parametrize("n,dynkin,b", SMALL_SWEEP)
def test_labels_roundtrip(n, dynkin, b):
    mu = weight_from_labels(DominantLabels(n, dynkin, b))
    assert tuple(dominant_gaps(mu)) == dynkin
    assert sum(mu) == b


def test_dimension_cap():
    with pytest.raises(DimensionCapError):
        build_irreducible(DominantLabels(3, (9, 9), F(0)), dim_cap=100)


@pytest.mark.parametrize("n,dynkin,b,k", [
    (2, (1,), F(1), 1),
    (2, (1,), F(1), 2),
    (2, (2,), F(-1), 2),
    (3, (1, 0), F(1), 1),
    (3, (1, 1), F(0), 2),
])
def test_tensor_multiplicity_free(n, dynkin, b, k):
    """Under the scalings the degree-k piece is S^k tensor V: each admissible
    shift yields exactly one maximal vector, every other shift none."""
    V = cached_module(n, dynkin, b)
    gb = graded_basis(V, k)
    assert gb.dim == V.dim * math.comb(k + n - 1, n - 1)
    mu = V.highest_weight
    raisers = [
        operator_matrix(scaling_op(n, i, j), V, k) for i in range(n) for j in range(i + 1, n)
    ]
    admissible = set(pieri_index_set(mu, k))
    for c in monomials_of_degree(n, k):
        target = weight_add(mu, c)
        support = [
            {pos: 1} for pos, (mono, q) in enumerate(gb.labels)
            if weight_add(V.basis_weights[q], mono) == target
        ]
        found = joint_kernel(raisers, support)
        assert len(found) == (1 if c in admissible else 0), (c, len(found))


def _oracle_dominant_weight_spaces(V, shifts):
    """dominant_weight_spaces from the exact basis weights: each position's
    weight w_q + s, kept if dominant, keyed by w_q + s - mu_n."""
    mu_n = V.highest_weight[-1]
    spaces = {}
    for t, s in enumerate(shifts):
        for q in range(V.dim):
            w = weight_add(V.basis_weights[q], s)
            if is_dominant(w):
                spaces.setdefault(tuple(x - mu_n for x in w), []).append(t * V.dim + q)
    return spaces


# criterion 1's grid (n <= 3, labels <= 2, six values of b), the repeated
# wedge factors and two n = 5 modules
DOMINANT_SPACE_MODULES = [
    (n, dynkin, b)
    for n in (1, 2, 3)
    for dynkin in itertools.product(range(3), repeat=n - 1)
    for b in (F(-2), F(-1), F(0), F(1), F(2), F(1, 2))
] + REPEATED_SWEEP + [(5, (1, 0, 0, 1), F(1, 2)), (5, (0, 1, 0, 1), F(2, 5))]


def test_dominant_weight_spaces_match_the_exact_weights():
    assert len(DOMINANT_SPACE_MODULES) == 82
    for n, dynkin, b in DOMINANT_SPACE_MODULES:
        V = cached_module(n, dynkin, b)
        mu_n = V.highest_weight[-1]
        assert all(type(x) is int for lw in V.lattice_weights for x in lw)
        assert all(
            V.basis_weights[q][i] == V.lattice_weights[q][i] + mu_n
            for q in range(V.dim) for i in range(n)
        )
        unit = [tuple(int(t == i) for t in range(n)) for i in range(n)]
        shift_lists = [unit, [tuple(-x for x in e) for e in unit]]
        shift_lists += [monomials_of_degree(n, k) for k in range(4)]
        for shifts in shift_lists:
            expected = _oracle_dominant_weight_spaces(V, shifts)
            assert dominant_weight_spaces(V, shifts) == expected, (n, dynkin, b, shifts)


def test_clear_caches_empties_the_module_cache():
    V = cached_module(2, (1,), F(1))
    assert cached_module(2, (1,), F(1)) is V
    clear_caches()
    assert glmodules._module_cache == {}
    W = cached_module(2, (1,), F(1))
    assert W is not V and W.memo == {}


def _oracle_wedge_image(i, j, subset):
    """E_{i,j} on a wedge basis element by replacing j with i in the ordered
    tuple and sorting; the sign is the parity of the inversions undone."""
    if j not in subset or (i != j and i in subset):
        return None
    lst = [i if s == j else s for s in subset]
    inversions = sum(1 for a in range(len(lst)) for b in range(a + 1, len(lst)) if lst[a] > lst[b])
    return tuple(sorted(lst)), (-1) ** inversions


@pytest.mark.parametrize("n", range(1, 6))
def test_wedge_table_matches_inversion_oracle(n):
    for d in range(n + 1):
        basis = list(itertools.combinations(range(n), d))
        table = glmodules._wedge_table(n, d)
        for i in range(n):
            for j in range(n):
                for idx, subset in enumerate(basis):
                    hit = _oracle_wedge_image(i, j, subset)
                    expected = None if hit is None else (basis.index(hit[0]), hit[1])
                    assert table[i][j][idx] == expected, (n, d, i, j, subset)


def test_build_tabulates_the_wedge_action_once(monkeypatch):
    calls = []
    original = glmodules._wedge_apply

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(glmodules, "_wedge_apply", counting)
    n = 3
    V = build_irreducible(DominantLabels(n, (2, 1), F(0)))
    assert V.dim == 15
    assert 0 < len(calls) <= n * n * sum(math.comb(n, d) for d in range(n + 1))


@pytest.mark.parametrize("n,dynkin", [(3, (2, 1)), (4, (1, 1, 1)), (5, (0, 1, 0, 1))])
def test_build_eliminates_only_the_lowering_closure(monkeypatch, n, dynkin):
    """One reduction per lowering image of a basis vector, plus the top vector:
    the raisings and the other generators never enter an EchelonSpan."""
    calls = []
    original = EchelonSpan._reduce

    def counting(self, vec, key):
        calls.append(key)
        return original(self, vec, key)

    monkeypatch.setattr(EchelonSpan, "_reduce", counting)
    V = build_irreducible(DominantLabels(n, dynkin, F(1, 2)))
    assert 0 < len(calls) <= (n - 1) * V.dim + 1


@pytest.mark.parametrize("n,dynkin", [(3, (4, 4)), (5, (1, 1, 1, 1))])
def test_lowering_closure_runs_in_the_symmetric_powers(monkeypatch, n, dynkin):
    """Every vector the closure eliminates lives in the product of the
    Sym^{a_d}(Lambda^d): its flattened keys never outnumber their monomials,
    prod_d C(C(n, d) + a_d - 1, a_d) (225 for n = 3, labels 4,4, where the
    tensor product has 3^8 = 6,561 keys)."""
    ambient = [0]
    original = EchelonSpan.insert_or_coords

    def recording(self, vec):
        ambient[0] = max(ambient[0], max(vec) + 1)
        return original(self, vec)

    monkeypatch.setattr(EchelonSpan, "insert_or_coords", recording)
    build_irreducible(DominantLabels(n, dynkin, F(0)))
    bound = math.prod(
        math.comb(math.comb(n, d) + a - 1, a) for d, a in enumerate(dynkin, start=1)
    )
    assert 0 < ambient[0] <= bound


def _generator_digest(V):
    """sha256 over the basis weights, the highest index and every generator's
    entries in their stored order, each value with its type."""
    h = hashlib.sha256()
    h.update(repr((V.basis_weights, V.highest_index)).encode())
    for i in range(V.n):
        for j in range(V.n):
            for k, v in V.e(i, j).entries.items():
                h.update(repr((k, type(v).__name__, v)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("n,dynkin,b,dim,digest", [
    (2, (3,), F(1, 2), 4, "54b03f752a4418bc73db0a1cb19895ca0bd17346e7423a3af6a88845c3514b20"),
    (3, (2, 2), F(0), 27, "59ae571a2c92bb6b740bbf0773e3aecc12ac0aea6387e7feb14927b13d31486b"),
    (3, (1, 1), F(1, 3), 8, "558a6312a2dcb60e04765453708606f3822ad63e1e2cbef4d6dbc473bf649856"),
    (4, (1, 0, 1), F(1, 2), 15, "8a9e8feb5a61b442a7ee89a5210d0c172b03e249dc1c7551a9f3d493db8e6f5e"),
    (4, (1, 1, 0), F(-2), 20, "3ad14346a942d720782792c67cff162c5f3d64e2b91682b1586663028081720a"),
    (5, (1, 0, 0, 1), F(2), 24, "3ed562360ccdea4ae10f88e84e26c4c0b60f625dd3c87571802dc5c48b9abfee"),
    # repeated wedge factors: a_d = 4 and 6 at n = 3, where a monomial
    # repeats a wedge element up to six times, and a_1 = a_3 = 2 at n = 4
    (3, (4, 4), F(1, 2), 125, "a10dd87b627a68a613c3bab261fb68b42dc5445e5fbc9c87962d32ae2b6f631f"),
    (4, (2, 0, 2), F(0), 84, "b1ceaeef842e4ed57d1df7f55c23dcc7f8e1aea4ec2d7d561e37915dc31fd207"),
    (3, (6, 6), F(0), 343, "68ab83b9414aef7758a274c52eeeec55283f84e5283cf377730ea257d6e334ab"),
])
def test_generators_are_pinned_bit_for_bit(n, dynkin, b, dim, digest):
    """The basis and every generator matrix, value, type and entry order,
    as the build that ran the lowering closure in the full tensor product
    (Lambda^d)^{(x) a_d} made them: the closure in the symmetric powers must
    not change a bit."""
    V = build_irreducible(DominantLabels(n, dynkin, b))
    assert V.dim == dim
    assert _generator_digest(V) == digest
