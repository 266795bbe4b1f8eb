import hashlib
import itertools
import math
from collections import Counter
from fractions import Fraction as F

import pytest

import projrep.glmodules as glmodules
from projrep.action import graded_basis, monomials_of_degree, operator_matrix, scaling_op
from projrep.errors import ConsistencyViolationError, DimensionCapError
from projrep.glmodules import (
    DominantLabels,
    GlModule,
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
from projrep.linalg import EchelonSpan, Matrix, kernel_basis

SMALL_SWEEP = [
    (1, (), F(0)), (1, (), F(-2)), (1, (), F(1, 2)),
    (2, (0,), F(0)), (2, (1,), F(1)), (2, (2,), F(-1)), (2, (1,), F(1, 2)),
    (3, (0, 0), F(0)), (3, (1, 0), F(1)), (3, (1, 1), F(-2)), (3, (2, 1), F(1, 2)),
]


def test_weight_from_labels_examples():
    assert weight_from_labels(DominantLabels(2, (0,), F(0))) == (0, 0)
    assert weight_from_labels(DominantLabels(2, (1,), F(1))) == (1, 0)
    assert weight_from_labels(DominantLabels(3, (1, 0), F(1))) == (1, 0, 0)



@pytest.mark.parametrize("n, dynkin, message", [
    (0, (), "n must be >= 1"),
    (2, (1, 1), "expected 1 Dynkin labels, got 2"),
    (3, (1,), "expected 2 Dynkin labels, got 1"),
    (3, (1, -1), "Dynkin labels must be nonnegative"),
])
def test_dominant_labels_reject_bad_input(n, dynkin, message):
    with pytest.raises(ValueError) as exc:
        DominantLabels(n, dynkin, F(0))
    assert str(exc.value) == message


def test_dominant_labels_normalise_to_int_labels_and_fraction_b():
    labels = DominantLabels(2, [1], 1)
    assert labels == DominantLabels(n=2, dynkin=(1,), b=F(1))
    assert hash(labels) == hash(DominantLabels(n=2, dynkin=(1,), b=F(1)))
    assert type(labels.dynkin) is tuple and type(labels.dynkin[0]) is int
    assert type(labels.b) is F
    assert repr(labels) == "DominantLabels(n=2, dynkin=(1,), b=Fraction(1, 1))"

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


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_pieri_index_set_is_a_filter_of_the_compositions(n):
    # every composition of j into n parts with c_{s+1} <= mu_s - mu_{s+1},
    # in descending lexicographic order; degree 0 and a negative degree too
    for dynkin in itertools.product(range(3), repeat=n - 1):
        mu = weight_from_labels(DominantLabels(n, dynkin, F(1, 2)))
        gaps = dominant_gaps(mu)
        for j in range(-1, 6):
            expected = sorted(
                (c for c in itertools.product(range(j + 1), repeat=n)
                 if sum(c) == j and all(x <= g for x, g in zip(c[1:], gaps))),
                reverse=True,
            )
            assert pieri_index_set(mu, j) == tuple(expected), (dynkin, j)


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
# some a_d >= 3 at n >= 3, past the selfcheck sweep's labels: pattern
# entries that can move by three or more, and weights of multiplicity > 1
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


def joint_kernel(ops, vectors):
    """Basis of the coefficient tuples x with sum_t x[t] * op.apply(vectors[t])
    = 0 for every op: the kernel of the op images, stacked op by op."""
    ent = {}
    off = 0
    for op in ops:
        for c, vec in enumerate(vectors):
            for r, v in op.apply(vec).items():
                ent[(off + r, c)] = v
        off += op.rows
    return kernel_basis(Matrix(off, len(vectors), ent))


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
    assert len(gb) * V.dim == V.dim * math.comb(k + n - 1, n - 1)
    mu = V.highest_weight
    raisers = [
        operator_matrix(scaling_op(n, i, j), V, k) for i in range(n) for j in range(i + 1, n)
    ]
    admissible = set(pieri_index_set(mu, k))
    for c in monomials_of_degree(n, k):
        target = weight_add(mu, c)
        support = [
            {start + q: 1} for mono, start in gb.items() for q in range(V.dim)
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


# criterion 1's grid (n <= 3, labels <= 2, six values of b), the larger
# labels of REPEATED_SWEEP and two n = 5 modules
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


def test_build_eliminates_nothing(monkeypatch):
    """The Gelfand-Tsetlin coefficients are closed forms: no module build
    enters an EchelonSpan."""

    def refuse(*args):
        raise AssertionError("build_irreducible eliminated a vector")

    monkeypatch.setattr(EchelonSpan, "_reduce", refuse)
    for n, dynkin, b in [(3, (2, 1), F(1, 2)), (4, (1, 1, 1), F(0)), (5, (0, 1, 0, 1), F(2, 5))]:
        V = build_irreducible(DominantLabels(n, dynkin, b))
        assert V.dim == weyl_dimension(V.highest_weight)


@pytest.mark.parametrize("n,dynkin,b,k", [
    (2, (2,), F(0), 0), (3, (1, 1), F(1, 2), 0), (3, (2, 1), F(0), 1), (4, (1, 0, 1), F(-1, 3), 2),
])
def test_a_flipped_raising_coefficient_fails_validation(n, dynkin, b, k):
    """validate_module certifies the build: negating one coefficient of
    E_{k+1,k+2}, the other generators as built, breaks a relation."""
    V = build_irreducible(DominantLabels(n, dynkin, b))
    raising = V.e(k, k + 1)
    (row, col), value = next(iter(raising.entries.items()))
    flipped = dict(raising.entries)
    flipped[(row, col)] = -value
    action = [list(r) for r in V.action]
    action[k][k + 1] = Matrix(V.dim, V.dim, flipped)
    mutant = GlModule(V.labels, V.lattice_weights, action)
    assert validate_module(V)
    with pytest.raises(ConsistencyViolationError):
        validate_module(mutant)


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


GENERATOR_PINS = [
    (2, (3,), F(1, 2), 4, "54b03f752a4418bc73db0a1cb19895ca0bd17346e7423a3af6a88845c3514b20"),
    (3, (2, 2), F(0), 27, "6208017b42bec3ed85e4a9c11e8f3d220cc7a8ad2b7aad3d5f72a4cbd7271d75"),
    (3, (1, 1), F(1, 3), 8, "8c159ee7032a6a3cde1861f4c1a7bf30f9705fe6ead9bc2f74b5ad6d0ef83a68"),
    (4, (1, 0, 1), F(1, 2), 15, "37c48592497eb6a697be61bad44813299caca4339b8feeff34d0947680ce5f8b"),
    (4, (1, 1, 0), F(-2), 20, "f9e7d9bafd673237e2882ddd56de000fb73f76ef47847ffdcca5f2031d71e00d"),
    (5, (1, 0, 0, 1), F(2), 24, "e150639bb99ff034b12686906aa544f117b0809f2770a2c4c26b5d23d84da037"),
    # larger labels: a_d = 4 and 6 at n = 3, where rows of a pattern range
    # over up to seven values, and a_1 = a_3 = 2 at n = 4
    (3, (4, 4), F(1, 2), 125, "239201011096770b6d530e6244e46810bc6d4f1bf068d5b1b8625c35220e6d67"),
    (4, (2, 0, 2), F(0), 84, "9ac865e7c8f8644a590dca71e0c9f871c889c6591395ead905e9ab8e184c721f"),
    (3, (6, 6), F(0), 343, "b06dffa005a75058445ea3e4d2219e869b1bae27600d28a0dd08281e07dd1ebe"),
]


def _pin_id(n, dynkin, b, dim):
    """n2-a3-b1_2-dim4: the module and its dimension, not the digest, so a
    re-recorded pin keeps its test id."""
    shown = str(b).replace("/", "_")
    return f"n{n}-a{','.join(map(str, dynkin))}-b{shown}-dim{dim}"


@pytest.mark.parametrize(
    "n,dynkin,b,dim,digest", GENERATOR_PINS, ids=[_pin_id(*pin[:4]) for pin in GENERATOR_PINS]
)
def test_generators_are_pinned_bit_for_bit(n, dynkin, b, dim, digest):
    """The basis and every generator matrix, value, type and entry order,
    as the Gelfand-Tsetlin build records them: patterns sorted by weight,
    descending, and the simple generators' closed-form coefficients
    unscaled.  validate_module passes on each of these modules; a change to
    the basis order or to the normalization of a pattern shows here."""
    V = build_irreducible(DominantLabels(n, dynkin, b))
    assert V.dim == dim
    assert _generator_digest(V) == digest


def _grid(n):
    """Labels <= 2 for n <= 4, and label sum <= 2 for n = 5; b = 1/2 on even
    label sums (Cartan generators over den 2) and -1 on odd ones."""
    for dynkin in itertools.product(range(3), repeat=n - 1):
        if n < 5 or sum(dynkin) <= 2:
            yield DominantLabels(n, dynkin, F(1, 2) if sum(dynkin) % 2 == 0 else F(-1))


GRID_PINS = {
    1: "667700710fb49a38404a32bf04c1bf7f1d0dbbb63a7bba00c744e498bb4021c1",
    2: "24fa55ed4611f426911263af0a59f5d21b768314086929352749f54054a57fa9",
    3: "76c82a8e4711f1746c5b33b10a8fba4b859f8dd66836488020c3aafcb0012454",
    4: "289429a63a43bd56dc80ef8f00141bae2684583db02a582677fc74f3969c3bec",
    5: "6b4965f1104b98f0f36cd2f6caf318eba6f8c98f5c642d79f332cc909800ee49",
}


@pytest.mark.parametrize("n", sorted(GRID_PINS))
def test_generators_are_pinned_in_stored_form_over_a_grid(n):
    """Every V.e(i, j) of every module of the grid as stored: den, then the
    columns in stored order, each with its rows in stored order.  The build
    keeps columns and rows ascending and den reduced, so a change to the
    coefficients, the commutators or their order shows here."""
    h = hashlib.sha256()
    for labels in _grid(n):
        V = build_irreducible(labels)
        h.update(repr(labels).encode())
        for i in range(n):
            for j in range(n):
                m = V.e(i, j)
                cols = [(c, list(col.items())) for c, col in m.columns.items()]
                h.update(repr((i, j, m.den, cols)).encode())
    assert h.hexdigest() == GRID_PINS[n]


# the larger-label pins: a_d = 4 and 6 at n = 3, a_1 = a_3 = 2 at n = 4
LARGE_PIN_LABELS = [DominantLabels(n, dynkin, b) for n, dynkin, b, dim, _ in GENERATOR_PINS if dim > 27]


@pytest.mark.parametrize("n", sorted(GRID_PINS))
def test_simple_generators_have_transposed_supports(n):
    """E_{k+1,k} has an entry at (L, L') exactly when E_{k,k+1} has one at
    (L', L): a Gelfand-Tsetlin move L -> L' between patterns has a nonzero
    raising and a nonzero lowering coefficient."""
    assert len(LARGE_PIN_LABELS) == 3
    modules = list(_grid(n)) + [labels for labels in LARGE_PIN_LABELS if labels.n == n]
    entries = 0
    for labels in modules:
        V = build_irreducible(labels)
        for k in range(n - 1):
            raising = V.e(k, k + 1).entries
            lowering = V.e(k + 1, k).entries
            assert set(lowering) == {(col, row) for row, col in raising}, (labels, k)
            entries += len(raising)
    assert entries > 0 or n == 1


def _per_position_dominant_weight_spaces(V, shifts):
    """dominant_weight_spaces with one dominance test per position, shifts x
    lattice weights row-major: the reference for the grouped loop."""
    spaces = {}
    pos = 0
    for s in shifts:
        for lw in V.lattice_weights:
            w = weight_add(lw, s)
            if is_dominant(w):
                spaces.setdefault(w, []).append(pos)
            pos += 1
    return spaces


@pytest.mark.parametrize("n", sorted(GRID_PINS))
def test_dominant_weight_spaces_match_the_per_position_loop(n):
    """Grouping the basis by lattice weight keeps the keys, their order and
    the ascending positions of each key, on the grid modules for the shifts
    +-e_i and the monomials of degree <= 3."""
    unit = [tuple(int(t == i) for t in range(n)) for i in range(n)]
    shift_lists = [unit, [tuple(-x for x in e) for e in unit]]
    shift_lists += [monomials_of_degree(n, k) for k in range(4)]
    for labels in _grid(n):
        V = build_irreducible(labels)
        for shifts in shift_lists:
            expected = _per_position_dominant_weight_spaces(V, shifts)
            assert list(dominant_weight_spaces(V, shifts).items()) == list(expected.items()), (labels, shifts)


def test_simple_generators_take_no_fraction_arithmetic(monkeypatch):
    """The closed-form coefficients are int pairs over one lcm: building
    labels 2,1,2 (dim 300) does exactly the Fraction work, arithmetic and
    construction, of building the trivial module, which has no generator
    entries, so none of it is per entry."""
    from test_linalg import _count_fraction_arithmetic

    real_new = F.__new__

    def counting_new(cls, *args, **kwargs):
        calls.append("__new__")
        return real_new(cls, *args, **kwargs)

    counts = []
    for dynkin in ((0, 0, 0), (2, 1, 2)):
        calls = []
        _count_fraction_arithmetic(monkeypatch, calls)
        monkeypatch.setattr(F, "__new__", counting_new)
        V = build_irreducible(DominantLabels(4, dynkin, F(1, 2)))
        monkeypatch.undo()
        counts.append(Counter(calls))
    assert V.dim == 300 and counts[0] == counts[1]
