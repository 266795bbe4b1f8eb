"""Block operators over a module and their characteristic identities.

Three square block matrices are built from a module's generator action: the
shifted quadratic-Casimir block matrix (identity-plus-generator blocks), and
the plain generator grid together with its negated transpose.  Each satisfies
a polynomial identity with explicitly predictable rational roots; the Lagrange
interpolation idempotents cut tensor products with the (dual) vector
representation into their isotypic pieces.  Everything is exact; a residual
is either the zero matrix or the identity fails.  The brute-force spectrum
oracle finds the rational eigenvalues from the exact characteristic
polynomial by an integer root search, with the standard library only;
`selfcheck` runs it on every block operator of dimension up to
ORACLE_MAX_DIM.

Each block operator commutes with the diagonal gl(n) action on C^n (x) V
(sigma2_tilde and the negated transpose) or on its dual (the generator
grid): the index (i, q), global i*dim + q, has weight w_q + e_i, or w_q - e_i
on the dual.  Its operator polynomials, eigenspaces and projectors are then
gl(n)-submodules or module maps, so the command line reads them off the
square blocks on the dominant weight spaces alone (`weight_blocks`, over the
positions that `glmodules.dominant_weight_spaces` groups by weight): a
residual vanishes iff it vanishes on every dominant block (a nonzero
quotient has a dominant highest weight), and a kernel's or image's
dimension is the sum over dominant w of its dimension on the block of w
times |S_n . w|.  `check_characteristic_identity` and `tensor_projector`
keep the all-columns computation as the oracle of that path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ConsistencyViolationError
from .glmodules import dominant_weight_spaces, module_memo, orbit_size
from .linalg import (
    DegenerateSpectrumError,
    Matrix,
    block,
    charpoly,
    eval_operator_polynomial,
    format_rational,
    idempotent_from_spectrum,
    rank,
)

__all__ = [
    "SpectrumReport",
    "adjoint_blocks",
    "adjoint_matrices",
    "block_operators",
    "brute_force_spectrum",
    "check_characteristic_identity",
    "identity_on_blocks",
    "predicted_adjoint_roots",
    "predicted_sigma2_roots",
    "projector_rank",
    "sigma2_tilde",
    "tensor_projector",
    "weight_blocks",
]

ORACLE_MAX_DIM = 48


def sigma2_tilde(V):
    """Identity-plus-generator block matrix: block (i,j) holds E_{j,i}, plus
    b*Id on the diagonal blocks.

    The block order matters: with blocks E_{j,i} this is exactly the matrix
    whose columns are the degree-one raising chains (stack the i-th
    pseudo-translation of every degree-zero basis vector), and its roots are
    the m_i below.  Flipping the blocks to E_{i,j} shifts every root by n-1
    and breaks the identity.
    """
    n, d = V.n, V.dim
    bid = Matrix.identity(d).scale(V.b)
    grid = [
        [V.e(j, i) + bid if i == j else V.e(j, i) for j in range(n)]
        for i in range(n)
    ]
    return block(grid)


def predicted_sigma2_roots(mu):
    """Roots m_i = mu_i + |mu| - i + 1 (i running 1..n)."""
    tot = sum(mu)
    return [Fraction(mu[i] + tot - i) for i in range(len(mu))]


def adjoint_matrices(V, dual):
    """The generator grid M (dual) or its negated block-transpose, built once
    per module and `dual`: every projector of `tensor_projector` shares it."""
    n = V.n

    def build():
        if dual:
            return block([[V.e(i, j) for j in range(n)] for i in range(n)])
        return block([[-V.e(j, i) for j in range(n)] for i in range(n)])

    return module_memo(V, "adjoint", dual, build)


def predicted_adjoint_roots(mu):
    """(d, d~) with d_i = mu_i + n - i and d~_i = n - 1 - d_i."""
    n = len(mu)
    d = [Fraction(mu[i] + n - (i + 1)) for i in range(n)]
    return d, [Fraction(n - 1) - x for x in d]


@dataclass(frozen=True)
class SpectrumReport:
    """Outcome of a characteristic-identity check."""

    roots: tuple
    residual_is_zero: bool
    multiplicities: tuple

    def to_json(self):
        return {
            "roots": [format_rational(r) for r in self.roots],
            "residual_zero": self.residual_is_zero,
            "multiplicities": list(self.multiplicities),
        }


def _geometric_multiplicity(m, c):
    return m.rows - rank(m - Matrix.identity(m.rows).scale(c))


def check_characteristic_identity(op, roots):
    """Evaluate the product of (op - root) and measure each root's eigenspace."""
    return identity_on_blocks([(op, 1)], roots)


def _projector_roots(V, r, dual):
    """(target, others): the root of summand r and the roots it is cut from."""
    n = V.n
    if not (1 <= r <= n):
        raise ValueError(f"r must be in 1..{n}")
    d, dt = predicted_adjoint_roots(V.highest_weight)
    roots = d if dual else dt
    target = roots[r - 1]
    others = [roots[l] for l in range(n) if l != r - 1]
    for l in range(n):
        if l != r - 1 and roots[l] == target:
            raise DegenerateSpectrumError(target, (r, l + 1))
    return target, others


def tensor_projector(V, r, dual):
    """Spectral projector onto one isotypic summand of the tensor with the
    vector representation (dual=True: its dual).  `r` is 1-based.

    Returns the zero matrix when the summand is absent from the tensor
    decomposition; raises DegenerateSpectrumError (with the colliding pair)
    if the needed roots coincide.
    """
    target, others = _projector_roots(V, r, dual)
    return idempotent_from_spectrum(adjoint_matrices(V, dual), target, others)


# -- the same answers from the dominant weight blocks --------------------------


def _dominant_weight_spaces(V, dual):
    """dominant_weight_spaces of C^n (x) V (dual: of its dual), whose index
    (i, q) has weight w_q + e_i (dual: w_q - e_i), memoized per module."""
    sign = -1 if dual else 1
    shifts = [tuple(sign if t == i else 0 for t in range(V.n)) for i in range(V.n)]
    return module_memo(V, "dominant_spaces", dual, lambda: dominant_weight_spaces(V, shifts))


def weight_blocks(V, op, dual):
    """[(B_w, |S_n . w|)]: the square blocks of the block operator `op` on the
    dominant weight spaces w of C^n (x) V (dual: of its dual).

    Raises ConsistencyViolationError when a dominant column has an entry in
    a row of another weight: the blocks then do not describe `op`.
    """
    blocks = []
    for w, indices in _dominant_weight_spaces(V, dual).items():
        position = {g: t for t, g in enumerate(indices)}
        cols = {}
        for t, g in enumerate(indices):
            col = op.columns.get(g)
            if col is None:
                continue
            out = cols[t] = {}
            for r, v in col.items():
                s = position.get(r)
                if s is None:
                    raise ConsistencyViolationError(
                        f"{V!r}: a block operator maps index {g} to index {r} of another weight"
                    )
                out[s] = v
        size = len(indices)
        blocks.append((Matrix.from_int_columns(size, size, op.den, cols), orbit_size(w)))
    return blocks


def adjoint_blocks(V, dual):
    """weight_blocks of the generator grid (dual) or of its negated
    transpose, memoized per module."""

    return module_memo(
        V, "adjoint_blocks", dual, lambda: weight_blocks(V, adjoint_matrices(V, dual), dual)
    )


def identity_on_blocks(blocks, roots):
    """SpectrumReport of an operator given by square blocks [(B, weight)],
    such as its dominant weight blocks (`weight_blocks`): the residual is zero
    iff the product of (B - root) vanishes on every block, and a root's
    multiplicity is the sum of its eigenspace dimensions on the blocks times
    their weights."""
    roots = list(roots)
    residual_is_zero = all(eval_operator_polynomial(b, roots).is_zero() for b, _ in blocks)
    mults = tuple(
        sum(_geometric_multiplicity(b, r) * size for b, size in blocks) for r in roots
    )
    return SpectrumReport(tuple(Fraction(r) for r in roots), residual_is_zero, mults)


def block_operators(V):
    """(name, operator, its dominant weight blocks, predicted roots) of each
    block operator whose characteristic identity `verify-identity` reports."""
    mu = V.highest_weight
    d, dt = predicted_adjoint_roots(mu)
    s2 = sigma2_tilde(V)
    return (
        ("sigma2", s2, weight_blocks(V, s2, dual=False), predicted_sigma2_roots(mu)),
        ("adjoint", adjoint_matrices(V, dual=True), adjoint_blocks(V, dual=True), d),
        ("adjoint_dual", adjoint_matrices(V, dual=False), adjoint_blocks(V, dual=False), dt),
    )


def projector_rank(V, r, dual):
    """rank(tensor_projector(V, r, dual)), from the projectors of the dominant
    weight blocks; raises DegenerateSpectrumError as tensor_projector does."""
    target, others = _projector_roots(V, r, dual)
    return sum(
        rank(idempotent_from_spectrum(b, target, others)) * size
        for b, size in adjoint_blocks(V, dual)
    )


def brute_force_spectrum(m):
    """Exact rational spectrum oracle: (spectrum dict, is_complete).

    With den = m.den, the characteristic polynomial of den*m (exact
    Faddeev-LeVerrier) is monic with integer coefficients, so its rational
    roots are integers t, and Gershgorin on the transpose bounds |t| by the
    largest absolute column sum of den*m.  Each candidate is tested by
    Horner's rule, and each root t/den of m has its eigenspace measured by
    rank deficiency.  is_complete reports whether the geometric multiplicities
    exhaust the dimension, i.e. the operator is diagonalizable over Q.  The
    cost grows like dim^4, so a matrix larger than ORACLE_MAX_DIM raises
    ValueError.
    """
    if m.rows > ORACLE_MAX_DIM:
        raise ValueError(f"spectrum oracle capped at dimension {ORACLE_MAX_DIM}")
    den = m.den
    # char_{den*m}(x) = den^n char_m(x/den)
    coeffs = [int(c * den ** k) for k, c in enumerate(charpoly(m))]
    bound = max((sum(map(abs, col.values())) for col in m.columns.values()), default=0)
    spectrum = {}
    for t in range(-bound, bound + 1):
        value = 0
        for c in coeffs:
            value = value * t + c
        if value == 0:
            root = Fraction(t, den)
            g = _geometric_multiplicity(m, root)
            if g:
                spectrum[root] = g
    return spectrum, sum(spectrum.values()) == m.rows
