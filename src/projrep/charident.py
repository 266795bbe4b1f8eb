"""Block operators over a module and their characteristic identities.

Three square block matrices are built from a module's generator action: the
shifted quadratic-Casimir block matrix (identity-plus-generator blocks), and
the plain generator grid together with its negated transpose.  Each satisfies
a polynomial identity with explicitly predictable rational roots; the Lagrange
interpolation idempotents cut tensor products with the (dual) vector
representation into their isotypic pieces.  Everything is exact; a residual
is either the zero matrix or the identity fails.  The brute-force spectrum
oracle finds the rational eigenvalues from the exact characteristic
polynomial by an integer root search, with the standard library only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .glmodules import module_memo
from .linalg import (
    DegenerateSpectrumError,
    Matrix,
    _denominator,
    block,
    charpoly,
    eval_operator_polynomial,
    format_rational,
    idempotent_from_spectrum,
    rank,
)

__all__ = [
    "SpectrumReport",
    "adjoint_matrices",
    "brute_force_spectrum",
    "check_characteristic_identity",
    "predicted_adjoint_roots",
    "predicted_sigma2_roots",
    "sigma2_tilde",
    "tensor_projector",
]


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


def adjoint_matrices(V):
    """The generator grid M and its negated block-transpose, built once per
    module: every projector of `tensor_projector` shares them."""
    n = V.n

    def build():
        m = block([[V.e(i, j) for j in range(n)] for i in range(n)])
        mt = block([[-V.e(j, i) for j in range(n)] for i in range(n)])
        return m, mt

    return module_memo(V, "adjoint", None, build)


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
    shifted = m + Matrix.identity(m.rows).scale(-c)
    return m.rows - rank(shifted)


def check_characteristic_identity(op, roots):
    """Evaluate the product of (op - root) and measure each root's eigenspace."""
    residual = eval_operator_polynomial(op, list(roots))
    mults = tuple(_geometric_multiplicity(op, r) for r in roots)
    return SpectrumReport(tuple(Fraction(r) for r in roots), residual.is_zero(), mults)


def tensor_projector(V, r, dual):
    """Spectral projector onto one isotypic summand of the tensor with the
    vector representation (dual=True: its dual).  `r` is 1-based.

    Returns the zero matrix when the summand is absent from the tensor
    decomposition; raises DegenerateSpectrumError (with the colliding pair)
    if the needed roots coincide.
    """
    n = V.n
    if not (1 <= r <= n):
        raise ValueError(f"r must be in 1..{n}")
    mu = V.highest_weight
    d, dt = predicted_adjoint_roots(mu)
    m, mt = adjoint_matrices(V)
    roots = d if dual else dt
    op = m if dual else mt
    target = roots[r - 1]
    others = [roots[l] for l in range(n) if l != r - 1]
    for l in range(n):
        if l != r - 1 and roots[l] == target:
            raise DegenerateSpectrumError(target, (r, l + 1))
    return idempotent_from_spectrum(op, target, others)


def brute_force_spectrum(m, max_dim=48):
    """Exact rational spectrum oracle: (spectrum dict, is_complete).

    With den clearing m's denominators, the characteristic polynomial of
    den*m (exact Faddeev-LeVerrier) is monic with integer coefficients, so
    its rational roots are integers t, and Gershgorin bounds |t| by the
    largest absolute row sum of den*m.  Each candidate is tested by Horner's
    rule, and each root t/den of m has its eigenspace measured by rank
    deficiency.  is_complete reports whether the geometric multiplicities
    exhaust the dimension, i.e. the operator is diagonalizable over Q.
    """
    if m.rows > max_dim:
        raise ValueError(f"spectrum oracle capped at dimension {max_dim}")
    den = _denominator(m.entries.values())
    # char_{den*m}(x) = den^n char_m(x/den)
    coeffs = [int(c * den ** k) for k, c in enumerate(charpoly(m))]
    bound = int(den * max((sum(map(abs, row.values())) for row in m.rowmap().values()), default=0))
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
