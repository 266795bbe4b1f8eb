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
times |S_n . w|.  The blocks are cut straight from the generator grid;
no n*dim operator is built.  Where the identity holds
on a block and its roots are distinct, the block is diagonalizable over Q,
and each root's multiplicity comes from the traces of the partial products
that the residual already forms (`identity_on_blocks`), with no rank.
Ranks measure multiplicities only where that fails (a nonzero residual or
a repeated root) and in the oracles: `check_characteristic_identity` and
`tensor_projector` keep the all-columns computation, by rank, as the
oracle of the block path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod

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
    "sigma2_blocks",
    "sigma2_tilde",
    "tensor_projector",
    "weight_blocks",
]

ORACLE_MAX_DIM = 48


def _generator_grid(V, transpose):
    """The n x n grid of generator matrices, E_{i,j} at (i, j), or E_{j,i}
    when `transpose`; no matrix is copied."""
    n = V.n
    return [[V.e(j, i) if transpose else V.e(i, j) for j in range(n)] for i in range(n)]


def sigma2_tilde(V):
    """Identity-plus-generator block matrix: block (i,j) holds E_{j,i}, plus
    b*Id on the diagonal blocks.

    The block order matters: with blocks E_{j,i} this is exactly the matrix
    whose columns are the degree-one raising chains (stack the i-th
    pseudo-translation of every degree-zero basis vector), and its roots are
    the m_i below.  Flipping the blocks to E_{i,j} shifts every root by n-1
    and breaks the identity.
    """
    return block(_generator_grid(V, transpose=True)) + Matrix.identity(V.n * V.dim).scale(V.b)


def predicted_sigma2_roots(mu):
    """Roots m_i = mu_i + |mu| - i + 1 (i running 1..n)."""
    tot = sum(mu)
    return [Fraction(mu[i] + tot - i) for i in range(len(mu))]


def adjoint_matrices(V, dual):
    """The generator grid M (dual) or its negated block-transpose, built once
    per module and `dual`: every projector of `tensor_projector` shares it."""

    def build():
        m = block(_generator_grid(V, transpose=not dual))
        return m if dual else -m

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
    """Evaluate the product of (op - root) and measure each root's eigenspace
    as rank deficiency on all columns: the oracle of `identity_on_blocks`."""
    roots = list(roots)
    residual_is_zero = eval_operator_polynomial(op, roots).is_zero()
    mults = tuple(_geometric_multiplicity(op, r) for r in roots)
    return SpectrumReport(tuple(Fraction(r) for r in roots), residual_is_zero, mults)


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


def weight_blocks(V, grid, dual, sign=1, shift=0):
    """[(B_w, |S_n . w|)]: the square blocks on the dominant weight spaces w
    of C^n (x) V (dual: of its dual) of the block operator whose block (i, j)
    is sign * grid[i][j], plus shift * Id when i == j.

    Column (j, q) of a block holds column q of grid[i][j] at the rows (i, r),
    for each i, and the shift on its diagonal; the operator itself is never
    built.  Raises ConsistencyViolationError when a dominant column has an
    entry in a row of another weight: the blocks then do not describe the
    operator.
    """
    dim = V.dim
    shift = Fraction(shift)
    den = lcm(shift.denominator, *(m.den for row in grid for m in row))
    diagonal = shift.numerator * (den // shift.denominator)
    blocks = []
    for w, indices in _dominant_weight_spaces(V, dual).items():
        position = {g: t for t, g in enumerate(indices)}
        cols = {}
        for t, g in enumerate(indices):
            j, q = divmod(g, dim)
            out = {}
            for i, row in enumerate(grid):
                m = row[j]
                col = m.columns.get(q)
                if col is None:
                    continue
                f, base = sign * (den // m.den), i * dim
                for r, v in col.items():
                    s = position.get(base + r)
                    if s is None:
                        raise ConsistencyViolationError(
                            f"{V!r}: a block operator maps index {g} to index {base + r} of another weight"
                        )
                    out[s] = f * v
            if diagonal:
                v = out.get(t, 0) + diagonal
                if v:
                    out[t] = v
                else:
                    del out[t]
            if out:
                cols[t] = out
        size = len(indices)
        blocks.append((Matrix.from_int_columns(size, size, den, cols), orbit_size(w)))
    return blocks


def sigma2_blocks(V):
    """weight_blocks of sigma2_tilde: block (i, j) holds E_{j,i}, plus b*Id on
    the diagonal."""
    return weight_blocks(V, _generator_grid(V, transpose=True), dual=False, shift=V.b)


def adjoint_blocks(V, dual):
    """weight_blocks of the generator grid (dual) or of its negated
    transpose, memoized per module."""

    def cut():
        if dual:
            return weight_blocks(V, _generator_grid(V, transpose=False), dual)
        return weight_blocks(V, _generator_grid(V, transpose=True), dual, sign=-1)

    return module_memo(V, "adjoint_blocks", dual, cut)


def _trace_multiplicities(traces, roots):
    """Multiplicities m_a of the distinct roots r_a in a diagonalizable block
    B whose eigenvalues lie among them, from traces[s] = tr P_s, where P_s is
    the product of (B - r_l) over the last s roots T_s.

    tr P_s = sum over a not in T_s of m_a prod_{l in T_s} (r_a - r_l), and
    the equation of s = len(roots) - 1 - a adds only m_a to the unknowns of
    the roots before a, so the system is solved from the first root on.
    """
    last = len(roots) - 1
    mults = []
    for a, r in enumerate(roots):
        later = roots[a + 1:]
        known = sum(m * prod(roots[c] - l for l in later) for c, m in enumerate(mults))
        m = Fraction(traces[last - a] - known) / prod(r - l for l in later)
        if m.denominator != 1 or m < 0:
            raise ConsistencyViolationError(
                f"trace multiplicity {m} of root {r} is not a nonnegative integer"
            )
        mults.append(m.numerator)
    return mults


def identity_on_blocks(blocks, roots):
    """SpectrumReport of an operator given by square blocks [(B, weight)],
    such as its dominant weight blocks (`weight_blocks`): the residual is zero
    iff the product of (B - root) vanishes on every block, and a root's
    multiplicity is the sum of its multiplicities on the blocks times their
    weights.

    Where the product vanishes on a block and the roots are distinct, the
    block is diagonalizable over Q with eigenvalues among the roots, and its
    multiplicities come from the traces of the partial products
    (`_trace_multiplicities`).  Otherwise, a nonzero residual or a repeated
    root, they are eigenspace dimensions measured by rank, as the oracle
    `check_characteristic_identity` measures them on all columns.
    """
    roots = list(roots)
    distinct = len(set(roots)) == len(roots)
    residual_is_zero = True
    mults = [0] * len(roots)
    for b, size in blocks:
        traces = []
        vanishes = eval_operator_polynomial(b, roots, traces=traces).is_zero()
        residual_is_zero = residual_is_zero and vanishes
        if vanishes and distinct:
            on_block = _trace_multiplicities(traces, roots)
        else:
            on_block = [_geometric_multiplicity(b, r) for r in roots]
        for a, m in enumerate(on_block):
            mults[a] += m * size
    return SpectrumReport(tuple(Fraction(r) for r in roots), residual_is_zero, tuple(mults))


def block_operators(V):
    """(name, dominant weight blocks, predicted roots) of each block operator
    whose characteristic identity `verify-identity` reports."""
    mu = V.highest_weight
    d, dt = predicted_adjoint_roots(mu)
    return (
        ("sigma2", sigma2_blocks(V), predicted_sigma2_roots(mu)),
        ("adjoint", adjoint_blocks(V, dual=True), d),
        ("adjoint_dual", adjoint_blocks(V, dual=False), dt),
    )


def projector_rank(V, r, dual):
    """rank(tensor_projector(V, r, dual)), from the dominant weight blocks;
    raises DegenerateSpectrumError as tensor_projector does.

    Where the adjoint identity holds with distinct roots, the projector is
    the spectral one and its rank is the target root's multiplicity in the
    identity report of the blocks, read from traces and memoized per module
    and `dual`.  Otherwise each block's Lagrange projector has its rank
    measured.
    """
    target, others = _projector_roots(V, r, dual)
    roots = predicted_adjoint_roots(V.highest_weight)[0 if dual else 1]
    report = module_memo(
        V, "adjoint_report", dual, lambda: identity_on_blocks(adjoint_blocks(V, dual), roots)
    )
    if report.residual_is_zero and len(set(report.roots)) == len(report.roots):
        return report.multiplicities[r - 1]
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
