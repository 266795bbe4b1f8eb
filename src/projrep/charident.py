"""Block operators over a module and their characteristic identities.

Three square block matrices are built from a module's generator action: the
shifted quadratic-Casimir block matrix (identity-plus-generator blocks), and
the plain generator grid together with its negated transpose: two grids,
three operators, one report per grid.  `_definition` holds each one's grid,
sign, diagonal shift and predicted roots; everything else is derived from
it.  Each satisfies a polynomial identity with explicitly predictable
rational roots; the Lagrange interpolation idempotents cut tensor products
with the (dual) vector representation into their isotypic pieces.
Everything is exact; a residual is either the zero matrix or the identity
fails.  The brute-force spectrum oracle finds the rational eigenvalues from
the exact characteristic polynomial by an integer root search, with the
standard library only; `selfcheck` runs it on every block operator of
dimension up to ORACLE_MAX_DIM.

Each block operator commutes with the diagonal gl(n) action on C^n (x) V
(sigma2 and adjoint_dual) or on its dual (adjoint): the index (i, q),
global i*dim + q, has weight w_q + e_i, or w_q - e_i on the dual.  Its
operator polynomials, eigenspaces and projectors are then gl(n)-submodules
or module maps, so the command line reads them off the square blocks on the
dominant weight spaces alone (`weight_blocks`, over the positions that
`glmodules.dominant_weight_spaces` groups by weight): a residual vanishes
iff it vanishes on every dominant block (a nonzero quotient has a dominant
highest weight), and a kernel's or image's dimension is the sum over
dominant w of its dimension on the block of w times |S_n . w|.  The blocks
are cut straight from the generator grid, and no n*dim operator is built;
an operator's identity with roots r is its grid's with roots
(r - shift) / sign, so each grid is checked once (`block_report`).  The
identity holds on every block and its roots are distinct, so each block is
diagonalizable over Q, and each root's multiplicity comes from the traces
of the partial products that one integer pass per block records while it
decides the residual (`identity_on_blocks`), with no rank; a block where
the identity fails, or a repeated root, is refused.  `full_report`,
`check_characteristic_identity` and `tensor_projector` keep the all-columns
computation, by rank, as the oracle of the block path.
"""

from __future__ import annotations

from collections import namedtuple
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
    polynomial_traces,
    rank,
)

__all__ = [
    "OPERATORS",
    "SpectrumReport",
    "adjoint_matrices",
    "block_report",
    "brute_force_spectrum",
    "check_characteristic_identity",
    "full_operator",
    "full_report",
    "identity_on_blocks",
    "predicted_adjoint_roots",
    "predicted_sigma2_roots",
    "projector_rank",
    "sigma2_tilde",
    "tensor_projector",
    "weight_blocks",
]

ORACLE_MAX_DIM = 48

# the block operators whose characteristic identities `verify-identity` reports
OPERATORS = ("sigma2", "adjoint", "adjoint_dual")


def predicted_sigma2_roots(mu):
    """Roots m_i = mu_i + |mu| - i + 1 (i running 1..n)."""
    tot = sum(mu)
    return [Fraction(mu[i] + tot - i) for i in range(len(mu))]


def predicted_adjoint_roots(mu):
    """(d, d~) with d_i = mu_i + n - i and d~_i = n - 1 - d_i."""
    n = len(mu)
    d = [Fraction(mu[i] + n - (i + 1)) for i in range(n)]
    return d, [Fraction(n - 1) - x for x in d]


def _generator_grid(V, dual):
    """The n x n grid of generator matrices, E_{i,j} at (i, j) when `dual`,
    else E_{j,i}; no matrix is copied."""
    n = V.n
    return [[V.e(i, j) if dual else V.e(j, i) for j in range(n)] for i in range(n)]


def _definition(V, name):
    """(dual, sign, shift, roots) of the block operator `name`: block (i, j)
    is sign * G[i][j], plus shift * Id when i == j, for the generator grid
    G = _generator_grid(V, dual); its index (i, q) has weight w_q + e_i, or
    w_q - e_i when `dual`; and `roots` are the predicted roots of its
    characteristic identity.  Two grids, three operators, one report per
    grid: the operator's root r is its grid's root (r - shift) / sign.

    sigma2: block (i, j) holds E_{j,i}, plus b*Id on the diagonal.  The
    block order matters: this is exactly the matrix whose columns are the
    degree-one raising chains (stack the i-th pseudo-translation of every
    degree-zero basis vector), and its roots are the m_i.  Flipping the
    blocks to E_{i,j} shifts every root by n-1 and breaks the identity.
    adjoint: the grid E_{i,j}, on the dual, with roots d.
    adjoint_dual: the negated grid E_{j,i}, with roots d~.  Since |mu| = b,
    m_i - b = -d~_i: sigma2 and adjoint_dual share their grid's report.
    """
    mu = V.highest_weight
    if name == "sigma2":
        return False, 1, V.b, predicted_sigma2_roots(mu)
    d, dt = predicted_adjoint_roots(mu)
    if name == "adjoint":
        return True, 1, Fraction(0), d
    if name == "adjoint_dual":
        return False, -1, Fraction(0), dt
    raise ValueError(f"no block operator named {name!r}")


def _adjoint(dual):
    """The name of the adjoint block operator on the dual (or not)."""
    return "adjoint" if dual else "adjoint_dual"


def full_operator(V, name):
    """The whole n*dim block operator `name`, memoized per module: the input
    of the oracles, never built on the command line."""

    def build():
        dual, sign, shift, _ = _definition(V, name)
        return block(_generator_grid(V, dual)).scale(sign) + Matrix.identity(V.n * V.dim).scale(shift)

    return module_memo(V, "operator", name, build)


def sigma2_tilde(V):
    """The identity-plus-generator block matrix (`_definition`)."""
    return full_operator(V, "sigma2")


def adjoint_matrices(V, dual):
    """The generator grid M (dual) or its negated block-transpose."""
    return full_operator(V, _adjoint(dual))


class SpectrumReport(namedtuple("SpectrumReport", "roots residual_is_zero multiplicities")):
    """Outcome of a characteristic-identity check."""

    __slots__ = ()

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


def full_report(V, name):
    """check_characteristic_identity of the whole block operator `name` with
    its predicted roots, memoized per module: the one oracle report that the
    selfcheck suites share."""
    roots = _definition(V, name)[-1]
    return module_memo(V, "full_report", name,
                       lambda: check_characteristic_identity(full_operator(V, name), roots))


def tensor_projector(V, r, dual):
    """Spectral projector onto one isotypic summand of the tensor with the
    vector representation (dual=True: its dual), the zero matrix when the
    summand is absent.  `r` is 1-based."""
    if not (1 <= r <= V.n):
        raise ValueError(f"r must be in 1..{V.n}")
    roots = _definition(V, _adjoint(dual))[-1]
    others = roots[:r - 1] + roots[r:]
    return idempotent_from_spectrum(adjoint_matrices(V, dual), roots[r - 1], others)


# -- the same answers from the dominant weight blocks --------------------------


def weight_blocks(V, dual):
    """[(B_w, |S_n . w|)]: the square blocks of the generator grid
    (`_generator_grid`) on the dominant weight spaces w of C^n (x) V, or of
    its dual, where index (i, q) has weight w_q + e_i (dual: w_q - e_i).

    Column (j, q) of a block holds column q of grid[i][j] at the rows
    (i, r), for each i; the grid's block matrix itself is never built.
    Raises ConsistencyViolationError when a dominant column has an entry in
    a row of another weight: the blocks then do not describe the grid.
    """
    grid = _generator_grid(V, dual)
    dim = V.dim
    den = lcm(*(m.den for row in grid for m in row))
    sign = -1 if dual else 1
    shifts = [tuple(sign if t == i else 0 for t in range(V.n)) for i in range(V.n)]
    blocks = []
    for w, indices in dominant_weight_spaces(V, shifts).items():
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
                f, base = den // m.den, i * dim
                for r, v in col.items():
                    s = position.get(base + r)
                    if s is None:
                        raise ConsistencyViolationError(
                            f"{V!r}: the generator grid maps index {g} to index {base + r} of another weight"
                        )
                    out[s] = f * v
            if out:
                cols[t] = out
        size = len(indices)
        blocks.append((Matrix.from_int_columns(size, size, den, cols), orbit_size(w)))
    return blocks


def identity_on_blocks(blocks, roots):
    """SpectrumReport of an operator given by square blocks [(B, weight)],
    such as its dominant weight blocks (`weight_blocks`), whose product of
    (B - root) vanishes on every block: a root's multiplicity is the sum of
    its multiplicities on the blocks times their weights.

    Each block B = C / D is then diagonalizable over Q with eigenvalues
    among the distinct roots r_a = p_a / Q, so the trace of the product P_s
    over the last s roots is the sum over c <= a of m_c * w[a][c] / Q^s,
    with s = len(roots) - 1 - a and the table w[a][c] = prod_{l > a}
    (p_c - p_l).  `polynomial_traces` gives (Q*D)^s * tr P_s, so each m_a,
    from the first root on, is one exact division.  Raises
    DegenerateSpectrumError on a repeated root and ConsistencyViolationError
    on a block where the product does not vanish or a multiplicity is not a
    nonnegative integer.
    """
    roots = list(roots)
    for a, r in enumerate(roots):
        if r in roots[:a]:
            raise DegenerateSpectrumError(r, (roots.index(r), a))
    q = lcm(*(r.denominator for r in roots))
    p = [r.numerator * (q // r.denominator) for r in roots]
    last = len(roots) - 1
    w = [[prod(pc - pl for pl in p[a + 1:]) for pc in p[:a + 1]] for a in range(len(p))]
    mults = [0] * len(roots)
    for b, size in blocks:
        traces, vanishes = polynomial_traces(b, p, q)
        if not vanishes:
            raise ConsistencyViolationError(
                f"the characteristic identity with roots {[format_rational(r) for r in roots]} "
                f"fails on a {b.rows}x{b.rows} block"
            )
        found = []
        for a, row in enumerate(w):
            f = b.den ** (last - a)
            rest = traces[last - a] - f * sum(m * x for m, x in zip(found, row))
            m, rem = divmod(rest, f * row[a])
            if rem or m < 0:
                raise ConsistencyViolationError(
                    f"trace multiplicity {Fraction(rest, f * row[a])} of root {roots[a]} "
                    "is not a nonnegative integer"
                )
            found.append(m)
            mults[a] += m * size
    return SpectrumReport(tuple(Fraction(r) for r in roots), True, tuple(mults))


def block_report(V, name):
    """The block operator `name`'s predicted roots with the multiplicities
    of identity_on_blocks on its grid's dominant weight blocks at the grid
    roots (r - shift) / sign, memoized per module under (dual, grid roots),
    so sigma2 and adjoint_dual share one pass; a ConsistencyViolationError
    names the operator."""
    dual, sign, shift, roots = _definition(V, name)
    grid_roots = tuple((r - shift) / sign for r in roots)
    try:
        grid = module_memo(V, "block_report", (dual, grid_roots),
                           lambda: identity_on_blocks(weight_blocks(V, dual), grid_roots))
    except ConsistencyViolationError as exc:
        raise ConsistencyViolationError(f"{name}: {exc}") from None
    return SpectrumReport(tuple(roots), True, grid.multiplicities)


def projector_rank(V, r, dual):
    """rank(tensor_projector(V, r, dual)): the multiplicity of summand r's
    root in the block report of the adjoint operator, read from traces."""
    if not (1 <= r <= V.n):
        raise ValueError(f"r must be in 1..{V.n}")
    return block_report(V, _adjoint(dual)).multiplicities[r - 1]


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
