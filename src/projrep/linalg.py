"""Exact sparse linear algebra over the rationals.

Everything downstream (module construction, characteristic identities,
graded rank checks) reduces to questions about rational matrices.  All
arithmetic here is exact: scalars are Python ints or ``fractions.Fraction``;
floats are rejected on input.

A matrix has one stored form: a positive integer denominator and the sparse
integer columns of the matrix scaled by it, reduced so that the two share no
common factor.  Sums, products, scaling, ``kron``, ``block`` and ``apply``
run on integers and divide once, at the end; Python ints keep them exact at
every size.  Every product of integer columns runs the one sparse product
loop, ``_product_into``, into a flat dict keyed by position: ``@``,
``apply``, ``commutator``, ``charpoly``, ``polynomial_traces`` (an operator
polynomial's scaled partial traces, and whether it vanishes) and
``product_difference_equals`` (whether a @ b - c @ d equals a target, with
no product built: the matrix side of a Lie relation).  ``Matrix(...)``
validates exact entries and converts them; ``Matrix.from_int_columns`` takes
integer columns as they are.  ``entries`` and ``column`` are exact read-only
views of the stored form.

There is one elimination, the fraction-free ``EchelonSpan``: it reduces
integer vectors by integer row operations and keeps one primitive integer
vector per echelon row.  ``rank``, the chain-rank oracle of the irreducibility
check and ``integer_kernel`` all go through it.  ``integer_kernel`` reads
primitive integer relations from tagged columns, column j with a 1 at index
rows + j; ``kernel_basis`` alone makes fractions, when it scales a relation.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

from .errors import ConsistencyViolationError

__all__ = [
    "DegenerateSpectrumError",
    "EchelonSpan",
    "Matrix",
    "add_into",
    "block",
    "charpoly",
    "commutator",
    "eval_operator_polynomial",
    "format_rational",
    "idempotent_from_spectrum",
    "integer_kernel",
    "kernel_basis",
    "kron",
    "parse_rational",
    "polynomial_traces",
    "product_difference_equals",
    "rank",
]


class DegenerateSpectrumError(ValueError):
    """Two roots handed to a spectral projector coincide."""

    def __init__(self, value, positions):
        self.value = value
        self.positions = positions
        super().__init__(
            f"repeated root {value!r} at positions {positions}; "
            "projector denominators would vanish"
        )


def _check_scalar(v):
    if isinstance(v, float) or isinstance(v, complex):
        raise TypeError(f"inexact scalar {v!r}; use int or Fraction")
    return v


def _norm(v):
    # Fractions with denominator 1 are stored as ints: pure-integer paths
    # then run on machine int arithmetic instead of Fraction's gcd churn.
    if isinstance(v, Fraction) and v.denominator == 1:
        return v.numerator
    return v


def add_into(acc, items, scale=1):
    """Sparse accumulation: acc[key] += scale * value for each (key, value).

    A key whose sum is zero is dropped and integral sums are stored as ints,
    so `acc` stays a clean sparse vector.  Returns `acc`.
    """
    for k, v in items:
        s = acc.get(k, 0) + scale * v
        if s == 0:
            acc.pop(k, None)
        else:
            acc[k] = _norm(s)
    return acc


def parse_rational(text):
    """Parse '3', '-7', 'num/den' or a decimal like '0.5' into an exact Fraction.
    Digits plus exponent past sys.get_int_max_str_digits() are refused before
    Fraction builds 10**exponent."""
    mantissa, _, exp = text.lower().partition("e")
    try:
        size = sum(map(str.isdigit, mantissa)) + abs(int(exp or 0))
    except ValueError:
        size = 0  # a malformed exponent, which Fraction rejects
    if 0 < (limit := sys.get_int_max_str_digits()) < size:
        raise ValueError(f"invalid rational: more than {limit} digits, "
                         "the limit of sys.get_int_max_str_digits()")
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"invalid rational {text!r}: zero denominator") from None
    except ValueError:
        raise ValueError(
            f"invalid rational {text!r}: "
            "expected an integer or num/den, or an exact decimal such as 0.5"
        ) from None


def format_rational(v):
    """Render exactly: integers bare, anything else as 'num/den'.  A numerator
    or denominator past sys.get_int_max_str_digits() digits is refused with
    the limit named, where str() would give Python's own message."""
    f = Fraction(v)
    try:
        if f.denominator == 1:
            return str(f.numerator)
        return f"{f.numerator}/{f.denominator}"
    except ValueError:
        raise ValueError(f"cannot print a rational of more than {sys.get_int_max_str_digits()} "
                         "digits, the limit of sys.get_int_max_str_digits()") from None


class Matrix:
    """Sparse exact matrix, stored as integer columns over one denominator.

    ``den`` is a positive int and ``columns`` maps col to {row: nonzero int}
    with no empty column; the entry at (row, col) is columns[col][row] / den.
    The form is canonical: den and the stored ints have gcd 1, so ``==``
    compares it directly.  ``entries`` and ``column(j)`` are read-only exact
    views, with an int where the value is integral and a Fraction otherwise.

    Instances are treated as immutable after construction; every operation
    returns a fresh Matrix, so concurrent reads are safe.
    """

    __slots__ = ("rows", "cols", "den", "columns")

    def __init__(self, rows, cols, entries=None):
        if rows < 0 or cols < 0:
            raise ValueError("negative dimension")
        clean = {}
        if entries:
            for (r, c), v in entries.items():
                _check_scalar(v)
                if not (0 <= r < rows and 0 <= c < cols):
                    raise IndexError(f"entry ({r},{c}) outside {rows}x{cols}")
                if v != 0:
                    clean[(r, c)] = v
        # with den the lcm of the denominators, the scaled ints share no factor with it
        den = _denominator(clean.values())
        columns = {}
        for (r, c), v in clean.items():
            columns.setdefault(c, {})[r] = v.numerator * (den // v.denominator)
        self.rows, self.cols, self.den, self.columns = rows, cols, den, columns

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_int_columns(cls, rows, cols, den, columns):
        """The matrix columns / den, from a positive int den and columns
        {col: {row: nonzero int}} with no empty column.  It keeps the dicts,
        and divides in place a factor common to den and every int."""
        g = den
        for col in columns.values():
            if g == 1:
                break
            g = math.gcd(g, *col.values())
        if g != 1:
            den //= g
            for col in columns.values():
                for r, v in col.items():
                    col[r] = v // g
        m = cls.__new__(cls)
        m.rows, m.cols, m.den, m.columns = rows, cols, den, columns
        return m

    @classmethod
    def identity(cls, n):
        return cls.from_int_columns(n, n, 1, {i: {i: 1} for i in range(n)})

    @classmethod
    def zeros(cls, rows, cols):
        return cls.from_int_columns(rows, cols, 1, {})

    @classmethod
    def from_cols(cls, columns, rows):
        """The matrix with these sparse exact columns, {row: value} each."""
        ent = {(r, c): v for c, col in enumerate(columns) for r, v in col.items()}
        return cls(rows, len(columns), ent)

    # -- exact views -------------------------------------------------------

    def _value(self, v):
        q, rem = divmod(v, self.den)
        return Fraction(v, self.den) if rem else q

    @property
    def entries(self):
        """{(row, col): value}, column by column in stored order."""
        return {(r, c): self._value(v) for c, col in self.columns.items() for r, v in col.items()}

    def column(self, j):
        """Column j as {row: value}."""
        return {r: self._value(v) for r, v in self.columns.get(j, {}).items()}

    # -- basic algebra -----------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.den == other.den
            and self.columns == other.columns
        )

    def __add__(self, other):
        return self._merge(other, 1)

    def __sub__(self, other):
        return self._merge(other, -1)

    def _merge(self, other, sign):
        """self + sign * other, on the columns scaled to the lcm of the two
        denominators."""
        self._shape_match(other)
        den = math.lcm(self.den, other.den)
        sa, sb = den // self.den, sign * (den // other.den)
        cols = {
            c: col.copy() if sa == 1 else {r: sa * v for r, v in col.items()}
            for c, col in self.columns.items()
        }
        for c, bcol in other.columns.items():
            if not add_into(cols.setdefault(c, {}), bcol.items(), sb):
                del cols[c]
        return Matrix.from_int_columns(self.rows, self.cols, den, cols)

    def __neg__(self):
        cols = {c: {r: -v for r, v in col.items()} for c, col in self.columns.items()}
        return Matrix.from_int_columns(self.rows, self.cols, self.den, cols)

    def scale(self, s):
        _check_scalar(s)
        if s == 0:
            return Matrix.zeros(self.rows, self.cols)
        p = s.numerator
        cols = {c: {r: p * v for r, v in col.items()} for c, col in self.columns.items()}
        return Matrix.from_int_columns(self.rows, self.cols, self.den * s.denominator, cols)

    def is_zero(self):
        return not self.columns

    def apply(self, vec):
        """Matrix-vector product on a sparse {index: value} column vector,
        on integers: vec is scaled once, to the lcm of its denominators, and
        each output entry divided once; integral entries come back as ints."""
        vden = _denominator(vec.values())
        scaled = {c: x.numerator * (vden // x.denominator) for c, x in vec.items() if x}
        acc = _product_into({}, self.columns, {0: scaled}, self.rows)
        den = self.den * vden
        return {r: Fraction(s, den) if s % den else s // den for r, s in acc.items() if s}

    def __matmul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        cols = _columns(_product_into({}, self.columns, other.columns, self.rows), self.rows)
        return Matrix.from_int_columns(self.rows, other.cols, self.den * other.den, cols)

    def __repr__(self):
        nnz = sum(map(len, self.columns.values()))
        return f"Matrix({self.rows}x{self.cols}, nnz={nnz})"

    def _shape_match(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")


def _product_into(acc, left, right, rows, f=1):
    """The one sparse column product loop: adds f * left[k][r] * right[j][k]
    into acc at the flat key j * rows + r, for integer columns {col: {row:
    int}}.  A sum that cancels stays in acc as 0.  Returns acc."""
    get = acc.get
    for j, col in right.items():
        base = j * rows
        for k, x in col.items():
            inner = left.get(k)
            if inner is None:
                continue
            x *= f
            for r, v in inner.items():
                key = base + r
                acc[key] = get(key, 0) + v * x
    return acc


def _columns(flat, rows):
    """The integer columns {j: {r: int}} of a flat {j * rows + r: int}, with
    its zeros dropped, columns and rows ascending."""
    cols = {}
    for key in sorted(flat):
        if v := flat[key]:
            j, r = divmod(key, rows)
            cols.setdefault(j, {})[r] = v
    return cols


def commutator(a, b):
    """ab - ba of square matrices of one size, over a.den * b.den, rows ascending."""
    n = a.rows
    if not n == a.cols == b.rows == b.cols:
        raise ValueError("commutator needs square matrices of one size")
    flat = _product_into(_product_into({}, a.columns, b.columns, n), b.columns, a.columns, n, -1)
    return Matrix.from_int_columns(n, n, a.den * b.den, _columns(flat, n))


def product_difference_equals(a, b, c, d, target=None):
    """Whether a @ b - c @ d equals target, a Matrix, or zero when it is None.

    Exact, and no product or difference is built.  Both sides are scaled to
    integers over a common multiple of L = lcm(a.den * b.den, c.den * d.den)
    and target.den; both products and minus the target accumulate into one
    {j * rows + r: int}, a key per position (r, j), which must be all zero.
    """
    if a.cols != b.rows or c.cols != d.rows or (a.rows, b.cols) != (c.rows, d.cols):
        raise ValueError("shape mismatch in a @ b - c @ d")
    rows = a.rows
    den = math.lcm(a.den * b.den, c.den * d.den)
    tf, acc = 1, {}
    if target is not None:
        if (target.rows, target.cols) != (rows, b.cols):
            raise ValueError("shape mismatch between a @ b - c @ d and its target")
        g = math.gcd(den, target.den)
        tf, af = target.den // g, -(den // g)
        acc = {j * rows + r: af * t for j, col in target.columns.items() for r, t in col.items()}
    _product_into(acc, a.columns, b.columns, rows, tf * (den // (a.den * b.den)))
    _product_into(acc, c.columns, d.columns, rows, -tf * (den // (c.den * d.den)))
    return not any(acc.values())


def block(grid):
    """The block matrix of a grid, given as a list of rows of matrices.

    Blocks in one grid row share their row count, and blocks in one grid
    column their column count; a ragged grid raises ValueError.
    """
    widths = [m.cols for m in grid[0]]
    den = math.lcm(*(m.den for row in grid for m in row))
    cols = {}
    top = 0
    for row in grid:
        height = row[0].rows
        if [m.cols for m in row] != widths or any(m.rows != height for m in row):
            raise ValueError("ragged block grid")
        left = 0
        for m in row:
            f = den // m.den
            for c, col in m.columns.items():
                out = cols.setdefault(left + c, {})
                for r, v in col.items():
                    out[top + r] = f * v
            left += m.cols
        top += height
    return Matrix.from_int_columns(top, sum(widths), den, cols)


def kron(a, b):
    """Kronecker product, row-major blocks: (a⊗b)[(i,k),(j,l)] = a[i,j]*b[k,l]."""
    cols = {}
    for j, acol in a.columns.items():
        for l, bcol in b.columns.items():
            cols[j * b.cols + l] = {
                i * b.rows + k: av * bv for i, av in acol.items() for k, bv in bcol.items()
            }
    return Matrix.from_int_columns(a.rows * b.rows, a.cols * b.cols, a.den * b.den, cols)


# -- elimination ---------------------------------------------------------------


def _denominator(values):
    """Least common multiple of the denominators of exact scalars."""
    return math.lcm(*(v.denominator for v in values))


def _combine(a, x, b, y):
    """a*x - b*y on sparse integer vectors; reuses x when a is 1."""
    out = {k: a * v for k, v in x.items()} if a != 1 else x
    for k, v in y.items():
        s = out.get(k, 0) - b * v
        if s:
            out[k] = s
        else:
            del out[k]
    return out


def rank(m):
    """Rank over Q: the dimension of the EchelonSpan of m's columns."""
    span = EchelonSpan()
    for col in m.columns.values():
        span.insert(col)
    return span.dim


def integer_kernel(columns, rows):
    """Primitive integer relations among sparse integer columns, one per
    dependent column: {j: int} with sum_j rel[j] * columns[j] = 0.

    Column j enters an EchelonSpan from left to right, tagged with a 1 at
    index rows + j; every row index of a column is below `rows`.  No tag is
    ever a pivot, so the tags of a reduced column are the combination of
    columns that it equals.  A column whose residual has an entry below rows
    is independent and becomes a row; one whose residual is tags only is
    dependent, and the residual is its relation: nonzero at that column, 0
    at every other dependent column.
    """
    span = EchelonSpan()
    relations = []
    for j, col in enumerate(columns):
        residual = span._reduce({**col, rows + j: 1})
        if min(residual) < rows:
            span._add(residual)
        else:
            relations.append({i - rows: v for i, v in residual.items()})
    return relations


def kernel_basis(m):
    """Basis of the right null space, one vector per dependent column: the
    `integer_kernel` relations among m's columns, each scaled so its first
    nonzero entry is 1, which makes this the reduced basis read off the
    reduced row echelon form."""
    basis = []
    for rel in integer_kernel([m.columns.get(j, {}) for j in range(m.cols)], m.rows):
        lead = rel[min(rel)]
        vec = [Fraction(0)] * m.cols
        for j, v in rel.items():
            vec[j] = Fraction(v, lead)
        basis.append(tuple(vec))
    return basis


# -- operator polynomials ----------------------------------------------------


def eval_operator_polynomial(op, roots):
    """Product of (op - r*Id) over the given roots.

    The factors commute, so their order cannot change the value; they are
    multiplied right to left, each product on the integer columns.
    """
    if op.rows != op.cols:
        raise ValueError("operator polynomial needs a square matrix")
    for r in roots:
        _check_scalar(r)
    ident = Matrix.identity(op.rows)
    out = ident
    for r in reversed(roots):
        out = (op - ident.scale(r)) @ out
    return out


def polynomial_traces(op, numerators, den):
    """(traces, vanishes) of the product of (op - r_l*Id), r_l = numerators[l] / den.

    With op = C / D on its stored integer columns, the integer factors
    den*C - numerators[l]*D*Id = den*D*(op - r_l) are applied right to left
    to each unit column e_j in turn, as {row: int}: one `_product_into` pass
    per factor, seeded with the shift times the column.  No Matrix, Fraction
    or gcd is made.  traces[s] sums the j-th entries before the (s+1)-th
    factor, (den*D)^s * tr P_s with P_s the product over the last s roots,
    and `vanishes` tells whether every column of the whole product is zero.
    """
    if op.rows != op.cols:
        raise ValueError("operator polynomial needs a square matrix")
    left = {k: {r: den * a for r, a in col.items()} for k, col in op.columns.items()}
    shifts = [-p * op.den for p in reversed(numerators)]
    traces = [0] * len(shifts)
    vanishes = True
    for j in range(op.rows):
        col = {j: 1}
        for s, shift in enumerate(shifts):
            traces[s] += col.get(j, 0)
            acc = {k: shift * x for k, x in col.items()} if shift else {}
            _product_into(acc, left, {0: col}, op.rows)
            col = acc if all(acc.values()) else {r: v for r, v in acc.items() if v}
        vanishes = vanishes and not col
    return traces, vanishes


def idempotent_from_spectrum(op, target, others):
    """Lagrange projector onto the `target` eigenspace of a split operator.

    Computes prod over others l of (op - l*Id)/(target - l): one integer
    operator polynomial whose single final division also takes the
    denominator prod (target - l).  Idempotent whenever op is annihilated by
    the full product over {target} | others.
    """
    if op.rows != op.cols:
        raise ValueError("projector needs a square matrix")
    values = [target] + list(others)
    for v in values:
        _check_scalar(v)
    seen = {}
    for pos, v in enumerate(values):
        key = Fraction(v)
        if key in seen:
            raise DegenerateSpectrumError(v, (seen[key], pos))
        seen[key] = pos
    den = 1
    for l in others:
        den = den * (target - l)
    return eval_operator_polynomial(op, list(others)).scale(Fraction(1, den))


# -- incremental spans -------------------------------------------------------


class EchelonSpan:
    """Incrementally built subspace with exact membership.

    Fraction-free: an inserted vector is scaled to integers, and each echelon
    row is a primitive integer vector whose pivot, its least index, is
    positive.  vec is divided by the gcd of its entries before every
    reduction step, which replaces vec by a*vec - b*row, where a and b are
    the row's pivot and vec's entry at that column over their gcd.  No
    Fraction arises.
    """

    def __init__(self):
        self._pivots = {}  # pivot index -> echelon row
        self.dim = 0

    def _reduce(self, vec):
        """The residual of vec: a primitive integer vector with no entry at a
        pivot, zero exactly when vec lies in the span.  vec is not changed."""
        den = _denominator(vec.values())
        vec = {c: v.numerator * (den // v.denominator) for c, v in vec.items() if v != 0}
        pivots = self._pivots
        while True:
            g = math.gcd(*vec.values())
            if g > 1:
                vec = {c: v // g for c, v in vec.items()}
            hit = min((c for c in vec if c in pivots), default=None)
            if hit is None:
                return vec
            row = pivots[hit]
            g = math.gcd(row[hit], vec[hit])
            vec = _combine(row[hit] // g, vec, vec[hit] // g, row)

    def _add(self, residual):
        """Append a nonzero residual as an echelon row; returns its basis id."""
        pcol = min(residual)
        if residual[pcol] < 0:
            residual = {c: -v for c, v in residual.items()}
        self._pivots[pcol] = residual
        self.dim += 1
        return self.dim - 1

    def insert(self, vec):
        """Insert a sparse vector; returns its basis id, or None if dependent."""
        residual = self._reduce(vec)
        return self._add(residual) if residual else None


# -- characteristic polynomial (spectrum oracle substrate) -------------------


def charpoly(m):
    """Monic characteristic polynomial, coefficients by descending power.

    Faddeev-LeVerrier on A = den*m, the stored integer columns:
    M_k = A M_{k-1} + c_k Id with c_k = -tr(A M_{k-1}) / k, every division
    exact.  Intended for desk-scale oracles.
    """
    if m.rows != m.cols:
        raise ValueError("charpoly of non-square matrix")
    n = m.rows
    mk = {i: {i: 1} for i in range(n)}
    coeffs = [1]
    for k in range(1, n + 1):
        am = _product_into({}, m.columns, mk, n)
        ck, rem = divmod(-sum(am.get(i * n + i, 0) for i in range(n)), k)
        if rem:
            raise ConsistencyViolationError("Faddeev-LeVerrier division must be exact")
        coeffs.append(ck)
        add_into(am, ((i * n + i, ck) for i in range(n)))
        mk = _columns(am, n)
    # coeffs are for den*m; char_m(x) = char_{den*m}(den*x) / den^n.
    return [_norm(Fraction(c, m.den ** k)) for k, c in enumerate(coeffs)]
