"""Dense matrices over an exact field: arithmetic, Gaussian elimination and
the minimal polynomial of a tuple of square matrices.

Matrices are immutable (tuple-of-tuples storage); every operation returns a
new value.  Target sizes are small (dimensions well under 200).

- The public constructor ``Matrix(field, rows, cols, data)`` checks the shape
  of its data and stores ``F_p`` entries through ``field.coerce``, so they are
  canonical.  Results computed here (products, sums, ``rref``, transposes,
  stacks, ...) and matrices whose entries are already canonical are built by
  ``Matrix._make``, which trusts both.
- Elimination runs in two passes, and each entry point pays only for what it
  reads.  The forward pass (``_echelon``) scales each pivot row to a 1 and
  clears the rows below it; the back-substitution (``_back_substitute``) then
  clears above the pivots from the last one up, at a chosen set of columns
  only.  That is exact: a pivot column's entries above its pivot are never
  changed by a later pivot, so the chosen columns come out as in the reduced
  row-echelon form, which is unique.
  - ``rank``, ``column_space_basis``, ``is_injective`` and ``is_surjective``
    run the forward pass alone.
  - ``kernel_basis`` returns after the forward pass when no column is free,
    and otherwise back-substitutes the free columns only.
  - ``solve`` (and so ``inverse``) seeks pivots in the coefficient columns
    only, returns None when a row left without a pivot there is nonzero in
    the right-hand side, and otherwise back-substitutes the right-hand
    columns only.  A right-hand side with no columns is always consistent,
    and its cols x 0 answer is returned without elimination.
  - ``rref`` back-substitutes every non-pivot column and clears the pivot
    columns: the full reduced form.
  - Outside this module, ``repcat.core._unit_complement`` back-substitutes
    only the identity block of [f | I], and ``homology.ExtSpace`` reads the
    forward pass's pivots alone.
- Both passes and ``minimal_polynomial`` update rows in place through
  ``_eliminate`` and visit only the nonzero columns of the pivot row: each
  pivot row is listed once as (column, value) pairs right of its 1, and every
  row cleared with it changes at those columns alone.  Over ``F_p`` that
  update, like ``__mul__``, computes on plain ints (canonical, 0 <= x < p)
  with one ``% p`` per cell; over Q and k(t) it calls the field's methods.
  Skipping zero cells changes no result.
- ``minimal_polynomial`` makes one incremental echelon pass over the
  flattened powers instead of solving a new system for every degree.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import count
from operator import mul as _int_mul

from ..errors import DimensionMismatch
from .fields import PrimeField


def _eliminate(F, rows, c, pairs):
    """Clear column c of each row in rows, in place, with a pivot row that has
    a 1 at c and the nonzero (column, value) pairs right of c given: each row
    with f = row[c] != 0 loses f times the pivot row at those columns only."""
    if isinstance(F, PrimeField):
        p = F.p
        for row in rows:
            f = row[c]
            if f:
                row[c] = 0
                for j, x in pairs:
                    row[j] = (row[j] - f * x) % p
    else:
        zero, mul, sub = F.zero, F.mul, F.sub
        for row in rows:
            f = row[c]
            if f != zero:
                row[c] = zero
                for j, x in pairs:
                    row[j] = sub(row[j], mul(f, x))


def _back_substitute(F, m, pivots, cols):
    """Clear above each pivot of the forward-eliminated rows m, in place, from
    the last pivot up, updating only the columns listed (ascending) in cols.

    A pivot column's entries above its pivot are never changed by a later
    pivot (every later pivot row is zero left of its own pivot), so each is
    still as the forward pass left it when its pivot is reached; the entries
    of m at the columns in cols then equal those of the reduced row-echelon
    form.  Other columns keep forward-pass values, except that a pivot
    column's entries in the rows its pivot clears are set to 0."""
    zero = F.zero
    for k in range(len(pivots) - 1, 0, -1):
        row, c = m[k], pivots[k]
        pairs = [(j, row[j]) for j in cols[bisect_right(cols, c):] if row[j] != zero]
        if pairs:
            _eliminate(F, m[:k], c, pairs)


class Matrix:
    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field, rows: int, cols: int, data):
        self.field = field
        self.rows = rows
        self.cols = cols
        data = tuple(tuple(r) for r in data)
        if len(data) != rows or any(len(r) != cols for r in data):
            raise DimensionMismatch(f"expected {rows}x{cols} data")
        if isinstance(field, PrimeField):
            data = tuple(tuple(map(field.coerce, r)) for r in data)
        self.data = data

    @classmethod
    def _make(cls, field, rows, cols, data):
        """A matrix from rows already known to have the stated shape."""
        out = object.__new__(cls)
        out.field, out.rows, out.cols = field, rows, cols
        out.data = tuple(map(tuple, data))
        return out

    # -- constructors -------------------------------------------------------

    @classmethod
    def zeros(cls, field, rows, cols):
        return cls._make(field, rows, cols, [(field.zero,) * cols] * rows)

    @classmethod
    def identity(cls, field, n):
        z, o = field.zero, field.one
        return cls._make(field, n, n, [[o if i == j else z for j in range(n)]
                                       for i in range(n)])

    @classmethod
    def column(cls, field, entries):
        return cls(field, len(entries), 1, [[e] for e in entries])

    # -- basic structure -----------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and other.field == self.field
            and other.rows == self.rows
            and other.cols == self.cols
            and other.data == self.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def __repr__(self):
        F = self.field
        body = "; ".join(" ".join(F.to_str(x) for x in row) for row in self.data)
        return f"Matrix({self.rows}x{self.cols}: {body})"

    def is_zero(self):
        z = self.field.zero
        return all(x == z for row in self.data for x in row)

    def col(self, j):
        return tuple(self.data[i][j] for i in range(self.rows))

    def entries_flat(self):
        return tuple(x for row in self.data for x in row)

    def _columns(self):
        return list(zip(*self.data)) if self.rows else [()] * self.cols

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        self._check_same_shape(other)
        add = self.field.add
        return Matrix._make(self.field, self.rows, self.cols,
                            [[add(a, b) for a, b in zip(r1, r2)]
                             for r1, r2 in zip(self.data, other.data)])

    def __sub__(self, other):
        self._check_same_shape(other)
        sub = self.field.sub
        return Matrix._make(self.field, self.rows, self.cols,
                            [[sub(a, b) for a, b in zip(r1, r2)]
                             for r1, r2 in zip(self.data, other.data)])

    def __neg__(self):
        neg = self.field.neg
        return Matrix._make(self.field, self.rows, self.cols,
                            [[neg(a) for a in r] for r in self.data])

    def scale(self, s):
        mul = self.field.mul
        return Matrix._make(self.field, self.rows, self.cols,
                            [[mul(s, a) for a in r] for r in self.data])

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        F = self.field
        bt = other._columns()
        if isinstance(F, PrimeField):
            p = F.p
            out = [[sum(map(_int_mul, r, c)) % p for c in bt] for r in self.data]
            return Matrix._make(F, self.rows, other.cols, out)
        add, mul, zero = F.add, F.mul, F.zero
        out = []
        for r in self.data:
            out_row = []
            for c in bt:
                acc = zero
                for a, b in zip(r, c):
                    if a != zero and b != zero:
                        acc = add(acc, mul(a, b))
                out_row.append(acc)
            out.append(out_row)
        return Matrix._make(F, self.rows, other.cols, out)

    def transpose(self):
        return Matrix._make(self.field, self.cols, self.rows, self._columns())

    def _check_same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch("shape mismatch")

    # -- stacking ------------------------------------------------------------

    def hstack(self, other):
        if self.rows != other.rows:
            raise DimensionMismatch("hstack row mismatch")
        return Matrix._make(self.field, self.rows, self.cols + other.cols,
                            [r1 + r2 for r1, r2 in zip(self.data, other.data)])

    def vstack(self, other):
        if self.cols != other.cols:
            raise DimensionMismatch("vstack col mismatch")
        return Matrix._make(self.field, self.rows + other.rows, self.cols,
                            self.data + other.data)

    @staticmethod
    def block_diag(field, blocks):
        rows = sum(b.rows for b in blocks)
        cols = sum(b.cols for b in blocks)
        z = field.zero
        data = [[z] * cols for _ in range(rows)]
        r0 = c0 = 0
        for b in blocks:
            for i in range(b.rows):
                row = data[r0 + i]
                brow = b.data[i]
                for j in range(b.cols):
                    row[c0 + j] = brow[j]
            r0 += b.rows
            c0 += b.cols
        return Matrix._make(field, rows, cols, data)

    def submatrix(self, row_range, col_range):
        return Matrix._make(self.field, len(row_range), len(col_range),
                            [[self.data[i][j] for j in col_range] for i in row_range])

    def select_columns(self, cols):
        return self.submatrix(range(self.rows), list(cols))

    # -- elimination kernels ---------------------------------------------------

    def _echelon(self, search=None):
        """Forward pass on a copy of the rows: (rows, pivot columns), pivots
        sought in the first ``search`` columns (all by default).  Each pivot row
        is scaled to a 1 at its pivot and the rows below it are cleared there;
        rows past the last pivot are zero in the searched columns."""
        F = self.field
        zero, one, mul = F.zero, F.one, F.mul
        m = [list(r) for r in self.data]
        nrows = self.rows
        pivots = []
        r = 0
        for c in range(self.cols if search is None else search):
            if r == nrows:
                break
            for pr in range(r, nrows):
                if m[pr][c] != zero:
                    break
            else:
                continue
            prow = m[pr]
            m[r], m[pr] = prow, m[r]
            # the pivot row is zero left of c, so only its nonzeros right of c act
            pairs = [(j, x) for j, x in enumerate(prow[c + 1:], c + 1) if x != zero]
            if prow[c] != one:
                inv = F.inv(prow[c])
                prow[c] = one
                pairs = [(j, mul(inv, x)) for j, x in pairs]
                for j, x in pairs:
                    prow[j] = x
            _eliminate(F, m[r + 1:], c, pairs)
            pivots.append(c)
            r += 1
        return m, pivots

    def rref(self):
        """Reduced row-echelon form; returns (R, pivot_columns)."""
        F = self.field
        m, pivots = self._echelon()
        pivset = set(pivots)
        _back_substitute(F, m, pivots, [j for j in range(self.cols) if j not in pivset])
        for k, c in enumerate(pivots):
            for row in m[:k]:
                row[c] = F.zero
        return Matrix._make(F, self.rows, self.cols, m), tuple(pivots)

    def rank(self):
        return len(self._echelon()[1])

    def kernel_basis(self):
        """Columns form a basis of the right null space {x : self*x = 0}."""
        F = self.field
        m, pivots = self._echelon()
        pivset = set(pivots)
        free = [j for j in range(self.cols) if j not in pivset]
        if not free:
            return Matrix._make(F, self.cols, 0, [()] * self.cols)
        _back_substitute(F, m, pivots, free)
        cols = []
        for fj in free:
            v = [F.zero] * self.cols
            v[fj] = F.one
            for i, pj in enumerate(pivots):
                v[pj] = F.neg(m[i][fj])
            cols.append(v)
        return Matrix._make(F, self.cols, len(cols), zip(*cols))

    def solve(self, b: "Matrix"):
        """Some X with self*X = b, or None if the system is inconsistent."""
        if b.rows != self.rows:
            raise DimensionMismatch("solve: rhs row mismatch")
        F = self.field
        n = self.cols
        if not b.cols:      # no right-hand column: always consistent, nothing to eliminate
            return Matrix.zeros(F, n, 0)
        m, pivots = self.hstack(b)._echelon(n)
        # a row left without a pivot in self's columns must be zero in b's
        z = F.zero
        if any(x != z for row in m[len(pivots):] for x in row[n:]):
            return None
        _back_substitute(F, m, pivots, list(range(n, n + b.cols)))
        X = [[z] * b.cols for _ in range(n)]
        for i, pj in enumerate(pivots):
            X[pj] = m[i][n:]
        return Matrix._make(F, n, b.cols, X)

    def inverse(self):
        """Two-sided inverse, or None if not square/invertible."""
        if self.rows != self.cols:
            return None
        X = self.solve(Matrix.identity(self.field, self.rows))
        if X is None or (X * self != Matrix.identity(self.field, self.rows)):
            return None
        return X

    def column_space_basis(self):
        """Matrix whose columns are a basis of the column space (original columns)."""
        return self.select_columns(self._echelon()[1])

    def is_injective(self):
        return self.rank() == self.cols

    def is_surjective(self):
        return self.rank() == self.rows

    # -- polynomial / spectral helpers ----------------------------------------

    def power(self, n: int):
        """self^n by repeated squaring, starting from the first factor."""
        if self.rows != self.cols:
            raise DimensionMismatch("power of non-square matrix")
        out, base = None, self
        while n > 0:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if n:
                base = base * base
        return Matrix.identity(self.field, self.rows) if out is None else out

    def eval_poly(self, coeffs):
        """coeffs ascending; returns sum coeffs[i] * self^i (Horner from the
        leading coefficient, each coefficient added on the diagonal): degree d
        costs d products, and no coefficients give the zero matrix."""
        if self.rows != self.cols:
            raise DimensionMismatch("polynomial of non-square matrix")
        F = self.field
        zero, add = F.zero, F.add
        out = Matrix.zeros(F, self.rows, self.cols)
        for k, c in enumerate(reversed(coeffs)):
            if k:
                out = out * self
            if c != zero:
                data = [list(r) for r in out.data]
                for i, row in enumerate(data):
                    row[i] = add(row[i], c)
                out = Matrix._make(F, self.rows, self.cols, data)
        return out


def companion_matrix(field, monic_coeffs):
    """Companion matrix of a monic polynomial (ascending coefficients)."""
    n = len(monic_coeffs) - 1
    if n < 1 or monic_coeffs[-1] != field.one:
        raise DimensionMismatch("companion matrix needs a monic poly of degree >= 1")
    z = field.zero
    data = [[z] * n for _ in range(n)]
    for i in range(1, n):
        data[i][i - 1] = field.one
    for i in range(n):
        data[i][n - 1] = field.neg(monic_coeffs[i])
    return Matrix._make(field, n, n, data)


def minimal_polynomial(mats):
    """Ascending coefficients of the monic minimal polynomial of a tuple of
    square matrices over one field, taken together (block-diagonally).

    One incremental echelon pass over the flattened joint powers I, A, A^2, ...:
    each new power is reduced against the stored rows while its coefficients
    in the powers are tracked, and the first power that reduces to zero gives
    the polynomial.  When every matrix is 0x0 the result is x, by convention.
    """
    F = mats[0].field
    zero, one = F.zero, F.one
    if any(a.rows != a.cols for a in mats):
        raise DimensionMismatch("minimal polynomial of a non-square matrix")
    n = sum(a.rows for a in mats)
    if n == 0:
        return (zero, one)
    size = sum(a.rows * a.rows for a in mats)
    stored = []   # (pivot, nonzero (column, value) pairs right of its 1)
    powers = [Matrix.identity(F, a.rows) for a in mats]
    for k in count():   # by Cayley-Hamilton a dependency appears by k = n
        # the flattened power, then its coefficients in the powers I, A, ..., A^n
        vec = [x for pw in powers for row in pw.data for x in row]
        vec += [zero] * (n + 1)
        vec[size + k] = one
        for piv, pairs in stored:
            _eliminate(F, (vec,), piv, pairs)
        piv = next((j for j in range(size) if vec[j] != zero), None)
        if piv is None:
            return tuple(vec[size:size + k + 1])
        inv = F.inv(vec[piv])
        stored.append((piv, [(j, F.mul(inv, x))
                             for j, x in enumerate(vec[piv + 1:], piv + 1) if x != zero]))
        powers = [a * pw for a, pw in zip(mats, powers)]
