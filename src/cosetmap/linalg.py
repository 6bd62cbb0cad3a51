"""Exact linear algebra over GF(q) with the row-vector convention x -> x*M + v.

Companion matrices here are the transposes of the column-convention ones:
row i of Comp(P) is the image of the basis monomial X^i under multiplication
by X on GF(q)[X]/(P).

The algorithms run on rows of element codes (see `cosetmap.gf`) through the
field's `ops()`; `MatrixQ`, `VectorQ` and `Poly` are built for return values.
"""

from __future__ import annotations

from ._record import Record
from .gf import FieldCtx, FieldElement, Poly, factor_monic
from .kernel import (_Ops, _horner, _pexact_div, _pmul, _power, _ppow, _trim, _vecmat, check_size,
                     index_to_tuple)


# ---------------------------------------------------------------------------
# Kernels on rows of codes
# ---------------------------------------------------------------------------

def _matmul(K: _Ops, A, B, width: int) -> list[list]:
    return [_vecmat(K, row, B, width) for row in A]


def _matpow(K: _Ops, A, e: int) -> list[list]:
    n = len(A)
    return _power(lambda X, Y: _matmul(K, X, Y, n), A, e, _identity(K, n))


def _identity(K: _Ops, n: int) -> list[list]:
    return [[K.one if i == j else 0 for j in range(n)] for i in range(n)]


def _reduce_rows(K: _Ops, work: list[list], ncols: int) -> list[int]:
    """Gauss-Jordan elimination in place over the first `ncols` columns,
    pivoting on the first nonzero entry at or below the current row.

    Returns the pivot columns.
    """
    neg, inv, axpy, scale = K.neg, K.inv, K.axpy, K.scale
    nrows = len(work)
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot = next((i for i in range(r, nrows) if work[i][c]), None)
        if pivot is None:
            continue
        if pivot != r:
            work[r], work[pivot] = work[pivot], work[r]
        row = work[r] = scale(inv(work[r][c]), work[r])
        for i in range(nrows):
            f = work[i][c]
            if f and i != r:
                work[i] = axpy(work[i], neg(f), row)
        pivots.append(c)
        r += 1
    return pivots


def _no_root(K: _Ops, chi, c) -> bool:
    """Whether neither 0 nor the code c is a root of the characteristic
    polynomial chi: its matrix is invertible and has no eigenvalue c."""
    return bool(chi[0]) and bool(_horner(K, chi, c)[1])


def _inverse(K: _Ops, A) -> list[list]:
    n = len(A)
    work = [list(row) + e for row, e in zip(A, _identity(K, n))]
    if len(_reduce_rows(K, work, n)) < n:
        raise ZeroDivisionError("matrix is singular")
    return [row[n:] for row in work]


def _solve_columns(K: _Ops, A, b, ncols: int) -> list:
    """x with A x^T = b^T, A given by rows of `ncols` codes."""
    work = [list(row) + [bi] for row, bi in zip(A, b)]
    pivots = _reduce_rows(K, work, ncols)
    if any(row[ncols] for row in work[len(pivots):]):
        raise ValueError("inconsistent linear system")
    x = [0] * ncols
    for row, c in zip(work, pivots):
        x[c] = row[ncols]
    return x


def _left_kernel(K: _Ops, A, ncols: int) -> list[list]:
    """Basis of {x : x A = 0} in echelon order."""
    n = len(A)
    work = [list(col) for col in zip(*A)]
    pivots = _reduce_rows(K, work, n)
    basis = []
    for f in range(n):
        if f in pivots:
            continue
        v = [0] * n
        v[f] = K.one
        for row, c in zip(work, pivots):
            v[c] = K.neg(row[f])
        basis.append(v)
    return basis


def _companion(K: _Ops, P) -> list[list]:
    d = len(P) - 1
    rows = [[K.one if j == i + 1 else 0 for j in range(d)] for i in range(d - 1)]
    rows.append([K.neg(c) for c in P[:d]])
    return rows


def _poly_at(K: _Ops, P, A) -> list[list]:
    """P(A) by Horner."""
    n = len(A)
    acc = [[0] * n for _ in range(n)]
    for c in reversed(P):
        acc = _matmul(K, acc, A, n)
        if c:
            for i in range(n):
                acc[i][i] = K.add(acc[i][i], c)
    return acc


def _charpoly(K: _Ops, A) -> list:
    """Characteristic polynomial via Hessenberg reduction."""
    add, mul, neg, inv, axpy = K.add, K.mul, K.neg, K.inv, K.axpy
    n = len(A)
    H = [list(r) for r in A]
    for c in range(n - 2):
        pivot = next((i for i in range(c + 1, n) if H[i][c]), None)
        if pivot is None:
            continue
        if pivot != c + 1:
            H[c + 1], H[pivot] = H[pivot], H[c + 1]
            for row in H:
                row[c + 1], row[pivot] = row[pivot], row[c + 1]
        piv_inv = inv(H[c + 1][c])
        for i in range(c + 2, n):
            if H[i][c]:
                f = mul(H[i][c], piv_inv)
                H[i] = axpy(H[i], neg(f), H[c + 1])
                for row in H:
                    row[c + 1] = add(row[c + 1], mul(f, row[i]))
    # charpoly recurrence on the Hessenberg form
    ps = [[K.one]]
    for m in range(1, n + 1):
        p = _pmul(K, [neg(H[m - 1][m - 1]), K.one], ps[m - 1])
        prod = K.one
        for i in range(m - 1, 0, -1):
            prod = mul(prod, H[i][i - 1])
            t = mul(H[i - 1][m - 1], prod)
            if t:
                lo = ps[i - 1]
                p[:len(lo)] = axpy(p[:len(lo)], neg(t), lo)
        ps.append(p)
    return ps[n]


def _reduce_by(K: _Ops, w, rows, pivots) -> list:
    """w reduced against an echelon basis, `rows` normalized at their `pivots`
    in insertion order: zero exactly when w lies in their span."""
    axpy, neg = K.axpy, K.neg
    w = list(w)
    for row, p in zip(rows, pivots):
        f = w[p]
        if f:
            w = axpy(w, neg(f), row)
    return w


# ---------------------------------------------------------------------------
# Vectors and matrices
# ---------------------------------------------------------------------------

class VectorQ:
    """Row vector over a field context, held as a tuple of element codes
    (`codes`); immutable after construction."""

    __slots__ = ("ctx", "codes")

    def __init__(self, ctx: FieldCtx, entries):
        """Entries of anything `ctx.code` accepts."""
        self.ctx = ctx
        self.codes = tuple(map(ctx.code, entries))

    @classmethod
    def from_codes(cls, ctx: FieldCtx, codes) -> "VectorQ":
        v = cls.__new__(cls)
        v.ctx = ctx
        v.codes = tuple(codes)
        return v

    @classmethod
    def zero(cls, ctx: FieldCtx, n: int) -> "VectorQ":
        return cls.from_codes(ctx, (0,) * n)

    @property
    def entries(self) -> tuple[FieldElement, ...]:
        return tuple(FieldElement(self.ctx, c) for c in self.codes)

    def __len__(self):
        return len(self.codes)

    def __getitem__(self, i):
        return self.entries[i]

    def __add__(self, other: "VectorQ") -> "VectorQ":
        return self._axpy(other, 1)

    def __sub__(self, other: "VectorQ") -> "VectorQ":
        return self._axpy(other, -1)

    def _axpy(self, other: "VectorQ", c: int) -> "VectorQ":
        """self + c*other, entrywise."""
        self._check_ctx(other)
        if len(other.codes) != len(self.codes):
            raise ValueError("dimension mismatch")
        K = self.ctx.ops()
        return VectorQ.from_codes(self.ctx, K.axpy(self.codes, self.ctx.code(c), other.codes))

    def __neg__(self):
        return VectorQ.from_codes(self.ctx, map(self.ctx.ops().neg, self.codes))

    def __mul__(self, M: "MatrixQ") -> "VectorQ":
        if not isinstance(M, MatrixQ):
            return NotImplemented
        if M.ctx is not self.ctx or M.rows != len(self.codes):
            raise ValueError("dimension mismatch in vector-matrix product")
        return VectorQ.from_codes(self.ctx, _vecmat(self.ctx.ops(), self.codes, M.codes, M.cols))

    def is_zero(self) -> bool:
        return not any(self.codes)

    def _check_ctx(self, other):
        if not isinstance(other, VectorQ) or other.ctx is not self.ctx:
            raise ValueError("mismatched contexts")

    def __eq__(self, other):
        return (isinstance(other, VectorQ)
                and self.ctx is other.ctx and self.codes == other.codes)

    def __hash__(self):
        return hash((self.ctx, self.codes))

    def __repr__(self):
        return f"({', '.join(map(repr, self.entries))})"


class MatrixQ:
    """Dense exact matrix over a field context, held as rows of element codes
    (`codes`); immutable after construction.

    A square matrix keeps its characteristic polynomial once worked out; it
    answers the determinant, invertibility and the eigenvalue tests, and takes
    no part in equality or hashing.
    """

    __slots__ = ("ctx", "rows", "cols", "codes", "_chi")

    def __init__(self, ctx: FieldCtx, rows):
        """Rows of anything `ctx.code` accepts."""
        codes = tuple(tuple(map(ctx.code, row)) for row in rows)
        if any(len(r) != len(codes[0]) for r in codes):
            raise ValueError("ragged matrix rows")
        self._init(ctx, codes, 0)

    @classmethod
    def from_codes(cls, ctx: FieldCtx, rows, cols: int | None = None) -> "MatrixQ":
        """Matrix with the given rows of element codes."""
        M = cls.__new__(cls)
        M._init(ctx, tuple(tuple(r) for r in rows), cols or 0)
        return M

    def _init(self, ctx: FieldCtx, codes, cols: int):
        self.ctx = ctx
        self.codes = codes
        self.rows = len(codes)
        self.cols = len(codes[0]) if codes else cols
        self._chi = None

    @classmethod
    def identity(cls, ctx: FieldCtx, n: int) -> "MatrixQ":
        return cls(ctx, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @classmethod
    def zeros(cls, ctx: FieldCtx, rows: int, cols: int) -> "MatrixQ":
        return cls(ctx, tuple((0,) * cols for _ in range(rows)))

    @classmethod
    def block_diag(cls, blocks) -> "MatrixQ":
        blocks = list(blocks)
        n = sum(b.rows for b in blocks)
        rows: list[list] = []
        for b in blocks:
            off = len(rows)
            rows.extend([0] * off + list(r) + [0] * (n - off - b.cols) for r in b.codes)
        return cls.from_codes(blocks[0].ctx, rows, n)

    def entry(self, i: int, j: int) -> FieldElement:
        return FieldElement(self.ctx, self.codes[i][j])

    def is_square(self) -> bool:
        return self.rows == self.cols

    def __add__(self, other: "MatrixQ") -> "MatrixQ":
        return self._axpy(other, 1)

    def __sub__(self, other: "MatrixQ") -> "MatrixQ":
        return self._axpy(other, -1)

    def _axpy(self, other: "MatrixQ", c: int) -> "MatrixQ":
        """self + c*other, entrywise."""
        if not isinstance(other, MatrixQ) or other.ctx is not self.ctx:
            raise ValueError("mismatched contexts")
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("dimension mismatch")
        K, c = self.ctx.ops(), self.ctx.code(c)
        return MatrixQ.from_codes(self.ctx, [K.axpy(r1, c, r2)
                                             for r1, r2 in zip(self.codes, other.codes)], self.cols)

    def __neg__(self):
        return MatrixQ.zeros(self.ctx, self.rows, self.cols) - self

    def __mul__(self, other):
        if isinstance(other, MatrixQ):
            if other.ctx is not self.ctx or self.cols != other.rows:
                raise ValueError("dimension mismatch in matrix product")
            return MatrixQ.from_codes(
                self.ctx, _matmul(self.ctx.ops(), self.codes, other.codes, other.cols),
                other.cols)
        return NotImplemented

    def __pow__(self, n: int) -> "MatrixQ":
        if not self.is_square():
            raise ValueError("matrix power needs a square matrix")
        if n < 0:
            return self.inverse() ** (-n)
        return MatrixQ.from_codes(self.ctx, _matpow(self.ctx.ops(), self.codes, n), self.cols)

    def _chi_codes(self) -> list:
        """Codes of the characteristic polynomial of this square matrix,
        worked out on first use."""
        if self._chi is None:
            self._chi = _charpoly(self.ctx.ops(), self.codes)
        return self._chi

    def det(self) -> FieldElement:
        """(-1)^n chi(0)."""
        if not self.is_square():
            raise ValueError("determinant needs a square matrix")
        c0 = self._chi_codes()[0]
        return FieldElement(self.ctx, self.ctx.ops().neg(c0) if self.rows % 2 else c0)

    def rank(self) -> int:
        return len(_reduce_rows(self.ctx.ops(), [list(r) for r in self.codes], self.cols))

    def is_invertible(self) -> bool:
        return self.is_square() and self._chi_codes()[0] != 0

    def has_no_eigenvalue(self, c) -> bool:
        """Whether this square matrix is invertible and c (anything
        `ctx.code` accepts) is not an eigenvalue: chi(0) and chi(c) are
        nonzero."""
        if not self.is_square():
            raise ValueError("eigenvalue test needs a square matrix")
        return _no_root(self.ctx.ops(), self._chi_codes(), self.ctx.code(c))

    def inverse(self) -> "MatrixQ":
        if not self.is_square():
            raise ValueError("inverse needs a square matrix")
        return MatrixQ.from_codes(self.ctx, _inverse(self.ctx.ops(), self.codes), self.cols)

    def left_kernel(self) -> list[VectorQ]:
        """Basis of {x : x * self = 0}, in deterministic echelon order."""
        return [VectorQ.from_codes(self.ctx, v)
                for v in _left_kernel(self.ctx.ops(), self.codes, self.cols)]

    def int_rows(self):
        """Entry coordinates as plain ints (prime field) or tuples."""
        if self.ctx.k == 1:
            return self.codes
        return tuple(tuple(index_to_tuple(c, self.ctx.p, self.ctx.k) for c in r)
                     for r in self.codes)

    def __eq__(self, other):
        return (isinstance(other, MatrixQ)
                and self.ctx is other.ctx and self.codes == other.codes)

    def __hash__(self):
        return hash((self.ctx, self.codes))

    def __repr__(self):
        entry = self.ctx.from_index
        return "[" + "; ".join(" ".join(repr(entry(c)) for c in r) for r in self.codes) + "]"


def _without_eigenvalue(ctx: FieldCtx, rows, c: int) -> MatrixQ | None:
    """The matrix with these square code rows, its characteristic polynomial
    kept, if it is invertible and the code c is not an eigenvalue; else None,
    and no matrix is built."""
    K = ctx.ops()
    chi = _charpoly(K, rows)
    if not _no_root(K, chi, c):
        return None
    M = MatrixQ.from_codes(ctx, rows)
    M._chi = chi
    return M


class AffineMap(Record):
    """x -> x*matrix + shift on row vectors."""

    __slots__ = ("matrix", "shift")

    def __init__(self, matrix: MatrixQ, shift: VectorQ):
        if matrix.ctx is not shift.ctx:
            raise ValueError("mismatched contexts")
        if not matrix.is_square() or matrix.rows != len(shift):
            raise ValueError("affine map dimension mismatch")
        self._store(matrix, shift)

    @property
    def ctx(self):
        return self.matrix.ctx

    @property
    def dim(self):
        return self.matrix.rows

    def __call__(self, x: VectorQ) -> VectorQ:
        return x * self.matrix + self.shift

    def then(self, other: "AffineMap") -> "AffineMap":
        """Composite: apply self first, then other."""
        return AffineMap(self.matrix * other.matrix,
                         self.shift * other.matrix + other.shift)


def companion(P: Poly) -> MatrixQ:
    """Row-convention companion matrix: superdiagonal ones, last row the
    negated coefficients of P; refused above MAX_DOMAIN entries."""
    if not P.is_monic() or P.degree < 1:
        raise ValueError("companion matrix needs a monic polynomial of degree >= 1")
    n = int(P.degree)
    check_size(f"the companion matrix of degree {n} has {n}^2 entries", n, 2)
    return MatrixQ.from_codes(P.ctx, _companion(P.ctx.ops(), P.codes))


def charpoly(A: MatrixQ) -> Poly:
    """Characteristic polynomial via Hessenberg reduction, once per matrix."""
    if not A.is_square():
        raise ValueError("characteristic polynomial needs a square matrix")
    return Poly.from_codes(A.ctx, A._chi_codes())


def _primary_exponents(K: _Ops, N, mult: int, deg: int, v=None) -> tuple[list[int], int]:
    """Ascending exponents e of the blocks Q^e of one primary component, from
    the ranks of the powers of N = Q(A), Q irreducible of degree `deg` and
    multiplicity `mult`: (rank N^(k-1) - rank N^k) / deg blocks have
    exponent >= k.

    With a row v of codes, also the largest k >= 1 with v N^(k-1) outside the
    row space of N^k, or 0 when v lies in the row space of N; 0 without v.
    """
    n = len(N)
    floor = n - mult * deg
    ranks = [n]
    grown = 0
    rows = list(N)   # spans the row space of N^k, k = len(ranks); reduced to a basis below
    while True:
        pivots = _reduce_rows(K, rows, n)
        del rows[len(pivots):]
        ranks.append(len(pivots))
        if v is not None:   # v is v N^(k-1) here
            if not any(_reduce_by(K, v, rows, pivots)):
                v = None    # then v N^(j-1) lies in the row space of N^j for every j > k
            else:
                grown = len(ranks) - 1
                v = _vecmat(K, v, N, n)
        if len(pivots) <= floor or len(ranks) > mult:
            break
        rows = [_vecmat(K, r, N, n) for r in rows]
    drops = [a - b for a, b in zip(ranks, ranks[1:])]
    if ranks[-1] != floor or any(d % deg for d in drops):
        raise ArithmeticError("primary component has unexpected dimension")
    at_least = [d // deg for d in drops] + [0]
    exps = [k for k in range(1, len(drops) + 1) for _ in range(at_least[k - 1] - at_least[k])]
    if sum(exps) != mult:
        raise ArithmeticError("primary component has unexpected dimension")
    return exps, grown


def elementary_divisors(A: MatrixQ, shift: VectorQ | None = None
                        ) -> tuple[tuple[tuple[Poly, int], ...], int]:
    """(blocks, e) for a square A: the primary blocks (Q, e) of A in `prcf`'s
    order (grade-lex on Q, then exponents ascending), found from ranks with
    no basis change.

    A factor of multiplicity 1 in the characteristic polynomial is the block
    (Q, 1); a repeated one takes the ranks of the powers of Q(A).  The second
    item describes the shift v: appending the row (v, 1) to [A 0] turns one
    block (X-1)^e into (X-1)^(e+1), or adds a block X-1 when e = 0.  It is
    the largest k >= 1 with v N^(k-1) outside the row space of N^k, N = A - I,
    and 0 when v lies in the row space of N or no shift is given.
    """
    if not A.is_square():
        raise ValueError("elementary divisors need a square matrix")
    K = A.ctx.ops()
    v = None
    if shift is not None:
        if shift.ctx is not A.ctx or len(shift) != A.rows:
            raise ValueError("dimension mismatch in shift")
        v = shift.codes if any(shift.codes) else None
    x_minus_1 = (K.neg(K.one), K.one)
    blocks = []
    grown = 0
    for Q, mult in factor_monic(charpoly(A)):
        w = v if Q.codes == x_minus_1 else None
        if mult == 1 and w is None:   # no matrix work
            blocks.append((Q, 1))
            continue
        exps, e = _primary_exponents(K, _poly_at(K, Q.codes, A.codes), mult, int(Q.degree), w)
        blocks.extend((Q, k) for k in exps)
        if w is not None:
            grown = e
    return tuple(blocks), grown


class Prcf(Record):
    """Primary rational canonical form: block list and basis change S with
    S^-1 * A * S equal to the assembled block diagonal exactly."""

    __slots__ = ("blocks", "basis_change")

    def __init__(self, blocks: tuple[tuple[Poly, int], ...], basis_change: MatrixQ):
        self._store(blocks, basis_change)

    def block_diagonal(self) -> MatrixQ:
        return MatrixQ.block_diag([companion(Q ** e) for Q, e in self.blocks])


def _decompose_primary(K: _Ops, A, QA, Q, comp_basis):
    """Split one primary component into cyclic summands.

    A and QA = Q(A) are rows of codes, Q the codes of the irreducible.
    Greedy: repeatedly take a vector of maximal height in the quotient by what
    has been collected, make it pure by subtracting the divisible part of its
    image inside the collected blocks, and append its Krylov block.  Returns
    (generator, height) pairs with non-increasing heights.
    """
    n = len(A)
    degQ = len(Q) - 1
    target_dim = len(comp_basis)

    rows: list[list] = []       # echelon basis of the collected blocks
    pivots: list[int] = []
    gens: list[tuple[list, int]] = []
    gen_rows: list[list] = []   # Krylov rows in block order
    gen_meta: list[int] = []    # generator index per row

    def height_mod(v, cap: int) -> int:
        h = 0
        w = v
        while any(_reduce_by(K, w, rows, pivots)):
            w = _vecmat(K, w, QA, n)
            h += 1
            if h > cap:
                raise ArithmeticError("height exceeded component exponent")
        return h

    cap = target_dim // degQ + 1
    while len(rows) < target_dim:
        # the first vector of maximal height is independent of the earlier
        # ones modulo collected: any combination of them is lower
        heights = [height_mod(v, cap) for v in comp_basis]
        hmax = max(heights)
        x = comp_basis[heights.index(hmax)]
        # purify: x*QA^hmax lies in the collected blocks; every block
        # coordinate polynomial is divisible by Q^hmax, subtract the quotient
        if gen_rows:
            u = x
            for _ in range(hmax):
                u = _vecmat(K, u, QA, n)
            if any(u):
                coords = _solve_columns(K, list(zip(*gen_rows)), u, len(gen_rows))
                Qh = _ppow(K, Q, hmax)
                for g_idx, (gen, _) in enumerate(gens):
                    f = _trim([c for c, gi in zip(coords, gen_meta) if gi == g_idx])
                    if not f:
                        continue
                    corr = x
                    acc = gen
                    for c in _pexact_div(K, f, Qh):
                        if c:
                            corr = K.axpy(corr, K.neg(c), acc)
                        acc = _vecmat(K, acc, A, n)
                    x = corr
        # record the (now pure) block
        g_idx = len(gens)
        w = x
        block_rows = []
        for _ in range(degQ * hmax):
            block_rows.append(w)
            gen_meta.append(g_idx)
            w = _vecmat(K, w, A, n)
        check = x
        for _ in range(hmax):
            check = _vecmat(K, check, QA, n)
        if any(check):
            raise ArithmeticError("purification failed in canonical form")
        for r in block_rows:
            r = _reduce_by(K, r, rows, pivots)
            pivot = next((i for i, a in enumerate(r) if a), None)
            if pivot is None:
                raise ArithmeticError("dependent Krylov row in canonical form")
            rows.append(K.scale(K.inv(r[pivot]), r))
            pivots.append(pivot)
        gen_rows.extend(block_rows)
        gens.append((x, hmax))
    return gens


def prcf(A: MatrixQ) -> Prcf:
    """Primary rational canonical form with basis change.

    Deterministic: blocks sorted grade-lex on Q then ascending exponent, with
    generators chosen as the first maximal-height vector of the deterministic
    component basis.
    """
    if not A.is_square():
        raise ValueError("canonical form needs a square matrix")
    ctx = A.ctx
    K = ctx.ops()
    n = A.rows
    Ac = A.codes
    entries: list[tuple[Poly, int, list]] = []
    for Q, mult in factor_monic(charpoly(A)):
        QA = _poly_at(K, Q.codes, Ac)
        comp_basis = _left_kernel(K, _matpow(K, QA, mult), n)
        if len(comp_basis) != mult * int(Q.degree):
            raise ArithmeticError("primary component has unexpected dimension")
        for gen, h in _decompose_primary(K, Ac, QA, Q.codes, comp_basis):
            entries.append((Q, h, gen))
    entries.sort(key=lambda t: (t[0].sort_key(), t[1]))
    T = []
    blocks = []
    for Q, e, gen in entries:
        blocks.append((Q, e))
        w = gen
        for _ in range(int(Q.degree) * e):
            T.append(w)
            w = _vecmat(K, w, Ac, n)
    form = Prcf(tuple(blocks), MatrixQ.from_codes(ctx, _inverse(K, T), n))
    if _matmul(K, T, Ac, n) != _matmul(K, form.block_diagonal().codes, T, n):
        raise ArithmeticError("canonical form verification failed")
    return form
