"""Brute-force ground truth for maps on small finite domains.

Elements of GF(p)^n are indexed lexicographically by coordinate tuple with the
first coordinate most significant; field elements GF(p^k) use the same rule on
their coordinate tuples, so field maps and vector-space maps share tables.
The codec is `kernel.index_to_tuple`/`kernel.tuple_to_index`.

Whether x -> g(x) + s*x is a bijection is read on byte planes for odd
p <= 13 from 64 points on: each point's base-p digits, cut into chunks below
16, fill one byte each of a lane; a point's chunks and its image's share a
byte as two nibbles, one `bytes.translate` maps every byte to the chunk of
the sum, and the sums are distinct when the set of lanes has p^n members.
For p = 2 (XOR), p > 13 and smaller tables the sums come from
`kernel.digit_sums`.
"""

from __future__ import annotations

import operator
from array import array

from ._record import Record
from .cycletype import CycleType, cycles_of, is_permutation
from .gf import FieldCtx, Poly
# MAX_DOMAIN is re-exported: the limit on map tables lives in kernel
from .kernel import (MAX_DOMAIN, _build_tables, _chirp_dft, check_size, digit_sums, exact_int,
                     is_power, is_prime, json_fields, memo, read_int, read_json)


def is_complete_mapping(images, p: int, n: int) -> bool:
    """Whether the map g of GF(p)^n with this image table is a complete
    mapping: a bijection with x -> g(x) + x also a bijection.  `analyze`
    also reports the orthomorphism test, on x -> g(x) - x."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if n < 0:
        raise ValueError(f"dimension {n} is negative")
    return (is_power(len(images), p, n) and is_permutation(images, len(images))
            and _sums_bijective(images, p, n, (1,))[0])


def _sums_bijective(images, p: int, n: int, signs) -> list[bool]:
    """For each sign s, +1 or -1, whether x -> g(x) + s*x is a bijection, for
    the bijection g of GF(p)^n with this image table, each distinct sign mod
    p tested once.  For odd p <= 13, at most 8 chunks and at least
    `_PLANE_POINTS` points a test is one byte translation of the planes of
    `_plane_pairs` and one set of their lanes; otherwise it is one
    `digit_sums` pass (XOR when p = 2, which is faster than planes there)."""
    size = p ** n
    w = 2 if p == 3 else int(2 < p < 16)  # base-p digits below 16 in a chunk, 0 for none
    if w and n <= 8 * w and size >= _PLANE_POINTS:
        pairs, code = _plane_pairs(images, p, n, w)

        def bijective(s):
            return len(set(memoryview(pairs.translate(_plane_row(p, w, s))).cast(code))) == size
    else:
        def bijective(s):
            return is_permutation(digit_sums(images, range(size), p, n, s), size)
    verdicts = {s: bijective(s) for s in {s % p for s in signs}}
    return [verdicts[s % p] for s in signs]


# Planes pay from 81 points (3^4) on; up to 49 (7^2) a `digit_sums` pass was
# faster, its fixed cost being the smaller: 2.4-8.5 us against 5.3-11.8 us
# for one sign at 3-49 points (2-vCPU VM, Python 3.11).
_PLANE_POINTS = 64
_CODES = {array(t).itemsize: t for t in "QLIHB"}  # an unsigned type code per item size
_BYTES = [bytes([a]) for a in range(16)]


def _plane_pairs(images, p: int, n: int, w: int) -> tuple[bytes, str]:
    """(planes, type code): the lane of point x, in the fewest of 1, 2, 4 or 8
    bytes that hold its chunks of w base-p digits (p^w <= 16), one chunk a
    byte, least significant first, holds x's chunks shifted up a nibble and
    g(x)'s below them.  The identity's lanes are repeated blocks, g's are
    gathered from them by one `itemgetter`, and the two are paired by one
    int shift and or: a chunk is below 16, so no byte carries."""
    size, m = p ** n, p ** w
    chunks = -(-n // w)
    item = 1 << (chunks - 1).bit_length()
    code = _CODES[item]
    ident = bytearray(item * size)
    place = 1
    for j in range(chunks):
        mj = min(m, size // place)  # the top chunk may have fewer digits
        ident[j::item] = b"".join([a * place for a in _BYTES[:mj]]) * (size // (place * mj))
        place *= mj
    lanes = array(code, operator.itemgetter(*images)(memoryview(ident).cast(code)))
    pairs = int.from_bytes(ident, "little") << 4 | int.from_bytes(lanes, "little")
    return pairs.to_bytes(item * size, "little"), code


@memo
def _plane_row(p: int, w: int, s: int) -> bytes:
    """The translate row of `_plane_pairs`: the byte a << 4 | b, a and b
    chunks of w base-p digits, to the chunk b + s*a, digit by digit mod p."""
    places = [p ** i for i in range(w)]
    return bytes(sum((b // q + s * (a // q)) % p * q for q in places)
                 for a, b in (divmod(v, 16) for v in range(256)))


class MapTable(Record):
    """A map on {0..n-1} given by its int images (`kernel.exact_int`), kept as a tuple."""

    __slots__ = ("n", "images")

    def __init__(self, n: int, images):
        check_size(f"a map table of {exact_int(n, 'n')} points", n)
        images = tuple(images)
        if len(images) != n:
            raise ValueError("image list length does not match domain size")
        if not {int}.issuperset(map(type, images)):  # one pass in C
            exact_int(next(v for v in images if type(v) is not int), "an image")
        if images and not (0 <= min(images) and max(images) < n):
            raise ValueError("image out of range")
        self._store(n, images)

    def to_json(self) -> dict:
        return {"n": self.n, "images": list(self.images)}

    @classmethod
    def from_json(cls, obj) -> "MapTable":
        """The table {"n": n, "images": [...]}; ValueError naming the key
        that is missing or of the wrong JSON type."""
        n, images = json_fields(obj, "a map table", ("n", "images"))
        if not isinstance(images, list):
            raise ValueError(f"images must be a list of integers, not {type(images).__name__}")
        return cls(exact_int(n, "n"), tuple(exact_int(v, "an entry of images") for v in images))

    @classmethod
    def from_csv(cls, text: str) -> "MapTable":
        import csv
        import io
        pairs = {}
        for r, row in enumerate(csv.reader(io.StringIO(text)), 1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 2:
                raise ValueError("CSV rows must be index pairs")
            for cell in row:
                if not (cell.strip().isascii() and cell.strip().isdigit()):
                    raise ValueError(f"CSV row {r}: {cell!r} is not a nonnegative integer")
            i = read_int(row[0], f"a cell of CSV row {r}")
            if i in pairs:
                raise ValueError(f"CSV must cover indices 0..n-1 exactly once; {i} repeats")
            pairs[i] = read_int(row[1], f"a cell of CSV row {r}")
        n = len(pairs)
        if not is_permutation(pairs, n):
            raise ValueError("CSV must cover indices 0..n-1 exactly once")
        return cls(n, tuple(pairs[i] for i in range(n)))


class AnalysisReport(Record):
    __slots__ = ("is_bijection", "is_complete", "is_orthomorphism", "cycle_type", "fixed_points")

    def __init__(self, is_bijection: bool, is_complete: bool, is_orthomorphism: bool,
                 cycle_type: CycleType | None, fixed_points: tuple[int, ...]):
        self._store(is_bijection, is_complete, is_orthomorphism, cycle_type, fixed_points)

    def to_json(self) -> dict:
        return {
            "is_bijection": self.is_bijection,
            "is_complete": self.is_complete,
            "is_orthomorphism": self.is_orthomorphism,
            "cycle_type": None if self.cycle_type is None else self.cycle_type.to_json(),
            "fixed_points": list(self.fixed_points),
        }


def analyze(table: MapTable, p: int, dims: int) -> AnalysisReport:
    """Exhaustive report under the elementary-abelian law of GF(p)^dims
    (ValueError unless p is prime and the table has p^dims points): one
    `is_permutation` pass tests the bijection, `_sums_bijective` the complete
    and the orthomorphism property (one translation of one set of byte planes
    each), and one walk of the cycles (`cycles_of`) gives the cycle type."""
    if p > 1 and not is_power(table.n, p, dims):
        raise ValueError("domain size must equal p^dims")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    images = table.images
    fixed = tuple(i for i in range(table.n) if images[i] == i)
    if not is_permutation(images, table.n):
        return AnalysisReport(False, False, False, None, fixed)
    is_complete, is_ortho = _sums_bijective(images, p, dims, (1, -1))
    ctype = CycleType((len(cyc), 1) for cyc in cycles_of(images))
    return AnalysisReport(True, is_complete, is_ortho, ctype, fixed)


def interpolate(ctx: FieldCtx, values) -> Poly:
    """The unique polynomial of degree < q through all q points of GF(q).

    `values` maps index order to field elements (sequence of length q).  The
    coefficients are c_0 = f(0), c_j = -sum_{x != 0} f(x) x^(-j) for 0 < j < q-1
    and c_(q-1) = -sum_x f(x): one transform of the values at the powers of g.
    """
    q = ctx.order
    values = list(values)
    if len(values) != q:
        raise ValueError("interpolation needs all q values")
    K = ctx.ops()
    codes = [ctx.code(v) for v in values]
    sums = _chirp_dft(ctx, [codes[x] for x in _build_tables(ctx)[1][:q - 1]], -1)
    minus = K.neg(K.one)
    return Poly.from_codes(ctx, [codes[0]] + K.scale(minus, sums[1:] + [K.add(codes[0], sums[0])]))


def evaluate_poly_table(P: Poly) -> MapTable:
    """Value table of a polynomial (of any degree) as a map of its coefficient
    field: f(0) is the constant term, and f(g^i) one transform of the
    coefficients folded by exponent mod q-1, read back in index order."""
    ctx, codes, n = P.ctx, P.codes, P.ctx.order - 1
    folded = list(codes[:n]) + [0] * (n - len(codes))
    for j in range(n, len(codes)):
        folded[j % n] = ctx.ops().add(folded[j % n], codes[j])
    values = _chirp_dft(ctx, folded, 1)
    images = [values[i] for i in _build_tables(ctx)[0]]
    images[0] = codes[0] if codes else 0
    return MapTable(n + 1, images)


def load_table(text: str) -> MapTable:
    """Parse a MapTable from index-pair CSV when the text is blank or starts
    with an ASCII digit, spaces aside, and from JSON otherwise."""
    head = text.lstrip()[:1]
    if not head or head in "0123456789":
        return MapTable.from_csv(text)
    return MapTable.from_json(read_json(text, "a map table"))
