"""JSON encodings and polynomial text used by the CLI and file formats.

Field elements encode as a bare residue for prime fields and as the k-entry
coordinate array (constant coordinate first) for extensions.  Polynomials
encode as coefficient arrays, constant term first.  The JSON codecs work on
element codes: encoders read `.codes` through `kernel.index_to_tuple`; a vector,
matrix or polynomial is read back by its constructor (`VectorQ`, `MatrixQ`,
`Poly`), which hands each JSON value to `FieldCtx.code`, so coset-wise maps
pass through no field element; a matrix reaches `MatrixQ` through
`json_matrix`, the one reader of row lists.  Integer fields (p, d, t, label
digits, coordinates) must be JSON integers.  `format_poly` reads codes too,
through the discrete log of `FieldCtx`.  Polynomial text uses caret powers
with `w` for the extension generator, e.g. `x^3 + 2*x + 1` or
`w^16*x^18 + x + w^6`; when the generator X is not primitive for the
modulus, a coefficient outside its powers is written as its coordinate
list, constant coordinate first, e.g. `x^2 + x + [1, 1]`.
"""

from __future__ import annotations

import re

from .gf import FieldCtx, Poly
from .kernel import (check_size, digit_sums, exact_int, index_to_tuple, json_fields, json_list,
                     read_int, tuple_to_index)
from .linalg import AffineMap, MatrixQ, VectorQ

TYPE_CHECKING = False  # typing.TYPE_CHECKING without importing typing
if TYPE_CHECKING:
    from .cwaffine import CosetWiseAffineMap


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------

def ctx_to_json(ctx: FieldCtx) -> dict:
    out = {"p": ctx.p, "k": ctx.k}
    if ctx.k > 1:
        out["modulus"] = list(ctx.modulus)
    return out


def _codes_to_json(ctx: FieldCtx, codes) -> list:
    """The JSON form of each code: the residue, or the coordinate list."""
    if ctx.k == 1:
        return list(codes)
    return [list(index_to_tuple(c, ctx.p, ctx.k)) for c in codes]


def vector_to_json(v: VectorQ) -> list:
    return _codes_to_json(v.ctx, v.codes)


def matrix_to_json(M: MatrixQ) -> list:
    return [_codes_to_json(M.ctx, row) for row in M.codes]


def json_matrix(ctx: FieldCtx, value, name: str = "matrix") -> MatrixQ:
    """The matrix of a JSON array of row arrays; ValueError naming it when it,
    or one of its rows, is not a list, or when it has more than MAX_DOMAIN
    entries, before any entry is read."""
    rows = [json_list(row, f"a row of {name}") for row in json_list(value, name)]
    entries = sum(map(len, rows))
    check_size(f"{name} has {entries} entries", entries)
    return MatrixQ(ctx, rows)


def affine_from_json(ctx: FieldCtx, obj) -> AffineMap:
    """The map {"matrix": rows, "shift": entries}; ValueError naming the key
    that is missing or not a list."""
    matrix, shift = json_fields(obj, "an affine map", ("matrix", "shift"))
    return AffineMap(json_matrix(ctx, matrix), VectorQ(ctx, json_list(shift, "shift")))


def poly_to_json(P: Poly) -> list:
    return _codes_to_json(P.ctx, P.codes)


def cwmap_to_json(f: CosetWiseAffineMap) -> dict:
    """The cosets in label order, each with its shift nu = top(u) - u; each
    block is converted once."""
    s = f.splitting
    labels = s.coset_labels()
    nus = digit_sums(f.top, range(len(f.top)), s.p, s.t, -1)  # the index of top(u) - u
    blocks = [(matrix_to_json(alpha), vector_to_json(omega)) for alpha, omega in f.blocks]
    cosets = []
    for u, b, nu in zip(labels, f.block_of, nus):
        alpha, omega = blocks[b]
        cosets.append({"u": list(u), "alpha": alpha, "omega": omega, "nu": list(labels[nu])})
    return {"p": s.p, "d": s.d, "t": s.t, "cosets": cosets}


def cwmap_from_json(obj) -> CosetWiseAffineMap:
    """The map {"p", "d", "t", "cosets": [{"u", "alpha", "omega", "nu"}, ...]},
    the entries in any order, each coset's u + nu read into its coset map and
    equal (alpha, omega) pairs read into one block; ValueError naming the key
    that is missing or of the wrong JSON type."""
    from .cwaffine import CosetWiseAffineMap, Splitting
    p, d, t, cosets = json_fields(obj, "a coset-wise map", ("p", "d", "t", "cosets"))
    s = Splitting(exact_int(p, "p"), exact_int(d, "d"), exact_int(t, "t"))
    ctx, p, t = s.ctx, s.p, s.t
    top, block_of, shared = [None] * p ** t, [None] * p ** t, {}  # codes -> (index, block)
    for item in json_list(cosets, "cosets"):
        u, alpha, omega, nu = json_fields(item, "an entry of cosets",
                                          ("u", "alpha", "omega", "nu"))
        u = tuple(exact_int(c, "a coset label digit") for c in json_list(u, "u"))
        alpha, omega = json_matrix(ctx, alpha, "alpha"), VectorQ(ctx, json_list(omega, "omega"))
        j = shared.setdefault((alpha.codes, omega.codes), (len(shared), (alpha, omega)))[0]
        nu = VectorQ(ctx, json_list(nu, "nu")).codes
        if len(u) != t or not all(0 <= c < p for c in u):
            raise ValueError("per-coset data must cover every coset exactly once")
        if len(nu) != t:
            raise ValueError("omega is W-sized and nu is U-sized")
        i = tuple_to_index(u, p)
        if block_of[i] is not None:
            raise ValueError(f"cosets names the coset label {list(u)} twice")
        top[i], block_of[i] = tuple_to_index([a + b for a, b in zip(u, nu)], p), j
    if None in block_of:
        raise ValueError("per-coset data must cover every coset exactly once")
    return CosetWiseAffineMap(s, top, [block for _, block in shared.values()], block_of)


# ---------------------------------------------------------------------------
# Polynomial text
# ---------------------------------------------------------------------------

def _format_code(ctx: FieldCtx, code: int) -> str:
    unit = ctx.p ** (ctx.k - 1)  # the code of 1
    if not code % unit:
        return str(code // unit)
    try:
        return f"w^{ctx._dlog(code)}"
    except ValueError:
        return str(list(index_to_tuple(code, ctx.p, ctx.k)))


def format_poly(P: Poly) -> str:
    """Canonical text: descending powers joined with ' + ', unit coefficients
    omitted, extension coefficients as generator powers."""
    ctx, one = P.ctx, P.ctx.code(1)
    terms = []
    for d in range(len(P.codes) - 1, -1, -1):
        c = P.codes[d]
        if c:
            xpart = "x" if d == 1 else f"x^{d}"
            terms.append(_format_code(ctx, c) if d == 0 else xpart if c == one
                         else f"{_format_code(ctx, c)}*{xpart}")
    return " + ".join(terms) or "0"


_TERM_RE = re.compile(
    r"^(?:(?P<coef>\d+|w(?:\^(?P<wexp>\d+))?|\[(?P<coords>\d+(?:,\d+)*)\])\*?)?"
    r"(?:(?P<var>[A-Za-z])(?:\^(?P<exp>\d+))?)?$"
)


def parse_poly(text: str, ctx: FieldCtx) -> Poly:
    """Parse caret-power polynomial text over the given field.

    Accepts any single-letter variable (other than `w`, the generator),
    integer, generator-power or coordinate-list coefficients, and +/- signs.
    A degree above MAX_DOMAIN is refused before any coefficient list is
    built, one of more than 20 digits by its digit count before it is read,
    and a number with more digits than the interpreter converts is refused.
    """
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial text")
    s = s.replace("-", "+-")
    if s.startswith("+"):
        s = s[1:]
    coeffs = {}  # exponent -> coefficient
    varname = None
    for raw in s.split("+"):
        if not raw:
            raise ValueError(f"malformed polynomial text {text!r}")
        negate = raw.startswith("-")
        if negate:
            raw = raw[1:]
        m = _TERM_RE.match(raw)
        if not m or (m.group("coef") is None and m.group("var") is None):
            raise ValueError(f"malformed polynomial term {raw!r}")
        coef_txt = m.group("coef")
        if coef_txt is None:
            coef = ctx.one()
        elif m.group("coords"):
            coef = ctx.elem(tuple(read_int(c, "a coordinate in polynomial text")
                                  for c in m.group("coords").split(",")))
        elif coef_txt.startswith("w"):
            if ctx.k == 1:
                raise ValueError("generator powers need an extension field")
            exp = read_int(m.group("wexp") or "1", "an exponent of w in polynomial text")
            coef = ctx.gen() ** exp
        else:
            coef = ctx.elem(read_int(coef_txt, "a coefficient in polynomial text"))
        v = m.group("var")
        if v is not None:
            if v == "w":
                raise ValueError("w denotes the field generator, not the variable")
            if varname is None:
                varname = v
            elif v != varname:
                raise ValueError(f"mixed variables {varname!r} and {v!r}")
            digits = len((m.group("exp") or "1").lstrip("0"))
            if digits > 20:  # named by its length, as it is at least 10^20
                check_size(f"a polynomial whose degree has {digits} digits", 10, digits - 1)
            deg = int(m.group("exp") or "1")
        else:
            deg = 0
        if negate:
            coef = -coef
        coeffs[deg] = coeffs.get(deg, ctx.zero()) + coef
    top = max(coeffs) if coeffs else 0
    check_size(f"a polynomial of degree {top}", top)
    return Poly(ctx, [coeffs.get(i, ctx.zero()) for i in range(top + 1)])
