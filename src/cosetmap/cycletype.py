"""Cycle-type monomials and the operations that combine them.

A cycle type records how many cycles of each length a permutation has, as the
monomial x1^k1 x2^k2 ...; products of disjoint-support types multiply by adding
counts, blow-ups stretch every length by a factor, and the star product
combines the types of two permutations acting on a product set.
"""

from __future__ import annotations

import math
import re

from .kernel import exact_int, json_fields, read_int


class CycleType:
    """Finite multiset {length -> count} of ints (`kernel.exact_int`), counts >= 1."""

    __slots__ = ("_cycles",)

    def __init__(self, cycles=()):
        if isinstance(cycles, CycleType):
            self._cycles = cycles._cycles
            return
        if hasattr(cycles, "items"):
            items = cycles.items()
        else:
            items = cycles
        merged: dict[int, int] = {}
        for length, count in items:
            if type(length) is not int or type(count) is not int:  # no float, bool or str
                exact_int(length, "a cycle length")
                exact_int(count, f"the count of x{length}")
            if length < 1:
                raise ValueError("cycle lengths must be positive")
            if count < 0:
                raise ValueError("cycle counts must be nonnegative")
            if count:
                merged[length] = merged.get(length, 0) + count
        self._cycles = tuple(sorted(merged.items()))

    @property
    def cycles(self) -> tuple[tuple[int, int], ...]:
        return self._cycles

    @property
    def degree(self) -> int:
        """Total number of permuted points."""
        return sum(l * k for l, k in self._cycles)

    def count(self, length: int) -> int:
        for l, k in self._cycles:
            if l == length:
                return k
        return 0

    def lengths(self) -> tuple[int, ...]:
        return tuple(l for l, _ in self._cycles)

    def __mul__(self, other: "CycleType") -> "CycleType":
        return ct_mul(self, other)

    def __pow__(self, n: int) -> "CycleType":
        if n < 0:
            raise ValueError("negative cycle-type power")
        return CycleType((l, k * n) for l, k in self._cycles)

    def __eq__(self, other):
        return isinstance(other, CycleType) and self._cycles == other._cycles

    def __hash__(self):
        return hash(self._cycles)

    def __repr__(self):
        return ct_format(self)

    def to_json(self) -> dict[str, int]:
        return {str(l): k for l, k in self._cycles}

    @classmethod
    def from_json(cls, obj) -> "CycleType":
        """The type {"length": count, ...} as `to_json` writes it; ValueError
        unless each length is a string of ASCII digits and each count a JSON
        integer."""
        json_fields(obj, "a cycle type", ())  # ValueError unless a JSON object
        for l in obj:
            if not (isinstance(l, str) and l.isascii() and l.isdigit()):
                raise ValueError(f"a cycle length must be a string of digits, not {l!r}")
        return cls((read_int(l, "a cycle length"), exact_int(k, f"the count of x{l}"))
                   for l, k in obj.items())


def is_permutation(values, n: int) -> bool:
    """Whether the n ints `values` (any iterable) are 0..n-1 in some order, by
    one byte per point: a value out of range answers False, and a repeat
    leaves a point unseen.  The caller vouches for the count n."""
    seen = bytearray(n)
    try:
        for v in values:
            if v < 0:
                return False
            seen[v] = 1
    except IndexError:
        return False
    return 0 not in seen


def cycles_of(images) -> list[list[int]]:
    """Cycles of a permutation given as an image table on 0..n-1, sorted by
    least element, each starting at its least element."""
    seen = [False] * len(images)
    cycles = []
    for start in range(len(images)):
        if seen[start]:
            continue
        cyc = []
        i = start
        while not seen[i]:
            seen[i] = True
            cyc.append(i)
            i = images[i]
        cycles.append(cyc)
    return cycles


def ct_of_permutation(images) -> CycleType:
    """Cycle type of a permutation given as an image table on 0..n-1."""
    images = list(images)
    if not is_permutation(images, len(images)):
        raise ValueError("images do not describe a bijection")
    return CycleType((len(cyc), 1) for cyc in cycles_of(images))


def ct_mul(a: CycleType, b: CycleType) -> CycleType:
    """Disjoint-union product: counts add per length."""
    merged = dict(a.cycles)
    for l, k in b.cycles:
        merged[l] = merged.get(l, 0) + k
    return CycleType(merged)


def blow_up(ell: int, gamma: CycleType) -> CycleType:
    """Send every length n to ell*n, keeping counts."""
    if ell < 1:
        raise ValueError("blow-up factor must be positive")
    return CycleType((ell * l, k) for l, k in gamma.cycles)


def weixu(a: CycleType, b: CycleType) -> CycleType:
    """Star product x_m * x_n = gcd(m,n) x_lcm(m,n), extended bilinearly.

    Gives the cycle type of the simultaneous action of two permutations on
    the product of their domains; degree multiplies.
    """
    merged: dict[int, int] = {}
    for m, km in a.cycles:
        for n, kn in b.cycles:
            g = math.gcd(m, n)
            l = m // g * n
            merged[l] = merged.get(l, 0) + km * kn * g
    return CycleType(merged)


def weixu_all(types) -> CycleType:
    types = list(types)
    if not types:
        return CycleType({1: 1})
    acc = types[0]
    for t in types[1:]:
        acc = weixu(acc, t)
    return acc


_TERM_RE = re.compile(r"^x(\d+)(?:\^(\d+))?$")


def ct_format(ct: CycleType) -> str:
    """Canonical text: ascending lengths, exponent omitted when 1."""
    if not ct.cycles:
        return "1"
    parts = []
    for l, k in ct.cycles:
        parts.append(f"x{l}" if k == 1 else f"x{l}^{k}")
    return " ".join(parts)


def ct_parse(text: str) -> CycleType:
    """Parse the `x<l>[^<k>]` grammar; lengths must strictly increase."""
    if not isinstance(text, str):
        raise ValueError(f"a cycle type must be a string, not {text!r}")
    text = text.strip()
    if text == "1" or text == "":
        return CycleType()
    pairs = []
    last = 0
    for token in text.split():
        m = _TERM_RE.match(token)
        if not m:
            raise ValueError(f"malformed cycle-type term {token!r}")
        length = read_int(m.group(1), "a cycle length")
        count = read_int(m.group(2), "a cycle count") if m.group(2) else 1
        if length < 1 or count < 1:
            raise ValueError("cycle-type terms need positive length and count")
        if length <= last:
            raise ValueError("cycle-type terms must have strictly increasing lengths")
        last = length
        pairs.append((length, count))
    return CycleType(pairs)


def ct(text: str) -> CycleType:
    """Shorthand constructor used throughout the tests."""
    return ct_parse(text)
