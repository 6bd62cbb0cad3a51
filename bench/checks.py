"""Answer checks, independent of cosetmap.

Each check returns None when the answer is right, or a short cause.  A cause
starting with "wrong" is a wrong answer (the run is then not correct); any
other cause is a failure such as an exception or a bad exit code.
"""

from __future__ import annotations

import json
import re

from inputs import (ORBIT_WALK_MAX, HField, affine_images, ct_degree, ct_norm, ct_of_images,
                    ct_text, default_modulus, is_complete_matrix, mat_mul)


def _ct(pairs) -> tuple:
    return ct_norm(pairs) if pairs is not None else None


# ---------------------------------------------------------------------------
# in-process workloads
# ---------------------------------------------------------------------------

def check_cycletype(op: dict, res: dict):
    if res["status"] != "ok":
        return res.get("err", res["status"])
    F = HField(op["p"], op["k"])
    degree = F.q ** op["n"]
    types = [_ct(t) for t in res["ans"]] if op["kind"] == "gamma" else [_ct(res["ans"])]
    if any(ct_degree(t) != degree for t in types):
        return f"wrong degree: expected {degree}"
    if degree <= ORBIT_WALK_MAX:
        walk = ct_of_images(affine_images(F, op["M"], op["v"]))
        if walk not in types:
            return f"wrong cycle type: orbit walk gives {ct_text(walk)}"
    return None


def check_construct(op: dict, res: dict):
    kind = op["kind"]
    if kind == "main" and op["infeasible"]:
        if res["status"] == "refused":
            return None
        if res["status"] == "ok":
            return "wrong: built a map for an unreachable target"
        return res.get("err", res["status"])
    if res["status"] != "ok":
        return res.get("err", res["status"])
    ans = res["ans"]
    if kind == "main":
        expected = ct_norm((ell * l, k) for ell, _, ct in res["targets"] for l, k in ct)
        complete = True
    elif kind == "sylow":
        expected, complete = _ct(op["target"]), True
    else:
        expected, complete = ((op["p"] ** op["k"], 1),), op["p"] > 2
    if _ct(ans["ct"]) != expected:
        return f"wrong cycle type: expected {ct_text(expected)}"
    if complete and not ans["complete"]:
        return "wrong: map is not complete"
    if kind == "poly" and not ans["roundtrip"]:
        return "wrong: interpolate did not give the polynomial back"
    return None


# ---------------------------------------------------------------------------
# cli_cold
# ---------------------------------------------------------------------------

_TERM = re.compile(r"^x(\d+)(?:\^(\d+))?$")


def parse_ct(text: str) -> tuple:
    pairs = []
    for term in text.split():
        m = _TERM.match(term)
        if not m:
            raise ValueError(f"bad cycle-type term {term!r}")
        pairs.append((int(m.group(1)), int(m.group(2) or 1)))
    return ct_norm(pairs)


def _check_gamma(chk, lines):
    types = [parse_ct(line) for line in lines]
    if not types:
        return "wrong: empty gamma set"
    if types != sorted(set(types)):
        return "wrong: gamma set not sorted or repeated"
    if any(ct_degree(t) != chk["degree"] for t in types):
        return f"wrong degree: expected {chk['degree']}"
    if "member" in chk and _ct(chk["member"]) not in types:
        return f"wrong: orbit-walk type {ct_text(_ct(chk['member']))} missing"
    return None


def _check_cycle_type(chk, lines):
    if len(lines) != 1:
        return "wrong: expected one line"
    got = parse_ct(lines[0])
    if ct_degree(got) != chk["degree"]:
        return f"wrong degree: expected {chk['degree']}"
    if chk["ct"] is not None and got != _ct(chk["ct"]):
        return f"wrong cycle type: orbit walk gives {ct_text(_ct(chk['ct']))}"
    return None


def _check_cgl(chk, lines):
    F = HField(chk["p"])
    factors = [json.loads(line) for line in lines]
    if len(factors) != chk["l"]:
        return f"wrong: {len(factors)} factors, expected {chk['l']}"
    if not all(is_complete_matrix(F, [[a % F.p for a in row] for row in M]) for M in factors):
        return "wrong: a factor is not complete"
    prod = factors[0]
    for M in factors[1:]:
        prod = mat_mul(F, prod, M)
    if [[a % F.p for a in row] for row in prod] != chk["M"]:
        return "wrong: factors do not multiply back to the input"
    return None


def _check_cw(chk, lines):
    want = ct_text(_ct(chk["ct"]))
    if f"cycle type: {want}" not in lines:
        return f"wrong cycle type: expected {want}"
    complete = "True" if chk["complete"] else "False"
    if f"oracle: bijection=True complete={complete} type={want}" not in lines:
        return "wrong oracle line"
    return None


def _check_poly(chk, stdout):
    """Evaluate the printed polynomial at every point with the harness's own
    field: it must be a single q-cycle, complete for odd q."""
    p, k = chk["p"], chk["k"]
    payload = json.loads(stdout)
    F = HField(p, k)
    if k > 1 and tuple(payload["field"]["modulus"]) != default_modulus(p, k):
        return "wrong: unexpected default modulus"
    coeffs = [c % p if k == 1 else F.index[tuple(c)] for c in payload["polynomial"]]
    images = []
    for x in range(F.q):
        acc = 0
        for c in reversed(coeffs):
            acc = F.add(F.mul(acc, x), c)
        images.append(acc)
    if sorted(images) != list(range(F.q)) or ct_of_images(images) != ((F.q, 1),):
        return "wrong: polynomial is not a single q-cycle"
    if p > 2 and sorted(F.add(images[x], x) for x in range(F.q)) != list(range(F.q)):
        return "wrong: polynomial map is not complete"
    return None


def _check_verify(chk, lines):
    r = chk["report"]
    ct = ct_text(_ct(r["ct"])) if r["ct"] is not None else "n/a"
    want = [f"bijection: {r['bijection']}", f"complete: {r['complete']}",
            f"orthomorphism: {r['orthomorphism']}", f"cycle type: {ct}",
            f"fixed points: {r['fixed']}"]
    return None if lines == want else "wrong report: " + "; ".join(want)


def check_cli(req: dict, code: int, stdout: str, stderr: str):
    chk = req["check"]
    if code != req["expect"]:
        tail = stderr.strip().splitlines()[-1:] or [""]
        cause = f"exit {code}, expected {req['expect']}: {tail[0][:120]}"
        return ("wrong " + cause) if code == 0 else cause
    lines = stdout.splitlines()
    if code != 0:
        return None if not lines else "wrong: output on a refused request"
    try:
        if chk["kind"] == "gamma":
            return _check_gamma(chk, lines)
        if chk["kind"] == "cycle_type":
            return _check_cycle_type(chk, lines)
        if chk["kind"] == "cgl":
            return _check_cgl(chk, lines)
        if chk["kind"] == "cw":
            return _check_cw(chk, lines)
        if chk["kind"] == "poly":
            return _check_poly(chk, stdout)
        if chk["kind"] == "verify":
            return _check_verify(chk, lines)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"wrong: unparsable output ({exc})"
    raise ValueError(f"unknown check {chk['kind']!r}")
