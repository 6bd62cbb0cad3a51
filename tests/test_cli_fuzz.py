"""The CLI's exit-code contract under random requests, run in process.

Each test draws well-formed requests at desk scale (p in {2, 3, 5}, small
dimensions, no large --k or --l), mutates some of them (a key dropped, a
value replaced by a JSON value of any type, the text cut short) and checks
the contract: exit 0, 1 or 2; stdout empty unless the exit is 0; stderr
empty on success, else one line starting `infeasible:` (exit 1) or `error:`
(exit 2).  An exit 3 or an escaping exception is a bug in cosetmap.  Inline
texts are passed as `--option=text` or as a separate argument, which argparse
refuses as a missing value when it starts with `-`; integer options may be
negative.  The examples are derandomized, so a run is reproducible.
"""

import contextlib
import io
import json
from unittest import mock

import pytest

from cosetmap.cli import main

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

SETTINGS = hypothesis.settings(max_examples=60, deadline=None, derandomize=True,
                               suppress_health_check=list(hypothesis.HealthCheck))

PRIMES = st.sampled_from([2, 3, 5])
# target types by degree p^d; a draw of another degree is refused with exit 1
TYPES = {2: ("x1^2", "x2"), 3: ("x1^3", "x3", "x1 x2"), 4: ("x1^4", "x2^2", "x1 x3", "x4"),
         5: ("x1^5", "x5", "x1 x4"), 9: ("x1^9", "x9", "x3^3", "x1^3 x3^2", "x1 x8"),
         25: ("x1^25", "x25", "x5^5", "x1 x24")}

# any JSON value, small integers included so that a replaced key may still
# read as an integer of the wrong size
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 9) | st.floats(-3, 3) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=8)


def run(argv, stdin=""):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(stdin)), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def check(argv, stdin=""):
    code, out, err = run(argv, stdin)
    assert code in (0, 1, 2), (argv, stdin, code, err)
    if code == 0:
        assert err == "", (argv, stdin, err)
        return
    assert out == "", (argv, stdin, out)
    prefix = "infeasible: " if code == 1 else "error: "
    assert err.startswith(prefix) and err.count("\n") == 1 and err.endswith("\n"), \
        (argv, stdin, code, err)


@st.composite
def mutated(draw, value):
    """value as drawn, or with one change to it: a key dropped or replaced,
    a list entry replaced, or the whole value replaced."""
    kind = draw(st.sampled_from(("keep", "keep", "drop", "replace", "entry", "whole")))
    if kind == "whole":
        return draw(JSON)
    if isinstance(value, dict) and value and kind in ("drop", "replace"):
        key = draw(st.sampled_from(sorted(value)))
        value = dict(value)
        if kind == "drop":
            del value[key]
        else:
            value[key] = draw(st.one_of(JSON, mutated(value[key])))
    elif isinstance(value, list) and value and kind != "keep":
        i = draw(st.integers(0, len(value) - 1))
        value = value[:i] + [draw(st.one_of(JSON, mutated(value[i])))] + value[i + 1:]
    return value


def text_of(draw, value):
    """The JSON text of value, sometimes cut short or with a stray character."""
    text = json.dumps(value)
    kind = draw(st.sampled_from(("keep", "keep", "keep", "cut", "insert")))
    if kind == "cut":
        return text[:draw(st.integers(0, len(text)))]
    if kind == "insert":
        i = draw(st.integers(0, len(text)))
        return text[:i] + draw(st.sampled_from("{}[],:\"0-. x")) + text[i:]
    return text


def field_argv(draw):
    p = draw(PRIMES)
    k = draw(st.sampled_from([1, 1, 2]))
    return p, k, ["--p", p, "--k", draw(st.sampled_from([k, k, k, -k, "-x"]))]


def inline(draw, option, text):
    """--option=text, or --option and text as two arguments."""
    return [f"{option}={text}"] if draw(st.booleans()) else [option, text]


def element(draw, p, k):
    if k == 1:
        return draw(st.integers(0, p - 1))
    return draw(st.lists(st.integers(0, p - 1), min_size=k, max_size=k))


def matrix(draw, p, k, n):
    return [[element(draw, p, k) for _ in range(n)] for _ in range(n)]


@SETTINGS
@hypothesis.given(st.data())
def test_cycle_type(data):
    draw = data.draw
    p, k, field = field_argv(draw)
    n = draw(st.integers(1, 3))
    obj = {"matrix": matrix(draw, p, k, n), "shift": [element(draw, p, k) for _ in range(n)]}
    check(["cycle-type", *field, "--map", "-"], text_of(draw, draw(mutated(obj))))


@SETTINGS
@hypothesis.given(st.data())
def test_gamma(data):
    draw = data.draw
    p, k, field = field_argv(draw)
    if draw(st.booleans()):
        M = draw(mutated(matrix(draw, p, k, draw(st.integers(1, 3)))))
        check(["gamma", *field, *inline(draw, "--matrix", text_of(draw, M))])
    else:
        terms = draw(st.lists(st.tuples(st.integers(0, p), st.integers(0, 4)), max_size=4))
        poly = draw(st.sampled_from(["", "", "-"])) + " + ".join(f"{c}*x^{e}" for c, e in terms)
        if draw(st.booleans()):
            i = draw(st.integers(0, len(poly)))
            poly = poly[:i] + draw(st.text("x^+-*w[], y", max_size=2)) + poly[i:]
        check(["gamma", *field, *inline(draw, "--poly", poly)])


@SETTINGS
@hypothesis.given(st.data())
def test_cgl_factor(data):
    draw = data.draw
    p, k, field = field_argv(draw)
    M = draw(mutated(matrix(draw, p, k, draw(st.integers(1, 3)))))
    check(["cgl-factor", *field, "--l", draw(st.integers(1, 3)), "--matrix", "-",
           "--seed", draw(st.integers(0, 3))], text_of(draw, M))


@SETTINGS
@hypothesis.given(st.data())
def test_construct(data):
    draw = data.draw
    p = draw(PRIMES)
    d, t = draw(st.integers(1, 2)), draw(st.integers(0, 1))
    g = draw(st.permutations(range(p ** t)))
    lengths, seen = {}, set()
    for start in range(len(g)):  # cycles by least element, numbered per length
        if start not in seen:
            ell, i = 0, start
            while i not in seen:
                seen.add(i)
                i, ell = g[i], ell + 1
            lengths[ell] = lengths.get(ell, 0) + 1
    types = st.sampled_from(TYPES[p ** d]) | st.sampled_from(sum(TYPES.values(), ()))
    gammas = [{"length": ell, "index": i, "type": draw(types)}
              for ell, count in lengths.items() for i in range(1, count + 1)]
    job = {"p": p, "d": d, "t": t, "g": list(g), "gammas": gammas}
    if draw(st.booleans()):
        job["require_complete"] = draw(st.booleans())
    argv = ["construct", "--job", "-", "--seed", draw(st.integers(-3, 3))]
    if draw(st.booleans()):
        argv.append("--verify")
    check(argv, text_of(draw, draw(mutated(job))))


@SETTINGS
@hypothesis.given(st.data())
def test_verify(data):
    draw = data.draw
    p, dim = draw(PRIMES), draw(st.integers(0, 2))
    images = list(draw(st.permutations(range(p ** dim))))
    if draw(st.booleans()):
        images = draw(st.lists(st.integers(0, p ** dim), min_size=len(images),
                               max_size=len(images)))
    if draw(st.booleans()):
        text = text_of(draw, draw(mutated({"n": len(images), "images": images})))
    else:
        text = "".join(f"{i},{y}\n" for i, y in enumerate(images))
        if draw(st.booleans()):
            i = draw(st.integers(0, len(text)))
            text = text[:i] + draw(st.text(" ,\n0123456789-+.x\"{[", max_size=3)) + text[i:]
    check(["verify", "--table", "-", "--p", p, "--dim", dim], text)
