"""Property-based inputs for the ``specht`` and ``specht-generators`` commands.

Every matrix document, however extreme its numbers or malformed its grid,
must give exit code 0, 1 or 2, at most one line on stderr and, on success,
standard JSON on stdout (no ``NaN``/``Infinity``).
"""

import contextlib
import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from nhsim.cli import main

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
           1e-160, 1.0, -1.0, 1e160, -1e160, 1e308, -1e308]
number = st.one_of(
    st.floats(min_value=-1e308, max_value=1e308, allow_nan=False, allow_infinity=False),
    st.sampled_from(SPECIAL),
)
entry = st.lists(number, min_size=2, max_size=2)


def grid_doc(entries):
    return {"dim": len(entries), "entries": entries}


square = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
ragged = st.lists(st.lists(entry, min_size=1, max_size=4), min_size=1, max_size=4)


def pt_member(a, b, c, d, k):
    # [[a + ib, c], [d, a - ib]] with real a..d is PT-symmetric, so
    # pseudo-Hermitian; 10**k spreads it over the whole double range
    scale = 10.0**k
    M = scale * np.array([[a + 1j * b, c], [d, a - 1j * b]])
    return [[[z.real, z.imag] for z in row] for row in M]


unit = st.floats(-4, 4, allow_nan=False)
member = st.builds(pt_member, unit, unit, unit, unit, st.integers(-320, 307))
matrix_doc = st.one_of(square, ragged, member).map(grid_doc)

G = 1e160 * np.array([[1, 2], [3, 4j]])


def as_doc(M):
    return grid_doc([[[z.real, z.imag] for z in row] for row in M])


def reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def run_cli(workdir, docs, *argv, warning=False):
    """Run the command; with ``warning``, exit 0 may also print one line
    ``warning: ...`` on stderr."""
    paths = []
    for i, doc in enumerate(docs):
        p = workdir / f"m{i}.json"
        p.write_text(json.dumps(doc))
        paths.append(str(p))
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main([argv[0], *paths, *argv[1:]])
    # a warning would reach stderr of the command-line program
    stderr = err.getvalue().splitlines() + [str(w.message) for w in caught]
    assert code in (0, 1, 2)
    if code == 0 and warning and stderr:
        assert len(stderr) == 1 and stderr[0].startswith("warning: "), stderr
    else:
        assert len(stderr) == (0 if code == 0 else 1), stderr
    assert "Traceback" not in err.getvalue()
    if code == 0:
        for line in out.getvalue().splitlines():
            json.loads(line, parse_constant=reject_constant)
    else:
        assert out.getvalue() == ""
    return code


FUZZ = settings(max_examples=70, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@FUZZ
@given(a=matrix_doc, b=matrix_doc, tol=st.sampled_from([[], ["--tol", "1e-6"]]))
@example(a=as_doc(G), b=as_doc(np.conj(G)), tol=[])
def test_specht_fuzz(workdir, a, b, tol):
    run_cli(workdir, [a, b], "specht", *tol)


@FUZZ
@given(m=matrix_doc,
       cls=st.sampled_from([[], ["--class", "pseudo-hermitian"], ["--class", "chiral"],
                            ["--class", "self-skew"]]))
@example(m=as_doc(G), cls=["--class", "pseudo-hermitian"])
def test_specht_generators_fuzz(workdir, m, cls):
    run_cli(workdir, [m], "specht-generators", *cls)


def test_overflowing_pair_exits_2(workdir):
    assert run_cli(workdir, [as_doc(G), as_doc(np.conj(G))], "specht") == 2


# ---------------------------------------------------------------------------
# families for scan and certify

CLASSES = ["pseudo-hermitian", "chiral", "self-skew"]
text_value = st.one_of(number.map(repr), st.floats(-3, 3).map(repr),
                       st.sampled_from(["nan", "inf", "-inf", "1e999", "x", ""]))
points = st.one_of(st.integers(2, 20), st.sampled_from([-1, 0, 1])).map(str)


@st.composite
def family_docs(draw):
    """Documents with dims 1-4, 0-3 parameters and exponents 0-3, or the
    trimer times 10**k; returns the document and its parameter names."""
    if draw(st.booleans()):
        k = draw(st.integers(-320, 307))
        doc = trimer_doc(10.0**k)
        return doc, doc["param_names"]
    n, d = draw(st.integers(1, 4)), draw(st.integers(0, 3))
    matrix = st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)
    exponents = st.lists(st.integers(0, 3), min_size=d, max_size=d)
    terms = draw(st.lists(st.tuples(matrix, exponents), min_size=1, max_size=3))
    doc = {"dim": n, "params": d,
           "terms": [{"matrix": grid_doc(M), "exponents": e} for M, e in terms]}
    return doc, [f"p{i + 1}" for i in range(d)]


def trimer_doc(scale):
    E = np.eye(3)
    K = scale * (np.outer(E[0], E[1]) + np.outer(E[1], E[0])
                 + np.outer(E[1], E[2]) + np.outer(E[2], E[1]))
    D = scale * 1j * (np.outer(E[0], E[0]) - np.outer(E[2], E[2]))
    return {"dim": 3, "params": 2, "param_names": ["gamma", "k"],
            "terms": [{"matrix": as_doc(K), "exponents": [0, 1]},
                      {"matrix": as_doc(D), "exponents": [1, 0]}]}


@st.composite
def scan_argv(draw, names):
    grid, fix = [], []
    for name in names:
        if draw(st.booleans()):
            grid.append(f"--grid={name}={draw(text_value)}:{draw(text_value)}"
                        f":{draw(points)}")
        else:
            fix.append(f"--fix={name}={draw(text_value)}")
    if not grid:  # --grid is required; p1 may not exist
        grid.append(f"--grid={draw(st.sampled_from(names or ['p1']))}=0:1:5")
    return ["--class", draw(st.sampled_from(CLASSES)), *grid, *fix]


@st.composite
def certify_argv(draw, names):
    def vector():
        size = draw(st.sampled_from([len(names), len(names), max(len(names) - 1, 0),
                                     len(names) + 1]))
        return ",".join(draw(text_value) for _ in range(size))

    argv = [f"--at={vector()}"]
    if draw(st.booleans()):
        argv.append(f"--direction={vector()}")
    return argv


@FUZZ
@given(data=st.data())
def test_scan_fuzz(workdir, data):
    doc, names = data.draw(family_docs())
    run_cli(workdir, [doc], "scan", *data.draw(scan_argv(names)), warning=True)


@FUZZ
@given(data=st.data())
def test_certify_fuzz(workdir, data):
    doc, names = data.draw(family_docs())
    run_cli(workdir, [doc], "certify", *data.draw(certify_argv(names)))


def test_overflowing_scan_grid_exits_2(workdir):
    argv = ["--class", "pseudo-hermitian", "--grid=gamma=0:1e300:5", "--fix=k=1"]
    assert run_cli(workdir, [trimer_doc(1.0)], "scan", *argv) == 2
