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


def run_cli(workdir, docs, *argv):
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
