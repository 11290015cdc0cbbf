"""``nhsim._lapack`` returns numpy.linalg's own bytes, errors and warnings.

Every function is compared with its ``np.linalg`` counterpart on single
matrices and stacks, n = 1..12, complex and real, with ``-0.0`` entries,
zero matrices and scales 2^+-600; each case runs with numpy's private
gufunc module, without it (the handle set to ``None``) and with a module
that lacks every gufunc, so both the fast path and the fallback are pinned.
"""

import ast
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

from nhsim import _lapack
from nhsim.errors import EigensolverError, NonFiniteMatrixError
from nhsim.spectral import _eigvals, eigenvalues_many

SRC = Path(__file__).resolve().parents[1] / "src" / "nhsim"

HANDLES = {"private": _lapack._umath_linalg, "none": None,
           "empty": types.SimpleNamespace()}

#: each function of the module and the numpy.linalg call it equals
COUNTERPARTS = {
    "eigvals": np.linalg.eigvals,
    "eigvalsh": np.linalg.eigvalsh,
    "svd": lambda a: np.linalg.svd(a),
    "svd_thin": lambda a: np.linalg.svd(a, full_matrices=False),
    "svdvals": lambda a: np.linalg.svd(a, compute_uv=False),
    "solve": np.linalg.solve,
    "det": np.linalg.det,
}
OURS = {
    "eigvals": lambda a: _lapack.eigvals(a),
    "eigvalsh": lambda a: _lapack.eigvalsh(a),
    "svd": lambda a: _lapack.svd(a),
    "svd_thin": lambda a: _lapack.svd(a, full_matrices=False),
    "svdvals": lambda a: _lapack.svdvals(a),
    "solve": lambda a, b: _lapack.solve(a, b),
    "det": lambda a: _lapack.det(a),
}


@pytest.fixture(params=list(HANDLES))
def handle(request, monkeypatch):
    monkeypatch.setattr(_lapack, "_umath_linalg", HANDLES[request.param])
    return request.param


def outcome(fn, *args):
    """What ``fn(*args)`` did: its arrays' type, dtype, shape and bytes, or its
    exception's type and message; then every warning it issued."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = fn(*args)
        except Exception as exc:  # noqa: BLE001 - the type is compared
            result = (type(exc), str(exc))
        else:
            parts = out if isinstance(out, tuple) else (out,)
            result = [(type(p), p.dtype, p.shape, np.asarray(p).tobytes()) for p in parts]
    return result, [(w.category, str(w.message)) for w in caught]


def variants(rng, shape, real):
    """Random, with ``-0.0`` in every third entry, zero, and times 2^600 and
    2^-600."""
    def draw():
        a = rng.standard_normal(shape)
        return a if real else a + 1j * rng.standard_normal(shape)

    signed = draw()
    (signed if real else signed.view(float)).reshape(-1)[::3] = -0.0
    return {"random": draw(), "signed_zero": signed,
            "zero": np.zeros(shape, dtype=float if real else complex),
            "big": draw() * 2.0**600, "small": draw() * 2.0**-600}


def corpus(name, real):
    """``(label, args)`` for ``name`` on single matrices and stacks."""
    rng = np.random.default_rng(sum(map(ord, name)) + real)
    for n in range(1, 13):
        shapes = [(n, n), (3, n, n)]
        if name.startswith("svd"):
            shapes += [(n + 3, n), (2, n, n + 3)]
        for shape in shapes:
            for label, a in variants(rng, shape, real).items():
                if name == "eigvalsh":
                    a = a + np.swapaxes(a, -1, -2).conj()
                if name == "solve":
                    b = variants(rng, shape, real)["random"]
                    yield f"{shape}-{label}", (a, b)
                    yield f"{shape}-{label}-transposed", (np.swapaxes(a, -1, -2), b)
                    yield f"{shape}-{label}-vector", (a, b[..., 0])
                else:
                    yield f"{shape}-{label}", (a,)


@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
@pytest.mark.parametrize("name", list(OURS))
def test_every_function_has_numpys_bytes(handle, name, real):
    checked = 0
    for label, args in corpus(name, real):
        assert outcome(OURS[name], *args) == outcome(COUNTERPARTS[name], *args), label
        checked += 1
    assert checked >= 60


def test_stacked_lstsq_has_numpys_bytes_for_every_size(handle):
    rng = np.random.default_rng(12)
    for n in range(1, 13):
        for d in (1, 2, n):
            J = rng.standard_normal((4, n, d))
            J[1] = 0.0
            J[2] *= 2.0**600
            J[3] *= 2.0**-600
            b = rng.standard_normal((4, n))
            b[0, ::2] = -0.0
            want = np.array([np.linalg.lstsq(Js, bs, rcond=None)[0]
                             for Js, bs in zip(J, b)])
            assert _lapack.lstsq(J, b).tobytes() == want.tobytes(), (n, d)


def test_errors_and_their_messages_are_numpys(handle):
    nan = np.eye(3, dtype=complex)
    nan[1, 2] = np.nan
    cases = [
        ("eigvals", (np.ones((2, 3), dtype=complex),)),
        ("eigvals", (np.ones(3, dtype=complex),)),
        ("eigvals", (nan,)),
        ("eigvals", (np.stack([np.eye(3), nan]),)),
        ("eigvalsh", (np.ones((3, 2), dtype=complex),)),
        ("svd", (np.ones(3),)),
        ("svd", (nan,)),
        ("svd_thin", (nan.real,)),
        ("svdvals", (nan,)),
        ("solve", (np.ones((2, 3), dtype=complex), np.ones((2, 2), dtype=complex))),
        ("solve", (np.zeros((2, 2), dtype=complex), np.ones((2, 2), dtype=complex))),
        ("det", (np.ones((2, 3), dtype=complex),)),
    ]
    for name, args in cases:
        got, want = outcome(OURS[name], *args), outcome(COUNTERPARTS[name], *args)
        assert got == want, name
        assert isinstance(got[0], tuple) and issubclass(got[0][0], np.linalg.LinAlgError)
    J = np.random.default_rng(0).standard_normal((4, 2, 2))
    J[2, 0, 1] = np.nan
    with pytest.raises(np.linalg.LinAlgError, match="^SVD did not converge in Linear"):
        _lapack.lstsq(J, np.ones((4, 2)))


def test_eigensolver_error_keeps_numpys_message(handle):
    nan = np.full((2, 2), np.nan, dtype=complex)
    with pytest.raises(np.linalg.LinAlgError) as numpy_error:
        np.linalg.eigvals(nan)
    with pytest.raises(EigensolverError) as ours:
        _eigvals(nan)
    assert str(ours.value) == f"eigenvalue iteration failed: {numpy_error.value}"
    assert isinstance(ours.value.__cause__, np.linalg.LinAlgError)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan),
                                 complex(0, np.inf)], ids=repr)
def test_eigenvalues_many_has_one_finite_check(handle, bad, monkeypatch):
    # the eigensolver's own check decides, on the fast path and the fallback
    rng = np.random.default_rng(5)
    H = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
    assert eigenvalues_many(H).tobytes() == np.linalg.eigvals(H).tobytes()
    H[2, 1, 0] = bad
    with pytest.raises(NonFiniteMatrixError) as err:
        eigenvalues_many(H)
    assert str(err.value) == "matrix contains non-finite entries"
    assert err.value.__cause__ is None
    checks = []
    isfinite = np.isfinite
    monkeypatch.setattr(np, "isfinite", lambda *a, **k: checks.append(1) or isfinite(*a, **k))
    eigenvalues_many(H[:2])
    assert len(checks) <= 1


def test_eigenvalues_many_does_not_read_the_error_message(monkeypatch):
    # a numpy release whose wrapper words its errors otherwise
    def eigvals(a):
        raise np.linalg.LinAlgError("worded otherwise")

    monkeypatch.setattr(_lapack, "_umath_linalg", None)
    monkeypatch.setattr(np.linalg, "eigvals", eigvals)
    H = np.stack([np.eye(3, dtype=complex)] * 2)
    with pytest.raises(EigensolverError, match="^eigenvalue iteration failed: worded otherwise$"):
        eigenvalues_many(H)
    H[1, 0, 2] = np.inf
    with pytest.raises(NonFiniteMatrixError, match="^matrix contains non-finite entries$"):
        eigenvalues_many(H)


class Sub(np.ndarray):
    pass


def test_other_inputs_take_numpys_wrapper(monkeypatch):
    # real input to eigvals, another dtype, a subclass and a list reach no
    # gufunc: numpy's wrapper decides their result and its type
    others = [np.eye(2), np.eye(2, dtype=np.complex64),
              np.eye(2, dtype=complex).view(Sub), [[1.0, 0.0], [0.0, 1.0]]]
    for name in ("eigvals", "det", "solve"):
        monkeypatch.setattr(np.linalg, name, lambda *args: "wrapper")
    assert [_lapack.eigvals(a) for a in others] == ["wrapper"] * 4
    assert [_lapack.det(a) for a in others[1:]] == ["wrapper"] * 3
    assert [_lapack.solve(a, a) for a in others[1:]] == ["wrapper"] * 3
    monkeypatch.undo()
    for a in others:
        assert outcome(_lapack.eigvals, a) == outcome(np.linalg.eigvals, a)
        assert outcome(_lapack.det, a) == outcome(np.linalg.det, a)
        assert outcome(_lapack.solve, a, a) == outcome(np.linalg.solve, a, a)


LINALG_CALLS = {"eigvals", "eigvalsh", "svd", "solve", "det", "lstsq", "cond"}


def _linalg_name(node):
    """``X`` for an expression ``np.linalg.X`` or ``numpy.linalg.X``."""
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
            and node.value.attr == "linalg" and isinstance(node.value.value, ast.Name)
            and node.value.value.id in ("np", "numpy")):
        return node.attr
    return None


def test_every_decomposition_goes_through_the_module():
    left, importers = [], []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
                names = {alias.name for alias in node.names}
                if "_umath_linalg" in names:
                    importers.append(path.name)
                left += [(path.name, n) for n in names & LINALG_CALLS]
            elif isinstance(node, ast.Import):
                importers += [path.name for alias in node.names
                              if alias.name.startswith("numpy.linalg._umath_linalg")]
            elif (isinstance(node, ast.Call) and path.name != "_lapack.py"
                  and _linalg_name(node.func) in LINALG_CALLS):
                left.append((path.name, node.lineno))
            elif isinstance(node, ast.Attribute) and node.attr == "_umath_linalg" \
                    and path.name != "_lapack.py":
                importers.append(path.name)
    assert left == []
    assert importers == ["_lapack.py"]
