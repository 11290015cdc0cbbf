"""The LAPACK decompositions of the package, without numpy.linalg's wrappers.

For the small matrices of this package numpy.linalg's Python wrappers cost
more than the LAPACK work inside them.  Each function here calls the
gufunc that its ``np.linalg`` counterpart calls for complex128 or float64
input, numpy's private ``numpy.linalg._umath_linalg``, with the same
signature, under the same ``np.errstate`` and with the same
``LinAlgError`` messages, and keeps the wrapper's input checks, so the
results are numpy's own bytes
(``tests/test_lapack.py`` pins them against numpy 2.4.6):

============  ==============================================  =====================
function      equals                                          gufunc
============  ==============================================  =====================
``eigvals``   ``np.linalg.eigvals(a)``                        ``eigvals``
``eigvalsh``  ``np.linalg.eigvalsh(a)``                       ``eigvalsh_lo``
``svd``       ``np.linalg.svd(a, full_matrices)``             ``svd_f``, ``svd_s``
``svdvals``   ``np.linalg.svd(a, compute_uv=False)``          ``svd``
``solve``     ``np.linalg.solve(a, b)``                       ``solve``, ``solve1``
``det``       ``np.linalg.det(a)``                            ``det``
``lstsq``     ``np.linalg.lstsq(J[s], b[s], rcond=None)[0]``  ``lstsq``
============  ==============================================  =====================

This is the only module of the package that imports the private module.
Where a numpy release lacks it or one of its gufuncs, and for any input
the fast path does not take (another dtype, an ndarray subclass, and real
input to ``eigvals``, whose wrapper may return real values), each function
calls the public wrapper instead; ``lstsq`` calls it once per matrix of
the stack.
"""

from __future__ import annotations

import numpy as np
from numpy.linalg import LinAlgError

try:
    from numpy.linalg import _umath_linalg
except ImportError:
    _umath_linalg = None

#: numpy's computation type code of each dtype the fast path takes.
_CODES = {np.complex128: "D", np.float64: "d"}


def _fast(name: str, *arrays):
    """``(gufunc, code)``: the gufunc ``name`` and ``"D"`` or ``"d"``, the
    type numpy.linalg computes ``arrays`` in; ``None`` where the gufunc is
    missing or an array is not a plain complex128 or float64 ndarray."""
    gufunc = getattr(_umath_linalg, name, None)
    code = "d"
    for a in arrays:
        c = _CODES.get(a.dtype.type) if type(a) is np.ndarray else None
        if c is None:
            return None
        if c == "D":
            code = c
    return None if gufunc is None else (gufunc, code)


def _assert_stacked_2d(a):
    if a.ndim < 2:
        raise LinAlgError(f"{a.ndim}-dimensional array given. "
                          "Array must be at least two-dimensional")


def _assert_stacked_square(a):
    _assert_stacked_2d(a)
    if a.shape[-2] != a.shape[-1]:
        raise LinAlgError("Last 2 dimensions of the array must be square")


def _guarded(message: str):
    """A caller ``call(gufunc, *args, signature)`` that runs the gufunc under
    numpy.linalg's ``np.errstate``: an invalid-value flag raises
    ``LinAlgError(message)``, overflow, division and underflow are ignored.
    The decorator form sets that state per call without building an
    ``errstate`` object each time."""
    def raise_error(err, flag):
        raise LinAlgError(message)

    @np.errstate(call=raise_error, invalid="call", over="ignore",
                 divide="ignore", under="ignore")
    def call(gufunc, *args, signature):
        return gufunc(*args, signature=signature)

    return call


_singular = _guarded("Singular matrix")
_eig_failed = _guarded("Eigenvalues did not converge")
_svd_failed = _guarded("SVD did not converge")
_lstsq_failed = _guarded("SVD did not converge in Linear Least Squares")


def eigvals(a):
    """``np.linalg.eigvals(a)``."""
    fast = _fast("eigvals", a)
    if fast is None or fast[1] != "D":
        return np.linalg.eigvals(a)
    _assert_stacked_square(a)
    if not np.isfinite(a).all():
        raise LinAlgError("Array must not contain infs or NaNs")
    return _eig_failed(fast[0], a, signature="D->D")


def eigvalsh(a):
    """``np.linalg.eigvalsh(a)``, from the lower triangle."""
    fast = _fast("eigvalsh_lo", a)
    if fast is None:
        return np.linalg.eigvalsh(a)
    _assert_stacked_square(a)
    return _eig_failed(fast[0], a, signature=fast[1] + "->d")


def svd(a, full_matrices: bool = True):
    """``(u, s, vh)`` of ``np.linalg.svd(a, full_matrices)``."""
    fast = _fast("svd_f" if full_matrices else "svd_s", a)
    if fast is None:
        return np.linalg.svd(a, full_matrices=full_matrices)
    gufunc, code = fast
    _assert_stacked_2d(a)
    return _svd_failed(gufunc, a, signature=f"{code}->{code}d{code}")


def svdvals(a):
    """``np.linalg.svd(a, compute_uv=False)``: the singular values."""
    fast = _fast("svd", a)
    if fast is None:
        return np.linalg.svd(a, compute_uv=False)
    _assert_stacked_2d(a)
    return _svd_failed(fast[0], a, signature=fast[1] + "->d")


def solve(a, b):
    """``np.linalg.solve(a, b)``."""
    fast = _fast("solve1" if getattr(b, "ndim", None) == 1 else "solve", a, b)
    if fast is None:
        return np.linalg.solve(a, b)
    gufunc, code = fast
    _assert_stacked_square(a)
    return _singular(gufunc, a, b, signature=f"{code}{code}->{code}")


def det(a):
    """``np.linalg.det(a)``; like it, under the caller's ``np.errstate``."""
    fast = _fast("det", a)
    if fast is None:
        return np.linalg.det(a)
    _assert_stacked_square(a)
    return fast[0](a, signature=fast[1] + "->" + fast[1])


def lstsq(J: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.linalg.lstsq(J[s], b[s], rcond=None)[0]`` for every ``s`` of a
    float64 stack ``(S, k, d)``, ``(S, k) -> (S, d)``, in one call.

    It calls the gufunc with signature ``ddd->ddid`` and numpy's default
    ``rcond = eps * max(k, d)``, and raises ``LinAlgError`` where the SVD
    does not converge, as numpy does.  The fallback calls
    ``np.linalg.lstsq`` once per matrix of the stack.
    """
    gufunc = getattr(_umath_linalg, "lstsq", None)
    if gufunc is None:
        x = np.empty(J.shape[:-2] + J.shape[-1:])
        for s, (Js, bs) in enumerate(zip(J, b)):
            x[s] = np.linalg.lstsq(Js, bs, rcond=None)[0]
        return x
    rcond = np.finfo(float).eps * max(J.shape[-2:])
    x = _lstsq_failed(gufunc, J, b[..., None], rcond, signature="ddd->ddid")[0]
    return x[..., 0]
