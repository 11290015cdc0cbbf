"""Seeded inputs, the timed operation and its output check, per workload.

Inputs are built here with numpy from the workload seed alone; nothing in
``nhsim`` is used to make them, so a change to the program cannot change
what it is given.  Every in-class input is built together with the reason it
is in its class, so the expected verdicts are known without asking the
program.

Each workload offers three things:

``inputs(seed)``
    the input pool, a pure function of ``seed``;
``run(api, item)``
    the timed operation: only calls into the public API (``api`` is the
    ``nhsim`` package, or a fake in the tests);
``check(item, raw)``
    the untimed output check, giving an :class:`Outcome`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

PH, CH, SSS = "PseudoHermitian", "Chiral", "SelfSkewSimilar"

#: Bound on witness residuals, Hermiticity defects and generator defects.
CHECK_TOL = 1e-8
#: Largest distance of a scan root from the trimer EP curve gamma = sqrt(2) k.
CURVE_TOL = 1e-6


@dataclass
class Outcome:
    """Checked result of one operation.

    ``wrong`` marks a result the program returned that fails its check;
    ``error`` names the exception type that left the public call (or the
    CLI exit code).  Either makes the operation count as failed.
    ``known``/``confirmed`` count the known facts (classes, EPs,
    generators) the operation was asked about and the ones it confirmed.
    ``digest`` is a canonical text of the output, hashed into the run digest.
    """

    wrong: bool = False
    error: str | None = None
    known: int = 0
    confirmed: int = 0
    digest: str = ""
    origin: str | None = None

    @property
    def failed(self) -> bool:
        return self.wrong or self.error is not None


def input_digest(items) -> str:
    """SHA-256 over every input array and label, in pool order."""
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, np.ndarray):
            h.update(str(x.dtype).encode())
            h.update(x.tobytes())
        elif isinstance(x, (tuple, list)):
            for y in x:
                feed(y)
        elif isinstance(x, frozenset):  # set order varies with the hash seed
            feed(sorted(x))
        else:
            h.update(repr(x).encode())

    feed(items)
    return h.hexdigest()


def _rng(seed: int, name: str) -> np.random.Generator:
    tag = int.from_bytes(hashlib.sha256(name.encode()).digest()[:4], "little")
    return np.random.default_rng(np.random.SeedSequence([int(seed), tag]))


# ---------------------------------------------------------------------------
# matrix builders (numpy only)


def _dagger(M):
    return M.conj().T


def _frob(M) -> float:
    return float(np.linalg.norm(M))


def _gauss(rng, n, m=None):
    m = n if m is None else m
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


def _haar_unitary(rng, n):
    Q, R = np.linalg.qr(_gauss(rng, n))
    d = np.diag(R)
    return Q * (d / np.abs(d))


def _hermitian(rng, n):
    A = _gauss(rng, n)
    return (A + _dagger(A)) / 2


def _hermitian_invertible(rng, n):
    """Hermitian with condition number at most 100 and random signs."""
    mags = 10.0 ** rng.uniform(-1.0, 1.0, n)
    signs = rng.choice([-1.0, 1.0], n)
    V = _haar_unitary(rng, n)
    return (V * (signs * mags)) @ _dagger(V)


def _pseudo_hermitian(rng, n):
    """``eta A`` with ``eta`` Hermitian invertible and ``A`` Hermitian."""
    return _hermitian_invertible(rng, n) @ _hermitian(rng, n)


def _chiral(rng, n):
    """``i Gamma C`` with ``Gamma`` Hermitian invertible and ``C`` Hermitian."""
    return 1j * (_hermitian_invertible(rng, n) @ _hermitian(rng, n))


def _self_skew(rng, n):
    """Unitary conjugate of a block-off-diagonal matrix: ``S = U diag(I, -I) U^+``
    anticommutes with it."""
    p = n // 2
    M = np.zeros((n, n), dtype=complex)
    M[:p, p:] = _gauss(rng, p, n - p)
    M[p:, :p] = _gauss(rng, n - p, p)
    U = _haar_unitary(rng, n)
    return U @ M @ _dagger(U)


def _jordan_block(eig, m):
    return eig * np.eye(m) + np.diag(np.ones(m - 1), 1)


#: Jordan block-size patterns for classify-ep part (a): sizes 2-4, n <= 8.
JORDAN_PATTERNS = (
    (2,), (3,), (4,), (2, 2), (3, 2), (4, 2), (3, 3), (4, 3), (4, 4),
    (2, 2, 2), (3, 2, 2), (4, 2, 2), (3, 3, 2), (2, 2, 2, 2),
)


def _spaced_reals(rng, k):
    """``k`` distinct reals in [-2, 2], at least 0.3 apart."""
    grid = np.linspace(-2.0, 2.0, 9)
    return rng.permutation(grid)[:k] + rng.uniform(-0.1, 0.1, k)


def _real_jordan_conjugate(rng, pattern, unitary: bool):
    """Real Jordan form conjugated by a unitary or by a similarity of
    condition number at most 100; pseudo-Hermitian with
    ``eta = V P V^+`` for the block exchange ``P``."""
    eigs = _spaced_reals(rng, len(pattern))
    n = sum(pattern)
    J = np.zeros((n, n), dtype=complex)
    pos = 0
    for eig, m in zip(eigs, pattern):
        J[pos : pos + m, pos : pos + m] = _jordan_block(eig, m)
        pos += m
    if unitary:
        V = _haar_unitary(rng, n)
        return V @ J @ _dagger(V)
    sv = 10.0 ** rng.uniform(0.0, 2.0, n)
    V = (_haar_unitary(rng, n) * sv) @ _dagger(_haar_unitary(rng, n))
    return np.linalg.solve(V.T, (V @ J).T).T  # V J V^-1


def _near_ep_2x2(rng):
    """``s U [[0, 1], [d, 0]] U^+``: eigenvalues +-sqrt(d) s, in all three
    classes (eta = U sx U^+, Gamma = U sy U^+, S = U sz U^+)."""
    d = 10.0 ** rng.uniform(-15.0, -6.0)
    s = 10.0 ** rng.uniform(-1.0, 1.0)
    U = _haar_unitary(rng, 2)
    return s * (U @ np.array([[0, 1], [d, 0]], dtype=complex) @ _dagger(U))


def _split_hermitian(rng, n):
    """Hermitian with one to n/2 eigenvalue pairs split by 1e-9..1e-5."""
    pairs = int(rng.integers(1, n // 2 + 1))
    base = _spaced_reals(rng, n - pairs)
    split = 10.0 ** rng.uniform(-9.0, -5.0, pairs)
    eigs = np.concatenate([base, base[:pairs] + split])
    V = _haar_unitary(rng, n)
    H = (V * eigs) @ _dagger(V)
    return (H + _dagger(H)) / 2


# ---------------------------------------------------------------------------
# output checks (numpy only)


def witness_defects(H, cls: str, S) -> tuple[float, float]:
    """Relative residual of the class equation for ``S`` and its relative
    Hermiticity defect."""
    nH = max(_frob(H), 1e-300)
    nS = max(_frob(S), 1e-300)
    herm = _frob(S - _dagger(S)) / nS
    if cls == SSS:
        return _frob(H @ S + S @ H) / (nH * nS), herm
    conj = np.linalg.solve(S.T, (S @ _dagger(H)).T).T  # S H^+ S^-1
    resid = H - conj if cls == PH else H + conj
    return _frob(resid) / nH, herm


def _classify_outcome(H, known: frozenset, raw, exact: bool) -> Outcome:
    """Check a ``classify`` result.  ``exact`` also demands that the
    confirmed set equals ``known`` and, for inputs with no class, that no
    candidate class is reported."""
    if isinstance(raw, BaseException):
        return Outcome(error=type(raw).__name__, known=len(known),
                       digest=f"raise {type(raw).__name__}", origin=_origin(raw))
    confirmed = {c.value for c in raw.confirmed}
    spectral_only = {c.value for c in raw.spectral_only}
    wrong = False
    for c in raw.confirmed:
        w = raw.witnesses.get(c)
        if w is None:
            wrong = True
            continue
        resid, herm = witness_defects(H, c.value, np.asarray(w.transform))
        wrong |= not (resid <= CHECK_TOL and herm <= CHECK_TOL)
    if exact:
        wrong |= confirmed != set(known)
        if not known:
            wrong |= bool(spectral_only)
    digest = f"{sorted(confirmed)}|{sorted(spectral_only)}"
    return Outcome(wrong=wrong, known=len(known),
                   confirmed=len(confirmed & known), digest=digest)


def _origin(exc: BaseException) -> str:
    """``module.function:line`` of the frame that raised ``exc``."""
    tb = exc.__traceback__
    if tb is None:
        return "?"
    while tb.tb_next is not None:
        tb = tb.tb_next
    code = tb.tb_frame.f_code
    module = tb.tb_frame.f_globals.get("__name__", "?")
    return f"{module}.{code.co_name}:{tb.tb_lineno}"


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Base: subclasses set the class attributes and the three methods."""

    name = ""
    #: percentile reported as ``op_tail_ms``
    tail_percentile = 99.0
    #: untimed operations run after input generation
    warmup_ops = 0
    #: leading timed operations whose outputs form the run digest
    digest_ops = 0

    def inputs(self, seed: int) -> list:
        raise NotImplementedError

    def run(self, api, item):
        raise NotImplementedError

    def check(self, item, raw) -> Outcome:
        raise NotImplementedError


class Classify(Workload):
    """``classify`` on generic in-class matrices, n = 2..12, plus a quarter
    of unstructured matrices that must get no candidate class."""

    name = "classify"
    tail_percentile = 99.0
    warmup_ops = 60
    digest_ops = 500
    per_cell = 40
    dims = range(2, 13)

    def inputs(self, seed):
        rng = _rng(seed, self.name)
        makers = ((PH, _pseudo_hermitian), (CH, _chiral), (SSS, _self_skew))
        items = []
        for n in self.dims:
            for _ in range(self.per_cell):
                for cls, make in makers:
                    items.append((make(rng, n), frozenset({cls})))
                items.append((_gauss(rng, n) / math.sqrt(n), frozenset()))
        order = rng.permutation(len(items))
        return [items[i] for i in order]

    def run(self, api, item):
        return api.classify(item[0])

    def check(self, item, raw):
        return _classify_outcome(item[0], item[1], raw, exact=True)


class ClassifyEP(Workload):
    """``classify`` at or near exceptional points and degeneracies:
    (a) conjugated real Jordan forms, (b) near-EP 2x2 matrices,
    (c) Hermitian matrices with split eigenvalue pairs."""

    name = "classify-ep"
    tail_percentile = 99.0
    warmup_ops = 60
    digest_ops = 500
    per_part = 1800

    def inputs(self, seed):
        rng = _rng(seed, self.name)
        items = []
        for i in range(self.per_part):
            pattern = JORDAN_PATTERNS[i % len(JORDAN_PATTERNS)]
            H = _real_jordan_conjugate(rng, pattern, unitary=(i % 2 == 0))
            items.append((H, frozenset({PH}), "a"))
            items.append((_near_ep_2x2(rng), frozenset({PH, CH, SSS}), "b"))
            n = 2 + i % 7
            items.append((_split_hermitian(rng, n), frozenset({PH}), "c"))
        order = rng.permutation(len(items))
        return [items[i] for i in order]

    def run(self, api, item):
        return api.classify(item[0])

    def check(self, item, raw):
        out = _classify_outcome(item[0], item[1], raw, exact=False)
        out.digest = f"{item[2]}|{out.digest}"
        return out


def trimer_family_json() -> str:
    """Family JSON of the gain/loss trimer
    ``H(gamma, k) = k (E12 + E21 + E23 + E32) + i gamma (E11 - E33)``,
    whose EP3s lie on ``gamma = sqrt(2) k``."""

    def mat(M):
        return {"dim": 3, "entries": [[[float(z.real), float(z.imag)] for z in row]
                                      for row in M]}

    E = np.eye(3)
    K = (np.outer(E[0], E[1]) + np.outer(E[1], E[0])
         + np.outer(E[1], E[2]) + np.outer(E[2], E[1])).astype(complex)
    D = 1j * (np.outer(E[0], E[0]) - np.outer(E[2], E[2]))
    doc = {
        "dim": 3,
        "params": 2,
        "param_names": ["gamma", "k"],
        "terms": [
            {"matrix": mat(K), "exponents": [0, 1]},
            {"matrix": mat(D), "exponents": [1, 0]},
        ],
    }
    return json.dumps(doc)


def _cli(api, argv, stdin_text: str):
    """``nhsim.cli.main(argv)`` with the family on stdin; returns
    ``(exit code, stdout)``."""
    saved = sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(stdin_text.encode()))
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = api.cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


class EPScan(Workload):
    """CLI ``scan`` of the trimer on a 101 x 51 (gamma, k) grid whose k
    window starts at a seeded ``k0``, then ``certify`` at the first
    converged root."""

    name = "ep-scan"
    tail_percentile = 80.0
    warmup_ops = 1
    digest_ops = 20
    pool = 48
    k_lo, k_hi = 0.2, 1.0

    def __init__(self):
        self.family = trimer_family_json()

    def inputs(self, seed):
        rng = _rng(seed, self.name)
        u = (np.arange(self.pool) + rng.uniform(0.0, 1.0, self.pool)) / self.pool
        k0 = self.k_lo + (self.k_hi - self.k_lo) * u
        return [f"{k:.6f}" for k in rng.permutation(k0)]

    def run(self, api, item):
        k1 = f"{float(item) + 1.0:.6f}"
        argv = ["scan", "-", "--class", "pseudo-hermitian",
                "--grid", "gamma=0:3:101", "--grid", f"k={item}:{k1}:51"]
        code, out = _cli(api, argv, self.family)
        if code != 0:
            return code, out, None, None
        root = next((r["lam"] for r in map(json.loads, out.splitlines())
                     if r["converged"]), None)
        if root is None:
            return code, out, None, None
        at = ",".join(repr(float(x)) for x in root)
        code2, out2 = _cli(api, ["certify", "-", "--at", at], self.family)
        return code, out, code2, out2

    def check(self, item, raw):
        if isinstance(raw, BaseException):
            return Outcome(error=type(raw).__name__, known=1,
                           digest=f"raise {type(raw).__name__}", origin=_origin(raw))
        code, out, code2, out2 = raw
        digest = f"{code}\n{out}{code2}\n{out2 or ''}"
        if code != 0 or (code2 not in (None, 0)):
            return Outcome(error=f"exit{code if code else code2}", known=1,
                           digest=digest)
        try:
            hits = [r for r in map(json.loads, out.splitlines()) if r["converged"]]
            wrong = not hits
            for r in hits:
                gamma, k = r["lam"]
                wrong |= abs(gamma - math.sqrt(2.0) * k) > CURVE_TOL
                wrong |= r["order"] != 3 or not r["single_block"]
            certified = out2 is not None and json.loads(out2)["order"] == 3
        except (ValueError, KeyError, TypeError):  # malformed CLI output
            wrong, certified = True, False
        wrong |= not certified
        return Outcome(wrong=wrong, known=1, confirmed=int(certified and not wrong),
                       digest=digest)


#: symmetry -> (map applied to H, sign, generator property); the generator
#: U must satisfy H = sign * U map(H) U^+ and the property.
GENERATORS = {
    "PT": (np.conj, 1, "UU*"),
    "pseudo-hermitian-symmetry": (_dagger, 1, "UU"),
    "CP": (np.conj, -1, "UU*"),
    "chiral-symmetry": (_dagger, -1, "UU"),
}
CLASS_GENERATORS = {PH: ("PT", "pseudo-hermitian-symmetry"),
                    CH: ("CP", "chiral-symmetry")}


def generator_defects(H, symmetry: str, U) -> tuple[float, float]:
    """Similarity residual and property defect of a 2x2 generator."""
    target, sign, prop = GENERATORS[symmetry]
    resid = _frob(H - sign * (U @ target(H) @ _dagger(U))) / max(_frob(H), 1e-300)
    P = U @ U.conj() if prop == "UU*" else U @ U
    return resid, _frob(P - np.eye(2))


class Specht(Workload):
    """2x2 symmetry-generator recovery on pseudo-Hermitian and chiral
    members, alternating."""

    name = "specht"
    tail_percentile = 95.0
    warmup_ops = 10
    digest_ops = 100
    pool = 600

    def inputs(self, seed):
        rng = _rng(seed, self.name)
        items = []
        for i in range(self.pool):
            if i % 2 == 0:
                items.append((_pseudo_hermitian(rng, 2), PH))
            else:
                items.append((_chiral(rng, 2), CH))
        return items

    def run(self, api, item):
        H, cls = item
        return api.check_similarity_implies_symmetry_2x2(H, api.SimilarityClass(cls))

    def check(self, item, raw):
        H, cls = item
        names = CLASS_GENERATORS[cls]
        if isinstance(raw, BaseException):
            return Outcome(error=type(raw).__name__, known=len(names),
                           digest=f"raise {type(raw).__name__}", origin=_origin(raw))
        passed = []
        for name in names:
            found = raw.get(name)
            ok = found is not None
            if ok:
                resid, prop = generator_defects(H, name, np.asarray(found.generator))
                ok = resid <= CHECK_TOL and prop <= CHECK_TOL
            passed.append(ok)
        digest = "|".join(f"{n}:{'pass' if ok else 'fail'}" for n, ok in zip(names, passed))
        return Outcome(wrong=not all(passed), known=len(names),
                       confirmed=sum(passed), digest=digest)


WORKLOADS = {w.name: w for w in (Classify(), ClassifyEP(), EPScan(), Specht())}
