"""Check that a base revision and the working tree give identical outputs.

Runs every input of the four benchmark workload pools
(``perfbench.workloads.WORKLOADS``) once through the workload's ``run``,
on the base tree and on the working tree, and hashes the full raw results:
verdict sets, witness and generator bytes, residuals, defects and CLI
stdout, down to the sign of a zero.  Three more digests cover what no
workload runs: ``cli-specht`` hashes the exit code, stdout and stderr of
``nhsim specht`` and ``nhsim specht-generators`` on :func:`cli_corpus`,
``scan`` hashes the same of ``nhsim scan`` on :func:`scan_corpus` (the
``ep-scan`` workload scans only the trimer), and ``witness`` hashes
``construct_witness(H, cls)`` -- the witness, or the exception -- for each
class on :func:`witness_corpus`.  Usage, from the root of the
repository::

    python3 tools/output_identity.py --base HEAD~1 --seeds 101-103

The base is exported with ``git archive`` the way ``bench_compare.py``
does it.  Both sides use the working tree's ``perfbench/workloads.py``, so
they get the same inputs, and each imports ``nhsim`` from its own
``src/``, in a fresh interpreter with BLAS and OpenMP pinned to one
thread.  The script prints one digest per workload and side, names the
first input whose result differs, and exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import enum
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "tools"), str(ROOT / "perfbench")]

#: Inputs that :func:`witness_corpus` takes from the front of each pool.
WITNESS_INPUTS = 200

from bench_compare import export, seeds_argument  # noqa: E402


def feed(h, x) -> None:
    """Hash ``x`` canonically: type tags, exact float bits, sets sorted."""
    if isinstance(x, BaseException):
        h.update(f"raise {type(x).__name__}: {x}".encode())
    elif isinstance(x, np.ndarray):
        h.update(f"array {x.dtype} {x.shape}".encode())
        h.update(np.ascontiguousarray(x).tobytes())
    elif isinstance(x, enum.Enum):
        h.update(f"enum {x.value}".encode())
    elif dataclasses.is_dataclass(x):
        h.update(f"{type(x).__name__}(".encode())
        for f in dataclasses.fields(x):
            h.update(f.name.encode())
            feed(h, getattr(x, f.name))
        h.update(b")")
    elif isinstance(x, dict):
        h.update(b"{")
        for key in sorted(x, key=digest):
            feed(h, key)
            feed(h, x[key])
        h.update(b"}")
    elif isinstance(x, (set, frozenset)):
        h.update(b"set[")
        for d in sorted(map(digest, x)):
            h.update(d.encode())
        h.update(b"]")
    elif isinstance(x, (list, tuple)):
        h.update(f"seq {len(x)}[".encode())
        for y in x:
            feed(h, y)
        h.update(b"]")
    elif isinstance(x, (float, np.floating)):
        h.update(f"float {float(x).hex()}".encode())
    elif isinstance(x, (complex, np.complexfloating)):
        h.update(f"complex {x.real.hex()} {x.imag.hex()}".encode())
    else:  # int, bool, str, None
        h.update(f"{type(x).__name__} {x!r}".encode())


def digest(x) -> str:
    h = hashlib.sha256()
    feed(h, x)
    return h.hexdigest()


def cli_corpus(seed: int) -> list[tuple[str, list[np.ndarray], tuple[str, ...]]]:
    """``(command, matrices, flags)`` for the word-trace commands of the CLI,
    built from ``seed`` with numpy alone, so both trees read the same files.

    For n = 2 and 3: ``specht`` in JSON and CSV on unitarily similar and
    dissimilar pairs, and on pairs times 2^600 (traces overflow: exit 2) and
    2^-600 (a mismatching word's difference underflows: exit 2, or matches:
    exit 0), plus a pair of unequal dimensions; ``specht-generators`` with
    and without ``--class`` on a member of each class (``S R S^-1`` with
    ``R`` real, ``i`` times that, and ``S diag(a, -a[, 0]) S^-1``), on a
    generic matrix (exit 1), on members times 2^±600 and on a Hermitian and
    an anti-Hermitian matrix, whose 2x2 pseudo-Hermitian and chiral
    symmetry generators are the identity; and at ``--tol`` 1e-5 and 1e-11,
    the real member plus ``tol`` times a drawn matrix at its norm, under
    ``specht`` against the member and under ``specht-generators`` without
    ``--class`` (which runs ``classify``): a tenfold error in the derived
    residual tolerance changes their output.  Then ``classify`` at ``--tol``
    1e-5 and 1e-11 on unitary conjugates of ``diag(l1, l2 + i delta)``
    (real ``l1``, ``l2``, from a generator of their own): with ``delta`` 12
    to 40 times ``tol |H|_F`` the pseudo-Hermitian pairing of ``l2 + i
    delta`` with its conjugate (distance ``2 delta``) fails at the derived
    clustering radius ``10 tol`` and would hold at ``100 tol``, and with 1.5
    to 4 times it holds at ``10 tol`` and would fail at ``tol``, so a
    clustering radius off by tenfold either way changes their output.
    Last, 2x2 members of each class times ``1 + eps noise`` (entrywise,
    complex normal noise, eps = 1e-9, 1e-8, 1e-7), with and without
    ``--class``: near the class boundary, where the word-trace check of
    ``--class`` can reject a class that ``classify`` confirms.
    """
    rng = np.random.default_rng([seed, 2])

    def cplx(n):
        return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))

    out = []
    for n in (2, 3):
        A = cplx(n)
        U = np.linalg.qr(cplx(n))[0]
        pairs = [(A, U @ A @ U.conj().T), (A, A.T), (A, A.conj()), (A, cplx(n))]
        for c in (2.0**600, 2.0**-600):
            pairs += [(c * A, c * (U @ A @ U.conj().T)), (c * A, c * A.conj())]
        for pair in pairs:
            out += [("specht", list(pair), ()),
                    ("specht", list(pair), ("--output", "csv"))]
        S = cplx(n)
        Si = np.linalg.inv(S)
        real = S @ rng.standard_normal((n, n)) @ Si
        skew = S @ np.diag(np.array([1, -1, 0][:n]) * cplx(1)[0]) @ Si
        hermitian = real + real.conj().T
        members = [real, 1j * real, skew, cplx(n), 2.0**600 * real, 2.0**-600 * skew,
                   hermitian, 1j * hermitian]
        for M in members:
            out.append(("specht-generators", [M], ()))
            out += [("specht-generators", [M], ("--class", tag))
                    for tag in ("pseudo-hermitian", "chiral", "self-skew")]
        for tol in ("1e-5", "1e-11"):
            near = real + float(tol) * np.linalg.norm(real) / np.linalg.norm(A) * A
            out += [("specht", [real, near], ("--tol", tol)),
                    ("specht-generators", [near], ("--tol", tol))]
    clustering = np.random.default_rng([seed, 4])
    for tol in ("1e-5", "1e-11"):
        for lo, hi in ((12.0, 40.0), (1.5, 4.0)):
            l1, l2 = clustering.uniform(0.5, 2.0, 2) * clustering.choice([-1.0, 1.0], 2)
            delta = float(tol) * clustering.uniform(lo, hi) * np.hypot(l1, l2)
            Z = clustering.standard_normal((2, 2)) + 1j * clustering.standard_normal((2, 2))
            U = np.linalg.qr(Z)[0]
            H = U @ np.diag([l1, l2 + 1j * delta]) @ U.conj().T
            out.append(("classify", [H], ("--tol", tol)))
    out.append(("specht", [cplx(2), cplx(3)], ()))
    S = cplx(2)
    real = S @ rng.standard_normal((2, 2)) @ np.linalg.inv(S)
    skew = S @ np.diag(np.array([1, -1]) * cplx(1)[0]) @ np.linalg.inv(S)
    for M in (real, 1j * real, skew):
        for eps in (1e-9, 1e-8, 1e-7):
            near = M * (1 + eps * cplx(2))
            out.append(("specht-generators", [near], ()))
            out += [("specht-generators", [near], ("--class", tag))
                    for tag in ("pseudo-hermitian", "chiral", "self-skew")]
    return out


def matrix_doc(M: np.ndarray) -> dict:
    """The matrix JSON document of ``M``."""
    return {"dim": M.shape[0],
            "entries": [[[z.real, z.imag] for z in row] for row in M.tolist()]}


def family_doc(terms, names) -> dict:
    """The family JSON document of ``[(matrix, exponents), ...]``."""
    return {"dim": terms[0][0].shape[0], "params": len(names), "param_names": list(names),
            "terms": [{"matrix": matrix_doc(M), "exponents": list(e)} for M, e in terms]}


def scan_corpus(seed: int) -> list[tuple[dict, tuple[str, ...]]]:
    """``(family document, flags)`` for ``nhsim scan``, built from ``seed``
    with numpy alone, so both trees read the same files.

    The trimer on two seeded 101 x 51 windows of the ``ep-scan`` kind, the
    dimer, and for n = 2 and 3 a seeded family of each class on a 2-d grid:
    ``eta B_i`` (pseudo-Hermitian), ``i Gamma B_i`` (chiral), with Hermitian
    ``eta``, ``Gamma`` and ``B_i``, and ``V K_i V^-1`` with each ``K_i``
    anticommuting with ``diag(1, -1[, 1])`` (self-skew).  Then two constant
    families, whose grid norms all tie (one at an EP, norm 0); the trimer
    times 2^-300 (no node in the closed forms' window), 2^-99 (the window's
    edge crosses the grid) and 2^300 (the norms overflow: exit 2);
    ``--seed-threshold`` 0, a seeded value and ``inf`` on the dimer and the
    trimer; and the trimer times 2^-99 at ``--tol 1e-2``, whose order
    certificates change with the derived clustering radius and rank cutoff.
    Last, two pseudo-Hermitian families with an indefinite ``eta``: a 3 x 3
    one with exponents 2 and 3, ``eta (B0 + p^2 B1 + q^3 B2
    + p q^2 B3 + r B4)``, scanned over p and q on a 121 x 61 grid with r
    ``--fix``ed (7,381 nodes: several evaluation blocks of
    ``nhsim.epfinder``, the last one partial), and a 4 x 4 one,
    ``eta (B0 + p B1 + q B2 + r B3)``, on a 13 x 13 x 13 grid, which takes
    exact norms at every node (2,197 nodes: two blocks of
    ``ConstraintSystem.evaluate_many``, the second partial).  Then two 3 x 3 families on which the grid
    pass leaves some comparisons to exact norms, because ``S`` (the bound of
    ``nhsim.epfinder._norm_bounds``) lies far above ``|H~|_F``: a pair of
    ``p`` terms that cancel to 2^-30 of each, ``eta (B0 + p B1 + q B2
    + p 2^6 B3 + p (2^-24 B4 - 2^6 B3))``, and ``10^3 I + eta (B0 + p B1 +
    q B2)``, whose trace shift removes the largest part of every value.
    Last, three pseudo-Hermitian gates of ``nhsim.epfinder.class_identity_check``:
    the plane ``a H_EP3 + b I`` of the trimer's EP3, which passes (every
    ``a != 0`` is an EP3), a seeded generic 3 x 3 family, which fails
    (exit 1), and the trimer plus ``1e-12 i gamma^4 E_00``, which fails on
    the ``gamma^4`` coefficient of ``tr H`` (exit 1), though its violation
    inside ``[-2, 2]^2`` is below ``1e-10 |H|_F``.
    """
    rng = np.random.default_rng([seed, 3])

    def cplx(n):
        return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))

    def hermitian(n):
        A = cplx(n)
        return (A + A.conj().T) / 2

    E = np.eye(3)
    K = (np.outer(E[0], E[1]) + np.outer(E[1], E[0])
         + np.outer(E[1], E[2]) + np.outer(E[2], E[1])).astype(complex)
    D = 1j * (np.outer(E[0], E[0]) - np.outer(E[2], E[2]))

    def trimer(c=1.0):
        return family_doc([(c * K, (0, 1)), (c * D, (1, 0))], ("gamma", "k"))

    dimer = family_doc([(np.array([[0, 1], [1, 0]], dtype=complex), (0,)),
                        (np.diag([1j, -1j]), (1,))], ("gamma",))
    ph, box = ("--class", "pseudo-hermitian"), ("--grid", "p=-1.5:1.5:41",
                                                "--grid", "q=-1.2:1.4:37")
    trimer_grid = ("--grid", "gamma=0:3:31", "--grid", "k=0:1.5:16")
    out = []
    for k in rng.uniform(0.2, 1.0, 2):
        out.append((trimer(), (*ph, "--grid", "gamma=0:3:101",
                               "--grid", f"k={k:.6f}:{k + 1:.6f}:51")))
    out.append((dimer, (*ph, "--grid", "gamma=-2:2:101")))
    exps = ((0, 0), (1, 0), (0, 1))
    for n in (2, 3):
        eta, gamma = hermitian(n), hermitian(n)
        V = cplx(n)
        Vi = np.linalg.inv(V)
        odd = np.add.outer(np.arange(n), np.arange(n)) % 2 == 1
        for tag, terms in (
            ("pseudo-hermitian", [(eta @ hermitian(n), e) for e in exps]),
            ("chiral", [(1j * gamma @ hermitian(n), e) for e in exps]),
            ("self-skew", [(V @ (cplx(n) * odd) @ Vi, e) for e in exps]),
        ):
            out.append((family_doc(terms, ("p", "q")), ("--class", tag, *box)))
    for M in (np.array([[1j, 1], [1, -1j]]), np.diag([1.0, 0.0, -1.0]).astype(complex)):
        out.append((family_doc([(M, (0, 0))], ("p", "q")), (*ph, *box)))
    for c in (2.0**-300, 2.0**-99, 2.0**300):
        out.append((trimer(c), (*ph, *trimer_grid)))
    for threshold in ("0", repr(float(rng.uniform(0.05, 0.5))), "inf"):
        out.append((dimer, (*ph, "--grid", "gamma=-2:2:101", "--seed-threshold", threshold)))
        out.append((trimer(), (*ph, *trimer_grid, "--seed-threshold", threshold)))
    out.append((trimer(2.0**-99), (*ph, *trimer_grid, "--tol", "1e-2")))
    for n, exps, names, grids in (
        (3, ((0, 0, 0), (2, 0, 0), (0, 3, 0), (1, 2, 0), (0, 0, 1)), ("p", "q", "r"),
         ("--grid", "p=-1.5:1.5:121", "--grid", "q=-1.2:1.4:61",
          "--fix", f"r={rng.uniform(-1.0, 1.0)!r}")),
        (4, ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)), ("p", "q", "r"),
         ("--grid", "p=-2:2:13", "--grid", "q=-2:2:13", "--grid", "r=-2:2:13")),
    ):
        eta = hermitian(n) + np.diag(np.where(np.arange(n) % 2, -2.0, 2.0))
        out.append((family_doc([(eta @ hermitian(n), e) for e in exps], names),
                    (*ph, *grids)))
    eta = hermitian(3) + np.diag([2.0, -2.0, 2.0])
    B = [eta @ hermitian(3) for _ in range(5)]
    pair = [(2.0**6 * B[3], (1, 0)), (2.0**-24 * B[4] - 2.0**6 * B[3], (1, 0))]
    out.append((family_doc([(B[0], (0, 0)), (B[1], (1, 0)), (B[2], (0, 1)), *pair],
                           ("p", "q")), (*ph, *box)))
    out.append((family_doc([(1e3 * np.eye(3) + B[0], (0, 0)), (B[1], (1, 0)),
                            (B[2], (0, 1))], ("p", "q")), (*ph, *box)))
    out.append((family_doc([(K + np.sqrt(2) * D, (1, 0)), (np.eye(3), (0, 1))], ("a", "b")),
                (*ph, "--grid", "a=-1:1:21", "--grid", "b=-1:1:21")))
    out.append((family_doc([(cplx(3), e) for e in ((0, 0), (1, 0), (0, 1))], ("p", "q")),
                (*ph, *box)))
    kick = family_doc([(K, (0, 1)), (D, (1, 0)), (1e-12j * np.outer(E[0], E[0]), (4, 0))],
                      ("gamma", "k"))
    out.append((kick, (*ph, *trimer_grid)))
    return out


def run_scan_corpus(main, seed: int, workdir: Path) -> list[tuple[int, str, str]]:
    """``(exit code, stdout, stderr)`` of ``main`` on each entry of
    :func:`scan_corpus`, its family written as a JSON file to ``workdir``."""
    results = []
    path = workdir / "family.json"
    for doc, flags in scan_corpus(seed):
        path.write_text(json.dumps(doc))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(["scan", str(path), *flags])
        results.append((code, stdout.getvalue(), stderr.getvalue()))
    return results


def witness_corpus(seed: int) -> list[np.ndarray]:
    """The first :data:`WITNESS_INPUTS` matrices of the ``classify`` and of
    the ``classify-ep`` pool of ``seed``, built by ``perfbench/workloads.py``
    with numpy alone."""
    import workloads

    return [item[0] for name in ("classify", "classify-ep")
            for item in workloads.WORKLOADS[name].inputs(seed)[:WITNESS_INPUTS]]


def outcome(fn, *args):
    """``fn(*args)``, or the exception it raised: the exception is the output."""
    try:
        return fn(*args)
    except Exception as exc:
        return exc


def run_cli_corpus(main, seed: int, workdir: Path) -> list[tuple[int, str, str]]:
    """``(exit code, stdout, stderr)`` of ``main`` on each entry of
    :func:`cli_corpus`, its matrices written as JSON files to ``workdir``."""
    results = []
    for command, matrices, flags in cli_corpus(seed):
        paths = []
        for k, M in enumerate(matrices):
            paths.append(str(workdir / f"m{k}.json"))
            Path(paths[-1]).write_text(json.dumps(matrix_doc(M)))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([command, *paths, *flags])
        results.append((code, stdout.getvalue(), stderr.getvalue()))
    return results


def worker(src: Path, seeds: list[int]) -> None:
    """Print ``{workload: [[result digest per input of the pool] per seed]}``
    for ``nhsim`` imported from ``src``."""
    sys.path.insert(0, str(src))
    import nhsim
    import nhsim.cli  # noqa: F401  (the ep-scan op calls nhsim.cli.main)
    import workloads

    if not Path(nhsim.__file__).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"imported {nhsim.__file__}, not nhsim from {src}")
    out = {}
    for name, wl in workloads.WORKLOADS.items():
        out[name] = []
        for seed in seeds:
            pool = []
            for item in wl.inputs(seed):
                pool.append(digest(outcome(wl.run, nhsim, item)))
            out[name].append(pool)
    with tempfile.TemporaryDirectory() as workdir:
        out["cli-specht"] = [
            [digest(r) for r in run_cli_corpus(nhsim.cli.main, seed, Path(workdir))]
            for seed in seeds]
        out["scan"] = [
            [digest(r) for r in run_scan_corpus(nhsim.cli.main, seed, Path(workdir))]
            for seed in seeds]
    out["witness"] = [
        [digest([outcome(nhsim.construct_witness, H, cls) for cls in nhsim.SimilarityClass])
         for H in witness_corpus(seed)]
        for seed in seeds]
    print(json.dumps(out))


def run_side(tree: Path, seeds: list[int]) -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run(
        [sys.executable, __file__, "--worker", str(tree / "src"),
         "--seeds", ",".join(map(str, seeds))],
        env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker on {tree} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", help="git revision of the base")
    ap.add_argument("--seeds", required=True,
                    help="workload seeds: 101-103 or 1,4,9")
    ap.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    args.seeds = seeds_argument(ap, args.seeds)
    if args.worker:
        worker(args.worker, args.seeds)
        return 0
    if not args.base:
        ap.error("--base is required")

    (ROOT / ".bench_build").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="identity_", dir=ROOT / ".bench_build"))
    try:
        commit = export(args.base, workdir / "base")
        base = run_side(workdir / "base", args.seeds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    change = run_side(ROOT, args.seeds)

    print(f"base {args.base} ({commit[:12]}) against the working tree, "
          f"seeds {args.seeds}")
    same = True
    for name in base:
        b, c = base[name], change[name]
        db, dc = (digest(side) for side in (b, c))
        inputs = sum(map(len, b))
        verdict = "identical" if db == dc else "DIFFERENT"
        print(f"{name}: base {db[:16]}  change {dc[:16]}  {inputs} inputs  {verdict}")
        if db != dc:
            same = False
            seed, i = next((seed, i) for seed, pb, pc in zip(args.seeds, b, c)
                           for i, (x, y) in enumerate(zip(pb, pc)) if x != y)
            print(f"  first difference: seed {seed}, input {i} of the pool")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
