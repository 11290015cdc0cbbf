"""Check that a base revision and the working tree give identical outputs.

Runs every input of the four benchmark workload pools
(``perfbench.workloads.WORKLOADS``) once through the workload's ``run``,
on the base tree and on the working tree, and hashes the full raw results:
verdict sets, witness and generator bytes, residuals, defects and CLI
stdout, down to the sign of a zero.  Two more digests cover what no
workload runs: ``cli-specht`` hashes the exit code, stdout and stderr of
``nhsim specht`` and ``nhsim specht-generators`` on :func:`cli_corpus`, and
``witness`` hashes ``construct_witness(H, cls)`` -- the witness, or the
exception -- for each class on :func:`witness_corpus`.  Usage, from the root
of the repository::

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
    generic matrix (exit 1) and on members times 2^±600.
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
        members = [real, 1j * real, skew, cplx(n), 2.0**600 * real, 2.0**-600 * skew]
        for M in members:
            out.append(("specht-generators", [M], ()))
            out += [("specht-generators", [M], ("--class", tag))
                    for tag in ("pseudo-hermitian", "chiral", "self-skew")]
    out.append(("specht", [cplx(2), cplx(3)], ()))
    return out


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
            Path(paths[-1]).write_text(json.dumps({
                "dim": M.shape[0],
                "entries": [[[z.real, z.imag] for z in row] for row in M.tolist()]}))
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
