"""Command-line front end.

Commands: ``classify``, ``witness``, ``generate``, ``specht``,
``specht-generators``, ``scan``, ``certify``.  Matrix and family arguments
accept ``-`` for standard input.  Exit codes: 0 success, 1 domain failure
(the matrix is not in the class, a family fails its class identity check,
or an eigensolver that does not converge) or a closed output pipe, 2 input
or usage error, a dimension that the word lists or the generator analysis
do not cover and a grid or dimension too large to allocate included.

Floats are emitted through the JSON encoder's shortest round-trip
representation, so every number reparses to the identical double.  The
one tolerance ``tol`` of :class:`~nhsim.spectral.ToleranceConfig` (default
1e-8, from which the clustering radius and the rank cutoff are derived)
can be overridden by the ``NHSIM_TOL`` environment variable; an explicit
``--tol`` flag wins over the environment.

A ``scan`` that the library warns about (a family with fewer parameters
than the codimension) prints the warning as one ``warning:`` line on
stderr and exits 0.

``specht`` and the n = 3 evidence of ``specht-generators`` take their
words, traces and match verdicts from :func:`nhsim.specht.word_profile`,
the library's one word-trace comparison (a relative tolerance).  They print
the traces of the matrices as given and exit 2 when one of them, or the
difference of two, overflows, or when the printed difference of a
mismatching word underflows to 0 (``WordProfile.unprintable``).  The 2x2
recovery of ``specht-generators`` checks membership by word traces for
``--class`` only; without it, the classes are those ``classify`` has
confirmed.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import warnings

import numpy as np

from . import __version__
from .classes import (
    SimilarityClass,
    classify,
    construct_witness,
    detect_special_cases,
    generate_random,
)
from .epfinder import (
    ScanConfig,
    certify_order,
    scan,
    splitting_exponent,
)
from .errors import (
    FamilyFormatError,
    NhsimError,
    NonFiniteMatrixError,
    UnsupportedDimensionError,
)
from .families import parse_family
from .matrices import matrix_to_json, parse_matrix
from .specht import CLASS_SYMMETRIES, _class_generators, _symmetry_stack, word_profile
from .spectral import ToleranceConfig


def _tolerances(args) -> ToleranceConfig:
    """The config of ``--tol``, else of ``NHSIM_TOL``, else the default; a
    value out of range exits 2 with a line naming its source."""
    if args.tol is not None:
        source, tol = "--tol", args.tol
    elif (env := os.environ.get("NHSIM_TOL")) is not None:
        source = "NHSIM_TOL"
        try:
            tol = float(env)
        except ValueError:
            raise SystemExit2(f"NHSIM_TOL is not a number: {env!r}")
    else:
        return ToleranceConfig()
    try:
        return ToleranceConfig(tol)
    except ValueError as exc:
        raise SystemExit2(f"{source} {exc}")


class SystemExit2(Exception):
    """Usage/input error destined for exit code 2."""


def _read_arg(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise SystemExit2(f"cannot read {path}: {exc.strerror}")


def _load_matrix(path: str):
    return parse_matrix(_read_arg(path))


def _load_family(path: str):
    return parse_family(_read_arg(path))


#: ``json.dumps(doc, sort_keys=True)`` is ``_JSON.encode(doc)`` with a new
#: encoder per call; this one serves every document of the process.
_JSON = json.JSONEncoder(sort_keys=True)


def _emit(*docs):
    """Each document as one line of sorted-key JSON, all in one write;
    no documents print nothing."""
    if docs:
        print("\n".join(map(_JSON.encode, docs)))


def _complex_pair(z: complex):
    return [z.real, z.imag]


# ---------------------------------------------------------------------------
# commands


def _cmd_classify(args):
    H = _load_matrix(args.matrix)
    cfg = _tolerances(args)
    result = classify(H, cfg)
    flags = detect_special_cases(H, cfg)
    _emit(
        {
            "classes": sorted(c.value for c in result.confirmed),
            "spectral_only": sorted(c.value for c in result.spectral_only),
            "special_cases": sorted(flags),
            "witnesses": {
                c.value: w.to_json() for c, w in sorted(
                    result.witnesses.items(), key=lambda kv: kv[0].value
                )
            },
        }
    )
    return 0


def _cmd_witness(args):
    H = _load_matrix(args.matrix)
    cls = SimilarityClass.from_tag(args.cls)
    w = construct_witness(H, cls, _tolerances(args))
    doc = w.to_json()
    doc["hermiticity_defect"] = w.hermiticity_defect
    doc["min_singular_value"] = w.min_singular_value
    _emit(doc)
    return 0


def _cmd_generate(args):
    cls = SimilarityClass.from_tag(args.cls)
    H = generate_random(cls, args.dim, args.seed, non_normal=args.non_normal)
    _emit(matrix_to_json(H))
    return 0


def _cmd_specht(args):
    A = _load_matrix(args.a)
    B = _load_matrix(args.b)
    if A.shape != B.shape:
        raise SystemExit2("matrices must have the same dimension")
    profile = word_profile(np.stack([A, B]), _tolerances(args).residual_tol)
    if why := profile.unprintable():
        raise SystemExit2(f"word traces {why}; rescale the matrices")
    words, traces, (bad,) = profile
    rows = []
    for j, w in enumerate(words):
        ta, tb = complex(traces[0, j]), complex(traces[1, j])
        rows.append(
            {
                "word": str(w),
                "trace_a": _complex_pair(ta),
                "trace_b": _complex_pair(tb),
                "difference": abs(ta - tb),
                "match": j not in bad,
            }
        )
    if args.output == "csv":
        print("word,re_trace_a,im_trace_a,re_trace_b,im_trace_b,difference,match")
        for r in rows:
            nums = [r["trace_a"][0], r["trace_a"][1], r["trace_b"][0],
                    r["trace_b"][1], r["difference"]]
            print(",".join([r["word"]] + [repr(float(x)) for x in nums]
                           + [str(r["match"]).lower()]))
    else:
        _emit({"unitarily_similar": not bad, "traces": rows})
    return 0


def _cmd_specht_generators(args):
    H = _load_matrix(args.matrix)
    n = H.shape[0]
    if n not in (2, 3):
        raise UnsupportedDimensionError(
            "generator analysis covers n = 2 (recovery) and n = 3 (evidence)"
        )
    cfg = _tolerances(args)
    if args.cls:
        classes = [SimilarityClass.from_tag(args.cls)]
    else:
        classes = sorted(classify(H, cfg).confirmed, key=lambda c: c.value)
        if not classes:
            raise NhsimError("matrix is not confirmed in any similarity class")
    if n == 2:
        payload = {}
        for cls in classes:
            found = _class_generators(H, cls, cfg.residual_tol if args.cls else None)
            payload[cls.value] = {
                name: {
                    "generator": matrix_to_json(r.generator),
                    "similarity_residual": r.similarity_residual,
                    "property_defect": r.property_defect,
                }
                for name, r in found.items()
            }
        _emit({"mode": "generators", "results": payload})
        return 0
    payload = {}
    for cls in classes:
        symmetries = CLASS_SYMMETRIES[cls]
        profile = word_profile(_symmetry_stack(H, symmetries), cfg.residual_tol)
        if why := profile.unprintable():
            raise SystemExit2(f"word traces {why}; rescale the matrices")
        words, traces, mismatches = profile
        evidence = []
        for i, (symmetry, bad) in enumerate(zip(symmetries, mismatches), start=1):
            for j in bad:
                ta, tb = complex(traces[0, j]), complex(traces[i, j])
                evidence.append(
                    {
                        "symmetry": symmetry,
                        "word": str(words[j]),
                        "trace_lhs": _complex_pair(ta),
                        "trace_rhs": _complex_pair(tb),
                        "mismatch": abs(ta - tb),
                    }
                )
        payload[cls.value] = evidence
    _emit({"mode": "counterexample-evidence", "results": payload})
    return 0


def _parse_grid(items):
    grid = {}
    for item in items:
        try:
            name, rng = item.split("=", 1)
            lo, hi, pts = rng.split(":")
            if name in grid:
                raise SystemExit2(f"--grid names {name!r} twice")
            grid[name] = (float(lo), float(hi), int(pts))
        except ValueError:
            raise SystemExit2(f"bad grid spec {item!r}; expected name=lo:hi:points")
    return grid


def _parse_fix(items):
    fixed = {}
    for item in items:
        try:
            name, val = item.split("=", 1)
            if name in fixed:
                raise SystemExit2(f"--fix names {name!r} twice")
            fixed[name] = float(val)
        except ValueError:
            raise SystemExit2(f"bad fix spec {item!r}; expected name=value")
    return fixed


def _cmd_scan(args):
    fam = _load_family(args.family)
    cls = SimilarityClass.from_tag(args.cls)
    cfg = ScanConfig(
        grid=_parse_grid(args.grid),
        fixed=_parse_fix(args.fix),
        seed_threshold=args.seed_threshold,
        max_iterations=args.max_iterations,
        tol=args.newton_tol,
        tolerances=_tolerances(args),
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)
        candidates = scan(fam, cls, cfg)
    for w in caught:  # e.g. too few parameters for the codimension
        print(f"warning: {w.message}", file=sys.stderr)
    names = fam.param_names
    if args.output == "csv":
        print(
            ",".join(names)
            + ",order,constraint_residual,newton_iterations,converged,single_block"
        )
        for c in candidates:
            row = [repr(float(x)) for x in c.lam] + [
                str(c.order),
                repr(float(c.constraint_residual)),
                str(c.newton_iterations),
                str(c.converged).lower(),
                str(c.single_block).lower(),
            ]
            print(",".join(row))
    else:  # JSON lines: one candidate per line
        _emit(*(c.to_json() for c in candidates))
    return 0


def _cmd_certify(args):
    fam = _load_family(args.family)
    try:
        lam = np.array([float(x) for x in args.at.split(",")], dtype=float)
    except ValueError:
        raise SystemExit2(f"bad --at value {args.at!r}; expected v1,v2,...")
    if lam.size != fam.num_params:
        raise SystemExit2(
            f"--at has {lam.size} values, family has {fam.num_params} parameters"
        )
    if args.direction:
        try:
            direction = np.array(
                [float(x) for x in args.direction.split(",")], dtype=float
            )
        except ValueError:
            raise SystemExit2(f"bad --direction value {args.direction!r}")
        if direction.size != fam.num_params:
            raise SystemExit2("--direction arity does not match the family")
    else:
        direction = np.ones(fam.num_params)
    cert = certify_order(fam.evaluate(lam), _tolerances(args))
    doc = cert.to_json()
    doc["lam"] = lam.tolist()
    try:
        doc["splitting_exponent"] = splitting_exponent(
            fam, lam, direction, cluster_size=cert.cluster_size or None
        )
    except RuntimeError as exc:
        doc["splitting_exponent"] = None
        doc["splitting_exponent_error"] = str(exc)
    _emit(doc)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged
    (``append`` copies its default list), and help output reads
    ``COLUMNS`` and the streams when it is printed."""
    p = argparse.ArgumentParser(
        prog="nhsim",
        description="Similarity-class analysis of non-Hermitian matrices",
    )
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, output=False):
        sp.add_argument("--tol", type=float, default=None,
                        help="tolerance tol: residuals tol, clustering 10*tol, "
                             "rank cutoff tol/10 (default 1e-8; NHSIM_TOL env)")
        if output:
            sp.add_argument("--output", choices=("json", "csv"), default="json")

    sp = sub.add_parser("classify", help="similarity classes of a matrix")
    sp.add_argument("matrix", help="matrix JSON file or - for stdin")
    common(sp)
    sp.set_defaults(func=_cmd_classify)

    sp = sub.add_parser("witness", help="construct a class witness transform")
    sp.add_argument("matrix")
    sp.add_argument("--class", dest="cls", required=True)
    common(sp)
    sp.set_defaults(func=_cmd_witness)

    sp = sub.add_parser("generate", help="draw a random in-class matrix")
    sp.add_argument("--class", dest="cls", required=True)
    sp.add_argument("--dim", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--non-normal", action="store_true")
    sp.set_defaults(func=_cmd_generate)

    sp = sub.add_parser("specht", help="unitary-similarity verdict for two matrices")
    sp.add_argument("a")
    sp.add_argument("b")
    common(sp, output=True)
    sp.set_defaults(func=_cmd_specht)

    sp = sub.add_parser(
        "specht-generators",
        help="2x2 symmetry-generator recovery / 3x3 counterexample evidence",
    )
    sp.add_argument("matrix")
    sp.add_argument("--class", dest="cls", default=None)
    common(sp)
    sp.set_defaults(func=_cmd_specht_generators)

    sp = sub.add_parser("scan", help="scan a family for exceptional points")
    sp.add_argument("family")
    sp.add_argument("--class", dest="cls", required=True)
    sp.add_argument("--grid", action="append", required=True,
                    metavar="name=lo:hi:points")
    sp.add_argument("--fix", action="append", default=[], metavar="name=value")
    sp.add_argument("--seed-threshold", type=float, default=None,
                    help="seed only grid minima whose constraint norm is at "
                         "most this; absolute, see --newton-tol")
    sp.add_argument("--max-iterations", type=int, default=50)
    sp.add_argument("--newton-tol", type=float, default=1e-10,
                    help="Gauss-Newton tolerance on the constraint norm "
                         "(default 1e-10); absolute like --seed-threshold and "
                         "constraint_residual: tr H~^k and det H~ have degree "
                         "k in H, so a family scaled by c needs scaled values")
    common(sp, output=True)
    sp.set_defaults(func=_cmd_scan)

    sp = sub.add_parser("certify", help="EP order certificate at a parameter point")
    sp.add_argument("family")
    sp.add_argument("--at", required=True, metavar="v1,v2,...",
                    help="parameter point; attach it with = when it starts "
                         "with a minus sign: --at=-1.2,0.5")
    sp.add_argument("--direction", default=None, metavar="d1,d2,...",
                    help="ray of the splitting exponent (default all ones); "
                         "attach it with = when it starts with a minus sign: "
                         "--direction=-0.9,0.4")
    common(sp)
    sp.set_defaults(func=_cmd_certify)

    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help/--version
        return int(exc.code or 0)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at exit
        return code
    except BrokenPipeError:
        # Python's documented recipe: the reader is gone, so point stdout at
        # devnull to keep the flush at exit from raising again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except (SystemExit2, FamilyFormatError, NonFiniteMatrixError,
            UnsupportedDimensionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a grid or dimension too large to allocate
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except NhsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
