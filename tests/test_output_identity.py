"""The canonical result digest of ``tools/output_identity.py``, without
running the workloads."""

import functools
import importlib.util
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

spec = importlib.util.spec_from_file_location(
    "output_identity", Path(__file__).resolve().parent.parent / "tools" / "output_identity.py"
)
output_identity = importlib.util.module_from_spec(spec)
spec.loader.exec_module(output_identity)
digest = output_identity.digest


@dataclass
class Result:
    classes: set
    transform: np.ndarray
    residual: float


def test_digest_sees_every_bit_of_a_result():
    base = Result({"a", "b"}, np.array([[0.0, 1.0]]), 1e-16)
    assert digest(base) == digest(Result({"b", "a"}, np.array([[0.0, 1.0]]), 1e-16))
    for other in (
        Result({"a"}, np.array([[0.0, 1.0]]), 1e-16),
        Result({"a", "b"}, np.array([[-0.0, 1.0]]), 1e-16),
        Result({"a", "b"}, np.array([[0.0], [1.0]]), 1e-16),
        Result({"a", "b"}, np.array([[0.0, 1.0]]), np.nextafter(1e-16, 1.0)),
    ):
        assert digest(other) != digest(base)


def test_digest_tells_exceptions_and_types_apart():
    assert digest(ValueError("x")) != digest(KeyError("x"))
    assert digest(ValueError("x")) != digest(ValueError("y"))
    assert digest(1) != digest(1.0) != digest("1")
    assert digest({"k": 1.0}) == digest({"k": 1.0})
    assert digest((1, "a")) != digest((("a",), 1))


def _corpus_bytes(seed):
    return [(command, [M.tobytes() for M in matrices], flags)
            for command, matrices, flags in output_identity.cli_corpus(seed)]


def test_cli_corpus_is_a_pure_function_of_the_seed():
    first = _corpus_bytes(101)
    np.random.seed(5)  # the global generator plays no part
    np.random.standard_normal(3)
    assert _corpus_bytes(102) != first
    assert _corpus_bytes(101) == first


def test_cli_corpus_reaches_every_exit_code_and_both_unprintable_lines(tmp_path):
    from nhsim.cli import main

    corpus = output_identity.cli_corpus(101)
    results = output_identity.run_cli_corpus(main, 101, tmp_path)
    assert {code for code, _, _ in results} == {0, 1, 2}
    errors = {err for _, _, err in results}
    assert "error: word traces overflow; rescale the matrices\n" in errors
    assert "error: word traces underflow; rescale the matrices\n" in errors
    # the near-boundary 2x2 members close the corpus, after the pair of
    # unequal dimensions: the trace check accepts some and rejects others
    last = max(i for i, (_, matrices, _) in enumerate(corpus)
               if len({M.shape for M in matrices}) == 2)
    boundary = [(flags, code) for (_, _, flags), (code, _, _) in
                zip(corpus[last + 1:], results[last + 1:])]
    assert len(boundary) == 36
    assert {code for flags, code in boundary if flags} == {0, 1}
    commands = {(command, flags[:1]) for command, _, flags in corpus}
    assert commands == {("specht", ()), ("specht", ("--output",)), ("specht", ("--tol",)),
                        ("specht-generators", ()), ("specht-generators", ("--class",)),
                        ("specht-generators", ("--tol",)), ("classify", ("--tol",))}
    # classify at each --tol on a member whose pseudo-Hermitian pairing
    # fails at the clustering radius 10 tol (and would hold at 100 tol),
    # and on one whose pairing holds at 10 tol (and would fail at tol)
    paired = {}
    for (command, _, flags), (code, out, _) in zip(corpus, results):
        if command == "classify":
            doc = json.loads(out)
            seen = "PseudoHermitian" in doc["classes"] + doc["spectral_only"]
            paired.setdefault(flags[1], []).append(seen)
    assert paired == {"1e-5": [False, True], "1e-11": [False, True]}
    # the Hermitian and anti-Hermitian members reach the identity candidate
    identity = output_identity.matrix_doc(np.eye(2, dtype=complex))
    found = set()
    for (command, _, _), (code, out, _) in zip(corpus, results):
        doc = json.loads(out) if command == "specht-generators" and code == 0 else {}
        if doc.get("mode") == "generators":
            for by_symmetry in doc["results"].values():
                found.update(s for s, r in by_symmetry.items() if r["generator"] == identity)
    assert found == {"pseudo-hermitian-symmetry", "chiral-symmetry"}


def _witness_bytes(seed):
    return [H.tobytes() for H in output_identity.witness_corpus(seed)]


@functools.cache
def _witness_corpus_101():
    """The seed-101 witness corpus, built once for the tests that read it."""
    return tuple(output_identity.witness_corpus(101))


def test_witness_corpus_is_a_pure_function_of_the_seed():
    first = [H.tobytes() for H in _witness_corpus_101()]
    assert len(first) == 2 * output_identity.WITNESS_INPUTS
    np.random.seed(5)  # the global generator plays no part
    np.random.standard_normal(3)
    assert _witness_bytes(102) != first
    assert _witness_bytes(101) == first


def test_witnesses_of_the_corpus_are_exactly_hermitian():
    # the formula the defect was once computed by gives +0.0 on every witness
    from nhsim import SimilarityClass, SimilarityWitness, construct_witness
    from nhsim.matrices import dagger, frob

    seen = 0
    for H in _witness_corpus_101():
        for cls in SimilarityClass:
            w = output_identity.outcome(construct_witness, H, cls)
            if isinstance(w, SimilarityWitness):
                S = w.transform
                defect = frob(S - dagger(S)) / frob(S)
                assert str(defect) == str(w.hermiticity_defect) == "0.0"
                seen += 1
    assert seen > output_identity.WITNESS_INPUTS


def _scan_corpus_text(seed):
    return [(json.dumps(doc), flags) for doc, flags in output_identity.scan_corpus(seed)]


def test_scan_corpus_is_a_pure_function_of_the_seed():
    first = _scan_corpus_text(101)
    np.random.seed(5)  # the global generator plays no part
    np.random.standard_normal(3)
    assert _scan_corpus_text(102) != first
    assert _scan_corpus_text(101) == first


def test_scan_corpus_reaches_every_class_the_overflow_and_every_threshold(tmp_path):
    from nhsim.cli import main

    corpus = output_identity.scan_corpus(101)
    results = output_identity.run_scan_corpus(main, 101, tmp_path)
    assert {code for code, _, _ in results} == {0, 1, 2}
    assert ("error: constraint values overflow on the grid\n"
            in {err for _, _, err in results})
    # two families fail the class identity check, one only outside the
    # box [-2, 2]^2: the gate is in the digest
    gated = [err for code, _, err in results if code == 1]
    assert len(gated) == 2
    assert all(err.startswith("error: family violates PseudoHermitian identity")
               for err in gated)
    assert "gamma^4" in gated[1]
    tags = {flags[1] for _, flags in corpus}
    assert tags == {"pseudo-hermitian", "chiral", "self-skew"}
    dims = {doc["dim"] for doc, _ in corpus}
    assert dims == {2, 3, 4}
    exponents = {e for doc, _ in corpus for t in doc["terms"] for e in t["exponents"]}
    assert {2, 3} < exponents
    assert any("--fix" in flags for _, flags in corpus)
    assert any("--tol" in flags for _, flags in corpus)
    # a grid of several evaluation blocks whose last block is partial, and
    # a 4 x 4 grid, all of whose nodes are exact, of more than one block
    from nhsim import epfinder

    def nodes(flags):
        return int(np.prod([int(f.rsplit(":", 1)[1]) for f in flags if f.count(":") == 2]))

    most = max(nodes(flags) for _, flags in corpus)
    assert most > 5151 and most > 2 * epfinder._BLOCK_POINTS and most % epfinder._BLOCK_POINTS
    exact = [nodes(flags) for doc, flags in corpus if doc["dim"] == 4]
    assert exact and min(exact) > epfinder._BLOCK_POINTS
    thresholds = {flags[-1] for _, flags in corpus if "--seed-threshold" in flags}
    assert {"0", "inf"} < thresholds
    assert sum('"converged": true' in out for _, out, _ in results) >= len(corpus) // 2
