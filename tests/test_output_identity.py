"""The canonical result digest of ``tools/output_identity.py``, without
running the workloads."""

import importlib.util
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
