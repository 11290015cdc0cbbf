import json

import numpy as np
import pytest

from nhsim.errors import FamilyFormatError, NonFiniteMatrixError
from nhsim.families import MatrixFamily, constraint_jacobians, family_to_json, parse_family
from nhsim.matrices import matrix_to_json, parse_matrix

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


def mat_doc(M):
    M = np.asarray(M, dtype=complex)
    return {
        "dim": M.shape[0],
        "entries": [[[c.real, c.imag] for c in row] for row in M],
    }


def dimer_doc():
    return {
        "dim": 2,
        "params": 1,
        "param_names": ["gamma"],
        "terms": [
            {"matrix": mat_doc(SX), "exponents": [0]},
            {"matrix": mat_doc(1j * SZ), "exponents": [1]},
        ],
    }


def test_parse_dimer_round_trip():
    f = parse_family(json.dumps(dimer_doc()))
    assert f.dim == 2 and f.num_params == 1
    assert f.param_names == ("gamma",)
    g = parse_family(json.dumps(family_to_json(f)))
    assert np.allclose(g.evaluate([0.7]), f.evaluate([0.7]))


def test_parse_trimer_round_trip():
    E = np.eye(3)
    K = np.outer(E[0], E[1]) + np.outer(E[1], E[0]) \
        + np.outer(E[1], E[2]) + np.outer(E[2], E[1])
    D = 1j * (np.outer(E[0], E[0]) - np.outer(E[2], E[2]))
    doc = {
        "dim": 3,
        "params": 2,
        "terms": [
            {"matrix": mat_doc(K), "exponents": [0, 1]},
            {"matrix": mat_doc(D), "exponents": [1, 0]},
        ],
    }
    f = parse_family(json.dumps(doc))
    assert f.dim == 3 and f.num_params == 2
    assert f.param_names == ("p1", "p2")  # defaulted
    H = f.evaluate([np.sqrt(2), 1.0])
    assert H[0, 1] == 1 and H[0, 0] == pytest.approx(1j * np.sqrt(2))


#: entry parts that a lossy float format would bend: signed zeros,
#: subnormals, the smallest normal and magnitudes near 1e+-300
AWKWARD = [-0.0, 0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, 1e300, -1e-300]


def awkward_matrix(rng, n):
    """Seeded matrix with log-uniform magnitudes in 1e+-300 and a third of
    its real and imaginary parts drawn from ``AWKWARD``."""
    parts = 10.0 ** rng.uniform(-300, 300, (2, n, n)) * rng.choice([-1.0, 1.0], (2, n, n))
    special = rng.random((2, n, n)) < 1 / 3
    parts[special] = rng.choice(AWKWARD, special.sum())
    H = np.empty((n, n), dtype=complex)
    H.real, H.imag = parts
    return H


def test_matrix_json_round_trips_bit_exactly():
    rng = np.random.default_rng(11)
    for i in range(300):
        H = awkward_matrix(rng, int(rng.integers(1, 7)))
        assert parse_matrix(json.dumps(matrix_to_json(H))).tobytes() == H.tobytes(), i


def test_family_json_round_trips_bit_exactly():
    rng = np.random.default_rng(12)
    for i in range(100):
        n, d = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        terms = tuple(
            (awkward_matrix(rng, n), tuple(int(e) for e in rng.integers(0, 4, d)))
            for _ in range(int(rng.integers(1, 4)))
        )
        names = () if i % 3 == 0 else tuple(f"λ{j}_{i}" for j in range(d))
        f = MatrixFamily(dim=n, num_params=d, terms=terms, param_names=names)
        g = parse_family(json.dumps(family_to_json(f)))
        assert (g.dim, g.num_params, g.param_names) == (n, d, f.param_names), i
        assert len(g.terms) == len(terms), i
        for (M, exps), (M2, exps2) in zip(terms, g.terms):
            assert M2.tobytes() == M.tobytes() and exps2 == exps, i


def test_parse_rejects_dimension_mix():
    doc = dimer_doc()
    doc["terms"].append({"matrix": mat_doc(np.eye(3)), "exponents": [0]})
    with pytest.raises(FamilyFormatError, match=r"terms\[2\]"):
        parse_family(json.dumps(doc))


def test_parse_rejects_bad_exponents():
    doc = dimer_doc()
    doc["terms"][0]["exponents"] = [-1]
    with pytest.raises(FamilyFormatError, match=r"terms\[0\]\.exponents\[0\]"):
        parse_family(json.dumps(doc))
    doc["terms"][0]["exponents"] = [0, 1]
    with pytest.raises(FamilyFormatError, match=r"terms\[0\]\.exponents"):
        parse_family(json.dumps(doc))


def test_parse_rejects_malformed_json_and_missing_keys():
    with pytest.raises(FamilyFormatError, match="invalid JSON"):
        parse_family(b"{nope")
    with pytest.raises(FamilyFormatError, match="missing 'terms'"):
        parse_family(json.dumps({"dim": 2, "params": 1}))
    with pytest.raises(FamilyFormatError, match="param_names"):
        doc = dimer_doc()
        doc["param_names"] = ["a", "b"]
        parse_family(json.dumps(doc))


def test_evaluate_dimer_examples():
    f = parse_family(json.dumps(dimer_doc()))
    assert np.allclose(f.evaluate([0.0]), SX)
    assert np.allclose(f.evaluate([1.0]), [[1j, 1], [1, -1j]])
    assert np.allclose(f.evaluate([2.0]), [[2j, 1], [1, -2j]])
    with pytest.raises(ValueError):
        f.evaluate([1.0, 2.0])
    with pytest.raises(NonFiniteMatrixError):
        f.evaluate([np.inf])


def test_evaluate_linear_in_coefficients():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    B = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    fa = MatrixFamily(2, 1, ((A, (2,)),))
    fb = MatrixFamily(2, 1, ((B, (2,)),))
    fab = MatrixFamily(2, 1, ((A, (2,)), (B, (2,))))
    lam = [1.3]
    assert np.allclose(
        fab.evaluate(lam), fa.evaluate(lam) + fb.evaluate(lam), atol=1e-12
    )


def reference_evaluate(f, lam):
    """Direct polynomial summation at one point, scalar powers."""
    H = np.zeros((f.dim, f.dim), dtype=complex)
    for M, exps in f.terms:
        coeff = 1.0
        for x, e in zip(np.asarray(lam, dtype=float), exps):
            if e:
                coeff *= x**e
        H += coeff * M
    return H


def test_evaluate_batch_rows_bit_exact():
    # each coefficient is the product of its powers in parameter order, as
    # from 1.0: a constant term, exponents 0 to 4, three factors, -0.0
    rng = np.random.default_rng(7)
    exps = [(0, 0, 0), (1, 0, 0), (2, 1, 0), (0, 3, 1), (4, 0, 2), (1, 1, 1), (3, 2, 1)]
    f = MatrixFamily(3, 3, tuple(
        (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)), e)
        for e in exps
    ))
    lams = rng.uniform(-3, 3, size=(2000, 3))
    lams[::7, 0] = -0.0
    lams[1::5, 2] = -0.0
    lams[2::11] = -0.0
    H = f.evaluate_batch(lams)
    assert H.shape == (2000, 3, 3)
    for lam, Hj in zip(lams, H):
        assert Hj.tobytes() == reference_evaluate(f, lam).tobytes()
        assert Hj.tobytes() == f.evaluate(lam).tobytes()


def test_evaluate_batch_rejects_bad_points():
    f = parse_family(json.dumps(dimer_doc()))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(NonFiniteMatrixError, match="non-finite parameter point"):
            f.evaluate_batch([[0.5], [bad], [1.0]])
    with pytest.raises(ValueError):
        f.evaluate_batch([[0.5, 1.0]])
    with pytest.raises(ValueError):
        f.evaluate_batch([0.5, 1.0])
    assert f.evaluate_batch(np.empty((0, 1))).shape == (0, 2, 2)


def test_parse_rejects_bool_and_non_list_fields():
    for doc in (
        {"dim": 2, "entries": 5},
        {"dim": 2, "entries": [5, 6]},
        {"dim": 1, "entries": [[{"re": 1}]]},
        {"dim": 1, "entries": [[[10**400, 0]]]},
        {"dim": True, "entries": [[[1, 0]]]},
    ):
        with pytest.raises(FamilyFormatError):
            parse_matrix(json.dumps(doc))
    for key, value in (("dim", True), ("params", True)):
        doc = dimer_doc()
        doc[key] = value
        with pytest.raises(FamilyFormatError, match=f"'{key}' must be"):
            parse_family(json.dumps(doc))
    doc = dimer_doc()
    doc["terms"][1]["exponents"] = [True]
    with pytest.raises(FamilyFormatError, match=r"terms\[1\]\.exponents\[0\]"):
        parse_family(json.dumps(doc))


@pytest.mark.parametrize("entry", [[1, 2, 3], [True, False]])
def test_parse_rejects_entries_that_are_not_number_pairs(entry):
    with pytest.raises(FamilyFormatError, match=r"not a \[re, im\] pair"):
        parse_matrix(json.dumps({"dim": 1, "entries": [[entry]]}))
    doc = dimer_doc()
    doc["terms"][0]["matrix"]["entries"][0][1] = entry
    with pytest.raises(FamilyFormatError, match=r"terms\[0\]\.matrix"):
        parse_family(json.dumps(doc))


def test_constraint_jacobian_polynomials():
    J = constraint_jacobians(lambda xs: xs**2, [[3.0]])[0]
    assert J[0, 0] == pytest.approx(6.0, abs=1e-8)
    J = constraint_jacobians(
        lambda xs: np.stack([xs[:, 0] * xs[:, 1], xs[:, 0] + xs[:, 1]], axis=1),
        [[1.0, 1.0]],
    )[0]
    assert np.allclose(J, [[1, 1], [1, 1]], atol=1e-8)


def test_constraint_jacobian_dimer_det():
    # det(sx + i*gamma*sz) = gamma^2 - 1, derivative 2*gamma = 0 at 0
    f = parse_family(json.dumps(dimer_doc()))

    def g_many(lams):
        return np.linalg.det(f.evaluate_batch(lams)).real[:, None]

    J = constraint_jacobians(g_many, [[0.0]])[0]
    assert abs(J[0, 0]) <= 1e-6


def test_constraint_jacobian_linear_family_is_coefficient():
    rng = np.random.default_rng(1)
    M = rng.standard_normal((2, 2))
    f = MatrixFamily(2, 1, ((M.astype(complex), (1,)),))

    def g_many(lams):
        return f.evaluate_batch(lams).real.reshape(len(lams), -1)

    J = constraint_jacobians(g_many, [[0.4]])[0]
    assert np.allclose(J.ravel(), M.ravel(), atol=1e-8)


def test_constraint_jacobian_batched_matches_pointwise():
    def g_many(xs):
        return np.array([[x[0] ** 3 * x[1], np.sin(x[0]) - x[1] ** 2] for x in xs])

    lams = [[0.3, -1.7], [25.0, 1e-3]]
    stacked = constraint_jacobians(g_many, lams)
    for lam, b in zip(lams, stacked):
        a = constraint_jacobians(g_many, [lam])[0]
        assert a.tobytes() == b.tobytes()


def test_constraint_jacobian_nonfinite():
    with np.errstate(invalid="ignore", divide="ignore"):
        with pytest.raises(NonFiniteMatrixError):
            constraint_jacobians(lambda xs: np.log(xs), [[0.0]])


def test_family_requires_terms():
    with pytest.raises(FamilyFormatError):
        MatrixFamily(2, 1, ())


def test_family_rejects_an_exponent_list_of_another_length():
    with pytest.raises(FamilyFormatError,
                       match=r"^terms\[0\]\.exponents must list 2 entries, got \(0,\)$"):
        MatrixFamily(2, 2, ((SX, (0,)), (1j * SZ, (1,))), ("g", "k"))


def test_family_rejects_a_negative_exponent():
    with pytest.raises(FamilyFormatError,
                       match=r"^terms\[1\]\.exponents\[0\] must be a nonnegative integer, got -1$"):
        MatrixFamily(2, 1, ((SX, (0,)), (1j * SZ, (-1,))), ("g",))


def test_family_rejects_a_matrix_of_another_size():
    with pytest.raises(FamilyFormatError,
                       match=r"^terms\[1\]\.matrix is 3x3, family dim is 2$"):
        MatrixFamily(2, 1, ((SX, (0,)), (np.eye(3), (1,))), ("g",))
