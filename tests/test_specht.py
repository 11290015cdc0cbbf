import itertools
import json

import numpy as np
import pytest

from nhsim import cli, specht
from nhsim.classes import CLASS_MAP, SimilarityClass, construct_witness, generate_random
from nhsim.errors import ClassMismatchError, UnsupportedDimensionError
from nhsim.matrices import (
    as_scaled_matrix, frob, frob_many, ldexp_complex, matrix_to_json, scaled_stack,
)
from nhsim.spectral import DEFAULT_TOLERANCES, SYMMETRY_MAPS, ToleranceConfig
from nhsim.specht import (
    CLASS_SYMMETRIES,
    SYMMETRY_TARGETS,
    Word,
    WordProfile,
    _PROGRAMS,
    _compare_in_range,
    check_similarity_implies_symmetry_2x2,
    compare_profiles,
    mapped_target,
    n3_counterexample,
    solve_generators,
    trace_profile,
    unitary_similarity_test,
    word_list,
    word_profile,
    word_trace,
    word_traces,
)

PH = SimilarityClass.PSEUDO_HERMITIAN
CH = SimilarityClass.CHIRAL
SS = SimilarityClass.SELF_SKEW_SIMILAR

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)
N = np.array([[0, 1], [0, 0]], dtype=complex)


def test_word_parse_and_str():
    w = Word.parse("XXdagXX")
    assert str(w) == "XXdagXX"
    assert len(w) == 4
    with pytest.raises(ValueError):
        Word.parse("XY")
    with pytest.raises(ValueError):
        Word(())


def test_word_trace_examples():
    assert word_trace(SX, Word.parse("X")) == pytest.approx(0)
    assert word_trace(SX, Word.parse("XXdag")) == pytest.approx(2)
    assert word_trace(N, Word.parse("XXdag")) == pytest.approx(1)


def test_word_trace_cyclic_invariance():
    rng = np.random.default_rng(0)
    H = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    for w in word_list(3):
        base = word_trace(H, w)
        for k in range(1, len(w)):
            assert abs(word_trace(H, w.rotated(k)) - base) <= 1e-12 * max(abs(base), 1)


def test_word_lists():
    assert [str(w) for w in word_list(2)] == ["X", "XX", "XXdag"]
    l3 = [str(w) for w in word_list(3)]
    assert len(l3) == 7
    assert len(set(l3)) == 7  # deduplicated canonical list
    assert l3[:3] == ["X", "XX", "XXdag"]
    with pytest.raises(UnsupportedDimensionError):
        word_list(4)


def test_unitary_similarity_examples():
    assert unitary_similarity_test(SX, SZ)  # Hadamard conjugation
    assert unitary_similarity_test(N, N.T)  # via sx
    assert not unitary_similarity_test(2 * N, N)  # tr XXdag: 4 vs 1


def test_unitary_similarity_random_conjugation():
    rng = np.random.default_rng(1)
    for n in (2, 3):
        for _ in range(20):
            H = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            U, _ = np.linalg.qr(rng.standard_normal((n, n))
                                + 1j * rng.standard_normal((n, n)))
            assert unitary_similarity_test(H, U @ H @ U.conj().T)


def test_trace_profile_shape():
    prof = trace_profile(SX)
    assert len(prof) == 3
    assert all(isinstance(t, complex) for _, t in prof)


def test_generator_recovery_pseudo_hermitian_example():
    H = np.array([[0, 1], [4, 0]], dtype=complex)
    found = check_similarity_implies_symmetry_2x2(H, PH)
    assert set(found) == {"PT", "pseudo-hermitian-symmetry"}
    for r in found.values():
        assert r.similarity_residual <= 1e-8
        assert r.property_defect <= 1e-8


def test_generator_recovery_chiral_example():
    H = np.array([[1j, 1], [1, -1j]], dtype=complex)
    found = check_similarity_implies_symmetry_2x2(H, CH)
    for r in found.values():
        assert r.similarity_residual <= 1e-8
        assert r.property_defect <= 1e-8


def recover(H, symmetry):
    """The generator of one symmetry of a 2x2 ``H``, solved on ``H``
    rescaled as the class check does."""
    H = as_scaled_matrix(H)
    found = solve_generators(H, (symmetry,), [mapped_target(H, symmetry)], frob(H))
    return found[symmetry]


def test_generator_recovery_hermitian_identity_case():
    r = recover(SX, "pseudo-hermitian-symmetry")
    assert r.similarity_residual <= 1e-10
    assert r.property_defect <= 1e-10


DEGENERATE_2X2 = {
    "zero": (np.zeros((2, 2)), (PH, CH)),
    "3I": (3 * np.eye(2), (PH,)),
    "2iI": (2j * np.eye(2), (CH,)),
    "sx+sz/2": (SX + SZ / 2, (PH, CH)),  # normal: 2-D nullspace
    "i(sx+sz)": (1j * (SX + SZ), (PH, CH)),
    "EP": (N, (PH, CH)),
    **{f"d=1e-{k}": (np.array([[0, 1], [10.0**-k, 0]]), (PH, CH))
       for k in range(6, 16)},
}


@pytest.mark.parametrize("name", list(DEGENERATE_2X2))
def test_generator_recovery_degenerate_inputs(name):
    H, classes = DEGENERATE_2X2[name]
    for cls in classes:
        found = check_similarity_implies_symmetry_2x2(H, cls)
        again = check_similarity_implies_symmetry_2x2(H, cls)
        assert set(found) == set(again) and len(found) == 2
        for symmetry, r in found.items():
            assert r.similarity_residual <= 1e-8, (cls, symmetry)
            assert r.property_defect <= 1e-8, (cls, symmetry)
            assert r.generator.tobytes() == again[symmetry].generator.tobytes()


def test_generator_recovery_rejects_out_of_class():
    with pytest.raises(ClassMismatchError):
        check_similarity_implies_symmetry_2x2(np.diag([1j, 2j]), PH)
    with pytest.raises(UnsupportedDimensionError):
        check_similarity_implies_symmetry_2x2(np.eye(3), PH)


def test_selfskew_2x2_sublattice_works_pseudo_chiral_fails():
    # the sublattice generator exists for 2x2 self-skew matrices; the
    # pseudo-chiral one generically does not (similarity without symmetry)
    hits = 0
    for seed in range(10):
        H = generate_random(SS, 2, seed, non_normal=True)
        found = check_similarity_implies_symmetry_2x2(H, SS)
        sub = found["sublattice"]
        assert max(sub.similarity_residual, sub.property_defect) <= 1e-8
        pc = found["pseudo-chiral"]
        if max(pc.similarity_residual, pc.property_defect) > 1e-3:
            hits += 1
    # recovery returns the global minimum, so no generic sample slips under
    assert hits == 10


def test_word_traces_match_for_2x2_classes():
    # Thm-level first clause: 2x2 class members have matching profiles with
    # their mapped partners
    for seed in range(20):
        H = generate_random(PH, 2, seed)
        assert not compare_profiles(H, H.conj())
        assert not compare_profiles(H, H.conj().T)
        H = generate_random(CH, 2, seed)
        assert not compare_profiles(H, -H.conj())
        assert not compare_profiles(H, -H.conj().T)


@pytest.mark.parametrize("cls", list(SimilarityClass))
def test_n3_counterexample(cls):
    ev = n3_counterexample(cls, seed=0)
    assert ev.mismatch > 1e-6
    assert ev.attempts <= 100
    # the evidence is reproducible from the returned matrix
    target, sign, _ = SYMMETRY_TARGETS[ev.symmetry]
    B = sign * np.asarray(target(ev.matrix))
    assert B.tobytes() == mapped_target(ev.matrix, ev.symmetry).tobytes()
    assert abs(word_trace(ev.matrix, ev.word) - word_trace(B, ev.word)) > 1e-6
    doc = ev.to_json()
    assert doc["word"] == str(ev.word)
    assert doc["mismatch"] > 1e-6


def test_selfskew_counterexample_uses_pseudo_chiral():
    # (H, -H) profiles always agree for this class, so the certified
    # mismatch must come from the transpose target
    ev = n3_counterexample(SS, seed=4)
    assert ev.symmetry == "pseudo-chiral"
    H = generate_random(SS, 3, 4, non_normal=True)
    assert not compare_profiles(H, -H)


@pytest.mark.parametrize("cls", list(SimilarityClass))
def test_enclosed_symmetries_map_the_spectrum_like_their_class(cls):
    # each enclosed symmetry makes H unitarily similar to sign T(H), so the
    # spectrum of sign T(M) must be the class's spectral map of that of M,
    # for any M
    fmap = SYMMETRY_MAPS[CLASS_MAP[cls]]
    rng = np.random.default_rng(5)
    for n in range(2, 7):
        M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        image = fmap(np.linalg.eigvals(M))
        for symmetry in CLASS_SYMMETRIES[cls]:
            spec = np.linalg.eigvals(mapped_target(M, symmetry))
            # the bottleneck distance: over all pairings, the least largest
            # pair distance
            dist = np.abs(spec[:, None] - image[None, :])
            perms = np.array(list(itertools.permutations(range(n))))
            bottleneck = dist[np.arange(n), perms].max(axis=1).min()
            assert bottleneck <= 1e-12 * np.linalg.norm(M), (symmetry, n)


# ---------------------------------------------------------------------------
# the stacked word pass and the stacked generator solve keep the bytes of the
# one-matrix, one-word and one-symmetry evaluations they replace


def _reference_word_trace(H, w):
    # one matrix, one word, multiplied out left to right from eye @ X_1
    Hd = H.conj().T
    M = np.eye(H.shape[0], dtype=complex)
    for letter in w.letters:
        M = M @ (H if letter == "X" else Hd)
    return complex(np.trace(M))


def _reference_generator(H, symmetry):
    # one symmetry, one real 8x3 SVD
    target, sign, prop = SYMMETRY_TARGETS[symmetry]
    B = sign * np.asarray(target(H))
    M = (H @ prop.basis - prop.basis @ B).reshape(3, 4)
    q = np.linalg.svd(np.concatenate([M.real, M.imag], axis=1).T)[2][-1]
    candidates = (np.tensordot(q, prop.basis, axes=1), np.eye(2, dtype=complex))
    residuals = [np.linalg.norm(H - U @ B @ U.conj().T) for U in candidates]
    k = int(np.argmin(residuals))
    U = candidates[k]
    defect = np.linalg.norm(U @ (U.conj() if prop.conjugate else U) - np.eye(2))
    return U, float(residuals[k]) / max(float(np.linalg.norm(H)), 1e-300), float(defect)


def _bit_corpus(n, count, seed):
    """Seeded n x n inputs: generic, integer, sparse, signed zeros, mixed
    magnitudes and in-class members."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        kind = i % 6
        if kind == 1:
            M = np.round(2 * M)
        elif kind == 2:
            M = M * (rng.random((n, n)) < 0.5)
        elif kind == 3:
            M = np.where(rng.random((n, n)) < 0.4, -0.0, M)
            M.imag[rng.random((n, n)) < 0.5] = -0.0
        elif kind == 4:
            M = M * 10.0 ** rng.integers(-6, 7, (n, n))
        elif kind == 5:
            M = generate_random(list(SimilarityClass)[i % 3], n, i, non_normal=True)
        out.append(M)
    return out


def _bytes(x):
    return np.asarray(x).tobytes()


@pytest.mark.parametrize("n", [2, 3])
def test_stacked_word_traces_keep_the_one_matrix_bytes(n):
    words = word_list(n)
    for i, H in enumerate(_bit_corpus(n, 300, seed=n)):
        # H with all six mapped targets: C- and F-ordered, negated, conjugated
        stack = [H] + [mapped_target(H, s) for s in SYMMETRY_TARGETS]
        traces = word_traces(np.stack(stack), words)
        for k, M in enumerate(stack):
            ref = [_reference_word_trace(M, w) for w in words]
            assert _bytes(traces[k]) == _bytes(ref), (i, k)
        assert _bytes([word_trace(H, w) for w in words]) == _bytes(traces[0]), i
        assert _bytes([t for _, t in trace_profile(H)]) == _bytes(traces[0]), i
        for w, ta, tb in compare_profiles(H, stack[1]):
            assert _bytes([ta, tb]) == _bytes(
                [_reference_word_trace(H, w), _reference_word_trace(stack[1], w)])


def _generator_corpus():
    degenerate = [np.asarray(H, dtype=complex) for H, _ in DEGENERATE_2X2.values()]
    return degenerate + _bit_corpus(2, 300, seed=7)


def test_stacked_generators_keep_the_one_symmetry_bytes():
    symmetries = list(SYMMETRY_TARGETS)
    for i, H in enumerate(_generator_corpus()):
        targets = [mapped_target(H, s) for s in symmetries]
        found = solve_generators(H, symmetries, targets, frob(H))
        for s in symmetries:
            U, residual, defect = _reference_generator(H, s)
            for r in (found[s], recover(H, s)):
                assert _bytes(r.generator) == _bytes(U), (i, s)
                assert _bytes([r.similarity_residual, r.property_defect]) == _bytes(
                    [residual, defect]), (i, s)


def test_class_check_keeps_the_one_symmetry_bytes():
    for i, H in enumerate(_generator_corpus()):
        for cls in SimilarityClass:
            try:
                found = check_similarity_implies_symmetry_2x2(H, cls)
            except ClassMismatchError:
                continue
            for s, r in found.items():
                U, residual, defect = _reference_generator(H, s)
                assert _bytes(r.generator) == _bytes(U), (i, cls, s)
                assert _bytes([r.similarity_residual, r.property_defect]) == _bytes(
                    [residual, defect]), (i, cls, s)


# ---------------------------------------------------------------------------
# the word program and the stacked residual pass keep the bytes of the loops
# they replaced: one matmul and one np.trace per new prefix and word, one
# residual and one defect per candidate and symmetry


def _loop_word_traces(stack, words):
    letters = {"X": stack, "Xdag": stack.conj().transpose(0, 2, 1)}
    products = {(): np.eye(stack.shape[-1], dtype=complex)}
    out = np.empty((stack.shape[0], len(words)), dtype=complex)
    for j, w in enumerate(words):
        for k in range(1, len(w) + 1):
            prefix = w.letters[:k]
            if prefix not in products:
                products[prefix] = products[prefix[:-1]] @ letters[prefix[-1]]
        out[:, j] = np.trace(products[w.letters], axis1=1, axis2=2)
    return out


def _loop_word_profile(stack, tol):
    words = word_list(stack.shape[-1])
    scaled = scaled_stack(stack, max(map(len, words)))
    with np.errstate(over="ignore", invalid="ignore"):
        traces = _loop_word_traces(stack, words)
    decided = traces if scaled is stack else _loop_word_traces(scaled, words)
    norms = frob_many(scaled)
    degrees = np.array([len(w) for w in words])
    bound = tol * np.maximum(norms[0], norms[1:, None]) ** degrees
    differ = np.abs(decided[1:] - decided[0]) > bound
    return words, traces, [np.flatnonzero(row).tolist() for row in differ]


def _loop_solve_generators(H, symmetries, targets):
    props = [SYMMETRY_TARGETS[s][2] for s in symmetries]
    bases = np.stack([p.basis for p in props])
    M = (H @ bases - bases @ np.stack(targets)[:, None]).reshape(len(props), 3, 4)
    A = np.concatenate([M.real, M.imag], axis=2).transpose(0, 2, 1)
    q = np.linalg.svd(A)[2][:, -1]
    norm = max(frob(H), 1e-300)
    I2 = np.eye(2, dtype=complex)
    out = {}
    for symmetry, prop, B, qk in zip(symmetries, props, targets, q):
        candidates = (np.dot(qk[None], prop.basis.reshape(3, 4)).reshape(2, 2), I2)
        residuals = [frob(H - U @ B @ U.conj().T) for U in candidates]
        k = int(np.argmin(residuals))
        U = candidates[k]
        defect = frob(U @ (U.conj() if prop.conjugate else U) - I2)
        out[symmetry] = (U, residuals[k] / norm, defect)
    return out


def _loop_class_generators(H, cls, tol):
    """The generators, or the text of the ClassMismatchError."""
    H = as_scaled_matrix(H)
    symmetries = CLASS_SYMMETRIES[cls]
    targets = [mapped_target(H, symmetry) for symmetry in symmetries]
    words, traces, mismatches = _loop_word_profile(np.stack([H, *targets]), tol)
    for i, bad in enumerate(mismatches, 1):
        if bad:
            j = bad[0]
            return (f"not {cls.value}: word {words[j]} traces {traces[0, j]:.6g} "
                    f"vs {traces[i, j]:.6g} for the {symmetries[i - 1]} target")
    return _loop_solve_generators(H, symmetries, targets)


def _pin_corpus(n):
    """Members of each class and non-members, members times 1 + eps noise
    (eps 1e-9 to 1e-7, at the membership boundary), all of those times
    2^600 and 2^-600, zero matrices and -0.0 entries; last, a Hermitian and
    an anti-Hermitian matrix, whose pseudo-Hermitian and chiral symmetry
    generators are the identity, times 1, 2^600 and 2^-600 and with -0.0
    diagonal parts."""
    rng = np.random.default_rng([n, 20])

    def cplx():
        return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))

    members = [generate_random(cls, n, seed, non_normal=seed % 2 == 1)
               for cls in SimilarityClass for seed in range(4)]
    generic = [cplx() for _ in range(4)]
    noisy = [M * (1 + eps * cplx()) for M in members for eps in (1e-9, 1e-8, 1e-7)]
    out = members + generic + noisy
    out += [ldexp_complex(M, e) for M in out for e in (600, -600)]
    signed = generate_random(CH, n, 9)
    signed.real[rng.random((n, n)) < 0.5] = -0.0
    out += [np.zeros((n, n), dtype=complex), np.full((n, n), -0.0 - 0.0j), signed]
    hermitian = cplx()
    hermitian += hermitian.conj().T
    for M, zero_part in ((hermitian, "imag"), (1j * hermitian, "real")):
        out += [M, ldexp_complex(M, 600), ldexp_complex(M, -600), M.copy()]
        getattr(out[-1], zero_part)[np.diag_indices(n)] = -0.0
    return out


def _same_bits(a, b):
    # equal bytes; a NaN (an overflowing trace) matches any NaN
    a, b = (np.ascontiguousarray(x).view(float) for x in (a, b))
    nan = np.isnan(b)
    return np.array_equal(np.isnan(a), nan) and a[~nan].tobytes() == b[~nan].tobytes()


# every word list the program can meet: the canonical ones, one that repeats a
# word, and one whose prefixes and reads are no runs of consecutive products
_PIN_WORDS = [word_list(2), word_list(3),
              [Word.parse(w) for w in ("XdagX", "X", "XdagXdagX", "X", "XXdagX")]]


@pytest.mark.parametrize("n", [2, 3])
def test_word_program_keeps_the_per_word_loop_bytes(n):
    for i, H in enumerate(_pin_corpus(n)):
        targets = [mapped_target(H, s) for s in SYMMETRY_TARGETS]
        for m in range(1, 5):
            stack = np.stack([H, *targets[:m - 1]])
            for words in _PIN_WORDS:
                with np.errstate(over="ignore", invalid="ignore"):
                    got, want = word_traces(stack, words), _loop_word_traces(stack, words)
                assert got.shape == want.shape and _same_bits(got, want), (i, m, words)


@pytest.mark.parametrize("n", [2, 3])
def test_word_profile_keeps_the_loop_verdicts(n):
    mismatched = 0
    for i, H in enumerate(_pin_corpus(n)):
        targets = [mapped_target(H, s) for s in SYMMETRY_TARGETS]
        for m in range(2, 5):
            stack = np.stack([H, *targets[:m - 1]])
            for tol in (0.0, 1e-8, 1e-6):
                words, traces, mismatches = word_profile(stack, tol)
                ref_words, ref_traces, ref_mismatches = _loop_word_profile(stack, tol)
                assert words == ref_words and mismatches == ref_mismatches, (i, m, tol)
                assert _same_bits(traces, ref_traces), (i, m, tol)
                mismatched += any(mismatches)
    assert mismatched > 0


def test_stacked_residual_pass_keeps_the_loop_bytes():
    pairs = [*CLASS_SYMMETRIES.values(), tuple(SYMMETRY_TARGETS)]
    identity, ties = {"pseudo-hermitian-symmetry": 0, "chiral-symmetry": 0}, 0
    for i, H in enumerate(_pin_corpus(2)):
        H = as_scaled_matrix(H)
        for symmetries in pairs:
            targets = [mapped_target(H, s) for s in symmetries]
            found = solve_generators(H, symmetries, targets, frob(H))
            ref = _loop_solve_generators(H, symmetries, targets)
            assert list(found) == list(ref)
            for s, (U, residual, defect) in ref.items():
                r = found[s]
                assert _bytes(r.generator) == _bytes(U), (i, s)
                assert type(r.similarity_residual) is type(r.property_defect) is float
                assert _bytes([r.similarity_residual, r.property_defect]) == _bytes(
                    [residual, defect]), (i, s)
        # found: all six symmetries.  H = sign H^+: the identity meets the
        # symmetry exactly; no q . sigma of the involution basis is I, so I
        # can only come from the identity branch, and the zero matrix, where
        # both residuals are 0, keeps the SVD candidate
        for s, sign in (("pseudo-hermitian-symmetry", 1), ("chiral-symmetry", -1)):
            if not np.array_equal(H, sign * H.conj().T):
                continue
            r = found[s]
            is_identity = _bytes(r.generator) == _bytes(np.eye(2, dtype=complex))
            assert _bytes([r.similarity_residual, r.property_defect]) == _bytes(
                [0.0, 0.0]), (i, s)
            if H.any():
                assert is_identity, (i, s)
                identity[s] += 1
            else:
                assert not is_identity, (i, s)
                ties += 1
    assert identity == {"pseudo-hermitian-symmetry": 4, "chiral-symmetry": 4}
    assert ties == 4  # the two zero matrices, each Hermitian and anti-Hermitian


def test_class_check_keeps_the_loop_bytes_and_errors():
    outcomes = set()
    for i, H in enumerate(_pin_corpus(2)):
        for cls in SimilarityClass:
            ref = _loop_class_generators(H, cls, DEFAULT_TOLERANCES.residual_tol)
            try:
                found = check_similarity_implies_symmetry_2x2(H, cls)
            except ClassMismatchError as exc:
                assert str(exc) == ref, (i, cls)
                outcomes.add("rejected")
                continue
            assert list(found) == list(ref), (i, cls)
            for s, (U, residual, defect) in ref.items():
                r = found[s]
                assert _bytes(r.generator) == _bytes(U), (i, cls, s)
                assert _bytes([r.similarity_residual, r.property_defect]) == _bytes(
                    [residual, defect]), (i, cls, s)
            outcomes.add("accepted")
    assert outcomes == {"accepted", "rejected"}


def _two_pass_class_generators(H, cls, tol):
    """The class check as it ran before it took the range and norm of H
    once: as_scaled_matrix, a stacked word_profile that rescales the stack
    again, and solve_generators with a second frob(H).  Returns the stack,
    the mismatches and either the generators or the ClassMismatchError text."""
    H = scaled_stack(np.asarray(H, dtype=complex))
    symmetries = CLASS_SYMMETRIES[cls]
    stack = np.stack([H, *(mapped_target(H, symmetry) for symmetry in symmetries)])
    words = word_list(2)
    scaled = scaled_stack(stack, 2)
    with np.errstate(over="ignore", invalid="ignore"):
        traces = word_traces(stack, words)
    decided = traces if scaled is stack else word_traces(scaled, words)
    norms = frob_many(scaled)
    degrees = np.array([len(w) for w in words])
    bound = tol * np.maximum(norms[0], norms[1:, None]) ** degrees
    mismatches = [np.flatnonzero(row).tolist()
                  for row in np.abs(decided[1:] - decided[0]) > bound]
    for i, bad in enumerate(mismatches, 1):
        if bad:
            j = bad[0]
            return stack, mismatches, (
                f"not {cls.value}: word {words[j]} traces {traces[0, j]:.6g} "
                f"vs {traces[i, j]:.6g} for the {symmetries[i - 1]} target")
    return stack, mismatches, solve_generators(H, symmetries, stack[1:], frob(H))


def test_class_check_keeps_the_two_pass_bytes_and_errors():
    # _pin_corpus(2): PH, CH and SSS members, non-members, members times
    # 1 + eps noise (eps 1e-9 to 1e-7), all at 2^+-600, zero and -0.0
    # entries; here also at 2^+-1000
    corpus = _pin_corpus(2)
    corpus += [ldexp_complex(M, e) for M in corpus[:40] for e in (1000, -1000)]
    outcomes = set()
    for i, H in enumerate(corpus):
        for cls in SimilarityClass:
            for tol in (DEFAULT_TOLERANCES.residual_tol, 1e-6):
                stack, mismatches, ref = _two_pass_class_generators(H, cls, tol)
                # the stack is in range: the comparison runs on it as it is
                assert scaled_stack(stack, 2) is stack, i
                traces, got, norms = _compare_in_range(stack, _PROGRAMS[2], tol)
                assert got == mismatches, (i, cls, tol)
                assert _bytes(norms[:1]) == _bytes([frob(stack[0])]), i
                cfg = ToleranceConfig(tol)
                try:
                    found = check_similarity_implies_symmetry_2x2(H, cls, cfg)
                except ClassMismatchError as exc:
                    assert str(exc) == ref, (i, cls, tol)
                    outcomes.add("rejected")
                    continue
                assert not isinstance(ref, str), (i, cls, tol, ref)
                assert list(found) == list(ref), (i, cls)
                for s, want in ref.items():
                    r = found[s]
                    assert _bytes(r.generator) == _bytes(want.generator), (i, cls, s)
                    assert type(r.similarity_residual) is float
                    assert _bytes([r.similarity_residual, r.property_defect]) == _bytes(
                        [want.similarity_residual, want.property_defect]), (i, cls, s)
                outcomes.add("accepted")
    assert outcomes == {"accepted", "rejected"}


# ---------------------------------------------------------------------------
# word-trace verdicts and generators do not depend on the scale

G = np.array([[1, 2], [3, 4j]])
EXTREME_SCALES = [1e-300, 1e-9, 1e160, 1e300]


@pytest.mark.parametrize("c", EXTREME_SCALES)
def test_unitary_similarity_is_scale_invariant(c):
    # tr X is 1+4i against 1-4i: never unitarily similar, at any scale
    assert not unitary_similarity_test(c * G, np.conj(c * G))
    assert compare_profiles(c * G, np.conj(c * G))[0][0] == Word.parse("X")
    # a 2x2 matrix is unitarily similar to its transpose
    assert unitary_similarity_test(c * G, (c * G).T)
    rng = np.random.default_rng(2)
    for _ in range(5):
        H = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        U, _ = np.linalg.qr(rng.standard_normal((3, 3))
                            + 1j * rng.standard_normal((3, 3)))
        assert unitary_similarity_test(c * H, U @ (c * H) @ U.conj().T)
        assert not unitary_similarity_test(c * H, c * H.T)


def test_a_zero_pair_matches():
    Z = np.zeros((2, 2))
    assert unitary_similarity_test(Z, Z)
    assert not unitary_similarity_test(Z, 1e-300 * G)


@pytest.mark.parametrize("c", [1e-300, 1e160, 1e300])
def test_recover_generator_is_scale_invariant(c):
    # below about 1e-154 or above 1e+154 |H|_F leaves the normal range
    # unless H is rescaled: the residual then reads 0 or NaN
    for seed in range(5):
        H = generate_random(PH, 2, seed, non_normal=True)
        r = recover(c * H, "PT")
        assert 0 < r.similarity_residual <= 1e-8 and r.property_defect <= 1e-8, seed
        # a pseudo-chiral generator generically does not exist: its residual
        # is the same relative number at every scale
        S = generate_random(SS, 2, seed, non_normal=True)
        ref = recover(S, "pseudo-chiral").similarity_residual
        got = recover(c * S, "pseudo-chiral").similarity_residual
        assert ref > 1e-3 and got == pytest.approx(ref, rel=1e-6), seed


@pytest.mark.parametrize("c", [1e-300, 1e160, 1e300])
def test_generator_check_at_extreme_scales(c):
    for cls in (PH, CH):
        H = generate_random(cls, 2, 3, non_normal=True)
        for s, r in check_similarity_implies_symmetry_2x2(c * H, cls).items():
            assert 0 < r.similarity_residual <= 1e-8 and r.property_defect <= 1e-8, s


# ---------------------------------------------------------------------------
# 2x2 membership from the word traces alone: PH iff tr H and tr H^2 are real,
# CH iff tr H is imaginary and tr H^2 real, SSS iff tr H = 0

MEMBERSHIP_SCALES = [1e-300, 1e-9, 1.0, 1e160, 1e300]


def _member(H, cls):
    try:
        check_similarity_implies_symmetry_2x2(H, cls)
    except ClassMismatchError:
        return False
    return True


def _conjugated_jordan_blocks():
    """(H, classes) for S (lam I + N) S^-1 with a seeded complex S."""
    rng = np.random.default_rng(11)
    out = []
    for lam, classes in [(0, (PH, CH, SS)), (1.5, (PH,)), (-0.3, (PH,)),
                         (2j, (CH,)), (-0.7j, (CH,))]:
        for _ in range(5):
            S = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            out.append((S @ (lam * np.eye(2) + N) @ np.linalg.inv(S), classes))
    return out


def _membership_members():
    out = _conjugated_jordan_blocks()
    for H, classes in DEGENERATE_2X2.values():
        traceless = bool(np.trace(H) == 0)  # then self-skew-similar as well
        out.append((np.asarray(H, dtype=complex), classes + (SS,) * traceless))
    return out


def _membership_non_members():
    """(H, classes H is not in): generic matrices, and self-skew-similar
    matrices shifted by eps |S|_F I, so that 2 |tr H| = 4 eps |S|_F."""
    rng = np.random.default_rng(12)
    out = [(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)), (PH, CH, SS))
           for _ in range(10)]
    for seed in range(10):
        S = generate_random(SS, 2, seed, non_normal=bool(seed % 2))
        for eps in (1e-8, 1e-7, 1e-3):
            out.append((S + eps * np.linalg.norm(S) * np.eye(2), (SS,)))
    return out


def test_class_check_accepts_degenerate_members_and_jordan_blocks():
    for H, classes in _membership_members():
        for cls in classes:
            assert _member(H, cls), (H, cls)


def test_class_check_rejects_generic_and_shifted_self_skew_matrices():
    for H, classes in _membership_non_members():
        for cls in classes:
            with pytest.raises(ClassMismatchError, match=f"not {cls.value}: word X "):
                check_similarity_implies_symmetry_2x2(H, cls)


def test_self_skew_check_rejects_noisy_non_members():
    # a member plus relative noise 1e-8 keeps its spectrum within cluster_tol
    # of its negation, but |tr H| exceeds the trace tolerance
    rejected = 0
    for seed in range(20):
        S = generate_random(SS, 2, seed, non_normal=True)
        E = np.random.default_rng(seed).standard_normal((2, 2)) * (1 + 1j)
        H = S + 1e-8 * np.linalg.norm(S) * E / np.linalg.norm(E)
        exact = bool(2 * abs(np.trace(H)) > 1e-8 * np.linalg.norm(H))
        assert _member(H, SS) != exact, seed
        rejected += exact
    assert rejected >= 5


@pytest.mark.parametrize("c", MEMBERSHIP_SCALES)
def test_membership_verdict_is_scale_invariant(c):
    for H, classes in _membership_members():
        for cls in classes:
            assert _member(c * H, cls), (H, cls, c)
    for H, classes in _membership_non_members():
        for cls in classes:
            assert not _member(c * H, cls), (H, cls, c)


def _witness_route(H, cls):
    """The membership test the class check made before it read traces only:
    a Hermitian witness, then word-trace equality with both mapped targets."""
    H = as_scaled_matrix(H)
    try:
        construct_witness(H, cls)
    except ClassMismatchError:
        return False
    return not any(compare_profiles(H, mapped_target(H, s)) for s in CLASS_SYMMETRIES[cls])


@pytest.mark.parametrize("cls", [PH, CH])
def test_trace_membership_keeps_the_witness_route_verdicts(cls):
    # members plus relative noise delta, and generic matrices.  The witness
    # route adds a solve whose rank gate is about tol/10, so the routes may
    # differ only where a trace defect lies between tol/10 and tol; there the
    # traces accept
    words = word_list(2)
    inputs = []
    for seed in range(60):
        H = generate_random(cls, 2, seed, non_normal=bool(seed % 2))
        E = np.random.default_rng(seed).standard_normal((2, 2, 2)) @ [1, 1j]
        inputs += [H + d * np.linalg.norm(H) * E / np.linalg.norm(E)
                   for d in (0, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6)]
        inputs.append(np.random.default_rng(100 + seed).standard_normal((2, 2, 2))
                      @ [1, 1j])
    accepted = differ = 0
    for i, H in enumerate(inputs):
        new, old = _member(H, cls), _witness_route(H, cls)
        accepted += new
        if new != old:
            differ += 1
            assert new, i  # the traces never reject what the witness route accepted
            stack = np.stack([H] + [mapped_target(H, s) for s in CLASS_SYMMETRIES[cls]])
            traces = word_traces(stack, words)
            defect = np.abs(traces[1:] - traces[0]) / np.linalg.norm(H) ** np.array(
                [len(w) for w in words])
            assert defect.max() > 1e-9, i
    assert accepted >= len(inputs) // 3 and differ <= len(inputs) // 100


# ---------------------------------------------------------------------------
# the one word-trace comparison: word_profile


def _reference_mismatches(stack, tol):
    """The rule as the separate comparisons applied it before word_profile:
    traces of the stack times one power of two, one frob per matrix."""
    from nhsim.matrices import scaled_stack

    words = word_list(stack.shape[-1])
    scaled = scaled_stack(stack, max(map(len, words)))
    traces = word_traces(scaled, words)
    norms = np.array([frob(M) for M in scaled])
    bound = tol * np.maximum(norms[0], norms[1:, None]) ** np.array(
        [len(w) for w in words])
    return [np.flatnonzero(row).tolist()
            for row in np.abs(traces[1:] - traces[0]) > bound]


def _profile_corpus():
    """Stacks of (H, its six mapped targets, a unitary conjugate, a generic
    matrix) for n = 2, 3, at scales 1, 2^600 and 2^-600, with a zero stack."""
    rng = np.random.default_rng(17)
    out = [np.zeros((3, 2, 2), dtype=complex)]
    for n in (2, 3):
        for H in _bit_corpus(n, 30, seed=10 + n):
            U = np.linalg.qr(rng.standard_normal((n, n))
                             + 1j * rng.standard_normal((n, n)))[0]
            G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            stack = np.stack([H] + [mapped_target(H, s) for s in SYMMETRY_TARGETS]
                             + [U @ H @ U.conj().T, G])
            out += [c * stack for c in (1.0, 2.0**600, 2.0**-600)]
    return out


def test_word_profile_keeps_the_mismatch_rule_and_the_traces():
    matched = mismatched = 0
    for i, stack in enumerate(_profile_corpus()):
        for tol in (0.0, 1e-8, 1e-3):
            profile = word_profile(stack, tol)
            assert profile.mismatches == _reference_mismatches(stack, tol), (i, tol)
            with np.errstate(over="ignore", invalid="ignore"):
                traces = word_traces(stack, profile.words)
            assert _bytes(profile.traces) == _bytes(traces), i
            matched += sum(not bad for bad in profile.mismatches)
            mismatched += sum(bool(bad) for bad in profile.mismatches)
    assert matched >= 500 and mismatched >= 500, (matched, mismatched)


def test_frob_many_equals_frob():
    rng = np.random.default_rng(23)
    stacks = [np.zeros((4, 3, 3), dtype=complex), np.zeros((1, 1, 1), dtype=complex)]
    for n in range(1, 13):
        for m in (1, 2, 7):
            stack = rng.standard_normal((m, n, n)) + 1j * rng.standard_normal((m, n, n))
            stack[0] *= rng.random() < 0.5  # a zero matrix in some stacks
            stacks += [stack, 2.0**600 * stack, 2.0**-600 * stack,
                       stack * 10.0 ** rng.integers(-6, 7, (m, n, n))]
    with np.errstate(over="ignore"):  # 2^600 matrices have an infinite norm
        for i, stack in enumerate(stacks):
            ref = [frob(M) for M in stack]
            assert frob_many(stack).tolist() == ref, i
            assert _bytes(frob_many(stack)) == _bytes(ref), i


A_TOL = np.array([[1, 2], [0, 3]])
B_TOL = np.array([[5, 0], [1, -1]])


def _similar_at(A, B, tol):
    """The verdict of :func:`word_profile` on ``(A, B)`` at ``tol``."""
    return word_profile(np.stack([A, B]).astype(complex), tol).mismatches == [[]]


@pytest.mark.parametrize("tol", [np.nan, -1.0, -1e-300, np.inf, -np.inf])
def test_word_profile_rejects_a_tolerance_outside_zero_to_inf(tol):
    # NaN accepted every pair, a negative tol rejected A against itself and
    # inf accepted every pair
    for A, B in ((A_TOL, B_TOL), (A_TOL, A_TOL)):
        with pytest.raises(ValueError, match="tol must be finite and >= 0"):
            _similar_at(A, B, tol)


def test_word_profile_accepts_tolerances_from_zero_to_any_finite_value():
    # tr X is 4 for both; tr XX is 10 against 26, tr XXdag 14 against 27
    assert _similar_at(A_TOL, A_TOL, 0.0)
    assert not _similar_at(A_TOL, B_TOL, 0.0)
    assert not _similar_at(A_TOL, B_TOL, 0.5)
    assert _similar_at(A_TOL, B_TOL, 1.0)  # bound 27 > 16
    assert _similar_at(A_TOL, B_TOL, 1e300)
    # the library verdict is the rule at the default tolerance
    assert not unitary_similarity_test(A_TOL, B_TOL)
    assert unitary_similarity_test(A_TOL, A_TOL)


@pytest.mark.parametrize(
    "scale, why",
    [(1.0, None), (2.0**-500, None), (2.0**600, "overflow"), (2.0**-600, "underflow")])
def test_word_profile_says_why_traces_cannot_be_printed(scale, why):
    # tr XX of c sz and i c sz is 2c^2 against -2c^2, which reads 0 below
    # about 2^-537 and inf above 2^511
    profile = word_profile(scale * np.stack([SZ, 1j * SZ]), 1e-8)
    assert profile.mismatches == [[1]]
    assert profile.unprintable() == why
    # a matching pair is printable unless a trace overflows: its differences
    # read 0, as its verdict says
    profile = word_profile(scale * np.stack([SZ, SX]), 1e-8)
    assert profile.mismatches == [[]]
    assert profile.unprintable() == (why if why == "overflow" else None)


def test_the_library_verdict_and_the_class_check_do_not_ask_for_printability(
        monkeypatch):
    def fail(self):
        raise AssertionError("unprintable() called")

    monkeypatch.setattr(WordProfile, "unprintable", fail)
    assert unitary_similarity_test(2.0**600 * SX, 2.0**600 * SZ)
    check_similarity_implies_symmetry_2x2(np.array([[0, 1], [4, 0]]), PH)
    with pytest.raises(ClassMismatchError):
        check_similarity_implies_symmetry_2x2(np.diag([1j, 2j]), PH)


# ---------------------------------------------------------------------------
# n3_counterexample: the one word-trace rule, and the evidence of the
# absolute search it replaced


def _reference_n3(cls, seed):
    """The search as it decided before it took :func:`word_profile`'s rule:
    the first raw trace difference above an absolute 1e-6, in 100 draws."""
    words = word_list(3)
    symmetries = CLASS_SYMMETRIES[cls]
    for attempt in range(100):
        H = generate_random(cls, 3, seed + 7919 * attempt, non_normal=True)
        stack = np.stack([H] + [mapped_target(H, s) for s in symmetries])
        traces = word_traces(stack, words)
        for i, symmetry in enumerate(symmetries, start=1):
            for j, w in enumerate(words):
                ta, tb = complex(traces[0, j]), complex(traces[i, j])
                if abs(ta - tb) > 1e-6:
                    return symmetry, str(w), ta, tb, attempt + 1, H.tobytes()
    return None


def test_n3_counterexample_evidence_is_unchanged_for_valid_arguments():
    for cls in SimilarityClass:
        for seed in range(30):
            ev = n3_counterexample(cls, seed)
            assert _reference_n3(cls, seed) == (
                ev.symmetry, str(ev.word), ev.trace_lhs, ev.trace_rhs,
                ev.attempts, ev.matrix.tobytes()), (cls, seed)


def test_n3_counterexample_is_the_first_cli_evidence_row(capsys, tmp_path):
    for cls in SimilarityClass:
        for seed in range(3):
            ev = n3_counterexample(cls, seed)
            p = tmp_path / f"{cls.value}-{seed}.json"
            p.write_text(json.dumps(matrix_to_json(ev.matrix)))
            assert cli.main(["specht-generators", str(p), "--class", cls.value]) == 0
            first = json.loads(capsys.readouterr().out)["results"][cls.value][0]
            doc = ev.to_json()
            assert json.dumps(first, sort_keys=True) == json.dumps(
                {key: doc[key] for key in first}, sort_keys=True), (cls, seed)


def test_n3_counterexample_raises_when_no_draw_mismatches(monkeypatch):
    # a real symmetric matrix is its own conjugate and adjoint, so neither
    # pseudo-Hermitian target can tell it apart
    draws = []

    def symmetric(cls, n, seed, non_normal):
        draws.append(seed)
        return np.array([[1, 2, 0], [2, -1, 3], [0, 3, 0.5]], dtype=complex)

    monkeypatch.setattr(specht, "generate_random", symmetric)
    with pytest.raises(RuntimeError, match="PseudoHermitian in 100 samples"):
        n3_counterexample(PH, 5)
    assert draws == [5 + 7919 * k for k in range(100)]
