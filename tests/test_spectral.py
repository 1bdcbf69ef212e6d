"""Gap-update matrices: structure, real spectra, rate bound, limit projection."""

import numpy as np
import pytest

from linecover import (
    DomainError,
    NumericError,
    StopRule,
    StreamRng,
    build_system,
    gap_vector,
    predict_limit,
    run_static,
    spectrum,
)
from linecover.spectral import TridiagonalSystem


def test_build_k3_matrices():
    sys = build_system(3)
    assert np.array_equal(sys.U, [[-4, 4, 0], [2, -4, 2], [0, 4, -4]])
    expected_P = np.array([[1, 2, 0], [1, 1, 1], [0, 2, 1]]) / 3.0
    assert np.allclose(sys.P, expected_P, atol=1e-15)


def test_build_k4_and_k6_rows():
    expected = {
        4: [[-4, 4, 0, 0],
            [2, -5, 3, 0],
            [0, 3, -5, 2],
            [0, 0, 4, -4]],
        5: [[-4, 4, 0, 0, 0],
            [2, -5, 3, 0, 0],
            [0, 3, -6, 3, 0],
            [0, 0, 3, -5, 2],
            [0, 0, 0, 4, -4]],
        6: [[-4, 4, 0, 0, 0, 0],
            [2, -5, 3, 0, 0, 0],
            [0, 3, -6, 3, 0, 0],
            [0, 0, 3, -6, 3, 0],
            [0, 0, 0, 3, -5, 2],
            [0, 0, 0, 0, 4, -4]],
    }
    for k, U in expected.items():
        assert np.array_equal(build_system(k).U, U)


def test_build_rejects_small_k():
    with pytest.raises(DomainError):
        build_system(2)


def test_rows_stochastic_and_entries_nonnegative():
    for k in (3, 4, 5, 11, 40):
        sys = build_system(k)
        assert np.allclose(sys.P.sum(axis=1), 1.0, atol=1e-15)
        assert np.all(sys.P >= 0.0)


def test_weighted_self_adjointness():
    # diag(w) P symmetric, with w = (3, 6, ..., 6, 3)
    for k in (3, 4, 5, 9, 30):
        sys = build_system(k)
        DP = sys.w[:, None] * sys.P
        assert np.max(np.abs(DP - DP.T)) == 0.0


def test_entries_match_line_graph_weights():
    # P_ij = w_ij / w_i: unit self-loops at nodes 1, 2, k-1, k (stacking for
    # k = 3), weight-2 end edges, weight-3 interior edges
    for k in (3, 4, 5, 8):
        W = np.zeros((k, k))
        for node in (0, 1, k - 2, k - 1):
            W[node, node] += 1.0
        W[0, 1] = W[1, 0] = 2.0
        W[k - 2, k - 1] = W[k - 1, k - 2] = 2.0
        for i in range(1, k - 2):
            W[i, i + 1] = W[i + 1, i] = 3.0
        P_from_weights = W / W.sum(axis=1, keepdims=True)
        assert np.allclose(build_system(k).P, P_from_weights, atol=1e-15)


def test_spectrum_k3_closed_form():
    eigs = spectrum(build_system(3))
    assert eigs == pytest.approx([-1.0 / 3.0, 1.0 / 3.0, 1.0], abs=1e-12)


def test_spectrum_top_eigenvalue_is_one():
    for k in (3, 7, 21, 64):
        eigs = spectrum(build_system(k))
        assert eigs[-1] == pytest.approx(1.0, abs=1e-12)
        # all-ones is the matching eigenvector
        assert np.allclose(build_system(k).P @ np.ones(k), np.ones(k), atol=1e-15)


def test_spectrum_matches_dense_eigensolver_oracle():
    # the oracle solves the unsymmetrized P with the general eigensolver, so
    # it checks the symmetrization as well as the symmetric solve
    for k in (3, 4, 5, 6, 10, 25, 60):
        sys = build_system(k)
        raw = np.linalg.eigvals(sys.P)
        assert np.max(np.abs(raw.imag)) <= 1e-12
        reference = np.sort(raw.real)
        assert np.max(np.abs(spectrum(sys) - reference)) <= 1e-11


def test_subdominant_bound_small_range():
    for k in range(3, 41):
        eigs = spectrum(build_system(k))
        assert max(abs(eigs[-2]), abs(eigs[0])) <= 1.0 - 1.0 / (3.0 * k * k)


def test_spectrum_k10_bound():
    eigs = spectrum(build_system(10))
    assert max(abs(eigs[-2]), abs(eigs[0])) <= 1.0 - 1.0 / 300.0


def test_spectrum_rejects_broken_symmetrization():
    sys = build_system(4)
    broken = TridiagonalSystem(k=4, U=sys.U, P=sys.P, w=np.array([3.0, 6.0, 5.0, 3.0]))
    with pytest.raises(NumericError):
        spectrum(broken)


def test_predict_limit_by_hand():
    sys = build_system(3)
    got = predict_limit(sys, [0.4, 0.4, 0.8])
    assert got == pytest.approx(0.5, abs=1e-15)
    assert predict_limit(sys, [0.7, 0.7, 0.7]) == pytest.approx(0.7, abs=1e-15)


def test_predict_limit_at_optimum(uniform_field):
    from linecover import optimal_configuration

    x, _ = optimal_configuration(uniform_field, 5)
    d = gap_vector(uniform_field, x)
    assert predict_limit(build_system(6), d) == pytest.approx(0.2, abs=1e-14)


def test_predict_limit_dimension_mismatch():
    with pytest.raises(DomainError):
        predict_limit(build_system(3), [0.1, 0.2, 0.3, 0.4])


def test_weighted_sum_conserved_along_run(random_field_factory):
    field = random_field_factory(StreamRng(201))
    rng = StreamRng(202)
    n = 7
    x = np.sort(np.array(rng.uniforms(n)))
    sys = build_system(n + 1)
    d = gap_vector(field, x)
    initial = float(sys.w @ d)
    from linecover import static_step

    for _ in range(80):
        x = static_step(field, x)
        current = float(sys.w @ gap_vector(field, x))
        assert abs(current - initial) <= 1e-12 * abs(initial)
    # the conserved quantity pins the limit: sum w_i d_i = 6 F(1)
    assert initial == pytest.approx(6.0 * field.total_mass, rel=1e-12)


def test_contraction_rate_bounds_weighted_norm(random_field_factory):
    field = random_field_factory(StreamRng(210))
    rng = StreamRng(211)
    n = 6
    x = np.sort(np.array(rng.uniforms(n)))
    sys = build_system(n + 1)
    eigs = spectrum(sys)
    rate = max(abs(eigs[-2]), abs(eigs[0]))
    d0 = gap_vector(field, x)
    c1 = predict_limit(sys, d0)

    def wnorm(v):
        return float(np.sqrt(np.sum(sys.w * v * v)))

    base = wnorm(d0 - c1)
    from linecover import static_step

    for t in range(1, 120):
        x = static_step(field, x)
        dev = wnorm(gap_vector(field, x) - c1)
        assert dev <= rate**t * base + 1e-9


def test_predict_limit_matches_converged_gap(random_field_factory):
    field = random_field_factory(StreamRng(220))
    rng = StreamRng(221)
    n = 5
    x = np.sort(np.array(rng.uniforms(n)))
    limit = predict_limit(build_system(n + 1), gap_vector(field, x))
    trace = run_static(field, x, StopRule(tol=1e-16, max_rounds=30000))
    final_gaps = gap_vector(field, trace.final_positions)
    assert np.max(np.abs(final_gaps - limit)) <= 1e-8
