"""Mass geometry: cdf/inverse, coverage, optimal layout, density files."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linecover import (
    DensityField,
    DomainError,
    ParseError,
    StopRule,
    StreamRng,
    check_positions,
    coverage,
    density,
    density_from_dict,
    load_density,
    initial_positions,
    optimal_configuration,
    resolve_density,
    run_one,
)

from linecover.cli import main

from conftest import centred_power, make_random_field, narrow_segment_fields, random_field_spec


# ----------------------------------------------------------------------
# cumulative mass F and its inverse
# ----------------------------------------------------------------------

def test_mass_quadratic_closed_form(quadratic_field):
    # antiderivative x^3/3: F(0.5) = 0.5^3 / 3
    assert quadratic_field.cdf(0.5) == pytest.approx(1.0 / 24.0, abs=1e-16)


def test_mass_domain_error(uniform_field):
    # just past the 1e-12 slack fails on the scalar and the vector path alike
    for x in (-0.2, 1.5, np.array([0.5, 1.5]), -1e-11, 1.0 + 1e-11,
              np.array([-1e-11]), np.array([1.0 + 1e-11]),
              np.append(np.full(S, 0.5), -1e-11), np.append(np.full(S, 0.5), 1.0 + 1e-11)):
        with pytest.raises(DomainError):
            uniform_field.cdf(x)


def test_inverse_cdf_uniform_is_identity(uniform_field):
    assert uniform_field.inverse_cdf(0.25) == pytest.approx(0.25, abs=1e-15)


def test_inverse_cdf_quadratic_closed_form(quadratic_field):
    # solve c^3/3 = 1/6
    assert quadratic_field.inverse_cdf(1.0 / 6.0) == pytest.approx(2.0 ** (-1.0 / 3.0), abs=1e-13)


def test_inverse_cdf_zero_maps_to_zero(quadratic_field, uniform_field):
    assert quadratic_field.inverse_cdf(0.0) == 0.0
    assert uniform_field.inverse_cdf(0.0) == 0.0


def test_inverse_cdf_total_mass_maps_to_one(quadratic_field):
    assert quadratic_field.inverse_cdf(quadratic_field.total_mass) == 1.0


def test_inverse_cdf_domain_error(uniform_field):
    with pytest.raises(DomainError):
        uniform_field.inverse_cdf(1.5)
    with pytest.raises(DomainError):
        uniform_field.inverse_cdf(-0.1)


NAN = float("nan")
S = density._SCALAR_MAX   # the largest array that takes the scalar path


@pytest.mark.parametrize("call", [
    lambda f: check_positions([0.1, NAN]),
    lambda f: coverage(f, [0.2, NAN]),
    lambda f: f.cdf(NAN),
    lambda f: f.cdf(np.append(np.full(S, 0.5), NAN)),
    lambda f: f.inverse_cdf(NAN),
    lambda f: f.inverse_cdf(np.append(np.full(S, 0.5), NAN)),
    lambda f: DensityField([0.0, NAN, 1.0], [[1.0], [1.0]]),
    lambda f: DensityField([NAN, 0.5, 1.0], [[1.0], [1.0]]),
], ids=["check_positions", "coverage", "cdf", "cdf_vector", "inverse",
        "inverse_vector", "breakpoint", "first_breakpoint"])
def test_nan_fails_every_range_check(uniform_field, call):
    with pytest.raises(DomainError):
        call(uniform_field)


@pytest.mark.parametrize("case", range(4))
def test_round_trip_all_bundled_and_random(case, uniform_field, quadratic_field,
                                           random_field_factory):
    fields = [uniform_field, quadratic_field,
              random_field_factory(StreamRng(9, 0)),
              random_field_factory(StreamRng(9, 1))]
    field = fields[case]
    rng = StreamRng(500, case)
    x = np.sort(np.array(rng.uniforms(1000)))
    back = field.inverse_cdf(field.cdf(x))
    assert np.max(np.abs(back - x)) <= 1e-12


seeds = st.integers(0, 2**32 - 1)
units = st.floats(0.0, 1.0)


# The vector kernels are called directly below: inverse_cdf and cdf would map
# an array this short on the scalar path, and compare that path with itself.

@given(seeds, st.lists(units, min_size=1, max_size=40))
def test_inverse_scalar_and_vector_agree(seed, fractions):
    field = make_random_field(StreamRng(seed))
    masses = field.total_mass * np.array(fractions)
    vector = field._inverse_vector(masses)
    scalar = [field.inverse_cdf(float(m)) for m in masses]
    assert scalar == vector.tolist()


@given(seeds, st.lists(units, max_size=40))
def test_cdf_scalar_and_vector_agree_bitwise(seed, points):
    # the dynamic law carries y = F(x) from the scalar path, and the run's
    # end-of-run check recomputes it with the vector path
    field = make_random_field(StreamRng(seed))
    x = np.array([0.0, 1.0, -5e-13, 1.0 + 5e-13, *field.breakpoints, *points])
    assert [field.cdf(v) for v in x.tolist()] == field._cdf_vector(x).tolist()


SWITCH_SHAPES = [(0,), (1,), (S - 1,), (S,), (S + 1,), (2 * S,), (3, 5), (3, S // 2 + 1)]


@given(seeds, st.sampled_from([-0.1, 1.5, NAN]), units)
def test_array_size_picks_the_path_with_the_same_bits(seed, bad, where):
    # arrays up to S long go element by element through the scalar kernels,
    # longer ones through the vector kernels; either way the result is the
    # element-wise scalar result, bit for bit, as float64 in the input's shape
    field = make_random_field(StreamRng(seed))
    rng = StreamRng(seed, 1)
    for shape in SWITCH_SHAPES:
        x = np.array(rng.uniforms(int(np.prod(shape)))).reshape(shape)
        for call, scalar, scale in ((field.cdf, field._cdf_scalar, 1.0),
                                    (field.inverse_cdf, field._inverse_scalar,
                                     field.total_mass)):
            arg = scale * x
            got = call(arg)
            want = np.array([scalar(v) for v in arg.ravel().tolist()], dtype=float)
            assert type(got) is np.ndarray and got.dtype == np.float64
            assert got.shape == shape
            assert got.tobytes() == want.tobytes()
            if arg.size:
                # one out-of-range or NaN entry fails the whole call
                spoilt = arg.copy()
                spoilt.flat[int(where * (arg.size - 1))] = bad * scale
                with pytest.raises(DomainError):
                    call(spoilt)


@given(seeds, st.lists(units, min_size=1, max_size=40))
def test_inverse_of_cdf_is_identity(seed, points):
    field = make_random_field(StreamRng(seed))
    x = np.array(points)
    y = field.cdf(x)
    assert np.max(np.abs(field._inverse_vector(y) - x)) <= 1e-13
    assert max(abs(field.inverse_cdf(float(m)) - p) for m, p in zip(y, x)) <= 1e-13


@given(seeds)
def test_inverse_returns_breakpoints_exactly(seed):
    field = make_random_field(StreamRng(seed))
    # F(b_j) as the field stores it: 0, the interior breakpoint masses, F(1)
    masses = field._cum
    assert np.array_equal(field.cdf(field.breakpoints), masses)
    assert np.array_equal(field._cdf_vector(field.breakpoints), masses)
    assert [field.cdf(float(b)) for b in field.breakpoints] == masses.tolist()
    assert field.cdf(1.0) == field.total_mass
    assert np.array_equal(field.inverse_cdf(masses), field.breakpoints)
    assert np.array_equal(field._inverse_vector(masses), field.breakpoints)
    assert [field.inverse_cdf(float(m)) for m in masses] == field.breakpoints.tolist()


@given(seeds)
def test_knot_table_is_cdf_and_inverts_exactly(seed):
    field = make_random_field(StreamRng(seed))
    x, f = field._knot_x, field._knot_f
    assert np.array_equal(f, field.cdf(x))
    assert f.tolist() == [field.cdf(v) for v in x.tolist()]
    assert np.array_equal(f[::density._KNOT_CELLS], field._cum)
    assert np.all(np.diff(f) >= 0.0)
    assert np.array_equal(field.inverse_cdf(f), x)
    assert [field.inverse_cdf(m) for m in f.tolist()] == x.tolist()
    # one mass inside every cell, so every cell's segment index is used
    centres = 0.5 * (x[:-1] + x[1:])
    masses = field.cdf(centres)
    back = field.inverse_cdf(masses)
    assert np.max(np.abs(back - centres)) <= 1e-13
    assert [field.inverse_cdf(m) for m in masses.tolist()] == back.tolist()


def count_horner_calls(monkeypatch) -> list[int]:
    """A one-element counter of ``density._poly_eval`` calls; each pass of the
    inverse makes two (F(x) and rho(x))."""
    calls = [0]
    poly_eval = density._poly_eval

    def counting(coeffs, x):
        calls[0] += 1
        return poly_eval(coeffs, x)

    monkeypatch.setattr(density, "_poly_eval", counting)
    return calls


@pytest.mark.parametrize("n", [12, 80, 320, 1000])
def test_vector_inverse_starts_near_the_root(quadratic_field, monkeypatch, n):
    # starting from the whole segment took 8, 9, 10 and 11 passes, and from the
    # linear start with a confirming pass 3, 3, 4 and 4; the kernel is called
    # directly, because inverse_cdf maps n <= S masses one by one
    targets = quadratic_field.total_mass * (2.0 * np.arange(1, n + 1) - 1.0) / (2.0 * n)
    calls = count_horner_calls(monkeypatch)
    quadratic_field._inverse_vector(targets)
    assert calls[0] <= 2 * {12: 1, 80: 2, 320: 2, 1000: 2}[n]


def test_scalar_inverse_starts_near_the_root(quadratic_field, monkeypatch):
    # 2.012 Horner calls per mass on the quadratic preset and 2.002 on 40
    # random fields; with a confirming pass 5.64 and 5.38, and starting from
    # the whole segment 5.9 passes on average
    calls = count_horner_calls(monkeypatch)
    for m in StreamRng(31).uniforms(1000):
        quadratic_field.inverse_cdf(quadratic_field.total_mass * m)
    assert calls[0] <= 2.02 * 1000
    fields = [make_random_field(StreamRng(seed)) for seed in range(40)]
    calls[0] = 0
    for seed, field in enumerate(fields):
        for m in StreamRng(seed, 7).uniforms(500):
            field.inverse_cdf(field.total_mass * m)
    assert calls[0] <= 2.01 * 40 * 500


def test_bounds_hold_at_random_points(random_field_factory):
    # rho_max bounds the static law's stop check, so it must hold everywhere
    field = random_field_factory(StreamRng(21))
    rng = StreamRng(22)
    x = np.array(rng.uniforms(500))
    j = np.searchsorted(field.breakpoints[:-1], x, side="right") - 1
    # each segment's rows are stored in its own coordinate t = x - b_j
    t = x - field.breakpoints[j]
    vals = np.polynomial.polynomial.polyval(t, field._rho_rows[j].T, tensor=False)
    assert np.all(vals >= field.rho_min - 1e-12)
    assert np.all(vals <= field.rho_max + 1e-12)
    assert field.rho_min > 0.0
    # and so must the largest density of each knot cell
    cell = np.searchsorted(field._knot_x[:-1], x, side="right") - 1
    assert np.all(vals <= field._cell_max[cell] * (1.0 + 1e-15))


def test_cdf_endpoints_and_monotonicity(random_field_factory):
    field = random_field_factory(StreamRng(77))
    assert field.cdf(0.0) == 0.0
    assert field.cdf(1.0) == pytest.approx(field.total_mass, rel=1e-15)
    x = np.linspace(0.0, 1.0, 257)
    y = field.cdf(x)
    assert np.all(np.diff(y) > 0.0)


# ----------------------------------------------------------------------
# narrow segments away from 0, where F in the global variable x cancels
# ----------------------------------------------------------------------

def exact_cdf(breakpoints, coefficients, x) -> Fraction:
    """F(x) of the field with these float breakpoints and coefficients, exactly."""
    x, total = Fraction(x), Fraction(0)
    for lo, hi, c in zip(breakpoints, breakpoints[1:], coefficients):
        lo, hi = Fraction(lo), min(Fraction(hi), x)
        if hi <= lo:
            break
        total += sum(Fraction(a) * (hi ** (k + 1) - lo ** (k + 1)) / (k + 1)
                     for k, a in enumerate(c))
    return total


def narrow_spec(scale: float) -> tuple[list[float], list[list[float]]]:
    """rho = 1 on [0, 0.99) and 1 + scale (x - 0.995)^4, expanded in x, on [0.99, 1]."""
    return [0.0, 0.99, 1.0], [[1.0], centred_power(1.0, scale, 0.995, 4)]


@pytest.mark.parametrize("scale, bound", [(1e6, 1e-15), (1e9, 1e-15), (1e12, 2e-14)])
def test_narrow_segment_cdf_is_exact_to_roundoff_and_increasing(scale, bound):
    # evaluated as F(b_j) + (A(x) - A(b_j)) in the global x, F was off by
    # 4e-10, 3e-7 and 2e-4 here, and decreased on 0, 67,536 and 89,968 of
    # the grid's 200,000 steps; in t = x - b_j the largest errors on the whole
    # grid are 1.1e-16, 1.2e-16 and 9.6e-15 (F(1) = 2.25 and rho_max = 626 at
    # 1e12, where the terms of A_j reach 50 and cancel), with no decrease
    breakpoints, coefficients = narrow_spec(scale)
    field = DensityField(breakpoints, coefficients)
    x = np.linspace(0.99, 1.0, 200_001)
    y = field.cdf(x)
    assert np.all(np.diff(y) >= 0.0)
    assert max(abs(Fraction(v) - exact_cdf(breakpoints, coefficients, p))
               for v, p in zip(y[::100].tolist(), x[::100].tolist())) <= bound


@pytest.mark.parametrize("scale", [1e6, 1e9, 1e12])
def test_narrow_segment_inverse_stays_inside_the_static_slack(scale):
    # the static stop bound allows 2^-40 rho_max of mass per inverse; in the
    # global x the inverse missed it by 377, 1.7e5 and 5.0e5 times here, in
    # t = x - b_j by at most 5.5e-4 times
    breakpoints, coefficients = narrow_spec(scale)
    field = DensityField(breakpoints, coefficients)
    masses = np.linspace(field.cdf(0.99), field.total_mass, 402)[1:-1]
    x = field.inverse_cdf(masses)
    assert [field.inverse_cdf(m) for m in masses.tolist()] == x.tolist()
    assert max(abs(exact_cdf(breakpoints, coefficients, p) - Fraction(m))
               for p, m in zip(x.tolist(), masses.tolist())) <= 2.0 ** -40 * field.rho_max


# The largest ratio over 500 derandomized draws of the property below was 2.94,
# on the quadratic preset, where K s^2 of the start sweeps through the stop's
# threshold near the zero of rho; with the certified stop weakened to K/16 it
# reached 7.8, and with K dropped (K = 1) 53.
ROOT_ULPS = 4


@settings(max_examples=60)
@given(spec=st.one_of(seeds.map(lambda seed: random_field_spec(StreamRng(seed))),
                      narrow_segment_fields(),
                      st.just(([0.0, 1.0], [[0.0, 0.0, 1.0]]))),
       points=st.lists(units, min_size=S + 1, max_size=200))
def test_inverse_lies_within_a_few_ulps_of_the_root(spec, points):
    # |F(x) - m| / min rho over x's knot cell bounds |x - root| exactly. Its
    # unit is ulp(x) + ulp(m) / min rho: the root itself moves by ulp(m) / rho
    # as m moves by one ulp, up to 1.9e4 ulps of x on narrow fields.
    breakpoints, coefficients = spec
    field = DensityField(breakpoints, coefficients)
    masses = field.cdf(np.array(points))
    x = field._inverse_vector(masses)
    assert [field.inverse_cdf(m) for m in masses.tolist()] == x.tolist()
    cells = np.searchsorted(field._knot_f[:-1], masses, side="right") - 1
    for k, m, p in zip(cells.tolist(), masses.tolist(), x.tolist()):
        j = k // density._KNOT_CELLS
        t = field._knot_x[k:k + 2] - field.breakpoints[j]
        mu = float(density._poly_extrema(field._rho_rows[j], *t)[0])
        if mu > 0.0:
            bound = abs(exact_cdf(breakpoints, coefficients, p) - Fraction(m)) / Fraction(mu)
            assert bound <= ROOT_ULPS * (Fraction(math.ulp(p)) + Fraction(math.ulp(m)) / Fraction(mu))


# the largest error over 500 derandomized and 1,500 random draws of the
# property below was 5.3 ulps of F(1); in the global x, 100 draws reached 6.6e10
CDF_ULPS = 8


@settings(max_examples=60)
@given(spec=narrow_segment_fields(), points=st.lists(units, min_size=1, max_size=8))
def test_cdf_is_exact_to_a_few_ulps_of_the_total_mass(spec, points):
    breakpoints, coefficients = spec
    field = DensityField(breakpoints, coefficients)
    x = np.array([*breakpoints, *np.linspace(breakpoints[-3], breakpoints[-2], 21), *points])
    ulps = max(abs(Fraction(v) - exact_cdf(breakpoints, coefficients, p))
               for v, p in zip(field.cdf(x).tolist(), x.tolist())) / math.ulp(field.total_mass)
    assert ulps <= CDF_ULPS


# ----------------------------------------------------------------------
# coverage and the optimal configuration
# ----------------------------------------------------------------------

def test_coverage_single_agent(uniform_field):
    assert coverage(uniform_field, [0.5]) == pytest.approx(0.5, abs=1e-15)


def test_coverage_balanced_five(uniform_field):
    got = coverage(uniform_field, [0.1, 0.3, 0.5, 0.7, 0.9])
    assert got == pytest.approx(0.1, abs=1e-15)


def test_coverage_two_agents_by_hand(uniform_field):
    # max(0.2, 0.2, 0.4)
    assert coverage(uniform_field, [0.2, 0.6]) == pytest.approx(0.4, abs=1e-15)


def test_coverage_matches_brute_force_grid(random_field_factory):
    field = random_field_factory(StreamRng(55))
    rng = StreamRng(56)
    x = np.sort(np.array(rng.uniforms(6)))
    ys = field.cdf(np.linspace(0.0, 1.0, 20001))
    ya = field.cdf(x)
    brute = float(np.max(np.min(np.abs(ys[:, None] - ya[None, :]), axis=1)))
    assert coverage(field, x) == pytest.approx(brute, abs=2e-4 * field.total_mass)


def test_coverage_empty_configuration(uniform_field):
    with pytest.raises(DomainError):
        coverage(uniform_field, [])


def test_optimal_configuration_uniform(uniform_field):
    positions, phi = optimal_configuration(uniform_field, 5)
    assert np.allclose(positions, [0.1, 0.3, 0.5, 0.7, 0.9], atol=1e-13)
    assert phi == pytest.approx(0.1, abs=1e-15)
    single, phi1 = optimal_configuration(uniform_field, 1)
    assert single[0] == pytest.approx(0.5, abs=1e-15)
    assert phi1 == 0.5


def test_optimal_configuration_quadratic(quadratic_field):
    positions, phi = optimal_configuration(quadratic_field, 2)
    assert positions[0] == pytest.approx(0.25 ** (1.0 / 3.0), abs=1e-13)
    assert positions[1] == pytest.approx(0.75 ** (1.0 / 3.0), abs=1e-13)
    assert phi == pytest.approx(1.0 / 12.0, abs=1e-15)


def test_optimal_configuration_balances_gaps(random_field_factory):
    field = random_field_factory(StreamRng(60))
    f1 = field.total_mass
    for n in (1, 2, 7, 23):
        positions, phi = optimal_configuration(field, n)
        y = field.cdf(positions)
        quantities = np.concatenate([[2.0 * y[0]], np.diff(y), [2.0 * (f1 - y[-1])]])
        assert np.max(np.abs(quantities - f1 / n)) <= 1e-10 * f1
        assert coverage(field, positions) == pytest.approx(phi, abs=1e-10 * f1)


def test_optimal_configuration_rejects_zero_agents(uniform_field):
    with pytest.raises(DomainError):
        optimal_configuration(uniform_field, 0)


def test_scale_equivariance_of_optimum():
    breakpoints, coefficients = random_field_spec(StreamRng(70))
    field = DensityField(breakpoints, coefficients)
    lam = 3.7
    scaled = DensityField(breakpoints, [[lam * c for c in row] for row in coefficients])
    for n in (1, 4, 9):
        x1, phi1 = optimal_configuration(field, n)
        x2, phi2 = optimal_configuration(scaled, n)
        assert np.max(np.abs(x1 - x2)) <= 1e-12
        assert phi2 == pytest.approx(lam * phi1, rel=1e-12)


# ----------------------------------------------------------------------
# construction and file format
# ----------------------------------------------------------------------

def test_construction_rejects_negative_density():
    with pytest.raises(DomainError):
        DensityField([0.0, 1.0], [[-0.5, 1.0]])


def test_construction_rejects_zero_segment():
    with pytest.raises(DomainError):
        DensityField([0.0, 0.5, 1.0], [[0.0], [1.0]])


def test_construction_rejects_bad_breakpoints():
    with pytest.raises(DomainError):
        DensityField([0.0, 0.5], [[1.0]])
    with pytest.raises(DomainError):
        DensityField([0.0, 0.6, 0.4, 1.0], [[1.0], [1.0], [1.0]])


def test_construction_allows_isolated_zero():
    # the quadratic preset touches zero at the origin only
    field = DensityField([0.0, 1.0], [[0.0, 0.0, 1.0]])
    assert field.rho_min == 0.0
    assert field.rho_max == 1.0


def test_density_json_round_trip(tmp_path):
    breakpoints, coefficients = random_field_spec(StreamRng(81))
    field = DensityField(breakpoints, coefficients)
    path = tmp_path / "field.json"
    path.write_text(json.dumps({"breakpoints": breakpoints, "coefficients": coefficients}))
    loaded = load_density(path)
    x = np.linspace(0.0, 1.0, 101)
    assert np.allclose(loaded.cdf(x), field.cdf(x), atol=1e-15)


def test_density_file_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError):
        load_density(bad)
    with pytest.raises(ParseError):
        density_from_dict({"breakpoints": [0, 1]})
    with pytest.raises(ParseError):
        resolve_density("no-such-preset")


def test_presets_resolve():
    assert resolve_density("uniform").name == "uniform"
    assert resolve_density("quadratic").name == "quadratic"


def test_random_field_factory_is_deterministic():
    # make_random_field builds its field from this spec
    assert random_field_spec(StreamRng(99)) == random_field_spec(StreamRng(99))


@settings(max_examples=60)
@given(kind=st.sampled_from(["uniform", "quadratic", "random"]), seed=st.integers(0, 2**32 - 1),
       k=st.one_of(st.integers(-1100, 1100), st.integers(-993, -987), st.integers(1007, 1012)),
       n=st.integers(3, 12))
def test_scaled_fields_are_refused_or_run_the_same_positions(kind, seed, k, n):
    # scaling the coefficients by 2^k is exact, so a field it leaves in range
    # gives the same positions, and masses scaled by exactly 2^k; below a
    # largest coefficient of about 2^-996 some inverse_cdf products turn
    # subnormal and positions move by a few ulps, so those fields are refused
    breakpoints, coefficients = {
        "uniform": ([0.0, 1.0], [[1.0]]), "quadratic": ([0.0, 1.0], [[0.0, 0.0, 1.0]]),
    }.get(kind) or random_field_spec(StreamRng(seed))
    with np.errstate(over="ignore"):
        scaled = [np.ldexp(c, k).tolist() for c in coefficients]
    if not all(2.0 ** -990 <= max(map(abs, c)) <= 2.0 ** 1010 for c in scaled):
        with pytest.raises(DomainError, match="largest coefficient magnitude"):
            DensityField(breakpoints, scaled)
        return
    field, big = DensityField(breakpoints, coefficients), DensityField(breakpoints, scaled)
    assert big.total_mass == np.ldexp(field.total_mass, k)
    x0 = initial_positions("random", n, StreamRng(seed, n, 0), law="dynamic")
    pairs = [(optimal_configuration(field, n)[0], optimal_configuration(big, n)[0])]
    for law in ("static", "dynamic"):
        runs = [run_one(law, f, x0, StopRule(tol=None, max_rounds=20)) for f in (field, big)]
        pairs += [(a.positions, b.positions) for a, b in zip(*(run.rows for run in runs))]
        assert [np.ldexp(row.phi, k) for row in runs[0].rows] == [
            row.phi for row in runs[1].rows]
    assert all(a.tobytes() == b.tobytes() for a, b in pairs)


def test_density_files_out_of_scale_are_parse_errors(tmp_path, capsys):
    # 1e308 overflows F and rho; 1e-320 is subnormal and moved the optimum by
    # 4e-4; 2^-1000 moved positions by up to 5.6e-16 on random fields
    for coefficient in (1e308, 1e-320, 9.332636185032189e-302):
        path = tmp_path / "density.json"
        path.write_text(json.dumps({"breakpoints": [0.0, 1.0],
                                    "coefficients": [[coefficient, coefficient]]}))
        assert main(["optimal", "--n", "5", "--density", str(path)]) == 3
        out, err = capsys.readouterr()
        assert out == "" and json.loads(err)["error"] == "parse"


@pytest.mark.parametrize("k", [900, 950, 1000, 1010])
def test_huge_fields_place_many_agents_as_the_uniform_preset(uniform_field, k):
    # F(1) (2j - 1) overflowed before the division by 2n (F(1) = 2^1010,
    # n = 10^4); scaled by 2^-64 first, the masses keep every bit
    big = DensityField([0.0, 1.0], [[2.0 ** k]])
    for n in (1000, 10_000):
        want = density.optimal_masses(uniform_field, n)
        assert density.optimal_masses(big, n).tolist() == np.ldexp(want, k).tolist()
        assert (optimal_configuration(big, n)[0].tobytes()
                == optimal_configuration(uniform_field, n)[0].tobytes())
    x0 = initial_positions("random", 10_000, StreamRng(k), law="dynamic")
    runs = [run_one("dynamic", f, x0, StopRule(tol=None, max_rounds=50), record="summary")
            for f in (uniform_field, big)]
    assert runs[0].rows[-1].positions.tobytes() == runs[1].rows[-1].positions.tobytes()


def test_inverse_mass_residual_stays_at_ulps_where_rho_vanishes():
    # rho = (x - 1/2)^2: F is flat at 1/2, so roots near it are ill-posed,
    # but F(F^-1(m)) must stay within 4 ulps of rho_max of m (exact F)
    field = DensityField([0.0, 1.0], [[0.25, -1.0, 1.0]])

    def exact_cdf(x):
        x = Fraction(x)
        return x**3 / 3 - x**2 / 2 + x / 4

    half = float(exact_cdf(0.5))
    masses = [half + d for d in np.linspace(-1e-12, 1e-12, 41)]
    masses += np.linspace(0.0, field.total_mass, 201).tolist()
    worst = max(abs(exact_cdf(field.inverse_cdf(m)) - Fraction(m)) for m in masses)
    assert worst <= 4 * 2.0 ** -52 * field.rho_max
