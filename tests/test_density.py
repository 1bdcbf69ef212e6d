"""Mass geometry: cdf/inverse, coverage, optimal layout, density files."""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from linecover import (
    DensityField,
    DomainError,
    ParseError,
    StreamRng,
    check_positions,
    coverage,
    density_from_dict,
    load_density,
    optimal_configuration,
    resolve_density,
)

from conftest import make_random_field, random_field_spec


# ----------------------------------------------------------------------
# cumulative mass F and its inverse
# ----------------------------------------------------------------------

def test_mass_quadratic_closed_form(quadratic_field):
    # antiderivative x^3/3: F(0.5) = 0.5^3 / 3
    assert quadratic_field.cdf(0.5) == pytest.approx(1.0 / 24.0, abs=1e-16)


def test_mass_domain_error(uniform_field):
    for x in (-0.2, 1.5, np.array([0.5, 1.5])):
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


@pytest.mark.parametrize("call", [
    lambda f: check_positions([0.1, NAN]),
    lambda f: coverage(f, [0.2, NAN]),
    lambda f: f.rho(NAN),
    lambda f: f.cdf(NAN),
    lambda f: f.cdf(np.array([0.5, NAN])),
    lambda f: f.inverse_cdf(NAN),
    lambda f: f.inverse_cdf(np.array([0.5, NAN])),
    lambda f: DensityField([0.0, NAN, 1.0], [[1.0], [1.0]]),
    lambda f: DensityField([NAN, 0.5, 1.0], [[1.0], [1.0]]),
], ids=["check_positions", "coverage", "rho", "cdf", "cdf_vector", "inverse",
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


@given(seeds, st.lists(units, min_size=1, max_size=40))
def test_inverse_scalar_and_vector_agree(seed, fractions):
    field = make_random_field(StreamRng(seed))
    masses = field.total_mass * np.array(fractions)
    vector = field.inverse_cdf(masses)
    scalar = np.array([field.inverse_cdf(float(m)) for m in masses])
    assert np.all(np.abs(vector - scalar) <= 4.0 * np.spacing(vector))


@given(seeds, st.lists(units, max_size=40))
def test_cdf_scalar_and_vector_agree_bitwise(seed, points):
    # the dynamic law carries y = F(x) from the scalar path, and the run's
    # end-of-run check recomputes it with the vector path
    field = make_random_field(StreamRng(seed))
    x = np.array([0.0, 1.0, *field.breakpoints, *points])
    assert [field._cdf_scalar(v) for v in x.tolist()] == field.cdf(x).tolist()


@given(seeds, st.lists(units, min_size=1, max_size=40))
def test_inverse_of_cdf_is_identity(seed, points):
    field = make_random_field(StreamRng(seed))
    x = np.array(points)
    y = field.cdf(x)
    assert np.max(np.abs(field.inverse_cdf(y) - x)) <= 1e-13
    assert max(abs(field.inverse_cdf(float(m)) - p) for m, p in zip(y, x)) <= 1e-13


@given(seeds)
def test_inverse_returns_breakpoints_exactly(seed):
    field = make_random_field(StreamRng(seed))
    # F(b_j) as the field stores it: 0, the interior breakpoint masses, F(1)
    masses = field._cum
    assert np.array_equal(field.cdf(field.breakpoints), masses)
    assert [field._cdf_scalar(float(b)) for b in field.breakpoints] == masses.tolist()
    assert field.cdf(1.0) == field.total_mass
    assert np.array_equal(field.inverse_cdf(masses), field.breakpoints)
    assert [field.inverse_cdf(float(m)) for m in masses] == field.breakpoints.tolist()


def test_bounds_hold_at_random_points(random_field_factory):
    field = random_field_factory(StreamRng(21))
    rng = StreamRng(22)
    x = np.array(rng.uniforms(500))
    vals = field.rho(x)
    assert np.all(vals >= field.rho_min - 1e-12)
    assert np.all(vals <= field.rho_max + 1e-12)
    assert field.rho_min > 0.0


def test_cdf_endpoints_and_monotonicity(random_field_factory):
    field = random_field_factory(StreamRng(77))
    assert field.cdf(0.0) == 0.0
    assert field.cdf(1.0) == pytest.approx(field.total_mass, rel=1e-15)
    x = np.linspace(0.0, 1.0, 257)
    y = field.cdf(x)
    assert np.all(np.diff(y) > 0.0)


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
