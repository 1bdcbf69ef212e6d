"""Shared fixtures: bundled fields, a seeded random-field factory, a
strategy for fields with one narrow steep segment, and the Hypothesis
profile (derandomized, so every run draws the same examples)."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from linecover import DensityField, StreamRng, quadratic_density, uniform_density

settings.register_profile("linecover", derandomize=True, deadline=None,
                          max_examples=30, database=None)
settings.load_profile("linecover")


@pytest.fixture(scope="session")
def uniform_field():
    return uniform_density()


@pytest.fixture(scope="session")
def quadratic_field():
    return quadratic_density()


def make_random_field(rng: StreamRng, max_segments: int = 4, degree: int = 4) -> DensityField:
    """The field of :func:`random_field_spec` for the same draws."""
    return DensityField(*random_field_spec(rng, max_segments, degree), name="random")


def random_field_spec(rng: StreamRng, max_segments: int = 4,
                      degree: int = 4) -> tuple[list[float], list[list[float]]]:
    """Breakpoints and coefficient lists of a random piecewise-polynomial
    density with min >= 0.25 on every segment.

    Coefficients above degree zero are drawn in [-2, 2]; the constant term
    is then shifted so the exact per-segment minimum (via derivative roots)
    lands at 0.25, which keeps construction valid and the field well
    conditioned.
    """
    m = rng.randint(1, max_segments)
    bp = [0.0]
    for i in range(1, m):
        bp.append((i + 0.4 + 0.2 * rng.uniform()) / m)
    bp.append(1.0)
    coefs = []
    for j in range(m):
        c = np.array([4.0 * rng.uniform() - 2.0 for _ in range(degree + 1)])
        c[0] = 0.0
        deriv = c[1:] * np.arange(1, c.size)
        candidates = [bp[j], bp[j + 1]]
        if np.any(deriv != 0.0):
            for r in np.polynomial.polynomial.polyroots(deriv):
                if abs(r.imag) < 1e-9 and bp[j] < r.real < bp[j + 1]:
                    candidates.append(float(r.real))
        low = min(sum(ck * x**k for k, ck in enumerate(c)) for x in candidates)
        c[0] = 0.25 - low
        coefs.append(c.tolist())
    return bp, coefs


@pytest.fixture
def random_field_factory():
    return make_random_field


def centred_power(base: float, scale: float, centre: float, degree: int) -> list[float]:
    """base + scale (x - centre)^degree in ascending powers of x, each
    coefficient rounded once from its exact value."""
    a = Fraction(centre)
    exact = [Fraction(math.comb(degree, k)) * Fraction(scale) * (-a) ** (degree - k)
             for k in range(degree + 1)]
    exact[0] += Fraction(base)
    return [float(v) for v in exact]


@st.composite
def narrow_segment_fields(draw):
    """Breakpoints and coefficients of a 3- or 4-segment field with one narrow
    segment [b, b + w], w in [1e-4, 1e-2], b in [0.05, 0.9], where
    rho = r + s (x - a)^d with a inside it, d in {2, 4}, s in [1e2, 1e12];
    the other segments are polynomials with positive coefficients."""
    width = 10.0 ** draw(st.floats(-4.0, -2.0))
    left = draw(st.floats(0.05, 0.9))
    breakpoints = [0.0, left, left + width, 1.0]
    if draw(st.booleans()):
        breakpoints.insert(1, left * draw(st.floats(0.2, 0.8)))
    positive = st.lists(st.floats(0.25, 4.0), min_size=1, max_size=3)
    coefficients = [draw(positive) for _ in breakpoints[1:]]
    centre = left + width * draw(st.floats(0.05, 0.95))
    coefficients[-2] = centred_power(draw(st.floats(0.25, 4.0)),
                                     10.0 ** draw(st.floats(2.0, 12.0)),
                                     centre, draw(st.sampled_from([2, 4])))
    return breakpoints, coefficients
