"""Shared fixtures: bundled fields, a seeded random-field factory, and the
Hypothesis profile (derandomized, so every run draws the same examples)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

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
