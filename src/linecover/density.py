"""Piecewise-polynomial density fields on [0, 1] and their mass geometry.

A field is a positive, piecewise-polynomial density ``rho`` given by
breakpoints ``0 = b_0 < ... < b_m = 1`` and, per segment, ascending-power
polynomial coefficients of degree at most 4. The cumulative mass

    F(x) = integral of rho from 0 to x

is evaluated from the closed-form antiderivative, so F, its inverse, the
mass gaps between agents and coverage all carry roundoff error only, never
quadrature error. Relative to ordinary distance, mass coordinates y = F(x)
stretch regions where rho is large and shrink regions where it is small.

Densities may touch zero at isolated points (the ``quadratic`` preset does,
at the origin), but every segment must carry strictly positive mass so that
F is strictly increasing and invertible.
"""

from __future__ import annotations

import bisect
import json
import math
from pathlib import Path

import numpy as np

from .errors import DomainError, NumericError, ParseError

MAX_DEGREE = 4

_X_SLACK = 1e-12          # tolerated overshoot outside [0, 1] before clipping
_NEG_TOL = 1e-12          # tolerated negative polynomial minimum (roundoff)
_NEWTON_ULPS = 4.5e-16    # relative Newton step at which the inverse stops


def _inside(values, hi: float = 1.0,
            message: str = "points must lie in [0, 1]") -> np.ndarray:
    """``values`` clipped to [0, hi]; DomainError unless all lie in it up to slack."""
    v = np.asarray(values, dtype=float)
    slack = _X_SLACK * max(1.0, hi)
    if not ((v >= -slack) & (v <= hi + slack)).all():
        raise DomainError(message)
    return np.clip(v, 0.0, hi)


def _poly_eval(coeffs, x):
    """Horner evaluation of ascending-power coefficients at scalar x."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _poly_eval_rows(rows: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Horner evaluation of ascending-power coefficient rows[i] at x[i]."""
    acc = np.zeros_like(x) + rows[:, -1]
    for k in range(rows.shape[1] - 2, -1, -1):
        acc = acc * x + rows[:, k]
    return acc


def _poly_extrema(coeffs: np.ndarray, lo: float, hi: float) -> tuple[float, float]:
    """Exact min/max of the polynomial on [lo, hi] via derivative roots."""
    candidates = [lo, hi]
    deriv = coeffs[1:] * np.arange(1, len(coeffs))
    if np.any(deriv != 0.0):
        roots = np.polynomial.polynomial.polyroots(deriv)
        for r in roots:
            if abs(r.imag) < 1e-9 and lo < r.real < hi:
                candidates.append(float(r.real))
    values = [_poly_eval(coeffs, c) for c in candidates]
    return min(values), max(values)


class DensityField:
    """Immutable piecewise-polynomial density on [0, 1].

    Construction validates the geometry (breakpoints span [0, 1] and
    increase strictly), nonnegativity of every segment polynomial (exact,
    via derivative-root minimization), and positivity of every segment
    mass. ``rho_min``/``rho_max`` cache the global density bounds.
    """

    def __init__(self, breakpoints, coefficients, name: str = "custom"):
        bp = np.asarray(breakpoints, dtype=float)
        if bp.ndim != 1 or bp.size < 2:
            raise DomainError("breakpoints must be a 1-D list with at least 2 entries")
        if not (abs(bp[0]) <= _X_SLACK and abs(bp[-1] - 1.0) <= _X_SLACK):
            raise DomainError("breakpoints must start at 0 and end at 1")
        bp[0], bp[-1] = 0.0, 1.0
        if not np.all(np.diff(bp) > 0.0):
            raise DomainError("breakpoints must be strictly increasing")
        if len(coefficients) != bp.size - 1:
            raise DomainError(
                f"expected {bp.size - 1} coefficient lists, got {len(coefficients)}"
            )

        segs = []
        for j, c in enumerate(coefficients):
            c = np.asarray(c, dtype=float)
            if c.ndim != 1 or c.size == 0 or c.size > MAX_DEGREE + 1:
                raise DomainError(
                    f"segment {j}: need 1..{MAX_DEGREE + 1} ascending-power coefficients"
                )
            if not np.all(np.isfinite(c)):
                raise DomainError(f"segment {j}: coefficients must be finite")
            if np.all(c == 0.0):
                raise DomainError(f"segment {j}: density is identically zero")
            segs.append(c)

        self.name = name
        self.breakpoints = bp
        m = bp.size - 1

        # Padded coefficient tables: rho rows (m, deg+1), antiderivative rows
        # (m, deg+2), for vectorized gather-and-Horner evaluation.
        width = max(c.size for c in segs)
        rho_rows = np.zeros((m, width))
        for j, c in enumerate(segs):
            rho_rows[j, : c.size] = c
        anti_rows = np.zeros((m, width + 1))
        anti_rows[:, 1:] = rho_rows / np.arange(1, width + 1)

        lo_all, hi_all = np.inf, -np.inf
        seg_mass = np.empty(m)
        anti_at_left = np.empty(m)
        for j in range(m):
            lo, hi = _poly_extrema(rho_rows[j], bp[j], bp[j + 1])
            scale = max(1.0, float(np.max(np.abs(rho_rows[j]))))
            if lo < -_NEG_TOL * scale:
                raise DomainError(
                    f"segment {j}: density dips negative (min {lo:.3e})"
                )
            lo_all = min(lo_all, max(lo, 0.0))
            hi_all = max(hi_all, hi)
            anti_at_left[j] = _poly_eval(anti_rows[j], bp[j])
            seg_mass[j] = _poly_eval(anti_rows[j], bp[j + 1]) - anti_at_left[j]
            if seg_mass[j] <= 0.0:
                raise DomainError(f"segment {j}: segment mass must be positive")

        self.rho_min = float(lo_all)
        self.rho_max = float(hi_all)
        self._rho_rows = rho_rows
        self._anti_rows = anti_rows
        self._anti_at_left = anti_at_left
        self._cum = np.concatenate([[0.0], np.cumsum(seg_mass)])
        # Pure-Python copies for the scalar fast paths.
        self._bp_list = bp.tolist()
        self._cum_list = self._cum.tolist()
        self._rho_list = [tuple(r) for r in rho_rows]
        self._anti_list = [tuple(r) for r in anti_rows]
        self._anti_left_list = anti_at_left.tolist()

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------

    @property
    def total_mass(self) -> float:
        """F(1), the mass-metric distance between the endpoints."""
        return float(self._cum[-1])

    def _segment_of(self, x: np.ndarray) -> np.ndarray:
        j = np.searchsorted(self.breakpoints, x, side="right") - 1
        return np.clip(j, 0, self.breakpoints.size - 2)

    def rho(self, x):
        """Density value(s) at x."""
        scalar = np.isscalar(x) or getattr(x, "ndim", 1) == 0
        xv = np.atleast_1d(_inside(x))
        acc = _poly_eval_rows(self._rho_rows[self._segment_of(xv)], xv)
        return float(acc[0]) if scalar else acc

    def cdf(self, x):
        """Cumulative mass F(x)."""
        scalar = np.isscalar(x) or getattr(x, "ndim", 1) == 0
        xv = np.atleast_1d(_inside(x))
        j = self._segment_of(xv)
        # bracketed so that x = b_j gives exactly the stored mass F(b_j)
        out = self._cum[j] + (_poly_eval_rows(self._anti_rows[j], xv) - self._anti_at_left[j])
        return float(out[0]) if scalar else out

    def inverse_cdf(self, m):
        """The unique x with F(x) = m.

        Solved per segment b_j <= x <= b_{j+1} by safeguarded Newton
        iteration (cf. ``rtsafe`` in *Numerical Recipes*). A mass equal to a
        breakpoint's mass returns that breakpoint. Otherwise the iteration
        starts from linear interpolation of the mass within the segment,

            x = b_j + (b_{j+1} - b_j) (m - F(b_j)) / (F(b_{j+1}) - F(b_j)),

        which is exact where rho is constant. Each pass evaluates
        g = F(x) - m and stops, keeping x, as soon as g == 0 or the Newton
        step g / rho(x) would move x by at most ``_NEWTON_ULPS`` |x| (a few
        ulps); otherwise x narrows the bracket [lo, hi] around the root and
        the pass stops if the bracket has collapsed. The next x is the
        Newton point, or the bracket midpoint when that point leaves the
        bracket or the step is longer than half the previous one. At most
        120 passes run. The scalar and the vector paths follow this one
        rule, and the result is within 1e-13 of the true root.
        """
        if np.isscalar(m) or getattr(m, "ndim", 1) == 0:
            return self._inverse_scalar(float(m))
        return self._inverse_vector(
            _inside(m, self.total_mass, "mass values must lie in [0, F(1)]"))

    def _inverse_vector(self, m: np.ndarray) -> np.ndarray:
        j = np.clip(np.searchsorted(self._cum, m, side="right") - 1, 0,
                    self.breakpoints.size - 2)
        lo = self.breakpoints[j].copy()
        hi = self.breakpoints[j + 1].copy()
        c_lo, c_hi = self._cum[j], self._cum[j + 1]
        arows = self._anti_rows[j]
        rrows = self._rho_rows[j]
        offset = c_lo - self._anti_at_left[j]

        x = lo + (hi - lo) * (m - c_lo) / (c_hi - c_lo)
        step_prev = hi - lo
        at_left = m == c_lo
        at_right = m == c_hi
        x = np.where(at_left, lo, np.where(at_right, hi, x))
        done = at_left | at_right
        for _ in range(120):
            g = _poly_eval_rows(arows, x) + offset - m
            der = _poly_eval_rows(rrows, x)
            with np.errstate(divide="ignore", invalid="ignore"):
                newton = x - g / der
            done |= (g == 0.0) | (np.abs(newton - x) <= _NEWTON_ULPS * np.abs(x))

            above = g > 0.0
            hi = np.where(above & ~done, x, hi)
            lo = np.where(~above & ~done, x, lo)
            done |= (hi - lo) <= 4e-16 * (1.0 + np.abs(x))
            if np.all(done):
                break
            slow = np.abs(2.0 * g) > np.abs(step_prev * der)
            bad = ~np.isfinite(newton) | (newton <= lo) | (newton >= hi) | slow
            nxt = np.where(done, x, np.where(bad, 0.5 * (lo + hi), newton))
            step_prev = np.abs(nxt - x)
            x = nxt
        return x

    # Scalar fast paths (pure Python floats): the round-based simulations
    # invert one mass per movement, where numpy per-call overhead dominates.

    def _cdf_scalar(self, x: float) -> float:
        if x <= 0.0:
            if x < -_X_SLACK:
                raise DomainError("points must lie in [0, 1]")
            return 0.0
        if x >= 1.0:
            if x > 1.0 + _X_SLACK:
                raise DomainError("points must lie in [0, 1]")
            return self._cum_list[-1]
        j = bisect.bisect_right(self._bp_list, x) - 1
        return self._cum_list[j] + (_poly_eval(self._anti_list[j], x) - self._anti_left_list[j])

    def _inverse_scalar(self, m: float) -> float:
        tol = _X_SLACK * max(1.0, self.total_mass)
        if not -tol <= m <= self.total_mass + tol:
            raise DomainError("mass values must lie in [0, F(1)]")
        m = min(max(m, 0.0), self.total_mass)
        j = bisect.bisect_right(self._cum_list, m) - 1
        j = min(max(j, 0), len(self._bp_list) - 2)
        lo, hi = self._bp_list[j], self._bp_list[j + 1]
        c_lo, c_hi = self._cum_list[j], self._cum_list[j + 1]
        if m == c_lo:
            return lo
        if m == c_hi:
            return hi
        arow, rrow = self._anti_list[j], self._rho_list[j]
        offset = c_lo - self._anti_left_list[j]

        x = lo + (hi - lo) * (m - c_lo) / (c_hi - c_lo)
        step_prev = hi - lo
        for _ in range(120):
            g = _poly_eval(arow, x) + offset - m
            if g == 0.0:
                break
            der = _poly_eval(rrow, x)
            newton = x - g / der if der != 0.0 else math.inf
            if abs(newton - x) <= _NEWTON_ULPS * abs(x):
                break
            if g > 0.0:
                hi = x
            else:
                lo = x
            if hi - lo <= 4e-16 * (1.0 + abs(x)):
                break
            if lo < newton < hi and abs(2.0 * g) <= abs(step_prev * der):
                nxt = newton
            else:
                nxt = 0.5 * (lo + hi)
            step_prev = abs(nxt - x)
            x = nxt
        return x


# ----------------------------------------------------------------------
# agent configurations
# ----------------------------------------------------------------------

def check_positions(positions, n_min: int = 1) -> np.ndarray:
    """Validate a sorted agent configuration in [0, 1]; returns a copy."""
    x = np.asarray(positions, dtype=float)
    if x.ndim != 1 or x.size < n_min:
        raise DomainError(f"need at least {n_min} agent position(s)")
    x = _inside(x, message="agent positions must lie in [0, 1]")
    if np.any(np.diff(x) < 0.0):
        raise DomainError("agent positions must be nondecreasing")
    return x


def mass_gaps(masses: np.ndarray, total: float) -> np.ndarray:
    """Boundary-doubled gaps (2 y_1, y_2 - y_1, ..., 2 (total - y_n)) of masses y."""
    d = np.empty(masses.size + 1)
    d[0] = 2.0 * masses[0]
    d[1:-1] = np.diff(masses)
    d[-1] = 2.0 * (total - masses[-1])
    return d


def gap_vector(field: DensityField, positions) -> np.ndarray:
    """Boundary-doubled mass gaps of the configuration, in y = F(x)."""
    return mass_gaps(field.cdf(check_positions(positions, n_min=1)), field.total_mass)


def coverage(field: DensityField, positions) -> float:
    """Worst-case mass distance from any point of [0, 1] to its nearest agent.

    In mass coordinates the nearest-agent distance is piecewise linear with
    local maxima only at the endpoints and the cell midpoints, so the exact
    value is half the largest boundary-doubled gap (doubling is exact).
    """
    return float(np.max(gap_vector(field, positions))) / 2.0


def optimal_configuration(field: DensityField, n: int) -> tuple[np.ndarray, float]:
    """The unique configuration balancing all boundary-doubled mass gaps.

    Places agent j at F^{-1}(F(1) (2j - 1) / (2n)); its coverage
    F(1) / (2n) is the best achievable by n agents.
    """
    if n < 1:
        raise DomainError("need at least one agent")
    targets = field.total_mass * (2.0 * np.arange(1, n + 1) - 1.0) / (2.0 * n)
    positions = field.inverse_cdf(targets)
    return positions, field.total_mass / (2.0 * n)


# ----------------------------------------------------------------------
# presets and file format
# ----------------------------------------------------------------------

def uniform_density() -> DensityField:
    return DensityField([0.0, 1.0], [[1.0]], name="uniform")


def quadratic_density() -> DensityField:
    return DensityField([0.0, 1.0], [[0.0, 0.0, 1.0]], name="quadratic")


PRESETS = {
    "uniform": uniform_density,
    "quadratic": quadratic_density,
}


def read_json(path, kind: str):
    """Decoded JSON ``kind`` file at ``path``; ParseError if it cannot be read or decoded."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {kind} file {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{kind} file {path} is not valid JSON (line {exc.lineno}, col {exc.colno})"
        ) from exc
    except RecursionError as exc:
        raise ParseError(f"{kind} file {path} nests JSON too deeply") from exc


def typed(kind, value):
    """JSON ``value`` as ``kind``, where ``[k]`` is a list of k: a bool is no
    number, and an int must be whole."""
    if isinstance(kind, list) and isinstance(value, list):
        return [typed(kind[0], v) for v in value]
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if (kind is str and isinstance(value, str) or kind is float and number
            or kind is int and number and float(value).is_integer()):
        return kind(value)
    raise TypeError(f"expected {getattr(kind, '__name__', 'list')}, got {value!r}")


def density_from_dict(data: dict, name: str = "custom") -> DensityField:
    """Build a field from the JSON schema {breakpoints, coefficients}."""
    if not isinstance(data, dict):
        raise ParseError("density spec must be a JSON object")
    kinds = {"breakpoints": [float], "coefficients": [[float]]}
    unknown = set(data) - set(kinds)
    if unknown:
        raise ParseError(f"density spec has unknown fields: {sorted(unknown)}")
    for key in kinds:
        if key not in data:
            raise ParseError(f"density spec missing field '{key}'")
    try:
        return DensityField(*(typed(kinds[k], data[k]) for k in kinds), name=name)
    except (ValueError, TypeError, OverflowError) as exc:   # DomainError included
        raise ParseError(f"invalid density spec: {exc}") from exc


def load_density(path) -> DensityField:
    return density_from_dict(read_json(path, "density"), name=str(path))


def resolve_density(spec: str) -> DensityField:
    """Resolve a preset name or a JSON file path into a field."""
    if spec in PRESETS:
        return PRESETS[spec]()
    if Path(spec).exists():
        return load_density(spec)
    raise ParseError(f"unknown density preset or missing file: {spec!r}")
