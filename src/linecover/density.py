"""Piecewise-polynomial density fields on [0, 1] and their mass geometry.

A field is a positive, piecewise-polynomial density ``rho`` given by
breakpoints ``0 = b_0 < ... < b_m = 1`` and, per segment, ascending-power
polynomial coefficients of degree at most 4. The cumulative mass

    F(x) = integral of rho from 0 to x

is evaluated from the closed-form antiderivative in each segment's own
coordinate t = x - b_j, so F, its inverse, the mass gaps between agents and
coverage all carry roundoff error only (F lay within 5.3 ulps of F(1) of the
exact F on 2,000 drawn fields with a narrow segment far from 0). Mass
coordinates y = F(x) stretch regions where rho is large and shrink the rest.

Densities may touch zero at isolated points (the ``quadratic`` preset does,
at the origin), but every segment must carry strictly positive mass so that
F is strictly increasing and invertible.
"""

from __future__ import annotations

import bisect
import json
import math
import operator
from pathlib import Path

import numpy as np

from .errors import DomainError, NumericError, ParseError

MAX_DEGREE = 4
# the largest agent count whose 2n-entry float64 chain state numpy can address;
# counts enter through a range check against it, before any allocation
MAX_AGENTS = np.iinfo(np.intp).max // 16

_X_SLACK = 1e-12          # tolerated overshoot outside [0, 1] before clipping
_NEG_TOL = 1e-12          # tolerated negative polynomial minimum (roundoff)
_NEWTON_ULPS = 4.5e-16    # relative Newton step at which the inverse stops
_KNOT_CELLS = 256         # equal cells per segment in the inverse's start table
# The largest array that cdf and inverse_cdf map element by element on the
# scalar path. Below it, numpy call overhead dominates the vector path, which
# costs about 40-85 and 55-120 us per inverse_cdf call on the uniform and
# quadratic presets whatever the size, and 12-30 us per cdf call. A loop of
# scalar calls becomes the dearer of the two (best of 15 x 100 calls, shared
# 2-CPU x86-64 host, Python 3.11) near 40 masses on the uniform preset,
# 36-44 on the quadratic one and 36-40 on a degree-4 random field for
# inverse_cdf, and near 20-40 points for cdf.
_SCALAR_MAX = 32
# Each segment's largest coefficient lies in [2^-990, 2^1010]. Scaled by 2^k,
# both presets and 300 random degree-4 fields at n = 40 gave the same optimal
# positions and 20 static and 20 dynamic rounds, phi scaled by exactly 2^k,
# down to a smallest segment peak of 2^-996; below, up to 2.6e-15 apart.
_SCALE_MIN = 2.0 ** -990
_SCALE_MAX = 2.0 ** 1010


def _inside(values, hi: float = 1.0, message: str = "points must lie in [0, 1]"):
    """``values``, a Python float or an array, clipped to [0, hi]; DomainError
    unless all lie in it up to slack, which NaN never does."""
    if isinstance(values, float) and 0.0 <= values <= hi:
        return values     # the scalar paths' common case, without numpy
    v = np.asarray(values, dtype=float)
    slack = _X_SLACK * max(1.0, hi)
    if not ((v >= -slack) & (v <= hi + slack)).all():
        raise DomainError(message)
    v = np.clip(v, 0.0, hi)
    return float(v) if isinstance(values, float) else v


def _by_size(values, scalar, vector) -> np.ndarray:
    """The array ``values`` mapped to a float64 array of its shape: element by
    element by ``scalar`` when it holds at most ``_SCALAR_MAX`` elements, else
    by ``vector`` on its elements flattened."""
    v = np.asarray(values, dtype=float)
    if v.size <= _SCALAR_MAX:
        out = np.array([scalar(e) for e in v.ravel().tolist()], dtype=float)
    else:
        out = vector(v.ravel())
    return out.reshape(v.shape)


def _poly_eval(coeffs, x):
    """Horner evaluation of ascending-power coefficients at a scalar or an
    array x; pass a gathered table of rows transposed to evaluate row i at x[i]."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _shifted(coeffs: np.ndarray, b: float) -> list[float]:
    """``coeffs`` (ascending powers of x) in powers of t = x - b: the exact
    Taylor shift sum_i C(i, k) b^(i-k) c_i, rounded once (at b = 0, c itself)."""
    from fractions import Fraction   # here, not at the top: it imports decimal, ~3 ms
    b, c = Fraction(b), [Fraction(v) for v in coeffs.tolist()]
    return [float(sum(math.comb(i, k) * b ** (i - k) * a for i, a in enumerate(c[k:], k)))
            for k in range(len(c))]


def _poly_extrema(coeffs: np.ndarray, lo, hi):
    """Exact min/max of the polynomial on [lo, hi] (or arrays of them) via derivative roots."""
    candidates = [lo, hi]
    deriv = coeffs[1:] * np.arange(1, len(coeffs))
    if np.any(deriv != 0.0):
        roots = np.polynomial.polynomial.polyroots(deriv)
        candidates += [np.clip(r.real, lo, hi) for r in roots if abs(r.imag) < 1e-9]
    values = [_poly_eval(coeffs, c) for c in candidates]
    return np.min(values, axis=0), np.max(values, axis=0)


class DensityField:
    """Immutable piecewise-polynomial density on [0, 1].

    Construction validates the geometry (breakpoints span [0, 1] and
    increase strictly), nonnegativity of every segment polynomial (exact,
    via derivative-root minimization), and positivity of every segment
    mass. ``rho_min``/``rho_max`` hold the global density bounds and
    ``total_mass`` holds F(1), the mass-metric distance between the endpoints.

    Construction also tabulates ``_KNOT_CELLS`` equal cells per segment: the
    knots x_k (every breakpoint among them), their masses F_k = F(x_k),
    evaluated by ``cdf`` itself, each cell's largest density, and the start
    correction (a, a + b) and Newton constant K of ``inverse_cdf``, which
    starts inside the knot cell that holds its mass.
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
            if not _SCALE_MIN <= np.max(np.abs(c)) <= _SCALE_MAX:   # so F(1) is finite
                raise DomainError(f"segment {j}: the largest coefficient magnitude must lie "
                                  f"in [2^-990, 2^1010]")
            segs.append(c)

        self.name = name
        self.breakpoints = bp
        m = bp.size - 1

        # Padded tables in each segment's t = x - b_j, rho rows (m, deg+1) and
        # A_j rows (m, deg+2); t = x in the first, which skips the Fraction work.
        width = max(c.size for c in segs)
        rho_rows = np.zeros((m, width))
        for j, c in enumerate(segs):
            rho_rows[j, : c.size] = _shifted(c, bp[j]) if bp[j] else c
        anti_rows = np.zeros((m, width + 1))
        anti_rows[:, 1:] = rho_rows / np.arange(1, width + 1)
        seg_mass = _poly_eval(anti_rows.T, np.diff(bp))    # A_j(h_j) while A_j(0) = 0
        # The inverse's starting cells and the density's extrema on each, at t as
        # cdf computes it (F_k from cdf below: inverse_cdf(cdf(x_k)) is every knot).
        cells = np.arange(_KNOT_CELLS) / _KNOT_CELLS
        knot_x = np.append((bp[:-1, None] + np.diff(bp)[:, None] * cells).ravel(), 1.0)
        ends = [knot_x[s].reshape(m, -1) - bp[:-1, None] for s in (slice(-1), slice(1, None))]
        slope_rows = np.polynomial.polynomial.polyder(rho_rows, axis=1)    # rho' in t
        (cell_lo, cell_hi), (slope_lo, slope_hi) = (np.array([_poly_extrema(*cell) for cell in zip(
            rows, *ends)]).transpose(1, 0, 2) for rows in (rho_rows, slope_rows))
        seg_lo = cell_lo.min(axis=1)
        neg_tol = -_NEG_TOL * np.maximum(1.0, np.abs(rho_rows).max(axis=1))
        for j in range(m):
            if seg_lo[j] < neg_tol[j]:
                raise DomainError(f"segment {j}: density dips negative (min {seg_lo[j]:.3e})")
            if seg_mass[j] <= 0.0:
                raise DomainError(f"segment {j}: segment mass must be positive")

        self.rho_min = float(max(seg_lo.min(), 0.0))
        self.rho_max = float(cell_hi.max())
        self._rho_rows = rho_rows
        self._anti_rows = anti_rows
        self._cum = np.concatenate([[0.0], np.cumsum(seg_mass)])
        self.total_mass = float(self._cum[-1])
        # A_j(0) = F(b_j): Horner's last step adds it to seg_mass_j as cumsum does
        anti_rows[:, 0] = self._cum[:-1]
        # Pure-Python copies for the scalar fast paths.
        self._left_list = bp[:-1].tolist()
        self._rho_list = rho_rows.tolist()
        self._anti_list = anti_rows.tolist()

        self._knot_x, self._knot_f = knot_x, self.cdf(knot_x)
        self._knot_x_list = self._knot_x.tolist()
        self._knot_f_list = self._knot_f.tolist()
        self._cell_max = cell_hi.ravel()
        # Per cell, the start correction (a, a + b) and K of inverse_cdf
        h, mass = (np.diff(v).reshape(m, -1) for v in (knot_x, self._knot_f))
        with np.errstate(divide="ignore", invalid="ignore"):
            d0, d1 = (mass / (h * _poly_eval(rho_rows.T[..., None], t)) for t in ends)
            newton_k = np.where(cell_lo > 0.0, np.maximum(-slope_lo, slope_hi) / (2.0 * cell_lo),
                                np.inf)
        bent = (newton_k > 0.0) & (d0 * d0 + d1 * d1 <= 9.0)
        a, b = (np.where(bent, d - 1.0, 0.0) for d in (d0, d1))
        self._cells = np.stack([a, a + b, newton_k]).reshape(3, -1)
        self._cell_list = self._cells.T.tolist()

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------

    def rho_near(self, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per mass m: max rho on its knot cell and the next two, and m's reach inside them."""
        k = np.searchsorted(self._knot_f[:-1], m, side="right") - 1
        lo, hi = np.maximum(k - 1, 0), np.minimum(k + 2, self._knot_f.size - 1)
        peak = np.maximum.reduce([self._cell_max[lo], self._cell_max[k], self._cell_max[hi - 1]])
        return peak, np.minimum(m - self._knot_f[lo], self._knot_f[hi] - m)

    def cdf(self, x):
        """Cumulative mass F(x). A scalar x and an array of at most
        ``_SCALAR_MAX`` points take the pure-Python path, a larger array the
        vector path; both return the same bits."""
        if isinstance(x, (int, float)) or getattr(x, "ndim", 1) == 0:
            return self._cdf_scalar(float(x))
        return _by_size(x, self._cdf_scalar, self._cdf_vector)

    def _cdf_vector(self, x: np.ndarray) -> np.ndarray:
        x = _inside(x)
        # the segment [b_j, b_{j+1}) of each x, found among the left ends only
        # so that x = 1 falls in the last
        j = np.searchsorted(self.breakpoints[:-1], x, side="right") - 1
        return _poly_eval(self._anti_rows[j].T, x - self.breakpoints[j])

    def inverse_cdf(self, m):
        """The unique x with F(x) = m.

        Solved by safeguarded Newton iteration (cf. ``rtsafe`` in *Numerical
        Recipes*) inside the knot cell x_k <= x <= x_{k+1} of the table built
        at construction, found by one binary search of m among the knot
        masses F_k. A mass equal to a knot's F_k returns that knot, so every
        breakpoint is returned exactly. Otherwise the cell is the starting
        bracket [lo, hi], and the start, with u = (m - F_k) / (F_{k+1} - F_k)
        and w = (x_{k+1} - x_k) u, is x = x_k + w + w (1 - u) (a - (a + b) u):
        the cubic Hermite interpolant of F^-1 with slopes 1 / rho at the
        cell's ends, where a + 1 and b + 1 are the cell's mean density over
        rho at its left and right end. a = b = 0, the linear interpolation,
        on degree-0 segments and where (a + 1)^2 + (b + 1)^2 > 9, so that the
        cubic stays in the cell (Fritsch & Carlson, 1980). Each pass evaluates
        g = A_j(x - b_j) - m and s = g / rho_j(x - b_j) on the cell's segment
        j, and stops, keeping x, as soon as g == 0 or the Newton point
        x' = x - s lies within ``_NEWTON_ULPS`` |x| (a few ulps) of x. It
        returns x' when x' lies inside the bracket, K|s| <= 1/4 and
        4 K s s <= ``_NEWTON_ULPS`` |x'|, where K = max |rho'| / (2 min rho)
        on the cell (infinite if min rho = 0). For the root r and e = x - r,
        g = rho(c) e with c between x and r, so |e| rho(c) = |s| rho(x) <=
        |s| (rho(c) + max |rho'| |e|), |e| (1 - 2K|s|) <= |s| and |e| <= 2|s|;
        Taylor's theorem then gives |x' - r| <= K e^2 <= 4 K s s (Ortega &
        Rheinboldt, 1970, 12.6), up to the roundoff of g over rho. Otherwise
        x narrows the bracket and the pass stops if it has collapsed. The
        next x is the Newton point, or the bracket midpoint when that point
        leaves the bracket or the step is longer than half the previous one.
        On the quadratic preset a call takes 1.006 passes per mass on the
        scalar path and 1 or 2 per array on the vector path, at most 120.
        A scalar m and an array of at most ``_SCALAR_MAX`` masses take the
        scalar path, a larger array the vector path. Both follow this one rule
        in the same floating-point operations, so they return the same bits.
        |F(x) - m| is a few ulps of rho_max, inside the static stop bound's
        slack of 2^-40 rho_max, but where rho vanishes x can be far from the
        root: 4.6e-6 for (x - 1/2)^2.
        """
        if isinstance(m, (int, float)) or getattr(m, "ndim", 1) == 0:
            return self._inverse_scalar(float(m))
        return _by_size(m, self._inverse_scalar, self._inverse_vector)

    def _inverse_vector(self, m: np.ndarray) -> np.ndarray:
        m = _inside(m, self.total_mass, "mass values must lie in [0, F(1)]")
        k = np.searchsorted(self._knot_f[:-1], m, side="right") - 1
        j = k // _KNOT_CELLS
        lo, hi = self._knot_x[k], self._knot_x[k + 1]
        c_lo, c_hi = self._knot_f[k], self._knot_f[k + 1]
        arows, rrows, left = self._anti_rows[j].T, self._rho_rows[j].T, self.breakpoints[j]
        a, ab, kk = self._cells[:, k]

        dm, dc = m - c_lo, c_hi - c_lo
        u, w = dm / dc, (hi - lo) * dm / dc
        x = lo + (w + w * (1.0 - u) * (a - ab * u))
        step_prev = hi - lo
        at_left = m == c_lo
        at_right = m == c_hi
        x = np.where(at_left, lo, np.where(at_right, hi, x))
        done = at_left | at_right
        with np.errstate(divide="ignore", invalid="ignore"):
            for _ in range(120):
                t = x - left
                g = _poly_eval(arows, t) - m
                der = _poly_eval(rrows, t)
                s = g / der
                newton = x - s
                done |= (g == 0.0) | (np.abs(newton - x) <= _NEWTON_ULPS * np.abs(x))
                if np.all(done):
                    break
                sure = (~done & (newton > lo) & (newton < hi) & (kk * np.abs(s) <= 0.25)
                        & (4.0 * kk * (s * s) <= _NEWTON_ULPS * np.abs(newton)))
                x = np.where(sure, newton, x)
                done |= sure
                if np.all(done):
                    break

                # a finished x is frozen below, whatever its bracket becomes
                above = g > 0.0
                hi = np.where(above, x, hi)
                lo = np.where(above, lo, x)
                done |= (hi - lo) <= 4e-16 * (1.0 + np.abs(x))
                if np.all(done):
                    break
                # an infinite or NaN Newton point fails both bracket tests
                good = ((newton > lo) & (newton < hi)
                        & (np.abs(2.0 * g) <= np.abs(step_prev * der)))
                nxt = np.where(done, x, np.where(good, newton, 0.5 * (lo + hi)))
                step_prev = np.abs(nxt - x)
                x = nxt
        return x

    # Scalar paths (pure Python floats), which cdf and inverse_cdf take for a
    # scalar and for each element of a small array: the dynamic move maps one
    # point per round and the static law a few dozen, where numpy per-call
    # overhead dominates; larger arrays are cheaper on the vector path.

    def _cdf_scalar(self, x: float) -> float:
        x = _inside(x)
        j = bisect.bisect_right(self._left_list, x) - 1    # as in _cdf_vector
        return _poly_eval(self._anti_list[j], x - self._left_list[j])

    def _inverse_scalar(self, m: float) -> float:
        m = _inside(m, self.total_mass, "mass values must lie in [0, F(1)]")
        k = bisect.bisect_right(self._knot_f_list, m, 0, len(self._knot_f_list) - 1) - 1
        lo, hi = self._knot_x_list[k], self._knot_x_list[k + 1]
        c_lo, c_hi = self._knot_f_list[k], self._knot_f_list[k + 1]
        if m == c_lo:
            return lo
        if m == c_hi:
            return hi
        j = k // _KNOT_CELLS
        arow, rrow, left = self._anti_list[j], self._rho_list[j], self._left_list[j]
        a, ab, kk = self._cell_list[k]

        dm, dc = m - c_lo, c_hi - c_lo
        u, w = dm / dc, (hi - lo) * dm / dc
        x = lo + (w + w * (1.0 - u) * (a - ab * u))
        step_prev = hi - lo
        for _ in range(120):
            g = _poly_eval(arow, x - left) - m
            if g == 0.0:
                break
            der = _poly_eval(rrow, x - left)
            s = g / der if der != 0.0 else math.inf
            newton = x - s
            if abs(newton - x) <= _NEWTON_ULPS * abs(x):
                break
            if (lo < newton < hi and kk * abs(s) <= 0.25
                    and 4.0 * kk * (s * s) <= _NEWTON_ULPS * abs(newton)):
                return newton
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

def check_positions(positions, n_min: int = 1, *, rows: bool = False) -> np.ndarray:
    """Validate a sorted agent configuration in [0, 1], or with ``rows`` also
    an (R, n) stack of them, along the last axis; returns a copy."""
    x = np.asarray(positions, dtype=float)
    if not 1 <= x.ndim <= (2 if rows else 1) or x.shape[-1] < n_min or x.size < n_min:
        raise DomainError(f"need at least {n_min} agent position(s)")
    x = _inside(x, message="agent positions must lie in [0, 1]")
    if np.any(np.diff(x) < 0.0):
        raise DomainError("agent positions must be nondecreasing")
    return x


def mass_gaps(masses: np.ndarray, total: float) -> np.ndarray:
    """Boundary-doubled gaps (2 y_1, y_2 - y_1, ..., 2 (total - y_n)) of masses y, row by row."""
    d = np.empty(masses.shape[:-1] + (masses.shape[-1] + 1,))
    y, dt = masses.T, d.T   # indexed by agent, in one row or in each row of a stack
    dt[0] = 2.0 * y[0]
    np.subtract(y[1:], y[:-1], out=dt[1:-1])
    dt[-1] = 2.0 * (total - y[-1])
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


def check_agent_count(n: int, n_min: int = 1) -> int:
    """n as an int, if it is an integer with n_min <= n <= MAX_AGENTS;
    DomainError otherwise."""
    n = check_integer(n, "the agent count n")
    if not n_min <= n <= MAX_AGENTS:
        raise DomainError(f"need {n_min} to {MAX_AGENTS} agents, got n = {n}")
    return n


def check_integer(value, name: str) -> int:
    """value as an int, if it is an int or a numpy integer; DomainError otherwise."""
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None


def optimal_configuration(field: DensityField, n: int) -> tuple[np.ndarray, float]:
    """The unique configuration balancing all boundary-doubled mass gaps.

    Places agent j at F^{-1}(F(1) (2j - 1) / (2n)); its coverage
    F(1) / (2n) is the best achievable by n agents.
    """
    positions = field.inverse_cdf(optimal_masses(field, n))
    return positions, field.total_mass / (2.0 * n)


def optimal_masses(field: DensityField, n: int) -> np.ndarray:
    """The masses F(1) (2j - 1) / (2n) of the optimal configuration's agents."""
    check_agent_count(n)
    # a power of two scales exactly; 2^-64 keeps F(1) (2n - 1) finite for any accepted field
    scale = 2.0 ** -64 if field.total_mass > 2.0 ** 900 else 1.0
    return field.total_mass * scale * (2.0 * np.arange(1, n + 1) - 1.0) / (2.0 * n) / scale


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
