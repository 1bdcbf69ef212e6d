"""Exact-arithmetic oracle for both control laws.

On a piecewise-constant density with dyadic breakpoints and integer levels
the float ``DensityField`` and this field are the same density, and F and
F^-1 are exact rationals. Both laws then have an exact trajectory in
``fractions.Fraction``, which the float runs are checked against. The
oracle applies neither the static running maximum nor the dynamic one-ulp
guard, so an ordered exact run shows that both guards repair roundoff only.
"""

from bisect import bisect_right
from fractions import Fraction

from linecover import DensityField, build_chain


class ExactField:
    """rho = levels[j] on [breakpoints[j], breakpoints[j + 1])."""

    def __init__(self, breakpoints, levels):
        self.bp = [Fraction(b) for b in breakpoints]
        self.levels = [Fraction(v) for v in levels]
        self.cum = [Fraction(0)]
        for lo, hi, v in zip(self.bp, self.bp[1:], self.levels):
            self.cum.append(self.cum[-1] + v * (hi - lo))
        self.total = self.cum[-1]

    def _piece(self, edges, value) -> int:
        return min(bisect_right(edges, value), len(self.levels)) - 1

    def cdf(self, x):
        j = self._piece(self.bp, x)
        return self.cum[j] + self.levels[j] * (x - self.bp[j])

    def inverse(self, m):
        j = self._piece(self.cum, m)
        return self.bp[j] + (m - self.cum[j]) / self.levels[j]


def field_pair(breakpoints, levels) -> tuple[DensityField, ExactField]:
    """The float and the exact field of one piecewise-constant density."""
    return (DensityField(breakpoints, [[float(v)] for v in levels]),
            ExactField(breakpoints, levels))


def max_error(floats, exacts) -> float:
    """max |f - e| over paired float and exact values, computed exactly."""
    assert len(floats) == len(exacts)
    return float(max(abs(Fraction(f) - e) for f, e in zip(floats, exacts)))


def static_step(field: ExactField, x: list) -> list:
    """The median law: targets y_2/3, (y_{i-1} + y_{i+1})/2, (y_{n-1} + 2F(1))/3."""
    y = [field.cdf(v) for v in x]
    targets = ([y[1] / 3] + [(a + b) / 2 for a, b in zip(y, y[2:])]
               + [(y[-2] + 2 * field.total) / 3])
    return [field.inverse(m) for m in targets]


def init_z(field: ExactField, x: list) -> list:
    """z_i = z_i' = (d_{i-1} + d_i)/4 from the boundary-doubled gaps d."""
    y = [field.cdf(v) for v in x]
    d = [2 * y[0]] + [b - a for a, b in zip(y, y[1:])] + [2 * (field.total - y[-1])]
    quarter = [(a + b) / 4 for a, b in zip(d, d[1:])]
    return quarter + quarter


class ExactDynamic:
    """The lifted-chain law: z <- z K, then the token holder moves."""

    def __init__(self, field: ExactField, x0, big_u: int, variant: str, rule: str):
        self.field, self.big_u, self.variant, self.rule = field, big_u, variant, rule
        self.x = [Fraction(v) for v in x0]
        self.t = 0
        self.z = init_z(field, self.x)

    def step_round(self) -> None:
        n, z, p = len(self.x), self.z, Fraction(1, self.big_u)
        ends = (0, n - 1, n, 2 * n - 1)
        # figure2 is lazy by 1/2 at the interior states: only m leaves a state
        m = [v if self.variant == "uniformized" or d in ends else v / 2
             for d, v in enumerate(z)]
        cont, switch = build_chain(n, self.big_u, self.variant).sources.tolist()
        self.z = [(1 - p) * m[c] + p * m[s] + v - w
                  for c, s, v, w in zip(cont, switch, z, m)]
        self.t += 1
        j = (self.t - 1) % self.big_u + 1
        if j > n:
            return
        if self.rule == "pair":
            target = self.z[j - 1] + self.z[n + j - 1]
        else:
            target = (self.z[n + j - 2] if j >= 2 else 0) + self.z[j - 1]
        left = self.field.cdf(self.x[j - 2]) if j >= 2 else 0
        c = self.field.inverse(min(self.field.total, left + target))
        self.x[j - 1:] = [c] + [max(v, c) for v in self.x[j:]]

    def add_agent(self, x_new) -> None:
        n, idx = len(self.x), bisect_right(self.x, Fraction(x_new))
        self.x.insert(idx, Fraction(x_new))
        self.z[n + idx:n + idx] = [Fraction(0)]
        self.z[idx:idx] = [Fraction(0)]

    def remove_agent(self, i: int) -> None:
        """Agent i (1-based) hands its pair mass to the left neighbour (agent 1: right)."""
        n = len(self.x)
        removed = self.z.pop(n + i - 1) + self.z.pop(i - 1)
        self.z[i - 2 if i >= 2 else 0] += removed
        del self.x[i - 1]
