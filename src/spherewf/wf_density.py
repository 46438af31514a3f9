"""Exact Wright-Fisher transition densities on the simplex.

Three evaluators, all returning densities with respect to Lebesgue
measure dx_1...dx_{k-1} on the simplex:

* `dirichlet_stationary` - the stationary density
  Gamma(mu) * prod_i x_i^{eps_i - 1} / Gamma(eps_i),  mu = sum(eps).

* `griffiths_density` - the orthogonal-polynomial expansion for common
  mutation parameter eps:

      p(x,t|x') = [Gamma(mu) prod x_i^{eps-1} / Gamma(eps)^k]
                  * sum_n e_n(t) Q_n(x, x'),  e_n(t) = exp(-n(n-1)t/2 - mu*n*t/2),

  with Q_0 = 1 and, for n >= 1,

      Q_n = (mu+2n-1)/n! * sum_{m<=n} (-1)^{n-m} C(n,m) (mu+m)_{(n-1)} xi_m,
      xi_m = mu_{(m)} Gamma(eps)^k m! [h^m] prod_j f(h x_j x'_j),
      f(u) = sum_l u^l / (l! Gamma(l + eps)),

  where a_{(m)} is the rising factorial.  xi_0..xi_n come from k-1
  truncated convolutions of positive running products in O(k n^2) time,
  for any k (`_xi_table`).  Summed by the xi_m, the series is Griffiths'
  line-of-descent mixture

      sum_n e_n(t) Q_n = sum_m q_m(t) xi_m,
      q_m(t) = sum_{n>=m} (-1)^{n-m} e_n(t) (mu+2n-1) (mu+m)_{(n-1)} / (m! (n-m)!)

  (plus e_0 = 1 at m = 0): the law of the number of lines of descent
  (Griffiths 1980; Tavare 1984), >= 0 and summing to 1.  Since
  xi_m = E[Dir(x' | eps + l) / Dir(x' | eps)] with l ~ Multinomial(m, x),
  every term q_m xi_m is >= 0.  `griffiths_density` evaluates this form.

  At eps = 1/2 the series in f is elementary: l! (1/2)_l = (2l)!/4^l, so
  Gamma(1/2) f(u) = cosh(2 sqrt(u)), and with y_j = sqrt(x_j x'_j)

      prod_j cosh(2 sqrt(h) y_j) = 2^{-k} sum_{s in {-1,1}^k} exp(2 sqrt(h) s.y).

  s and -s cancel the odd powers of s.y, and (2m)! = 4^m m! (1/2)_m gives

      xi_m = (k/2)_m / (1/2)_m * 2^{-(k-1)} sum_{s_1 = +1} (s.y)^{2m},

  a power sum over the pushforward's half-sign dots (below).  For k <=
  _HALF_SIGN_MAX_K (8) `griffiths_density` sums the mixture on them;
  other eps, and larger k, whose 2^(k-1) dots would outgrow the k - 1
  convolutions, take the series product.

* `pushforward_density` - the sphere heat kernel pushed through
  x_i = y_i^2, summing over the 2^k sign preimages of y (y' is fixed to
  the positive root; the Jacobian bookkeeping yields the 2^{-k} factor):

      p(x,t|x') = Gamma(k/2)/pi^{k/2} * prod x_i^{-1/2} * 2^{-k}
                  * sum_{s in {-1,1}^k} rho_series((s*y).y', t, D)

  s and -s give the dots d and -d, and C_L(-d) = (-1)^L C_L(d), so the
  odd degrees cancel in pairs and the sum is

      2^{-(k-1)} sum_{s_1 = +1} sum_n w_2n C_2n((s*y).y'),

  the paper's reading of Griffiths' expansion.  The evaluator sums
  exactly this: the 2^{k-1} sign vectors with s_1 = +1 and the even
  degrees only, each by one Jacobi recurrence step in u = 2d^2 - 1
  (`sphere_heat.zonal_series` and `circle_series` with even=True).

Numerical note: the alternating sums behind Q_n and q_m cancel once n
is moderately large (small t); their largest term is about 1e5 at
t = 0.1 and 1e31 at t = 0.02.  `griffiths_density` therefore never sums
them in float.  For each (t, k, eps, trunc) it computes the law
q_0 .. q_M once, in stdlib `decimal` arithmetic at P + 50 significant
digits, where about 10^P is the triangle's largest term (`_hp_weights`;
each q_m within about 1e-45 of the exact sum to n_max), and caches it
(`_law`); a query is then one xi table of M + 1 entries and one exact
float sum (`math.fsum`) of the terms q_m xi_m.  The table takes no log
or exp.  The series product runs on h -> c h, so that each
coordinate's coefficients are running products of positive ratios,
scaled by powers of two in between (exact); to m = 400 its xi_m stay within about 1e-14 of a 40-digit product, for eps
from 1e-15 to 1e15.  At eps = 1/2 (k <= 8) the table is the dots' power
sums, each power d^2m <= 1 from one cumulative product, times
c_m = q_m (k/2)_m/(1/2)_m / 2^(k-1), cached per law (`_half_sign_law`).
Both cuts come from trunc.tol (tol^2, kept between the smallest float
and 1) and neither depends on x:

* the inner sums stop at n_max, the first row of the (n, m) triangle
  past its largest term whose next row stays below tol^2; the rows fall
  from there on, so each q_m is within about tol^2 of its limit;
* the mixture stops at M, the first m past the law's mode with
  q_m < tol^2 (n_max if none); the law stays below tol^2 after it.
  trunc.max_terms caps it and may not pass _XI_MAX_M + 1.

At the default tol = 1e-10 that is n_max = 190-196 and M = 150-157 at
t = 0.02, n_max = 82-89 and M = 71-77 at t = 0.05, and M <= 17 for
t >= 0.5, for k = 2-8 and eps 1/3-1.7.
"""

from __future__ import annotations

import decimal
import itertools
import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .specfun import log_gamma
from .sphere_heat import KernelValue, _check_series, circle_series, zonal_series
from .types import SimplexPoint, Truncation, _whole

__all__ = [
    "GRIFFITHS_T_MIN",
    "WF_TRUNCATION",
    "GriffithsQuery",
    "PushforwardQuery",
    "DensityValue",
    "dirichlet_stationary",
    "xi_m",
    "q_n",
    "griffiths_density",
    "pushforward_density",
    "pushforward_log_prefactor",
    "pushforward_series_batch",
]

#: Floor for the expansion time argument; convergence below it is not
#: addressed by the series truncation rule.
GRIFFITHS_T_MIN = 0.01

#: Default truncation for the simplex expansions.
WF_TRUNCATION = Truncation(max_terms=400, tol=1e-10)

#: mode label: a law whose alternating sums reach a term above this is
#: "resummed" (a float n-ordered scan would lose more than three digits)
_RESUMMED_TERM = 1e3

#: log of the smallest positive float
_LOG_TINY = math.log(math.ulp(0.0))

#: The largest degree of `xi_m` and `q_n`.  To it, at k = 2-20 and eps from
#: 1e-15 to 1e15, every xi_m within e^-300 of its table's largest holds to
#: 1e-14; from about m = 500 such an entry can leave the float range of
#: `_xi_table`'s scaled products (0, inf or nan by m = 1000).
_XI_MAX_M = 400

#: Sign-preimage enumeration guard for the pushforward (2^k terms).
_MAX_SIGN_K = 20


def _check_sign_k(who: str, k: int) -> None:
    """The sign sum's limit, for `who`: k <= _MAX_SIGN_K (ValueError), so
    that no call asks for more than 2^_MAX_SIGN_K sign vectors."""
    if k > _MAX_SIGN_K:
        raise ValueError(f"{who}: k > {_MAX_SIGN_K} not supported (2^k sign sum)")


def _check_pair(who: str, x: SimplexPoint, x_prime: SimplexPoint) -> None:
    """The rule of both kernels' points, for `who`: x and x_prime have the
    same k and are interior points (ValueError naming them)."""
    if x.k != x_prime.k:
        raise ValueError(f"{who}: x and x_prime differ in dimension k ({x.k} and {x_prime.k})")
    if not (x.is_interior() and x_prime.is_interior()):
        raise ValueError(f"{who}: x and x_prime must be interior points (all coordinates > 0)")


def _check_expansion(who: str, x: SimplexPoint, x_prime: SimplexPoint, epsilon,
                     degree: int = 0) -> tuple[float, int]:
    """The rules of the expansion's parameters, for `who` (ValueError naming
    the argument): the degree m of xi_m or n of q_n a whole number in [0,
    _XI_MAX_M], the points' rule (`_check_pair`), and epsilon finite and > 0
    with k*epsilon + 1 != 1 (at a smaller epsilon mu + m + n - 1 rounds to 0
    at m = 0, n = 1, where log_gamma has a pole).  Returns epsilon as a float
    and the degree as an int."""
    degree = _whole(degree, f"{who}: degree")
    if not 0 <= degree <= _XI_MAX_M:
        raise ValueError(f"{who}: degree {degree!r} is outside [0, {_XI_MAX_M}]")
    _check_pair(who, x, x_prime)
    eps = float(epsilon)
    if not (0.0 < eps < math.inf):  # NaN too
        raise ValueError(f"{who}: epsilon must be finite and > 0, got {epsilon!r}")
    if x.k * eps + 1.0 == 1.0:
        raise ValueError(f"{who}: epsilon = {epsilon!r} is too small: k*epsilon + 1 "
                         f"rounds to 1 at k = {x.k}")
    return eps, degree


@dataclass(frozen=True)
class GriffithsQuery:
    """Expansion query with common mutation parameter epsilon > 0."""

    x: SimplexPoint
    x_prime: SimplexPoint
    t: float
    epsilon: float
    trunc: Truncation = WF_TRUNCATION

    def __post_init__(self):
        _check_expansion("GriffithsQuery", self.x, self.x_prime, self.epsilon)
        if not (self.t >= GRIFFITHS_T_MIN):  # NaN too
            raise ValueError(f"GriffithsQuery: t below supported floor {GRIFFITHS_T_MIN}")
        # the mixture's xi_m hold to degree _XI_MAX_M; a longer law is not converged
        if self.trunc.max_terms > _XI_MAX_M + 1:
            raise ValueError(f"GriffithsQuery: trunc.max_terms = {self.trunc.max_terms} is above "
                             f"{_XI_MAX_M + 1}, the mixture's limit (xi_m to m = {_XI_MAX_M})")


@dataclass(frozen=True)
class PushforwardQuery:
    """Sphere-kernel pushforward query; D = 1/8 matches the c = 1 diffusion."""

    x: SimplexPoint
    x_prime: SimplexPoint
    t: float
    D: float = 0.125
    trunc: Truncation = WF_TRUNCATION

    def __post_init__(self):
        # interior points: the prefactor diverges on the boundary
        _check_pair("PushforwardQuery", self.x, self.x_prime)
        _check_series("PushforwardQuery", self.t, self.D, self.x.k)
        _check_sign_k("PushforwardQuery", self.x.k)


@dataclass(frozen=True)
class DensityValue:
    """Density evaluation with diagnostics.

    value = prefactor * series_sum.  tail_bound is in series_sum units:
    for the pushforward it is the sphere series' rigorous bound on the
    discarded tail (the even degrees' tail is part of it), and terms_used
    the number of degrees 0 .. L_cap that the cutoff admits, of which the
    sign sum keeps the even ones.

    For the Griffiths expansion series_sum is the line-of-descent
    mixture sum_{m<=M} q_m(t) xi_m and terms_used is M + 1.  tail_bound
    is a heuristic: the last term kept, q_M xi_M; past M the law stays
    below tol^2.  converged is False only when the mixture needs more
    than trunc.max_terms terms; it then stops at its first max_terms.
    mode labels the (t, k, eps) regime, not the evaluation, which is the
    same in both: "resummed" where the alternating sums behind Q_n reach
    a term above 1e3 (t <= 0.1 or so), "direct" elsewhere.
    """

    value: float
    prefactor: float
    series_sum: float
    terms_used: int
    tail_bound: float
    converged: bool
    mode: str = "direct"

    def __float__(self) -> float:
        return self.value


@lru_cache(maxsize=128)
def _log_dirichlet_norm(eps: tuple[float, ...]) -> float:
    """log Gamma(sum eps) - sum_i log Gamma(eps_i), per tuple of eps_i."""
    return log_gamma(float(np.sum(eps))) - sum(log_gamma(e) for e in eps)


def _log_dirichlet(coords: np.ndarray, eps: np.ndarray, keep=slice(None)) -> float:
    # the product runs over coords[keep]; a coordinate left out must have eps_i = 1
    return float(_log_dirichlet_norm(tuple(eps.tolist()))
                 + float(((eps[keep] - 1.0) * np.log(coords[keep])).sum()))


def dirichlet_stationary(x: SimplexPoint, epsilon) -> float:
    """Stationary density Gamma(mu) prod x_i^{eps_i-1}/Gamma(eps_i), log-domain.

    Boundary points: returns math.inf when some x_i = 0 has eps_i < 1
    (the density diverges there), else 0.0 when some x_i = 0 has eps_i > 1,
    and treats eps_i = 1 factors as constant.
    """
    eps = np.asarray(epsilon, dtype=float)
    if eps.ndim == 0:
        eps = np.full(x.k, float(eps))
    if eps.shape != (x.k,):
        raise ValueError("dirichlet_stationary: epsilon must be scalar or length k")
    if not np.all(np.isfinite(eps)):
        raise ValueError("dirichlet_stationary: all epsilon_i must be finite")
    if eps.min() <= 0.0:
        raise ValueError("dirichlet_stationary: all epsilon_i must be > 0")
    on_boundary = eps[x.coords == 0.0]
    if np.any(on_boundary < 1.0):
        return math.inf
    if np.any(on_boundary > 1.0):
        return 0.0
    return math.exp(_log_dirichlet(x.coords, eps, x.coords > 0.0))


@lru_cache(maxsize=128)
def _xi_scales(k: int, eps: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The x-independent parts of the xi table at the scale
    c = max(1, n (n + mu) / e^2): the ratios c / (l ((l-1) + eps)) of each
    coordinate's running product, l = 1 .. n, and the running product
    prod_{i<=m} i ((i-1) + mu) / c, m = 0 .. n.  (i-1) + eps, and not
    eps + i - 1, keeps a tiny eps from rounding away at i = 1."""
    c = max(1.0, n * (n + k * eps) / math.e ** 2)
    i = np.arange(1.0, n + 1.0)
    ratios = c / (i * ((i - 1.0) + eps))
    rising = np.cumprod(np.concatenate(([1.0], i * ((i - 1.0) + k * eps) / c)))
    ratios.flags.writeable = rising.flags.writeable = False
    return ratios, rising


def _xi_table(xx: np.ndarray, eps: float, n: int) -> np.ndarray:
    """xi_0 .. xi_n from xx = x * x' by the series product, with h -> c h.

    Coordinate j contributes the running product b_j(l) = prod_{i<=l}
    c u_j / (i ((i-1) + eps)), u_j = xx[j], and xi_m is
    prod_{i<=m} i ((i-1) + mu) / c times [h^m] prod_j B_j(h) (`_xi_scales`).
    Every term is positive, so the k - 1 truncated convolutions lose no
    digits to cancellation.  After each one the running product is scaled
    by the power of two at its largest entry, exactly, and the powers are
    put back at the end, so no entry overflows unless xi does (at k = 20
    and eps = 1e-15 each coordinate's l >= 1 terms carry a factor 1/eps);
    an entry that underflows is a positive term far below the largest.
    """
    ratios, rising = _xi_scales(xx.size, eps, n)
    series = np.ones((xx.size, n + 1))
    series[:, 1:] = xx[:, None] * ratios
    series.cumprod(axis=1, out=series)
    acc, exp2 = series[0], 0
    for b in series[1:]:
        acc = np.convolve(acc, b)[:n + 1]
        top = math.frexp(acc.max())[1]
        acc, exp2 = np.ldexp(acc, -top), exp2 + top
    return np.ldexp(acc * rising, exp2)


def xi_m(m: int, x: SimplexPoint, x_prime: SimplexPoint, epsilon: float) -> float:
    """xi_m of the expansion: the coefficient of the series product at degree m.

    m is a whole number in [0, _XI_MAX_M] (400), where the table holds, and the
    parameters are checked as GriffithsQuery checks them (ValueError).
    """
    eps, m = _check_expansion("xi_m", x, x_prime, epsilon, m)
    return float(_xi_table(x.coords * x_prime.coords, eps, m)[m])


def q_n(n: int, x: SimplexPoint, x_prime: SimplexPoint, epsilon: float) -> float:
    """Expansion coefficient Q_n(x, x'); Q_0 = 1 by definition.

    The alternating sum (mu+2n-1)/n! sum_m (-1)^{n-m} C(n,m) (mu+m)_{(n-1)}
    xi_m, max-shifted in the log domain and summed exactly with fsum.  Its
    value degrades once the sum cancels more than ~10 digits (large n,
    typical for small t); griffiths_density does not sum Q_n.  n is limited
    as xi_m limits m, and the parameters are checked as GriffithsQuery
    checks them, at n = 0 too (ValueError).
    """
    eps, n = _check_expansion("q_n", x, x_prime, epsilon, n)
    if n == 0:
        return 1.0
    mu = x.k * eps
    log_xi = np.log(_xi_table(x.coords * x_prime.coords, eps, n))
    logs = np.array([math.log(math.comb(n, m)) + log_gamma(mu + m + n - 1.0) - log_gamma(mu + m)
                     for m in range(n + 1)]) + log_xi
    logs -= log_gamma(n + 1.0)
    top = float(logs.max())
    terms = np.exp(logs - top) * np.where((n - np.arange(n + 1)) % 2, -1.0, 1.0)
    return (mu + 2.0 * n - 1.0) * math.exp(top) * math.fsum(terms.tolist())


# --- the line-of-descent law ----------------------------------------------

def _row_peak(n: int, t: float, mu: float) -> float:
    """log of the largest term of row n of the weights' triangle,
    max over m <= n of e_n(t) (mu+2n-1) (mu+m)_{(n-1)} / (m! (n-m)!).

    The terms are unimodal in m (the ratio of neighbours falls), so the
    peak sits at the ceiling of the root of 2m^2 + 2 mu m + mu = n(n-1+mu);
    both integers next to the root are tried, against its rounding.
    """
    if n == 0:
        return 0.0  # e_0 Q_0 = 1
    root = 0.5 * (math.sqrt(mu * mu - 2.0 * mu + 2.0 * n * (n - 1.0 + mu)) - mu)
    return max(
        -0.5 * (n * (n - 1.0) + mu * n) * t + math.log(mu + 2.0 * n - 1.0)
        + log_gamma(mu + m + n - 1.0) - log_gamma(mu + m)
        - log_gamma(m + 1.0) - log_gamma(n - m + 1.0)
        for m in {min(n, max(0, math.floor(root))), min(n, math.ceil(root))}
    )


def _weights_dps(rows: list[float]) -> int:
    """Working precision for _hp_weights from the row peaks `rows`
    (`_row_peak`): enough digits to make the largest alternating term's
    absolute rounding error negligible (< 1e-30)."""
    return int(max(rows) / math.log(10.0)) + 40


def _hp_weights(t: float, k: int, eps: float, n_max: int, dps: int) -> np.ndarray:
    """W_m(t) with sum_{n<=n_max} e_n Q_n = sum_{m<=n_max} xi_m W_m, in decimal arithmetic.

    W_m = ((-1)^m / m!) sum_{n=m}^{n_max} g_n (mu+m)_{(n-1)} / (n-m)!, with
    g_n = (-1)^n e_n(t) (mu+2n-1) for n >= 1 and g_0 = 1 (e_0 Q_0, xi_0 = 1,
    read at m = 0 with (mu)_{(-1)} taken as 1): the law q_m(t) with its
    inner sums stopped at n_max.

    Every operation runs inside one stdlib `decimal` context (libmpdec,
    correctly rounded, half-even) of dps plus 10 guard digits, against the
    rounding that the running products below pile up over n_max steps; an
    operator outside it would round at the default 28 digits.  e_n =
    e_{n-1} a b^(n-1) takes two exps (a = e^(-mu t/2), b = e^(-t));
    (mu+m)_{(n-1)} is (mu)_{(m+n-1)} / (mu)_{(m)}, from one table of rising
    factorials; and 1/d! is one table.  A term is then two products, and
    each inner sum runs in C (`sum` over `map`).
    """
    with decimal.localcontext(decimal.Context(prec=dps + 10, rounding=decimal.ROUND_HALF_EVEN,
                                              Emin=decimal.MIN_EMIN, Emax=decimal.MAX_EMAX)):
        dec, mul, acc = decimal.Decimal, operator.mul, itertools.accumulate
        mu, tm = dec(k) * dec(eps), dec(t)
        steps = acc(itertools.repeat((-tm).exp(), n_max), mul, initial=(-(mu * tm) / 2).exp())
        e = [*acc(steps, mul, initial=dec(1))]  # e_n = e_{n-1} a b^(n-1)
        g = [dec(1)] + [(-1) ** n * e[n] * (mu + (2 * n - 1)) for n in range(1, n_max + 1)]
        # rising[j] = (mu)_{(j-1)}, rising[0] = 1
        rising = [dec(1), *acc(map(mu.__add__, range(2 * n_max)), mul, initial=dec(1))]
        inv_fact = [*acc(range(n_max, 0, -1), mul, initial=1 / dec(math.factorial(n_max)))][::-1]
        out = np.empty(n_max + 1)
        for m in range(n_max + 1):
            s = sum(map(mul, map(mul, g[m:], rising[2 * m:]), inv_fact))
            out[m] = float((-1) ** m * s * inv_fact[m] / rising[m + 1])
    return out


@lru_cache(maxsize=128)
def _law(t: float, k: int, eps: float, trunc: Truncation) -> tuple[np.ndarray, bool, str]:
    """The line-of-descent law q_0 .. q_M(t), whether its outer cut held
    within trunc.max_terms, and the regime's mode label.

    The inner cut n_max is the first row past the triangle's peak whose
    next row stays below tol^2 (`_row_peak`); the inner sums always run to
    it, since a sum stopped earlier is not the law (at t = 0.01 it gave
    -7.6e57).  The outer cut M is the first m past the law's mode with
    q_m < tol^2, or n_max; trunc.max_terms caps only the mixture, to its
    first max_terms terms, and the law is not converged when M + 1 passes
    it.
    """
    mu = k * eps
    # tol^2, kept between the smallest float, below which no term can move a
    # float sum, and 1, which no law value exceeds
    log_cut = min(0.0, max(2.0 * math.log(trunc.tol), _LOG_TINY))
    rows = [_row_peak(0, t, mu), _row_peak(1, t, mu)]
    while not rows[-1] < min(log_cut, rows[-2]):  # e_n(t) drives the rows to -inf
        rows.append(_row_peak(len(rows), t, mu))
    n_max = len(rows) - 2
    w = _hp_weights(t, k, eps, n_max, _weights_dps(rows))
    cut = math.exp(log_cut)
    m_cut = next((m for m in range(int(w.argmax()), len(w)) if w[m] < cut), len(w) - 1)
    converged = m_cut < trunc.max_terms
    q = w[:min(m_cut + 1, trunc.max_terms)]
    q.flags.writeable = False
    mode = "resummed" if max(rows) > math.log(_RESUMMED_TERM) else "direct"
    return q, converged, mode


#: eps = 1/2 queries up to this k take the half-sign power table
#: (`_half_sign_sums`), larger k the series product (`_xi_table`): the
#: table has 2^(k-1) (M+1) entries against the product's k - 1
#: convolutions of M + 1 terms.  Measured on a 2-core VM (warm, best of 9),
#: power sums against the product at M = 16 / 76 / 157 (t = 0.5 / 0.05 /
#: 0.02): 25 / 47 / 101 vs 40 / 54 / 186 us at k = 8; 28 / 99 / 188 vs
#: 44 / 60 / 207 us at k = 9; 56 / 200 / 440 vs 45 / 67 / 263 us at k = 10.
_HALF_SIGN_MAX_K = 8


def _half_sign_scale(k: int, n: int) -> np.ndarray:
    """(k/2)_m / (1/2)_m / 2^(k-1), m = 0 .. n: xi_m at eps = 1/2 over the
    sum of d^2m at the half-sign dots.  The ratio is the running product
    r_m = r_{m-1} (k/2 + m - 1)/(m - 1/2)."""
    m = np.arange(1.0, n + 1.0)
    ratios = np.concatenate(([1.0], (0.5 * k + m - 1.0) / (m - 0.5)))
    return np.cumprod(ratios) * 0.5 ** (k - 1)


@lru_cache(maxsize=128)
def _half_sign_law(t: float, k: int, trunc: Truncation) -> np.ndarray:
    """The law q_0 .. q_M(t) at eps = 1/2 times `_half_sign_scale`, so that
    term m of the mixture is this times the sum of d^2m at the dots."""
    law = _law(t, k, 0.5, trunc)[0]
    c = law * _half_sign_scale(k, len(law) - 1)
    c.flags.writeable = False
    return c


def _half_sign_sums(xx: np.ndarray, n: int) -> np.ndarray:
    """sum_s d_s^2m, m = 0 .. n, over the 2^(k-1) half-sign dots
    d_s = s.sqrt(x x') with s_1 = +1 (xx = x x'), from one cumulative
    product of the (n+1) x 2^(k-1) table of powers of d_s^2 <= 1: no
    power overflows, and one that underflows is a positive term far below
    the largest, which its loss does not move."""
    dots = _sign_matrix(xx.size) @ np.sqrt(xx)
    powers = np.empty((n + 1, dots.size))
    powers[0] = 1.0
    powers[1:] = dots * dots
    return np.cumprod(powers, axis=0, out=powers).sum(axis=1)


def griffiths_density(q: GriffithsQuery) -> DensityValue:
    """Transition density via the expansion, summed as the line-of-descent
    mixture prefactor * sum_{m<=M} q_m(t) xi_m.

    The law q_m(t) comes from the (t, k, eps, trunc) cache (`_law`), and
    the query sums the terms q_m xi_m exactly.  At eps = 1/2 and k <=
    _HALF_SIGN_MAX_K the terms are c_m sum_s d_s^2m over the half-sign
    dots, with c_m = q_m (k/2)_m/(1/2)_m / 2^(k-1) cached per law
    (`_half_sign_law`); otherwise the query builds one xi table by the
    series product (`_xi_table`).
    """
    k = q.x.k
    eps = float(q.epsilon)
    law, converged, mode = _law(q.t, k, eps, q.trunc)
    log_x = float(((eps - 1.0) * np.log(q.x.coords)).sum())
    prefactor = math.exp(_log_dirichlet_norm((eps,) * k) + log_x)
    xx = q.x.coords * q.x_prime.coords
    if eps == 0.5 and k <= _HALF_SIGN_MAX_K:
        terms = _half_sign_law(q.t, k, q.trunc) * _half_sign_sums(xx, len(law) - 1)
    else:
        terms = _xi_table(xx, eps, len(law) - 1) * law
    series = math.fsum(terms.tolist())
    return DensityValue(
        value=prefactor * series,
        prefactor=prefactor,
        series_sum=series,
        terms_used=len(law),
        tail_bound=abs(float(terms[-1])),
        converged=converged,
        mode=mode,
    )


# --- pushforward of the sphere kernel -----------------------------------

@lru_cache(maxsize=None)
def _sign_matrix(k: int) -> np.ndarray:
    """The 2^(k-1) sign vectors s in {-1, 1}^k with s_1 = +1, as rows."""
    arr = np.array([(1.0, *s) for s in itertools.product((1.0, -1.0), repeat=k - 1)])
    arr.flags.writeable = False
    return arr


def pushforward_series_batch(x_batch: np.ndarray, x_other: np.ndarray, t: float,
                             D: float, trunc: Truncation) -> KernelValue:
    """Sign-summed kernel series 2^{-k} sum_s rho((s*y).y') for a batch of points.

    x_batch: (n, k) interior simplex coordinates; x_other: (k,) interior
    point.  Symmetric in the roles of the two arguments.  s and -s give the
    dots d and -d, and C_L(-d) = (-1)^L C_L(d), so the sum is the mean of the
    even-degree series over the 2^(k-1) sign vectors with s_1 = +1, which the
    series' even mode evaluates.  Returns its KernelValue: (n,) arrays, the
    odd part zero.  k is limited as PushforwardQuery limits it (ValueError).
    """
    x_batch = np.atleast_2d(np.asarray(x_batch, dtype=float))
    x_other = np.asarray(x_other, dtype=float)
    k = x_other.size
    _check_sign_k("pushforward_series_batch", k)
    dots = _sign_matrix(k) @ np.sqrt(x_batch * x_other).T  # (2^(k-1), n)
    if k == 2:
        angles = np.arccos(np.minimum(np.maximum(dots, -1.0), 1.0))
        return circle_series(angles, t, D, trunc, even=True)
    return zonal_series(dots, t, D, k, trunc, even=True)


def pushforward_log_prefactor(x: np.ndarray):
    """log(Gamma(k/2)/pi^{k/2} prod_i x_i^{-1/2}) over the last axis of x.

    The prefactor of the pushed-forward sphere kernel; at eps = 1/2 it is
    the stationary Dirichlet density.
    """
    k = x.shape[-1]
    return log_gamma(0.5 * k) - 0.5 * k * math.log(math.pi) - 0.5 * np.log(x).sum(axis=-1)


def pushforward_density(q: PushforwardQuery) -> DensityValue:
    """Transition density obtained from the sphere kernel via x_i = y_i^2.

    The y' preimage is fixed to the positive orthant, the y preimages are
    summed over all 2^k sign choices, and the (2^{k-1} prod y_i) Jacobian
    combines with the kernel normalization into the closed prefactor
    Gamma(k/2)/pi^{k/2} * prod x_i^{-1/2}.
    """
    prefactor = math.exp(pushforward_log_prefactor(q.x.coords))
    r = pushforward_series_batch(q.x.coords[None, :], q.x_prime.coords, q.t, q.D, q.trunc)
    series = float(r.even_part[0])  # the odd part is zero
    return DensityValue(value=prefactor * series, prefactor=prefactor, series_sum=series,
                        terms_used=r.terms_used, tail_bound=r.tail_bound, converged=r.converged)
