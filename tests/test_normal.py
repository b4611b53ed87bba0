import math

import numpy as np
import pytest

from trunctail import ks_distance, normal, normal_cdf, normal_quantile
from trunctail.normal import _quantile_guess


def gauss_quadrature_cdf(x: float) -> float:
    """Independent oracle: Phi(x) = 1/2 + integral of the density over [0, x],
    by high-order Gauss-Legendre quadrature (no erf anywhere)."""
    nodes, weights = np.polynomial.legendre.leggauss(80)
    half = 0.5 * x
    t = half * nodes + half  # map [-1, 1] -> [0, x]
    dens = np.exp(-0.5 * t * t) / math.sqrt(2 * math.pi)
    return 0.5 + float(half * np.sum(weights * dens))


def bisect_quantile(p: float) -> float:
    """Independent oracle: invert normal_cdf by plain bisection."""
    lo, hi = -40.0, 40.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if normal_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestNormalCdf:
    def test_symmetry_point(self):
        assert normal_cdf(0.0) == 0.5

    @pytest.mark.parametrize("x", [0.1, 0.5, 1.0, 1.96, 2.7, 4.0])
    def test_reflection_identity(self, x):
        assert normal_cdf(-x) == pytest.approx(1.0 - normal_cdf(x), abs=1e-12)

    @pytest.mark.parametrize("x", [0.25, 0.5, 1.0, 1.96, 2.33, 3.5])
    def test_against_quadrature_oracle(self, x):
        assert normal_cdf(x) == pytest.approx(gauss_quadrature_cdf(x), abs=1e-12)

    def test_point_nine_seven_five(self):
        assert normal_cdf(1.96) == pytest.approx(0.9750021048517795, abs=1e-10)

    def test_monotone(self):
        xs = np.linspace(-6, 6, 241)
        cdfs = [normal_cdf(x) for x in xs]
        assert all(b > a for a, b in zip(cdfs, cdfs[1:]))


class TestNormalQuantile:
    def test_median(self):
        assert normal_quantile(0.5) == 0.0

    def test_two_sided_point(self):
        assert normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-6)

    @pytest.mark.parametrize("x", [-3.0, -1.0, 0.0, 1.0, 3.0])
    def test_round_trip(self, x):
        assert normal_quantile(normal_cdf(x)) == pytest.approx(x, abs=1e-8)

    @pytest.mark.parametrize("p", [1e-6, 0.01, 0.3, 0.5, 0.9, 0.999, 1 - 1e-7])
    def test_cdf_of_quantile(self, p):
        assert abs(normal_cdf(normal_quantile(p)) - p) < 1e-9

    @pytest.mark.parametrize("p", [0.025, 0.3, 0.975, 0.9999])
    def test_against_bisection_oracle(self, p):
        assert normal_quantile(p) == pytest.approx(bisect_quantile(p), abs=1e-9)

    def test_monotone(self):
        ps = np.linspace(0.001, 0.999, 499)
        qs = [normal_quantile(p) for p in ps]
        assert all(b > a for a, b in zip(qs, qs[1:]))

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.3])
    def test_domain(self, p):
        with pytest.raises(ValueError, match="in \\(0, 1\\)"):
            normal_quantile(p)


class TestKsDistance:
    def test_single_point_at_zero(self):
        assert ks_distance([0.0]) == pytest.approx(0.5, abs=1e-12)

    def test_stratified_normal_scores(self):
        # points placed exactly at the (i - 1/2)/m quantiles each contribute 1/(2m)
        m = 1000
        zs = [normal_quantile((i - 0.5) / m) for i in range(1, m + 1)]
        assert ks_distance(zs) == pytest.approx(0.0005, abs=1e-8)

    def test_symmetric_pair(self):
        got = ks_distance([-1.96, 1.96])
        assert got == pytest.approx(0.5 - (1.0 - 0.9750021048517795), abs=1e-12)
        assert got == pytest.approx(0.475, abs=1e-4)

    def test_order_irrelevant(self):
        zs = [0.3, -1.2, 2.2, 0.0, -0.4]
        assert ks_distance(zs) == ks_distance(sorted(zs))

    def test_bounds(self):
        rng = np.random.default_rng(0)
        zs = rng.normal(size=200)
        assert 0.0 <= ks_distance(zs) <= 1.0
        assert ks_distance([50.0, 51.0]) == pytest.approx(1.0, abs=1e-10)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            ks_distance([])


# the density at the quantile underflows below 1e-300, so no Newton step
# runs and the rational guess is returned as it stands
@pytest.mark.parametrize("p", [5e-324, 1e-320])
def test_underflowing_density_returns_the_guess(p):
    x = normal_quantile(p)
    assert x == _quantile_guess(p)
    assert x == pytest.approx(bisect_quantile(p), abs=0.02)


def _two_branch_guess(p: float) -> float:
    """Reference: the tail formula written out once per tail."""
    c, d = normal._C, normal._D
    if p < normal._P_LOW:
        q = math.sqrt(-2.0 * math.log(p))
        return ((((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5])
                / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0))
    if p > 1.0 - normal._P_LOW:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        return -((((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5])
                 / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0))
    return _quantile_guess(p)


def test_one_tail_formula_equals_one_per_tail():
    rng = np.random.default_rng(1406)
    low = normal._P_LOW
    edges = [low, 1.0 - low, 0.5]
    edges = [x for e in edges for x in (math.nextafter(e, 0.0), e, math.nextafter(e, 1.0))]
    ps = [*edges, 5e-324, 1e-300, math.nextafter(1.0, 0.0),
          *rng.uniform(0.0, low, 5000), *(1.0 - rng.uniform(0.0, low, 5000)),
          *np.exp(rng.uniform(-744.0, math.log(low), 2000)),
          *(1.0 - np.exp(rng.uniform(-36.0, math.log(low), 2000)))]
    for p in map(float, ps):
        if 0.0 < p < 1.0:
            assert _quantile_guess(p) == _two_branch_guess(p), p
