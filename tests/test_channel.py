import math
import warnings

import numpy as np
import pytest
from scipy import integrate, special, stats

from ratelab import (
    NetworkGeometry,
    RicianLink,
    power_gain_cdf,
    power_gain_pdf,
    power_gain_sf,
    sample_power_gains,
    split_stream,
)
from ratelab.analytic import _reach
from ratelab import channel
from ratelab.channel import MAX_NONCENTRALITY, poisson_weights
from ratelab.sweep import parse_config, run_sweep
from ratelab.errors import DomainError, ModelAssumptionWarning


def test_rician_link_validation():
    link = RicianLink(0, 1)
    assert link.k_factor == 0 and link.mean_power == 1
    with pytest.raises(DomainError):
        RicianLink(-1, 2)
    with pytest.raises(DomainError):
        RicianLink(3, 0)
    with pytest.raises(DomainError):
        RicianLink(3, -2)
    with pytest.raises(DomainError):
        RicianLink(float("nan"), 1)
    # a subnormal mean power whose inverse scale (1 + K)/Omega overflows
    assert math.isfinite(RicianLink(0, 1e-300).inv_scale)
    with pytest.raises(DomainError, match=r"\(1 \+ K\)/mean_power must be finite and > 0, got 1e-320"):
        RicianLink(0, 1e-320)
    with pytest.raises(DomainError):
        RicianLink(3, 1e-308)
    # an integer above the float range, refused without its digits
    above = ", got an integer above the float range$"
    with pytest.raises(DomainError, match="^mean_power must be finite and > 0" + above):
        RicianLink(0, 10**400)
    with pytest.raises(DomainError, match="^k_factor must be finite and >= 0" + above):
        RicianLink(10**400, 1)
    with pytest.raises(DomainError, match="^k_factor must be finite and >= 0" + above):
        RicianLink(10**400, 1.0)
    with pytest.raises(DomainError, match="^mean_power must be finite and > 0" + above):
        RicianLink(0.0, 10**400)


def test_geometry_warns_when_relay_link_is_not_stronger():
    with pytest.warns(ModelAssumptionWarning) as record:
        NetworkGeometry(sr=RicianLink(0, 2), rd=RicianLink(0, 8), sd=RicianLink(0, 3))
    # attributed to the caller, not to the dataclass-generated __init__
    assert [w.filename for w in record] == [__file__]
    # fig3-style geometry is fine
    NetworkGeometry(sr=RicianLink(0, 8), rd=RicianLink(0, 8), sd=RicianLink(0, 3))


def test_sample_mean_matches_omega():
    # K=0 is the Rayleigh case: exponential gains with mean Omega
    for k, om in [(0, 1), (3, 8)]:
        rng = split_stream(123, 0)
        x = sample_power_gains(RicianLink(k, om), rng, 10**6)
        se = x.std(ddof=1) / math.sqrt(x.size)
        assert abs(x.mean() - om) < 5 * se


def test_sample_variance_noncentral_moment():
    # Var = Omega^2 (1+2K)/(1+K)^2; K=5, Omega=3 gives 2.75
    k, om = 5, 3
    expected = om**2 * (1 + 2 * k) / (1 + k) ** 2
    assert expected == pytest.approx(2.75)
    rng = split_stream(7, 0)
    x = sample_power_gains(RicianLink(k, om), rng, 10**6)
    v = x.var(ddof=1)
    # standard error of the sample variance from the fourth moment
    m4 = np.mean((x - x.mean()) ** 4)
    se = math.sqrt((m4 - v**2) / x.size)
    assert abs(v - expected) < 5 * se


def test_sampling_is_deterministic():
    link = RicianLink(4, 2)
    xa = sample_power_gains(link, split_stream(99, 6), 64)
    xb = sample_power_gains(link, split_stream(99, 6), 64)
    assert np.array_equal(xa, xb)
    # distinct stream indices give distinct draws
    xc = sample_power_gains(link, split_stream(99, 7), 64)
    assert not np.array_equal(xa, xc)


def test_pdf_exponential_values():
    assert power_gain_pdf(RicianLink(0, 1), 0.0) == pytest.approx(1.0)
    assert power_gain_pdf(RicianLink(0, 2), 2.0) == pytest.approx(0.5 * math.exp(-1), abs=1e-12)
    assert power_gain_pdf(RicianLink(0, 2), 2.0) == pytest.approx(0.18394, abs=5e-6)


def test_pdf_rejects_negative_argument():
    with pytest.raises(DomainError):
        power_gain_pdf(RicianLink(1, 1), -0.5)
    with pytest.raises(DomainError):
        power_gain_cdf(RicianLink(1, 1), -0.5)


@pytest.mark.parametrize("call, name", [
    (lambda x: power_gain_sf(RicianLink(2, 8), x), "power gain argument"),
    (lambda x: power_gain_cdf(RicianLink(2, 8), x), "power gain argument"),
    (lambda x: power_gain_pdf(RicianLink(2, 8), x), "power gain argument"),
], ids=["sf", "cdf", "pdf"])
def test_every_gain_argument_refuses_negatives_and_nan(call, name):
    for x in (math.nan, [1.0, math.nan], -1.0):
        with pytest.raises(DomainError, match=f"^{name} must be >= 0 and not NaN$"):
            call(x)
    with pytest.raises(DomainError, match=f"^{name} must fit in a float, got an integer above the float range$"):
        call([10**400])


def q1(a: float, b):
    """Marcum Q1(a, b) as the survival of the link with K = a^2/2 and
    Omega = 1 + K, whose inverse scale is exactly 1, at x = b^2/2."""
    k = 0.5 * a * a
    return power_gain_sf(RicianLink(k, 1.0 + k), 0.5 * b * b)


@pytest.mark.parametrize("k", [0, 2, 500])
def test_an_infinite_gain_argument_passes(k):
    link = RicianLink(k, 8)
    assert (power_gain_sf(link, math.inf), power_gain_cdf(link, math.inf), power_gain_pdf(link, math.inf),
            q1(math.sqrt(2 * k), math.inf)) == (0.0, 1.0, 0.0, 0.0)


def test_pdf_matches_histogram_oracle():
    # kernel-free histogram estimate around x=8 from 1e7 draws
    link = RicianLink(3, 8)
    rng = split_stream(2024, 0)
    x = sample_power_gains(link, rng, 10**7)
    h = 0.05
    count = np.count_nonzero((x >= 8 - h / 2) & (x < 8 + h / 2))
    est = count / (x.size * h)
    assert power_gain_pdf(link, 8.0) == pytest.approx(est, rel=0.01)


def test_pdf_integrates_to_one():
    for k, om in [(0, 1), (2, 3), (10, 12)]:
        link = RicianLink(k, om)
        total, _ = integrate.quad(lambda t: power_gain_pdf(link, t), 0, np.inf, limit=200)
        assert total == pytest.approx(1.0, abs=1e-9)


def test_cdf_known_points():
    assert power_gain_cdf(RicianLink(0, 1), math.log(2)) == pytest.approx(0.5, abs=1e-12)
    for k, om in [(0, 1), (3, 8), (10, 2)]:
        assert power_gain_cdf(RicianLink(k, om), 0.0) == 0.0
        assert power_gain_sf(RicianLink(k, om), 0.0) == 1.0


def test_cdf_matches_empirical():
    link = RicianLink(3, 8)
    rng = split_stream(31337, 0)
    x = sample_power_gains(link, rng, 10**7)
    f = power_gain_cdf(link, 8.0)
    emp = np.count_nonzero(x <= 8.0) / x.size
    assert abs(f - emp) < 3 * math.sqrt(f * (1 - f) / x.size)


def test_cdf_matches_scipy_noncentral_chi2():
    # independent implementation route for the same distribution
    for k, om in [(0.5, 1), (3, 8), (10, 12)]:
        link = RicianLink(k, om)
        xs = np.linspace(0.01, 10 * om, 50)
        ref = stats.ncx2.cdf(2 * link.inv_scale * xs, df=2, nc=2 * k)
        mine = power_gain_cdf(link, xs)
        assert np.max(np.abs(ref - mine)) < 1e-10


def test_cdf_monotone_and_bounded():
    for k, om in [(0, 1), (3, 8), (10, 12)]:
        link = RicianLink(k, om)
        xs = np.linspace(0, 20 * om, 1000)
        f = power_gain_cdf(link, xs)
        assert np.all(f >= 0) and np.all(f <= 1)
        assert np.all(np.diff(f) >= -1e-15)
        assert power_gain_cdf(link, 1e4 * om) == pytest.approx(1.0, abs=1e-12)


def test_survival_matches_marcum_q1_reference_values():
    assert RicianLink(4.5, 5.5).inv_scale == 1.0
    # Q1(0, b) = exp(-b^2/2); Q1(a, 0) = 1
    assert q1(0.0, 1.5) == pytest.approx(math.exp(-1.125), abs=1e-13)
    assert q1(2.0, 0.0) == 1.0
    # cross-check against the noncentral chi-square survival
    for a, b in [(1.0, 2.0), (3.0, 1.0), (2.5, 2.5)]:
        ref = stats.ncx2.sf(b * b, df=2, nc=a * a)
        assert q1(a, b) == pytest.approx(ref, abs=1e-12)
    # vectorized over the second argument
    bs = np.linspace(0.0, 6.0, 25)
    vals = q1(1.5, bs)
    assert vals.shape == bs.shape
    assert np.allclose(vals, stats.ncx2.sf(bs * bs, df=2, nc=1.5**2), atol=1e-12)


def bessel_pdf(link, x):
    """The closed Bessel form a*exp(-K - a*x)*I0(2*sqrt(K*a*x)), scaled
    so that large K*a*x cannot overflow."""
    a = link.inv_scale
    z = 2.0 * np.sqrt(link.k_factor * a * x)
    return a * np.exp(-link.k_factor - a * x + z) * special.i0e(z)


def test_series_reconstructs_pdf():
    # the Poisson-mixture density against the closed Bessel form
    link = RicianLink(2, 1)
    assert power_gain_pdf(link, 2.0) == pytest.approx(float(bessel_pdf(link, 2.0)), abs=1e-15)


def test_series_pdf_agreement_grid():
    # up to the point where the survival falls below 1e-20; at K = 300
    # that reaches K*a*x ~ 1.7e5, where I0 alone would overflow
    for k in (0, 1, 10, 100, 300):
        link = RicianLink(k, 3)
        xs = np.linspace(0, _reach(link), 2001)
        assert np.max(np.abs(power_gain_pdf(link, xs) - bessel_pdf(link, xs))) <= 3e-13, k


def test_kernel_is_accurate_up_to_its_noncentrality_bound():
    link = RicianLink(MAX_NONCENTRALITY, 1)
    a = link.inv_scale
    xs = np.linspace(0, 3, 3001)
    ref = stats.ncx2.sf(2 * a * xs, df=2, nc=2 * MAX_NONCENTRALITY)
    pdf = 2 * stats.ncx2.pdf(2 * a * xs, df=2, nc=2 * MAX_NONCENTRALITY)
    assert np.max(np.abs(power_gain_sf(link, xs) - ref)) <= 1e-13
    assert np.max(np.abs(power_gain_pdf(link, xs) / a - pdf)) <= 1e-13


@pytest.mark.parametrize("k", [0, 3, 30, 100, 300, 500])
def test_kernel_is_accurate_on_both_sides_of_its_horner_split(k):
    # the mixture is summed from its last term down up to y* and from its
    # first term up above it; with mean power 1 + K the inverse scale is
    # 1, so the argument is y itself
    link = RicianLink(k, 1 + k)
    assert link.inv_scale == 1.0
    ys = np.linspace(0, 1500, 15001)
    sf = stats.ncx2.sf(2 * ys, df=2, nc=2 * k)
    pdf = 2 * stats.ncx2.pdf(2 * ys, df=2, nc=2 * k)
    assert np.max(np.abs(power_gain_sf(link, ys) - sf)) <= 1e-13
    assert np.max(np.abs(power_gain_pdf(link, ys)[1:] - pdf[1:])) <= 1e-13
    # the two ends meet: y* alone is summed downward, its next float upward
    y_star = channel._HORNER_SPLIT
    for fn in (power_gain_sf, power_gain_pdf):
        assert abs(fn(link, y_star) - fn(link, np.nextafter(y_star, math.inf))) <= 1e-15
    far = [1e4, 1e300, np.finfo(float).max, math.inf]
    assert power_gain_sf(link, far).tolist() == [0.0] * 4
    assert power_gain_pdf(link, far).tolist() == [0.0] * 4


@pytest.mark.parametrize("k", [0, 3, 500])
def test_an_argument_whose_scaled_value_overflows_gives_the_limits_without_a_warning(k):
    # a*x and b*b/2 overflow to +inf, where the kernel takes its limits
    link = RicianLink(k, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (1e300, 1.7e308):
            assert (power_gain_sf(link, x), power_gain_cdf(link, x), power_gain_pdf(link, x)) == (0.0, 1.0, 0.0)
        assert q1(1.0, 1e160) == 0.0


def test_kernel_stops_where_its_weights_no_longer_count(monkeypatch):
    # a tolerance below the rounding of the covered weight is never
    # reached; the weights must stop anyway, where one no longer counts
    monkeypatch.setattr(channel, "KERNEL_TOL", 1e-300)
    assert len(poisson_weights(27.3)) < 100
    # the depth is bounded without a cap: 694 weights at the largest K
    assert len(poisson_weights(MAX_NONCENTRALITY)) <= 700
    link = RicianLink(27.3, 1)
    xs = np.linspace(0, 5, 101)
    ref = stats.ncx2.sf(2 * link.inv_scale * xs, df=2, nc=2 * 27.3)
    assert np.max(np.abs(power_gain_sf(link, xs) - ref)) <= 1e-14


@pytest.mark.parametrize("k", [0, 0.5, 3, 30, 500])
def test_survival_is_exactly_one_at_zero(k):
    # the weight left out is settled so that the first upper tail is 1
    link = RicianLink(k, 2)
    assert power_gain_sf(link, 0.0) == 1.0
    assert power_gain_cdf(link, 0.0) == 0.0
    assert power_gain_sf(link, np.zeros(3)).tolist() == [1.0, 1.0, 1.0]


@pytest.mark.parametrize("k", [0, 0.5, 1, 3, 10, 30])
def test_survival_and_density_match_noncentral_chi2(k):
    # a*gain is half a noncentral chi-square with df 2 and nc 2K; the
    # density is compared in y = a*x, where the kernel sums it.  SciPy
    # puts the density at y = 0 at 0; there it is e^-K.
    link = RicianLink(k, 1.5)
    a = link.inv_scale
    xs = np.linspace(0, 40, 4001)[1:]
    sf = stats.ncx2.sf(2 * a * xs, df=2, nc=2 * k)
    pdf = 2 * stats.ncx2.pdf(2 * a * xs, df=2, nc=2 * k)
    assert np.max(np.abs(power_gain_sf(link, xs) - sf)) <= 1e-13
    assert np.max(np.abs(power_gain_pdf(link, xs) / a - pdf)) <= 1e-13
    assert power_gain_pdf(link, 0.0) / a == pytest.approx(math.exp(-k), rel=1e-15)


def test_kernel_refuses_noncentrality_where_it_underflows():
    # Q1(40, 40) is 0.505, but e^-800 underflows and the series summed to 0
    with pytest.raises(DomainError, match="noncentrality"):
        q1(40.0, 40.0)
    for fn in (power_gain_sf, power_gain_cdf, power_gain_pdf):
        with pytest.raises(DomainError, match="noncentrality"):
            fn(RicianLink(700, 1), 1.0)
    # sampling does not use the kernel
    assert sample_power_gains(RicianLink(800, 1), split_stream(1, 0), 4).shape == (4,)


def test_kolmogorov_smirnov_sample_against_cdf():
    # spot check; the acceptance suite runs the full (K, Omega) grid
    link = RicianLink(3, 8)
    rng = split_stream(5150, 0)
    x = np.sort(sample_power_gains(link, rng, 10**6))
    f = power_gain_cdf(link, x)
    n = x.size
    d_plus = np.max(np.arange(1, n + 1) / n - f)
    d_minus = np.max(f - np.arange(0, n) / n)
    crit = stats.kstwobign.isf(0.01) / math.sqrt(n)
    assert max(d_plus, d_minus) < crit


def test_a_link_builds_its_poisson_tails_once_on_first_kernel_use(monkeypatch):
    # far above the kernel's bound, a link still builds and samples; the
    # kernel refuses it on first use
    huge = RicianLink(1e308, 1.0)
    assert np.all(np.isfinite(sample_power_gains(huge, split_stream(1, 0), 8)))
    with pytest.raises(DomainError, match=r"noncentrality K = 1e\+308 is above 500"):
        power_gain_sf(huge, 1.0)
    # the depth is read when the tails are built, so a link built after a
    # change of tolerance has the new depth
    shallow = len(poisson_weights(27.3))
    monkeypatch.setattr(channel, "KERNEL_TOL", 1e-300)
    deep = RicianLink(27.3, 1)
    power_gain_sf(deep, 1.0)
    assert len(deep._tails) == len(poisson_weights(27.3)) > shallow


def test_a_sweep_builds_each_links_poisson_weights_once(monkeypatch):
    calls = []
    real = channel.poisson_weights
    monkeypatch.setattr(channel, "poisson_weights", lambda mean: calls.append(mean) or real(mean))
    cfg = parse_config("preset = fig3\n[geometry]\nk = 3\n[sweep]\nrho_db = 5, 15, 25\n"
                       "schemes = crs_noma, conventional, crs_oma\nmodes = paper, exact\n"
                       "estimators = quadrature_oracle, series_corrected, series_paper_literal\n")
    run_sweep(cfg)
    assert calls == [3.0, 3.0, 3.0]
