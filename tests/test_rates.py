import math
import re

import numpy as np
import pytest

from ratelab import (
    NetworkGeometry,
    PowerSplit,
    conventional_noma_rate,
    crs_noma_rate,
    crs_oma_rate,
    ergodic_rate_quadrature_quantities,
    ergodic_rate_series,
    estimate_rates,
    RicianLink,
    paired_gap,
    power_gain_sf,
)
from ratelab import montecarlo
from ratelab.errors import DomainError
from ratelab.rates import PAPER_SPLIT, RateTerms


R1 = (2.0, 3.0, 1.0)  # lambda_sr, lambda_rd, lambda_sd
FIG3 = NetworkGeometry(sr=RicianLink(0, 8), rd=RicianLink(0, 8), sd=RicianLink(0, 3))


def test_realization_rejects_bad_gains():
    # a rate function checks a bare triple of gains
    for rate in (lambda r: crs_noma_rate(r, 10.0, "paper"), lambda r: crs_noma_rate(r, 10.0, "exact"),
                 lambda r: conventional_noma_rate(r, 10.0, PowerSplit(0.1)), lambda r: crs_oma_rate(r, 10.0)):
        with pytest.raises(DomainError, match="^lambda_sr must be finite and >= 0$"):
            rate((-1.0, math.nan, 3.0))
        with pytest.raises(DomainError, match="^lambda_sd must be finite and >= 0$"):
            rate((np.ones(2), np.ones(2), np.array([1.0, -1.0])))


def test_rate_terms_check_the_gains_they_are_built_from():
    # terms built from outside gains took them unchecked, and each rate
    # evaluated on them gave a NaN c_total
    with pytest.raises(DomainError, match="^lambda_sr must be finite and >= 0$"):
        RateTerms((-1.0, math.nan, 3.0), 2.0)
    # where the rho is bad too, the gains are reported
    for call in (lambda: RateTerms((-1.0, 1.0, 1.0), -1.0), lambda: crs_oma_rate((-1.0, 1.0, 1.0), -1.0)):
        with pytest.raises(DomainError, match="^lambda_sr must be finite and >= 0$"):
            call()
    # a scalar gain beside arrays broadcasts
    scalar = crs_noma_rate((2.0, np.array([1.0, 3.0]), np.array([0.5, 4.0])), 10.0, "exact")
    full = crs_noma_rate((np.full(2, 2.0), np.array([1.0, 3.0]), np.array([0.5, 4.0])), 10.0, "exact")
    assert scalar.c_total.tobytes() == full.c_total.tobytes()


GAIN_ARRAYS = (np.array([2.0, 0.0, 5.0]), np.array([3.0, 1.0, 0.0]), np.array([1.0, 4.0, 0.5]))


def _terms_at(rho, work):
    """RateTerms of GAIN_ARRAYS at rho: allocating, or on a block
    workspace, which takes its gains and rho unchecked."""
    if not work:
        return RateTerms(GAIN_ARRAYS, rho)
    workspace = montecarlo._Workspace(3)
    rows = [workspace.take() for _ in GAIN_ARRAYS]
    for row, g in zip(rows, GAIN_ARRAYS):
        row[:] = g
    return RateTerms(rows, rho, work=workspace)


RATE_CALLS = {
    "crs_noma_rate": lambda r, rho: crs_noma_rate(r, rho, "exact"),
    "conventional_noma_rate": lambda r, rho: conventional_noma_rate(r, rho, PAPER_SPLIT),
    "crs_oma_rate": crs_oma_rate,
}


@pytest.mark.parametrize("work", [False, True], ids=["allocating", "workspace"])
@pytest.mark.parametrize("name", sorted(RATE_CALLS))
def test_the_public_refusals_survive_the_rate_terms_fast_paths(name, work):
    # terms skip the checks of a rho they hold and of a workspace's
    # gains; a call with other inputs is refused all the same
    rho = 10.0
    terms = _terms_at(rho, work)
    call = RATE_CALLS[name]
    call(terms, rho)
    # an equal rho that is another float object passes, and so does an int
    same = float(repr(rho))
    assert same is not rho
    fresh = call(GAIN_ARRAYS, rho)
    for given in (same, 10):
        assert call(terms, given).c_total.tobytes() == fresh.c_total.tobytes()
    for other in (rho + 1.0, 0.0):
        with pytest.raises(DomainError, match=f"^rate terms of rho 10.0 used at rho {other}$"):
            call(terms, other)
    with pytest.raises(DomainError, match="^rho must be finite and >= 0, got nan$"):
        call(terms, math.nan)
    if name == "crs_noma_rate":
        # an array mode too, which a bare `in` test would let out as a ValueError
        for mode in ("bogus", None, np.array("paper"), np.array(["paper", "exact"]), ["paper"]):
            with pytest.raises(DomainError, match=r"^unknown value .* \(allowed: paper, exact\)$"):
                crs_noma_rate(terms, rho, mode)
    if name == "conventional_noma_rate":
        for split in (0.1, None, "0.1"):
            with pytest.raises(DomainError, match="^split must be a PowerSplit, got "):
                conventional_noma_rate(terms, rho, split)


@pytest.mark.parametrize("gains, message", [
    ((10**400, 1.0, 1.0), "lambda_sr must be finite and >= 0, got an integer above the float range"),
    (([1.0, 2.0, 3.0], [1.0, 2.0], [1.0, 2.0, 3.0]),
     re.escape("the gains' shapes must broadcast together, got [(3,), (2,), (3,)]")),
    ((1.0, 2.0), "gains must be three, lambda_sr, lambda_rd and lambda_sd, got 2"),
], ids=["int-above-float-range", "shapes-that-do-not-broadcast", "pair"])
@pytest.mark.parametrize("call", [lambda g: RateTerms(g, 1.0), lambda g: crs_noma_rate(g, 1.0, "paper")],
                         ids=["RateTerms", "crs_noma_rate"])
def test_a_bad_gains_input_is_one_domain_error(call, gains, message):
    # each used to escape as a TypeError, ValueError or OverflowError, or to build
    with pytest.raises(DomainError, match=f"^{message}$"):
        call(gains)


_OBJECT = object()
_GAINS_RULE = "lambda_sr must be finite and >= 0"
_RHO_RULE = "rho must be finite and >= 0"


@pytest.mark.parametrize("call, message", [
    (lambda: crs_noma_rate(5.0, 1.0, "paper"), "gains must be three, lambda_sr, lambda_rd and lambda_sd, got 5.0"),
    (lambda: RateTerms(np.array(5.0), 1.0),
     re.escape("gains must be three, lambda_sr, lambda_rd and lambda_sd, got array(5.)")),
    (lambda: crs_noma_rate(("a", 1.0, 1.0), 1.0, "paper"), f"{_GAINS_RULE}, got 'a'"),
    (lambda: crs_oma_rate((_OBJECT, 1, 1), 1.0), f"{_GAINS_RULE}, got <object objec\\.\\.\\.[0-9a-fx]+>"),
    (lambda: RicianLink("a", 8), "k_factor must be finite and >= 0, got 'a'"),
    (lambda: RicianLink(None, 8), "k_factor must be finite and >= 0, got None"),
    (lambda: RicianLink(3, "x" * 1000), re.escape(f"mean_power must be finite and > 0, got '{'x' * 12}...{'x' * 13}'")),
    (lambda: power_gain_sf(RicianLink(0, 8), "a"), "power gain argument must fit in a float, got 'a'"),
    (lambda: crs_oma_rate(R1, "a"), f"{_RHO_RULE}, got 'a'"),
    (lambda: conventional_noma_rate(R1, None), f"{_RHO_RULE}, got None"),
    (lambda: ergodic_rate_series(FIG3, "a"), f"{_RHO_RULE}, got 'a'"),
    (lambda: ergodic_rate_quadrature_quantities(FIG3, [1.0, None], "crs_oma"), f"{_RHO_RULE}, got None"),
    (lambda: estimate_rates(FIG3, None, trials=10), f"{_RHO_RULE}, got None"),
    (lambda: estimate_rates(FIG3, [1.0, "a"], trials=10), f"{_RHO_RULE}, got 'a'"),
    (lambda: ergodic_rate_series(FIG3, [1.0, [2.0, 3.0]]),
     re.escape("rho must be one number or a sequence, got [1.0, [2.0, 3.0]]")),
    (lambda: PowerSplit("a"), "need 0 < a2 < 0.5, got 'a'"),
    (lambda: PowerSplit(10**400), "need 0 < a2 < 0.5, got an integer above the float range"),
], ids=["gains-scalar", "gains-0d-array", "gain-str", "gain-object", "k-str", "k-none", "power-long-str",
        "sf-argument-str", "rho-str", "rho-none", "series-rho-str", "oracle-rho-none", "monte-carlo-rho-none",
        "monte-carlo-rho-str", "ragged-rho", "split-str", "split-int-above-float-range"])
def test_a_library_input_that_is_not_a_number_is_one_domain_error(call, message):
    # each escaped as a TypeError, ValueError or OverflowError traceback
    with pytest.raises(DomainError, match=f"^{message}$"):
        call()


def test_inputs_float_reads_keep_their_floats():
    # ints, NumPy scalars, 0-d arrays and numeric strings convert as float() does
    for k, omega in ((3, 8), (np.int64(3), np.float32(8.0)), (np.array(3.0), "8"), ("3", np.array(8))):
        assert RicianLink(k, omega) == RicianLink(3.0, 8.0)
    want = crs_noma_rate(R1, 10.0, "exact").c_total
    for gains, rho in (((2, 3, 1), 10), (("2", np.float64(3.0), np.array(1.0)), np.int32(10)),
                       ((np.array(2.0), 3.0, "1e0"), np.array(10.0))):
        assert crs_noma_rate(gains, rho, "exact").c_total == want
    assert PowerSplit(np.float64(0.1)) == PowerSplit(np.array(0.1)) == PAPER_SPLIT


def test_power_split_validation():
    # one number, a2; a1 = 1 - a2 is the float the published pair names
    assert (PowerSplit(0.1).a1, PowerSplit(0.1).a2) == (0.9, 0.1) and PAPER_SPLIT == PowerSplit(0.1)
    assert [PowerSplit(a2).a1 for a2 in (0.2, 0.25, 0.4)] == [0.8, 0.75, 0.6]
    for a2 in (0.5, 0.0, -0.2, 0.6, float("nan")):  # a1 > a2 > 0 required
        with pytest.raises(DomainError, match=r"^need 0 < a2 < 0\.5, got "):
            PowerSplit(a2)


def test_snrs_exact_mode_hand_value():
    # gamma_SR = 20, gamma_SD = 10 and exact-mode gamma_RD = 30/11, the
    # min's binding argument; paper mode's gamma_RD = 30 leaves gamma_SR
    exact = crs_noma_rate(R1, 10.0, "exact")
    assert exact.c_relay_s1 == pytest.approx(0.5 * math.log2(1.0 + min(20.0, 30.0 / 11.0)))
    assert crs_noma_rate(R1, 10.0, "paper").c_relay_s1 == pytest.approx(0.5 * math.log2(1.0 + 20.0))
    assert exact.c_direct_s1 == pytest.approx(0.5 * math.log2(1.0 + 10.0))
    assert exact.c_s2 == exact.c_direct_s1


def test_snrs_modes_coincide_without_direct_link():
    # without an S-D gain gamma_RD = rho*lambda_RD in both modes; in the
    # second realization it is the min's binding argument
    for r in ((2.0, 3.0, 0.0), (3.0, 2.0, 0.0)):
        lambda_sr, lambda_rd, _ = r
        exact, paper = crs_noma_rate(r, 7.0, "exact"), crs_noma_rate(r, 7.0, "paper")
        assert exact.c_relay_s1 == paper.c_relay_s1
        assert exact.c_relay_s1 == pytest.approx(0.5 * math.log2(1.0 + 7.0 * min(lambda_sr, lambda_rd)))
        assert (exact.c_direct_s1, exact.c_s2) == (paper.c_direct_s1, paper.c_s2) == (0.0, 0.0)


def test_snrs_zero_rho():
    for mode in ("paper", "exact"):
        b = crs_noma_rate(R1, 0.0, mode)
        assert (b.c_relay_s1, b.c_direct_s1, b.c_s2, b.c_s1, b.c_total) == (0, 0, 0, 0, 0)


def test_snrs_rejects_negative_rho_and_bad_mode():
    with pytest.raises(DomainError):
        crs_noma_rate(R1, -1.0, "paper")
    with pytest.raises(DomainError):
        crs_noma_rate(R1, 1.0, "bogus")
    # the mode has no default, as paper mode is the default everywhere else
    with pytest.raises(TypeError, match="mode"):
        crs_noma_rate(R1, 1.0)


@pytest.mark.parametrize("rho", [math.inf, math.nan, pytest.param(10**400, id="10**400")])
def test_every_rate_entry_point_refuses_a_non_finite_rho(rho):
    # at rho = inf a zero gain makes inf*0, a NaN rate; an int above the
    # float range compares as finite but has no float
    r = ([0.0, 1.0], [1.0, 2.0], [0.0, 3.0])
    geometry = FIG3
    calls = (lambda: RateTerms(r, rho),
             lambda: crs_noma_rate(r, rho, "exact"), lambda: crs_noma_rate(r, rho, "paper"),
             lambda: conventional_noma_rate(r, rho, PowerSplit(0.1)), lambda: crs_oma_rate(r, rho),
             lambda: estimate_rates(geometry, rho, ("crs_noma",), trials=10),
             # the series and the oracle take the same rule, then also refuse rho = 0
             lambda: ergodic_rate_series(geometry, rho),
             lambda: ergodic_rate_quadrature_quantities(geometry, rho, "crs_oma"))
    for call in calls:
        with pytest.raises(DomainError, match="rho must be finite and >= 0"):
            call()


@pytest.mark.parametrize("rho", [[1.0, 2.0], [1.0], np.array([1.0, 2.0])], ids=["list", "one-element-list", "array"])
@pytest.mark.parametrize("call", [
    lambda rho: RateTerms(R1, rho),
    lambda rho: crs_noma_rate(R1, rho, "paper"),
    lambda rho: conventional_noma_rate(R1, rho, PowerSplit(0.1)),
    lambda rho: crs_oma_rate(R1, rho),
    lambda rho: paired_gap(FIG3, rho, "crs_noma", "crs_oma", trials=10),
], ids=["RateTerms", "crs_noma_rate", "conventional_noma_rate", "crs_oma_rate", "paired_gap"])
def test_a_one_rho_entry_refuses_a_sequence_of_rho(call, rho):
    with pytest.raises(DomainError, match=r"^rho must be one number, got "):
        call(rho)


def test_crs_noma_paper_powers_of_two():
    r = (1.0, 1.0, 1.0)
    b = crs_noma_rate(r, 3.0, "paper")
    assert b.c_total == pytest.approx(3.0)
    assert b.c_relay_s1 == pytest.approx(1.0)
    assert b.c_direct_s1 == pytest.approx(1.0)


def test_crs_noma_exact_hand_value():
    r = (7.0, 3.0, 1.0)
    b = crs_noma_rate(r, 1.0, "exact")
    assert b.c_relay_s1 == pytest.approx(0.5 * math.log2(2.5))
    assert b.c_relay_s1 == pytest.approx(0.66096, abs=1e-5)
    assert b.c_direct_s1 == pytest.approx(0.5)
    assert b.c_total == pytest.approx(1.66096, abs=1e-5)

    # same input in paper mode: the dropped interference term raises the total
    bp = crs_noma_rate(r, 1.0, "paper")
    assert bp.c_total == pytest.approx(2.0)


def test_crs_noma_paper_mode_reduces_to_min_form():
    rng = np.random.default_rng(11)
    for _ in range(200):
        lam = rng.exponential(3.0, size=3)
        rho = float(rng.exponential(20.0))
        b = crs_noma_rate(lam, rho, "paper")
        want = 0.5 * math.log2(1 + min(lam[1], lam[0]) * rho) + math.log2(1 + lam[2] * rho)
        assert b.c_total == pytest.approx(want, rel=1e-13)


def test_conventional_hand_value():
    split = PowerSplit(0.1)
    r = (4.0, 2.0, 1.0)
    b = conventional_noma_rate(r, 10.0, split)
    assert b.c_s1 == pytest.approx(0.5 * math.log2(5.5))
    assert b.c_s1 == pytest.approx(1.22972, abs=1e-5)
    assert b.c_s2 == pytest.approx(0.5 * math.log2(5.0))
    assert b.c_s2 == pytest.approx(1.16096, abs=1e-5)
    assert b.c_total == pytest.approx(2.39068, abs=1e-5)


def test_conventional_no_power_on_s2():
    split = PowerSplit(1e-12)
    b = conventional_noma_rate(R1, 10.0, split)
    assert b.c_s2 == pytest.approx(0.0, abs=1e-10)


def test_conventional_symmetric_min_arguments():
    split = PowerSplit(0.1)
    r = (2.5, 1.0, 2.5)
    b = conventional_noma_rate(r, 5.0, split)
    one_arm = 0.5 * math.log2(1 + 0.9 * 5 * 2.5 / (0.1 * 5 * 2.5 + 1))
    assert b.c_s1 == pytest.approx(one_arm, rel=1e-14)


def test_crs_oma_values():
    assert crs_oma_rate((1.0, 1.0, 0.0), 3.0).c_total == pytest.approx(1.0)
    b = crs_oma_rate((3.0, 1.0, 1.0), 1.0)
    assert b.c_total == pytest.approx(0.5 * math.log2(3))
    assert b.c_total == pytest.approx(0.79248, abs=1e-5)
    assert crs_oma_rate(R1, 0.0).c_total == 0.0


def test_monotone_in_rho():
    rng = np.random.default_rng(3)
    rhos = np.concatenate(([0.0], np.logspace(-3, 3, 60)))
    for _ in range(25):
        lam = rng.exponential(2.0, size=3)
        r = lam
        split = PowerSplit(0.1)
        for fn in (
            lambda rho: crs_noma_rate(r, rho, "exact").c_total,
            lambda rho: crs_noma_rate(r, rho, "paper").c_total,
            lambda rho: conventional_noma_rate(r, rho, split).c_total,
            lambda rho: crs_oma_rate(r, rho).c_total,
        ):
            vals = [fn(rho) for rho in rhos]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_mode_dominance():
    rng = np.random.default_rng(17)
    lam = rng.exponential(4.0, size=(3, 2000))
    r = (lam[0], lam[1], lam[2])
    for rho in (0.1, 1.0, 31.6, 316.0):
        paper = crs_noma_rate(r, rho, "paper").c_total
        exact = crs_noma_rate(r, rho, "exact").c_total
        assert np.all(paper >= exact - 1e-12)


def test_mode_equality_conditions():
    # no direct link: the interference term vanishes, modes coincide
    r = (2.0, 5.0, 0.0)
    assert crs_noma_rate(r, 7.0, "paper").c_total == crs_noma_rate(r, 7.0, "exact").c_total
    # S-R branch is the bottleneck in both modes: the relay SNR never enters
    r = (0.01, 50.0, 1.0)
    assert crs_noma_rate(r, 1.0, "paper").c_total == crs_noma_rate(r, 1.0, "exact").c_total
    # direct link present and R-D branch binding: strict dominance
    r = (50.0, 1.0, 1.0)
    assert crs_noma_rate(r, 1.0, "paper").c_total > crs_noma_rate(r, 1.0, "exact").c_total


def test_decomposition_identity():
    rng = np.random.default_rng(23)
    split = PowerSplit(0.1)
    for _ in range(300):
        r = rng.exponential(2.0, size=3)
        rho = float(rng.exponential(30.0))
        for b in (
            crs_noma_rate(r, rho, "paper"),
            crs_noma_rate(r, rho, "exact"),
            conventional_noma_rate(r, rho, split),
            crs_oma_rate(r, rho),
        ):
            assert b.c_total == b.c_s1 + b.c_s2
        b = crs_noma_rate(r, rho, "exact")
        assert b.c_s1 == b.c_relay_s1 + b.c_direct_s1


def test_a_breakdown_sums_its_c_s1_once():
    # c_total adds c_s2 to the held c_s1 rather than to a second sum
    r = ([0.5, 2.0], [1.0, 3.0], [0.2, 4.0])
    for mode in ("paper", "exact"):
        b = crs_noma_rate(r, 10.0, mode)
        assert b.c_s1 is b.c_s1
        assert b.c_total.tobytes() == (b.c_relay_s1 + b.c_direct_s1 + b.c_s2).tobytes()


def test_zero_channel_zero_rates():
    r = (0.0, 0.0, 0.0)
    split = PowerSplit(0.1)
    for rho in (0.0, 1.0, 100.0):
        assert crs_noma_rate(r, rho, "paper").c_total == 0.0
        assert crs_noma_rate(r, rho, "exact").c_total == 0.0
        assert conventional_noma_rate(r, rho, split).c_total == 0.0
        assert crs_oma_rate(r, rho).c_total == 0.0


def test_paper_mode_scale_invariance():
    rng = np.random.default_rng(29)
    for _ in range(100):
        lam = rng.exponential(2.0, size=3)
        rho = float(rng.exponential(10.0))
        a = crs_noma_rate(lam, rho, "paper")
        b = crs_noma_rate(lam / 2.0, 2.0 * rho, "paper")
        assert a.c_total == b.c_total


def _reference_rates(lsr, lrd, lsd, rho, token, a1=0.9, a2=0.1):
    """(c_relay_s1, c_direct_s1, c_s2) written out as one expression per
    rate, each product and sum in the order the rate functions take it."""
    if token.startswith("crs_noma"):
        gamma_rd = rho * lrd / (rho * lsd + 1.0) if token == "crs_noma_exact" else rho * lrd
        direct = 0.5 * np.log2(1.0 + rho * lsd)
        return 0.5 * np.minimum(np.log2(1.0 + gamma_rd), np.log2(1.0 + rho * lsr)), direct, direct
    if token == "conventional":
        c_s1 = 0.5 * np.minimum(np.log2(1.0 + a1 * rho * lsd / (a2 * rho * lsd + 1.0)),
                                np.log2(1.0 + a1 * rho * lsr / (a2 * rho * lsr + 1.0)))
        return c_s1, 0.0, 0.5 * np.minimum(np.log2(1.0 + a2 * rho * lsr), np.log2(1.0 + rho * lrd))
    return 0.5 * np.minimum(np.log2(1.0 + rho * lsr), np.log2(1.0 + rho * lsd + rho * lrd)), 0.0, 0.0


@pytest.mark.parametrize("rho", [0.0, 1.0, 10.0, 1e3])
def test_rate_arrays_equal_their_written_out_expressions(rho):
    # element by element: a regrouped product such as a1*(rho*lambda) moves
    # single elements by an ulp, which a Monte-Carlo mean can hide
    rng = np.random.default_rng(31)
    n = 5000
    gains = [rng.exponential(size=n) * rng.choice([0.0, 1.0, 50.0], size=n) for _ in range(3)]
    split = PowerSplit(0.1)
    for token, rates in (("crs_noma_paper", crs_noma_rate(gains, rho, "paper")),
                         ("crs_noma_exact", crs_noma_rate(gains, rho, "exact")),
                         ("conventional", conventional_noma_rate(gains, rho, split)),
                         ("crs_oma", crs_oma_rate(gains, rho))):
        ref = _reference_rates(*gains, rho, token)
        got = (rates.c_relay_s1, rates.c_direct_s1, rates.c_s2)
        for a, b in zip(got, ref):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), token
