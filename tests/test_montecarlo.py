import hashlib
import math
import os
import re
import subprocess
import sys
import time
import warnings
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ratelab import (
    NetworkGeometry,
    PowerSplit,
    ergodic_rate_quadrature_quantities,
    estimate_rates,
    make_link,
    paired_gap,
)
import ratelab
from ratelab import montecarlo
from ratelab.channel import sample_power_gains, split_stream
from ratelab.errors import DomainError, ModelAssumptionWarning
from ratelab.montecarlo import BLOCK_SIZE, QUANTITIES
from ratelab.rates import (
    RATES,
    RateTerms,
    conventional_noma_rate,
    crs_noma_rate,
    crs_oma_rate,
    rate_token,
)
from ratelab.sweep import (
    PAPER_TARGETS,
    calibrate_k,
    db_to_linear,
    discrepancy_report,
    parse_config,
    preset_geometry,
    render_csv,
    render_discrepancy_csv,
    run_sweep,
)

SPLIT = PowerSplit(0.9, 0.1)


def fig3_geometry(k=0.0):
    return NetworkGeometry(sr=make_link(k, 8), rd=make_link(k, 8), sd=make_link(k, 3))


def test_validation():
    g = fig3_geometry()
    with pytest.raises(DomainError):
        estimate_rates(g, 1.0, trials=0)
    with pytest.raises(DomainError):
        estimate_rates(g, -1.0)
    with pytest.raises(DomainError):
        estimate_rates(g, 1.0, schemes=("wat",), trials=10)
    with pytest.raises(DomainError):
        estimate_rates(g, 1.0, schemes=("conventional",), split=None, trials=10)
    with pytest.raises(DomainError):
        paired_gap(g, 1.0, "crs_noma", "crs_oma", quantity="nope", trials=10)
    with pytest.raises(DomainError, match="seed must be >= 0"):
        estimate_rates(g, 1.0, trials=10, seed=-1)
    with pytest.raises(DomainError, match="seed must be >= 0"):
        paired_gap(g, 1.0, "crs_noma", "crs_oma", trials=10, seed=-1)
    with pytest.raises(DomainError):
        estimate_rates(g, [1.0, float("nan")], ("crs_noma",), trials=10)
    with pytest.raises(DomainError, match="rho must be finite and >= 0, got inf"):
        estimate_rates(g, float("inf"), ("crs_noma",), trials=10)
    with pytest.raises(DomainError, match="rho must be finite"):
        paired_gap(g, float("inf"), "crs_noma", "crs_oma", trials=10)


def test_every_conventional_entry_point_takes_one_split_rule(monkeypatch):
    def no_blocks(*args):
        raise AssertionError("a block ran before the split was checked")

    monkeypatch.setattr(montecarlo, "_run_blocks", no_blocks)
    g = fig3_geometry()
    calls = (lambda: estimate_rates(g, 1.0, ("conventional",), split=(0.9, 0.1), trials=10),
             lambda: paired_gap(g, 1.0, "crs_noma", "conventional", split=(0.9, 0.1), trials=10),
             lambda: conventional_noma_rate((1.0, 1.0, 1.0), 1.0, (0.9, 0.1)),
             lambda: ergodic_rate_quadrature_quantities(g, 1.0, "conventional", (0.9, 0.1)))
    for call in calls:
        with pytest.raises(DomainError, match=r"^the conventional scheme needs a PowerSplit, got \(0\.9, 0\.1\)$"):
            call()


@pytest.mark.parametrize("rho, schemes, counts", [([], ("crs_noma",), "0 rho(s), 1 scheme(s)"),
                                                   (1.0, (), "1 rho(s), 0 scheme(s)")], ids=["no-rho", "no-scheme"])
def test_an_empty_rho_or_scheme_list_is_refused_before_any_block(rho, schemes, counts, monkeypatch):
    # it used to draw every block and return []
    monkeypatch.setattr(montecarlo, "_run_blocks", lambda *args: pytest.fail("a block ran"))
    with pytest.raises(DomainError, match=f"^rho and schemes must be nonempty, got {re.escape(counts)}$"):
        estimate_rates(fig3_geometry(), rho, schemes, trials=10**7)


def test_a_single_trial_has_a_zero_standard_error():
    res = estimate_rates(fig3_geometry(), 1.0, ("crs_noma", "conventional", "crs_oma"), split=SPLIT, trials=1)
    assert len(res) == 3 * len(QUANTITIES)
    assert all(r.std_err == 0.0 and math.isfinite(r.mean) for r in res)


@pytest.mark.parametrize("k", [1e300, 3e307, 1e308])
def test_a_huge_k_gives_the_deterministic_channel_rate(k):
    # from about K = 2.2e307, K*Omega overflows at these powers; the
    # line-of-sight power still tends to Omega, and the gains to their means
    g = preset_geometry("fig3", k)
    assert all(link.los_power <= link.mean_power for link in (g.sr, g.rd, g.sd))
    rho = 10.0
    res = estimate_rates(g, rho, ("crs_noma",), "paper", trials=1000, seed=5)
    c_total = next(r.mean for r in res if r.quantity == "c_total")
    want = 0.5 * math.log2(1.0 + rho * min(g.sr.mean_power, g.rd.mean_power)) + math.log2(1.0 + rho * g.sd.mean_power)
    assert c_total == pytest.approx(want, abs=1e-9)


def test_result_shape_and_fields():
    g = fig3_geometry()
    res = estimate_rates(g, 3.16, ("crs_noma", "crs_oma"), "paper", SPLIT, trials=5000, seed=3)
    assert len(res) == 2 * len(QUANTITIES)
    for r in res:
        assert r.trials == 5000 and r.seed == 3
        assert r.std_err >= 0.0
        assert math.isfinite(r.mean)


def test_bit_identical_reruns():
    g = fig3_geometry(2.0)
    a = estimate_rates(g, 10.0, ("crs_noma", "conventional"), "exact", SPLIT, trials=3 * BLOCK_SIZE // 2, seed=77)
    b = estimate_rates(g, 10.0, ("crs_noma", "conventional"), "exact", SPLIT, trials=3 * BLOCK_SIZE // 2, seed=77)
    assert a == b


def test_worker_count_does_not_change_results():
    g = fig3_geometry(1.0)
    trials = 4 * BLOCK_SIZE + 123
    one = estimate_rates(g, 10.0, ("crs_noma",), "paper", SPLIT, trials=trials, seed=5, workers=1)
    few = estimate_rates(g, 10.0, ("crs_noma",), "paper", SPLIT, trials=trials, seed=5, workers=4)
    assert one == few
    g1 = paired_gap(g, 10.0, "crs_noma", "conventional", "paper", SPLIT, trials=trials, seed=5, workers=1)
    g4 = paired_gap(g, 10.0, "crs_noma", "conventional", "paper", SPLIT, trials=trials, seed=5, workers=4)
    assert g1 == g4


def test_seed_changes_results():
    g = fig3_geometry()
    a = estimate_rates(g, 10.0, ("crs_noma",), "paper", SPLIT, trials=2000, seed=1)
    b = estimate_rates(g, 10.0, ("crs_noma",), "paper", SPLIT, trials=2000, seed=2)
    assert a[0].mean != b[0].mean


def test_agrees_with_quadrature_oracle():
    g = fig3_geometry()
    rho = 10 ** 0.5
    res = estimate_rates(g, rho, ("crs_noma", "conventional", "crs_oma"), "paper", SPLIT,
                         trials=10**6, seed=42)
    for scheme, token in (("crs_noma", "crs_noma_paper"), ("conventional", "conventional"),
                          ("crs_oma", "crs_oma")):
        q = ergodic_rate_quadrature_quantities(g, rho, token, SPLIT)
        r = next(x for x in res if x.scheme == scheme and x.quantity == "c_total")
        assert abs(r.mean - q["c_total"]) < max(3 * r.std_err, 5e-3), scheme


def test_vanishing_direct_link_kills_s2():
    g = NetworkGeometry(sr=make_link(0, 8), rd=make_link(0, 8), sd=make_link(0, 1e-9))
    res = estimate_rates(g, 10.0, ("crs_noma",), "paper", SPLIT, trials=10**5, seed=9)
    s2 = next(r.mean for r in res if r.quantity == "c_s2")
    assert s2 < 1e-6


def test_paired_gap_identical_schemes_is_exactly_zero():
    g = fig3_geometry()
    r = paired_gap(g, 10.0, "crs_noma", "crs_noma", "paper", SPLIT, trials=5000, seed=11)
    assert r.mean == 0.0 and r.std_err == 0.0
    for token in RATES:
        r = paired_gap(g, 10.0, token, token, "paper", SPLIT, trials=BLOCK_SIZE + 5000, seed=11)
        assert (r.mean, r.std_err, r.rho) == (0.0, 0.0, 10.0)


def test_paired_gap_mode_dominance():
    g = fig3_geometry(3.0)
    for rho_db in (5, 15, 25):
        r = paired_gap(g, 10 ** (rho_db / 10), "crs_noma_paper", "crs_noma_exact",
                       trials=10**5, seed=13)
        assert r.mean >= 0.0
        assert r.scheme == "crs_noma_paper-crs_noma_exact"


def test_paired_gap_variance_is_below_unpaired():
    g = fig3_geometry()
    rho = 10 ** 0.5
    trials = 2 * 10**5
    gap = paired_gap(g, rho, "crs_noma", "conventional", "paper", SPLIT, trials=trials, seed=21)
    res = estimate_rates(g, rho, ("crs_noma", "conventional"), "paper", SPLIT, trials=trials, seed=21)
    se = {r.scheme: r.std_err for r in res if r.quantity == "c_total"}
    unpaired = math.hypot(se["crs_noma"], se["conventional"])
    assert gap.std_err <= unpaired
    # and the point estimate matches the difference of the coupled means
    means = {r.scheme: r.mean for r in res if r.quantity == "c_total"}
    assert gap.mean == pytest.approx(means["crs_noma"] - means["conventional"], abs=1e-12)


def test_std_err_scaling_with_trials():
    g = fig3_geometry()
    ratios = []
    for seed in range(12):
        a = estimate_rates(g, 10.0, ("crs_noma",), "paper", SPLIT, trials=20_000, seed=seed)
        b = estimate_rates(g, 10.0, ("crs_noma",), "paper", SPLIT, trials=40_000, seed=seed)
        sa = next(r.std_err for r in a if r.quantity == "c_total")
        sb = next(r.std_err for r in b if r.quantity == "c_total")
        ratios.append(sb / sa)
    mean_ratio = float(np.mean(ratios))
    assert 1 / math.sqrt(2) - 0.1 <= mean_ratio <= 1 / math.sqrt(2) + 0.1


def _all_cells_sweep(trials):
    return replace(
        parse_config("preset = fig3\n"), rho_grid_db=(0.0, 10.0, 25.0),
        schemes=("crs_noma", "conventional", "crs_oma"), modes=("paper", "exact"),
        estimators=("monte_carlo",), trials=trials, seed=17,
    )


def test_sweep_draws_each_block_once(monkeypatch):
    streams = []
    split_stream = montecarlo.split_stream

    def counting_split_stream(seed, block):
        streams.append((seed, block))
        return split_stream(seed, block)

    monkeypatch.setattr(montecarlo, "split_stream", counting_split_stream)
    rows = run_sweep(_all_cells_sweep(BLOCK_SIZE + 1000)).rows
    assert len(rows) == 3 * len(RATES) * len(QUANTITIES)
    assert streams == [(17, 0), (17, 1)]


def test_every_cell_equals_its_own_single_call():
    # the single-rho, single-mode call is the reference: sharing a block's
    # draw with other cells must not move a cell's floats
    cfg = _all_cells_sweep(BLOCK_SIZE + 1000)
    rows = {(r.rho_db, r.scheme, r.mode, r.quantity): (r.value, r.std_err) for r in run_sweep(cfg).rows}
    for rho_db, scheme, mode in {key[:3] for key in rows}:
        ref = estimate_rates(cfg.geometry, db_to_linear(rho_db), (scheme,),
                             "paper" if mode == "-" else mode, cfg.split, cfg.trials, cfg.seed)
        for r in ref:
            assert rows[(rho_db, scheme, mode, r.quantity)] == (r.mean, r.std_err)
    cal = calibrate_k("fig3", k_grid=[0.0, 2.0], trials=3000, seed=5)
    for k, rho_db, scheme, sim, _, _ in cal.residuals:
        g = fig3_geometry(k)
        ref = estimate_rates(g, db_to_linear(rho_db), (scheme,), "paper", SPLIT, 3000, 5)
        assert sim == next(r.mean for r in ref if r.quantity == "c_total")
    assert len(cal.residuals) == 2 * len(PAPER_TARGETS["fig3"])


def test_rho_sequence_results_do_not_depend_on_workers():
    g = fig3_geometry(1.5)
    rhos = [1.0, 10.0, 316.0]
    trials = 3 * BLOCK_SIZE + 7
    one = estimate_rates(g, rhos, ("crs_noma_exact", "conventional", "crs_oma"), "paper", SPLIT,
                         trials, seed=9, workers=1)
    three = estimate_rates(g, rhos, ("crs_noma_exact", "conventional", "crs_oma"), "paper", SPLIT,
                           trials, seed=9, workers=3)
    assert one == three
    assert [r.rho for r in one] == [x for x in rhos for _ in range(3 * len(QUANTITIES))]


def test_repeated_rho_and_k_keep_their_positions():
    # the engine groups cells by geometry and rho; equal ones must still
    # each give their own results, in input order
    g = fig3_geometry()
    res = estimate_rates(g, [10.0, 1.0, 10.0], ("crs_noma", "conventional"), "paper", SPLIT,
                         trials=BLOCK_SIZE + 3000, seed=4)
    n = 2 * len(QUANTITIES)
    assert [r.rho for r in res] == [x for x in (10.0, 1.0, 10.0) for _ in range(n)]
    assert res[:n] == res[2 * n:]
    assert res[n:2 * n] == estimate_rates(g, 1.0, ("crs_noma", "conventional"), "paper", SPLIT,
                                          trials=BLOCK_SIZE + 3000, seed=4)
    cal = calibrate_k("fig3", k_grid=[2.0, 2.0], trials=3000, seed=5)
    per_k = len(PAPER_TARGETS["fig3"])
    assert cal.residuals[:per_k] == cal.residuals[per_k:]
    assert cal.residuals[:per_k] == calibrate_k("fig3", k_grid=[2.0], trials=3000, seed=5).residuals
    assert cal.sse_by_k[0] == cal.sse_by_k[1]


# five full blocks and a short one
ENGINE_TRIALS = 181_073


def _kahan_sum(values):
    total = carry = 0.0
    for v in values:
        y = v - carry
        t = total + y
        carry = (t - total) - y
        total = t
    return total


def _whole_block_reference(geometry, rho, token, trials, seed):
    """(mean, std_err) of each quantity of one token, built without the
    engine: each block drawn with split_stream and sample_power_gains,
    the rate function applied to the whole block, np.sum per block and
    the blocks merged by Kahan summation in block order."""
    partials = []
    for b, start in enumerate(range(0, trials, BLOCK_SIZE)):
        n = min(BLOCK_SIZE, trials - start)
        rng = split_stream(seed, b)
        r = [sample_power_gains(link, rng, n) for link in (geometry.sr, geometry.rd, geometry.sd)]
        if token == "conventional":
            rates = conventional_noma_rate(r, rho, SPLIT)
        elif token == "crs_oma":
            rates = crs_oma_rate(r, rho)
        else:
            rates = crs_noma_rate(r, rho, RATES[token][1])
        partials.append([(float(np.sum(rates[q])), float(np.sum(rates[q] * rates[q]))) for q in QUANTITIES])
    moments = []
    for i in range(len(QUANTITIES)):
        s = _kahan_sum(p[i][0] for p in partials)
        sq = _kahan_sum(p[i][1] for p in partials)
        mean = s / trials
        var = max(sq - trials * mean * mean, 0.0) / (trials - 1)
        moments.append((mean, math.sqrt(var / trials)))
    return moments


@pytest.mark.parametrize("workers", [1, 2])
def test_engine_equals_a_whole_block_reference(workers):
    g = fig3_geometry(1.5)
    rhos = [2.0, 300.0]
    res = estimate_rates(g, rhos, tuple(RATES), "paper", SPLIT, ENGINE_TRIALS, seed=8, workers=workers)
    got = {(r.rho, r.scheme, r.quantity): (r.mean, r.std_err) for r in res}
    for rho in rhos:
        for token in RATES:
            ref = _whole_block_reference(g, rho, token, ENGINE_TRIALS, 8)
            assert [got[(rho, token, q)] for q in QUANTITIES] == ref, (rho, token)


@pytest.mark.parametrize("workers", [1, 2])
def test_calibration_equals_a_whole_block_reference(workers):
    ks = [0.0, 2.5, 10.0]
    cal = calibrate_k("fig3", k_grid=ks, trials=ENGINE_TRIALS, seed=6, workers=workers)
    assert len(cal.residuals) == len(ks) * len(PAPER_TARGETS["fig3"])
    for k, rho_db, scheme, sim, _, _ in cal.residuals:
        ref = _whole_block_reference(preset_geometry("fig3", k), db_to_linear(rho_db),
                                     rate_token(scheme, "paper"), ENGINE_TRIALS, 6)
        assert sim == ref[QUANTITIES.index("c_total")][0], (k, rho_db, scheme)
    # a K's residuals are the same floats alone and within the 21-point grid
    grid = calibrate_k("fig3", trials=ENGINE_TRIALS, seed=6, workers=workers)
    assert len(grid.sse_by_k) == 21
    for k in ks:
        alone = calibrate_k("fig3", k_grid=[k], trials=ENGINE_TRIALS, seed=6, workers=workers)
        assert alone.residuals == tuple(r for r in grid.residuals if r[0] == k)
        assert alone.residuals == tuple(r for r in cal.residuals if r[0] == k)


def _same_floats(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("rho", [0.0, 1.0, 1e3])
def test_shared_terms_give_the_standalone_arrays(rho):
    rng = np.random.default_rng(12)
    n = 4099
    gains = [rng.exponential(size=n) * rng.choice([0.0, 1.0, 50.0], size=n) for _ in range(3)]
    assert all(np.any(g == 0.0) for g in gains)
    # tokens in both orders, so no rate's arrays depend on the rates evaluated on the terms before it
    for order in (list(RATES), list(RATES)[::-1]):
        terms = RateTerms(gains, rho)
        shared = {token: montecarlo._token_rates(terms, rho, token, SPLIT) for token in order}
        for token, rates in shared.items():
            fresh = montecarlo._token_rates(gains, rho, token, SPLIT)
            for q in QUANTITIES:
                assert _same_floats(rates[q], fresh[q]), (token, q)
        # the arrays the engine sums once: CRS-NOMA's s2 rate in both modes
        paper, exact = shared["crs_noma_paper"], shared["crs_noma_exact"]
        assert paper.c_s2 is paper.c_direct_s1 is exact.c_s2 is exact.c_direct_s1
        # and a baseline's c_s1, CRS-OMA's c_total: no rate is -0.0, so
        # the first term stands for its sum with the stored 0.0
        for token in ("conventional", "crs_oma"):
            rates = shared[token]
            assert not any(np.any(np.signbit(rates[q])) for q in QUANTITIES), token
            assert rates.c_s1 is rates.c_relay_s1
            assert _same_floats(rates.c_s1, rates.c_relay_s1 + rates.c_direct_s1)
            assert _same_floats(rates.c_total, rates.c_s1 + rates.c_s2)
        assert shared["crs_oma"].c_total is shared["crs_oma"].c_relay_s1
    with pytest.raises(DomainError, match="rate terms of rho"):
        crs_noma_rate(RateTerms(gains, rho), rho + 1.0, "paper")


@pytest.mark.parametrize("rho", [0.0, 1.0, 1e3])
def test_workspace_gives_the_allocating_floats(rho, monkeypatch):
    # the engine's gain rows, caught where it hands them to its rate terms,
    # on a full block and then a short one in the same workspace: a reused
    # buffer must not leak the block before
    g = fig3_geometry(1.5)
    cells = [(g, rho, "crs_oma", None)]
    blocks = [(0, BLOCK_SIZE), (1, 4099)]
    alone = [montecarlo._block_sums(cells, SPLIT, QUANTITIES, 5, montecarlo._Workspace(n), b, n)
             for b, n in blocks]
    caught = []

    def spy(gains, at, *, work):
        assert all(any(np.shares_memory(x, row) for row in work._rows) for x in gains)
        caught.append([np.array(x) for x in gains])
        return RateTerms(gains, at, work=work)

    monkeypatch.setattr(montecarlo, "RateTerms", spy)
    work = montecarlo._Workspace(BLOCK_SIZE)
    reused = [montecarlo._block_sums(cells, SPLIT, QUANTITIES, 5, work, b, n) for b, n in blocks]
    assert len(caught) == 2
    for (b, n), gains, sums, want in zip(blocks, caught, reused, alone):
        rng = split_stream(5, b)
        for i, link in enumerate((g.sr, g.rd, g.sd)):
            assert _same_floats(gains[i], sample_power_gains(link, rng, n)), (b, i)
        assert _same_floats(sums, want), b
    n = 4099
    # wider than the block, as for a call's short last block
    work = montecarlo._Workspace(n + 13)
    work.start(n)
    rng = np.random.default_rng(12)
    gains = [rng.exponential(size=n) * rng.choice([0.0, 1.0, 50.0], size=n) for _ in range(3)]
    # three arrays, as the engine passes them
    terms = RateTerms(gains, rho, work=work)
    # every token's arrays held at once, so that a row handed out twice shows
    held = {token: montecarlo._token_rates(terms, rho, token, SPLIT) for token in RATES}
    values = {(token, q): rates[q] for token, rates in held.items() for q in QUANTITIES}
    for (token, q), v in values.items():
        fresh = montecarlo._token_rates(gains, rho, token, SPLIT)
        assert _same_floats(v, fresh[q]), (token, q)


@pytest.mark.parametrize("link", ["sr", "rd", "sd"])
def test_an_overflowing_gain_is_refused_without_a_warning(link):
    # at Omega = 1e308 the squared gains overflow to inf, the one way a sum
    # of squares of finite floats fails; the suite makes a RuntimeWarning an error
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ModelAssumptionWarning)  # an S-D link above the S-R one
        g = replace(fig3_geometry(), **{link: make_link(0.0, 1e308)})
    with pytest.raises(DomainError, match=f"^lambda_{link} must be finite and >= 0$"):
        estimate_rates(g, 3.16, split=SPLIT, trials=1000, seed=5)
    with pytest.raises(DomainError, match=f"^lambda_{link} must be finite and >= 0$"):
        # two blocks on two threads: each sets its own error state
        paired_gap(g, 3.16, "crs_noma", "crs_oma", trials=BLOCK_SIZE + 1000, seed=5, workers=2)


@pytest.mark.parametrize("workers", [1, 2])
def test_cells_sharing_a_workspace_give_the_floats_they_give_alone(workers):
    # a paired cell, two single ones and a second geometry's cell, on one
    # full block and a short one
    g, g2, rho = fig3_geometry(), fig3_geometry(2.0), 10.0
    cells = [(g, rho, "crs_noma_exact", "conventional"), (g, rho, "conventional", None),
             (g, rho, "crs_noma_paper", None), (g2, rho, "crs_oma", None)]
    trials = BLOCK_SIZE + 8_928
    together = montecarlo._estimate(cells, SPLIT, trials, 3, workers, QUANTITIES)
    n = len(QUANTITIES)
    for i, cell in enumerate(cells):
        alone = montecarlo._estimate([cell], SPLIT, trials, 3, workers, QUANTITIES)
        assert together[i * n:(i + 1) * n] == alone, cell[2:]


@pytest.mark.parametrize("workers", [1, 2])
def test_memory_does_not_grow_with_trials(workers, monkeypatch):
    # a partial is one block's sums for every cell; it is alive until merged
    partials, workspaces, most = [], [], [0]
    block_sums, workspace = montecarlo._block_sums, montecarlo._Workspace

    def spy_block(*args):
        part = block_sums(*args)
        partials.append(weakref.ref(part))
        most[0] = max(most[0], sum(ref() is not None for ref in partials))
        return part

    def spy_workspace(*args):
        workspaces.append(workspace(*args))
        return workspaces[-1]

    monkeypatch.setattr(montecarlo, "_block_sums", spy_block)
    monkeypatch.setattr(montecarlo, "_Workspace", spy_workspace)
    g = fig3_geometry()
    cells = [(g, 10.0, "crs_oma", None), (fig3_geometry(2.0), 1.0, "crs_noma_paper", None)]
    montecarlo._estimate(cells, SPLIT, 40 * BLOCK_SIZE, 3, workers, QUANTITIES)
    assert len(partials) == 40
    assert 1 <= most[0] <= 2 * workers
    assert 1 <= len(workspaces) <= workers


@pytest.mark.parametrize("workers", [2, 3])
def test_a_slow_block_keeps_the_memory_bound(workers, monkeypatch):
    # every 2*workers-th block sleeps, so the blocks queued behind it finish
    # first and the merge waits on it with every slot of the queue full;
    # the partial merged before it must be released by then
    partials, most = [], [0]
    block_sums = montecarlo._block_sums

    def slow_block(*args):
        if args[5] % (2 * workers) == 0:  # the block index
            time.sleep(0.05)
        part = block_sums(*args)
        partials.append(weakref.ref(part))
        most[0] = max(most[0], sum(ref() is not None for ref in partials))
        return part

    monkeypatch.setattr(montecarlo, "_block_sums", slow_block)
    cells = [(fig3_geometry(), 10.0, "crs_oma", None)]
    montecarlo._estimate(cells, SPLIT, 3 * 2 * workers * BLOCK_SIZE, 3, workers, QUANTITIES)
    assert len(partials) == 3 * 2 * workers
    assert most[0] <= 2 * workers


# One cold Monte-Carlo call at the benchmark's mc_sweep size, in a fresh
# interpreter: the minor page faults it takes.
COLD_CALL_FAULTS = """
import resource
from ratelab.montecarlo import estimate_rates
from ratelab.rates import RATES, PowerSplit
from ratelab.sweep import preset_geometry

g = preset_geometry("fig3", 0.0)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
estimate_rates(g, [1.0, 10.0, 100.0, 1000.0], tuple(RATES), "paper", PowerSplit(0.9, 0.1), 1 << 18, 1, 1)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts Linux minor page faults")
def test_a_cold_monte_carlo_call_takes_few_page_faults():
    # a temporary allocated per ufunc call or per block is mapped, freed
    # and faulted back in; a workspace per block took this from ~9,600 to
    # ~2,200, and one per worker slot to ~1,000
    src = str(Path(ratelab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", COLD_CALL_FAULTS], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 1500


# Re-taken when a block became one 2^15-trial workspace row: that moved
# the stream partition, so every Monte-Carlo mean and standard error.
# Before that they had held since the engine evaluated each rate on its
# own, through the rates of one rho sharing their terms, the sweep's
# '# quad_order' line going and its '# tail_tol' line becoming 1e-13.
GOLDEN_SWEEP_SHA256 = "ba2a7e05d6b05b5c9acd832b13bc0ecbb8dcd7a5397d461abd88cc0681129670"
GOLDEN_GAP = ("EstimatorResult(scheme='crs_noma_exact-conventional', quantity='c_s1', "
              "mean=1.92650178401357, std_err=0.0011275220129722556, trials=181073, seed=29, rho=10.0)")
GOLDEN_RESIDUAL = "(4.0, 5.0, 'conventional', 1.9363019238763777, 3.883, -1.9466980761236223)"


@pytest.mark.parametrize("workers", [1, 2])
def test_golden_monte_carlo_outputs(workers):
    assert ENGINE_TRIALS == 181_073
    cfg = replace(
        parse_config("preset = fig3\n"), rho_grid_db=(0.0, 12.5, 30.0),
        schemes=("crs_noma", "conventional", "crs_oma"), modes=("paper", "exact"),
        estimators=("monte_carlo",), trials=ENGINE_TRIALS, seed=23,
    )
    csv = render_csv(run_sweep(replace(cfg, workers=workers)))
    assert hashlib.sha256(csv.encode()).hexdigest() == GOLDEN_SWEEP_SHA256
    gap = paired_gap(preset_geometry("fig3", 1.5), 10.0, "crs_noma_exact", "conventional", "paper", SPLIT,
                     ENGINE_TRIALS, 29, "c_s1", workers)
    assert repr(gap) == GOLDEN_GAP
    cal = calibrate_k("fig3", k_grid=[0.0, 4.0], trials=ENGINE_TRIALS, seed=31, workers=workers)
    assert repr(cal.residuals[-1]) == GOLDEN_RESIDUAL


# Taken with the exact moment kernel; the oracle rows are those of the
# Gauss-Chebyshev kernel it replaced.  Re-taken when the '# tail_tol' line
# became 1e-13; no data row changed.
GOLDEN_SERIES_SWEEP_SHA256 = "a2ad75ab0ed237dc3d3ff6e06838f0989fb86ea73eb99d5d852e176db2a537bb"
GOLDEN_DISCREPANCY_SHA256 = "e2dc41f0d26e25bee5d9530005beaeb931f04afa100fa461f29a9828cf25c7e0"


def test_golden_series_sweep():
    # both link readings, and the tail_tol line
    doc = ("preset = fig3\n[geometry]\nk = 3\n[sweep]\nrho_db = -10:30:5\n"
           "schemes = crs_noma, conventional, crs_oma\nmodes = paper, exact\n"
           "estimators = quadrature_oracle, series_corrected, series_paper_literal\n")
    csv = render_csv(run_sweep(parse_config(doc)))
    assert "# a2 = 0.1\n# tail_tol = 1e-13\n" in csv
    assert hashlib.sha256(csv.encode()).hexdigest() == GOLDEN_SERIES_SWEEP_SHA256


def test_golden_discrepancy_table():
    geometry = preset_geometry("fig4", 30)
    table = render_discrepancy_csv(discrepancy_report(geometry, range(0, 31, 5)), geometry)
    assert hashlib.sha256(table.encode()).hexdigest() == GOLDEN_DISCREPANCY_SHA256
