import math

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
from ratelab import montecarlo
from ratelab.errors import DomainError
from ratelab.montecarlo import BLOCK_SIZE, QUANTITIES
from ratelab.rates import RATES
from ratelab.sweep import PAPER_TARGETS, calibrate_k, db_to_linear, preset_config, run_sweep

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
    return preset_config(
        "fig3", rho_grid_db=(0.0, 10.0, 25.0), schemes=("crs_noma", "conventional", "crs_oma"),
        modes=("paper", "exact"), estimators=("monte_carlo",), trials=trials, seed=17,
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


def test_rho_sequence_with_one_scheme_group_per_rho():
    g = fig3_geometry()
    res = estimate_rates(g, [2.0, 20.0], [("crs_noma", "crs_oma"), ("conventional",)], "exact",
                         SPLIT, trials=2000, seed=4)
    assert [(r.rho, r.scheme) for r in res[::len(QUANTITIES)]] == [
        (2.0, "crs_noma"), (2.0, "crs_oma"), (20.0, "conventional")]
    alone = estimate_rates(g, 20.0, ("conventional",), "exact", SPLIT, trials=2000, seed=4)
    assert res[-len(QUANTITIES):] == alone
    with pytest.raises(ValueError):
        estimate_rates(g, [2.0, 20.0], [("crs_noma",)], trials=10)
