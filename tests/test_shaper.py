"""Unit tests for the MITTS traffic shaper."""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bins import BinConfig, BinSpec
from repro.core.credits import CreditState
from repro.core.replenish import RateReplenisher, ResetReplenisher
from repro.core.shaper import MittsShaper


def shaper_with(credits, **kwargs):
    return MittsShaper(BinConfig.from_credits(credits), **kwargs)


class TestImmediateIssue:
    def test_first_request_uses_slowest_bin(self):
        shaper = shaper_with([0] * 9 + [1])
        assert shaper.earliest_issue(0) == 0

    def test_first_request_can_use_fast_credit(self):
        # Boot inter-arrival is "long ago": any bin <= slowest works.
        shaper = shaper_with([1] + [0] * 9)
        assert shaper.earliest_issue(100) == 100

    def test_first_issue_deducts_slowest_populated_bin(self):
        # The boot request reads as slowest-bin; deduction scans downward
        # from its bin, so the *cheapest sufficient* credit is consumed.
        shaper = shaper_with([2, 2] + [0] * 8)
        shaper.issue(0, req_id=1)
        assert shaper.credit_counts() == [2, 1] + [0] * 8

    def test_issue_deducts_from_matching_bin(self):
        shaper = shaper_with([2, 2] + [0] * 8)
        shaper.issue(0, req_id=1)   # boot: consumes a bin-1 credit
        shaper.issue(7, req_id=2)   # inter-arrival 7 -> bin 0
        assert shaper.credit_counts()[0] == 1
        assert shaper.credit_counts()[1] == 1

    def test_issue_prefers_own_bin_over_faster(self):
        shaper = shaper_with([2, 2] + [0] * 8)
        shaper.issue(0, req_id=1)   # consumes bin 1
        shaper.issue(15, req_id=2)  # inter-arrival 15 -> bin 1 again
        assert shaper.credit_counts()[1] == 0
        assert shaper.credit_counts()[0] == 2

    def test_issue_without_credit_raises(self):
        shaper = shaper_with([1] + [0] * 9)
        shaper.issue(0, req_id=1)
        with pytest.raises(ValueError):
            shaper.issue(1, req_id=2)


class TestStallAndAging:
    def test_request_waits_for_slower_bin(self):
        # After the boot request consumes the bin-9 credit, only a bin-5
        # credit remains (lower edge 50): a request arriving 7 cycles
        # after the last release must age until inter-arrival 50.
        shaper = shaper_with([0] * 5 + [1] + [0] * 3 + [1])
        shaper.issue(0, req_id=1)  # consumes the bin-9 credit
        release = shaper.earliest_issue(7)
        assert release == 50

    def test_request_waits_for_replenish_when_no_later_bins(self):
        shaper = shaper_with([1] + [0] * 9)
        boundary = shaper.replenisher.next_boundary()
        shaper.issue(0, req_id=1)
        # Bin 0 is empty now; no slower bins have credits, so the next
        # chance is the replenishment boundary.
        release = shaper.earliest_issue(2)
        assert release == boundary

    def test_zero_credit_config_stalls_forever(self):
        shaper = shaper_with([0] * 10)
        assert shaper.stall_forever()
        assert shaper.earliest_issue(0) is None

    def test_record_stall_accumulates(self):
        shaper = shaper_with([1] + [0] * 9)
        shaper.record_stall(10)
        shaper.record_stall(0)
        assert shaper.stalled_requests == 1
        assert shaper.total_stall_cycles == 10


class TestReplenishment:
    def test_credits_return_after_period(self):
        config = BinConfig.from_credits([2] + [0] * 9)
        shaper = MittsShaper(config)
        period = config.replenish_period()
        shaper.issue(0, req_id=1)
        shaper.issue(5, req_id=2)
        assert shaper.earliest_issue(6) == period
        shaper.issue(period, req_id=3)
        assert shaper.credit_counts()[0] == 1


class TestMethod2Refund:
    def test_llc_hit_refunds_credit(self):
        shaper = shaper_with([2] + [0] * 9)
        shaper.issue(0, req_id=7)
        shaper.on_llc_response(7, was_hit=True)
        assert shaper.credit_counts()[0] == 2
        assert shaper.refunds == 1

    def test_llc_miss_keeps_deduction(self):
        shaper = shaper_with([2] + [0] * 9)
        shaper.issue(0, req_id=7)
        shaper.on_llc_response(7, was_hit=False)
        assert shaper.credit_counts()[0] == 1

    def test_unknown_request_id_ignored(self):
        shaper = shaper_with([2] + [0] * 9)
        shaper.on_llc_response(999, was_hit=True)
        assert shaper.credit_counts()[0] == 2

    def test_pending_table_tracks_inflight(self):
        shaper = shaper_with([4] + [0] * 9)
        shaper.issue(0, req_id=1)
        shaper.issue(5, req_id=2)
        assert shaper.pending_entries == 2
        shaper.on_llc_response(1, was_hit=False)
        assert shaper.pending_entries == 1


class TestMethod1Timestamp:
    def test_no_deduction_until_miss_confirmed(self):
        shaper = shaper_with([2] + [0] * 9,
                             method=MittsShaper.METHOD_TIMESTAMP)
        shaper.issue(0, req_id=1)
        assert shaper.credit_counts()[0] == 2  # not yet confirmed

    def test_confirmed_miss_deducts(self):
        shaper = shaper_with([2] + [0] * 9,
                             method=MittsShaper.METHOD_TIMESTAMP)
        shaper.issue(0, req_id=1)
        shaper.on_llc_response(1, was_hit=False)
        assert shaper.credit_counts()[0] == 1

    def test_hit_never_deducts(self):
        shaper = shaper_with([2] + [0] * 9,
                             method=MittsShaper.METHOD_TIMESTAMP)
        shaper.issue(0, req_id=1)
        shaper.on_llc_response(1, was_hit=True)
        assert shaper.credit_counts()[0] == 2

    def test_method1_uses_confirmed_miss_interarrival(self):
        shaper = shaper_with([1, 1] + [0] * 8,
                             method=MittsShaper.METHOD_TIMESTAMP)
        shaper.issue(0, req_id=1)
        shaper.issue(12, req_id=2)
        shaper.on_llc_response(1, was_hit=False)  # first miss: slowest bin
        shaper.on_llc_response(2, was_hit=False)  # 12 cycles later: bin 1
        assert shaper.credit_counts()[1] == 0

    def test_method1_is_aggressive_saturates_at_zero(self):
        # Issue decisions consult lagging counters, so more requests may
        # pass than credits exist; confirmation must not underflow.
        shaper = shaper_with([1] + [0] * 9,
                             method=MittsShaper.METHOD_TIMESTAMP)
        shaper.issue(0, req_id=1)
        shaper.issue(3, req_id=2)  # counters still full: allowed
        shaper.on_llc_response(1, was_hit=False)
        shaper.on_llc_response(2, was_hit=False)
        assert shaper.credit_counts()[0] == 0

    def test_invalid_method_rejected(self):
        with pytest.raises(ValueError):
            shaper_with([1] * 10, method=3)


class TestReconfigure:
    def test_reconfigure_installs_new_credits(self):
        shaper = shaper_with([1] + [0] * 9)
        shaper.reconfigure(BinConfig.from_credits([0] * 9 + [5]))
        assert shaper.credit_counts()[9] == 5

    def test_reconfigure_resets_replenish_clock(self):
        shaper = shaper_with([1] + [0] * 9)
        config = BinConfig.from_credits([3] + [0] * 9)
        shaper.reconfigure(config, now=1000)
        assert shaper.replenisher.next_boundary() == \
            1000 + config.replenish_period()

    def test_reconfigure_keeps_drip_parameters(self):
        old = BinConfig.from_credits([4] + [0] * 9)
        shaper = MittsShaper(old, replenisher=RateReplenisher(old, slices=16))
        new = BinConfig.from_credits([0, 6] + [0] * 8)
        shaper.reconfigure(new, now=500)
        policy = shaper.replenisher
        assert type(policy) is RateReplenisher
        assert policy.slices == 16
        # The period was derived from the allocation, so it follows it.
        assert policy.period == new.replenish_period()
        assert policy.next_boundary() == 500 + new.replenish_period() // 16

    def test_reconfigure_keeps_explicit_period(self):
        old = BinConfig.from_credits([4] + [0] * 9)
        shaper = MittsShaper(
            old, replenisher=ResetReplenisher(old, period=777, phase=5))
        shaper.reconfigure(BinConfig.from_credits([0, 6] + [0] * 8), now=10)
        assert type(shaper.replenisher) is ResetReplenisher
        assert shaper.replenisher.period == 777
        assert shaper.replenisher.next_boundary() == 10 + 777


class TestRateConservation:
    def test_average_rate_bounded_by_config(self):
        """Total releases over a long window never exceed the allocation:
        credits-per-period times the number of periods (+1 boundary)."""
        config = BinConfig.from_credits([2, 1] + [0] * 8)
        shaper = MittsShaper(config)
        period = config.replenish_period()
        horizon = 50 * period
        now, releases = 0, 0
        while True:
            release = shaper.earliest_issue(now)
            if release is None or release > horizon:
                break
            shaper.issue(release, req_id=releases)
            releases += 1
            now = release
        budget = config.total_credits * (horizon // period + 1)
        assert releases <= budget


def brute_force_release(shaper, now):
    """Reference for ``earliest_issue``: try every cycle from ``now`` on
    copies of the counters and the replenishment clock."""
    if shaper.stall_forever():
        return None
    state = CreditState(shaper.config)
    state.counts = list(shaper.state.counts)
    policy = copy.copy(shaper.replenisher)
    spec = shaper.spec
    # Within one period plus a drip slice every counter is back at K, and
    # a request then ages to any bin within the last bin's lower edge.
    horizon = now + 2 * policy.period + spec.lower_edge(spec.num_bins - 1)
    for t in range(now, horizon + 1):
        policy.apply_until(state, t)
        if state.find_deductible(shaper.bin_at(t)) is not None:
            return t
    return None


def _replenisher(kind, config, period, slices, phase):
    if kind == "reset":
        return ResetReplenisher(config, period=period, phase=phase)
    return RateReplenisher(config, period=period, slices=slices, phase=phase)


# Mostly-empty vectors so zero-credit bins and aging are common.
sparse_credits = st.lists(st.sampled_from([0, 0, 0, 1, 2, 4]),
                          min_size=10, max_size=10).filter(
                              lambda v: sum(v) > 0)


class TestReleaseRuleMatchesBruteForce:
    """The closed-form release rule equals a cycle-by-cycle search."""

    @given(credits=sparse_credits,
           kind=st.sampled_from(["reset", "drip"]),
           method=st.sampled_from([MittsShaper.METHOD_TIMESTAMP,
                                   MittsShaper.METHOD_DEDUCT_REFUND]),
           period=st.one_of(st.none(), st.integers(1, 400)),
           slices=st.integers(1, 8),
           phase=st.integers(0, 500),
           start=st.integers(0, 300),
           steps=st.lists(st.tuples(st.integers(0, 40), st.booleans()),
                          min_size=1, max_size=25))
    @settings(max_examples=150, deadline=None)
    def test_random_configs(self, credits, kind, method, period, slices,
                            phase, start, steps):
        config = BinConfig.from_credits(credits)
        shaper = MittsShaper(
            config, replenisher=_replenisher(kind, config, period, slices,
                                             phase),
            method=method)
        now = start
        for req_id, (gap, was_hit) in enumerate(steps):
            # The first query runs with no release yet (boot state).
            expected = brute_force_release(shaper, now)
            release = shaper.earliest_issue(now)
            assert release == expected
            shaper.issue(release, req_id=req_id)
            if req_id > 0:
                shaper.on_llc_response(req_id - 1, was_hit=was_hit)
            now = release + gap

    @pytest.mark.parametrize("kind", ["reset", "drip"])
    def test_ready_cycle_on_a_boundary(self, kind):
        # After the bin-9 and bin-0 credits go, only bin 3 (lower edge 30)
        # holds one: a request released at 1 is ready at 31, which is
        # also the first replenishment boundary.
        config = BinConfig.from_credits([1, 0, 0, 1] + [0] * 5 + [1])
        policy = (ResetReplenisher(config, period=31) if kind == "reset"
                  else RateReplenisher(config, period=62, slices=2))
        shaper = MittsShaper(config, replenisher=policy)
        shaper.issue(0, req_id=0)
        shaper.issue(1, req_id=1)
        assert shaper.replenisher.next_boundary() == 31
        assert brute_force_release(shaper, 2) == 31
        assert shaper.earliest_issue(2) == 31

    def test_zero_credit_config_has_no_release(self):
        shaper = shaper_with([0] * 10)
        assert brute_force_release(shaper, 0) is None
        assert shaper.earliest_issue(0) is None
