"""Tests for the max-min fair EPS rate allocation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.rates import _RATE_TOL, max_min_fair_rate_matrix, max_min_fair_rates
from repro.sim.reference import reference_max_min_fair_rates


def caps(n, value=10.0):
    return np.full(n, value)


class TestMaxMinFairRates:
    def test_single_flow_gets_full_capacity(self):
        rates = max_min_fair_rates(np.array([0]), np.array([0]), caps(2), caps(2))
        assert rates[0] == pytest.approx(10.0)

    def test_fanout_shares_input_port(self):
        # One sender to 4 receivers: input port is the bottleneck.
        rows = np.zeros(4, dtype=int)
        cols = np.arange(4)
        rates = max_min_fair_rates(rows, cols, caps(4), caps(4))
        np.testing.assert_allclose(rates, 2.5)

    def test_fanin_shares_output_port(self):
        rows = np.arange(4)
        cols = np.zeros(4, dtype=int)
        rates = max_min_fair_rates(rows, cols, caps(4), caps(4))
        np.testing.assert_allclose(rates, 2.5)

    def test_asymmetric_water_filling(self):
        # Flows: A:0->0, B:0->1, C:1->1.  Input 0 gives A and B 5 each;
        # output 1 then has 5 left for C... C is limited only by out 1:
        # progressive filling: all grow to 5 (input 0 saturates), C keeps
        # growing to 10 - 5 = ... out_1 remaining = 10 - 5 = 5 more, so
        # C = 5 + ... C's ports: in_1 (10) and out_1 (shared with B).
        rows = np.array([0, 0, 1])
        cols = np.array([0, 1, 1])
        rates = max_min_fair_rates(rows, cols, caps(2), caps(2))
        assert rates[0] == pytest.approx(5.0)
        assert rates[1] == pytest.approx(5.0)
        assert rates[2] == pytest.approx(5.0)
        # C ends at 5: out_1 capacity 10 split after B froze at 5.

    def test_no_flows(self):
        rates = max_min_fair_rates(np.array([], dtype=int), np.array([], dtype=int), caps(2), caps(2))
        assert rates.size == 0

    def test_zero_capacity_port_gives_zero_rate(self):
        in_caps = np.array([0.0, 10.0])
        rates = max_min_fair_rates(np.array([0, 1]), np.array([0, 1]), in_caps, caps(2))
        assert rates[0] == 0.0
        assert rates[1] == pytest.approx(10.0)

    def test_capacities_never_exceeded(self):
        rng = np.random.default_rng(0)
        n = 16
        mask = rng.random((n, n)) < 0.4
        in_caps = rng.uniform(1, 10, n)
        out_caps = rng.uniform(1, 10, n)
        rates = max_min_fair_rate_matrix(mask, in_caps, out_caps)
        assert (rates.sum(axis=1) <= in_caps + 1e-9).all()
        assert (rates.sum(axis=0) <= out_caps + 1e-9).all()

    def test_allocation_is_maximal(self):
        # Max-min is Pareto-maximal: every flow crosses >= 1 saturated port.
        rng = np.random.default_rng(1)
        n = 12
        mask = rng.random((n, n)) < 0.5
        in_caps = caps(n, 7.0)
        out_caps = caps(n, 9.0)
        rates = max_min_fair_rate_matrix(mask, in_caps, out_caps)
        in_used = rates.sum(axis=1)
        out_used = rates.sum(axis=0)
        rows, cols = np.nonzero(mask)
        for i, j in zip(rows, cols):
            in_sat = in_used[i] >= in_caps[i] - 1e-6
            out_sat = out_used[j] >= out_caps[j] - 1e-6
            assert in_sat or out_sat, f"flow ({i},{j}) could still grow"

    def test_max_min_fairness_property(self):
        # No flow can be raised without lowering an equal-or-smaller flow:
        # equivalently, for each flow some bottleneck port it crosses has
        # all its capacity consumed by flows with rate >= this flow's rate
        # ... verified via the standard bottleneck-port characterization.
        rng = np.random.default_rng(2)
        n = 10
        mask = rng.random((n, n)) < 0.5
        rates = max_min_fair_rate_matrix(mask, caps(n), caps(n))
        rows, cols = np.nonzero(mask)
        flow_rates = rates[rows, cols]
        in_used = rates.sum(axis=1)
        out_used = rates.sum(axis=0)
        for k in range(rows.size):
            i, j = rows[k], cols[k]
            bottleneck = False
            if in_used[i] >= 10.0 - 1e-6 and flow_rates[k] >= rates[i, :].max() - 1e-6:
                bottleneck = True
            if out_used[j] >= 10.0 - 1e-6 and flow_rates[k] >= rates[:, j].max() - 1e-6:
                bottleneck = True
            assert bottleneck, f"flow ({i},{j}) has no bottleneck port"

    def test_rejects_negative_capacity(self):
        with pytest.raises(ValueError):
            max_min_fair_rates(np.array([0]), np.array([0]), np.array([-1.0]), caps(1))

    def test_rejects_mismatched_indices(self):
        with pytest.raises(ValueError):
            max_min_fair_rates(np.array([0, 1]), np.array([0]), caps(2), caps(2))

    def test_matrix_wrapper_shape(self):
        mask = np.zeros((3, 3), dtype=bool)
        mask[0, 1] = True
        rates = max_min_fair_rate_matrix(mask, caps(3), caps(3))
        assert rates.shape == (3, 3)
        assert rates[0, 1] == pytest.approx(10.0)
        assert rates.sum() == pytest.approx(10.0)


class TestRejectsBadInput:
    """Inputs the waterfill has no answer for fail loudly, not with a rate."""

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("side", ["in", "out"])
    def test_non_finite_capacity(self, bad, side):
        in_caps, out_caps = caps(1), caps(1)
        (in_caps if side == "in" else out_caps)[0] = bad
        with pytest.raises(ValueError, match="finite"):
            max_min_fair_rates(np.array([0]), np.array([0]), in_caps, out_caps)

    def test_unlimited_ports_are_not_rate_zero(self):
        # An unlimited flow has no max-min share; it used to come back as 0.
        with pytest.raises(ValueError, match="line rate"):
            max_min_fair_rates(
                np.array([0]), np.array([0]), np.array([np.inf]), np.array([np.inf])
            )

    @pytest.mark.parametrize("side", ["in", "out"])
    def test_two_dimensional_capacity(self, side):
        in_caps, out_caps = caps(2), caps(2)
        if side == "in":
            in_caps = np.full((2, 2), 10.0)
        else:
            out_caps = np.full((2, 2), 10.0)
        with pytest.raises(ValueError, match="1-D"):
            max_min_fair_rates(np.array([0]), np.array([0]), in_caps, out_caps)

    @pytest.mark.parametrize(
        "rows,cols",
        [([0, 2], [0, 1]), ([-1, 0], [0, 1]), ([0, 1], [0, 3]), ([0, 1], [-1, 0])],
    )
    def test_endpoint_out_of_range(self, rows, cols):
        with pytest.raises(ValueError, match="out of range"):
            max_min_fair_rates(np.array(rows), np.array(cols), caps(2), caps(3))

    def test_endpoints_checked_per_side(self):
        # Row 2 is a valid port of the fused vector (output 0) but not an
        # input of a 2-input switch.
        with pytest.raises(ValueError, match="out of range"):
            max_min_fair_rates(np.array([2]), np.array([0]), caps(2), caps(5))

    def test_capacities_checked_without_flows(self):
        with pytest.raises(ValueError, match="finite"):
            max_min_fair_rates(
                np.array([], dtype=int), np.array([], dtype=int), caps(2), np.array([np.nan])
            )


# ---------------------------------------------------------------------- #
# fused waterfill vs the frozen round-based one
# ---------------------------------------------------------------------- #


def _capacities():
    """Capacities that stress the waterfill's exact and tolerance paths:
    plain floats, ties, zero and ``-0.0``, and values within a few
    ``_RATE_TOL`` of zero (the sub-tolerance freeze)."""
    return st.one_of(
        st.floats(0.0, 20.0),
        st.integers(0, 8).map(lambda k: 2.5 * k),
        st.sampled_from([0.0, -0.0]),
        st.floats(-0.9, 6.0).map(lambda k: k * _RATE_TOL),
        st.floats(1e4, 1e7),
    )


@st.composite
def waterfill_instances(draw):
    n_in = draw(st.integers(1, 16))
    n_out = draw(st.integers(1, 16))
    n_flows = draw(st.integers(0, 60))
    rows = draw(st.lists(st.integers(0, n_in - 1), min_size=n_flows, max_size=n_flows))
    cols = draw(st.lists(st.integers(0, n_out - 1), min_size=n_flows, max_size=n_flows))
    in_caps = draw(st.lists(_capacities(), min_size=n_in, max_size=n_in))
    out_caps = draw(st.lists(_capacities(), min_size=n_out, max_size=n_out))
    return (
        np.array(rows, dtype=np.int64),
        np.array(cols, dtype=np.int64),
        np.array(in_caps, dtype=np.float64),
        np.array(out_caps, dtype=np.float64),
    )


@st.composite
def many_round_instances(draw):
    """Inputs with distinct capacities and few flows each, so nearly every
    round saturates one more input: 1 to 25 rounds."""
    n_in = draw(st.integers(1, 25))
    n_out = draw(st.integers(1, 6))
    fanout = draw(st.lists(st.integers(1, 3), min_size=n_in, max_size=n_in))
    rows = np.repeat(np.arange(n_in), fanout)
    cols = draw(
        st.lists(st.integers(0, n_out - 1), min_size=rows.size, max_size=rows.size)
    )
    in_caps = draw(
        st.lists(st.floats(0.0, 20.0), min_size=n_in, max_size=n_in, unique=True)
    )
    out_caps = draw(
        st.lists(
            _capacities() | st.floats(100.0, 2000.0), min_size=n_out, max_size=n_out
        )
    )
    return (
        rows,
        np.array(cols, dtype=np.int64),
        np.array(in_caps, dtype=np.float64),
        np.array(out_caps, dtype=np.float64),
    )


class TestFusedWaterfillMatchesFrozen:
    @given(instance=waterfill_instances() | many_round_instances())
    @settings(max_examples=600, deadline=None)
    def test_bytes_equal(self, instance):
        new = max_min_fair_rates(*instance)
        frozen = reference_max_min_fair_rates(*instance)
        assert new.tobytes() == frozen.tobytes()

    @pytest.mark.parametrize("n_ports", [1, 5, 25])
    def test_staircase_runs_one_round_per_port(self, n_ports):
        # Input i carries one flow and has capacity (i + 1) / 7; outputs
        # are ample.  Every round saturates exactly one input, so the
        # flows freeze at n_ports distinct levels.
        rows = np.arange(n_ports)
        cols = np.arange(n_ports) % 3
        in_caps = np.arange(1.0, n_ports + 1.0) / 7.0
        out_caps = np.full(3, 1e6)
        new = max_min_fair_rates(rows, cols, in_caps, out_caps)
        assert np.unique(new).size == n_ports
        frozen = reference_max_min_fair_rates(rows, cols, in_caps, out_caps)
        assert new.tobytes() == frozen.tobytes()
        np.testing.assert_allclose(new, in_caps)

    def test_duplicate_endpoints_share_equally(self):
        rows = np.array([0, 0, 0, 1])
        cols = np.array([1, 1, 1, 1])
        new = max_min_fair_rates(rows, cols, caps(2), np.array([10.0, 6.0]))
        assert new.tobytes() == reference_max_min_fair_rates(
            rows, cols, caps(2), np.array([10.0, 6.0])
        ).tobytes()
        np.testing.assert_allclose(new, 1.5)

    def test_rounding_remainder_stops_at_the_level(self):
        # 5 * (x / 5) falls one ulp short of x, which is above the
        # saturation tolerance: no port saturates, and the flows keep the
        # level they reached.
        x = 3427558.8994020377
        rows, cols = np.zeros(5, dtype=np.int64), np.arange(5)
        in_caps, out_caps = np.array([x]), np.full(5, 1e9)
        assert x - (x / 5) * 5 > _RATE_TOL * 5
        new = max_min_fair_rates(rows, cols, in_caps, out_caps)
        frozen = reference_max_min_fair_rates(rows, cols, in_caps, out_caps)
        assert new.tobytes() == frozen.tobytes()
        assert (new == x / 5).all()

    def test_negative_zero_capacity_freezes_at_positive_zero(self):
        new = max_min_fair_rates(np.array([0, 1]), np.array([0, 0]), np.array([-0.0, 4.0]), caps(1))
        assert np.signbit(new).sum() == 0
        assert new.tobytes() == np.array([0.0, 4.0]).tobytes()
