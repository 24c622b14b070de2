"""Bit-exact fingerprints of the fluid engine on seeded pipelines.

The golden tests compare with ``pytest.approx`` and the
``ReferenceFluidEngine`` identity tests run at radix 16, so neither would
notice a one-ulp drift in the engine at the radices the figures use.  These
tests hash the raw bytes of everything an execution produces — every
finish time, every :class:`~repro.sim.metrics.RateSegment` field and the
per-mechanism served volumes — and compare the SHA-256 digest with one
pinned when the engine was last known-good.  Any change to the engine that
moves a single bit of any output fails here; a change that is meant to
move outputs must re-pin the digests and say why.

The engine reuses its last max-min waterfill when the EPS flows and
capacities are bit-equal to the previous call's.  A hypothesis fuzz runs
random sparse demands and phase lists through the engine twice — as is,
and with that reuse defeated — and requires bit-equal outputs.
"""

from __future__ import annotations

import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.scheduler import CpSwitchScheduler
from repro.faults import FaultPlan
from repro.faults.reroute import BackupPlanner
from repro.hybrid.solstice import SolsticeScheduler
from repro.sim import engine as engine_module
from repro.sim import simulate_cp, simulate_hybrid
from repro.sim.engine import CompositeService, FluidEngine
from repro.switch.params import SwitchParams, fast_ocs_params
from repro.utils.rng import spawn_rngs
from repro.workloads.combined import CombinedWorkload
from repro.workloads.skewed import SkewedWorkload


def fingerprint(result) -> str:
    """SHA-256 over the raw bytes of a simulation's outputs."""
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(result.finish_times, dtype=np.float64).tobytes())
    segments = np.array(
        [
            (s.start, s.end, s.ocs_direct_rate, s.composite_rate, s.eps_rate)
            for s in result.segments
        ],
        dtype=np.float64,
    )
    digest.update(segments.tobytes())
    served = (result.served_ocs_direct, result.served_composite, result.served_eps)
    digest.update(np.array(served, dtype=np.float64).tobytes())
    if result.residual is not None:
        digest.update(np.ascontiguousarray(result.residual, dtype=np.float64).tobytes())
    return digest.hexdigest()


def _skewed(n_ports: int, seed: int):
    params = fast_ocs_params(n_ports)
    (rng,) = spawn_rngs(seed, 1)
    return SkewedWorkload.for_params(params).generate(n_ports, rng).demand, params


#: (radix, seed) -> (h-Switch digest, cp-Switch digest), Solstice inside.
PIPELINE_DIGESTS = {
    (64, 11): (
        "65a948668d7a72a382473e097076f8dec5af02d2741be5d9dddbda6a75771120",
        "d530d349f9b7131291e6abc761aab04d84e12a476687e96b4be023f5bea39f52",
    ),
    (256, 7): (
        "fd61953b7e4430385255afb014a1bf006fc020073ff101337c87ad1d82333f53",
        "d5ebd6f020d3eade5689bad339279fd2d9d31484e74d1cfd4d1780cf9dc56de4",
    ),
}

FAULTED_DIGEST = "d039da6b0658a971a391d22165c13244594a3a91735ffe8b9e241b910e23ccc3"


@pytest.mark.parametrize("radix,seed", sorted(PIPELINE_DIGESTS))
def test_solstice_pipelines_are_bit_identical(radix, seed):
    demand, params = _skewed(radix, seed)
    h_result = simulate_hybrid(demand, SolsticeScheduler().schedule(demand, params), params)
    cp_schedule = CpSwitchScheduler(SolsticeScheduler()).schedule(demand, params)
    cp_result = simulate_cp(demand, cp_schedule, params)
    assert (fingerprint(h_result), fingerprint(cp_result)) == PIPELINE_DIGESTS[
        (radix, seed)
    ]


def test_faulted_cp_run_with_fast_reroute_is_bit_identical():
    demand, params = _skewed(64, 5)
    scheduler = CpSwitchScheduler(SolsticeScheduler())
    cp_schedule = scheduler.schedule(demand, params)
    backups = BackupPlanner(scheduler).plan(demand, cp_schedule, params)
    plan = FaultPlan(
        seed=3,
        reconfig_straggle_rate=0.5,
        circuit_failure_rate=0.1,
        o2m_outage_rate=0.5,
        m2o_outage_rate=0.5,
        eps_degradation_rate=0.2,
        eps_degradation_factor=0.5,
    )
    result = simulate_cp(demand, cp_schedule, params, faults=plan, backups=backups)
    summary = result.fault_summary
    # The scenario must actually exercise every fault kind it pins.
    assert summary.degraded_eps_ports
    assert summary.failed_circuits > 0
    assert summary.reconfig_straggles > 0
    assert summary.dead_o2m_ports and summary.dead_m2o_ports
    assert result.reroute is not None and result.reroute.n_swaps > 0
    assert fingerprint(result) == FAULTED_DIGEST


#: cp-Switch with Solstice on a dense ``CombinedWorkload.typical`` demand at
#: radix 64 — the serve regime: composite reservations on the EPS links and
#: waterfills of up to ~20 filling rounds (the Solstice pipelines above
#: average under two).
DENSE_TYPICAL_DIGEST = "366b7d33a9d1a0ec1c3061057a5c196b34fee93d3580b40799af543c4a5d8ee4"


def test_dense_typical_cp_run_is_bit_identical():
    params = fast_ocs_params(64)
    (rng,) = spawn_rngs(3, 1)
    demand = CombinedWorkload.typical(params).generate(64, rng).demand
    schedule = CpSwitchScheduler(SolsticeScheduler()).schedule(demand, params)
    levels = []
    solve = engine_module.max_min_fair_rates

    def recording(*args):
        rates = solve(*args)
        levels.append(np.unique(rates).size)
        return rates

    with mock.patch("repro.sim.engine.max_min_fair_rates", recording):
        result = simulate_cp(demand, schedule, params)
    # The scenario must exercise the regime it pins: each distinct rate is
    # the level of a separate filling round.
    assert result.served_composite > 0
    assert max(levels) >= 15
    assert fingerprint(result) == DENSE_TYPICAL_DIGEST


# ---------------------------------------------------------------------- #
# waterfill reuse vs no reuse
# ---------------------------------------------------------------------- #

N = 6
PARAMS = SwitchParams(n_ports=N, eps_rate=10.0, ocs_rate=100.0, reconfig_delay=0.02)

_eps_rates = FluidEngine._eps_rates


def _eps_rates_without_reuse(self, flows, in_cap, out_cap):
    self._last_solve = None
    return _eps_rates(self, flows, in_cap, out_cap)


def sparse_demands():
    return st.tuples(
        arrays(np.float64, (N, N), elements=st.floats(0.0, 30.0, width=32)),
        arrays(np.float64, (N, N), elements=st.sampled_from([0.0, 0.0, 0.5, 1.0])),
    ).map(lambda pair: pair[0] * pair[1])


def circuits():
    def build(args):
        order, size = args
        matrix = np.zeros((N, N), dtype=np.int8)
        matrix[np.arange(size), order[:size]] = 1
        return matrix

    return st.tuples(
        st.permutations(list(range(N))), st.integers(0, N)
    ).map(build)


def composites():
    service = st.builds(
        CompositeService,
        kind=st.sampled_from(["o2m", "m2o"]),
        port=st.integers(0, N - 1),
        lane_mask=st.none() | arrays(np.bool_, (N,)),
    )
    return st.lists(service, max_size=3)


def port_scales():
    return st.none() | arrays(
        np.float64, (N,), elements=st.sampled_from([0.0, 0.25, 0.5, 1.0])
    )


def between_phases():
    """A volume move between phases (each rebuilds the support)."""
    return st.one_of(
        st.none(),
        st.tuples(st.just("release"), st.sampled_from(["o2m", "m2o"]), st.integers(0, N - 1)),
        st.tuples(st.just("repark"), st.floats(0.0, 1.0)),
        st.tuples(st.just("merge"), arrays(np.bool_, (N, N))),
    )


def phase_lists():
    return st.lists(
        st.tuples(
            st.floats(0.0, 0.5), circuits(), composites(), port_scales(), between_phases()
        ),
        max_size=6,
    )


def _execute(demand, filtered_share, phases, horizon):
    engine = FluidEngine(demand, PARAMS)
    engine.assign_composite(demand * filtered_share)
    for duration, perm, services, scale, move in phases:
        if horizon is not None:
            duration = min(duration, max(0.0, horizon - engine.clock))
        engine.run_phase(
            duration, circuits=perm, composites=services, eps_port_scale=scale
        )
        if move is None:
            continue
        if move[0] == "release":
            engine.release_composite(move[1], move[2])
        elif move[0] == "repark":
            engine.repark_composite(engine.regular * move[1])
        else:
            engine.merge_composite_into_regular(move[1])
    if horizon is None:
        engine.merge_composite_into_regular()
        engine.run_phase(None)
    elif engine.clock < horizon:
        engine.run_phase(horizon - engine.clock)
    return engine


def _outputs(engine) -> bytes:
    segments = [
        (s.start, s.end, s.ocs_direct_rate, s.composite_rate, s.eps_rate)
        for s in engine.segments
    ]
    return b"".join(
        np.asarray(part, dtype=np.float64).tobytes()
        for part in (
            engine.finish_times,
            segments,
            [engine.served_ocs_direct, engine.served_composite, engine.served_eps],
            engine.regular,
            engine.composite,
            [engine.clock],
        )
    )


class TestWaterfillReuseIsBitIdentical:
    @given(
        demand=sparse_demands(),
        filtered_share=st.sampled_from([0.0, 0.5, 1.0]),
        phases=phase_lists(),
        horizon=st.none() | st.floats(0.0, 2.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_reuse_matches_fresh_solves(self, demand, filtered_share, phases, horizon):
        reused = _execute(demand, filtered_share, phases, horizon)
        with mock.patch.object(FluidEngine, "_eps_rates", _eps_rates_without_reuse):
            fresh = _execute(demand, filtered_share, phases, horizon)
        assert fresh._waterfills_reused == 0
        assert reused._waterfills == fresh._waterfills
        assert _outputs(reused) == _outputs(fresh)

    def test_drains_under_unchanged_eps_reuse_the_solve(self):
        # Circuits drain 0->1 and 1->0 at different times while the EPS
        # flows (2->3, 3->2) and their capacities stay put: a circuit-only
        # drain leaves the EPS rates as they are, so the phase's three
        # events cost one waterfill solve.
        demand = np.zeros((N, N))
        demand[0, 1], demand[1, 0] = 10.0, 20.0
        demand[2, 3], demand[3, 2] = 50.0, 50.0
        perm = np.zeros((N, N), dtype=np.int8)
        perm[0, 1] = perm[1, 0] = 1
        engine = FluidEngine(demand, PARAMS)
        with mock.patch(
            "repro.sim.engine.max_min_fair_rates", wraps=engine_module.max_min_fair_rates
        ) as solve:
            engine.run_phase(1.0, circuits=perm)
        assert len(engine.segments) == 3
        assert solve.call_count == 1
        assert engine._waterfills == 1
        assert engine._waterfills_reused == 0

    def test_support_rebuild_invalidates_the_solve(self):
        # Phase 1 ends with EPS flows at support positions [1, 2] =
        # (0,2), (1,0): disjoint ports, 10 Mb/ms each.  (0,1) has drained,
        # so the rebuilt support shifts: in phase 2 positions [1, 2] are
        # (1,0), (1,2), which share input 1 and must get 5 Mb/ms each.
        demand = np.zeros((N, N))
        demand[0, 1] = 1.0
        demand[0, 2] = demand[1, 0] = demand[1, 2] = 50.0
        first = np.zeros((N, N), dtype=np.int8)
        first[0, 1] = first[1, 2] = 1
        second = np.zeros((N, N), dtype=np.int8)
        second[0, 2] = 1
        engine = FluidEngine(demand, PARAMS)
        engine.run_phase(0.05, circuits=first)
        assert engine.segments[-1].eps_rate == 20.0
        engine.merge_composite_into_regular()  # moves nothing, rebuilds
        engine.run_phase(0.05, circuits=second)
        assert engine.segments[-1].eps_rate == 10.0
