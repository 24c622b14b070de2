"""Online execution of an h-Switch schedule (§3: "online execution").

Phases, in scheduler order: for every configuration, a reconfiguration gap
of δ (OCS dark, EPS serving), then the configuration held for its duration
(circuits at ``Co``, EPS serving everything else).  After the last
configuration the OCS goes dark and the EPS drains whatever remains.

A ``horizon`` bounds execution to a fixed wall-clock budget instead —
phases are truncated at the horizon and the leftover demand is reported as
residual (used by the closed-loop epoch controller to study sustained
load).

``faults`` injects hardware imperfections (see :mod:`repro.faults`): a
failed reconfiguration burns δ and then holds the configuration dark (EPS
keeps serving, circuits serve zero rate), a straggling one stretches δ,
individual circuits can fail to establish, and degraded EPS ports serve at
a fraction of ``Ce`` — all without ever losing volume.
"""

from __future__ import annotations

import numpy as np

from repro.faults.injector import as_injector
from repro.hybrid.schedule import Schedule
from repro.sim.engine import FluidEngine
from repro.sim.metrics import SimulationResult
from repro.switch.params import SwitchParams
from repro.utils.validation import check_nonnegative


def simulate_hybrid(
    demand: np.ndarray,
    schedule: Schedule,
    params: SwitchParams,
    horizon: "float | None" = None,
    faults=None,
) -> SimulationResult:
    """Execute ``schedule`` on ``demand``; return completion metrics.

    Parameters
    ----------
    demand:
        n×n demand matrix (Mb).
    schedule:
        OCS schedule whose permutations are n×n (i.e. an h-Switch schedule
        for this demand, not a reduced cp-Switch one).
    params:
        Switch parameters; ``params.reconfig_delay`` should match
        ``schedule.reconfig_delay``.
    horizon:
        Optional finite execution budget (ms).  ``None`` runs to completion;
        otherwise execution stops at the horizon and the result carries
        the residual demand.
    faults:
        Optional :class:`~repro.faults.plan.FaultPlan` (realized with
        stream 0) or pre-built :class:`~repro.faults.injector.FaultInjector`
        describing hardware faults to inject.  ``None`` — the default —
        executes the fault-free model bit-identically to earlier releases.
    """
    demand = np.asarray(demand, dtype=np.float64)
    if len(schedule) and schedule[0].size != demand.shape[0]:
        raise ValueError(
            f"schedule permutations are {schedule[0].size}x{schedule[0].size} but "
            f"demand is {demand.shape[0]}x{demand.shape[0]}; "
            "use simulate_cp for reduced cp-Switch schedules"
        )
    if horizon is not None:
        horizon = check_nonnegative("horizon (ms; None runs to completion)", horizon)
    engine = FluidEngine(demand, params)
    injector = as_injector(faults, demand.shape[0])
    eps_scale = injector.eps_port_scale if injector is not None else None

    def budget(duration: float) -> float:
        if horizon is None:
            return duration
        return min(duration, max(0.0, horizon - engine.clock))

    for entry in schedule:
        if horizon is not None and engine.clock >= horizon:
            break
        if injector is not None:
            delta, established = injector.reconfigure(params.reconfig_delay)
        else:
            delta, established = params.reconfig_delay, True
        engine.run_phase(budget(delta), eps_port_scale=eps_scale)  # OCS dark, EPS on
        if horizon is not None and engine.clock >= horizon:
            break
        circuits = entry.permutation if established else None
        if injector is not None and established:
            circuits = injector.surviving_circuits(circuits)
        engine.run_phase(
            budget(entry.duration), circuits=circuits, eps_port_scale=eps_scale
        )

    summary = injector.summary if injector is not None else None
    if horizon is None:
        engine.run_phase(None, eps_port_scale=eps_scale)  # EPS-only drain
        return engine.result(
            n_configs=schedule.n_configs,
            makespan=schedule.makespan,
            fault_summary=summary,
        )
    if engine.clock < horizon:
        # EPS-only until the horizon.
        engine.run_phase(horizon - engine.clock, eps_port_scale=eps_scale)
    return engine.result(
        n_configs=schedule.n_configs,
        makespan=schedule.makespan,
        allow_residual=True,
        fault_summary=summary,
    )
