"""The benchmark's workloads: seeded inputs, closed loops and output checks.

Every workload drives the library through its public entry points only and
hands it nothing but generated demand matrices (pipelines) or an arrival
callable over generated matrices (service).  Each run cycles a fixed pool
of inputs drawn from the seed, so every simulated statistic of the pool's
first pass repeats exactly for a seed; repeats of a pool entry must
reproduce it bit for bit, which the checks enforce.

Before every op, outside its timing window, the loop times the host
reference kernel (:mod:`hostspeed`).  Layer timings come from :mod:`spans`:
in a traced run every other op runs with the layer wrappers installed
(:func:`_traced`), so the same run also measures what the wrappers cost.
"""

from __future__ import annotations

import asyncio
import ctypes
import hashlib
import math
import multiprocessing
import statistics
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

import repro.sim as sim
from repro import (
    CombinedWorkload,
    CpSwitchScheduler,
    EclipseScheduler,
    EpochController,
    SkewedWorkload,
    SolsticeScheduler,
    fast_ocs_params,
)
from repro.service import SchedulingService, ServiceConfig
from repro.utils.validation import VOLUME_TOL
from repro.workloads.arrivals import WorkloadArrivals

import hostspeed
from spans import Patch, SpanRecorder, Target, covered, self_times


@dataclass(frozen=True)
class Pipeline:
    """Figure 5/6 trial: h-Switch then cp-Switch schedule + simulate."""

    name: str
    scheduler: str
    radix: int
    pool: int  # distinct demands, cycled; cp_completion_ms averages them


@dataclass(frozen=True)
class Serve:
    """The async scheduling service on its default configuration."""

    name: str
    radix: int
    pool: int  # distinct arrival matrices, cycled by epoch


WORKLOADS = {
    spec.name: spec
    for spec in (
        Pipeline("fig5-solstice", "solstice", radix=256, pool=32),
        Pipeline("fig6-eclipse", "eclipse", radix=128, pool=48),
        Serve("serve-typical", radix=64, pool=32),
    )
}

_SCHEDULERS = {"solstice": SolsticeScheduler, "eclipse": EclipseScheduler}

#: Layers every workload may reach.  Each name is wrapped in the module
#: that calls it, because the program imports these functions by name.
LAYER_TARGETS = (
    Target("repro.core.scheduler", "CpSwitchScheduler.schedule", "core.cp_schedule"),
    Target("repro.core.scheduler", "reduce_with_config", "core.reduction"),
    Target("repro.core.scheduler", "divide_by_type", "core.interpret"),
    Target("repro.core.scheduler", "cpsched", "core.interpret"),
    Target(
        "repro.hybrid.solstice.scheduler",
        "SolsticeScheduler.schedule",
        "hybrid.solstice.schedule",
    ),
    Target(
        "repro.hybrid.solstice.scheduler",
        "quick_stuff_diagnosed",
        "hybrid.solstice.quick_stuff",
    ),
    Target("repro.hybrid.solstice.scheduler", "big_slice", "hybrid.solstice.big_slice"),
    # Hopcroft-Karp probes: the scipy kernel, the oracle and the
    # pure-Python warm start, whichever backend is active.
    Target("repro.hybrid.solstice.slicing", "maximum_matching_mask", "matching.hk"),
    Target("repro.matching.kernels", "scipy_matching_csr", "matching.hk"),
    Target("repro.matching.kernels", "WarmMatcher.feasible", "matching.hk"),
    Target(
        "repro.hybrid.eclipse.scheduler",
        "EclipseScheduler.schedule",
        "hybrid.eclipse.schedule",
    ),
    Target("repro.hybrid.eclipse.scheduler", "max_weight_matching", "matching.lsap"),
    Target("repro.sim.engine", "FluidEngine.run_phase", "sim.engine.event_loop"),
    Target("repro.sim.engine", "max_min_fair_rates", "sim.rates.waterfill"),
)

#: The pipelines call the simulators through ``repro.sim`` (this module).
PIPELINE_TARGETS = (
    Target("repro.sim", "simulate_hybrid", "sim.simulate"),
    Target("repro.sim", "simulate_cp", "sim.simulate"),
)

#: Always installed on serve: they define the epoch-latency clock.
SERVE_TARGETS = (
    Target("repro.analysis.controller", "EpochController.offer", "controller.offer"),
    Target(
        "repro.analysis.controller",
        "EpochController.run_epoch",
        "controller.run_epoch",
        cpu=True,
    ),
    Target("repro.runner.pool", "WorkerPool.map", "runner.pool.map"),
    Target("repro.analysis.controller", "simulate_cp", "sim.simulate"),
)

#: Layers each workload exists to exercise: a traced run that records no
#: call of one fails, since a silent zero would misattribute its time.
REQUIRED_LAYERS = {
    "fig5-solstice": (
        "hybrid.solstice.big_slice",
        "matching.hk",
        "sim.engine.event_loop",
        "sim.rates.waterfill",
    ),
    "fig6-eclipse": ("matching.lsap", "sim.engine.event_loop"),
    "serve-typical": (
        "controller.offer",
        "controller.run_epoch",
        "core.cp_schedule",
        "sim.rates.waterfill",
    ),
}

_COUNTERS = {
    "hybrid.eclipse.schedule": lambda rec, args, result: rec.count(
        "hybrid.eclipse.configs", len(result)
    ),
    "runner.pool.map": lambda rec, args, result: rec.count(
        "runner.pool.tasks", len(args[1])
    ),
}

#: Arm payload fields that are simulated outcomes (the rest are timings).
_ARM_FIELDS = ("arm", "completion_time", "n_configs", "makespan", "residual_mb", "n_armed")
#: EpochReport fields that are simulated outcomes.
_REPORT_FIELDS = (
    "epoch",
    "offered_volume",
    "scheduled_volume",
    "served_volume",
    "completion_time",
    "n_configs",
    "makespan",
    "backlog_after",
    "stranded_volume",
    "released_composite",
    "shed_volume",
)


@dataclass
class RunResult:
    """What one workload run measured and checked."""

    #: Per completed op: wall seconds, CPU seconds of the process tree,
    #: and whether it ran traced.
    latencies_s: "list[float]" = field(default_factory=list)
    cpu_s: "list[float]" = field(default_factory=list)
    traced: "list[bool]" = field(default_factory=list)
    #: op -> (start, end) of its latency window; traced op ids.
    windows: "dict[int, tuple[float, float]]" = field(default_factory=dict)
    traced_ops: "set[int]" = field(default_factory=set)
    measured_s: float = 0.0
    cp_completion_ms: float = math.nan
    attempted: int = 0
    errors: "list[str]" = field(default_factory=list)
    fingerprint: str = ""
    recorder: "SpanRecorder | None" = None
    #: Reference-kernel wall and CPU seconds taken just before each op.
    host_s: "list[float]" = field(default_factory=list)
    host_cpu_s: "list[float]" = field(default_factory=list)
    #: serve only: pool worker deaths and stage retries over the run.
    worker_deaths: int = 0
    stage_retries: int = 0
    #: Ops (or run-level checks) that failed, by label.
    failed_ops: "set[str]" = field(default_factory=set)

    @property
    def failed(self) -> int:
        return min(len(self.failed_ops), self.attempted)

    def fail(self, where: str, problems: "list[str]") -> None:
        if problems:
            self.failed_ops.add(where)
            self.errors.extend(f"{where}: {problem}" for problem in problems)


# ---------------------------------------------------------------------- #
# inputs and construction
# ---------------------------------------------------------------------- #


def pipeline_inputs(spec: Pipeline, seed: int) -> "list[np.ndarray]":
    params = fast_ocs_params(spec.radix)
    workload = SkewedWorkload.for_params(params)
    return [
        workload.generate(
            spec.radix, np.random.default_rng(np.random.SeedSequence((seed, k)))
        ).demand
        for k in range(spec.pool)
    ]


def serve_inputs(spec: Serve, seed: int) -> "list[np.ndarray]":
    params = fast_ocs_params(spec.radix)
    arrivals = WorkloadArrivals(
        CombinedWorkload.typical(params), n_ports=spec.radix, seed=seed
    )
    return [arrivals(epoch) for epoch in range(spec.pool)]


def build_pipeline(spec: Pipeline):
    params = fast_ocs_params(spec.radix)
    h = _SCHEDULERS[spec.scheduler]()
    return params, h, CpSwitchScheduler(h)


def build_controller(spec: Serve) -> EpochController:
    return EpochController(
        params=fast_ocs_params(spec.radix),
        scheduler=SolsticeScheduler(),
        use_composite_paths=True,
    )


def build_service(spec: Serve, arrivals) -> SchedulingService:
    # ServiceConfig() on purpose: a change of any default is measured.
    return SchedulingService(build_controller(spec), arrivals, ServiceConfig())


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for array in arrays:
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------- #
# correctness checks
# ---------------------------------------------------------------------- #


def check_entries(entries, n: int, what: str) -> "list[str]":
    """Every ``(permutation, duration)`` is an n×n partial permutation
    matrix of 0/1 entries held for a finite, non-negative time."""
    problems = []
    for index, (permutation, duration) in enumerate(entries):
        perm = np.asarray(permutation)
        if perm.shape != (n, n):
            problems.append(f"{what}[{index}] has shape {perm.shape}, not {(n, n)}")
            continue
        if not ((perm == 0) | (perm == 1)).all():
            problems.append(f"{what}[{index}] has entries other than 0/1")
        elif (perm.sum(axis=0) > 1).any() or (perm.sum(axis=1) > 1).any():
            problems.append(f"{what}[{index}] repeats a row or column")
        if not (math.isfinite(duration) and duration >= 0.0):
            problems.append(f"{what}[{index}] has duration {duration}")
    return problems


def check_cp_schedule(schedule, n: int) -> "list[str]":
    problems = check_entries(
        [(e.regular, e.duration) for e in schedule.entries], n, "cp entry"
    )
    problems += check_entries(
        [(e.permutation, e.duration) for e in schedule.reduced_schedule],
        n + 1,
        "reduced entry",
    )
    for index, entry in enumerate(schedule.entries):
        for port in (entry.o2m_port, entry.m2o_port):
            if port is not None and not 0 <= port < n:
                problems.append(f"cp entry[{index}] grants composite port {port}")
    return problems


def check_ledger(result, demand: np.ndarray, what: str) -> "list[str]":
    """delivered + stranded = demanded, and every demanded entry finished."""
    problems = []
    demanded = float(demand.sum())
    delivered = result.served_ocs_direct + result.served_composite + result.served_eps
    stranded = result.stranded_volume
    if abs(delivered + stranded - demanded) > VOLUME_TOL * max(1.0, demanded):
        problems.append(
            f"{what}: delivered {delivered!r} + stranded {stranded!r} "
            f"!= demanded {demanded!r} Mb"
        )
    if not (math.isfinite(result.completion_time) and result.completion_time > 0):
        problems.append(f"{what}: completion time {result.completion_time!r}")
    elif not np.isfinite(result.finish_times[demand > VOLUME_TOL]).all():
        problems.append(f"{what}: a demanded entry never finished")
    return problems


def check_epoch(report, offered: float, backlog_before: float) -> "list[str]":
    """One served epoch's volume ledger, against the benchmark's arrivals."""
    problems = []
    tol = VOLUME_TOL * max(1.0, offered + backlog_before)
    if abs(report.offered_volume - (offered + backlog_before)) > tol:
        problems.append(
            f"scheduled {report.offered_volume!r} Mb but {offered!r} arrived "
            f"onto a backlog of {backlog_before!r} Mb"
        )
    if abs(report.served_volume + report.stranded_volume - report.offered_volume) > tol:
        problems.append(
            f"delivered {report.served_volume!r} + stranded "
            f"{report.stranded_volume!r} != demanded {report.offered_volume!r} Mb"
        )
    return problems


def check_service(report, offered_total: float, epochs: int) -> "list[str]":
    """offered = admitted + shed + parked, nothing abandoned or lost."""
    problems = []
    accounted = report.admitted_mb + report.shed_mb + report.parked_mb
    if abs(offered_total - accounted) > VOLUME_TOL * max(1.0, offered_total):
        problems.append(
            f"offered {offered_total!r} Mb != admitted {report.admitted_mb!r} + "
            f"shed {report.shed_mb!r} + parked {report.parked_mb!r}"
        )
    if report.abandoned_batches:
        problems.append(f"{report.abandoned_batches} arrival batches abandoned")
    if report.n_epochs != epochs:
        problems.append(f"{report.n_epochs} epochs reported for {epochs} offered")
    return problems


def _result_stats(result) -> tuple:
    return (
        result.completion_time.hex(),
        result.n_configs,
        float(result.makespan).hex(),
        float(result.served_ocs_direct).hex(),
        float(result.served_composite).hex(),
        float(result.served_eps).hex(),
        float(result.total_demand).hex(),
        hashlib.sha256(np.ascontiguousarray(result.finish_times).tobytes()).hexdigest(),
    )


def _epoch_stats(outcome) -> tuple:
    report = tuple(
        (name, getattr(outcome.report, name))
        for name in _REPORT_FIELDS
        if name != "epoch"
    )
    arms = tuple(
        tuple((key, arm[key]) for key in _ARM_FIELDS if key in arm)
        for arm in outcome.arms
    )
    return report, arms


def _fingerprint(stats) -> str:
    return hashlib.sha256(repr(list(stats)).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------- #
# the closed loops
# ---------------------------------------------------------------------- #


def _trial(h, cp, demand, params):
    schedule = h.schedule(demand, params)
    h_result = sim.simulate_hybrid(demand, schedule, params)
    cp_schedule = cp.schedule(demand, params)
    cp_result = sim.simulate_cp(demand, cp_schedule, params)
    return schedule, h_result, cp_schedule, cp_result


def _traced(op: int, pool: int) -> bool:
    """Every other op runs traced, shifted by one on each pass over the
    pool, so every pooled input is measured both ways."""
    return (op + op // pool) % 2 == 1


def run_pipeline(spec: Pipeline, seed: int, seconds: float, trace: bool) -> RunResult:
    """Back-to-back trials over the seeded demand pool for ``seconds``
    (and at least one full pass of the pool)."""
    params, h, cp = build_pipeline(spec)
    demands = pipeline_inputs(spec, seed)
    inputs_digest = _digest(demands)
    recorder = SpanRecorder()
    layers = (
        Patch(recorder, LAYER_TARGETS + PIPELINE_TARGETS, on_return=_COUNTERS)
        if trace
        else None
    )
    _trial(h, cp, demands[0], params)  # warm-up, not measured
    kernel = hostspeed.HostSpeed()

    out = RunResult(recorder=recorder)
    first: "list[tuple | None]" = [None] * spec.pool
    cp_completion = [math.nan] * spec.pool
    n = spec.radix
    start = time.perf_counter()
    trial = 0
    while trial < spec.pool or time.perf_counter() - start < seconds:
        k = trial % spec.pool
        demand = demands[k]
        traced = layers is not None and _traced(trial, spec.pool)
        recorder.op = trial
        host_s, host_cpu_s = kernel.sample()
        if traced:
            layers.install()
        try:
            t0 = time.perf_counter()
            c0 = time.process_time()
            schedule, h_result, cp_schedule, cp_result = _trial(h, cp, demand, params)
            t1 = time.perf_counter()
            c1 = time.process_time()
        except Exception:  # noqa: BLE001 - a crashed trial is a failed op
            out.attempted += 1
            out.fail(f"trial {trial}", [traceback.format_exc()])
            trial += 1
            continue
        finally:
            if traced:
                layers.uninstall()
        out.attempted += 1
        out.latencies_s.append(t1 - t0)
        out.cpu_s.append(c1 - c0)
        out.host_s.append(host_s)
        out.host_cpu_s.append(host_cpu_s)
        out.traced.append(traced)
        out.windows[trial] = (t0, t1)
        if traced:
            out.traced_ops.add(trial)
        problems = check_entries(
            [(e.permutation, e.duration) for e in schedule], n, "h entry"
        )
        problems += check_cp_schedule(cp_schedule, n)
        problems += check_ledger(h_result, demand, "h-Switch")
        problems += check_ledger(cp_result, demand, "cp-Switch")
        stats = (_result_stats(h_result), _result_stats(cp_result))
        if first[k] is None:
            first[k] = stats
            cp_completion[k] = cp_result.completion_time
        elif stats != first[k]:
            problems.append(f"repeat of pool demand {k} simulated differently")
        out.fail(f"trial {trial}", problems)
        trial += 1
    out.measured_s = sum(out.latencies_s)
    if _digest(demands) != inputs_digest:
        out.fail("inputs", ["the program modified its input demand matrices"])
    out.cp_completion_ms = statistics.fmean(cp_completion)
    out.fingerprint = _fingerprint(first)
    return out


class TreeClock:
    """CPU seconds used so far by this process and its pool workers.

    A worker's CPU clock is read through ``clock_getcpuclockid``, so an
    epoch's CPU counts the stages it sharded as well as its primary path,
    however the host interleaved them.  A worker that exits keeps its
    last reading, so the total never runs backwards.
    """

    def __init__(self) -> None:
        self._libc = ctypes.CDLL(None, use_errno=True)
        self._clocks: "dict[int, int]" = {}
        self._last: "dict[int, float]" = {}

    def refresh(self) -> None:
        """Start reading any worker forked since the last call."""
        for child in multiprocessing.active_children():
            if child.pid in self._clocks:
                continue
            clock = ctypes.c_int()
            if self._libc.clock_getcpuclockid(child.pid, ctypes.byref(clock)):
                raise OSError(ctypes.get_errno(), f"no CPU clock for pid {child.pid}")
            self._clocks[child.pid] = clock.value

    def read(self) -> float:
        for pid, clock in list(self._clocks.items()):
            try:
                self._last[pid] = time.clock_gettime(clock)
            except OSError:
                pass  # the worker is gone; keep its last reading
        return time.process_time() + sum(self._last.values())


class _ServeHooks:
    """The serve loop's clock: spans on offer, run_epoch and pool.map, plus
    a capture of each epoch's schedule, checked outside the epoch."""

    def __init__(self, spec: Serve, pool, recorder, layers, out) -> None:
        self.spec = spec
        self.pool = pool
        self.recorder = recorder
        self.layers = layers
        self.out = out
        self.pending = None  # (epoch, demand, cp_schedule, result)
        self.kernel = hostspeed.HostSpeed()
        self.check_s = 0.0
        self.epochs_done = 0
        self.tree = TreeClock()
        #: epoch -> process-tree CPU reading at its offer and at the
        #: later of its run_epoch and pool.map returns.
        self.cpu_start: "dict[int, float]" = {}
        self.cpu_end: "dict[int, float]" = defaultdict(float)

    def before_offer(self, recorder, args) -> None:
        t0 = time.perf_counter()
        self.check_pending()
        host_s, host_cpu_s = self.kernel.sample()
        self.out.host_s.append(host_s)
        self.out.host_cpu_s.append(host_cpu_s)
        self.tree.refresh()
        recorder.op += 1
        epoch = recorder.op
        if args[1] is not self.pool[epoch % len(self.pool)]:
            self.out.fail(f"epoch {epoch}", ["offered a batch out of arrival order"])
        if self.layers is not None:
            if _traced(epoch, self.spec.pool):
                self.layers.install()
                self.out.traced_ops.add(epoch)
            else:
                self.layers.uninstall()
        if epoch:  # the first epoch's hook runs before the measured window
            self.check_s += time.perf_counter() - t0
        self.cpu_start[epoch] = self.tree.read()

    def on_stage_end(self, recorder, args, result) -> None:
        """run_epoch or pool.map returned: the epoch's CPU so far."""
        epoch = recorder.op
        self.cpu_end[epoch] = max(self.cpu_end[epoch], self.tree.read())

    def on_simulate(self, recorder, args, result) -> None:
        self.pending = (recorder.op, args[0], args[1], result)

    def on_pool_map(self, recorder, args, result) -> None:
        self.on_stage_end(recorder, args, result)
        _COUNTERS["runner.pool.map"](recorder, args, result)

    def on_run_epoch(self, recorder, args, result) -> None:
        self.on_stage_end(recorder, args, result)
        self.epochs_done += 1
        if args[1] != recorder.op:
            self.out.fail(f"epoch {recorder.op}", [f"ran as epoch {args[1]}"])

    def check_pending(self) -> None:
        if self.pending is None:
            return
        epoch, demand, schedule, result = self.pending
        self.pending = None
        problems = check_cp_schedule(schedule, self.spec.radix)
        problems += check_ledger(result, demand, "cp-Switch")
        self.out.fail(f"epoch {epoch}", problems)


def run_serve(spec: Serve, seed: int, seconds: float, trace: bool) -> RunResult:
    """``SchedulingService.run()`` on its defaults, free-running, until
    ``seconds`` have passed and the arrival pool was served once."""
    pool = serve_inputs(spec, seed)
    inputs_digest = _digest(pool)
    warm = build_controller(spec)  # warm-up epoch, not measured
    warm.offer(pool[0])
    warm.run_epoch(0)

    out = RunResult()
    recorder = out.recorder = SpanRecorder()
    layers = Patch(recorder, LAYER_TARGETS, on_return=_COUNTERS) if trace else None
    hooks = _ServeHooks(spec, pool, recorder, layers, out)
    clock = Patch(
        recorder,
        SERVE_TARGETS,
        before={"controller.offer": hooks.before_offer},
        on_return={
            "runner.pool.map": hooks.on_pool_map,
            "sim.simulate": hooks.on_simulate,
            "controller.run_epoch": hooks.on_run_epoch,
        },
    )
    service = build_service(spec, lambda epoch: pool[epoch % spec.pool])

    async def drive():
        loop = asyncio.get_running_loop()
        started = loop.time()

        def poll() -> None:
            if hooks.epochs_done >= spec.pool and loop.time() - started >= seconds:
                service.request_stop()
            else:
                loop.call_later(0.05, poll)

        loop.call_later(0.05, poll)
        return await service.run()

    clock.install()
    try:
        report = asyncio.run(drive())
    finally:
        clock.uninstall()
        if layers is not None:
            layers.uninstall()
    hooks.check_pending()

    offers, ends = {}, defaultdict(float)
    for _sid, name, start, end, _parent, op in recorder.spans:
        if name == "controller.offer":
            offers[op] = start
        elif name in ("controller.run_epoch", "runner.pool.map"):
            ends[op] = max(ends[op], end)
    epochs = len(offers)
    out.attempted = epochs
    for epoch in range(epochs):
        out.windows[epoch] = (offers[epoch], ends[epoch])
        out.latencies_s.append(ends[epoch] - offers[epoch])
        out.cpu_s.append(hooks.cpu_end[epoch] - hooks.cpu_start[epoch])
        out.traced.append(epoch in out.traced_ops)
    out.measured_s = ends[epochs - 1] - offers[0] - hooks.check_s

    first: "list[tuple | None]" = [None] * spec.pool
    backlog = 0.0
    for epoch, outcome in enumerate(report.outcomes):
        k = epoch % spec.pool
        problems = check_epoch(outcome.report, float(pool[k].sum()), backlog)
        backlog = outcome.report.backlog_after
        if outcome.stage_failures:
            problems.append(f"{outcome.stage_failures} sharded stage(s) failed")
        stats = _epoch_stats(outcome)
        if first[k] is None:
            first[k] = stats
        elif stats != first[k]:
            problems.append(f"repeat of arrival batch {k} served differently")
        out.fail(f"epoch {epoch}", problems)
    offered_total = sum(float(pool[e % spec.pool].sum()) for e in range(epochs))
    problems = check_service(report, offered_total, epochs)
    if _digest(pool) != inputs_digest:
        problems.append("the program modified its arrival matrices")
    out.fail("service", problems)
    out.cp_completion_ms = statistics.fmean(
        o.report.completion_time for o in report.outcomes[: spec.pool]
    )
    out.fingerprint = _fingerprint(first)
    out.worker_deaths = report.worker_deaths
    out.stage_retries = report.stage_retries
    return out


def run(name: str, seed: int, seconds: float, trace: bool) -> RunResult:
    spec = WORKLOADS[name]
    if isinstance(spec, Pipeline):
        return run_pipeline(spec, seed, seconds, trace)
    return run_serve(spec, seed, seconds, trace)


# ---------------------------------------------------------------------- #
# metrics
# ---------------------------------------------------------------------- #


def _p90(values) -> float:
    return statistics.quantiles(values, n=10)[-1]


def end_to_end(out: RunResult, scale: bool = True) -> "dict[str, tuple[float, str]]":
    """The untraced run's declared metrics: throughput and median op cost
    in CPU time of the process tree, scaled to the nominal host speed
    unless ``scale`` is false, and the simulated completion time (set-up
    time and RSS are added by run.py)."""
    cpu_ms = [s * 1e3 for s in _cpu(out, scale)]
    return {
        "ops_per_cpu_s": (1e3 / statistics.fmean(cpu_ms), "1/s"),
        "cpu_ms_p50": (statistics.median(cpu_ms), "ms"),
        "cp_completion_ms": (out.cp_completion_ms, "ms"),
    }


def _cpu(out: RunResult, scale: bool) -> "list[float]":
    return hostspeed.scaled(out.cpu_s, out.host_cpu_s) if scale else out.cpu_s


def undeclared(out: RunResult, scale: bool = True) -> "dict[str, tuple[float, str]]":
    """Figures printed beside the declared metrics but too unsteady on a
    shared host to hold a regression bound: the CPU tail, and op latency
    and throughput on the wall clock, which move with how many cores the
    host leaves the benchmark."""
    latencies = out.latencies_s
    measured_s = out.measured_s
    if scale:
        latencies = hostspeed.scaled(latencies, out.host_s)
        measured_s *= sum(latencies) / sum(out.latencies_s)
    latencies_ms = [s * 1e3 for s in latencies]
    return {
        "cpu_ms_p90": (_p90([s * 1e3 for s in _cpu(out, scale)]), "ms"),
        "ops_per_s": (len(latencies_ms) / measured_s, "1/s"),
        "latency_p50_ms": (statistics.median(latencies_ms), "ms"),
        "latency_p90_ms": (_p90(latencies_ms), "ms"),
    }


def per_layer(out: RunResult, name: str) -> "dict[str, tuple[float, str]]":
    """Per-layer metrics over the traced ops, each averaged per op."""
    recorder = out.recorder
    traced_ops = out.traced_ops
    spans = [s for s in recorder.spans if s[5] in traced_ops]
    selfs = self_times(spans)
    calls = defaultdict(int)
    busy = defaultdict(float)
    self_s = defaultdict(float)
    top = defaultdict(list)
    by_op = defaultdict(dict)
    cpu_wait = 0.0
    for sid, span, start, end, parent, op in spans:
        calls[span] += 1
        busy[span] += end - start
        self_s[span] += selfs[sid]
        if not parent:
            top[op].append((start, end))
        if span in ("controller.offer", "controller.run_epoch", "runner.pool.map"):
            by_op[op][span] = (start, end)
        if sid in recorder.cpu:
            cpu_wait += (end - start) - recorder.cpu[sid]
    counts = defaultdict(float)
    for counter, op, value in recorder.counts:
        if op in traced_ops:
            counts[counter] += value

    missing = [layer for layer in REQUIRED_LAYERS[name] if not calls[layer]]
    if missing:
        raise RuntimeError(
            f"traced run recorded no call of {', '.join(missing)}: the wrapped "
            "names are no longer on the program's call path"
        )

    unattributed = 0.0
    fanout_wait = 0.0
    loop_self = 0.0
    for op in traced_ops:
        window_start, window_end = out.windows[op]
        unattributed += (window_end - window_start) - covered(top[op])
        marks = by_op.get(op, {})
        if "controller.run_epoch" in marks:
            run_end = marks["controller.run_epoch"][1]
            wait = max(0.0, marks.get("runner.pool.map", (0.0, run_end))[1] - run_end)
            fanout_wait += wait
            loop_self += (window_end - window_start) - wait - sum(
                marks[s][1] - marks[s][0]
                for s in ("controller.offer", "controller.run_epoch")
            )

    on = [lat for lat, t in zip(out.latencies_s, out.traced) if t]
    off = [lat for lat, t in zip(out.latencies_s, out.traced) if not t]
    n = len(traced_ops)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    return {
        "hybrid.solstice.schedule.self_s": (self_s["hybrid.solstice.schedule"] / n, "s/op"),
        "hybrid.solstice.quick_stuff.busy_s": (busy["hybrid.solstice.quick_stuff"] / n, "s/op"),
        "hybrid.solstice.big_slice.self_s": (self_s["hybrid.solstice.big_slice"] / n, "s/op"),
        "hybrid.solstice.big_slice.calls": (calls["hybrid.solstice.big_slice"] / n, "count/op"),
        "matching.hk.calls": (calls["matching.hk"] / n, "count/op"),
        "matching.hk.busy_s": (busy["matching.hk"] / n, "s/op"),
        "matching.hk.calls_per_slice": (
            ratio(calls["matching.hk"], calls["hybrid.solstice.big_slice"]),
            "calls/slice",
        ),
        "hybrid.eclipse.schedule.self_s": (self_s["hybrid.eclipse.schedule"] / n, "s/op"),
        "matching.lsap.calls": (calls["matching.lsap"] / n, "count/op"),
        "matching.lsap.busy_s": (busy["matching.lsap"] / n, "s/op"),
        "matching.lsap.calls_per_config": (
            ratio(calls["matching.lsap"], counts["hybrid.eclipse.configs"]),
            "calls/config",
        ),
        "core.reduction.calls": (calls["core.reduction"] / n, "count/op"),
        "core.reduction.busy_s": (busy["core.reduction"] / n, "s/op"),
        "core.interpret.calls": (calls["core.interpret"] / n, "count/op"),
        "core.interpret.busy_s": (busy["core.interpret"] / n, "s/op"),
        "core.cp_schedule.self_s": (self_s["core.cp_schedule"] / n, "s/op"),
        "sim.engine.phases": (calls["sim.engine.event_loop"] / n, "count/op"),
        "sim.engine.event_loop.self_s": (self_s["sim.engine.event_loop"] / n, "s/op"),
        "sim.rates.waterfill.calls": (calls["sim.rates.waterfill"] / n, "count/op"),
        "sim.rates.waterfill.busy_s": (busy["sim.rates.waterfill"] / n, "s/op"),
        "sim.rates.waterfill.calls_per_phase": (
            ratio(calls["sim.rates.waterfill"], calls["sim.engine.event_loop"]),
            "calls/phase",
        ),
        "sim.simulate.self_s": (self_s["sim.simulate"] / n, "s/op"),
        "controller.offer.calls": (calls["controller.offer"] / n, "count/op"),
        "controller.offer.busy_s": (busy["controller.offer"] / n, "s/op"),
        "controller.run_epoch.self_s": (self_s["controller.run_epoch"] / n, "s/op"),
        "controller.run_epoch.cpu_wait_s": (cpu_wait / n, "s/op"),
        "runner.pool.map.busy_s": (busy["runner.pool.map"] / n, "s/op"),
        "runner.pool.tasks": (counts["runner.pool.tasks"] / n, "count/op"),
        "runner.pool.retries": (out.stage_retries / out.attempted, "count/op"),
        "runner.pool.worker_deaths": (out.worker_deaths / out.attempted, "count/op"),
        "service.fanout_wait_s": (fanout_wait / n, "s/op"),
        "service.loop.self_s": (loop_self / n, "s/op"),
        "trace.unattributed_s": (unattributed / n, "s/op"),
        "trace.overhead": (ratio(statistics.median(on), statistics.median(off)), "ratio"),
    }
