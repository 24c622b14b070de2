"""Asyncio scheduling service: the epoch controller as a continuous loop.

:class:`~repro.analysis.controller.EpochController` is a library — you
call :meth:`offer` and :meth:`run_epoch` yourself.  :class:`SchedulingService`
wraps it into the long-running loop a deployment would actually operate.

One service epoch is :meth:`SchedulingService.step`, the only code that
runs one: it offers the batch, fans the auxiliary heavy stages
(independent scheduler arms and fast-reroute backup planning, see
:mod:`repro.service.stages`) out to a warm
:class:`~repro.runner.pool.WorkerPool` on a helper thread, runs the
controller's schedule/execute step — inline deadline budget, anytime
fallback ladder, backpressure ledger and all — while they overlap, joins
them, then publishes the epoch's metrics and feeds the heartbeat, the
live telemetry plane and the flight recorder.  A worker death respawns
the worker and retries the stage.

Two drivers loop over it:

* :meth:`SchedulingService.run_sync` — a plain for-loop with no asyncio
  and no pool, bit-identical to :meth:`EpochController.run`;
* :meth:`SchedulingService.run` — adds only what is asynchronous: an
  **ingestion task** pulls ``(epoch, demand)`` batches from an async
  arrival stream (:func:`repro.workloads.arrivals.arrival_stream`) into a
  bounded queue — when epochs fall behind, the queue fills and ingestion
  blocks, so backpressure propagates to the stream instead of growing an
  unbounded buffer — a monotonic epoch clock, drain/stop and the pool's
  lifetime.  Each step runs in an executor thread.

Shutdown is drain-by-default: :meth:`request_stop` (or the CLI's SIGTERM
handler) stops ingestion at the next batch boundary, the epoch task
finishes everything already queued, workers are joined, and the final
:class:`ServiceReport` carries balanced conservation ledgers.
"""

from __future__ import annotations

import asyncio
import time
from concurrent import futures
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro import obs
from repro.runner.heartbeat import HeartbeatTicker, heartbeat_dir
from repro.runner.pool import StageTask, WorkerPool, absorb_observations
from repro.service.stages import DEFAULT_ARMS
from repro.workloads.arrivals import arrival_stream

if TYPE_CHECKING:  # import cycle: analysis.controller imports service.deadline
    from repro.analysis.controller import ArrivalProcess, EpochController, EpochReport

#: Queue sentinel: the ingestion task is done (stream ended or stop requested).
_STREAM_END = None

#: Crash-retry budget of the warm pool: a stage whose worker dies is
#: retried once on the respawned worker before it reports ``crashed``.
STAGE_RETRIES = 1


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of one :class:`SchedulingService` run.

    Parameters
    ----------
    n_epochs:
        Epochs to serve; ``None`` serves until :meth:`~SchedulingService.request_stop`.
    n_workers:
        Warm pool size for the sharded stages; ``0`` disables sharding
        (every epoch runs inline only).
    queue_depth:
        Ingestion queue bound — how many arrival batches may sit between
        the stream and the epoch task before backpressure blocks ingestion.
    epoch_interval_s:
        Monotonic epoch clock period: epoch ``k`` fires no earlier than
        ``k * epoch_interval_s`` after the service started.  ``0`` free-runs.
        An epoch that takes longer than the interval counts as an SLO
        violation (reason ``epoch_overrun``).
    arms:
        Independent scheduler arms sharded each epoch (names accepted by
        :func:`repro.hybrid.base.make_scheduler`); empty disables.
    shard_backups:
        Also shard a fast-reroute backup-planning stage each epoch.
    stage_timeout_s:
        Per-stage wall-clock budget of the pool (``None``: unbounded).
    drain:
        On stop: finish every batch already queued (``True``, default) or
        abandon the queue immediately (``False`` — abandoned batches are
        counted, never silently lost).
    telemetry_port:
        Bind the live telemetry HTTP server (``/metrics``, ``/healthz``,
        ``/status``) on this port; ``0`` picks an ephemeral port (read
        ``service.telemetry.port`` after start).  ``None`` (default)
        disables the whole live plane — with it off the epoch path is
        byte-for-byte the untelemetered loop.
    telemetry_host:
        Bind address for the telemetry server (loopback by default).
    incidents_dir:
        Where the flight recorder dumps incident bundles; defaults to
        ``$REPRO_RUN_DIR/incidents`` when the telemetry plane is on.
        Setting it without ``telemetry_port`` enables the recorder alone
        (bundles, no HTTP server).
    recorder_epochs:
        Flight-recorder ring size: epochs of context in each bundle.
    mono_clock / async_sleep:
        Injection seams for the epoch clock (tests step a fake clock).
    """

    n_epochs: "int | None" = None
    n_workers: int = 2
    queue_depth: int = 4
    epoch_interval_s: float = 0.0
    arms: "tuple[str, ...]" = DEFAULT_ARMS
    shard_backups: bool = True
    stage_timeout_s: "float | None" = None
    drain: bool = True
    telemetry_port: "int | None" = None
    telemetry_host: str = "127.0.0.1"
    incidents_dir: "str | Path | None" = None
    recorder_epochs: int = 8
    mono_clock: Callable[[], float] = field(default=time.monotonic, repr=False)
    async_sleep: Callable = field(default=asyncio.sleep, repr=False)

    def __post_init__(self) -> None:
        if self.n_epochs is not None and self.n_epochs < 1:
            raise ValueError(f"n_epochs must be >= 1 (or None), got {self.n_epochs}")
        if self.n_workers < 0:
            raise ValueError(f"n_workers must be >= 0, got {self.n_workers}")
        if self.queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {self.queue_depth}")
        if self.epoch_interval_s < 0:
            raise ValueError(
                f"epoch_interval_s must be >= 0, got {self.epoch_interval_s}"
            )
        if self.telemetry_port is not None and self.telemetry_port < 0:
            raise ValueError(
                f"telemetry_port must be >= 0 (or None), got {self.telemetry_port}"
            )
        if self.recorder_epochs < 1:
            raise ValueError(
                f"recorder_epochs must be >= 1, got {self.recorder_epochs}"
            )


@dataclass(frozen=True)
class EpochOutcome:
    """One service epoch: the controller's report plus the sharded stages.

    ``slo_reasons`` names the service objectives the epoch missed
    (``schedule_deadline``, ``epoch_overrun``); ``admitted_mb`` is what
    ``offer`` admitted; ``incident_bundles`` are the flight-recorder
    bundles the epoch dumped.
    """

    report: EpochReport
    arms: "tuple[dict, ...]" = ()
    stage_failures: int = 0
    stage_retries: int = 0
    shard_pids: "tuple[int, ...]" = ()
    epoch_latency_s: float = 0.0
    slo_reasons: "tuple[str, ...]" = ()
    admitted_mb: float = 0.0
    incident_bundles: "tuple[str, ...]" = ()

    @property
    def slo_violation(self) -> bool:
        return bool(self.slo_reasons)


@dataclass
class ServiceReport:
    """Outcome of one service run (either driver)."""

    outcomes: "list[EpochOutcome]" = field(default_factory=list)
    drained: bool = True
    stopped_early: bool = False
    abandoned_batches: int = 0
    worker_pids: "tuple[int, ...]" = ()
    worker_deaths: int = 0
    stage_retries: int = 0
    slo_violations: int = 0
    admitted_mb: float = 0.0
    shed_mb: float = 0.0
    parked_mb: float = 0.0
    backlog_mb: float = 0.0
    incident_bundles: "list[str]" = field(default_factory=list)

    @property
    def reports(self) -> "list[EpochReport]":
        """The controller's per-epoch reports (the bit-identity surface)."""
        return [outcome.report for outcome in self.outcomes]

    @property
    def n_epochs(self) -> int:
        return len(self.outcomes)


class SchedulingService:
    """Continuous scheduling loop over an :class:`EpochController`.

    The controller keeps full ownership of scheduling state (VOQs,
    deadline ladder, conservation ledgers); the service owns *time and
    concurrency* — ingestion, the epoch clock, stage sharding, shutdown.
    """

    def __init__(
        self,
        controller: EpochController,
        arrivals: ArrivalProcess,
        config: "ServiceConfig | None" = None,
    ) -> None:
        self.controller = controller
        self.arrivals = arrivals
        self.config = config if config is not None else ServiceConfig()
        self._stop_requested = False
        #: Live telemetry plane; ``None`` until a run starts with
        #: ``telemetry_port`` / ``incidents_dir`` configured.  Smokes read
        #: ``service.telemetry.port`` to find the ephemeral scrape port.
        self.telemetry = None
        # Advisory heartbeat extras, replaced wholesale each epoch so the
        # ticker thread always reads a complete dict (no partial updates).
        self._hb_status: dict = {"service_epoch": None, "epochs_done": 0}
        # Len-watermark into the tracer buffer: the tail past the mark is
        # what the next epoch adds.
        self._trace_mark = 0

    # ------------------------------------------------------------------ #

    def request_stop(self) -> None:
        """Ask the loop to stop at the next batch boundary (from any thread
        or a signal handler: the flag is a plain attribute store)."""
        self._stop_requested = True
        if self.telemetry is not None:
            self.telemetry.set_draining(True)

    # ------------------------------------------------------------------ #
    # run-scoped state shared by both drivers
    # ------------------------------------------------------------------ #

    def _build_telemetry(self, pool: "WorkerPool | None"):
        """Construct the :class:`~repro.obs.live.LiveTelemetry` facade, or
        ``None`` when the config leaves the whole plane off (the default —
        nothing below this line runs on the untelemetered path)."""
        config = self.config
        if config.telemetry_port is None and config.incidents_dir is None:
            return None
        # Local imports: the live plane is opt-in, and loop.py must stay
        # importable without dragging the HTTP/incident machinery along.
        from repro.analysis.sweeps import default_run_dir
        from repro.obs.incidents import FlightRecorder
        from repro.obs.live import LiveTelemetry

        incidents_dir = config.incidents_dir
        if incidents_dir is None:
            incidents_dir = default_run_dir() / "incidents"
        recorder = FlightRecorder(
            incidents_dir, window_epochs=config.recorder_epochs
        )
        return LiveTelemetry(
            registry=obs.get_metrics(),
            port=config.telemetry_port,
            host=config.telemetry_host,
            recorder=recorder,
            pool_status_fn=pool.liveness if pool is not None else None,
        )

    @contextmanager
    def _serving(self, pool: "WorkerPool | None"):
        """Telemetry plane, trace watermark and heartbeat ticker for one
        run; torn down when the run ends, however it ends."""
        self.telemetry = self._build_telemetry(pool)
        if self.telemetry is not None:
            self.telemetry.start()
        tracer = obs.get_tracer()
        self._trace_mark = (
            len(tracer.records())
            if self.telemetry is not None and tracer.enabled
            else 0
        )
        ticker = None
        journal = self.controller.journal
        if journal is not None and journal.path is not None:
            ticker = HeartbeatTicker(
                heartbeat_dir(journal.path),
                "service",
                experiment="service",
                status_fn=self._heartbeat_status,
            ).start()
        try:
            yield
        finally:
            if ticker is not None:
                ticker.stop()
            if self.telemetry is not None:
                self.telemetry.stop()

    def _heartbeat_status(self) -> dict:
        """Advisory extras for the service heartbeat (ticker thread)."""
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.touch()  # /healthz freshness rides the same beat
        return dict(self._hb_status)

    def _finalize(self, report: ServiceReport) -> ServiceReport:
        outcomes = report.outcomes
        n_epochs = self.config.n_epochs
        report.stopped_early = self._stop_requested and (
            n_epochs is None or len(outcomes) < n_epochs
        )
        report.slo_violations = sum(1 for o in outcomes if o.slo_violation)
        report.stage_retries = sum(o.stage_retries for o in outcomes)
        report.admitted_mb = sum((o.admitted_mb for o in outcomes), 0.0)
        report.incident_bundles = [p for o in outcomes for p in o.incident_bundles]
        report.shed_mb = self.controller.shed_volume_total
        report.parked_mb = self.controller.parked_volume
        report.backlog_mb = self.controller.voqs.backlog
        # A service run must never lose a byte: audit the controller's
        # offered = admitted + shed + parked ledger before reporting.
        self.controller.check_conservation()
        return report

    # ------------------------------------------------------------------ #
    # one epoch
    # ------------------------------------------------------------------ #

    def _stage_tasks(self, demand: np.ndarray, epoch: int) -> "list[StageTask]":
        config = self.config
        if config.n_workers == 0 or float(demand.sum()) <= 0.0:
            return []
        params = self.controller.params
        tasks = [
            StageTask(
                name=f"arm:{name}",
                fn="repro.service.stages:scheduler_arm",
                kwargs={
                    "name": name,
                    "demand": demand,
                    "params": params,
                    "use_composite_paths": self.controller.use_composite_paths,
                    "horizon": self.controller.epoch_duration,
                },
            )
            for name in config.arms
        ]
        if config.shard_backups and self.controller.use_composite_paths:
            dead_o2m, dead_m2o = self.controller.dead_composite_ports
            tasks.append(
                StageTask(
                    name="backup",
                    fn="repro.service.stages:backup_arm",
                    kwargs={
                        "demand": demand,
                        "params": params,
                        "blocked_o2m": dead_o2m,
                        "blocked_m2o": dead_m2o,
                    },
                )
            )
        return tasks

    def step(
        self, epoch: int, demand: np.ndarray, pool: "WorkerPool | None" = None
    ) -> EpochOutcome:
        """Run one service epoch: offer → schedule/execute → publish → record.

        ``demand`` is offered as is.  With a ``pool``, the epoch's stages
        run on it from a helper thread while ``run_epoch`` executes here,
        and are joined even when ``run_epoch`` raises.  Steps must not
        overlap: the async driver awaits each one (in an executor thread)
        before the next, so this thread owns the tracer, the flight
        recorder and the trace watermark for the step's duration; the
        heartbeat and scrape threads only read, through locks or a
        wholesale-replaced dict.
        """
        controller = self.controller
        start = time.perf_counter()
        admitted = controller.offer(demand)
        tasks: "list[StageTask]" = []
        if pool is not None:
            tasks = self._stage_tasks(controller.voqs.occupancy.copy(), epoch)
            retries_before, deaths_before = pool.tasks_retried, len(pool.death_log)
        # Leaving the block joins the helper thread, also when run_epoch
        # raises: pool.map is never left in flight for the run to close.
        with futures.ThreadPoolExecutor(max_workers=1) as fanout:
            stages = fanout.submit(pool.map, tasks) if tasks else None
            report, _result = controller.run_epoch(epoch)
        stage_results = stages.result() if stages is not None else []
        # Worker span/metric blobs fold in on this thread, which owns the
        # tracer for the step — the pool never touches it from its threads.
        absorb_observations(stage_results)
        latency_s = time.perf_counter() - start
        retries, deaths = 0, []
        if pool is not None:
            # Only map() appends to the death log, and it has returned.
            retries = pool.tasks_retried - retries_before
            deaths = pool.death_log[deaths_before:]
        slo_reasons = []
        if report.deadline_hit:
            slo_reasons.append("schedule_deadline")
        if 0 < self.config.epoch_interval_s < latency_s:
            slo_reasons.append("epoch_overrun")
        outcome = EpochOutcome(
            report=report,
            arms=tuple(r.payload for r in stage_results if r.ok),
            stage_failures=sum(1 for r in stage_results if not r.ok),
            stage_retries=retries,
            shard_pids=tuple(
                sorted({r.pid for r in stage_results if r.pid is not None})
            ),
            epoch_latency_s=latency_s,
            slo_reasons=tuple(slo_reasons),
            admitted_mb=admitted,
        )
        return self._publish_epoch(epoch, outcome, deaths)

    def _publish_epoch(
        self, epoch: int, outcome: EpochOutcome, deaths: "list[dict]"
    ) -> EpochOutcome:
        """Publish the epoch's metrics, then feed the heartbeat extras, the
        telemetry plane and the flight recorder (whose bundles snapshot
        those metrics); returns ``outcome`` with its incident bundles."""
        report = outcome.report
        metrics = obs.get_metrics()
        if metrics.enabled:
            metrics.counter("service_epochs_total", "service epochs executed").inc()
            metrics.histogram(
                "service_epoch_latency",
                "wall-clock seconds per service epoch (offer + schedule + execute)",
            ).observe(outcome.epoch_latency_s)
            metrics.gauge(
                "service_backlog_mb", "VOQ backlog (Mb) after the latest service epoch"
            ).set(report.backlog_after)
            if report.shed_volume:
                metrics.counter(
                    "service_shed_mb_total",
                    "arrival volume (Mb) refused by backpressure while serving",
                ).inc(report.shed_volume)
            if outcome.stage_retries:
                metrics.counter(
                    "service_stage_retries_total",
                    "sharded stages retried after a worker death",
                ).inc(outcome.stage_retries)
            violations = metrics.counter(
                "service_slo_violations_total",
                "epochs that missed a service objective (by reason)",
            )
            for reason in outcome.slo_reasons:
                violations.labels(reason=reason).inc()
        status = {
            "service_epoch": epoch,
            "epochs_done": int(self._hb_status.get("epochs_done", 0)) + 1,
            "backlog_mb": report.backlog_after,
            "fallback_level": report.fallback_level,
        }
        telemetry = self.telemetry
        if telemetry is None:
            self._hb_status = status
            return outcome
        records: "list[dict]" = []
        tracer = obs.get_tracer()
        if tracer.enabled:
            # Non-destructive len-watermark slice: ``records()`` is the
            # whole buffer; the tail past the mark is everything closed
            # this epoch, absorbed worker blobs included.
            buffer = tracer.records()
            records = list(buffer[self._trace_mark :])
            self._trace_mark = len(buffer)
        paths = telemetry.on_epoch(
            epoch=epoch,
            report=asdict(report),
            outcome={
                "slo_violation": outcome.slo_violation,
                "slo_reasons": list(outcome.slo_reasons),
                "epoch_latency_s": outcome.epoch_latency_s,
                "stage_failures": outcome.stage_failures,
                "stage_retries": outcome.stage_retries,
                "shard_pids": list(outcome.shard_pids),
            },
            records=records,
            worker_deaths=deaths,
        )
        status["slo_burn_rate"] = telemetry.burn.rates()
        self._hb_status = status
        return replace(outcome, incident_bundles=tuple(str(p) for p in paths))

    # ------------------------------------------------------------------ #
    # drivers
    # ------------------------------------------------------------------ #

    def run_sync(self) -> ServiceReport:
        """Synchronous driver: a for-loop over :meth:`step` — no asyncio,
        no worker pool, bit-identical reports to :meth:`EpochController.run`."""
        n_epochs = self.config.n_epochs
        if n_epochs is None:
            raise ValueError("run_sync() needs a finite n_epochs")
        report = ServiceReport()
        with self._serving(None):
            for epoch in range(n_epochs):
                if self._stop_requested:
                    break
                report.outcomes.append(self.step(epoch, self.arrivals(epoch)))
        return self._finalize(report)

    async def run(self) -> ServiceReport:
        """Asyncio driver: ingestion, the epoch clock, drain/stop and the
        pool's lifetime around :meth:`step`, which runs in an executor."""
        config = self.config
        loop = asyncio.get_running_loop()
        queue: "asyncio.Queue" = asyncio.Queue(maxsize=config.queue_depth)
        pool = (
            WorkerPool(
                config.n_workers,
                retries=STAGE_RETRIES,
                timeout_s=config.stage_timeout_s,
            )
            if config.n_workers > 0 and (config.arms or config.shard_backups)
            else None
        )
        report = ServiceReport()
        ingest = asyncio.ensure_future(self._ingest(queue))
        try:
            with self._serving(pool):
                start_mono = config.mono_clock()
                while True:
                    if self._stop_requested and not config.drain:
                        report.drained = False
                        break
                    batch = await queue.get()
                    if batch is _STREAM_END:
                        break
                    epoch, demand = batch
                    if config.epoch_interval_s > 0:
                        # Fire on the monotonic grid: epoch k starts no
                        # earlier than k intervals after service start (no
                        # wall clock — an NTP step must never stretch or
                        # squeeze an epoch).
                        delay = (
                            start_mono
                            + report.n_epochs * config.epoch_interval_s
                            - config.mono_clock()
                        )
                        if delay > 0:
                            await config.async_sleep(delay)
                    report.outcomes.append(
                        await loop.run_in_executor(None, self.step, epoch, demand, pool)
                    )
        finally:
            if not ingest.done():
                ingest.cancel()
            try:
                await ingest
            except asyncio.CancelledError:
                pass
            while not queue.empty():
                if queue.get_nowait() is not _STREAM_END:
                    report.abandoned_batches += 1
            if pool is not None:
                report.worker_pids = tuple(sorted(pool.pids))
                report.worker_deaths = pool.worker_deaths
                pool.close()
        return self._finalize(report)

    async def _ingest(self, queue: "asyncio.Queue") -> None:
        """Pull batches from the async arrival stream into the bounded queue."""
        stream = arrival_stream(self.arrivals, self.config.n_epochs)
        async for epoch, demand in stream:
            if self._stop_requested:
                break
            # The draw itself is sync and cheap; backpressure comes from
            # the bounded put below, which suspends ingestion while the
            # epoch task is queue_depth batches behind.
            await queue.put((epoch, demand))
        await queue.put(_STREAM_END)
