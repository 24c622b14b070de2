#!/usr/bin/env python
"""CI smoke for the asyncio scheduling service: sharded epochs on warm
workers, tick-clock deadlines, balanced ledgers, clean drain, and a
heartbeat whose liveness survives a wall-clock step.

Scenario (the acceptance criteria of the service-loop work):

1. sync-driver identity — :meth:`SchedulingService.run_sync` must produce
   reports bit-identical to :meth:`EpochController.run` on the same
   arrival process;
2. the asyncio driver serves several epochs with auxiliary stages sharded
   across a **warm** :class:`~repro.runner.pool.WorkerPool`: its reports
   must be bit-identical to the same :meth:`EpochController.run`
   reference, at least one epoch must land stages on >= 2 distinct worker
   pids, every shard pid must belong to the pool's stable pid set (no
   fork-per-stage), every stage must succeed, and the run must drain
   cleanly;
3. a deadline-bounded controller on a :class:`TickClock` (budget
   exhaustion = checkpoint count, deterministic on any runner) is driven
   into sustained overload: every epoch must miss its deadline and be
   counted as an SLO violation, overflow must land in the shed ledger,
   and the admission ledger (offered = admitted + shed + parked) must
   balance — the service audits it on every run;
4. the service heartbeat must carry the monotonic-tick fields and its
   idleness judged through the production reader must *not* go stale
   under a simulated +1h wall-clock jump (while the legacy wall-clock
   judgement would — demonstrating the fix is load-bearing);
5. on any failure, dump a traced service run into ``--workdir`` for the
   uploaded CI artifact.

Exit code 0 = pass.  Used by CI (see .github/workflows/ci.yml).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import obs  # noqa: E402
from repro.analysis.controller import EpochController  # noqa: E402
from repro.hybrid.solstice import SolsticeScheduler  # noqa: E402
from repro.obs.watch import _elapsed_s, _stale_horizon_s  # noqa: E402
from repro.runner.heartbeat import heartbeat_dir, read_heartbeats  # noqa: E402
from repro.runner.journal import RunJournal  # noqa: E402
from repro.service import SchedulingService, ServiceConfig, TickClock  # noqa: E402
from repro.switch.params import fast_ocs_params  # noqa: E402
from repro.workloads.arrivals import WorkloadArrivals  # noqa: E402
from repro.workloads.skewed import SkewedWorkload  # noqa: E402

N = 16


def make_arrivals(intensity: float = 0.5) -> WorkloadArrivals:
    return WorkloadArrivals(SkewedWorkload(), n_ports=N, seed=11, intensity=intensity)


def make_controller(**overrides) -> EpochController:
    overrides.setdefault("params", fast_ocs_params(N))
    overrides.setdefault("scheduler", SolsticeScheduler())
    overrides.setdefault("use_composite_paths", True)
    overrides.setdefault("epoch_duration", 50.0)
    return EpochController(**overrides)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--workdir", default=None, help="artifact directory (default: mkdtemp)"
    )
    parser.add_argument(
        "--epochs", type=int, default=4, help="epochs per service run"
    )
    parser.add_argument(
        "--workers", type=int, default=2, help="warm pool size for the sharded run"
    )
    args = parser.parse_args(argv)
    workdir = Path(args.workdir or tempfile.mkdtemp(prefix="service-smoke-"))
    workdir.mkdir(parents=True, exist_ok=True)

    failures: "list[str]" = []

    def check(ok: bool, ok_msg: str, fail_msg: str) -> bool:
        if ok:
            print(f"ok: {ok_msg}")
        else:
            failures.append(f"FAIL: {fail_msg}")
        return ok

    # -- 1. sync-driver identity ------------------------------------------- #
    arrivals = make_arrivals()
    reference = make_controller().run(arrivals, args.epochs)
    sync_report = SchedulingService(
        make_controller(), arrivals, ServiceConfig(n_epochs=args.epochs, n_workers=0)
    ).run_sync()
    check(
        sync_report.reports == reference,
        f"sync driver bit-identical to EpochController.run over {args.epochs} epochs",
        "sync driver diverged from EpochController.run",
    )

    # -- 2. sharded epochs on warm workers, clean drain --------------------- #
    journal = RunJournal(workdir / "service.jsonl")

    def run_sharded() -> "tuple":
        service = SchedulingService(
            make_controller(journal=journal),
            make_arrivals(),
            ServiceConfig(n_epochs=args.epochs, n_workers=args.workers),
        )
        return service, asyncio.run(service.run())

    _service, report = run_sharded()
    check(
        report.reports == reference,
        f"sharded asyncio driver bit-identical to EpochController.run over "
        f"{report.n_epochs} epochs",
        "sharded asyncio driver diverged from EpochController.run",
    )
    check(
        report.drained and not report.stopped_early,
        f"asyncio driver drained cleanly after {report.n_epochs} epochs",
        f"run did not drain (drained={report.drained}, "
        f"stopped_early={report.stopped_early})",
    )
    check(
        len(report.worker_pids) >= 2 and report.worker_deaths == 0,
        f"warm pool held {len(report.worker_pids)} workers, zero deaths",
        f"expected >= 2 stable workers, got pids={report.worker_pids} "
        f"deaths={report.worker_deaths}",
    )
    shard_ok = all(
        set(outcome.shard_pids) <= set(report.worker_pids)
        and outcome.stage_failures == 0
        for outcome in report.outcomes
    )
    check(
        shard_ok,
        "every sharded stage succeeded on a warm pool pid",
        "a stage failed or ran outside the warm pool's pid set",
    )
    spread = max((len(o.shard_pids) for o in report.outcomes), default=0)
    check(
        spread >= 2,
        f"an epoch sharded its stages across {spread} distinct worker processes",
        f"no epoch used >= 2 workers (max spread {spread})",
    )
    arm_counts = sorted(len(o.arms) for o in report.outcomes)
    check(
        all(count >= 3 for count in arm_counts),
        f"each epoch returned {arm_counts[0]}+ stage payloads "
        "(scheduler arms + backup plan)",
        f"missing stage payloads: per-epoch arm counts {arm_counts}",
    )

    # -- 3. tick-clock deadlines: overload sheds, ledger balances ----------- #
    overloaded = make_controller(
        epoch_duration=1.0,
        deadline_s=0.5,
        deadline_clock=TickClock(step=10.0),
        max_backlog=20.0,
        overflow_policy="shed",
        backpressure_after_misses=1,
    )
    service = SchedulingService(
        overloaded,
        make_arrivals(intensity=4.0),
        ServiceConfig(n_epochs=6, n_workers=0),
    )
    overload_report = asyncio.run(service.run())
    check(
        all(o.report.deadline_hit for o in overload_report.outcomes)
        and overload_report.slo_violations == overload_report.n_epochs,
        f"all {overload_report.n_epochs} overloaded epochs missed the tick-clock "
        "deadline and were counted as SLO violations",
        f"expected every epoch to miss; slo_violations="
        f"{overload_report.slo_violations}/{overload_report.n_epochs}",
    )
    check(
        overload_report.shed_mb > 0.0,
        f"backpressure shed {overload_report.shed_mb:.1f} Mb into the ledger",
        "sustained overload shed nothing: backpressure never engaged",
    )
    try:
        overloaded.check_conservation()
        print(
            f"ok: admission ledger balances under overload "
            f"(admitted {overload_report.admitted_mb:.1f} Mb, "
            f"shed {overload_report.shed_mb:.1f} Mb, "
            f"parked {overload_report.parked_mb:.1f} Mb)"
        )
    except AssertionError as exc:
        failures.append(f"FAIL: overload admission ledger broken: {exc}")

    # -- 4. heartbeat liveness survives a wall-clock step ------------------- #
    beats = read_heartbeats(heartbeat_dir(journal.path))
    beat = beats.get("service")
    if check(
        beat is not None
        and isinstance(beat.get("last_progress_mono"), float)
        and isinstance(beat.get("started_at_mono"), float),
        "service heartbeat written with monotonic tick fields",
        f"service heartbeat missing monotonic fields: {sorted(beats)}",
    ):
        horizon = _stale_horizon_s(beat)
        jumped_wall = time.time() + 3600.0
        idle_mono = _elapsed_s(
            beat, "last_progress_mono", "last_progress", jumped_wall, time.monotonic()
        )
        idle_wall = max(0.0, jumped_wall - float(beat["last_progress"]))
        check(
            idle_mono <= horizon < idle_wall,
            f"+1h wall jump: monotonic idleness {idle_mono:.1f}s stays live "
            f"(wall-clock judgement would read {idle_wall:.0f}s and flag STALE)",
            f"staleness not judged on the monotonic tick "
            f"(idle_mono={idle_mono:.1f}s, horizon={horizon:.1f}s)",
        )

    if failures:
        for message in failures:
            print(message, file=sys.stderr)
        # Leave a scene of the crime: a traced sharded run for the artifact.
        tracer, registry = obs.JsonlTracer(), obs.MetricsRegistry()
        with obs.observability(tracer=tracer, metrics=registry):
            run_sharded()
        trace_path = workdir / "service_trace.jsonl"
        tracer.dump(
            trace_path,
            meta={"command": "service_smoke"},
            metrics_snapshot=registry.snapshot(),
        )
        (workdir / "service_summary.json").write_text(
            json.dumps({"failures": failures}, indent=2) + "\n"
        )
        print(f"diagnostic trace written to {trace_path}", file=sys.stderr)
        return 1

    print(
        f"service smoke OK: sync and sharded asyncio drivers bit-identical, "
        f"{report.n_epochs} epochs "
        f"sharded across {len(report.worker_pids)} warm workers with clean drain, "
        f"overload shed {overload_report.shed_mb:.1f} Mb with balanced ledgers, "
        f"heartbeat liveness monotonic"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
