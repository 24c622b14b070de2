"""Time one workload's set-up in a fresh interpreter.

Prints the CPU seconds set-up took, then the median CPU seconds of seven
reference-kernel samples taken right after (see ``hostspeed.py``), which
scale it.  CPU time counts the interpreter's start-up and, for serve, the
pool workers forked before the first offer.

Set-up is what a user pays before the first operation: importing the
program and constructing its schedulers (pipelines), or its controller and
service up to the first ``EpochController.offer`` (serve, which includes
forking the worker pool).  Generating the arrival batch is the benchmark's
own work and is subtracted.

Usage: ``python3 perfbench/setup_probe.py <workload>``
"""

import asyncio
import sys
import time
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import harness  # noqa: E402
import hostspeed  # noqa: E402
from spans import Patch, SpanRecorder, Target  # noqa: E402


class _Ready(Exception):
    """Raised at the first offer: set-up is over."""


def serve_setup(spec) -> float:
    gen_start = time.process_time()
    batch = harness.serve_inputs(replace(spec, pool=1), seed=0)[0]
    generation = time.process_time() - gen_start
    service = harness.build_service(spec, lambda epoch: batch)
    tree = harness.TreeClock()
    ready = []

    def first_offer(recorder, args):
        tree.refresh()
        ready.append(tree.read())
        raise _Ready

    patch = Patch(
        SpanRecorder(),
        [Target("repro.analysis.controller", "EpochController.offer", "offer")],
        before={"offer": first_offer},
    )
    patch.install()
    try:
        asyncio.run(service.run())
    except _Ready:
        pass
    finally:
        patch.uninstall()
    return ready[0] - generation


def main() -> None:
    spec = harness.WORKLOADS[sys.argv[1]]
    if isinstance(spec, harness.Pipeline):
        harness.build_pipeline(spec)
        elapsed = time.process_time()
    else:
        elapsed = serve_setup(spec)
    kernel = hostspeed.HostSpeed()
    samples = sorted(kernel.sample()[1] for _ in range(7))
    print(repr(elapsed), repr(samples[3]))


if __name__ == "__main__":
    main()
