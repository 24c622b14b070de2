"""Run one benchmark workload and print every metric with its unit.

Usage::

    python3 perfbench/run.py --workload fig5-solstice --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout: the program is imported from ``src/``
there and nowhere else.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer ones.  Human-readable lines come first; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 only when every correctness check passed.

Each run also appends its result and metadata (git sha, host, library
versions, kernel backend, seed) to ``.perfbench/history.jsonl``, and a
traced run writes its spans to ``.perfbench/spans-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

#: Set-up is sampled this many times, each in a fresh interpreter.
SETUP_SAMPLES = 5


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_program() -> None:
    """Put this checkout's ``src/`` first on the path and check that the
    program really comes from there."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SRC / 'repro'}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def setup_seconds(workload: str) -> "tuple[float, float]":
    """Median set-up CPU time over fresh interpreters: (host-scaled,
    unscaled)."""
    scaled, raw = [], []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=False,
        )
        if done.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed:\n{done.stderr}")
        seconds, kernel_s = map(float, done.stdout.split()[-2:])
        scaled.append(seconds * hostspeed.NOMINAL_S / kernel_s)
        raw.append(seconds)
    return statistics.median(scaled), statistics.median(raw)


def git_sha() -> str:
    """HEAD's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def metadata(args) -> dict:
    import numpy
    import scipy

    from repro.matching import kernels

    return {
        "git_sha": git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": {"nproc": os.cpu_count(), "cpu": cpu_model()},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "repro_kernels": kernels.backend(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import harness

    if args.workload not in harness.WORKLOADS:
        raise SystemExit(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {', '.join(harness.WORKLOADS)}"
        )
    setup = setup_seconds(args.workload) if not args.trace else None
    out = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))

    if args.trace:
        metrics = harness.per_layer(out, args.workload)
        out.recorder.dump(OUT / f"spans-{args.workload}.jsonl")
        extra, raw = {}, {}
    else:
        metrics = harness.end_to_end(out)
        extra = harness.undeclared(out)
        raw = {name: value for name, (value, _) in harness.end_to_end(out, False).items()}
        raw.update(
            (name, value) for name, (value, _) in harness.undeclared(out, False).items()
        )
        raw["host_kernel_cpu_ms"] = statistics.median(out.host_cpu_s) * 1e3
        raw["host_kernel_ms"] = statistics.median(out.host_s) * 1e3
        metrics["setup_s"] = (setup[0], "s")
        raw["setup_s"] = setup[1]
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = (peak_kb / 1024.0, "MB")

    meta = metadata(args)
    kind = "trials" if isinstance(harness.WORKLOADS[args.workload], harness.Pipeline) else "epochs"
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(out.latencies_s)} {kind} measured ({len(out.traced_ops)} traced)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    if extra:
        print("  not declared: " + ", ".join(
            f"{name}={value:.6g} {unit}" for name, (value, unit) in extra.items()))
    print(f"  {'failed_ratio':40s} {out.failed / max(out.attempted, 1):14.6g} "
          f"({out.failed}/{out.attempted} {kind})")
    if raw:
        print("  unscaled: " + ", ".join(f"{k}={v:.6g}" for k, v in raw.items()))
    print(f"  sim_fingerprint {out.fingerprint}")
    print(f"  meta {json.dumps(meta, sort_keys=True)}")
    for error in out.errors[:20]:
        print(f"perfbench: FAILED {error}", file=sys.stderr)

    result = {
        "correct": not out.errors,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    OUT.mkdir(exist_ok=True)
    with (OUT / "history.jsonl").open("a") as history:
        history.write(
            json.dumps(
                {
                    "meta": meta,
                    "fingerprint": out.fingerprint,
                    "undeclared": {name: value for name, (value, _) in extra.items()},
                    "unscaled": raw,
                    **result,
                }
            )
            + "\n"
        )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
