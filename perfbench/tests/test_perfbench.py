"""Self-tests of the benchmark harness.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import multiprocessing
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import run  # noqa: E402
from spans import MissingTarget, Patch, SpanRecorder, Target, covered, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Small enough that each workload runs in a second or two.
TINY = {
    "fig5-solstice": replace(harness.WORKLOADS["fig5-solstice"], radix=32, pool=2),
    "fig6-eclipse": replace(harness.WORKLOADS["fig6-eclipse"], radix=32, pool=2),
    "serve-typical": replace(harness.WORKLOADS["serve-typical"], radix=32, pool=2),
}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setattr(harness, "WORKLOADS", TINY)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    monkeypatch.setattr(run, "OUT", tmp_path)
    return tmp_path


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric_with_its_unit(tiny, capsys, workload, trace):
    code = run.main(
        ["--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", str(trace)]
    )
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 2
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float)
    if trace:
        assert (tiny / f"spans-{workload}.jsonl").stat().st_size > 0


def test_traced_split_matches_the_workload_rationale(tiny, capsys):
    def layers(workload):
        run.main(["--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", "1"])
        metrics = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["metrics"]
        return {name: metric["value"] for name, metric in metrics.items()}

    fig5, fig6, serve = (layers(w) for w in ("fig5-solstice", "fig6-eclipse", "serve-typical"))
    assert fig5["matching.lsap.calls"] == 0 and fig5["matching.hk.calls"] > 0
    assert fig6["matching.hk.calls"] == 0 and fig6["matching.lsap.calls"] > 0
    for name in fig5:
        if name.startswith(("controller.", "runner.pool.", "service.")):
            assert fig5[name] == 0 and fig6[name] == 0, name
    assert serve["controller.offer.calls"] == 1
    assert serve["runner.pool.tasks"] > 0


def test_same_seed_repeats_every_simulated_statistic():
    spec = TINY["fig6-eclipse"]
    first = harness.run_pipeline(spec, seed=5, seconds=0.0, trace=False)
    second = harness.run_pipeline(spec, seed=5, seconds=0.0, trace=True)
    other = harness.run_pipeline(spec, seed=6, seconds=0.0, trace=False)
    assert first.fingerprint == second.fingerprint != other.fingerprint
    assert first.cp_completion_ms == second.cp_completion_ms


def _burn_cpu(seconds, burnt, release):
    start = time.process_time()
    while time.process_time() - start < seconds:
        pass
    burnt.set()
    release.wait(10.0)


def test_tree_clock_counts_the_cpu_of_forked_workers():
    ctx = multiprocessing.get_context("fork")
    burnt, release = ctx.Event(), ctx.Event()
    worker = ctx.Process(target=_burn_cpu, args=(0.3, burnt, release))
    worker.start()
    try:
        tree = harness.TreeClock()
        tree.refresh()
        before = tree.read()
        assert burnt.wait(10.0)
        during = tree.read()
    finally:
        release.set()
        worker.join(10.0)
    assert during - before >= 0.2
    assert tree.read() >= during  # an exited worker keeps its last reading


# ---------------------------------------------------------------------- #
# wrappers fail loudly
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize(
    "target",
    [
        Target("repro.sim.engine", "max_min_fair_rates_renamed", "sim.rates.waterfill"),
        Target("repro.sim.engine", "FluidEngine.run_phase_renamed", "sim.engine.event_loop"),
        Target("repro.sim.engine", "NoSuchEngine.run_phase", "sim.engine.event_loop"),
        Target("repro.sim.no_such_module", "simulate", "sim.simulate"),
    ],
)
def test_wrapper_for_a_vanished_name_fails_loudly(target):
    with pytest.raises(MissingTarget):
        Patch(SpanRecorder(), [target])


def test_layer_never_called_fails_instead_of_reporting_zero(tiny):
    out = harness.run_pipeline(TINY["fig5-solstice"], seed=1, seconds=0.0, trace=True)
    out.recorder.spans[:] = [s for s in out.recorder.spans if s[1] != "matching.hk"]
    with pytest.raises(RuntimeError, match="matching.hk"):
        harness.per_layer(out, "fig5-solstice")


def test_patch_restores_the_original_functions():
    import repro.sim.engine as engine

    original = engine.max_min_fair_rates
    patch = Patch(SpanRecorder(), harness.LAYER_TARGETS)
    patch.install()
    assert engine.max_min_fair_rates is not original
    patch.uninstall()
    assert engine.max_min_fair_rates is original


def test_self_time_and_nested_same_layer_calls():
    recorder = SpanRecorder()
    inner = recorder.wrap("inner", lambda: None)
    again = recorder.wrap("outer", lambda: inner())
    outer = recorder.wrap("outer", lambda: (inner(), again()))
    outer()
    names = [span[1] for span in recorder.spans]
    assert names.count("outer") == 1 and names.count("inner") == 2
    selfs = self_times(recorder.spans)
    (top,) = [s for s in recorder.spans if s[1] == "outer"]
    children = sum(s[3] - s[2] for s in recorder.spans if s[4] == top[0])
    assert selfs[top[0]] == pytest.approx(top[3] - top[2] - children)
    assert covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == pytest.approx(4.0)


# ---------------------------------------------------------------------- #
# broken outputs are caught
# ---------------------------------------------------------------------- #


def _one_trial():
    spec = TINY["fig5-solstice"]
    params, h, cp = harness.build_pipeline(spec)
    demand = harness.pipeline_inputs(spec, seed=2)[0]
    return demand, params, harness._trial(h, cp, demand, params)


def test_a_clean_trial_passes_every_check():
    demand, params, (schedule, h_result, cp_schedule, cp_result) = _one_trial()
    n = params.n_ports
    assert harness.check_entries([(e.permutation, e.duration) for e in schedule], n, "h") == []
    assert harness.check_cp_schedule(cp_schedule, n) == []
    assert harness.check_ledger(h_result, demand, "h") == []
    assert harness.check_ledger(cp_result, demand, "cp") == []


def test_stranded_volume_mismatch_is_caught():
    demand, _params, (_s, _h, _c, cp_result) = _one_trial()
    cp_result.served_eps -= 1.0  # a megabit delivered nowhere and not stranded
    assert harness.check_ledger(cp_result, demand, "cp")


def test_invalid_permutation_and_duration_are_caught():
    perm = np.zeros((4, 4), dtype=np.int8)
    perm[0, 1] = perm[0, 2] = 1
    assert harness.check_entries([(perm, 1.0)], 4, "e")
    assert harness.check_entries([(np.eye(4, dtype=np.int8), -1.0)], 4, "e")
    assert harness.check_entries([(np.eye(3, dtype=np.int8), 1.0)], 4, "e")
    assert harness.check_entries([(2 * np.eye(4), 1.0)], 4, "e")


def test_service_ledger_mismatch_is_caught():
    report = SimpleNamespace(
        admitted_mb=90.0, shed_mb=5.0, parked_mb=0.0, abandoned_batches=0, n_epochs=3
    )
    assert harness.check_service(report, offered_total=95.0, epochs=3) == []
    assert harness.check_service(report, offered_total=100.0, epochs=3)
    assert harness.check_service(replace_ns(report, abandoned_batches=1), 95.0, 3)
    epoch = SimpleNamespace(offered_volume=10.0, served_volume=9.0, stranded_volume=0.5)
    assert harness.check_epoch(epoch, offered=10.0, backlog_before=0.0)


def replace_ns(ns, **changes):
    return SimpleNamespace(**{**vars(ns), **changes})


def test_without_program_source_the_command_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig5-solstice",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
