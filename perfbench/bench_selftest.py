"""Tests of the benchmark itself; they are not part of the program's suite.

    python3 -m pytest -q -p no:cacheprovider perfbench/bench_selftest.py
"""
from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

sys.path.insert(0, str(run.find_source(run.ROOT)))
import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Span, Target, Tracer, self_times  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


# -- self-time arithmetic -------------------------------------------------------


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        Span(1, None, "parent", 1, 0.0, 10.0, 2.0),
        Span(2, 1, "worker-a", 2, 1.0, 4.0, 1.0),  # overlaps worker-b on another thread
        Span(3, 1, "worker-b", 3, 3.0, 6.0, 1.0),
        Span(4, 2, "inner", 2, 2.0, 3.0, 0.5),
        Span(5, 1, "late", 2, 9.0, 12.0, 1.0),  # runs past the parent's end
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 5.0 - 1.0)  # children cover [1, 6] and [9, 10]
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(1.0)
    assert own[5] == pytest.approx(3.0)


def test_pool_worker_spans_attach_to_the_waiting_caller():
    tracer = Tracer()
    work = tracer.wrap(lambda: time.sleep(0.02), "work", {"calls": layers._one})
    with tracer.span("caller"):
        threads = [threading.Thread(target=work) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    caller = next(s for s in tracer.spans if s.name == "caller")
    workers = [s for s in tracer.spans if s.name == "work"]
    assert [s.parent for s in workers] == [caller.id, caller.id]
    assert len({s.thread for s in workers} | {caller.thread}) == 3
    assert tracer.counts["calls"] == 2
    # both workers sleep at once: the caller's self time excludes their union once
    union = max(s.end for s in workers) - min(s.start for s in workers)
    assert self_times(tracer.spans)[caller.id] == pytest.approx(caller.wall - union)
    # sleeping uses no CPU, so a worker's wall time minus its CPU time is waiting
    assert all(s.wall - s.cpu > 0.015 for s in workers)


# -- installing wrappers --------------------------------------------------------


def test_missing_names_are_reported_absent():
    tracer = Tracer()
    tracer.install([
        Target("cvpbt.nport", "RetiredChannel.__init__", "nport.build_s"),
        Target("cvpbt.nport", "retired_function", "nport.eval_s"),
        Target("cvpbt.retired_module", "f", "nport.eval_s"),
        Target("cvpbt.nport", "gamma", "nport.eigh_s"),
    ])
    tracer.uninstall()
    assert tracer.absent == ["nport.RetiredChannel.__init__", "nport.retired_function", "retired_module.f"]
    assert tracer.metric_of == {"nport.gamma": "nport.eigh_s"}


def test_every_module_binding_is_wrapped_and_restored():
    import cvpbt
    from cvpbt import bounds, two_port

    original = two_port.omega
    assert bounds.omega is original and cvpbt.omega is original
    tracer = Tracer()
    tracer.install([Target("cvpbt.two_port", "omega", "two_port.omega_s", {"two_port.omega_n": layers._one})])
    try:
        assert bounds.omega is two_port.omega is cvpbt.omega
        assert bounds.omega is not original
        bounds.edrc_diamond_norm(two_port.ChannelParams(0.5, 0.5))  # calls omega through bounds.omega
    finally:
        tracer.uninstall()
    assert bounds.omega is original and two_port.omega is original and cvpbt.omega is original
    assert tracer.counts["two_port.omega_n"] >= 2


def test_classes_stay_classes_and_every_span_has_a_metric():
    from cvpbt import nport, two_port

    cls = nport.Arrangements
    tracer = Tracer()
    tracer.install(layers.targets())
    try:
        assert nport.Arrangements is cls
        channel = nport.NPortChannel(two_port.ChannelParams(0.3, 0.5, ports=4), cap=3)
        nport.input_output_fidelity("bell2", channel.params, channel=channel)
    finally:
        tracer.uninstall()
    assert tracer.absent == []
    metrics = layers.rep_metrics(tracer.spans, tracer.counts, tracer.metric_of)
    assert metrics["nport.arrangements_n"] == metrics["nport.sectors_n"] == len(channel.sectors)
    assert metrics["nport.eigh_s"] > 0 and metrics["nport.sector_matrix_s"] > 0
    assert vars(nport.Arrangements)["__init__"].__name__ == "__init__"


def test_per_layer_names_match_the_benchmark_spec():
    names = set(layers.TIME_METRICS) | set(layers.COUNT_METRICS) | {f"part.{p}_s" for p in workloads.PARTS}
    names |= {"trace.wall_s", "trace.overhead_frac"}
    assert names == {m["name"] for m in SPEC["per_layer"]}


# -- whole runs -----------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_reduced_workload_runs_clean(name):
    ledger = run.Ledger()
    with tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".perfbench-") as outdir:
        workload = workloads.make(name, 7, Path(outdir), run.ROOT, size="smoke")
        run.measure(workload, 0, ledger)
        tracer = Tracer()
        tracer.install(layers.targets())
        try:
            run.measure(workload, 0, ledger, tracer)
        finally:
            tracer.uninstall()
        run.run_gates(workload, ledger)
    assert ledger.attempted == 2 * len(workload.jobs) + len(workload.gates)
    assert ledger.failed == 0  # failed_frac == 0


def _result(*args):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args], capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_command_prints_every_metric(trace, section):
    result = _result("--workload", "closed_forms", "--seed", "5", "--seconds", "1", "--trace", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in SPEC[section]}


def test_refuses_to_run_without_the_program(monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", HERE)  # a directory with no src/cvpbt
    assert run.main(["--workload", "closed_forms", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
