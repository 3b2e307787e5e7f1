"""Tests of the benchmark itself: seeded inputs, the correctness gate, the
span aggregation and the metric names it emits.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import schedule  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _inputs(workload, seed):
    out = []
    for i in range(2 * len(schedule.WORKLOADS[workload])):
        req = schedule.request(workload, seed, i)
        text = schedule.spectrum_csv(req) if "nu" in req else ""
        args = schedule.cli_args(req, "in.csv", "out") if req["kind"] != "audit" else []
        out.append((text, args))
    return out


@pytest.mark.parametrize("workload", sorted(schedule.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(workload):
    assert _inputs(workload, 11) == _inputs(workload, 11)
    assert _inputs(workload, 11) != _inputs(workload, 12)


def _lorentz_request(direction="re-from-im", n=2048):
    schedule.WORKLOADS["_test"] = (schedule._slot("transform", direction, n, 0),)
    try:
        return schedule.request("_test", 3, 0)
    finally:
        del schedule.WORKLOADS["_test"]


def _cli(args, cwd):
    env = run.child_env(ROOT / "src")
    return subprocess.run([sys.executable, "-c", run.CONSOLE_SCRIPT, *args], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=120)


def test_corrupted_transform_output_counts_as_failure(tmp_path):
    req = _lorentz_request()
    (tmp_path / "in.csv").write_text(schedule.spectrum_csv(req))
    proc = _cli(schedule.cli_args(req, "in.csv", "out.csv"), tmp_path)
    text = (tmp_path / "out.csv").read_text()
    assert checks.check_cli(req, proc.returncode, text)["outcome"] == "ok"

    lines = text.splitlines()
    row = 2 + req["n"] // 2  # an interior node
    omega, re_n, im_n = lines[row].split(",")
    for bad in (repr(float(re_n) + 0.01), "nan"):
        lines[row] = ",".join([omega, bad, im_n])
        got = checks.check_cli(req, proc.returncode, "\n".join(lines) + "\n")
        assert got["outcome"] == "wrong", got
    assert checks.check_cli(req, 3, None)["outcome"] == "diagnostic"
    assert checks.check_cli(req, 1, text)["outcome"] == "wrong"

    records = [{"outcome": "ok", "wall_s": 1.0, "norm_s": 1.0, "n": 2048, "cls": "lorentz"},
               {"outcome": "wrong", "wall_s": 9.0, "norm_s": 9.0, "n": 2048, "cls": "lorentz"}]
    assert run.count_failures(records) == (1, 1)
    metrics, _ = run.end_to_end(records, [{"wall_s": 0.5, "norm_s": 0.5}], "audit_batch", 3,
                                ROOT / "src")
    assert metrics["success_ratio"] == 0.5 and metrics["latency_p50_s"] == 1.0


def test_library_gate_flags_corrupted_transform():
    req = _lorentz_request(n=2048)
    true_re, _ = schedule.lorentz(req["params"], req["nu"])
    assert checks.check_transform_output(req, true_re, req["im"], "re-from-im")["outcome"] == "ok"
    bad = true_re.copy()
    bad[req["n"] // 2] += 0.01
    assert checks.check_transform_output(req, bad, req["im"], "re-from-im")["outcome"] == "wrong"
    moved_im = req["im"] * (1 + 1e-12)
    assert checks.check_transform_output(req, true_re, moved_im, "re-from-im")["outcome"] == "wrong"


def test_cycle_done_only_at_cycle_boundaries_after_the_deadline():
    size = len(schedule.AUDIT_BATCH)
    assert schedule.cycle_done("audit_batch", size, lambda: 30.0, 25.0)
    assert not schedule.cycle_done("audit_batch", size - 1, lambda: 30.0, 25.0)
    assert not schedule.cycle_done("audit_batch", size, lambda: 20.0, 25.0)
    assert not schedule.cycle_done("audit_batch", 0, lambda: 30.0, 25.0)


def test_tail_latency_rule():
    assert run.tail_latency([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    assert run.tail_latency([float(x) for x in range(1, 21)]) == (20.0, 100.0, 0)
    lat = [float(x) for x in range(1, 101)]
    value, pct, beyond = run.tail_latency(lat)
    assert (value, pct, beyond) == (90.0, 90.0, 10)
    assert sum(x > value for x in lat) == 10


def test_host_speed_scale_uses_bursts_during_and_just_before_a_request():
    ref = hostspeed.REFERENCE_S
    samples = [(0.0, ref), (1.0, 2 * ref), (2.0, 4 * ref), (3.0, ref)]
    # the burst at 1.0 gives the speed at the start; 2.0 falls inside
    assert hostspeed.scale(samples, 1.5, 2.5) == pytest.approx(1 / 3)
    # a request shorter than the burst period takes the last burst before it
    assert hostspeed.scale(samples, 3.1, 3.2) == pytest.approx(1.0)
    with pytest.raises(RuntimeError):
        hostspeed.scale(samples, -1.0, 0.5)


def test_host_speed_monitor_samples_and_stops(tmp_path):
    with hostspeed.Monitor(tmp_path / "speed.txt") as monitor:
        assert monitor.proc.poll() is None
    assert monitor.proc.poll() is not None
    samples = monitor.samples()
    assert samples and all(c > 0 for _, c in samples)
    assert [t for t, _ in samples] == sorted(t for t, _ in samples)


def test_layer_totals_count_outermost_spans_and_self_time():
    # (name, start, end, parent, request, value, failed)
    recorded = [
        ("causality.audit", 0.0, 10.0, None, 0, 0, False),
        ("causality.asymptote", 0.0, 1.0, 0, 0, 0, False),
        ("causality.asymptote", 0.2, 0.8, 1, 0, 0, False),
        ("causality.roundtrip", 1.0, 9.0, 0, 0, 0, False),
        ("kk.re_from_im", 1.0, 9.0, 3, 0, 0, False),
        ("kk.subtracted_at_infinity", 1.0, 9.0, 4, 0, 0, False),
        ("pvquad.pv_integrate", 2.0, 7.0, 5, 0, 100, False),
        ("pvquad.fit_tail", 1.0, 1.5, 5, 0, 0, True),
    ]
    tot = spans.layer_totals(recorded)[0]
    assert tot["causality.asymptote_s"] == 1.0 and tot["causality.asymptote.calls"] == 1
    assert tot["kk.re_from_im.calls"] == 1 and "kk.subtracted_at_infinity.calls" not in tot
    assert tot["pvquad.pv_integrate.value"] == 100
    assert tot["pvquad.fit_tail.failures"] == 1
    layer = spans.layer_metrics([tot], [], 0.0)
    assert layer["kk.self_s"] == pytest.approx(8.0 - 5.5)
    assert layer["pvquad.kernel_evals"] == 100


def test_declared_metrics_match_benchmark_json():
    declared = {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]}
    assert declared == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == spans.LAYER_METRICS
    assert {w["name"] for w in SPEC["workloads"]} == set(schedule.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_emitted_metric_names_match_benchmark_json(trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "audit_batch", "--seed", "5",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    # one cycle per pass; its noisy spectra in the 1e-8 and 1e-7 decades fail
    cycles = 1 + trace
    assert result["correct"] is True
    assert result["attempted"] == cycles * len(schedule.AUDIT_BATCH)
    assert result["failed"] == cycles * 2
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}


def test_refuses_to_run_without_the_program(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "cli_large", "--seed", "1",
         "--seconds", "1"], cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0 and proc.stdout == ""
