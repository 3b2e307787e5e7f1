"""kklab benchmark: one closed-loop workload per run, every output gated.

Usage, from the root of a kklab checkout:

    python3 perfbench/run.py --workload cli_large|audit_batch \\
        --seed N --seconds S --trace 0|1

One client sends one request at a time and sends the next only after the
previous one completed (a closed loop), for S host-speed-scaled seconds
(``hostspeed.py``) rounded up to whole cycles of the workload's schedule
(``schedule.py``). The
program runs from the checkout's ``src/``. Each request is checked by the
correctness gate in ``checks.py``. The output is a readable report, one JSON
line with the full record (environment, latency detail, failures, workload
properties), and, as the last line, the result object:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end metrics; with ``--trace 1`` the run is traced and
the metrics are the per-layer ones. See README.md in this directory.
"""

from __future__ import annotations

import os

# One thread for every BLAS/OpenMP pool, here and in every child process:
# the client runs one request at a time, and the machine the benchmark was
# defined on has 2 cores. Set before numpy is first imported.
THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
if __name__ == "__main__":
    os.environ.update(dict.fromkeys(THREAD_VARS, THREADS))

import argparse
import glob
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import checks
import hostspeed
import schedule
from spans import LAYER_METRICS, layer_metrics, parse_importtime

HERE = Path(__file__).resolve().parent
LAUNCHER = HERE / "launcher.py"
WORKER = HERE / "worker.py"
CONSOLE_SCRIPT = "import sys; from kklab.cli import main; sys.exit(main())"
SETUP_SAMPLES = 5
REQUEST_TIMEOUT_S = 150.0
SPEED_FILE = "hostspeed.txt"  # the monitor's bursts, in the run's scratch directory

# name -> (unit, better); the end-to-end metrics of BENCHMARK.json
END_TO_END = {
    "latency_p50_s": ("s", "lower"),
    "latency_tail_s": ("s", "lower"),
    "requests_per_s": ("1/s", "higher"),
    "nodes_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "oracle_err_max": ("1", "lower"),
    "err_coverage": ("1", "higher"),
    "success_ratio": ("1", "higher"),
    "setup_s": ("s", "lower"),
}


def pin_to_one_cpu() -> int | None:
    """Pin this process, and so every process it starts, to the lowest CPU
    it may run on. On a shared host each CPU slows down on its own, as other
    tenants load its core; the host-speed probe only tracks the speed of the
    CPU it runs on, so the probe and the requests must share one."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def child_env(src: Path) -> dict:
    env = {**os.environ, **dict.fromkeys(THREAD_VARS, THREADS)}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def measure_setup(env: dict) -> list[dict]:
    """Monotonic start and end of SETUP_SAMPLES spawns of a fresh
    interpreter, each until ``import kklab`` returns."""
    code = "import kklab, time; print(repr(time.monotonic()))"
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.monotonic()
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=REQUEST_TIMEOUT_S)
        t1 = float(out.stdout.strip().splitlines()[-1])
        samples.append({"t0": t0, "t1": t1, "wall_s": t1 - t0})
    return samples


def scale_times(timed: list[dict], samples: list[tuple[float, float]]) -> None:
    """Add ``norm_s``, the host-speed-scaled wall time (``hostspeed.py``),
    to every record that has its monotonic ``t0`` and ``t1``."""
    for r in timed:
        if "t0" in r:
            r["norm_s"] = r["wall_s"] * hostspeed.scale(samples, r.pop("t0"), r.pop("t1"))


def keep_going(workload: str, i: int, start: float, seconds: float, max_requests: int,
               speed_file: Path) -> bool:
    if max_requests > 0:
        return i < max_requests
    return not schedule.cycle_done(workload, i, lambda: hostspeed.scaled_since(speed_file, start),
                                   seconds)


def run_cli(workload: str, seed: int, seconds: float, env: dict, tmp: Path,
            traced: bool = False, max_requests: int = 0) -> list[dict]:
    """Closed loop of fresh ``kklab`` processes, one per request."""
    records = []
    start = time.monotonic()
    i = 0
    while keep_going(workload, i, start, seconds, max_requests, tmp / SPEED_FILE):
        req = schedule.request(workload, seed, i)
        in_path, out_path, totals_path = tmp / "in.csv", tmp / "out", tmp / "totals.json"
        if "nu" in req:
            in_path.write_text(schedule.spectrum_csv(req))
        args = schedule.cli_args(req, str(in_path), str(out_path))
        if traced:
            cmd = [sys.executable, "-X", "importtime", str(LAUNCHER), str(totals_path), *args]
        else:
            cmd = [sys.executable, "-c", CONSOLE_SCRIPT, *args]
        t0 = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                                  timeout=REQUEST_TIMEOUT_S)
            code, stderr = proc.returncode, proc.stderr
        except subprocess.TimeoutExpired:
            code, stderr = None, ""
        t1 = time.monotonic()
        wall = t1 - t0
        out_text = out_path.read_text() if out_path.exists() else None
        if code is None:
            gate = checks.outcome("wrong", f"no exit within {REQUEST_TIMEOUT_S:g} s")
        else:
            gate = checks.check_cli(req, code, out_text)
        rec = {"index": i, "wall_s": wall, "t0": t0, "t1": t1, "n": req["n"],
               "cls": req["cls"], "direction": req["direction"] or req["kind"], **gate}
        if traced and totals_path.exists():
            totals = json.loads(totals_path.read_text())
            rec["imports"] = parse_importtime(stderr)
            totals["wall_s"] = wall - totals.pop("post_s")
            totals["import_s"] = rec["imports"]["import.kklab_s"]
            rec["totals"] = totals
        for p in (in_path, out_path, totals_path):
            p.unlink(missing_ok=True)
        records.append(rec)
        i += 1
    return records


def run_audit(seed: int, seconds: float, env: dict, tmp: Path, traced: bool = False,
              max_requests: int = 0) -> tuple[dict, dict]:
    """The audit_batch worker; returns its output and its import times."""
    cmd = [sys.executable, *(["-X", "importtime"] if traced else []), str(WORKER),
           str(seed), repr(float(seconds)), str(max_requests), "1" if traced else "0",
           str(tmp / SPEED_FILE)]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=seconds + REQUEST_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"audit_batch worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1]), parse_importtime(proc.stderr)


def run_workload(workload, seed, seconds, env, tmp, traced=False, max_requests=0):
    """Records of one closed-loop pass, and the share of transform calls
    whose (grid, operator kind) pair already occurred in the same process."""
    if workload == "audit_batch":
        out, imports = run_audit(seed, seconds, env, tmp, traced, max_requests)
        reuse = out["reused_calls"] / max(out["transform_calls"], 1)
        for r in out["records"]:
            r["imports"] = imports
        return out["records"], reuse
    # every CLI request is its own process with at most one transform call
    return run_cli(workload, seed, seconds, env, tmp, traced, max_requests), 0.0


def tail_latency(lat: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile with at
    least 10 samples beyond it. Below 21 samples that percentile would lie
    under the median, and the slowest request is reported instead."""
    lat = sorted(lat)
    if len(lat) < 21:
        return lat[-1], 100.0, 0
    idx = len(lat) - 11
    return lat[idx], 100.0 * (idx + 1) / len(lat), 10


def coverage_probe(workload: str, seed: int, records: list[dict], src: Path) -> float:
    """Error-estimate coverage for a CLI workload, which writes no error
    estimate: the library transforms, run in this process, of the smallest
    clean Lorentz input the run completed, in both folded directions."""
    sys.path.insert(0, str(src))
    import kklab

    done = [r for r in records if r["outcome"] == "ok" and "oracle_err" in r]
    if not done:
        return 0.0
    req = schedule.request(workload, seed, min(done, key=lambda r: r["n"])["index"])
    spec = kklab.ComplexIndexSpectrum(kklab.FrequencyGrid(req["nu"], kklab.GridUnit.NORMALIZED),
                                      req["re"], req["im"])
    hit = total = 0
    for direction, fn in (("re-from-im", kklab.kk_re_from_im), ("im-from-re", kklab.kk_im_from_re)):
        h, t = checks.coverage_counts(req, fn(spec), direction)
        hit, total = hit + h, total + t
    return hit / total


def end_to_end(records, setup, workload, seed, src) -> tuple[dict, dict]:
    """End-to-end metrics from host-speed-scaled times (``hostspeed.py``),
    and the run's detail, raw times included."""
    ok = [r for r in records if r["outcome"] == "ok"]
    lat = [r["norm_s"] for r in ok] or [0.0]
    busy = sum(r["norm_s"] for r in records)
    tail, pct, beyond = tail_latency(lat)
    errs = [r["oracle_err"] for r in ok if "oracle_err" in r]
    if workload == "audit_batch":
        hit = sum(r.get("cov_hit", 0) for r in ok)
        coverage = hit / max(sum(r.get("cov_total", 0) for r in ok), 1)
    else:
        coverage = coverage_probe(workload, seed, records, src)
    metrics = {
        "latency_p50_s": statistics.median(lat),
        "latency_tail_s": tail,
        "requests_per_s": len(ok) / busy,
        "nodes_per_s": sum(r["n"] for r in ok) / busy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024 / 1e6,
        "oracle_err_max": max(errs, default=0.0),
        "err_coverage": coverage,
        "success_ratio": len(ok) / len(records),
        "setup_s": statistics.median(s["norm_s"] for s in setup),
    }
    detail = {"latency_samples": len(ok), "latency_tail_percentile": pct,
              "latency_tail_samples_beyond": beyond, "busy_s": busy,
              "fail_ratio": 1.0 - metrics["success_ratio"],
              "raw_latency_p50_s": statistics.median([r["wall_s"] for r in ok] or [0.0]),
              "raw_busy_s": sum(r["wall_s"] for r in records),
              "raw_setup_s": statistics.median(s["wall_s"] for s in setup),
              "setup_samples_s": [[s["wall_s"], s["norm_s"]] for s in setup]}
    return metrics, detail


def properties(records: list[dict], reuse: float) -> dict:
    """Input properties of the run, recorded and not gated."""
    hist: dict[str, int] = {}
    mix: dict[str, int] = {}
    for r in records:
        if r["n"]:
            bucket = f"2^{r['n'].bit_length() - 1}"
            hist[bucket] = hist.get(bucket, 0) + 1
        mix[r["direction"]] = mix.get(r["direction"], 0) + 1
    noisy = [r for r in records if r["cls"] == "noisy"]
    return {"grid_reuse_share": reuse, "node_histogram": dict(sorted(hist.items())),
            "direction_mix": mix, "noisy_share": len(noisy) / len(records),
            "noisy_failed": sum(r["outcome"] != "ok" for r in noisy),
            "noisy_sigmas": [r["sigma"] for r in noisy]}


def environment(seed: int, cpu: int | None) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    caches = {}
    for d in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            level, kind, size = (Path(d, f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level} {kind}"] = size

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "not installed"

    return {"seed": seed, "nproc": os.cpu_count(), "cpu_model": cpu or platform.processor(),
            "caches": caches, "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"), "blas_threads": int(THREADS),
            "pinned_cpu": cpu}


def count_failures(records: list[dict]) -> tuple[int, int]:
    """(failed requests, of which wrong outputs)."""
    return (sum(r["outcome"] != "ok" for r in records),
            sum(r["outcome"] == "wrong" for r in records))


def failures(records: list[dict]) -> dict:
    out: dict[str, int] = {}
    for r in records:
        if r["outcome"] != "ok":
            key = f"{r['outcome']}: {r['cls']} {r['direction']}: {r['reason']}"
            out[key] = out.get(key, 0) + 1
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(schedule.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "kklab" / "__init__.py").is_file():
        print(f"perfbench: no kklab sources under {src}; run from a kklab checkout",
              file=sys.stderr)
        return 2
    env = child_env(src)
    cpu = pin_to_one_cpu()
    tmp = root / ".perfbench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        with hostspeed.Monitor(tmp / SPEED_FILE) as monitor:
            if args.trace:
                # untraced pass over half the time, then the same requests traced
                base, _ = run_workload(args.workload, args.seed, args.seconds / 2, env, tmp)
                traced, reuse = run_workload(args.workload, args.seed, 0, env, tmp,
                                             traced=True, max_requests=len(base))
                timed = base + traced
            else:
                setup = measure_setup(env)
                records, reuse = run_workload(args.workload, args.seed, args.seconds, env, tmp)
                timed = setup + records
        scale_times(timed, monitor.samples())
        if args.trace:
            overhead = (sum(r["norm_s"] for r in traced) - sum(r["norm_s"] for r in base)) / len(base)
            metrics = layer_metrics([r.get("totals", {}) for r in traced],
                                    [r["imports"] for r in traced if "imports" in r], overhead)
            units = LAYER_METRICS
            records, detail = base + traced, {"untraced_requests": len(base)}
        else:
            metrics, detail = end_to_end(records, setup, args.workload, args.seed, src)
            units = {k: u for k, (u, _) in END_TO_END.items()}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass

    failed, wrong = count_failures(records)
    props = properties(records, reuse)
    print(f"kklab benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.6g} {units[name]}")
    if not args.trace:
        print(f"  {'fail_ratio':32s} {detail['fail_ratio']:14.6g} 1")
    print(f"  attempted {len(records)}, failed {failed} ({wrong} wrong outputs)")
    for reason, count in failures(records).items():
        print(f"  failed x{count}: {reason}")
    if props["noisy_share"]:
        print(f"  noisy spectra: {len(props['noisy_sigmas'])}, failed {props['noisy_failed']} "
              "(the tail fit rejects noisy tails; counted as failures, not hidden)")
    requests = [[r["index"], r["direction"], r["n"], round(r["wall_s"], 6),
                 round(r.get("norm_s", r["wall_s"]), 6), r["outcome"]] for r in records]
    print(json.dumps({"record": {"workload": args.workload, "trace": args.trace,
                                 "seconds": args.seconds, "environment": environment(args.seed, cpu),
                                 **detail, "properties": props,
                                 "failures": failures(records), "requests": requests}}))
    print(json.dumps({"correct": wrong == 0, "attempted": len(records), "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
