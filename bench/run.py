"""thetaflow benchmark: one closed-loop workload per invocation.

    python3 bench/run.py --workload grid_2d --seed 1 --seconds 20 --trace 0

Run from the repository root. The process started here imports no
numpy; it starts fresh interpreters for the set-up probes and one worker
that runs the requests, so that ``setup_s`` is measured from interpreter
start and ``peak_rss_mb`` belongs to the process doing the work.

Prints one line per metric and, as its last line, a JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. A copy of the result,
with the raw samples, goes to bench/out/. Exits non-zero without a
result when the library cannot be imported or a process fails.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

WORKLOAD_NAMES = ("grid_2d", "series_1d", "coeffs", "cli_files")

# Fresh interpreter starts per run, timed from process start to "ready";
# the worker's own start is the last of them. setup_s is their median, so
# the one start of a run that compiles the bytecode does not move it.
SETUP_STARTS = 3
DEADLINE_S = 170.0

# One thread for BLAS and OpenMP in every benchmark process.
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}

END_TO_END = {
    "setup_s": "s",
    "requests_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MiB",
}

PER_LAYER_UNITS = {
    "fourier.fft_calls": "count", "fourier.fft_points": "count",
    "fourier.fft_s": "s", "fourier.circular_convolve_s": "s",
    "semigroups.apply_multiplier_s": "s", "semigroups.apply_multiplier_calls": "count",
    "semigroups.subordinate_s": "s", "semigroups.subordinate_nodes": "count",
    "semigroups.poisson_evolve_d_s": "s", "semigroups.alloc_peak_mb": "MiB",
    "theta.kernel_s": "s", "theta.theta3_series_s": "s",
    "theta.series_terms": "computed_count", "theta.theta3_product_s": "s",
    "theta.product_factors": "computed_count", "checks.run_suite_s": "s",
    "ultradist.pair_s": "s", "ultradist.pair_terms": "count",
    "ultradist.check_membership_s": "s", "ultradist.checked_up_to": "count",
    "ultradist.evolve_ultra_s": "s", "ultradist.positivity_check_s": "s",
    "io.save_function_s": "s", "io.load_function_s": "s",
    "io.bytes_written": "bytes", "io.bytes_read": "bytes", "io.alloc_peak_mb": "MiB",
    "cli.import_s": "s", "cli.import_scipy_integrate_s": "s", "cli.main_s": "s",
    "trace.overhead_pct": "%",
}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--role", choices=("main", "probe", "worker"), default="main",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ------------------------------------------------------------ child roles

def _setup(args):
    """Import the library and make the inputs: what setup_s measures."""
    sys.path.insert(0, str(SRC))
    import workloads

    wl = workloads.WORKLOADS[args.workload]()
    workdir = OUT_DIR / f"work-{os.getpid()}"
    inputs = wl.setup(args.seed, workdir)
    return workloads, wl, inputs, workdir


def probe(args) -> int:
    _, _, _, workdir = _setup(args)
    print("ready", flush=True)
    shutil.rmtree(workdir, ignore_errors=True)
    return 0


def worker(args) -> int:
    workloads, wl, inputs, workdir = _setup(args)
    print("ready", flush=True)
    try:
        return _work(args, workloads, wl, inputs, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _work(args, workloads, wl, inputs, workdir) -> int:
    refs = wl.references(inputs)
    checks = wl.checks()
    problems: list[str] = []

    # One untimed warm-up request; its outputs also feed the self-test.
    observed = wl.observe(wl.request(inputs, 0), inputs)
    problems += [f"warm-up: {m}" for m in workloads.run_checks(checks, observed, refs[0])]
    problems += workloads.selftest(checks, observed, refs[0])

    # With tracing, requests cycle through three modes: untraced (the
    # latency the overhead is measured against), spans (layer times and
    # counts) and spans with tracemalloc (allocation peaks, -X importtime).
    tracers = {"spans": tracing.Tracer(), "alloc": tracing.Tracer(alloc=True)}
    modes = ("plain", "spans", "alloc") if args.trace else ("plain",)
    cli = hasattr(wl, "trace_dir")
    trace_dir = workdir / "trace"
    if args.trace and cli:
        trace_dir.mkdir(parents=True, exist_ok=True)
    latencies = {m: [] for m in modes}
    failures, import_samples = [], []
    attempted = 0
    t_start = time.perf_counter()
    i = 1
    while time.perf_counter() - t_start < args.seconds:
        mode = modes[attempted % len(modes)]
        tracer = tracers.get(mode)
        if cli:
            wl.trace_dir = trace_dir if tracer else None
            wl.trace_alloc = mode == "alloc"
        attempted += 1
        try:
            with tracer.active(request_id=i) if tracer else contextlib.nullcontext():
                t0 = time.perf_counter()
                raw = wl.request(inputs, i)
                dt = time.perf_counter() - t0
        except Exception as exc:  # a failed operation is counted, the run goes on
            failures.append(f"request {i}: {type(exc).__name__}: {exc}")
            i += 1
            continue
        latencies[mode].append(dt)
        if tracer is not None and cli:
            for k, stderr in enumerate(wl.last_stderr):
                import_samples.append(tracing.import_times(stderr))
                with open(trace_dir / f"{i}-{k}.json") as fh:
                    tracer.add_external(json.load(fh), request_id=i)
        problems += [f"request {i}: {m}" for m in
                     workloads.run_checks(checks, wl.observe(raw, inputs), refs[i % wl.pool])]
        i += 1

    usage = resource.getrusage(resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF)
    report = {
        "correct": not problems,
        "problems": problems[:20],
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "latencies_s": latencies["plain"],
        "peak_rss_kib": usage.ru_maxrss,
    }
    if args.trace:
        spans = latencies["spans"]
        layers = tracing.layer_metrics(tracers["spans"].spans, len(spans))
        layers.update(tracing.alloc_peaks(tracers["alloc"].spans))
        if spans and latencies["plain"]:
            layers["trace.overhead_pct"] = 100.0 * (
                statistics.median(spans) / statistics.median(latencies["plain"]) - 1.0)
        report.update(layers=layers, import_samples=import_samples,
                      traced_latencies_s=spans)
        OUT_DIR.mkdir(exist_ok=True)
        for mode, tracer in tracers.items():
            tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}-{mode}.jsonl")
    print(json.dumps(report), flush=True)
    return 0


# ------------------------------------------------------------ orchestrator

class ChildFailed(RuntimeError):
    pass


def _spawn(args, role: str, env: dict) -> subprocess.Popen:
    cmd = [sys.executable]
    if args.trace:
        cmd += ["-X", "importtime"]
    cmd += [str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", repr(args.seconds),
            "--trace", str(args.trace), "--role", role]
    return subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE if args.trace else None,
                            start_new_session=True)


def _read_until_ready(proc: subprocess.Popen, deadline: float) -> bytes:
    """Block until the child prints its 'ready' line; return what followed it."""
    fd = proc.stdout.fileno()
    buf = b""
    while b"\n" not in buf:
        left = deadline - time.monotonic()
        if left <= 0:
            raise ChildFailed("timed out waiting for set-up")
        ready, _, _ = select.select([fd], [], [], left)
        if ready:
            chunk = os.read(fd, 65536)
            if not chunk:
                raise ChildFailed(f"{proc.args[-1]} exited during set-up")
            buf += chunk
    line, rest = buf.split(b"\n", 1)
    if line.strip() != b"ready":
        raise ChildFailed(f"unexpected output during set-up: {line[:200]!r}")
    return rest


def _kill(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    proc.wait()


def _finish(proc: subprocess.Popen, deadline: float) -> tuple[bytes, bytes]:
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 0.1))
    except subprocess.TimeoutExpired:
        _kill(proc)
        raise ChildFailed("timed out") from None
    if proc.returncode != 0:
        tail = (err or b"").decode(errors="replace").strip()[-2000:]
        raise ChildFailed(f"child exited {proc.returncode}" + (f": {tail}" if tail else ""))
    return out, err or b""


def orchestrate(args) -> int:
    if not (SRC / "thetaflow" / "__init__.py").is_file():
        print(f"error: library source not found under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    env = dict(os.environ, **THREAD_ENV)
    env.pop("BENCH_TRACE_FILE", None)
    setup_samples, import_samples = [], []
    procs = []
    try:
        for _ in range(SETUP_STARTS - 1):
            t0 = time.perf_counter()
            proc = _spawn(args, "probe", env)
            procs.append(proc)
            _read_until_ready(proc, deadline)
            setup_samples.append(time.perf_counter() - t0)
            _, err = _finish(proc, deadline)
            if args.trace:
                import_samples.append(tracing.import_times(err.decode(errors="replace")))
        t0 = time.perf_counter()
        proc = _spawn(args, "worker", env)
        procs.append(proc)
        rest = _read_until_ready(proc, deadline)
        setup_samples.append(time.perf_counter() - t0)
        out, err = _finish(proc, deadline)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        for p in procs:
            if p.poll() is None:
                _kill(p)
    lines = (rest + out).decode().strip().splitlines()
    if not lines:
        print("error: worker printed no report", file=sys.stderr)
        return 2
    report = json.loads(lines[-1])
    return emit(args, report, setup_samples, import_samples)


def _percentile(values, q):
    """Linear-interpolation percentile of a nonempty list."""
    s = sorted(values)
    pos = (len(s) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def emit(args, report: dict, setup_samples: list, import_samples: list) -> int:
    lat = report["latencies_s"]
    if not lat:
        print("error: no request completed", file=sys.stderr)
        return 2
    if args.trace:
        layers = dict(report["layers"])
        samples = import_samples + report.get("import_samples", [])
        for key, name in (("cli.import_s", "thetaflow"),
                          ("cli.import_scipy_integrate_s", "scipy.integrate")):
            vals = [s[name] for s in samples if name in s]
            layers[key] = statistics.median(vals) if vals else 0.0
        metrics = {k: {"value": float(layers.get(k, 0.0)), "unit": u}
                   for k, u in PER_LAYER_UNITS.items()}
        counts = {k: len(report["traced_latencies_s"]) for k in PER_LAYER_UNITS}
    else:
        values = {
            "setup_s": statistics.median(setup_samples),
            "requests_per_s": len(lat) / sum(lat),
            "latency_p50_ms": 1e3 * statistics.median(lat),
            "latency_p90_ms": 1e3 * _percentile(lat, 0.9),
            "peak_rss_mb": report["peak_rss_kib"] / 1024.0,
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
        counts = {k: len(lat) for k in END_TO_END}
        counts["setup_s"] = len(setup_samples)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"attempted {report['attempted']}  failed {report['failed']}  "
          f"correct {str(report['correct']).lower()}")
    for name, m in metrics.items():
        print(f"  {name:<34} {m['value']:>14.6g} {m['unit']:<14} n={counts[name]}")
    for msg in report["problems"] + report["failures"]:
        print(f"  ! {msg}")
    result = {"correct": bool(report["correct"]), "attempted": int(report["attempted"]),
              "failed": int(report["failed"]), "metrics": metrics}
    OUT_DIR.mkdir(exist_ok=True)
    detail = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, setup_samples_s=setup_samples, worker=report,
                  machine={"python": platform.python_version(),
                           "platform": platform.platform(), "cpus": os.cpu_count()})
    with open(OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w") as fh:
        json.dump(detail, fh, indent=1)
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.role == "probe":
        return probe(args)
    if args.role == "worker":
        return worker(args)
    if not args.seconds > 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    return orchestrate(args)


if __name__ == "__main__":
    sys.exit(main())
