"""Benchmark runner for crossnest.

    python3 perfbench/run.py --workload gf --seed 1 --seconds 20 --trace 0

Runs one workload (see workloads.py) closed loop in this process, for about
`--seconds` seconds of timed passes over its request list, checks every
output outside the timed region, and prints one JSON object as the last
line of stdout.  With `--trace 0` it reports the end-to-end metrics; with
`--trace 1` it times untraced passes for half the budget and traced passes
for the other half, and reports the per-layer metrics and the tracing
overhead.  A fuller record, with the machine it ran on, goes to
perfbench/out/.  Run it from the repository root or anywhere else: paths
are taken relative to this file.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 21
MIN_PASSES = 3

# Time for `import crossnest.cli` plus the first `build_parser()` in a fresh
# interpreter; interpreter start-up is outside the timed region.
_SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import crossnest.cli
crossnest.cli.build_parser()
print(time.perf_counter() - start)
"""

def machine() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "platform": platform.platform(),
    }


def setup_seconds(probes: int) -> list[float]:
    """Set-up time in each of `probes` fresh interpreters, one at a time.

    Bytecode is cached, as it is for an installed package, so every probe
    after the first measures imports, not compilation.
    """
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    times = []
    for _ in range(probes):
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, str(SRC)],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        times.append(float(done.stdout))
    return times


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


class Runner:
    """Runs passes over one request list and counts what fails."""

    def __init__(self, workload, requests, goldens):
        from crossnest import cli, diagrams, involution

        self.cli, self.diagrams, self.involution = cli, diagrams, involution
        self.workload = workload
        self.requests = requests
        self.goldens = goldens
        self.attempted = 0
        self.failed = 0
        self.failures: list[tuple[str, str]] = []  # the first few, with reasons
        self.outputs: list = [None] * len(requests)  # first pass, bijection

    def _fail(self, req, why: str, times: int = 1) -> None:
        self.failed += times
        if len(self.failures) < 20:
            self.failures.append((req.name, why))

    def _cli_request(self, req):
        start = perf_counter()
        code, out = workloads.run_cli(self.cli.main, req.argv)
        elapsed = perf_counter() - start
        if code != 0:
            self._fail(req, "exit code %s: %s" % (code, out[:200]))
        elif workloads.digest(req.argv, out) != self.goldens[req.name]["sha256"]:
            self._fail(req, "stdout differs from its golden")
        return elapsed

    def _bijection_request(self, i, req):
        d, inv = self.diagrams, self.involution
        start = perf_counter()
        try:
            out = inv.involute(d.parse_diagram(req.text)).to_text()
        except Exception as exc:  # a crash is counted, not fatal to the run
            self._fail(req, "%s: %s" % (type(exc).__name__, exc))
            return perf_counter() - start
        elapsed = perf_counter() - start
        if self.outputs[i] is None:
            self.outputs[i] = out
        elif out != self.outputs[i]:
            self._fail(req, "image differs between passes")
        return elapsed

    def passes(self, budget: float, min_passes: int, tracer=None):
        """Timed passes until the budget would be overrun.

        Returns the seconds of each pass and, per pass, the seconds of each
        request in list order (a compact array, so that the samples add
        little to the peak memory being measured).
        """
        pass_times, request_times = [], []
        begin = perf_counter()
        while True:
            times = array("d")
            for i, req in enumerate(self.requests):
                if tracer is not None:
                    tracer.rid = i
                if req.argv is not None:
                    times.append(self._cli_request(req))
                else:
                    times.append(self._bijection_request(i, req))
                self.attempted += 1
            pass_times.append(sum(times))
            request_times.append(times)
            used = perf_counter() - begin
            if len(pass_times) >= min_passes and used + statistics.median(pass_times) > budget:
                return pass_times, request_times

    def check_bijection(self, passes: int) -> None:
        """Check each image once; a bad image fails on every pass."""
        for req, out in zip(self.requests, self.outputs):
            if out is None:
                continue
            why = workloads.check_bijection(self.diagrams, self.involution, req.text, out)
            if why is not None:
                self._fail(req, why, passes)


def request_medians(requests, request_times) -> dict:
    by_name: dict[str, list[float]] = {}
    for times in request_times:
        for req, seconds in zip(requests, times):
            by_name.setdefault(req.name, []).append(seconds)
    return {name: statistics.median(v) for name, v in sorted(by_name.items())}


def end_to_end(args, runner) -> tuple[dict, dict]:
    # The first probe may write bytecode and is dropped.  Half the probes
    # run after the passes, so that a slow spell of a shared machine does
    # not fall on all of them.
    setup = setup_seconds(SETUP_PROBES // 2 + 1)[1:]
    pass_times, request_times = runner.passes(args.seconds, MIN_PASSES)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup += setup_seconds(SETUP_PROBES - len(setup))
    latencies_ms = [s * 1000 for times in request_times for s in times]
    metrics = {
        "wall_s": statistics.median(pass_times),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss_mb,
    }
    detail = {
        # Per-request latency percentiles mean something on bijection only,
        # whose passes hold thousands of similar requests.
        "req_p50_ms": percentile(latencies_ms, 50),
        "req_p99_ms": percentile(latencies_ms, 99),
        "passes": len(pass_times),
        "pass_seconds": pass_times,
        "wall_s_quartiles": statistics.quantiles(pass_times, n=4),
        "setup_seconds": setup,
        "requests_per_pass": len(runner.requests),
        "request_samples": len(latencies_ms),
        "request_median_s": request_medians(runner.requests, request_times),
    }
    if runner.workload == "bijection":
        runner.check_bijection(len(pass_times))
    return metrics, detail


def traced(args, runner, out_stem: str) -> tuple[dict, dict]:
    plain, _ = runner.passes(args.seconds / 2, 1)
    tracer = Tracer()
    tracer.install()
    try:
        timed, _ = runner.passes(args.seconds / 2, 1, tracer=tracer)
    finally:
        tracer.uninstall()
    if runner.workload == "bijection":
        runner.check_bijection(len(plain) + len(timed))
    metrics = tracer.layer_metrics(len(timed))
    metrics["trace.wall_s"] = statistics.median(timed)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(plain)
    blank = [m for m in workloads.PREDICTED[runner.workload] if not metrics[m]]
    if blank:
        raise SystemExit(
            "tracer coverage: %s read zero on %s" % (", ".join(blank), runner.workload)
        )
    # Mean calls and seconds per request, by request name.
    share = Counter(req.name for req in runner.requests)
    per_request: dict = {}
    for rid, keys in tracer.by_request().items():
        name = runner.requests[rid].name
        scale = len(timed) * share[name]
        group = per_request.setdefault(name, {})
        for key, (calls, seconds) in keys.items():
            cell = group.setdefault(key, [0.0, 0.0])
            cell[0] += calls / scale
            cell[1] += seconds / scale
    detail = {
        "untraced_pass_seconds": plain,
        "traced_pass_seconds": timed,
        "spans_file": str((OUT / (out_stem + "-spans.json")).relative_to(ROOT)),
        "per_request": per_request,
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / (out_stem + "-spans.json"), "w") as fh:
        json.dump(tracer.dump(), fh)
    return metrics, detail


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "crossnest" / "cli.py").is_file():
        sys.stderr.write("no crossnest sources at %s; run from a full checkout\n" % SRC)
        return 2
    sys.path.insert(0, str(SRC))
    with open(HERE / "goldens.json") as fh:
        goldens = json.load(fh)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "loadavg_start": os.getloadavg(),
    }
    runner = Runner(args.workload, workloads.build(args.workload, args.seed), goldens)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    if args.trace:
        metrics, detail = traced(args, runner, stem)
    else:
        metrics, detail = end_to_end(args, runner)
    units = declared_units(args.trace)
    if set(metrics) != set(units):
        raise SystemExit(
            "metrics and BENCHMARK.json disagree on %s" % sorted(set(metrics) ^ set(units))
        )
    record["loadavg_end"] = os.getloadavg()
    record["detail"] = detail
    record["failures"] = runner.failures
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    record["result"] = result
    OUT.mkdir(exist_ok=True)
    with open(OUT / (stem + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)
    for name, why in runner.failures[:5]:
        sys.stderr.write("failed: %s: %s\n" % (name, why))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
