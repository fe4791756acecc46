"""opzeta benchmark: seeded CLI workloads, end-to-end metrics, traced layers.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke          # every workload, a few ops, all checks
    python3 bench/run.py --baselines      # traced kernels beside the ROADMAP numbers

Runs the checkout's own `src/opzeta` (never an installed copy) in a closed
loop with one client: each op starts when the previous one has finished.
The in-process workloads call `opzeta.cli.main(argv)`; cli_cold starts a
fresh `python -m opzeta` per op. Every output is checked against the
benchmark's own references (see workloads.py and reference.py).

With --trace 0 the last stdout line is one JSON object with the end-to-end
metrics, measured untraced. With --trace 1 the same ops run untraced and
then again with span wrappers installed (spans.py), and the JSON holds the
per-layer metrics. See README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import io
import json
import math
import os
import platform
import random
import resource
import select
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from itertools import cycle, islice
from pathlib import Path
from typing import Callable, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

MIN_OPS = 100          # p90 then has at least ten samples beyond it
MAX_PHASE_S = 70.0     # a phase stops at the first op end past this
PLAN_BLOCKS = 8        # blocks (and references) drawn before timing
WARMUP_OPS = 3
SETUP_PROBES = 9
SMOKE_OPS = 4
CHILD_TIMEOUT_S = 60.0

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "series.abel_extrapolate.ms_per_call": "ms",
    "series.abel_extrapolate.calls_per_op": "count",
    "series.partial_sum_accelerated.ms_per_call": "ms",
    "series.partial_sum_accelerated.calls_per_op": "count",
    "series.geometric_extrapolate.ms_per_call": "ms",
    "series.self_ms_per_op": "ms",
    "exactnum.pipoly_eval.ms_per_call": "ms",
    "exactnum.pipoly_eval.calls_per_op": "count",
    "exactnum.bernoulli_number.ms_per_op": "ms",
    "exactnum.bernoulli_number.calls_per_op": "count",
    "exactnum.euler_number.ms_per_op": "ms",
    "exactnum.self_ms_per_op": "ms",
    "specfun.zeta_em.ms_per_call": "ms",
    "specfun.zeta_em.calls_per_op": "count",
    "specfun.dirichlet_beta.ms_per_call": "ms",
    "specfun.dirichlet_beta.calls_per_op": "count",
    "specfun.self_ms_per_op": "ms",
    "specfun.err_over_bound_max": "ratio",
    "specfun.bound_log10_median": "log10",
    "divmatrix.build_matrix.ms_per_call": "ms",
    "divmatrix.nnz_per_call": "count",
    "divmatrix.matrix_apply.ms_per_call": "ms",
    "divmatrix.consistency_check.ms_per_call": "ms",
    "divmatrix.self_ms_per_op": "ms",
    "operators.taylor_flow.ms_per_call": "ms",
    "operators.extract_special_values.ms_per_call": "ms",
    "operators.self_ms_per_op": "ms",
    "registry.registry_version.calls_per_op": "count",
    "registry.self_ms_per_op": "ms",
    "cli.self_ms_per_op": "ms",
    "opzeta.import_ms": "ms",
    "trace.overhead_frac": "ratio",
}

# the layer expected to hold the most self time on each workload
PREDICTED_TOP = {"verify_registry": "series", "values_numeric": "specfun",
                 "matrix_ops": "divmatrix", "cli_cold": "import"}

SETUP_CODE = "import opzeta; opzeta.load_registry(); print('ready', flush=True)"

# A fresh interpreter that imports a fixed set of standard-library modules:
# the start-up work of a cold op, without opzeta, numpy or mpmath.
START_UP_CODE = "import json, fractions, decimal, argparse, configparser, email.parser, http.client, unittest"


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result line."""


@dataclass
class Outcome:
    op: object
    latency: float
    speed: Optional[float]  # speed-probe seconds sampled just before the op, if taken
    failure: Optional[str]  # None when the op succeeded
    wrong: bool             # exited 0 but printed a wrong result


def speed_kernel() -> int:
    """Fixed pure-Python work that does not touch opzeta; its run time tracks
    how fast the machine executes Python at that moment."""
    table = {}
    acc = 0
    for i in range(1, 200):
        table[i] = (i * 7919) % 104729
        acc += table[i] // 3
    for i in range(300):
        acc += int(math.sqrt(i))
    return acc


def kernel_sample() -> float:
    """Seconds of the speed kernel, the better of two tries."""
    best = math.inf
    for _ in range(2):
        t0 = time.perf_counter()
        speed_kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def start_up_sample() -> float:
    """Seconds from spawning a fresh interpreter that runs START_UP_CODE
    until it has exited."""
    t0 = time.perf_counter()
    p = subprocess.run([sys.executable, "-c", START_UP_CODE], capture_output=True, env=child_env(), cwd=ROOT,
                       timeout=CHILD_TIMEOUT_S)
    if p.returncode != 0:
        raise BenchError(f"start-up probe failed (exit {p.returncode})")
    return time.perf_counter() - t0


@dataclass(frozen=True)
class SpeedProbe:
    """Fixed work that does not touch opzeta, timed between ops. Its time
    moves with the machine's speed for that kind of work, and an opzeta
    change moves the op times, not the probe's."""
    name: str
    sample: Callable[[], float]
    reference_s: float  # the probe's time on the reference machine at a typical moment
    every: int          # sampled before every `every`-th op
    nearest: int        # samples, nearest in op order, that rescale one op
    average: Callable   # how those samples are combined


# The in-process workloads run Python in this process: the kernel tracks them.
# Its 0.1 ms samples catch stray interrupts, hence the median. A cold op is
# mostly interpreter start and imports, which the kernel does not track
# (correlation about 0.1 with the op time); a start-up probe run just before
# an op does (about 0.5). The 7 nearest start-up samples span about 28 ops,
# some 12 s, and are averaged: their mean is steadier than one sample and
# still follows the machine's slow phases, which last seconds.
KERNEL = SpeedProbe("speed kernel", kernel_sample, 100e-6, 1, 9, statistics.median)
START_UP = SpeedProbe("start-up probe", start_up_sample, 0.19, 4, 7, statistics.fmean)


def scaled(times: list[float], speeds: list[Optional[float]], probe: SpeedProbe) -> list[float]:
    """Each time rescaled to the probe's reference speed, by the average of
    the `probe.nearest` speed samples taken nearest to it in op order."""
    taken = [i for i, v in enumerate(speeds) if v is not None]
    out = []
    for i, t in enumerate(times):
        at = bisect.bisect_left(taken, i)
        near = sorted(taken[max(0, at - probe.nearest): at + probe.nearest], key=lambda j: (abs(j - i), j))
        out.append(t * probe.reference_s / probe.average([speeds[j] for j in near[:probe.nearest]]))
    return out


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class InProcess:
    """Runs ops through opzeta.cli.main in this process."""

    probe = KERNEL

    def __init__(self, import_s: float):
        self.import_s = [import_s]
        self.tracer = None

    def trace(self, spans) -> None:
        self.tracer = spans.Tracer()
        self.tracer.install()

    def run(self, op, index: int):
        from opzeta import cli

        if self.tracer is not None:
            self.tracer.op = index
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stderr(err):
                rc = cli.main(list(op.argv), out=out)
        except Exception:  # the op's traceback is its failure record
            rc = 1
            err.write(traceback.format_exc())
        return time.perf_counter() - t0, rc, out.getvalue(), err.getvalue()

    def summary(self, spans) -> dict:
        summ = spans.merge([self.tracer.summary()])
        summ["import_s"] = self.import_s
        return summ


class Cold:
    """Runs each op in a fresh interpreter: `python -m opzeta`, or the
    benchmark's traced entry point child.py once `trace` is called."""

    probe = START_UP

    def __init__(self):
        self.env = child_env()
        self.traced = False
        self.summaries: list[dict] = []

    def trace(self, spans) -> None:
        self.traced = True

    def run(self, op, index: int):
        if not self.traced:
            cmd = [sys.executable, "-m", "opzeta", *op.argv]
            t0 = time.perf_counter()
            try:
                p = subprocess.run(cmd, capture_output=True, text=True, env=self.env, cwd=ROOT,
                                   timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                return time.perf_counter() - t0, None, "", ""
            return time.perf_counter() - t0, p.returncode, p.stdout, p.stderr
        r, w = os.pipe()
        cmd = [sys.executable, str(BENCH / "child.py"), str(w), *op.argv]
        t0 = time.perf_counter()
        try:
            with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                                  env=self.env, cwd=ROOT, pass_fds=(w,)) as p:
                os.close(w)
                w = None
                try:
                    out, err = p.communicate(timeout=CHILD_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    p.kill()
                    p.communicate()
                    return time.perf_counter() - t0, None, "", ""
                latency = time.perf_counter() - t0
            with os.fdopen(r) as f:
                r = None
                data = f.read()
            if data:  # empty when the child died before opzeta was imported
                self.summaries.append(json.loads(data))
            return latency, p.returncode, out, err
        finally:
            for fd in (r, w):
                if fd is not None:
                    os.close(fd)

    def summary(self, spans) -> dict:
        summ = spans.merge(self.summaries)
        summ["import_s"] = [t for s in self.summaries for t in s["import_s"]]
        return summ


def execute(runner, op, index: int, sink: list) -> Outcome:
    probe = runner.probe
    speed = probe.sample() if index % probe.every == 0 else None
    latency, rc, out, err = runner.run(op, index)
    last = err.strip().splitlines()[-1] if err.strip() else ""
    if rc is None:
        return Outcome(op, latency, speed, f"timeout after {CHILD_TIMEOUT_S:g} s", False)
    if rc != 0:
        return Outcome(op, latency, speed, f"exit {rc}: {last}", False)
    if "Traceback" in err:
        return Outcome(op, latency, speed, f"traceback: {last}", False)
    try:
        wrong = op.check(out, sink)
    except (KeyError, TypeError, ValueError) as exc:  # output of the wrong shape
        wrong = f"unreadable output: {exc!r}"
    return Outcome(op, latency, speed, wrong, wrong is not None)


def run_phase(runner, plan: list, seconds: float, min_ops: int, sink: list) -> tuple[list, float]:
    """Whole blocks, cycling through the plan, until `seconds` have passed
    and `min_ops` ops are done. Past MAX_PHASE_S it stops after the current
    op, so that a traced run (two phases) ends within 180 s."""
    results: list[Outcome] = []
    start = time.perf_counter()
    for block in cycle(plan):
        for op in block:
            results.append(execute(runner, op, len(results), sink))
            if time.perf_counter() - start >= MAX_PHASE_S:
                return results, time.perf_counter() - start
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and len(results) >= min_ops:
            return results, elapsed


def replay(runner, ops: list, sink: list) -> tuple[list, float]:
    start = time.perf_counter()
    results = [execute(runner, op, i, sink) for i, op in enumerate(ops)]
    return results, time.perf_counter() - start


def setup_probe(env: dict) -> float:
    """Seconds from spawning an interpreter until `import opzeta` and
    `load_registry()` have returned in it."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", SETUP_CODE], stdout=subprocess.PIPE,
                          env=env, cwd=ROOT) as p:
        ready, _, _ = select.select([p.stdout], [], [], CHILD_TIMEOUT_S)
        if not ready:
            p.kill()
            raise BenchError("set-up probe timed out")
        line = p.stdout.readline()
        elapsed = time.perf_counter() - t0
        p.stdout.read()
    if line.strip() != b"ready":
        raise BenchError(f"set-up probe failed (exit {p.returncode})")
    return elapsed


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(lat: list[float], setup: list[float], rss_mb: float) -> dict:
    return {
        "ops_per_s": len(lat) / sum(lat),
        "latency_p50_ms": statistics.median(lat) * 1000,
        "latency_p90_ms": percentile(lat, 90) * 1000,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss_mb,
    }


def self_by_layer(summ: dict, n_ops: int) -> dict:
    """Self milliseconds per op of each layer, the import counted as one."""
    layers: dict[str, float] = {"import": sum(summ["import_s"]) / n_ops * 1000}
    for name, row in summ["functions"].items():
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + row[3] / n_ops * 1000
    return layers


def layer_metrics(summ: dict, n_ops: int, numeric: list, overhead: float) -> dict:
    functions = summ["functions"]
    self_ms = self_by_layer(summ, n_ops)
    bounds = [b for _, b in numeric if b > 0]
    nnz = summ["counts"].get("divmatrix.build_matrix", [])
    out = {}
    for metric in PER_LAYER:
        head, _, tail = metric.rpartition(".")
        calls, outer_calls, outer_s, _ = functions.get(head, (0, 0, 0.0, 0.0))
        if tail == "ms_per_call":
            value = outer_s / outer_calls * 1000 if outer_calls else 0.0
        elif tail == "ms_per_op":
            value = outer_s / n_ops * 1000
        elif tail == "calls_per_op":
            value = calls / n_ops
        elif tail == "self_ms_per_op":
            value = self_ms.get(head, 0.0)
        elif metric == "divmatrix.nnz_per_call":
            value = statistics.fmean(nnz) if nnz else 0.0
        elif metric == "specfun.err_over_bound_max":
            value = max((e / b for e, b in numeric if b > 0), default=0.0)
        elif metric == "specfun.bound_log10_median":
            value = statistics.median(math.log10(b) for b in bounds) if bounds else 0.0
        elif metric == "opzeta.import_ms":
            value = statistics.median(summ["import_s"]) * 1000
        elif metric == "trace.overhead_frac":
            value = overhead
        else:
            raise KeyError(metric)
        out[metric] = value
    return out


def peak_rss_mb(in_process: bool) -> float:
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


def metadata(opzeta_file: str) -> dict:
    import mpmath
    import numpy

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        p = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = p.stdout.strip() or commit
    lines = sum(len(f.read_text(encoding="utf-8").splitlines()) for f in (SRC / "opzeta").glob("*.py"))
    return {
        "opzeta_file": opzeta_file,
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "src_opzeta_lines": lines,
    }


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
                 import_s: float, log) -> dict:
    import spans
    import workloads

    spec = workloads.WORKLOADS[name]
    blocks = workloads.build(name, random.Random(seed), ROOT)
    plan = list(islice(blocks, PLAN_BLOCKS))
    if smoke:
        plan = [plan[0][:SMOKE_OPS]]
    runner = InProcess(import_s) if spec.in_process else Cold()
    sink: list = []
    if not smoke:
        for op in plan[0][:WARMUP_OPS]:
            execute(runner, op, 0, [])

    results, elapsed = run_phase(runner, plan, 0 if smoke else seconds, 0 if smoke else MIN_OPS, sink)
    rss = peak_rss_mb(spec.in_process)
    all_results = list(results)
    n = len(results)
    raw = [r.latency for r in results]
    probe = runner.probe
    speeds = [r.speed for r in results]
    lat = scaled(raw, speeds, probe)
    taken = [v * 1000 for v in speeds if v is not None]
    log(f"{name} seed={seed}: {n} ops in {elapsed:.2f} s untraced; {len(taken)} {probe.name} samples, "
        f"median {statistics.median(taken):.4g} ms (reference {probe.reference_s * 1000:g} ms), "
        f"range {min(taken):.4g} to {max(taken):.4g} ms")
    metrics: dict = {}
    if smoke or not trace:
        env = child_env()
        probe_speeds, probes = [], []
        for _ in range(1 if smoke else SETUP_PROBES):
            probe_speeds.append(START_UP.sample())
            probes.append(setup_probe(env))
        e2e = end_to_end(lat, scaled(probes, probe_speeds, START_UP), rss)
        e2e_raw = end_to_end(raw, probes, rss)
        failed = sum(r.failure is not None for r in results)
        samples = {
            "ops_per_s": f"{n} ops",
            "latency_p50_ms": f"{n} ops",
            "latency_p90_ms": f"{n} ops, {sum(x * 1000 > e2e['latency_p90_ms'] for x in lat)} beyond",
            "setup_s": f"median of {len(probes)} probes",
            "peak_rss_mb": "ops process" if spec.in_process else f"largest of {n} children",
        }
        log(f"  {'metric':<16}{'value':>14}{'unscaled':>14}  {'unit':<6}samples")
        for metric, unit in END_TO_END.items():
            log(f"  {metric:<16}{_fmt(e2e[metric]):>14}{_fmt(e2e_raw[metric]):>14}  {unit:<6}{samples[metric]}")
            if metric == "latency_p90_ms":
                log(f"  {'fail_frac':<16}{_fmt(failed / n):>14}{'':>14}  {'ratio':<6}{failed} of {n} ops")
        metrics.update({k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()})
    if smoke or trace:
        runner.trace(spans)
        traced, traced_elapsed = replay(runner, [r.op for r in results], [])
        all_results += traced
        traced_speeds = [r.speed for r in traced]
        overhead = 1 - sum(lat) / sum(scaled([r.latency for r in traced], traced_speeds, probe))
        summ = runner.summary(spans)
        # span times are scaled to the reference speed by the replay's speed samples
        factor = probe.reference_s / probe.average([v for v in traced_speeds if v is not None])
        layers = layer_metrics(summ, n, sink, overhead)
        layers.update({k: v * factor for k, v in layers.items() if PER_LAYER[k] == "ms"})
        log(f"  traced replay: {n} ops in {traced_elapsed:.2f} s; span times scaled by {factor:.3f}")
        for metric, unit in PER_LAYER.items():
            log(f"  {metric:<44}{_fmt(layers[metric]):>14}  {unit}")
        by_layer = self_by_layer(summ, n)
        top = max(by_layer, key=by_layer.get)
        log("  self ms per op (unscaled): " + ", ".join(f"{k} {_fmt(v)}" for k, v in
                                                      sorted(by_layer.items(), key=lambda kv: -kv[1])))
        log(f"  top self-time layer: {top} (predicted {PREDICTED_TOP[name]})")
        metrics.update({k: {"value": v, "unit": PER_LAYER[k]} for k, v in layers.items()})

    failures = [r for r in all_results if r.failure is not None]
    if failures:
        log(f"  failed ops ({len(failures)} of {len(all_results)}); known failures of opzeta 0.1.0: "
            + "; ".join(workloads.KNOWN_OVERFLOWS))
        for r in dict((" ".join(r.op.argv), r) for r in failures).values():
            log(f"    {'WRONG' if r.wrong else 'FAIL '} {' '.join(r.op.argv)}: {r.failure[:200]}")
    return {
        "correct": not any(r.wrong for r in all_results),
        "attempted": len(all_results),
        "failed": len(failures),
        "metrics": metrics,
    }


def kernel_times() -> dict:
    """Seconds for each kernel ROADMAP's re-anchor timed."""
    from opzeta import cli, divmatrix, exactnum, registry, specfun

    def clock(fn) -> float:
        t0 = time.perf_counter()
        fn()
        return time.perf_counter() - t0

    sweep = {rid: clock(lambda: cli.main(["verify", rid, "--format", "json"], out=io.StringIO()))
             for rid in registry.load_registry()}
    cached = exactnum.bernoulli_number  # the lru_cache object, or the span wrapper around it
    (cached if hasattr(cached, "cache_clear") else cached.__wrapped__).cache_clear()
    return {
        "registry sweep, 19 ids in-process": sum(sweep.values()),
        "verify beta_sin_s1": sweep["beta_sin_s1"],
        "zeta_em(0.5), median of 20": statistics.median(clock(lambda: specfun.zeta_em(0.5)) for _ in range(20)),
        "build_matrix(10^4), median of 3":
            statistics.median(clock(lambda: divmatrix.build_matrix(10 ** 4)) for _ in range(3)),
        "bernoulli_number(400), cold cache": clock(lambda: exactnum.bernoulli_number(400)),
    }


ROADMAP_BASELINES = {  # seconds, from ROADMAP's re-anchor
    "registry sweep, 19 ids in-process": 2.6,
    "verify beta_sin_s1": 1.72,
    "zeta_em(0.5), median of 20": 2.4e-3,
    "build_matrix(10^4), median of 3": 0.150,
    "bernoulli_number(400), cold cache": 0.190,
}


def baselines(log) -> None:
    """Time ROADMAP's baseline kernels untraced, then traced, beside ROADMAP."""
    import spans

    untraced = kernel_times()
    spans.Tracer().install()
    traced = kernel_times()
    log(f"{'kernel':<36}{'ROADMAP':>10}{'untraced':>10}{'traced':>10}{'traced/ROADMAP':>16}")
    for label, roadmap in ROADMAP_BASELINES.items():
        unit, scale = ("s", 1) if roadmap >= 1 else ("ms", 1000)
        log(f"{label:<36}{roadmap * scale:>7.4g} {unit:<2}{untraced[label] * scale:>7.4g} {unit:<2}"
            f"{traced[label] * scale:>7.4g} {unit:<2}{traced[label] / roadmap:>16.2f}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=tuple(PREDICTED_TOP))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="every workload (or --workload), a few ops each")
    p.add_argument("--baselines", action="store_true", help="print traced kernels beside ROADMAP's numbers")
    args = p.parse_args(argv)
    if not (args.workload or args.smoke or args.baselines):
        p.error("one of --workload, --smoke or --baselines is required")

    if not (SRC / "opzeta" / "__init__.py").is_file():
        print(f"error: no opzeta package at {SRC / 'opzeta'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import opzeta.cli

    import_s = time.perf_counter() - t0
    if SRC not in Path(opzeta.__file__).resolve().parents:
        print(f"error: imported {opzeta.__file__}, not the checkout's copy", file=sys.stderr)
        return 2

    def log(line: str) -> None:
        print(line, flush=True)

    log("meta " + json.dumps(metadata(opzeta.__file__)))
    if args.baselines:
        baselines(log)
        return 0
    names = [args.workload] if args.workload else list(PREDICTED_TOP)
    try:
        results = [run_workload(name, args.seed, args.seconds, bool(args.trace), args.smoke, import_s, log)
                   for name in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": results[0]["metrics"] if len(results) == 1 else {},
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] or not args.smoke else 1


if __name__ == "__main__":
    sys.exit(main())
