"""cliffcent benchmark: three closed-loop workloads, checked op by op.

Run from the repository root:

    python3 perfbench/run.py --workload sweep_oracle --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table
    python3 perfbench/run.py --workload all --smoke    # toy sizes, for tests

A run repeats whole passes over the workload's ops until ``--seconds`` have
passed; every pass starts with cliffcent's caches cleared, as a fresh process
would, so every pass does the same work.  An op's time is its mean over the
run's passes; the percentiles are taken over those per-op means.  On a shared
CPU, interference from other tenants slows pure-Python code by up to 2x for
seconds at a time, and of the estimators tried (least, lower quartile, median
and mean over passes) the mean varied least from run to run.

Every op's output is checked against ``expected.json``: per signature, a
digest of the outputs that does not depend on their order.  The file is
data, not rebuilt by the benchmark; its digests come from one seed-0 pass of
every workload, full and smoke size, on the first benchmarked commit.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones, measured without any tracing code loaded;
with ``--trace 1`` they are the per-layer ones from ``tracer.py``, per pass,
and one more pass times the hot leaf functions alone.
The lines before it give the environment, sample counts and, when traced,
every span's self time.  The package is imported from ``src/`` of the
checkout, and the process keeps numpy single-threaded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"
TRACE_DIR = HERE / "out"
SETUP_SAMPLES = 20
sys.path.insert(0, str(SRC))
# numpy loads later, with cliffcent; keep it and the set-up imports single-threaded.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

WORKLOAD_NAMES = ("sweep_oracle", "sweep_closed", "cli_large")


def note(text: str) -> None:
    print(f"# {text}", flush=True)


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    # src_dirty: whether src/ differs from the commit; None outside git.
    commit, dirty = "unknown", None
    if (ROOT / ".git").exists():
        git = ["git", "-C", str(ROOT)]
        head = subprocess.run(git + ["rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        status = subprocess.run(git + ["status", "--porcelain", "--", "src"],
                                capture_output=True, text=True, timeout=30)
        if head.returncode == 0:
            commit = head.stdout.strip()
        if status.returncode == 0:
            dirty = bool(status.stdout.strip())
    import numpy
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "git_commit": commit, "src_dirty": dirty,
            "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", "unset")}


def measure_setup(samples: int) -> list:
    """Wall time of fresh interpreters importing the CLI, after one untimed
    import that writes the bytecode cache.

    No timeout: with one, ``subprocess`` polls the child with sleeps of up to
    50 ms, which would round every sample up to the next poll.
    """
    command = [sys.executable, "-c", "import cliffcent.cli"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for i in range(samples + 1):
        start = time.perf_counter()
        subprocess.run(command, env=env, cwd=ROOT, check=True)
        if i:
            times.append(time.perf_counter() - start)
    return times


def clear_caches() -> None:
    """Empty every functools cache in cliffcent, as a fresh process has."""
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("cliffcent"):
            continue
        for value in vars(module).values():
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def measure(workload, ops, seconds: float, expected, tracer=None) -> dict:
    """Run whole passes over ``ops`` until ``seconds`` have passed.

    ``expected`` maps each group to the digest of its outputs; every op of a
    group whose digest differs counts as failed.  ``failed_ops`` holds the
    index of every op that failed in some pass.
    """
    import workloads
    run, check, serialize = workload.run, workload.check, workloads.serialize
    if tracer is not None:
        run = tracer.wrap("bench.op", run)
        serialize = tracer.wrap("cli.serialize", workloads.serialize)
    durations, failed, passes, wall = [[] for _ in ops], 0, 0, 0.0
    failed_ops = set()
    started = time.perf_counter()
    while passes == 0 or time.perf_counter() - started < seconds:
        clear_caches()
        if tracer is not None:
            tracer.record = passes == 0
        canonical, bad = [], set()
        pass_start = time.perf_counter()
        for index, op in enumerate(ops):
            if tracer is not None:
                tracer.op_id = index
            op_start = time.perf_counter()
            try:
                result = run(op, serialize)
            except Exception:
                if not bad:
                    traceback.print_exc()
                result = None
            durations[index].append(time.perf_counter() - op_start)
            text = None if result is None else check(op, result)
            if text is None:
                bad.add(index)
            else:
                canonical.append((op.group, text))
                if tracer is not None:
                    tracer.add("cli.output_bytes", len(result[1].encode()))
        digests = workloads.group_digests(canonical)
        wrong = {g for g in set(digests) | set(expected)
                 if digests.get(g) != expected.get(g)}
        bad |= {i for i, op in enumerate(ops) if op.group in wrong}
        wall += time.perf_counter() - pass_start
        if tracer is not None:
            tracer.end_pass()
        failed += len(bad)
        failed_ops |= bad
        passes += 1
    return {"durations": durations, "failed": failed, "failed_ops": failed_ops,
            "passes": passes, "wall": wall, "digests": digests}


def load_expected(key: str) -> dict:
    with open(EXPECTED) as f:
        table = json.load(f)
    if key not in table:
        raise SystemExit(f"no expected digests for {key} in {EXPECTED}")
    return table[key]


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def units(kind: str) -> dict:
    """Metric name -> unit, for the ``end_to_end`` or ``per_layer`` metrics."""
    return {metric["name"]: metric["unit"] for metric in benchmark_spec()[kind]}


def run_one(name: str, seed: int, seconds: float, traced: bool, smoke: bool) -> int:
    import workloads
    workload = workloads.WORKLOADS[name]
    key = f"smoke/{name}" if smoke else name
    expected = load_expected(key)
    ops = workloads.seeded_order(workload.ops(smoke), seed)
    env = environment()
    note("env " + json.dumps(env))
    note(f"workload {key} seed {seed}: {len(ops)} ops in "
         f"{len({op.group for op in ops})} signatures per pass, "
         f"closed loop from one process")

    tracer = None
    if traced:
        import tracer as tracer_module
        tracer = tracer_module.Tracer()
        tracer.install()
        try:
            done = measure(workload, ops, seconds, expected, tracer)
        finally:
            tracer.restore()
        tracer.install_leaf_timers()
        try:
            leaf_pass = measure(workload, ops, 0, expected)
        finally:
            tracer.restore()
    else:
        # Half the set-up samples before the passes and half after, so one
        # noisy moment on a shared CPU cannot move them all.
        setup = measure_setup(SETUP_SAMPLES // 2)
        done = measure(workload, ops, seconds, expected)
        setup += measure_setup(SETUP_SAMPLES - SETUP_SAMPLES // 2)

    passes, failed = done["passes"], done["failed"]
    attempted = passes * len(ops)
    if traced:
        failed += leaf_pass["failed"]
        attempted += len(ops)
    mean = [statistics.fmean(times) for times in done["durations"]]
    combined = hashlib.sha256(json.dumps(done["digests"], sort_keys=True).encode())
    leaf_note = " + 1 timing the hot leaves" if traced else ""
    note(f"{passes} passes{leaf_note}, {attempted} ops attempted, {failed} failed "
         f"(failed_ratio {failed / attempted:.6g}); outputs digest "
         f"{combined.hexdigest()[:16]} over {len(done['digests'])} signatures")

    if traced:
        metrics = tracer.per_layer(passes, done["wall"])
        self_total = sum(tracer.self_times().values())
        note(f"trace: wall {done['wall']:.4f} s = span self times "
             f"{self_total:.4f} s + unattributed {done['wall'] - self_total:.4f} s "
             f"over {passes} passes")
        for span, value in tracer.self_times().items():
            calls = tracer.stats[span]["calls"]
            note(f"  self {span}: {value / passes:.6f} s/pass, "
                 f"{calls / passes:.0f} calls/pass")
        TRACE_DIR.mkdir(exist_ok=True)
        trace_path = TRACE_DIR / f"trace-{key.replace('/', '-')}-seed{seed}.json"
        tracer.dump(trace_path, {"workload": key, "seed": seed, "passes": passes,
                                 "env": env, "per_layer": metrics})
        note(f"spans of the first pass written to {trace_path.relative_to(ROOT)}")
        result_metrics = {metric: {"value": metrics[metric], "unit": unit}
                          for metric, unit in units("per_layer").items()}
    else:
        values = {
            "setup_s": statistics.median(setup),
            "ops_per_s": len(mean) / sum(mean),
            "op_ms_p50": 1000 * statistics.median(mean),
            "op_ms_p90": 1000 * percentile(mean, 0.9),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        samples = {"setup_s": f"{len(setup)} imports", "peak_rss_mib": "1 process"}
        result_metrics = {metric: {"value": values[metric], "unit": unit}
                          for metric, unit in units("end_to_end").items()}
        for metric, entry in result_metrics.items():
            n = samples.get(metric, f"{len(mean)} ops, mean of {passes} passes")
            note(f"{metric} = {entry['value']:.6g} {entry['unit']} (n = {n})")

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result_metrics}), flush=True)
    return 0


def run_all(seed: int, seconds: float, smoke: bool) -> int:
    """Every workload untraced, then traced, each in a fresh interpreter."""
    import workloads
    rows, ok = [], True
    for name in WORKLOAD_NAMES:
        results = {}
        for trace in (0, 1):
            command = [sys.executable, str(HERE / "run.py"), "--workload", name,
                       "--seed", str(seed), "--seconds", str(seconds),
                       "--trace", str(trace)] + (["--smoke"] if smoke else [])
            done = subprocess.run(command, cwd=ROOT, capture_output=True,
                                  text=True, timeout=900)
            sys.stderr.write(done.stderr)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(done.stdout)
                raise SystemExit(f"{name} --trace {trace} exited {done.returncode}")
            results[trace] = json.loads(lines[-1])
        plain, traced = results[0], results[1]
        ok = ok and plain["correct"] and traced["correct"]
        m = plain["metrics"]
        ops_per_pass = len(workloads.WORKLOADS[name].ops(smoke))
        samples = {"setup_s": SETUP_SAMPLES, "peak_rss_mib": 1}
        for metric, unit in units("end_to_end").items():
            rows.append((name, metric, m[metric]["value"], unit,
                         samples.get(metric, ops_per_pass)))
        rows.append((name, "failed_ratio", plain["failed"] / plain["attempted"],
                     "ratio", plain["attempted"]))
        # traced over untraced op time per pass
        untraced_pass = ops_per_pass / m["ops_per_s"]["value"]
        overhead = traced["metrics"]["trace.op_s"]["value"] / untraced_pass - 1
        rows.append((name, "trace_overhead", 100 * overhead, "%", 1))
        for metric, entry in traced["metrics"].items():
            rows.append((name, metric, entry["value"], entry["unit"], "traced"))
    print(f"{'workload':<13} {'metric':<40} {'value':>14} {'unit':<6} n")
    for name, metric, value, unit, n in rows:
        print(f"{name:<13} {metric:<40} {value:>14.6g} {unit:<6} {n}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=benchmark_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="toy sizes: n <= 2 sweeps and one n = 6 algebra")
    args = parser.parse_args(argv)
    if not (SRC / "cliffcent" / "__init__.py").is_file():
        print(f"error: no cliffcent sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.smoke)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)


if __name__ == "__main__":
    sys.exit(main())
