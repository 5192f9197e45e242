"""maxstab benchmark: one command, four workloads, end-to-end and per-layer
metrics.

    python3 perfbench/run.py --workload identify-sweep --seed 1 \\
        --seconds 20 --trace 0

Run it from anywhere; it finds the package in ``src/`` beside this
directory and does not need it installed.  With ``--trace 0`` it times
whole cycles of the workload's operations in a closed loop for at least
``--seconds``, with the workload's reference computation timed between
operations about once a second, and prints the end-to-end metrics; the
gated latencies are relative to the reference (see README.md).  With
``--trace 1`` it runs a fixed number of cycle pairs, one plain and one
with spans around every call into maxstab, and prints the per-layer
metrics.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give every metric with its unit and the environment.  The exit code is
0 only when every output checked out.  Results and spans are written under ``perfbench/results/``.

See ``perfbench/README.md`` for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

# One BLAS/OpenMP thread: the benchmark is one client on a shared 2-CPU
# machine, and the package's only matrix product is small.  Set before
# numpy is imported, here and in every child process.
BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"
# BENCHMARK.json lists long-windows and cli; the other two stay runnable
# for layer studies (see README.md)
WORKLOAD_NAMES = ("long-windows", "cli", "identify-sweep", "short-replicates")
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
SETUP_RUNS = 3  # fresh processes whose set-up time gives setup_s's median
# An untraced run times the workload's reference before an op whenever
# this long has passed since the last one: before every op of cli, every
# few ops of long-windows, every ~50 ops of short-replicates.
REFERENCE_EVERY_S = 1.0
# An op is divided by the median of this many references around it
# (about seven seconds): wide enough to average out single slow
# references, narrow enough to follow the host's drifts, which last from
# tens of seconds to minutes.
REFERENCE_WINDOW = 7

# BENCHMARK.json names the metrics each mode prints
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = tuple((m["name"], m["unit"]) for m in SPEC["end_to_end"])
PER_LAYER = tuple((m["name"], m["unit"]) for m in SPEC["per_layer"])
# printed by an untraced run besides the listed metrics, but not gated:
# the same figures in wall-clock time, the failed share and the median
# reference time, which shows how fast the host was during the run
UNGATED = (("ops_per_s", "1/s"), ("op_p50_ms", "ms"), ("op_tail_ms", "ms"),
           ("fail_ratio", "ratio"), ("reference_ms", "ms"))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"workload seed (default {DEFAULT_SEED}; perf claims "
                        f"must also hold on the held-out seed "
                        f"{HELD_OUT_SEED})")
    p.add_argument("--seconds", type=int, default=50,
                   help="length of the timed part of the run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        p.error("--seed must lie in [0, 2**63)")
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def build(args, in_process: bool):
    """Import the package and construct the workload (no warm-up yet)."""
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS
    work = RESULTS / f"work-{args.workload}-{os.getpid()}"
    return WORKLOADS[args.workload](SRC, args.seed, work, in_process)


def timed_setup(args):
    """Build and warm up the workload in this process; returns it with
    the seconds taken, import included."""
    t0 = perf_counter()
    workload = build(args, in_process=False)
    api = workload.api()
    workload.setup(api)
    return workload, api, perf_counter() - t0


def fresh_setups(args, count) -> list[float]:
    """Set-up seconds of fresh processes, run one at a time."""
    times = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             args.workload, "--seed", str(args.seed), "--setup-probe"],
            capture_output=True, text=True, timeout=170, check=True)
        times.append(float(proc.stdout.split()[-1]))
    return times


def run_cycle(workload, c, api, latencies, failures, tracer=None,
              before_op=None):
    """Run cycle c's operations one after another, appending (name,
    seconds) for each to latencies; before_op() runs, untimed, ahead of
    each."""
    for name, op in workload.cycle(c, api):
        if before_op:
            before_op()
        span = tracer.open("op." + name, new_op=True) if tracer else None
        t = perf_counter()
        try:
            problem = op()
        except Exception as exc:  # an operation failure, counted below
            problem = f"{type(exc).__name__}: {exc}"
        latencies.append((name, perf_counter() - t))
        if tracer:
            tracer.close(span)
            if problem:
                span.add("failed", 1)
        if problem:
            failures.append(f"{name}: {problem}")


def tail(latencies):
    """The highest percentile with at least ten samples beyond it: the
    11th-largest latency.  Returns (value, percentile)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def untraced(args):
    workload, api, own = timed_setup(args)
    setups = [own] + fresh_setups(args, SETUP_RUNS - 1)
    latencies, failures, references, ref_of = [], [], [], []
    last = float("-inf")

    def before_op():
        nonlocal last
        if perf_counter() - last >= REFERENCE_EVERY_S:
            references.append(workload.reference())
            last = perf_counter()
        ref_of.append(len(references) - 1)

    c = 0
    start = perf_counter()
    while c == 0 or perf_counter() - start < args.seconds:
        run_cycle(workload, c, api, latencies, failures, before_op=before_op)
        c += 1
    elapsed = perf_counter() - start
    checks = workload.finish()
    who = resource.RUSAGE_CHILDREN if workload.runs_children \
        else resource.RUSAGE_SELF
    # Each op is divided by the reference time around it: the median of the
    # last reference before it and its neighbours.
    h = REFERENCE_WINDOW // 2
    around = [statistics.median(references[max(0, j - h):j + h + 1])
              for j in range(len(references))]
    rel = [t / around[j] for (_, t), j in zip(latencies, ref_of)]
    ms = [1000.0 * t for _, t in latencies]
    tail_rel, tail_pct = tail(rel)
    metrics = {
        "ops_per_ref": len(rel) / sum(rel),
        "op_p50_ref": statistics.median(rel),
        "op_tail_ref": tail_rel,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "ops_per_s": len(latencies) / (elapsed - sum(references)),
        "op_p50_ms": statistics.median(ms),
        "op_tail_ms": tail(ms)[0],
        "fail_ratio": len(failures) / len(latencies),
        "reference_ms": 1000.0 * statistics.median(references),
    }
    # each op as [name, seconds, index of the last reference before it]
    detail = {"cycles": c, "elapsed_s": elapsed, "ops": len(latencies),
              "tail_percentile": tail_pct, "setup_runs_s": setups,
              "references_s": references,
              "ops_in_order": [[name, t, j] for (name, t), j
                               in zip(latencies, ref_of)]}
    return workload, metrics, len(latencies), failures, checks, detail


def traced(args):
    from spans import Tracer, patched
    workload = build(args, in_process=True)
    # the fresh-process import that every command pays
    import_s = statistics.median(fresh_setups(args, SETUP_RUNS)) \
        if workload.runs_children else 0.0
    tracer = Tracer()
    traced_api, plain_api = workload.api(tracer), workload.api()
    patches = workload.patches(tracer)
    with patched(patches), tracer.span("op.setup", new_op=True) as s:
        workload.setup(traced_api)
    setup_op = s.op
    pairs = max(2, round(args.seconds / (2.0 * workload.cycle_seconds)))
    latencies, failures = {False: [], True: []}, []
    seconds = {False: 0.0, True: 0.0}
    for c in range(pairs):
        # both sides run the same inputs; alternate which goes first
        for on in ((False, True) if c % 2 == 0 else (True, False)):
            t = perf_counter()
            if on:
                with patched(patches):
                    run_cycle(workload, c, traced_api, latencies[on],
                              failures, tracer)
            else:
                run_cycle(workload, c, plain_api, latencies[on], failures)
            seconds[on] += perf_counter() - t
    checks = workload.finish()
    overhead = (len(latencies[True]) / seconds[True]) \
        / (len(latencies[False]) / seconds[False])
    metrics = layer_metrics(tracer, setup_op, import_s, overhead)
    RESULTS.mkdir(parents=True, exist_ok=True)
    spans_file = RESULTS / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(spans_file)
    detail = {"cycle_pairs": pairs, "untraced_s": seconds[False],
              "traced_s": seconds[True], "spans": len(tracer.spans),
              "spans_file": str(spans_file.relative_to(ROOT)),
              "span_summary": tracer.summary(skip_ops={setup_op})}
    attempted = len(latencies[False]) + len(latencies[True])
    return workload, metrics, attempted, failures, checks, detail


def layer_metrics(tracer, setup_op, import_s, overhead):
    rows = tracer.summary(skip_ops={setup_op})

    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counters": {}}

    def per_call(name, key="total_s"):
        r = rows.get(name, empty)
        value = r[key] if key in r else r["counters"].get(key, 0)
        return value / r["calls"] if r["calls"] else 0.0

    def total(name, key):
        return rows.get(name, empty)["counters"].get(key, 0)

    ops = {k: v for k, v in rows.items() if k.startswith("op.")}
    uniform = {k: sum(r["counters"].get(k, 0) for r in ops.values())
               for k in ("uniform_calls", "uniforms", "uniform_s")}
    calls = uniform["uniform_calls"]
    simulate = rows.get("maxar.simulate", empty)
    identify_ops = [r for k, r in ops.items() if k.startswith("op.identify")]
    attempted = sum(r["calls"] for r in identify_ops)
    missed = sum(r["counters"].get("failed", 0) for r in identify_ops)
    cold = [s.end - s.start for s in tracer.spans
            if s.name == "conditional.independence"][:1]
    m = {
        "distributions.uniform_calls": calls,
        "distributions.uniforms_drawn": uniform["uniforms"],
        "distributions.uniforms_per_call":
            uniform["uniforms"] / calls if calls else 0.0,
        "distributions.uniform_s": uniform["uniform_s"] / calls if calls
        else 0.0,
        "maxar.simulate_s": per_call("maxar.simulate"),
        "maxar.values_per_s": simulate["counters"].get("values", 0)
        / simulate["total_s"] if simulate["total_s"] else 0.0,
        "continuous.simulate_s": per_call("continuous.simulate"),
        "continuous.records_per_window":
            per_call("continuous.simulate", "records"),
        "continuous.sample_grid_s": per_call("continuous.sample_grid"),
        "continuous.path_value_s": per_call("continuous.path_value"),
        "spectral.dehaan_s": per_call("spectral.dehaan"),
        "spectral.dehaan_uniforms_per_draw":
            per_call("spectral.dehaan", "uniforms"),
        "conditional.independence_s": per_call("conditional.independence"),
        "conditional.null_cold_s": cold[0] if cold else 0.0,
        "conditional.cdf_mc_s": per_call("conditional.cdf_mc"),
        "analysis.identify_s": per_call("analysis.identify"),
        "analysis.identify_self_s": per_call("analysis.identify", "self_s"),
        "analysis.recovered_ratio":
            (attempted - missed) / attempted if attempted else 0.0,
        "analysis.battery_s": per_call("analysis.battery"),
        "analysis.battery_checks":
            per_call("analysis.battery", "checks"),
        "serialize.csv_write_s": per_call("serialize.csv_write"),
        "serialize.csv_parse_s": per_call("serialize.csv_parse"),
        "serialize.json_write_s": per_call("serialize.json_write"),
        "serialize.bytes_written": total("serialize.csv_write", "bytes")
        + total("serialize.json_write", "bytes"),
        "cli.import_s": import_s,
        "bench.tracing_overhead": overhead,
    }
    for name, _ in PER_LAYER:
        if name.startswith("cli.") and name != "cli.import_s":
            m[name] = per_call(name[:-2])
    return m


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; a copy
    of the tree without .git has no commit to report."""
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


def environment(args) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "missing"
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "traced": bool(args.trace),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(), "python": platform.python_version(),
        "numpy": version("numpy"), "scipy": version("scipy"),
        "click": version("click"), "blas_threads": BLAS_THREADS,
        "commit": git_commit(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "maxstab" / "__init__.py").is_file():
        print(f"error: no maxstab package under {SRC}; run the benchmark "
              "from a full checkout", file=sys.stderr)
        return 2
    if args.setup_probe:
        workload, _, seconds = timed_setup(args)
        shutil.rmtree(workload.work, ignore_errors=True)
        print(seconds)
        return 0
    env = environment(args)
    print("env " + json.dumps(env))
    workload, metrics, attempted, failures, checks, detail = \
        (traced if args.trace else untraced)(args)
    shutil.rmtree(workload.work, ignore_errors=True)
    correct = workload.accept(attempted, len(failures)) and not checks
    units = dict(PER_LAYER if args.trace else END_TO_END)
    printed = dict(PER_LAYER if args.trace else END_TO_END + UNGATED)
    name = args.workload
    if args.trace:
        print(f"{name} traced: {detail['cycle_pairs']} cycle pairs, "
              f"{detail['spans']} spans -> {detail['spans_file']}")
    else:
        print(f"{name}: {attempted} ops ({len(failures)} failed) in "
              f"{detail['cycles']} cycles, {detail['elapsed_s']:.2f} s; "
              f"op_tail_ref and op_tail_ms are "
              f"p{detail['tail_percentile']:.2f}")
    for key, unit in printed.items():
        gated = "" if key in units else " (not gated)"
        print(f"metric {name} {key} {metrics[key]:.6g} {unit}{gated}")
    for problem in failures[:10] + checks:
        print(f"FAIL {problem}", file=sys.stderr)
    RESULTS.mkdir(parents=True, exist_ok=True)
    out = RESULTS / f"{name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({
        "env": env, "correct": correct, "attempted": attempted,
        "failed": len(failures), "metrics": metrics, "detail": detail,
        "failures": failures[:100], "check_failures": checks,
    }, indent=2) + "\n")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
