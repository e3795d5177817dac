"""stlfunnel benchmark: training throughput, eval and monitor latency, set-up
time and memory, with a separate traced run for per-layer figures.

Run one workload from the root of a checkout:

    python3 perfbench/run.py --workload train-pendulum --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it repeat every metric by
name. --trace 1 runs the same workload with span tracing and reports the
per-layer metrics instead. --out FILE appends the run, with its facts, to a
JSON-lines file, and

    python3 perfbench/run.py --compare BASE.jsonl CHANGE.jsonl

compares two such files against the bounds in BENCHMARK.json.
"""

import os

# One BLAS and OpenMP thread, fixed before numpy is imported anywhere.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPS = 9


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def use_sources():
    """Import stlfunnel from this checkout's src/ and nowhere else."""
    if not (SRC / "stlfunnel" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        sys.exit(f"perfbench: {ROOT} holds no stlfunnel sources (src/stlfunnel, configs/)")
    sys.path.insert(0, str(SRC))
    import stlfunnel
    if not Path(stlfunnel.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: imported stlfunnel from {stlfunnel.__file__}, not from {SRC}")
    return stlfunnel


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_facts(seed: int) -> dict:
    import numpy as np
    import stlfunnel
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_lib = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_lib = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "omp_threads": os.environ["OMP_NUM_THREADS"],
        "blas": blas_lib,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "kernels_compiled": bool(stlfunnel.KERNELS_COMPILED),
        "git_sha": git_sha(),
        "seed": seed,
    }


# Set-up time ----------------------------------------------------------------------

def probe_setup(args):
    """Child process: CPU time of import plus the workload's set-up calls."""
    t0 = time.process_time()
    use_sources()
    import stlfunnel.cli  # noqa: F401  (what the command line loads)
    import workloads
    state = workloads.RunState(ROOT, Path(args.workdir), args.seed)
    workloads.make(args.workload).setup(state)
    print(json.dumps({"setup_s": time.process_time() - t0}))


def measure_setup(args, workdir: Path) -> list[float]:
    """Median-ready samples of set-up time, each in a fresh interpreter."""
    probe_dir = workdir / "probe"
    probe_dir.mkdir()
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed), "--workdir", str(probe_dir)]
    samples = []
    for _ in range(SETUP_REPS):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
        samples.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


# Measurement ----------------------------------------------------------------------

def repeat_rounds(workload, state, seconds: float) -> tuple[list[float], list[float]]:
    """Run whole rounds until the next one would end past the wall-time
    budget; returns the wall and the CPU seconds of each round."""
    from workloads import cpu_clock
    end = time.perf_counter() + seconds
    wall, cpu = [], []
    while True:
        t0, c0 = time.perf_counter(), cpu_clock()
        workload.round(state)
        wall.append(time.perf_counter() - t0)
        cpu.append(cpu_clock() - c0)
        if time.perf_counter() + statistics.median(wall) > end:
            return wall, cpu


def percentile(values, q):
    import numpy as np
    return float(np.percentile(values, q)) if values else math.nan


def end_to_end(state, setup_samples) -> tuple[dict, dict]:
    values = {
        "train_steps_per_s": statistics.median(state.train_rates) if state.train_rates else math.nan,
        "eval_ms_per_episode_p50": percentile(state.episode_ms, 50),
        "eval_ms_per_episode_p90": percentile(state.episode_ms, 90),
        "monitor_ms_per_trace_p50": percentile(state.trace_ms, 50),
        "monitor_ms_per_trace_p90": percentile(state.trace_ms, 90),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    n_train, n_ep, n_tr = len(state.train_rates), len(state.episode_ms), len(state.trace_ms)
    counts = {"train_steps_per_s": n_train, "eval_ms_per_episode_p50": n_ep,
              "eval_ms_per_episode_p90": n_ep, "monitor_ms_per_trace_p50": n_tr,
              "monitor_ms_per_trace_p90": n_tr, "setup_s": len(setup_samples), "peak_rss_mb": 1}
    return values, counts


def traced(workload, state, seconds: float, trace_path: Path) -> tuple[dict, dict]:
    """A traced set-up, then untraced and traced rounds in turn until the
    budget is spent. Spans and the expected span counts come from the traced
    parts only. Alternating rounds lets drift in machine speed touch both
    sides of the overhead ratio alike."""
    import tracing
    from workloads import Expected, cpu_clock
    end = time.perf_counter() + seconds
    tracer = tracing.Tracer()
    points = tracing.wrap_points()

    def timed(step, on: bool) -> tuple[float, float]:
        """Wall and CPU seconds of step(state), traced or not."""
        kept = state.expected
        if on:
            tracer.install(points)
        else:
            state.expected = Expected()
        t0, c0 = time.perf_counter(), cpu_clock()
        try:
            step(state)
        finally:
            tracer.uninstall()
            state.expected = kept
        return time.perf_counter() - t0, cpu_clock() - c0

    traced_wall, _ = timed(workload.setup, True)
    walls, cpu = [], {False: [], True: []}
    while len(walls) < 2 or time.perf_counter() + statistics.median(walls) <= end:
        on = len(walls) % 2 == 1
        wall, cpu_s = timed(workload.round, on)
        walls.append(wall)
        cpu[on].append(cpu_s)
        if on:
            traced_wall += wall

    values = tracer.summary(traced_wall)
    calls = tracer.calls()
    exp = state.expected
    checks = {
        "envs.step == train steps + rollout steps":
            (calls["envs.step"], exp.train_steps + exp.rollout_steps),
        "dqn.update == updates": (calls["dqn.update"], exp.updates),
        "mlp.adam_step == updates": (calls["mlp.adam_step"], exp.updates),
        "mlp.forward_batch == 2 x updates": (calls["mlp.forward_batch"], 2 * exp.updates),
    }
    for what, (got, want) in checks.items():
        state.attempted += 1
        if got != want:
            state.failed += 1
            state.errors.append(f"span count {what}: {got} != {want}")

    def ratio(a, b):
        return a / b if b else 0.0

    values["dqn.updates_per_step"] = ratio(calls["dqn.update"], exp.train_steps)
    values["mlp.forward_batch_per_update"] = ratio(calls["mlp.forward_batch"], calls["dqn.update"])
    values["robustness.rho_trace_per_verdict"] = ratio(
        calls["robustness.rho_trace"], calls["evalmon.check_satisfaction"])
    values["evalmon.best_snapshot_ratio"] = ratio(calls["dqn.clone"], exp.keep_best_evals)
    values["trace_overhead_frac"] = (
        statistics.median(cpu[True]) / statistics.median(cpu[False]) - 1.0)

    tracer.save(trace_path)
    return values, {"traced_rounds": len(cpu[True]), "untraced_rounds": len(cpu[False]),
                    "spans": len(tracer.kind), "file": str(trace_path)}


def run(args):
    spec = load_spec()
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    use_sources()
    import workloads  # imports the stlfunnel modules that tracing patches

    base = ROOT / ".perfbench"
    base.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base))
    try:
        setup_samples = [] if args.trace else measure_setup(args, workdir)
        state = workloads.RunState(ROOT, workdir, args.seed)
        workload = workloads.make(args.workload)
        workload.setup(state)
        workload.check_setup(state)
        workload.prepare(state)
        workload.warmup(state)
        state.reset_samples()
        if args.trace:
            values, info = traced(workload, state, args.seconds,
                                  base / f"trace-{args.workload}-seed{args.seed}.npz")
            counts = {}
        else:
            wall, cpu = repeat_rounds(workload, state, args.seconds)
            values, counts = end_to_end(state, setup_samples)
            info = {"rounds": len(wall), "wall_over_cpu": sum(wall) / sum(cpu)}
        workload.finish(state)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = {m["name"] for m in wanted} ^ set(values)
    if missing:
        sys.exit(f"perfbench: metrics and BENCHMARK.json disagree on {sorted(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    finite = all(math.isfinite(v["value"]) for v in metrics.values())
    result = {"correct": state.failed == 0 and finite, "attempted": state.attempted,
              "failed": state.failed, "metrics": metrics}

    facts = run_facts(args.seed)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  {json.dumps(info)}")
    print("facts " + json.dumps(facts, sort_keys=True))
    for name, m in metrics.items():
        n = f"  (n={counts[name]})" if name in counts else ""
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}{n}")
    print(f"  {'error_rate':<44} {state.failed / state.attempted:>14.6g} "
          f"({state.failed}/{state.attempted} operations failed)")
    for kind, digest in sorted(state.digests.items()):
        print(f"  final weights digest ({kind}): {digest}")
    for err in state.errors:
        print(f"  FAILED {err}")
    if args.out:
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "facts": facts, "info": info, "counts": counts,
                  "digests": state.digests, "errors": state.errors, "result": result}
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))


def main():
    parser = argparse.ArgumentParser(description="stlfunnel benchmark")
    parser.add_argument("--workload", choices=("train-pendulum", "train-diffdrive", "eval-monitor"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append this run, with its facts, to a JSON-lines file")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "CHANGE"),
                        help="compare two JSON-lines files written with --out")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.compare:
        import compare
        compare.main(args.compare[0], args.compare[1], load_spec())
    elif args.workload is None:
        parser.error("--workload is required")
    elif args.probe_setup:
        probe_setup(args)
    else:
        run(args)


if __name__ == "__main__":
    main()
