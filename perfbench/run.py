"""semidanse benchmark: one workload, one seed, a fixed measuring time.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload train_semi --seed 1 --seconds 20 --trace 0

With --trace 0 it prints the end-to-end metrics, measured untraced; every
time is scaled by the reference loop timed before and after it (reference.py),
so that the host's changing speed drops out. With
--trace 1 it traces one set-up and alternates untraced and traced operations,
and prints the per-layer metrics and the tracing overhead. The last line of
standard output is the JSON result; the line before it holds the environment.
A fuller record (environment, seeds, per-operation times, sample counts) and,
for traced runs, every span go to .perfbench_work/ in the checkout.

The benchmark pins BLAS to one thread and imports semidanse from the
checkout's src/ only; without it, it exits with an error and no result.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads BLAS

import argparse
import ctypes
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# Set-up is repeated in rounds of at least SETUP_ROUND_S, at least MIN_SETUPS
# rounds and until SETUP_BUDGET_S is spent; each round is timed per set-up.
MIN_SETUPS = 5
SETUP_ROUND_S = 0.5
SETUP_BUDGET_S = 4.0
# After each set-up round and each operation the reference loop repeats for at
# least this share of the time just measured.
REFERENCE_SHARE = 0.25

E2E_UNITS = {
    "setup_s": "s",
    "item_steps_per_ref_s": "1/s",
    "nmse": "ratio",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


def import_library():
    sys.path.insert(0, SRC)
    try:
        import semidanse
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import semidanse from {SRC}: {exc}")
    if os.path.dirname(os.path.dirname(os.path.abspath(semidanse.__file__))) != SRC:
        sys.exit(f"perfbench: semidanse was imported from {semidanse.__file__}, not {SRC}")


def blas_threads():
    """Thread count reported by the BLAS library loaded in this process, if known."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "blas" in line and ".so" in line})
    except OSError:
        return None
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads", "MKL_Get_Max_Threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30, check=True).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return None
    return out[1] if len(out) == 2 and os.path.samefile(out[0], ROOT) else None


def src_digest():
    digest = hashlib.sha256()
    for folder, dirs, files in sorted(os.walk(os.path.join(SRC, "semidanse"))):
        dirs.sort()
        for name in sorted(f for f in files if f.endswith(".py")):
            with open(os.path.join(folder, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()[:16]


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "blas_threads_pinned_to": 1,
        "cpu_count": os.cpu_count(),
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
    }


def throughput(ok):
    """Trajectory-steps per normalised second over (time, Operation) pairs. Operations
    with different keys (train_semi's splits) weigh equally, however often each ran."""
    by_key = {}
    for t, op in ok:
        by_key.setdefault(op.key, []).append((op.item_steps, t))
    per_key = [sum(n for n, _ in pairs) / sum(t for _, t in pairs) for pairs in by_key.values()]
    return len(per_key) / sum(1.0 / rate for rate in per_key)


class Runner:
    """Runs one workload and keeps every operation's outcome."""

    def __init__(self, workload, seconds: float):
        self.workload = workload
        self.seconds = seconds
        self.ops = []  # (seconds, Operation or None, traced)

    def operation(self, state, tracer=None):
        started = time.perf_counter()
        try:
            if tracer is None:
                op = self.workload.operation(state)
            else:
                tracer.op = len(self.ops) + 1
                with tracer:
                    op = self.workload.operation(state)
        except Exception:  # a failing operation is counted, and the run goes on
            traceback.print_exc()
            op = None
        elapsed = time.perf_counter() - started
        if op is not None and op.failures:
            print(f"operation {len(self.ops) + 1} failed its checks: {op.failures}", file=sys.stderr)
        self.ops.append((elapsed, op, tracer is not None))

    def ok_ops(self):
        return [(s, op) for s, op, _ in self.ops if op is not None and not op.failures]

    def run_untraced(self, reference):
        """Set up and run untraced, with a block of reference repeats after each set-up round and
        each operation; every time is then normalised by the mean repeat time of all the blocks."""
        reference.run(REFERENCE_SHARE)  # warm-up, not used
        reference.blocks.clear()
        setup_times, spent = [], 0.0
        while len(setup_times) < MIN_SETUPS or spent < SETUP_BUDGET_S:
            started, count = time.perf_counter(), 0
            while not count or time.perf_counter() - started < SETUP_ROUND_S:
                state = self.workload.setup()
                count += 1
            elapsed = time.perf_counter() - started
            spent += elapsed
            setup_times.append(elapsed / count)
            reference.run(REFERENCE_SHARE * elapsed)
        deadline = time.perf_counter() + self.seconds
        while not self.ops or time.perf_counter() < deadline:
            self.operation(state)
            reference.run(REFERENCE_SHARE * self.ops[-1][0])
        setup_times = [reference.normalise(t) for t in setup_times]
        op_times = [reference.normalise(s) for s, _, _ in self.ops]
        ok = [(t, op) for t, (_, op, _) in zip(op_times, self.ops) if op is not None and not op.failures]
        if not ok:
            sys.exit("perfbench: no operation succeeded")
        metrics = {
            "setup_s": statistics.median(setup_times),
            "item_steps_per_ref_s": throughput(ok),
            "nmse": 10.0 ** (statistics.median(op.nmse_db for _, op in ok) / 10.0),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_ratio": len(ok) / len(self.ops),
        }
        samples = {"setup_s": len(setup_times), "item_steps_per_ref_s": len(ok), "nmse": len(ok),
                   "peak_rss_mb": 1, "ok_ratio": len(self.ops)}
        extra = {"setup_ref_s": setup_times, "operation_ref_s": op_times,
                 "reference_blocks": reference.blocks, "reference_repeat_s": reference.repeat_s()}
        return metrics, E2E_UNITS, samples, extra

    def run_traced(self, spans_path: str):
        from spans import LAYER_METRICS, Tracer, layer_figures

        # Every traced operation trains on the same split, so that the counts repeat exactly.
        self.workload.splits = 1
        tracer = Tracer()
        with tracer:
            state = self.workload.setup()
        deadline = time.perf_counter() + self.seconds
        while len(self.ops) < 2 or time.perf_counter() < deadline:
            self.operation(state, tracer if len(self.ops) % 2 else None)
        times = {traced: [s for s, op, t in self.ops if t == traced and op is not None and not op.failures]
                 for traced in (False, True)}
        if not times[False] or not times[True]:
            sys.exit("perfbench: no traced or no untraced operation succeeded")
        overhead = statistics.median(times[True]) / statistics.median(times[False]) - 1.0
        tracer.write_csv(spans_path)
        metrics = layer_figures(tracer.spans, overhead)
        samples = {name: len(times[True]) for name in metrics}
        return metrics, LAYER_METRICS, samples, {"spans": spans_path, "spans_recorded": len(tracer.spans)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shapes serve the smoke test only")
    args = parser.parse_args(argv)

    import_library()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from reference import Reference
    from workloads import WORKLOADS, derived_seeds, split_seeds

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    out_dir = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(out_dir, exist_ok=True)
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = environment()
    work_dir = tempfile.mkdtemp(prefix=label + "-", dir=out_dir)
    try:
        runner = Runner(WORKLOADS[args.workload](ROOT, work_dir, args.seed, args.size), args.seconds)
        if args.trace:
            metrics, units, samples, extra = runner.run_traced(os.path.join(out_dir, label + "-spans.csv"))
        else:
            metrics, units, samples, extra = runner.run_untraced(Reference())
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failed = len(runner.ops) - len(runner.ok_ops())
    result = {
        "correct": failed == 0,
        "attempted": len(runner.ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "derived_seeds": derived_seeds(args.seed),
        "train_semi_split_seeds": split_seeds(args.seed),
        "seconds": args.seconds, "trace": args.trace, "size": args.size, "environment": env,
        "operations": [{"s": s, "traced": traced, "item_steps": op and op.item_steps,
                        "failures": op.failures if op else ["raised"]}
                       for s, op, traced in runner.ops],
        "samples": samples, **extra, "result": result,
    }
    with open(os.path.join(out_dir, label + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    for name, value in metrics.items():
        print(f"{name:48s} {value:16.6g} {units[name]:8s} n={samples[name]}")
    print(json.dumps({"environment": env, "seed": args.seed, "derived_seeds": derived_seeds(args.seed)}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
