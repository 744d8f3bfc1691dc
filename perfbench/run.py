"""Benchmark of plate_echo: four workloads, end-to-end metrics, traced per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload solve-hires --seed 1 --seconds 20 --trace 0

`--workload all` runs the four in turn. One closed loop in one process: each
pass runs the workload's operations one after another, then their outputs are
checked. Passes repeat while the next one is expected to end within --seconds
(at least three). The last line of standard output is one JSON object; see
perfbench/README.md for the metrics.
"""

import os

# One BLAS thread, set before numpy loads; child processes inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import pickle
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = BENCH / "runs"
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("solve-hires", "image-fine", "wide-aperture", "cli-paper")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-dir", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be a nonnegative integer")
    return args


def setup_child(args) -> int:
    """Make the workload's inputs in a fresh interpreter; print the seconds it took."""
    start = time.perf_counter()
    import plate_echo  # noqa: F401  (the import is part of set-up)
    import workloads
    workloads.WORKLOADS[args.workload].setup(args.seed, args.setup_dir)
    print(time.perf_counter() - start)
    return 0


def run_setup(args, workdir, repeats) -> list:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-dir", str(workdir)]
    times = []
    for _ in range(repeats):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{done.stderr}")
        times.append(float(done.stdout.split()[-1]))
    return times


def run_all(args) -> int:
    """Every workload in turn, each in its own process: one line per workload,
    then one JSON object with the counts summed and the metrics keyed
    '<workload>.<metric>'."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        done = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], stdout=subprocess.PIPE, text=True)
        if done.returncode != 0:
            return done.returncode
        res = json.loads(done.stdout.splitlines()[-1])
        print(f"{name}: attempted={res['attempted']} failed={res['failed']} "
              f"correct={str(res['correct']).lower()} "
              + " ".join(f"{k}={v['value']} {v['unit']}" for k, v in res["metrics"].items()))
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(total))
    return 0


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Tally:
    """Operations attempted and failed, and whether every unexpected check passed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.reported = set()
        self.verdicts = {}    # pass fingerprint -> problems of each operation

    def problem(self, key, text, fatal):
        if fatal:
            self.correct = False
        if key not in self.reported:
            self.reported.add(key)
            print(text, file=sys.stderr)


def run_pass(wl, ops, tally, tracer=None, pass_no=0):
    """Run every operation once, timing each, then check each output (untimed).

    Returns the wall and CPU seconds of each operation, in list order.
    """
    if tracer is not None:
        tracer.pass_no = pass_no
    wl.last = {}
    walls, cpus = [], []
    for op in ops:
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            wl.last[op.name] = op.run()
        except Exception as exc:  # an operation that raises counts as failed
            wl.last[op.name] = exc
        walls.append(time.perf_counter() - t0)
        cpus.append(cpu_seconds() - cpu0)
    key = fingerprint(wl)
    if key not in tally.verdicts:
        tally.verdicts[key] = [check(op, wl.last) for op in ops]
    for op, problems in zip(ops, tally.verdicts[key]):
        tally.attempted += 1
        if problems:
            tally.failed += 1
            note = f" (known fault: {op.known_fault})" if op.known_fault else ""
            tally.problem(op.name, f"{type(wl).__name__} {op.name} failed{note}: "
                                   f"{'; '.join(problems)}", fatal=not op.known_fault)
        elif op.known_fault:
            tally.problem(op.name, f"{type(wl).__name__} {op.name} passed; known fault no "
                                   f"longer shows: {op.known_fault}", fatal=False)
    return walls, cpus


def check(op, outputs) -> list:
    out = outputs[op.name]
    if isinstance(out, Exception):
        return [f"raised {type(out).__name__}: {out}"]
    try:
        return op.check(out, outputs)
    except Exception as exc:  # e.g. the output an operation depends on is missing
        return [f"check raised {type(exc).__name__}: {exc}"]


def fingerprint(wl) -> bytes:
    """Hash of a pass's outputs and of every file in the work directory.

    A pass identical to one already checked gets that pass's verdicts, so
    repeated passes cost no further checking.
    """
    h = hashlib.blake2b(pickle.dumps(wl.last))
    for path in sorted(Path(wl.workdir).rglob("*")):
        if path.is_file():
            h.update(str(path).encode())
            h.update(path.read_bytes())
    return h.digest()


def passes_until(wl, ops, tally, seconds, tracer=None, first_pass=0, min_passes=3):
    """Passes while the next is expected to end within `seconds` (at least `min_passes`).

    Returns per-pass lists of per-operation wall and CPU seconds.
    """
    walls, cpus = [], []
    start = time.perf_counter()
    while True:
        wall, cpu = run_pass(wl, ops, tally, tracer, first_pass + len(walls))
        walls.append(wall)
        cpus.append(cpu)
        elapsed = time.perf_counter() - start
        if len(walls) >= min_passes and elapsed * (1 + 1 / len(walls)) > seconds:
            return walls, cpus


def pass_median(per_pass) -> float:
    """Seconds of one pass with each operation at its median over the passes.

    Summing per-operation medians keeps a stall that hits one operation in one
    pass out of the figure, where the median of whole-pass times would not.
    """
    return sum(statistics.median(times) for times in zip(*per_pass))


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "plate_echo" / "__init__.py").is_file():
        print(f"plate_echo sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    if args.setup_dir:
        return setup_child(args)
    if args.workload == "all":
        return run_all(args)

    workdir = RUNS / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        setup_times = run_setup(args, workdir, 1 if args.trace else SETUP_REPEATS)
        start = time.perf_counter()
        import plate_echo  # noqa: F401
        import_s = time.perf_counter() - start
        import workloads
        import spans

        tracer = spans.Tracer() if args.trace else None
        wl = workloads.WORKLOADS[args.workload](args.seed, str(workdir), tracer)
        ops = wl.ops()
        tally = Tally()
        if tracer is None:
            walls, cpus = passes_until(wl, ops, tally, args.seconds)
            peak_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                       if wl.in_process else wl.child_peak_kb)
            metrics = {
                "setup_s": metric(statistics.median(setup_times), "s"),
                "wall_s": metric(pass_median(walls), "s"),
                "cpu_s": metric(pass_median(cpus), "s"),
                "peak_rss_mb": metric(peak_kb * 1024 / 1e6, "MB"),
            }
        else:
            plain_wall = sum(run_pass(wl, ops, tally)[0])
            tracer.install()
            tracer.active = True
            walls, _ = passes_until(wl, ops, tally, args.seconds - plain_wall, tracer, 1,
                                    min_passes=2)
            tracer.active = False
            metrics = tracer.layer_metrics(range(1, 1 + len(walls)))
            metrics["cli.import_s"] = metric(import_s, "s")
            metrics["trace.overhead_s"] = metric(
                statistics.median(sum(w) for w in walls) - plain_wall, "s")
            for name in tracer.missing:
                print(f"trace target missing: plate_echo.{name}", file=sys.stderr)
            tracer.dump(RUNS / f"trace-{args.workload}-seed{args.seed}.json")

        try:
            final = wl.final_checks(wl.last)
        except Exception as exc:  # the outputs it reads are missing or malformed
            final = [f"raised {type(exc).__name__}: {exc}"]
        for problem in final:
            tally.problem(problem, f"{args.workload} final check: {problem}", fatal=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
