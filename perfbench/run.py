"""grushin benchmark: oracle-checked CLI workloads, end to end and per layer.

One workload, in this process (what BENCHMARK.json's command runs):

    python3 perfbench/run.py --workload line_spectrum --seed 1 --seconds 24 --trace 0

runs the workload's operations through ``grushin.cli.run(argv)`` in a closed
loop with one client: a cold pass over every operation, the oracle check and
self-check of every output, then warm passes for ``--seconds`` over the
operations that answered. Every warm pass must reproduce the cold pass byte
for byte. The last stdout line is one JSON object ``{correct, attempted,
failed, metrics}``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics (from a separate, traced half of the window) with ``--trace 1``. The
traced run also runs the workload's probes once, untraced: operations that
fail today and so are kept out of the timed ones (workloads.PROBES). A
wrong answer prints the operation and its deviation on stderr and exits 1;
``--corrupt`` feeds every oracle an answer moved by ten times its tolerance,
to show that path.

Times are CPU seconds of the benchmark process (``time.process_time``), with
BLAS held to one thread. The program then runs on one thread, so on an idle
machine CPU time and wall time agree, while on a shared virtual machine wall
time also counts the time the host gives the CPU to other guests (steal,
seen at 20% of the CPU and swinging wall times by 30% from minute to minute).
The log lines print the wall time of every pass next to its CPU time.

Every workload, each in a fresh process, untraced and traced:

    python3 perfbench/run.py --all --seed 1 --seconds 24

prints the end-to-end metrics by name and unit for each workload, with
pass_s_tail, cold_pass_s, fail_ratio and max_err_ratio, and writes them with
the per-layer metrics, the operations and the per-operation times to
perfbench/out/summary.json (perfbench/baseline.json is one such file, kept).

The program is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

# One BLAS thread: on a small shared machine a second spinning BLAS thread
# turns contention from other processes into stalls of several times the
# solve, which no number of repeats averages out. Set before numpy loads;
# the set-up children inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

# String hashing is randomised per process, and the hash seed moves the
# program's heap: peak RSS of one perturb_lab run took two values 6% apart
# depending on it. Fix it, so that a run's figures depend on --seed alone.
# exec replaces this process; it starts no other.
if os.environ.get("PYTHONHASHSEED") != "0":
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable, *sys.argv])

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import numpy  # noqa: E402
import scipy  # noqa: E402

import layers  # noqa: E402
import oracles  # noqa: E402
from workloads import PROBES, WORKLOADS, build  # noqa: E402

# fresh imports timed before and again after the warm passes, so that the
# median spans the run rather than its first seconds
SETUP_REPEATS = 2
SETUP_CODE = ("import time; t = time.process_time(); import grushin, grushin.cli; "
              "print(time.process_time() - t)")
ERROR_RE = re.compile(r"^error: code=(\S+) msg=", re.MULTILINE)

# The metrics of BENCHMARK.json's end_to_end. Every run also prints
# pass_s_tail and cold_pass_s, which --all reports with fail_ratio and
# max_err_ratio; they are not gated because one run holds a single cold pass
# and 7 to 40 warm ones (so the tail is often the slowest pass), and their
# spread from run to run on a shared machine exceeds any bound of 25%.
END_TO_END = {"pass_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SUMMARY_UNITS = {"pass_s": "s", "pass_s_tail": "s", "cold_pass_s": "s", "setup_s": "s",
                 "peak_rss_mb": "MB", "fail_ratio": "1", "max_err_ratio": "1"}


class Result:
    __slots__ = ("code", "stdout", "error", "seconds", "digest")

    def __init__(self, code: int, stdout: str, stderr: str, seconds: float):
        self.code = code
        self.stdout = stdout
        match = ERROR_RE.search(stderr)
        self.error = match.group(1) if match else ("" if code in (0, 3) else "unparsed")
        self.seconds = seconds
        self.digest = hashlib.sha256(f"{code}\0{self.error}\0{stdout}".encode()).hexdigest()

    @property
    def failed(self) -> bool:
        # 0 is success and 3 an UNDECIDED certification; both are answers
        return self.code not in (0, 3)


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples above it, as
    (value, percentile). With twenty samples or fewer no percentile above the
    median has ten samples beyond it, and the maximum is reported instead."""
    ordered = sorted(samples)
    if len(ordered) <= 20:
        return ordered[-1], 100.0
    idx = len(ordered) - 11
    return ordered[idx], 100.0 * (idx + 1) / len(ordered)


def measure_setup() -> list[float]:
    """CPU times of `import grushin, grushin.cli` in fresh processes."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=_child_env(),
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def _child_env() -> dict:
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env


def require_source() -> None:
    if not (SRC / "grushin" / "__init__.py").is_file():
        print(f"benchmark: no program source at {SRC.relative_to(ROOT)}/grushin; "
              "run from a checkout of the repository", file=sys.stderr)
        raise SystemExit(2)


def import_program():
    sys.path.insert(0, str(SRC))
    import grushin
    import grushin.cli
    if SRC not in Path(grushin.__file__).resolve().parents:
        raise SystemExit(f"benchmark: imported grushin from {grushin.__file__}, not from src/")
    return grushin.cli.run


def execute(run, op) -> Result:
    out, err = io.StringIO(), io.StringIO()
    start = process_time()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(list(op.argv))
        except Exception:  # a crash is a failed operation, not a benchmark error
            print("error: code=crash msg=", file=sys.stderr)
            traceback.print_exc()
            code = 70
    seconds = process_time() - start
    return Result(code, out.getvalue(), err.getvalue(), seconds)


def effectivity(potential, pairs):
    """Largest |lam - exact| / err_est over eigenpairs with a closed-form or
    literature value, or None."""
    prof = getattr(potential, "profile", None)
    kind = type(prof).__name__
    geometry, gamma = getattr(potential, "geometry", None), getattr(potential, "gamma", None)
    best = None
    for pair in pairs:
        k, n = abs(pair.k), pair.n
        ref = None
        if kind == "ExactFamilyProfile":
            ref = (2 * n + 1) * k + k * k * prof.s2.approx
        elif kind == "StructuredProfile" and getattr(prof, "w_tilde", None) is None:
            if geometry == "cylinder" and gamma == 1.0:
                ref = (2 * n + 1) * k
            elif geometry == "cylinder" and gamma == 2.0 and n < len(oracles.QUARTIC):
                ref = k ** (2.0 / 3.0) * oracles.QUARTIC[n]
            elif geometry == "torus" and gamma == 1.0:
                ref = oracles.mathieu_levels(k, len(pairs))[n]
        if ref is not None and 0.0 < pair.err_est < math.inf:
            value = abs(pair.lam - ref) / pair.err_est
            best = value if best is None else max(best, value)
    return best


class WorkloadRun:
    """One workload in this process: a cold pass over every operation, the
    oracles, then warm passes over the operations that answered in the cold
    pass. A failed operation is counted once and not timed again: a failure
    has no latency to measure, and repeating it would only spend the run."""

    def __init__(self, run, ops, corrupt: bool):
        self.run = run
        self.ops = ops
        self.corrupt = corrupt
        self.attempted = 0
        self.failed = 0
        self.reference: dict[str, Result] = {}  # cold-pass result of every operation
        self.live = ops                          # operations the warm passes repeat
        self.op_seconds = {op.name: [] for op in ops}
        self.err_ratios: list[float] = []
        self.wall: list[float] = []  # wall seconds of every pass, for the log

    def one_pass(self, tracer=None) -> float:
        results = []
        # every pass starts from the same collected heap, so it pays for the
        # collections its own allocations trigger and for no earlier pass's
        # (left alone, a pure-Python pass varied by 30% with where the last
        # full collection fell)
        gc.collect()
        start, wall = process_time(), perf_counter()
        for op in self.live:
            if tracer is not None:
                tracer.op_id = op.name
            results.append(execute(self.run, op))
        elapsed = process_time() - start
        self.wall.append(perf_counter() - wall)
        for op, res in zip(self.live, results):
            self.attempted += 1
            self.failed += res.failed
            self.op_seconds[op.name].append(res.seconds)
        if not self.reference:
            self.reference = {op.name: res for op, res in zip(self.ops, results)}
            self.live = [op for op, res in zip(self.ops, results) if not res.failed]
            self.check(results)
        else:
            for op, res in zip(self.live, results):
                ref = self.reference[op.name]
                if res.digest != ref.digest:
                    raise oracles.WrongAnswer(
                        f"op={op.name} output differs from the first pass "
                        f"(sha256 {res.digest[:16]} vs {ref.digest[:16]})")
        return elapsed

    def check(self, results: list[Result]) -> None:
        for op, res in zip(self.ops, results):
            if res.failed:
                continue
            text = oracles.corrupt(op, res.stdout) if self.corrupt else res.stdout
            chk = oracles.check(op, text)
            chk.raise_if_wrong()
            self.err_ratios.extend(chk.err_ratios)
            bad = oracles.check(op, oracles.corrupt(op, res.stdout))
            if bad.worst[0] <= 1.0:
                raise oracles.WrongAnswer(
                    f"op={op.name} self-check: the oracle accepted an answer moved by ten "
                    f"times its tolerance ({bad.worst[1]})")
        oracles.clear_caches()
        gc.collect()

    def timed_passes(self, seconds: float, tracer=None) -> list[float]:
        times = []
        start = perf_counter()
        while not times or perf_counter() - start < seconds:
            times.append(self.one_pass(tracer))
        return times


def run_probes(run, workload: str) -> list:
    """Each probe of the workload once, untraced; an answer must pass its oracle."""
    done = []
    for op in PROBES.get(workload, []):
        res = execute(run, op)
        done.append((op, res))
        if not res.failed:
            oracles.check(op, res.stdout).raise_if_wrong()
    return done


def run_workload(args) -> int:
    require_source()
    setup = measure_setup() if not args.trace else []
    run = import_program()
    ops = build(args.workload, args.seed)
    bench = WorkloadRun(run, ops, args.corrupt)
    print(f"workload {args.workload} seed {args.seed}: {len(ops)} operations per pass")
    metrics: dict[str, dict] = {}
    correct = True
    cold, warm = math.nan, []
    probes = []
    try:
        cold = bench.one_pass()
        if args.trace:
            plain = bench.timed_passes(args.seconds / 2.0)
            tracer = layers.Tracer(effectivity)
            bench.run = tracer.wrap("cli.run", run)
            tracer.install()
            try:
                traced = bench.timed_passes(args.seconds / 2.0, tracer)
            finally:
                tracer.restore()
            layer = layers.layer_metrics(tracer.spans, len(traced))
            layer["cli.output_bytes"] = sum(len(r.stdout.encode())
                                            for r in bench.reference.values())
            layer["ops.fail_ratio"] = sum(r.failed for r in bench.reference.values()) / len(ops)
            layer["oracle.max_err_ratio"] = max(bench.err_ratios, default=0.0)
            layer["trace.overhead_ratio"] = (statistics.median(traced) - statistics.median(plain)) \
                / statistics.median(plain)
            probes = run_probes(run, args.workload)
            layer["probe.failed"] = sum(res.failed for _, res in probes)
            layer["probe.s"] = sum(res.seconds for _, res in probes)
            tracer.write(HERE / "out" / f"spans-{args.workload}.jsonl.gz")
            metrics = {name: {"value": layer[name], "unit": unit}
                       for name, unit in layers.LAYER_METRICS.items()}
            warm = plain
        else:
            warm = bench.timed_passes(args.seconds)
            tail_value, tail_pct = tail(warm)
            setup += measure_setup()
            values = {"pass_s": statistics.median(warm), "setup_s": statistics.median(setup),
                      "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END.items()}
            print(f"pass_s_tail {tail_value!r} s: p{tail_pct:.1f} of {len(warm)} warm passes")
            print(f"cold_pass_s {cold!r} s")
    except oracles.WrongAnswer as exc:
        print(f"benchmark: wrong answer: {exc}", file=sys.stderr)
        correct = False
    for op in ops:
        if op.name not in bench.reference:
            break
        res, times = bench.reference[op.name], bench.op_seconds[op.name]
        print(f"op {op.name} median_s={statistics.median(times):.6f} cold_s={times[0]:.6f} "
              f"exit={res.code} error={res.error or '-'} sha256={res.digest[:16]} "
              f"argv={' '.join(op.argv)}")
    for op, res in probes:
        print(f"probe {op.name} s={res.seconds:.6f} exit={res.code} error={res.error or '-'} "
              f"argv={' '.join(op.argv)}")
    print(f"passes: cold {cold:.4f} s, warm {len(warm)}; CPU s per pass vs wall s: "
          f"{' '.join(f'{c:.3f}/{w:.3f}' for c, w in zip([cold] + warm, bench.wall))}")
    print(json.dumps({"correct": correct, "attempted": max(bench.attempted, 1),
                      "failed": bench.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    machine = {"platform": platform.platform(), "cpus": os.cpu_count(),
               "python": platform.python_version(), "numpy": numpy.__version__,
               "scipy": scipy.__version__, "blas_threads": 1}
    summary = {"seed": args.seed, "seconds": args.seconds, "machine": machine,
               "command": spec["command"], "end_to_end": spec["end_to_end"],
               "per_layer": spec["per_layer"], "workloads": {}}
    status = 0
    for workload in spec["workloads"]:
        name = workload["name"]
        entry = {"why": workload["why"],
                 "operations": [list(op.argv) for op in build(name, args.seed)]}
        for trace_flag in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
                   str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace_flag)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} (trace {trace_flag}) exited {proc.returncode}:\n{proc.stderr}",
                      file=sys.stderr)
                status = 1
                continue
            result = json.loads(lines[-1])
            entry["correct"] = entry.get("correct", True) and result["correct"]
            if trace_flag:
                entry["per_layer"] = {m: v["value"] for m, v in result["metrics"].items()}
                continue
            entry["end_to_end"] = {m: v["value"] for m, v in result["metrics"].items()}
            entry["attempted"], entry["failed"] = result["attempted"], result["failed"]
            op_lines = [ln.split() for ln in lines if ln.startswith("op ")]
            entry["op_seconds"] = {f[1]: float(f[2].split("=")[1]) for f in op_lines}
            failed_ops = [f[1] for f in op_lines if f[4] not in ("exit=0", "exit=3")]
            entry["failed_operations"] = failed_ops
            entry["end_to_end"]["fail_ratio"] = len(failed_ops) / len(op_lines)
            for metric in ("pass_s_tail", "cold_pass_s"):
                entry["end_to_end"][metric] = next(
                    float(ln.split()[1]) for ln in lines if ln.startswith(metric + " "))
        # no numerically checked levels in the workload: max_err_ratio is omitted
        err = entry.get("per_layer", {}).get("oracle.max_err_ratio")
        if err and "end_to_end" in entry:
            entry["end_to_end"]["max_err_ratio"] = err
        summary["workloads"][name] = entry
        for metric, unit in SUMMARY_UNITS.items():
            value = entry.get("end_to_end", {}).get(metric)
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"{name:14s} {metric:14s} {shown:>12s} {unit}")
    out = HERE / "out" / "summary.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload, summarize")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0,
                        help="length of the timed window (BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", action="store_true",
                        help="feed the oracles answers moved by ten times their tolerance")
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    if args.all:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
