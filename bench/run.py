#!/usr/bin/env python3
"""Benchmark of the `sullivan` command line, with per-layer traces.

Run from the repository root:

    python3 bench/run.py --workload loop-elim --seed 1 --seconds 25 --trace 0

`--trace 0` times the real CLI (`python -m sullivan ...`) as a closed loop
with one client: one child process at a time, passes over the workload's
jobs in an order fixed by `--seed`, until `--seconds` are used.  Each
child's CPU time and peak RSS come from `os.wait4`.  Every output must equal
its golden bytes in `bench/golden/` and pass the oracles in `workloads.py`.
The children run pinned to one CPU, and their wall and CPU times are scaled
to a nominal speed of that CPU by a reference measured on it at the same
time (see `speed.py`), because the host's speed swings within seconds; the
unscaled pass times are printed too.

`--trace 1` runs the same argv in-process through `sullivan.cli.main`,
alternating untraced and traced passes, and reports per-layer self times and
structural counts (see `tracer.py`).  Spans of the last traced pass are
written to `.bench_out/spans-<workload>.jsonl`.

`--write-golden` records the current outputs as the golden files.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import speed
import tracer as tr
from workloads import MODELS, WORKLOADS, Job, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = Path(__file__).resolve().parent / "golden"
OUT = ROOT / ".bench_out"
CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC))

MIN_PASSES = 3  # a timed run always has a median of at least three passes
SETUP_RUNS = 11
PROBE_GAP_S = 0.005
IMPORT_RUNS = 5

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def per_layer_units() -> dict[str, str]:
    units = {f"{name}_s": "s" for name in tr.SPAN_NAMES}
    units.update({f"{layer}.layer_s": "s" for layer in tr.LAYERS})
    units.update({f"{name}_calls": "count" for name in tr.COUNTED_CALLS})
    units.update({
        "cli.import_s": "s",
        "cli.report_bytes": "bytes",
        "algebra.basis_monomials": "count",
        "algebra.basis_dim_max": "count",
        "homology.matrix_entries": "count",
        "homology.matrix_nnz": "count",
        "homology.accept_ratio": "ratio",
        "linalg.rows_in": "count",
        "linalg.cells_in": "count",
        "trace.wall_s": "s",
        "trace.overhead_frac": "ratio",
    })
    return units


# -- inputs, outputs and checks ----------------------------------------------------


def write_inputs(workdir: Path) -> dict[str, str]:
    paths = {}
    for name, text in MODELS.items():
        path = workdir / f"{name}.model"
        path.write_text(text, encoding="utf-8")
        paths[name] = str(path)
    return paths


def job_argv(job: Job, paths: dict[str, str]) -> list[str]:
    return [paths[a[1:-1]] if a.startswith("{") and a.endswith("}") else a for a in job.argv]


def golden_path(workload: Workload, job: Job) -> Path:
    return GOLDEN / workload.name / f"{job.id}.json"


def check(job: Job, code: int, stdout: bytes, golden: bytes | None) -> list[str]:
    """Problems with one job's result: exit code, JSON, oracle, golden bytes."""
    if code != job.exit_code:
        return [f"exit code {code}, expected {job.exit_code}"]
    try:
        report = json.loads(stdout)
    except ValueError:
        return ["output is not valid JSON"]
    problems = job.oracle(report)
    if golden is not None and stdout != golden:
        problems.append("output differs from the golden report")
    return problems


def load_goldens(workload: Workload) -> dict[str, bytes]:
    return {job.id: golden_path(workload, job).read_bytes() for job in workload.jobs}


# -- timed runs of the CLI -----------------------------------------------------------


def run_child(argv: list[str], workdir: Path) -> tuple[int, bytes, float, float, float]:
    """Run `python -m sullivan argv`; returns exit code, stdout, wall s, CPU s, max RSS MB."""
    out_path, err_path = workdir / "stdout", workdir / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "sullivan", *argv], stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err, cwd=workdir, env=CHILD_ENV)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, out_path.read_bytes(), wall,
            usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


def measure_setup(workload: Workload, paths: dict[str, str], workdir: Path) -> tuple[float, list[str]]:
    """Median time of `sullivan verify <the workload's model>`, after one warm-up.

    Each run is followed by a reference start and scaled by it (see speed.py).
    """
    argv = ["verify", paths[workload.setup_model]]
    scaled, problems = [], []
    for i in range(SETUP_RUNS + 1):
        code, _, wall, _, _ = run_child(argv, workdir)
        reference = speed.reference_start(CHILD_ENV, str(workdir))
        if code != 0:
            problems.append(f"setup: verify exited {code}")
        if i:
            scaled.append(wall * speed.START_NOMINAL_S / reference)
    return statistics.median(scaled), problems


def tail_percentile(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    if len(values) < 11:
        return "tail n/a (fewer than 11 samples)"
    ordered = sorted(values)
    q = 100 * (len(values) - 10) / len(values)
    return f"p{q:.0f} {ordered[len(values) - 11]:.4f}"


def timed_pass(order: list[Job], paths: dict[str, str], workdir: Path,
               probe: speed.Probe | None) -> tuple[list, float]:
    """Run one pass; returns the job results and the core's slowness over the pass."""
    results, starts = [], []
    before = probe.snapshot() if probe else None
    for job in order:
        results.append((job, run_child(job_argv(job, paths), workdir)))
        if probe:
            time.sleep(PROBE_GAP_S)  # the probe gets a few samples however short the job
        else:
            starts.append(speed.reference_start(CHILD_ENV, str(workdir)))
    if probe:
        factor = speed.probe_factor(before, probe.snapshot())
        if factor is None:
            raise RuntimeError("the speed probe got no CPU time during a pass")
    else:
        factor = statistics.mean(starts) / speed.START_NOMINAL_S
    return results, factor


def timed_run(workload: Workload, seed: int, seconds: float, paths: dict[str, str],
              workdir: Path) -> dict:
    goldens = load_goldens(workload)
    rng = random.Random(seed)
    cpu = speed.pin_to_one_cpu()
    setup_s, failures = measure_setup(workload, paths, workdir)
    probe = speed.Probe() if workload.reference == "probe" else None
    walls, cpus, rss, raw_walls, factors = [], [], [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    if probe:
        probe.start()
    try:
        while True:
            order = list(workload.jobs)
            rng.shuffle(order)
            results, factor = timed_pass(order, paths, workdir, probe)
            raw_walls.append(sum(r[2] for _, r in results))
            factors.append(factor)
            walls.append(raw_walls[-1] / factor)
            cpus.append(sum(r[3] for _, r in results) / factor)
            rss.append(max(r[4] for _, r in results))
            for job, (code, stdout, *_ ) in results:
                attempted += 1
                problems = check(job, code, stdout, goldens[job.id])
                if problems:
                    failed += 1
                    failures.extend(f"{job.id}: {p}" for p in problems)
            elapsed = time.perf_counter() - start
            if len(walls) >= MIN_PASSES and elapsed * (len(walls) + 1) / len(walls) > seconds:
                break
    finally:
        if probe:
            probe.stop()
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": statistics.median(rss),
        "setup_s": setup_s,
    }
    reference = "probe thread" if probe else "reference start after each job"
    print(f"workload {workload.name} seed {seed}: {len(walls)} passes of {len(workload.jobs)} jobs "
          f"on CPU {cpu}; times scaled to nominal speed by the {reference}")
    print(f"  wall_s      median {metrics['wall_s']:.4f} s, {tail_percentile(walls)}, n={len(walls)}")
    print(f"  passes      " + " ".join(f"{w:.3f}" for w in walls))
    print(f"  unscaled    median {statistics.median(raw_walls):.4f} s: "
          + " ".join(f"{w:.3f}" for w in raw_walls))
    print(f"  slowness    " + " ".join(f"{f:.3f}" for f in factors))
    print(f"  cpu_s       median {metrics['cpu_s']:.4f} s, n={len(cpus)}")
    print(f"  peak_rss_mb median {metrics['peak_rss_mb']:.2f} MB, max {max(rss):.2f} MB")
    print(f"  setup_s     median {setup_s:.4f} s of {SETUP_RUNS} runs of verify")
    print(f"  fail_frac   {failed}/{attempted} = {failed / attempted:.4f}")
    print(f"  jobs x setup_s / wall_s = {len(workload.jobs) * setup_s / metrics['wall_s']:.2f}")
    return {"failures": failures, "attempted": attempted, "failed": failed, "metrics": metrics}


# -- traced in-process runs --------------------------------------------------------------


def import_time(workdir: Path) -> float:
    """Median time of `import sullivan.cli` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import sullivan.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_RUNS):
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             cwd=workdir, env=CHILD_ENV, check=True)
        times.append(float(out.stdout))
    return statistics.median(times)


def call_main(main, argv: list[str]) -> tuple[int, bytes]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash fails the job, as it would fail the child process
            traceback.print_exc()
            code = 1
    return code, out.getvalue().encode("utf-8")


def traced_run(workload: Workload, seed: int, seconds: float, paths: dict[str, str],
               workdir: Path) -> dict:
    goldens = load_goldens(workload)
    rng = random.Random(seed)
    import_s = import_time(workdir)
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("sullivan.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: imported sullivan from {cli.__file__}, not from {SRC}")
    samples: list[dict[str, float]] = []
    failures: list[str] = []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        order = list(workload.jobs)
        rng.shuffle(order)
        plain: dict[str, bytes] = {}
        untraced_s = 0.0
        for job in order:
            t = time.perf_counter()
            code, plain[job.id] = call_main(cli.main, job_argv(job, paths))
            untraced_s += time.perf_counter() - t
            attempted += 1
            problems = check(job, code, plain[job.id], goldens[job.id])
            if problems:
                failed += 1
                failures.extend(f"{job.id} (in-process): {p}" for p in problems)
        tracer = tr.Tracer()
        undo = tr.install(tracer)
        traced: dict[str, bytes] = {}
        traced_s = 0.0
        try:
            for job in order:
                tracer.start_job(job.id)
                t = time.perf_counter()
                root = tracer.open(tr.ROOT)
                try:
                    code, traced[job.id] = call_main(cli.main, job_argv(job, paths))
                finally:
                    tracer.close(root)
                traced_s += time.perf_counter() - t
                attempted += 1
                problems = check(job, code, traced[job.id], goldens[job.id])
                if traced[job.id] != plain[job.id]:
                    problems.append("output differs from the untraced run")
                if problems:
                    failed += 1
                    failures.extend(f"{job.id} (traced): {p}" for p in problems)
        finally:
            tr.uninstall(undo)
        metrics, unbalanced = tr.layer_metrics(tracer)
        failures.extend(f"{job}: layer self times do not sum to the job's traced wall time"
                        for job in unbalanced)
        balanced = len(order) - len(unbalanced)
        metrics["cli.import_s"] = import_s
        metrics["cli.report_bytes"] = sum(len(out) for out in plain.values())
        metrics["trace.overhead_frac"] = traced_s / untraced_s - 1
        samples.append(metrics)
        elapsed = time.perf_counter() - start
        if elapsed * (len(samples) + 1) / len(samples) > seconds:
            break
    tr.write_spans(tracer, OUT / f"spans-{workload.name}.jsonl")
    metrics = {key: statistics.median_low(s[key] for s in samples) for key in samples[0]}
    print_layers(workload, metrics, len(samples))
    print(f"  layer self times sum to the traced wall time in {balanced} of {len(order)} jobs "
          f"of the last pass")
    return {"failures": failures, "attempted": attempted, "failed": failed, "metrics": metrics}


def print_layers(workload: Workload, metrics: dict[str, float], passes: int) -> None:
    wall = metrics["trace.wall_s"]
    print(f"workload {workload.name}: medians of {passes} traced passes, "
          f"traced wall {wall:.4f} s, overhead {metrics['trace.overhead_frac']:+.3f}")
    layers = sorted(tr.LAYERS, key=lambda layer: -metrics[f"{layer}.layer_s"])
    for layer in layers:
        share = metrics[f"{layer}.layer_s"] / wall if wall else 0.0
        print(f"  {layer:<10} self {metrics[f'{layer}.layer_s']:9.4f} s  {share:6.1%}")
    spans = sorted(tr.SPAN_NAMES, key=lambda name: -metrics[f"{name}_s"])
    print(f"  top layer in-process: {layers[0]}; top span: {spans[0]}; "
          f"predicted dominant: {workload.dominant_layer}")
    imports = len(workload.jobs) * metrics["cli.import_s"]
    print(f"  one import per job, outside the trace: {imports:.4f} s "
          f"({imports / (imports + wall):.1%} of imports plus traced wall)")
    for key, value in sorted(metrics.items()):
        print(f"    {key} = {value}")


# -- main -------------------------------------------------------------------------------------


def write_golden(workload: Workload, paths: dict[str, str], workdir: Path) -> None:
    for job in workload.jobs:
        code, stdout, *_ = run_child(job_argv(job, paths), workdir)
        problems = check(job, code, stdout, None)
        if problems:
            raise SystemExit(f"error: {job.id}: {problems}; golden not written")
        path = golden_path(workload, job)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(stdout)
        print(f"wrote {path.relative_to(ROOT)} ({len(stdout)} bytes)")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args()
    if not (SRC / "sullivan" / "cli.py").is_file():
        print(f"error: no program to benchmark at {SRC / 'sullivan'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        paths = write_inputs(workdir)
        if args.write_golden:
            write_golden(workload, paths, workdir)
            return 0
        run = traced_run if args.trace else timed_run
        result = run(workload, args.seed, args.seconds, paths, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in result["failures"][:20]:
        print(f"FAIL {line}", file=sys.stderr)
    units = per_layer_units() if args.trace else END_TO_END
    print(json.dumps({
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": result["metrics"][k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
