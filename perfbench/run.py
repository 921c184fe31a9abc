"""sdpkit benchmark: time the CLI pipeline on named workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload solve-default --seed 1 --seconds 30 --trace 0

Workloads (closed loop, one process, at most two threads; OpenBLAS is held
to one thread):

- ``solve-default``: one evaluation plus one improvement on the paper's
  30x60x60 grid with two threads;
- ``analyze``: ``generate`` x3 (seeds s, s+1, s+2), ``fit`` x3 (series of
  seeds 1-3, see ``worker.FIT_SEEDS``), ``compare`` of the coarse policy
  against the heuristic on the three series, and ``simulate`` on series s.
  The coarse policy (15x30x30 grid, 1,500-sweep cap, one thread, run to
  policy convergence) is solved once per source tree, outside all timing,
  and cached under ``.perfbench/``.

With ``--trace 0`` the workload repeats until ``--seconds`` are timed, and
the last output line carries the end-to-end metrics (``wall_s``, the
median repetition; ``setup_s``; ``peak_rss_mb``; ``j_gap_rel``).  With
``--trace 1`` it carries the per-layer metrics of one traced repetition,
plus the tracing overhead against one untraced repetition of the same
invocation; one repetition each keeps the per-layer counts independent of
the host's speed.  Every pass runs in a fresh process and checks its
outputs; a failed check sets ``correct`` to false.  Each result is appended to
``.perfbench/results/`` and compared with the previous one there, or with
``perfbench/baseline.json`` when there is none.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import PER_LAYER_UNITS, ROOT, STATE, WORKLOADS, source_digest, source_files

HERE = Path(__file__).resolve().parent

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "j_gap_rel": "ratio"}

# Set-up time is the median of this many process starts per run.
SETUP_SAMPLES = 3

# Worker environment: no BLAS threads beside the solver's two.
WORKER_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

# A run must end within 180 s; building analyze's policy may add 720 s.
RUN_BUDGET_S = 170.0
POLICY_BUDGET_S = 720.0


class HarnessError(RuntimeError):
    """The benchmark itself could not run (not a program failure)."""


def source_lines() -> int:
    return sum(len(path.read_text().splitlines()) for path in source_files())


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def machine() -> dict:
    """nproc, CPU model and cache sizes, read from lscpu or /sys."""
    info = {"nproc": os.cpu_count(), "cpu": "unknown", "l2": "unknown", "l3": "unknown"}
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True,
                             env={**os.environ, "LC_ALL": "C"}).stdout
    except OSError:
        out = ""
    keys = {"Model name": "cpu", "L2 cache": "l2", "L3 cache": "l3"}
    for line in out.splitlines():
        name, _, value = line.partition(":")
        if name.strip() in keys:
            info[keys[name.strip()]] = value.strip()
    for level in ("l2", "l3"):
        if info[level] != "unknown":
            continue
        for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
            try:
                if (index / "level").read_text().strip() == level[1]:
                    info[level] = (index / "size").read_text().strip()
            except OSError:
                pass
    return info


def spawn(deadline: float, result: Path, *flags: str) -> dict:
    """Run one worker process to completion and return its JSON result."""
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--t-spawn", repr(time.time()),
             "--result", str(result), *flags],
            cwd=ROOT, env=WORKER_ENV, stdout=subprocess.DEVNULL,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"worker {' '.join(flags)} overran the time budget") from exc
    if done.returncode != 0:
        raise HarnessError(f"worker {' '.join(flags)} exited {done.returncode}")
    return json.loads(result.read_text())


def analyze_policy(size: str, deadline: float) -> Path:
    """The coarse policy of this source tree, solved once and cached."""
    cached = STATE / f"policy-{size}-{source_digest()[:16]}"
    if not cached.is_dir():
        partial = cached.with_name(f"{cached.name}.partial{os.getpid()}")
        shutil.rmtree(partial, ignore_errors=True)
        partial.mkdir(parents=True)
        spawn(deadline + POLICY_BUDGET_S, partial / "prepare.json",
              "--prepare-policy", str(partial), "--size", size)
        shutil.rmtree(cached, ignore_errors=True)
        partial.rename(cached)
    return cached


def previous_result(history: Path, workload: str, trace: int) -> dict | None:
    if history.is_file():
        lines = history.read_text().splitlines()
        if lines:
            return json.loads(lines[-1])
    baseline = HERE / "baseline.json"
    if baseline.is_file():
        return json.loads(baseline.read_text())["results"].get(f"{workload}/trace{trace}")
    return None


def run(args) -> dict:
    if not (ROOT / "src" / "sdpkit" / "__init__.py").is_file():
        raise HarnessError(f"no program sources under {ROOT / 'src'}; run from a full checkout")
    deadline = time.monotonic() + RUN_BUDGET_S
    work = STATE / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        policy = analyze_policy(args.size, deadline) if args.workload == "analyze" else None
        pass_flags = ["--workload", args.workload, "--seed", str(args.seed),
                      "--seconds", "0" if args.trace else str(args.seconds), "--size", args.size]
        if policy is not None:
            pass_flags += ["--policy", str(policy)]
        passes = [spawn(deadline, work / "plain.json", *pass_flags, "--work", str(work / "plain"))]
        if args.trace:
            passes.append(spawn(deadline, work / "traced.json", *pass_flags, "--trace", "1",
                                "--work", str(work / "traced")))
        else:
            setups = [spawn(deadline, work / f"setup{i}.json", "--setup-only")["setup_s"]
                      for i in range(SETUP_SAMPLES - 1)]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = passes[0]
    if args.trace:
        traced = passes[1]
        metrics = dict(traced["per_layer"])
        metrics["trace.overhead_s"] = (statistics.median(traced["walls"])
                                       - statistics.median(plain["walls"]))
        units = PER_LAYER_UNITS
        (STATE / f"trace-{args.workload}-{args.size}.json").write_text(json.dumps(traced["spans"]))
    else:
        metrics = {
            "wall_s": statistics.median(plain["walls"]),
            "setup_s": statistics.median([plain["setup_s"], *setups]),
            "peak_rss_mb": plain["peak_rss_mb"],
            "j_gap_rel": plain["j_gap_rel"],
        }
        units = END_TO_END_UNITS
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "size": args.size,
        "commit": commit(),
        "src_sha256": source_digest(),
        "src_lines": source_lines(),
        "machine": machine(),
        "versions": plain["versions"],
        "time": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "walls": [p["walls"] for p in passes],
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "errors": [e for p in passes for e in p["errors"]],
        "std_reduction_pct": plain.get("std_reduction_pct"),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def report(record: dict, previous: dict | None) -> None:
    m = record["machine"]
    v = record["versions"]
    print(f"perfbench {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"seconds={record['seconds']} size={record['size']}")
    print(f"commit {record['commit']}, src sha256 {record['src_sha256'][:16]}, "
          f"src lines {record['src_lines']}")
    print(f"machine: nproc {m['nproc']}, {m['cpu']}, L2 {m['l2']}, L3 {m['l3']}; "
          f"python {v['python']}, numpy {v['numpy']}, scipy {v['scipy']}")
    before = (previous or {}).get("metrics", {})
    for name, entry in record["metrics"].items():
        line = f"  {name:<40} {entry['value']:>16.6g} {entry['unit']}"
        old = before.get(name, {}).get("value")
        if old:
            line += f"   (previous {old:.6g}, {100.0 * (entry['value'] - old) / abs(old):+.1f} %)"
        print(line)
    if record["std_reduction_pct"] is not None:
        print(f"  compare: mean std(p_grid) reduction vs heuristic {record['std_reduction_pct']:.2f} %")
    print(f"operations: {record['attempted']} attempted, {record['failed']} failed "
          f"(fail_ratio {record['failed'] / record['attempted']:.4f})")
    print("checks: " + ("all passed" if not record["errors"] else "; ".join(record["errors"])))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="sdpkit benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    parser.add_argument("--seconds", type=int, default=30,
                        help="repeat the workload until this many seconds are timed (at least once)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced pass")
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="'tiny' shrinks every workload for the harness self-test")
    args = parser.parse_args(argv)
    try:
        record = run(args)
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    history = STATE / "results" / f"{args.workload}-{args.size}-trace{args.trace}.jsonl"
    report(record, previous_result(history, args.workload, args.trace) if args.size == "full" else None)
    history.parent.mkdir(parents=True, exist_ok=True)
    with history.open("a") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps({
        "correct": not record["errors"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
