"""Self-test of the benchmark harness, at tiny size.

    python3 perfbench/selftest.py

Checks the self-time arithmetic on a synthetic span tree, then runs every
workload untraced and traced on a 5x6x6 grid with 200-step series and
asserts that each run passes its checks and emits exactly the metrics
that BENCHMARK.json lists.
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
from pathlib import Path

from run import END_TO_END_UNITS
from spans import Span, Tracer, covered_length, self_times
from worker import PER_LAYER_UNITS, ROOT, WORKLOADS


def test_self_time_arithmetic() -> None:
    # root [0, 10] has children a [1, 4] and b [3, 6] (overlapping, as on two
    # threads); a has child c [2, 3.5]; d [9, 12] pokes out of root's end.
    spans = [
        Span(0, "root", 0.0, None, 10.0),
        Span(1, "a", 1.0, 0, 4.0),
        Span(2, "b", 3.0, 0, 6.0),
        Span(3, "c", 2.0, 1, 3.5),
        Span(4, "d", 9.0, 0, 12.0),
    ]
    selfs = self_times(spans)
    assert selfs == {0: 10.0 - 5.0 - 1.0, 1: 3.0 - 1.5, 2: 3.0, 3: 1.5, 4: 3.0}, selfs
    assert covered_length([]) == 0.0
    assert covered_length([(0.0, 1.0), (2.0, 3.0), (2.5, 4.0)]) == 3.0


def test_worker_thread_spans_attach_to_the_main_span() -> None:
    tracer = Tracer()
    with tracer.span("outer"):
        def work():
            with tracer.span("inner"):
                pass
        threads = [threading.Thread(target=work) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
    by_name = {}
    for sp in tracer.spans:
        by_name.setdefault(sp.name, []).append(sp)
    (outer,) = by_name["outer"]
    assert [sp.parent for sp in by_name["inner"]] == [outer.id, outer.id]


def test_benchmark_json_matches_the_harness() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS


def run_tiny(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_every_workload_emits_every_metric() -> None:
    for workload in WORKLOADS:
        for trace, expected in ((0, END_TO_END_UNITS), (1, PER_LAYER_UNITS)):
            out = run_tiny(workload, trace)
            assert set(out) == {"correct", "attempted", "failed", "metrics"}, out
            assert out["correct"] is True, (workload, trace)
            assert out["attempted"] >= 1 and 0 <= out["failed"] <= out["attempted"]
            assert {k: v["unit"] for k, v in out["metrics"].items()} == expected, (workload, trace)
            if trace == 0:
                assert all(v["value"] > 0 for v in out["metrics"].values()), out["metrics"]
            print(f"ok {workload} trace={trace}", flush=True)


def main() -> int:
    tests = [value for name, value in globals().items() if name.startswith("test_")]
    for test in tests:
        test()
        print(f"passed {test.__name__}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
