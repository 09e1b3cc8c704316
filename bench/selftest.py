"""Fast self-test of the benchmark on tiny inputs: ``python3 bench/selftest.py``.

Checks that every workload runs with tiny commands, traced and untraced;
that every metric name and unit in BENCHMARK.json is emitted; that traced
stdout equals untraced stdout (the traced run counts a difference as a
failure); and that a deliberately wrong pinned digest is counted as one.
"""

from __future__ import annotations

import json
import sys

import run

TINY = {
    "algebra": (
        run.Command("poly --p 2 --j 4 --format json", run.json_terms,
                    lambda path: run.json_terms(path) == 29),
        run.Command("terms --p 3 --jmax 3", run.first_line_sum),
        run.Command("classify --p 2 --maxlen 5", run.words_checked,
                    run.has_line("boundary (1): 100")),
    ),
    "oracle": (
        run.Command("verify --p 2 --nmax 32 --jobs 2", lambda path: 32, run.verify_ok),
        run.Command("columns --p 2 --tmax 4 --jmax 2 --mmax 256 --jobs 1",
                    lambda path: 5 * 256, run.columns_ok),
    ),
}


def main() -> int:
    with open(run.SPEC) as fh:
        spec = json.load(fh)
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    pins = run.load_pins()
    problems = []
    if sorted(TINY) != sorted(run.WORKLOADS) or sorted(TINY) != sorted(
        w["name"] for w in spec["workloads"]
    ):
        problems.append("tiny, full and BENCHMARK.json workloads differ")
    for name, cmds in TINY.items():
        for trace in (0, 1):
            result, detail = run.measure(name, cmds, 1, 0.1, bool(trace), pins)
            tag = f"{name} trace={trace}"
            if not result["correct"] or result["failed"]:
                problems.append(f"{tag}: failures {detail['failures']}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{tag}: metrics {sorted(set(got) ^ set(want[trace]))} "
                                "differ from BENCHMARK.json")
            if trace and detail["traced_pass_wall_s"]["n"] < 1:
                problems.append(f"{tag}: no traced pass ran")
            print(f"{tag}: ok, {result['attempted']} invocations", flush=True)

    cmd = TINY["algebra"][2]
    wrong = dict(pins)
    wrong[cmd.key] = dict(pins[cmd.key], sha256="0" * 64)
    result, _ = run.measure("algebra", (cmd,), 1, 0.1, False, wrong)
    if result["correct"] or result["failed"] < 1:
        problems.append("a wrong pinned digest was not counted as a failure")

    for p in problems:
        print(f"FAIL: {p}", file=sys.stderr)
    print("selftest", "failed" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
