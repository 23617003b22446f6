"""The benchmark's one command.

    python3 benchmarks/e2e/run.py --seed N                 all five workloads, both passes
    python3 benchmarks/e2e/run.py --seed N --workload W    one workload (both passes)
    ... --trace 0|1                                        one pass only
    ... --no-trace                                         the untraced pass only
    ... --smoke                                            ~1/20 size, checks on

(``PYTHONPATH=src python -m benchmarks.e2e.run`` is the same program.)
Every metric is printed by name with its unit, every answer is checked
against a reference, and the exit code is non-zero on any failed check.
With ``--workload`` and ``--trace`` given — how the driver calls it — the
last line of standard output is the run's result object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro").is_dir():
    sys.stderr.write(f"benchmark: no program to measure under {ROOT / 'src'}\n")
    sys.exit(2)
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.e2e import registry  # noqa: E402
from benchmarks.e2e.child import become_subreaper  # noqa: E402
from benchmarks.e2e.workloads import RESULTS, SETUPS, Run, run_workload  # noqa: E402

SMOKE_SCALE = 0.05


def _git(*arguments: str) -> str:
    try:
        return subprocess.run(
            ["git", *arguments], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return ""


def stamp(seed: int, arguments: list) -> dict:
    """Where, on what and from which source these numbers were taken."""
    commit = _git("rev-parse", "HEAD")
    return {
        "schema": registry.SCHEMA_VERSION,
        "commit": commit or "unknown",
        "dirty": bool(_git("status", "--porcelain", "--", "src")) if commit else None,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "seed": seed,
        "argv": arguments,
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def print_run(run: Run) -> None:
    kind = "traced" if run.trace else "untraced"
    status = "ok" if run.correct else "FAILED"
    print(f"\n== {run.workload} ({kind}, seed {run.seed}, {run.seconds:g} s) — "
          f"{status}: {run.failed} of {run.attempted} ops failed")
    for name, entry in run.to_json()["metrics"].items():
        extras = []
        if name in run.percentiles and not name.endswith(f"p{round(100 * run.percentiles[name])}_ms"):
            extras.append(f"capped at p{100 * run.percentiles[name]:.1f}")
        family = name.split("_")[0]
        if family in run.samples and not run.trace:
            extras.append(f"n={run.samples[family]}")
        suffix = f"  ({', '.join(extras)})" if extras else ""
        print(f"  {name:<34} {entry['value']:>14.4f} {entry['unit']}{suffix}")
    for check in run.checks:
        if not check.ok:
            print(f"  CHECK FAILED: {check.name}: {check.detail}")


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(registry.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--no-trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    options = parser.parse_args(argv)

    seconds = options.seconds
    if seconds is None:
        seconds = registry.RUN_SECONDS * (SMOKE_SCALE if options.smoke else 1.0)
    scale = SMOKE_SCALE if options.smoke else 1.0
    workloads = [options.workload] if options.workload else list(registry.WORKLOADS)
    if options.trace is not None:
        passes = [bool(options.trace)]
    else:
        passes = [False] if options.no_trace else [False, True]
    single = options.workload is not None and options.trace is not None

    become_subreaper()
    runs = []
    for workload in workloads:
        for trace in passes:
            run = run_workload(
                workload, options.seed, seconds, trace, scale,
                setups=2 if options.smoke else SETUPS,
            )
            runs.append(run)
            print_run(run)

    # with both passes of a workload at hand, the traced pass's slowdown is
    # a measurement, not an estimate; the same-seed passes must also agree
    by_key = {(run.workload, run.trace): run for run in runs}
    comparisons = {}
    for workload in workloads:
        plain, traced = by_key.get((workload, False)), by_key.get((workload, True))
        if plain and traced:
            comparisons[workload] = {
                "tick_p50_ms.traced_over_untraced": (
                    traced.notes.get("tick_p50_ms", 0.0) / plain.metrics["tick_p50_ms"]
                ),
            }
            for key in ("script_digest", "skill_hash"):
                if key in plain.notes:
                    same = plain.notes[key] == traced.notes.get(key)
                    plain.check(f"same-seed passes agree on {key}", same,
                                f"{plain.notes[key]} != {traced.notes.get(key)}")

    summary = {
        "stamp": stamp(options.seed, argv),
        "smoke": options.smoke,
        "runs": [run.to_json() for run in runs],
        "comparisons": comparisons,
        "claim": None,
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    label = "-".join(workloads) if len(workloads) == 1 else "all"
    out = RESULTS / (
        f"run-{label}-seed{options.seed}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json"
    )
    out.write_text(json.dumps(summary, indent=1) + "\n")

    correct = all(run.correct for run in runs)
    print(f"\nresult file: {out.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "runs": len(runs), "claim": None}))
    if single:
        run = runs[0]
        payload = run.to_json()
        print(json.dumps({key: payload[key]
                          for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
