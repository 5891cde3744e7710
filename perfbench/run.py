#!/usr/bin/env python3
"""Build and run the lbnn benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark and the lbnn library (from ../src) into
.bench_build/perfbench with CMake, then runs the benchmark binary with the
same arguments. The binary's last line of standard output is the result
object. Exits non-zero without a result when the build or the run fails.

Some metrics are exact functions of the compiled programs and must read the
same in every run of one build, whatever the seed. The first run records them
next to the build; a later run of the same binary that reads differently is
marked incorrect.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BUILD = HERE.parent / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
RECORD = BUILD / "deterministic.json"
RUN_TIMEOUT_S = 170
DETERMINISTIC = ("lpu_fps_geomean", "core.mfgs_before_merge", "core.mfgs_after_merge",
                 "core.wavefronts_total", "opt.gates_after")


def build() -> bool:
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "Makefile").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-G", "Unix Makefiles", "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def check_deterministic(result: dict, workload: str) -> None:
    """Compare this run's exact metrics with the ones recorded for this binary."""
    digest = hashlib.sha256(BINARY.read_bytes()).hexdigest()[:16]
    record = json.loads(RECORD.read_text()) if RECORD.exists() else {}
    changed = False
    for name in DETERMINISTIC:
        if name not in result["metrics"]:
            continue
        key = f"{digest}/{workload}/{name}"
        value = result["metrics"][name]["value"]
        if key not in record:
            record[key] = value
            changed = True
        elif record[key] != value:
            print(f"perfbench: {name} = {value} differs from {record[key]} in an "
                  f"earlier run of this build", file=sys.stderr)
            result["correct"] = False
    if changed:
        RECORD.write_text(json.dumps(record, indent=1) + "\n")


def workload_of(argv: list) -> str:
    return argv[argv.index("--workload") + 1] if "--workload" in argv[:-1] else ""


def main() -> int:
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    try:
        proc = subprocess.run([str(BINARY), *sys.argv[1:]], stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        return proc.returncode or 1
    result = json.loads(lines[-1])
    check_deterministic(result, workload_of(sys.argv[1:]))
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
