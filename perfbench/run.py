#!/usr/bin/env python3
"""Build and run the benchmark.

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 15 --trace 0

Run from the repository root. Builds the `perfbench` package (its own
Cargo workspace, path dependencies on `crates/`) in release mode into
`$CARGO_TARGET_DIR` (default `.bench_build`), runs it, and passes its
output through. The last output line is the result object; it is checked
against the metric names and units in `BENCHMARK.json` before exiting 0.
Exits non-zero without a result when the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# every run must end within 180 s; keep a margin for the build check
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    return 1


def source_rev(env):
    """The git revision, or a digest of the sources outside a git checkout."""
    try:
        if not (ROOT / ".git").exists():
            raise OSError("not a git checkout")
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=10,
        )
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("Cargo.lock", "crates", "vendor", "perfbench"):
        base = ROOT / top
        files = [base] if base.is_file() else sorted(p for p in base.rglob("*") if p.is_file())
        for path in files:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-" + digest.hexdigest()[:16]


def rustc_version(env):
    try:
        out = subprocess.run(["rustc", "-V"], env=env, capture_output=True, text=True, timeout=30)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def check_result(line, spec, traced):
    """Problems with the result line against BENCHMARK.json (empty = ok)."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        return [f"last line is not JSON: {e}"]
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        return ["result keys must be exactly correct, attempted, failed, metrics"]
    wanted = spec["per_layer" if traced else "end_to_end"]
    got = result["metrics"]
    problems = []
    if set(got) != {m["name"] for m in wanted}:
        problems.append(f"metric names differ from BENCHMARK.json: {sorted(set(got) ^ {m['name'] for m in wanted})}")
    for m in wanted:
        if m["name"] in got and got[m["name"]].get("unit") != m["unit"]:
            problems.append(f"{m['name']}: unit {got[m['name']].get('unit')!r} != {m['unit']!r}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, json.JSONDecodeError) as e:
        return fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")

    started = time.monotonic()
    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        return fail("build failed")
    binary = target / "release" / "perfbench"
    env["PERFBENCH_RUSTC"] = rustc_version(env)
    env["PERFBENCH_REV"] = source_rev(env)

    tmp = ROOT / ".bench_tmp"
    try:
        run = subprocess.run(
            [str(binary), "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(run.stdout)
        return fail(f"run failed with exit code {run.returncode}")
    problems = check_result(lines[-1], spec, args.trace == 1)
    if problems:
        sys.stderr.write(run.stdout)
        return fail("; ".join(problems))
    print(f"# wall {time.monotonic() - started:.1f} s including build check", file=sys.stderr)
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
