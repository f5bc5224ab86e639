"""Benchmark of the ``segre`` command line, measured from outside the engine.

Run from the root of a source checkout:

    python3 bench/run.py --workload fixtures --seed 1 --seconds 30 --trace 0

Each workload is a closed loop with one client: the cases of the workload run
one after another as fresh ``segre`` processes (``python -m segre.cli`` with
``src`` on the path), and the loop repeats whole passes until ``--seconds``
have gone by.  Every case's JSON is checked against the reference table in
``cases.py``.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
stamps the environment and the input density.

``--trace 0`` reports the end-to-end metrics:
  wall_s       median wall time of one pass over the case list
  max_case_s   median over passes of the slowest case's wall time
  setup_s      median wall time of a fresh interpreter running ``import segre``
  peak_rss_mb  median over passes of the largest child ``ru_maxrss``
The three times are scaled to a host of fixed speed (see REFERENCE_S); the
stamp line carries them as measured, with the host reference time.

``--trace 1`` runs each pass four times: as processes (untraced, for the
reference output and ``cli.case.cpu_s``), then in this process untraced,
under the tracer of ``spans.py``, and untraced again; the traced pass minus
the mean of the untraced ones is ``trace.overhead_s``.  It reports the
per-layer metrics, asserts that the traced stdout is byte-identical to the
process output, and writes the spans of the last traced pass to
``.bench_work``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import cases as bench_cases
from spans import Tracer

ROOT = Path.cwd()
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"
CASE_TIMEOUT_S = 150.0
SETUP_SPAWNS = 15
# The host is shared: for minutes at a time everything runs up to a third
# slower.  Each case and each set-up spawn is preceded by reference_seconds(),
# and the end-to-end times are scaled by REFERENCE_S / (mean reference time
# of the passes, or of the set-up spawns for setup_s), i.e. reported as
# seconds on a host where the reference loop takes REFERENCE_S.
REFERENCE_S = 0.075
MULADD_STEPS = 4000


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: List[str], env: Dict[str, str], stderr_path: Path) -> Tuple[int, bytes, float, float, float]:
    """Run one child to completion: (exit code, stdout, wall s, cpu s, max rss MB)."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(CASE_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            proc.stdout.close()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4, so Popen must not wait
    cpu = usage.ru_utime + usage.ru_stime
    return proc.returncode, out, wall, cpu, usage.ru_maxrss / 1024.0


def reference_seconds() -> float:
    """Time a fixed exact-arithmetic loop that does not touch segre."""
    start = time.perf_counter()
    poly = {(i, j): Fraction(i + 1, j + 2) for i in range(6) for j in range(6)}
    for _ in range(12):
        product: Dict[Tuple[int, int], Fraction] = {}
        for ea, ca in poly.items():
            for eb, cb in poly.items():
                key = (ea[0] + eb[0], ea[1] + eb[1])
                product[key] = product.get(key, 0) + ca * cb
    return time.perf_counter() - start


def measure_setup(env: Dict[str, str]) -> Tuple[float, float]:
    """Median wall time of a fresh ``import segre``, and the mean reference time between spawns."""
    argv = [sys.executable, "-c", "import segre"]
    samples = []
    refs = []
    for index in range(SETUP_SPAWNS + 1):
        refs.append(reference_seconds())
        code, _, wall, _, _ = spawn(argv, env, WORKDIR / "setup.err")
        if code != 0:
            raise RuntimeError("import segre failed: " + (WORKDIR / "setup.err").read_text()[-500:])
        if index:  # the first spawn may compile bytecode
            samples.append(wall)
    return statistics.median(samples), statistics.mean(refs)


class Pass:
    """Results of one pass over the case list."""

    def __init__(self):
        self.walls: List[float] = []
        self.refs: List[float] = []
        self.cpu = 0.0
        self.rss = 0.0
        self.outputs: List[bytes] = []
        self.failures: Dict[str, str] = {}
        self.wall = 0.0


def run_pass(case_list, seed: int, jobs: int, env: Dict[str, str]) -> Pass:
    result = Pass()
    for case in case_list:
        result.refs.append(reference_seconds())
        argv = [sys.executable, "-m", "segre.cli", *case.argv(WORKDIR, seed, jobs)]
        code, out, wall, cpu, rss = spawn(argv, env, WORKDIR / "case.err")
        problem = bench_cases.check_output(case, code, out)
        if problem:
            tail = (WORKDIR / "case.err").read_text(errors="replace")[-300:]
            result.failures[case.name] = f"{problem} {tail}".strip()
        result.walls.append(wall)
        result.cpu += cpu
        result.rss = max(result.rss, rss)
        result.outputs.append(out)
    result.wall = sum(result.walls)
    return result


def run_in_process(case_list, seed: int, jobs: int) -> Tuple[float, List[bytes]]:
    from segre.cli import main

    outputs = []
    gc.collect()
    start = time.perf_counter()
    for case in case_list:
        buffer = io.StringIO()
        try:
            with contextlib.redirect_stdout(buffer):
                main(case.argv(WORKDIR, seed, jobs))
        except Exception as exc:  # reported as a mismatch against the process output
            buffer.write(f"exception: {exc!r}")
        outputs.append(buffer.getvalue().encode())
    return time.perf_counter() - start, outputs


def muladd_seconds(coefficients: list) -> float:
    """Time MULADD_STEPS scalar mul-adds over coefficients harvested from the loaded Q."""
    from segre.series import ZERO

    values = coefficients[:64] or [1]
    pairs = [(values[k % len(values)], values[(3 * k + 1) % len(values)]) for k in range(MULADD_STEPS)]
    samples = []
    for _ in range(5):
        acc = ZERO
        start = time.perf_counter()
        for a, b in pairs:
            acc = acc + a * b
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def traced_pass(case_list, seed: int, jobs: int, env: Dict[str, str]) -> Tuple[Dict[str, float], Pass, List[str], Tracer]:
    """One process pass, then untraced, traced and untraced in-process passes."""
    reference = run_pass(case_list, seed, jobs, env)
    # untraced passes on both sides of the traced one, so drift cancels
    before_wall, plain_out = run_in_process(case_list, seed, jobs)
    tracer = Tracer()
    with tracer:
        traced_wall, traced_out = run_in_process(case_list, seed, jobs)
    after_wall, _ = run_in_process(case_list, seed, jobs)
    plain_wall = (before_wall + after_wall) / 2
    mismatches = [
        case.name
        for case, ref, plain, traced in zip(case_list, reference.outputs, plain_out, traced_out)
        if not (ref == plain == traced)
    ]

    figures: Dict[str, float] = dict(tracer.counts)
    for name, row in tracer.summary().items():
        for field, value in row.items():
            figures[f"{name}.{field}"] = value
    minors = figures["rank.minor.calls"]
    figures.update(
        {
            "rank.minor.nonzero_ratio": figures["rank.minor.nonzero"] / minors if minors else 1.0,
            "maps.segre_mapping.builds": figures["maps.segre_mapping.calls"],
            "scalar.muladd_s": muladd_seconds(tracer.q_coefficients),
            "cli.case.cpu_s": reference.cpu,
            "trace.overhead_s": traced_wall - plain_wall,
        }
    )
    for phase, value in tracer.phases().items():
        figures[f"phase.{phase}.s"] = value
    figures["trace.unattributed_s"] = figures.pop("phase.unattributed.s")
    return figures, reference, mismatches, tracer


def write_spans(tracer: Tracer, path: Path, seed: int) -> None:
    payload = {
        "seed": seed,
        "names": tracer.names,
        "name": list(tracer.name_of),
        "parent": list(tracer.parent),
        "start": list(tracer.start),
        "end": list(tracer.end),
    }
    path.write_text(json.dumps(payload, separators=(",", ":")) + "\n")


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def git_revision() -> Optional[str]:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=bench_cases.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "segre" / "__init__.py").is_file():
        print(f"error: no segre sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    os.environ.pop("SEGRE_SEED", None)  # it would override --seed, here and in every child
    sys.path.insert(0, str(SRC))

    nproc = len(os.sched_getaffinity(0))
    jobs = min(nproc, 2)
    env = _child_env()
    case_list = bench_cases.cases(args.workload)
    density = bench_cases.write_inputs(args.workload, WORKDIR, args.seed)

    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "nproc": nproc,
        "jobs": jobs,
        "git_revision": git_revision(),
        "src_sha256": source_digest(),
        "rho_terms": density,
        "cases": [case.name for case in case_list],
    }

    attempted = failed = 0
    failures: List[str] = []
    deadline = time.perf_counter() + args.seconds
    if args.trace == 0:
        setup, setup_ref = measure_setup(env)
        passes: List[Pass] = []
        while not passes or time.perf_counter() < deadline:
            result = run_pass(case_list, args.seed, jobs, env)
            passes.append(result)
            attempted += len(case_list)
            failed += len(result.failures)
            failures.extend(f"{name}: {text}" for name, text in result.failures.items())
        measured = {
            "wall_s": statistics.median(p.wall for p in passes),
            "max_case_s": statistics.median(max(p.walls) for p in passes),
            "setup_s": setup,
        }
        host_ref = statistics.mean(r for p in passes for r in p.refs)
        metrics = {
            "wall_s": measured["wall_s"] * REFERENCE_S / host_ref,
            "max_case_s": measured["max_case_s"] * REFERENCE_S / host_ref,
            "setup_s": setup * REFERENCE_S / setup_ref,
            "peak_rss_mb": statistics.median(p.rss for p in passes),
        }
        stamp["passes"] = len(passes)
        stamp["host_ref_s"] = {"passes": host_ref, "setup": setup_ref}
        stamp["measured_s"] = measured
        stamp["pass_wall_s"] = [round(p.wall, 4) for p in passes]
        stamp["case_wall_s"] = {
            case.name: round(statistics.median(p.walls[k] for p in passes), 4) for k, case in enumerate(case_list)
        }
        reported = spec["end_to_end"]
    else:
        rounds = []
        while not rounds or time.perf_counter() < deadline:
            figures, reference, mismatches, tracer = traced_pass(case_list, args.seed, jobs, env)
            rounds.append(figures)
            attempted += len(case_list)
            problems = dict(reference.failures)
            for name in mismatches:
                problems.setdefault(name, "traced stdout differs from the process stdout")
            failed += len(problems)
            failures.extend(f"{name}: {text}" for name, text in problems.items())
        stamp["passes"] = len(rounds)
        stamp["q_terms"] = tracer.q_terms
        write_spans(tracer, WORKDIR / f"spans-{args.workload}.json", args.seed)
        metrics = {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}
        reported = spec["per_layer"]

    result_metrics = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in reported}
    for line in failures:
        print(f"FAIL {line}", file=sys.stderr)
    print(json.dumps({"stamp": stamp}, sort_keys=True))
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": result_metrics},
            sort_keys=True,
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
