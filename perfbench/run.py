"""partfuse benchmark: seeded batch workloads run through the real CLI.

    python3 perfbench/run.py --workload fuse_eval --seed 1 --seconds 45 --trace 0

With ``--trace 0`` each operation of the workload runs the ``partfuse``
CLI in child processes, closed loop with one client, until about
``--seconds`` of operations have been timed; the end-to-end metrics,
totals over the run, are printed by name with their units and sample
counts.  With ``--trace 1`` one
operation runs in-process through ``partfuse.cli.main`` with ``--jobs 1``
three times: to warm up, untraced, and with spans wrapped around every
layer (see spans.py); the per-layer metrics and the tracing overhead are
printed.
Either way the outputs are checked, and the last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.

Inputs are generated from the seed before anything is timed and cached
under .perfbench_work/ at the repository root, one seed per workload.
``--workload all`` runs every workload in turn.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DIGESTS = HERE / "digests.json"

DEFAULT_SEED = 1
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150.0
# stop starting operations after this long, to finish well inside 180 s
RUN_DEADLINE_S = 110.0

END_TO_END_UNITS = {
    "items_per_s": "items/s",
    "cpu_s_per_item": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "part_pq": "ratio",
}


def child_env() -> dict:
    env = dict(os.environ, PARTFUSE_LOG="warn")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Spawner:
    """Runs CLI children through spawner.py, which says why, and returns
    each child's exit code, CPU seconds and peak RSS in MB."""

    def __enter__(self) -> "Spawner":
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "spawner.py")], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, cwd=ROOT,
        )
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()  # the helper finishes its child, then exits
        self.proc.wait()
        self.proc.stdout.close()

    def run(self, argv: list[str], stdout: Path, stderr: Path) -> tuple[int, float, float]:
        request = {"argv": [sys.executable, "-m", "partfuse", *argv], "stdout": str(stdout),
                   "stderr": str(stderr), "cwd": str(ROOT), "env": child_env(), "timeout_s": CHILD_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return reply["code"], reply["cpu_s"], reply["maxrss_mb"]


def measure_setup() -> float:
    """Wall time of a fresh ``python -m partfuse --help``."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-m", "partfuse", "--help"],
        env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        timeout=CHILD_TIMEOUT_S, check=True,
    )
    return time.perf_counter() - start


def fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def recorded_digest(workload: str, seed: int) -> str | None:
    if seed != DEFAULT_SEED or not DIGESTS.exists():
        return None
    return json.loads(DIGESTS.read_text(encoding="utf-8")).get(workload)


class Outcome:
    """Checks of one workload run; a failed check fails its operation."""

    def __init__(self, workload, inputs: Path, meta: dict, seed: int):
        self.workload, self.inputs, self.meta = workload, inputs, meta
        self.expected = recorded_digest(workload.name, seed)
        self.digest: str | None = None
        self.part_pq = 0.0
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def record(self, out: Path, problems: list[str]) -> bool:
        """Check one operation's outputs, given the problems its commands
        reported; returns whether the operation succeeded."""
        import workloads

        self.attempted += 1
        if not problems:
            digest = workloads.tree_digest(out)
            if self.digest is None:
                self.digest = digest
                try:
                    found, self.part_pq = self.workload.check(self.inputs, out, self.meta)
                except Exception:  # unreadable or malformed outputs fail the operation
                    found = [f"output check raised: {traceback.format_exc(limit=3)}"]
                problems += found
                if self.expected is not None and digest != self.expected:
                    problems.append(f"output digest {digest} differs from the recorded {self.expected}")
            elif digest != self.digest:
                problems.append("outputs differ from the first operation's")
        if problems:
            self.failed += 1
            self.problems += problems
        return not problems

    def lines(self) -> list[str]:
        digest_note = "no recorded digest for this seed"
        if self.expected is not None:
            digest_note = "matches the recorded digest" if self.digest == self.expected else "MISMATCH"
        out = [
            f"  {'failed_ratio':<15} {self.failed / max(self.attempted, 1):<12.6g} ratio    "
            f"{self.failed} of {self.attempted} operations",
            f"  {'digest':<15} {self.digest}  ({digest_note})",
        ]
        return out + [f"  problem: {p}" for p in self.problems]

    def result(self, metrics: dict, units: dict) -> dict:
        """The JSON line of the run."""
        print("\n".join(self.lines()))
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }


def timed_run(workload, seed: int, seconds: float) -> dict:
    import workloads

    inputs, meta = workloads.prepare(workload, seed, WORK / "inputs")
    setup = [measure_setup() for _ in range(SETUP_SAMPLES)]
    outcome = Outcome(workload, inputs, meta, seed)
    logs = fresh(WORK / "logs" / workload.name)
    rss, command_walls = [], []
    done, cpu, spent, started = 0, 0.0, 0.0, time.perf_counter()
    with Spawner() as spawner:
        # closed loop, one client: the next operation starts when the last
        # ends, unless less than half an operation's time is left to measure
        while not command_walls or (spent + spent / len(command_walls) / 2 < seconds
                                    and time.perf_counter() - started < RUN_DEADLINE_S):
            out = fresh(WORK / "out" / workload.name)
            commands = workload.commands(inputs, out, meta, workload.jobs)
            log_paths = [logs / f"cmd{i}.stderr" for i in range(len(commands))]
            results, walls = [], []
            for i, (argv, log) in enumerate(zip(commands, log_paths)):
                t0 = time.perf_counter()
                results.append(spawner.run(argv, out / f"cmd{i}.stdout", log))
                walls.append(time.perf_counter() - t0)
            command_walls.append(walls)
            wall = sum(walls)
            spent += wall
            ok = outcome.record(out, [
                f"command {i} exited {code}: {log.read_text(errors='replace')[-400:].strip()}"
                for i, ((code, _, _), log) in enumerate(zip(results, log_paths)) if code != 0
            ])
            done += meta["items"] if ok else 0
            cpu += sum(c for _, c, _ in results)
            rss.extend(mb for _, _, mb in results)

    # totals over the run, not medians of operations: the host's speed
    # drifts in phases of some seconds, and a total averages over all of them
    ops = len(command_walls)
    metrics = {
        "items_per_s": done / spent,
        "cpu_s_per_item": cpu / (ops * meta["items"]),
        "peak_rss_mb": max(rss),
        "setup_s": statistics.median(setup),
        "part_pq": outcome.part_pq,
    }
    counts = {
        "items_per_s": f"{done} items completed in {ops} operations, {spent:.1f} s timed",
        "cpu_s_per_item": f"{cpu:.1f} CPU s of {ops} operations, {meta['items']} items each",
        "peak_rss_mb": f"max of {len(rss)} child processes",
        "setup_s": f"median of {len(setup)} runs of partfuse --help",
        "part_pq": "first operation's outputs against the generator's ground truth",
    }
    print(f"workload {workload.name}, seed {seed}; operation walls (s), and of each command:")
    for walls in command_walls:
        print(f"  {sum(walls):8.3f} = " + " + ".join(f"{w:.3f}" for w in walls))
    for name, value in metrics.items():
        print(f"  {name:<15} {value:<12.6g} {END_TO_END_UNITS[name]:<8} {counts[name]}")
    return outcome.result(metrics, END_TO_END_UNITS)


def run_in_process(commands: list[list[str]], out: Path) -> list[int]:
    import partfuse.cli as cli

    codes = []
    for i, argv in enumerate(commands):
        with open(out / f"cmd{i}.stdout", "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
            codes.append(cli.main(argv))
    return codes


def traced_run(workload, seed: int) -> dict:
    import spans
    import workloads

    inputs, meta = workloads.prepare(workload, seed, WORK / "inputs")
    outcome = Outcome(workload, inputs, meta, seed)
    walls = {}
    tracer = spans.Tracer(run_id=f"{workload.name}-seed{seed}-{os.getpid()}")
    # the first pass warms imports, page cache and allocator; it is checked, not used
    for label in ("warmup", "untraced", "traced"):
        out = fresh(WORK / "out" / f"{workload.name}.{label}")
        commands = workload.commands(inputs, out, meta, 1)
        with tracer if label == "traced" else contextlib.nullcontext():
            t0 = time.perf_counter()
            codes = run_in_process(commands, out)
            walls[label] = time.perf_counter() - t0
        failures = [f"command {i} exited {c} (log on stderr)" for i, c in enumerate(codes) if c != 0]
        outcome.record(out, failures)
    trace_dir = WORK / "trace"
    trace_dir.mkdir(parents=True, exist_ok=True)
    tracer.write_jsonl(trace_dir / f"{workload.name}.seed{seed}.jsonl")

    units = spans.metric_units()
    metrics = tracer.metrics(overhead_s=walls["traced"] - walls["untraced"])
    print(f"workload {workload.name}, seed {seed}, traced in-process with --jobs 1")
    print(f"  untraced {walls['untraced']:.3f} s, traced {walls['traced']:.3f} s, {len(tracer.spans)} spans")
    for name, value in metrics.items():
        if value:
            print(f"  {name:<52} {value:<12.6g} {units[name]}")
    return outcome.result(metrics, units)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "partfuse" / "__init__.py").is_file():
        print(f"partfuse sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        print(f"unknown workload {unknown[0]!r}; expected one of {list(workloads.WORKLOADS)} or 'all'",
              file=sys.stderr)
        return 2

    results = {}
    for name in names:
        workload = workloads.WORKLOADS[name]
        if args.trace:
            results[name] = traced_run(workload, args.seed)
        else:
            results[name] = timed_run(workload, args.seed, args.seconds)
    if len(results) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
