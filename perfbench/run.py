"""The cohortqa benchmark: one command, one workload, one JSON line.

    python3 perfbench/run.py --workload eval-mock --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. It generates the workload's inputs
from the seed, then runs ``cohortqa`` from ``src/`` as a user would, one
fresh process per round, for ``--seconds`` seconds of whole rounds. Every
round's output is checked against ``reference.py``, which does not call
cohortqa. The last line of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones: throughput of one
process, set-up time and peak memory. With ``--trace 1`` one untraced and
one traced round run instead, and the metrics are the per-layer ones from
``spans.py``. ``--smoke`` shrinks the inputs for the benchmark's own tests.
See README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import gen
import reference
import spans
import stub

HERE = Path(__file__).resolve().parent

# Sizes are chosen so that one process does a few seconds of work at the
# parent commit, which keeps interpreter start-up a small share of it.
WORKLOADS = {
    "eval-mock": {"kind": "eval", "cohorts": 1000, "k": 4, "retriever": "mock", "jobs": 1},
    "eval-remote": {"kind": "eval", "cohorts": 60, "k": 1, "retriever": "remote"},
    "sim-train": {"kind": "sim", "cohorts": 300, "updates": 12000},
}
SMOKE = {"eval-mock": {"cohorts": 12}, "eval-remote": {"cohorts": 6},
         "sim-train": {"cohorts": 10, "updates": 300}}

SETUP_PROBES = 7
CHILD_TIMEOUT_S = 120.0

_SETUP_PROBE = """
import json, sys, time
start = time.perf_counter()
import cohortqa.cli
from cohortqa.data_model import load_cohorts
from cohortqa.retriever import FactTable
load_cohorts(sys.argv[1])
if len(sys.argv) > 2:
    FactTable.from_jsonl(sys.argv[2])
print(json.dumps({"setup_s": time.perf_counter() - start, "module": cohortqa.__file__}))
"""


def log(text: str) -> None:
    print(text, file=sys.stderr, flush=True)


class Child:
    """One finished child process: wall time, peak RSS, exit code."""

    def __init__(self, cmd: list[str], env: dict, out: Path):
        err = out.with_suffix(".err")
        with open(out, "w") as stdout, open(err, "w") as stderr:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, env=env, stdout=stdout, stderr=stderr)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            self.wall_s = time.perf_counter() - start
        proc.returncode = self.returncode = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024.0  # Linux reports KiB
        self.stdout = out.read_text()
        self.stderr = err.read_text()


class Stub:
    """The latency stub in its own process, for the eval-remote workload."""

    def __init__(self, facts: Path, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "stub.py"), "--facts", str(facts)],
            env=env, stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        if not line.strip().isdigit():
            self.close()
            raise RuntimeError("latency stub did not start")
        self.base = f"http://127.0.0.1:{int(line)}"
        self.endpoint = self.base + "/v1/chat/completions"
        self._opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))

    def stats(self) -> dict:
        with self._opener.open(self.base + "/stats", timeout=10) as resp:
            return json.load(resp)

    def close(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Bench:
    def __init__(self, workload: str, seed: int, smoke: bool, root: Path, work: Path):
        self.name = workload
        self.spec = dict(WORKLOADS[workload], **(SMOKE[workload] if smoke else {}))
        self.seed = seed
        self.root = root
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p))
        self.env["NO_PROXY"] = self.env["no_proxy"] = "127.0.0.1,localhost"
        self.stub = None
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []  # faults of the whole run: correct is false

    # -- set-up --

    def prepare(self) -> None:
        spec = self.spec
        if spec["kind"] == "eval":
            self.inputs = gen.generate_eval(self.work, self.seed, spec["cohorts"], spec["k"])
            self.expected = reference.expected_eval(
                self.inputs["cohorts"], self.inputs["programs"], self.inputs["facts"], spec["k"])
            if spec["retriever"] == "remote":
                self.stub = Stub(self.inputs["facts"], self.env)
        else:
            self.inputs = gen.generate_sim(self.work, self.seed, spec["cohorts"])
            self.rewards = reference.expected_sim_rewards(
                self.inputs["cohorts"], self.inputs["pool"], self.inputs["facts"])

    def setup_seconds(self, probes: int) -> float:
        """Median time for a fresh process to import cohortqa and load the inputs."""
        args = [str(self.inputs["cohorts"])]
        if self.spec.get("retriever") != "remote":
            args.append(str(self.inputs["facts"]))
        times = []
        for i in range(probes):
            child = Child([sys.executable, "-c", _SETUP_PROBE, *args], self.env, self.work / f"setup{i}.out")
            if child.returncode != 0:
                raise RuntimeError(f"set-up probe failed: {child.stderr.strip()[-500:]}")
            probe = json.loads(child.stdout)
            if not Path(probe["module"]).resolve().is_relative_to(self.root / "src"):
                raise RuntimeError(f"imported cohortqa from {probe['module']}, not from src/")
            times.append(probe["setup_s"])
        return statistics.median(times)

    # -- one round: one cohortqa process over the whole input --

    def command(self, output: Path) -> list[str]:
        spec, inputs = self.spec, self.inputs
        if spec["kind"] == "sim":
            return ["sim", "--variant", "cohort", "--pool", str(inputs["pool"]),
                    "--cohorts", str(inputs["cohorts"]), "--facts", str(inputs["facts"]),
                    "--updates", str(spec["updates"]), "--seed", str(self.seed),
                    "--no-timestamp", "--output", str(output)]
        args = ["eval", "--cohorts", str(inputs["cohorts"]), "--programs", str(inputs["programs"]),
                "--k", str(spec["k"]), "--no-timestamp", "--output", str(output)]
        if "jobs" in spec:
            args += ["--jobs", str(spec["jobs"])]
        if spec["retriever"] == "remote":
            return args + ["--retriever", "remote", "--endpoint", self.stub.endpoint]
        return args + ["--facts", str(inputs["facts"])]

    def round(self, traced: bool = False) -> tuple[Child, dict]:
        """Run and check one process; returns it with the stub's counters."""
        self.rounds += 1
        tag = f"round{self.rounds}"
        output = self.work / f"{tag}.output"
        prefix = [str(HERE / "spans.py"), str(self.work / f"{tag}.spans"), "--"] if traced else ["-m", "cohortqa.cli"]
        if self.stub:
            self.stub.stats()  # open a fresh counting window
        child = Child([sys.executable, *prefix, *self.command(output)], self.env, self.work / f"{tag}.out")
        stub_stats = self.stub.stats() if self.stub else {}
        if stub_stats.get("malformed"):
            self.problems.append(f"stub saw malformed requests: {stub_stats['first_problem']}")
        self.check(child, output)
        return child, stub_stats

    def check(self, child: Child, output: Path) -> None:
        if child.returncode != 0:
            log(f"cohortqa exited {child.returncode}: {child.stderr.strip()[-500:]}")
        if self.spec["kind"] == "eval":
            self.attempted += len(self.expected)
            try:
                report = json.loads(output.read_text())
            except (OSError, ValueError):
                report = {}
            problems = reference.check_eval_report(report, self.expected)
        else:
            self.attempted += self.spec["updates"]
            try:
                final = json.loads(child.stdout.strip().splitlines()[-1])
                problems, run_problems = reference.check_sim_log(
                    output, final, self.rewards, self.spec["cohorts"], self.spec["updates"])
            except (OSError, ValueError, IndexError) as exc:
                problems, run_problems = [f"unreadable sim output: {exc}"] * self.spec["updates"], []
            self.problems += run_problems
        self.failed += len(problems)
        for problem in problems[:3]:
            log(f"FAILED: {problem}")

    def ops(self) -> int:
        """Throughput numerator of one process: member executions, or updates."""
        spec = self.spec
        return spec["cohorts"] * spec["k"] * 6 if spec["kind"] == "eval" else spec["updates"]

    # -- the two kinds of run --

    def timed(self, seconds: float, probes: int) -> dict:
        setup_s = self.setup_seconds(probes)
        rates, rss = [], []
        deadline = time.perf_counter() + seconds
        while True:
            child, _ = self.round()
            rates.append(self.ops() / child.wall_s)
            rss.append(child.rss_mb)
            log(f"{self.name} round {self.rounds}: {child.wall_s:.3f} s, {rates[-1]:.1f}/s, {child.rss_mb:.1f} MB")
            if time.perf_counter() >= deadline:
                break
        return {
            "throughput_per_s": statistics.median(rates),
            "setup_s": setup_s,
            "peak_rss_mb": statistics.median(rss),
        }

    def traced(self) -> dict:
        plain, stub_stats = self.round()
        traced, _ = self.round(traced=True)
        recorded = json.loads((self.work / f"round{self.rounds}.spans").read_text())
        metrics = spans.layer_metrics(recorded, stub.LATENCY_MS)
        metrics["stub.http_requests"] = stub_stats.get("http_requests", 0)
        metrics["stub.mean_in_flight"] = stub_stats.get("mean_in_flight", 0.0)
        metrics["stub.max_in_flight"] = stub_stats.get("max_in_flight", 0)
        metrics["trace.overhead_share"] = traced.wall_s / plain.wall_s
        return metrics


def units(trace: int) -> dict[str, str]:
    """Metric name -> unit, from BENCHMARK.json beside this directory."""
    manifest = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in manifest["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cohortqa benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "cohortqa" / "cli.py").is_file():
        log(f"no cohortqa source under {root / 'src'}; run from the root of a checkout")
        return 2
    work = root / "perfbench" / "out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    bench = Bench(args.workload, args.seed, args.smoke, root, work)
    try:
        bench.prepare()
        if args.trace:
            metrics = bench.traced()
        else:
            metrics = bench.timed(args.seconds, 1 if args.smoke else SETUP_PROBES)
    finally:
        if bench.stub:
            bench.stub.close()
        shutil.rmtree(work, ignore_errors=True)
    for problem in bench.problems[:20]:
        log(f"CHECK FAILED: {problem}")
    unit_of = units(args.trace)
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit_of[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
