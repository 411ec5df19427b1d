"""Benchmark of the tlpq pipelines: cold controller runs, checked results.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Each operation is one pipeline run in a fresh
controller process (bench/controller.py), so no run reuses program state built
by an earlier one. The wide-net workload talks to two long-lived worker
processes (bench/worker.py) on 127.0.0.1. Every result is checked against
values this benchmark computes without tlpq (bench/inputs.py). The last line
of stdout is one JSON object: correct, attempted, failed and the metrics of
the mode, which are end-to-end with --trace 0 and per-layer with --trace 1.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"

NETWORK_WORKERS = 2  # one per core
SETUP_TRIALS = 5  # worker pairs started to take the median start-up time
CONTROLLER_TIMEOUT_S = 150
WORKER_START_TIMEOUT_S = 60

WORKLOADS = ("nonherm-local", "wide-net")

PER_LAYER = {
    "planner.enumerate_s": "s",
    "planner.synth_s": "s",
    "planner.synth_calls": "count",
    "circuit.unitary_calls": "count",
    "circuit.unitary_s": "s",
    "runtime.tasks": "count",
    "runtime.execute_s": "s",
    "runtime.backend_s": "s",
    "runtime.worker_util": "fraction",
    "runtime.encode_s": "s",
    "runtime.decode_s": "s",
    "runtime.bytes_sent": "bytes",
    "runtime.bytes_recv": "bytes",
    "runtime.aggregate_s": "s",
    "lchs.node_s": "s",
    "lchs.dense_s": "s",
    "lchs.oracle_s": "s",
    "factorize.expand_s": "s",
    "partition.cut_s": "s",
}
WORKER_LAYERS = ("runtime.backend_s", "runtime.decode_s")


class BenchError(RuntimeError):
    """A fault of the set-up, not of one operation: the run prints no result."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    # One BLAS thread per process: two workers already fill the two cores.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


# --- workers -------------------------------------------------------------------

def _handshake(address: str, proto: int) -> None:
    host, _, port = address.rpartition(":")
    with socket.create_connection((host, int(port)), timeout=WORKER_START_TIMEOUT_S) as sock:
        stream = sock.makefile("rwb")
        stream.write((json.dumps({"type": "hello", "proto": proto}) + "\n").encode())
        stream.flush()
        ack = json.loads(stream.readline() or b"{}")
    if ack.get("type") != "hello_ack":
        raise BenchError(f"worker {address} refused the handshake: {ack}")


def _send_shutdown(address: str) -> None:
    host, _, port = address.rpartition(":")
    with socket.create_connection((host, int(port)), timeout=10) as sock:
        sock.sendall(b'{"type": "shutdown"}\n')


class WorkerPair:
    """Worker processes started together; `start_s` runs until all accept the handshake."""

    def __init__(self, env: dict, trace: bool):
        self.procs: list[subprocess.Popen] = []
        self.addresses: list[str] = []
        start = time.perf_counter()
        command = [sys.executable, str(BENCH / "worker.py")] + (["--trace"] if trace else [])
        try:
            for _ in range(NETWORK_WORKERS):
                self.procs.append(
                    subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE)
                )
            for proc in self.procs:
                address, proto = self._announcement(proc, start)
                self.addresses.append(address)
                _handshake(address, proto)
        except BaseException:
            self.kill()
            raise
        self.start_s = time.perf_counter() - start

    @staticmethod
    def _announcement(proc: subprocess.Popen, start: float) -> tuple[str, int]:
        remaining = WORKER_START_TIMEOUT_S - (time.perf_counter() - start)
        ready, _, _ = select.select([proc.stdout], [], [], max(remaining, 0))
        line = proc.stdout.readline().decode() if ready else ""
        fields = line.split()
        if len(fields) != 3 or fields[0] != "ready":
            raise BenchError(f"worker did not announce itself (got {line!r})")
        return fields[1], int(fields[2])

    def kill(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()
        for proc in self.procs:
            proc.wait()
            proc.stdout.close()

    def shutdown(self) -> list[dict]:
        """Stop the workers through the protocol; returns each one's final report."""
        reports = []
        try:
            for address in self.addresses:
                _send_shutdown(address)
            for proc in self.procs:
                out, _ = proc.communicate(timeout=30)
                if proc.returncode != 0:
                    raise BenchError(f"worker exited with {proc.returncode}")
                reports.append(json.loads(out.decode().splitlines()[-1]))
        finally:
            self.kill()
        return reports


# --- one operation ---------------------------------------------------------------

def run_controller(job: dict, env: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "controller.py")],
        input=json.dumps(job).encode(),
        capture_output=True,
        cwd=ROOT,
        env=env,
        timeout=CONTROLLER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode())
        raise BenchError(f"controller exited with {proc.returncode}")
    return json.loads(proc.stdout.decode().splitlines()[-1])


# --- a whole run -----------------------------------------------------------------

def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    env = child_env()
    workload_input = inputs.make_input(workload, seed)
    # Untimed: fills the byte-code cache and the page cache before any timing.
    subprocess.run([sys.executable, "-c", "import tlpq.cli"], cwd=ROOT, env=env, check=True,
                   timeout=CONTROLLER_TIMEOUT_S)
    network = workload.endswith("-net")
    worker_start_s: list[float] = []
    workers = None
    samples: list[dict] = []
    try:
        if network:
            for trial in range(SETUP_TRIALS):
                workers = WorkerPair(env, trace)
                worker_start_s.append(workers.start_s)
                if trial < SETUP_TRIALS - 1:
                    workers.kill()
        job = {
            "workload": workload,
            "seed": seed,
            "trace": trace,
            "workers": workers.addresses if network else [],
            "input": inputs.without_expected(workload, workload_input),
        }
        began = time.perf_counter()
        while True:
            op_start = time.perf_counter()
            report = run_controller(job, env)
            if report["ok"]:
                report["errors"] = inputs.check(workload, seed, workload_input, report.pop("result"))
            else:
                report["errors"] = [report["error"]]
            samples.append(report)
            now = time.perf_counter()
            if now - began + (now - op_start) > seconds:
                break
        worker_reports = workers.shutdown() if network else []
    finally:
        if workers is not None:
            workers.kill()
    return {
        "samples": samples,
        "worker_start_s": worker_start_s,
        "worker_reports": worker_reports,
        "peak_rss_mb": max(r["peak_rss_mb"] for r in samples + worker_reports),
        "input": workload_input,
    }


def end_to_end(run: dict) -> dict:
    samples = run["samples"]
    setup = statistics.median(s["import_s"] for s in samples)
    if run["worker_start_s"]:
        setup += statistics.median(run["worker_start_s"])
    return {
        "run_s": {"value": statistics.median(s["run_s"] for s in samples), "unit": "s"},
        "setup_s": {"value": setup, "unit": "s"},
        "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
    }


def per_layer(run: dict) -> dict:
    """Median per pipeline run; worker-side totals are spread evenly over the runs."""
    samples = run["samples"]
    workers = max(len(run["worker_reports"]), 1)
    worker_share = {
        name: sum(r["layers"].get(name, 0.0) for r in run["worker_reports"]) / len(samples)
        for name in WORKER_LAYERS
    }
    rows = []
    for s in samples:
        row = {name: s["layers"].get(name, 0.0) for name in PER_LAYER}
        for name in WORKER_LAYERS:
            row[name] += worker_share[name]
        rows.append(row)
    metrics = {
        name: {"value": statistics.median(row[name] for row in rows), "unit": unit}
        for name, unit in PER_LAYER.items()
    }
    execute = sum(row["runtime.execute_s"] for row in rows)
    backend = sum(row["runtime.backend_s"] for row in rows)
    metrics["runtime.worker_util"]["value"] = backend / (execute * workers) if execute else 0.0
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the tlpq pipelines.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "tlpq" / "__init__.py").is_file():
        print(f"error: no tlpq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    samples = run["samples"]
    failed = sum(1 for s in samples if s["errors"])
    checks_failed = sum(1 for s in samples if s["ok"] and s["errors"])
    metrics = per_layer(run) if args.trace else end_to_end(run)
    out = {
        "correct": checks_failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": metrics,
    }
    for message in [e for s in samples for e in s["errors"]][:20]:
        print(f"check: {message}", file=sys.stderr)
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: {len(samples)} runs, "
        f"run_s median {statistics.median(s['run_s'] for s in samples):.4f}",
        file=sys.stderr,
    )
    RESULTS.mkdir(exist_ok=True)
    record = dict(out, workload=args.workload, seed=args.seed, trace=args.trace, **run)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record) + "\n"
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
