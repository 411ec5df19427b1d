"""The golden corpus: sha256 digests of the CLI's output bytes and of the wire
protocol's batch lines, which ``tests/test_golden.py`` recomputes in process.

A change that moves a value (or the wire format) regenerates the corpus:

    python tests/golden.py

and its change note names each digest that moved. The digests pin the bytes
on one numpy build and CPU: a different BLAS kernel may round a dot product
differently, which moves them everywhere alike.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
if str(_ROOT / "src") not in sys.path:  # run as a script from a source checkout
    sys.path.insert(0, str(_ROOT / "src"))

from click.testing import CliRunner  # noqa: E402

import tlpq.runtime as runtime  # noqa: E402
from tlpq.cli import main, run_ghz_cut_pipeline, run_ghz_pipeline, run_nonherm_rows  # noqa: E402

GOLDEN = Path(__file__).with_name("golden.json")

# each entry: (name, arguments); "{out}" is replaced by an output file path
COMMANDS = (
    ("nonherm", ["nonherm"]),
    ("nonherm-sampled", ["nonherm", "--shots", "100", "--seed", "5"]),
    ("nonherm-json-check", ["nonherm", "--format", "json", "--check"]),
    ("nonherm-raw", ["nonherm", "--raw"]),
    ("nonherm-float-truncation", ["nonherm", "--emulate-float-truncation"]),
    ("ghz", ["ghz", "--out", "{out}"]),
    ("ghz-sampled", ["ghz", "--shots", "100", "--seed", "5", "--out", "{out}"]),
    ("ghz-cut", ["ghz-cut", "--out", "{out}"]),
    ("ghz-cut-sampled", ["ghz-cut", "--shots", "100", "--seed", "5", "--out", "{out}"]),
    ("imagtime", ["imagtime"]),
    ("imagtime-json", ["imagtime", "--format", "json"]),
    ("plan-ghz4", ["plan", "--circuit", "ghz4"]),
)

# the pipelines whose batch lines are pinned, and the node counts they are cut for
PIPELINES = {
    "nonherm": lambda cfg: run_nonherm_rows(cfg),
    "ghz": run_ghz_pipeline,
    "ghz-cut": run_ghz_cut_pipeline,
}
NODE_COUNTS = (1, 3)


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:  # each part length-prefixed, so no two splits collide
        h.update(len(part).to_bytes(8, "big"))
        h.update(part)
    return h.hexdigest()


def command_digest(args: list[str]) -> str:
    """The digest of one command run in process: its exit code, stdout,
    stderr and output file (empty when it writes none)."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        result = CliRunner().invoke(main, [a.replace("{out}", out) for a in args])
        written = Path(out).read_bytes() if os.path.exists(out) else b""
    if result.exception is not None and not isinstance(result.exception, SystemExit):
        raise result.exception
    return _digest(str(result.exit_code).encode(), result.stdout_bytes,
                   result.stderr_bytes, written)


def batch_digest(pipeline, n_nodes: int) -> str:
    """The digest of the batch lines that ``pipeline``'s calls would send to
    ``n_nodes`` workers, in call and batch order, from a local exact run."""
    real_run = runtime._run
    lines = []

    def run(items, cfg):
        lines.extend(b.line for b in runtime._batches(items, n_nodes, cfg.shots, cfg.seed))
        return real_run(items, cfg)

    runtime._run = run
    try:
        pipeline(runtime.ClusterConfig())
    finally:
        runtime._run = real_run
    return _digest(*lines)


def compute() -> dict:
    return {
        "commands": {name: command_digest(args) for name, args in COMMANDS},
        "batch_lines": {f"{name}@{n}": batch_digest(pipeline, n)
                        for name, pipeline in PIPELINES.items() for n in NODE_COUNTS},
    }


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(compute(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
