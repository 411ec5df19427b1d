"""Per-layer timers and counters for traced runs, installed from outside tlpq.

Each wrapper replaces a public tlpq function everywhere the package holds a
reference to it, so calls made by tlpq itself are counted too. Times are
inclusive: a layer's seconds include the layers it calls (synthesis includes
the circuit unitaries it builds). Untraced runs never import this module.
"""

from __future__ import annotations

import functools
import socket
import sys
import threading
import time
import types
from collections import defaultdict


class LayerTotals:
    """Seconds and counts per metric name, safe to update from worker threads."""

    def __init__(self):
        self.values: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()

    def add(self, name: str, amount: float) -> None:
        with self._lock:
            self.values[name] += amount

    def wrap(self, fn, seconds: str, calls: str | None = None, count_arg=None):
        """Wrap fn so each call adds its duration to `seconds` and 1 to `calls`.

        `count_arg(args)` gives an amount to add to `calls` instead of 1.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.add(seconds, time.perf_counter() - start)
                if calls is not None:
                    self.add(calls, 1 if count_arg is None else count_arg(args))

        return traced


def _replace_everywhere(original, replacement) -> None:
    """Rebind every tlpq module attribute that refers to `original`."""
    for name, module in list(sys.modules.items()):
        if name != "tlpq" and not name.startswith("tlpq."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _wrap_function(totals, fn, seconds, calls=None, count_arg=None) -> None:
    _replace_everywhere(fn, totals.wrap(fn, seconds, calls, count_arg))


def _wrap_backend(totals: LayerTotals) -> None:
    from tlpq.runtime import ExactBackend

    ExactBackend.run_task = totals.wrap(ExactBackend.run_task, "runtime.backend_s")


def _counting_socket_module(totals: LayerTotals) -> types.ModuleType:
    """A stand-in for the socket module whose connections count their bytes."""

    class CountingSocket(socket.socket):
        def send(self, data, *flags):
            sent = super().send(data, *flags)
            totals.add("runtime.bytes_sent", sent)
            return sent

        def sendall(self, data, *flags):
            super().sendall(data, *flags)
            totals.add("runtime.bytes_sent", len(data))

        def recv_into(self, buffer, *args):
            received = super().recv_into(buffer, *args)
            totals.add("runtime.bytes_recv", received)
            return received

        def recv(self, *args):
            data = super().recv(*args)
            totals.add("runtime.bytes_recv", len(data))
            return data

    def create_connection(*args, **kwargs):
        plain = socket.create_connection(*args, **kwargs)
        timeout = plain.gettimeout()
        counted = CountingSocket(plain.family, plain.type, plain.proto, plain.detach())
        counted.settimeout(timeout)
        return counted

    shim = types.ModuleType("socket")
    shim.__dict__.update(socket.__dict__)
    shim.create_connection = create_connection
    return shim


def install_controller() -> LayerTotals:
    """Trace the controller side of one pipeline run (tlpq must be imported)."""
    import tlpq.cli  # noqa: F401  (so its imported names are rebound too)
    from tlpq import circuit, factorize, lchs, partition, planner, runtime

    totals = LayerTotals()
    _wrap_function(totals, planner.enumerate_subtasks, "planner.enumerate_s")
    _wrap_function(totals, planner.build_estimator_circuit, "planner.synth_s", "planner.synth_calls")
    _wrap_function(totals, circuit.circuit_unitary, "circuit.unitary_s", "circuit.unitary_calls")
    _wrap_function(
        totals, runtime.execute_tasks, "runtime.execute_s", "runtime.tasks",
        count_arg=lambda args: len(args[0]),
    )
    _wrap_function(totals, circuit.circuit_to_json, "runtime.encode_s")
    _wrap_function(totals, runtime.aggregate, "runtime.aggregate_s")
    _wrap_function(totals, lchs.unitary_node, "lchs.node_s")
    _wrap_function(totals, lchs.lchs_expectation, "lchs.dense_s")
    _wrap_function(totals, lchs.trotter_oracle, "lchs.oracle_s")
    _wrap_function(totals, factorize.expand_layered, "factorize.expand_s")
    _wrap_function(totals, partition.build_graph, "partition.cut_s")
    _wrap_function(totals, partition.balanced_bisection, "partition.cut_s")
    _wrap_backend(totals)
    runtime.socket = _counting_socket_module(totals)
    return totals


def install_worker() -> LayerTotals:
    """Trace a worker: backend time and request decoding."""
    from tlpq import circuit

    totals = LayerTotals()
    _wrap_function(totals, circuit.parse_circuit, "runtime.decode_s")
    _wrap_backend(totals)
    return totals
