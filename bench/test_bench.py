"""Tests of the benchmark itself: its oracles, its checks and one run per workload.

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import run  # noqa: E402


# --- oracles on closed-form cases ----------------------------------------------

def test_statevector_rotation_and_graph_state():
    theta = 0.7
    psi = inputs.statevector(1, [("RY", (0,), (theta,))])
    assert inputs.pauli_expectation(psi, "Z") == pytest.approx(np.cos(theta), abs=1e-14)
    assert inputs.pauli_expectation(psi, "X") == pytest.approx(np.sin(theta), abs=1e-14)
    # RY(pi/2) on both qubits then CZ: the graph state stabilized by X0 Z1.
    plus = [("RY", (q,), (np.pi / 2,)) for q in (0, 1)]
    psi = inputs.statevector(2, plus + [("CZ", (0, 1), ())])
    assert inputs.pauli_expectation(psi, "XZ") == pytest.approx(1.0, abs=1e-14)
    assert inputs.pauli_expectation(psi, "XI") == pytest.approx(0.0, abs=1e-14)


def test_statevector_qubit_zero_is_most_significant():
    psi = inputs.statevector(3, [("RX", (0,), (np.pi,))])
    assert abs(psi[0b100]) == pytest.approx(1.0, abs=1e-14)


def test_quadrature_nodes_and_decimal_reading():
    nodes, coeffs = inputs.quadrature(0.2, 0.5, 1.0)
    assert len(nodes) == 21 and nodes[0] == -2.0 and nodes[-1] == 2.0
    # 0.30000000000000004 reads as that decimal, not as 0.3: M = floor(6.0000...) = 6
    assert len(inputs.quadrature(0.2, 0.5, 0.1 + 2 * 0.1)[0]) == 7


def test_quadrature_reproduces_the_cauchy_integral():
    # sum_k c_k e^{-i k lam T} -> integral of e^{-i k lam T} / (pi (1 + k^2)) = e^{-lam T}
    nodes, coeffs = inputs.quadrature(0.01, 20.0, 1.0)
    for lam in (0.5, 1.0, 2.0):
        value = np.sum(coeffs * np.exp(-1j * nodes * lam))
        assert value == pytest.approx(np.exp(-lam), abs=1e-3)


def test_exact_evolution_matches_closed_form():
    # iH + L = I + N with N = i sigma_x + sigma_z nilpotent, so the state is
    # proportional to (1 - T)|0> - iT|1>.
    for t in (0.3, 0.5, 0.9):
        want = inputs.nonherm_expected(0, t, 0.2, 0.5)["exact"]
        norm = (1 - t) ** 2 + t**2
        assert want["sz"] == pytest.approx(((1 - t) ** 2 - t**2) / norm, abs=1e-12)
        assert want["sy"] == pytest.approx(-2 * t * (1 - t) / norm, abs=1e-12)
        assert want["sx"] == pytest.approx(0.0, abs=1e-12)


def test_wide_inputs_are_seeded_and_far_from_zero():
    for route, (w, crossing, n_obs) in inputs.WIDE.items():
        first = inputs.wide_inputs(route, 5)
        assert first == inputs.wide_inputs(route, 5)
        assert first["n"] == 2 * w and len(first["observables"]) == n_obs
        assert min(abs(v) for v in first["expected"]) >= inputs.MIN_ABS_EXPECTATION
        assert sum(1 for kind, (a, *rest), _ in first["gates"]
                   if kind == "CZ" and (a < w) != (rest[0] < w)) == crossing


# --- the checks reject wrong results --------------------------------------------

def test_check_wide_rejects_a_wrong_value():
    inp = inputs.wide_inputs("cut", 2)
    good = {"values": [[v, 0.0] for v in inp["expected"]]}
    assert inputs.check_wide(inp, good) == []
    bad = {"values": [[v + 1e-6, 0.0] for v in inp["expected"]]}
    assert len(inputs.check_wide(inp, bad)) == len(inp["expected"])


def test_check_wide_net_checks_both_routes():
    inp = inputs.make_input("wide-net", 2)
    result = {route: {"values": [[v, 0.0] for v in inp[route]["expected"]]} for route in inp}
    assert inputs.check("wide-net", 2, inp, result) == []
    result["overlap"]["values"][0][0] += 1e-6
    assert len(inputs.check("wide-net", 2, inp, result)) == 1


def test_check_nonherm_rejects_a_wrong_row():
    seed = 4
    rows = []
    for t in inputs.NONHERM["T"]:
        want = inputs.nonherm_expected(seed, t, inputs.NONHERM["eps"], inputs.NONHERM["c"])
        row = {"T": t, "M": want["M"]}
        for name in ("sx", "sy", "sz", "R"):
            row[f"{name}_tlp"] = row[f"{name}_dense"] = want["quadrature"][name]
            row[f"{name}_oracle"] = want["exact"][name]
        rows.append(row)
    r = inputs.nonherm_observable(seed)
    result = {"R": [[[x.real, x.imag] for x in line] for line in r], "rows": rows}
    assert inputs.check_nonherm(seed, result) == []
    rows[3]["R_tlp"] += 1e-7
    assert len(inputs.check_nonherm(seed, result)) == 1


# --- one run of each workload ---------------------------------------------------

def _run(*args, cwd=run.ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_one_untraced_run(workload):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["correct"] is True and out["attempted"] == 1 and out["failed"] == 0
    assert set(out["metrics"]) == {"run_s", "setup_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in out["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_one_traced_run(workload):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["correct"] is True and out["failed"] == 0
    metrics = {name: m["value"] for name, m in out["metrics"].items()}
    assert set(metrics) == set(run.PER_LAYER)
    assert metrics["runtime.tasks"] > 0 and metrics["runtime.backend_s"] > 0
    assert 0 < metrics["runtime.worker_util"] <= 1
    if workload.endswith("-net"):
        assert metrics["runtime.bytes_sent"] > 0 and metrics["runtime.decode_s"] > 0
    else:
        assert metrics["runtime.bytes_sent"] == 0 and metrics["planner.synth_calls"] == 7080


def test_fails_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run("--workload", "wide-net", "--seed", "0", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
