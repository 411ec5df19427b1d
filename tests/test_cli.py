"""Command-line interface: option plumbing, file outputs, exit codes.

Exit-code contract: 0 success, 2 bad usage/config, 3 execution failure,
4 check threshold violated.
"""

import json
import os
import socket
import subprocess
import sys
import tokenize
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import PAULI, one_row_table, record_steps

from tlpq import Circuit, Gate, PauliString, Subtask, circuit_to_json, cli
from tlpq.cli import main
from tlpq.lchs import build_quadrature, trotter_oracle, unitary_node
from tlpq.ghz import NonPhysical
from tlpq.runtime import PROTOCOL_VERSION, ClusterConfig, execute_tasks


@pytest.fixture()
def runner():
    return CliRunner()


def combined_output(result) -> str:
    text = result.output
    try:
        text += result.stderr
    except (ValueError, AttributeError):
        pass
    return text


def invoke(runner, args, **kw):
    return runner.invoke(main, args, catch_exceptions=False, **kw)


# --- plan -------------------------------------------------------------------------


def test_plan_builtin_template(runner):
    result = invoke(runner, ["plan", "--circuit", "ghz4"])
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["n_qubits"] == 4
    assert report["min_cut"]["weight"] == 1
    assert report["m_prime"] == 1
    assert report["term_count"] == 2
    assert report["subtasks_per_observable"] == 8
    assert report["comparison"] == {"m": 1, "ours": 16, "cutting": 160}


def test_plan_two_crossing_circuit_file(runner, tmp_path):
    circ = Circuit(4, (
        Gate("H", (0,)),
        Gate("CNOT", (0, 1)), Gate("CNOT", (0, 1)), Gate("CNOT", (0, 1)),
        Gate("CNOT", (2, 3)), Gate("CNOT", (2, 3)), Gate("CNOT", (2, 3)),
        Gate("CNOT", (1, 2)), Gate("CNOT", (1, 2)),
    ))
    path = tmp_path / "circ.json"
    path.write_text(json.dumps(circuit_to_json(circ)))
    result = invoke(runner, ["plan", "--circuit", str(path)])
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["edges"] == {"0-1": 3, "1-2": 2, "2-3": 3}
    assert report["min_cut"]["weight"] == 2
    assert report["min_cut"]["part0"] in ([0, 1], [2, 3])
    assert report["term_count"] == 4         # two crossing CNOTs -> 2^2
    assert report["subtasks_per_observable"] == 32
    assert report["comparison"] == {"m": 2, "ours": 32, "cutting": 1600}


def test_plan_disconnected_circuit(runner, tmp_path):
    circ = Circuit(3, (Gate("H", (0,)), Gate("X", (2,))))
    path = tmp_path / "disc.json"
    path.write_text(json.dumps(circuit_to_json(circ)))
    result = invoke(runner, ["plan", "--circuit", str(path)])
    assert result.exit_code == 0
    assert json.loads(result.output)["min_cut"]["weight"] == 0


def test_plan_reports_json_error_position(runner, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"n": 2,\n  "gates": [oops]\n}')
    result = runner.invoke(main, ["plan", "--circuit", str(path)])
    assert result.exit_code == 2
    text = combined_output(result)
    assert "circuit parse error at line 2 column" in text


def test_plan_requires_circuit(runner):
    result = runner.invoke(main, ["plan"])
    assert result.exit_code == 2


def test_plan_rejects_invalid_gate(runner, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 2, "gates": [{"kind": "WARP", "qubits": [0]}]}))
    result = runner.invoke(main, ["plan", "--circuit", str(path)])
    assert result.exit_code == 2
    assert "bad circuit" in combined_output(result)


@pytest.mark.parametrize("circuit", [
    {"n": 2.7, "gates": [{"kind": "CZ", "qubits": [0, 1]}]},
    {"n": 2, "gates": [{"kind": "CZ", "qubits": [0, 1.9]}]},
    {"n": 2, "gates": [{"kind": "CZ", "qubits": [0, True]}]},
    {"n": 2, "gates": [{"kind": "RY", "qubits": [0], "params": ["0.5"]}]},
    {"n": 2, "gates": [{"kind": "RY", "qubits": [0], "params": ["nan"]}]},
], ids=["float_width", "float_qubit", "true_qubit", "text_param", "text_nan"])
def test_plan_rejects_truncated_or_text_numbers(runner, tmp_path, circuit):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(circuit))
    result = runner.invoke(main, ["plan", "--circuit", str(path)])
    assert result.exit_code == 2
    assert "bad circuit" in combined_output(result)


# --- ghz --------------------------------------------------------------------------


def test_ghz_writes_default_file_and_reports_fidelity(runner):
    with runner.isolated_filesystem():
        result = invoke(runner, ["ghz"])
        assert result.exit_code == 0
        assert result.output.startswith("fidelity=")
        assert "evaluations=128" in result.output
        payload = json.loads(Path("ghz_density.json").read_text())
    assert set(payload) == {"evaluations", "fidelity", "mode", "rho", "shots"}
    assert payload["evaluations"] == 128
    assert payload["shots"] is None
    assert abs(payload["fidelity"] - 1.0) < 1e-9
    rho = np.array([[complex(re, im) for re, im in row] for row in payload["rho"]])
    assert rho.shape == (16, 16)
    assert abs(np.trace(rho) - 1.0) < 1e-9


def test_ghz_runs_are_reproducible_bytes(runner, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert invoke(runner, ["ghz", "--out", str(a)]).exit_code == 0
    assert invoke(runner, ["ghz", "--out", str(b)]).exit_code == 0
    assert a.read_bytes() == b.read_bytes()


def test_ghz_local_node_count_does_not_change_output(runner, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    invoke(runner, ["ghz", "--nodes", "1", "--out", str(a)])
    invoke(runner, ["ghz", "--nodes", "16", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_ghz_shot_mode_passes_check_at_large_budget(runner, tmp_path):
    result = invoke(runner, ["ghz", "--shots", "10000", "--seed", "0",
                             "--check", "--out", str(tmp_path / "o.json")])
    assert result.exit_code == 0


def test_ghz_check_fails_with_starved_budget(runner, tmp_path):
    result = runner.invoke(main, ["ghz", "--shots", "2", "--seed", "3",
                                  "--check", "--out", str(tmp_path / "o.json")])
    assert result.exit_code == 4
    assert "check failed" in combined_output(result)


def test_ghz_check_fails_with_starved_budget_at_seed_4(runner, tmp_path):
    result = runner.invoke(main, ["ghz", "--shots", "2", "--seed", "4",
                                  "--check", "--out", str(tmp_path / "o.json")])
    assert result.exit_code == 4
    assert "check failed" in combined_output(result)


@pytest.mark.parametrize("command", ["ghz", "ghz-cut"])
def test_non_physical_reconstruction_exits_4_under_check_else_3(
        runner, tmp_path, monkeypatch, command):
    import tlpq.cli

    def starved(*args, **kwargs):
        raise NonPhysical("normalization contraction vanished")

    monkeypatch.setattr(tlpq.cli, "pure_state_fidelity", starved)
    args = [command, "--shots", "2", "--out", str(tmp_path / "o.json")]
    result = runner.invoke(main, args + ["--check"])
    assert result.exit_code == 4
    assert "check failed: normalization contraction vanished" in combined_output(result)
    result = runner.invoke(main, args)
    assert result.exit_code == 3
    assert "error: normalization contraction vanished" in combined_output(result)
    assert not (tmp_path / "o.json").exists()


def test_ghz_runs_as_four_overlap_tables_in_one_small_batch_line(monkeypatch):
    """ghz sends its 128 evaluations as four 32-row tables, one per readout,
    table r holding ids 4k + r: one node's batch has four overlap items and
    a line under 4,000 bytes (20,132 as 128 one-row items)."""
    from tlpq.runtime import _batches

    calls = []
    monkeypatch.setattr(cli, "execute_tasks",
                        lambda items, cfg: calls.append(items) or execute_tasks(items, cfg))
    cli.run_ghz_pipeline(ClusterConfig())
    (tables,) = calls
    assert [t.ids.tolist() for t in tables] == [list(range(r, 128, 4)) for r in range(4)]
    (batch,) = _batches(tables, 1, None, 0)
    items = batch.message["items"]
    assert [(item["kind"], item["readout"]) for item in items] == [
        ("overlap", [readout]) for readout in ("ax", "ay", "p0", "p1")]
    assert len(batch.line) < 4000


# --- ghz-cut ----------------------------------------------------------------------


def test_ghz_cut_exact_run(runner, tmp_path):
    out = tmp_path / "cut.json"
    result = invoke(runner, ["ghz-cut", "--out", str(out)])
    assert result.exit_code == 0
    payload = json.loads(out.read_text())
    assert payload["subcircuits"] == 10
    assert payload["settings"] == 160
    assert payload["tasks"] == 320
    assert abs(payload["fidelity"] - 1.0) < 1e-9
    assert abs(payload["raw_trace"] - 1.0) < 1e-10


# --- nonherm ----------------------------------------------------------------------


def parse_csv(text: str) -> tuple[list[str], list[str], list[dict]]:
    lines = text.strip().split("\n")
    comments = [ln for ln in lines if ln.startswith("#")]
    data = [ln for ln in lines if not ln.startswith("#")]
    columns = data[0].split(",")
    rows = []
    for line in data[1:]:
        cells = line.split(",")
        rows.append({c: float(v) for c, v in zip(columns, cells)})
    return comments, columns, rows


def test_nonherm_csv_single_time(runner):
    result = invoke(runner, ["nonherm", "--T", "0.5"])
    assert result.exit_code == 0
    comments, columns, rows = parse_csv(result.output)
    assert any(c.startswith("# R = ") for c in comments)
    assert "# seed = 0" in comments
    expected_columns = ["T", "M", "terms"]
    for name in ("sy", "sz", "R", "sx"):
        expected_columns += [f"{name}_tlp", f"{name}_dense", f"{name}_oracle"]
    assert columns == expected_columns
    assert len(rows) == 1
    row = rows[0]
    assert row["T"] == 0.5 and row["M"] == 10 and row["terms"] == 121
    for name in ("sy", "sz", "R", "sx"):
        assert abs(row[f"{name}_tlp"] - row[f"{name}_dense"]) < 1e-9
        # the quadrature state at T=0.5 has squared overlap ~0.981 with the
        # exact one, which allows Bloch-component deviations up to ~0.28
        assert abs(row[f"{name}_tlp"] - row[f"{name}_oracle"]) < 0.35


def test_nonherm_json_format_and_raw(runner):
    result = invoke(runner, ["nonherm", "--T", "0.3", "--format", "json", "--raw"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["seed"] == 0
    assert len(payload["rows"]) == 1
    assert "sx_tlp" in payload["rows"][0]


def test_nonherm_truncation_emulation_changes_node_count(runner):
    exact = invoke(runner, ["nonherm", "--T", "0.6", "--format", "json"])
    emulated = invoke(runner, ["nonherm", "--T", "0.6", "--format", "json",
                               "--emulate-float-truncation"])
    assert json.loads(exact.output)["rows"][0]["M"] == 12
    assert json.loads(emulated.output)["rows"][0]["M"] == 11


def test_nonherm_check_passes_exact(runner, tmp_path):
    result = invoke(runner, ["nonherm", "--T", "0.5", "--check",
                             "--out", str(tmp_path / "o.csv")])
    assert result.exit_code == 0


def test_nonherm_check_rejects_shot_mode(runner):
    result = runner.invoke(main, ["nonherm", "--T", "0.5", "--shots", "10",
                                  "--check"])
    assert result.exit_code == 2


def one_call_per_plan_rows(cluster: ClusterConfig, t_values) -> list[dict]:
    """The nonherm rows computed the way they were before plans ran as one
    batch: per (T, Pauli letter), Subtask rows -> one one-row table per row ->
    its own execute_tasks call -> ordered reduce; the dense column from node
    states rebuilt for each observable, with O v_b formed inside the pair loop."""
    g, u0 = cli.nonherm_generator()
    r = cli.random_hermitian_observable(cluster.seed)
    paulis = {"sx": PAULI["X"], "sy": PAULI["Y"], "sz": PAULI["Z"]}
    beta = {p: float(np.trace(r @ PAULI[p]).real) / 2.0 for p in "IXYZ"}
    rows = []
    for t in t_values:
        scheme = build_quadrature(0.2, 0.5, t)
        cs = scheme.coeffs
        circuits = [Circuit(1, (Gate("RAW", (0,), raw=unitary_node(g, float(k), scheme.T)),))
                    for k in scheme.nodes]
        coeffs = [complex(x) for x in cs]
        m = len(circuits)
        forms = {}
        for letter in "IXYZ":
            subtasks = [
                Subtask(id=i * m + j, indices=(0, i, j, 0, 0, 0), left_circuit=circuits[i],
                        right_circuit=circuits[j], observable=PauliString(1, letter),
                        input_label="0",
                        coefficient=complex(coeffs[i] * np.conj(coeffs[j]) * (1.0 + 0j)
                                            * np.conj(1.0 + 0j)))
                for i in range(m) for j in range(m)
            ]
            tasks = [one_row_table(s.id, s.left_circuit, s.right_circuit, s.observable,
                                   s.input_label) for s in subtasks]
            total = 0.0 + 0j
            for s, (res,) in zip(subtasks, execute_tasks(tasks, cluster)):
                product = 1.0 + 0j  # one part: every row is its own sibling group
                product *= complex(*res.value)
                total += s.coefficient * product
            forms[letter] = float(total.real)

        def dense(obs):
            v = [unitary_node(g, float(k), scheme.T) @ u0 for k in scheme.nodes]
            numerator = denominator = 0.0 + 0j
            for a in range(m):
                for b in range(m):
                    weight = cs[a] * cs[b]
                    numerator += weight * np.vdot(v[a], obs @ v[b])
                    denominator += weight * np.vdot(v[a], v[b])
            return float((numerator / denominator).real)

        w = trotter_oracle(g, u0, t, 0.01)
        w_norm = float(np.vdot(w, w).real)
        row = {"T": t, "M": scheme.M, "terms": m * m}
        for name, letter in (("sx", "X"), ("sy", "Y"), ("sz", "Z")):
            row[f"{name}_tlp"] = forms[letter] / forms["I"]
            row[f"{name}_dense"] = dense(paulis[name])
            row[f"{name}_oracle"] = float(np.vdot(w, paulis[name] @ w).real) / w_norm
        row["R_tlp"] = sum(beta[p] * forms[p] for p in "IXYZ") / forms["I"]
        row["R_dense"] = dense(r)
        row["R_oracle"] = float(np.vdot(w, r @ w).real) / w_norm
        rows.append(row)
    return rows


@pytest.mark.parametrize("cluster", [
    ClusterConfig(), ClusterConfig(nodes=4), ClusterConfig(shots=100, seed=5),
], ids=["exact", "exact-4-nodes", "shots-100-seed-5"])
def test_nonherm_rows_equal_one_call_per_plan(cluster):
    _, rows = cli.run_nonherm_rows(cluster)
    assert rows == one_call_per_plan_rows(cluster, cli._DEFAULT_NONHERM_T)


def test_nonherm_simulates_each_node_state_once(monkeypatch):
    import tlpq.planner
    import tlpq.runtime

    calls = {"unitary_node": 0, "table": 0, "operand_check": 0}
    node, table = cli.unitary_node, tlpq.planner.OverlapTable

    def count(key):
        def counted(*args, **kwargs):
            calls[key] += 1
        return counted

    steps = record_steps(monkeypatch)
    monkeypatch.setattr(cli, "unitary_node",
                        lambda *a: count("unitary_node")() or node(*a))
    monkeypatch.setattr(table, "__post_init__",
                        lambda self, real=table.__post_init__: count("table")() or real(self))
    monkeypatch.setattr("tlpq.table.check_overlap_operands", count("operand_check"))
    cli.run_nonherm_rows(ClusterConfig())
    circuits = sum(build_quadrature(0.2, 0.5, t).M + 1 for t in cli._DEFAULT_NONHERM_T)
    assert circuits == 120
    # one simulation per node circuit of one gate (4 per circuit when each letter ran
    # alone), all of them one stack through one gate call
    applied = [g for step in steps for g in step]
    assert len(steps) == 1
    assert len(applied) == len({id(g) for g in applied}) == circuits
    # one call per T builds its node stack; the dense column reuses it
    assert calls["unitary_node"] == len(cli._DEFAULT_NONHERM_T) == 10
    assert calls["table"] == 40  # one per plan, none per row
    assert calls["operand_check"] <= circuits


def test_nonherm_runs_the_four_plans_of_each_t_as_one_stack(monkeypatch):
    import tlpq.backend

    stacks = []
    real = tlpq.backend._overlaps
    monkeypatch.setattr(tlpq.backend, "_overlaps",
                        lambda stack, states: stacks.append(stack) or real(stack, states))
    cli.run_nonherm_rows(ClusterConfig())
    assert [len(stack) for stack in stacks] == [4] * len(cli._DEFAULT_NONHERM_T)
    for stack in stacks:  # one T's plans: one channel's columns, letters I, X, Y, Z
        assert len({id(p._derived) for p in stack}) == 1
        assert [p.observables[0].letters for p in stack] == list("IXYZ")


def test_the_one_node_nonherm_batch_sends_each_plan_as_one_table(monkeypatch):
    from tlpq.runtime import _batches

    plans = []
    real = cli.estimate_plans
    monkeypatch.setattr(cli, "estimate_plans", lambda p, cfg: plans.extend(p) or real(p, cfg))
    cli.run_nonherm_rows(ClusterConfig())
    (batch,) = _batches(plans, 1, None, 0)
    assert len(plans) == len(batch.message["items"]) == 40
    assert len(batch.line) < 200_000  # 793,793 bytes as one dict per row


def test_nonherm_over_a_worker_process_matches_local(runner, tmp_path):
    args = ["nonherm", "--T", "0.3,0.6", "--format", "json", "--check"]
    local = invoke(runner, args)
    with worker_process() as (proc, line):
        address = line.rsplit(" ", 1)[-1]
        net = invoke(runner, args + ["--mode", "network", "--workers", address])
        host, _, port = address.rpartition(":")
        with socket.create_connection((host, int(port)), timeout=10) as sock:
            sock.sendall(b'{"type": "shutdown"}\n')
        assert proc.wait(timeout=10) == 0
    assert local.exit_code == net.exit_code == 0
    assert net.output == local.output  # the same values, bit for bit


# --- imagtime ---------------------------------------------------------------------


def test_imagtime_csv_default_sweep(runner):
    result = invoke(runner, ["imagtime"])
    assert result.exit_code == 0
    comments, columns, rows = parse_csv(result.output)
    assert "# fidelity_convention = overlap_squared" in comments
    assert columns == ["gamma", "M", "terms", "H_lchs", "sx_lchs", "sz_lchs",
                       "E0_exact", "fidelity", "H_trotter_T05", "H_trotter_T15"]
    assert len(rows) == 11
    assert sum(int(r["terms"]) for r in rows) == 11 * 121
    for row in rows:
        assert row["terms"] == 121
        assert row["E0_exact"] == pytest.approx(2.0 - row["gamma"], abs=1e-12)
        assert row["fidelity"] > 0.99


def test_imagtime_check_passes(runner, tmp_path):
    result = invoke(runner, ["imagtime", "--gamma-list", "0.4,0.8", "--check",
                             "--out", str(tmp_path / "o.csv")])
    assert result.exit_code == 0


def test_imagtime_degenerate_quadrature_exits_3(runner):
    result = runner.invoke(main, ["imagtime", "--eps", "2.0"])
    assert result.exit_code == 3
    assert "error:" in combined_output(result)


@pytest.mark.parametrize("dt", ["0", "-0.01", "nan"])
@pytest.mark.parametrize("command", ["nonherm", "imagtime"])
def test_a_dt_that_is_not_positive_exits_3(runner, command, dt):
    result = runner.invoke(main, [command, "--dt", dt])
    assert result.exit_code == 3
    assert (result.stdout, result.stderr) == ("", "error: dt must be positive\n")


# --- config files ------------------------------------------------------------------


def test_config_file_sets_run_parameters(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"shots": 50, "seed": 7}))
    out = tmp_path / "o.json"
    result = invoke(runner, ["ghz", "--config", str(cfg), "--out", str(out)])
    assert result.exit_code == 0
    payload = json.loads(out.read_text())
    assert payload["shots"] == 50


def test_flags_override_config(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"shots": 50}))
    out = tmp_path / "o.json"
    invoke(runner, ["ghz", "--config", str(cfg), "--shots", "100",
                    "--out", str(out)])
    assert json.loads(out.read_text())["shots"] == 100


def test_config_rejects_unknown_keys(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    result = runner.invoke(main, ["ghz", "--config", str(cfg)])
    assert result.exit_code == 2
    assert "unknown config keys" in combined_output(result)


def test_config_parse_error_reports_position(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    result = runner.invoke(main, ["ghz", "--config", str(cfg)])
    assert result.exit_code == 2
    assert "config parse error at line 1 column" in combined_output(result)


@pytest.mark.parametrize("retry_limit", [2.7, True, "3"])
def test_config_retry_limit_that_is_not_a_count_exits_2(runner, monkeypatch, tmp_path,
                                                        retry_limit):
    monkeypatch.setattr("tlpq.cli.execute_tasks", refuse_to_serve)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"retry_limit": retry_limit}))
    result = runner.invoke(main, ["ghz", "--config", str(cfg)])
    assert result.exit_code == 2, combined_output(result)
    assert "retry_limit must be an integer >= 1" in combined_output(result)


@pytest.mark.parametrize("command, cfg, option", [
    ("ghz-cut", {"shots": 2.7}, "--shots"),
    ("ghz-cut", {"seed": True}, "--seed"),
    ("ghz", {"nodes": 2.9}, "--nodes"),
    ("nonherm", {"T": [True]}, "--T"),
], ids=["shots-float", "seed-bool", "nodes-float", "T-bool-item"])
def test_config_value_means_what_its_flag_text_means(runner, monkeypatch, tmp_path,
                                                    command, cfg, option):
    """A config value is read as the flag's text: values the flag refuses exit 2."""
    monkeypatch.setattr("tlpq.cli.execute_tasks", refuse_to_serve)
    monkeypatch.setattr("tlpq.cli.estimate_plans", refuse_to_serve)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    result = runner.invoke(main, [command, "--config", str(path)])
    assert result.exit_code == 2, combined_output(result)
    assert f"Invalid value for '{option}'" in combined_output(result)


@pytest.mark.parametrize("args, option", [
    (["nonherm", "--T", "0.3,,0.6"], "--T"),
    (["nonherm", "--T", "0.3,"], "--T"),
    (["nonherm", "--T", ""], "--T"),
    (["imagtime", "--gamma-list", ",0.2"], "--gamma-list"),
    (["imagtime", "--gamma-list", "0.2, ,0.4"], "--gamma-list"),
    (["ghz", "--mode", "network", "--workers", "127.0.0.1:1,"], "--workers"),
], ids=["T-middle", "T-trailing", "T-empty", "gamma-leading", "gamma-blank", "workers-trailing"])
def test_an_empty_list_item_on_the_command_line_exits_2_naming_the_option(
        runner, monkeypatch, args, option):
    monkeypatch.setattr("tlpq.cli.execute_tasks", refuse_to_serve)
    monkeypatch.setattr("tlpq.cli.estimate_plans", refuse_to_serve)
    result = runner.invoke(main, args)
    assert result.exit_code == 2, combined_output(result)
    assert f"Invalid value for '{option}': empty item in list" in combined_output(result)


@pytest.mark.parametrize("command, cfg, option", [
    ("nonherm", {"T": "0.3,,0.6"}, "--T"),
    ("nonherm", {"T": [0.3, "", 0.6]}, "--T"),
    ("imagtime", {"gamma_list": [" ", 0.2]}, "--gamma-list"),
    ("ghz", {"mode": "network", "workers": ["127.0.0.1:1", ""]}, "--workers"),
], ids=["T-string", "T-list", "gamma-list-blank", "workers-list"])
def test_an_empty_list_item_in_a_config_file_exits_2_naming_the_option(
        runner, monkeypatch, tmp_path, command, cfg, option):
    monkeypatch.setattr("tlpq.cli.execute_tasks", refuse_to_serve)
    monkeypatch.setattr("tlpq.cli.estimate_plans", refuse_to_serve)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    result = runner.invoke(main, [command, "--config", str(path)])
    assert result.exit_code == 2, combined_output(result)
    assert f"Invalid value for '{option}': empty item in list" in combined_output(result)


def test_network_mode_requires_workers(runner):
    result = runner.invoke(main, ["ghz", "--mode", "network"])
    assert result.exit_code == 2
    assert "needs --workers" in combined_output(result)


@pytest.mark.parametrize("port", ["notaport", "99999", ""])
def test_workers_with_a_bad_port_exit_2_before_any_task_runs(runner, monkeypatch, port):
    monkeypatch.setattr("tlpq.cli.execute_tasks", refuse_to_serve)
    result = runner.invoke(main, ["ghz", "--mode", "network",
                                  "--workers", f"127.0.0.1:{port}"])
    assert result.exit_code == 2, combined_output(result)
    assert "port in 1..65535" in combined_output(result)


def test_workers_flag_requires_network_mode(runner):
    result = runner.invoke(main, ["ghz", "--workers", "127.0.0.1:9"])
    assert result.exit_code == 2


# --- options a command would ignore are rejected -------------------------------------


@pytest.mark.parametrize("args", [
    ["ghz", "--format", "csv"],
    ["ghz-cut", "--format", "csv"],
    ["plan", "--circuit", "ghz4", "--shots", "5"],
    ["plan", "--circuit", "ghz4", "--check"],
    ["plan", "--circuit", "ghz4", "--mode", "network"],
    ["plan", "--circuit", "ghz4", "--workers", "127.0.0.1:1"],
    ["imagtime", "--gamma-list", "0.4", "--shots", "100"],
    ["imagtime", "--gamma-list", "0.4", "--mode", "network",
     "--workers", "127.0.0.1:1"],
    ["imagtime", "--gamma-list", "0.4", "--nodes", "4"],
    ["imagtime", "--gamma-list", "0.4", "--seed", "9"],
    ["imagtime", "--gamma-list", "0.4", "--workers", "127.0.0.1:1"],
    ["ghz", "--mode", "network", "--workers", "127.0.0.1:1", "--nodes", "4"],
], ids=["ghz-format-csv", "ghz-cut-format-csv", "plan-shots", "plan-check",
        "plan-mode-network", "plan-workers", "imagtime-shots", "imagtime-network",
        "imagtime-nodes", "imagtime-seed", "imagtime-workers", "ghz-network-nodes"])
def test_ignored_options_exit_2(runner, tmp_path, args):
    with runner.isolated_filesystem(temp_dir=tmp_path):
        result = runner.invoke(main, args)
        assert result.exit_code == 2, combined_output(result)
        assert not any(p.name.endswith(".json") for p in tmp_path.rglob("*"))


def test_config_nodes_rejected_in_network_mode(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode": "network", "workers": ["127.0.0.1:1"], "nodes": 4}))
    result = runner.invoke(main, ["nonherm", "--T", "0.1", "--config", str(cfg)])
    assert result.exit_code == 2
    assert "--nodes applies to local mode" in combined_output(result)


def test_config_csv_format_rejected_for_ghz(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"format": "csv"}))
    result = runner.invoke(main, ["ghz", "--config", str(cfg)])
    assert result.exit_code == 2
    assert "JSON only" in combined_output(result)


@pytest.mark.parametrize("args, cfg", [
    (["plan", "--circuit", "ghz4"],
     {"shots": 5, "mode": "network", "workers": ["127.0.0.1:1"]}),
    (["ghz"], {"eps": 0.9, "gamma_list": [0.4]}),
    (["ghz-cut"], {"T": [0.5], "normalize": False}),
    (["nonherm", "--T", "0.1"], {"gamma_list": [0.4], "circuit": "ghz4"}),
    (["imagtime", "--gamma-list", "0.4"], {"emulate_float_truncation": True}),
    (["imagtime", "--gamma-list", "0.4"],
     {"mode": "local", "nodes": 4, "seed": 9, "retry_limit": 5}),
], ids=["plan", "ghz", "ghz-cut", "nonherm", "imagtime", "imagtime-cluster"])
def test_config_keys_a_command_does_not_read_exit_2(runner, tmp_path, args, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    with runner.isolated_filesystem(temp_dir=tmp_path):
        result = runner.invoke(main, args + ["--config", str(path)])
        assert result.exit_code == 2, combined_output(result)
        for key in cfg:
            assert repr(key) in combined_output(result)
        assert [p.name for p in tmp_path.rglob("*") if p.is_file()] == ["cfg.json"]


@pytest.mark.parametrize("command, flags, cfg", [
    ("nonherm",
     ["--T", "0.4,0.6", "--eps", "0.25", "--raw", "--format", "json"],
     {"T": [0.4, 0.6], "eps": 0.25, "normalize": False, "format": "json"}),
    ("imagtime",
     ["--gamma-list", "0.4,0.8", "--T", "0.7"],
     {"gamma_list": [0.4, 0.8], "T": 0.7}),
    ("ghz",
     ["--shots", "100", "--seed", "3"],
     {"shots": 100, "seed": 3, "retry_limit": 3}),
    ("nonherm",
     ["--T", "0.6", "--emulate-float-truncation", "--nodes", "3"],
     {"T": [0.6], "emulate_float_truncation": True, "nodes": 3}),
], ids=["nonherm", "imagtime", "ghz", "nonherm-flag-and-count"])
def test_config_file_matches_the_same_flags(runner, tmp_path, command, flags, cfg):
    """A config file gives byte-identical output to the flags it stands for."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    by_flags, by_config = tmp_path / "flags.out", tmp_path / "config.out"
    first = invoke(runner, [command, *flags, "--out", str(by_flags)])
    second = invoke(runner, [command, "--config", str(path), "--out", str(by_config)])
    assert first.exit_code == 0 and second.exit_code == 0
    assert first.output == second.output
    assert by_flags.read_bytes() == by_config.read_bytes()


@pytest.mark.parametrize("command", sorted(main.commands))
def test_every_command_has_help(runner, command):
    result = invoke(runner, [command, "--help"])
    assert result.exit_code == 0
    assert result.output.startswith("Usage:")


# --- worker subprocess ---------------------------------------------------------------


@contextmanager
def worker_process():
    """A `tlpq worker` child process on a free port, and its first output
    line; killed if still running afterwards, with its output pipe closed."""
    env = dict(os.environ)  # the child imports tlpq from this checkout's src
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    with subprocess.Popen(
        [sys.executable, "-m", "tlpq.cli", "worker", "--listen", "127.0.0.1:0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        bufsize=1,
        env=env,
    ) as proc:
        try:
            yield proc, proc.stdout.readline().strip()
        finally:
            if proc.poll() is None:
                proc.kill()


def test_worker_announces_and_stops_on_shutdown(tmp_path):
    with worker_process() as (proc, line):
        assert line.startswith("tlpq-worker listening on 127.0.0.1:")
        host, _, port = line.rsplit(" ", 1)[-1].rpartition(":")
        with socket.create_connection((host, int(port)), timeout=10) as sock:
            f = sock.makefile("rwb")
            f.write((json.dumps({"type": "hello", "proto": PROTOCOL_VERSION})
                     + "\n").encode())
            f.flush()
            ack = json.loads(f.readline().decode())
            assert ack["type"] == "hello_ack"
            f.write(b'{"type": "shutdown"}\n')
            f.flush()
        assert proc.wait(timeout=10) == 0


@pytest.mark.parametrize("command", ["ghz", "ghz-cut"])
def test_network_run_on_a_worker_process_matches_local(runner, tmp_path, command):
    local, net = tmp_path / "local.json", tmp_path / "net.json"
    assert invoke(runner, [command, "--check", "--out", str(local)]).exit_code == 0
    with worker_process() as (proc, line):
        address = line.rsplit(" ", 1)[-1]
        result = invoke(runner, [command, "--mode", "network", "--workers", address,
                                 "--check", "--out", str(net)])
        assert result.exit_code == 0
        host, _, port = address.rpartition(":")
        with socket.create_connection((host, int(port)), timeout=10) as sock:
            sock.sendall(b'{"type": "shutdown"}\n')
        assert proc.wait(timeout=10) == 0
    by_local, by_net = json.loads(local.read_text()), json.loads(net.read_text())
    assert (by_local.pop("mode"), by_net.pop("mode")) == ("local", "network")
    assert by_net == by_local  # the same values, bit for bit


def refuse_to_serve(*args, **kwargs):
    pytest.fail("a worker or a task started on a bad option")


@pytest.mark.parametrize("address", ["foo", "127.0.0.1:notaport", "127.0.0.1:",
                                     "127.0.0.1:70000"])
def test_worker_rejects_a_listen_address_without_a_port(runner, monkeypatch, address):
    monkeypatch.setattr("tlpq.commands.serve_worker", refuse_to_serve)
    result = runner.invoke(main, ["worker", "--listen", address])
    assert result.exit_code == 2
    assert "--listen" in combined_output(result)


@pytest.mark.parametrize("max_qubits", ["0", "-3"])
def test_worker_rejects_a_max_qubits_below_one(runner, monkeypatch, max_qubits):
    monkeypatch.setattr("tlpq.commands.serve_worker", refuse_to_serve)
    result = runner.invoke(main, ["worker", "--listen", "127.0.0.1:0",
                                  "--max-qubits", max_qubits])
    assert result.exit_code == 2
    assert "--max-qubits" in combined_output(result)


@pytest.mark.parametrize("command", ["nonherm", "ghz", "ghz-cut"])
@pytest.mark.parametrize("seed", ["-1", "-7"])
def test_a_negative_seed_exits_2_before_any_task_runs(runner, monkeypatch, command, seed):
    monkeypatch.setattr("tlpq.cli.execute_tasks", refuse_to_serve)
    monkeypatch.setattr("tlpq.cli.estimate_plans", refuse_to_serve)
    result = runner.invoke(main, [command, "--seed", seed])
    assert result.exit_code == 2
    assert "seed must be an integer >= 0" in combined_output(result)


@pytest.mark.parametrize("module", ["tlpq.cli", "tlpq.runtime"])
def test_importing_a_command_or_a_worker_leaves_numpy_random_unimported(module):
    # its cold import (with secrets, hmac and _hashlib) is paid by the first
    # draw that needs it, not by every process that imports tlpq
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = (f"import sys, {module}; "
            "print(sorted(m for m in sys.modules if m.startswith('numpy.random')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=60, check=True)
    assert out.stdout.strip() == "[]"


# --- what each process imports ----------------------------------------------------
#
# Every process compiles what it imports, so code it never runs costs it time
# and memory: a worker and a channel-plan controller load neither click, the
# evolution toolkit nor the GHZ demonstration.


def loaded_after(code: str) -> list:
    """Run ``code`` in a fresh interpreter and return the JSON it prints last."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=60, check=True)
    return json.loads(out.stdout.splitlines()[-1])


MODULES = "sorted(sys.modules)"
ADDED = "sorted(set(sys.modules) - before)"
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tlpq"
# the modules that ``import tlpq`` leaves to their first use
FIRST_USE = {"lchs", "ghz", "cli", "commands"}


def test_importing_tlpq_loads_the_channel_and_worker_layers_only():
    loaded = set(loaded_after(f"import json, sys, tlpq; print(json.dumps({MODULES}))"))
    assert {"tlpq.circuit", "tlpq.partition", "tlpq.factorize", "tlpq.planner",
            "tlpq.runtime"} <= loaded
    assert not loaded & {"tlpq.lchs", "tlpq.ghz", "tlpq.cli", "tlpq.commands",
                         "fractions", "click"}
    # every other module loads with the package: the benchmark's tracer rebinds
    # functions only in the modules loaded when it installs, and its controller
    # reads tlpq.<module> inside its timed run, where a first import would land
    eager = {f"tlpq.{p.stem}" for p in PACKAGE.glob("*.py")} - {"tlpq.__init__"}
    assert eager - {f"tlpq.{m}" for m in FIRST_USE} <= loaded


# A process that writes no bytecode cache (PYTHONDONTWRITEBYTECODE=1, as the
# benchmark's controllers and workers run) compiles tlpq from source, and the
# memory that a module's compile() frees stays resident, so the largest module
# sets a floor under every process's peak (CHANGES.md, the compile-step
# entry). Counted as the ROADMAP Baseline counts module sizes.
MAX_MODULE_TOKENS = 3300
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}


def test_no_module_is_one_compile_of_more_than_3300_tokens():
    sizes = {}
    for path in sorted(PACKAGE.glob("*.py")):
        with path.open("rb") as source:
            sizes[path.name] = sum(t.type not in NOT_CODE
                                   for t in tokenize.tokenize(source.readline))
    assert {name: n for name, n in sizes.items() if n > MAX_MODULE_TOKENS} == {}


def test_importing_the_drivers_leaves_click_and_the_ghz_demo_unimported():
    loaded = set(loaded_after(f"import json, sys, tlpq.cli; print(json.dumps({MODULES}))"))
    assert "tlpq.lchs" in loaded
    assert not loaded & {"click", "tlpq.commands", "tlpq.ghz"}


def test_a_nonherm_sweep_after_importing_the_drivers_imports_no_tlpq_module_or_click():
    added = loaded_after(
        "import json, sys, tlpq.cli\n"
        "before = set(sys.modules)\n"
        "tlpq.cli.run_nonherm_rows(tlpq.runtime.ClusterConfig(), t_values=(0.3,))\n"
        f"print(json.dumps({ADDED}))")
    assert [m for m in added if m.startswith("tlpq") or m.startswith("click")] == []


def test_the_tlp_route_and_a_density_task_after_importing_tlpq_import_no_tlpq_module():
    # built as the benchmark's wide-net controller builds its two routes
    added = loaded_after(
        "import json, sys, tlpq\n"
        "before = set(sys.modules)\n"
        "c = tlpq.circuit\n"
        "gates = [('H', (q,), ()) for q in range(4)] + [('CZ', (0, 1), ()),\n"
        "         ('RY', (2,), (0.4,)), ('CZ', (2, 3), ()), ('CZ', (1, 2), ()),\n"
        "         ('RX', (1,), (0.7,))]\n"
        "circuit = c.Circuit(4, tuple(c.Gate(k, q, params=p) for k, q, p in gates))\n"
        "cut = tlpq.partition.balanced_bisection(tlpq.partition.build_graph(circuit))\n"
        "decomposition = tlpq.factorize.expand_layered(circuit, cut)\n"
        "unitary = tlpq.planner.FactorizedUnitary.from_layered(decomposition)\n"
        "channel = tlpq.planner.ChannelLCU(branches=(((1.0 + 0j,), (unitary,)),))\n"
        "parts = decomposition.part_qubits\n"
        "plan = tlpq.planner.enumerate_subtasks(channel, tuple('0' * len(p) for p in parts),\n"
        "    tuple(c.PauliString(len(p), 'Z' * len(p)) for p in parts))\n"
        "cluster = tlpq.runtime.ClusterConfig(seed=3)\n"
        "tlpq.runtime.aggregate(plan, tlpq.runtime.run_plan(plan, cluster))\n"
        "_, (ops_a, _) = tlpq.factorize.cz_cutting_decomposition().terms[1]\n"
        "task = tlpq.runtime.TaskSpec(id=0, kind='density', readouts=('e:ZI', 'e:XX'),\n"
        "    circuit=c.Circuit(2, (c.Gate('H', (0,)), c.Gate('RAW', (0,), raw=ops_a[0]))))\n"
        "tlpq.runtime.execute_tasks([task], cluster)\n"
        f"print(json.dumps({ADDED}))")
    assert [m for m in added if m.startswith("tlpq")] == []


def test_every_public_name_resolves_and_the_console_entry_is_the_click_group():
    resolved = loaded_after(
        "import json, click, tlpq, tlpq.cli\n"
        "names = [n for n in tlpq.__all__ if getattr(tlpq, n, None) is None]\n"
        "modules = [tlpq.lchs.__name__, tlpq.ghz.__name__]\n"
        "print(json.dumps([names, modules, isinstance(tlpq.cli.main, click.Group),\n"
        "    tlpq.cli.main is __import__('tlpq.commands').commands.main]))")
    assert resolved == [[], ["tlpq.lchs", "tlpq.ghz"], True, True]
    import tlpq

    for module in (tlpq, cli):
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            module.no_such_name


def test_python_dash_m_tlpq_cli_runs_the_command_line():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-m", "tlpq.cli", "plan", "--circuit", "ghz4"],
                         capture_output=True, text=True, env=env, timeout=60, check=True)
    assert json.loads(out.stdout)["comparison"] == {"m": 1, "ours": 16, "cutting": 160}


def test_python_dash_m_tlpq_cli_runs_cli_py_once():
    # under -m cli.py runs as __main__; commands.py, which imports the pipeline
    # functions from tlpq.cli, must find that module, not import the file again
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-X", "importtime", "-m", "tlpq.cli", "--help"],
                         capture_output=True, text=True, env=env, timeout=60, check=True)
    imported = [line.rsplit("|", 1)[-1].strip() for line in out.stderr.splitlines()
                if line.startswith("import time:")]
    assert "tlpq.commands" in imported and "tlpq.cli" not in imported
