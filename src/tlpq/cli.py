"""Command-line entry point: experiment subcommands, config handling, worker mode.

Subcommands: plan (partition/count report for a circuit), ghz (overlap-plan
state reconstruction), ghz-cut (wire-cut density baseline), nonherm
(non-Hermitian evolution sweep), imagtime (imaginary-time ground-state sweep),
worker (serve tasks over TCP).

Each command's click options are the only declaration of its settings and
their defaults. ``--config FILE`` gives the options new defaults: its keys are
the options' long names with "-" as "_", plus ``retry_limit`` for the commands
that run tasks; a flag on the command line still wins, and any other key exits
2. imagtime runs dense in-process code and takes no cluster options.

Exit codes: 0 success, 2 configuration error, 3 execution error, 4 acceptance
threshold violated under --check (for ghz and ghz-cut this includes a sampled
reconstruction that is not physical).
"""

from __future__ import annotations

import json
import sys

import click
import numpy as np
from click.core import ParameterSource

from .circuit import (
    PAULI_1Q,
    Circuit,
    CircuitFormatError,
    Gate,
    PauliString,
    NotUnitary,
    _matrix_to_json,
    parse_circuit,
)
from .factorize import UnsupportedCrossingGate, expand_layered
from .lchs import (
    GeneratorSpec,
    build_quadrature,
    exact_ground,
    imaginary_time,
    lchs_forms,
    trotter_oracle,
    unitary_node,
)
from .linalg import pure_state_fidelity, vector_fidelity
from .partition import balanced_bisection, build_graph, global_min_cut
from .planner import (
    PAULI_2Q_LABELS,
    ChannelLCU,
    FactorizedUnitary,
    NonPhysical,
    OverlapTable,
    assemble_grams,
    enumerate_subtasks,
    ghz4_template,
    ghz_cutting_plan,
    ghz_overlap_plan,
    ghz_state,
    reconstruct_density_matrix,
    scaling_counts,
)
from .runtime import (
    ClusterConfig,
    ExactBackend,
    TaskSpec,
    _host_port,
    estimate_plans,
    execute_tasks,
    serve_worker,
)

_DEFAULT_NONHERM_T = tuple(0.1 + j * 0.1 for j in range(10))
_DEFAULT_GAMMAS = tuple(0.2 * k for k in range(11))

# the label imagtime's outputs carry for vector_fidelity, a squared overlap
FIDELITY_CONVENTION = "overlap_squared"


# --- drivers (importable; the click commands are thin wrappers) -----------------

def run_ghz_pipeline(cluster: ClusterConfig) -> dict:
    """Overlap-plan pipeline: 128 evaluations as four 32-row overlap tables, one
    per readout -> gram tables -> 16x16 state.

    Table r holds the evaluations with ids 4k + r, each row with its own id,
    so every evaluation keeps the shot stream (seed, id, 0) it has as a
    one-row task. The tables share the four template circuits."""
    templates, plan = ghz_overlap_plan()
    circuits = templates[0] + templates[1]  # template t is circuits 2t (left) and 2t + 1
    observables = tuple(PauliString(2, setting) for setting in PAULI_2Q_LABELS)
    tables = []
    for readout in ("ax", "ay", "p0", "p1"):
        rows = [ev for ev in plan if ev.readout == readout]
        tables.append(OverlapTable(
            circuits=circuits, observables=observables, labels=("00",),
            ids=[ev.id for ev in rows], left=[2 * ev.template for ev in rows],
            right=[2 * ev.template + 1 for ev in rows],
            observable=[PAULI_2Q_LABELS.index(ev.setting) for ev in rows],
            label=[0] * len(rows), readouts=(readout,)))
    results = execute_tasks(tables, cluster)
    values = dict(sorted((r.task_id, r.value[0]) for table in results for r in table))
    gram_a, gram_b = assemble_grams(plan, values)
    exact = cluster.shots is None
    rho = reconstruct_density_matrix(gram_a, gram_b, check_physical=exact)
    fidelity = pure_state_fidelity(rho, ghz_state(4), clip=not exact)
    return {
        "rho": rho,
        "fidelity": fidelity,
        "evaluations": len(plan),
        "values": values,
    }


def run_ghz_cut_pipeline(cluster: ClusterConfig) -> dict:
    """Wire-cut baseline: 10 subcircuit pairs x 16 settings on the density path."""
    subcircuits, settings, combiner = ghz_cutting_plan()
    tasks = []
    for st in settings:
        circ_a, circ_b = subcircuits[st.term]
        tasks.append(
            TaskSpec(id=2 * st.id, kind="density", circuit=circ_a,
                     readouts=(f"e:{st.pauli}",))
        )
        tasks.append(
            TaskSpec(id=2 * st.id + 1, kind="density", circuit=circ_b,
                     readouts=(f"e:{st.pauli}",))
        )
    results = execute_tasks(tasks, cluster)
    by_id = {r.task_id: r.value[0] for r in results}
    pairs = [(by_id[2 * st.id], by_id[2 * st.id + 1]) for st in settings]
    rho, raw_trace = combiner(pairs)
    fidelity = pure_state_fidelity(rho, ghz_state(4), clip=cluster.shots is not None)
    return {
        "rho": rho,
        "fidelity": fidelity,
        "subcircuits": len(subcircuits),
        "settings": len(settings),
        "tasks": len(tasks),
        "raw_trace": raw_trace,
    }


def nonherm_generator() -> tuple[GeneratorSpec, np.ndarray]:
    """The driven-dissipative benchmark: H = sigma_x, L = I + sigma_z, u0 = |0>."""
    return (GeneratorSpec(H=PAULI_1Q["X"], L=np.eye(2) + PAULI_1Q["Z"]),
            np.array([1.0, 0.0], dtype=complex))


def random_hermitian_observable(seed: int) -> np.ndarray:
    """Seed-derived 2 x 2 Hermitian observable, written to output headers."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return (g + g.conj().T) / 2.0


def _channel_from_unitaries(unitaries, coeffs) -> ChannelLCU:
    """One-branch ChannelLCU whose unitaries are the quadrature node evolutions."""
    fus = tuple(
        FactorizedUnitary.from_circuits((Circuit(1, (Gate("RAW", (0,), raw=u),)),))
        for u in unitaries
    )
    return ChannelLCU(branches=((tuple(complex(c) for c in coeffs), fus),))


def run_nonherm_rows(
    cluster: ClusterConfig,
    *,
    eps: float = 0.2,
    c: float = 0.5,
    dt: float = 0.01,
    t_values: tuple[float, ...] = _DEFAULT_NONHERM_T,
    emulate_float_truncation: bool = False,
    normalize: bool = True,
) -> tuple[np.ndarray, list[dict]]:
    """One row per T with sy/sz/R/sx columns for methods tlp, dense, oracle.

    The tlp column is the raw quadratic form <sum c_k U_k u0 | P | sum c_k' U_k' u0>
    per 1-qubit Pauli P, run as planner subtasks through the runtime: all
    T x 4 Pauli plans go to one estimate_plans call, and the 4 plans of one T
    share its node circuits, so they run as one stack and each node state is
    simulated once. Each T's node unitaries are one ``unitary_node`` stack
    (one ``np.linalg.eigh``), which the dense column reuses, forming its four
    observables and the identity form in one ``lchs_forms`` pass. The oracle
    column walks one ``trotter_oracle`` trajectory through every T.
    """
    g, u0 = nonherm_generator()
    observable_r = random_hermitian_observable(cluster.seed)
    beta = {p: float(np.trace(observable_r @ mat).real) / 2.0 for p, mat in PAULI_1Q.items()}
    schemes = [
        build_quadrature(eps, c, t, emulate_float_truncation=emulate_float_truncation)
        for t in t_values
    ]
    # the reference integrator checks dt against every T, before any task runs
    oracles = trotter_oracle(g, u0, t_values, dt)
    unitaries = [unitary_node(g, s.nodes, s.T) for s in schemes]
    plans = []
    for scheme, us in zip(schemes, unitaries):
        channel = _channel_from_unitaries(us, scheme.coeffs)
        plans += [
            enumerate_subtasks(channel, ("0",), (PauliString(1, letter),))
            for letter in PAULI_1Q
        ]
    values = estimate_plans(plans, cluster)
    letters = len(PAULI_1Q)
    forms_per_t = [
        {letter: float(v.real) for letter, v in zip(PAULI_1Q, values[k:k + letters])}
        for k in range(0, len(plans), letters)
    ]
    rows: list[dict] = []
    for t, scheme, us, forms, w in zip(t_values, schemes, unitaries, forms_per_t, oracles):
        norm_form = forms["I"]
        dense = lchs_forms(
            us @ u0, scheme.coeffs,
            (PAULI_1Q["X"], PAULI_1Q["Y"], PAULI_1Q["Z"], observable_r), normalize,
        )
        w_norm = float(np.vdot(w, w).real)
        row = {"T": t, "M": scheme.M, "terms": (scheme.M + 1) ** 2}
        for (name, letter), dense_value in zip(
            (("sx", "X"), ("sy", "Y"), ("sz", "Z")), dense
        ):
            raw = forms[letter]
            row[f"{name}_tlp"] = raw / norm_form if normalize else raw
            row[f"{name}_dense"] = dense_value
            row[f"{name}_oracle"] = float(np.vdot(w, PAULI_1Q[letter] @ w).real) / w_norm
        raw_r = sum(beta[p] * forms[p] for p in PAULI_1Q)
        row["R_tlp"] = raw_r / norm_form if normalize else raw_r
        row["R_dense"] = dense[3]
        row["R_oracle"] = float(np.vdot(w, observable_r @ w).real) / w_norm
        rows.append(row)
    return observable_r, rows


def run_imagtime_rows(
    *,
    eps: float = 0.3,
    c: float = 1.0,
    big_t: float = 0.5,
    dt: float = 0.01,
    gammas: tuple[float, ...] = _DEFAULT_GAMMAS,
    normalize: bool = True,
) -> list[dict]:
    """One row per gamma: LCHS expectations, exact ground energy, fidelity, baselines.

    The sweep is dense in-process code that never reaches the task runtime.
    Each gamma's node states are built once and serve the state and all
    three expectations, and one ``trotter_oracle`` trajectory passes its
    three horizons (``big_t``, 0.5 and 1.5)."""
    sx, sz = PAULI_1Q["X"], PAULI_1Q["Z"]
    scheme = build_quadrature(eps, c, big_t)
    u0 = np.array([1.0, 0.0], dtype=complex)
    rows: list[dict] = []
    for gamma in gammas:
        h_gamma = 2.0 * np.eye(2, dtype=complex) + gamma * sx
        gen = GeneratorSpec(H=np.zeros((2, 2), dtype=complex), L=h_gamma)
        result = imaginary_time(h_gamma, big_t, scheme, u0=u0)
        reference, *baselines = trotter_oracle(gen, u0, (big_t, 0.5, 1.5), dt)
        h_lchs, sx_lchs, sz_lchs = lchs_forms(
            result.per_node_states, scheme.coeffs, (h_gamma, sx, sz), normalize
        )
        row = {
            "gamma": gamma,
            "M": scheme.M,
            "terms": (scheme.M + 1) ** 2,
            "H_lchs": h_lchs,
            "sx_lchs": sx_lchs,
            "sz_lchs": sz_lchs,
            "E0_exact": exact_ground(h_gamma)[0],
            "fidelity": vector_fidelity(result.state, reference),
        }
        for label, w in zip(("H_trotter_T05", "H_trotter_T15"), baselines):
            row[label] = float(np.vdot(w, h_gamma @ w).real / np.vdot(w, w).real)
        rows.append(row)
    return rows


def plan_report(circ: Circuit) -> dict:
    """Partition summary plus subtask-count comparison for one circuit."""
    graph = build_graph(circ)
    min_cut = global_min_cut(graph)
    bisection = balanced_bisection(graph)

    def cut_payload(cut) -> dict:
        p0, p1 = cut.parts()
        return {
            "part0": list(p0),
            "part1": list(p1),
            "weight": cut.weight,
            "crossing_gates": list(cut.crossing_gate_indices),
        }

    term_count: int | None = None
    subtasks: int | None = None
    try:
        decomposition = expand_layered(circ, min_cut)
        term_count = decomposition.term_count
        subtasks = 2 * term_count**2
    except (UnsupportedCrossingGate, NotUnitary, ValueError):
        pass
    m_prime = min_cut.weight
    return {
        "n_qubits": circ.n_qubits,
        "edges": {f"{u}-{v}": w for (u, v), w in sorted(graph.edges.items())},
        "min_cut": cut_payload(min_cut),
        "bisection": cut_payload(bisection),
        "m_prime": m_prime,
        "term_count": term_count,
        "subtasks_per_observable": subtasks,
        "comparison": {"m": m_prime, **scaling_counts(m_prime)},
    }


# --- option plumbing -------------------------------------------------------------
#
# --config is read before the other options and its values become their
# defaults (ctx.default_map). --config and --check are flags only, and a null
# value in the file means the option's default.


class _ListType(click.ParamType):
    """A list option: comma-separated on the command line, a JSON list (or the
    same comma-separated string) in a config file. Each item is converted
    from its text, so a config file's item means what it means in the flag."""

    name = "list"

    def __init__(self, item: type):
        self.item = item

    def convert(self, value, param, ctx):
        if not isinstance(value, (list, tuple)):
            value = [piece.strip() for piece in str(value).split(",") if piece.strip()]
        try:
            return tuple(self.item(str(x)) for x in value)
        except (TypeError, ValueError) as exc:
            self.fail(f"bad list {value!r}: {exc}", param, ctx)


def _read_json(path: str, what: str):
    """The JSON value of the file at ``path``; an unreadable or malformed
    file exits 2, naming ``what`` the file is."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise click.UsageError(
            f"{what} parse error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        )
    except OSError as exc:
        raise click.UsageError(f"cannot read {what}: {exc}")


def _config_option(*config_only: str):
    """--config FILE for a command; ``config_only`` are keys without a flag,
    which stay in the default map under their own name."""

    def load(ctx: click.Context, param: click.Parameter, path: str | None) -> None:
        if path is None:
            return
        cfg = _read_json(path, "config")
        if not isinstance(cfg, dict):
            raise click.UsageError("config file must hold a JSON object")
        options = {
            p.opts[0][2:].replace("-", "_"): p
            for p in ctx.command.params
            if isinstance(p, click.Option) and p is not param and p.name != "check"
        }
        unknown = set(cfg) - set(options) - set(config_only)
        if unknown:
            raise click.UsageError(f"unknown config keys {sorted(unknown)} for {ctx.info_name}")
        for key, value in cfg.items():
            if isinstance(value, (list, dict)) and not (
                key in options and isinstance(options[key].type, _ListType)
            ):
                raise click.UsageError(f"config key {key!r} takes a single value")
        # an option's single value is given as its text, so it means what that
        # text means on the command line; a config-only key keeps its JSON value
        ctx.default_map = {
            options[key].name if key in options else key:
                str(value) if key in options and not isinstance(value, list) else value
            for key, value in cfg.items()
            if value is not None
        }

    return click.option("--config", type=click.Path(dir_okay=False), is_eager=True,
                        expose_value=False, callback=load,
                        help="JSON config file of option defaults; flags override it.")


def _stack(*options):
    """One decorator applying ``options`` in the order listed."""

    def decorate(f):
        for option in reversed(options):
            f = option(f)
        return f

    return decorate


_cluster_options = _stack(
    _config_option("retry_limit"),
    click.option("--mode", type=click.Choice(["local", "network"]), default=ClusterConfig.mode,
                 help="Run tasks in-process or on TCP workers."),
    click.option("--nodes", type=int, default=ClusterConfig.nodes, help="Local node count."),
    click.option("--workers", type=_ListType(str), default=None,
                 help="Comma-separated host:port worker addresses (network mode)."),
    click.option("--shots", type=int, default=None,
                 help="Samples per readout; omit for exact expectations."),
    click.option("--seed", type=int, default=ClusterConfig.seed, help="Run seed."),
)


def _output_options(out_default: str | None, fmt_default: str):
    return _stack(
        click.option("--out", "out_path", default=out_default,
                     type=click.Path(dir_okay=False, writable=True),
                     help="Output file." if out_default else "Output file (default: stdout)."),
        click.option("--format", "fmt", type=click.Choice(["json", "csv"]),
                     default=fmt_default, help="Output format."),
        click.option("--check", is_flag=True,
                     help="Exit 4 if the run misses its acceptance threshold."),
    )


def _make_cluster(mode, nodes, workers, shots, seed) -> ClusterConfig:
    """The cluster of a task-running command; its retry_limit has no flag and
    comes from the config file, if there."""
    if mode == "network":
        if not workers:
            raise click.UsageError("network mode needs --workers host:port[,host:port...]")
        if click.get_current_context().get_parameter_source("nodes") != ParameterSource.DEFAULT:
            raise click.UsageError("--nodes applies to local mode; network mode runs "
                                   "one node per --workers address")
        nodes = workers
    elif workers:
        raise click.UsageError("--workers requires --mode network")
    retry_limit = click.get_current_context().lookup_default("retry_limit")
    try:
        return ClusterConfig(
            mode=mode,
            nodes=nodes,
            shots=shots,
            seed=seed,
            retry_limit=ClusterConfig.retry_limit if retry_limit is None else retry_limit,
        )
    except ValueError as exc:
        raise click.UsageError(str(exc))


def _write_text(out_path: str | None, text: str):
    if out_path is None:
        click.echo(text, nl=False)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _write_json(out_path: str | None, obj) -> None:
    _write_text(out_path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _fmt_cell(x) -> str:
    return str(x) if isinstance(x, int) else repr(float(x))


def _write_rows(out_path: str | None, fmt: str, columns: list[str], rows: list[dict],
                header: dict) -> None:
    """A sweep's rows: as CSV under one "# key = value" line per header entry
    (a str value as it is, any other value as JSON), or as JSON with the
    header's keys beside "rows"."""
    if fmt == "json":
        return _write_json(out_path, {**header, "rows": rows})
    lines = [f"# {key} = {value if isinstance(value, str) else json.dumps(value)}"
             for key, value in header.items()]
    lines.append(",".join(columns))
    lines += [",".join(_fmt_cell(row[c]) for c in columns) for row in rows]
    _write_text(out_path, "\n".join(lines) + "\n")


def _fail_check(message: str):
    """A run that misses its acceptance threshold under --check: exit 4."""
    click.echo(f"check failed: {message}", err=True)
    sys.exit(4)


def _run_guard(fn):
    """Run a command body; map unexpected failures to exit code 3."""
    try:
        return fn()
    except click.ClickException:
        raise
    except SystemExit:
        raise
    except Exception as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(3)


# --- commands --------------------------------------------------------------------

@click.group(context_settings={"show_default": True})
def main():
    """Factorize channel expectations into single-ancilla subtasks, run them on
    local or networked simulated QPU nodes, and aggregate classically."""


@main.command("plan")
@click.option("--circuit", "circuit_path", required=True,
              help="Circuit JSON path, or the literal 'ghz4' for the built-in template.")
@_config_option()
@click.option("--out", "out_path", default=None,
              type=click.Path(dir_okay=False, writable=True),
              help="Output file (default: stdout).")
def cmd_plan(circuit_path, out_path):
    """Report the interaction graph, cuts, and subtask-count comparison.

    plan runs no tasks, so it takes no cluster, shot or check options."""
    if circuit_path == "ghz4":
        circ = ghz4_template()
    else:
        obj = _read_json(circuit_path, "circuit")
        try:
            circ = parse_circuit(obj)
        except (CircuitFormatError, NotUnitary) as exc:
            raise click.UsageError(f"bad circuit: {exc}")

    _run_guard(lambda: _write_json(out_path, plan_report(circ)))


def _ghz_command(name: str, doc: str, pipeline, out_default: str,
                 fields: tuple[str, ...], summary: tuple[str, ...]):
    """Register ghz or ghz-cut: run ``pipeline``, write the state and the
    result's ``fields`` as JSON, echo the fidelity and the ``summary`` fields."""

    @main.command(name, help=doc)
    @_cluster_options
    @_output_options(out_default, "json")
    def command(mode, nodes, workers, shots, seed, out_path, fmt, check):
        cluster = _make_cluster(mode, nodes, workers, shots, seed)
        if fmt == "csv":
            raise click.UsageError(f"{name} writes JSON only; --format csv does not apply")

        def body():
            try:
                res = pipeline(cluster)
            except NonPhysical as exc:  # a sampled reconstruction can be starved
                if not check:
                    raise
                _fail_check(str(exc))
            payload = {key: res[key] for key in fields}
            payload.update(fidelity=res["fidelity"], mode=cluster.mode,
                           rho=_matrix_to_json(res["rho"]), shots=cluster.shots)
            _write_json(out_path, payload)
            counts = "".join(f" {key}={res[key]}" for key in summary)
            click.echo(f"fidelity={res['fidelity']!r}{counts} "
                       f"mode={cluster.mode} shots={cluster.shots}")
            if check:
                threshold = (1.0 - 1e-9) if cluster.shots is None else 0.97
                if res["fidelity"] < threshold:
                    _fail_check(f"fidelity < {threshold}")

        _run_guard(body)

    return command


cmd_ghz = _ghz_command(
    "ghz", "Reconstruct the 4-qubit GHZ state from the 128-evaluation overlap plan.",
    run_ghz_pipeline, "ghz_density.json",
    fields=("evaluations",), summary=("evaluations",),
)
cmd_ghz_cut = _ghz_command(
    "ghz-cut", "Reconstruct GHZ through the 10-term wire-cut quasi-probability baseline.",
    run_ghz_cut_pipeline, "ghz_cut_density.json",
    fields=("raw_trace", "settings", "subcircuits", "tasks"), summary=("subcircuits", "settings"),
)


@main.command("nonherm")
@click.option("--eps", type=float, default=0.2, help="Quadrature step.")
@click.option("--c", "c_param", type=float, default=0.5, help="Truncation constant.")
@click.option("--dt", type=float, default=0.01, help="Integrator step.")
@click.option("--T", "t_values", type=_ListType(float), default=_DEFAULT_NONHERM_T,
              help="Comma-separated evolution times.")
@click.option("--emulate-float-truncation", is_flag=True,
              help="Floor node counts in binary floats (reproduces published counts).")
@click.option("--normalize/--raw", default=True,
              help="Normalize expectations by the identity form.")
@_cluster_options
@_output_options(None, "csv")
def cmd_nonherm(eps, c_param, dt, t_values, emulate_float_truncation, normalize,
                mode, nodes, workers, shots, seed, out_path, fmt, check):
    """Sweep non-Hermitian evolution: H = sigma_x, L = I + sigma_z from |0>."""
    cluster = _make_cluster(mode, nodes, workers, shots, seed)
    if check and cluster.shots is not None:
        raise click.UsageError("--check for nonherm requires exact mode (no --shots)")

    def body():
        observable_r, rows = run_nonherm_rows(
            cluster,
            eps=eps,
            c=c_param,
            dt=dt,
            t_values=t_values,
            emulate_float_truncation=emulate_float_truncation,
            normalize=normalize,
        )
        columns = ["T", "M", "terms"]
        for name in ("sy", "sz", "R", "sx"):
            columns += [f"{name}_tlp", f"{name}_dense", f"{name}_oracle"]
        _write_rows(out_path, fmt, columns, rows,
                    {"R": _matrix_to_json(observable_r), "seed": cluster.seed})
        if check:
            worst = max(
                abs(row[f"{name}_tlp"] - row[f"{name}_dense"])
                for row in rows
                for name in ("sy", "sz", "R", "sx")
            )
            if worst > 1e-9:
                _fail_check(f"max |tlp - dense| = {worst!r} > 1e-9")

    _run_guard(body)


@main.command("imagtime")
@click.option("--eps", type=float, default=0.3, help="Quadrature step.")
@click.option("--c", "c_param", type=float, default=1.0, help="Truncation constant.")
@click.option("--dt", type=float, default=0.01, help="Integrator step.")
@click.option("--T", "big_t", type=float, default=0.5, help="Imaginary time.")
@click.option("--gamma-list", "gammas", type=_ListType(float), default=_DEFAULT_GAMMAS,
              help="Comma-separated gamma values.")
@click.option("--normalize/--raw", default=True,
              help="Normalize expectations by the identity form.")
@_config_option()
@_output_options(None, "csv")
def cmd_imagtime(eps, c_param, dt, big_t, gammas, normalize, out_path, fmt, check):
    """Sweep imaginary-time ground-state estimation for H(gamma) = 2I + gamma sigma_x.

    The sweep is dense in-process LCHS code that never reaches the task
    runtime, so imagtime has no cluster, shot or seed options."""

    def body():
        rows = run_imagtime_rows(
            eps=eps,
            c=c_param,
            big_t=big_t,
            dt=dt,
            gammas=gammas,
            normalize=normalize,
        )
        columns = [
            "gamma", "M", "terms", "H_lchs", "sx_lchs", "sz_lchs",
            "E0_exact", "fidelity", "H_trotter_T05", "H_trotter_T15",
        ]
        _write_rows(out_path, fmt, columns, rows, {"fidelity_convention": FIDELITY_CONVENTION})
        if check:
            worst = min(row["fidelity"] for row in rows)
            if worst < 0.99:
                _fail_check(f"min fidelity = {worst!r} < 0.99")

    _run_guard(body)


def _listen_address(ctx, param, value: str) -> str:
    """Reject a --listen value that ``serve_worker`` would refuse, before the
    worker binds."""
    try:
        _host_port(value, listen=True)
    except ValueError as exc:
        raise click.BadParameter(str(exc))
    return value


@main.command("worker")
@click.option("--listen", "listen_address", required=True, callback=_listen_address,
              help="host:port to bind (port 0 picks a free port).")
@click.option("--max-qubits", type=click.IntRange(min=1), default=ExactBackend.max_qubits,
              help="Largest circuit width this worker accepts.")
def cmd_worker(listen_address, max_qubits):
    """Serve tasks over TCP until a shutdown message arrives."""

    def body():
        serve_worker(listen_address, max_qubits=max_qubits)

    _run_guard(body)


if __name__ == "__main__":
    main()
