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
    ChannelLCU,
    FactorizedUnitary,
    NonPhysical,
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
    OverlapSpec,
    TaskSpec,
    estimate_plans,
    execute_tasks,
    serve_worker,
)

_PAULI_1Q_LABELS = ("I", "X", "Y", "Z")

_DEFAULT_NONHERM_T = tuple(0.1 + j * 0.1 for j in range(10))
_DEFAULT_GAMMAS = tuple(0.2 * k for k in range(11))

# how imagtime's fidelities are computed, and the label its outputs carry
FIDELITY_CONVENTION = "overlap_squared"


# --- drivers (importable; the click commands are thin wrappers) -----------------

def run_ghz_pipeline(cluster: ClusterConfig) -> dict:
    """Overlap-plan pipeline: 128 overlap tasks -> gram tables -> 16x16 state."""
    templates, plan = ghz_overlap_plan()
    tasks = [
        OverlapSpec(
            id=ev.id,
            left=templates[ev.template][0],
            right=templates[ev.template][1],
            observable=PauliString(2, ev.setting),
            input_label="00",
            readouts=(ev.readout,),
        )
        for ev in plan
    ]
    results = execute_tasks(tasks, cluster)
    values = {r.task_id: r.value[0] for r in results}
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
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sz = np.diag([1.0, -1.0]).astype(complex)
    return GeneratorSpec(H=sx, L=np.eye(2) + sz), np.array([1.0, 0.0], dtype=complex)


def random_hermitian_observable(seed: int, dim: int = 2) -> np.ndarray:
    """Seed-derived Hermitian observable, written to output headers."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
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
    share its node circuits, so each node state is simulated once. The dense
    column reuses the same node unitaries.
    """
    g, u0 = nonherm_generator()
    observable_r = random_hermitian_observable(cluster.seed)
    paulis = {
        "sx": np.array([[0, 1], [1, 0]], dtype=complex),
        "sy": np.array([[0, -1j], [1j, 0]], dtype=complex),
        "sz": np.diag([1.0, -1.0]).astype(complex),
    }
    beta = {
        name: float(np.trace(observable_r @ mat).real) / 2.0
        for name, mat in zip(
            _PAULI_1Q_LABELS,
            (np.eye(2, dtype=complex), paulis["sx"], paulis["sy"], paulis["sz"]),
        )
    }
    schemes = [
        build_quadrature(eps, c, t, emulate_float_truncation=emulate_float_truncation)
        for t in t_values
    ]
    unitaries = [[unitary_node(g, float(k), s.T, dt) for k in s.nodes] for s in schemes]
    plans = []
    for scheme, us in zip(schemes, unitaries):
        channel = _channel_from_unitaries(us, scheme.coeffs)
        plans += [
            enumerate_subtasks(channel, ("0",), (PauliString(1, letter),))
            for letter in _PAULI_1Q_LABELS
        ]
    values = estimate_plans(plans, cluster)
    letters = len(_PAULI_1Q_LABELS)
    forms_per_t = [
        {letter: float(v.real) for letter, v in zip(_PAULI_1Q_LABELS, values[k:k + letters])}
        for k in range(0, len(plans), letters)
    ]
    rows: list[dict] = []
    for t, scheme, us, forms in zip(t_values, schemes, unitaries, forms_per_t):
        norm_form = forms["I"]
        dense = lchs_forms(
            [u @ u0 for u in us], scheme.coeffs,
            (paulis["sx"], paulis["sy"], paulis["sz"], observable_r), normalize,
        )
        w = trotter_oracle(g, u0, t, dt)
        w_norm = float(np.vdot(w, w).real)
        row = {"T": t, "M": scheme.M, "terms": (scheme.M + 1) ** 2}
        for (name, letter), dense_value in zip(
            (("sx", "X"), ("sy", "Y"), ("sz", "Z")), dense
        ):
            raw = forms[letter]
            row[f"{name}_tlp"] = raw / norm_form if normalize else raw
            row[f"{name}_dense"] = dense_value
            row[f"{name}_oracle"] = float(np.vdot(w, paulis[name] @ w).real) / w_norm
        raw_r = sum(beta[p] * forms[p] for p in _PAULI_1Q_LABELS)
        row["R_tlp"] = raw_r / norm_form if normalize else raw_r
        row["R_dense"] = dense[3]
        row["R_oracle"] = float(np.vdot(w, observable_r @ w).real) / w_norm
        rows.append(row)
    return observable_r, rows


def run_imagtime_rows(
    cluster: ClusterConfig,
    *,
    eps: float = 0.3,
    c: float = 1.0,
    big_t: float = 0.5,
    dt: float = 0.01,
    gammas: tuple[float, ...] = _DEFAULT_GAMMAS,
    normalize: bool = True,
) -> list[dict]:
    """One row per gamma: LCHS expectations, exact ground energy, fidelity, baselines.

    The sweep is dense in-process code; ``cluster`` is not read. Each gamma's
    node states are built once and serve the state and all three expectations."""
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sz = np.diag([1.0, -1.0]).astype(complex)
    scheme = build_quadrature(eps, c, big_t)
    u0 = np.array([1.0, 0.0], dtype=complex)
    rows: list[dict] = []
    for gamma in gammas:
        h_gamma = 2.0 * np.eye(2, dtype=complex) + gamma * sx
        gen = GeneratorSpec(H=np.zeros((2, 2), dtype=complex), L=h_gamma)
        result = imaginary_time(h_gamma, big_t, scheme, dt=dt, u0=u0)
        reference = trotter_oracle(gen, u0, big_t, dt)
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
            "fidelity": vector_fidelity(result.state, reference, FIDELITY_CONVENTION),
        }
        for label, horizon in (("H_trotter_T05", 0.5), ("H_trotter_T15", 1.5)):
            w = trotter_oracle(gen, u0, horizon, dt)
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
    same comma-separated string) in a config file."""

    name = "list"

    def __init__(self, item: type):
        self.item = item

    def convert(self, value, param, ctx):
        if not isinstance(value, (list, tuple)):
            value = [piece.strip() for piece in str(value).split(",") if piece.strip()]
        try:
            return tuple(self.item(x) for x in value)
        except (TypeError, ValueError) as exc:
            self.fail(f"bad list {value!r}: {exc}", param, ctx)


def _read_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise click.UsageError(
            f"config parse error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        )
    except OSError as exc:
        raise click.UsageError(f"cannot read config: {exc}")
    if not isinstance(cfg, dict):
        raise click.UsageError("config file must hold a JSON object")
    return cfg


def _config_option(*config_only: str):
    """--config FILE for a command; ``config_only`` are keys without a flag,
    which stay in the default map under their own name."""

    def load(ctx: click.Context, param: click.Parameter, path: str | None) -> None:
        if path is None:
            return
        cfg = _read_config(path)
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
        ctx.default_map = {
            options[key].name if key in options else key: value
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
            retry_limit=ClusterConfig.retry_limit if retry_limit is None else int(retry_limit),
        )
    except ValueError as exc:
        raise click.UsageError(str(exc))


def _write_text(out_path: str | None, text: str):
    if out_path is None:
        click.echo(text, nl=False)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _fmt_cell(x) -> str:
    if isinstance(x, bool):
        return str(x)
    if isinstance(x, int):
        return str(x)
    return repr(float(x))


def _rows_to_csv(columns: list[str], rows: list[dict], header_comments: list[str]) -> str:
    lines = list(header_comments)
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt_cell(row[c]) for c in columns))
    return "\n".join(lines) + "\n"


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
        try:
            with open(circuit_path, "r", encoding="utf-8") as fh:
                obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise click.UsageError(
                f"circuit parse error at line {exc.lineno} column {exc.colno}: {exc.msg}"
            )
        except OSError as exc:
            raise click.UsageError(f"cannot read circuit: {exc}")
        try:
            circ = parse_circuit(obj)
        except (CircuitFormatError, NotUnitary) as exc:
            raise click.UsageError(f"bad circuit: {exc}")

    def body():
        report = plan_report(circ)
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
        _write_text(out_path, text)

    _run_guard(body)


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
                click.echo(f"check failed: {exc}", err=True)
                sys.exit(4)
            payload = {key: res[key] for key in fields}
            payload.update(fidelity=res["fidelity"], mode=cluster.mode,
                           rho=_matrix_to_json(res["rho"]), shots=cluster.shots)
            _write_text(out_path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
            counts = "".join(f" {key}={res[key]}" for key in summary)
            click.echo(f"fidelity={res['fidelity']!r}{counts} "
                       f"mode={cluster.mode} shots={cluster.shots}")
            if check:
                threshold = (1.0 - 1e-9) if cluster.shots is None else 0.97
                if res["fidelity"] < threshold:
                    click.echo(f"check failed: fidelity < {threshold}", err=True)
                    sys.exit(4)

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
        if fmt == "csv":
            header = [
                "# R = " + json.dumps(_matrix_to_json(observable_r)),
                f"# seed = {cluster.seed}",
            ]
            text = _rows_to_csv(columns, rows, header)
        else:
            text = json.dumps(
                {"R": _matrix_to_json(observable_r), "seed": cluster.seed, "rows": rows},
                indent=2, sort_keys=True,
            ) + "\n"
        _write_text(out_path, text)
        if check:
            worst = max(
                abs(row[f"{name}_tlp"] - row[f"{name}_dense"])
                for row in rows
                for name in ("sy", "sz", "R", "sx")
            )
            if worst > 1e-9:
                click.echo(f"check failed: max |tlp - dense| = {worst!r} > 1e-9", err=True)
                sys.exit(4)

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
            ClusterConfig(),
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
        if fmt == "csv":
            text = _rows_to_csv(columns, rows, [f"# fidelity_convention = {FIDELITY_CONVENTION}"])
        else:
            text = json.dumps(
                {"fidelity_convention": FIDELITY_CONVENTION, "rows": rows},
                indent=2, sort_keys=True,
            ) + "\n"
        _write_text(out_path, text)
        if check:
            worst = min(row["fidelity"] for row in rows)
            if worst < 0.99:
                click.echo(f"check failed: min fidelity = {worst!r} < 0.99", err=True)
                sys.exit(4)

    _run_guard(body)


def _listen_address(ctx, param, value: str) -> str:
    """Reject a --listen value without a port in 0..65535 before the worker binds."""
    _, sep, port = value.rpartition(":")
    if not sep or not (port.isascii() and port.isdigit() and int(port) <= 65535):
        raise click.BadParameter(f"{value!r} is not host:port with a port in 0..65535")
    return value


@main.command("worker")
@click.option("--listen", "listen_address", required=True, callback=_listen_address,
              help="host:port to bind (port 0 picks a free port).")
@click.option("--max-qubits", type=click.IntRange(min=1), default=12,
              help="Largest circuit width this worker accepts.")
def cmd_worker(listen_address, max_qubits):
    """Serve tasks over TCP until a shutdown message arrives."""

    def body():
        serve_worker(listen_address, max_qubits=max_qubits)

    _run_guard(body)


if __name__ == "__main__":
    main()
