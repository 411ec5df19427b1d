"""The ``tlpq`` command line: experiment subcommands, config handling, worker mode.

Subcommands: plan (partition/count report for a circuit), ghz (overlap-plan
state reconstruction), ghz-cut (wire-cut density baseline), nonherm
(non-Hermitian evolution sweep), imagtime (imaginary-time ground-state sweep),
worker (serve tasks over TCP). Each command is a thin wrapper around its
driver in ``cli``; only the command line loads this module and click.

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
from click.core import ParameterSource

from .circuit import CircuitFormatError, NotUnitary, _matrix_to_json, parse_circuit
from .cli import (
    _DEFAULT_GAMMAS,
    _DEFAULT_NONHERM_T,
    FIDELITY_CONVENTION,
    plan_report,
    run_ghz_cut_pipeline,
    run_ghz_pipeline,
    run_imagtime_rows,
    run_nonherm_rows,
)
from .ghz import NonPhysical, ghz4_template
from .runtime import ClusterConfig, ExactBackend, _host_port, serve_worker

# --- option plumbing -------------------------------------------------------------
#
# --config is read before the other options and its values become their
# defaults (ctx.default_map). --config and --check are flags only, and a null
# value in the file means the option's default.


class _ListType(click.ParamType):
    """A list option: comma-separated on the command line, a JSON list (or the
    same comma-separated string) in a config file. Each item is converted
    from its text, so a config file's item means what it means in the flag,
    and an empty item exits 2 in either place."""

    name = "list"

    def __init__(self, item: type):
        self.item = item

    def convert(self, value, param, ctx):
        if not isinstance(value, (list, tuple)):
            value = [piece.strip() for piece in str(value).split(",")]
        if any(not str(x).strip() for x in value):
            self.fail(f"empty item in list {value!r}", param, ctx)
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
