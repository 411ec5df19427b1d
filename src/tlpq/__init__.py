"""tlpq: tensor-layer product factorization of channel expectations into
single-ancilla subtasks, with a distributed exact/sampling runtime and an
integral-quadrature evolution toolkit (non-Hermitian and imaginary-time).

Every process that imports tlpq compiles what it loads, and the memory that
its largest compile frees stays resident. So the runtime is split by role
into modules of at most 3,300 tokens: ``table`` (the overlap rows and their
column rules), ``backend`` (what a node runs), ``wire`` (the batch message
and the worker server) and ``runtime`` (the controller), which re-exports
their public names. A worker never runs the evolution toolkit (``lchs``) or
the GHZ demonstration (``ghz``), so both load on first use: their names in
``__all__`` and the two modules themselves resolve through ``__getattr__``.
Every other module loads with the package.
"""

import importlib

from .circuit import Circuit, Gate, PauliString, circuit_to_json, parse_circuit, simulate
from .factorize import (
    GateLCU,
    LayeredDecomposition,
    cz_cutting_decomposition,
    expand_layered,
    operator_schmidt,
    pauli_expansion,
)
from .partition import balanced_bisection, build_graph, global_min_cut
from .planner import (
    ChannelLCU,
    FactorizedUnitary,
    Plan,
    Subtask,
    build_estimator_circuit,
    enumerate_subtasks,
    scaling_counts,
)
from .runtime import (
    ClusterConfig,
    TaskSpec,
    aggregate,
    execute_tasks,
    run_plan,
    sample_shots,
    serve_worker,
)

__version__ = "0.1.0"

__all__ = [
    "Circuit",
    "Gate",
    "PauliString",
    "circuit_to_json",
    "parse_circuit",
    "simulate",
    "GateLCU",
    "LayeredDecomposition",
    "cz_cutting_decomposition",
    "expand_layered",
    "operator_schmidt",
    "pauli_expansion",
    "GeneratorSpec",
    "QuadratureScheme",
    "build_quadrature",
    "exact_ground",
    "imaginary_time",
    "DegenerateQuadrature",
    "NotPSD",
    "lchs_expectation",
    "lchs_state",
    "trotter_oracle",
    "unitary_node",
    "balanced_bisection",
    "build_graph",
    "global_min_cut",
    "ChannelLCU",
    "FactorizedUnitary",
    "Plan",
    "Subtask",
    "build_estimator_circuit",
    "enumerate_subtasks",
    "ghz_cutting_plan",
    "ghz4_template",
    "ghz_overlap_plan",
    "reconstruct_density_matrix",
    "scaling_counts",
    "ClusterConfig",
    "TaskSpec",
    "aggregate",
    "execute_tasks",
    "run_plan",
    "sample_shots",
    "serve_worker",
    "__version__",
]

# the modules that load on first use, each with the public names it holds
_LAZY = {
    "lchs": (
        "DegenerateQuadrature",
        "GeneratorSpec",
        "NotPSD",
        "QuadratureScheme",
        "build_quadrature",
        "exact_ground",
        "imaginary_time",
        "lchs_expectation",
        "lchs_state",
        "trotter_oracle",
        "unitary_node",
    ),
    "ghz": (
        "ghz_cutting_plan",
        "ghz4_template",
        "ghz_overlap_plan",
        "reconstruct_density_matrix",
    ),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    if name in _LAZY:
        return importlib.import_module(f".{name}", __name__)
    if name in _HOME:
        return getattr(__getattr__(_HOME[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
