"""tlpq: tensor-layer product factorization of channel expectations into
single-ancilla subtasks, with a distributed exact/sampling runtime and an
integral-quadrature evolution toolkit (non-Hermitian and imaginary-time).
"""

from .circuit import Circuit, Gate, PauliString, circuit_to_json, parse_circuit, simulate
from .factorize import (
    GateLCU,
    LayeredDecomposition,
    cz_cutting_decomposition,
    expand_layered,
    operator_schmidt,
    pauli_expansion,
)
from .lchs import (
    DegenerateQuadrature,
    GeneratorSpec,
    NotPSD,
    QuadratureScheme,
    build_quadrature,
    exact_ground,
    imaginary_time,
    lchs_expectation,
    lchs_state,
    trotter_oracle,
    unitary_node,
)
from .partition import balanced_bisection, build_graph, global_min_cut
from .planner import (
    ChannelLCU,
    FactorizedUnitary,
    Plan,
    Subtask,
    build_estimator_circuit,
    enumerate_subtasks,
    ghz_cutting_plan,
    ghz4_template,
    ghz_overlap_plan,
    reconstruct_density_matrix,
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
