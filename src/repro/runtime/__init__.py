"""PaRSEC-like runtime simulator: machine model, engine, policies, networks.

The layers compose left to right: a :class:`Machine` prices tile kernels
and network hardware, a :class:`~repro.runtime.network.NetworkModel`
prices inter-node messages (``uniform`` legacy flat cost or
``alpha-beta`` message-level fidelity), a
:class:`~repro.runtime.policies.SchedulingPolicy` orders the ready queue,
and the :class:`~repro.runtime.engine.SimulationEngine` replays a compiled
:class:`~repro.ir.program.Program` through all three.  The drivers in
:mod:`~repro.runtime.simulator` wrap the stack into the GE2BND / GE2VAL
results the paper's figures report.  On top, :mod:`~repro.runtime.scenario`
layers machine realism — heterogeneity, fault models, network noise — and
replays the same program across Monte-Carlo draws into a
:class:`~repro.runtime.scenario.MakespanDistribution`.
"""

from repro.runtime.machine import Machine
from repro.runtime.engine import (
    SimulationEngine,
    critical_path_seconds,
    run_policy,
    serial_seconds,
)
from repro.runtime.network import (
    NETWORK_MODELS,
    AlphaBetaNetwork,
    NetworkModel,
    UniformNetwork,
    available_networks,
    get_network_model,
)
from repro.runtime.policies import (
    POLICIES,
    SchedulingPolicy,
    available_policies,
    get_policy,
)
from repro.runtime.scheduler import Schedule
from repro.runtime.batch import (
    BatchCandidate,
    BatchEngine,
    simulate_batch,
    simulate_resolved_batch,
)
from repro.runtime.simulator import (
    SimulationResult,
    simulate_ge2bnd,
    simulate_ge2val,
)
from repro.runtime.faults import (
    FAULT_MODELS,
    NOISE_MODELS,
    FailStopFaults,
    FaultModel,
    LinkJitterNoise,
    NoFaults,
    NoiseModel,
    NoNoise,
    StragglerFaults,
    available_fault_models,
    available_noise_models,
    get_fault_model,
    get_noise_model,
)
from repro.runtime.scenario import (
    SCENARIOS,
    MakespanDistribution,
    Scenario,
    ScenarioReplayer,
    available_scenarios,
    get_scenario,
    run_scenario,
)

__all__ = [
    "AlphaBetaNetwork",
    "BatchCandidate",
    "BatchEngine",
    "FAULT_MODELS",
    "FailStopFaults",
    "FaultModel",
    "LinkJitterNoise",
    "Machine",
    "MakespanDistribution",
    "NETWORK_MODELS",
    "NOISE_MODELS",
    "NetworkModel",
    "NoFaults",
    "NoNoise",
    "NoiseModel",
    "POLICIES",
    "SCENARIOS",
    "Scenario",
    "ScenarioReplayer",
    "Schedule",
    "SchedulingPolicy",
    "SimulationEngine",
    "SimulationResult",
    "StragglerFaults",
    "UniformNetwork",
    "available_fault_models",
    "available_networks",
    "available_noise_models",
    "available_policies",
    "available_scenarios",
    "critical_path_seconds",
    "get_fault_model",
    "get_network_model",
    "get_noise_model",
    "get_policy",
    "get_scenario",
    "run_scenario",
    "serial_seconds",
    "simulate_batch",
    "simulate_ge2bnd",
    "simulate_ge2val",
    "simulate_resolved_batch",
]
