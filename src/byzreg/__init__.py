"""Byzantine-tolerant single-writer/multi-reader atomic register emulation.

The package has three layers:

* protocol state machines: :mod:`byzreg.rbcast` (reliable broadcast) and
  :mod:`byzreg.register` (the register protocol built on it);
* a deterministic adversarial network simulator: :mod:`byzreg.netsim`,
  :mod:`byzreg.adversary`, configured by :mod:`byzreg.scenario`;
* a post-hoc trace verifier: :mod:`byzreg.checker`.

``byzreg.cli`` ties them together behind the ``byzreg`` command.
"""
from .checker import (CheckReport, Verdict, check_rb, check_safety,
                      check_termination, build_linearization, count_messages,
                      derive_histories, run_all_checks)
from .errors import (ProtocolMisuseError, ScenarioError, SimulationClosedError,
                     TraceError)
from .netsim import Simulation, Trace
from .rbcast import ReliableBroadcast
from .register import RegisterNode
from .scenario import (AdversarySpec, ScenarioConfig, WorkloadOp,
                       matrix_scenario, max_tolerated)

__all__ = [
    "AdversarySpec", "CheckReport", "ProtocolMisuseError", "RegisterNode",
    "ReliableBroadcast", "ScenarioConfig", "ScenarioError", "Simulation",
    "SimulationClosedError", "Trace", "TraceError", "Verdict", "WorkloadOp",
    "build_linearization", "check_rb", "check_safety", "check_termination",
    "count_messages", "derive_histories", "matrix_scenario", "max_tolerated",
    "run_all_checks",
]
