"""Exception types shared across the package."""


class ProtocolMisuseError(Exception):
    """The host drove a protocol state machine outside its contract.

    Raised for things like starting an operation while another is pending,
    or broadcasting with a non-consecutive sequence number. Byzantine input
    from the network never raises; only local misuse does.
    """


class ScenarioError(Exception):
    """A scenario configuration is malformed or violates the model bounds."""


class SimulationClosedError(Exception):
    """An interaction was attempted with a simulation that already halted."""


class TraceError(Exception):
    """A trace's records are malformed: the checker cannot read them."""
