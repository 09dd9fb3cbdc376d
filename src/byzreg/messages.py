"""Wire-level message types.

Messages carry protocol fields only. Sender identity is supplied by the
transport: the simulated network is authenticated, so a receiver always
knows which process a message came from and a Byzantine process cannot
forge another process's identity.

Application values are treated as opaque but must be hashable (they key
vote-counting tables) and JSON-serializable (they appear in traces).
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cache
from typing import Any, ClassVar

Value = Any


@cache
def _field_names(cls: type) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


@dataclass(slots=True)
class Message:
    """Base of the wire messages.

    A message is its own trace payload: a SEND or DELIVER record holds the
    object itself, and the receiver's handler gets that same object. So
    messages are read-only by contract, though not frozen: a frozen
    dataclass costs a setattr call per field on every construction.
    """

    tag: ClassVar[str] = "?"

    def __getitem__(self, key):
        """``m["tag"]`` or ``m[field]``, as in the trace's JSON payload."""
        if key == "tag":
            return self.tag
        if key in _field_names(type(self)):
            return getattr(self, key)
        raise KeyError(key)

    def to_wire(self) -> dict:
        """The JSON payload: tag, then fields in declaration order.

        A new dict on each call; only trace serialization needs one.
        """
        wire = {"tag": self.tag}
        for name in _field_names(type(self)):
            wire[name] = getattr(self, name)
        return wire


@dataclass(slots=True)
class App(Message):
    """First round of a reliable broadcast; origin is the message sender."""

    value: Value
    sn: int
    tag: ClassVar[str] = "APP"


@dataclass(slots=True)
class Echo(Message):
    """Second-round vote endorsing (origin, value, sn)."""

    origin: int
    value: Value
    sn: int
    tag: ClassVar[str] = "ECHO"


@dataclass(slots=True)
class Ready(Message):
    """Final-round vote; enough of these trigger delivery."""

    origin: int
    value: Value
    sn: int
    tag: ClassVar[str] = "READY"


@dataclass(slots=True)
class WriteDone(Message):
    """Ack from a server that applied the writer's update numbered sn."""

    sn: int
    tag: ClassVar[str] = "WRITE_DONE"


@dataclass(slots=True)
class ReadReq(Message):
    """Reader's request for the current sequence number of register target."""

    target: int
    rsn: int
    tag: ClassVar[str] = "READ"


@dataclass(slots=True)
class StateReply(Message):
    """Server's answer to ReadReq: its local sequence number for target.

    Carries the target index as well as the read sequence number so a
    reply can never be mistaken for one belonging to a different read
    that happens to share the same per-target counter value.
    """

    target: int
    rsn: int
    sn: int
    tag: ClassVar[str] = "STATE"


@dataclass(slots=True)
class CatchUp(Message):
    """Reader's request that the receiver hold a value at least this new."""

    target: int
    sn: int
    tag: ClassVar[str] = "CATCH_UP"


@dataclass(slots=True)
class CatchUpDone(Message):
    """Ack that the receiver's copy of target reached sequence number sn."""

    target: int
    sn: int
    tag: ClassVar[str] = "CATCH_UP_DONE"
