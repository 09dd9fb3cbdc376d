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


@dataclass(frozen=True)
class Message:
    tag: ClassVar[str] = "?"

    def to_wire(self) -> dict:
        """The trace payload: tag, then fields in declaration order.

        Built once per message object and shared by every event that
        carries it, so callers must not modify it.
        """
        wire = self.__dict__.get("_wire")
        if wire is None:
            wire = {"tag": self.tag}
            for name in _field_names(type(self)):
                wire[name] = getattr(self, name)
            self.__dict__["_wire"] = wire  # frozen: bypass __setattr__
        return wire


@dataclass(frozen=True)
class App(Message):
    """First round of a reliable broadcast; origin is the message sender."""

    value: Value
    sn: int
    tag: ClassVar[str] = "APP"


@dataclass(frozen=True)
class Echo(Message):
    """Second-round vote endorsing (origin, value, sn)."""

    origin: int
    value: Value
    sn: int
    tag: ClassVar[str] = "ECHO"


@dataclass(frozen=True)
class Ready(Message):
    """Final-round vote; enough of these trigger delivery."""

    origin: int
    value: Value
    sn: int
    tag: ClassVar[str] = "READY"


@dataclass(frozen=True)
class WriteDone(Message):
    """Ack from a server that applied the writer's update numbered sn."""

    sn: int
    tag: ClassVar[str] = "WRITE_DONE"


@dataclass(frozen=True)
class ReadReq(Message):
    """Reader's request for the current sequence number of register target."""

    target: int
    rsn: int
    tag: ClassVar[str] = "READ"


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class CatchUp(Message):
    """Reader's request that the receiver hold a value at least this new."""

    target: int
    sn: int
    tag: ClassVar[str] = "CATCH_UP"


@dataclass(frozen=True)
class CatchUpDone(Message):
    """Ack that the receiver's copy of target reached sequence number sn."""

    target: int
    sn: int
    tag: ClassVar[str] = "CATCH_UP_DONE"


BROADCAST_TAGS = frozenset({"APP", "ECHO", "READY"})
