"""The payload contract of wire messages: name indexing and JSON form."""
import dataclasses

import pytest

from byzreg.messages import (App, CatchUp, CatchUpDone, Echo, Message,
                             ReadReq, Ready, StateReply, WriteDone)
from byzreg.rbcast import Broadcast, RDeliver, Send
from byzreg.register import Complete

MESSAGE_CLASSES = [App, Echo, Ready, WriteDone, ReadReq, StateReply, CatchUp,
                   CatchUpDone]


def sample(cls):
    """An instance of cls whose fields hold distinct values."""
    return cls(*range(10, 10 + len(dataclasses.fields(cls))))


def test_every_message_class_is_covered():
    # a set: until the cyclic collector runs, __subclasses__() also lists
    # the classes that dataclass(slots=True) built and replaced
    assert {cls.tag for cls in Message.__subclasses__()} == {
        cls.tag for cls in MESSAGE_CLASSES}


@pytest.mark.parametrize("cls", MESSAGE_CLASSES, ids=lambda c: c.__name__)
def test_to_wire_is_tag_then_fields_in_declaration_order(cls):
    msg = sample(cls)
    names = [f.name for f in dataclasses.fields(cls)]
    wire = msg.to_wire()
    assert list(wire) == ["tag", *names]
    assert wire == {"tag": cls.tag,
                    **{name: getattr(msg, name) for name in names}}
    assert msg.to_wire() is not wire  # built afresh, never cached


@pytest.mark.parametrize("cls", MESSAGE_CLASSES, ids=lambda c: c.__name__)
def test_indexing_by_name_matches_the_wire_form(cls):
    msg = sample(cls)
    for name, value in msg.to_wire().items():
        assert msg[name] == value
    for key in ("to_wire", "nonexistent", 0, "__class__"):
        with pytest.raises(KeyError):
            msg[key]


@pytest.mark.parametrize("cls", [*MESSAGE_CLASSES, Send, Broadcast, RDeliver,
                                 Complete], ids=lambda c: c.__name__)
def test_messages_and_effects_are_slotted(cls):
    assert not hasattr(sample(cls), "__dict__")
