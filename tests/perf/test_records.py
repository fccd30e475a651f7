"""Hot-record layout (``__slots__``)."""

import pytest

from repro.euler.tour import ETEdge
from repro.sim.message import Message


class TestSlots:
    def test_message_has_no_dict(self):
        msg = Message(0, 1, ("x",), 2)
        assert not hasattr(msg, "__dict__")
        # frozen + slots: no stray attributes (the generated __setattr__
        # raises TypeError under slots on this interpreter).
        with pytest.raises((AttributeError, TypeError)):
            msg.extra = 1

    def test_etedge_has_no_dict(self):
        ete = ETEdge(0, 1, 1.5, 0, 3, 7)
        assert not hasattr(ete, "__dict__")
        with pytest.raises(AttributeError):
            ete.extra = 1

    def test_message_validation_still_runs(self):
        # slots=True must not silence __post_init__.
        with pytest.raises(ValueError):
            Message(0, 0, None, 1)
        with pytest.raises(ValueError):
            Message(0, 1, None, 0)

