"""Messages and word-size accounting.

The models measure communication in words of Θ(log n) bits.  Rather than
serializing Python objects, every message declares its size in words; the
constants below fix the cost of the payload shapes the algorithms use, so
round counts are reproducible and independent of Python object layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

#: One identifier (vertex id, machine id, component label, counter).
WORDS_ID = 1
#: One weighted edge (u, v, weight).
WORDS_EDGE = 3
#: One Euler-tour annotated edge: (u, v, weight, e_in, e_out, direction,
#: tour id, tour size) — the unit shipped by the §5/§6 protocols.
WORDS_ET_EDGE = 8
#: One update (kind, u, v, weight).
WORDS_UPDATE = 4
#: One contracted ("component") edge: (comp_u, comp_v, weight, u, v) — a
#: candidate edge of the §6.2 reduction, carrying its original endpoints.
WORDS_COMPONENT_EDGE = 5


@dataclass(frozen=True, slots=True)
class Message:
    """A point-to-point message inside one communication super-step.

    ``slots=True`` drops the per-instance ``__dict__``: the reference
    path allocates one ``Message`` per (src, dst) word batch, so the
    layout matters at bench scales.
    """

    src: int
    dst: int
    payload: Any
    words: int = field(default=WORDS_ID)

    def __post_init__(self) -> None:
        if self.words <= 0:
            raise ValueError("message size must be positive")
        if self.src == self.dst:
            raise ValueError("self-messages are free; do not send them")
