"""Type-feedback vectors collected by the interpreter tier.

Ignition records, per bytecode site, what operand types it has seen.  The
optimizing compiler reads this to decide *what to speculate on* — and every
speculation becomes a deoptimization check in the generated code, which is
precisely the quantity the paper measures.

The lattices mirror V8's:

* binary/compare ops: ``NONE -> SIGNED_SMALL -> NUMBER -> (STRING) -> ANY``
* property/element accesses: uninitialized -> monomorphic -> polymorphic(<=4)
  -> megamorphic
* calls: uninitialized -> monomorphic target -> megamorphic
"""

from __future__ import annotations

from enum import IntEnum
from typing import List, Optional

from ..values.maps import Map

POLYMORPHIC_LIMIT = 4


class OperandFeedback(IntEnum):
    """Lattice for arithmetic/compare sites (order = generality)."""

    NONE = 0
    SIGNED_SMALL = 1  # both operands and result were SMIs
    NUMBER = 2  # numeric, but not always SMI
    STRING = 3
    ANY = 4

    def union(self, other: "OperandFeedback") -> "OperandFeedback":
        return _UNION[self][other]


class ICState(IntEnum):
    """Inline-cache state for property/element/call sites."""

    UNINITIALIZED = 0
    MONOMORPHIC = 1
    POLYMORPHIC = 2
    MEGAMORPHIC = 3


# The members again as module-level names: reading ``ICState.MONOMORPHIC``
# off the enum class costs several times a global lookup, on every test.
NONE_FEEDBACK = OperandFeedback.NONE
SIGNED_SMALL_FEEDBACK = OperandFeedback.SIGNED_SMALL
NUMBER_FEEDBACK = OperandFeedback.NUMBER
STRING_FEEDBACK = OperandFeedback.STRING
ANY_FEEDBACK = OperandFeedback.ANY
UNINITIALIZED = ICState.UNINITIALIZED
MONOMORPHIC = ICState.MONOMORPHIC
POLYMORPHIC = ICState.POLYMORPHIC
MEGAMORPHIC = ICState.MEGAMORPHIC


def _join(a: OperandFeedback, b: OperandFeedback) -> OperandFeedback:
    """Least upper bound: NONE is the identity, SIGNED_SMALL and NUMBER
    join to NUMBER, and any other two distinct states join to ANY."""
    if a == b or b == NONE_FEEDBACK:
        return a
    if a == NONE_FEEDBACK:
        return b
    if {a, b} == {SIGNED_SMALL_FEEDBACK, NUMBER_FEEDBACK}:
        return NUMBER_FEEDBACK
    return ANY_FEEDBACK


#: ``_UNION[a][b]`` is ``a.union(b)``, built once at import (members are
#: numbered 0-4 in definition order, so they index the table directly).
_UNION = tuple(tuple(_join(a, b) for b in OperandFeedback) for a in OperandFeedback)


class BinaryOpSlot:
    """Feedback for one arithmetic/compare site."""

    __slots__ = ("state",)

    def __init__(self) -> None:
        self.state = NONE_FEEDBACK

    def record(self, observed: OperandFeedback) -> None:
        self.state = _UNION[self.state][observed]


class PropertySlot:
    """Feedback for a named property load/store site."""

    __slots__ = ("state", "maps", "offsets", "saw_transition")

    def __init__(self) -> None:
        self.state = UNINITIALIZED
        self.maps: List[Map] = []
        self.offsets: List[int] = []
        self.saw_transition = False

    def record(self, receiver_map: Map, offset: int, transition: bool = False) -> None:
        if transition:
            self.saw_transition = True
        if self.state == MEGAMORPHIC:
            return
        if receiver_map in self.maps:
            index = self.maps.index(receiver_map)
            if self.offsets[index] != offset:
                # Same map, different slot should be impossible; defensive.
                self.state = MEGAMORPHIC
            return
        if len(self.maps) >= POLYMORPHIC_LIMIT:
            self.state = MEGAMORPHIC
            self.maps = []
            self.offsets = []
            return
        self.maps.append(receiver_map)
        self.offsets.append(offset)
        self.state = MONOMORPHIC if len(self.maps) == 1 else POLYMORPHIC

    @property
    def monomorphic_map(self) -> Optional[Map]:
        return self.maps[0] if self.state == MONOMORPHIC else None


class ElementSlot:
    """Feedback for an indexed element load/store site."""

    __slots__ = ("state", "maps", "saw_out_of_bounds", "saw_non_smi_index")

    def __init__(self) -> None:
        self.state = UNINITIALIZED
        self.maps: List[Map] = []
        self.saw_out_of_bounds = False
        self.saw_non_smi_index = False

    def record(self, receiver_map: Map) -> None:
        if self.state == MEGAMORPHIC:
            return
        if receiver_map in self.maps:
            return
        if len(self.maps) >= POLYMORPHIC_LIMIT:
            self.state = MEGAMORPHIC
            self.maps = []
            return
        self.maps.append(receiver_map)
        self.state = MONOMORPHIC if len(self.maps) == 1 else POLYMORPHIC

    @property
    def monomorphic_map(self) -> Optional[Map]:
        return self.maps[0] if self.state == MONOMORPHIC else None


class CallSlot:
    """Feedback for a call/construct site (monomorphic target tracking)."""

    __slots__ = (
        "state",
        "target_shared_index",
        "is_method",
        "method_kind",
        "receiver_map",
        "method_offset",
    )

    def __init__(self) -> None:
        self.state = UNINITIALIZED
        self.target_shared_index = -1
        self.is_method = False
        # For method calls on primitives: ("string", "charCodeAt") etc.
        self.method_kind: Optional[tuple] = None
        # For method calls on JS objects: receiver map + method slot offset.
        self.receiver_map: Optional[Map] = None
        self.method_offset = -1

    def record_target(self, shared_index: int) -> None:
        if self.state == UNINITIALIZED:
            self.state = MONOMORPHIC
            self.target_shared_index = shared_index
        elif (
            self.state == MONOMORPHIC
            and self.target_shared_index != shared_index
        ):
            self.state = MEGAMORPHIC
            self.target_shared_index = -1

    def record_primitive_method(
        self, receiver_kind: str, method: str, receiver_map: Optional[Map] = None
    ) -> None:
        key = (receiver_kind, method)
        if self.state == UNINITIALIZED:
            self.state = MONOMORPHIC
            self.method_kind = key
            self.receiver_map = receiver_map
        elif self.state == MONOMORPHIC and (
            self.method_kind != key
            or (receiver_map is not None and self.receiver_map is not receiver_map)
        ):
            self.state = MEGAMORPHIC
            self.method_kind = None
            self.receiver_map = None

    def record_object_method(
        self, receiver_map: Map, method_offset: int, shared_index: int
    ) -> None:
        if self.state == UNINITIALIZED:
            self.state = MONOMORPHIC
            self.is_method = True
            self.receiver_map = receiver_map
            self.method_offset = method_offset
            self.target_shared_index = shared_index
        elif self.state == MONOMORPHIC and (
            self.receiver_map is not receiver_map
            or self.method_offset != method_offset
            or self.target_shared_index != shared_index
        ):
            self.state = MEGAMORPHIC
            self.receiver_map = None
            self.method_offset = -1
            self.target_shared_index = -1


class GlobalSlot:
    """Feedback for a global load: caches the global cell index."""

    __slots__ = ("cell_index",)

    def __init__(self) -> None:
        self.cell_index = -1


class FeedbackVector:
    """One per function instance; indexed by the bytecode's feedback slots.

    Slots are created lazily with the right shape on first use, since the
    compiler hands out a flat slot numbering.
    """

    def __init__(self, slot_count: int) -> None:
        self.slots: List[object] = [None] * slot_count
        #: Total interpreted bytecodes executed for this function (profiling).
        self.interpreted_ops = 0

    def binary(self, index: int) -> BinaryOpSlot:
        slot = self.slots[index]
        if slot is None:
            slot = BinaryOpSlot()
            self.slots[index] = slot
        assert isinstance(slot, BinaryOpSlot)
        return slot

    def property(self, index: int) -> PropertySlot:
        slot = self.slots[index]
        if slot is None:
            slot = PropertySlot()
            self.slots[index] = slot
        assert isinstance(slot, PropertySlot)
        return slot

    def element(self, index: int) -> ElementSlot:
        slot = self.slots[index]
        if slot is None:
            slot = ElementSlot()
            self.slots[index] = slot
        assert isinstance(slot, ElementSlot)
        return slot

    def call(self, index: int) -> CallSlot:
        slot = self.slots[index]
        if slot is None:
            slot = CallSlot()
            self.slots[index] = slot
        assert isinstance(slot, CallSlot)
        return slot

    def global_slot(self, index: int) -> GlobalSlot:
        slot = self.slots[index]
        if slot is None:
            slot = GlobalSlot()
            self.slots[index] = slot
        assert isinstance(slot, GlobalSlot)
        return slot

    def has_feedback(self, index: int) -> bool:
        return 0 <= index < len(self.slots) and self.slots[index] is not None
