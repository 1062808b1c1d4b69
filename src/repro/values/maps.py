"""Hidden classes ("maps") and their transition trees.

V8 assigns every object *shape* a map: an internal descriptor that records,
for each property name, the slot offset where the property value is stored.
Objects hold a tagged pointer to their map at offset 0.  The optimizing
compiler speculates that an object seen at a call site keeps its shape, and
guards that speculation with a *wrong-map* deoptimization check: load the
object's map word and compare it against the expected map's address.

Maps form a transition tree: adding property ``x`` to an object with map
``M`` moves the object to the (unique) child map ``M --x--> M'``.  Arrays
additionally carry an *elements kind* (packed SMI / packed double / packed
tagged) that can only generalize, mirroring V8's lattice.
"""

from __future__ import annotations

from enum import IntEnum
from typing import Callable, Dict, List, Optional


class InstanceType(IntEnum):
    """Coarse runtime type of a heap object, stored in its map."""

    ODDBALL = 1
    HEAP_NUMBER = 2
    STRING = 3
    FIXED_ARRAY = 4
    FIXED_DOUBLE_ARRAY = 5
    JS_OBJECT = 6
    JS_ARRAY = 7
    JS_FUNCTION = 8
    MAP = 9


class ElementsKind(IntEnum):
    """Element representation of a JSArray's backing store.

    The ordering encodes V8's one-way generalization lattice:
    PACKED_SMI -> PACKED_DOUBLE -> PACKED (tagged).
    """

    PACKED_SMI = 0
    PACKED_DOUBLE = 1
    PACKED = 2

    def generalizes_to(self, other: "ElementsKind") -> bool:
        return other >= self


# The members again as module-level names, spelled as in V8.  Hot paths
# compare against these: reading ``InstanceType.JS_ARRAY`` off the enum
# class costs several times a global lookup, on every test.
ODDBALL_TYPE = InstanceType.ODDBALL
HEAP_NUMBER_TYPE = InstanceType.HEAP_NUMBER
STRING_TYPE = InstanceType.STRING
FIXED_ARRAY_TYPE = InstanceType.FIXED_ARRAY
FIXED_DOUBLE_ARRAY_TYPE = InstanceType.FIXED_DOUBLE_ARRAY
JS_OBJECT_TYPE = InstanceType.JS_OBJECT
JS_ARRAY_TYPE = InstanceType.JS_ARRAY
JS_FUNCTION_TYPE = InstanceType.JS_FUNCTION
MAP_TYPE = InstanceType.MAP
PACKED_SMI_ELEMENTS = ElementsKind.PACKED_SMI
PACKED_DOUBLE_ELEMENTS = ElementsKind.PACKED_DOUBLE
PACKED_ELEMENTS = ElementsKind.PACKED


class Map:
    """A hidden class.

    Attributes
    ----------
    address:
        Heap address assigned by the :class:`MapRegistry`; this is the value
        compared by wrong-map checks in generated code.
    property_offsets:
        name -> in-object slot offset (slot 0 is the map word itself, so
        property offsets start at 1).
    """

    __slots__ = (
        "map_id",
        "address",
        "instance_type",
        "elements_kind",
        "property_offsets",
        "transitions",
        "elements_transitions",
        "is_stable",
        "_dependents",
        "parent",
    )

    def __init__(
        self,
        map_id: int,
        instance_type: InstanceType,
        elements_kind: ElementsKind = ElementsKind.PACKED,
        parent: Optional["Map"] = None,
    ) -> None:
        self.map_id = map_id
        self.address = -1  # assigned on registration
        self.instance_type = instance_type
        self.elements_kind = elements_kind
        self.property_offsets: Dict[str, int] = {}
        self.transitions: Dict[str, "Map"] = {}
        self.elements_transitions: Dict[ElementsKind, "Map"] = {}
        self.is_stable = True
        self._dependents: List[Callable[["Map"], None]] = []
        self.parent = parent

    # ------------------------------------------------------------------
    # Property layout
    # ------------------------------------------------------------------

    def lookup(self, name: str) -> Optional[int]:
        """In-object slot offset of ``name``, or None if absent."""
        return self.property_offsets.get(name)

    @property
    def property_count(self) -> int:
        return len(self.property_offsets)

    def next_slot(self) -> int:
        """Slot offset that the next added property would occupy."""
        return 1 + self.property_count

    # ------------------------------------------------------------------
    # Stability dependencies (the lazy-deopt hook)
    # ------------------------------------------------------------------

    def add_dependent(self, callback: Callable[["Map"], None]) -> None:
        """Register compiled code that assumed this map is stable.

        The callback fires when the map is destabilized (an object
        transitioned away from it), which is the engine's lazy-deopt signal.
        """
        self._dependents.append(callback)

    def destabilize(self) -> None:
        if not self.is_stable:
            return
        self.is_stable = False
        dependents, self._dependents = self._dependents, []
        for callback in dependents:
            callback(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        props = ",".join(self.property_offsets)
        return (
            f"<Map #{self.map_id} {self.instance_type.name}"
            f" kind={self.elements_kind.name} props=[{props}]>"
        )


class MapRegistry:
    """Owns all maps, assigns their heap addresses, resolves transitions."""

    def __init__(self) -> None:
        self._maps: List[Map] = []
        #: map address -> Map (``Heap.map_of`` indexes it directly)
        self.by_address_table: Dict[int, Map] = {}

    def create(
        self,
        instance_type: InstanceType,
        elements_kind: ElementsKind = ElementsKind.PACKED,
        parent: Optional[Map] = None,
    ) -> Map:
        new_map = Map(len(self._maps), instance_type, elements_kind, parent)
        self._maps.append(new_map)
        return new_map

    def register_address(self, a_map: Map, address: int) -> None:
        a_map.address = address
        self.by_address_table[address] = a_map

    def by_address(self, address: int) -> Map:
        return self.by_address_table[address]

    def transition_add_property(self, source: Map, name: str) -> Map:
        """Map reached by adding property ``name`` to an object of ``source``.

        Reuses an existing transition when present so that objects built the
        same way share the same hidden class — the property that makes
        map checks effective in the first place.
        """
        existing = source.transitions.get(name)
        if existing is not None:
            return existing
        child = self.create(source.instance_type, source.elements_kind, parent=source)
        child.property_offsets = dict(source.property_offsets)
        child.property_offsets[name] = source.next_slot()
        source.transitions[name] = child
        return child

    def transition_elements_kind(self, source: Map, kind: ElementsKind) -> Map:
        """Map reached by generalizing ``source``'s elements kind to ``kind``."""
        if not source.elements_kind.generalizes_to(kind):
            raise ValueError(
                f"illegal elements transition {source.elements_kind.name} ->"
                f" {kind.name}"
            )
        if kind == source.elements_kind:
            return source
        existing = source.elements_transitions.get(kind)
        if existing is not None:
            return existing
        child = self.create(source.instance_type, kind, parent=source)
        child.property_offsets = dict(source.property_offsets)
        source.elements_transitions[kind] = child
        return child

    def __len__(self) -> int:
        return len(self._maps)
