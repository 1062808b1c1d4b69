"""A word-addressed simulated heap for JavaScript values.

Generated machine code in this reproduction manipulates *real* memory: every
object access compiles to loads/stores against this heap, every SMI check
inspects a genuine tag bit, and every wrong-map check compares genuine map
addresses.  This is what lets the profiler and the microarchitectural models
observe the same instruction sequences the paper studies.

The heap is a flat array of *words*.  A word normally holds a tagged 32-bit
value (Python int), but raw slots may hold floats (HeapNumber payloads,
double-array elements) or a Python string (string payloads) — a concession
to simulation speed that does not change any instruction sequence, since
those slots are only touched by typed load/store instructions.

Object layouts (offsets in words)::

    HeapNumber:        [map, raw_float]
    String:            [map, raw_length, raw_payload]
    Oddball:           [map, raw_kind]
    FixedArray:        [map, raw_length, tagged...]
    FixedDoubleArray:  [map, raw_length, raw_float...]
    JSObject:          [map, tagged_slot x capacity]
    JSArray:           [map, tagged elements_ptr, tagged smi_length]
    JSFunction:        [map, raw_shared_index]

JSObjects are allocated with a fixed in-object slot capacity
(:data:`DEFAULT_OBJECT_CAPACITY`); V8 would spill extra properties to an
out-of-object backing store, which none of our workloads need.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from heapq import heappop, heappush
from typing import Dict, Iterable, List, Optional, Tuple, Union

from .maps import (
    FIXED_ARRAY_TYPE,
    FIXED_DOUBLE_ARRAY_TYPE,
    HEAP_NUMBER_TYPE,
    JS_ARRAY_TYPE,
    JS_FUNCTION_TYPE,
    JS_OBJECT_TYPE,
    MAP_TYPE,
    ODDBALL_TYPE,
    PACKED_DOUBLE_ELEMENTS,
    PACKED_ELEMENTS,
    PACKED_SMI_ELEMENTS,
    STRING_TYPE,
    ElementsKind,
    InstanceType,
    Map,
    MapRegistry,
)
from .tagged import (
    DEFAULT_TAG_CONFIG,
    TagConfig,
    is_heap_pointer,
    is_smi,
    pointer_tag,
    pointer_untag,
    smi_tag,
    smi_untag,
)

Word = Union[int, float, str, None]

# Common layout: offset 0 is always the map word.
MAP_OFFSET = 0

NUMBER_VALUE_OFFSET = 1
NUMBER_SIZE = 2

STRING_LENGTH_OFFSET = 1
STRING_PAYLOAD_OFFSET = 2
STRING_SIZE = 3

ODDBALL_KIND_OFFSET = 1
ODDBALL_SIZE = 2

FIXED_ARRAY_LENGTH_OFFSET = 1
FIXED_ARRAY_ELEMENTS_OFFSET = 2

JS_ARRAY_ELEMENTS_OFFSET = 1
JS_ARRAY_LENGTH_OFFSET = 2
JS_ARRAY_SIZE = 3

JS_FUNCTION_SHARED_OFFSET = 1
JS_FUNCTION_SIZE = 2

DEFAULT_OBJECT_CAPACITY = 12

ODDBALL_UNDEFINED = 0
ODDBALL_NULL = 1
ODDBALL_TRUE = 2
ODDBALL_FALSE = 3
ODDBALL_HOLE = 4


class HeapError(Exception):
    """Raised on malformed heap accesses (a simulator bug, not a JS error)."""


class GCStats:
    """Counters exposed by the mark-sweep collector."""

    __slots__ = ("collections", "words_freed", "live_objects", "last_marked")

    def __init__(self) -> None:
        self.collections = 0
        self.words_freed = 0
        self.live_objects = 0
        self.last_marked = 0


class Heap:
    """Flat simulated heap plus the canonical maps and oddballs."""

    def __init__(
        self,
        config: TagConfig = DEFAULT_TAG_CONFIG,
        object_capacity: int = DEFAULT_OBJECT_CAPACITY,
    ) -> None:
        self.config = config
        self.object_capacity = object_capacity
        # Address 0 is reserved so that no valid pointer is the NULL word.
        self.words: List[Word] = [None]
        self._sizes: Dict[int, int] = {}
        # The free list, indexed by block size: a min-heap of (free-list
        # position, addr) per size present, plus those sizes in order.
        self._free: Dict[int, List[Tuple[int, int]]] = {}
        self._free_sizes: List[int] = []
        self._free_position = 0  # position of the next block swept
        self._map_cells: set = set()  # addresses of Map cells (immortal)
        self.maps = MapRegistry()
        self.allocations = 0
        self.allocated_words = 0
        self.gc_stats = GCStats()

        self.map_map = self._bootstrap_map(MAP_TYPE)
        self.oddball_map = self._bootstrap_map(ODDBALL_TYPE)
        self.number_map = self._bootstrap_map(HEAP_NUMBER_TYPE)
        self.string_map = self._bootstrap_map(STRING_TYPE)
        self.fixed_array_map = self._bootstrap_map(FIXED_ARRAY_TYPE)
        self.fixed_double_array_map = self._bootstrap_map(
            FIXED_DOUBLE_ARRAY_TYPE
        )
        self.function_map = self._bootstrap_map(JS_FUNCTION_TYPE)
        # Root of the JSObject transition tree: the shape of `{}`.
        self.empty_object_map = self._bootstrap_map(JS_OBJECT_TYPE)
        self.array_maps: Dict[ElementsKind, Map] = {
            kind: self._bootstrap_map(JS_ARRAY_TYPE, kind)
            for kind in ElementsKind
        }
        # Wire the elements-kind transition chain between the root array maps
        # so arrays built from literals share hidden classes.
        smi_map = self.array_maps[PACKED_SMI_ELEMENTS]
        dbl_map = self.array_maps[PACKED_DOUBLE_ELEMENTS]
        any_map = self.array_maps[PACKED_ELEMENTS]
        smi_map.elements_transitions[PACKED_DOUBLE_ELEMENTS] = dbl_map
        smi_map.elements_transitions[PACKED_ELEMENTS] = any_map
        dbl_map.elements_transitions[PACKED_ELEMENTS] = any_map

        self.undefined = self._alloc_oddball(ODDBALL_UNDEFINED)
        self.null = self._alloc_oddball(ODDBALL_NULL)
        self.true_value = self._alloc_oddball(ODDBALL_TRUE)
        self.false_value = self._alloc_oddball(ODDBALL_FALSE)
        self.the_hole = self._alloc_oddball(ODDBALL_HOLE)
        self._interned_strings: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Raw storage
    # ------------------------------------------------------------------

    def read(self, address: int, offset: int = 0) -> Word:
        try:
            return self.words[address + offset]
        except IndexError as exc:  # pragma: no cover - simulator bug guard
            raise HeapError(f"read out of heap at {address}+{offset}") from exc

    def write(self, address: int, offset: int, value: Word) -> None:
        try:
            self.words[address + offset] = value
        except IndexError as exc:  # pragma: no cover - simulator bug guard
            raise HeapError(f"write out of heap at {address}+{offset}") from exc

    def _allocate(self, size: int) -> int:
        """First-fit from the free list, else bump allocation.

        The block taken is the earliest in free-list order whose size is at
        least ``size``: the lowest position at the head of any size heap at
        or above the request.
        """
        self.allocations += 1
        self.allocated_words += size
        sizes = self._free_sizes
        if sizes and sizes[-1] >= size:
            free = self._free
            best = index = bisect_left(sizes, size)
            first = free[sizes[index]][0]
            for other in range(index + 1, len(sizes)):
                head = free[sizes[other]][0]
                if head < first:
                    best, first = other, head
            block_size = sizes[best]
            blocks = free[block_size]
            heappop(blocks)
            if not blocks:
                del free[block_size]
                del sizes[best]
            position, addr = first
            rest = block_size - size
            if rest:
                # Allocate from the front; the rest keeps the position.
                if rest in free:
                    heappush(free[rest], (position, addr + size))
                else:
                    free[rest] = [(position, addr + size)]
                    insort(sizes, rest)
            self.words[addr:addr + size] = [None] * size
            self._sizes[addr] = size
            return addr
        addr = len(self.words)
        self.words.extend([None] * size)
        self._sizes[addr] = size
        return addr

    def reserve_region(self, size: int) -> int:
        """Reserve a raw region (e.g. the JIT's bump-allocation nursery).

        The region is not tracked by the allocator or the collector: objects
        the JIT carves out of it are immortal (young-generation modelling is
        out of scope); the engine hands out fresh regions when one fills up.
        """
        addr = len(self.words)
        self.words.extend([None] * size)
        return addr

    # ------------------------------------------------------------------
    # Maps
    # ------------------------------------------------------------------

    def _bootstrap_map(
        self, instance_type: InstanceType, kind: ElementsKind = PACKED_ELEMENTS
    ) -> Map:
        new_map = self.maps.create(instance_type, kind)
        self._register_map(new_map)
        return new_map

    def _register_map(self, a_map: Map) -> None:
        # Maps are heap objects themselves (a single self-describing word) so
        # that map *addresses* exist for wrong-map comparisons.
        addr = self._allocate(1)
        self.words[addr] = a_map.map_id
        self._map_cells.add(addr)
        self.maps.register_address(a_map, addr)

    def ensure_map_registered(self, a_map: Map) -> Map:
        if a_map.address < 0:
            self._register_map(a_map)
        return a_map

    def map_of(self, address: int) -> Map:
        # One frame: the map word is read, tested and untagged inline.
        try:
            map_word = self.words[address + MAP_OFFSET]
        except IndexError as exc:  # pragma: no cover - simulator bug guard
            raise HeapError(f"read out of heap at {address}+{MAP_OFFSET}") from exc
        if not isinstance(map_word, int) or not map_word & 1:
            raise HeapError(f"object at {address} has corrupt map word {map_word!r}")
        return self.maps.by_address_table[map_word >> 1]

    def set_map(self, address: int, a_map: Map) -> None:
        self.ensure_map_registered(a_map)
        self.write(address, MAP_OFFSET, pointer_tag(a_map.address))

    # ------------------------------------------------------------------
    # Allocation of JS values
    # ------------------------------------------------------------------

    def _alloc_oddball(self, kind: int) -> int:
        addr = self._allocate(ODDBALL_SIZE)
        self.set_map(addr, self.oddball_map)
        self.write(addr, ODDBALL_KIND_OFFSET, kind)
        return pointer_tag(addr)

    def alloc_number(self, value: float) -> int:
        """Box a double as a HeapNumber; returns the tagged pointer."""
        addr = self._allocate(NUMBER_SIZE)
        self.set_map(addr, self.number_map)
        self.write(addr, NUMBER_VALUE_OFFSET, float(value))
        return pointer_tag(addr)

    def alloc_string(self, value: str, intern: bool = False) -> int:
        if intern:
            cached = self._interned_strings.get(value)
            if cached is not None:
                return cached
        addr = self._allocate(STRING_SIZE)
        self.set_map(addr, self.string_map)
        self.write(addr, STRING_LENGTH_OFFSET, len(value))
        self.write(addr, STRING_PAYLOAD_OFFSET, value)
        word = pointer_tag(addr)
        if intern:
            self._interned_strings[value] = word
        return word

    def alloc_fixed_array(self, length: int, fill_word: Optional[int] = None) -> int:
        fill = self.undefined if fill_word is None else fill_word
        addr = self._allocate(FIXED_ARRAY_ELEMENTS_OFFSET + length)
        self.set_map(addr, self.fixed_array_map)
        self.write(addr, FIXED_ARRAY_LENGTH_OFFSET, length)
        for i in range(length):
            self.write(addr, FIXED_ARRAY_ELEMENTS_OFFSET + i, fill)
        return pointer_tag(addr)

    def alloc_fixed_double_array(self, length: int, fill: float = 0.0) -> int:
        addr = self._allocate(FIXED_ARRAY_ELEMENTS_OFFSET + length)
        self.set_map(addr, self.fixed_double_array_map)
        self.write(addr, FIXED_ARRAY_LENGTH_OFFSET, length)
        for i in range(length):
            self.write(addr, FIXED_ARRAY_ELEMENTS_OFFSET + i, fill)
        return pointer_tag(addr)

    def alloc_array(self, kind: ElementsKind, length: int) -> int:
        """Allocate a JSArray with a packed backing store of ``kind``."""
        if kind == PACKED_DOUBLE_ELEMENTS:
            elements = self.alloc_fixed_double_array(length)
        else:
            fill = smi_tag(0, self.config) if kind == PACKED_SMI_ELEMENTS else None
            elements = self.alloc_fixed_array(length, fill)
        addr = self._allocate(JS_ARRAY_SIZE)
        self.set_map(addr, self.array_maps[kind])
        self.write(addr, JS_ARRAY_ELEMENTS_OFFSET, elements)
        self.write(addr, JS_ARRAY_LENGTH_OFFSET, smi_tag(length, self.config))
        return pointer_tag(addr)

    def alloc_object(
        self, a_map: Optional[Map] = None, capacity: Optional[int] = None
    ) -> int:
        obj_map = a_map if a_map is not None else self.empty_object_map
        self.ensure_map_registered(obj_map)
        slots = capacity if capacity is not None else self.object_capacity
        addr = self._allocate(1 + slots)
        self.set_map(addr, obj_map)
        for i in range(slots):
            self.write(addr, 1 + i, self.undefined)
        return pointer_tag(addr)

    def alloc_function(self, shared_index: int) -> int:
        addr = self._allocate(JS_FUNCTION_SIZE)
        self.set_map(addr, self.function_map)
        self.write(addr, JS_FUNCTION_SHARED_OFFSET, shared_index)
        return pointer_tag(addr)

    # ------------------------------------------------------------------
    # High-level object protocol (used by the interpreter and the runtime)
    # ------------------------------------------------------------------

    def object_get_property(self, word: int, name: str) -> Optional[int]:
        addr = pointer_untag(word)
        obj_map = self.map_of(addr)
        offset = obj_map.lookup(name)
        if offset is None:
            return None
        value = self.read(addr, offset)
        assert isinstance(value, int)
        return value

    def object_set_property(self, word: int, name: str, value_word: int) -> None:
        """Store a property, transitioning the hidden class when it is new."""
        addr = pointer_untag(word)
        obj_map = self.map_of(addr)
        offset = obj_map.lookup(name)
        if offset is None:
            offset = obj_map.next_slot()
            capacity = self._sizes[addr] - 1
            if offset > capacity:
                raise HeapError(
                    f"object exceeded in-object capacity of {capacity}"
                    f" adding property {name!r}"
                )
            new_map = self.maps.transition_add_property(obj_map, name)
            self.ensure_map_registered(new_map)
            self.set_map(addr, new_map)
            obj_map.destabilize()
        self.write(addr, offset, value_word)

    def array_length(self, word: int) -> int:
        addr = pointer_untag(word)
        length_word = self.read(addr, JS_ARRAY_LENGTH_OFFSET)
        assert isinstance(length_word, int)
        return smi_untag(length_word)

    def array_elements(self, word: int) -> int:
        addr = pointer_untag(word)
        elements_word = self.read(addr, JS_ARRAY_ELEMENTS_OFFSET)
        assert isinstance(elements_word, int)
        return pointer_untag(elements_word)

    def array_get(self, word: int, index: int) -> int:
        """Read arr[index] as a tagged word (boxing doubles on the fly)."""
        addr = pointer_untag(word)
        kind = self.map_of(addr).elements_kind
        elements = self.array_elements(word)
        length = self.array_length(word)
        if index < 0 or index >= length:
            return self.undefined
        value = self.read(elements, FIXED_ARRAY_ELEMENTS_OFFSET + index)
        if kind == PACKED_DOUBLE_ELEMENTS:
            assert isinstance(value, float)
            return self.number_from_float(value)
        assert isinstance(value, int)
        return value

    def array_set(self, word: int, index: int, value_word: int) -> None:
        """Store arr[index], generalizing the elements kind as needed."""
        addr = pointer_untag(word)
        length = self.array_length(word)
        if index < 0 or index >= length:
            raise HeapError(
                "simulated arrays are fixed-length; out-of-bounds store"
                f" at index {index} (length {length})"
            )
        arr_map = self.map_of(addr)
        kind = arr_map.elements_kind
        value_kind = self._kind_of_value(value_word)
        new_kind = generalized = max(kind, value_kind)
        if generalized != kind:
            self._transition_array_kind(addr, arr_map, new_kind)
            kind = new_kind
        elements = self.array_elements(word)
        if kind == PACKED_DOUBLE_ELEMENTS:
            self.write(
                elements,
                FIXED_ARRAY_ELEMENTS_OFFSET + index,
                self.number_to_float(value_word),
            )
        else:
            self.write(elements, FIXED_ARRAY_ELEMENTS_OFFSET + index, value_word)

    def array_push(self, word: int, value_word: int) -> int:
        """Append to a JSArray, growing the backing store; returns new length.

        Mirrors V8's ``Array.prototype.push`` builtin: the JSArray keeps its
        address while the elements pointer is swapped on growth, so compiled
        code holding the array pointer stays valid.
        """
        addr = pointer_untag(word)
        length = self.array_length(word)
        elements = self.array_elements(word)
        capacity_word = self.read(elements, FIXED_ARRAY_LENGTH_OFFSET)
        assert isinstance(capacity_word, int)
        capacity = capacity_word
        arr_map = self.map_of(addr)
        kind = arr_map.elements_kind
        value_kind = self._kind_of_value(value_word)
        if value_kind > kind:
            self._transition_array_kind(addr, arr_map, max(kind, value_kind))
            kind = self.map_of(addr).elements_kind
            elements = self.array_elements(word)
        if length >= capacity:
            new_capacity = max(4, capacity * 2)
            if kind == PACKED_DOUBLE_ELEMENTS:
                new_elements = self.alloc_fixed_double_array(new_capacity)
            else:
                new_elements = self.alloc_fixed_array(new_capacity)
            dst = pointer_untag(new_elements)
            for i in range(length):
                self.write(
                    dst,
                    FIXED_ARRAY_ELEMENTS_OFFSET + i,
                    self.read(elements, FIXED_ARRAY_ELEMENTS_OFFSET + i),
                )
            self.write(addr, JS_ARRAY_ELEMENTS_OFFSET, new_elements)
            elements = dst
        if kind == PACKED_DOUBLE_ELEMENTS:
            self.write(
                elements,
                FIXED_ARRAY_ELEMENTS_OFFSET + length,
                self.number_to_float(value_word),
            )
        else:
            self.write(elements, FIXED_ARRAY_ELEMENTS_OFFSET + length, value_word)
        self.write(addr, JS_ARRAY_LENGTH_OFFSET, smi_tag(length + 1, self.config))
        return length + 1

    def _kind_of_value(self, word: int) -> ElementsKind:
        if is_smi(word):
            return PACKED_SMI_ELEMENTS
        if self.map_of(word >> 1).instance_type == HEAP_NUMBER_TYPE:
            return PACKED_DOUBLE_ELEMENTS
        return PACKED_ELEMENTS

    def _transition_array_kind(
        self, addr: int, arr_map: Map, new_kind: ElementsKind
    ) -> None:
        new_map = self.maps.transition_elements_kind(arr_map, new_kind)
        self.ensure_map_registered(new_map)
        old_kind = arr_map.elements_kind
        elements_word = self.read(addr, JS_ARRAY_ELEMENTS_OFFSET)
        assert isinstance(elements_word, int)
        elements = pointer_untag(elements_word)
        capacity_word = self.read(elements, FIXED_ARRAY_LENGTH_OFFSET)
        assert isinstance(capacity_word, int)
        capacity = capacity_word
        # Convert only the array's live elements: after a push grew the
        # backing store, the slack slots past length hold the allocator's
        # filler (undefined / 0.0), which is not a value of the old kind.
        length_word = self.read(addr, JS_ARRAY_LENGTH_OFFSET)
        assert isinstance(length_word, int)
        length = min(smi_untag(length_word), capacity)
        if old_kind == PACKED_SMI_ELEMENTS and new_kind == PACKED_DOUBLE_ELEMENTS:
            new_elements = self.alloc_fixed_double_array(capacity)
            dst = pointer_untag(new_elements)
            for i in range(length):
                value = self.read(elements, FIXED_ARRAY_ELEMENTS_OFFSET + i)
                assert isinstance(value, int)
                self.write(dst, FIXED_ARRAY_ELEMENTS_OFFSET + i, float(smi_untag(value)))
            self.write(addr, JS_ARRAY_ELEMENTS_OFFSET, new_elements)
        elif old_kind == PACKED_DOUBLE_ELEMENTS and new_kind == PACKED_ELEMENTS:
            new_elements = self.alloc_fixed_array(capacity)
            dst = pointer_untag(new_elements)
            for i in range(length):
                value = self.read(elements, FIXED_ARRAY_ELEMENTS_OFFSET + i)
                assert isinstance(value, float)
                self.write(dst, FIXED_ARRAY_ELEMENTS_OFFSET + i, self.number_from_float(value))
            self.write(addr, JS_ARRAY_ELEMENTS_OFFSET, new_elements)
        elif old_kind == PACKED_SMI_ELEMENTS and new_kind == PACKED_ELEMENTS:
            pass  # SMI words are valid tagged words already
        self.set_map(addr, new_map)
        arr_map.destabilize()

    # ------------------------------------------------------------------
    # Boxing / unboxing at the Python boundary
    # ------------------------------------------------------------------

    def number_from_float(self, value: float) -> int:
        """Tagged word for a numeric value: SMI when possible, else boxed."""
        if (
            isinstance(value, int)
            or (not math.isinf(value) and not math.isnan(value) and value == int(value))
        ):
            as_int = int(value)
            if self.config.fits_smi(as_int) and (
                as_int != 0 or not _is_negative_zero(value)
            ):
                return smi_tag(as_int, self.config)
        return self.alloc_number(float(value))

    def number_to_float(self, word: int) -> float:
        if is_smi(word):
            return float(word >> 1)
        value = self.read(word >> 1, NUMBER_VALUE_OFFSET)
        assert isinstance(value, float)
        return value

    def string_value(self, word: int) -> str:
        addr = pointer_untag(word)
        value = self.read(addr, STRING_PAYLOAD_OFFSET)
        assert isinstance(value, str)
        return value

    def to_word(self, value: object) -> int:
        """Box an arbitrary Python value into a tagged word."""
        if value is None:
            return self.undefined
        if isinstance(value, bool):
            return self.true_value if value else self.false_value
        if isinstance(value, int):
            if self.config.fits_smi(value):
                return smi_tag(value, self.config)
            return self.alloc_number(float(value))
        if isinstance(value, float):
            return self.number_from_float(value)
        if isinstance(value, str):
            return self.alloc_string(value)
        if isinstance(value, list):
            kind = _list_kind(value)
            word = self.alloc_array(kind, len(value))
            for i, item in enumerate(value):
                self.array_set(word, i, self.to_word(item))
            return word
        if isinstance(value, dict):
            word = self.alloc_object()
            for key, item in value.items():
                self.object_set_property(word, str(key), self.to_word(item))
            return word
        raise TypeError(f"cannot box {type(value).__name__} into the JS heap")

    def to_python(self, word: int) -> object:
        """Unbox a tagged word into a Python value (deep for arrays)."""
        if is_smi(word):
            return word >> 1
        addr = word >> 1
        obj_map = self.map_of(addr)
        itype = obj_map.instance_type
        if itype == HEAP_NUMBER_TYPE:
            return self.number_to_float(word)
        if itype == STRING_TYPE:
            return self.string_value(word)
        if itype == ODDBALL_TYPE:
            kind = self.read(addr, ODDBALL_KIND_OFFSET)
            return {
                ODDBALL_UNDEFINED: None,
                ODDBALL_NULL: None,
                ODDBALL_TRUE: True,
                ODDBALL_FALSE: False,
                ODDBALL_HOLE: None,
            }[kind]  # type: ignore[index]
        if itype == JS_ARRAY_TYPE:
            return [
                self.to_python(self.array_get(word, i))
                for i in range(self.array_length(word))
            ]
        if itype == JS_OBJECT_TYPE:
            return {
                name: self.to_python(self.read(addr, offset))  # type: ignore[arg-type]
                for name, offset in obj_map.property_offsets.items()
            }
        return f"<{itype.name}@{addr}>"

    # ------------------------------------------------------------------
    # Garbage collection (mark-sweep, non-moving)
    # ------------------------------------------------------------------

    def collect(self, roots: Iterable[int]) -> int:
        """Mark-sweep from the given tagged root words; returns freed words.

        Non-moving, so it is safe to run whenever no raw (untagged) heap
        address is live outside the heap — the engine runs it between
        benchmark iterations, mirroring how real GC pauses land between
        units of work in steady state.
        """
        marked: set = set(self._map_cells)
        worklist: List[int] = []
        all_roots = list(roots)
        all_roots.extend(self._interned_strings.values())
        all_roots.extend(
            (self.undefined, self.null, self.true_value, self.false_value, self.the_hole)
        )
        roots = all_roots
        for word in roots:
            if isinstance(word, int) and is_heap_pointer(word):
                worklist.append(word >> 1)
        while worklist:
            addr = worklist.pop()
            if addr in marked or addr not in self._sizes:
                continue
            marked.add(addr)
            for child in self._tagged_slots(addr):
                if is_heap_pointer(child):
                    worklist.append(child >> 1)
        freed = 0
        free = self._free
        position = self._free_position
        for addr in list(self._sizes):
            if addr in marked:
                continue
            size = self._sizes.pop(addr)
            self.words[addr:addr + size] = [None] * size
            # Later than every block already free, so appending keeps the
            # heap ordered.
            free.setdefault(size, []).append((position, addr))
            position += 1
            freed += size
        self._free_position = position
        self._free_sizes = sorted(free)
        self.gc_stats.collections += 1
        self.gc_stats.words_freed += freed
        self.gc_stats.live_objects = len(marked)
        self.gc_stats.last_marked = len(marked)
        return freed

    def _tagged_slots(self, addr: int) -> List[int]:
        """Tagged child words of the object at ``addr`` (including its map)."""
        if addr in self._map_cells:
            return []  # a Map's own cell holds a raw map_id, not a tagged word
        map_word = self.words[addr]
        if not isinstance(map_word, int) or not is_heap_pointer(map_word):
            return []
        obj_map = self.maps.by_address(map_word >> 1)
        slots = [map_word]
        itype = obj_map.instance_type
        if itype == FIXED_ARRAY_TYPE:
            length = self.words[addr + FIXED_ARRAY_LENGTH_OFFSET]
            assert isinstance(length, int)
            for i in range(length):
                child = self.words[addr + FIXED_ARRAY_ELEMENTS_OFFSET + i]
                if isinstance(child, int):
                    slots.append(child)
        elif itype == JS_ARRAY_TYPE:
            child = self.words[addr + JS_ARRAY_ELEMENTS_OFFSET]
            if isinstance(child, int):
                slots.append(child)
        elif itype == JS_OBJECT_TYPE:
            capacity = self._sizes.get(addr, 1) - 1
            for i in range(capacity):
                child = self.words[addr + 1 + i]
                if isinstance(child, int):
                    slots.append(child)
        return slots


def _is_negative_zero(value: float) -> bool:
    return value == 0.0 and math.copysign(1.0, value) < 0


def _list_kind(values: list) -> ElementsKind:
    kind = PACKED_SMI_ELEMENTS
    for item in values:
        if isinstance(item, bool) or isinstance(item, (str, list, dict)) or item is None:
            return PACKED_ELEMENTS
        if isinstance(item, float) and item != int(item):
            kind = max(kind, PACKED_DOUBLE_ELEMENTS)
        elif isinstance(item, float):
            kind = max(kind, PACKED_DOUBLE_ELEMENTS)
        elif isinstance(item, int) and not DEFAULT_TAG_CONFIG.fits_smi(item):
            kind = max(kind, PACKED_DOUBLE_ELEMENTS)
    return kind
