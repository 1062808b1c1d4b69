"""Tagged-word value representation, mirroring V8's pointer compression.

V8 stores JavaScript values as 32-bit *tagged* words.  The least-significant
bit is the tag: if it is **cleared** the remaining bits are a signed 31-bit
Small Integer (SMI); if it is **set** the remaining bits are a compressed
heap pointer.  SMIs therefore live directly in the word, while every other
value (doubles, strings, objects, ...) lives behind a pointer.

The paper (Section II-B.2) notes that V8 can also be built with "32-bit"
SMIs; those still use the LSB tag and the same untagging shift, so the check
and shift sequences under study are identical.  We expose the width through
:class:`TagConfig` so the ablation benches can verify that claim.

Word encodings used throughout the simulator:

* SMI:      ``word = value << 1``            (LSB = 0)
* pointer:  ``word = (address << 1) | 1``    (LSB = 1)

Addresses are indices into :class:`repro.values.heap.Heap`'s word array.
"""

from __future__ import annotations

from dataclasses import dataclass

SMI_TAG_SIZE = 1
SMI_TAG_MASK = 1
POINTER_TAG = 1


@dataclass(frozen=True)
class TagConfig:
    """Width configuration for SMIs.

    ``smi_bits`` counts the *payload* bits (31 in Chromium/D8 builds with
    pointer compression, 32 in Node.js builds without it).
    """

    smi_bits: int = 31

    def __post_init__(self) -> None:
        if self.smi_bits not in (31, 32):
            raise ValueError(f"smi_bits must be 31 or 32, got {self.smi_bits}")

    @property
    def smi_min(self) -> int:
        return -(1 << (self.smi_bits - 1))

    @property
    def smi_max(self) -> int:
        return (1 << (self.smi_bits - 1)) - 1

    def fits_smi(self, value: int) -> bool:
        # The range inline: the two properties cost a call each.
        bound = 1 << (self.smi_bits - 1)
        return -bound <= value <= bound - 1


DEFAULT_TAG_CONFIG = TagConfig(smi_bits=31)

#: Range constants for the default 31-bit configuration.
SMI_MIN = DEFAULT_TAG_CONFIG.smi_min
SMI_MAX = DEFAULT_TAG_CONFIG.smi_max


def is_smi(word: int) -> bool:
    """True when the tagged word encodes a Small Integer (LSB cleared)."""
    return (word & SMI_TAG_MASK) == 0


def is_heap_pointer(word: int) -> bool:
    """True when the tagged word encodes a heap pointer (LSB set)."""
    return (word & SMI_TAG_MASK) == POINTER_TAG


def smi_tag(value: int, config: TagConfig = DEFAULT_TAG_CONFIG) -> int:
    """Encode a machine integer as an SMI word.

    Raises :class:`OverflowError` when the value does not fit; callers that
    model speculative code must check :meth:`TagConfig.fits_smi` first (that
    check is exactly V8's overflow deopt condition).
    """
    if not config.fits_smi(value):
        raise OverflowError(f"{value} does not fit in a {config.smi_bits}-bit SMI")
    return value << SMI_TAG_SIZE


def smi_untag(word: int) -> int:
    """Decode an SMI word into a machine integer (the untagging right-shift)."""
    if word & SMI_TAG_MASK:
        raise ValueError(f"word {word:#x} is not an SMI")
    return word >> SMI_TAG_SIZE


def pointer_tag(address: int) -> int:
    """Encode a heap address as a tagged pointer word."""
    if address < 0:
        raise ValueError(f"heap address must be non-negative, got {address}")
    return (address << SMI_TAG_SIZE) | POINTER_TAG


def pointer_untag(word: int) -> int:
    """Decode a tagged pointer word into a heap address."""
    if not word & SMI_TAG_MASK:
        raise ValueError(f"word {word:#x} is not a heap pointer")
    return word >> SMI_TAG_SIZE
