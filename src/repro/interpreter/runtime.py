"""JavaScript operator semantics over tagged words.

These helpers implement the ECMAScript coercion rules our subset needs and
report what :class:`~repro.interpreter.feedback.OperandFeedback` the
operation observed — the interpreter records that into feedback vectors.

They are also the engine's *deopt-safe* slow paths: when JIT-compiled code
bails out, execution resumes in the interpreter, which funnels every
operation through these functions.
"""

from __future__ import annotations

import math
from typing import Tuple

from ..lang.errors import JSTypeError
from ..values.heap import Heap, ODDBALL_KIND_OFFSET, ODDBALL_TRUE, ODDBALL_UNDEFINED
from ..values.maps import (
    HEAP_NUMBER_TYPE,
    JS_ARRAY_TYPE,
    JS_FUNCTION_TYPE,
    JS_OBJECT_TYPE,
    ODDBALL_TYPE,
    STRING_TYPE,
    InstanceType,
    Map,
)
from ..values.tagged import is_smi
from .feedback import (
    ANY_FEEDBACK,
    NUMBER_FEEDBACK,
    SIGNED_SMALL_FEEDBACK,
    STRING_FEEDBACK,
    OperandFeedback,
)

_TWO_32 = 1 << 32
_TWO_31 = 1 << 31


# ---------------------------------------------------------------------------
# Type inspection / coercion
# ---------------------------------------------------------------------------


def kind_of(heap: Heap, word: int) -> InstanceType:
    """InstanceType of a word; SMIs map to HEAP_NUMBER-like numeric kind."""
    if is_smi(word):
        return HEAP_NUMBER_TYPE
    return heap.map_of(word >> 1).instance_type


def is_number(heap: Heap, word: int) -> bool:
    return is_smi(word) or heap.map_of(word >> 1).instance_type == HEAP_NUMBER_TYPE


def is_string(heap: Heap, word: int) -> bool:
    return not is_smi(word) and heap.map_of(word >> 1).instance_type == STRING_TYPE


def js_truthy(heap: Heap, word: int) -> bool:
    if is_smi(word):
        return word != 0
    addr = word >> 1
    itype = heap.map_of(addr).instance_type
    if itype == HEAP_NUMBER_TYPE:
        value = heap.number_to_float(word)
        return value != 0.0 and not math.isnan(value)
    if itype == STRING_TYPE:
        return len(heap.string_value(word)) != 0
    if itype == ODDBALL_TYPE:
        return heap.read(addr, ODDBALL_KIND_OFFSET) == ODDBALL_TRUE
    return True  # objects, arrays, functions


def js_to_number(heap: Heap, word: int) -> float:
    if is_smi(word):
        return float(word >> 1)
    addr = word >> 1
    itype = heap.map_of(addr).instance_type
    if itype == HEAP_NUMBER_TYPE:
        return heap.number_to_float(word)
    if itype == ODDBALL_TYPE:
        kind = heap.read(addr, ODDBALL_KIND_OFFSET)
        if kind == ODDBALL_TRUE:
            return 1.0
        if kind == ODDBALL_UNDEFINED:
            return float("nan")
        return 0.0  # null, false
    if itype == STRING_TYPE:
        text = heap.string_value(word).strip()
        if not text:
            return 0.0
        try:
            if text.startswith(("0x", "0X")):
                return float(int(text, 16))
            return float(text)
        except ValueError:
            return float("nan")
    return float("nan")  # objects without valueOf in the subset


def js_number_to_string(value: float) -> str:
    """ECMAScript Number::toString for the common cases."""
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "Infinity" if value > 0 else "-Infinity"
    if value == int(value) and abs(value) < 1e21:
        return str(int(value))
    return repr(value)


def js_to_string(heap: Heap, word: int) -> str:
    if is_smi(word):
        return str(word >> 1)
    addr = word >> 1
    itype = heap.map_of(addr).instance_type
    if itype == STRING_TYPE:
        return heap.string_value(word)
    if itype == HEAP_NUMBER_TYPE:
        return js_number_to_string(heap.number_to_float(word))
    if itype == ODDBALL_TYPE:
        kind = heap.read(addr, ODDBALL_KIND_OFFSET)
        return {0: "undefined", 1: "null", 2: "true", 3: "false", 4: "hole"}[kind]  # type: ignore[index]
    if itype == JS_ARRAY_TYPE:
        # Array -> string joins elements with "," (the paper's intro example:
        # [1,2,3] + 7 === "1,2,37").
        return ",".join(
            js_to_string(heap, heap.array_get(word, i))
            for i in range(heap.array_length(word))
        )
    if itype == JS_FUNCTION_TYPE:
        return "function"
    return "[object Object]"


def js_to_int32(value: float) -> int:
    if math.isnan(value) or math.isinf(value):
        return 0
    value = math.trunc(value)
    value = int(value) % _TWO_32
    return value - _TWO_32 if value >= _TWO_31 else value


def js_to_uint32(value: float) -> int:
    if math.isnan(value) or math.isinf(value):
        return 0
    return int(math.trunc(value)) % _TWO_32


# ---------------------------------------------------------------------------
# Arithmetic
# ---------------------------------------------------------------------------


def js_add(heap: Heap, lhs: int, rhs: int) -> Tuple[int, OperandFeedback]:
    if is_smi(lhs) and is_smi(rhs):
        result = (lhs >> 1) + (rhs >> 1)
        if heap.config.fits_smi(result):
            return (result << 1), SIGNED_SMALL_FEEDBACK
        return heap.alloc_number(float(result)), NUMBER_FEEDBACK
    if is_number(heap, lhs) and is_number(heap, rhs):
        value = heap.number_to_float(lhs) + heap.number_to_float(rhs)
        return heap.number_from_float(value), NUMBER_FEEDBACK
    if is_string(heap, lhs) or is_string(heap, rhs):
        text = js_to_string(heap, lhs) + js_to_string(heap, rhs)
        return heap.alloc_string(text), STRING_FEEDBACK
    # ToPrimitive on objects/arrays yields strings in the subset.
    if kind_of(heap, lhs) in (JS_ARRAY_TYPE, JS_OBJECT_TYPE) or kind_of(
        heap, rhs
    ) in (JS_ARRAY_TYPE, JS_OBJECT_TYPE):
        text = js_to_string(heap, lhs) + js_to_string(heap, rhs)
        return heap.alloc_string(text), ANY_FEEDBACK
    value = js_to_number(heap, lhs) + js_to_number(heap, rhs)
    return heap.number_from_float(value), ANY_FEEDBACK


def js_subtract(heap: Heap, lhs: int, rhs: int) -> Tuple[int, OperandFeedback]:
    if is_smi(lhs) and is_smi(rhs):
        result = (lhs >> 1) - (rhs >> 1)
        if heap.config.fits_smi(result):
            return (result << 1), SIGNED_SMALL_FEEDBACK
        return heap.alloc_number(float(result)), NUMBER_FEEDBACK
    feedback = (
        NUMBER_FEEDBACK
        if is_number(heap, lhs) and is_number(heap, rhs)
        else ANY_FEEDBACK
    )
    value = js_to_number(heap, lhs) - js_to_number(heap, rhs)
    return heap.number_from_float(value), feedback


def js_multiply(heap: Heap, lhs: int, rhs: int) -> Tuple[int, OperandFeedback]:
    if is_smi(lhs) and is_smi(rhs):
        a, b = lhs >> 1, rhs >> 1
        result = a * b
        # -0 results force the NUMBER representation (V8's minus-zero deopt).
        if heap.config.fits_smi(result) and not (
            result == 0 and (a < 0 or b < 0)
        ):
            return (result << 1), SIGNED_SMALL_FEEDBACK
        # float multiply produces the correct -0.0 for e.g. -1 * 0.
        return heap.number_from_float(float(a) * float(b)), NUMBER_FEEDBACK
    feedback = (
        NUMBER_FEEDBACK
        if is_number(heap, lhs) and is_number(heap, rhs)
        else ANY_FEEDBACK
    )
    value = js_to_number(heap, lhs) * js_to_number(heap, rhs)
    return heap.number_from_float(value), feedback


def js_divide(heap: Heap, lhs: int, rhs: int) -> Tuple[int, OperandFeedback]:
    numeric = is_number(heap, lhs) and is_number(heap, rhs)
    a = js_to_number(heap, lhs)
    b = js_to_number(heap, rhs)
    if b == 0.0:
        if a == 0.0 or math.isnan(a):
            value = float("nan")
        else:
            sign = math.copysign(1.0, a) * math.copysign(1.0, b)
            value = math.inf * sign
    else:
        value = a / b
    if (
        is_smi(lhs)
        and is_smi(rhs)
        and not math.isnan(value)
        and not math.isinf(value)
        and value == int(value)
        and heap.config.fits_smi(int(value))
        and not (value == 0.0 and math.copysign(1.0, value) < 0)
    ):
        return (int(value) << 1), SIGNED_SMALL_FEEDBACK
    return heap.number_from_float(value), (
        NUMBER_FEEDBACK if numeric else ANY_FEEDBACK
    )


def js_modulo(heap: Heap, lhs: int, rhs: int) -> Tuple[int, OperandFeedback]:
    numeric = is_number(heap, lhs) and is_number(heap, rhs)
    a = js_to_number(heap, lhs)
    b = js_to_number(heap, rhs)
    if b == 0.0 or math.isnan(a) or math.isnan(b) or math.isinf(a):
        value = float("nan")
    elif math.isinf(b):
        value = a
    else:
        value = math.fmod(a, b)
    if (
        is_smi(lhs)
        and is_smi(rhs)
        and not math.isnan(value)
        and value == int(value)
        and not (value == 0.0 and (math.copysign(1.0, value) < 0 or lhs < 0))
        and heap.config.fits_smi(int(value))
    ):
        return (int(value) << 1), SIGNED_SMALL_FEEDBACK
    return heap.number_from_float(value), (
        NUMBER_FEEDBACK if numeric else ANY_FEEDBACK
    )


def js_negate(heap: Heap, operand: int) -> Tuple[int, OperandFeedback]:
    if is_smi(operand):
        value = -(operand >> 1)
        if value != 0 and heap.config.fits_smi(value):
            return (value << 1), SIGNED_SMALL_FEEDBACK
        # -0 and SMI_MIN overflow go to the double domain.
        return heap.number_from_float(-float(operand >> 1)), NUMBER_FEEDBACK
    feedback = NUMBER_FEEDBACK if is_number(heap, operand) else ANY_FEEDBACK
    return heap.number_from_float(-js_to_number(heap, operand)), feedback


_BITWISE = {
    "or": lambda a, b: a | b,
    "and": lambda a, b: a & b,
    "xor": lambda a, b: a ^ b,
    "shl": lambda a, b: js_to_int32(float((a % _TWO_32) << (b & 31))),
    "sar": lambda a, b: a >> (b & 31),
}


def js_bitwise(heap: Heap, op: str, lhs: int, rhs: int) -> Tuple[int, OperandFeedback]:
    smi_inputs = is_smi(lhs) and is_smi(rhs)
    numeric = is_number(heap, lhs) and is_number(heap, rhs)
    a = js_to_int32(js_to_number(heap, lhs))
    b = js_to_int32(js_to_number(heap, rhs))
    if op == "shr":
        result = (a % _TWO_32) >> (js_to_uint32(js_to_number(heap, rhs)) & 31)
        value = float(result)
        if smi_inputs and heap.config.fits_smi(result):
            return (result << 1), SIGNED_SMALL_FEEDBACK
        return heap.number_from_float(value), (
            NUMBER_FEEDBACK if numeric else ANY_FEEDBACK
        )
    if op == "shl":
        result = js_to_int32(float(((a % _TWO_32) << (b & 31)) % _TWO_32))
    elif op == "sar":
        result = a >> (b & 31)
    else:
        result = _BITWISE[op](a, b)
    if smi_inputs and heap.config.fits_smi(result):
        return (result << 1), SIGNED_SMALL_FEEDBACK
    return heap.number_from_float(float(result)), (
        NUMBER_FEEDBACK if numeric else ANY_FEEDBACK
    )


def js_bit_not(heap: Heap, operand: int) -> Tuple[int, OperandFeedback]:
    value = ~js_to_int32(js_to_number(heap, operand))
    if is_smi(operand) and heap.config.fits_smi(value):
        return (value << 1), SIGNED_SMALL_FEEDBACK
    return heap.number_from_float(float(value)), (
        NUMBER_FEEDBACK if is_number(heap, operand) else ANY_FEEDBACK
    )


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------


def js_compare(heap: Heap, op: str, lhs: int, rhs: int) -> Tuple[bool, OperandFeedback]:
    """Relational <, <=, >, >= with JS coercion."""
    if is_smi(lhs) and is_smi(rhs):
        return _relate(op, lhs >> 1, rhs >> 1), SIGNED_SMALL_FEEDBACK
    if is_number(heap, lhs) and is_number(heap, rhs):
        a_f, b_f = heap.number_to_float(lhs), heap.number_to_float(rhs)
        if math.isnan(a_f) or math.isnan(b_f):
            return False, NUMBER_FEEDBACK
        return _relate(op, a_f, b_f), NUMBER_FEEDBACK
    if is_string(heap, lhs) and is_string(heap, rhs):
        return _relate(op, heap.string_value(lhs), heap.string_value(rhs)), STRING_FEEDBACK
    a_f, b_f = js_to_number(heap, lhs), js_to_number(heap, rhs)
    if math.isnan(a_f) or math.isnan(b_f):
        return False, ANY_FEEDBACK
    return _relate(op, a_f, b_f), ANY_FEEDBACK


def _relate(op: str, a, b) -> bool:
    if op == "lt":
        return a < b
    if op == "le":
        return a <= b
    if op == "gt":
        return a > b
    return a >= b


def js_strict_equals(heap: Heap, lhs: int, rhs: int) -> Tuple[bool, OperandFeedback]:
    if is_smi(lhs) and is_smi(rhs):
        return lhs == rhs, SIGNED_SMALL_FEEDBACK
    if is_number(heap, lhs) and is_number(heap, rhs):
        a, b = heap.number_to_float(lhs), heap.number_to_float(rhs)
        return (not math.isnan(a) and not math.isnan(b) and a == b), NUMBER_FEEDBACK
    lk, rk = kind_of(heap, lhs), kind_of(heap, rhs)
    if lk != rk:
        return False, ANY_FEEDBACK
    if lk == STRING_TYPE:
        return heap.string_value(lhs) == heap.string_value(rhs), STRING_FEEDBACK
    return lhs == rhs, ANY_FEEDBACK  # identity for objects/oddballs


def js_loose_equals(heap: Heap, lhs: int, rhs: int) -> Tuple[bool, OperandFeedback]:
    if is_smi(lhs) and is_smi(rhs):
        return lhs == rhs, SIGNED_SMALL_FEEDBACK
    if is_number(heap, lhs) and is_number(heap, rhs):
        a, b = heap.number_to_float(lhs), heap.number_to_float(rhs)
        return (not math.isnan(a) and not math.isnan(b) and a == b), NUMBER_FEEDBACK
    lk, rk = kind_of(heap, lhs), kind_of(heap, rhs)
    if lk == STRING_TYPE and rk == STRING_TYPE:
        return heap.string_value(lhs) == heap.string_value(rhs), STRING_FEEDBACK
    if lk == ODDBALL_TYPE and rk == ODDBALL_TYPE:
        # null == undefined (and every oddball equals itself).
        null_like = {heap.undefined, heap.null}
        if lhs in null_like and rhs in null_like:
            return True, ANY_FEEDBACK
        return lhs == rhs, ANY_FEEDBACK
    if lk == ODDBALL_TYPE and lhs in (heap.undefined, heap.null):
        return False, ANY_FEEDBACK
    if rk == ODDBALL_TYPE and rhs in (heap.undefined, heap.null):
        return False, ANY_FEEDBACK
    if lk in (JS_OBJECT_TYPE, JS_ARRAY_TYPE, JS_FUNCTION_TYPE) and rk == lk:
        return lhs == rhs, ANY_FEEDBACK
    # Mixed types: compare numerically (covers number==string, bool==number).
    a, b = js_to_number(heap, lhs), js_to_number(heap, rhs)
    return (not math.isnan(a) and not math.isnan(b) and a == b), ANY_FEEDBACK


def js_typeof(heap: Heap, word: int) -> str:
    if is_smi(word):
        return "number"
    addr = word >> 1
    itype = heap.map_of(addr).instance_type
    if itype == HEAP_NUMBER_TYPE:
        return "number"
    if itype == STRING_TYPE:
        return "string"
    if itype == ODDBALL_TYPE:
        kind = heap.read(addr, ODDBALL_KIND_OFFSET)
        if kind == ODDBALL_UNDEFINED:
            return "undefined"
        if kind in (2, 3):
            return "boolean"
        return "object"  # null
    if itype == JS_FUNCTION_TYPE:
        return "function"
    return "object"


# ---------------------------------------------------------------------------
# Property and element protocol (interpreter and compiled code's generic stubs)
# ---------------------------------------------------------------------------


def js_get_property(heap: Heap, receiver: int, name: str) -> int:
    """``receiver.name`` without inline-cache feedback: the read rule of
    string-keyed element loads and of compiled code's generic stub."""
    if is_smi(receiver):
        raise JSTypeError(f"cannot read {name!r} of a number")
    itype = heap.map_of(receiver >> 1).instance_type
    if itype == JS_ARRAY_TYPE and name == "length":
        return heap.to_word(heap.array_length(receiver))
    if itype == STRING_TYPE and name == "length":
        return heap.to_word(len(heap.string_value(receiver)))
    if itype == JS_OBJECT_TYPE or itype == JS_ARRAY_TYPE:
        value = heap.object_get_property(receiver, name)
        return value if value is not None else heap.undefined
    raise JSTypeError(f"cannot read {name!r}")


def js_set_property(heap: Heap, receiver: int, name: str, value: int) -> Tuple[Map, int, bool]:
    """``receiver.name = value``; returns the map before the store, the
    property's offset, and whether the store added the property.

    Only JS objects carry named properties in the subset (``a.length`` on
    an array is read-only), so any other receiver raises before anything
    is stored.
    """
    if is_smi(receiver):
        raise JSTypeError(f"cannot set property {name!r} on a number")
    addr = receiver >> 1
    receiver_map = heap.map_of(addr)
    itype = receiver_map.instance_type
    if itype != JS_OBJECT_TYPE:
        kind = "an array" if itype == JS_ARRAY_TYPE else js_typeof(heap, receiver)
        raise JSTypeError(f"cannot set property {name!r} on {kind}")
    offset = receiver_map.lookup(name)
    transition = offset is None
    heap.object_set_property(receiver, name, value)
    if transition:
        offset = heap.map_of(addr).lookup(name)
    assert offset is not None
    return receiver_map, offset, transition


def element_index(heap: Heap, key: int) -> int:
    """Index named by a numeric element key that is not an SMI.

    The key must be integral and finite: ``a[1.5]``, ``a[undefined]`` (NaN)
    and ``a[1/0]`` raise instead of truncating.
    """
    value = js_to_number(heap, key)
    if not value.is_integer():
        raise JSTypeError("non-integer element index")
    return int(value)
