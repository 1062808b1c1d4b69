"""The bytecode interpreter (Ignition-equivalent tier).

Executes :class:`~repro.bytecode.opcodes.FunctionInfo` bytecode over tagged
words, records type feedback, charges simulated interpreter cycles, and
drives tier-up.  It is also the target of deoptimization: compiled code that
fails a check resumes here, mid-function, via :meth:`Interpreter.run_from`.
"""

from __future__ import annotations

from typing import List, Sequence

from ..bytecode.opcodes import FunctionInfo, Instr, Op
from ..lang.errors import JSTypeError
from ..values.heap import Heap
from ..values.maps import JS_ARRAY_TYPE, JS_OBJECT_TYPE, PACKED_SMI_ELEMENTS, STRING_TYPE
from ..values.tagged import is_smi
from . import runtime
from .feedback import ANY_FEEDBACK, NUMBER_FEEDBACK, SIGNED_SMALL_FEEDBACK, FeedbackVector

#: Simulated cycles charged per interpreted bytecode (handler dispatch +
#: work).  Roughly calibrated so that optimized code runs ~2.5x faster in
#: steady state, matching the paper's Fig. 6 observation.
INTERP_BASE_COST = 9
_OP_EXTRA_COST = {
    Op.CALL: 14,
    Op.CALL_METHOD: 18,
    Op.NEW: 24,
    Op.GET_PROPERTY: 6,
    Op.SET_PROPERTY: 8,
    Op.GET_ELEMENT: 6,
    Op.SET_ELEMENT: 8,
    Op.CREATE_ARRAY: 20,
    Op.CREATE_OBJECT: 24,
    Op.CREATE_CLOSURE: 12,
    Op.DIV: 12,
    Op.MOD: 12,
    Op.LOAD_GLOBAL: 3,
    Op.STORE_GLOBAL: 3,
}
#: The full charge of each opcode, built once: one lookup per step.
_OP_COST = {op: INTERP_BASE_COST + _OP_EXTRA_COST.get(op, 0) for op in Op}

_BINARY_DISPATCH = {
    Op.ADD: runtime.js_add,
    Op.SUB: runtime.js_subtract,
    Op.MUL: runtime.js_multiply,
    Op.DIV: runtime.js_divide,
    Op.MOD: runtime.js_modulo,
}

_BITWISE_NAMES = {
    Op.BIT_OR: "or",
    Op.BIT_AND: "and",
    Op.BIT_XOR: "xor",
    Op.SHL: "shl",
    Op.SAR: "sar",
    Op.SHR: "shr",
}

_COMPARE_NAMES = {
    Op.TEST_LT: "lt",
    Op.TEST_LE: "le",
    Op.TEST_GT: "gt",
    Op.TEST_GE: "ge",
}

# The opcodes ``run_from`` tests one by one, bound to module-level names:
# reading ``Op.MOVE`` off the enum class costs several times a global
# lookup, and the dispatch chain makes a few such tests per bytecode.
MOVE = Op.MOVE
LOAD_CONST = Op.LOAD_CONST
LOAD_GLOBAL = Op.LOAD_GLOBAL
JUMP_IF_FALSE = Op.JUMP_IF_FALSE
GET_ELEMENT = Op.GET_ELEMENT
JUMP = Op.JUMP
SET_ELEMENT = Op.SET_ELEMENT
CALL = Op.CALL
TEST_EQ = Op.TEST_EQ
TEST_NE = Op.TEST_NE
CALL_METHOD = Op.CALL_METHOD
GET_PROPERTY = Op.GET_PROPERTY
JUMP_IF_TRUE = Op.JUMP_IF_TRUE
RETURN = Op.RETURN
NEG = Op.NEG
SET_PROPERTY = Op.SET_PROPERTY
STORE_GLOBAL = Op.STORE_GLOBAL
NEW = Op.NEW
LOAD_THIS = Op.LOAD_THIS
TEST_EQ_STRICT = Op.TEST_EQ_STRICT
TEST_NE_STRICT = Op.TEST_NE_STRICT
CREATE_ARRAY = Op.CREATE_ARRAY
CREATE_OBJECT = Op.CREATE_OBJECT
CREATE_CLOSURE = Op.CREATE_CLOSURE
TO_NUMBER = Op.TO_NUMBER
NOT = Op.NOT
BIT_NOT = Op.BIT_NOT
TYPEOF = Op.TYPEOF


class Interpreter:
    """Executes bytecode against an engine (duck-typed to avoid cycles).

    The engine must provide: ``heap``, ``charge(cycles, bucket)``,
    ``call_value(callee_word, this_word, args, call_slot)``,
    ``construct(callee_word, args, call_slot)``,
    ``call_primitive_method(receiver, name, args, call_slot)``,
    ``global_cell_index(name)``, ``global_cells`` (list of words),
    ``closure_for(function_index)``, and ``maybe_tier_up(shared)``.
    """

    def __init__(self, engine) -> None:
        self.engine = engine
        self.heap: Heap = engine.heap

    # ------------------------------------------------------------------

    def run(self, shared, this_word: int, args: Sequence[int]) -> int:
        """Execute a function from its entry point."""
        info: FunctionInfo = shared.info
        regs: List[int] = [self.heap.undefined] * info.register_count
        for i in range(min(len(args), info.param_count)):
            regs[i] = args[i]
        return self.run_from(shared, regs, 0, this_word)

    def run_from(self, shared, regs: List[int], pc: int, this_word: int) -> int:
        """Execute from ``pc`` with a pre-populated register file.

        This is the deoptimization entry point: the deoptimizer materializes
        the interpreter frame from machine state and resumes here.
        """
        heap = self.heap
        engine = self.engine
        info: FunctionInfo = shared.info
        feedback: FeedbackVector = shared.feedback
        code = info.bytecode
        cycles = 0
        cost = _OP_COST

        # Handlers are tested in order of how often they run (the suite's
        # interpreted mix), so the common bytecodes dispatch after a few
        # tests.
        while True:
            instr: Instr = code[pc]
            op = instr.op
            cycles += cost[op]

            if op == MOVE:
                regs[instr.dst] = regs[instr.a]
                pc += 1
            elif op == LOAD_CONST:
                regs[instr.dst] = self._constant_word(shared, instr.a)
                pc += 1
            elif op == LOAD_GLOBAL:
                slot = feedback.global_slot(instr.d)
                if slot.cell_index < 0:
                    slot.cell_index = engine.global_cell_index(info.names[instr.a])
                regs[instr.dst] = engine.global_cells[slot.cell_index]
                pc += 1
            elif op in _BINARY_DISPATCH:
                result, observed = _BINARY_DISPATCH[op](
                    heap, regs[instr.a], regs[instr.b]
                )
                feedback.binary(instr.d).record(observed)
                regs[instr.dst] = result
                pc += 1
            elif op == JUMP_IF_FALSE:
                taken = not runtime.js_truthy(heap, regs[instr.b])
                if taken and instr.a <= pc:
                    shared.backedge_count += 1
                    if shared.backedge_count & 127 == 0:
                        engine.maybe_tier_up(shared)
                pc = instr.a if taken else pc + 1
            elif op in _COMPARE_NAMES:
                outcome, observed = runtime.js_compare(
                    heap, _COMPARE_NAMES[op], regs[instr.a], regs[instr.b]
                )
                feedback.binary(instr.d).record(observed)
                regs[instr.dst] = heap.true_value if outcome else heap.false_value
                pc += 1
            elif op == GET_ELEMENT:
                regs[instr.dst] = self.get_element(
                    regs[instr.a], regs[instr.b], feedback, instr.d
                )
                pc += 1
            elif op == JUMP:
                if instr.a <= pc:  # back edge: tier-up bookkeeping
                    shared.backedge_count += 1
                    if shared.backedge_count & 127 == 0:
                        engine.maybe_tier_up(shared)
                pc = instr.a
            elif op == SET_ELEMENT:
                self.set_element(
                    regs[instr.a], regs[instr.b], regs[instr.c], feedback, instr.d
                )
                pc += 1
            elif op == CALL:
                engine.charge(cycles, "interpreter")
                cycles = 0
                arg_words = [regs[r] for r in instr.c]
                regs[instr.dst] = engine.call_value(
                    regs[instr.b], heap.undefined, arg_words, feedback.call(instr.d)
                )
                pc += 1
            elif op == TEST_EQ or op == TEST_NE:
                outcome, observed = runtime.js_loose_equals(
                    heap, regs[instr.a], regs[instr.b]
                )
                if op == TEST_NE:
                    outcome = not outcome
                feedback.binary(instr.d).record(observed)
                regs[instr.dst] = heap.true_value if outcome else heap.false_value
                pc += 1
            elif op in _BITWISE_NAMES:
                result, observed = runtime.js_bitwise(
                    heap, _BITWISE_NAMES[op], regs[instr.a], regs[instr.b]
                )
                feedback.binary(instr.d).record(observed)
                regs[instr.dst] = result
                pc += 1
            elif op == CALL_METHOD:
                engine.charge(cycles, "interpreter")
                cycles = 0
                receiver = regs[instr.b]
                arg_words = [regs[r] for r in instr.c]
                regs[instr.dst] = self._call_method(
                    receiver, info.names[instr.e], arg_words, feedback, instr.d
                )
                pc += 1
            elif op == GET_PROPERTY:
                regs[instr.dst] = self.get_property(
                    regs[instr.a], info.names[instr.b], feedback, instr.d
                )
                pc += 1
            elif op == JUMP_IF_TRUE:
                taken = runtime.js_truthy(heap, regs[instr.b])
                if taken and instr.a <= pc:
                    shared.backedge_count += 1
                    if shared.backedge_count & 127 == 0:
                        engine.maybe_tier_up(shared)
                pc = instr.a if taken else pc + 1
            elif op == RETURN:
                engine.charge(cycles, "interpreter")
                return regs[instr.a]
            elif op == NEG:
                result, observed = runtime.js_negate(heap, regs[instr.a])
                if instr.d >= 0:
                    feedback.binary(instr.d).record(observed)
                regs[instr.dst] = result
                pc += 1
            elif op == SET_PROPERTY:
                self.set_property(
                    regs[instr.a], info.names[instr.b], regs[instr.c], feedback, instr.d
                )
                pc += 1
            elif op == STORE_GLOBAL:
                engine.set_global_word(info.names[instr.a], regs[instr.b])
                pc += 1
            elif op == NEW:
                engine.charge(cycles, "interpreter")
                cycles = 0
                arg_words = [regs[r] for r in instr.c]
                regs[instr.dst] = engine.construct(
                    regs[instr.b], arg_words, feedback.call(instr.d)
                )
                pc += 1
            elif op == LOAD_THIS:
                regs[instr.dst] = this_word
                pc += 1
            elif op == TEST_EQ_STRICT or op == TEST_NE_STRICT:
                outcome, observed = runtime.js_strict_equals(
                    heap, regs[instr.a], regs[instr.b]
                )
                if instr.d >= 0:
                    feedback.binary(instr.d).record(observed)
                if op == TEST_NE_STRICT:
                    outcome = not outcome
                regs[instr.dst] = heap.true_value if outcome else heap.false_value
                pc += 1
            elif op == CREATE_ARRAY:
                regs[instr.dst] = self._create_array([regs[r] for r in instr.c])
                pc += 1
            elif op == CREATE_OBJECT:
                obj = self.heap.alloc_object()
                for key_index, value_reg in zip(instr.c, instr.e):
                    self.heap.object_set_property(
                        obj, info.names[key_index], regs[value_reg]
                    )
                regs[instr.dst] = obj
                pc += 1
            elif op == CREATE_CLOSURE:
                regs[instr.dst] = engine.closure_for(instr.a)
                pc += 1
            elif op == TO_NUMBER:
                word = regs[instr.a]
                if is_smi(word):
                    observed = SIGNED_SMALL_FEEDBACK
                    result = word
                else:
                    observed = NUMBER_FEEDBACK if runtime.is_number(heap, word) else ANY_FEEDBACK
                    result = heap.number_from_float(runtime.js_to_number(heap, word))
                if instr.d >= 0:
                    feedback.binary(instr.d).record(observed)
                regs[instr.dst] = result
                pc += 1
            elif op == NOT:
                regs[instr.dst] = (
                    heap.false_value
                    if runtime.js_truthy(heap, regs[instr.a])
                    else heap.true_value
                )
                pc += 1
            elif op == BIT_NOT:
                result, _observed = runtime.js_bit_not(heap, regs[instr.a])
                regs[instr.dst] = result
                pc += 1
            elif op == TYPEOF:
                regs[instr.dst] = heap.alloc_string(
                    runtime.js_typeof(heap, regs[instr.a]), intern=True
                )
                pc += 1
            else:  # pragma: no cover - all opcodes handled
                raise AssertionError(f"unhandled opcode {op.name}")

    # ------------------------------------------------------------------
    # Constants
    # ------------------------------------------------------------------

    def _constant_word(self, shared, index: int) -> int:
        cached = shared.constant_words[index]
        if cached is not None:
            return cached
        kind, value = shared.info.constants[index]
        heap = self.heap
        if kind == "int":
            word = heap.to_word(value)
        elif kind == "float":
            word = heap.number_from_float(value)  # type: ignore[arg-type]
        elif kind == "string":
            word = heap.alloc_string(value, intern=True)  # type: ignore[arg-type]
        else:
            word = {
                "undefined": heap.undefined,
                "null": heap.null,
                "true": heap.true_value,
                "false": heap.false_value,
            }[value]
        shared.constant_words[index] = word
        return word

    def _create_array(self, element_words: List[int]) -> int:
        heap = self.heap
        kind = PACKED_SMI_ELEMENTS
        for word in element_words:
            kind = max(kind, heap._kind_of_value(word))
        array = heap.alloc_array(kind, len(element_words))
        for i, word in enumerate(element_words):
            heap.array_set(array, i, word)
        return array

    # ------------------------------------------------------------------
    # Property / element protocol (shared with the deopt slow path)
    # ------------------------------------------------------------------

    def get_property(
        self, receiver: int, name: str, feedback: FeedbackVector, slot_index: int
    ) -> int:
        heap = self.heap
        if is_smi(receiver):
            raise JSTypeError(f"cannot read property {name!r} of a number")
        addr = receiver >> 1
        receiver_map = heap.map_of(addr)
        itype = receiver_map.instance_type
        if itype == JS_ARRAY_TYPE and name == "length":
            feedback.property(slot_index).record(receiver_map, -2)
            return heap.to_word(heap.array_length(receiver))
        if itype == STRING_TYPE and name == "length":
            feedback.property(slot_index).record(receiver_map, -3)
            return heap.to_word(len(heap.string_value(receiver)))
        if itype == JS_OBJECT_TYPE or itype == JS_ARRAY_TYPE:
            offset = receiver_map.lookup(name)
            if offset is None:
                feedback.property(slot_index).record(receiver_map, -1)
                return heap.undefined
            feedback.property(slot_index).record(receiver_map, offset)
            value = heap.read(addr, offset)
            assert isinstance(value, int)
            return value
        raise JSTypeError(f"cannot read property {name!r} of {runtime.js_typeof(heap, receiver)}")

    def set_property(
        self,
        receiver: int,
        name: str,
        value: int,
        feedback: FeedbackVector,
        slot_index: int,
    ) -> None:
        receiver_map, offset, transition = runtime.js_set_property(
            self.heap, receiver, name, value
        )
        feedback.property(slot_index).record(receiver_map, offset, transition=transition)

    def get_element(
        self, receiver: int, key: int, feedback: FeedbackVector, slot_index: int
    ) -> int:
        heap = self.heap
        slot = feedback.element(slot_index)
        if is_smi(key):
            index = key >> 1
        elif runtime.is_string(heap, key):
            # obj["name"] is a plain property read.  The element slot
            # keeps the receiver map, so compiled code calls the generic
            # stub instead of deopting on an uninitialized site.
            slot.saw_non_smi_index = True
            value = runtime.js_get_property(heap, receiver, heap.string_value(key))
            slot.record(heap.map_of(receiver >> 1))
            return value
        else:
            index = runtime.element_index(heap, key)
            slot.saw_non_smi_index = True
        if is_smi(receiver):
            raise JSTypeError("cannot index a number")
        receiver_map = heap.map_of(receiver >> 1)
        if receiver_map.instance_type == JS_ARRAY_TYPE:
            slot.record(receiver_map)
            if index < 0 or index >= heap.array_length(receiver):
                slot.saw_out_of_bounds = True
                return heap.undefined
            return heap.array_get(receiver, index)
        if receiver_map.instance_type == STRING_TYPE:
            text = heap.string_value(receiver)
            if 0 <= index < len(text):
                return heap.alloc_string(text[index])
            return heap.undefined
        raise JSTypeError("value is not indexable")

    def set_element(
        self,
        receiver: int,
        key: int,
        value: int,
        feedback: FeedbackVector,
        slot_index: int,
    ) -> None:
        heap = self.heap
        slot = feedback.element(slot_index)
        if is_smi(key):
            index = key >> 1
        elif runtime.is_string(heap, key):
            slot.saw_non_smi_index = True
            receiver_map, _offset, _transition = runtime.js_set_property(
                heap, receiver, heap.string_value(key), value
            )
            slot.record(receiver_map)
            return
        else:
            index = runtime.element_index(heap, key)
            slot.saw_non_smi_index = True
        if is_smi(receiver):
            raise JSTypeError("cannot index a number")
        receiver_map = heap.map_of(receiver >> 1)
        if receiver_map.instance_type != JS_ARRAY_TYPE:
            raise JSTypeError("value is not indexable")
        slot.record(receiver_map)
        length = heap.array_length(receiver)
        if index == length:
            # The append idiom a[a.length] = v is supported as a push.
            slot.saw_out_of_bounds = True
            heap.array_push(receiver, value)
            return
        if index < 0 or index > length:
            slot.saw_out_of_bounds = True
            raise JSTypeError(f"sparse array store at {index} (length {length})")
        heap.array_set(receiver, index, value)

    # ------------------------------------------------------------------

    def _call_method(
        self,
        receiver: int,
        name: str,
        args: List[int],
        feedback: FeedbackVector,
        slot_index: int,
    ) -> int:
        heap = self.heap
        engine = self.engine
        call_slot = feedback.call(slot_index)
        if not is_smi(receiver):
            receiver_map = heap.map_of(receiver >> 1)
            itype = receiver_map.instance_type
            if itype == STRING_TYPE:
                call_slot.record_primitive_method("string", name, receiver_map)
                return engine.call_primitive_method(receiver, name, args, call_slot)
            if itype == JS_ARRAY_TYPE:
                call_slot.record_primitive_method("array", name, receiver_map)
                return engine.call_primitive_method(receiver, name, args, call_slot)
            if itype == JS_OBJECT_TYPE:
                method_offset = receiver_map.lookup(name)
                method = (
                    None
                    if method_offset is None
                    else heap.read(receiver >> 1, method_offset)
                )
                if method is None or method == heap.undefined:
                    if engine.regex_from_word(receiver) is not None:
                        call_slot.record_primitive_method("regex", name, receiver_map)
                        return engine.call_primitive_method(
                            receiver, name, args, call_slot
                        )
                    raise JSTypeError(f"method {name!r} not found")
                assert isinstance(method, int)
                shared_index = engine.shared_index_of_function(method)
                if shared_index >= 0 and method_offset is not None:
                    call_slot.record_object_method(
                        receiver_map, method_offset, shared_index
                    )
                return engine.call_value(method, receiver, args, None)
        raise JSTypeError(
            f"cannot call method {name!r} on {runtime.js_typeof(heap, receiver)}"
        )
