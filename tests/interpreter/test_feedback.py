"""Type-feedback lattice tests."""

from repro.interpreter.feedback import (
    BinaryOpSlot,
    CallSlot,
    ElementSlot,
    FeedbackVector,
    GlobalSlot,
    ICState,
    OperandFeedback,
    PropertySlot,
)
from repro.values.maps import ElementsKind, InstanceType, MapRegistry


class TestOperandLattice:
    def test_none_is_identity(self):
        assert OperandFeedback.NONE.union(OperandFeedback.SIGNED_SMALL) == OperandFeedback.SIGNED_SMALL

    def test_smi_and_number_join_to_number(self):
        assert (
            OperandFeedback.SIGNED_SMALL.union(OperandFeedback.NUMBER)
            == OperandFeedback.NUMBER
        )

    def test_number_and_string_join_to_any(self):
        assert OperandFeedback.NUMBER.union(OperandFeedback.STRING) == OperandFeedback.ANY

    def test_union_matches_the_lattice_table(self):
        N, S, D, T, A = (
            OperandFeedback.NONE,
            OperandFeedback.SIGNED_SMALL,
            OperandFeedback.NUMBER,
            OperandFeedback.STRING,
            OperandFeedback.ANY,
        )
        table = {  # row.union(column), columns in the order N, S, D, T, A
            N: (N, S, D, T, A),
            S: (S, S, D, A, A),
            D: (D, D, D, A, A),
            T: (T, A, A, T, A),
            A: (A, A, A, A, A),
        }
        assert set(table) == set(OperandFeedback)
        for row, joins in table.items():
            for column, expected in zip((N, S, D, T, A), joins):
                assert row.union(column) is expected
                slot = BinaryOpSlot()
                slot.state = row
                slot.record(column)
                assert slot.state is expected

    def test_join_is_monotone(self):
        slot = BinaryOpSlot()
        slot.record(OperandFeedback.SIGNED_SMALL)
        slot.record(OperandFeedback.SIGNED_SMALL)
        assert slot.state == OperandFeedback.SIGNED_SMALL
        slot.record(OperandFeedback.STRING)
        assert slot.state == OperandFeedback.ANY
        slot.record(OperandFeedback.SIGNED_SMALL)
        assert slot.state == OperandFeedback.ANY  # never narrows


class TestPropertySlot:
    def make_maps(self, count):
        registry = MapRegistry()
        root = registry.create(InstanceType.JS_OBJECT)
        maps = []
        for i in range(count):
            maps.append(registry.transition_add_property(root, f"p{i}"))
        return maps

    def test_monomorphic(self):
        slot = PropertySlot()
        (m,) = self.make_maps(1)
        slot.record(m, 1)
        slot.record(m, 1)
        assert slot.state == ICState.MONOMORPHIC
        assert slot.monomorphic_map is m

    def test_polymorphic_then_megamorphic(self):
        slot = PropertySlot()
        maps = self.make_maps(5)
        for m in maps[:4]:
            slot.record(m, 1)
        assert slot.state == ICState.POLYMORPHIC
        slot.record(maps[4], 1)
        assert slot.state == ICState.MEGAMORPHIC
        assert slot.monomorphic_map is None

    def test_transition_flag_sticky(self):
        slot = PropertySlot()
        (m,) = self.make_maps(1)
        slot.record(m, 1, transition=True)
        assert slot.saw_transition


class TestElementSlot:
    def test_oob_flag(self):
        slot = ElementSlot()
        registry = MapRegistry()
        m = registry.create(InstanceType.JS_ARRAY, ElementsKind.PACKED_SMI)
        slot.record(m)
        slot.saw_out_of_bounds = True
        assert slot.monomorphic_map is m
        assert slot.saw_out_of_bounds


class TestCallSlot:
    def test_monomorphic_target(self):
        slot = CallSlot()
        slot.record_target(3)
        slot.record_target(3)
        assert slot.state == ICState.MONOMORPHIC
        assert slot.target_shared_index == 3

    def test_second_target_goes_megamorphic(self):
        slot = CallSlot()
        slot.record_target(3)
        slot.record_target(4)
        assert slot.state == ICState.MEGAMORPHIC
        assert slot.target_shared_index == -1

    def test_primitive_method_kind(self):
        slot = CallSlot()
        slot.record_primitive_method("string", "charCodeAt")
        assert slot.method_kind == ("string", "charCodeAt")
        slot.record_primitive_method("string", "charAt")
        assert slot.state == ICState.MEGAMORPHIC


class TestFeedbackVector:
    def test_lazy_slot_creation_typed(self):
        vector = FeedbackVector(4)
        assert not vector.has_feedback(0)
        assert isinstance(vector.binary(0), BinaryOpSlot)
        assert vector.has_feedback(0)
        assert isinstance(vector.property(1), PropertySlot)
        assert isinstance(vector.call(2), CallSlot)
        assert isinstance(vector.global_slot(3), GlobalSlot)
