"""Tests for node descriptors."""

from __future__ import annotations

import pickle

import pytest

from repro.gossip.descriptors import Descriptor, Provenance, youngest


class TestImmutability:
    def test_cannot_set_attributes(self):
        descriptor = Descriptor(1, 2, "p")
        with pytest.raises(AttributeError):
            descriptor.age = 5  # type: ignore[misc]

    def test_aged_returns_new_object(self):
        descriptor = Descriptor(1, 2)
        older = descriptor.aged()
        assert older is not descriptor
        assert older.age == 3
        assert descriptor.age == 2

    def test_aged_increment(self):
        assert Descriptor(0, 0).aged(5).age == 5

    def test_fresh_resets_age(self):
        assert Descriptor(1, 9, "p").fresh().age == 0

    def test_fresh_keeps_profile(self):
        assert Descriptor(1, 9, "p").fresh().profile == "p"

    def test_with_profile(self):
        updated = Descriptor(1, 3, "old").with_profile("new")
        assert updated.profile == "new"
        assert updated.age == 3
        assert updated.node_id == 1


class TestEquality:
    def test_equal_same_id_and_age(self):
        assert Descriptor(1, 2, "x") == Descriptor(1, 2, "y")

    def test_unequal_different_age(self):
        assert Descriptor(1, 2) != Descriptor(1, 3)

    def test_hashable(self):
        assert len({Descriptor(1, 2), Descriptor(1, 2), Descriptor(2, 2)}) == 2

    def test_not_equal_to_other_types(self):
        assert Descriptor(1, 2) != (1, 2)


class TestYoungest:
    def test_picks_lower_age(self):
        young = Descriptor(1, 1)
        old = Descriptor(1, 7)
        assert youngest(young, old) is young
        assert youngest(old, young) is young

    def test_handles_none(self):
        descriptor = Descriptor(1, 0)
        assert youngest(None, descriptor) is descriptor
        assert youngest(descriptor, None) is descriptor
        assert youngest(None, None) is None

    def test_tie_prefers_first(self):
        a = Descriptor(1, 3, "a")
        b = Descriptor(1, 3, "b")
        assert youngest(a, b) is a


def _derived_copies():
    base = Descriptor(4, 2, "p", Provenance(4, 0, 0))
    return {
        "aged": base.aged(),
        "fresh": base.fresh(),
        "with_profile": base.with_profile("q"),
        "tagged": base.tagged(Provenance(9, 1, 2)),
        "hopped": base.hopped(),
    }


class TestConstructionContract:
    @pytest.mark.parametrize("kind", sorted(_derived_copies()))
    @pytest.mark.parametrize("field", ["node_id", "age", "profile", "provenance"])
    def test_every_derived_copy_is_immutable(self, kind, field):
        copy = _derived_copies()[kind]
        with pytest.raises(AttributeError):
            setattr(copy, field, 0)

    def test_derived_copies_carry_their_fields(self):
        copies = _derived_copies()
        assert (copies["aged"].age, copies["fresh"].age) == (3, 0)
        assert copies["with_profile"].profile == "q"
        assert copies["tagged"].provenance == Provenance(9, 1, 2)
        assert copies["hopped"].provenance == Provenance(4, 0, 1)
        assert all(copy.node_id == 4 for copy in copies.values())

    def test_untagged_hop_is_the_same_object(self):
        descriptor = Descriptor(1, 1)
        assert descriptor.hopped() is descriptor

    @pytest.mark.parametrize(
        "descriptor",
        [
            Descriptor(3, 5, ("ring", 2)),
            Descriptor(3, 0, None, Provenance(3, 7, 2)),
        ],
    )
    def test_pickle_round_trip(self, descriptor):
        restored = pickle.loads(pickle.dumps(descriptor))
        assert restored == descriptor
        assert restored.profile == descriptor.profile
        assert restored.provenance == descriptor.provenance
        with pytest.raises(AttributeError):
            restored.age = 1  # type: ignore[misc]

    def test_bool_ids_and_ages_become_ints(self):
        descriptor = Descriptor(True, False)
        assert type(descriptor.node_id) is int and descriptor.node_id == 1
        assert type(descriptor.age) is int and descriptor.age == 0

    def test_numpy_ids_and_ages_become_ints(self):
        np = pytest.importorskip("numpy")
        descriptor = Descriptor(np.int64(7), np.int32(3)).aged(np.int16(2))
        assert type(descriptor.node_id) is int and descriptor.node_id == 7
        assert type(descriptor.age) is int and descriptor.age == 5
        assert hash(descriptor) == hash(Descriptor(7, 5))
