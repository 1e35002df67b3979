"""Node descriptors — the records gossip messages carry.

A descriptor advertises a node to its peers: its identity, a logical *age*
(rounds since the descriptor was created, the staleness signal the
peer-sampling healer uses), and a layer-specific *profile* (the coordinate a
proximity function ranks on — a ring position, a component name + rank, ...).

When causal propagation tracing is enabled (see :mod:`repro.obs.flow`), a
descriptor additionally carries a compact :class:`Provenance` tag — origin
node, origin round, hop count — that rides along through gossip exchanges.
The tag is pure metadata: it participates in neither equality nor ordering,
so tagged and untagged runs make byte-identical selection decisions.
"""

from __future__ import annotations

from typing import Any, NamedTuple, Optional


class Provenance(NamedTuple):
    """The compact causal tag a traced descriptor carries.

    ``origin`` minted the descriptor in round ``minted_round``; ``hops``
    counts the gossip exchanges the copy has traversed since (0 for a
    self-advertisement still at its origin).
    """

    origin: int
    minted_round: int
    hops: int

    def hop(self) -> "Provenance":
        """The tag after one more gossip exchange."""
        return Provenance(self.origin, self.minted_round, self.hops + 1)


class Descriptor:
    """An immutable advertisement of one node at one layer.

    Immutability keeps views safe to share between protocol buffers: aging a
    descriptor produces a new record (:meth:`aged`) rather than mutating one
    that may sit in a peer's in-flight message.
    """

    __slots__ = ("node_id", "age", "profile", "provenance")

    def __init__(
        self,
        node_id: int,
        age: int = 0,
        profile: Any = None,
        provenance: Optional[Provenance] = None,
    ):
        # The slots' own setters (bound below) bypass the raising __setattr__
        # a third cheaper than object.__setattr__ on this hottest constructor.
        _set_node_id(self, int(node_id))
        _set_age(self, int(age))
        _set_profile(self, profile)
        _set_provenance(self, provenance)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("Descriptor is immutable")

    def __reduce__(self):
        # Default slots-based pickling restores attributes via __setattr__,
        # which immutability forbids; reconstruct through __init__ instead.
        # Descriptors cross process boundaries in the sharded engine's
        # message batches and in parallel-runner results.
        return (Descriptor, (self.node_id, self.age, self.profile, self.provenance))

    def aged(self, increment: int = 1) -> "Descriptor":
        """A copy of this descriptor, ``increment`` rounds older."""
        return Descriptor(
            self.node_id, self.age + increment, self.profile, self.provenance
        )

    def fresh(self) -> "Descriptor":
        """A copy with age reset to zero (a node advertising itself)."""
        return Descriptor(self.node_id, 0, self.profile, self.provenance)

    def with_profile(self, profile: Any) -> "Descriptor":
        """A copy carrying a different profile (used on reconfiguration)."""
        return Descriptor(self.node_id, self.age, profile, self.provenance)

    def tagged(self, provenance: Optional[Provenance]) -> "Descriptor":
        """A copy carrying the given provenance tag (flow tracing)."""
        return Descriptor(self.node_id, self.age, self.profile, provenance)

    def hopped(self) -> "Descriptor":
        """A copy one gossip hop further from its origin (untagged: self)."""
        if self.provenance is None:
            return self
        return Descriptor(
            self.node_id, self.age, self.profile, self.provenance.hop()
        )

    # Equality is identity + freshness; the profile rides along (two
    # descriptors for the same node at the same layer carry equal profiles).
    # Provenance is observational metadata and deliberately excluded.
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Descriptor):
            return NotImplemented
        return self.node_id == other.node_id and self.age == other.age

    def __hash__(self) -> int:
        return hash((self.node_id, self.age))

    def __repr__(self) -> str:
        return f"Descriptor(node={self.node_id}, age={self.age}, profile={self.profile!r})"


_set_node_id = Descriptor.node_id.__set__
_set_age = Descriptor.age.__set__
_set_profile = Descriptor.profile.__set__
_set_provenance = Descriptor.provenance.__set__


def youngest(a: Optional[Descriptor], b: Optional[Descriptor]) -> Optional[Descriptor]:
    """Of two descriptors for the same node, the fresher one (lower age)."""
    if a is None:
        return b
    if b is None:
        return a
    return a if a.age <= b.age else b
