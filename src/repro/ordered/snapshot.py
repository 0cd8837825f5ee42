"""Ordered snapshot of the live key set: a sorted key list plus a value
dict, versioned copy-on-write.

An :class:`OrderedSnapshot` is a *consistent* ordered-index view of the
host replica log's key/value union
(:meth:`repro.core.PIMTrie.replica_log_items`): at round boundaries the
union equals the stored key set exactly, so a snapshot taken between
batches is a point-in-time image of the index.  A snapshot is never
mutated after construction — a caller holding one keeps reading the
same image no matter what later batches do (snapshot isolation).

The backbone is the key set as a plain Python list sorted in trie
order, next to a ``{key: value}`` dict, so every query is ``bisect``
plus index arithmetic:

* ``rank`` is ``bisect_left`` (``bisect_right`` when not strict) and
  ``select`` is list indexing,
* predecessor / successor are one bisect and one index,
* range scans are two bisects and a slice (clipped to ``limit``),
* subtree (prefix) intervals come from the prefix-first total order of
  :class:`~repro.bits.BitString`: the keys extending a prefix ``p`` are
  exactly the contiguous interval ``[p, p·111…]`` (padded past the
  longest stored key), so ``prefix_count`` is two ranks and ``top_k``
  is a slice from the interval's left edge.

Two ways to build one:

* **full build** (``OrderedSnapshot(items)``) sorts the keys on the
  integer key ``(value << (L - len), len)`` with ``L`` the longest key
  length — zero-padding to a common width and breaking ties shorter
  first is exactly the prefix-first order of ``BitString.__lt__``, at
  C sort speed instead of a Python comparison per step;
* **delta build** (:meth:`OrderedSnapshot.apply`) derives the next
  version from this one and the writes committed since: copy the list
  and dict, then ``insort`` each upserted key that is new and delete
  each removed key that is present.  The cost is one memcpy of the
  list and dict plus ``O(log n)`` comparisons per changed key, so a
  serving epoch pays for its writes, not for the key count.

Snapshots are pure host-side state: building or querying one moves no
PIM words and runs no rounds.  The accounted cost (``tick_cpu``) is
charged by the :class:`~repro.core.PIMTrie` wrappers — one unit per
live key per version, however the version was built — which also wrap
every call in ``op.*``/``phase`` spans so the obs span-sum invariant
stays byte-exact.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Mapping, Optional

from ..bits import BitString

__all__ = ["OrderedSnapshot", "REMOVED"]

#: delta marker for a key removed since the previous version
REMOVED = object()


def _sorted_keys(keys, max_len: int) -> list[BitString]:
    """``keys`` in prefix-first order via an integer sort key."""
    return sorted(keys, key=lambda k: (k.value << (max_len - len(k)), len(k)))


class OrderedSnapshot:
    """A frozen, totally ordered view of ``{key: value}`` at one version.

    ``version`` is the content version of the replica-log union the
    snapshot was built from (the trie's counter); the trie uses it to
    reuse a snapshot until the key set actually changes — placement
    maintenance (split / replicate / merge) preserves the union, so it
    never invalidates a snapshot.
    """

    def __init__(self, items: Mapping[BitString, Any], *, version: int = 0):
        self.version = version
        self._values: dict[BitString, Any] = dict(items)
        #: an upper bound on the longest stored key (exact after a full
        #: build; delta builds never lower it, which the prefix
        #: interval tolerates — any padding past the longest key works)
        self.max_len = max(map(len, self._values), default=0)
        self._keys: list[BitString] = _sorted_keys(self._values, self.max_len)

    def apply(
        self, delta: Mapping[BitString, Any], *, version: int
    ) -> "OrderedSnapshot":
        """The next version: this snapshot with ``delta`` applied.

        ``delta`` maps each changed key to its new value, or to
        :data:`REMOVED`.  Removing an absent key is a no-op.  ``self``
        is left untouched; with an empty delta the new version shares
        this one's (immutable) list and dict.
        """
        out = OrderedSnapshot.__new__(OrderedSnapshot)
        out.version = version
        keys, values, max_len = self._keys, self._values, self.max_len
        if delta:
            keys, values = list(keys), dict(values)
            for key, value in delta.items():
                if value is REMOVED:
                    if values.pop(key, REMOVED) is not REMOVED:
                        del keys[bisect_left(keys, key)]
                    continue
                if key not in values:
                    keys.insert(bisect_left(keys, key), key)
                    max_len = max(max_len, len(key))
                values[key] = value
        out._keys, out._values, out.max_len = keys, values, max_len
        return out

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key: BitString) -> bool:
        return key in self._values

    def value(self, key: BitString) -> Any:
        return self._values[key]

    def items(self) -> list[tuple[BitString, Any]]:
        """Full enumeration in key order (tests' reference walk)."""
        values = self._values
        return [(k, values[k]) for k in self._keys]

    def _pairs(self, i: int, j: int) -> list[tuple[BitString, Any]]:
        values = self._values
        return [(k, values[k]) for k in self._keys[i:j]]

    # -- rank / select --------------------------------------------------
    def rank(self, key: BitString, *, strict: bool = True) -> int:
        """Number of stored keys ``< key`` (``<= key`` when not strict)."""
        if strict:
            return bisect_left(self._keys, key)
        return bisect_right(self._keys, key)

    def select(self, i: int) -> Optional[BitString]:
        """The key at sorted position ``i`` (None out of range)."""
        return self._keys[i] if 0 <= i < len(self._keys) else None

    # -- the ordered query surface -------------------------------------
    def predecessor(self, key: BitString) -> Optional[tuple[BitString, Any]]:
        """Largest stored key strictly below ``key`` (with its value)."""
        k = self.select(self.rank(key) - 1)
        return None if k is None else (k, self._values[k])

    def successor(self, key: BitString) -> Optional[tuple[BitString, Any]]:
        """Smallest stored key strictly above ``key`` (with its value)."""
        k = self.select(self.rank(key, strict=False))
        return None if k is None else (k, self._values[k])

    def range(
        self,
        lo: BitString,
        hi: BitString,
        limit: Optional[int] = None,
    ) -> list[tuple[BitString, Any]]:
        """Stored ``(key, value)`` pairs with ``lo <= key <= hi`` in key
        order, truncated to the first ``limit``."""
        if limit is not None and limit <= 0:
            return []
        i, j = self.rank(lo), self.rank(hi, strict=False)
        if limit is not None:
            j = min(j, i + limit)
        return self._pairs(i, j)

    def prefix_interval(self, prefix: BitString) -> tuple[int, int]:
        """Sorted-position interval ``[lo, hi)`` of keys extending
        ``prefix``: the prefix-first total order puts them contiguously
        between ``prefix`` and ``prefix`` padded with 1-bits past the
        longest stored key."""
        upper = prefix.pad_to(max(len(prefix), self.max_len) + 1, 1)
        return self.rank(prefix), self.rank(upper, strict=False)

    def prefix_count(self, prefix: BitString) -> int:
        """How many stored keys extend ``prefix``; two bisects."""
        lo, hi = self.prefix_interval(prefix)
        return hi - lo

    def top_k(self, prefix: BitString, k: int) -> list[tuple[BitString, Any]]:
        """The ``k`` smallest stored keys extending ``prefix`` (with
        values) — a prefix of the sorted subtree enumeration."""
        if k <= 0:
            return []
        lo, hi = self.prefix_interval(prefix)
        return self._pairs(lo, min(hi, lo + k))

    def __repr__(self) -> str:
        return f"OrderedSnapshot(n={len(self)}, version={self.version})"
