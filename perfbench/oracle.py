"""Reference semantics for every op the benchmark issues: a dict of
``BitString -> value`` plus a sorted key list kept in step with it.

The sorted list answers every order-dependent query in ``O(log n)``
bisections instead of a scan, which is what makes checking a
4096-key index affordable on every pass:

* **lcp** — under the trie order (a proper prefix sorts before its
  extensions) the stored key sharing the longest prefix with ``q`` is
  one of ``q``'s two sorted neighbours;
* **subtree / count / topk** — the keys extending a prefix ``p`` form
  one contiguous run starting at ``bisect_left(p)``;
* **pred / succ / range** — plain bisection (range bounds inclusive,
  truncated to ``limit``).

The oracle shares no code with ``repro``: it only relies on
``BitString``'s ordering, ``lcp_len`` and ``starts_with``.
"""

from __future__ import annotations

import bisect
from typing import Any, Iterable, Optional


class SortedDictOracle:
    """Dict + sorted-list reference index (batch API of ``PIMTrie``)."""

    def __init__(self, items: Iterable[tuple[Any, Any]] = ()):
        self.store: dict[Any, Any] = dict(items)
        self.keys: list[Any] = sorted(self.store)

    # -- writes (in order: the last write of a key wins) ---------------
    def insert(self, key: Any, value: Any) -> None:
        if key not in self.store:
            bisect.insort(self.keys, key)
        self.store[key] = value

    def delete(self, key: Any) -> None:
        if key in self.store:
            del self.store[key]
            del self.keys[bisect.bisect_left(self.keys, key)]

    # -- point reads ----------------------------------------------------
    def lcp(self, q: Any) -> int:
        i = bisect.bisect_left(self.keys, q)
        best = 0
        for j in (i - 1, i):
            if 0 <= j < len(self.keys):
                best = max(best, q.lcp_len(self.keys[j]))
        return best

    def lookup(self, q: Any) -> Any:
        return self.store.get(q)

    def pred(self, q: Any) -> Optional[tuple[Any, Any]]:
        i = bisect.bisect_left(self.keys, q)
        return None if i == 0 else self._item(i - 1)

    def succ(self, q: Any) -> Optional[tuple[Any, Any]]:
        i = bisect.bisect_right(self.keys, q)
        return None if i == len(self.keys) else self._item(i)

    # -- prefix and interval reads -------------------------------------
    def _item(self, i: int) -> tuple[Any, Any]:
        k = self.keys[i]
        return (k, self.store[k])

    def _under(self, prefix: Any, limit: Optional[int] = None) -> list:
        out = []
        i = bisect.bisect_left(self.keys, prefix)
        while i < len(self.keys) and self.keys[i].starts_with(prefix):
            if limit is not None and len(out) >= limit:
                break
            out.append(self._item(i))
            i += 1
        return out

    def subtree(self, prefix: Any) -> list[tuple[Any, Any]]:
        return self._under(prefix)

    def count(self, prefix: Any) -> int:
        return len(self._under(prefix))

    def topk(self, prefix: Any, k: int) -> list[tuple[Any, Any]]:
        return self._under(prefix, max(0, k))

    def range(self, lo: Any, hi: Any, limit: Optional[int]) -> list:
        i = bisect.bisect_left(self.keys, lo)
        j = bisect.bisect_right(self.keys, hi)
        items = [self._item(x) for x in range(i, max(i, j))]
        return items if limit is None else items[:limit]

    # -- one op of a serve trace ---------------------------------------
    def apply(self, kind: str, key: Any, value: Any = None) -> Any:
        """The reply a server must give for one trace op, applied in
        arrival order (``repro.serve.Operation`` field conventions:
        range ops carry ``(hi, limit)`` and topk ops carry ``k`` in
        ``value``; writes reply ``True``)."""
        if kind == "insert":
            self.insert(key, value)
            return True
        if kind == "delete":
            self.delete(key)
            return True
        if kind == "lcp":
            return self.lcp(key)
        if kind == "lookup":
            return self.lookup(key)
        if kind == "subtree":
            return self.subtree(key)
        if kind == "pred":
            return self.pred(key)
        if kind == "succ":
            return self.succ(key)
        if kind == "count":
            return self.count(key)
        if kind == "topk":
            return self.topk(key, value)
        if kind == "range":
            hi, limit = value
            return self.range(key, hi, limit)
        raise ValueError(f"unknown op kind {kind!r}")
