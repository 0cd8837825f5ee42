"""repro.ordered — the ordered-index query surface.

:class:`OrderedSnapshot` is the consistent host-side ordered view the
:class:`repro.core.PIMTrie` batch ops (``predecessor_batch`` /
``successor_batch`` / ``range_batch`` / ``prefix_count_batch`` /
``top_k``) answer from; :mod:`repro.ordered.bench` is the benchmark
behind ``python -m repro ordered`` (→ ``BENCH_ordered.json``).
``REMOVED`` marks a removed key in the delta that
:meth:`OrderedSnapshot.apply` turns into the next version.

The bench module is imported lazily by the CLI (it pulls in the serve
and cluster layers); importing this package only loads the snapshot.
"""

from .snapshot import REMOVED, OrderedSnapshot

__all__ = ["OrderedSnapshot", "REMOVED"]
