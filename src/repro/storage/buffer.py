"""A page-granularity LRU buffer.

Section V of the paper runs every experiment with "an LRU memory buffer
whose default size is set to 2% of the data size on disk" and Figure 8a
sweeps the buffer size from 0% to 10%.  The buffer tracks page identifiers
and reports every removal through an optional eviction callback — the disk
manager uses that hook to keep its cache of decoded page payloads exactly
as large as the buffer, so a serializing backend really re-reads bytes for
every buffer miss.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Hashable, Optional

#: Sentinel distinguishing "absent" from the ``None`` the buffer stores.
_MISSING = object()


class LRUBuffer:
    """Least-recently-used buffer over hashable page identifiers.

    A capacity of zero models the bufferless case: every access misses.
    ``on_evict`` (when given) is called with each page identifier the
    buffer drops — by LRU eviction, :meth:`invalidate`, :meth:`resize`
    or :meth:`clear`.
    """

    def __init__(
        self,
        capacity: int,
        on_evict: Optional[Callable[[Hashable], None]] = None,
    ):
        if capacity < 0:
            raise ValueError("buffer capacity must be non-negative")
        self._capacity = capacity
        self._pages: "OrderedDict[Hashable, None]" = OrderedDict()
        self.on_evict = on_evict

    @property
    def capacity(self) -> int:
        """Maximum number of pages the buffer may hold."""
        return self._capacity

    def __len__(self) -> int:
        return len(self._pages)

    def __contains__(self, page_id: Hashable) -> bool:
        return page_id in self._pages

    def access(self, page_id: Hashable) -> bool:
        """Touch a page; returns ``True`` on a buffer hit.

        On a miss the page is admitted, evicting the least recently used
        page if the buffer is full.
        """
        if self._capacity == 0:
            return False
        if page_id in self._pages:
            self._pages.move_to_end(page_id)
            return True
        self._admit(page_id)
        return False

    def invalidate(self, page_id: Hashable) -> None:
        """Drop a page from the buffer if present (e.g. after deletion)."""
        if self._pages.pop(page_id, _MISSING) is _MISSING:
            return
        self._notify_evicted(page_id)

    def clear(self) -> None:
        """Empty the buffer."""
        dropped = list(self._pages.keys())
        self._pages.clear()
        for page_id in dropped:
            self._notify_evicted(page_id)

    def resize(self, capacity: int) -> None:
        """Change the capacity, evicting LRU pages if it shrank."""
        if capacity < 0:
            raise ValueError("buffer capacity must be non-negative")
        self._capacity = capacity
        while len(self._pages) > self._capacity:
            evicted, _ = self._pages.popitem(last=False)
            self._notify_evicted(evicted)

    def contents(self) -> list:
        """Page identifiers from least to most recently used (for tests)."""
        return list(self._pages.keys())

    def restore(self, pages: list) -> None:
        """Replace the resident set with ``pages`` (LRU to MRU order).

        Used to rewind the buffer to a previously captured state (a fork
        worker or a node starts every unit from the dispatch-time buffer).
        No eviction callbacks fire: the caller restores any dependent
        caches itself.
        """
        if len(pages) > self._capacity:
            raise ValueError("cannot restore more pages than the capacity holds")
        self._pages = OrderedDict((page_id, None) for page_id in pages)

    def _admit(self, page_id: Hashable) -> None:
        self._pages[page_id] = None
        if len(self._pages) > self._capacity:
            evicted, _ = self._pages.popitem(last=False)
            self._notify_evicted(evicted)

    def _notify_evicted(self, page_id: Hashable) -> None:
        if self.on_evict is not None:
            self.on_evict(page_id)
