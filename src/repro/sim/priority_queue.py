"""Indexed priority queues for the Gibson–Bruck next-reaction method.

The next-reaction method keeps one tentative absolute firing time per
reaction and repeatedly needs (a) the minimum, and (b) the ability to update
an arbitrary reaction's time in O(log n).  A binary min-heap augmented with a
position index provides exactly that (Gibson & Bruck 2000, section "indexed
priority queue").

Two implementations of the same structure live here:

* :class:`IndexedPriorityQueue` — the object-level version over Python
  lists, kept as the reference the :class:`ArrayHeap` tests compare to;
* :class:`ArrayHeap` — the same heap over three contiguous ndarrays
  (``keys`` float64, ``items``/``positions`` int64) with sift-up/sift-down
  as pure index arithmetic.  The array layout is what the kernel backends
  need: the interpreted numpy kernel drives it through the same method API,
  and the numba kernel mutates the three arrays directly inside jitted
  sift functions.

Both implement the *identical* algorithm — heapify from ``n//2 - 1`` down,
strict-comparison sift on update — so given the same key sequence they hold
the same heap layout and return the same minimum even under ties.  Property
tests assert this equivalence operation by operation.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

__all__ = ["IndexedPriorityQueue", "ArrayHeap"]


class IndexedPriorityQueue:
    """A binary min-heap keyed by item index, with O(log n) update of any key.

    Items are the integers ``0 .. n-1`` (reaction indices); keys are floats
    (tentative firing times, possibly ``inf``).

    Examples
    --------
    >>> q = IndexedPriorityQueue([3.0, 1.0, 2.0])
    >>> q.min()
    (1, 1.0)
    >>> q.update(1, 5.0)
    >>> q.min()
    (2, 2.0)
    """

    def __init__(self, keys: Iterable[float]) -> None:
        self._keys = [float(k) for k in keys]
        n = len(self._keys)
        self._heap = list(range(n))           # heap position -> item
        self._position = list(range(n))       # item -> heap position
        for start in range(n // 2 - 1, -1, -1):
            self._sift_down(start)

    def __len__(self) -> int:
        return len(self._keys)

    def key(self, item: int) -> float:
        """Current key of ``item``."""
        return self._keys[item]

    def min(self) -> tuple[int, float]:
        """The item with the smallest key and that key."""
        if not self._heap:
            raise IndexError("priority queue is empty")
        item = self._heap[0]
        return item, self._keys[item]

    def update(self, item: int, key: float) -> None:
        """Change the key of ``item`` and restore the heap property."""
        old = self._keys[item]
        self._keys[item] = float(key)
        position = self._position[item]
        if key < old:
            self._sift_up(position)
        elif key > old:
            self._sift_down(position)

    # -- internal heap operations ------------------------------------------------

    def _swap(self, i: int, j: int) -> None:
        heap = self._heap
        heap[i], heap[j] = heap[j], heap[i]
        self._position[heap[i]] = i
        self._position[heap[j]] = j

    def _sift_up(self, position: int) -> None:
        heap, keys = self._heap, self._keys
        while position > 0:
            parent = (position - 1) // 2
            if keys[heap[position]] < keys[heap[parent]]:
                self._swap(position, parent)
                position = parent
            else:
                return

    def _sift_down(self, position: int) -> None:
        heap, keys = self._heap, self._keys
        size = len(heap)
        while True:
            left = 2 * position + 1
            right = left + 1
            smallest = position
            if left < size and keys[heap[left]] < keys[heap[smallest]]:
                smallest = left
            if right < size and keys[heap[right]] < keys[heap[smallest]]:
                smallest = right
            if smallest == position:
                return
            self._swap(position, smallest)
            position = smallest

    # -- diagnostics ---------------------------------------------------------------

    def is_valid(self) -> bool:
        """Check the heap property and index consistency (used by property tests)."""
        heap, keys, position = self._heap, self._keys, self._position
        for i, item in enumerate(heap):
            if position[item] != i:
                return False
            left, right = 2 * i + 1, 2 * i + 2
            if left < len(heap) and keys[heap[left]] < keys[item]:
                return False
            if right < len(heap) and keys[heap[right]] < keys[item]:
                return False
        return True

    def as_dict(self) -> dict[int, float]:
        """Snapshot of item → key (for tests and debugging)."""
        return {item: self._keys[item] for item in range(len(self._keys))}

    def finite_items(self) -> list[int]:
        """Items whose key is finite."""
        return [item for item, key in enumerate(self._keys) if math.isfinite(key)]


class ArrayHeap:
    """Indexed binary min-heap over contiguous arrays (kernel-backed form).

    Drop-in for :class:`IndexedPriorityQueue` (same methods, same algorithm,
    bit-identical behavior) with the state held in three flat ndarrays:

    * ``keys``      — float64 ``(n,)``, item → tentative firing time;
    * ``items``     — int64 ``(n,)``, heap position → item;
    * ``positions`` — int64 ``(n,)``, item → heap position.

    The numba next-reaction kernel receives these arrays directly and runs
    the identical sift arithmetic inside jitted code, so a heap built here
    and driven by either backend evolves through the same layouts.
    """

    def __init__(self, keys: Iterable[float]) -> None:
        self.keys = np.array([float(k) for k in keys], dtype=np.float64)
        n = self.keys.shape[0]
        self.items = np.arange(n, dtype=np.int64)
        self.positions = np.arange(n, dtype=np.int64)
        for start in range(n // 2 - 1, -1, -1):
            self._sift_down(start)

    def __len__(self) -> int:
        return self.keys.shape[0]

    def key(self, item: int) -> float:
        """Current key of ``item``."""
        return float(self.keys[item])

    def min(self) -> tuple[int, float]:
        """The item with the smallest key and that key."""
        if self.items.shape[0] == 0:
            raise IndexError("priority queue is empty")
        item = int(self.items[0])
        return item, float(self.keys[item])

    def update(self, item: int, key: float) -> None:
        """Change the key of ``item`` and restore the heap property."""
        keys = self.keys
        old = keys[item]
        keys[item] = key
        position = self.positions[item]
        if key < old:
            self._sift_up(position)
        elif key > old:
            self._sift_down(position)

    # -- internal heap operations ------------------------------------------------

    def _sift_up(self, position: int) -> None:
        items, keys, positions = self.items, self.keys, self.positions
        while position > 0:
            parent = (position - 1) // 2
            child = items[position]
            above = items[parent]
            if keys[child] < keys[above]:
                items[position] = above
                items[parent] = child
                positions[above] = position
                positions[child] = parent
                position = parent
            else:
                return

    def _sift_down(self, position: int) -> None:
        items, keys, positions = self.items, self.keys, self.positions
        size = items.shape[0]
        while True:
            left = 2 * position + 1
            right = left + 1
            smallest = position
            if left < size and keys[items[left]] < keys[items[smallest]]:
                smallest = left
            if right < size and keys[items[right]] < keys[items[smallest]]:
                smallest = right
            if smallest == position:
                return
            a = items[position]
            b = items[smallest]
            items[position] = b
            items[smallest] = a
            positions[b] = position
            positions[a] = smallest
            position = smallest

    # -- diagnostics ---------------------------------------------------------------

    def is_valid(self) -> bool:
        """Check the heap property and index consistency (used by property tests)."""
        items, keys, positions = self.items, self.keys, self.positions
        size = items.shape[0]
        for i in range(size):
            item = items[i]
            if positions[item] != i:
                return False
            left, right = 2 * i + 1, 2 * i + 2
            if left < size and keys[items[left]] < keys[item]:
                return False
            if right < size and keys[items[right]] < keys[item]:
                return False
        return True

    def as_dict(self) -> dict[int, float]:
        """Snapshot of item → key (for tests and debugging)."""
        return {item: float(self.keys[item]) for item in range(self.keys.shape[0])}

    def finite_items(self) -> list[int]:
        """Items whose key is finite."""
        return [
            item for item in range(self.keys.shape[0])
            if math.isfinite(self.keys[item])
        ]
