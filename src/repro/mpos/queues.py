"""Bounded inter-task message queues.

Communication among tasks uses message queues in the shared memory area
(Sec. 5.1: "each task reads data from its input queue and sends the
results to the output queue").  Queues are bounded; a full queue blocks
the producer, an empty queue blocks the consumer, and the queue wakes the
waiters through the OS when the condition clears.  Queue depletion during
migration freezes is exactly the paper's deadline-miss mechanism, so
level statistics are tracked carefully.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, List, Optional


class MsgQueue:
    """A bounded FIFO of frames between two streaming tasks.

    Parameters
    ----------
    name:
        Queue name, e.g. ``"demod->bpf1"``.
    capacity:
        Maximum number of frames held (the paper discusses the minimum
        capacity that sustains migration — 11 frames on their platform).
    frame_bytes:
        Size of one frame in shared memory (for bus accounting reports).
    """

    def __init__(self, name: str, capacity: int, frame_bytes: int = 4096):
        if capacity < 1:
            raise ValueError(f"queue {name!r} needs capacity >= 1")
        self.name = name
        self.capacity = int(capacity)
        self.frame_bytes = int(frame_bytes)
        self._items: Deque[Any] = deque()

        # Tasks blocked on this queue; the OS wake callbacks are wired by
        # the application layer (MPOS.bind_queue).
        self.waiting_consumers: List[Any] = []
        self.waiting_producers: List[Any] = []
        self._wake_consumer: Optional[Callable[[Any], None]] = None
        self._wake_producer: Optional[Callable[[Any], None]] = None

        # Statistics.
        self.total_pushed = 0
        self.total_popped = 0
        self.max_level = 0
        self.empty_pops = 0
        self.full_pushes = 0

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def bind(self, wake_consumer: Callable[[Any], None],
             wake_producer: Callable[[Any], None]) -> None:
        """Connect the queue to the OS wake-up callbacks."""
        self._wake_consumer = wake_consumer
        self._wake_producer = wake_producer

    # ------------------------------------------------------------------
    # queue operations
    # ------------------------------------------------------------------
    @property
    def level(self) -> int:
        return len(self._items)

    @property
    def is_empty(self) -> bool:
        return not self._items

    @property
    def is_full(self) -> bool:
        return len(self._items) >= self.capacity

    def push(self, frame: Any) -> bool:
        """Append a frame; returns False (and counts it) when full."""
        items = self._items
        level = len(items)
        if level >= self.capacity:
            self.full_pushes += 1
            return False
        items.append(frame)
        self.total_pushed += 1
        if level + 1 > self.max_level:
            self.max_level = level + 1
        if self.waiting_consumers:
            self._notify_consumers()
        return True

    def pop(self) -> Optional[Any]:
        """Remove the oldest frame; returns None (and counts) when empty."""
        if not self._items:
            self.empty_pops += 1
            return None
        frame = self._items.popleft()
        self.total_popped += 1
        if self.waiting_producers:
            self._notify_producers()
        return frame

    def peek(self) -> Optional[Any]:
        return self._items[0] if self._items else None

    # ------------------------------------------------------------------
    # waiter management (used by the scheduler)
    # ------------------------------------------------------------------
    def add_waiting_consumer(self, task: Any) -> None:
        if task not in self.waiting_consumers:
            self.waiting_consumers.append(task)

    def add_waiting_producer(self, task: Any) -> None:
        if task not in self.waiting_producers:
            self.waiting_producers.append(task)

    def remove_waiter(self, task: Any) -> None:
        if task in self.waiting_consumers:
            self.waiting_consumers.remove(task)
        if task in self.waiting_producers:
            self.waiting_producers.remove(task)

    # ------------------------------------------------------------------
    # internals — ``push``/``pop`` call these only when someone waits,
    # so the common no-waiter case allocates no snapshot
    # ------------------------------------------------------------------
    def _notify_consumers(self) -> None:
        if self._wake_consumer is None:
            return
        # Iterate over a snapshot: a woken task deregisters itself, and
        # its wake-up may push/pop other queues reentrantly.
        for task in list(self.waiting_consumers):
            if self._items:
                self._wake_consumer(task)

    def _notify_producers(self) -> None:
        if self._wake_producer is None:
            return
        for task in list(self.waiting_producers):
            if not self.is_full:
                self._wake_producer(task)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MsgQueue {self.name} {self.level}/{self.capacity}>"
