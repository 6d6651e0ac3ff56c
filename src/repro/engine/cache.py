"""The trigger cache (§5.1, §5.4).

"A data structure called the trigger cache is maintained in main memory.
This contains complete descriptions of a set of recently accessed triggers,
including the trigger ID and name, references to data sources relevant to
the trigger, and the syntax tree and Gator network skeleton for the
trigger."  Here the network is always A-TREAT: E8b measured Gator slower
and larger, so the engine never builds one.  Matching a token *pins* the
trigger — loading it from the disk-based catalog if absent — for the
duration of network processing and action execution, buffer-pool style.

The cache is capacity-bounded both by trigger count and by estimated bytes
(the paper's sizing example: 4 KB per description, 64 MB of cache →
16,384 resident descriptions).  Eviction is LRU over unpinned entries.

Thread safety (§6, concurrent drivers): the cache lock is held only for
map bookkeeping — a **catalog load runs outside it**.  A miss installs a
*loading placeholder* carrying an event; concurrent pinners of the same
trigger block on that event (counted in ``stats.load_waits``) instead of
serializing every other trigger's pins behind one catalog round-trip.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Optional

from ..errors import TriggerError


@dataclass
class CacheStats:
    """Always-on accounting.  Invariants (enforced in ``tests/obs``):
    ``hits + misses == lookups`` and
    ``pins - unpins - dropped_pins == sum of live pin counts``."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    pins: int = 0
    unpins: int = 0
    #: pins discarded because their entry was invalidated/cleared while held
    dropped_pins: int = 0
    #: pin calls that blocked on another thread's in-progress catalog load
    load_waits: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def reset(self) -> None:
        self.hits = self.misses = self.evictions = 0
        self.pins = self.unpins = self.dropped_pins = 0
        self.load_waits = 0


class _CacheEntry:
    __slots__ = ("runtime", "pin_count", "size_bytes", "loading")

    def __init__(self, runtime, size_bytes: int):
        self.runtime = runtime
        self.pin_count = 0
        self.size_bytes = size_bytes
        #: a threading.Event while a loader thread is building the runtime
        #: (entry not yet usable); None once resident
        self.loading: Optional[threading.Event] = None


class TriggerCache:
    """LRU cache of trigger runtimes with buffer-pool pin semantics."""

    def __init__(
        self,
        loader: Callable[[int], "object"],
        capacity: int = 16384,
        capacity_bytes: Optional[int] = None,
        size_of: Optional[Callable[[object], int]] = None,
    ):
        """``loader(trigger_id)`` rebuilds a runtime from the catalog.

        ``size_of(runtime)`` estimates resident bytes (defaults to the
        paper's 4 KB figure per description).
        """
        if capacity <= 0:
            raise TriggerError(f"cache capacity must be positive: {capacity}")
        self._loader = loader
        self.capacity = capacity
        self.capacity_bytes = capacity_bytes
        self._size_of = size_of or (lambda _runtime: 4096)
        self._entries: "OrderedDict[int, _CacheEntry]" = OrderedDict()
        self._bytes = 0
        #: moving average of published entry sizes — the reservation charged
        #: to a loading placeholder so N concurrent misses cannot overshoot
        #: the byte budget by N full entries (reconciled at publish).
        self._avg_size = 4096
        self._lock = threading.RLock()
        self.stats = CacheStats()

    # -- pin protocol --------------------------------------------------------

    def pin(self, trigger_id: int):
        """Return the runtime, loading it if necessary; caller must unpin.

        The loader runs *outside* the cache lock; other triggers' pins
        proceed concurrently, and concurrent pins of the same trigger wait
        on the loading entry's event rather than re-loading."""
        while True:
            with self._lock:
                entry = self._entries.get(trigger_id)
                if entry is not None and entry.loading is None:
                    self.stats.hits += 1
                    self._entries.move_to_end(trigger_id)
                    entry.pin_count += 1
                    self.stats.pins += 1
                    return entry.runtime
                if entry is not None:
                    waiter = entry.loading
                else:
                    waiter = None
                    self.stats.misses += 1
                    # Reserve the expected size up front; the budget would
                    # otherwise admit unbounded concurrent loads at 0 bytes.
                    entry = _CacheEntry(None, self._avg_size)
                    entry.loading = threading.Event()
                    self._entries[trigger_id] = entry
                    self._bytes += entry.size_bytes
                    self._make_room(0, exclude=trigger_id)
            if waiter is not None:
                with self._lock:
                    self.stats.load_waits += 1
                waiter.wait()
                continue  # re-examine: resident, re-loading, or invalidated
            return self._load_and_install(trigger_id, entry)

    def _load_and_install(self, trigger_id: int, placeholder: _CacheEntry):
        """Finish a miss: run the loader lock-free, then publish the entry
        (or adopt whatever replaced the placeholder meanwhile)."""
        try:
            runtime = self._loader(trigger_id)
            size = self._size_of(runtime)
        except BaseException:
            with self._lock:
                if self._entries.get(trigger_id) is placeholder:
                    del self._entries[trigger_id]
                    self._bytes -= placeholder.size_bytes
                placeholder.loading.set()  # waiters retry (and likely fail too)
            raise
        adopt_retry = False
        with self._lock:
            current = self._entries.get(trigger_id)
            if current is not placeholder and current is not None:
                # The placeholder was replaced mid-load: seed() installed a
                # fresh runtime (adopt it — it is newer), or invalidate()
                # plus a new pin() raced in another loading placeholder
                # (defer to it: release our waiters and pin again).
                placeholder.loading.set()
                if current.loading is None:
                    self.stats.hits += 1
                    current.pin_count += 1
                    self.stats.pins += 1
                    return current.runtime
                adopt_retry = True
            else:
                # Publish (also the resurrect path: invalidate() popped the
                # placeholder while we loaded — install fresh; a dropped
                # trigger's entry is inert and will age out via LRU).
                if current is placeholder:
                    # Swap the reservation for the real size (invalidate()
                    # already released it when the placeholder was popped).
                    self._bytes -= placeholder.size_bytes
                placeholder.runtime = runtime
                placeholder.size_bytes = size
                self._avg_size = max(1, (self._avg_size * 7 + size) // 8)
                placeholder.loading.set()
                placeholder.loading = None
                self._entries[trigger_id] = placeholder
                self._entries.move_to_end(trigger_id)
                self._make_room(size, exclude=trigger_id)
                self._bytes += size
                placeholder.pin_count += 1
                self.stats.pins += 1
                return runtime
        assert adopt_retry
        return self.pin(trigger_id)

    def unpin(self, trigger_id: int) -> None:
        with self._lock:
            entry = self._entries.get(trigger_id)
            if entry is None or entry.loading is not None or entry.pin_count <= 0:
                raise TriggerError(
                    f"unpin of trigger {trigger_id} that is not pinned"
                )
            entry.pin_count -= 1
            self.stats.unpins += 1

    def _make_room(self, incoming_bytes: int, exclude: Optional[int] = None) -> None:
        def over_limit() -> bool:
            if len(self._entries) > self.capacity:
                return True
            if self.capacity_bytes is not None:
                return self._bytes + incoming_bytes > self.capacity_bytes
            return False

        while over_limit():
            victim_id = None
            for trigger_id, entry in self._entries.items():
                # Loading placeholders are not evictable (their loader owns
                # publication), nor is the entry being installed right now.
                if (
                    entry.pin_count == 0
                    and entry.loading is None
                    and trigger_id != exclude
                ):
                    victim_id = trigger_id
                    break
            if victim_id is None:
                # Everything is pinned; admit over capacity rather than fail
                # (matches buffer-managers that allow temporary overcommit).
                return
            victim = self._entries.pop(victim_id)
            self._bytes -= victim.size_bytes
            self.stats.evictions += 1

    def seed(self, trigger_id: int, runtime) -> None:
        """Install an already-built runtime (used at trigger creation so the
        fresh network state is cached without a loader round-trip)."""
        with self._lock:
            old = self._entries.pop(trigger_id, None)
            if old is not None:
                self._bytes -= old.size_bytes
                if old.loading is not None:
                    # A loader is mid-flight for this id: wake its waiters;
                    # the loader adopts this seeded entry when it publishes.
                    old.loading.set()
            entry = _CacheEntry(runtime, self._size_of(runtime))
            if old is not None:
                # Re-seeding must not orphan pins held on the replaced
                # entry: carry the count over so the holders' unpin calls
                # balance (pin-accounting invariant).
                entry.pin_count = old.pin_count
            self._entries[trigger_id] = entry
            self._make_room(entry.size_bytes, exclude=trigger_id)
            self._bytes += entry.size_bytes

    # -- invalidation ------------------------------------------------------------

    def invalidate(self, trigger_id: int) -> None:
        with self._lock:
            entry = self._entries.pop(trigger_id, None)
            if entry is not None:
                self._bytes -= entry.size_bytes
                self.stats.dropped_pins += entry.pin_count
                if entry.loading is not None:
                    entry.loading.set()

    def clear(self) -> None:
        with self._lock:
            for entry in self._entries.values():
                self.stats.dropped_pins += entry.pin_count
                if entry.loading is not None:
                    entry.loading.set()
            self._entries.clear()
            self._bytes = 0

    # -- introspection --------------------------------------------------------------

    def __contains__(self, trigger_id: int) -> bool:
        entry = self._entries.get(trigger_id)
        return entry is not None and entry.loading is None

    def __len__(self) -> int:
        return len(self._entries)

    def resident_bytes(self) -> int:
        return self._bytes

    def pinned_count(self) -> int:
        with self._lock:
            return sum(1 for e in self._entries.values() if e.pin_count > 0)

    def current_pins(self) -> int:
        """Total live pin count across resident entries (the quantity the
        pin-accounting invariant balances against)."""
        with self._lock:
            return sum(e.pin_count for e in self._entries.values())
