"""Schedule exploration strategies.

The seed machine explored interleavings with one policy only: pick a
uniformly random ready thread at every step.  Race manifestation is
schedule-dependent (``single`` winners, value-dependent branches,
dynamic work distribution), so the machine now exposes *strategies* —
pluggable pickers the scheduler consults at every scheduling point:

``random``
    The seed policy, bit-identical RNG consumption (default, and the
    one every cache fingerprint / parity corpus is defined against).
``round_robin``
    Least-recently-run thread first: maximal context switching, the
    classic way to perturb coarse-grained schedules.
``chunked``
    Run one thread for a burst of steps before switching: models
    coarse preemption, the opposite extreme of round-robin.
``adversarial``
    Preemption at conflicting accesses: when two ready threads are
    both *about to* touch the same location (with a write involved),
    alternate between them so the conflicting accesses land adjacently
    — the schedules most likely to manifest value-dependent races.

A strategy instance lives for one execution; ``pick`` sees the ready
threads, each carrying its pending (not yet performed) ``action``.

Every random choice is one :meth:`BoundedDraws.integers` call, which
returns exactly what ``np.random.Generator(PCG64(seed)).integers(n)``
would: traces are pinned to that sequence, not to the call that makes it.
"""

from __future__ import annotations

import numpy as np

_WORD = 0xFFFFFFFF


class BoundedDraws:
    """``Generator.integers(n)`` for a PCG64 bit generator, in pure Python.

    numpy draws a bounded integer below ``2**32`` by Lemire's
    multiply-and-reject over 32-bit words, and PCG64 serves those words
    low half first from each 64-bit output.  This replays that algorithm
    over 64-bit words fetched in bulk with ``random_raw``, at a fraction
    of the per-call cost of ``Generator.integers``.  As in numpy,
    ``n == 1`` consumes no randomness.  ``n`` must be at most ``2**32``.
    """

    __slots__ = ("_raw", "_next")

    def __init__(self, bit_generator: np.random.BitGenerator) -> None:
        self._raw = bit_generator.random_raw
        self._next = iter(()).__next__

    def _word(self) -> int:
        try:
            return self._next()
        except StopIteration:
            words = []
            for w in self._raw(32).tolist():
                words.append(w & _WORD)
                words.append(w >> 32)
            self._next = it = iter(words).__next__
            return it()

    def integers(self, n: int) -> int:
        """Uniform integer in ``[0, n)``."""
        if n == 1:
            return 0
        m = self._word() * n
        if m & _WORD < n:
            threshold = (0x100000000 - n) % n
            while m & _WORD < threshold:
                m = self._word() * n
        return m >> 32


def _pending_access(action) -> tuple | None:
    """(location, is_write) the action is about to perform, else None."""
    if action is None or action[0] not in ("read", "write", "atomic"):
        return None
    return action[1], action[0] != "read"


class ScheduleStrategy:
    """Base picker; subclasses choose one thread from ``ready``."""

    name = "abstract"

    def __init__(self, bits: np.random.BitGenerator) -> None:
        self.draws = BoundedDraws(bits)

    def pick(self, ready: list):
        raise NotImplementedError


class RandomStrategy(ScheduleStrategy):
    """Uniform random ready thread — the seed scheduler, exactly
    (same draw per scheduling point, so traces are bit-identical to the
    pre-strategy machine).  With one ready thread there is nothing to
    draw, so the pick skips the call."""

    name = "random"

    def pick(self, ready: list):
        n = len(ready)
        return ready[0] if n == 1 else ready[self.draws.integers(n)]


class _LruMixin(ScheduleStrategy):
    """Shared least-recently-run bookkeeping."""

    def __init__(self, bits: np.random.BitGenerator) -> None:
        super().__init__(bits)
        self._step = 0
        self._last_run: dict = {}
        # Seed-derived bias so different schedule seeds explore
        # different rotations of the same policy.
        self._offset = self.draws.integers(1 << 16)

    def _lru(self, candidates: list):
        self._step += 1
        last = self._last_run
        chosen = min(
            range(len(candidates)),
            key=lambda i: (last.get(candidates[i].tid, -1),
                           (i + self._offset) % len(candidates)),
        )
        t = candidates[chosen]
        last[t.tid] = self._step
        return t


class RoundRobinStrategy(_LruMixin):
    """Always run the thread that has waited longest: maximal
    interleaving at memory-operation granularity."""

    name = "round_robin"

    def pick(self, ready: list):
        return self._lru(ready)


class ChunkedStrategy(ScheduleStrategy):
    """Run the current thread for a burst (chunk) of steps before
    picking a new one at random — coarse preemption, like an OS
    quantum much larger than one memory access."""

    name = "chunked"

    def __init__(self, bits: np.random.BitGenerator, chunk: int | None = None) -> None:
        super().__init__(bits)
        self.chunk = int(chunk) if chunk else 4 + self.draws.integers(13)
        self._current = None
        self._budget = 0

    def pick(self, ready: list):
        if self._current is not None and self._budget > 0:
            for t in ready:
                if t.tid == self._current:
                    self._budget -= 1
                    return t
        t = ready[self.draws.integers(len(ready))]
        self._current = t.tid
        self._budget = self.chunk - 1
        return t


class AdversarialStrategy(_LruMixin):
    """Preempt at conflicting accesses.

    When at least two ready threads have pending accesses to the same
    location and one of those accesses is a write, restrict the pick to
    those threads and alternate among them (least-recently-run first):
    the conflicting accesses execute back to back, the interleaving
    most likely to flip value-dependent control flow and manifest the
    racy path.  With no pending conflict it degrades to round-robin,
    itself a strong perturbation of the seed's uniform policy.
    """

    name = "adversarial"

    def pick(self, ready: list):
        by_loc: dict = {}
        for t in ready:
            acc = _pending_access(t.action)
            if acc is not None:
                by_loc.setdefault(acc[0], []).append((t, acc[1]))
        for group in by_loc.values():
            if len(group) >= 2 and any(w for _, w in group):
                return self._lru([t for t, _ in group])
        return self._lru(ready)


SCHEDULE_STRATEGIES: dict[str, type] = {
    cls.name: cls
    for cls in (RandomStrategy, RoundRobinStrategy, ChunkedStrategy, AdversarialStrategy)
}


def make_strategy(name: str, bits: np.random.BitGenerator) -> ScheduleStrategy:
    try:
        cls = SCHEDULE_STRATEGIES[name]
    except KeyError:
        known = ", ".join(sorted(SCHEDULE_STRATEGIES))
        raise ValueError(f"unknown schedule strategy {name!r} (known: {known})") from None
    return cls(bits)
