"""The feed clock: slices, and time corrected for the machine's speed.

The boxes this benchmark runs on are small shared VMs whose speed
wanders by tens of percent within tens of milliseconds (README,
"Noise"): a fixed pure-Python loop timed in ten-second blocks has an
interquartile spread of 10–25 % of its median, and neither longer runs,
nor medians or minima over passes, nor CPU time remove it.  What does is
measuring the machine *beside* the work: between slices the clock runs
a fixed **spin** loop (~1 ms, at most every ``SPIN_EVERY_S``), and
every stretch of work between two spins is scaled by how much slower
than the reference those two spins ran.  A pass's *normalised* seconds
are the sum of its scaled stretches — the wall time the same pass would
take on a machine that always runs the spin in ``REFERENCE_SPIN_S`` —
and its slices are scaled by the stretch they fall in.  Spins are not
counted as work.  Time blocked in ``os.fsync`` (WAL syncs, checkpoint
writes) is the device's, not the processor's: it is counted as measured,
unscaled.  Raw wall seconds are kept beside the normalised ones.
"""

from __future__ import annotations

import os
import statistics
from time import perf_counter
from typing import Any, Callable, Iterable, Iterator, List, Optional, Tuple

from bench.spec import SLICE_EVENTS
from bench.trace import Tracer

SPIN_ROUNDS = 25_000
#: The spin's duration on the 2-core box the benchmark was defined on,
#: when nothing else contends for its cores: the unit machine.
REFERENCE_SPIN_S = 0.00115
SPIN_EVERY_S = 0.010


def spin() -> float:
    """Seconds the fixed calibration loop took just now."""
    began = perf_counter()
    total = 0
    for i in range(SPIN_ROUNDS):
        total += i * i % 7
    return perf_counter() - began


class FeedClock:
    """Times one pass at the harness's feed boundary.

    ``with clock:`` brackets the pass; ``begin()``/``end()`` bracket
    each slice on the push side, ``pull()`` wraps the event iterator on
    the pull side.  Afterwards ``wall_s`` is the raw time spent outside
    spins, ``normal_s`` the same stretches scaled to the reference
    machine, ``device_s`` the part of both spent blocked in ``fsync``,
    and ``slices()`` the normalised slice samples.  Set-up, which has
    no slices, calls ``lap()`` between its stages.
    """

    def __init__(
        self, tracer: Optional[Tracer] = None, spins_per_lap: int = 1
    ) -> None:
        """``spins_per_lap`` > 1 takes the median of that many spins at
        each stretch boundary: for set-up, whose stretches are too long
        and too few for single 1 ms samples of the machine's speed."""
        self.tracer = tracer
        self.spins_per_lap = spins_per_lap
        self.events = 0
        self.wall_s = 0.0
        self.normal_s = 0.0
        self.device_s = 0.0
        self.elapsed_s = 0.0
        #: Speed factor (spin time / reference) of each closed stretch.
        self.factors: List[float] = []
        self._spin: Callable[[], float] = spin
        if tracer is not None:
            self._spin = tracer.wrap(spin, "harness.calibration")
        #: Per full slice: raw seconds, of which blocked on the
        #: device, and the index of the stretch it fell in.
        self._samples: List[Tuple[float, float, int]] = []
        self._stretch_device_mark = 0.0
        self._device_total = 0.0
        self._fsync = os.fsync
        self._slices = 0
        self._slice_began = 0.0
        self._slice_device_mark = 0.0
        self._started = 0.0
        self._stretch_began = 0.0
        self._last_spin = 0.0

    def __enter__(self) -> "FeedClock":
        self._fsync = os.fsync
        os.fsync = self._timed_fsync
        self._started = perf_counter()
        self._last_spin = self._sample()
        self._stretch_began = perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        os.fsync = self._fsync
        self.lap()
        self.elapsed_s = perf_counter() - self._started

    def _timed_fsync(self, fd: int) -> None:
        began = perf_counter()
        try:
            self._fsync(fd)
        finally:
            self._device_total += perf_counter() - began

    def _sample(self) -> float:
        return statistics.median(self._spin() for _ in range(self.spins_per_lap))

    def lap(self, force: bool = True) -> None:
        """Close the current stretch with a spin (unless it is shorter
        than ``SPIN_EVERY_S`` and not forced) and open the next."""
        now = perf_counter()
        stretch = now - self._stretch_began
        if stretch < SPIN_EVERY_S and not force:
            return
        took = self._sample()
        factor = (self._last_spin + took) / (2.0 * REFERENCE_SPIN_S)
        self.factors.append(factor)
        device = self._device_total - self._stretch_device_mark
        self._stretch_device_mark = self._device_total
        self.wall_s += stretch
        self.device_s += device
        self.normal_s += (stretch - device) / factor + device
        self._last_spin = took
        self._stretch_began = perf_counter()

    def begin(self) -> None:
        self.lap(force=False)
        if self.tracer is not None:
            self.tracer.begin_slice(self._slices)
        self._slices += 1
        self._slice_device_mark = self._device_total
        self._slice_began = perf_counter()

    def end(self, full: bool = True) -> None:
        """A short last slice (``full=False``) is not a sample."""
        if full:
            self._samples.append((
                perf_counter() - self._slice_began,
                self._device_total - self._slice_device_mark,
                len(self.factors),
            ))
        if self.tracer is not None:
            self.tracer.begin_slice(-1)

    def pull(self, events: Iterable[Any]) -> Iterator[Any]:
        """Pull side (batch): a slice runs from the system *asking for*
        event 256·i to its asking for event 256·(i+1), so the engine's
        own chunking is left alone."""
        for event in events:
            if self.events % SLICE_EVENTS == 0:
                if self.events:
                    self.end()
                self.begin()
            self.events += 1
            yield event
        if self.events:
            self.end(full=self.events % SLICE_EVENTS == 0)

    def slices(self, normalised: bool = True) -> List[float]:
        if not normalised:
            return [duration for duration, _, _ in self._samples]
        return [
            (duration - device) / self.factors[stretch] + device
            for duration, device, stretch in self._samples
        ]
