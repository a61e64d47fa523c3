"""Host-speed correction for the benchmark's timings.

On a shared host the CPU speed can swing by up to 1.7x over seconds to
minutes. A fixed `Fraction` loop then alternates between about 8 and 13 ms,
and process CPU time swings with it, so the cause is not scheduling. Run
medians would follow the host rather than the code. So every timed task is
bracketed by a short probe doing the kind of work rhocalc's hot paths do:
`Fraction` arithmetic on small integers. The task's wall time is scaled by
PROBE_REF_S / (mean of the two probe times). A corrected time reads as "ms
on a host where the probe takes PROBE_REF_S". The benchmark prints it next
to the raw wall time. The probe is the benchmark's own code, so a change to
rhocalc moves the corrected and the raw times alike.
"""

from __future__ import annotations

import time
from fractions import Fraction

PROBE_REF_S = 1.7e-3     # the probe's typical time on the 2-vCPU Xeon host


def probe() -> float:
    """Seconds taken by a fixed ~1.7 ms burst of Fraction arithmetic."""
    t0 = time.perf_counter()
    s = Fraction(0)
    for i in range(1, 200):
        s += Fraction(1, i % 97 + 1) * Fraction(i % 13 + 1, 7)
    return time.perf_counter() - t0


class SpeedClock:
    """Probes between timed tasks; `factor()` after a task gives the scale
    for that task's wall time."""

    def __init__(self):
        self.last = probe()
        self.probe_s = self.last          # total time spent probing
        self.probes = [self.last]

    def factor(self) -> float:
        nxt = probe()
        f = 2 * PROBE_REF_S / (self.last + nxt)
        self.last = nxt
        self.probe_s += nxt
        self.probes.append(nxt)
        return f
