"""Host-speed normalisation of measured wall times.

The 2-CPU VM this benchmark was built on changes speed for seconds at a
time, by up to 1.5x, in CPU time as much as in wall time. A run of 30 s
could land mostly in a fast or mostly in a slow stretch, and throughput
then spread by 20-25% between runs however it was aggregated. A fixed
kernel (ocaml/probe, standard library only) slows down with the host:
timed next to a simulator process, the two walls correlate at 0.75, and
over windows of five pairs the spread of their ratio was 3-6% against
18-25% for the simulator alone.

So every measured unit of work is bracketed by two probe runs, and its
wall time is scaled to a host on which the probe takes NOMINAL_S. A
change to the simulator moves the work and not the probe, so it moves
the scaled figure by the same share as the raw one."""

import os
import statistics

from . import proc

PROBE = os.path.join("_build", "default", "perfbench", "ocaml", "probe", "probe.exe")
NOMINAL_S = 0.2


class HostProbe:
    def __init__(self, run_dir, deadline):
        self.deadline = deadline
        self.err = os.path.join(run_dir, "probe.err")
        self.times = []
        self.last = self._time()

    def _time(self):
        out = proc.run([PROBE], self.deadline, self.err)
        if out.code != 0:
            raise proc.Failed(f"host probe exited {out.code}: {out.stderr[-500:]}")
        self.times.append(out.wall)
        return out.wall

    def scale(self, wall):
        """Wall seconds of the work that just finished, scaled by the mean
        of the probe runs before and after it."""
        before, self.last = self.last, self._time()
        return wall * NOMINAL_S / ((before + self.last) / 2)

    def median(self):
        return statistics.median(self.times)
