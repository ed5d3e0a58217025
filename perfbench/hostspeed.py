"""Host speed tracking: times measured on a shared host, brought to reference speed.

The benchmark runs on a few cores of a shared host. There the same work takes
up to half as long again from one second to the next and from one minute to
the next, as the neighbours' load comes and goes. Process CPU time swings with
wall time, so it is no way out, and the fastest of several runs does not help
when a slow spell lasts longer than a benchmark run.

So an untraced run times a small fixed kernel between program calls, at most
every ``Pacer.INTERVAL`` seconds. The kernel is the benchmark's own code and
never changes with the program. A timed span is then scaled by
``REFERENCE_S / k``, where ``k`` is the median kernel time of the samples
nearest the span: the two before it and the two after it. The result is the
time the work would have taken on a host where the kernel takes
``REFERENCE_S``.

The kernel does the two kinds of work the workloads do: factorizations of
small complex matrices, as in the sweep and the chain builder, and products,
solves and an SVD of complex matrices of the extensions' size, as in the
resolvents. In trials it tracked every workload about as well as the better
of its two halves alone; a kernel of Python object handling tracked none.
"""

import bisect
import statistics
import time

import numpy as np

_RNG = np.random.default_rng(20130626)
_SMALL = [_RNG.standard_normal((6, 6)) + 1j * _RNG.standard_normal((6, 6)) for _ in range(8)]
_DENSE = _RNG.standard_normal((128, 128)) + 1j * _RNG.standard_normal((128, 128))


# The kernel's median time on the 2-CPU Intel Xeon VM (OpenBLAS on one thread)
# the benchmark was tuned on, so reference-speed times read as that box's.
REFERENCE_S = 0.008


def kernel():
    """A fixed piece of work, about 8 ms long."""
    for i in range(60):
        m = _SMALL[i % len(_SMALL)]
        np.linalg.svd(m)
        np.linalg.qr(m @ m.conj().T)
    _DENSE @ _DENSE
    np.linalg.solve(_DENSE, _DENSE[:, :8])
    np.linalg.svd(_DENSE[:64, :64])


class Pacer:
    """Samples the kernel's time and scales spans of the same run by it."""

    INTERVAL = 0.5

    def __init__(self):
        self.starts, self.ends, self.seconds = [], [], []

    def sample(self):
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.starts.append(start)
        self.ends.append(end)
        self.seconds.append(end - start)

    def maybe_sample(self):
        """Sample if ``INTERVAL`` passed since the last sample."""
        if not self.ends or time.perf_counter() - self.ends[-1] >= self.INTERVAL:
            self.sample()

    def scale(self, start, end) -> float:
        """``REFERENCE_S`` over the kernel time around the span ``[start, end]``."""
        last_before = bisect.bisect_right(self.ends, start)
        first_after = bisect.bisect_left(self.starts, end)
        near = (self.seconds[max(0, last_before - 2):last_before]
                + self.seconds[first_after:first_after + 2])
        if not near:
            raise ValueError("no kernel sample near the span")
        return REFERENCE_S / statistics.median(near)
