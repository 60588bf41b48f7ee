"""Machine-speed probe for timing on a shared host.

Co-tenants on a shared host slow a core by up to 1.7x, in phases of one
to three seconds (see README.md). `probe()` times a fixed piece of pure
Python work of about 40 microseconds, which the benchmark owns and the
program under test never touches.  The benchmark probes just before each
timed interval and reports the interval scaled to a fixed reference speed:

    normalized = measured * REFERENCE_PROBE_S / probe_before_it

so every time reads as if the machine had run at the reference speed
throughout.  The reference is the probe's fastest time on a 2.1 GHz Xeon
core with no co-tenant load.  The raw times are printed beside the
normalized ones.
"""

from time import perf_counter

PROBE_KEYS = 64
PROBE_ITERATIONS = 400
REFERENCE_PROBE_S = 36e-6


def _loop() -> float:
    t0 = perf_counter()
    d: dict[int, int] = {}
    for i in range(PROBE_ITERATIONS):
        k = i % PROBE_KEYS
        d[k] = d.get(k, 0) + 3 * i
    return perf_counter() - t0


def probe() -> float:
    """Seconds the fixed loop takes right now.  The loop runs twice and the
    second, cache-warm run is timed, so the probe does not depend on what
    the program left in the caches."""
    _loop()
    return _loop()
