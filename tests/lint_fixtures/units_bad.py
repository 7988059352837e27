"""Bad: cross-unit time arithmetic without explicit conversions.

Every function mixes the virtual timeline's currencies (ns, ticks, ms)
with no conversion helper or factor in sight — the unit-mismatch rule must
flag each one.
"""


def total_latency(service_ns, queue_ticks):
    # ns + ticks: meaningless sum.
    return service_ns + queue_ticks


def deadline_ns(start_ns, timeout_ms):
    # Scaling by a bare literal does not convert: still ms at the `+`.
    return start_ns + timeout_ms * 1_000_000


def overdue(now_ns, deadline_ticks):
    # Comparing ns against ticks.
    return now_ns > deadline_ticks


def stash(elapsed_ticks):
    # ticks stored into an ns-suffixed name.
    spent_ns = elapsed_ticks
    return spent_ns
