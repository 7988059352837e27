"""Bad: undisciplined child_rng purposes.

An unregistered purpose, a registered purpose constructed at more
sites than the registry allows (aliasing two streams onto one
sequence), and a non-literal purpose outside the dynamic allowlist.
"""

from repro.util.rng import child_rng


def make_streams(seed):
    mystery = child_rng(seed, "totally-unregistered")
    first = child_rng(seed, "client")
    second = child_rng(seed, "client")  # registry allows one site
    return mystery, first, second


def opaque(seed, purpose):
    # Purpose is a plain parameter and this function is not in
    # DYNAMIC_SITES.
    return child_rng(seed, purpose)
