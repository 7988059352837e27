"""Good: registered purposes and prefixes."""

from repro.util import sanitizer
from repro.util.rng import child_rng


def make_streams(seed, tag):
    # A registered literal and a registered f-string prefix.
    client = child_rng(seed, "client")
    cluster = child_rng(seed, f"load-cluster:{tag}")
    return client, cluster


def scoped_draw(seed):
    rng = child_rng(seed, "stall")
    with sanitizer.scope("stall"):
        return rng.random()
