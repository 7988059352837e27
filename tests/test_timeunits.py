"""The time-unit helpers must be expression-identical to the inline
arithmetic they replaced (pinned digests are bit-exact)."""

from repro.util import timeunits


class TestTimeunits:
    def test_identities(self):
        for us in (0, 1, 250.5, 1e6):
            assert timeunits.us_to_ns(us) == int(us * 1000)
        for ms in (0.0, 20.0, 0.5, 1234.56):
            assert timeunits.ms_to_ns(ms) == int(ms * 1_000_000)
            assert timeunits.ms_to_ns_float(ms) == ms * 1_000_000
        for ns in (0, 999, 50_000, 123_456_789):
            assert timeunits.ns_to_us(ns) == ns / 1000.0
            assert timeunits.ns_to_ticks(ns) == ns // timeunits.TICK_NS
        assert timeunits.ticks_to_ns(7) == 7 * 50_000
        assert timeunits.TICK_NS == 50_000

    def test_driver_reexports_tick_ns(self):
        from repro.load import driver

        assert driver.TICK_NS is timeunits.TICK_NS
