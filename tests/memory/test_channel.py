"""Unit tests for the cycle-level memory channel model."""

import pytest

from repro.errors import MemoryModelError
from repro.memory import MemoryChannel, MemoryRequest, MemorySpec


def issued(ch):
    """Requests issued so far: one word each, every request here is
    single-word."""
    return ch.stats.words_transferred


def drained(ch):
    """Nothing pending, in flight, or waiting collection."""
    return ch.stats.requests_completed == ch.stats.requests_accepted and not ch.response_queue()


def make_channel(rate_mhz=160.0, core_mhz=320.0, latency=10, outstanding=4, queue=8):
    spec = MemorySpec(
        "test",
        num_channels=1,
        random_tx_rate_mhz=rate_mhz,
        sequential_gbs=10.0,
        round_trip_cycles=latency,
        max_outstanding=outstanding,
    )
    return MemoryChannel(spec, core_mhz=core_mhz, queue_capacity=queue)


class TestLatency:
    def test_response_after_round_trip(self):
        ch = make_channel(rate_mhz=320.0, latency=10)
        ch.submit(MemoryRequest(tag="a"))
        for cycle in range(10):
            assert not ch.response_queue(), f"early response at {cycle}"
            ch.tick()
        ch.tick()
        assert ch.response_queue()
        assert ch.pop_response().tag == "a"

    def test_responses_in_order(self):
        ch = make_channel(rate_mhz=320.0, latency=5)
        for tag in ("a", "b", "c"):
            ch.submit(MemoryRequest(tag=tag))
        for _ in range(30):
            ch.tick()
        assert [ch.pop_response().tag for _ in range(3)] == ["a", "b", "c"]


class TestRateLimit:
    def test_issue_rate_is_half_core_rate(self):
        # 160 MT/s at 320 MHz core = 0.5 tx/cycle.
        ch = make_channel(rate_mhz=160.0, outstanding=64, queue=2000)
        for i in range(1000):
            ch.submit(MemoryRequest(tag=i))
        for _ in range(1000):
            ch.tick()
        assert issued(ch) == pytest.approx(500, abs=10)

    def test_burst_consumes_more_tokens(self):
        single = make_channel(outstanding=64, queue=2000)
        burst = make_channel(outstanding=64, queue=2000)
        for i in range(500):
            single.submit(MemoryRequest(tag=i, burst_words=1))
            burst.submit(MemoryRequest(tag=i, burst_words=32))
        for _ in range(600):
            single.tick()
            burst.tick()
        assert burst.stats.requests_completed < single.stats.requests_completed

    def test_token_bank_is_capped(self):
        # A long idle period must not bank unbounded issue credit.
        ch = make_channel(rate_mhz=32.0, outstanding=64, queue=100)
        for _ in range(1000):
            ch.tick()  # idle
        for i in range(50):
            ch.submit(MemoryRequest(tag=i))
        ch.tick()
        assert issued(ch) <= 4  # bank cap, not 100 cycles' worth


class TestOutstandingWindow:
    def test_window_blocks_issue(self):
        ch = make_channel(rate_mhz=320.0, latency=100, outstanding=2, queue=50)
        for i in range(10):
            ch.submit(MemoryRequest(tag=i))
        for _ in range(50):
            ch.tick()
        assert issued(ch) - ch.stats.requests_completed <= 2
        assert ch.stats.requests_completed == 0 and issued(ch) == 2

    def test_queue_capacity_enforced(self):
        ch = make_channel(queue=2)
        ch.submit(MemoryRequest(tag=1))
        ch.submit(MemoryRequest(tag=2))
        assert not ch.can_accept()
        with pytest.raises(MemoryModelError, match="overflow"):
            ch.submit(MemoryRequest(tag=3))


class TestReorderWindow:
    def test_deliver_out_of_order_skips_blocked(self):
        ch = make_channel(rate_mhz=320.0, latency=1, queue=10)
        for tag in ("x", "y", "z"):
            ch.submit(MemoryRequest(tag=tag))
        for _ in range(10):
            ch.tick()
        delivered = []
        ch.deliver_out_of_order(
            lambda req: delivered.append(req.tag) or True if req.tag != "x" else False,
            window=8,
        )
        assert delivered == ["y", "z"]
        # x stays at the head, order preserved
        assert [r.tag for r in ch.response_queue()] == ["x"]

    def test_window_bounds_scan(self):
        ch = make_channel(rate_mhz=320.0, latency=1, queue=40, outstanding=40)
        for i in range(10):
            ch.submit(MemoryRequest(tag=i))
        for _ in range(20):
            ch.tick()
        seen = []
        ch.deliver_out_of_order(lambda req: seen.append(req.tag) or False, window=4)
        assert seen == [0, 1, 2, 3]

    def test_window_validation(self):
        ch = make_channel()
        with pytest.raises(MemoryModelError):
            ch.deliver_out_of_order(lambda r: True, window=0)

    def test_window_of_one_degenerates_to_in_order(self):
        # window=1 offers only the head: a rejection at the head delivers
        # nothing and moves nothing, exactly in-order semantics.
        ch = make_channel(rate_mhz=320.0, latency=1, queue=10)
        for tag in ("a", "b", "c"):
            ch.submit(MemoryRequest(tag=tag))
        for _ in range(10):
            ch.tick()
        offered = []
        delivered = ch.deliver_out_of_order(
            lambda req: offered.append(req.tag) or False, window=1
        )
        assert delivered == 0
        assert offered == ["a"]
        assert [r.tag for r in ch.response_queue()] == ["a", "b", "c"]
        # Accepting the head with window=1 consumes exactly one.
        assert ch.deliver_out_of_order(lambda req: True, window=1) == 1
        assert [r.tag for r in ch.response_queue()] == ["b", "c"]

    def test_window_larger_than_pending(self):
        # The scan is bounded by what has completed, not the window: a
        # huge window over two responses offers two, delivers two, and a
        # second call on the drained queue is a no-op.
        ch = make_channel(rate_mhz=320.0, latency=1, queue=10)
        for tag in ("a", "b"):
            ch.submit(MemoryRequest(tag=tag))
        for _ in range(10):
            ch.tick()
        offered = []
        delivered = ch.deliver_out_of_order(
            lambda req: offered.append(req.tag) or True, window=1000
        )
        assert delivered == 2
        assert offered == ["a", "b"]
        assert not ch.response_queue()
        assert ch.deliver_out_of_order(lambda req: True, window=1000) == 0

    def test_responses_arriving_during_drain_wait_their_turn(self):
        # A response that completes *while* a drain call is running (the
        # delivery callback ticks the channel, as a cycle-driven consumer
        # does) must not be offered by the in-progress call — the scan is
        # over the snapshot at call time — and must queue behind the
        # survivors of that scan.
        ch = make_channel(rate_mhz=320.0, latency=3, queue=10)
        ch.submit(MemoryRequest(tag="early"))
        for _ in range(6):
            ch.tick()
        assert ch.response_queue()
        ch.submit(MemoryRequest(tag="late"))

        offered = []

        def tick_through(req):
            offered.append(req.tag)
            for _ in range(10):
                ch.tick()  # "late" completes mid-drain
            return False

        ch.deliver_out_of_order(tick_through, window=8)
        assert offered == ["early"]
        # Both remain, original arrival order intact for the next call.
        seen = []
        ch.deliver_out_of_order(lambda req: seen.append(req.tag) or True, window=8)
        assert seen == ["early", "late"]


class TestAccounting:
    def test_every_accepted_request_completes_and_is_collected(self):
        ch = make_channel(rate_mhz=320.0, latency=3)
        assert drained(ch)
        ch.submit(MemoryRequest(tag=1))
        assert not drained(ch)
        for _ in range(10):
            ch.tick()
        assert not drained(ch)  # completed, not yet collected
        assert ch.pop_response().tag == 1
        assert drained(ch)

    def test_words_and_bytes(self):
        ch = make_channel(rate_mhz=320.0)
        ch.submit(MemoryRequest(tag=1, burst_words=4))
        for _ in range(20):
            ch.tick()
        assert ch.stats.words_transferred == 4

    def test_burst_words_validation(self):
        with pytest.raises(MemoryModelError):
            MemoryRequest(tag=1, burst_words=0)

    def test_pop_empty_raises(self):
        with pytest.raises(MemoryModelError):
            make_channel().pop_response()


class PerCycleChannel(MemoryChannel):
    """The channel's tick before idle cycles returned early and burst
    costs were cached: the whole body runs every cycle."""

    def tick(self):
        self._now += 1
        self._tokens = min(self._tokens + self._tokens_per_cycle, 4.0)
        issued_any = False
        while self._pending and len(self._in_flight) < self._max_outstanding:
            head = self._pending[0]
            cost = self.spec.burst_cost_tx(head.burst_words)
            if self._tokens < min(cost, 1.0):
                break
            self._tokens -= cost
            self._pending.popleft()
            self._in_flight.append((self._now + self._latency, head))
            self.stats.tokens_spent += cost
            self.stats.words_transferred += head.burst_words
            issued_any = True
        if issued_any or self._in_flight:
            self.stats.busy_cycles += 1
        elif self._pending:
            self.stats.stalled_cycles += 1
        while self._in_flight and self._in_flight[0][0] <= self._now:
            _, request = self._in_flight.popleft()
            self._responses.append(request)
            self.stats.requests_completed += 1


class TestIdleCycles:
    def test_idle_stretches_match_the_per_cycle_path(self):
        # 103 MT/s at 320 MHz: a refill that is not a binary fraction.
        spec = MemorySpec("u50ish", num_channels=1, random_tx_rate_mhz=103.0,
                          sequential_gbs=10.0, round_trip_cycles=7, max_outstanding=4)
        new, old = MemoryChannel(spec, 320.0), PerCycleChannel(spec, 320.0)
        bursts = {40: [1, 33, 2], 60: [64, 1, 1, 1, 1, 5], 400: [2]}
        for cycle in range(600):
            for words in bursts.get(cycle, ()):
                new.submit(MemoryRequest(tag=cycle, burst_words=words))
                old.submit(MemoryRequest(tag=cycle, burst_words=words))
            new.tick()
            old.tick()
            assert (vars(new.stats), new._tokens, new._now) == (
                vars(old.stats), old._tokens, old._now)
            assert ([r.tag for r in new._responses], len(new._pending)) == (
                [r.tag for r in old._responses], len(old._pending))
        assert new.stats.stalled_cycles > 0 and new.stats.busy_cycles < 600
