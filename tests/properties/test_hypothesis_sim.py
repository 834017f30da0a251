"""Property-based tests (hypothesis) for simulator invariants.

The load-bearing properties: FIFOs and interconnects conserve items
under arbitrary push/pop interleavings, the memory channel conserves
requests, and the RNG streams stay within contract.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Dispatcher, Merger
from repro.memory import MemoryChannel, MemoryRequest, MemorySpec
from repro.sampling import QueryStream
from repro.sampling.vectorized import stream_states
from repro.sim import SimulationKernel, StreamFifo

actions = st.lists(st.sampled_from(["push", "pop", "commit"]), min_size=1, max_size=200)


class TestFifoConservation:
    @given(plan=actions)
    @settings(max_examples=80, deadline=None)
    def test_no_item_lost_or_duplicated(self, plan):
        fifo = StreamFifo(8)
        pushed, popped = [], []
        counter = 0
        for action in plan:
            if action == "push" and not fifo.is_full():
                fifo.push(counter)
                pushed.append(counter)
                counter += 1
            elif action == "pop" and not fifo.is_empty():
                popped.append(fifo.pop())
            elif action == "commit":
                fifo.commit()
        fifo.commit()
        remaining = []
        while not fifo.is_empty():
            remaining.append(fifo.pop())
        fifo.commit()
        assert popped + remaining == pushed  # order preserved, nothing lost

    @given(plan=actions)
    @settings(max_examples=50, deadline=None)
    def test_occupancy_never_exceeds_capacity(self, plan):
        fifo = StreamFifo(5)
        counter = 0
        for action in plan:
            if action == "push" and not fifo.is_full():
                fifo.push(counter)
                counter += 1
            elif action == "pop" and not fifo.is_empty():
                fifo.pop()
            else:
                fifo.commit()
            assert fifo.in_flight() <= 5


class TestInterconnectConservation:
    @given(
        items=st.integers(1, 40),
        drain_pattern=st.integers(0, 7),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_dispatcher_merger_chain_conserves_items(self, items, drain_pattern, seed):
        kernel = SimulationKernel()
        src = kernel.make_fifo(64, "src")
        mid0 = kernel.make_fifo(4, "mid0")
        mid1 = kernel.make_fifo(4, "mid1")
        out = kernel.make_fifo(64, "out")
        kernel.add_module(Dispatcher("d", src, mid0, mid1))
        kernel.add_module(Merger("m", mid0, mid1, out))
        for i in range(items):
            if not src.is_full():
                src.push(i)
        received = []
        pending = items - min(items, 64)
        counter = min(items, 64)
        for cycle in range(600):
            # irregular draining of the output
            if (cycle % 8) > drain_pattern and not out.is_empty():
                received.append(out.pop())
            if counter < items and not src.is_full():
                src.push(counter)
                counter += 1
            kernel.step()
        while not out.is_empty():
            received.append(out.pop())
        assert sorted(received) == list(range(items))


class TestChannelConservation:
    @given(
        num_requests=st.integers(1, 60),
        rate=st.floats(0.1, 1.0),
        latency=st.integers(1, 30),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_request_completes_exactly_once(self, num_requests, rate, latency):
        spec = MemorySpec(
            "prop",
            num_channels=1,
            random_tx_rate_mhz=rate * 320.0,
            sequential_gbs=10.0,
            round_trip_cycles=latency,
            max_outstanding=8,
        )
        channel = MemoryChannel(spec, core_mhz=320.0, queue_capacity=num_requests)
        for i in range(num_requests):
            channel.submit(MemoryRequest(tag=i))
        received = []
        for _ in range(int(num_requests / min(rate, 1.0)) + latency + 200):
            channel.tick()
            while channel.response_queue():
                received.append(channel.pop_response().tag)
        assert sorted(received) == list(range(num_requests))
        assert channel.stats.requests_completed == num_requests
        assert not channel.response_queue()


class TestRngContracts:
    @given(seed=st.integers(0, 2**32), streams=st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_uniforms_in_unit_interval(self, seed, streams):
        for state in stream_states(seed, range(streams)).tolist():
            source = QueryStream(state)
            for _ in range(20):
                assert 0.0 <= source.uniform() < 1.0

    @given(state=st.integers(0, 2**64 - 1), bound=st.integers(1, 1000))
    @settings(max_examples=40, deadline=None)
    def test_randint_in_bounds(self, state, bound):
        source = QueryStream(state)
        for _ in range(30):
            assert 0 <= source.randint(bound) < bound
