"""Unit tests for registered stream FIFOs."""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim import SimulationKernel, StreamFifo


class TestRegisteredSemantics:
    def test_push_invisible_until_commit(self):
        f = StreamFifo(4)
        f.push("a")
        assert f.is_empty()
        f.commit()
        assert not f.is_empty()
        assert f.front() == "a"

    def test_pop_applied_at_commit(self):
        f = StreamFifo(4)
        f.push("a")
        f.commit()
        assert f.pop() == "a"
        # occupancy drops only at commit
        assert f.occupancy() == 1
        f.commit()
        assert f.occupancy() == 0

    def test_fifo_order(self):
        f = StreamFifo(8)
        for x in range(5):
            f.push(x)
        f.commit()
        out = [f.pop() for _ in range(3)]
        f.commit()
        out += [f.pop() for _ in range(2)]
        f.commit()
        assert out == [0, 1, 2, 3, 4]

    def test_same_cycle_push_pop_different_items(self):
        f = StreamFifo(4)
        f.push("old")
        f.commit()
        # consumer pops the old item while producer pushes a new one
        assert f.pop() == "old"
        f.push("new")
        f.commit()
        assert f.pop() == "new"


class TestCapacity:
    def test_full_counts_staged(self):
        f = StreamFifo(2)
        f.push(1)
        f.push(2)
        assert f.is_full()
        with pytest.raises(SimulationError, match="full"):
            f.push(3)

    def test_try_push(self):
        f = StreamFifo(1)
        assert f.try_push(1)
        assert not f.try_push(2)

    def test_full_is_registered_not_pop_aware(self):
        # Popping this cycle does NOT free space this cycle (hardware
        # full flags are registered).
        f = StreamFifo(1)
        f.push(1)
        f.commit()
        f.pop()
        assert f.is_full()
        f.commit()
        assert not f.is_full()

    def test_capacity_validation(self):
        with pytest.raises(SimulationError):
            StreamFifo(0)


class TestConsumerSide:
    def test_multiple_pops_per_cycle_supported(self):
        f = StreamFifo(4)
        for x in (1, 2, 3):
            f.push(x)
        f.commit()
        assert f.pop() == 1
        assert f.pop() == 2
        assert f.try_pop() == 3
        assert f.try_pop() is None

    def test_front_empty_raises(self):
        with pytest.raises(SimulationError, match="front of empty fifo 'f'"):
            StreamFifo(2, "f").front()

    def test_pop_empty_raises(self):
        f = StreamFifo(2, "f")
        with pytest.raises(SimulationError, match="pop from empty fifo 'f'"):
            f.pop()
        f.push(1)
        with pytest.raises(SimulationError, match="pop from empty fifo 'f'"):
            f.pop()                  # staged, not yet committed

    def test_in_flight_counts_staged_and_committed(self):
        f = StreamFifo(4)
        f.push(1)
        assert f.in_flight() == 1
        f.commit()
        f.push(2)
        assert f.in_flight() == 2
        f.pop()
        assert f.in_flight() == 1


class TestAccounting:
    def test_counters(self):
        f = StreamFifo(4)
        f.push(1)
        f.push(2)
        f.commit()
        f.pop()
        f.commit()
        assert f.total_pushed == 2
        assert f.total_popped == 1
        assert f.peak_occupancy == 2


class RecomputingFifo:
    """The FIFO before its flags became counters: every flag is
    recomputed from the queue lengths and the pops of this cycle."""

    def __init__(self, capacity, name):
        self.capacity, self.name = capacity, name
        self.queue, self.staged, self.pops = deque(), [], 0
        self.total_pushed = self.total_popped = self.peak_occupancy = 0

    def is_full(self):
        return len(self.queue) + len(self.staged) >= self.capacity

    def is_empty(self):
        return len(self.queue) - self.pops == 0

    def push(self, item):
        if self.is_full():
            raise SimulationError(f"push into full fifo {self.name!r}")
        self.staged.append(item)
        self.total_pushed += 1

    def try_push(self, item):
        if self.is_full():
            return False
        self.push(item)
        return True

    def front(self):
        if self.is_empty():
            raise SimulationError(f"front of empty fifo {self.name!r}")
        return self.queue[self.pops]

    def pop(self):
        if self.is_empty():
            raise SimulationError(f"pop from empty fifo {self.name!r}")
        item = self.queue[self.pops]
        self.pops += 1
        self.total_popped += 1
        return item

    def try_pop(self):
        return None if self.is_empty() else self.pop()

    def commit(self):
        for _ in range(self.pops):
            self.queue.popleft()
        self.pops = 0
        self.queue.extend(self.staged)
        self.staged.clear()
        self.peak_occupancy = max(self.peak_occupancy, len(self.queue))


#: ``step`` advances the kernel (which commits the FIFO only if it moved);
#: ``commit`` is a hand commit, between kernel steps when kernel-made.
FIFO_OPS = ("push", "try_push", "pop", "try_pop", "front", "commit", "step")


def outcome(call):
    try:
        return "ok", call()
    except SimulationError as err:
        return "raised", str(err)


class TestCountersAgainstRecomputingOracle:
    @given(
        ops=st.lists(st.sampled_from(FIFO_OPS), max_size=150),
        capacity=st.integers(1, 5),
        kernel_made=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_every_operation_matches_the_recomputed_flags(self, ops, capacity, kernel_made):
        kernel = SimulationKernel()
        fifo = kernel.make_fifo(capacity, "f") if kernel_made else StreamFifo(capacity, "f")
        oracle = RecomputingFifo(capacity, "f")
        for item, op in enumerate(ops):
            if op in ("push", "try_push"):
                got = outcome(lambda: getattr(fifo, op)(item))
                want = outcome(lambda: getattr(oracle, op)(item))
            elif op == "step":
                got = outcome(kernel.step if kernel_made else fifo.commit)
                want = outcome(oracle.commit)
            else:
                got, want = outcome(getattr(fifo, op)), outcome(getattr(oracle, op))
            assert got == want, op
            assert fifo.ready == len(oracle.queue) - oracle.pops
            assert fifo.space == fifo.capacity - len(oracle.queue) - len(oracle.staged)
            assert (fifo.is_empty(), fifo.is_full()) == (oracle.is_empty(), oracle.is_full())
            assert (fifo.total_pushed, fifo.total_popped, fifo.peak_occupancy) == (
                oracle.total_pushed, oracle.total_popped, oracle.peak_occupancy)
            assert (fifo.occupancy(), fifo.in_flight()) == (
                len(oracle.queue), len(oracle.queue) + len(oracle.staged) - oracle.pops)
