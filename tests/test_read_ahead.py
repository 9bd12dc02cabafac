"""Harvest read-ahead edges that the randomized comparison with the
one-block-per-pull harvest in test_pool.py reaches only rarely."""

from __future__ import annotations

from eaas.harness import SimClock
from eaas.pool import EntropyPool
from test_pool import STUCK, Tape, descriptor, pool_view, reference_harvest


def test_source_the_plan_left_out_still_takes_its_turn():
    """One block of "a" would cover the request, so the plan gives "b"
    no block. The block of "a" fails and the pass goes on to "b", which
    pulls one block and credits it, as in the reference."""
    pools, calls = [], []
    for harvest in (EntropyPool.harvest, reference_harvest):
        pool = EntropyPool(SimClock().now)
        pool.register_source(descriptor("a"),
                             Tape(1, lambda k: STUCK if k < 2 else None))
        tape, seen = Tape(2), []

        def counting(n, tape=tape, seen=seen):
            seen.append(n)
            return tape(n)

        pool.register_source(descriptor("b"), counting)
        harvest(pool, 512, 1000)
        pools.append(pool)
        calls.append(seen)
    assert pool_view(pools[0]) == pool_view(pools[1])
    assert pools[0].credited_bits == 512
    assert calls == [[64], [64]]
