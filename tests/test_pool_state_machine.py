"""A state machine over a 2-worker pool: its operations in any order.

Hypothesis drives one ``SupervisedWorkerPool`` through random sequences of
batches (each carrying one unparsable statement), refits, aggregate
registrations, worker kills and heartbeat passes.  A separately built
facade receives the same refit / add_aggregate sequence and is the oracle:

* every answer the pool gives is ``==`` the oracle's for the same statement;
* the unparsable statement fails alone, with its typed error;
* every shard has applied every logged broadcast (``describe()``'s
  ``"broadcasts"`` equals the number of refits and registrations).

Hand-picked scenarios missed ``add_aggregate -> batch -> refit``, which once
raised; a search over sequences is what finds such three-step paths.  Kills
stay below the respawn budget, so no shard is ever lost for good.
"""

from __future__ import annotations

import asyncio

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.aggregates import AggregateQuery
from repro.exceptions import SQLSyntaxError
from repro.query.workload import MixedQueryWorkload
from repro.serving.scale import SupervisedWorkerPool

from worlds import (
    build_biased_correlated_sample,
    build_correlated_population,
    build_fitted_themis,
    dispatch_outcomes,
)

UNPARSABLE = "SELEC nonsense FROM"
_POPULATION = build_correlated_population()


def _statements():
    """A fixed mix of point, scalar, group-by and analytic statements."""
    sample = build_biased_correlated_sample(_POPULATION)
    entries = MixedQueryWorkload(sample, seed=421).generate(
        n_point=3, n_scalar=3, n_group_by=3, n_analytic=3
    )
    # SQL text and ASTs both cross the pipe as submitted.
    return [entry.sql if i % 2 else entry.query for i, entry in enumerate(entries)]


STATEMENTS = _statements()
#: The aggregates the machine may register (each any number of times).
AGGREGATES = [
    AggregateQuery.from_relation(_POPULATION, columns)
    for columns in (["A", "C"], ["C"], ["A", "B", "C"])
]


class PoolMachine(RuleBasedStateMachine):
    @initialize()
    def build(self):
        self.pool = SupervisedWorkerPool(build_fitted_themis(), n_workers=2)
        self.oracle = build_fitted_themis()
        self.oracle_session = self.oracle.serve()
        self.broadcasts = 0

    def teardown(self):
        if hasattr(self, "pool"):
            self.pool.close()

    @rule(
        picks=st.lists(st.sampled_from(range(len(STATEMENTS))), min_size=1, max_size=6),
        position=st.integers(min_value=0, max_value=6),
    )
    def batch(self, picks, position):
        statements = [STATEMENTS[i] for i in picks]
        bad = min(position, len(statements))
        statements.insert(bad, UNPARSABLE)
        outcomes = dispatch_outcomes(self.pool, statements)
        assert isinstance(outcomes[bad].error, SQLSyntaxError)
        del statements[bad], outcomes[bad]
        assert all(outcome.ok for outcome in outcomes), outcomes
        expected = self.oracle_session.execute_batch(statements).results()
        assert [outcome.value for outcome in outcomes] == expected

    @rule()
    def refit(self):
        self.oracle.refit()
        self.broadcasts += 1
        assert self.pool.refit() == self.broadcasts

    @rule(aggregate=st.sampled_from(AGGREGATES))
    def add_aggregate(self, aggregate):
        self.oracle.add_aggregate(aggregate)
        self.broadcasts += 1
        self.pool.add_aggregate(aggregate)

    @rule(shard=st.integers(min_value=0, max_value=1))
    def kill_worker(self, shard):
        worker = self.pool._workers[shard]
        # Below the respawn budget, and not a worker already lying dead.
        if worker.process.is_alive() and worker.incarnation < self.pool.max_respawns:
            worker.process.kill()
            worker.process.join(10.0)

    @rule()
    def heartbeat_pass(self):
        asyncio.run(self.pool.check_heartbeats())

    @invariant()
    def no_shard_is_lost(self):
        assert self.pool.dead_shards() == set()

    @invariant()
    def every_shard_applied_every_broadcast(self):
        # Asking a killed worker would detect its death here, so the rules
        # that follow a kill would never meet a dead pipe: ask only when all
        # published workers are alive.
        if all(worker.process.is_alive() for worker in self.pool._workers):
            bodies = self.pool.describe()
            assert [body["broadcasts"] for body in bodies] == [self.broadcasts] * 2


PoolMachine.TestCase.settings = settings(
    max_examples=10, stateful_step_count=10, deadline=None
)
TestPoolStateMachine = PoolMachine.TestCase
