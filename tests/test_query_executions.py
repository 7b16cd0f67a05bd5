"""Ray Data executions per query, pinned on a fixed sample at sf0.001.

Every execution pays Ray's per-execution setup, so a change that adds
one (a stray ``count()``, ``materialize()`` or ``.schema()``) shows up
here. Executions are counted with Ray Data's execution callback, the
hook ``perfbench/ledger.watch_executions`` uses; a query that reuses a
pinned intermediate counts each execution it starts."""

import pytest

from conftest import TESTDATA

SF = str(TESTDATA / "sf0.001")

EXECUTIONS = {
    "lineitem_agg": 1,
    "lang_stats": 1,
    "lang_length_median": 1,
    "join_priority_revenue": 3,
    "supplier_triangles": 3,
    "supplier_kcore": 2,
}


@pytest.fixture(scope="module")
def executions(ray_session):
    """A callable that runs one query and returns how many Ray Data
    executions it started."""
    from ray.data import DataContext
    from ray.data._internal.execution.execution_callback import (
        ExecutionCallback,
        add_execution_callback,
        remove_execution_callback,
    )

    started = []

    class Count(ExecutionCallback):
        def before_execution_starts(self, executor):
            started.append(1)

        # every Dataset deep-copies the data context, hooks included:
        # the copies must count here
        def __deepcopy__(self, memo):
            return self

        def __reduce__(self):
            return (ExecutionCallback, ())

    ctx = DataContext.get_current()
    hook = Count()
    add_execution_callback(hook, ctx)

    def run(fn) -> int:
        started.clear()
        fn(SF)
        return len(started)

    yield run
    remove_execution_callback(hook, ctx)


@pytest.mark.parametrize("name", sorted(EXECUTIONS))
def test_query_executions(executions, name):
    from zzzarchived_arxiv_fulltext_ray.pipelines.queries import QUERIES

    assert executions(QUERIES[name]) == EXECUTIONS[name]
