"""Shared Hypothesis strategies (ROADMAP item 3: one scenario corpus).

Row dicts for the ``svec ≡ stopdown`` gate files
(``test_columnar.py``, ``test_scoring_equivalence.py``,
``test_retraction.py``), whole stream scenarios — schema shape, caps,
inserts and deletes, a shard partition — for the one three-way
equivalence test, the op sequences of the columnar store's
differential test, and the one switch those files share
(:func:`sweep_constants`: which side of the sweep index's arming
constant a short stream runs on), plus the service-tier tests' cyclic
rows (:func:`make_rows`).  Import with ``from tests.strategies import …``.
"""

from contextlib import contextmanager
from typing import NamedTuple, Optional, Tuple

from hypothesis import strategies as st

from repro import DiscoveryConfig, TableSchema
from repro.storage import sweep_index as sweep_module


def rows_of(dimensions, measure_max, n_measures=2):
    """Row dicts over ``dimensions`` (name → candidate values) with
    ``n_measures`` integer measures ``m0…`` in ``[0, measure_max]``."""
    columns = {
        name: st.sampled_from(list(values))
        for name, values in dimensions.items()
    }
    for i in range(n_measures):
        columns[f"m{i}"] = st.integers(min_value=0, max_value=measure_max)
    return st.fixed_dictionaries(columns)


#: d0 × d1 rows for ``TableSchema(("d0", "d1"), ("m0", "m1"))``.
row_strategy = rows_of({"d0": "abc", "d1": "xy"}, 4)

#: The same schema on a tighter domain: more ties, more dominance.
narrow_row_strategy = rows_of({"d0": "ab", "d1": "xy"}, 3)

#: Three dimensions, None possible on each of them.
none_row_strategy = rows_of(
    {"d0": ["a", "b", None], "d1": ["x", "y", None], "d2": ["p", None]}, 3
)

#: Three dimensions, None on the last only.
wide_row_strategy = rows_of(
    {"d0": "abc", "d1": "xy", "d2": ["p", "q", None]}, 4
)


#: The two-by-two schema of the service-tier tests (server, gateway,
#: fault tolerance).
SERVICE_SCHEMA = TableSchema(("d0", "d1"), ("m0", "m1"))


def make_rows(n, start=0):
    """``n`` rows of :data:`SERVICE_SCHEMA` from index ``start`` on:
    dimension values and measures cycle with the index, so a stream is
    reproducible and two calls with adjacent ranges continue it."""
    return [
        {"d0": f"a{i % 3}", "d1": f"b{i % 2}", "m0": i % 5, "m1": (7 - i) % 5}
        for i in range(start, start + n)
    ]


#: Value pools of :func:`stream_scenarios`, cycled over the schema's
#: dimensions — the pools of the row strategies above, None-heavy.
STREAM_POOLS = (
    ["a", "b", None],
    ["x", "y", None],
    ["p", None],
    "abc",
    "xy",
    ["p", "q", None],
    "ab",
)


class StreamScenario(NamedTuple):
    """One drawn stream: ``ops`` holds row dicts (arrivals) and integers
    (delete the live tuple at that index, modulo the live count;
    skipped while fewer than two are live); ``shard_of[M - 1]`` assigns
    measure subspace ``M`` to a shard, so the maintained keys split
    into one shard with the full space and up to two without."""

    schema: TableSchema
    config: DiscoveryConfig
    ops: Tuple[object, ...]
    shard_of: Tuple[int, ...]


#: ``(d, m, d̂, m̂)`` shapes past the columnar store's skyline-count
#: index caps (8 dimensions, 8 measures), where ``skyline_counts``
#: counts straight from the anchor-bit matrix.
PAST_CAP_SHAPES = ((9, 2, 2, None), (3, 9, None, 1))


@st.composite
def stream_scenarios(draw, max_ops=14, past_caps=False):
    """Streams over every shape the ``svec`` walk serves: d ∈ 2…7
    (one to four words per anchor cell), m ∈ {2, 3}, d̂ ∈ {None, 2, 4},
    an optional m̂ cap, None-heavy rows, interleaved deletes.  With
    ``past_caps`` the shape is one of :data:`PAST_CAP_SHAPES` instead."""
    if past_caps:
        d, m, dhat, mhat = draw(st.sampled_from(PAST_CAP_SHAPES))
    else:
        d = draw(st.integers(min_value=2, max_value=7))
        m = draw(st.sampled_from([2, 3]))
        dhat = draw(st.sampled_from([None, 2, 4]))
        mhat = draw(st.sampled_from([None, None, 1, 2]))
    schema = TableSchema(
        tuple(f"d{j}" for j in range(d)), tuple(f"m{i}" for i in range(m))
    )
    config = DiscoveryConfig(max_bound_dims=dhat, max_measure_dims=mhat)
    row = rows_of(
        {f"d{j}": STREAM_POOLS[j % len(STREAM_POOLS)] for j in range(d)},
        3,
        n_measures=m,
    )
    delete = st.integers(min_value=0, max_value=max_ops)
    ops = draw(st.lists(st.one_of(row, row, row, delete), min_size=1, max_size=max_ops))
    shard_of = draw(
        st.lists(
            st.integers(min_value=0, max_value=2),
            min_size=(1 << m) - 1,
            max_size=(1 << m) - 1,
        )
    )
    return StreamScenario(schema, config, tuple(ops), tuple(shard_of))


@contextmanager
def sweep_constants(arm_rows: int, fold_batch: Optional[int] = None):
    """Run a block with the sweep index arming at ``arm_rows`` rows and
    folding every ``fold_batch`` (default: the same) — a few rows put a
    short test stream on the indexed side of the ``svec`` walk, the
    shipped values keep it on the dense side."""
    saved = sweep_module.ARM_ROWS, sweep_module.DEFAULT_FOLD_BATCH
    sweep_module.ARM_ROWS = arm_rows
    sweep_module.DEFAULT_FOLD_BATCH = fold_batch or arm_rows
    try:
        yield
    finally:
        sweep_module.ARM_ROWS, sweep_module.DEFAULT_FOLD_BATCH = saved


def store_op_sequences(n_dimensions, pool=5, max_ops=24):
    """``(dims of a record pool, ops)`` for driving a µ store.

    Ops name records by pool index (their tid) and constraints by bound
    mask over the record's own values:

    * ``("insert" | "delete", tid, mask, subspace)`` — set / clear one
      bit of one cell (the mirror's scalar calls);
    * ``("arrival", tid, {subspace: [masks]})`` — grouped promotion of a
      tuple stored nowhere yet;
    * ``("reanchor", tid, subspace, [child masks])`` — demotion: one
      current anchor moves down to the children;
    * ``("apply_cells", {(tid, subspace): [masks]})`` — one write batch
      setting each named cell to exactly those masks (an empty list
      clears the cell; the mask range covers every word of a d > 5
      cell);
    * ``("unregister", tid)``, ``("compact",)``, ``("clear",)``.

    The mutating ops a discovery run issues most come up most.
    """
    value = st.sampled_from(["a", "b", None])
    mask = st.integers(min_value=0, max_value=(1 << n_dimensions) - 1)
    masks = st.lists(mask, min_size=1, max_size=3)
    subspace = st.integers(min_value=1, max_value=3)
    tid = st.integers(min_value=0, max_value=pool - 1)
    insert = st.tuples(st.just("insert"), tid, mask, subspace)
    arrival = st.tuples(
        st.just("arrival"),
        tid,
        st.dictionaries(subspace, masks, min_size=1, max_size=3),
    )
    batch = st.tuples(
        st.just("apply_cells"),
        st.dictionaries(
            st.tuples(tid, subspace),
            st.lists(mask, max_size=3),
            min_size=1,
            max_size=6,
        ),
    )
    op = st.one_of(
        insert,
        insert,
        arrival,
        arrival,
        batch,
        batch,
        st.tuples(st.just("reanchor"), tid, subspace, masks),
        st.tuples(st.just("delete"), tid, mask, subspace),
        st.tuples(st.just("unregister"), tid),
        st.tuples(st.just("compact")),
        st.tuples(st.just("clear")),
    )
    return st.tuples(
        st.lists(
            st.tuples(*[value] * n_dimensions), min_size=pool, max_size=pool
        ),
        st.lists(op, max_size=max_ops),
    )
