"""Shared test data (ROADMAP item 3: one scenario corpus).

* :func:`stream_scenarios` — the corpus.  One draw is a whole stream: a
  schema shape, ``d̂`` / ``m̂`` caps, a reporting policy, arrivals mixed
  with deletes and updates, a subspace partition, and a probe row.  The
  one runner, ``tests/test_corpus.py``, drives every draw through every
  engine and checks it against the paper's definitions after every op;
  no other file compares engines on randomized streams.  The runner
  pins the corpus's grid — schema family × ``d̂`` × policy kind, and
  each past-caps shape — one test case per cell, so every cell runs on
  every test run and a failure names its cell.
* Row dict strategies (:func:`rows_of` and the fixed domains below) for
  the structural property files and the feed tier's differential tests.
* :func:`seeded_rows` and :func:`make_rows` — deterministic streams for
  the service, cluster, conformance and planner tests.
* :func:`sweep_constants` — which side of the sweep index's arming
  constant a short stream runs on; :func:`store_op_sequences` — the op
  sequences of the columnar store's differential test.

Import with ``from tests.strategies import …``.
"""

import random
from contextlib import contextmanager
from typing import NamedTuple, Optional, Sequence, Tuple

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


def seeded_rows(
    n: int,
    seed: int,
    cardinalities: Sequence[int],
    measures: str = "independent",
    none_frac: float = 0.0,
):
    """``n`` pseudo-random rows over dimensions ``d0…`` and measures
    ``m0``, ``m1``, reproducible from ``seed``.

    Dimension ``dj`` takes one of ``cardinalities[j]`` values named by
    the ``j``-th letter (``a0``, ``a1``, … for ``d0``; ``b0``, … for
    ``d1``).  ``measures="independent"`` draws both measures from 0…5;
    ``"anticorrelated"`` draws ``m0`` from 0…9 and sets ``m1`` to 9
    minus another such draw plus a jitter in 0…3, which keeps skylines
    busy.  With ``none_frac`` that share of rows has one dimension,
    drawn uniformly, set to None.
    """
    rng = random.Random(seed)
    rows = []
    for _ in range(n):
        row = {
            f"d{j}": f"{'abcdefgh'[j]}{rng.randrange(k)}"
            for j, k in enumerate(cardinalities)
        }
        if measures == "anticorrelated":
            row["m0"] = rng.randrange(10)
            row["m1"] = 9 - rng.randrange(10) + rng.randrange(4)
        else:
            row["m0"] = rng.randrange(6)
            row["m1"] = rng.randrange(6)
        if none_frac and rng.random() < none_frac:
            row[f"d{rng.randrange(len(cardinalities))}"] = None
        rows.append(row)
    return rows


#: Value pools of the None-heavy streams of :func:`stream_scenarios`,
#: cycled over the schema's dimensions.
STREAM_POOLS = (
    ["a", "b", None],
    ["x", "y", None],
    ["p", None],
    "abc",
    "xy",
    ["p", "q", None],
    "ab",
)

#: The schema families of :func:`stream_scenarios`.  ``None`` is the
#: None-heavy family over :data:`STREAM_POOLS`; the two None-free
#: two-by-two families give the ``(d0, d1)`` value pools and the largest
#: measure value.  ``abc-xy`` has more distinct contexts, ``ab-xy`` more
#: ties and dominance.
FAMILIES = {
    "none-heavy": None,
    "abc-xy": (("abc", "xy"), 4),
    "ab-xy": (("ab", "xy"), 3),
}

#: The ``d̂`` caps of :func:`stream_scenarios` (None: uncapped).
DHATS = (None, 0, 1, 2, 4)

#: ``(d, m, d̂, m̂)`` shapes past the columnar store's skyline-count
#: index caps (8 dimensions, 8 measures), where ``skyline_counts``
#: counts straight from the anchor-bit matrix.
PAST_CAP_SHAPES = ((9, 2, 2, None), (3, 9, None, 1))

#: Reporting policies by kind: everything ranked, the prominent facts
#: at ``τ``, or the top-k.
POLICIES = {
    "all": ({},),
    "tau": ({"tau": 1.0}, {"tau": 3.0}),
    "top-k": ({"top_k": 1}, {"top_k": 3}),
}


class StreamScenario(NamedTuple):
    """One drawn stream.

    ``ops`` holds row dicts (arrivals), integers (delete the live tuple
    at that index, modulo the live count) and ``(index, row)`` pairs
    (update that live tuple to ``row``: it leaves, and ``row`` arrives
    with a fresh tid); a delete or update with nothing live is skipped.
    ``shard_of[M - 1]`` assigns measure subspace ``M`` to a shard, so
    the maintained keys split into one shard with the full space and up
    to two without.  ``probe`` is one more row, the arrival after the
    schedule."""

    schema: TableSchema
    config: DiscoveryConfig
    ops: Tuple[object, ...]
    shard_of: Tuple[int, ...]
    probe: dict


@st.composite
def stream_scenarios(
    draw,
    families=tuple(FAMILIES),
    dhats=DHATS,
    policies=tuple(POLICIES),
    past_cap=None,
    max_ops=14,
):
    """Streams over every shape the engines serve: a family of
    :data:`FAMILIES`, a d̂ of :data:`DHATS` and a policy kind of
    :data:`POLICIES`, each drawn from the names or values given (the
    runner pins one of each, so every cell of that grid runs every
    time), an optional m̂ cap and a policy of the kind.  None-heavy
    draws have d ∈ 2…7 (one to four words per ``svec`` anchor cell),
    m ∈ {2, 3} and measures 0…3; the None-free families are two-by-two.
    With ``past_cap``, one of :data:`PAST_CAP_SHAPES`, the shape and
    caps are that instead, None-heavy."""
    flat = None
    if past_cap:
        d, m, dhat, mhat = past_cap
    else:
        flat = FAMILIES[draw(st.sampled_from(families))]
        if flat is None:
            d = draw(st.integers(min_value=2, max_value=7))
            m = draw(st.sampled_from([2, 3]))
        else:
            d, m = 2, 2
        dhat = draw(st.sampled_from(dhats))
        mhat = draw(st.sampled_from([None, None, 1, 2]))
    pools, measure_max = flat or (
        [STREAM_POOLS[j % len(STREAM_POOLS)] for j in range(d)],
        3,
    )
    schema = TableSchema(
        tuple(f"d{j}" for j in range(d)), tuple(f"m{i}" for i in range(m))
    )
    kind = draw(st.sampled_from(policies))
    config = DiscoveryConfig(
        max_bound_dims=dhat,
        max_measure_dims=mhat,
        **draw(st.sampled_from(POLICIES[kind])),
    )
    row = rows_of(dict(zip(schema.dimensions, pools)), measure_max, n_measures=m)
    index = st.integers(min_value=0, max_value=max_ops)
    ops = draw(
        st.lists(
            st.one_of(row, row, row, index, st.tuples(index, row)),
            min_size=1,
            max_size=max_ops,
        )
    )
    shard_of = draw(
        st.lists(
            st.integers(min_value=0, max_value=2),
            min_size=(1 << m) - 1,
            max_size=(1 << m) - 1,
        )
    )
    return StreamScenario(schema, config, tuple(ops), tuple(shard_of), draw(row))


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
