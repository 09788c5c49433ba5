"""Shared Hypothesis strategies (ROADMAP item 3: one scenario corpus).

Row dicts for the ``svec ≡ stopdown`` gate files
(``test_columnar.py``, ``test_scoring_equivalence.py``,
``test_retraction.py``) and the op sequences of the columnar store's
differential test.  Import with ``from tests.strategies import …``.
"""

from hypothesis import strategies as st


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


def store_op_sequences(n_dimensions, pool=5, max_ops=24):
    """``(dims of a record pool, ops)`` for driving a µ store.

    Ops name records by pool index (their tid) and constraints by bound
    mask over the record's own values:

    * ``("insert" | "delete", tid, mask, subspace)`` — the scalar calls;
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
