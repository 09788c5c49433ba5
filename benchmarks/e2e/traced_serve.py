"""``python -m repro.cli serve`` with timing proxies around every layer.

    python traced_serve.py TRACE_OUT serve --spec … history.csv --port 0 …

Runs ``repro.cli.main`` itself — banners, CSV preload and shutdown are
exactly ``cmd_serve``'s — after swapping the constructors it calls
(``StreamServer``, ``FeedGateway``) for subclasses that wrap the engine,
the feed store, the journal writer, ``select_reportable``,
``parse_query`` and ``save_engine`` in span-recording proxies.  Nothing
under ``src/`` knows about it; spans inside the program are ROADMAP
item 2.

A span is ``{id, name, start, end, parent, op, …}`` on
``time.perf_counter`` (system-wide monotonic, so the client's spans join
on ``op``, the request ordinal).  Spans stay in memory and are written
to TRACE_OUT, one JSON object per line, when the server exits.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from contextlib import contextmanager

import repro.cli
import repro.core.facts as facts_mod
import repro.extensions.snapshot as snapshot_mod
import repro.query.parser as parser_mod
import repro.service
import repro.service.gateway as gateway_mod
import repro.service.server as server_mod


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self._local = threading.local()
        #: Id and ordinal of the request-level span currently open.  One
        #: arrival is in flight at a time, so work done for it on the
        #: executor thread is parented here.
        self.request_id = None
        self.request_op = None
        self.requests = 0
        self.meta: dict = {}

    @contextmanager
    def span(self, name: str, request: bool = False, **attrs):
        stack = self._local.__dict__.setdefault("stack", [])
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": stack[-1] if stack else self.request_id,
            "op": self.request_op,
        }
        span.update(attrs)
        self.spans.append(span)
        if request:
            span["op"] = self.requests
            self.requests += 1
            self.request_id, self.request_op = span["id"], span["op"]
        stack.append(span["id"])
        span["start"] = time.perf_counter()
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            stack.pop()
            if request:
                self.request_id = self.request_op = None

    def timed(self, name: str, fn):
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"name": "meta", **self.meta}) + "\n")
            for span in self.spans:
                if "end" in span:
                    fh.write(json.dumps(span) + "\n")


TRACER = Tracer()


class _Delegate:
    """Attribute access falls through to the wrapped object."""

    def __init__(self, inner) -> None:
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def __len__(self) -> int:
        return len(self._inner)


class TracedSchema(_Delegate):
    def project_row(self, row):
        with TRACER.span("schema.gate"):
            return self._inner.project_row(row)


class TracedQueries(_Delegate):
    def skyline(self, constraint, subspace):
        with TRACER.span("query.skyline"):
            return self._inner.skyline(constraint, subspace)


class TracedEngine(_Delegate):
    def __init__(self, inner) -> None:
        super().__init__(inner)
        self.schema = TracedSchema(inner.schema)
        self._utilization = getattr(inner, "utilization", None)

    def facts_for_many(self, rows):
        busy = self._utilization() if self._utilization else None
        with TRACER.span("engine.discover") as span:
            out = self._inner.facts_for_many(rows)
        if busy is not None:
            span["shard_busy"] = [
                after - before for before, after in zip(busy, self._utilization())
            ]
        return out

    def delete(self, tid):
        with TRACER.span("engine.delete"):
            return self._inner.delete(tid)

    def query(self):
        return TracedQueries(self._inner.query())


class TracedStreamServer(server_mod.StreamServer):
    def __init__(self, engine, **kwargs) -> None:
        super().__init__(TracedEngine(engine), **kwargs)
        feeds = self.feeds
        if feeds is not None:
            apply_event = feeds.apply_event

            def fold(record, factset):
                with TRACER.span("feeds.fold") as span:
                    changed = apply_event(record, factset)
                span["changed"] = len(changed)
                return changed

            feeds.apply_event = fold
            feeds.repair = TRACER.timed("feeds.repair", feeds.repair)
            feeds.entries_ranked = TRACER.timed("gateway.rank", feeds.entries_ranked)

    async def start(self) -> None:
        await super().start()
        journal = self.journal
        if journal is not None:
            journal.append_ingest = TRACER.timed("journal.append", journal.append_ingest)
            journal.append_delete = TRACER.timed("journal.append", journal.append_delete)
            journal.commit = TRACER.timed("journal.commit", journal.commit)

    def _counters(self) -> dict:
        return self.engine.counters.snapshot()

    async def ingest_wait(self, row):
        if not TRACER.requests:
            TRACER.meta["counters_before"] = self._counters()
        with TRACER.span("server.ingest_wait", request=True) as span:
            event = await super().ingest_wait(row)
        span["tid"] = event.tid
        return event

    async def delete(self, tid):
        with TRACER.span("server.delete", request=True, tid=tid):
            return await super().delete(tid)

    async def _run_query(self, message):
        with TRACER.span("server.query", request=True):
            return await super()._run_query(message)

    async def stop(self, drain: bool = True) -> None:
        if self._running:
            TRACER.meta["counters_after"] = self._counters()
        await super().stop(drain)


class TracedFeedGateway(gateway_mod.FeedGateway):
    def _render(self, conn, key, resync):
        with TRACER.span("gateway.render", segment=key) as span:
            frame = super()._render(conn, key, resync)
        span["bytes"] = len(frame)
        return frame


class _TimedJson:
    """``server.py``'s view of ``json``: request parsing and reply
    rendering (with ``SituationalFact.to_json_dict``) become spans —
    the handler loop itself cannot be wrapped from outside."""

    def loads(self, *args, **kwargs):
        with TRACER.span("server.parse"):
            return json.loads(*args, **kwargs)

    def dumps(self, *args, **kwargs):
        with TRACER.span("server.render"):
            return json.dumps(*args, **kwargs)


def _traced_save_engine(engine, path, journal_seq=None):
    with TRACER.span("snapshot.save") as span:
        _save_engine(engine, path, journal_seq=journal_seq)
    span["bytes"] = os.path.getsize(path)


_save_engine = snapshot_mod.save_engine


def main(argv) -> int:
    trace_out, cli_args = argv[0], argv[1:]
    # cmd_serve and StreamServer import these names at call time, so
    # rebinding the module attributes is enough.
    repro.service.StreamServer = TracedStreamServer
    gateway_mod.FeedGateway = TracedFeedGateway
    server_mod.select_reportable = TRACER.timed(
        "prominence.select", server_mod.select_reportable
    )
    server_mod.json = _TimedJson()
    facts_mod.SituationalFact.to_json_dict = TRACER.timed(
        "server.render", facts_mod.SituationalFact.to_json_dict
    )
    parser_mod.parse_query = TRACER.timed("query.parse", parser_mod.parse_query)
    snapshot_mod.save_engine = _traced_save_engine
    try:
        return repro.cli.main(cli_args)
    finally:
        TRACER.write(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
