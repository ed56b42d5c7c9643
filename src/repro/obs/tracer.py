"""Per-query span tracing for the cluster simulator.

A trace is a flat table of spans on named *tracks* (``master`` for the
coordinator, one track per node), each either a duration span or an
instant, with an explicit parent link back to the query's arrival
record.  One query's life reads as a causal chain:

    arrival -> queue-wait -> dispatch -> [wake] -> [merge] ->
    playback -> served | shed | dead-letter

plus fault events (``crash``, ``recover``, ``retry``, ``wake-failure``)
interleaved on the tracks where they fired.  Exactly one *terminal*
span (:data:`TERMINAL_PHASES`) exists per arrival -- the conservation
invariant the observability tests pin and ``validate_trace`` checks.
A query is named by its arrival's index in the stream: the ``i``-th
arrival recorded is query ``i``, and every span of its life links to
that arrival's span.

Spans live in a :class:`SpanTable`: one row per span, held as columns
(parent id, kind code, track code, start, end, args row), with the span
id equal to the row index + 1.  The exporters format straight from the
columns and the loader reads a file back into the same table.

The default :class:`Tracer` is disabled and does nothing; the simulator
guards every hook behind ``tracer.enabled``, so a run without tracing
pays only dead branch checks.  :class:`SpanTracer` records everything.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from typing import Any, Iterator, overload

import numpy as np

#: Phases that end a query's life.  Every arrival gets exactly one.
TERMINAL_PHASES = ("served", "shed", "dead-letter")

#: Argument keys every terminal span leads with: the arrival it ends.
TERMINAL_KEYS = ("sql", "arrival_s")

#: Track name of the coordinator (arrivals, queueing, dispatch, retry).
MASTER_TRACK = "master"


@dataclass(frozen=True)
class Span:
    """One trace record: a duration span or an instant on a track."""

    span_id: int
    parent_id: int | None
    name: str
    track: str
    start_s: float
    end_s: float
    args: dict = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    @property
    def is_instant(self) -> bool:
        return self.end_s == self.start_s  # repro: noqa[FLOAT-EQ]: instants copy start_s into end_s exactly

    @property
    def is_terminal(self) -> bool:
        return self.name in TERMINAL_PHASES


class SpanTable(Sequence[Span]):
    """Spans as columns, one row per span; span id = row index + 1.

    * ``parent`` -- the parent span id, 0 for none;
    * ``kind`` -- a code into :attr:`kinds`, each ``(name, arg keys)``:
      every span of one kind carries the same argument keys;
    * ``track`` -- a code into :attr:`tracks` (track names); a recorder
      interns a track with its first row, so every interned track but
      the tracer's up-front ``master`` carries a span;
    * ``start`` / ``end`` -- times in seconds, as recorded (an ``int``
      stays an ``int``, so the JSONL export writes it as it was given);
    * ``args`` -- one tuple of argument values per row, in its kind's
      key order.

    As a ``Sequence`` it reads as :class:`Span` records, built on
    access; an empty table equals ``[]``.
    """

    def __init__(self) -> None:
        self.parent: list[int] = []
        self.kind: list[int] = []
        self.track: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.args: list[tuple] = []
        self.kinds: list[tuple[str, tuple[str, ...]]] = []
        self.tracks: list[str] = []
        self._kind_codes: dict[tuple[str, tuple[str, ...]], int] = {}
        self._track_codes: dict[str, int] = {}

    # -- interning --------------------------------------------------------

    def kind_code(self, name: str, keys: tuple[str, ...] = ()) -> int:
        kind = (name, keys)
        code = self._kind_codes.get(kind)
        if code is None:
            code = self._kind_codes[kind] = len(self.kinds)
            self.kinds.append(kind)
        return code

    def track_code(self, track: str) -> int:
        code = self._track_codes.get(track)
        if code is None:
            code = self._track_codes[track] = len(self.tracks)
            self.tracks.append(track)
        return code

    def append(self, parent: int, kind: int, track: int, start: float,
               end: float, args: tuple) -> int:
        """Add one row; returns its span id."""
        self.parent.append(parent)
        self.kind.append(kind)
        self.track.append(track)
        self.start.append(start)
        self.end.append(end)
        self.args.append(args)
        return len(self.kind)

    # -- column views -----------------------------------------------------

    def kinds_named(self, names: Iterable[str]) -> list[int]:
        """Kind codes whose span name is one of ``names``."""
        wanted = set(names)
        return [
            code for code, (name, _) in enumerate(self.kinds)
            if name in wanted
        ]

    # -- the Sequence[Span] view ------------------------------------------

    def __len__(self) -> int:
        return len(self.kind)

    @overload
    def __getitem__(self, index: int) -> Span: ...

    @overload
    def __getitem__(self, index: slice) -> list[Span]: ...

    def __getitem__(self, index: int | slice) -> Span | list[Span]:
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        if index < 0:
            index += len(self)
        name, keys = self.kinds[self.kind[index]]
        return Span(
            span_id=index + 1,
            parent_id=self.parent[index] or None,
            name=name,
            track=self.tracks[self.track[index]],
            start_s=self.start[index],
            end_s=self.end[index],
            args=dict(zip(keys, self.args[index])),
        )

    def __iter__(self) -> Iterator[Span]:
        return map(self.__getitem__, range(len(self)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, str):
            return NotImplemented
        return len(self) == len(other) and all(
            a == b for a, b in zip(self, other)
        )

    __hash__ = None  # type: ignore[assignment]


class Tracer:
    """No-op base tracer: the zero-cost default.

    Every simulator hook checks :attr:`enabled` before calling any
    method, so these bodies exist only as a safety net (a direct call
    on a disabled tracer must still be harmless).
    """

    enabled = False

    def begin_run(self, metadata: dict) -> None:
        pass

    def arrival(self, sql: str, t_s: float) -> int:
        return 0

    def arrival_span(self, query: int) -> int:
        return 0

    def instant(self, name: str, track: str, t_s: float,
                parent: int | None = None, **args: Any) -> int:
        return 0

    def span(self, name: str, track: str, start_s: float, end_s: float,
             parent: int | None = None, **args: Any) -> int:
        return 0

    def dispatch(self, partition: str, batch: Any) -> None:
        pass

    def terminal(self, name: str, query: int, t_s: float,
                 track: str = MASTER_TRACK, **args: Any) -> int:
        return 0

    def node_log(self, track: str, failed_wakes: Sequence[float],
                 wake_log: Sequence[tuple[float, float]],
                 sleeps: Sequence[tuple[float, float]],
                 scheduled: Sequence[Any]) -> None:
        pass

    def finish(self, horizon_s: float) -> None:
        pass


#: Shared disabled tracer (stateless, safe to share across simulators).
NULL_TRACER = Tracer()


class SpanTracer(Tracer):
    """Recording tracer: collects spans into a :class:`SpanTable`.

    Reusable across runs -- :meth:`begin_run` resets all state, so one
    tracer handed to a simulator always holds the *latest* run's trace.
    """

    enabled = True

    def __init__(self) -> None:
        self.begin_run({})

    def begin_run(self, metadata: dict) -> None:
        self.metadata: dict = dict(metadata)
        self.spans = SpanTable()
        self.horizon_s: float = 0.0
        self._arrival_kind = self.spans.kind_code("arrival", ("sql",))
        self._master = self.spans.track_code(MASTER_TRACK)
        #: The arrival span id of each query, by its stream index.
        self._arrivals: list[int] = []

    # -- recording --------------------------------------------------------

    def _record(self, name: str, track: str, start_s: float,
                end_s: float, parent: int | None, args: dict) -> int:
        table = self.spans
        return table.append(
            parent or 0, table.kind_code(name, tuple(args)),
            table.track_code(track), start_s, end_s, tuple(args.values()),
        )

    def instant(self, name: str, track: str, t_s: float,
                parent: int | None = None, **args: Any) -> int:
        return self._record(name, track, t_s, t_s, parent, args)

    def span(self, name: str, track: str, start_s: float, end_s: float,
             parent: int | None = None, **args: Any) -> int:
        return self._record(name, track, start_s, end_s, parent, args)

    def arrival(self, sql: str, t_s: float) -> int:
        span_id = self.spans.append(
            0, self._arrival_kind, self._master, t_s, t_s, (sql,)
        )
        self._arrivals.append(span_id)
        return span_id

    def arrival_span(self, query: int) -> int:
        """The span id of query ``query``'s arrival."""
        return self._arrivals[query]

    def dispatch(self, partition: str, batch: Any) -> None:
        """One batch leaving an admission queue: a dispatch instant on
        the master track plus a queue-wait span per member query, under
        the member's arrival (``query_id``, its stream index)."""
        dispatch_id = self.instant(
            "dispatch", MASTER_TRACK, batch.dispatch_s,
            partition=partition, size=batch.size,
        )
        for q in batch.queries:
            if batch.dispatch_s - q.arrival_s > 1e-12:
                self.span(
                    "queue-wait", MASTER_TRACK, q.arrival_s,
                    batch.dispatch_s, parent=self._arrivals[q.query_id],
                    sql=q.sql, partition=partition,
                    dispatch=dispatch_id,
                )

    def _terminal_kind(self, name: str, keys: tuple[str, ...]) -> int:
        """Kind code of terminal ``name`` with ``keys`` after
        :data:`TERMINAL_KEYS`."""
        if name not in TERMINAL_PHASES:
            raise ValueError(f"{name!r} is not a terminal phase")
        return self.spans.kind_code(name, TERMINAL_KEYS + keys)

    def terminal(self, name: str, query: int, t_s: float,
                 track: str = MASTER_TRACK, **args: Any) -> int:
        """Query ``query``'s terminal, under its arrival, leading with
        the arrival row's ``sql`` and time as :data:`TERMINAL_KEYS`."""
        table = self.spans
        kind = self._terminal_kind(name, tuple(args))
        row = self._arrivals[query] - 1
        return table.append(
            row + 1, kind, table.track_code(track), t_s, t_s,
            (table.args[row][0], table.start[row], *args.values()),
        )

    def node_log(self, track: str, failed_wakes: Sequence[float],
                 wake_log: Sequence[tuple[float, float]],
                 sleeps: Sequence[tuple[float, float]],
                 scheduled: Sequence[Any]) -> None:
        """One node's timeline, recorded after the event loop: its
        failed wakes, wakes and sleeps, then each busy window as a
        ``playback`` span followed by a ``served`` terminal per query
        it answered (``scheduled`` items carry ``start_s``, ``end_s``,
        ``stretch_s`` and ``queries``, a tuple of stream indices).
        A node that logged nothing records nothing, not even its track.

        The same rows :meth:`span` and :meth:`terminal` would record,
        appended in one pass without a keyword-argument call per row
        (docs/ARCHITECTURE.md, "Observability layer", has the cost)."""
        if not (failed_wakes or wake_log or sleeps or scheduled):
            return
        table = self.spans
        append = table.append
        code = table.track_code(track)
        failed = table.kind_code("wake-failure")
        for t in failed_wakes:
            append(0, failed, code, t, t, ())
        wake = table.kind_code("wake")
        for called, ready in wake_log:
            append(0, wake, code, called, ready, ())
        sleep = table.kind_code("sleep")
        for start, end in sleeps:
            append(0, sleep, code, start, end, ())
        playback = table.kind_code("playback", ("queries", "stretch_s"))
        served = self._terminal_kind("served", ("window",))
        arrivals, args, start = self._arrivals, table.args, table.start
        for work in scheduled:
            end_s = work.end_s
            window = append(0, playback, code, work.start_s, end_s,
                            (len(work.queries), work.stretch_s))
            for query in work.queries:
                row = arrivals[query] - 1
                append(row + 1, served, code, end_s, end_s,
                       (args[row][0], start[row], window))

    def finish(self, horizon_s: float) -> None:
        self.horizon_s = horizon_s

    # -- views ------------------------------------------------------------

    @property
    def tracks(self) -> list[str]:
        """Track names in stable order: master first, then by name
        every other track that carries a span."""
        names = set(self.spans.tracks)
        names.discard(MASTER_TRACK)
        return [MASTER_TRACK] + sorted(names)

    def terminal_spans(self) -> list[Span]:
        table = self.spans
        terminal = np.isin(np.asarray(table.kind, dtype=np.intp),
                           table.kinds_named(TERMINAL_PHASES))
        return [table[i] for i in np.flatnonzero(terminal).tolist()]
