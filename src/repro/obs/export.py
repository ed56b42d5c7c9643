"""Trace exporters and loader: JSONL and Chrome/Perfetto ``trace_event`` JSON.

Two on-disk shapes for the same trace:

*JSONL* -- line 1 is the run's metadata record (``type: "meta"``:
run-id, config fingerprint, energy attribution, measurement summary);
every following line is one span/instant record.  The machine-friendly
form ``python -m repro obs report`` and the CI schema check consume.

*Chrome trace_event JSON* -- a ``{"traceEvents": [...]}`` document that
loads directly in ``chrome://tracing`` or https://ui.perfetto.dev: one
process (pid 1), one named thread per track (tid 0 = master, nodes
sorted after), ``"X"`` complete events for duration spans, ``"i"``
instants, timestamps in microseconds.  The run metadata rides in the
document's top-level ``"metadata"`` key, so a Perfetto trace is also a
self-describing report input.

Both exporters format straight from the tracer's :class:`SpanTable`
columns: one ``%`` template per span kind and shape, each distinct
name, track and argument string JSON-encoded once, numbers written as
``float.__repr__`` / ``int.__repr__``.  The bytes are exactly what
``json.dumps`` writes for the same records (default separators, ASCII
escapes), and the file is streamed :data:`CHUNK_ROWS` rows at a time,
never held as one string.

:func:`write_trace` picks the format from the file extension
(``.jsonl`` -> JSONL, anything else -> Chrome JSON); :func:`load_trace`
sniffs the content, parses the file once and returns the same
:class:`SpanTable` the tracer records, so the report command accepts
either.  A malformed file raises :class:`TraceFormatError`, naming the
file, the JSONL line or Chrome event, the key and the offending value.
"""

from __future__ import annotations

import gc
import json
from contextlib import contextmanager
from itertools import repeat
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Any, Callable, Iterator

import numpy as np

from repro.obs.metrics import MetricsRegistry
from repro.obs.report import RECONCILE_TOLERANCE, energy_attribution
from repro.obs.tracer import (
    MASTER_TRACK,
    SpanTable,
    SpanTracer,
    TERMINAL_PHASES,
)

TRACE_FORMAT = "repro-obs-trace"
TRACE_VERSION = 1

#: Span rows formatted per file write.
CHUNK_ROWS = 4096


def trace_metadata(tracer: SpanTracer, measurement: Any = None) -> dict:
    """The self-describing meta record embedded in every export."""
    meta: dict = {
        "format": TRACE_FORMAT,
        "version": TRACE_VERSION,
        "horizon_s": tracer.horizon_s,
        "spans": len(tracer.spans),
    }
    meta.update(tracer.metadata)
    if measurement is not None:
        meta["attribution"] = energy_attribution(measurement)
        meta["summary"] = measurement.summary()
    return meta


# -- bulk formatting ---------------------------------------------------------


def _float_texts(values: list) -> list[str]:
    """``float.__repr__`` of each value, ``NaN``/``Infinity`` as json
    spells them."""
    texts = list(map(float.__repr__, values))
    if not np.isfinite(values).all():
        texts = [t if np.isfinite(v) else json.dumps(v)
                 for t, v in zip(texts, values)]
    return texts


class _Floats:
    """JSON text of float64 values for one export, each distinct value
    formatted once.  Times recur across rows and columns (an instant
    ends where it starts, a terminal at its window's end, ``arrival_s``
    at its arrival), so the distinct values of ``seed`` -- never empty:
    it holds the times of the rows being written -- are formatted up
    front; any other value is formatted where it is met."""

    def __init__(self, seed: np.ndarray) -> None:
        self.bits = np.unique(seed.view(np.int64))
        self.texts = np.array(
            _float_texts(self.bits.view(np.float64).tolist()), dtype=object
        )

    def __call__(self, values: np.ndarray) -> list[str]:
        bits = values.view(np.int64)
        pos = np.minimum(np.searchsorted(self.bits, bits), len(self.bits) - 1)
        texts = self.texts[pos]
        miss = self.bits[pos] != bits
        if miss.any():
            new, where = np.unique(bits[miss], return_inverse=True)
            texts[miss] = np.array(
                _float_texts(new.view(np.float64).tolist()), dtype=object
            )[where]
        return texts.tolist()


def _json_texts(values: list, floats: _Floats) -> list[str]:
    """Each value as ``json.dumps`` writes it, one pass per column."""
    types = set(map(type, values))
    if types == {str}:
        text = {s: encode_basestring_ascii(s) for s in dict.fromkeys(values)}
        return list(map(text.__getitem__, values))
    if types == {float}:
        return floats(np.array(values, dtype=np.float64))
    if types == {int}:
        return list(map(int.__repr__, values))
    return list(map(json.dumps, values))


def _literal(text: str) -> str:
    """``text`` as a JSON string, escaped for a ``%`` template."""
    return encode_basestring_ascii(text).replace("%", "%%")


#: ``(kind code, is instant, row indices) -> (template, columns)``
Layout = Callable[[int, bool, np.ndarray], tuple[str, list]]


def _format_rows(table: SpanTable, lo: int, hi: int, instant: np.ndarray,
                 layout: Layout) -> list[str]:
    """Rows ``lo:hi`` as text, in row order: each kind x shape group
    is one ``template % row`` pass over its columns."""
    out = [""] * (hi - lo)
    kind = np.asarray(table.kind[lo:hi], dtype=np.intp)
    for code in np.unique(kind).tolist():
        of_kind = kind == code
        for flag in (True, False):
            local = np.flatnonzero(of_kind & (instant[lo:hi] == flag))
            if not len(local):
                continue
            template, columns = layout(code, flag, local + lo)
            for i, text in zip(local.tolist(),
                               map(template.__mod__, zip(*columns))):
                out[i] = text
    return out


def _arg_columns(table: SpanTable, rows: np.ndarray,
                 floats: _Floats) -> list[list[str]]:
    values = list(map(table.args.__getitem__, rows.tolist()))
    return [_json_texts(list(column), floats) for column in zip(*values)]


def _times(table: SpanTable) -> tuple[np.ndarray, np.ndarray]:
    return (np.asarray(table.start, dtype=np.float64),
            np.asarray(table.end, dtype=np.float64))


def export_jsonl(path: str, tracer: SpanTracer,
                 measurement: Any = None) -> dict:
    """Write the trace as JSONL; returns the meta record."""
    meta = trace_metadata(tracer, measurement)
    table = tracer.spans
    start, end = _times(table)
    parent = np.asarray(table.parent, dtype=np.int64)
    track_text = np.array(
        [encode_basestring_ascii(t) for t in table.tracks], dtype=object
    )
    track = np.asarray(table.track, dtype=np.intp)
    floats = _Floats(np.concatenate([start, end]))

    def layout(code: int, instant: bool,
               rows: np.ndarray) -> tuple[str, list]:
        name, keys = table.kinds[code]
        template = (
            f'{{"type": "{"instant" if instant else "span"}", "id": %s, '
            f'"parent": %s, "name": {_literal(name)}, "track": %s, '
            '"start_s": %s, "end_s": %s, "args": {'
            + ", ".join(f"{_literal(k)}: %s" for k in keys) + "}}\n"
        )
        rows_list = rows.tolist()
        return template, [
            (rows + 1).tolist(),
            [str(p) if p else "null" for p in parent[rows].tolist()],
            track_text[track[rows]].tolist(),
            _json_texts(list(map(table.start.__getitem__, rows_list)),
                        floats),
            _json_texts(list(map(table.end.__getitem__, rows_list)),
                        floats),
            *_arg_columns(table, rows, floats),
        ]

    instant = start == end
    with open(path, "w") as handle:
        handle.write(json.dumps({"type": "meta", **meta}) + "\n")
        for lo in range(0, len(table), CHUNK_ROWS):
            hi = min(lo + CHUNK_ROWS, len(table))
            handle.write("".join(
                _format_rows(table, lo, hi, instant, layout)
            ))
    return meta


def export_chrome(path: str, tracer: SpanTracer,
                  measurement: Any = None) -> dict:
    """Write the trace as Chrome/Perfetto ``trace_event`` JSON."""
    meta = trace_metadata(tracer, measurement)
    table = tracer.spans
    tids = {track: tid for tid, track in enumerate(tracer.tracks)}
    header: list[dict] = [{
        "ph": "M", "pid": 1, "tid": 0, "name": "process_name",
        "args": {"name": f"repro cluster {meta.get('run_id', '')}"},
    }]
    for track, tid in tids.items():
        header.append({
            "ph": "M", "pid": 1, "tid": tid, "name": "thread_name",
            "args": {"name": track},
        })
        header.append({
            "ph": "M", "pid": 1, "tid": tid, "name": "thread_sort_index",
            "args": {"sort_index": tid},
        })
    start, end = _times(table)
    ts, dur = start * 1e6, (end - start) * 1e6
    parent = np.asarray(table.parent, dtype=np.int64)
    tid_text = np.array([str(tids[t]) for t in table.tracks], dtype=object)
    track = np.asarray(table.track, dtype=np.intp)
    floats = _Floats(ts)

    def layout(code: int, instant: bool,
               rows: np.ndarray) -> tuple[str, list]:
        name, keys = table.kinds[code]
        template = (
            ('{"ph": "i", "s": "t", ' if instant
             else '{"ph": "X", "dur": %s, ')
            + f'"pid": 1, "tid": %s, "name": {_literal(name)}, '
            '"cat": "cluster", "ts": %s, "args": {'
            + "".join(f"{_literal(k)}: %s, " for k in keys)
            + '"id": %s%s}}'
        )
        columns = [] if instant else [floats(dur[rows])]
        return template, columns + [
            tid_text[track[rows]].tolist(),
            floats(ts[rows]),
            *_arg_columns(table, rows, floats),
            (rows + 1).tolist(),
            [f', "parent": {p}' if p else ""
             for p in parent[rows].tolist()],
        ]

    instant = start == end
    with open(path, "w") as handle:
        handle.write('{"traceEvents": [')
        handle.write(", ".join(map(json.dumps, header)))
        for lo in range(0, len(table), CHUNK_ROWS):
            hi = min(lo + CHUNK_ROWS, len(table))
            handle.write(", ")
            handle.write(", ".join(
                _format_rows(table, lo, hi, instant, layout)
            ))
        handle.write('], "displayTimeUnit": "ms", "metadata": ')
        handle.write(json.dumps(meta) + "}")
    return meta


def write_trace(path: str, tracer: SpanTracer,
                measurement: Any = None) -> dict:
    """Export in the format the extension implies (.jsonl or Chrome)."""
    if path.endswith(".jsonl"):
        return export_jsonl(path, tracer, measurement)
    return export_chrome(path, tracer, measurement)


def write_metrics(path: str, registry: MetricsRegistry) -> dict:
    doc = registry.to_dict()
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=2)
    return doc


# -- loading ---------------------------------------------------------------


class _Missing:
    def __repr__(self) -> str:
        return "<missing>"


_MISSING: Any = _Missing()


class TraceFormatError(ValueError):
    """A trace file the loader cannot read, named down to the value.

    ``where`` is ``"line N"`` of a JSONL file, ``"event N"`` (index into
    ``traceEvents``) of a Chrome document, or ``"document"``; ``key`` is
    ``None`` when the whole record is wrong; ``value`` is what was found
    (``<missing>`` for an absent key) and ``expected`` what is allowed.
    """

    def __init__(self, path: str, where: str, key: str | None,
                 value: Any, expected: str) -> None:
        self.path, self.where, self.key = path, where, key
        self.value, self.expected = value, expected
        if value is _MISSING:
            problem = f"missing {key!r} ({expected})"
        else:
            shown = repr(value)
            if len(shown) > 60:
                shown = shown[:57] + "..."
            what = "expected" if key is None else f"{key!r} must be"
            problem = f"{what} {expected}, got {shown}"
        super().__init__(f"{path}: {where}: {problem}")


_NUMBER = {int, float}


def _require(path: str, where: Callable[[int], str], key: str | None,
             values: list, types: set, expected: str) -> None:
    """Raise for the first value whose exact type is not in ``types``."""
    if set(map(type, values)) <= types:
        return
    j = next(j for j, v in enumerate(values) if type(v) not in types)
    raise TraceFormatError(path, where(j), key, values[j], expected)


def _column(path: str, where: Callable[[int], str], records: list,
            key: str, types: set, expected: str) -> list:
    """``record[key]`` of every record, each of an exact type in
    ``types``; one C-level pass unless something is wrong."""
    try:
        values = list(map(itemgetter(key), records))
    except KeyError:
        j = next(j for j, record in enumerate(records) if key not in record)
        raise TraceFormatError(path, where(j), key, _MISSING,
                               expected) from None
    _require(path, where, key, values, types, expected)
    return values


def _parents(path: str, where: Callable[[int], str],
             records: list) -> list:
    parents = [record.get("parent") for record in records]
    _require(path, where, "parent", parents, {int, type(None)},
             "a span id or null")
    return parents


def _span_table(path: str, where: Callable[[int], str], names: list,
                tracks: list, start: list, end: list, ids: list,
                parents: list, args: list, skip: tuple = ()) -> SpanTable:
    """Type-checked columns read from a file as a :class:`SpanTable`;
    argument keys in ``skip`` (Chrome's ``id``/``parent``) are dropped."""
    if ids != list(range(1, len(ids) + 1)):
        j = next(j for j, span_id in enumerate(ids) if span_id != j + 1)
        raise TraceFormatError(
            path, where(j), "id", ids[j],
            f"{j + 1} (span ids run 1, 2, ... in file order)",
        )
    linked = [p or 0 for p in parents]
    if 0 in parents or min(linked, default=0) < 0 \
            or max(linked, default=0) >= 2**63:
        j = next(j for j, p in enumerate(parents)
                 if p is not None and not 1 <= p < 2**63)
        raise TraceFormatError(path, where(j), "parent", parents[j],
                               "a span id (>= 1) or null")
    table = SpanTable()
    table.parent = linked
    track_codes = {t: table.track_code(t) for t in dict.fromkeys(tracks)}
    table.track = list(map(track_codes.__getitem__, tracks))
    table.start, table.end = start, end
    #: (name, *keys as read) -> (kind code, picker of the kept values)
    specs: dict[tuple, tuple[int, Callable[[dict], tuple]]] = {}
    kind, rows = table.kind.append, table.args.append
    for name, arg in zip(names, args):
        spec = specs.get((name, *arg))
        if spec is None:
            kept = tuple(k for k in arg if k not in skip)
            spec = specs[(name, *arg)] = (
                table.kind_code(name, kept), _picker(kept)
            )
        kind(spec[0])
        rows(spec[1](arg))
    return table


def _picker(keys: tuple[str, ...]) -> Callable[[dict], tuple]:
    """The values of ``keys`` from an args dict, as a tuple."""
    if len(keys) > 1:
        return itemgetter(*keys)
    if keys:
        key = keys[0]
        return lambda arg: (arg[key],)
    return lambda arg: ()


def _load_jsonl(path: str, head: dict, lines: list[str],
                first: int) -> tuple[dict, SpanTable]:
    """Span records from JSONL ``lines`` (file line ``first`` on)."""
    numbers: list[int] = []
    records: list = []
    for number, line in enumerate(lines, first):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise TraceFormatError(
                path, f"line {number}", None, line,
                f"a JSON record ({exc.msg} at column {exc.colno})",
            ) from None
        numbers.append(number)

    def where(j: int) -> str:
        return f"line {numbers[j]}"

    _require(path, where, None, records, {dict}, "a span object")
    meta = {k: v for k, v in head.items() if k != "type"}
    return meta, _span_table(
        path, where,
        _column(path, where, records, "name", {str}, "a string"),
        _column(path, where, records, "track", {str}, "a string"),
        _column(path, where, records, "start_s", _NUMBER, "a number"),
        _column(path, where, records, "end_s", _NUMBER, "a number"),
        _column(path, where, records, "id", {int}, "an integer span id"),
        _parents(path, where, records),
        _column(path, where, records, "args", {dict}, "an object"),
    )


def _load_chrome(path: str, doc: dict) -> tuple[dict, SpanTable]:
    meta = doc.get("metadata", {})
    if not isinstance(meta, dict):
        raise TraceFormatError(path, "document", "metadata", meta,
                               "an object")
    events = doc["traceEvents"]
    if not isinstance(events, list):
        raise TraceFormatError(path, "document", "traceEvents", events,
                               "a list of events")
    at_event = "event {}".format
    _require(path, at_event, None, events, {dict}, "an object")
    phases = _column(path, at_event, events, "ph", {str}, "a phase string")
    thread_names: dict = {}
    for i in [i for i, ph in enumerate(phases) if ph == "M"]:
        event = events[i]
        if event.get("name") != "thread_name":
            continue
        args, tid = event.get("args"), event.get("tid", 0)
        if not isinstance(args, dict) or not isinstance(
                args.get("name"), str):
            raise TraceFormatError(path, at_event(i), "args", args,
                                   "an object with a string 'name'")
        _require(path, lambda _: at_event(i), "tid", [tid], {int},
                 "an integer")
        thread_names[tid] = args["name"]
    rows = [i for i, ph in enumerate(phases) if ph == "X" or ph == "i"]
    spans = list(map(events.__getitem__, rows))

    def where(j: int) -> str:
        return at_event(rows[j])

    ts = _column(path, where, spans, "ts", _NUMBER, "a number")
    complete = [j for j, i in enumerate(rows) if phases[i] == "X"]
    dur = _column(path, lambda k: where(complete[k]),
                  list(map(spans.__getitem__, complete)), "dur", _NUMBER,
                  "a number")
    tids = _column(path, where, spans, "tid", {int}, "an integer")
    args = _column(path, where, spans, "args", {dict}, "an object")
    start = np.array(ts, dtype=np.float64) / 1e6
    extra = np.zeros(len(spans))
    extra[complete] = np.array(dur, dtype=np.float64) / 1e6
    return meta, _span_table(
        path, where, _column(path, where, spans, "name", {str}, "a string"),
        list(map(thread_names.get, tids, repeat(MASTER_TRACK))),
        start.tolist(), (start + extra).tolist(),
        _column(path, where, args, "id", {int}, "an integer span id"),
        _parents(path, where, args), args, skip=("id", "parent"),
    )


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Cyclic GC off while a trace is parsed into a table: the data is
    acyclic, so collections during the bulk allocation only re-walk it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def load_trace(path: str) -> tuple[dict, SpanTable]:
    """(meta, spans) from either export format, parsed once.

    The first line decides: a ``type: "meta"`` record opens a JSONL
    trace; otherwise the file is one Chrome document (a single line
    as written here, so that first parse is the whole document).
    """
    with open(path) as handle:
        text = handle.read()
    with _collector_paused():
        return _parse_trace(path, text)


def _parse_trace(path: str, text: str) -> tuple[dict, SpanTable]:
    body = text.lstrip()
    if not body:
        raise ValueError(f"{path}: empty trace file")
    first = text.count("\n", 0, len(text) - len(body)) + 1
    newline = body.find("\n")
    try:
        head = json.loads(body if newline < 0 else body[:newline])
    except json.JSONDecodeError:
        head = None
    if isinstance(head, dict) and head.get("type") == "meta":
        lines = body[newline + 1:].split("\n") if newline >= 0 else []
        return _load_jsonl(path, head, lines, first + 1)
    if head is None or (newline >= 0 and body[newline:].strip()):
        try:
            head = json.loads(body)
        except json.JSONDecodeError as exc:
            raise TraceFormatError(
                path, f"line {first + exc.lineno - 1}", None,
                body.split("\n")[exc.lineno - 1],
                f"JSONL or a Chrome trace_event document ({exc.msg} "
                f"at column {exc.colno})",
            ) from None
    if not isinstance(head, dict) or "traceEvents" not in head:
        raise ValueError(
            f"{path}: neither JSONL (meta first line) nor Chrome "
            "trace_event JSON"
        )
    return _load_chrome(path, head)


def validate_trace(meta: dict, spans: SpanTable) -> list[str]:
    """Schema + invariant errors in a trace ([] = valid), computed
    from the table's columns: times ordered, terminals keyed by
    ``sql``/``arrival_s``, every parent id a span in the trace, every
    terminal the child of an arrival and every arrival the parent of
    exactly one terminal."""
    errors: list[str] = []
    if meta.get("format") != TRACE_FORMAT:
        errors.append(f"meta.format != {TRACE_FORMAT!r}")
    for key in ("run_id", "fingerprint", "horizon_s"):
        if key not in meta:
            errors.append(f"meta missing {key!r}")
    n = len(spans)
    start, end = _times(spans)
    errors += [f"span {i}: end_s before start_s"
               for i in np.flatnonzero(end < start).tolist()]
    kind = np.asarray(spans.kind, dtype=np.intp)
    terminal_kinds = spans.kinds_named(TERMINAL_PHASES)
    unkeyed = [
        code for code in terminal_kinds
        if not {"sql", "arrival_s"} <= set(spans.kinds[code][1])
    ]
    errors += [f"span {i}: terminal without sql/arrival_s"
               for i in np.flatnonzero(np.isin(kind, unkeyed)).tolist()]
    parent = np.asarray(spans.parent, dtype=np.int64)
    dangling = parent > n
    errors += [f"span {i}: parent {p} is not a span in the trace"
               for i, p in zip(np.flatnonzero(dangling).tolist(),
                               parent[dangling].tolist())]
    linked = np.where(dangling, 0, parent)
    terminal = np.isin(kind, terminal_kinds)
    arrivals = np.flatnonzero(np.isin(kind, spans.kinds_named(["arrival"])))
    is_arrival = np.zeros(n + 1, dtype=bool)
    is_arrival[arrivals + 1] = True
    errors += [f"span {i}: terminal not linked to an arrival"
               for i in np.flatnonzero(
                   terminal & ~is_arrival[linked]).tolist()]
    children = np.bincount(linked[terminal], minlength=n + 1)[arrivals + 1]
    errors += [f"span {i}: arrival with {c} terminals, not 1"
               for i, c in zip(arrivals[children != 1].tolist(),
                               children[children != 1].tolist())]
    attribution = meta.get("attribution")
    if attribution is not None:
        for key in ("nodes", "phase_totals", "modeled_wall_joules",
                    "reconciliation_abs_j"):
            if key not in attribution:
                errors.append(f"attribution missing {key!r}")
        rel = attribution.get("reconciliation_rel")
        if rel is not None and rel > RECONCILE_TOLERANCE:
            errors.append(
                f"energy attribution does not reconcile: rel error "
                f"{rel:.3e} > {RECONCILE_TOLERANCE:.0e}"
            )
    return errors
