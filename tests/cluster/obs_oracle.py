"""Reference trace exporters, loader and span statistics: the oracle.

The original per-dict forms of ``repro.obs.export``,
``repro.obs.report.span_stats`` and ``SpanTracer.tracks`` (the tracks
read off the spans themselves), kept only as the byte-identity and
same-text oracle for the columnar paths in ``src/``: each span becomes
a dict handed to stdlib ``json``, and a loaded trace is a list of span
dicts.  Nothing in ``src/`` imports this module.
"""

from __future__ import annotations

import json

from repro.obs.export import trace_metadata
from repro.obs.tracer import MASTER_TRACK


def span_dict(span) -> dict:
    return {
        "type": "instant" if span.is_instant else "span",
        "id": span.span_id,
        "parent": span.parent_id,
        "name": span.name,
        "track": span.track,
        "start_s": span.start_s,
        "end_s": span.end_s,
        "args": span.args,
    }


def export_jsonl(path: str, tracer, measurement=None) -> dict:
    meta = trace_metadata(tracer, measurement)
    with open(path, "w") as handle:
        handle.write(json.dumps({"type": "meta", **meta}) + "\n")
        for span in tracer.spans:
            handle.write(json.dumps(span_dict(span)) + "\n")
    return meta


def tracks(spans) -> list[str]:
    """Master first, then every other track that carries a span."""
    names = {span.track for span in spans}
    names.discard(MASTER_TRACK)
    return [MASTER_TRACK] + sorted(names)


def export_chrome(path: str, tracer, measurement=None) -> dict:
    meta = trace_metadata(tracer, measurement)
    tids = {track: tid for tid, track in enumerate(tracks(tracer.spans))}
    events: list[dict] = [{
        "ph": "M", "pid": 1, "tid": 0, "name": "process_name",
        "args": {"name": f"repro cluster {meta.get('run_id', '')}"},
    }]
    for track, tid in tids.items():
        events.append({
            "ph": "M", "pid": 1, "tid": tid, "name": "thread_name",
            "args": {"name": track},
        })
        events.append({
            "ph": "M", "pid": 1, "tid": tid, "name": "thread_sort_index",
            "args": {"sort_index": tid},
        })
    for span in tracer.spans:
        args = dict(span.args, id=span.span_id)
        if span.parent_id is not None:
            args["parent"] = span.parent_id
        common = {
            "pid": 1,
            "tid": tids[span.track],
            "name": span.name,
            "cat": "cluster",
            "ts": span.start_s * 1e6,
            "args": args,
        }
        if span.is_instant:
            events.append({"ph": "i", "s": "t", **common})
        else:
            events.append({
                "ph": "X", "dur": span.duration_s * 1e6, **common,
            })
    doc = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "metadata": meta,
    }
    with open(path, "w") as handle:
        json.dump(doc, handle)
    return meta


def _load_chrome(doc: dict) -> tuple[dict, list[dict]]:
    meta = doc.get("metadata", {})
    names: dict[int, str] = {}
    for event in doc.get("traceEvents", []):
        if event.get("ph") == "M" and event.get("name") == "thread_name":
            names[event.get("tid", 0)] = event["args"]["name"]
    spans: list[dict] = []
    for event in doc.get("traceEvents", []):
        ph = event.get("ph")
        if ph not in ("X", "i"):
            continue
        start = event.get("ts", 0.0) / 1e6
        end = start + (event.get("dur", 0.0) / 1e6 if ph == "X" else 0.0)
        args = dict(event.get("args", {}))
        spans.append({
            "type": "instant" if ph == "i" else "span",
            "id": args.pop("id", None),
            "parent": args.pop("parent", None),
            "name": event.get("name", ""),
            "track": names.get(event.get("tid", 0), MASTER_TRACK),
            "start_s": start,
            "end_s": end,
            "args": args,
        })
    return meta, spans


def load_trace(path: str) -> tuple[dict, list[dict]]:
    with open(path) as handle:
        text = handle.read()
    stripped = text.lstrip()
    first_line = stripped.splitlines()[0]
    try:
        head = json.loads(first_line)
    except json.JSONDecodeError:
        head = None
    if isinstance(head, dict) and head.get("type") == "meta":
        meta = {k: v for k, v in head.items() if k != "type"}
        spans = [
            json.loads(line)
            for line in stripped.splitlines()[1:] if line.strip()
        ]
        return meta, spans
    return _load_chrome(json.loads(text))


def span_stats(spans: list[dict]) -> dict:
    stats: dict[str, dict] = {}
    for span in spans:
        entry = stats.setdefault(
            span["name"], {"count": 0, "total_s": 0.0}
        )
        entry["count"] += 1
        entry["total_s"] += span["end_s"] - span["start_s"]
    return dict(sorted(stats.items()))
