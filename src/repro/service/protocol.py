"""The JSON-lines wire protocol shared by server and client.

One request per line, one response per line, UTF-8 JSON objects.  A
request is ``{"op": <name>, ...fields}``; a response is always
``{"ok": true, ...}`` or ``{"ok": false, "error": <message>}`` — the
connection survives bad requests, so a client can keep a socket open
for a whole sweep.

This module owns the payload translation both ends must agree on:
:class:`~repro.engine.config.EnumerationConfig` to/from a flat dict,
and :class:`~repro.service.jobs.JobSpec` from a ``submit`` payload
(path-referenced or inline graph).
"""

from __future__ import annotations

import dataclasses
import json

from repro.errors import ParameterError
from repro.core.bitset import n_words
from repro.core.graph import Graph
from repro.engine.config import EnumerationConfig
from repro.service.jobs import JobSpec

__all__ = [
    "MAX_REQUEST_BYTES",
    "config_to_payload",
    "config_from_payload",
    "spec_to_payload",
    "spec_from_payload",
    "encode_line",
    "decode_line",
]

#: longest request line the server reads, newline included, and the
#: largest adjacency an inline graph may ask for.  An inline
#: genome-scale graph is ~80 KB on the wire and a 19 MB adjacency
#: (n = 12,422), so this leaves room for graphs far larger while
#: bounding what one request can make the server buffer or allocate.
MAX_REQUEST_BYTES = 64 << 20

#: EnumerationConfig fields carried flat in submit payloads.
_CONFIG_FIELDS = tuple(
    f.name for f in dataclasses.fields(EnumerationConfig)
)


def config_to_payload(config: EnumerationConfig) -> dict:
    """Flatten a config to JSON-safe fields (defaults omitted)."""
    defaults = EnumerationConfig()
    out = {}
    for name in _CONFIG_FIELDS:
        value = getattr(config, name)
        if value != getattr(defaults, name):
            out[name] = value
    return out


def config_from_payload(payload: dict) -> EnumerationConfig:
    """Rebuild a validated config from submit-payload fields."""
    kwargs = {k: payload[k] for k in _CONFIG_FIELDS if k in payload}
    return EnumerationConfig(**kwargs)


def spec_to_payload(spec: JobSpec) -> dict:
    """Serialize a JobSpec for a ``submit`` request.

    In-memory graphs travel inline as ``{"n":..., "edges":[...]}``;
    path references travel as the path string (the server loads them,
    so path submissions only work when client and server share a
    filesystem — which a unix-socket deployment does by construction).
    """
    out = dict(config_to_payload(spec.config))
    if isinstance(spec.graph, Graph):
        out["graph_inline"] = {
            "n": spec.graph.n,
            "edges": [[u, v] for u, v in spec.graph.edges()],
        }
    else:
        out["graph"] = str(spec.graph)
    out["sink"] = spec.sink
    out["priority"] = spec.priority
    out["use_cache"] = spec.use_cache
    out["label"] = spec.label
    return out


#: every field a submit request may carry besides the op itself.
_SUBMIT_FIELDS = frozenset(_CONFIG_FIELDS) | {
    "op",
    "graph",
    "graph_inline",
    "sink",
    "priority",
    "use_cache",
    "label",
}


def spec_from_payload(payload: dict) -> JobSpec:
    """Parse and validate a ``submit`` payload into a JobSpec.

    Unknown fields are rejected rather than ignored — a misspelled
    config key (``kmin``) silently running the job with defaults would
    return wrong results with status ``done``, violating the repo's
    fail-before-work contract.
    """
    unknown = set(payload) - _SUBMIT_FIELDS
    if unknown:
        raise ParameterError(
            f"unknown submit field(s) {', '.join(sorted(unknown))}; "
            f"known: {', '.join(sorted(_SUBMIT_FIELDS - {'op'}))}"
        )
    if "graph_inline" in payload:
        graph = _inline_graph(payload["graph_inline"])
    elif "graph" in payload:
        graph = payload["graph"]
    else:
        raise ParameterError("submit needs 'graph' (path) or 'graph_inline'")
    return JobSpec(
        graph=graph,
        config=config_from_payload(payload),
        sink=payload.get("sink", "collect"),
        priority=payload.get("priority", 0),
        use_cache=payload.get("use_cache", True),
        label=payload.get("label", ""),
    )


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _inline_graph(inline: object) -> Graph:
    """The graph of a ``graph_inline`` payload; any other shape raises.

    A few bytes of ``n`` ask for an ``n * ceil(n / 64)``-word adjacency,
    so one larger than :data:`MAX_REQUEST_BYTES` is refused before it
    is allocated (``n <= 23,168``).
    """
    if isinstance(inline, dict):
        n, edges = inline.get("n"), inline.get("edges", [])
        if _is_int(n) and n >= 0 and isinstance(edges, list) and all(
            isinstance(e, list) and len(e) == 2 and all(map(_is_int, e))
            for e in edges
        ):
            adj_bytes = n * n_words(n) * 8
            if adj_bytes > MAX_REQUEST_BYTES:
                raise ParameterError(
                    f"graph_inline n={n} needs a {adj_bytes}-byte "
                    f"adjacency, over the {MAX_REQUEST_BYTES}-byte bound"
                )
            return Graph.from_edges(n, edges)
    raise ParameterError(
        "graph_inline must be {'n': int, 'edges': [[u, v], ...]}"
    )


def encode_line(message: dict) -> bytes:
    """One protocol line: compact JSON plus the newline terminator."""
    return json.dumps(message, separators=(",", ":")).encode() + b"\n"


def decode_line(line: bytes | str) -> dict:
    """Parse one protocol line into a dict; raises on malformed input."""
    try:
        message = json.loads(line)
    except ValueError as exc:  # bad JSON, or bytes that are not UTF-8
        raise ParameterError(f"malformed protocol line: {exc}") from None
    if not isinstance(message, dict):
        raise ParameterError("protocol messages must be JSON objects")
    return message
