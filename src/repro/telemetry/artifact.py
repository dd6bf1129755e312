"""Deterministic run artifacts: JSON-lines serialization of a run.

One artifact file captures everything one simulated run produced —
config/meta, the full span tree, fault instants, every metric, and
(when the observation plane is armed) windowed rollups plus the
burn-rate alert timeline — as JSON-lines with canonical key ordering,
so two runs with the same seed write **byte-identical** files (the
determinism tests diff the raw bytes). The first line carries
``schema: 2``; v1 artifacts (no rollup/alert/observation rows) load
unchanged — the loader accepts both.

The observation sections are strictly *appended*: an artifact written
with rollups/alerts is the unobserved artifact plus extra trailing
lines, byte-for-byte (a benchmark pins this). Trace sampling
(:mod:`repro.telemetry.sampling`) is the one writer knob that changes
earlier lines: it drops span/instant rows of sampled-out requests and
records the count in the trailing ``observation`` row.

Line kinds::

    {"kind": "meta", "schema": 2, "meta": {...}}           # exactly once, first
    {"kind": "span", "id", "parent", "req", "name", "cat",
     "actor", "phase", "start", "end", "attrs"}            # one per span
    {"kind": "instant", "time", "name", "cat", "actor",
     "req", "attrs"}                                       # one per point event
    {"kind": "counter", "name", "labels", "value"}
    {"kind": "gauge", "name", "labels", "samples"}
    {"kind": "histogram", "name", "labels", "bounds",
     "counts", "sum", "count"}
    {"kind": "observation", ...}                           # at most once: window
                                                           # config + sampling books
    {"kind": "rollup", "scope", "key", "window",
     "start", "end", "stats"}                              # one per rollup window
    {"kind": "alert", "time", "tenant", "state", ...}      # one per alert event
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from math import isfinite
from operator import attrgetter
from typing import Any, Dict, Iterator, List, Optional, Tuple

from .metrics import Histogram
from .rollup import RollupWindow, RunRollups
from .runtime import Telemetry
from .spans import Instant, Span

__all__ = [
    "SCHEMA_VERSION",
    "SUPPORTED_SCHEMAS",
    "RunArtifact",
    "artifact_lines",
    "write_artifact",
    "load_artifact",
    "validate_artifact",
]

SCHEMA_VERSION = 2

#: Schemas :func:`load_artifact` and :func:`validate_artifact` accept.
#: v1 lacks observation/rollup/alert rows but is otherwise identical.
SUPPORTED_SCHEMAS = (1, 2)

_REQUIRED_KEYS = {
    "meta": ("schema", "meta"),
    "span": ("id", "parent", "req", "name", "cat", "actor", "phase",
             "start", "end", "attrs"),
    "instant": ("time", "name", "cat", "actor", "req", "attrs"),
    "counter": ("name", "labels", "value"),
    "gauge": ("name", "labels", "samples"),
    "histogram": ("name", "labels", "bounds", "counts", "sum", "count"),
    "observation": (),
    "rollup": ("scope", "key", "window", "start", "end", "stats"),
    "alert": ("time", "tenant", "state", "window", "fast_burn",
              "slow_burn", "span_s", "cause", "attribution"),
}


#: ``json.dumps(obj, sort_keys=True, separators=(",", ":"))``, with the
#: encoder built once instead of once per row.
_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

#: A span row as :func:`_dumps` spells it: keys in sorted order, each
#: slot filled with the encoder's own spelling of the field.
_SPAN_ROW = (
    '{"actor":%s,"attrs":%s,"cat":%s,"end":%s,"id":%s,"kind":"span",'
    '"name":%s,"parent":%s,"phase":%s,"req":%s,"start":%s}'
)


def _span_row(span: Span) -> str:
    """``span``'s artifact line, byte-equal to :func:`_dumps` of its row.

    Span rows are nearly every line of an artifact. The common shape —
    ``int`` ids, ``str`` names, finite ``float`` times (``np.float64``
    included: it is a ``float``) and a ``dict`` of attributes — fills
    :data:`_SPAN_ROW` with the primitives the C encoder itself uses
    (``encode_basestring_ascii``, ``float.__repr__``, ``int.__repr__``);
    any other row (``None``, ``bool`` or non-finite fields, non-``str``
    names) goes through the encoder, raising what it raises.
    """
    sid, parent, req = span.span_id, span.parent_id, span.request_id
    name, cat, actor, phase = span.name, span.category, span.actor, span.phase
    start, end, attrs = span.start, span.end, span.attrs
    if (
        type(sid) is type(parent) is type(req) is int
        and type(name) is type(cat) is type(actor) is type(phase) is str
        and isinstance(start, float) and isfinite(start)
        and isinstance(end, float) and isfinite(end)
        and type(attrs) is dict
    ):
        return _SPAN_ROW % (
            encode_basestring_ascii(actor), _dumps(attrs) if attrs else "{}",
            encode_basestring_ascii(cat), float.__repr__(end), sid,
            encode_basestring_ascii(name), parent,
            encode_basestring_ascii(phase), req, float.__repr__(start),
        )
    return _dumps({
        "kind": "span", "id": sid, "parent": parent, "req": req,
        "name": name, "cat": cat, "actor": actor, "phase": phase,
        "start": start, "end": end, "attrs": attrs,
    })


def _by_start(spans: List[Span]) -> List[Span]:
    """``spans`` ordered by ``(start, span_id)``: two stable sorts, each
    comparing one key, instead of one sort building and comparing a
    tuple per span."""
    ordered = sorted(spans, key=attrgetter("span_id"))
    ordered.sort(key=attrgetter("start"))
    return ordered


def artifact_lines(
    telemetry: Telemetry,
    meta: Optional[Dict[str, object]] = None,
    rollups: Optional[RunRollups] = None,
    alerts: Optional[List[object]] = None,
    sampling: Optional[object] = None,
) -> Iterator[str]:
    """Yield the artifact's JSON lines (no trailing newlines).

    ``rollups``/``alerts`` append the observation sections;
    ``sampling`` is a resolved
    :class:`~repro.telemetry.sampling.SamplePlan` that filters
    span/instant rows to the kept request set.
    """
    yield _dumps(
        {"kind": "meta", "schema": SCHEMA_VERSION, "meta": dict(meta or {})}
    )
    keeps = sampling.keeps if sampling is not None else (lambda _rid: True)
    for span in _by_start(telemetry.spans):
        if keeps(span.request_id):
            yield _span_row(span)
    for event in telemetry.instants:
        if not keeps(event.request_id):
            continue
        yield _dumps({
            "kind": "instant",
            "time": event.time,
            "name": event.name,
            "cat": event.category,
            "actor": event.actor,
            "req": event.request_id,
            "attrs": event.attrs,
        })
    for counter in telemetry.metrics.counters():
        yield _dumps({
            "kind": "counter",
            "name": counter.name,
            "labels": dict(counter.labels),
            "value": counter.value,
        })
    for gauge in telemetry.metrics.gauges():
        yield _dumps({
            "kind": "gauge",
            "name": gauge.name,
            "labels": dict(gauge.labels),
            "samples": [[t, v] for t, v in zip(gauge.times, gauge.values)],
        })
    for hist in telemetry.metrics.histograms():
        yield _dumps({
            "kind": "histogram",
            "name": hist.name,
            "labels": dict(hist.labels),
            "bounds": list(hist.bounds),
            "counts": list(hist.counts),
            "sum": hist.sum,
            "count": hist.count,
        })
    if rollups is not None or sampling is not None:
        observation: Dict[str, object] = {"kind": "observation"}
        if rollups is not None:
            observation["window_s"] = rollups.window_s
            observation["quantiles"] = list(rollups.quantiles)
            observation["slo_s"] = rollups.slo_s
        if sampling is not None:
            observation["sampling"] = sampling.to_meta()
        yield _dumps(observation)
    if rollups is not None:
        for row in rollups.to_rows():
            yield _dumps(row)
    for alert in alerts or ():
        yield _dumps(alert.to_row())


def write_artifact(
    path: str,
    telemetry: Telemetry,
    meta: Optional[Dict[str, object]] = None,
    rollups: Optional[RunRollups] = None,
    alerts: Optional[List[object]] = None,
    sampling: Optional[object] = None,
) -> str:
    """Serialize one run to ``path``; returns the path."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in artifact_lines(
            telemetry, meta, rollups=rollups, alerts=alerts,
            sampling=sampling,
        ):
            fh.write(line)
            fh.write("\n")
    return path


@dataclass
class RunArtifact:
    """One loaded artifact, reconstructed into model objects."""

    schema: int
    meta: Dict[str, object]
    spans: List[Span] = field(default_factory=list)
    instants: List[Instant] = field(default_factory=list)
    counters: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float] = field(
        default_factory=dict
    )
    gauges: Dict[
        Tuple[str, Tuple[Tuple[str, str], ...]], List[Tuple[float, float]]
    ] = field(default_factory=dict)
    histograms: List[Histogram] = field(default_factory=list)
    #: Observation sections (schema 2; None/empty on v1 artifacts).
    observation: Optional[Dict[str, object]] = None
    rollups: Optional[RunRollups] = None
    alerts: List[object] = field(default_factory=list)

    @property
    def sampling(self) -> Optional[Dict[str, object]]:
        """The writer's sampling books (None = unsampled artifact)."""
        if self.observation is None:
            return None
        return self.observation.get("sampling")  # type: ignore[return-value]

    def counter_value(self, name: str, **labels: str) -> float:
        key = (name, tuple(sorted((k, str(v)) for k, v in labels.items())))
        return self.counters.get(key, 0.0)

    def gauge_samples(
        self, name: str, **labels: str
    ) -> List[Tuple[float, float]]:
        key = (name, tuple(sorted((k, str(v)) for k, v in labels.items())))
        return self.gauges.get(key, [])

    def request_ids(self) -> List[int]:
        """Distinct request ids with spans, ascending (−1 excluded)."""
        seen = {s.request_id for s in self.spans if s.request_id >= 0}
        return sorted(seen)

    def spans_for_request(self, request_id: int) -> List[Span]:
        return [s for s in self.spans if s.request_id == request_id]


def _label_key(labels: Dict[str, str]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


#: ``json.loads``'s own decoder settings, built once; ``raw_decode``
#: parses one value and reports where it stopped.
_raw_decode = json.JSONDecoder().raw_decode

#: What may follow a row on its line: the newline, or nothing at EOF.
_LINE_ENDS = ("\n", "")

#: :func:`_parse_line`'s answer for a blank line (``None`` is a row).
_BLANK = object()


def _parse_line(line: str) -> Any:
    """The JSON value on one artifact line, or :data:`_BLANK`.

    A line as the writer spells it — one value starting at column 0,
    then the newline — is decoded by :data:`_raw_decode` alone. Any
    other line is stripped and handed to ``json.loads``, which returns
    the same value for a well-formed line and raises its exact
    ``JSONDecodeError`` (truncated value, trailing data, a BOM) for a
    malformed one.
    """
    try:
        row, end = _raw_decode(line)
        if line[end:] in _LINE_ENDS:
            return row
    except json.JSONDecodeError:
        pass
    raw = line.strip()
    return json.loads(raw) if raw else _BLANK


def load_artifact(path: str) -> RunArtifact:
    """Parse an artifact file back into a :class:`RunArtifact`.

    Accepts every schema in :data:`SUPPORTED_SCHEMAS` — a v1 artifact
    (pre-observation-plane) loads into the same object with empty
    observation sections, so reports and diffs work across the version
    boundary. The file is read one line at a time; blank lines are
    skipped, and the first non-blank line must be the meta record.
    """
    from .alerts import AlertEvent

    # One object per repeated value, for this load only. A memo never
    # mixes types: ``1``, ``1.0`` and ``True`` are equal keys, and so
    # are ``0.0`` and ``-0.0``, so strings are memoized only as ``str``,
    # ids only as ``int`` and times and values only as ``float`` above
    # zero (no signed zero, no NaN). Plain dicts rather than
    # ``sys.intern``, whose table is the whole process's (and never
    # frees an entry on CPython 3.12), so nothing is kept once the load
    # returns.
    strs: Dict[str, str] = {}
    ids: Dict[int, int] = {}
    reals: Dict[float, float] = {}

    def text(value: Any) -> Any:
        return strs.setdefault(value, value) if type(value) is str else value

    def ident(value: Any) -> Any:
        return ids.setdefault(value, value) if type(value) is int else value

    def real(value: Any) -> Any:
        if type(value) is float and value > 0.0:
            return reals.setdefault(value, value)
        return value

    def bag(attrs: Any) -> Any:
        if type(attrs) is not dict or not attrs:
            return attrs
        return {strs.setdefault(k, k): text(v) for k, v in attrs.items()}

    artifact: Optional[RunArtifact] = None
    rollup_rows: List[RollupWindow] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            row = _parse_line(line)
            if row is _BLANK:
                continue
            kind = row.get("kind")
            if artifact is None:
                if kind != "meta":
                    raise ValueError(
                        f"{path}:{lineno}: first line must be the meta "
                        f"record"
                    )
                artifact = RunArtifact(
                    schema=int(row["schema"]), meta=row["meta"]
                )
                if artifact.schema not in SUPPORTED_SCHEMAS:
                    raise ValueError(
                        f"{path}: unsupported schema {artifact.schema} "
                        f"(supported: {SUPPORTED_SCHEMAS})"
                    )
                continue
            if kind == "span":
                # Most rows are spans: ``ident``, ``text``, ``real`` and
                # ``bag`` inlined, reading the keys in the same order,
                # so a row missing one raises the same ``KeyError``.
                span_id = row["id"]
                parent = row["parent"]
                if type(parent) is int:
                    parent = ids.setdefault(parent, parent)
                req = row["req"]
                if type(req) is int:
                    req = ids.setdefault(req, req)
                name = row["name"]
                if type(name) is str:
                    name = strs.setdefault(name, name)
                cat = row["cat"]
                if type(cat) is str:
                    cat = strs.setdefault(cat, cat)
                actor = row["actor"]
                if type(actor) is str:
                    actor = strs.setdefault(actor, actor)
                phase = row["phase"]
                if type(phase) is str:
                    phase = strs.setdefault(phase, phase)
                start = row["start"]
                if type(start) is float and start > 0.0:
                    start = reals.setdefault(start, start)
                end = row["end"]
                if type(end) is float and end > 0.0:
                    end = reals.setdefault(end, end)
                attrs = row["attrs"]
                if type(attrs) is dict and attrs:
                    attrs = {
                        strs.setdefault(k, k):
                            strs.setdefault(v, v) if type(v) is str else v
                        for k, v in attrs.items()
                    }
                artifact.spans.append(Span(
                    span_id, parent, req, name, cat, actor, phase, start,
                    end, attrs,
                ))
            elif kind == "instant":
                artifact.instants.append(Instant(
                    real(row["time"]), text(row["name"]), text(row["cat"]),
                    text(row["actor"]), ident(row["req"]), bag(row["attrs"]),
                ))
            elif kind == "counter":
                artifact.counters[
                    (row["name"], _label_key(row["labels"]))
                ] = row["value"]
            elif kind == "gauge":
                artifact.gauges[(row["name"], _label_key(row["labels"]))] = [
                    (real(t), real(v)) for t, v in row["samples"]
                ]
            elif kind == "histogram":
                hist = Histogram(
                    row["name"], _label_key(row["labels"]), row["bounds"]
                )
                hist.counts = list(row["counts"])
                hist.sum = row["sum"]
                hist.count = row["count"]
                artifact.histograms.append(hist)
            elif kind == "observation":
                artifact.observation = {
                    k: v for k, v in row.items() if k != "kind"
                }
            elif kind == "rollup":
                rollup_rows.append(RollupWindow.from_row({
                    **row,
                    "scope": text(row["scope"]), "key": text(row["key"]),
                    "start": real(row["start"]), "end": real(row["end"]),
                    "stats": bag(row["stats"]),
                }))
            elif kind == "alert":
                artifact.alerts.append(AlertEvent.from_row(row))
            elif kind == "meta":
                raise ValueError(f"{path}:{lineno}: duplicate meta record")
            else:
                raise ValueError(f"{path}:{lineno}: unknown kind {kind!r}")
    if artifact is None:
        raise ValueError(f"{path}: empty artifact")
    if rollup_rows:
        obs = artifact.observation or {}
        artifact.rollups = RunRollups(
            window_s=float(obs.get("window_s", 0.0) or 0.0),
            quantiles=tuple(obs.get("quantiles", ())),
            slo_s=obs.get("slo_s"),  # type: ignore[arg-type]
            windows=rollup_rows,
        )
    return artifact


def validate_artifact(path: str) -> List[str]:
    """Structural schema check; returns a list of problems (empty = ok).

    Checks line-level required keys, the schema version, span parent
    references, span time sanity, and observation-section shape — the
    contract the CI artifact step enforces on every uploaded run. The
    file is read one line at a time, and each problem names its line
    number in the file (blank lines count).
    """
    problems: List[str] = []
    span_ids: set = set()
    parent_refs: List[Tuple[int, int]] = []  # (lineno, parent id)
    observation_seen = False
    first = True  # the next non-blank line is the first
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                row = _parse_line(line)
            except json.JSONDecodeError as exc:
                problems.append(f"line {lineno}: invalid JSON ({exc})")
                first = False
                continue
            if row is _BLANK:
                continue
            kind = row.get("kind")
            if first:
                first = False
                if kind != "meta":
                    problems.append(
                        f"line {lineno}: expected the meta record"
                    )
                    continue
                if row.get("schema") not in SUPPORTED_SCHEMAS:
                    problems.append(
                        f"line {lineno}: schema {row.get('schema')!r} not "
                        f"in {SUPPORTED_SCHEMAS}"
                    )
                continue
            if kind == "meta":
                problems.append(f"line {lineno}: duplicate meta record")
                continue
            required = _REQUIRED_KEYS.get(kind or "")
            if required is None:
                problems.append(f"line {lineno}: unknown kind {kind!r}")
                continue
            missing = [key for key in required if key not in row]
            if missing:
                problems.append(f"line {lineno}: {kind} missing {missing}")
                continue
            if kind == "span":
                if row["end"] < row["start"]:
                    problems.append(
                        f"line {lineno}: span {row['id']} ends before start"
                    )
                span_ids.add(row["id"])
                if row["parent"] != -1:
                    parent_refs.append((lineno, row["parent"]))
            if kind == "gauge":
                times = [t for t, _ in row["samples"]]
                if times != sorted(times):
                    problems.append(
                        f"line {lineno}: gauge {row['name']} samples "
                        f"unordered"
                    )
            if kind == "histogram":
                if len(row["counts"]) != len(row["bounds"]) + 1:
                    problems.append(
                        f"line {lineno}: histogram {row['name']} "
                        f"counts/bounds length mismatch"
                    )
            if kind == "observation":
                if observation_seen:
                    problems.append(
                        f"line {lineno}: duplicate observation record"
                    )
                observation_seen = True
            if kind == "rollup":
                if not isinstance(row["stats"], dict):
                    problems.append(
                        f"line {lineno}: rollup stats must be an object"
                    )
                if row["end"] <= row["start"]:
                    problems.append(
                        f"line {lineno}: rollup window ends before start"
                    )
            if kind == "alert":
                if row["state"] not in ("fire", "clear"):
                    problems.append(
                        f"line {lineno}: alert state {row['state']!r} "
                        f"not fire/clear"
                    )
    if first:
        return [f"{path}: empty artifact"]
    for lineno, parent in parent_refs:
        if parent not in span_ids:
            problems.append(
                f"line {lineno}: span parent {parent} not in artifact"
            )
    return problems
