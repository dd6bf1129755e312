"""Post-hoc conservation invariants over run artifacts.

Chaos and recovery sweeps generate runs where requests are shed,
drained, rescued, abandoned, and re-admitted — exactly the conditions
under which subtle accounting bugs (a request counted twice, a span
billed to a dead domain, occupancy double-counted across a rescue) slip
into results unnoticed. This module proves, from the schema-2 artifact
alone, that the books balance:

* **C1 conservation** — per tenant, ``arrivals == admitted + shed``
  (the admission-side counters), and every admitted request is
  accounted *exactly once*: the number of client spans equals the
  admitted count, and each is either completed or typed-failed
  (``completed ⊕ failed``); shedding happens strictly before admission.
* **C2 containment** — every span lies inside its parent's extent
  (client spans under a batch span are exempt at the start edge: a
  member can arrive before its batch opens).
* **C3 phase tiling** — a completed request span's extent is exactly
  tiled by its phase-carrying children (kernel spans + motion-stage
  spans), to 1e-9; batch-exec spans likewise (member kernels + shared
  stage spans). Abandoned subtrees do not count — that is precisely how
  burned time is kept out of phase totals and re-billed to recovery.
* **C4 decommission** — no span starts on a failure domain after its
  ``domain_dead`` instant (until ``domain_revived``): a decommissioned
  domain serves no new work.
* **C5 rescue exactly-once** — a rescued request carries at least one
  abandoned attempt subtree (the drained leg), and no motion stage has
  more than one live restructuring execution — the rescue replaces the
  drained leg, it never double-counts device occupancy.

:func:`verify_artifact` runs every applicable check and returns an
:class:`InvariantReport`; ``python -m repro.telemetry verify RUN.jsonl``
is the CLI spelling, and every chaos/recovery sweep that writes an
artifact re-verifies it automatically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple, Union

from ..telemetry.artifact import RunArtifact, load_artifact
from ..telemetry.spans import Span

__all__ = [
    "InvariantViolation",
    "InvariantReport",
    "verify_artifact",
    "verify_artifact_path",
]

_TOL = 1e-9


class InvariantViolation(AssertionError):
    """An artifact failed conservation checking; ``problems`` lists
    every violated invariant (the report fails loudly, not lazily)."""

    def __init__(self, path: str, problems: List[str]):
        detail = "\n".join(f"  - {p}" for p in problems)
        super().__init__(
            f"artifact {path or '<in-memory>'} violates "
            f"{len(problems)} invariant(s):\n{detail}"
        )
        self.path = path
        self.problems = problems


@dataclass
class InvariantReport:
    """Outcome of one verification pass."""

    path: str
    problems: List[str] = field(default_factory=list)
    #: Checks that ran (C1..C5 keys -> number of subjects examined).
    checked: Dict[str, int] = field(default_factory=dict)
    #: Checks skipped, with the reason (e.g. sampling armed).
    skipped: Dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.problems

    def raise_on_problems(self) -> "InvariantReport":
        if self.problems:
            raise InvariantViolation(self.path, self.problems)
        return self

    def render(self) -> str:
        lines = [f"invariants: {self.path or '<in-memory>'}"]
        for name in sorted(self.checked):
            lines.append(f"  {name}: OK ({self.checked[name]} subjects)")
        for name, why in sorted(self.skipped.items()):
            lines.append(f"  {name}: skipped ({why})")
        if self.problems:
            lines.append(f"  FAILED: {len(self.problems)} violation(s)")
            for problem in self.problems:
                lines.append(f"    - {problem}")
        else:
            lines.append("  PASS")
        return "\n".join(lines)


def _duration(span: Span) -> float:
    return (span.end if span.end is not None else span.start) - span.start


class _Tree:
    """Index of one artifact's span forest: each span's children and
    abandoned flag, computed once for every check to read."""

    def __init__(self, artifact: RunArtifact):
        self.spans = artifact.spans
        self.by_id: Dict[int, Span] = {s.span_id: s for s in artifact.spans}
        self.children: Dict[int, List[Span]] = {}
        #: Spans of a drained or timed-out attempt, and stragglers the
        #: run truncated: their time is not live work.
        self.abandoned: Set[Span] = set()
        for span in artifact.spans:
            if span.parent_id in self.by_id:
                self.children.setdefault(span.parent_id, []).append(span)
            attrs = span.attrs
            if attrs and (attrs.get("abandoned") or attrs.get("truncated")):
                self.abandoned.add(span)

    def kids(self, span: Span) -> List[Span]:
        return self.children.get(span.span_id, [])

    def subtree(self, span: Span) -> List[Span]:
        out: List[Span] = []
        stack = [span]
        while stack:
            node = stack.pop()
            out.append(node)
            stack.extend(self.kids(node))
        return out


def _tenant_counters(artifact: RunArtifact, name: str) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for (cname, labels), value in artifact.counters.items():
        if cname != name:
            continue
        tenant = dict(labels).get("tenant")
        if tenant is not None:
            out[tenant] = value
    return out


def _check_conservation(
    artifact: RunArtifact, tree: _Tree, report: InvariantReport
) -> None:
    arrivals = _tenant_counters(artifact, "arrivals")
    if not arrivals:
        report.skipped["C1-conservation"] = "no admission counters"
        return
    admitted = _tenant_counters(artifact, "admitted")
    shed = _tenant_counters(artifact, "shed")
    clients: Dict[str, List[Span]] = {}
    for span in tree.spans:
        if span.category == "client":
            tenant = str(span.attrs.get("tenant", span.actor))
            clients.setdefault(tenant, []).append(span)
    sampled = artifact.sampling is not None
    checked = 0
    for tenant in sorted(arrivals):
        checked += 1
        a = arrivals.get(tenant, 0.0)
        adm = admitted.get(tenant, 0.0)
        s = shed.get(tenant, 0.0)
        if a != adm + s:
            report.problems.append(
                f"C1: tenant {tenant!r}: arrivals={a:g} != "
                f"admitted={adm:g} + shed={s:g}"
            )
        if sampled:
            continue
        spans = clients.get(tenant, [])
        if len(spans) != int(adm):
            report.problems.append(
                f"C1: tenant {tenant!r}: {len(spans)} client spans for "
                f"{adm:g} admitted requests (each admitted request must "
                f"be accounted exactly once)"
            )
        open_spans = [s2 for s2 in spans if s2.end is None]
        if open_spans:
            report.problems.append(
                f"C1: tenant {tenant!r}: {len(open_spans)} client "
                f"span(s) never completed"
            )
    report.checked["C1-conservation"] = checked
    if sampled:
        report.skipped["C1-span-count"] = "trace sampling armed"


def _check_containment(tree: _Tree, report: InvariantReport) -> None:
    checked = 0
    for span in tree.spans:
        parent = tree.by_id.get(span.parent_id)
        if parent is None:
            continue
        checked += 1
        # A batch member can arrive (client span start) before its
        # batch span opened; every other child starts inside its parent.
        if span.category != "client" and span.start < parent.start - _TOL:
            report.problems.append(
                f"C2: span {span.span_id} ({span.name!r}) starts "
                f"{span.start:.9f} before parent {parent.span_id} "
                f"({parent.name!r}) at {parent.start:.9f}"
            )
        if (
            span.end is not None
            and parent.end is not None
            and span.end > parent.end + _TOL
        ):
            report.problems.append(
                f"C2: span {span.span_id} ({span.name!r}) ends "
                f"{span.end:.9f} after parent {parent.span_id} "
                f"({parent.name!r}) at {parent.end:.9f}"
            )
    report.checked["C2-containment"] = checked


def _phase_children(tree: _Tree, span: Span) -> List[Span]:
    """Direct children that carry billable time: kernel/phase spans and
    motion-stage spans (whose own subtree holds the phase detail)."""
    return [
        child
        for child in tree.kids(span)
        if (child.phase or child.category == "stage")
        and child.category not in ("request", "client", "queue")
        and child not in tree.abandoned
    ]


def _check_tiling(tree: _Tree, report: InvariantReport) -> None:
    checked = 0
    for span in tree.spans:
        if span.category not in ("request", "batch-exec"):
            continue
        if span.end is None or span in tree.abandoned:
            continue
        if span.attrs.get("failed"):
            continue  # failed requests legitimately contain dead time
        if span.category == "request" and span.attrs.get("batched"):
            continue  # members share the batch-exec span's work
        kids = _phase_children(tree, span)
        member_kernels: List[Span] = []
        if span.category == "batch-exec":
            for member in tree.kids(span):
                if member.category == "request":
                    member_kernels.extend(_phase_children(tree, member))
        covered = sum(_duration(k) for k in kids + member_kernels)
        extent = _duration(span)
        checked += 1
        if abs(extent - covered) > _TOL:
            report.problems.append(
                f"C3: {span.category} span {span.span_id} "
                f"({span.name!r}): extent {extent:.9f} != phase "
                f"coverage {covered:.9f} (|Δ|="
                f"{abs(extent - covered):.3e})"
            )
    report.checked["C3-phase-tiling"] = checked


def _domain_windows(
    artifact: RunArtifact,
) -> Dict[str, Tuple[float, float]]:
    """target -> (decommissioned-at, revived-at) windows."""
    dead: Dict[str, float] = {}
    revived: Dict[str, float] = {}
    for instant in artifact.instants:
        if instant.name == "domain_dead":
            dead[instant.actor] = instant.time
        elif instant.name == "domain_revived":
            revived[instant.actor] = instant.time
    return {
        target: (at, revived.get(target, float("inf")))
        for target, at in dead.items()
    }


def _check_decommission(
    artifact: RunArtifact, tree: _Tree, report: InvariantReport
) -> None:
    windows = _domain_windows(artifact)
    if not windows:
        report.skipped["C4-decommission"] = "no decommissioned domains"
        return
    checked = 0
    for span in tree.spans:
        window = windows.get(span.actor)
        if window is None:
            continue
        checked += 1
        dead_at, revived_at = window
        if dead_at + _TOL < span.start < revived_at:
            report.problems.append(
                f"C4: span {span.span_id} ({span.name!r}) starts on "
                f"{span.actor!r} at {span.start:.9f}, after its "
                f"decommission at {dead_at:.9f}"
            )
    report.checked["C4-decommission"] = checked


def _check_rescue(tree: _Tree, report: InvariantReport) -> None:
    rescued = [
        s
        for s in tree.spans
        if s.category in ("request", "batch-exec") and s.attrs.get("rescued")
        # A batch member's drained attempt hangs off the shared
        # batch-exec span, which carries the same flag and is checked.
        and not s.attrs.get("batched")
    ]
    checked = 0
    for span in rescued:
        checked += 1
        subtree = tree.subtree(span)
        drained = [
            s
            for s in subtree
            if s.category == "attempt" and s in tree.abandoned
        ]
        if not drained:
            report.problems.append(
                f"C5: rescued span {span.span_id} ({span.name!r}) has "
                f"no abandoned attempt subtree — nothing was drained, "
                f"so what was rescued?"
            )
        for stage in subtree:
            if stage.category != "stage" or stage in tree.abandoned:
                continue
            live = [
                s
                for s in tree.subtree(stage)
                if s.phase == "restructuring" and s not in tree.abandoned
            ]
            if len(live) > 1:
                report.problems.append(
                    f"C5: stage span {stage.span_id} ({stage.name!r}) "
                    f"under rescued span {span.span_id} has "
                    f"{len(live)} live restructuring executions — "
                    f"occupancy double-counted"
                )
    report.checked["C5-rescue"] = checked


def verify_artifact(
    artifact: Union[RunArtifact, str],
    path: str = "",
) -> InvariantReport:
    """Run every applicable invariant over ``artifact``.

    Accepts a loaded :class:`RunArtifact` or a path. Returns the
    report; call :meth:`InvariantReport.raise_on_problems` (or check
    ``report.ok``) to act on it.
    """
    if isinstance(artifact, str):
        path = path or artifact
        artifact = load_artifact(artifact)
    report = InvariantReport(path=path)
    tree = _Tree(artifact)
    _check_conservation(artifact, tree, report)
    _check_containment(tree, report)
    _check_tiling(tree, report)
    _check_decommission(artifact, tree, report)
    _check_rescue(tree, report)
    return report


def verify_artifact_path(path: str) -> InvariantReport:
    """Load ``path`` and verify it (the sweep/CLI entry point)."""
    return verify_artifact(load_artifact(path), path=path)
