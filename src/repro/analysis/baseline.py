"""Committed-baseline mechanism for deliberate, documented exceptions.

A baseline is a JSON file (conventionally ``analysis-baseline.json`` at
the repo root) listing findings that are *accepted*, each with a written
reason. Matching is on the ``(rule, path, message)`` fingerprint — line
numbers are deliberately excluded so unrelated edits that shift a file
do not invalidate entries. Matched findings are marked
:attr:`~repro.analysis.engine.Finding.baselined`; they stay visible in
reports but no longer gate the exit code.

The difference from a ``# repro: noqa`` comment is audience: a noqa
lives at the site and suits local, self-evident exceptions; the baseline
collects project-level policy exceptions in one reviewable file, and CI
runs with ``--baseline`` so a *new* finding fails while the accepted
ones do not. Stale entries (matching nothing) are reported so the
baseline cannot silently rot.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

from repro.analysis.engine import AnalysisResult, Finding

__all__ = ["Baseline", "BaselineEntry", "apply_baseline", "write_baseline"]

_SCHEMA = "repro.analysis/baseline-1"


@dataclass(frozen=True, slots=True)
class BaselineEntry:
    """One accepted finding, with the reason it is accepted."""

    rule: str
    path: str
    message: str
    reason: str

    @property
    def fingerprint(self) -> tuple[str, str, str]:
        return (self.rule, self.path, self.message)


@dataclass(slots=True)
class Baseline:
    """A parsed baseline file."""

    entries: tuple[BaselineEntry, ...]

    @classmethod
    def load(cls, path: Path) -> "Baseline":
        """Parse ``path``; a file of the wrong shape raises ``ValueError``
        naming the file and the offending field."""
        payload = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(payload, dict):
            raise ValueError(
                f"{path}: baseline must be a JSON object, got {type(payload).__name__}"
            )
        if payload.get("schema") != _SCHEMA:
            raise ValueError(
                f"{path}: unknown baseline schema {payload.get('schema')!r}; "
                f"expected {_SCHEMA!r}"
            )
        raw_entries = payload.get("entries", [])
        if not isinstance(raw_entries, list):
            raise ValueError(
                f"{path}: 'entries' must be a list, got {type(raw_entries).__name__}"
            )
        entries = []
        for index, raw in enumerate(raw_entries):
            if not isinstance(raw, dict):
                raise ValueError(
                    f"{path}: entries[{index}] must be an object, got {type(raw).__name__}"
                )
            for key in ("rule", "path", "message"):
                if key not in raw:
                    raise ValueError(f"{path}: entries[{index}] has no {key!r} field")
            entry = BaselineEntry(
                rule=str(raw["rule"]),
                path=str(raw["path"]),
                message=str(raw["message"]),
                reason=str(raw.get("reason", "")),
            )
            if not entry.reason.strip():
                raise ValueError(
                    f"{path}: baseline entry for {entry.rule} at {entry.path} "
                    "has no reason; every accepted finding must say why"
                )
            entries.append(entry)
        return cls(entries=tuple(entries))

    def matches(self, finding: Finding) -> bool:
        fingerprint = (finding.rule, finding.path, finding.message)
        return any(entry.fingerprint == fingerprint for entry in self.entries)

    def stale_entries(self, result: AnalysisResult) -> list[BaselineEntry]:
        """Entries that matched no finding in ``result`` — candidates for
        deletion (the underlying issue was fixed or the code moved)."""
        seen = {(f.rule, f.path, f.message) for f in result.findings}
        return [entry for entry in self.entries if entry.fingerprint not in seen]


def apply_baseline(result: AnalysisResult, baseline: Baseline) -> AnalysisResult:
    """A copy of ``result`` with matching findings marked ``baselined``."""
    findings = [
        replace(finding, baselined=True)
        if not finding.suppressed and baseline.matches(finding)
        else finding
        for finding in result.findings
    ]
    return AnalysisResult(
        findings=findings,
        files_checked=result.files_checked,
        rules_run=result.rules_run,
        parse_errors=result.parse_errors,
    )


def write_baseline(result: AnalysisResult, path: Path) -> int:
    """Write every currently active finding as a baseline entry.

    Reasons are stamped with a placeholder the author must replace —
    :meth:`Baseline.load` refuses entries whose reason is empty, and the
    placeholder is deliberately conspicuous in review.
    """
    entries = [
        {
            "rule": finding.rule,
            "path": finding.path,
            "message": finding.message,
            "reason": "TODO: justify this accepted finding",
        }
        for finding in result.active
    ]
    payload = {"schema": _SCHEMA, "entries": entries}
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return len(entries)
