"""Core engine of the ``repro.analysis`` static-analysis framework.

The engine is deliberately small: a :class:`Rule` registry, a parsed
:class:`SourceFile` wrapper carrying ``# repro: noqa[RPxxx]`` suppression
data, a :class:`Project` giving rules cross-file context (``docs/THEORY.md``,
the test suite, sibling modules), and :func:`analyze_paths`, which runs
every registered rule over every file and returns an
:class:`AnalysisResult`.

Rules come in two flavours:

* **per-file** rules implement :meth:`Rule.check_file` and are invoked once
  per source file;
* **project** rules additionally implement :meth:`Rule.finish`, called once
  after every file has been visited — this is how whole-program facts
  (e.g. RP002's validation call graph) are propagated.

Rule modules live in :mod:`repro.analysis.rules`; importing that package
registers every shipped RP rule.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from enum import IntEnum
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.flow.fixpoint import FlowAnalysis

__all__ = [
    "Severity",
    "Finding",
    "SourceFile",
    "Project",
    "Rule",
    "AnalysisResult",
    "register",
    "registered_rules",
    "analyze_paths",
    "analyze_source",
    "display_path",
    "find_project_root",
]


class Severity(IntEnum):
    """Per-rule severity; the CLI exit code is gated on a threshold."""

    WARNING = 1
    ERROR = 2

    @classmethod
    def parse(cls, text: str) -> "Severity":
        try:
            return cls[text.upper()]
        except KeyError:
            raise ValueError(f"unknown severity {text!r}; expected 'warning' or 'error'") from None

    def __str__(self) -> str:
        return self.name.lower()


@dataclass(frozen=True, slots=True)
class Finding:
    """One diagnostic produced by a rule at a source location."""

    rule: str
    severity: Severity
    path: str
    line: int
    column: int
    message: str
    suppressed: bool = False
    #: matched an entry in the committed baseline (deliberate exception)
    baselined: bool = False

    @property
    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.column}"

    def to_dict(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "severity": str(self.severity),
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "message": self.message,
            "suppressed": self.suppressed,
            "baselined": self.baselined,
        }


_NOQA_RE = re.compile(r"#\s*repro:\s*noqa(?:\[(?P<codes>[^\]]*)\])?")
_CODE_RE = re.compile(r"RP\d{3}")


def _collect_noqa(text: str) -> dict[int, frozenset[str]]:
    """Map line number -> suppressed rule codes for that physical line.

    ``# repro: noqa`` with no bracket suppresses every rule on the line;
    this is recorded as the sentinel code ``"*"``. A bracketed list
    suppresses exactly the comma-separated rule codes it names; a token
    that is not a rule code (``rp001``, ``RP001;RP002``) suppresses nothing.
    """
    suppressions: dict[int, frozenset[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(text).readline)
        comments = [
            (token.start[0], token.string)
            for token in tokens
            if token.type == tokenize.COMMENT
        ]
    except tokenize.TokenError:
        comments = [
            (number, line)
            for number, line in enumerate(text.splitlines(), start=1)
            if "#" in line
        ]
    for line_number, comment in comments:
        match = _NOQA_RE.search(comment)
        if match is None:
            continue
        codes = match.group("codes")
        if codes is None:
            suppressions[line_number] = frozenset({"*"})
        else:
            parsed = frozenset(
                code for code in map(str.strip, codes.split(",")) if _CODE_RE.fullmatch(code)
            )
            suppressions[line_number] = suppressions.get(line_number, frozenset()) | parsed
    return suppressions


@dataclass(slots=True)
class SourceFile:
    """A parsed Python source file plus its suppression table."""

    path: Path
    text: str
    tree: ast.Module
    noqa: dict[int, frozenset[str]]

    @classmethod
    def parse(cls, path: Path, text: str | None = None) -> "SourceFile":
        if text is None:
            text = path.read_text(encoding="utf-8")
        tree = ast.parse(text, filename=str(path))
        return cls(path=path, text=text, tree=tree, noqa=_collect_noqa(text))

    def is_suppressed(self, code: str, line: int) -> bool:
        codes = self.noqa.get(line)
        return codes is not None and ("*" in codes or code in codes)

    @property
    def posix(self) -> str:
        return self.path.as_posix()


_ROOT_MARKERS = ("pyproject.toml", "setup.py", ".git")


def find_project_root(start: Path) -> Path:
    """Walk upward from ``start`` to the nearest directory holding a
    project marker (pyproject.toml / setup.py / .git); fall back to
    ``start`` itself."""
    start = start.resolve()
    if start.is_file():
        start = start.parent
    for candidate in (start, *start.parents):
        if any((candidate / marker).exists() for marker in _ROOT_MARKERS):
            return candidate
    return start


@dataclass(slots=True)
class Project:
    """Cross-file context shared by every rule during one analysis run."""

    root: Path
    files: list[SourceFile] = field(default_factory=list)
    _doc_cache: dict[str, str | None] = field(default_factory=dict)
    _flow: object | None = None

    def flow(self) -> "FlowAnalysis":
        """The interprocedural flow analysis over this run's file set.

        Built lazily on first use (the flow rules ask for it from their
        ``finish`` hooks, after every file has been parsed) and shared by
        every rule in the run.
        """
        from repro.analysis.flow.fixpoint import FlowAnalysis

        if self._flow is None:
            self._flow = FlowAnalysis.build(self)
        assert isinstance(self._flow, FlowAnalysis)
        return self._flow

    def read_doc(self, relative: str) -> str | None:
        """Read a project document (e.g. ``docs/THEORY.md``); ``None`` if absent."""
        if relative not in self._doc_cache:
            path = self.root / relative
            self._doc_cache[relative] = (
                path.read_text(encoding="utf-8") if path.is_file() else None
            )
        return self._doc_cache[relative]

    def test_sources(self, names: Sequence[str]) -> dict[str, str]:
        """Raw text of the named files under ``tests/`` (missing files skipped)."""
        sources: dict[str, str] = {}
        for name in names:
            text = self.read_doc(f"tests/{name}")
            if text is not None:
                sources[name] = text
        return sources

    def module_name(self, source: SourceFile) -> str:
        """Dotted module path of ``source`` relative to the repo layout.

        Resolves ``src/repro/metrics/kendall.py`` to
        ``repro.metrics.kendall``; files outside a recognizable package
        root keep their stem.
        """
        parts = list(source.path.resolve().parts)
        if "repro" in parts:
            index = len(parts) - 1 - parts[::-1].index("repro")
            dotted = parts[index:]
        else:
            dotted = [source.path.stem]
        if dotted[-1].endswith(".py"):
            dotted[-1] = dotted[-1][:-3]
        if dotted[-1] == "__init__":
            dotted.pop()
        return ".".join(dotted)


class Rule:
    """Base class for RP rules. Subclasses set the class attributes and
    implement :meth:`check_file` (and optionally :meth:`finish`)."""

    code: str = "RP000"
    name: str = "unnamed"
    severity: Severity = Severity.ERROR
    description: str = ""

    def check_file(self, source: SourceFile, project: Project) -> Iterator[Finding]:
        return iter(())

    def finish(self, project: Project) -> Iterator[Finding]:
        """Called once after all files were visited; project rules emit here."""
        return iter(())

    def finding(
        self,
        source: SourceFile,
        node: ast.AST | int,
        message: str,
        *,
        severity: Severity | None = None,
    ) -> Finding:
        """Build a :class:`Finding` at ``node`` (an AST node or a line number),
        honouring any ``# repro: noqa`` suppression on that line."""
        if isinstance(node, int):
            line, column = node, 1
        else:
            line = getattr(node, "lineno", 1)
            column = getattr(node, "col_offset", 0) + 1
        return Finding(
            rule=self.code,
            severity=self.severity if severity is None else severity,
            path=source.posix,
            line=line,
            column=column,
            message=message,
            suppressed=source.is_suppressed(self.code, line),
        )


_REGISTRY: dict[str, type[Rule]] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule (by its ``code``) to the global registry."""
    if not issubclass(cls, Rule):
        raise TypeError(f"@register expects a Rule subclass, got {cls!r}")
    if cls.code in _REGISTRY and _REGISTRY[cls.code] is not cls:
        raise ValueError(f"duplicate rule code {cls.code}")
    _REGISTRY[cls.code] = cls
    return cls


def registered_rules() -> dict[str, Rule]:
    """Fresh instances of the shipped rules, keyed by code.

    Rules may accumulate per-run state in ``check_file`` for use in
    ``finish``, so every analysis run gets its own instances.
    """
    from repro.analysis import rules as _rules  # noqa: F401  (registration side effect)

    return {code: _REGISTRY[code]() for code in sorted(_REGISTRY)}


@dataclass(slots=True)
class AnalysisResult:
    """Outcome of one analysis run."""

    findings: list[Finding]
    files_checked: int
    rules_run: tuple[str, ...]
    parse_errors: list[Finding] = field(default_factory=list)

    @property
    def active(self) -> list[Finding]:
        """Findings not silenced by a ``noqa`` comment or the baseline."""
        return [
            finding
            for finding in self.findings
            if not finding.suppressed and not finding.baselined
        ]

    def worst(self) -> Severity | None:
        severities = [finding.severity for finding in self.active + self.parse_errors]
        return max(severities) if severities else None

    def exit_code(self, fail_on: Severity | None = Severity.ERROR) -> int:
        if self.parse_errors:
            return 1
        if fail_on is None:
            return 0
        worst = self.worst()
        return 1 if worst is not None and worst >= fail_on else 0


def _iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    seen: set[Path] = set()
    for path in paths:
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            candidates = [path]
        else:
            continue
        for candidate in candidates:
            if "__pycache__" in candidate.parts:
                continue
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield candidate


def _select_rules(select: Sequence[str] | None) -> dict[str, Rule]:
    rules = registered_rules()
    if select is None:
        return rules
    unknown = [code for code in select if code not in rules]
    if unknown:
        raise ValueError(f"unknown rule code(s): {', '.join(unknown)}")
    return {code: rules[code] for code in select}


def display_path(path: Path, root: Path) -> Path:
    """The path a finding reports. Fingerprints (noqa audits, baseline
    entries) must not depend on how the analyzed path was spelled on the
    command line, so files under ``root`` are rebased relative to it."""
    try:
        return path.resolve().relative_to(root.resolve())
    except ValueError:
        return path


def _run_rules(
    sources: Sequence[SourceFile], root: Path, rules: dict[str, Rule]
) -> list[Finding]:
    """Run ``rules`` over parsed ``sources`` (per-file hooks, then
    ``finish``) and return the findings in report order."""
    project = Project(root=root, files=list(sources))
    findings: list[Finding] = []
    for source in project.files:
        for rule in rules.values():
            findings.extend(rule.check_file(source, project))
    for rule in rules.values():
        findings.extend(rule.finish(project))
    findings.sort(key=lambda f: (f.path, f.line, f.column, f.rule))
    return findings


def analyze_paths(
    paths: Sequence[Path | str],
    *,
    root: Path | None = None,
    select: Sequence[str] | None = None,
) -> AnalysisResult:
    """Run the (selected) rules over every ``.py`` file under ``paths``."""
    resolved_paths = [Path(p) for p in paths]
    missing = [p for p in resolved_paths if not p.exists()]
    if missing:
        raise FileNotFoundError(f"no such path(s): {', '.join(map(str, missing))}")
    if root is None:
        root = find_project_root(resolved_paths[0]) if resolved_paths else Path.cwd()
    rules = _select_rules(select)
    sources: list[SourceFile] = []
    parse_errors: list[Finding] = []
    for file_path in _iter_python_files(resolved_paths):
        shown = display_path(file_path, root)
        try:
            sources.append(
                SourceFile.parse(shown, text=file_path.read_text(encoding="utf-8"))
            )
        except (SyntaxError, UnicodeDecodeError) as exc:
            line = getattr(exc, "lineno", 1) or 1
            parse_errors.append(
                Finding(
                    rule="RP000",
                    severity=Severity.ERROR,
                    path=shown.as_posix(),
                    line=line,
                    column=1,
                    message=f"file could not be parsed: {exc}",
                )
            )
    return AnalysisResult(
        findings=_run_rules(sources, root, rules),
        files_checked=len(sources),
        rules_run=tuple(rules),
        parse_errors=parse_errors,
    )


def analyze_source(
    text: str,
    *,
    filename: str = "<snippet>",
    root: Path | None = None,
    select: Sequence[str] | None = None,
) -> AnalysisResult:
    """Analyze an in-memory snippet — the test-fixture entry point."""
    rules = _select_rules(select)
    source = SourceFile.parse(Path(filename), text=text)
    return AnalysisResult(
        findings=_run_rules([source], root if root is not None else Path.cwd(), rules),
        files_checked=1,
        rules_run=tuple(rules),
    )
