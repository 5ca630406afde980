"""On-disk incremental result cache for whole-program analysis runs.

The flow rules (RP012–RP016) are *interprocedural*: a finding in one
file can depend on any other file in the run (a new ``parallel_map``
call site makes previously clean code worker-reachable). Per-file
caching is therefore unsound; the unit of caching is the **whole run**.
The key is a SHA-256 over

* the cache format version and the rule-set version
  (:data:`RULESET_VERSION` — bumped whenever any rule's behaviour
  changes, which invalidates every prior entry at once),
* the selected rule codes,
* the sorted ``(relative path, content hash)`` pairs of every analyzed
  file.

Any byte changed in any file, any rule added or removed, any engine
release — a different key, a cold run. An unchanged tree re-keys to the
same entry and the stored findings are returned without parsing a
single file beyond the hashing pass, which is what makes warm runs an
order of magnitude faster.

Baseline application deliberately happens *after* the cache layer:
editing ``analysis-baseline.json`` re-gates cached findings without
invalidating them.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.analysis.engine import AnalysisResult, Finding

__all__ = [
    "RULESET_VERSION",
    "cache_dir_for",
    "cache_key",
    "load_cached",
    "store_cached",
]

#: Bump on any change to rule behaviour or the engine's finding format.
RULESET_VERSION = "2026.10-rp009"

_CACHE_FORMAT = "repro.analysis/cache-1"


def cache_dir_for(root: Path) -> Path:
    """Default cache location under the project root (gitignored)."""
    return root / ".repro-cache" / "analysis"


def cache_key(
    files: list[tuple[str, bytes]], codes: tuple[str, ...], ruleset: str | None = None
) -> str:
    """Deterministic key for one (file set, rule set) combination.

    ``files`` holds ``(relative posix path, raw content)`` pairs; order
    does not matter (pairs are sorted before hashing). ``ruleset``
    defaults to the *current* :data:`RULESET_VERSION` — read at call
    time, so bumping the constant invalidates every existing entry.
    """
    digest = hashlib.sha256()
    digest.update(_CACHE_FORMAT.encode())
    digest.update((ruleset if ruleset is not None else RULESET_VERSION).encode())
    digest.update(",".join(codes).encode())
    for name, content in sorted(files):
        digest.update(name.encode())
        digest.update(hashlib.sha256(content).digest())
    return digest.hexdigest()


def load_cached(cache_dir: Path, key: str) -> AnalysisResult | None:
    """The stored result for ``key``, or ``None`` on miss/corruption.

    A corrupt or unreadable entry is treated as a miss — the caller
    falls back to a cold run and overwrites it.
    """
    entry = cache_dir / f"{key}.json"
    try:
        payload = json.loads(entry.read_text(encoding="utf-8"))
        if payload.get("format") != _CACHE_FORMAT:
            return None
        return AnalysisResult(
            findings=[Finding.from_dict(raw) for raw in payload["findings"]],
            files_checked=int(payload["files_checked"]),
            rules_run=tuple(payload["rules_run"]),
        )
    except (OSError, ValueError, KeyError, TypeError):
        return None


def store_cached(cache_dir: Path, key: str, result: AnalysisResult) -> None:
    """Persist ``result`` under ``key``; runs with parse errors are
    never cached (the error set depends on state the key ignores)."""
    if result.parse_errors:
        return
    cache_dir.mkdir(parents=True, exist_ok=True)
    payload = {
        "format": _CACHE_FORMAT,
        "ruleset": RULESET_VERSION,
        "findings": [finding.to_dict() for finding in result.findings],
        "files_checked": result.files_checked,
        "rules_run": list(result.rules_run),
    }
    entry = cache_dir / f"{key}.json"
    tmp = entry.with_suffix(".tmp")
    tmp.write_text(json.dumps(payload) + "\n", encoding="utf-8")
    tmp.replace(entry)
