"""The ``repro check`` command.

Exit codes follow the lint-tool convention::

    0  clean (no error-severity diagnostics; with --baseline: no NEW ones)
    1  diagnostics found (or unparseable files)
    2  usage error (bad root, unknown --rule id, bad baseline file)

Output formats:

* ``text`` (default) — one ``path:line:col: [rule] message`` per line
  plus a summary.
* ``json`` — a machine-readable document; byte-stable (sorted keys,
  trailing newline) so goldens can compare exact bytes.
* ``sarif`` — SARIF 2.1.0 for CI inline annotations; also byte-stable.

Maintenance modes (mutually exclusive with gating):

* ``--write-contracts`` regenerates the committed contract snapshot
  after a deliberate schema change (bump the version first).
* ``--write-baseline`` rewrites the baseline file with the current
  findings so CI gates on regressions only.
* ``--prune-suppressions`` lists stale ``# repro: no-check`` markers.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import hashlib
from pathlib import Path
from typing import Optional

from repro.check import ALL_RULES, UnknownRuleError, run_checks
from repro.check.baseline import filter_new, load_baseline, render_baseline
from repro.check.contracts import write_snapshot
from repro.check.sarif import render_sarif

__all__ = ["check_main", "default_cache_dir"]

#: Default scan root, relative to the invoking directory.
DEFAULT_ROOT = "src"

#: Environment override for the incremental-cache location.
CACHE_ENV = "REPRO_CHECK_CACHE"


def default_cache_dir(root: Path) -> Path:
    """Per-root cache directory outside the tree being analysed.

    Keyed by the resolved root path so two checkouts don't share (or
    clobber) entries; content-hash keys inside the cache make stale
    reuse impossible even if they did.
    """
    env = os.environ.get(CACHE_ENV)
    base = Path(env) if env else Path.home() / ".cache" / "repro-check"
    tag = hashlib.sha256(str(root.resolve()).encode()).hexdigest()[:16]
    return base / tag


def _list_rules() -> str:
    lines = ["rule catalogue:"]
    for rule in ALL_RULES:
        scope = "project-wide" if rule.project_wide else (
            ", ".join(rule.include) if rule.include else "all files"
        )
        lines.append(f"  {rule.id:<20} [{scope}]")
        lines.append(f"      {rule.description}")
    return "\n".join(lines)


def check_main(argv: Optional[list[str]] = None) -> int:
    """Entry point for ``python -m repro check [ROOT]``."""
    parser = argparse.ArgumentParser(
        prog="save-repro check",
        description=(
            "Whole-program invariant analysis: determinism, trace-schema "
            "drift, lock discipline, contract versioning and "
            "process-boundary safety over the source tree.  "
            "Suppress an intentional finding with "
            "`# repro: no-check[rule-id]` (see docs/architecture.md)."
        ),
    )
    parser.add_argument(
        "root",
        nargs="?",
        default=DEFAULT_ROOT,
        help=f"directory or file to analyse (default: {DEFAULT_ROOT}/)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="diagnostic output format (default: text)",
    )
    parser.add_argument(
        "--rule",
        action="append",
        metavar="ID",
        default=None,
        help="run only this rule id (repeatable)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    parser.add_argument(
        "--baseline",
        metavar="PATH",
        default=None,
        help="tolerate diagnostics recorded in this baseline file; "
        "gate (exit 1) only on new ones",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="rewrite the baseline file (--baseline PATH, default "
        "check-baseline.json) with the current findings and exit 0",
    )
    parser.add_argument(
        "--write-contracts",
        action="store_true",
        help="regenerate the committed contracts.json snapshot under "
        "ROOT and exit 0",
    )
    parser.add_argument(
        "--prune-suppressions",
        action="store_true",
        help="list stale `# repro: no-check` markers (one per line) "
        "instead of diagnostics",
    )
    cache = parser.add_mutually_exclusive_group()
    cache.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="incremental-cache directory (default: "
        f"$~/.cache/repro-check/<root-hash>, override base with ${CACHE_ENV})",
    )
    cache.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the incremental cache for this run",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print parse/cache statistics to stderr",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_list_rules())
        return 0

    root = Path(args.root)
    if not root.exists():
        print(f"error: no such path: {root}", file=sys.stderr)
        return 2

    if args.write_contracts:
        try:
            path = write_snapshot(root)
        except FileNotFoundError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        print(f"wrote contract snapshot: {path}")
        return 0

    cache_dir: Optional[Path]
    if args.no_cache:
        cache_dir = None
    elif args.cache_dir is not None:
        cache_dir = Path(args.cache_dir)
    else:
        cache_dir = default_cache_dir(root)

    try:
        result = run_checks(root, rule_ids=args.rule, cache_dir=cache_dir)
    except UnknownRuleError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    if args.stats:
        print(
            f"stats: files={result.files_checked} "
            f"parsed={result.parsed_files} cached={result.cached_files} "
            f"memo={'hit' if result.from_memo else 'miss'} "
            f"wall={result.wall_s:.3f}s",
            file=sys.stderr,
        )

    if args.prune_suppressions:
        for rel, line, text in result.unused_markers:
            print(f"{rel}:{line}: {text}")
        if not result.unused_markers:
            print("no stale suppressions")
        return 0

    if args.write_baseline:
        path = Path(args.baseline) if args.baseline else Path(
            "check-baseline.json"
        )
        path.write_text(render_baseline(result.diagnostics), encoding="utf-8")
        print(f"wrote baseline: {path} ({len(result.diagnostics)} entries)")
        return 0

    diagnostics = result.diagnostics
    baseline_matched = 0
    if args.baseline is not None:
        try:
            known = load_baseline(Path(args.baseline))
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        diagnostics, baseline_matched = filter_new(diagnostics, known)

    gate_errors = [d for d in diagnostics if d.severity == "error"]
    gate_ok = not gate_errors

    if args.format == "json":
        document = {
            "root": str(root),
            "files_checked": result.files_checked,
            "suppressed": result.suppressed,
            "ok": gate_ok,
            "diagnostics": [
                {
                    "path": d.path,
                    "line": d.line,
                    "col": d.col,
                    "rule": d.rule,
                    "severity": d.severity,
                    "message": d.message,
                }
                for d in diagnostics
            ],
        }
        if args.baseline is not None:
            document["baseline_matched"] = baseline_matched
        print(json.dumps(document, indent=2, sort_keys=True))
    elif args.format == "sarif":
        sys.stdout.write(
            render_sarif(result.with_diagnostics(diagnostics), ALL_RULES)
        )
    else:
        for diagnostic in diagnostics:
            print(diagnostic.format())
        summary = (
            f"checked {result.files_checked} files: "
            f"{len(gate_errors)} error(s), "
            f"{result.suppressed} suppressed"
        )
        if baseline_matched:
            summary += f", {baseline_matched} known (baseline)"
        print(summary if diagnostics else f"OK — {summary}")
    return 0 if gate_ok else 1
