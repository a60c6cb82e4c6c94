"""Docs checker: fenced python examples must work, internal links must resolve.

The docs pages document an executable system, so they are checked like
code: every fenced ``python`` block either runs under :mod:`doctest` (when
it contains ``>>>`` prompts) or must at least compile, and every relative
markdown link must point at a file that exists.  `tests/test_docs.py` runs
this over ``docs/*.md`` and ``README.md`` on every test run, and the docs
CI job calls it directly — so the observability and architecture pages
cannot rot the way the pre-engine README quickstart did.

Four drift checks go beyond the markdown itself:

- every ``--flag`` a doc mentions must actually exist on the ``repro``
  CLI (lines invoking other tools — pytest, pip, git — are exempt), so a
  renamed flag cannot survive in prose or diagrams;
- every documented command — a line of a fenced shell block that starts
  with ``python -m repro`` — must parse with ``repro.cli.build_parser``,
  and a ``run`` line must pass the rail table
  (:func:`repro.cli.check_run_flags`, taking ``--resume FILE`` as a
  journal when FILE ends in ``.wal``), so an example the CLI would
  reject fails here with the CLI's own message;
- every public function, class, and method under ``src/repro/`` must
  carry a docstring, so the API surface the docs describe stays
  self-describing;
- every marker-delimited bench table registered in
  :mod:`repro.reporting.benchtables` must equal its regeneration from the
  committed ``results/BENCH_*.json`` dump, so a docs table cannot cite
  numbers the dump no longer backs (a stale table fails here and in the
  docs CI job; rerun ``benchmarks/bench_shard_scale.py`` to refresh).

Usage::

    PYTHONPATH=src python tools/check_docs.py README.md docs/*.md

A block can opt out of execution (e.g. it needs files that only exist
mid-walkthrough) by preceding the fence with ``<!-- docs-check: skip -->``.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import doctest
import io
import re
import shlex
import sys
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "DocProblem",
    "check_api_docstrings",
    "check_bench_tables",
    "check_file",
    "extract_fenced_blocks",
    "known_cli_flags",
    "main",
]

_FENCE = re.compile(
    r"(?P<skip><!--\s*docs-check:\s*skip\s*-->\s*\n)?"
    r"^```(?P<lang>[A-Za-z0-9_+-]*)[^\n]*\n(?P<body>.*?)^```\s*$",
    re.MULTILINE | re.DOTALL,
)
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


@dataclass(frozen=True)
class DocProblem:
    """One broken thing in one markdown file."""

    path: Path
    line: int
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.message}"


def extract_fenced_blocks(text: str) -> list[tuple[int, str, str, bool]]:
    """``(start_line, language, body, skipped)`` for every fenced block."""
    blocks = []
    for match in _FENCE.finditer(text):
        line = text.count("\n", 0, match.start("body")) + 1
        blocks.append(
            (
                line,
                match.group("lang").lower(),
                match.group("body"),
                match.group("skip") is not None,
            )
        )
    return blocks


def _check_python_block(path: Path, line: int, body: str) -> list[DocProblem]:
    if ">>>" in body:
        # Interactive examples run for real under doctest.
        runner = doctest.DocTestRunner(verbose=False)
        parser = doctest.DocTestParser()
        try:
            test = parser.get_doctest(
                body, {"__name__": "__docs__"}, str(path), str(path), line
            )
        except ValueError as error:
            return [DocProblem(path, line, f"unparseable doctest: {error}")]
        results = runner.run(test, clear_globs=True)
        if results.failed:
            return [
                DocProblem(
                    path, line, f"doctest failed ({results.failed} example(s))"
                )
            ]
        return []
    try:
        compile(body, f"{path}:{line}", "exec")
    except SyntaxError as error:
        return [
            DocProblem(
                path,
                line + (error.lineno or 1) - 1,
                f"python block does not compile: {error.msg}",
            )
        ]
    return []


_CODE_SPAN = re.compile(r"`[^`\n]*`")


def _blank_code(text: str) -> str:
    """Replace code (fenced blocks and inline spans) with spaces.

    Keeps every newline, so line numbers computed against the blanked text
    still point at the original file; keeps link syntax out of code from
    being mistaken for markdown links (``sink[class](w)``).
    """

    def blank(match: re.Match) -> str:
        return "".join(c if c == "\n" else " " for c in match.group(0))

    text = _FENCE.sub(blank, text)
    return _CODE_SPAN.sub(blank, text)


def _check_links(path: Path, text: str) -> list[DocProblem]:
    problems = []
    text = _blank_code(text)
    for match in _LINK.finditer(text):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        relative = target.split("#", 1)[0]
        if not relative:
            continue
        resolved = (path.parent / relative).resolve()
        if not resolved.exists():
            line = text.count("\n", 0, match.start()) + 1
            problems.append(
                DocProblem(path, line, f"broken internal link: {target}")
            )
    return problems


_FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")
# Lines invoking these tools carry flags that are not ours to validate.
_FOREIGN_COMMANDS = re.compile(r"\b(pytest|pip|git|cargo|go|npm|docker)\b")


def known_cli_flags() -> frozenset[str]:
    """Every ``--flag`` the ``repro`` CLI accepts, across all subcommands."""
    from repro.cli import build_parser

    flags: set[str] = set()
    parsers = [build_parser()]
    while parsers:
        parser = parsers.pop()
        for action in parser._actions:
            flags.update(
                option
                for option in action.option_strings
                if option.startswith("--")
            )
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
    return frozenset(flags)


def _check_cli_flags(
    path: Path, text: str, flags: frozenset[str]
) -> list[DocProblem]:
    """Every ``--flag`` a doc mentions must exist on the ``repro`` CLI."""
    problems = []
    for offset, line_text in enumerate(text.splitlines()):
        if _FOREIGN_COMMANDS.search(line_text):
            continue
        for match in _FLAG.finditer(line_text):
            if match.group(0) not in flags:
                problems.append(
                    DocProblem(
                        path,
                        offset + 1,
                        f"documents unknown CLI flag {match.group(0)} "
                        "(not accepted by any `repro` subcommand)",
                    )
                )
    return problems


_SHELL_LANGS = frozenset({"bash", "sh", "shell", "console"})
_COMMAND = "python -m repro "


def _documented_commands(text: str) -> list[tuple[int, list[str]]]:
    """``(line, argv)`` for every ``python -m repro`` line of a shell block.

    ``\\`` continuations are joined, and a trailing ``#`` comment and
    ``&`` dropped; ``argv`` is what follows ``python -m repro``.
    """
    commands = []
    for start, lang, body, _ in extract_fenced_blocks(text):
        if lang not in _SHELL_LANGS:
            continue
        lines = body.splitlines()
        index = 0
        while index < len(lines):
            line, offset = lines[index], index
            while line.endswith("\\") and index + 1 < len(lines):
                index += 1
                line = line[:-1] + lines[index]
            index += 1
            if not line.startswith(_COMMAND):
                continue
            argv = shlex.split(line[len(_COMMAND):], comments=True)
            if argv[-1:] == ["&"]:
                argv.pop()
            commands.append((start + offset, argv))
    return commands


def _check_commands(path: Path, text: str) -> list[DocProblem]:
    """Every documented command must parse and pass the ``run`` rail table."""
    from repro.cli import build_parser, check_run_flags

    parser = build_parser()
    problems = []
    for line, argv in _documented_commands(text):
        stderr = io.StringIO()
        try:
            with contextlib.redirect_stderr(stderr):
                args = parser.parse_args(argv)
            if args.command == "run" and not args.list_ecosystems:
                if args.resume is not None:
                    sharded = args.resume.suffix == ".wal"
                else:
                    sharded = args.scale is not None
                check_run_flags(args, sharded)
        except SystemExit as error:
            lines = stderr.getvalue().strip().splitlines()
            message = lines[-1] if lines else str(error.code)
            problems.append(
                DocProblem(
                    path, line, f"documented command fails: {message}"
                )
            )
    return problems


def _public_defs(body, prefix=""):
    """``(node, qualified_name)`` for every public def/class, recursively."""
    for node in body:
        if not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        if node.name.startswith("_"):
            continue
        yield node, f"{prefix}{node.name}"
        if isinstance(node, ast.ClassDef):
            yield from _public_defs(node.body, prefix=f"{node.name}.")


def check_api_docstrings(src_root: Path) -> list[DocProblem]:
    """Every public symbol under ``src_root`` must carry a docstring."""
    problems = []
    for source in sorted(src_root.rglob("*.py")):
        if any(part.startswith("_") for part in source.relative_to(src_root).parts):
            continue
        tree = ast.parse(source.read_text(encoding="utf-8"), filename=str(source))
        if ast.get_docstring(tree) is None:
            problems.append(DocProblem(source, 1, "module has no docstring"))
        for node, name in _public_defs(tree.body):
            if ast.get_docstring(node) is None:
                kind = "class" if isinstance(node, ast.ClassDef) else "function"
                problems.append(
                    DocProblem(
                        source,
                        node.lineno,
                        f"public {kind} `{name}` has no docstring",
                    )
                )
    return problems


def check_bench_tables(root: Path) -> list[DocProblem]:
    """Marker-delimited bench tables must match their committed dumps.

    For every table registered in :func:`repro.reporting.benchtables.
    bench_tables`: when the dump it cites is committed (a fresh checkout
    without bench results is fine) and carries the table's section, the
    doc must carry the markers and the text between them must equal the
    renderer's output byte for byte.  Anything else — hand-edited rows,
    a bench rerun that forgot the doc, markers deleted in a rewrite —
    is reported with the command that regenerates the table.
    """
    import json

    from repro.reporting.benchtables import bench_tables, table_in_doc

    problems = []
    for table in bench_tables():
        results = root / table.results
        doc = root / table.doc
        if not results.exists():
            continue
        try:
            payload = json.loads(results.read_text(encoding="utf-8"))
        except json.JSONDecodeError as error:
            problems.append(
                DocProblem(results, 0, f"bench dump is not valid JSON: {error}")
            )
            continue
        if table.section not in payload:
            # An incomplete dump is the bench checker's problem
            # (tools/check_bench.py), not a docs-freshness one.
            continue
        if not doc.exists():
            problems.append(
                DocProblem(
                    doc, 0, f"bench table {table.key!r} registered but doc missing"
                )
            )
            continue
        text = doc.read_text(encoding="utf-8")
        current = table_in_doc(table, text)
        if current is None:
            problems.append(
                DocProblem(
                    doc,
                    0,
                    f"bench table {table.key!r} has no markers "
                    f"({table.begin} … {table.end}) but {table.results} "
                    f"carries a {table.section!r} section to render",
                )
            )
            continue
        if current != table.render(payload):
            line = text[: text.index(table.begin)].count("\n") + 1
            problems.append(
                DocProblem(
                    doc,
                    line,
                    f"bench table {table.key!r} is stale against "
                    f"{table.results}; rerun `PYTHONPATH=src python -m pytest "
                    "benchmarks/bench_shard_scale.py` to regenerate it",
                )
            )
    return problems


def check_file(
    path: Path, cli_flags: frozenset[str] | None = None
) -> list[DocProblem]:
    """Every problem in one markdown file (examples, links, flag drift,
    documented commands)."""
    text = path.read_text(encoding="utf-8")
    problems = _check_links(path, text)
    if cli_flags is None:
        cli_flags = known_cli_flags()
    problems.extend(_check_cli_flags(path, text, cli_flags))
    problems.extend(_check_commands(path, text))
    for line, lang, body, skipped in extract_fenced_blocks(text):
        if lang != "python" or skipped:
            continue
        problems.extend(_check_python_block(path, line, body))
    return sorted(problems, key=lambda p: p.line)


def main(argv: list[str] | None = None) -> int:
    """Check the named markdown files (default: README + docs/) and the API."""
    root = Path(__file__).resolve().parent.parent
    if str(root / "src") not in sys.path:
        sys.path.insert(0, str(root / "src"))  # plain `python tools/check_docs.py`
    args = sys.argv[1:] if argv is None else list(argv)
    if not args:
        args = [str(root / "README.md")] + sorted(
            str(p) for p in (root / "docs").glob("*.md")
        )
    flags = known_cli_flags()
    problems: list[DocProblem] = []
    for name in args:
        path = Path(name)
        if not path.exists():
            problems.append(DocProblem(path, 0, "file does not exist"))
            continue
        problems.extend(check_file(path, cli_flags=flags))
    api_problems = check_api_docstrings(root / "src" / "repro")
    problems.extend(api_problems)
    problems.extend(check_bench_tables(root))
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        print(f"{len(problems)} documentation problem(s)", file=sys.stderr)
        return 1
    print(
        f"docs ok: {len(args)} file(s) checked, "
        "public API fully docstringed, no CLI-flag drift, "
        "documented commands parse, bench tables fresh"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
