"""Documentation gates: link integrity, command drift, cli.md drift.

Docs rot in three ways: relative links break when files move, quoted
``repro ...`` examples drift when flags are renamed, and the generated
CLI reference goes stale when the argparse tree changes.  Each gets a
mechanical check here (no network — external URLs are not fetched).
"""

from __future__ import annotations

import argparse
import pathlib
import re
import shlex

import pytest

from repro.cli import build_parser
from repro.docs import render_cli_markdown

REPO = pathlib.Path(__file__).resolve().parent.parent
DOC_FILES = sorted(
    [REPO / "README.md", *(REPO / "docs").glob("*.md")],
    key=lambda p: p.name,
)

LINK_RE = re.compile(r"(?<!!)\[[^\]]+\]\(([^)\s]+)\)")
FENCE_RE = re.compile(r"```.*?```", re.S)
HEADING_RE = re.compile(r"^#+\s+(.*)$", re.M)


def github_slug(heading: str) -> str:
    """GitHub's anchor slug: lowercase, spaces to hyphens, drop the rest."""
    text = re.sub(r"`([^`]*)`", r"\1", heading.strip())
    text = text.lower().replace(" ", "-")
    return re.sub(r"[^a-z0-9_-]", "", text)


def _anchors(path: pathlib.Path) -> set[str]:
    return {github_slug(h) for h in HEADING_RE.findall(path.read_text())}


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: p.name)
def test_markdown_links_resolve(doc):
    text = FENCE_RE.sub("", doc.read_text())
    problems = []
    for target in LINK_RE.findall(text):
        if target.startswith(("http://", "https://", "mailto:")):
            continue  # external: not fetched (no network in CI)
        path_part, _, anchor = target.partition("#")
        resolved = (
            doc if not path_part else (doc.parent / path_part).resolve()
        )
        if not resolved.exists():
            problems.append(f"{target}: {resolved} does not exist")
            continue
        if anchor and resolved.suffix == ".md":
            if github_slug(anchor) not in _anchors(resolved):
                problems.append(f"{target}: no heading for #{anchor}")
    assert not problems, f"{doc.name}: " + "; ".join(problems)


# ----------------------------------------------------------------------
# Quoted `repro ...` commands must parse against the real CLI
# ----------------------------------------------------------------------
COMMAND_RE = re.compile(
    r"^\s*(?:PYTHONPATH=\S+\s+)?(?:python\s+-m\s+repro|repro)\s+(.+?)\s*(?:#.*)?$"
)


def _quoted_commands(doc: pathlib.Path) -> list[str]:
    """Every ``repro ...`` invocation in the file's fenced code blocks."""
    found = []
    for block in re.findall(r"```(?:bash|sh|console)?\n(.*?)```", doc.read_text(), re.S):
        for line in block.splitlines():
            m = COMMAND_RE.match(line)
            if m and "<" not in m.group(1):  # skip placeholder examples
                found.append(m.group(1))
    return found


def _apply_trace_sugar(argv: list[str]) -> list[str]:
    # Mirror repro.cli.main's `repro trace <scenario>` shorthand.
    if "trace" in argv:
        i = argv.index("trace")
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if nxt is not None and nxt not in (
            "run", "synth2019", "stats", "-h", "--help",
        ):
            argv = argv[: i + 1] + ["run"] + argv[i + 1 :]
    return argv


class _QuietParserError(Exception):
    pass


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: p.name)
def test_quoted_repro_commands_parse(doc, monkeypatch):
    parser = build_parser()
    # argparse exits on error; turn that into an assertable exception.
    monkeypatch.setattr(
        argparse.ArgumentParser,
        "error",
        lambda self, message: (_ for _ in ()).throw(_QuietParserError(message)),
    )
    failures = []
    for command in _quoted_commands(doc):
        argv = _apply_trace_sugar(shlex.split(command))
        try:
            parser.parse_args(argv)
        except _QuietParserError as exc:
            failures.append(f"`repro {command}`: {exc}")
    assert not failures, f"{doc.name} quotes stale commands: " + "; ".join(failures)


def test_readme_and_docs_quote_commands_at_all():
    # The drift gate is vacuous if extraction silently finds nothing.
    total = sum(len(_quoted_commands(d)) for d in DOC_FILES)
    assert total >= 5


# ----------------------------------------------------------------------
# docs/cli.md is generated: committed bytes must match the emitter
# ----------------------------------------------------------------------
def test_cli_reference_matches_argparse_tree():
    committed = (REPO / "docs" / "cli.md").read_text()
    assert committed == render_cli_markdown(), (
        "docs/cli.md is stale; regenerate with "
        "`python -m repro docs-cli --output docs/cli.md`"
    )


def test_cli_reference_covers_every_subcommand():
    rendered = render_cli_markdown()
    for action in build_parser()._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name in action.choices:
                assert f"## `repro {name}`" in rendered
