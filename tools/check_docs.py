#!/usr/bin/env python
"""Docs consistency check: dead links, phantom metric names, stale CLI examples.

Three classes of documentation rot, all cheap to catch mechanically:

1. **Dead relative links** — every ``[text](path)`` markdown link whose
   target is a relative path must point at a file or directory that
   exists in the repo (anchors and external ``scheme://`` links are
   skipped; an anchor suffix on a file link is stripped before the
   existence check).
2. **Phantom metric names** — EXPERIMENTS.md carries the metric-name
   catalog.  Every backticked series name that looks like a metric
   (``fleet.pending``, ``k8s.pod.start_seconds.p99`` …) must literally
   appear somewhere under ``src/`` — either whole, or, for derived
   suffixes (``.rate`` / ``.p50`` / ``.p99``) and the ``sim.*`` bridge
   prefix, as its base series.  This keeps the catalog honest when a
   series is renamed or removed.
3. **Stale CLI examples** — every ``python -m repro …`` command inside a
   fenced code block of a top-level ``*.md`` file must parse with
   ``repro.cli.build_parser()`` (a line ending in ``\`` continues onto
   the next; comments and shell redirections are dropped), so a flag
   that is renamed or removed fails the build instead of the reader.

Exit status: 0 clean, 1 with findings (one line each on stderr).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import pathlib
import re
import shlex
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

DOCS = sorted(REPO.glob("*.md"))

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
CODE_SPAN_RE = re.compile(r"`([^`]+)`")
#: backticked tokens that are metric series: dotted lowercase path, at
#: least one dot, no spaces/parens/braces (label examples are skipped)
METRIC_RE = re.compile(r"^[a-z][a-z0-9_]*(?:\.[a-z0-9_]+)+$")
#: sampler-derived suffixes that never appear literally in src
DERIVED_SUFFIXES = (".rate", ".p50", ".p99")


def iter_links(text: str):
    for match in LINK_RE.finditer(text):
        target = match.group(1)
        if "://" in target or target.startswith(("#", "mailto:")):
            continue
        yield target.split("#", 1)[0]


def check_links() -> list[str]:
    problems = []
    for doc in DOCS:
        for target in iter_links(doc.read_text()):
            if not target:
                continue
            resolved = (doc.parent / target).resolve()
            if not resolved.exists():
                problems.append(f"{doc.name}: dead link -> {target}")
    return problems


def metric_names(text: str) -> set[str]:
    names = set()
    for span in CODE_SPAN_RE.findall(text):
        for token in span.split(" / "):
            token = token.strip()
            # `repro.…` tokens are module paths, not series names
            if METRIC_RE.match(token) and not token.startswith("repro."):
                names.add(token)
    return names


def check_metrics() -> list[str]:
    catalog = REPO / "EXPERIMENTS.md"
    text = catalog.read_text()
    # only audit the catalog section: names elsewhere in the file may be
    # module paths (repro.obs.slo) rather than series names
    start = text.find("### Metric-name catalog")
    if start < 0:
        return ["EXPERIMENTS.md: metric-name catalog section not found"]
    end = text.find("### Summary", start)
    section = text[start:end if end > 0 else len(text)]

    src = "\n".join(
        p.read_text() for p in sorted((REPO / "src").rglob("*.py"))
    )
    problems = []
    for name in sorted(metric_names(section)):
        candidates = [name]
        for suffix in DERIVED_SUFFIXES:
            if name.endswith(suffix):
                candidates.append(name[: -len(suffix)])
        if name.startswith("sim."):
            candidates.append(name[len("sim."):])
        if name.endswith(".*"):
            candidates.append(name[:-2])
        if not any(f'"{c}"' in src or f"'{c}'" in src for c in candidates):
            problems.append(
                f"EXPERIMENTS.md: catalog series `{name}` not found in src/"
            )
    return problems


FENCE_RE = re.compile(r"^```.*?$(.*?)^```", re.M | re.S)
CLI_PREFIX = "python -m repro "
#: shell tokens that end the CLI's argv
SHELL_OPS = {">", ">>", "2>", "|", "&&", "||", ";", "<"}


def cli_examples(text: str):
    """``python -m repro`` argv lists from the fenced blocks of ``text``."""
    for block in FENCE_RE.findall(text):
        lines = block.splitlines()
        for i, line in enumerate(lines):
            start = line.find(CLI_PREFIX)
            if start < 0 or not all("=" in tok for tok in line[:start].split()):
                continue  # only env assignments may precede the command
            command = line[start + len(CLI_PREFIX):]
            while command.rstrip().endswith("\\") and i + 1 < len(lines):
                i += 1
                command = command.rstrip()[:-1] + " " + lines[i]
            argv = shlex.split(command, comments=True)
            cut = [j for j, tok in enumerate(argv) if tok in SHELL_OPS]
            yield argv[:cut[0]] if cut else argv


def check_cli_examples() -> list[str]:
    from repro.cli import build_parser

    parser = build_parser()
    # exact flag names only: an example must not pass by abbreviating a flag
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for verb in action.choices.values():
                verb.allow_abbrev = False
    problems = []
    for doc in DOCS:
        for argv in cli_examples(doc.read_text()):
            err = io.StringIO()
            try:
                with contextlib.redirect_stderr(err):
                    parser.parse_args(argv)
            except SystemExit:
                reason = err.getvalue().strip().splitlines()[-1:] or ["?"]
                problems.append(f"{doc.name}: `python -m repro {shlex.join(argv)}` "
                                f"does not parse: {reason[0]}")
    return problems


def main() -> int:
    problems = check_links() + check_metrics() + check_cli_examples()
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        print(f"{len(problems)} docs problem(s)", file=sys.stderr)
        return 1
    print(f"docs OK: {len(DOCS)} files, links + metric catalog + CLI examples verified")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
