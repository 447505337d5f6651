"""The README's shell blocks name only commands and flags the CLI has: every
`vampcf ...` line parses with the real parser, every documented `vampcf
train` line names a shipped config file and real config keys, and no line
runs a package module other than `vampcf` itself. Its Library use block
runs as written on the quickstart's ratings."""
import re
import shlex
from pathlib import Path

import pytest

from vampcf.cli import build_parser
from vampcf.config import SECTIONS, load_config
from vampcf.metrics import evaluate
from vampcf.synthetic import archetype_interactions, write_ratings_csv

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"

# Tokens after which the rest of a line belongs to the shell, not to vampcf.
SHELL_BREAKS = {">", ">>", "|", "&&", ";"}


def shell_lines():
    """The logical lines of the README's ```sh blocks, continuation lines
    (ending in a backslash) joined."""
    lines, in_block, pending = [], False, ""
    for raw in README.read_text(encoding="utf-8").splitlines():
        if raw.strip() in ("```sh", "```"):
            in_block = raw.strip() == "```sh"
            continue
        if not in_block:
            continue
        if raw.endswith("\\"):
            pending += raw[:-1] + " "
            continue
        lines.append((pending + raw).strip())
        pending = ""
    return lines


def vampcf_argv(line):
    """The arguments after `vampcf`, shell variables left as literal text."""
    argv = []
    for token in shlex.split(line, comments=True)[1:]:
        if token in SHELL_BREAKS:
            break
        argv.append(token)
    return argv


COMMANDS = [line for line in shell_lines() if line.startswith("vampcf ")]


def test_readme_documents_every_subcommand():
    documented = {vampcf_argv(line)[0] for line in COMMANDS}
    assert documented == {"synthetic", "prepare", "train", "eval",
                          "recommend", "gradcheck"}


@pytest.mark.parametrize("line", COMMANDS)
def test_documented_command_parses(line):
    build_parser().parse_args(vampcf_argv(line))


TRAIN_LINES = [line for line in COMMANDS if vampcf_argv(line)[0] == "train"]


@pytest.mark.parametrize("line", TRAIN_LINES)
def test_documented_train_config_loads(line):
    args = build_parser().parse_args(vampcf_argv(line))
    if args.config is not None:
        assert (ROOT / args.config).is_file(), args.config
    for item in args.set:
        section, _, name = item.partition("=")[0].partition(".")
        assert name.lower() in SECTIONS.get(section, {}), item
    # A value such as $k is the shell's to fill in; the rest must load.
    if not any("$" in item for item in args.set):
        config = None if args.config is None else str(ROOT / args.config)
        load_config(config, args.set)


def test_no_line_runs_a_package_module():
    modules = [line for line in shell_lines()
               if re.search(r"python3?\s+-m\s+vampcf\.", line)]
    assert not modules, f"README runs a module instead of the CLI: {modules}"


def python_blocks():
    """The bodies of the README's ```python blocks."""
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                      flags=re.DOTALL | re.MULTILINE)


def test_library_use_block_runs_and_beats_popularity(tmp_path, monkeypatch):
    (block,) = python_blocks()
    monkeypatch.chdir(tmp_path)
    # The ratings of the quickstart's `vampcf synthetic` line.
    write_ratings_csv(archetype_interactions(1200, 300, 3, seed=0), "ratings.csv")
    ns = {}
    exec(compile(block, "README.md", "exec"), ns)
    popularity = evaluate(ns["ds"].test_users, ns["baseline"], ks=[10])
    assert ns["report"].row("ndcg", 10).mean > popularity.row("ndcg", 10).mean
