"""The README's examples run as written."""

import re
import shlex
from pathlib import Path

from halflap.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _blocks(lang, text=README):
    return re.findall(rf"^```{lang}\n(.*?)^```$", text, flags=re.DOTALL | re.MULTILINE)


def test_library_quick_start_runs():
    code = _blocks("python", README.split("## Library quick start", 1)[1])[0]
    exec(compile(code, "README.md", "exec"), {})


def test_command_line_examples_exit_0(tmp_path):
    commands = [
        shlex.split(line)[1:]
        for block in _blocks("sh")
        for line in block.splitlines()
        if line.startswith("halflap ")
    ]
    assert commands
    for i, argv in enumerate(commands):
        assert main(argv + ["--output", str(tmp_path / f"{i}.out")]) == 0, argv


def test_config_file_example_parses(tmp_path):
    (block,) = _blocks("ini")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(block)
    assert main(["solve", "--config", str(cfg), "--output", str(tmp_path / "out.json")]) == 0
