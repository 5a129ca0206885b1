"""The OCaml runtime's exit report under OCAMLRUNPARAM=v=0x400.

At exit the runtime prints `name: value` lines (allocated_words,
minor_words, promoted_words, major_words, minor_collections, ...) on
stderr. The benchmark reads allocation from them, so the simulator
needs no instrumentation of its own."""

import re

ENV_SETTING = "v=0x400"
_LINE = re.compile(r"^([a-z_]+):\s+(-?[0-9]+(?:\.[0-9]+)?)\s*$")


def parse(stderr_text):
    """Every `name: number` line of the report, as floats."""
    out = {}
    for line in stderr_text.splitlines():
        m = _LINE.match(line.strip())
        if m:
            out[m.group(1)] = float(m.group(2))
    return out


def allocated_words(stderr_text):
    """Words allocated over the process's life; raises if the report is missing."""
    report = parse(stderr_text)
    if "allocated_words" not in report:
        raise ValueError("no OCAMLRUNPARAM=v=0x400 report in the process's stderr")
    return report["allocated_words"]
