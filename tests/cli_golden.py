"""CLI goldens: transcripts of ``main(argv)`` and every verb's options.

``tests/fixtures/cli-transcripts.json`` holds the stdout, stderr and exit
code of in-process :func:`repro.__main__.main` for each case in
:data:`CASES`, run in order against one scratch artifact directory
(written, then resumed).  The directory's path reads ``<OUT>`` and
wall-time fields read ``<WALL>``, so a transcript is the same on every
machine.  ``tests/fixtures/cli-parser.json`` records each verb's options
(flags, dest, default, type name, choices, nargs) in parser order.

Both files pin behaviour a CLI change must keep.  Regenerate them only
from the code *before* such a change (a clean checkout of the parent
commit), never from the change itself::

    PYTHONPATH=src python -m tests.cli_golden
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

FIXTURES = Path(__file__).parent / "fixtures"
TRANSCRIPTS = FIXTURES / "cli-transcripts.json"
PARSER = FIXTURES / "cli-parser.json"

#: Placeholder for the scratch artifact directory in argv and output.
OUT = "<OUT>"

_CHAOS = ["chaos", "--scaled", "8", "4", "4", "--seed", "0", "--hours", "48",
          "--failure-scale", "200", "--out", OUT]
_CONGEST = ["congest", "--scaled", "8", "4", "4", "--seed", "0",
            "--k", "10,60", "--horizon-us", "150", "--out", OUT]

#: (name, argv); ``<OUT>`` in argv is the scratch directory.  Order
#: matters: a repeated artifact run resumes what the earlier one wrote.
CASES: list[tuple[str, list[str]]] = [
    *((verb, [verb]) for verb in ("specs", "storage", "stream", "gpcnet",
                                  "apps", "scorecard", "software",
                                  "evaluate")),
    ("compare", ["compare"]),
    ("compare-json", ["compare", "--json"]),
    ("scenario-scaled", ["scenario", "--scaled", "8", "4", "4"]),
    ("scenario-out", ["scenario", "--scaled", "6", "4", "4",
                      "--out", f"{OUT}/small.json"]),
    ("mpigraph-spec", ["mpigraph", "--spec", f"{OUT}/small.json",
                       "--bins", "8"]),
    ("mpigraph-analytic", ["mpigraph", "--bins", "8"]),
    ("chaos-written", _CHAOS),
    ("chaos-resumed", _CHAOS),
    ("chaos-json", [*_CHAOS, "--json"]),
    ("chaos-heal", [*_CHAOS, "--heal"]),
    ("chaos-validate", ["chaos", "--validate"]),
    ("congest-written", _CONGEST),
    ("congest-resumed", _CONGEST),
    ("congest-json", [*_CONGEST, "--json"]),
    ("congest-backoffs", [*_CONGEST, "--backoffs", "0.25,0.75"]),
    ("congest-validate", ["congest", "--validate"]),
    ("sweep-list", ["sweep", "--axis", "disabled_nodes=0,1", "--probe",
                    "storage", "--workers", "0", "--out", OUT, "--list"]),
    ("query-local", ["query", "--local", "--probe", "storage",
                     "--scaled", "6", "4", "4"]),
    ("query-local-json", ["query", "--local", "--probe", "storage",
                          "--scaled", "6", "4", "4", "--json"]),
    # one-line errors (exit 2)
    ("error-spec-typo", ["chaos", "--spec", f"{OUT}/typo.json"]),
    ("error-spec-cut", ["congest", "--spec", f"{OUT}/cut.json"]),
    ("error-spec-absent", ["scenario", "--spec", f"{OUT}/absent.json"]),
    ("error-sweep-spec", ["sweep", "--spec", f"{OUT}/cut.json"]),
    ("error-backoffs", [*_CONGEST, "--backoffs", "1.5"]),
    ("error-fanin", ["congest", "--fanin", "0"]),
    ("error-k", ["congest", "--k", "0"]),
    ("error-hours", ["chaos", "--hours", "-1"]),
    ("error-family", ["compare", "--families", "elcap"]),
    ("error-axis", ["sweep", "--axis", "scale", "--workers", "0",
                    "--out", OUT]),
    ("error-probe", ["sweep", "--probe", "frobnicate", "--workers", "0",
                     "--out", OUT]),
    ("error-query-family", ["query", "--local", "--family", "nope"]),
    ("error-query-both", ["query", "--local", "--spec", "x.json",
                          "--family", "summit"]),
]

_WALL = [(re.compile(r"probe wall: [0-9.]+s"), "probe wall: <WALL>s"),
         (re.compile(r'"wall_time_s": ?[0-9.e+-]+'), '"wall_time_s": <WALL>')]


def _mask(text: str, out_dir: str) -> str:
    text = text.replace(out_dir, OUT)
    for pattern, repl in _WALL:
        text = pattern.sub(repl, text)
    return text


def run_case(argv: list[str], out_dir: str) -> dict:
    """stdout, stderr and exit code of ``main(argv)``, masked."""
    from repro.__main__ import main
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([a.replace(OUT, out_dir) for a in argv])
        except SystemExit as exc:
            code = exc.code
    return {"argv": argv, "exit": code,
            "stdout": _mask(out.getvalue(), out_dir),
            "stderr": _mask(err.getvalue(), out_dir)}


def transcripts() -> dict[str, dict]:
    """Every case of :data:`CASES`, run in order in one scratch directory."""
    with tempfile.TemporaryDirectory() as out_dir:
        Path(out_dir, "typo.json").write_text(
            json.dumps({"degradation": {"typo_scale": 2.0}}))
        Path(out_dir, "cut.json").write_text('{"name": ')
        return {name: run_case(argv, out_dir) for name, argv in CASES}


def _type_name(kind) -> str | None:
    return None if kind is None else getattr(kind, "__name__", repr(kind))


def parser_options() -> dict:
    """The verbs in parser order, and each verb's options (``-h`` aside)
    in the order its usage line lists them.  Positionals are not options:
    ``trace``/``metrics`` take a verb there."""
    from repro.__main__ import build_parser
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    doc: dict = {"verbs": list(sub.choices), "options": {}}
    for verb, parser in sub.choices.items():
        doc["options"][verb] = [
            {"flags": list(a.option_strings), "dest": a.dest,
             "default": a.default, "type": _type_name(a.type),
             "choices": None if a.choices is None else list(a.choices),
             "nargs": a.nargs}
            for a in parser._actions
            if a.option_strings and not isinstance(a, argparse._HelpAction)]
    return doc


def _dump(doc) -> str:
    return json.dumps(doc, indent=1, sort_keys=True, ensure_ascii=False) + "\n"


if __name__ == "__main__":
    TRANSCRIPTS.write_text(_dump(transcripts()))
    PARSER.write_text(_dump(parser_options()))
    print(f"wrote {TRANSCRIPTS} and {PARSER}")
