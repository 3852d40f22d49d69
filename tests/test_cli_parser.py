"""The CLI's argument contract, pinned by a golden.

``golden_cli_parser.json`` records, for the top-level parser and every
subcommand, each action's option strings, dest, default, choices,
nargs, const, required flag and type name — everything a caller can
observe except the help text.  It was captured before the parser was
rebuilt from shared argument groups, so any flag, default or choice
that changes shows up here.  Regenerate with
``PYTHONPATH=src python tests/test_cli_parser.py``.
"""

import argparse
import json
from pathlib import Path

import pytest

from repro.cli import build_parser

GOLDEN = Path(__file__).with_name("golden_cli_parser.json")

#: deliberate contract changes since the golden was captured, as
#: ``(subcommand, option) -> {field: new value}``.  ``--stragglers`` is
#: parsed by an argparse type, so a malformed list is a usage error
#: instead of a traceback.
CHANGED = {
    ("profile", "--stragglers"): {"type": "_float_list"},
}


def _jsonable(value):
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def _action_spec(action: argparse.Action) -> dict:
    if isinstance(action, argparse._SubParsersAction):
        choices = sorted(action.choices)
    else:
        choices = _jsonable(action.choices)
    return {
        "option_strings": list(action.option_strings),
        "dest": action.dest,
        "default": _jsonable(action.default),
        "choices": choices,
        "nargs": action.nargs,
        "const": _jsonable(action.const),
        "required": action.required,
        "type": getattr(action.type, "__name__", None),
    }


def _parser_spec(parser: argparse.ArgumentParser) -> dict:
    """Positionals in order; optionals keyed by their first flag."""
    positionals = []
    optionals = {}
    for action in parser._actions:
        spec = _action_spec(action)
        if action.option_strings:
            optionals[action.option_strings[0]] = spec
        else:
            positionals.append(spec)
    return {"positionals": positionals, "optionals": optionals}


def cli_spec() -> dict:
    parser = build_parser()
    spec = {"": _parser_spec(parser)}
    sub = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    for name, sp in sub.choices.items():
        spec[name] = _parser_spec(sp)
    return spec


def _expected() -> dict:
    golden = json.loads(GOLDEN.read_text())
    for (command, flag), fields in CHANGED.items():
        golden[command]["optionals"][flag].update(fields)
    return golden


@pytest.fixture(scope="module")
def spec():
    return cli_spec()


def test_same_subcommands(spec):
    assert sorted(spec) == sorted(_expected())


@pytest.mark.parametrize("command", sorted(cli_spec()))
def test_subcommand_arguments_match_golden(spec, command):
    expected = _expected().get(command)
    assert expected is not None, f"no golden entry for {command!r}"
    got = spec[command]
    assert got["positionals"] == expected["positionals"]
    assert sorted(got["optionals"]) == sorted(expected["optionals"])
    for flag, want in expected["optionals"].items():
        assert got["optionals"][flag] == want, (command, flag)


if __name__ == "__main__":  # pragma: no cover - golden regeneration
    print(json.dumps(cli_spec(), indent=2, sort_keys=True))
