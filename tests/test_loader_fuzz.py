"""Whatever bytes an input file holds, only the package's own errors escape
the loaders, so the CLI can map each one to exit code 2 and a message."""

import copy
import json
from importlib import resources

import pytest
from conftest import GOLDEN_DIR, SCENARIO_DIR
from hypothesis import given, settings
from hypothesis import strategies as st

from timeloops import catalog
from timeloops.cli import main
from timeloops.errors import ParseError, TimeloopsError
from timeloops.policy import load_log, load_policy, replay_log
from timeloops.simruntime import load_scenario


def _load_and_replay_log(path):
    """A log that loads either replays or raises a package error."""
    return replay_log(load_log(path))


LOADERS = {
    "scenario": load_scenario,
    "log": _load_and_replay_log,
    "policy": load_policy,
    "fixture": catalog.load_fixture,
}
# One valid file per loader; a JSON-lines log is one document per line.
VALID = {
    "scenario": [json.loads((SCENARIO_DIR / "staticsite_attacks.json").read_text())],
    "log": [json.loads(line) for line in
            (GOLDEN_DIR / "simulate" / "pretrain" / "policy.log").read_text().splitlines()],
    "policy": [{"final_policy": {"allow": ["read", "write"], "deny": ["mount"], "epoch": 2}}],
    "fixture": (resources.files("timeloops.data") / catalog.DEFAULT_FIXTURE).read_text("utf-8"),
}
# Byte strings a blind mutation rarely makes: tokens that change a value's
# type or range, invalid UTF-8, and nesting.
TOKENS = [b"[", b"]", b"{", b"}", b'"', b",", b"null", b"true", b"-1", b"1e999",
          b"Infinity", b"NaN", b"9" * 400, b"9" * 5000, b"[[]]", b"{}", b"\xff",
          b"\xc3", b"\x00", b"\n", b"\r", b'"\\ud800"', b"CVE-", b"[" * 3000]
# Values of every JSON type, out-of-range numbers and non-finite floats.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from([10**400, -1, 0, "read", "oracle_detectable", "pretrain"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6,
)
# Each was seen to escape a loader as a bare Python exception.
KNOWN_BAD = {
    "non_utf8": b'{"services": ["\xff\xfe"]}',
    "deep": b"[" * 100_000,
    "long_field": b'"' + b"a" * 200_000,
}
# The fields that hold arrays of syscall names, at any depth.
NAME_ARRAYS = ("added", "allow", "deny", "trace", "injected")
# None is an array of valid syscall names; a string was once taken as its
# characters and a map as its keys, and a name with a final line break was
# once valid.
NOT_NAME_LISTS = ["adr", [[1]], [1], ["Read"], {"read": 1}, None, ["read\n"]]


def _rendered(kind):
    if kind == "fixture":
        return VALID[kind].encode()
    return "\n".join(json.dumps(doc) for doc in VALID[kind]).encode()


@st.composite
def byte_mutations(draw, valid):
    data = bytearray(valid)
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        at = draw(st.integers(min_value=0, max_value=len(data)))
        op = draw(st.sampled_from(("replace", "insert", "delete", "truncate")))
        piece = draw(st.sampled_from(TOKENS) | st.binary(min_size=1, max_size=8))
        if op == "replace":
            data[at:at + len(piece)] = piece
        elif op == "insert":
            data[at:at] = piece
        elif op == "delete":
            del data[at:at + draw(st.integers(min_value=1, max_value=16))]
        else:
            del data[at:]
    return bytes(data)


def _replace_one(draw, node, value):
    """``node`` with ``value`` in place of itself or of one member at any depth."""
    if not isinstance(node, (dict, list)) or not node \
            or draw(st.integers(min_value=0, max_value=3)) == 0:
        return value
    key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
    node = node.copy()
    node[key] = _replace_one(draw, node[key], value)
    return node


@st.composite
def value_mutations(draw, docs):
    """The documents with one value, anywhere in one of them, replaced."""
    docs = list(docs)
    at = draw(st.integers(min_value=0, max_value=len(docs) - 1))
    docs[at] = _replace_one(draw, docs[at], draw(JSON_VALUES))
    return "\n".join(json.dumps(doc) for doc in docs).encode()


def _name_arrays(node):
    """Each non-empty array of syscall names within ``node``, at any depth."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key in NAME_ARRAYS and isinstance(value, list) and value:
                yield value
            else:
                yield from _name_arrays(value)
    elif isinstance(node, list):
        for value in node:
            yield from _name_arrays(value)


def _line_broken(name):
    """The valid name ``name`` with a line break after it."""
    return st.just(name + "\n")


def _any_item(name):
    return JSON_VALUES | _line_broken(name)


@st.composite
def item_mutations(draw, docs, replace=_any_item):
    """The documents with one item of one array of syscall names replaced by
    a value ``replace`` draws for it, and the array's other items kept or
    dropped: among other names, a bad item can be caught by a sort or a
    comparison before it is checked."""
    docs = copy.deepcopy(docs)
    names = draw(st.sampled_from([array for doc in docs for array in _name_arrays(doc)]))
    at = draw(st.integers(min_value=0, max_value=len(names) - 1))
    names[at] = draw(replace(names[at]))
    if draw(st.booleans()):
        names[:] = names[at:at + 1]
    return "\n".join(json.dumps(doc) for doc in docs).encode()


@settings(max_examples=600, deadline=None)
@given(data=st.data(), kind=st.sampled_from(sorted(LOADERS)))
def test_only_package_errors_escape_the_loaders(tmp_path_factory, data, kind):
    inputs = st.binary(max_size=64) | byte_mutations(_rendered(kind))
    if kind != "fixture":
        inputs |= value_mutations(VALID[kind]) | item_mutations(VALID[kind])
    path = tmp_path_factory.getbasetemp() / f"fuzz_{kind}"
    path.write_bytes(data.draw(inputs))
    try:
        LOADERS[kind](path)
    except TimeloopsError:
        pass


@settings(max_examples=100, deadline=None)
@given(data=st.data(), kind=st.sampled_from(sorted(set(LOADERS) - {"fixture"})))
def test_a_name_with_a_final_line_break_is_parse_error(tmp_path_factory, data, kind):
    path = tmp_path_factory.getbasetemp() / f"line_break_{kind}"
    path.write_bytes(data.draw(item_mutations(VALID[kind], _line_broken)))
    with pytest.raises(ParseError):
        LOADERS[kind](path)


@pytest.mark.parametrize("kind", sorted(LOADERS))
@pytest.mark.parametrize("bad", sorted(KNOWN_BAD))
def test_undecodable_or_deeply_nested_input_is_parse_error(tmp_path, kind, bad):
    path = tmp_path / "input"
    path.write_bytes(KNOWN_BAD[bad])
    with pytest.raises(ParseError):
        LOADERS[kind](path)


@pytest.mark.parametrize("bad", sorted(KNOWN_BAD))
def test_simulate_exits_2_on_bad_bytes(tmp_path, capsys, bad):
    path = tmp_path / "scenario.json"
    path.write_bytes(KNOWN_BAD[bad])
    assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("names", NOT_NAME_LISTS, ids=repr)
def test_log_entry_adds_only_an_array_of_names(tmp_path, names):
    path = tmp_path / "policy.log"
    path.write_text(json.dumps(
        {"epoch": 1, "added": names, "source": "oracle", "timestamp_ms": 0.0}))
    with pytest.raises(ParseError, match="line 1"):
        load_log(path)


@pytest.mark.parametrize("field", ["allow", "deny"])
@pytest.mark.parametrize("names", NOT_NAME_LISTS, ids=repr)
def test_export_seccomp_exits_2_unless_a_policy_lists_names(tmp_path, capsys, field, names):
    path = tmp_path / "policy.json"
    path.write_text(json.dumps({"allow": ["read"], field: names}))
    assert main(["export-seccomp", str(path)]) == 2
    assert "input error" in capsys.readouterr().err
