from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from timeloops.errors import DeniedSyscall, ParseError, ReplayError
from timeloops.policy import (
    LOG_SOURCES,
    PolicyLogEntry,
    SyscallPolicy,
    diff,
    export_seccomp,
    extend,
    growth_entry,
    load_log,
    new_policy,
    replay_log,
    save_log,
)

from conftest import GOLDEN_DIR


def test_new_policy_empty():
    p = new_policy()
    assert p.epoch == 0
    assert p.allow == frozenset()
    assert p.deny == frozenset()


def test_new_policy_denied_syscall_never_allowed():
    p = new_policy({"clock_settime"})
    assert "clock_settime" not in p.allow
    p, _ = extend(p, {"read", "write"})
    assert "clock_settime" not in p.allow
    with pytest.raises(DeniedSyscall):
        extend(p, {"clock_settime"})


def test_podman_style_deny_from_fixture(table):
    from timeloops.catalog import podman_default_deny

    p = new_policy(podman_default_deny(table))
    assert p.deny == {"clock_settime"}
    assert "clock_settime" not in p.allow


def test_extend_disjoint_union():
    p, entry = extend(new_policy(), {"read", "write"}, source="oracle")
    assert p.allow == {"read", "write"}
    assert p.epoch == 1
    assert entry.added == ("read", "write")
    assert entry.source == "oracle"


def test_extend_empty_is_identity():
    p0 = new_policy()
    p, entry = extend(p0, set())
    assert p is p0
    assert entry is None


def test_extend_known_syscalls_is_idempotent():
    p1, _ = extend(new_policy(), {"read"})
    p2, entry = extend(p1, {"read"})
    assert p2 is p1
    assert p2.epoch == 1
    assert entry is None
    assert extend(p1, frozenset({"read"})) == (p1, None)
    assert growth_entry({"read", "write"}, frozenset(), 2, frozenset({"write"})) is None


def test_extend_denied_leaves_policy_unchanged():
    p = new_policy({"clock_settime"})
    with pytest.raises(DeniedSyscall) as excinfo:
        extend(p, {"clock_settime", "read"})
    assert excinfo.value.names == {"clock_settime"}
    assert p.allow == frozenset()
    assert p.epoch == 0


@pytest.mark.parametrize("allowed", [(), ("read", "write")])
@pytest.mark.parametrize(
    "bad", [7, None, ["read"], {"read"}, "Read", "", "read;", frozenset({1}), frozenset({"Bad"})]
)
def test_extend_rejects_a_bad_name_before_a_denied_one(allowed, bad):
    policy, _ = extend(new_policy({"clock_settime"}), allowed)
    with pytest.raises(ParseError):
        extend(policy, ["clock_settime", *allowed, bad])
    with pytest.raises(ParseError):
        extend(policy, [bad, "clock_settime"])
    if type(bad) is frozenset:
        # Passed whole, it takes the subset check first.
        with pytest.raises(ParseError):
            extend(policy, bad | {"clock_settime", *allowed})
        with pytest.raises(ParseError):
            extend(policy, bad | set(allowed))


def test_allows_membership():
    p = new_policy()
    assert "read" not in p.allow
    p, _ = extend(p, {"read"})
    assert "read" in p.allow
    assert "write" not in p.allow


def test_allow_deny_overlap_rejected():
    with pytest.raises(ValueError):
        SyscallPolicy(epoch=0, allow=frozenset({"read"}), deny=frozenset({"read"}))


@given(
    batches=st.lists(
        st.lists(st.sampled_from([f"call_{i}" for i in range(8)]), max_size=4),
        max_size=8,
    ),
    deny=st.sets(st.sampled_from(["deny_a", "deny_b"]), max_size=2),
)
def test_extend_sequences_monotone_and_deny_stable(batches, deny):
    p = new_policy(deny)
    seen_epochs = [p.epoch]
    previous = p
    for batch in batches:
        p, entry = extend(p, batch)
        assert previous.allow <= p.allow
        assert p.deny == frozenset(deny)
        for syscall in deny:
            assert syscall not in p.allow
        if entry is None:
            assert p.allow == previous.allow
            assert p.epoch == previous.epoch
        else:
            assert p.epoch == previous.epoch + 1
            assert set(entry.added) == p.allow - previous.allow
        seen_epochs.append(p.epoch)
        previous = p
    assert seen_epochs == sorted(seen_epochs)


def test_diff_self():
    p, _ = extend(new_policy(), {"read", "write"})
    d = diff(p, p)
    assert d.only_a == frozenset()
    assert d.only_b == frozenset()
    assert d.both == p.allow


def test_diff_fixture_columns(table):
    sysfilter = SyscallPolicy(allow=table.column_policy("nginx-sysfilter"))
    learned = SyscallPolicy(allow=table.column_policy("nginx-timeloops"))
    d = diff(sysfilter, learned)
    assert "chmod" in d.only_a
    assert "times" in d.only_b


@given(
    a=st.sets(st.sampled_from([f"c{i}" for i in range(10)]), max_size=10),
    b=st.sets(st.sampled_from([f"c{i}" for i in range(10)]), max_size=10),
)
def test_diff_partition_properties(a, b):
    pa = SyscallPolicy(allow=frozenset(a))
    pb = SyscallPolicy(allow=frozenset(b))
    d = diff(pa, pb)
    assert d.only_a & d.only_b == frozenset()
    assert d.only_a & d.both == frozenset()
    assert d.only_b & d.both == frozenset()
    assert d.only_a | d.both == pa.allow
    assert d.only_b | d.both == pb.allow


def test_export_empty_policy_matches_golden():
    expected = (GOLDEN_DIR / "profile_empty.json").read_bytes()
    assert export_seccomp(new_policy()) == expected


def test_export_read_write_matches_golden():
    p = SyscallPolicy(epoch=1, allow=frozenset({"read", "write"}))
    expected = (GOLDEN_DIR / "profile_read_write.json").read_bytes()
    assert export_seccomp(p) == expected


def test_export_errno_action_matches_golden():
    p = SyscallPolicy(epoch=1, allow=frozenset({"read", "write"}))
    expected = (GOLDEN_DIR / "profile_errno.json").read_bytes()
    assert export_seccomp(p, default_action="errno") == expected


def test_export_is_deterministic_across_equal_policies():
    p1, _ = extend(new_policy(), {"write", "read"})
    p2, _ = extend(new_policy(), {"read", "write"})
    assert export_seccomp(p1) == export_seccomp(p2)
    assert export_seccomp(p1) == export_seccomp(p1)


def test_export_has_no_trailing_newline_and_sorted_names():
    p, _ = extend(new_policy(), {"write", "accept", "read"})
    raw = export_seccomp(p)
    assert not raw.endswith(b"\n")
    assert b'["accept","read","write"]' in raw


def test_log_round_trip(tmp_path):
    entries = [
        PolicyLogEntry(epoch=1, added=("read",), source="pretrain", timestamp_ms=0.0),
        PolicyLogEntry(epoch=2, added=("openat", "write"), source="oracle", timestamp_ms=12.5),
        PolicyLogEntry(epoch=3, added=("close",), source="oracle", timestamp_ms=99.0),
    ]
    path = tmp_path / "policy.log"
    save_log(entries, path)
    assert load_log(path) == entries


def test_log_key_order_on_disk(tmp_path):
    path = tmp_path / "policy.log"
    save_log([PolicyLogEntry(epoch=1, added=("read",), source="oracle", timestamp_ms=3.0)], path)
    assert path.read_text() == '{"epoch":1,"added":["read"],"source":"oracle","timestamp_ms":3.0}\n'


def test_log_replay_reconstructs_policy():
    entries = [
        PolicyLogEntry(epoch=1, added=("read", "write"), source="oracle"),
        PolicyLogEntry(epoch=2, added=("openat",), source="oracle"),
    ]
    p = replay_log(entries)
    assert p.allow == {"read", "write", "openat"}
    assert p.epoch == 2


def test_log_with_repeated_epochs_is_replay_error(tmp_path):
    path = tmp_path / "policy.log"
    path.write_text(
        '{"epoch":1,"added":["read"],"source":"oracle","timestamp_ms":0.0}\n'
        '{"epoch":1,"added":["write"],"source":"oracle","timestamp_ms":1.0}\n'
    )
    with pytest.raises(ReplayError):
        load_log(path)


def test_replay_epoch_gap_is_replay_error():
    entries = [
        PolicyLogEntry(epoch=1, added=("read",), source="oracle"),
        PolicyLogEntry(epoch=3, added=("write",), source="oracle"),
    ]
    with pytest.raises(ReplayError):
        replay_log(entries)


def test_replay_readded_syscall_is_replay_error():
    entries = [
        PolicyLogEntry(epoch=1, added=("read",), source="oracle"),
        PolicyLogEntry(epoch=2, added=("read", "write"), source="oracle"),
    ]
    with pytest.raises(ReplayError):
        replay_log(entries)


def test_replay_of_a_denied_syscall_is_replay_error():
    entries = [PolicyLogEntry(epoch=1, added=("mount", "read"), source="oracle")]
    with pytest.raises(ReplayError, match="adds denied syscalls: denied syscalls: mount"):
        replay_log(entries, deny={"mount"})


def _replay_by_extend(entries, deny=()):
    """Replay as a fold over ``extend``, one policy value per entry."""
    policy = new_policy(deny)
    for entry in entries:
        readded = set(entry.added) & policy.allow
        if readded:
            raise ReplayError(
                f"epoch {entry.epoch} re-adds allowed syscalls: " + ", ".join(sorted(readded))
            )
        try:
            policy, produced = extend(policy, entry.added, entry.source, entry.timestamp_ms)
        except DeniedSyscall as exc:
            raise ReplayError(f"epoch {entry.epoch} adds denied syscalls: {exc}") from exc
        if produced is None or produced.epoch != entry.epoch:
            raise ReplayError(
                f"epoch mismatch during replay: log says {entry.epoch}, "
                f"replay produced {produced.epoch if produced else policy.epoch}"
            )
    return policy


_LOG_NAMES = ["read", "write", "openat", "close", "mmap", "brk", "futex", "stat", "mount",
              "ptrace", "socket", "bind"]


@st.composite
def _logs(draw):
    """Logs that replay, or fail to by one re-added name or one epoch slip."""
    names = draw(st.permutations(_LOG_NAMES))
    entries = []
    for size in draw(st.lists(st.integers(1, 2), max_size=6)):
        added, names = tuple(sorted(names[:size])), names[size:]
        entries.append(PolicyLogEntry(epoch=len(entries) + 1, added=added,
                                      source=draw(st.sampled_from(LOG_SOURCES)),
                                      timestamp_ms=float(len(entries))))
    fault = draw(st.sampled_from([None, None, "readd", "slip"]))
    if entries and fault is not None:
        index = draw(st.integers(0, len(entries) - 1))
        entry = entries[index]
        if fault == "readd" and index > 0:
            entries[index] = replace(
                entry, added=tuple(sorted({*entry.added, entries[0].added[0]})))
        else:
            entries[index] = replace(entry, epoch=entry.epoch + draw(st.sampled_from([-1, 1])))
    return entries


@given(entries=_logs(), deny=st.sets(st.sampled_from(_LOG_NAMES), max_size=1))
def test_replay_matches_a_fold_over_extend(entries, deny):
    try:
        expected = _replay_by_extend(entries, deny)
    except ReplayError as exc:
        with pytest.raises(ReplayError) as raised:
            replay_log(entries, deny)
        assert str(raised.value) == str(exc)
    else:
        assert replay_log(entries, deny) == expected


def test_malformed_log_line_is_parse_error(tmp_path):
    path = tmp_path / "policy.log"
    path.write_text('{"epoch":1,"added":["read"]}\n')
    with pytest.raises(ParseError):
        load_log(path)


def test_log_entry_must_be_sorted_and_non_empty():
    with pytest.raises(ValueError):
        PolicyLogEntry(epoch=1, added=(), source="oracle")
    with pytest.raises(ValueError):
        PolicyLogEntry(epoch=1, added=("write", "read"), source="oracle")
    with pytest.raises(ValueError):
        PolicyLogEntry(epoch=1, added=("read", "read"), source="oracle")


@pytest.mark.parametrize("fields", [
    '"epoch":1.7,"added":["read"]',
    '"epoch":"1","added":["read"]',
    '"epoch":true,"added":["read"]',
    '"epoch":1,"added":["read","read"]',
])
def test_a_non_integer_epoch_or_a_repeated_name_is_parse_error(tmp_path, fields):
    path = tmp_path / "policy.log"
    path.write_text("{" + fields + ',"source":"oracle","timestamp_ms":0.0}\n')
    with pytest.raises(ParseError, match=r"^policy log line 1: "):
        load_log(path)


@pytest.mark.parametrize("timestamp", ["true", '"2.5"', "null"])
def test_a_timestamp_that_is_not_a_json_number_is_parse_error(tmp_path, timestamp):
    path = tmp_path / "policy.log"
    path.write_text('{"epoch":1,"added":["read"],"source":"oracle","timestamp_ms":'
                    + timestamp + "}\n")
    with pytest.raises(ParseError, match=r"^policy log line 1: expected a number"):
        load_log(path)
