"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its seed: the same seed gives the
same scenario JSON, byte for byte, and the same command-line arguments.
The program under test only ever sees the files and arguments built here.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

STEADY_SCENARIO = "scenarios/staticsite.json"
STEADY_MIX = {"home": 8.0, "search": 1.0, "upload": 1.0}
STEADY_N = 50_000

ATTACK_SCENARIO = "scenarios/staticsite_attacks.json"

#: The podman deny-list preset; churn's exploit handlers inject it.
PODMAN_DENIED = "clock_settime"

ORACLE_EXTRA = ("madvise", "readlink", "sigaltstack")

# Common syscalls, most popular first; the long tail of the churn pool
# continues with synthetic names that no handler shares by default.
COMMON_SYSCALLS = (
    "read", "write", "close", "openat", "fstat", "mmap", "munmap", "epoll_wait",
    "recvfrom", "sendto", "writev", "accept4", "futex", "brk", "lseek", "stat",
    "poll", "getpid", "clock_gettime", "setsockopt", "getsockopt", "fcntl",
    "ioctl", "pread64", "pwrite64", "readv", "mprotect", "rt_sigaction",
    "rt_sigprocmask", "access", "pipe2", "dup", "dup2", "socket", "connect",
    "bind", "listen", "shutdown", "getsockname", "getpeername", "sendmsg",
    "recvmsg", "epoll_ctl", "epoll_create1", "eventfd2", "getrandom", "gettid",
    "getuid", "geteuid", "getgid", "getegid", "uname", "lstat", "newfstatat",
    "getdents64", "mkdir", "rename", "unlink", "chmod", "chown", "fchmod",
    "fchown", "ftruncate", "fsync", "fdatasync", "sendfile", "mremap",
    "prctl", "arch_prctl", "set_tid_address",
    "set_robust_list", "sched_yield", "sched_getaffinity", "nanosleep",
    "clock_nanosleep", "setitimer", "alarm", "kill", "tgkill", "wait4",
    "clone", "execve", "exit_group", "statfs", "fstatfs", "umask", "utimensat",
    "symlink", "readlinkat", "inotify_add_watch", "timerfd_create",
    "timerfd_settime", "signalfd4", "prlimit64", "getrusage", "sysinfo",
    "times", "capget", "setrlimit", "getcwd", "chdir",
)


def _zipf_weights(count: int, exponent: float) -> list[float]:
    return [1.0 / (rank + 1) ** exponent for rank in range(count)]


def _dump(obj) -> str:
    return json.dumps(obj, indent=1, sort_keys=True) + "\n"


# --- churn ---------------------------------------------------------------------

CHURN_HANDLERS = 3000
CHURN_POOL_TAIL = 7000
# Popularity ranks of the exploit handlers. They are fixed, so that every
# seed sends the same share of traffic to exploits.
CHURN_EXPLOIT_RANKS = (40, 120, 360, 900)
CHURN_N = 50_000
CHURN_WATCHDOG_MS = 3_000
CHURN_TRACE_LEN = (8, 20)
CHURN_POOL_EXPONENT = 0.45
CHURN_KEY_EXPONENT = 0.75


def churn_inputs(seed: int) -> tuple[str, dict[str, float]]:
    """One service with thousands of handlers and a long-tailed syscall pool.

    Returns the scenario JSON text and the request mix, its weights rounded
    to six significant digits so that they pass through ``--mix`` unchanged.
    Handler traces draw syscalls with Zipf-like weights, so rare syscalls
    keep arriving; request keys are Zipf-weighted too, so new handlers keep
    arriving all session. A few handlers carry exploits whose injection
    includes the podman-denied syscall.
    """
    rng = random.Random(seed)
    pool = list(COMMON_SYSCALLS) + [f"tail_{i:04d}" for i in range(CHURN_POOL_TAIL)]
    pool_weights = _zipf_weights(len(pool), CHURN_POOL_EXPONENT)
    keys = [f"h{i:04d}" for i in range(CHURN_HANDLERS)]
    order = list(range(CHURN_HANDLERS))
    rng.shuffle(order)
    exploit_kinds = {
        order[rank]: ("oracle_detectable", "oracle_undetectable")[n % 2]
        for n, rank in enumerate(CHURN_EXPLOIT_RANKS)
    }
    handlers = {}
    for index, key in enumerate(keys):
        trace = rng.choices(pool, weights=pool_weights, k=rng.randint(*CHURN_TRACE_LEN))
        handler = {"trace": trace, "response": f"r{index}"}
        if index in exploit_kinds:
            handler["exploit"] = {
                "kind": exploit_kinds[index],
                "corruption_index": rng.randint(1, len(trace) - 1),
                "injected": [rng.choice(pool[:40]), PODMAN_DENIED],
            }
        handlers[key] = handler
    scenario = {
        "services": [{
            "name": f"churn{seed}",
            "cost_model": {"base_request_ms": 1.0, "production_per_syscall_ms": 1.0,
                           "oracle_slowdown_factor": 3.0, "restart_ms": 50.0},
            "oracle_extra": list(ORACLE_EXTRA),
            "static_universe": sorted(pool),
            "handlers": handlers,
        }]
    }
    key_weights = _zipf_weights(CHURN_HANDLERS, CHURN_KEY_EXPONENT)
    mix = {keys[i]: float(f"{key_weights[rank]:.6g}") for rank, i in enumerate(order)}
    return _dump(scenario), mix


# --- sweep ---------------------------------------------------------------------

SWEEP_SERVICES = 80
SWEEP_N = 250
SWEEP_ATTACK_SEEDS = 3


def sweep_inputs(seed: int) -> list[dict]:
    """Small independent services, one scenario file each.

    Returns one entry per service: the scenario JSON text, the request
    mix, the workload seed and the number of requests. Cost models vary
    per service, so the amortization point differs from one to the next.
    """
    rng = random.Random(seed)
    pool = list(COMMON_SYSCALLS[:60])
    services = []
    for index in range(SWEEP_SERVICES):
        reachable = rng.sample(pool, rng.randint(20, 40))
        handlers = {}
        for h in range(rng.randint(4, 6)):
            handlers[f"k{h}"] = {
                "trace": rng.choices(reachable, k=rng.randint(5, 25)),
                "response": f"s{index}-k{h}",
            }
        scenario = {
            "services": [{
                "name": f"sweep{index:02d}",
                "cost_model": {
                    "base_request_ms": 1.0,
                    "production_per_syscall_ms": 1.0,
                    "oracle_slowdown_factor": round(rng.uniform(2.5, 3.5), 2),
                    "restart_ms": float(rng.randrange(30, 80, 10)),
                },
                "oracle_extra": list(ORACLE_EXTRA),
                "static_universe": sorted(reachable),
                "handlers": handlers,
            }]
        }
        mix = {key: float(rng.randint(1, 9)) for key in sorted(handlers)}
        services.append({
            "scenario": _dump(scenario),
            "mix": mix,
            "seed": rng.randrange(1 << 30),
            "n": SWEEP_N,
        })
    return services


def attack_seeds(seed: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(1 << 30) for _ in range(SWEEP_ATTACK_SEEDS)]


def write_text(path: Path, text: str) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return path
