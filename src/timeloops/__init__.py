"""Runtime syscall-policy learning: production/oracle alternation at desk scale.

A controller alternates a fast production service with a hardened oracle
replica to grow a syscall allow-list from live traffic, together with the
static and naive-dynamic baselines, attack-category harness and latency
simulation needed to study policy quality and amortized overhead.
"""

from .analysis import (
    ClaimReport,
    ComparisonReport,
    compare,
    dynamic_baseline,
    static_baseline,
    verify_paper_claims,
)
from .catalog import (
    PolicyComparisonTable,
    load_default_fixture,
    load_fixture,
    podman_default_deny,
)
from .controller import (
    ControllerConfig,
    SessionResult,
    run_session,
    step,
)
from .policy import (
    SyscallPolicy,
    diff,
    export_seccomp,
    extend,
    load_log,
    new_policy,
    replay_log,
    save_log,
)
from .simruntime import (
    CostModel,
    ExploitSpec,
    RequestBehavior,
    ServiceSpec,
    exploit_category,
    load_scenario,
    run_oracle,
    run_production,
)
from .workload import (
    LatencyRecord,
    LatencyStats,
    Request,
    generate_workload,
    send_with_retry,
    summarize,
)

__version__ = "0.1.0"
