"""Runtime syscall-policy learning: production/oracle alternation at desk scale.

A controller alternates a fast production service with a hardened oracle
replica to grow a syscall allow-list from live traffic, together with the
static and naive-dynamic baselines, attack-category harness and latency
simulation needed to study policy quality and amortized overhead.
"""
