"""Exception types shared across the package."""


class TimeloopsError(Exception):
    """Base class for every error raised by this package.

    The base an error derives from decides the command line's exit code: a
    :class:`ConfigError` is a usage or configuration problem (exit 1), a
    :class:`ParseError` malformed input data (exit 2). The other direct
    subclasses are not input errors: the command line reports
    :class:`AttemptsExhausted` as a session that did not converge (exit 1),
    and :class:`IllegalTransition` is a defect in the program.
    """


class ParseError(TimeloopsError):
    """Malformed input file (fixture CSV, policy log, policy JSON, ...)."""


class UnknownColumn(ParseError):
    """A policy column id that is not one of the seven known columns."""


class ScenarioError(ParseError):
    """A scenario file or service definition violates its invariants."""


class ConfigError(TimeloopsError):
    """An invalid session or controller configuration."""


class DeniedSyscall(ConfigError):
    """Attempt to extend a policy with syscalls on the permanent deny-list.

    It reaches the command line only when a pretrain set collides with the
    deny-list, which is an operator configuration problem.
    """

    def __init__(self, names):
        self.names = frozenset(names)
        super().__init__("denied syscalls: " + ", ".join(sorted(self.names)))


class ReplayError(ParseError):
    """A policy log cannot be replayed (epoch gap, re-added syscall, ...)."""


class IllegalTransition(TimeloopsError):
    """A controller event that is not legal in the current state."""


class ExploitInTrainingSet(ConfigError):
    """A request a policy learns from, in a pretrain set or a dynamic-profiling
    training set, maps to an exploit-annotated handler."""


class EmptyMix(ConfigError):
    """Workload mix with no positive weight."""


class EmptyRecords(ParseError):
    """Latency statistics requested over zero records."""


class AttemptsExhausted(TimeloopsError):
    """A request failed all ``workload.MAX_ATTEMPTS`` of its attempts."""


class MissingCategory(ParseError):
    """An attack scenario does not declare an exploit for every category."""
