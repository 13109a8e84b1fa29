"""Exception hierarchy for the ``repro`` library.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


# ---------------------------------------------------------------------------
# Runtime kernel errors
# ---------------------------------------------------------------------------


class RuntimeKernelError(ReproError):
    """Base class for errors raised by the cooperative runtime kernel."""


class DeadlockError(RuntimeKernelError):
    """The system cannot make progress.

    Raised when the ready queue and timer queue are both empty while one or
    more processes remain blocked.  The ``blocked`` attribute describes each
    blocked process and the effect it is waiting on, which makes the error
    message a useful deadlock diagnostic by itself.
    """

    def __init__(self, blocked: dict[object, str]):
        self.blocked = dict(blocked)
        lines = ", ".join(f"{name}: {why}" for name, why in sorted(
            self.blocked.items(), key=lambda kv: str(kv[0])))
        super().__init__(f"deadlock among {len(self.blocked)} process(es): {lines}")


class ProcessFailure(RuntimeKernelError):
    """A process raised an uncaught exception.

    The scheduler wraps the original exception so that the failing process
    can be identified; the original is available as ``__cause__``.
    """

    def __init__(self, process_name: object, original: BaseException):
        self.process_name = process_name
        self.original = original
        super().__init__(f"process {process_name!r} failed: {original!r}")
        self.__cause__ = original


class InvalidEffectError(RuntimeKernelError):
    """A process yielded something the scheduler does not understand."""


class StepLimitExceeded(RuntimeKernelError):
    """The scheduler executed more steps than the configured maximum.

    This usually indicates a livelock (for example, two processes polling
    each other forever) rather than a deadlock.
    """


class UnknownProcessError(RuntimeKernelError):
    """An operation referenced a process name that is not registered."""


class ProcessInterrupt(RuntimeKernelError):
    """Base class for exceptions thrown *into* a blocked process.

    The scheduler's ``interrupt`` operation cancels whatever the target is
    blocked on and resumes it by raising an instance of this class (or a
    subclass) at its current yield point.  Role contexts and supervisors
    use subclasses to unwind blocked communications when a partner crashes
    or a performance aborts.
    """


# ---------------------------------------------------------------------------
# Script (core) errors
# ---------------------------------------------------------------------------


class ScriptError(ReproError):
    """Base class for errors in the script abstraction layer."""


class ScriptDefinitionError(ScriptError):
    """A script definition is malformed (duplicate roles, bad critical set...)."""


class EnrollmentError(ScriptError):
    """An enrollment request is invalid or cannot be honoured."""


class UnfilledRoleError(ScriptError):
    """A role communicated with an unfilled role outside the critical set.

    Per the paper (Section II, "Critical Role Set"), one resolution strategy
    is that communication with an unfilled role returns a distinguished
    value; when that strategy is disabled, this error is raised instead.
    """


class PerformanceError(ScriptError):
    """A performance lifecycle rule was violated."""


class CrashedPartnerSignal(ProcessInterrupt):
    """A blocked communication's only possible partners have crashed.

    Thrown into a process whose every pending offer targets role addresses
    vacated by a crash.  :class:`~repro.core.RoleContext` catches it and
    applies the script's unfilled-role policy (distinguished value or
    :class:`UnfilledRoleError`); it is not meant to reach user code.
    """

    def __init__(self, addresses: frozenset):
        self.addresses = frozenset(addresses)
        super().__init__(
            f"every possible partner crashed: "
            f"{sorted(map(repr, self.addresses))}")


class PerformanceAborted(ProcessInterrupt, ScriptError):
    """A performance was aborted because a critical role's process crashed.

    Thrown into every surviving participant whose role body had not yet
    finished.  ``performance_id`` names the aborted performance, ``role``
    the survivor's own role, and ``crashed`` the role(s) whose crash caused
    the abort.  Survivors may catch this to continue with other work; the
    supervisor has already released their role aliases and pending offers.
    """

    def __init__(self, performance_id: str, role: object,
                 crashed: tuple = ()):
        self.performance_id = performance_id
        self.role = role
        self.crashed = tuple(crashed)
        super().__init__(
            f"performance {performance_id} aborted (crashed roles: "
            f"{sorted(map(repr, self.crashed))}); role {role!r} released")


# ---------------------------------------------------------------------------
# Host-language substrate errors
# ---------------------------------------------------------------------------


class CSPError(ReproError):
    """Errors from the CSP substrate (bad guard structure, naming, ...)."""


class AdaError(ReproError):
    """Errors from the Ada-like tasking substrate."""


class MonitorError(ReproError):
    """Errors from the monitor substrate."""


# ---------------------------------------------------------------------------
# Script-language (Section III syntax) errors
# ---------------------------------------------------------------------------


class ScriptLangError(ReproError):
    """Base class for the Pascal-like script language front end."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        location = f" at line {line}" if line is not None else ""
        if line is not None and column is not None:
            location = f" at line {line}, column {column}"
        super().__init__(message + location)


class LexError(ScriptLangError):
    """The script source contains an unrecognised token."""


class ParseError(ScriptLangError):
    """The script source is syntactically invalid."""


class SemanticError(ScriptLangError):
    """The script source is well-formed but semantically invalid."""


class InterpreterError(ScriptLangError):
    """A runtime error occurred while interpreting script-language code."""


# ---------------------------------------------------------------------------
# Fault-injection errors
# ---------------------------------------------------------------------------


class FaultPlanError(ReproError):
    """A fault plan is malformed or cannot be installed as requested."""


class ChaosInvariantError(ReproError):
    """A chaos soak run left residue or violated a semantic invariant.

    The message names the offending seed, so any soak failure is
    reproducible by rerunning that single seed.  ``category`` classifies
    the violation for the fault-space explorer's oracle set:
    ``"residue"`` (kernel state survived the run), ``"semantics"`` (a
    script-level invariant such as abort/delivery correctness),
    ``"liveness"`` (a recovery soak fell short of its target), or the
    generic ``"invariant"``.
    """

    def __init__(self, message: str, category: str = "invariant"):
        self.category = category
        super().__init__(message)


class RecoveryError(ReproError):
    """A recovery policy is misconfigured or was driven illegally."""


# ---------------------------------------------------------------------------
# Durability (journal / resume) errors
# ---------------------------------------------------------------------------


class PersistError(ReproError):
    """Base class for the durable-journal subsystem."""


class JournalError(PersistError):
    """A journal file is structurally unusable (bad magic, unreadable
    header, unsupported version).

    A *torn tail* — trailing bytes that fail the length/CRC frame check —
    is deliberately **not** an error: crash-consistency means a truncated
    final frame is expected after a kill, so readers drop it and report
    ``torn`` instead of raising.
    """


class ResumeMismatch(PersistError):
    """A resumed run diverged from its journal.

    Raised when the journal's header does not match the resume
    configuration (different seed, scenario, or options) or when a
    replayed scheduler decision differs from the recorded frame.  Carries
    ``frame_index`` plus the expected and observed records, so the first
    divergence is a precise reproduction recipe.
    """

    def __init__(self, reason: str, frame_index: int | None = None,
                 expected: object = None, observed: object = None):
        self.reason = reason
        self.frame_index = frame_index
        self.expected = expected
        self.observed = observed
        at = f" at frame {frame_index}" if frame_index is not None else ""
        detail = ""
        if expected is not None or observed is not None:
            detail = f" (expected {expected!r}, observed {observed!r})"
        super().__init__(f"resume mismatch{at}: {reason}{detail}")


# ---------------------------------------------------------------------------
# Verification errors
# ---------------------------------------------------------------------------


class VerificationError(ReproError):
    """A checked property does not hold on the observed trace."""

    def __init__(self, property_name: str, detail: str):
        self.property_name = property_name
        self.detail = detail
        super().__init__(f"property {property_name!r} violated: {detail}")
