"""repro — a full reproduction of "Script: A Communication Abstraction
Mechanism" (Francez & Hailpern, PODC 1983).

The library implements the *script* construct — an abstraction over patterns
of inter-process communication — together with the three host-language
substrates the paper embeds it in (CSP, Ada-style tasking, monitors), the
translation existence proofs of Section IV, the Pascal-like surface syntax of
Section III, a library of the paper's example scripts, and a verification
layer that mechanically checks the paper's stated semantic guarantees.

Quickstart::

    from repro import ScriptDef, Initiation, Termination, Mode
    # see examples/quickstart.py for a complete program
"""

from .errors import (AdaError, CSPError, DeadlockError, EnrollmentError,
                     MonitorError, PerformanceError, ProcessFailure,
                     ReproError, ScriptDefinitionError, ScriptError,
                     UnfilledRoleError, VerificationError)
from .runtime import (Choice, Delay, EventKind, Receive, Scheduler, Select,
                      SelectResult, Send, Tracer, WaitUntil, run_processes)

__version__ = "1.0.0"

__all__ = [
    "AdaError",
    "CSPError",
    "Choice",
    "DeadlockError",
    "Delay",
    "EnrollmentError",
    "EventKind",
    "MonitorError",
    "PerformanceError",
    "ProcessFailure",
    "Receive",
    "ReproError",
    "Scheduler",
    "ScriptDefinitionError",
    "ScriptError",
    "Select",
    "SelectResult",
    "Send",
    "Tracer",
    "UnfilledRoleError",
    "VerificationError",
    "WaitUntil",
    "run_processes",
    "__version__",
]
