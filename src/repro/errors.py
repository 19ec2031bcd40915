"""Exception hierarchy shared across the whole reproduction.

Every layer (simulator, kernel, ISA, rewriter, BPF machine, Varan core)
raises exceptions derived from :class:`ReproError` so callers can catch
library failures without masking programming errors.
"""


class ReproError(Exception):
    """Base class for every error raised by this library."""


class SimulationError(ReproError):
    """The discrete-event simulator was used incorrectly."""


class DeadlockError(SimulationError):
    """The simulator ran out of events while processes were still blocked."""


class StallError(SimulationError):
    """A bounded run reached its horizon with processes still live."""


class ProcessKilled(ReproError):
    """Thrown into a simulated process that is being killed.

    Kernel tasks translate this into an exit with the appropriate status;
    it intentionally does *not* derive from the errors user programs are
    expected to catch.
    """


class KernelError(ReproError):
    """The simulated kernel was driven into an invalid state."""


class IsaError(ReproError):
    """Base class for VX86 ISA errors."""


class AssemblyError(IsaError):
    """The assembler rejected a source program."""


class DisassemblyError(IsaError):
    """The disassembler hit an undecodable byte sequence."""


class ExecutionFault(IsaError):
    """The VX86 interpreter faulted (bad opcode, bad memory access)."""


class RewriteError(ReproError):
    """The binary rewriter could not process a text segment."""


class BpfError(ReproError):
    """Base class for BPF machine errors."""


class BpfVerifierError(BpfError):
    """A BPF program failed static verification."""


class BpfRuntimeError(BpfError):
    """A BPF program faulted while being interpreted."""


class NvxError(ReproError):
    """Base class for NVX monitor errors."""


class DivergenceError(NvxError):
    """A follower diverged from the leader's event stream and no rewrite
    rule allowed the divergence."""


class FailoverError(NvxError):
    """Transparent failover could not be completed."""


class RecordReplayError(ReproError):
    """The record-replay clients hit a malformed or truncated log."""
