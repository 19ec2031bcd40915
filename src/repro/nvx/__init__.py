"""Prior-work NVX baselines: ptrace lockstep monitors and Scribe."""

from repro.nvx.lockstep import (
    MX_PROFILE,
    ORCHESTRA_PROFILE,
    TACHYON_PROFILE,
    LockstepSession,
    MonitorProfile,
)
from repro.nvx.scribe import ScribeSession

__all__ = [
    "MX_PROFILE",
    "ORCHESTRA_PROFILE",
    "TACHYON_PROFILE",
    "LockstepSession",
    "MonitorProfile",
    "ScribeSession",
]
