"""Hosted bytecode containers: a register VM with pre-flight verification,
memory access control, scoped key-value stores, hook-driven multi-tenant
execution, signed updates, and a deterministic scenario runner.
"""

from .asm import AsmError, assemble, disassemble
from .engine import Contract, ContextRegionSpec, Engine, RegionGrant, ReturnPolicy
from .isa import Instruction, Program, decode_instruction, encode_instruction
from .memory import AccessList, HostMemory, MemoryRegion, fresh_stack
from .scenario import ScenarioReport, run_scenario
from .update import Manifest, UpdateOutcome, apply_update, build_manifest, sign_manifest
from .verifier import VerifyError, VerifyLimits, VerifyRejected, check_program, verify
from .vm import ExecOutcome, Fault, FaultKind, SyscallEnv, SyscallTable, exec_program

__version__ = "0.1.0"

__all__ = [
    "AccessList",
    "AsmError",
    "Contract",
    "ContextRegionSpec",
    "Engine",
    "ExecOutcome",
    "Fault",
    "FaultKind",
    "HostMemory",
    "Instruction",
    "Manifest",
    "MemoryRegion",
    "Program",
    "RegionGrant",
    "ReturnPolicy",
    "ScenarioReport",
    "SyscallEnv",
    "SyscallTable",
    "UpdateOutcome",
    "VerifyError",
    "VerifyLimits",
    "VerifyRejected",
    "apply_update",
    "assemble",
    "build_manifest",
    "check_program",
    "decode_instruction",
    "disassemble",
    "encode_instruction",
    "exec_program",
    "fresh_stack",
    "run_scenario",
    "sign_manifest",
    "verify",
    "__version__",
]
