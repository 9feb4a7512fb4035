"""Deterministic simulator for colored-capability heap temporal safety and
the allocator schemes it is compared against."""

from .capability import (
    CAPABILITY_WIDTH,
    COLOR_BITS_DEFAULT,
    PERM_LOAD,
    PERM_LOAD_CAP,
    PERM_STORE,
    PERM_STORE_CAP,
    PERMS_APP,
    PERMS_DATA,
    PERMS_NONE,
    UNSEALED,
    Capability,
    ColorOutOfRange,
    ConfigError,
    FaultKind,
    RunConfig,
    clear_tag,
    derive,
    pack,
    unpack,
)
from .harness import (
    Metrics,
    RunResult,
    corpus_gate,
    run_corpus,
    run_trace,
)
from .heap import FreeListHeap, HeapScheme, OutOfMemory, RevocationJob
from .machine import NUM_REGISTERS, PvtBuffer, TaggedMachine
from .mrs import MallocRevocationShim, PoolExhausted
from .schemes import SCHEME_NAMES, make_scheme
from .trace import ParseError, Trace, parse_trace, format_trace
from .unr import BitmapNode, Exhausted, NotClaimed, Run, UnrState
from .workloads import CorpusCase, SplitMix64, gen_churn, gen_corpus, gen_locality

__version__ = "0.1.0"
