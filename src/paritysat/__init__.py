"""Hardware-aware optimal synthesis and optimization of {CNOT, Rz} circuits.

The pipeline: extract a phase-polynomial representation from a circuit,
synthesize count-, depth-, or doubly optimal replacements under a qubit
coupling map, by an exact bidirectional search whose witness one SAT call
checks (and by incremental SAT solving past the search's state cap), and
apply the synthesizer as a peephole or iterative blockwise optimizer on
large circuits.
"""
from .blockwise import BlockwiseConfig, IterationRecord, iterate_optimize, partition, run_parallel, sample_blocks
from .encoder import Mode
from .ir import (
    Circuit,
    Cnot,
    CouplingMap,
    Opaque,
    ParityMatrix,
    ParityTable,
    PhasePolyRep,
    Rz,
    apply_cnot,
    cnot_count,
    cnot_depth,
    induced_coupling,
    validate_topology,
)
from .oracle import oracle_min_count, oracle_min_depth
from .peephole import Block, find_blocks, peephole_with_report, resynth_block, resynthesize
from .phasepoly import CanonicalRep, canonicalize, equivalent, extract_rep
from .qasm import parse_qasm, write_qasm
from .synthesizer import (
    NoSolutionWithinKmax,
    SynthesisRequest,
    SynthesisResult,
    SynthesisTimeout,
    hopps,
    lower_bound,
)

__version__ = "0.1.0"
