"""Cognitive algorithm instantiations over metagraph snapshots: uncertain
inference (forward and backward chaining), agglomerative clustering, pattern
mining, evolutionary search, and economic attention spreading."""

from .pln import (
    PlnError,
    SingularityError,
    cwig,
    deduction,
    inversion,
)
from .chain import (
    BidNode,
    ChainResult,
    Rule,
    backward_chain_tv,
    deduction_rule,
    forward_chain,
    inversion_rule,
)
from .cluster import (
    Clustering,
    agglomerate,
    logical_entropy,
    merge_process,
    partition_quality,
)
from .mine import (
    MinedPattern,
    Pattern,
    clause_frequency,
    conj,
    mine_patterns,
    pattern_frequency,
    pattern_surprisingness,
)
from .evolve import EvolveResult, evolve, one_max, point_mutation, uniform_crossover
from .ecan import EcanResult, ecan_run
