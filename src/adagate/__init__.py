"""Token-budgeted evidence controller toolkit for multi-hop RAG."""

__version__ = "0.1.0"

from .controller import ControllerConfig, ControllerTrace, run_adagate, run_baseline, run_example
from .corpus import Chunk, Example, chunk_corpus, count_tokens, load_examples
from .evaluate import ExampleResult, evidence_prf
from .index import HashingEmbedder, VectorIndex
from .oracle import ABSTAIN, Fact, Gap, Ledger, LiveOracle, RuleBasedOracle, SufficiencyVerdict
from .perturb import PerturbConfig, inject_noise, inject_redundancy
from .scoring import DEFAULT_WEIGHTS, TermBreakdown, UtilityWeights, score_candidate
from .selection import EvidenceState, effective_capacity, replace_update, select_evidence

__all__ = [
    "__version__",
    "ABSTAIN",
    "Chunk",
    "ControllerConfig",
    "ControllerTrace",
    "DEFAULT_WEIGHTS",
    "EvidenceState",
    "Example",
    "ExampleResult",
    "Fact",
    "Gap",
    "HashingEmbedder",
    "Ledger",
    "LiveOracle",
    "PerturbConfig",
    "RuleBasedOracle",
    "SufficiencyVerdict",
    "TermBreakdown",
    "UtilityWeights",
    "VectorIndex",
    "chunk_corpus",
    "count_tokens",
    "effective_capacity",
    "evidence_prf",
    "inject_noise",
    "inject_redundancy",
    "load_examples",
    "replace_update",
    "run_adagate",
    "run_baseline",
    "run_example",
    "score_candidate",
    "select_evidence",
]
