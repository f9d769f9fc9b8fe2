"""Circuit generation: RepGen, ECC sets, caching, and transformation pruning."""

from repro.generator.cache import CacheKey, ECCCache, SCHEMA_VERSION, cache_key
from repro.generator.ecc import ECC, ECCSet
from repro.generator.repgen import RepGen, GeneratorResult, GeneratorStats
from repro.generator.pruning import simplify_ecc_set, prune_common_subcircuits
from repro.generator.brute import count_possible_circuits, characteristic

__all__ = [
    "CacheKey",
    "ECC",
    "ECCCache",
    "ECCSet",
    "GeneratorResult",
    "GeneratorStats",
    "RepGen",
    "SCHEMA_VERSION",
    "cache_key",
    "characteristic",
    "count_possible_circuits",
    "prune_common_subcircuits",
    "simplify_ecc_set",
]
