"""The majority-based (minimal-diameter subset) rule.

The paper sketches it as the robust-but-intractable alternative: look at
every subset of ``n − f`` proposals, keep the subset with the smallest
diameter, and aggregate it (here: average it).  The cost is
``C(n, n − f)`` subset enumerations — exponential in f, which is exactly
what the complexity bench (Lemma 4.1's contrast) measures.  The
enumeration is still complete; it is only carried out in vectorized
blocks of subsets (one gather and one reduction per block) instead of
one interpreter round-trip per subset.
"""

from __future__ import annotations

from itertools import chain, combinations, islice
from math import comb

import numpy as np

from repro.core.aggregator import AggregationResult, SelectionAggregator
from repro.exceptions import ByzantineToleranceError, ConfigurationError
from repro.utils.linalg import pairwise_sq_distances
from repro.utils.validation import check_positive_int

__all__ = ["MinimalDiameterSubset"]

# Distance entries gathered per block of subsets (8 MiB of float64):
# a block holds ``_BLOCK_ENTRIES // (n - f)**2`` subsets, so memory stays
# bounded however large ``C(n, n − f)`` gets.
_BLOCK_ENTRIES = 1 << 20


class MinimalDiameterSubset(SelectionAggregator):
    """Average the (n − f)-subset with minimal diameter.

    The diameter of a subset is its maximal pairwise distance.  Ties are
    broken lexicographically on the sorted index tuple (deterministic),
    including the all-infinite tie of a stack with more than f
    non-finite rows, which selects the first subset.  ``max_subsets``
    guards against accidentally launching an infeasible enumeration;
    raise it explicitly for the complexity bench.
    """

    def __init__(self, f: int, *, max_subsets: int = 2_000_000):
        self.f = check_positive_int(f, "f", minimum=0)
        self.max_subsets = check_positive_int(max_subsets, "max_subsets", minimum=1)
        self.name = f"minimal-diameter(f={self.f})"

    def check_tolerance(self, num_workers: int) -> None:
        if num_workers - self.f < 2:
            raise ByzantineToleranceError(
                f"minimal-diameter rule needs n - f >= 2, got n={num_workers}, "
                f"f={self.f}",
                n=num_workers,
                f=self.f,
            )
        num_subsets = comb(num_workers, num_workers - self.f)
        if num_subsets > self.max_subsets:
            raise ConfigurationError(
                f"C({num_workers}, {num_workers - self.f}) = {num_subsets} "
                f"subsets exceeds max_subsets={self.max_subsets}; this rule "
                f"is exponential — that is the point of Lemma 4.1's contrast"
            )

    def select(self, vectors: np.ndarray) -> tuple[np.ndarray, None]:
        n = vectors.shape[0]
        distances = pairwise_sq_distances(vectors, nonfinite_as_inf=True)
        keep = n - self.f
        block_size = max(1, _BLOCK_ENTRIES // (keep * keep))
        subsets = combinations(range(n), keep)  # lexicographic order
        best_subset: np.ndarray | None = None
        best_diameter = np.inf
        while True:
            block = np.fromiter(
                chain.from_iterable(islice(subsets, block_size)), dtype=np.intp
            ).reshape(-1, keep)
            if block.shape[0] == 0:
                break
            diameters = distances[block[:, :, None], block[:, None, :]].max(
                axis=(1, 2)
            )
            first = int(np.argmin(diameters))  # first minimum in the block
            # Strict ``<`` keeps the earliest minimal subset across blocks;
            # when every diameter is +inf (more than f non-finite rows) the
            # lexicographically first subset wins.
            if best_subset is None or diameters[first] < best_diameter:
                best_diameter = diameters[first]
                best_subset = block[first]
        return best_subset.astype(np.int64), None

    def aggregate_detailed(self, vectors: np.ndarray) -> AggregationResult:
        return super().aggregate_detailed(vectors)
