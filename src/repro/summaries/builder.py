"""Summary builders: exact export and query-based sampling.

*Exact* summaries model a cooperative publisher exporting its statistics
(the STARTS protocol); they read the index directly and cost nothing.

*Sampled* summaries model the realistic uncooperative case
(Callan & Connell, *Query-based sampling of text databases*): issue
single-term probes, download the top results, and build statistics from
the retrieved documents, scaling document frequencies up to the database
size. Sampling uses the same metered probe interface as the selection
algorithms, so its cost is visible in the accounting.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import SummaryError
from repro.hiddenweb.database import HiddenWebDatabase
from repro.summaries.summary import ContentSummary
from repro.text.analyzer import Analyzer
from repro.types import Query

__all__ = ["ExactSummaryBuilder", "SampledSummaryBuilder"]


class ExactSummaryBuilder:
    """Builds a perfect summary from the database's own index.

    Parameters
    ----------
    weights:
        Also export gGlOSS weight sums (Σ_d (1 + log tf)) per term,
        enabling the :class:`~repro.summaries.estimators.GlossEstimator`.
    """

    def __init__(self, weights: bool = False) -> None:
        self._weights = weights

    def build(self, database: HiddenWebDatabase) -> ContentSummary:
        """Export (term, df) for every index term plus the exact size."""
        import math

        index = database.index
        frequencies = {
            term: index.document_frequency(term) for term in index.terms()
        }
        weight_sums = None
        if self._weights:
            weight_sums = {}
            for term in index.terms():
                plist = index.postings(term)
                weight_sums[term] = sum(
                    1.0 + math.log(freq) for _doc, freq in plist
                )
        return ContentSummary(
            database_name=database.name,
            size=index.num_documents,
            document_frequencies=frequencies,
            term_weight_sums=weight_sums,
        )


class SampledSummaryBuilder:
    """Query-based sampling summary builder.

    Parameters
    ----------
    seed_terms:
        Initial probe vocabulary (a few common words suffice; the
        vocabulary grows from retrieved documents).
    target_documents:
        Stop once this many distinct documents have been sampled (or the
        probe budget runs out).
    max_probes:
        Hard probe budget per database.
    analyzer:
        Analyzer used to extract terms from downloaded documents;
        defaults to a fresh default pipeline.
    seed:
        RNG seed for probe-term selection.
    """

    def __init__(
        self,
        seed_terms: list[str],
        target_documents: int = 300,
        max_probes: int = 150,
        analyzer: Analyzer | None = None,
        seed: int = 0,
    ) -> None:
        if not seed_terms:
            raise SummaryError("query-based sampling needs at least one seed term")
        if target_documents <= 0 or max_probes <= 0:
            raise SummaryError("target_documents and max_probes must be positive")
        self._seed_terms = list(seed_terms)
        self._target_documents = target_documents
        self._max_probes = max_probes
        self._analyzer = analyzer or Analyzer()
        self._seed = seed

    def build(self, database: HiddenWebDatabase) -> ContentSummary:
        """Sample *database* and return a scaled approximate summary."""
        rng = np.random.default_rng(self._seed)
        vocabulary = list(dict.fromkeys(self._seed_terms))
        sampled_ids: set[int] = set()
        term_doc_counts: dict[str, int] = {}
        probes = 0
        while (
            probes < self._max_probes
            and len(sampled_ids) < self._target_documents
        ):
            term = vocabulary[int(rng.integers(len(vocabulary)))]
            probes += 1
            try:
                result = database.probe(Query((term,)))
            except Exception as exc:  # pragma: no cover - defensive
                raise SummaryError(
                    f"probe failed while sampling {database.name!r}"
                ) from exc
            for hit in result.top_documents:
                if hit.doc_id in sampled_ids:
                    continue
                sampled_ids.add(hit.doc_id)
                document = database.fetch_document(hit.doc_id)
                # First-occurrence order, not set order: the vocabulary
                # the seeded rng draws from must not depend on the
                # process's string-hash seed.
                doc_terms = dict.fromkeys(
                    self._analyzer.analyze(document.text)
                )
                for doc_term in doc_terms:
                    term_doc_counts[doc_term] = (
                        term_doc_counts.get(doc_term, 0) + 1
                    )
                    vocabulary.append(doc_term)
                if len(sampled_ids) >= self._target_documents:
                    break
        if not sampled_ids:
            raise SummaryError(
                f"query-based sampling retrieved no documents from "
                f"{database.name!r}; seed terms may not occur in it"
            )
        scale = database.size / len(sampled_ids)
        frequencies = {
            term: min(database.size, max(1, int(round(count * scale))))
            for term, count in term_doc_counts.items()
        }
        return ContentSummary(
            database_name=database.name,
            size=database.size,
            document_frequencies=frequencies,
            sampled_documents=len(sampled_ids),
        )
