"""Which databases the exact summaries prove irrelevant to a query.

Under the document-frequency definition r(db, q) counts the documents
holding *every* query term (conjunctive semantics), so an exact summary
that lacks one query term proves r(db, q) = 0: such a database needs no
ED, no RD beyond an impulse at zero and no probe. At federated scale
most databases are such certain zeros for any one query, so
:class:`CertainZeroIndex` finds the rest from the query terms' postings
instead of asking every summary.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.hiddenweb.database import RelevancyDefinition
from repro.summaries.summary import ContentSummary
from repro.types import Query

__all__ = ["CertainZeroIndex"]


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class CertainZeroIndex:
    """Term → database postings over the exact content summaries.

    CSR layout: ``_slot`` maps a term to its row, and row ``s`` lists
    the ascending mediation indices
    ``_databases[_offsets[s]:_offsets[s + 1]]`` (``int32``) of the exact
    summaries with a positive document frequency for the term. A
    sampled summary proves nothing (an unsampled term may still occur),
    so its database is always a candidate; under
    ``DOCUMENT_SIMILARITY`` no summary proves a zero and every database
    is one.

    Parameters
    ----------
    summaries:
        One summary per database, in mediation order.
    definition:
        The relevancy definition the zeros must hold under.
    """

    def __init__(
        self,
        summaries: Sequence[ContentSummary],
        definition: RelevancyDefinition,
    ) -> None:
        self._all = _frozen(np.arange(len(summaries), dtype=np.intp))
        self._slot: dict[str, int] | None = None
        if definition is not RelevancyDefinition.DOCUMENT_FREQUENCY:
            return
        slot: dict[str, int] = {}
        rows: list[np.ndarray] = []
        owners: list[int] = []
        sampled: list[int] = []
        for i, summary in enumerate(summaries):
            if not summary.is_exact:
                sampled.append(i)
                continue
            rows.append(
                np.fromiter(
                    (slot.setdefault(t, len(slot)) for t in summary.terms()),
                    dtype=np.int32,
                    count=summary.vocabulary_size,
                )
            )
            owners.append(i)
        self._sampled = _frozen(np.array(sampled, dtype=np.intp))
        term_of = (
            np.concatenate(rows) if rows else np.empty(0, dtype=np.int32)
        )
        owner_of = np.repeat(
            np.array(owners, dtype=np.int32), [len(row) for row in rows]
        )
        # A stable sort by term keeps each row's databases ascending.
        self._databases = owner_of[np.argsort(term_of, kind="stable")]
        self._offsets = np.zeros(len(slot) + 1, dtype=np.intp)
        np.cumsum(
            np.bincount(term_of, minlength=len(slot)), out=self._offsets[1:]
        )
        self._slot = slot

    def nonzero(self, query: Query) -> np.ndarray:
        """Ascending mediation indices whose r(db, *query*) is not provably 0.

        Every sampled-summary database, plus each exact-summary database
        holding every query term — found with one ``np.bincount`` over
        the terms' postings (a repeated term counts once per occurrence
        on both sides of the comparison, so it needs no dedup).
        Read-only; callers must not modify the array.
        """
        if self._slot is None:
            return self._all
        postings = []
        for term in query.terms:
            s = self._slot.get(term)
            if s is None:  # no exact summary holds the term
                return self._sampled
            postings.append(
                self._databases[self._offsets[s] : self._offsets[s + 1]]
            )
        held = np.bincount(
            np.concatenate(postings), minlength=len(self._all)
        )
        candidate = held == len(postings)
        candidate[self._sampled] = True
        return np.flatnonzero(candidate)

    def __repr__(self) -> str:
        terms = 0 if self._slot is None else len(self._slot)
        return f"CertainZeroIndex(databases={len(self._all)}, terms={terms})"
