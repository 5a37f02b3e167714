"""Retrieval-augmented answering.

The §5 mechanism: match the prompt against the vector store, prepend the
most relevant chunks as context ("enhances the context of responses
while adhering to token limitations"), and answer from that context.

At substrate scale a ~10^5-parameter LM cannot read novel facts from
context the way a 13B model can, so the answer extractor is explicit
and rule-based over the retrieved chunk (value lookup by field name).
The behaviour §5 promises
— *new facts become answerable without retraining* — holds either way
and is what the tests and the update example verify.
"""

from __future__ import annotations

import re

from repro.retrieval.store import Hit, VectorStore

_FIELD_SYNONYMS = {
    "system": "System",
    "submitter": "Submitter",
    "organization": "Submitter",
    "vendor": "Submitter",
    "processor": "Processor",
    "cpu": "Processor",
    "accelerator": "Accelerator",
    "gpu": "Accelerator",
    "software": "Software",
    "framework": "Software",
    "dataset": "Dataset Name",
    "corpus": "Dataset Name",
    "baseline": "Baseline",
    "model": "Baseline",
    "metric": "Metric",
    "language": "Language",
}

# A "Key: value." pair.  The value runs to the *sentence* end: a period
# terminates it only when followed by whitespace + a capital (the next
# sentence) or by end-of-chunk — so versioned values ("PyTorch 1.7.1",
# "MLPerf v0.7", "Release 23.04") survive intact instead of truncating
# at their first internal period.
_KV_RE = re.compile(r"([A-Z][\w ()-]*?):\s*(.+?)(?:\.(?=\s+[A-Z]|\s*$)|$)")


def split_into_chunks(text: str, tokenizer, max_tokens: int = 128) -> list[str]:
    """§5: "division of text into chunks" — sentence-boundary packing
    under a token budget.

    A single sentence longer than ``max_tokens`` cannot be packed; it is
    emitted immediately as its own (oversized) chunk so its token cost
    never bleeds into the budget accounting of the sentences around it.
    Every other chunk stays within ``max_tokens``.
    """
    sentences = re.split(r"(?<=[.!?])\s+", text.strip())
    chunks: list[str] = []
    current: list[str] = []
    used = 0
    for sent in sentences:
        if not sent:
            continue
        cost = tokenizer.token_count(sent)
        if cost > max_tokens:
            if current:
                chunks.append(" ".join(current))
                current, used = [], 0
            chunks.append(sent)
            continue
        if current and used + cost > max_tokens:
            chunks.append(" ".join(current))
            current, used = [], 0
        current.append(sent)
        used += cost
    if current:
        chunks.append(" ".join(current))
    return chunks


class RetrievalAugmentedAnswerer:
    """Answers questions by retrieving chunks and extracting the value
    the question asks for."""

    def __init__(self, store: VectorStore, k: int = 3) -> None:
        self.store = store
        self.k = k
        # Parsed chunk fields, keyed on the store's mutation counter so
        # the lexical-anchor pass re-parses only when the index grows.
        self._fields_cache: tuple[int | None, list[tuple[str, dict]]] | None = None

    # -- extraction --------------------------------------------------------

    @staticmethod
    def _wanted_field(question: str) -> str | None:
        """The field the question asks for: the *earliest* field keyword
        in the text wins ("Which baseline ... on the POJ-104 dataset?"
        asks for the baseline even though "dataset" also appears)."""
        q = question.lower()
        best: tuple[int, str] | None = None
        for keyword, field in _FIELD_SYNONYMS.items():
            pos = q.find(keyword)
            if pos >= 0 and (best is None or pos < best[0]):
                best = (pos, field)
        return best[1] if best else None

    @staticmethod
    def _chunk_fields(chunk_text: str, metadata: dict) -> dict[str, str]:
        fields = dict(metadata.get("facts", {}))
        for key, value in _KV_RE.findall(chunk_text):
            fields.setdefault(key.strip(), value.strip())
        return fields

    def _store_fields(self) -> list[tuple[str, dict]]:
        """``(text, parsed fields)`` for every indexed chunk, cached per
        store version (re-parsing the whole store per question would
        dominate batched answering)."""
        version = getattr(self.store, "version", None)
        if self._fields_cache is None or self._fields_cache[0] != version:
            parsed = [
                (text, self._chunk_fields(text, metadata))
                for text, metadata in self.store.all()
            ]
            self._fields_cache = (version, parsed)
        return self._fields_cache[1]

    def answer(self, question: str) -> str | None:
        """The §5 loop: embed -> match -> extract from the best chunk."""
        return self.answer_batch([question])[0]

    def answer_batch(self, questions: list[str]) -> list[str | None]:
        """Answer every question in one batched hybrid search pass.

        Cosine ranking alone confuses rows that share sub-tokens (every
        MLPerf system name contains the vendor and accelerator), so a
        first pass prefers hits *anchored* by a fact value that appears
        verbatim in the question (e.g. the exact system name).  All
        embeddings and the index scoring run as one matmul via
        :meth:`VectorStore.search_batch`.
        """
        questions = list(questions)
        if not questions:
            return []
        hits_per_q = self.store.search_batch(questions, k=max(self.k, 8))
        return [
            self._answer_from_hits(q, hits)
            for q, hits in zip(questions, hits_per_q)
        ]

    def _answer_from_hits(self, question: str, hits: list[Hit]) -> str | None:
        if not hits:
            return None
        field = self._wanted_field(question)
        q_lower = question.lower()

        if field:
            # Pass 0 (lexical anchoring): entity names split into generic
            # sub-tokens under BPE TF-IDF, so embedding rank alone can
            # drown the right row.  Scan the whole store for chunks whose
            # *other* fact values appear verbatim in the question and
            # keep the most specifically anchored one (longest total
            # anchored text).  This is the classic hybrid dense+lexical
            # retrieval trick.
            best_value: str | None = None
            best_anchor = 0
            for _text, fields in self._store_fields():
                if field not in fields:
                    continue
                anchor = sum(
                    len(v)
                    for key, v in fields.items()
                    if key != field and isinstance(v, str) and len(v) > 3
                    and v.lower() in q_lower
                )
                if anchor > best_anchor:
                    best_anchor = anchor
                    best_value = fields[field]
            if best_value is not None:
                return f"{best_value} (retrieved, anchored)"
            # Pass 1: best embedding hit carrying the wanted field.
            for hit in hits:
                fields = self._chunk_fields(hit.text, hit.metadata)
                if field in fields:
                    return f"{fields[field]} (retrieved, score {hit.score:.2f})"
        # No structured field matched: return the best chunk as context.
        return hits[0].text
