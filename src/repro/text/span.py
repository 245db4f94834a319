"""Text spans: the values that IE predicates extract.

A :class:`Span` is an immutable reference to a character interval of a
:class:`~repro.text.document.Document`.  Spans are the currency of the
whole system: assignments in compact tables hold spans, features verify
and refine spans, and extracted tuples contain spans (or scalars cast
from them).
"""

from dataclasses import dataclass

from repro.text.document import Document
from repro.text.tokenize import parse_number

__all__ = ["Span", "doc_span"]


@dataclass(frozen=True)
class Span:
    """A character interval ``[start, end)`` of a document."""

    doc: Document
    start: int
    end: int

    def __post_init__(self):
        if not 0 <= self.start <= self.end <= len(self.doc.text):
            raise ValueError(
                "span [%d, %d) out of bounds for document %r of length %d"
                % (self.start, self.end, self.doc.doc_id, len(self.doc.text))
            )

    # ------------------------------------------------------------------
    # identity / ordering
    # ------------------------------------------------------------------
    def __eq__(self, other):
        return (
            isinstance(other, Span)
            and self.doc.doc_id == other.doc.doc_id
            and self.start == other.start
            and self.end == other.end
        )

    def __hash__(self):
        return hash((self.doc.doc_id, self.start, self.end))

    def __lt__(self, other):
        return self.sort_key() < other.sort_key()

    def sort_key(self):
        return (self.doc.doc_id, self.start, self.end)

    def __len__(self):
        return self.end - self.start

    def __repr__(self):
        text = self.text
        if len(text) > 25:
            text = text[:22] + "..."
        return "Span(%s[%d:%d] %r)" % (self.doc.doc_id, self.start, self.end, text)

    # ------------------------------------------------------------------
    # content
    # ------------------------------------------------------------------
    @property
    def text(self):
        return self.doc.text[self.start : self.end]

    @property
    def numeric_value(self):
        """The span parsed as a number, or ``None``."""
        return parse_number(self.text)

    @property
    def tokens(self):
        """Tokens lying entirely inside the span."""
        return self.doc.tokens_in(self.start, self.end)

    # ------------------------------------------------------------------
    # relations between spans
    # ------------------------------------------------------------------
    def same_doc(self, other):
        return self.doc.doc_id == other.doc.doc_id

    def contains(self, other):
        """True if ``other`` is a sub-span of this span (same doc)."""
        return (
            self.same_doc(other)
            and self.start <= other.start
            and other.end <= self.end
        )

    def overlaps(self, other):
        return (
            self.same_doc(other)
            and self.start < other.end
            and other.start < self.end
        )

    def sub(self, start, end):
        """The sub-span ``[start, end)`` in absolute document offsets."""
        if not (self.start <= start <= end <= self.end):
            raise ValueError("sub-span [%d, %d) escapes %r" % (start, end, self))
        return Span(self.doc, start, end)

    # ------------------------------------------------------------------
    # enumeration
    # ------------------------------------------------------------------
    def token_spans(self):
        """One span per token inside this span."""
        return [Span(self.doc, t.start, t.end) for t in self.tokens]

    def token_aligned_subspans(self, max_count=None, max_tokens=None):
        """All token-aligned sub-spans, shortest-first per start token.

        ``max_count`` bounds the total number of spans yielded;
        ``max_tokens`` bounds the token length of each yielded span.
        The caller is responsible for treating a truncated enumeration
        conservatively (see DESIGN.md).
        """
        tokens = self.tokens
        produced = 0
        out = []
        for i in range(len(tokens)):
            limit = len(tokens) if max_tokens is None else min(len(tokens), i + max_tokens)
            for j in range(i, limit):
                out.append(Span(self.doc, tokens[i].start, tokens[j].end))
                produced += 1
                if max_count is not None and produced >= max_count:
                    return out
        return out

    def count_token_aligned_subspans(self):
        """How many sub-spans :meth:`token_aligned_subspans` would yield."""
        n = self.doc.count_tokens_in(self.start, self.end)
        return n * (n + 1) // 2

    # ------------------------------------------------------------------
    # context helpers used by features
    # ------------------------------------------------------------------
    def text_before(self, width):
        """Up to ``width`` characters of document text before the span."""
        return self.doc.text[max(0, self.start - width) : self.start]

    def text_after(self, width):
        """Up to ``width`` characters of document text after the span."""
        return self.doc.text[self.end : self.end + width]


def doc_span(doc):
    """The span covering the whole document."""
    return Span(doc, 0, len(doc.text))
