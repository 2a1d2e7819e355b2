"""Folded-XOR hashing helpers for geometric-history predictors.

TAGE-style predictors index each tagged component with a hash of the program
counter, a geometric number of global-history bits and a few path-history
bits.  In hardware this is done with XOR folding; the helpers below model the
same behaviour deterministically so that predictor contents are reproducible
across runs.

A predictor lookup needs the index and the tag of every tagged component for
one ``(pc, history, path)`` triple.  :class:`HashMemo` keeps those two tuples
per triple, so a lookup whose triple was seen before costs one dict probe and
the hash functions run only on a miss.  The key is the triple masked to the
bits the hashes read, so histories that differ only in bits no component
folds share an entry.  There is one memo per predictor geometry for the whole
process (:func:`hash_memo`): the memo caches a pure function, so the cores of
a sweep, which replay the same traces, share their lookups.  A memo that
reaches :data:`MEMO_BOUND` entries is cleared and starts over.
"""

from __future__ import annotations

#: Entries a :class:`HashMemo` holds before it is cleared.
MEMO_BOUND = 1 << 14


def fold_bits(value: int, input_bits: int, output_bits: int) -> int:
    """Fold ``input_bits`` of ``value`` down to ``output_bits`` by XOR.

    The value is split into consecutive ``output_bits``-wide chunks which are
    XORed together, mimicking the history folding logic of TAGE.
    """
    if output_bits <= 0:
        return 0
    if input_bits <= 0:
        return 0
    mask = (1 << output_bits) - 1
    value &= (1 << input_bits) - 1
    folded = 0
    while value:
        folded ^= value & mask
        value >>= output_bits
    return folded & mask


def mix_hash(pc: int, history: int, history_bits: int, path: int, path_bits: int,
             output_bits: int) -> int:
    """Compute a table index from PC, folded global history and folded path history.

    The PC is shifted right by two (micro-op addresses are at least 4-byte
    aligned in the synthetic ISA) and XOR-mixed with two folded components,
    one of which is additionally rotated by one bit so the two folds do not
    cancel each other for identical inputs.
    """
    if output_bits <= 0:
        return 0
    mask = (1 << output_bits) - 1
    folded_hist = fold_bits(history, history_bits, output_bits)
    folded_path = fold_bits(path, path_bits, output_bits)
    rotated_path = ((folded_path << 1) | (folded_path >> (output_bits - 1))) & mask \
        if output_bits > 1 else folded_path
    pc_low = (pc >> 2) & mask
    pc_high = (pc >> (2 + output_bits)) & mask
    return (pc_low ^ pc_high ^ folded_hist ^ rotated_path) & mask


def tag_hash(pc: int, history: int, history_bits: int, tag_bits: int) -> int:
    """Compute a partial tag from the PC and folded global history.

    Uses two folds of the history with different widths (``tag_bits`` and
    ``tag_bits - 1``) as in the original TAGE proposal, so that tags differ
    from indices computed over the same inputs.
    """
    if tag_bits <= 0:
        return 0
    mask = (1 << tag_bits) - 1
    fold_a = fold_bits(history, history_bits, tag_bits)
    fold_b = fold_bits(history, history_bits, max(tag_bits - 1, 1)) << 1
    return ((pc >> 2) ^ fold_a ^ fold_b) & mask


#: One ``(history bits, index bits, tag bits)`` triple per tagged component.
Geometry = tuple[tuple[int, int, int], ...]


class HashMemo:
    """The index and tag tuples of one predictor geometry's lookups, memoized.

    ``base``, when given, is the ``(entries, tag bits)`` of a direct-mapped
    base table indexed and tagged by the PC alone; its index and tag then
    lead the tuples.  A predictor probes :attr:`table` with the key
    ``(pc & pc_mask, history & history_mask, path & path_mask)`` and calls
    :meth:`fill` on a miss.
    """

    __slots__ = ("geometry", "path_bits", "base", "pc_mask", "history_mask",
                 "path_mask", "table", "bound")

    def __init__(self, geometry: Geometry, path_bits: int,
                 base: tuple[int, int] | None = None) -> None:
        self.geometry = geometry
        self.path_bits = path_bits
        self.base = base
        # The hashes read PC bits [2, 2 + width): an index reads two
        # index-wide chunks above the alignment bits, a tag one tag-wide one.
        width = max([max(2 * index_bits, tag_bits)
                     for _history_bits, index_bits, tag_bits in geometry], default=0)
        if base is not None:
            entries, base_tag_bits = base
            if entries & (entries - 1):
                width = None  # a modulo by a non-power of two reads every bit
            else:
                width = max(width, entries.bit_length() - 1 + base_tag_bits)
        self.pc_mask = -1 if width is None else (1 << (2 + width)) - 1
        self.history_mask = (1 << max([history_bits for history_bits, _i, _t in geometry],
                                      default=0)) - 1
        self.path_mask = (1 << path_bits) - 1
        self.table: dict[tuple[int, int, int], tuple[tuple[int, ...], tuple[int, ...]]] = {}
        self.bound = MEMO_BOUND

    def fill(self, key: tuple[int, int, int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Hash a key that missed :attr:`table`, remember and return the tuples."""
        table = self.table
        if len(table) >= self.bound:
            table.clear()
        pc, history, path = key
        path_bits = self.path_bits
        indices = [mix_hash(pc, history, history_bits, path, path_bits, index_bits)
                   for history_bits, index_bits, _tag_bits in self.geometry]
        tags = [tag_hash(pc, history, history_bits, tag_bits)
                for history_bits, _index_bits, tag_bits in self.geometry]
        if self.base is not None:
            entries, base_tag_bits = self.base
            indices.insert(0, (pc >> 2) % entries)
            tags.insert(0, ((pc >> 2) // entries) & ((1 << base_tag_bits) - 1))
        hashes = table[key] = (tuple(indices), tuple(tags))
        return hashes


_MEMOS: dict[tuple, HashMemo] = {}


def hash_memo(geometry: Geometry, path_bits: int,
              base: tuple[int, int] | None = None) -> HashMemo:
    """The process-wide :class:`HashMemo` of one predictor geometry."""
    key = (geometry, path_bits, base)
    memo = _MEMOS.get(key)
    if memo is None:
        memo = _MEMOS[key] = HashMemo(geometry, path_bits, base)
    return memo
