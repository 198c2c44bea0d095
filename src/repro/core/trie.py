"""Prefix tree (trie) over label sets.

Section 3.1 of the paper: "we organize any group of label sets sharing the
same distance into a small-redundancy data structure, e.g., a prefix tree".
``LabelSetTrie`` is that structure.  Label sets are stored as sorted label-id
sequences; common prefixes share nodes, and the query the PowCov index needs
— *does the trie contain a subset of* ``C``? — is answered by a DFS that only
descends into children whose label is in ``C``.

The trie also supports exact-match lookups and enumeration, and exposes
``node_count`` for the storage-ablation benchmark.  ``TrieOracle`` regroups
a built PowCov table into those per-pair tries on demand and answers the
upper-bound estimate from them, as a second layout to check the table
against.
"""

from __future__ import annotations

from collections.abc import Iterator

from ..graph.labelsets import label_bit, labels_from_mask
from .types import INF

__all__ = ["LabelSetTrie", "TrieOracle"]


class _Node:
    __slots__ = ("children", "terminal")

    def __init__(self):
        self.children: dict[int, _Node] = {}
        self.terminal = False


class LabelSetTrie:
    """A set of label-set bitmasks with shared-prefix storage.

    >>> trie = LabelSetTrie()
    >>> trie.insert(0b011)
    True
    >>> trie.insert(0b100)
    True
    >>> trie.contains_subset_of(0b111)
    True
    >>> trie.contains_subset_of(0b001)
    False
    """

    def __init__(self, masks: Iterator[int] | None = None):
        self._root = _Node()
        self._size = 0
        if masks is not None:
            for mask in masks:
                self.insert(mask)

    def __len__(self) -> int:
        return self._size

    def __contains__(self, mask: int) -> bool:
        node = self._root
        for label in labels_from_mask(mask):
            node = node.children.get(label)
            if node is None:
                return False
        return node.terminal

    def insert(self, mask: int) -> bool:
        """Add ``mask``; returns True if it was not present before."""
        node = self._root
        for label in labels_from_mask(mask):
            child = node.children.get(label)
            if child is None:
                child = _Node()
                node.children[label] = child
            node = child
        if node.terminal:
            return False
        node.terminal = True
        self._size += 1
        return True

    def contains_subset_of(self, constraint_mask: int) -> bool:
        """True iff some stored set ``S`` satisfies ``S ⊆ constraint_mask``.

        The DFS may only follow child labels present in the constraint and
        prunes whole subtrees otherwise; with sorted insertion order this is
        the standard subset-retrieval walk.
        """
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.terminal:
                return True
            for label, child in node.children.items():
                if constraint_mask & label_bit(label):
                    stack.append(child)
        return False

    def subsets_of(self, constraint_mask: int) -> list[int]:
        """All stored masks that are subsets of ``constraint_mask``."""
        results: list[int] = []
        stack: list[tuple[_Node, int]] = [(self._root, 0)]
        while stack:
            node, prefix = stack.pop()
            if node.terminal:
                results.append(prefix)
            for label, child in node.children.items():
                if constraint_mask & label_bit(label):
                    stack.append((child, prefix | label_bit(label)))
        return results

    def supersets_of(self, query_mask: int) -> list[int]:
        """All stored masks that are supersets of ``query_mask``.

        Used by tests for redundancy analysis; a superset walk must take
        every branch but only "consumes" required labels when it passes
        them (stored sequences are sorted, so a required label smaller than
        the branch label can no longer appear and the branch is pruned).
        """
        required = labels_from_mask(query_mask)
        results: list[int] = []
        stack: list[tuple[_Node, int, int]] = [(self._root, 0, 0)]
        while stack:
            node, prefix, need_idx = stack.pop()
            if need_idx == len(required) and node.terminal:
                results.append(prefix)
            for label, child in node.children.items():
                next_need = need_idx
                if need_idx < len(required):
                    if label > required[need_idx]:
                        continue  # sorted order: the required label was skipped
                    if label == required[need_idx]:
                        next_need += 1
                stack.append((child, prefix | label_bit(label), next_need))
        return results

    def iter_masks(self) -> Iterator[int]:
        """Yield every stored mask (in no particular order)."""
        stack: list[tuple[_Node, int]] = [(self._root, 0)]
        while stack:
            node, prefix = stack.pop()
            if node.terminal:
                yield prefix
            for label, child in node.children.items():
                stack.append((child, prefix | label_bit(label)))

    def node_count(self) -> int:
        """Number of trie nodes (storage-cost proxy for the ablation bench)."""
        count = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            count += 1
            stack.extend(node.children.values())
        return count


class TrieOracle:
    """The upper-bound estimate answered from per-pair prefix trees.

    Built from a PowCov index's table: per landmark and vertex, the
    distance-ascending ``(d, trie)`` groups of Section 3.1.
    """

    def __init__(self, index) -> None:
        self.landmarks = index.landmarks
        self.views: list[dict[int, list[tuple[float, LabelSetTrie]]]] = []
        for i in range(len(index.landmarks)):
            per_vertex: dict[int, list[tuple[float, LabelSetTrie]]] = {}
            vertex, dist, mask = index.table.landmark_slice(i)
            for u, d, m in zip(vertex.tolist(), dist.tolist(), mask.tolist()):
                groups = per_vertex.setdefault(u, [])
                if not groups or groups[-1][0] != d:
                    groups.append((d, LabelSetTrie()))
                groups[-1][1].insert(m)
            self.views.append(per_vertex)

    def _distance(self, i: int, vertex: int, label_mask: int) -> float:
        if vertex == self.landmarks[i]:
            return 0.0
        for dist, trie in self.views[i].get(vertex, ()):
            if trie.contains_subset_of(label_mask):
                return float(dist)
        return INF

    def query(self, source: int, target: int, label_mask: int) -> float:
        if source == target:
            return 0.0
        if label_mask == 0:
            return INF
        best = INF
        for i in range(len(self.landmarks)):
            ds = self._distance(i, source, label_mask)
            if ds != INF:
                best = min(best, ds + self._distance(i, target, label_mask))
        return best
