"""Static influence topology shared by the agent-based and heterogeneous
mean-field models.

A complete graph with self-loops (the homogeneous special case) is stored
implicitly so that large populations never materialise an O(n^2) adjacency.
"""
from __future__ import annotations

from itertools import chain

import numpy as np
import scipy.sparse as sp

from .core import config_value, config_vector


class GraphError(ValueError):
    """The influence graph violates a structural requirement."""


class InfluenceGraph:
    """Directed influence graph: j in neighbors(i) means j can sway i's behaviour.

    Every node must have out-degree >= 1, otherwise the imitation rates are
    undefined.
    """

    def __init__(self, n: int, adjacency: list | None = None, *, _complete: bool = False):
        if n < 1:
            raise GraphError("graph must have at least one node")
        self.n = int(n)
        self._complete = _complete
        # node i's out-neighbours are indices[indptr[i]:indptr[i + 1]], sorted
        self._indptr: np.ndarray | None = None
        self._indices: np.ndarray | None = None
        self._w: sp.csr_matrix | None = None
        if _complete:
            if n < 2:
                raise GraphError("complete influence graph needs n >= 2")
            self.degrees = np.full(n, n, dtype=np.int64)
            return
        if adjacency is None:
            raise GraphError("adjacency lists required for a non-complete graph")
        if len(adjacency) != n:
            raise GraphError("adjacency list count must equal n")
        # every index is checked as one array, then sorted within its node
        degrees = np.fromiter(map(len, adjacency), np.int64, n)
        rows = np.repeat(np.arange(n), degrees)
        try:
            entries = np.array(list(chain.from_iterable(adjacency)), dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise GraphError("neighbour indices must be integers") from exc
        checks = (
            (degrees == 0, "has out-degree 0", np.arange(n)),
            (entries != np.trunc(entries), "has a neighbour index that is not an integer", rows),
            ((entries < 0) | (entries >= n), f"has a neighbour index outside [0, {n})", rows),
        )
        for bad, what, node in checks:
            if bad.any():
                raise GraphError(f"node {node[np.argmax(bad)]} {what}")
        cols = entries.astype(np.int64)[np.lexsort((entries, rows))]
        repeated = (cols[1:] == cols[:-1]) & (rows[1:] == rows[:-1])
        if repeated.any():
            raise GraphError(f"node {rows[np.argmax(repeated)]} lists a neighbour twice")
        self._indptr = np.concatenate(([0], np.cumsum(degrees)))
        self._indices = cols
        # read-only, so a write through `neighbors` cannot part them from `_w`
        for a in (self._indptr, self._indices):
            a.flags.writeable = False
        self.degrees = degrees
        vals = np.repeat(1.0 / degrees, degrees)
        self._w = sp.csr_matrix((vals, cols, self._indptr), shape=(n, n))

    @classmethod
    def complete(cls, n: int) -> "InfluenceGraph":
        """Complete graph including self-loops: neighbors(i) is the whole population."""
        return cls(n, _complete=True)

    @classmethod
    def from_adjacency(cls, adjacency: list) -> "InfluenceGraph":
        return cls(len(adjacency), adjacency=adjacency)

    @property
    def is_complete(self) -> bool:
        return self._complete

    def neighbors(self, i: int) -> np.ndarray:
        if self._complete:
            return np.arange(self.n, dtype=np.int64)
        return self._indices[self._indptr[i]:self._indptr[i + 1]]

    def neighbor_lists(self) -> list[list[int]]:
        """Every node's out-neighbours, in order, as lists of ints."""
        if self._complete:
            raise GraphError("a complete graph stores no neighbour lists")
        flat, bounds = self._indices.tolist(), self._indptr.tolist()
        return [flat[lo:hi] for lo, hi in zip(bounds, bounds[1:])]

    def neighbor_mean(self, v: np.ndarray) -> np.ndarray:
        """Per-node average of v over each node's out-neighbourhood."""
        v = np.asarray(v, dtype=float)
        if v.shape != (self.n,):
            raise GraphError("vector length must equal the graph order")
        if self._complete:
            return np.full(self.n, v.mean())
        return self._w @ v

    def to_dict(self) -> dict:
        if self._complete:
            return {"type": "complete", "n": self.n}
        return {"type": "adjacency", "lists": self.neighbor_lists()}

    @classmethod
    def from_dict(cls, d: dict) -> "InfluenceGraph":
        """The graph of a config block: {"type": "complete", "n": n} or
        {"type": "adjacency", "lists": one list of neighbour indices per
        node}, where n and every index are read as `config_value` reads an
        int."""
        if not isinstance(d, dict):
            raise GraphError("a graph is a JSON object with a 'type'")
        kind = d.get("type")
        key = {"complete": "n", "adjacency": "lists"}.get(kind)
        if key is None:
            raise GraphError(f"unknown graph type {kind!r}")
        if key not in d:
            raise GraphError(f"{kind} graph needs {key!r}")
        if kind == "complete":
            return cls.complete(config_value("graph.n", d["n"], int))
        lists = d["lists"]
        if not isinstance(lists, list) or not set(map(type, lists)) <= {list}:
            raise GraphError("an adjacency graph's 'lists' must be a list of lists")
        config_vector("graph.lists", list(chain.from_iterable(lists)), int)
        return cls.from_adjacency(lists)

    def __eq__(self, other):
        if not isinstance(other, InfluenceGraph):
            return NotImplemented
        if self.n != other.n or self._complete != other._complete:
            return False
        if self._complete:
            return True
        return (np.array_equal(self._indptr, other._indptr)
                and np.array_equal(self._indices, other._indices))
