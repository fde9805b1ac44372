"""Static influence topology shared by the agent-based and heterogeneous
mean-field models.

A complete graph with self-loops (the homogeneous special case) is stored
implicitly so that large populations never materialise an O(n^2) adjacency.
"""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp


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
        self._adj: list[np.ndarray] | None = None
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
        adj = []
        degrees = np.empty(n, dtype=np.int64)
        for i, nbrs in enumerate(adjacency):
            a = np.asarray(sorted(nbrs), dtype=np.int64)
            if a.size == 0:
                raise GraphError(f"node {i} has out-degree 0")
            if a.min() < 0 or a.max() >= n:
                raise GraphError(f"node {i} has a neighbour index outside [0, {n})")
            if np.unique(a).size != a.size:
                raise GraphError(f"node {i} lists a neighbour twice")
            adj.append(a)
            degrees[i] = a.size
        self._adj = adj
        self.degrees = degrees
        rows = np.repeat(np.arange(n), degrees)
        cols = np.concatenate(adj)
        vals = np.repeat(1.0 / degrees, degrees)
        self._w = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))

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
        return self._adj[i]

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
        return {"type": "adjacency", "lists": [a.tolist() for a in self._adj]}

    @classmethod
    def from_dict(cls, d: dict) -> "InfluenceGraph":
        kind = d.get("type")
        key = {"complete": "n", "adjacency": "lists"}.get(kind)
        if key is None:
            raise GraphError(f"unknown graph type {kind!r}")
        if key not in d:
            raise GraphError(f"{kind} graph needs {key!r}")
        return cls.complete(int(d["n"])) if kind == "complete" else cls.from_adjacency(d["lists"])

    def __eq__(self, other):
        if not isinstance(other, InfluenceGraph):
            return NotImplemented
        if self.n != other.n or self._complete != other._complete:
            return False
        if self._complete:
            return True
        return all(np.array_equal(a, b) for a, b in zip(self._adj, other._adj))
