"""Interface aggregation: partition the corpus by entry-point interface.

Root-span request lines ("POST /api/login/alice") are folded through a
Drain-style fixed-depth parse tree that learns the static and variable parts
of each line, so thousands of calls that differ only in parameter values
collapse into one interface cluster per API template.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .model import Corpus, RequestLineError, parse_request_line, write_lines

WILDCARD = "<*>"

TREE_DEPTH = 4
SIMILARITY_THRESHOLD = 0.5
MAX_CHILDREN = 100


@dataclass
class InterfaceCluster:
    interface_id: str
    template_tokens: list  # literal strings and WILDCARD markers
    member_trace_ids: list
    http_method: str

    def template_string(self) -> str:
        return f"{self.http_method} /" + "/".join(self.template_tokens)


def interface_digest(method: str, template_tokens: list) -> str:
    text = method + " " + "\x1f".join(template_tokens)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class _Leaf:
    __slots__ = ("method", "template", "trace_ids", "index")

    def __init__(self, method, tokens, trace_id, index):
        self.method = method
        self.index = index
        self.template = list(tokens)
        self.trace_ids = [trace_id]


def _has_digit(token: str) -> bool:
    return any(ch.isdigit() for ch in token)


def _similarity(template, tokens):
    if not template:
        return 1.0, 0
    same = 0
    wildcards = 0
    for a, b in zip(template, tokens):
        if a == WILDCARD:
            wildcards += 1
        elif a == b:
            same += 1
    return same / len(template), wildcards


class DrainTree:
    """Online fixed-depth parse tree; the first levels are keyed by
    (method, token count) then by leading tokens, leaves hold clusters."""

    def __init__(self):
        self._root = {}
        self.leaves = []  # every leaf, in the order they were made

    def _leaf_group(self, method: str, tokens: list) -> list:
        key = (method, len(tokens))
        node = self._root.setdefault(key, {})
        for token in tokens[:TREE_DEPTH - 2]:
            children = node.setdefault("children", {})
            if token in children:
                node = children[token]
            elif _has_digit(token):
                node = children.setdefault(WILDCARD, {})
            elif len(children) < MAX_CHILDREN:
                node = children.setdefault(token, {})
            else:
                node = children.setdefault(WILDCARD, {})
        return node.setdefault("leaves", [])

    def add(self, line: str, trace_id: str) -> int:
        """The index in `leaves` of the leaf trace `trace_id`, of root request
        line `line`, joins for good; RequestLineError if `line` does not parse."""
        try:
            method, tokens = parse_request_line(line)
        except RequestLineError as exc:
            raise RequestLineError(f"trace {trace_id}: {exc}") from None
        leaves = self._leaf_group(method, tokens)
        (sim, _wildcards), best = max(  # the first leaf of the most similar template
            ((_similarity(leaf.template, tokens), leaf) for leaf in leaves),
            key=lambda pair: pair[0], default=((-1.0, -1), None))
        if best is not None and sim >= SIMILARITY_THRESHOLD:
            best.trace_ids.append(trace_id)
            best.template = [a if a == b else WILDCARD
                             for a, b in zip(best.template, tokens)]
            return best.index
        leaves.append(_Leaf(method, tokens, trace_id, len(self.leaves)))
        self.leaves.append(leaves[-1])
        return leaves[-1].index

    def clusters(self) -> list:
        """The InterfaceCluster of each leaf, by method and template."""
        return sorted((InterfaceCluster(interface_digest(leaf.method, leaf.template),
                                        list(leaf.template), list(leaf.trace_ids), leaf.method)
                       for leaf in self.leaves),
                      key=lambda c: (c.http_method, c.template_tokens))


def cluster_interfaces(corpus: Corpus) -> list:
    """Partition all corpus traces into interface clusters (every trace in
    exactly one cluster); a root request line that does not parse raises
    RequestLineError naming its trace."""
    tree = DrainTree()
    for trace in corpus.traces:
        tree.add(trace.root_span().operation_name, trace.trace_id)
    return tree.clusters()


def save_cluster_report(clusters: list, path) -> None:
    write_lines(path, (f"{cluster.interface_id} {cluster.template_string()} "
                       f"{len(cluster.member_trace_ids)}" for cluster in clusters))
