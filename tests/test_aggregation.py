import random

import pytest

from resilitest.aggregation import (RequestLineError, WILDCARD,
                                    cluster_interfaces, interface_digest,
                                    parse_request_line, save_cluster_report)
from resilitest.model import new_corpus

from conftest import make_trace, root_span


def test_parse_request_line_with_parameter():
    assert parse_request_line("POST /api/login/alice") == ("POST", ["api", "login", "alice"])


def test_parse_request_line_root_path():
    assert parse_request_line("GET /") == ("GET", [])


def test_parse_request_line_preserves_empty_tokens():
    assert parse_request_line("PUT /a//b") == ("PUT", ["a", "", "b"])


@pytest.mark.parametrize("line", ["", "GET", "GET  /a", "/a/b", "GET a/b",
                                  "GET /a extra"])
def test_parse_request_line_malformed(line):
    with pytest.raises(RequestLineError):
        parse_request_line(line)


def _corpus_of_lines(lines):
    traces = [make_trace(f"t{i:04d}", [root_span(f"s{i}", line)])
              for i, line in enumerate(lines)]
    return new_corpus(traces, seed=0, topology_digest="00")


def test_login_lines_merge_into_one_wildcard_cluster():
    corpus = _corpus_of_lines(["POST /api/login/alice", "POST /api/login/bob"])
    clusters = cluster_interfaces(corpus)
    assert len(clusters) == 1
    assert clusters[0].template_string() == "POST /api/login/<*>"
    assert clusters[0].http_method == "POST"
    assert len(clusters[0].member_trace_ids) == 2


def test_identical_lines_form_single_cluster_without_wildcards():
    corpus = _corpus_of_lines(["GET /health"] * 1000)
    clusters = cluster_interfaces(corpus)
    assert len(clusters) == 1
    assert clusters[0].template_tokens == ["health"]
    assert len(clusters[0].member_trace_ids) == 1000


def _uri_generators(rng):
    # 20 known templates; same-bucket templates differ in over half their tokens
    nouns = ["orders", "users", "items", "carts", "prices", "stock", "events",
             "logs", "audits", "files", "keys", "jobs", "tasks", "notes",
             "tags", "locks", "bids", "rooms", "seats", "funds"]
    templates = []
    for i, noun in enumerate(nouns):
        method = ["GET", "POST", "PUT", "DELETE"][i % 4]
        verb = ["list", "open", "close", "sync", "scan"][i % 5]
        templates.append((method, f"svc{i}", noun, verb))
    return templates


def test_twenty_generated_templates_recovered_exactly():
    rng = random.Random(42)
    templates = _uri_generators(rng)
    lines = []
    for method, svc, noun, verb in templates:
        for _ in range(30):
            lines.append(f"{method} /{svc}/{noun}/{verb}/{rng.randint(1000, 9999)}")
    rng.shuffle(lines)
    corpus = _corpus_of_lines(lines)
    clusters = cluster_interfaces(corpus)
    assert len(clusters) == 20
    recovered = {c.template_string() for c in clusters}
    expected = {f"{m} /{s}/{n}/{v}/{WILDCARD}" for m, s, n, v in templates}
    assert recovered == expected


def test_partition_property():
    rng = random.Random(9)
    lines = [f"GET /svc/things/get/{rng.randint(0, 50)}" for _ in range(200)]
    lines += [f"POST /svc/things/put/{rng.randint(0, 50)}" for _ in range(100)]
    corpus = _corpus_of_lines(lines)
    clusters = cluster_interfaces(corpus)
    member_ids = [tid for c in clusters for tid in c.member_trace_ids]
    assert len(member_ids) == len(corpus.traces)
    assert len(set(member_ids)) == len(member_ids)


def test_stability_on_reclustering():
    rng = random.Random(10)
    lines = [f"POST /api/login/{rng.choice(['ann', 'bob', 'cal'])}"
             for _ in range(60)]
    corpus = _corpus_of_lines(lines)
    first = {c.interface_id: c.template_tokens for c in cluster_interfaces(corpus)}
    second = {c.interface_id: c.template_tokens for c in cluster_interfaces(corpus)}
    assert first == second


def test_wildcard_minimality_on_generated_corpus():
    rng = random.Random(11)
    lines = []
    for _ in range(100):
        lines.append(f"GET /api/users/fetch/{rng.randint(100, 999)}")
        lines.append(f"GET /api/rooms/clean/{rng.randint(100, 999)}")
    corpus = _corpus_of_lines(lines)
    clusters = cluster_interfaces(corpus)
    for cluster in clusters:
        wildcard_positions = [i for i, tok in enumerate(cluster.template_tokens)
                              if tok == WILDCARD]
        assert wildcard_positions == [3]  # only the generator's parameter position


def test_different_token_counts_never_share_cluster():
    corpus = _corpus_of_lines(["GET /a/b/c", "GET /a/b/c/d"])
    assert len(cluster_interfaces(corpus)) == 2


def test_max_children_overflow_funnels_into_wildcard_branch():
    # 120 distinct alphabetic first tokens: the tree keeps 100 literal
    # children, the remainder share the wildcard branch and merge
    tokens = []
    for a in "abcdefghijkl":
        for b in "abcdefghij":
            tokens.append(f"{a}{b}tok")
    lines = [f"GET /{tok}/leaf" for tok in tokens[:120]]
    corpus = _corpus_of_lines(lines)
    clusters = cluster_interfaces(corpus)
    merged = [c for c in clusters if WILDCARD in c.template_tokens]
    assert len(clusters) == 101
    assert len(merged) == 1
    assert len(merged[0].member_trace_ids) == 20


def test_interface_id_is_stable_digest():
    assert interface_digest("GET", ["a", WILDCARD]) == interface_digest("GET", ["a", WILDCARD])
    assert interface_digest("GET", ["a"]) != interface_digest("POST", ["a"])


def test_cluster_report_file(tmp_path):
    corpus = _corpus_of_lines(["POST /api/login/alice", "POST /api/login/bob",
                               "GET /health/live/now"])
    clusters = cluster_interfaces(corpus)
    path = tmp_path / "clusters.txt"
    save_cluster_report(clusters, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    for line, cluster in zip(sorted(lines), sorted(c.interface_id for c in clusters)):
        assert line.startswith(cluster)


def test_reference_corpus_partitions_into_204_interfaces(ref_corpus):
    clusters = cluster_interfaces(ref_corpus)
    assert len(clusters) == 204
    assert all(len(c.member_trace_ids) == 5 for c in clusters)
