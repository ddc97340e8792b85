"""Graphs, treedepth decompositions, tree decompositions, witness files."""

import json
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

import tdilp.bounds
import tdilp.structure
from conftest import complete_graph, cycle_graph, path_graph, petersen, random_forests
from tdilp.instance import parse_instance
from tdilp.kernelizer import KernelError
from tdilp.solver import solve_pipeline
from tdilp.formats import (
    TreeDecompositionWitness,
    parse_graph_file,
    serialize_graph,
    treedepth_to_tree_decomposition,
    verify_tree_decomposition,
    witness_to_json,
)
from tdilp.structure import (
    ROOT,
    Graph,
    StructureError,
    TreedepthDecomposition,
    build_primal_graph,
    compute_treedepth_exact,
    decompose,
    dfs_treedepth_heuristic,
    verify_treedepth_decomposition,
    witness_from_json,
)
from tdilp.oracle import induced_subgraph, treedepth_reference


def test_graph_basics():
    g = Graph([1, 2, 3], [(1, 2), (3, 2)])
    assert g.n == 3 and g.n_edges == 2
    assert g.neighbors(2) == (1, 3)
    assert (1, 2) in g.edges and (1, 3) not in g.edges
    assert induced_subgraph(g, [1, 2]).edges == frozenset({(1, 2)})


def test_connected_components():
    g = Graph(range(6), [(0, 1), (2, 3), (3, 4)])
    comps = g.connected_components()
    assert sorted(map(sorted, comps)) == [[0, 1], [2, 3, 4], [5]]
    assert len(path_graph(4).connected_components()) == 1


def test_decomposition_shape():
    d = TreedepthDecomposition({0: ROOT, 1: 0, 2: 0, 3: 1})
    assert d.roots() == (0,)
    assert d.children(0) == (1, 2)
    assert d.depth_of(3) == 3
    assert d.height == 3
    assert d.subtree(1) == (1, 3)
    assert d.path_to_root(3) == (0, 1, 3)


@st.composite
def _forest_and_nodes(draw):
    """A random forest and a few of its nodes: any nodes, or part of one
    root path with maybe one node more."""
    d = draw(random_forests())
    if draw(st.booleans()):
        return d, draw(st.lists(st.sampled_from(d.nodes()), max_size=6))
    path = d.path_to_root(draw(st.sampled_from(d.nodes())))
    vs = draw(st.lists(st.sampled_from(path), min_size=1, unique=True))
    return d, vs + draw(st.lists(st.sampled_from(d.nodes()), max_size=1))


@given(_forest_and_nodes())
@settings(max_examples=300, deadline=1000)
def test_is_chain_matches_pairwise_ancestry(case):
    d, vs = case
    want = all(a in d.path_to_root(b) or b in d.path_to_root(a) for a, b in combinations(vs, 2))
    assert d.is_chain(vs) == want
    assert d.is_chain(tuple(reversed(vs))) == want


def test_decomposition_rejects_cycles_and_orphans():
    with pytest.raises(StructureError):
        TreedepthDecomposition({0: 1, 1: 0})
    with pytest.raises(StructureError, match="parent cycle"):
        # 0 -> 1 -> 2 -> 0 is a cycle, 3 and 4 hang below it, 5 is a root
        TreedepthDecomposition({0: 1, 1: 2, 2: 0, 3: 0, 4: 3, 5: ROOT})
    with pytest.raises(StructureError):
        TreedepthDecomposition({0: 5})
    d = TreedepthDecomposition({0: ROOT, 1: 0})
    with pytest.raises(StructureError):
        d.drop_nodes([0])  # would orphan 1


def test_decomposition_depths_with_child_first_ids():
    # node i hangs below node i + 1, so every parent id is larger than its child's
    n = 20_000
    d = TreedepthDecomposition({i: i + 1 if i + 1 < n else ROOT for i in range(n)})
    assert d.height == n
    assert all(d.depth_of(i) == n - i for i in range(n))
    assert d.roots() == (n - 1,)


def test_exact_treedepth_known_values():
    assert compute_treedepth_exact(Graph([], []))[0] == 0
    assert compute_treedepth_exact(Graph([7], []))[0] == 1
    assert compute_treedepth_exact(complete_graph(4))[0] == 4
    assert compute_treedepth_exact(path_graph(3))[0] == 2
    assert compute_treedepth_exact(path_graph(7))[0] == 3  # floor(log2 7) + 1
    assert compute_treedepth_exact(cycle_graph(4))[0] == 3


def test_exact_treedepth_witness_verifies():
    for g in [complete_graph(4), path_graph(7), cycle_graph(5)]:
        depth, d = compute_treedepth_exact(g)
        assert verify_treedepth_decomposition(g, d)
        assert d.height == depth


def test_dfs_heuristic_roots_at_max_degree():
    g = path_graph(7)
    d = dfs_treedepth_heuristic(g)
    assert verify_treedepth_decomposition(g, d)
    # rooted at vertex 2 (first max-degree): branch to 1, then walk 3..7
    assert d.height == 6  # optimal is 3; the heuristic only promises validity

    star = Graph(range(1, 8), [(1, i) for i in range(2, 8)])
    d = dfs_treedepth_heuristic(star)
    assert verify_treedepth_decomposition(star, d)
    assert d.height == 2  # hub first keeps the star flat


def _path_instance(n: int):
    return parse_instance("max: 0\n" + "".join(f"x{i} - x{i + 1} <= 0\n" for i in range(n - 1)))


def test_decompose_takes_the_dfs_forest_at_every_size(monkeypatch):
    def no_exact(*args, **kwargs):
        raise AssertionError("decompose ran the exact treedepth search")

    monkeypatch.setattr(tdilp.bounds, "compute_treedepth_exact", no_exact)
    for n in (2, 12, 13):
        ins = _path_instance(n)
        graph = build_primal_graph(ins)
        dec = decompose(ins)
        assert dec == dfs_treedepth_heuristic(graph)
        assert verify_treedepth_decomposition(graph, dec)


def test_decompose_checks_a_given_witness():
    # decompose checks only the witness's kind; kernelize checks the forest
    ins = _path_instance(3)  # ids by name: x0 - x1 - x2
    good = TreedepthDecomposition({1: ROOT, 0: 1, 2: 1})
    assert decompose(ins, good) is good
    bags = TreeDecompositionWitness({0: ROOT}, {0: [0, 1, 2]})
    with pytest.raises(StructureError):
        decompose(ins, bags)
    not_vertical = TreedepthDecomposition({0: ROOT, 2: 0, 1: ROOT})
    wrong_nodes = TreedepthDecomposition({1: ROOT, 0: 1})
    for witness in (not_vertical, wrong_nodes):
        with pytest.raises(KernelError):
            solve_pipeline(ins, witness)


def test_primal_graph_joins_only_variables_that_share_a_row():
    ins = parse_instance("max: a + c\na + b <= 1\nc <= 2\nd <= 3\n")
    g = build_primal_graph(ins)
    a, b, c, d = (ins.id_of(x) for x in "abcd")
    assert g.neighbors(a) == (b,)  # shared row; the objective over a and c adds no edge
    assert g.neighbors(c) == () and g.neighbors(d) == ()


def test_tree_decomposition_from_treedepth():
    g = path_graph(3)
    depth, d = compute_treedepth_exact(g)
    w = treedepth_to_tree_decomposition(d)
    assert verify_tree_decomposition(g, w)
    assert w.width <= depth - 1
    assert max(len(b) for b in w.bags.values()) == 2


def test_verify_tree_decomposition_catches_failures():
    g = Graph([0, 1], [(0, 1)])
    # edge (0,1) in no bag
    w = TreeDecompositionWitness({0: ROOT, 1: 0}, {0: [0], 1: [1]})
    assert not verify_tree_decomposition(g, w)
    # vertex 1 has disconnected holders
    w2 = TreeDecompositionWitness(
        {0: ROOT, 1: 0, 2: 1}, {0: [0, 1], 1: [0], 2: [1, 0]}
    )
    assert not verify_tree_decomposition(g, w2)
    # vertex 1 is held by the roots of two different trees
    w3 = TreeDecompositionWitness({0: ROOT, 1: ROOT}, {0: [0, 1], 1: [1]})
    assert not verify_tree_decomposition(g, w3)
    assert verify_tree_decomposition(g, TreeDecompositionWitness({0: ROOT, 1: ROOT}, {0: [0, 1], 1: []}))


def test_witness_json_roundtrip_treedepth():
    # the file format indexes nodes densely from 0, like instance variable ids
    g = Graph(range(4), [(0, 1), (1, 2), (2, 3), (0, 3)])
    _, d = compute_treedepth_exact(g)
    text = witness_to_json(d)
    doc = json.loads(text)
    assert doc["kind"] == "treedepth"
    again = witness_from_json(text)
    assert isinstance(again, TreedepthDecomposition)
    assert again.parent == d.parent


def test_witness_json_roundtrip_treewidth():
    g = Graph(range(3), [(0, 1), (1, 2)])
    _, d = compute_treedepth_exact(g)
    w = treedepth_to_tree_decomposition(d)
    again = witness_from_json(witness_to_json(w))
    assert isinstance(again, TreeDecompositionWitness)
    assert again.bags == w.bags


def test_witness_json_requires_dense_nodes():
    with pytest.raises(StructureError):
        witness_from_json(json.dumps({"kind": "treedepth", "parent": [-1, 0, 1, 5]}))
    with pytest.raises(StructureError):
        witness_from_json(json.dumps({"kind": "nonsense", "parent": [-1]}))


def _read_witness(text, json_only=False):
    """witness_from_json's decomposition or StructureError text; json_only
    switches its canonical-text reader off, so every text goes to json."""
    canonical = (lambda _: None) if json_only else tdilp.structure._canonical_parents
    with mock.patch.object(tdilp.structure, "_canonical_parents", canonical):
        try:
            return witness_from_json(text)
        except StructureError as exc:
            return f"StructureError: {exc}"


# parent lists: valid forests, and any integers (cycles, dangling parents,
# values past 64 bits) that the decomposition refuses
parent_lists = st.one_of(
    random_forests().map(lambda d: [d.parent[v] for v in d.nodes()]),
    st.lists(st.integers(-2, 12) | st.integers(-(10**40), 10**40), max_size=8),
)

_NEAR_TOKENS = ["0{}", "+{}", "-0", "{}.0", "{}e0", "true", "null", '"{}"', "{}x", " {}", "{}\n"]
_ARABIC_INDIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669")


@st.composite
def near_canonical_witnesses(draw):
    """A canonical treedepth witness text with one change that json may or
    may not accept: whitespace, key order, a token misspelled, trailing
    text, another kind."""
    parents = draw(parent_lists)
    tokens = [str(p) for p in parents]
    canon = '{"kind": "treedepth", "parent": [' + ", ".join(tokens) + "]}"
    change = draw(st.sampled_from(["space", "indent", "separator", "keys", "token", "digits", "trail", "kind"]))
    if change == "space":
        at = draw(st.integers(0, len(canon)))
        return canon[:at] + draw(st.sampled_from([" ", "\n", "\t", "\r\n"])) + canon[at:]
    if change == "indent":
        return json.dumps({"kind": "treedepth", "parent": parents}, indent=draw(st.integers(0, 2)))
    if change == "separator":
        assume(len(tokens) > 1)
        return canon.replace(", ", draw(st.sampled_from([",", " ,", ",  ", ",\n"])))
    if change == "keys":
        return '{"parent": [' + ", ".join(tokens) + '], "kind": "treedepth"}'
    if change == "token":
        i = draw(st.integers(0, len(tokens)))
        tokens.insert(i, draw(st.sampled_from(_NEAR_TOKENS)).format(draw(st.sampled_from(tokens or ["1"]))))
        if i < len(tokens) - 1 and draw(st.booleans()):
            del tokens[i + 1]  # the misspelling replaces a token
        return '{"kind": "treedepth", "parent": [' + ", ".join(tokens) + "]}"
    if change == "digits":
        assume(tokens)
        return canon.translate(_ARABIC_INDIC)
    if change == "trail":
        return canon + draw(st.sampled_from([" ", "\n", "x", "}", "]}", ", 1"]))
    return canon.replace("treedepth", draw(st.sampled_from(["treewidth", "Treedepth", "tree depth"])))


@settings(max_examples=300, deadline=None)
@given(parents=parent_lists)
def test_witness_canonical_text_reads_as_json_does(parents):
    text = '{"kind": "treedepth", "parent": [' + ", ".join(map(str, parents)) + "]}"
    assert text == json.dumps({"kind": "treedepth", "parent": parents})
    assert tdilp.structure._canonical_parents(text) == parents  # read without json
    got = _read_witness(text)
    assert got == _read_witness(text, json_only=True)
    if isinstance(got, TreedepthDecomposition):
        assert witness_to_json(got) == text


@settings(max_examples=300, deadline=None)
@given(parents=parent_lists)
def test_witness_writer_text_is_json_dumps(parents):
    # a decomposition that skips the forest checks, so that any parent list,
    # 40-digit integers too, goes through the writer
    d = TreedepthDecomposition.__new__(TreedepthDecomposition)
    d.parent = dict(enumerate(parents))
    assert witness_to_json(d) == json.dumps({"kind": "treedepth", "parent": parents})


@settings(max_examples=500, deadline=None)
@given(text=near_canonical_witnesses())
def test_witness_near_canonical_text_goes_to_json(text):
    assert tdilp.structure._canonical_parents(text) is None
    got, want = _read_witness(text), _read_witness(text, json_only=True)
    assert type(got) is type(want) and got == want


def test_graph_file_roundtrip():
    g = parse_graph_file("3\n1 2\n2 3\n")
    assert g.vertices == (1, 2, 3)
    assert serialize_graph(g) == "3\n1 2\n2 3\n"
    assert parse_graph_file("2\n# no edges\n").n_edges == 0


def test_graph_file_errors():
    for bad in ["", "2\n1 3\n", "x\n", "2\n1\n"]:
        with pytest.raises(StructureError):
            parse_graph_file(bad)


@pytest.mark.parametrize("spelling", ["1_0", "\u0662", "\uff12", "+2", "-1"])
def test_graph_file_integers_are_ascii_digits(spelling):
    # int() reads all but "-1" as a valid count or endpoint
    with pytest.raises(StructureError, match="vertex count"):
        parse_graph_file(f"{spelling}\n")
    with pytest.raises(StructureError, match="non-integer endpoint"):
        parse_graph_file(f"12\n1 {spelling}\n")
    with pytest.raises(StructureError, match="non-integer endpoint"):
        parse_graph_file(f"12\n{spelling} 1\n")


small_graphs = st.integers(min_value=0, max_value=63).map(
    lambda mask: Graph(
        range(1, 5),
        [
            e
            for i, e in enumerate([(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
            if mask >> i & 1
        ],
    )
)


@given(small_graphs)
@settings(max_examples=64, deadline=None)
def test_exact_matches_reference_on_four_vertices(g):
    depth, d = compute_treedepth_exact(g)
    assert depth == treedepth_reference(g)
    assert verify_treedepth_decomposition(g, d)
    assert d.height == depth


@given(small_graphs)
@settings(max_examples=30, deadline=None)
def test_heuristic_is_a_valid_upper_bound(g):
    d = dfs_treedepth_heuristic(g)
    assert verify_treedepth_decomposition(g, d)
    assert d.height >= compute_treedepth_exact(g)[0]


def test_petersen_treedepth_is_within_known_bracket():
    # contains P10 (spanning path), so td >= floor(log2 10) + 1 = 4
    depth, d = compute_treedepth_exact(petersen())
    assert verify_treedepth_decomposition(petersen(), d)
    assert 4 <= depth <= 10
