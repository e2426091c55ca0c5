"""Source layout: the Spark plumbing and the Algorithm-2 kernel each live
in one place in ``src/``, and the names the benchmark's traced run uses
exist (no Spark needed)."""
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def sources() -> dict[str, str]:
    return {p.relative_to(SRC).as_posix(): p.read_text() for p in SRC.rglob("*.py")}


def test_one_distributed_map_module():
    users = sorted(name for name, text in sources().items() if "mapInPandas" in text)
    assert users == ["repro/spark_map.py"]


def test_one_per_vertex_kernel():
    """Algorithm 1's passes (① NNDescent, ②③ selection) share
    ``repro.ann.pruning``'s kernel; the distributed map runs from the
    per-vertex, per-query and exact-scan modules only."""
    import re

    for name, text in sources().items():
        assert "def refine(" not in text, f"{name} defines a second per-vertex kernel"
    callers = sorted(
        name for name, text in sources().items()
        if re.search(r"spark_map\.(collect|lazy)\(", text))
    assert callers == [
        "repro/ann/bruteforce.py", "repro/ann/pruning.py", "repro/core/joint_search.py"]


def test_one_reader_of_default_parallelism():
    """How many tasks an op runs is decided in ``spark_map`` alone."""
    users = sorted(name for name, text in sources().items() if "defaultParallelism" in text)
    assert users == ["repro/spark_map.py"]


def test_one_search_kernel():
    for name, text in sources().items():
        for kernel in ("def beam_search(", "def _score_candidates("):
            assert kernel not in text, f"{name} defines a second Algorithm-2 kernel"


# The benchmark's traced run (perfbench/tracing.py) replays the kernel
# single-threaded and reads joint_search's counters; these pin what it uses.

def test_traced_replay_call_shape():
    """``beam_search_batch(qry, obj, weights, nbrs, seed_vertex, k, l,
    qids)`` positionally, on a chunk of ``_BATCH`` queries."""
    import inspect

    import numpy as np

    from repro.ann.beam_search import beam_search_batch
    from repro.core.joint_search import _BATCH

    assert isinstance(_BATCH, int) and _BATCH >= 1
    params = list(inspect.signature(beam_search_batch).parameters.values())[:8]
    assert [p.name for p in params] == [
        "q_mats", "obj_mats", "weights", "nbrs", "seed_vertex", "k", "l", "qids"]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
    vecs = np.eye(4, dtype=np.float32)
    nbrs = np.array([[1], [2], [3], [0]], dtype=np.int32)
    ids, ips, stats = beam_search_batch([vecs], [vecs], [1.0], nbrs, 0, 2, 2, np.arange(2))
    assert ids.shape == ips.shape == (2, 2)
    assert ids[:, 0].tolist() == [0, 1]
    assert stats.n_expanded > 0


def test_traced_search_stats_names(local_map):
    """``SearchOutput.stats`` carries the kernel time and the four effort
    counters (run with the distributed map replaced by a local call)."""
    import numpy as np

    from repro.ann.graphs import GraphIndex
    from repro.core.fused_index import FusedIndex
    from repro.core.joint_search import joint_search

    vecs = np.eye(4, dtype=np.float32)
    graph = GraphIndex(nbrs=np.array([[1], [2], [3], [0]], dtype=np.int32), seed_vertex=0)
    out = joint_search(None, [vecs], [vecs], FusedIndex(graph=graph, weights=np.ones(1)), 2, 4)
    assert out.ids[:, 0].tolist() == [0, 1, 2, 3]
    for name in ("compute_s", "n_expanded", "n_candidates", "n_dots", "n_dots_saved"):
        assert name in out.stats
    assert out.stats["n_expanded"] > 0


def test_traced_mr_hook_sees_every_sub_search(monkeypatch, local_map):
    """The traced run times MR's sub-searches by replacing
    ``repro.baselines.mr.Must``: MR-- makes one ``search`` call (one
    stacked scan), graph MR one per active modality (run with the
    distributed map replaced by a local call)."""
    import numpy as np

    from repro.ann.graphs import GraphIndex
    from repro.baselines import mr
    from repro.core.fused_index import FusedIndex

    calls = []

    class CountingMust(mr.Must):
        def search(self, *args, **kwargs):
            calls.append(len(self.obj_mats))
            return super().search(*args, **kwargs)

    monkeypatch.setattr(mr, "Must", CountingMust)
    vecs = np.eye(4, dtype=np.float32)
    graph = GraphIndex(nbrs=np.array([[1], [2], [3], [0]], dtype=np.int32), seed_vertex=0)
    index = FusedIndex(graph=graph, weights=np.ones(1))
    qry = [vecs, vecs, vecs]
    for indexes, want in ((None, [3]), ([index] * 3, [1, 1, 1])):
        calls.clear()
        out = mr.MR(spark=None, obj_mats=[vecs] * 3, indexes=indexes).search(qry, k=2, l_cand=4)
        assert calls == want
        assert out.ids[:, 0].tolist() == [0, 1, 2, 3]


def test_traced_mining_hook_sees_every_scan(monkeypatch, local_map):
    """The traced run times the mining scan by wrapping
    ``repro.core.weights.topk_scan`` and replays its last call for
    ``weights.mine_s``: ``learn_weights`` calls it once per epoch with
    hard negatives and never with random ones (run with the distributed
    map replaced by a local call)."""
    import numpy as np

    from repro.core import weights

    calls = []
    scan = weights.topk_scan

    def counting(*args, **kwargs):
        calls.append(args)
        return scan(*args, **kwargs)

    monkeypatch.setattr(weights, "topk_scan", counting)
    vecs = np.eye(4, dtype=np.float32)
    for hard, want in ((True, 3), (False, 0)):
        calls.clear()
        res = weights.learn_weights(
            None, [vecs, vecs], [vecs, vecs], np.arange(4), epochs=3, n_neg=2,
            hard_negatives=hard)
        assert len(calls) == want
        assert len(res.history) == 3


# The relational top-k (Catalyst cross join, window rank, array IP
# columns) is the test oracle in tests/reference_sql.py; src/ keeps none.

def imports(text: str) -> list[tuple[str, str]]:
    """``(module, name)`` for every import in ``text``; ``name`` is empty
    for a plain ``import module``."""
    import ast

    out = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Import):
            out += [(a.name, "") for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            out += [(node.module or "", a.name) for a in node.names]
    return out


def test_no_relational_top_k_in_src():
    for name, text in sources().items():
        for module, imported in imports(text):
            assert imported not in ("Window", "Column"), f"{name} imports {imported}"
            assert "pyspark.sql.functions" not in (module, f"{module}.{imported}"), (
                f"{name} imports pyspark.sql.functions")


def test_distance_and_datasets_import_no_pyspark():
    for name in ("repro/ann/distance.py", "repro/datasets.py"):
        modules = [module for module, _ in imports(sources()[name])]
        assert not [m for m in modules if m.split(".")[0] == "pyspark"], name


def test_one_topk_row_schema():
    """The per-query top-k rows' schema is written once, as
    ``spark_map.TOPK_SCHEMA``, next to the builder and its inverse."""
    users = sorted(name for name, text in sources().items() if "ip_joint double" in text)
    assert users == ["repro/spark_map.py"]


# The input contract (unit-norm rows, weights >= 0, consistent shapes)
# is stated once, next to the kernels that assume it.

CONTRACT = ("NORM_TOL", "check_unit_norm", "check_weights", "check_objects", "query_weights")


def definitions(text: str) -> set[str]:
    """Names ``text`` defines at module level: functions, classes and
    assignment targets."""
    import ast

    out = set()
    for node in ast.parse(text).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out |= {t.id for t in targets if isinstance(t, ast.Name)}
    return out


def test_ann_imports_nothing_from_core():
    for name, text in sources().items():
        if name.startswith("repro/ann/"):
            modules = [module for module, _ in imports(text)]
            assert not [m for m in modules if m.startswith("repro.core")], name


def test_input_contract_defined_once():
    for contract_name in CONTRACT:
        where = sorted(name for name, text in sources().items() if contract_name in definitions(text))
        assert where == ["repro/ann/distance.py"], (contract_name, where)


def test_one_caller_of_learn_weights():
    """Weights are learned in one place, ``harness.learn_on_train_half``;
    ``fit_must`` builds from the weights it is given."""
    import re

    users = sorted(
        name for name, text in sources().items()
        if re.search(r"(?<!def )\blearn_weights\(", text))
    assert users == ["repro/eval/harness.py"]
