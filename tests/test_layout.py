"""Source layout: the Spark plumbing and the Algorithm-2 kernel each live
in one place in ``src/`` (no Spark needed)."""
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def sources() -> dict[str, str]:
    return {p.relative_to(SRC).as_posix(): p.read_text() for p in SRC.rglob("*.py")}


def test_one_distributed_map_module():
    users = sorted(name for name, text in sources().items() if "mapInPandas" in text)
    assert users == ["repro/spark_map.py"]


def test_one_search_kernel():
    for name, text in sources().items():
        for kernel in ("def beam_search(", "def _score_candidates("):
            assert kernel not in text, f"{name} defines a second Algorithm-2 kernel"
