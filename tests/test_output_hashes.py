"""``tools/output_hashes.py`` hashes the benchmark workloads' query outputs:
two runs over the same library and inputs give the same hashes."""
import importlib.util
from pathlib import Path

TOOL = Path(__file__).parents[1] / "tools" / "output_hashes.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("output_hashes", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_round_0_hashes_repeat():
    tool = load_tool()
    lib = tool.library(TOOL.parents[1] / "src")
    for workload in tool.workloads.WORKLOADS:
        count, digest = tool.output_hash(lib, workload, [1], [0])
        assert count > 0
        assert tool.output_hash(lib, workload, [1], [0]) == (count, digest)
