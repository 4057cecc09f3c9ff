import importlib.util
import pathlib
import time

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / \
    "output_digest.py"


def _load():
    spec = importlib.util.spec_from_file_location("output_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_output_digest_names_every_refusal():
    # seed 1 of the refuse pool: three cases per template, each one line
    # with its error class and message
    digest = _load()
    lines = []
    t0 = time.perf_counter()
    assert digest.main(["--seeds", "1", "--pools", "refuse"],
                       emit=lines.append) == 0
    assert time.perf_counter() - t0 < 5.0
    assert len(lines) == 3 * 8
    for line in lines:
        pool, seed, index, template, verb, rest = line.split(" ", 5)
        assert (pool, seed, verb) == ("refuse", "1", "raises")
        assert template.startswith("ref-") and index.startswith("#")
        assert ": " in rest
    again = []
    digest.main(["--seeds", "1", "--pools", "refuse"], emit=again.append)
    assert again == lines


def test_output_digest_covers_the_certify_and_evaluate_pools():
    # seed 1: the nine certify templates and the constant-free case, one
    # SHA-256 line each, and the evaluate pool; nothing raises
    digest = _load()
    lines = []
    assert digest.main(["--seeds", "1", "--pools", "certify", "evaluate"],
                       emit=lines.append) == 0
    pools = [line.split(" ", 1)[0] for line in lines]
    assert set(pools) == {"certify", "evaluate"}
    assert sum(" sha256 " in line for line in lines) == 10
    assert len({line.split(" ", 4)[2] for line in lines
                if line.startswith("certify ")}) == 10
    assert not any(line.split(" ", 5)[4] == "raises" for line in lines)
    again = []
    digest.main(["--seeds", "1", "--pools", "certify", "evaluate"],
                emit=again.append)
    assert again == lines
