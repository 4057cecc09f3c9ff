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
