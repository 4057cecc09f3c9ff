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


_OLD = """\
certify 1 #0 constant-exp sha256 5e0a
certify 1 #0 constant-exp march.cutoff 1.5
certify 1 #0 constant-exp march.rounds[0][0] 100.0
certify 1 #0 constant-exp march.rounds[0][1] 2e-07
certify 1 #0 constant-exp constants.tail_residual_bound 1e-10
certify 1 #0 constant-exp constants.z_infinity 1.25
certify 2 #0 constant-exp march.cutoff 1.5
certify 2 #0 constant-exp constants.tail_residual_bound 1e-10
certify 2 #0 constant-exp constants.z_infinity 2.0
evaluate 1 #0 constant-exp dominant value(2.0) 4.0
evaluate 1 #0 constant-exp dominant value(3.0) 9.0
evaluate 1 #0 constant-exp dominant value(array) [4.0, 9.0]
evaluate 1 #0 constant-exp row 0 [('envelope_bound', 0.5), ('ratio', inf)]
refuse 1 #0 ref-parse raises ParseError: bad token (at offset 0)
refuse 1 #1 ref-parse raises ParseError: bad token (at offset 1)
"""

# seed 1's z_infinity moves past its bound, seed 2's within it; one point
# of the dominant value moves, and a round, a row cell, the hash and a
# refusal's message; one line is only in each digest
_NEW = """\
certify 1 #0 constant-exp sha256 77b1
certify 1 #0 constant-exp march.cutoff 1.5
certify 1 #0 constant-exp march.rounds[0][0] 100.0
certify 1 #0 constant-exp march.rounds[0][1] 3e-07
certify 1 #0 constant-exp constants.tail_residual_bound 1e-10
certify 1 #0 constant-exp constants.z_infinity 1.250000001
certify 1 #0 constant-exp march.refinements 1
certify 2 #0 constant-exp march.cutoff 1.5
certify 2 #0 constant-exp constants.tail_residual_bound 1e-10
certify 2 #0 constant-exp constants.z_infinity 2.00000000001
evaluate 1 #0 constant-exp dominant value(2.0) 4.0
evaluate 1 #0 constant-exp dominant value(3.0000000000000004) 9.000000000000002
evaluate 1 #0 constant-exp dominant value(array) [4.0, 9.000000000000002]
evaluate 1 #0 constant-exp row 0 [('envelope_bound', 0.4), ('ratio', inf)]
refuse 1 #0 ref-parse raises ParseError: bad token (at offset 0)
refuse 1 #1 ref-parse raises ParseError: unexpected character (at offset 1)
"""


def test_compare_names_what_moved(tmp_path):
    digest = _load()
    old, new = tmp_path / "old.txt", tmp_path / "new.txt"
    old.write_text(_OLD)
    new.write_text(_NEW)
    lines = []
    assert digest.main(["--compare", str(old), str(new)],
                       emit=lines.append) == 1
    moved = {line.split(": ")[0]: line.split(": ", 1)[1] for line in lines
             if not line.startswith(("only in", "beyond bound"))
             and ": " in line}
    assert moved == {
        "certify constant-exp sha256": "1 of 1 lines moved, in text",
        "certify constant-exp march.rounds[][]":
            "1 of 2 lines moved, largest relative move 0.333",
        "certify constant-exp constants.z_infinity":
            "2 of 2 lines moved, largest relative move 8e-10",
        "evaluate constant-exp dominant value":
            "2 of 3 lines moved, largest relative move 1.97e-16",
        "evaluate constant-exp row envelope_bound":
            "1 of 1 lines moved, largest relative move 0.2",
        "refuse ref-parse raises": "1 of 2 lines moved, in text",
    }
    assert "3 of 9 fields unmoved" in lines
    assert [line for line in lines if line.startswith("only in")] == [
        "only in NEW: certify 1 #0 constant-exp march.refinements 1"]
    assert [line for line in lines if line.startswith("beyond bound")] == [
        "beyond bound: certify 1 #0 constant-exp constants.z_infinity "
        "moved by 1e-09 > tail_residual_bound 1e-10"]
    same = []
    assert digest.main(["--compare", str(old), str(old)],
                       emit=same.append) == 0
    assert same == ["9 of 9 fields unmoved"]


def _exit_code(tmp_path, old_text, new_text):
    old, new = tmp_path / "old.txt", tmp_path / "new.txt"
    old.write_text(old_text)
    new.write_text(new_text)
    return _load().main(["--compare", str(old), str(new)],
                        emit=lambda line: None)


def test_compare_exits_with_1_on_what_breaks_identity(tmp_path):
    head = _OLD.splitlines(keepends=True)
    # numbers that move within their bounds: a round, a point, a row
    # cell and seed 2's z_infinity (1e-11 against its bound of 1e-10)
    within = _OLD.replace("100.0", "100.5").replace(
        "value(3.0) 9.0", "value(3.0) 9.000000000000002").replace(
        "0.5), ('ratio'", "0.4), ('ratio'").replace(
        "z_infinity 2.0", "z_infinity 2.00000000001")
    assert _exit_code(tmp_path, _OLD, within) == 0
    # a field that moved in text
    assert _exit_code(tmp_path, _OLD, _OLD.replace("bad token", "bad")) == 1
    # a line in only one digest, either way
    assert _exit_code(tmp_path, _OLD, "".join(head[:-1])) == 1
    assert _exit_code(tmp_path, "".join(head[:-1]), _OLD) == 1
    # a certify constant beyond its bound
    assert _exit_code(tmp_path, _OLD, _OLD.replace(
        "z_infinity 1.25", "z_infinity 1.250000001")) == 1
    # a case's hash moves with its numbers, which moved within bounds
    rehashed = within.replace("sha256 5e0a", "sha256 77b1")
    assert _exit_code(tmp_path, _OLD, rehashed) == 0
    # a hash that moves alone: some output moved that no line shows
    assert _exit_code(tmp_path, _OLD, _OLD.replace("sha256 5e0a",
                                                   "sha256 77b1")) == 1
