import argparse
import copy
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from widthcalc import cli, selftest
from widthcalc.cli import main
from widthcalc.gen import GenConfig, enumerate_moves, gen_complex
from widthcalc.model import emit_complex, parse_complex, validate
from widthcalc.moves import Consolidate, emit_move
from conftest import bdy, cb, thick, thin
from widthcalc.model import build_complex


@pytest.fixture
def instance_file(tmp_path, one_bridge_sphere):
    path = tmp_path / "bridge.json"
    path.write_text(json.dumps(emit_complex(one_bridge_sphere)))
    return str(path)


@pytest.fixture
def four_ended_file(tmp_path, spheres_with_four_ends):
    path = tmp_path / "spheres.json"
    path.write_text(json.dumps(emit_complex(spheres_with_four_ends)))
    return str(path)


def _consolidatable(tmp_path):
    cx = build_complex(
        thick=[thick("H", 1, 0, "Hu", "Hd"), thick("J", 1, 0, "Ju", "Jd")],
        thin=[thin("F", 1, 0, from_cb="Hu", to_cb="Jd")],
        cbs=[cb("Hu", "H", minus=("F",)), cb("Hd", "H"),
             cb("Ju", "J"), cb("Jd", "J", minus=("F",), product=True)],
    )
    inst = tmp_path / "chain.json"
    inst.write_text(json.dumps(emit_complex(cx)))
    move = tmp_path / "move.json"
    move.write_text(json.dumps(emit_move(Consolidate(thick="J", thin="F"))))
    return str(inst), str(move)


def test_validate_ok(instance_file, capsys):
    assert main(["validate", instance_file]) == 0
    assert "valid" in capsys.readouterr().out


def test_validate_cycle_exit_one(tmp_path, capsys):
    cx = build_complex(
        thick=[thick("H", 2, 0, "Hu", "Hd"), thick("J", 2, 0, "Ju", "Jd")],
        thin=[thin("F1", 1, 0, from_cb="Hu", to_cb="Jd"),
              thin("F2", 1, 0, from_cb="Ju", to_cb="Hd")],
        cbs=[cb("Hu", "H", minus=("F1",)), cb("Hd", "H", minus=("F2",)),
             cb("Ju", "J", minus=("F2",)), cb("Jd", "J", minus=("F1",))],
    )
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(emit_complex(cx)))
    assert main(["validate", str(path)]) == 1
    assert "closed flow line" in capsys.readouterr().err


def test_non_boolean_certificate_exit_two(tmp_path, capsys, one_bridge_sphere):
    doc = emit_complex(one_bridge_sphere)
    doc["cbs"][0]["ball_certificate"] = "false"
    path = tmp_path / "coerced.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "ball_certificate" in err


@pytest.mark.parametrize("section, key, misspelt", [
    ("thick", None, "uper_cb"),
    ("thin", None, "form_cb"),
    ("boundary", "is_drilled_vertex", "is_drilled_vertx"),
    ("cbs", "minus", "mnus"),
    ("cbs", "product_certificate", "product_certficate"),
    ("cbs", None, "ball_certifcate"),
])
def test_misspelt_instance_key_exit_two(tmp_path, capsys, section, key, misspelt):
    # with the key it stands for missing or present, the misspelling is
    # refused, never read as the key's default
    doc = emit_complex(gen_complex(GenConfig(max_thick=5), random.Random(4)))
    record = doc[section][0]
    record[misspelt] = record.pop(key) if key else True
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: bad instance document {path}: "
                            f"{section}: unknown field {misspelt!r}\n")


def test_seed_is_read_by_gen_only(instance_file):
    for command in ("validate", "complexity", "apply", "thin", "explore"):
        with pytest.raises(SystemExit):
            main([command, instance_file, "--seed", "1"])
    with pytest.raises(SystemExit):
        main(["selftest", "--seed", "1"])


def test_validate_non_list_section_exit_two(tmp_path, capsys):
    path = tmp_path / "thick5.json"
    path.write_text(json.dumps({"thick": 5}))
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "instance.thick" in err


def test_validate_duplicate_ids_exit_two(tmp_path, capsys, one_bridge_sphere):
    path = tmp_path / "dup.json"
    for section, key, message in (("thick", "id", "duplicate id 'H'"),
                                  ("cbs", "id", "duplicate id within a collection")):
        doc = emit_complex(one_bridge_sphere)
        doc["cbs"][1]["id"] = doc[section][0][key]
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: bad instance document {path}: {message}\n"


def test_apply_non_list_embedded_moves_exit_two(tmp_path, capsys):
    inst, _ = _consolidatable(tmp_path)
    doc = json.loads(Path(inst).read_text())
    doc["moves"] = 5
    path = tmp_path / "moves5.json"
    path.write_text(json.dumps(doc))
    assert main(["apply", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "instance.moves" in err


def test_truncated_json_exit_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"thick": [')
    assert main(["validate", str(path)]) == 2
    assert main(["validate", str(tmp_path / "missing.json")]) == 2


def _one_line_error(capsys, start: str) -> None:
    """stderr ends in one error line that starts ``error: {start}``, with no traceback."""
    err = capsys.readouterr().err
    last = err.splitlines()[-1]
    assert "Traceback" not in err and last.startswith(f"error: {start}") and err.endswith(last + "\n"), err


def test_non_utf8_input_exit_two(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"thick": [], "note": "caf\u00e9"}'.encode("latin-1"))
    assert main(["validate", str(path)]) == 2
    _one_line_error(capsys, f"cannot read {path}: 'utf-8' codec can't decode")


def test_json_deeper_than_the_decoder_allows_exit_two(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["validate", str(deep)]) == 2
    _one_line_error(capsys, f"cannot parse {deep}: maximum recursion depth")
    inst, _ = _consolidatable(tmp_path)
    assert main(["apply", inst, "--move", str(deep)]) == 2
    _one_line_error(capsys, f"cannot parse {deep}: maximum recursion depth")


@pytest.mark.parametrize("argv", [["thin", "{inst}", "--quiet"],
                                  ["apply", "{inst}", "--move", "{move}"],
                                  ["gen", "--seed", "3"]])
def test_unwritable_out_exit_two(tmp_path, capsys, argv):
    inst, move = _consolidatable(tmp_path)
    out = tmp_path / "no-such-directory" / "result.json"
    argv = [arg.format(inst=inst, move=move) for arg in argv]
    assert main(argv + ["--out", str(out)]) == 2
    _one_line_error(capsys, f"cannot write {out}: [Errno 2]")


def test_complexity_vector_output(four_ended_file, instance_file, capsys):
    assert main(["complexity", four_ended_file]) == 0
    out = capsys.readouterr().out
    assert out.strip().splitlines()[-1] == "[24]"
    assert main(["complexity", instance_file, "--quiet"]) == 0
    assert capsys.readouterr().out.strip() == "[8]"


def test_complexity_rejects_empty(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"thick": [], "thin": [], "boundary": [], "cbs": []}))
    assert main(["complexity", str(path)]) == 1
    assert "empty_complex" in capsys.readouterr().err


def test_complexity_dot(four_ended_file, capsys):
    assert main(["complexity", four_ended_file, "--format", "dot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph instance")
    assert "Iup=12" in out and "idx=12" in out


def test_apply_consolidate(tmp_path, capsys):
    inst, move = _consolidatable(tmp_path)
    out_path = tmp_path / "result.json"
    assert main(["apply", inst, "--move", move, "--out", str(out_path)]) == 0
    stdout = capsys.readouterr().out
    assert "applied consolidate" in stdout
    result = parse_complex(json.loads(out_path.read_text()))
    assert validate(result).ok
    assert set(result.thick) == {"H"}


def test_apply_embedded_moves(tmp_path, capsys):
    cx = build_complex(
        thick=[thick("H", 1, 0, "Hu", "Hd"), thick("J", 1, 0, "Ju", "Jd")],
        thin=[thin("F", 1, 0, from_cb="Hu", to_cb="Jd")],
        cbs=[cb("Hu", "H", minus=("F",)), cb("Hd", "H"),
             cb("Ju", "J"), cb("Jd", "J", minus=("F",), product=True)],
    )
    doc = emit_complex(cx)
    doc["moves"] = [emit_move(Consolidate(thick="J", thin="F"))]
    path = tmp_path / "with_moves.json"
    path.write_text(json.dumps(doc))
    assert main(["apply", str(path)]) == 0
    assert "applied consolidate" in capsys.readouterr().out
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(emit_complex(cx)))
    assert main(["apply", str(bare)]) == 2  # nothing to apply is a usage error


def test_apply_replays_a_thin_run_of_no_step(tmp_path, capsys):
    """``thin`` on an input it leaves unchanged takes no step; its empty move
    list, embedded, applies and writes the input back.  A null ``moves``, like
    a missing one, is still a usage error."""
    start = tmp_path / "start.json"
    start.write_text(json.dumps(emit_complex(gen_complex(GenConfig(max_thick=5, seed=7)))))
    once, twice = tmp_path / "once.json", tmp_path / "twice.json"
    assert main(["thin", str(start), "--quiet", "--out", str(once)]) == 0
    capsys.readouterr()
    assert main(["thin", str(once), "--quiet", "--out", str(twice)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1  # the start line, and no step
    doc = json.loads(once.read_text())
    replay, replayed = tmp_path / "replay.json", tmp_path / "replayed.json"
    replay.write_text(json.dumps({**doc, "moves": []}))
    assert main(["apply", str(replay), "--quiet", "--out", str(replayed)]) == 0
    assert replayed.read_bytes() == twice.read_bytes()
    replay.write_text(json.dumps({**doc, "moves": None}))
    assert main(["apply", str(replay), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "no moves given" in err


@pytest.mark.parametrize("doc, field", [
    ({"kind": "consolidate"}, "'thick'"),
    ({"kind": "consolidate", "thick": ["J"], "thin": "F"}, "move.thick"),
    ({"kind": "destabilize", "variant": "stab", "thick": "J", "ghost_arcs": "1"}, "move.ghost_arcs"),
    ({"kind": "untelescope", "thick": "J", "disc_minus": {}, "disc_plus": {}}, "'outcome'"),
])
def test_apply_malformed_move_exit_two(tmp_path, capsys, doc, field):
    inst, _ = _consolidatable(tmp_path)
    move = tmp_path / "malformed.json"
    move.write_text(json.dumps(doc))
    assert main(["apply", inst, "--move", str(move)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and field in err


def test_apply_rejects_bad_certificate(tmp_path, capsys):
    inst, _ = _consolidatable(tmp_path)
    move = tmp_path / "bad.json"
    move.write_text(json.dumps(emit_move(Consolidate(thick="H", thin="F"))))
    assert main(["apply", inst, "--move", str(move)]) == 1
    assert "consolidate.product" in capsys.readouterr().err


def test_apply_chained_moves(tmp_path, capsys):
    # destabilize twice on a genus-2 level
    cx = build_complex(thick=[thick("H", 2, 0, "u", "d")],
                       cbs=[cb("u", "H"), cb("d", "H")])
    inst = tmp_path / "genus2.json"
    inst.write_text(json.dumps(emit_complex(cx)))
    move = tmp_path / "stab.json"
    move.write_text(json.dumps({"kind": "destabilize", "variant": "stab", "thick": "H"}))
    assert main(["apply", str(inst), "--move", str(move), "--move", str(move)]) == 0
    out = capsys.readouterr().out
    assert "[24] -> [12]" in out and "[12] -> [0]" in out


def test_apply_prints_the_whole_report_of_an_invalid_result(tmp_path, capsys):
    # destabilizing leaves genus 0 above two genus-1 boundary levels: both
    # bodies fail, and the message quotes the result's whole report
    cx = build_complex(thick=[thick("H", 1, 0, "u", "d")],
                       boundary=[bdy("B1", 1, 0, "u"), bdy("B2", 1, 0, "d")],
                       cbs=[cb("u", "H", minus=("B1",)), cb("d", "H", minus=("B2",))])
    inst = tmp_path / "genus1.json"
    inst.write_text(json.dumps(emit_complex(cx)))
    move = tmp_path / "stab.json"
    move.write_text(json.dumps({"kind": "destabilize", "variant": "stab", "thick": "H"}))
    assert main(["apply", str(inst), "--move", str(move)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "rejected: destabilize.result_invalid: "
        "[genus_feasibility] d: positive genus 0 < total negative genus 1\n"
        "[genus_feasibility] u: positive genus 0 < total negative genus 1\n")


def test_thin_command(tmp_path, four_ended_file, capsys):
    assert main(["thin", four_ended_file, "--quiet", "--out",
                 str(tmp_path / "thin.json")]) == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
    assert lines[0]["start"]["vector"] == [24]
    final = parse_complex(json.loads((tmp_path / "thin.json").read_text()))
    assert validate(final).ok


def test_thin_cap_zero(tmp_path, capsys):
    inst, _ = _consolidatable(tmp_path)
    assert main(["thin", inst, "--cap", "0", "--quiet"]) == 1
    assert "cap reached" in capsys.readouterr().err


@pytest.mark.parametrize("argv, least", [(["thin", "--cap", "-1"], 0),
                                         (["explore", "--cap", "0"], 1),
                                         (["explore", "--cap", "-3"], 1)])
def test_cap_below_its_least_exit_two(tmp_path, capsys, argv, least):
    inst, _ = _consolidatable(tmp_path)
    assert main(argv[:1] + [inst] + argv[1:]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --cap must be at least {least}, not {argv[-1]}\n"


def test_explore_cap_one_is_the_root_alone(tmp_path, capsys):
    inst, _ = _consolidatable(tmp_path)
    assert main(["explore", inst, "--cap", "1", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc["nodes"]) == [doc["root"]] and doc["complete"] is False


_DOT_STRING = r'"(?:[^"\\]|\\.)*"'


def test_dot_output_escapes_ids(tmp_path, capsys):
    """Every quoted string of the DOT output escapes backslashes and double
    quotes, so an id holding them stays one string."""
    import re

    ids = {"H": 'H"x', "u": "u\\", "d": 'd\\"q', "S": 'S "'}
    cx = build_complex(thick=[thick(ids["H"], 0, 4, ids["u"], ids["d"])],
                       boundary=[bdy(ids["S"], 0, 4, ids["d"])],
                       cbs=[cb(ids["u"], ids["H"], b=2), cb(ids["d"], ids["H"], minus=(ids["S"],), v=4)])
    assert validate(cx).ok
    path = tmp_path / "quotes.json"
    path.write_text(json.dumps(emit_complex(cx)))
    assert main(["complexity", str(path), "--format", "dot"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2] == r'  "H\"x" [shape=box style=bold label="H\"x (0,4)\nIup=8 Idown=6"];'
    named = set()
    for line in lines:
        strings = re.findall(_DOT_STRING, line)
        assert '"' not in re.sub(_DOT_STRING, "", line), line
        named.update(re.sub(r"\\(.)", r"\1", text[1:-1]) for text in strings)
    assert set(ids.values()) <= named


def test_explore_dot(tmp_path, capsys):
    inst, _ = _consolidatable(tmp_path)
    assert main(["explore", inst]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph rewrites")
    assert "consolidate" in out


def test_explore_json(tmp_path, capsys):
    inst, _ = _consolidatable(tmp_path)
    assert main(["explore", inst, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["complete"] is True
    assert len(doc["sinks"]) >= 1


def test_gen_round_trip(tmp_path, capsys):
    out_path = tmp_path / "gen.json"
    assert main(["gen", "--seed", "42", "--out", str(out_path)]) == 0
    assert "seed: 42" in capsys.readouterr().err
    cx = parse_complex(json.loads(out_path.read_text()))
    assert validate(cx).ok


def test_gen_reads_no_seed_variable(monkeypatch, capsys):
    """``--seed`` alone sets the seed: a WIDTHCALC_SEED in the environment
    changes nothing."""
    assert main(["gen", "--seed", "42"]) == 0
    want = capsys.readouterr()
    monkeypatch.setenv("WIDTHCALC_SEED", "43")
    assert main(["gen", "--seed", "42"]) == 0
    assert capsys.readouterr() == want


@pytest.mark.parametrize("flag, least", [("--max-thick", 1), ("--max-genus", 0),
                                         ("--max-punctures", 0), ("--max-ports", 0)])
@pytest.mark.parametrize("below", [1, 6])
def test_gen_bound_below_its_least_exit_two(capsys, flag, least, below):
    """A bound below its least is refused with one line, not coerced."""
    value = least - below
    assert main(["gen", flag, str(value)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flag} must be at least {least}, not {value}\n"
    assert main(["gen", flag, str(least), "--quiet"]) == 0


def test_gen_quiet_prints_no_instance(tmp_path, capsys):
    """``--quiet`` drops the printed instance, as on ``apply`` and ``thin``;
    ``--out`` still writes it, and the seed line stays on stderr."""
    path = tmp_path / "g.json"
    assert main(["gen", "--seed", "9", "--quiet"]) == 0
    assert capsys.readouterr() == ("", "seed: 9\n")
    assert main(["gen", "--seed", "9", "--quiet", "--out", str(path)]) == 0
    assert capsys.readouterr() == ("", "seed: 9\n")
    assert main(["gen", "--seed", "9"]) == 0
    assert capsys.readouterr().out == path.read_text()


def test_gen_is_reproducible(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["gen", "--seed", "9", "--out", str(a)]) == 0
    assert main(["gen", "--seed", "9", "--out", str(b)]) == 0
    assert a.read_text() == b.read_text()


def test_gen_without_out_prints_the_instance(tmp_path, capsys):
    path = tmp_path / "g.json"
    assert main(["gen", "--seed", "9", "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["gen", "--seed", "9"]) == 0
    captured = capsys.readouterr()
    assert captured.out == path.read_text()
    assert captured.err == "seed: 9\n"


def test_selftest_fast(capsys):
    assert main(["selftest", "--fast"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 10 and "FAIL" not in out


def test_selftest_reports_a_failing_check_by_its_name(capsys, monkeypatch, one_bridge_sphere):
    """A check that fails prints ``FAIL <name>: <detail>``, the name derived
    from its function, and the run exits 1."""
    monkeypatch.setattr(selftest, "four_ended_spheres", lambda: one_bridge_sphere)
    monkeypatch.setattr(selftest, "CHECKS", [selftest.check_worked_example])
    assert main(["selftest", "--fast"]) == 1
    assert capsys.readouterr().out == "FAIL worked-example: start vector must be (24,)\n"


# ---------------------------------------------------------------------------
# One parser per process
# ---------------------------------------------------------------------------

def _outputs(calls, capsys, fresh: bool) -> list:
    """Exit code and stdout of each call in turn, on the one cached parser or
    on a parser built anew for each call."""
    results = []
    for argv in calls:
        if fresh:
            cli.build_parser.cache_clear()
        results.append((main(argv), capsys.readouterr().out))
    return results


def test_reused_parser_keeps_no_state_between_calls(tmp_path, four_ended_file, capsys):
    cx = build_complex(thick=[thick("H", 2, 0, "u", "d")], cbs=[cb("u", "H"), cb("d", "H")])
    genus2 = tmp_path / "genus2.json"
    genus2.write_text(json.dumps(emit_complex(cx)))
    stab = tmp_path / "stab.json"
    stab.write_text(json.dumps({"kind": "destabilize", "variant": "stab", "thick": "H"}))
    for calls in ([["thin", four_ended_file, "--policy", "greedy"], ["thin", four_ended_file]],
                  [["apply", str(genus2), "--move", str(stab), "--move", str(stab)],
                   ["apply", str(genus2), "--move", str(stab)]],
                  [["validate", four_ended_file, "--quiet"], ["validate", four_ended_file]]):
        reused = _outputs(calls, capsys, fresh=False)
        assert reused == _outputs(calls, capsys, fresh=True)
    assert reused == [(0, ""), (0, "valid\n")]


def test_twenty_calls_build_one_parser_tree(monkeypatch, four_ended_file, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli.build_parser.cache_clear()
    for _ in range(10):
        assert main(["validate", four_ended_file]) == 0
        assert main(["complexity", four_ended_file, "--quiet"]) == 0
    assert len(built) <= 8  # the top-level parser and one per subcommand


def test_python_dash_m_runs_the_cli(instance_file, tmp_path):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    ok = subprocess.run([sys.executable, "-m", "widthcalc", "validate", instance_file],
                        env=env, capture_output=True, text=True)
    assert (ok.returncode, ok.stdout) == (0, "valid\n")
    missing = subprocess.run([sys.executable, "-m", "widthcalc", "validate",
                              str(tmp_path / "missing.json")], env=env, capture_output=True, text=True)
    assert missing.returncode == 2 and missing.stderr.startswith("error: cannot read")


# ---------------------------------------------------------------------------
# Robustness: no document makes the CLI raise
# ---------------------------------------------------------------------------

def _real_documents():
    instances, moves = [], []
    for seed in range(6):
        cx = gen_complex(GenConfig(max_thick=3, seed=seed))
        docs = [emit_move(m) for m in enumerate_moves(cx)]
        instances.append({**emit_complex(cx), "moves": docs[:2]})
        moves.extend(docs)
    return instances, moves


REAL_INSTANCES, REAL_MOVES = _real_documents()

json_scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
json_values = json_scalars | st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8)


@st.composite
def documents(draw, real):
    """Arbitrary JSON, or a real document with one value replaced by it.  The
    value to replace is found by a walk from the root that stops at each
    level with even odds, so shallow fields are tried as often as deep ones."""
    value = draw(json_values)
    if draw(st.booleans()):
        return value
    doc = copy.deepcopy(draw(st.sampled_from(real)))
    node = doc
    while True:
        key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        child = node[key]
        if not isinstance(child, (dict, list)) or not child or draw(st.booleans()):
            node[key] = value
            return doc
        node = child


@settings(max_examples=100, deadline=None)
@given(instance=documents(REAL_INSTANCES), move=documents(REAL_MOVES))
def test_cli_exits_cleanly_on_any_document(instance, move):
    with tempfile.TemporaryDirectory() as tmp:
        inst, mv = Path(tmp, "instance.json"), Path(tmp, "move.json")
        inst.write_text(json.dumps(instance))
        mv.write_text(json.dumps(move))
        for argv in (["validate", str(inst)], ["complexity", str(inst)],
                     ["complexity", str(inst), "--format", "dot"],
                     ["apply", str(inst)], ["apply", str(inst), "--move", str(mv)],
                     ["explore", str(inst), "--cap", "5", "--format", "json"],
                     ["thin", str(inst), "--cap", "3"]):
            assert main(argv + ["--quiet"]) in (0, 1, 2)


def test_apply_refuses_a_misspelt_move_key_exit_two(tmp_path, capsys):
    inst, _ = _consolidatable(tmp_path)
    move = tmp_path / "typo.json"
    move.write_text(json.dumps({"kind": "unperturb", "thick": "J", "near_sid": "down"}))
    assert main(["apply", inst, "--move", str(move)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: bad move document #0: move: unknown field 'near_sid'\n"


def test_thin_reports_a_rejected_forced_consolidation_exit_one(tmp_path, capsys, monkeypatch):
    """``thin`` raises the rejection of a forced consolidation; the command
    prints it on one line, as ``apply`` does, and nothing on stdout."""
    from widthcalc import moves

    def refuse(cx, move):
        raise moves.MoveRejected("consolidate.refused", "refused")

    monkeypatch.setitem(moves._KINDS, Consolidate, ("consolidate", refuse))
    inst = tmp_path / "forced.json"
    inst.write_text(json.dumps(emit_complex(gen_complex(GenConfig(max_thick=3, seed=13)))))
    for policy in ("first", "greedy"):
        assert main(["thin", str(inst), "--policy", policy]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "rejected: consolidate.refused: refused\n")
