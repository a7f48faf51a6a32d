import hashlib
import json
import os
import random
import subprocess
import sys

import pytest

import conceptgraph
from conceptgraph.cli import main
from conceptgraph.core import (
    MAX_EXPANSION, Apply, Concat, ConceptGraph, Hole, Repeat, SlotRef, Template)
from conceptgraph.errors import CorruptFile
from conceptgraph.inducer import ingest
from conceptgraph.mdl import graph_report
from conceptgraph.storage import dumps, graph_from_json, import_teach, load


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_init_and_stats(tmp_path, capsys):
    graph = tmp_path / "g.cg"
    code, out, _ = run(capsys, "init", "--alphabet", "ab", "--out", str(graph))
    assert code == 0
    code, out, _ = run(capsys, "stats", "--graph", str(graph))
    assert code == 0
    assert "concepts: 4" in out
    assert "episode: 0" in out
    assert "raw_bits: 0.000000000" in out


def test_ingest_bumps_episode(tmp_path, capsys):
    graph = tmp_path / "g.cg"
    data = tmp_path / "in.txt"
    data.write_text("abab\n")
    run(capsys, "init", "--alphabet", "ab", "--out", str(graph))
    code, out, _ = run(capsys, "ingest", "--graph", str(graph), "--input", str(data))
    assert code == 0 and "episode 0:" in out
    code, out, _ = run(capsys, "stats", "--graph", str(graph))
    assert code == 0 and "episode: 1" in out


def test_unknown_flag_is_usage_error(capsys):
    code, _, err = run(capsys, "stats", "--graph", "x.cg", "--bogus")
    assert code == 1
    assert "usage error" in err


def test_missing_subcommand_is_usage_error(capsys):
    assert run(capsys, )[0] == 1


def test_missing_graph_is_data_error(tmp_path, capsys):
    code, _, err = run(capsys, "stats", "--graph", str(tmp_path / "none.cg"))
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("weight", ["nan", "1e400", "-1"])
def test_bad_weight_is_data_error_for_parse_and_refine(tmp_path, capsys, weight):
    graph = tmp_path / "g.cg"
    data = tmp_path / "in.txt"
    data.write_text("abab\n")
    run(capsys, "init", "--alphabet", "ab", "--out", str(graph))
    run(capsys, "ingest", "--graph", str(graph), "--input", str(data))
    doc = json.loads(graph.read_text())
    doc["concepts"][0][1] = float(weight)  # a row is [kind, weight, *fields]
    graph.write_text(json.dumps(doc))
    assert_data_error(["parse", "--graph", str(graph), "--input", str(data)],
                      ["refine", "--graph", str(graph), "--episode", "0"])


def run_cli(*argv):
    """The CLI in a subprocess, so a command that never ends fails the test
    instead of hanging it, and a traceback shows up on stderr."""
    src = os.path.dirname(os.path.dirname(conceptgraph.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-m", "conceptgraph.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=30)


def assert_data_error(*argvs):
    """Each command exits 2 with a one-line error and no traceback."""
    for argv in argvs:
        proc = run_cli(*argv)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr


@pytest.mark.parametrize("children", [[4, 1], [5, 1]])
def test_cyclic_graph_file_is_data_error(tmp_path, children):
    g = ConceptGraph("ab")
    g.add(Concat((g.add(Concat((0, 1))), 0)))  # 4 = "ab", 5 = "aba"
    doc = json.loads(dumps(g))
    doc["concepts"][4][2] = children  # the concat's children: 4 -> 4, or 4 -> 5 -> 4
    graph = tmp_path / "g.cg"
    graph.write_text(json.dumps(doc))
    data = tmp_path / "in.txt"
    data.write_text("abab\n")
    assert_data_error(["parse", "--graph", str(graph), "--input", str(data)])


def test_apply_naming_an_affect_primitive_is_data_error(tmp_path):
    g = ConceptGraph("abc")  # 3 and 4 are the affect primitives
    tpl = g.add(Template((Hole(0), SlotRef(1))))
    g.add(Apply(tpl, (0,)))
    doc = json.loads(dumps(g))
    doc["concepts"][6][2] = 4  # the apply's template
    graph = tmp_path / "g.cg"
    graph.write_text(json.dumps(doc))
    data = tmp_path / "in.txt"
    data.write_text("abab\n")
    assert_data_error(["parse", "--graph", str(graph), "--input", str(data)])


def test_repeat_past_the_expansion_cap_is_data_error(tmp_path):
    g = ConceptGraph("ab")
    g.add(Repeat(g.add(Concat((0, 1))), 2))
    doc = json.loads(dumps(g))
    doc["concepts"][5][3] = MAX_EXPANSION // 2 + 1  # the repeat's count: one "ab" past the cap
    graph = tmp_path / "g.cg"
    graph.write_text(json.dumps(doc))
    data = tmp_path / "in.txt"
    data.write_text("abab\n")
    assert_data_error(["parse", "--graph", str(graph), "--input", str(data)])


@pytest.mark.parametrize("payload", [[["a"]], ["z"], "ab"])
def test_malformed_blob_in_a_graph_file_is_data_error(tmp_path, payload):
    graph, data = tmp_path / "g.cg", tmp_path / "in.txt"
    data.write_text("abab\n")
    assert run_cli("init", "--alphabet", "ab", "--out", str(graph)).returncode == 0
    assert run_cli("ingest", "--graph", str(graph), "--input", str(data)).returncode == 0
    doc = json.loads(graph.read_text())
    doc["refinements"][0] = [[payload]]
    graph.write_text(json.dumps(doc))
    assert_data_error(["refine", "--graph", str(graph), "--episode", "0"],
                      ["stats", "--graph", str(graph)])


def test_a_level_that_does_not_spell_its_episode_is_data_error(tmp_path):
    """Every level of a refinement chain spells what level 0 spells, as
    `refine` promises; a file whose level 1 is a valid blob of other tokens
    is refused."""
    graph, data = tmp_path / "g.cg", tmp_path / "in.txt"
    data.write_text("abab\nab\nbaba\nabab\n")
    for argv in (["init", "--alphabet", "ab", "--out", str(graph)],
                 ["ingest", "--graph", str(graph), "--input", str(data)],
                 ["refine", "--graph", str(graph), "--episode", "0"]):
        assert run_cli(*argv).returncode == 0
    doc = json.loads(graph.read_text())
    assert len(doc["refinements"][0]) == 2
    doc["refinements"][0][1] = [["b", "b", "b"]]
    graph.write_text(json.dumps(doc))
    with pytest.raises(CorruptFile, match="does not spell"):
        load(str(graph))
    assert_data_error(["stats", "--graph", str(graph)])


def test_deep_chain_graph_file_works(tmp_path):
    """A concat chain 3000 deep, (... ((a b) b) ... b), top concept at weight 50."""
    g = ConceptGraph("ab")
    top = 0
    for _ in range(3000):
        top = g.add(Concat((top, 1)))
    g.set_weight(top, 50.0)
    graph = tmp_path / "g.cg"
    graph.write_text(dumps(g))
    data = tmp_path / "in.txt"
    data.write_text("a" + "b" * 3000 + "\n")
    script = tmp_path / "top.teach"
    for argv in (["parse", "--graph", str(graph), "--input", str(data)],
                 ["teach", "--graph", str(graph), "--concept", str(top), "--out", str(script)],
                 ["ingest", "--graph", str(graph), "--input", str(data)]):
        proc = run_cli(*argv)
        assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("episode 0: nodes=1 ")
    fresh = ConceptGraph("ab")
    assert fresh.expansion(import_teach(fresh, script.read_text())) == g.expansion(top)


def test_an_episode_counter_at_a_stored_episode_is_data_error(tmp_path, capsys):
    """The episode count is the number of chains, so the file states no
    counter: one added, here at a stored episode, is refused, and the file
    is left as it is."""
    graph, data = tmp_path / "g.cg", tmp_path / "in.txt"
    data.write_text("abab\nabba\nbaab\n")
    run(capsys, "init", "--alphabet", "ab", "--out", str(graph))
    assert run(capsys, "ingest", "--graph", str(graph), "--input", str(data))[0] == 0
    doc = json.loads(graph.read_text())
    doc["episode"] = 0
    graph.write_text(json.dumps(doc))
    before = graph.read_bytes()
    data.write_text("bbbaaa\n")
    assert_data_error(["ingest", "--graph", str(graph), "--input", str(data)],
                      ["stats", "--graph", str(graph)])
    assert graph.read_bytes() == before


def test_a_run_member_that_is_no_concept_is_data_error(tmp_path):
    """Counted toward the number template, the made-up members would make
    ingest add `Template((Hole(0), Hole(0)))` from children that do not exist."""
    graph, data = tmp_path / "g.cg", tmp_path / "in.txt"
    doc = json.loads(dumps(ConceptGraph("ab")))
    doc["run_observations"] = {"2": [-7, 999, 1000000]}
    graph.write_text(json.dumps(doc))
    before = graph.read_bytes()
    data.write_text("ab\n")
    assert_data_error(["ingest", "--graph", str(graph), "--input", str(data)])
    assert graph.read_bytes() == before


def test_a_repeated_concept_row_ingests_and_saves(tmp_path, capsys):
    """A graph file may hold one kind at two ids, as abstraction writes it
    when it rewrites twin concats into the same Apply, so the loader keeps
    such rows and an ingest saves them back."""
    doc = json.loads(dumps(ConceptGraph("abcd")))
    # 6, 7, 8: the newer template 10 applied to b, c and d; 9 repeats 6's Apply
    doc["concepts"] += [["apply", 1.0, 10, [c]] for c in (1, 2, 3, 1)]
    doc["concepts"].append(["template", 1.0, [["ref", 0], ["hole", 0]]])
    graph, data = tmp_path / "g.cg", tmp_path / "in.txt"
    graph.write_text(json.dumps(doc))
    data.write_text("ab\n")
    code, out, err = run(capsys, "ingest", "--graph", str(graph), "--input", str(data))
    assert code == 0, err
    kinds = [c.kind for c in load(str(graph)).concepts]
    assert type(kinds[6]) is Apply and kinds[6] == kinds[9]


def test_an_empty_refinement_chain_is_data_error(tmp_path, capsys):
    graph, data = tmp_path / "g.cg", tmp_path / "in.txt"
    data.write_text("abab\nabba\nbaab\n")
    run(capsys, "init", "--alphabet", "ab", "--out", str(graph))
    assert run(capsys, "ingest", "--graph", str(graph), "--input", str(data))[0] == 0
    doc = json.loads(graph.read_text())
    doc["refinements"][1] = []
    graph.write_text(json.dumps(doc))
    assert_data_error(["stats", "--graph", str(graph)])


def test_deeply_nested_graph_file_is_data_error(tmp_path):
    graph = tmp_path / "g.cg"
    graph.write_text("[" * 1000 + "]" * 1000)
    assert_data_error(["stats", "--graph", str(graph)])


def test_bad_episode_token_is_data_error(tmp_path, capsys):
    graph = tmp_path / "g.cg"
    data = tmp_path / "in.txt"
    data.write_text("abz\n")
    run(capsys, "init", "--alphabet", "ab", "--out", str(graph))
    code, _, err = run(capsys, "ingest", "--graph", str(graph), "--input", str(data))
    assert code == 2


def test_parse_report(tmp_path, capsys):
    graph = tmp_path / "g.cg"
    data = tmp_path / "in.txt"
    data.write_text("ab\n")
    run(capsys, "init", "--alphabet", "ab", "--out", str(graph))
    code, out, _ = run(capsys, "parse", "--graph", str(graph),
                       "--input", str(data), "--report")
    assert code == 0
    assert "desc: [0] [1]" in out
    assert "raw_bits: 5.000000000" in out
    assert "attention:" in out


def test_refine_appends_level(tmp_path, capsys):
    graph = tmp_path / "g.cg"
    data = tmp_path / "in.txt"
    data.write_text("abababab\n")
    run(capsys, "init", "--alphabet", "ab", "--out", str(graph))
    run(capsys, "ingest", "--graph", str(graph), "--input", str(data))
    code, out, _ = run(capsys, "refine", "--graph", str(graph), "--episode", "0")
    assert code == 0
    assert "chain length 2" in out
    code, _, _ = run(capsys, "refine", "--graph", str(graph), "--episode", "9")
    assert code == 2


def test_export_dot(tmp_path, capsys):
    graph = tmp_path / "g.cg"
    dot = tmp_path / "g.dot"
    run(capsys, "init", "--alphabet", "a", "--out", str(graph))
    code, _, _ = run(capsys, "export", "--graph", str(graph), "--dot", str(dot))
    assert code == 0
    assert dot.read_text().startswith("digraph concepts {")


def test_teach_writes_script(tmp_path, capsys):
    graph = tmp_path / "g.cg"
    data = tmp_path / "in.txt"
    out_path = tmp_path / "c.teach"
    data.write_text("ababab\n")
    run(capsys, "init", "--alphabet", "ab", "--out", str(graph))
    run(capsys, "ingest", "--graph", str(graph), "--input", str(data))
    payload = json.loads((graph).read_text())
    last = len(payload["concepts"]) - 1
    code, _, _ = run(capsys, "teach", "--graph", str(graph),
                     "--concept", str(last), "--out", str(out_path))
    assert code == 0
    assert out_path.read_text().splitlines()[0].startswith("[")


def test_learn_fn_reports_library(tmp_path, capsys):
    examples = tmp_path / "fns.txt"
    examples.write_text("red 2 1 3 4\nred 2 2 3 5\nred 2 5 2 7\n")
    code, out, _ = run(capsys, "learn-fn", "--examples", str(examples), "--report")
    assert code == 0
    assert "(builtin succ 1)" in out
    assert "(def red 2 (iter (sec succ 0) (var 0) (var 1)))" in out
    assert "unsolved: (none)" in out


def test_learn_fn_with_an_entry_too_wide_to_iterate_finishes(tmp_path):
    """`a` (arity 12) can never fill an iteration under the size cap, so
    learning `b` must not build its 6^11 * 12 sections."""
    examples = tmp_path / "fns.txt"
    examples.write_text("a 12 0 1 2 3 4 5 6 7 8 9 10 11 0\n"
                        "a 12 1 1 2 3 4 5 6 7 8 9 10 11 1\n"
                        "b 4 0 5 7 9 1\nb 4 1 2 3 4 2\nb 4 2 8 1 3 3\n")
    proc = run_cli("learn-fn", "--examples", str(examples), "--report")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "(builtin succ 1)", "(def a 12 (var 0))", "(def b 4 (call succ (var 0)))",
        "unsolved: (none)"]


def test_learn_fn_output_on_negative_examples_is_pinned(tmp_path, capsys):
    """Negative inputs make negative iteration counts, which apply a section
    zero times (`m` relies on it); `k` stays unsolved."""
    examples = tmp_path / "fns.txt"
    examples.write_text("f 2 -2 4 4\nf 2 3 1 7\ng 1 -3 -2\ng 1 4 5\n"
                        "h 2 -1 3 3\nh 2 2 3 6\nh 2 4 1 8\n"
                        "k 1 -2 -2\nk 1 3 9\nk 1 2 4\nm 2 -3 5 -3\nm 2 2 2 4\n")
    code, out, _ = run(capsys, "learn-fn", "--examples", str(examples), "--report")
    assert code == 0
    assert out.splitlines() == [
        "(builtin succ 1)",
        "(def f 2 (call succ (call succ (call succ (iter (sec succ 0) (var 0) (const 1))))))",
        "(def g 1 (call succ (var 0)))",
        "(def h 2 (call succ (call succ (call succ (call succ (var 0))))))",
        "(def m 2 (iter (sec succ 0) (var 0) (var 0)))",
        "unsolved: k"]


@pytest.mark.parametrize("label", ["f)", "succ"])
def test_learn_fn_label_no_library_line_holds_is_data_error(tmp_path, label):
    examples = tmp_path / "fns.txt"
    examples.write_text(f"{label} 1 0 1\n{label} 1 1 2\n")
    assert_data_error(["learn-fn", "--examples", str(examples), "--report"])


def test_segment_scalar_output(tmp_path, capsys):
    data = tmp_path / "s.txt"
    data.write_text("0 0 5 5 5 0\n")
    code, out, _ = run(capsys, "segment", "--input", str(data), "--theta-c", "1")
    assert code == 0
    assert out.splitlines() == ["0 2: 0 0", "2 5: 5 5 5", "5 6: 0"]


def test_scalar_ingest_quantizes_and_segments(tmp_path, capsys):
    graph = tmp_path / "g.cg"
    data = tmp_path / "s.txt"
    data.write_text("0 0 3 3\n")
    run(capsys, "init", "--alphabet", "abcd", "--out", str(graph))
    code, out, _ = run(capsys, "ingest", "--graph", str(graph), "--input", str(data),
                       "--scalar", "--theta-c", "1")
    assert code == 0 and "episode 0" in out
    code, out, _ = run(capsys, "stats", "--graph", str(graph))
    assert "episode: 1" in out


def scalar_lines(seed: int, count: int) -> list[str]:
    """`count` lines of step-shaped levels 0-7, several runs a line, with an
    empty line in the middle."""
    rng = random.Random(seed)
    lines = []
    for _ in range(count):
        levels = []
        for _ in range(rng.randint(3, 6)):
            levels += [rng.randint(0, 7)] * rng.randint(1, 4)
        lines.append(" ".join(map(str, levels)))
    lines[count // 2] = ""
    return lines


def test_scalar_ingest_and_segment_bytes_are_pinned(tmp_path, capsys):
    """`ingest --scalar` on lines with several contrast cuts each, then
    `segment` on the same file: stdout and the graph file are pinned."""
    graph, data = tmp_path / "g.cg", tmp_path / "s.txt"
    data.write_text("\n".join(scalar_lines(11, 12)) + "\n")
    out = []
    for argv in (["init", "--alphabet", "abcdef", "--out", str(graph)],
                 ["ingest", "--graph", str(graph), "--input", str(data),
                  "--scalar", "--theta-c", "1"],
                 ["segment", "--input", str(data), "--theta-c", "1"]):
        code, text, _ = run(capsys, *argv)
        assert code == 0
        out.append(text.replace(str(graph), "GRAPH"))
    text = "".join(out)
    assert "episode 11:" in text and "0 4: 7 7 7 7\n" in text
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "3c7ade114102ef829e1ef513d8f2e24518a20478de70c2b2239dd0885369d680")
    assert hashlib.sha256(graph.read_bytes()).hexdigest() == (
        "0288d976e6e388a986007cea906bf6f70048127152ec37ef7609344e50470326")


@pytest.mark.parametrize("theta", ["nan", "inf", "-1"])
def test_bad_theta_c_is_data_error_for_segment_and_scalar_ingest(tmp_path, theta):
    """`--theta-c` follows core's number rule, as `contrast_cuts` holds it: finite
    and non-negative; a NaN threshold would never cut, -1 would cut everywhere."""
    graph, data = tmp_path / "g.cg", tmp_path / "s.txt"
    data.write_text("0 0 5 5\n")
    assert run_cli("init", "--alphabet", "abcdef", "--out", str(graph)).returncode == 0
    before = graph.read_bytes()
    assert_data_error(["segment", "--input", str(data), "--theta-c", theta],
                      ["ingest", "--graph", str(graph), "--input", str(data),
                       "--scalar", "--theta-c", theta])
    assert graph.read_bytes() == before


@pytest.mark.parametrize("theta", ["nan", "1"])
def test_theta_c_without_scalar_is_usage_error(tmp_path, capsys, theta):
    """A text episode has no levels to cut, so `ingest --theta-c` without
    `--scalar` is refused, whatever the threshold, and the graph keeps its bytes."""
    graph, data = tmp_path / "g.cg", tmp_path / "in.txt"
    data.write_text("abab\n")
    run(capsys, "init", "--alphabet", "ab", "--out", str(graph))
    before = graph.read_bytes()
    code, out, err = run(capsys, "ingest", "--graph", str(graph), "--input", str(data),
                         "--theta-c", theta)
    assert (code, out) == (1, "") and err.startswith("usage error:")
    assert graph.read_bytes() == before


@pytest.mark.parametrize("old, new", [
    pytest.param('"primitive"', '"' + "k" * 100000 + '"', id="kind-name"),
    pytest.param('["primitive",1.0,"a"]', '["primitive",' + "1" * 100000 + '.0,"a"]',
                 id="float-literal"),
    pytest.param('"run_observations":{}', '"run_observations":{"' + "0" * 4000 + '2":[]}',
                 id="key"),
    # the text of an error that a load wraps is bounded too
    pytest.param('["affect",1.0,-1]]', '["affect",1.0,-1],["primitive",1.0,"' + "x" * 100000
                 + '"]]', id="token"),
    pytest.param('"refinements":[]', '"refinements":[[[["' + "x" * 100000 + '"]]]]', id="blob"),
    pytest.param('["affect",1.0,-1]]', '["affect",1.0,-1],["template",1.0,[["' + "x" * 100000
                 + '",0]]]]', id="template-slot-tag"),
])
def test_a_long_value_in_a_graph_file_is_quoted_to_a_prefix(tmp_path, old, new):
    """A data error quotes outside input by a prefix and its length: a
    100,000-character kind name gave a 100,053-character stderr line, and a
    token, blob token or template slot tag of that length gave over
    100,000 characters through the error the load wraps."""
    graph = tmp_path / "g.cg"
    text = dumps(ConceptGraph("ab"))
    assert old in text
    graph.write_text(text.replace(old, new, 1))
    proc = run_cli("stats", "--graph", str(graph))
    assert proc.returncode == 2 and proc.stderr.startswith("error:")
    assert len(proc.stderr) < 300 and " chars)" in proc.stderr


def test_non_utf8_graph_file_is_data_error(tmp_path):
    graph = tmp_path / "g.cg"
    graph.write_bytes(b"\xff\xfe{}")
    assert_data_error(["stats", "--graph", str(graph)])


def test_one_process_reuses_the_parser_without_leaking_state(tmp_path, capsys):
    """Usage errors, `--help` and an unknown subcommand leave the parser as
    it was: each call gives the exit code and text it gives alone, in a
    process that has made none before (checked in a subprocess), and the
    same argv gives the same stdout twice in a row."""
    graph = tmp_path / "g.cg"
    calls = [("stats", "--graph", str(graph), "--bogus"), ("--help",), ("frobnicate",),
             ("init", "--alphabet", "ab", "--out", str(graph)), ("stats", "--graph", str(graph))]

    def call(argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        return code, out, err

    in_process = [call(argv) for argv in calls]
    assert [code for code, _, _ in in_process] == [1, 0, 1, 0, 0]
    for argv, (code, out, err) in zip(calls, in_process):
        alone = run_cli(*argv)
        assert (alone.returncode, alone.stdout, alone.stderr) == (code, out, err), argv
        assert call(argv)[1] == out, argv


def test_scalar_ingest_without_theta_c_cuts_at_the_documented_default(tmp_path, capsys):
    """`ingest --scalar` with no `--theta-c` cuts at 1.0, the default its
    help states: the same stdout and graph bytes as `--theta-c 1`."""
    data = tmp_path / "s.txt"
    data.write_text("\n".join(scalar_lines(11, 12)) + "\n")
    runs = []
    for name, theta in (("default.cg", []), ("one.cg", ["--theta-c", "1"])):
        graph = tmp_path / name
        run(capsys, "init", "--alphabet", "abcdef", "--out", str(graph))
        code, text, _ = run(capsys, "ingest", "--graph", str(graph), "--input", str(data),
                            "--scalar", *theta)
        assert code == 0 and "episode 11:" in text
        runs.append((text, graph.read_bytes()))
    assert runs[0] == runs[1]


def test_cli_runs_are_byte_deterministic(tmp_path, capsys):
    corpora = tmp_path / "c.txt"
    corpora.write_text("abab\nbaba\nabab\n")
    files = []
    for name in ("one.cg", "two.cg"):
        graph = tmp_path / name
        run(capsys, "init", "--alphabet", "ab", "--out", str(graph))
        run(capsys, "ingest", "--graph", str(graph), "--input", str(corpora))
        run(capsys, "refine", "--graph", str(graph), "--episode", "1")
        files.append(graph.read_bytes())
    assert files[0] == files[1]


PIN_TRAIN = ["abababab", "abcabcabc", "cdcdabab", "abcabdabab", "hgfehgfe", "efghefgh",
             "abefabef", "cdghcdgh", "aabbccdd", "hhggffee", "abcdabcd", "efefgh",
             "abcdjlnpkmoiabcd"]


def pinned_session(tmp_path, capsys) -> tuple[str, bytes]:
    """Train on PIN_TRAIN, parse a line and refine three times; the parse
    and episode 12's levels mix refs with a blob."""
    graph, train, query = tmp_path / "g.cg", tmp_path / "train.txt", tmp_path / "q.txt"
    train.write_text("\n".join(PIN_TRAIN) + "\n")
    query.write_text("abcabmkoilnpjefgh\n")
    run(capsys, "init", "--alphabet", "abcdefghijklmnop", "--out", str(graph))
    out = []
    for argv in (["ingest", "--graph", str(graph), "--input", str(train)],
                 ["parse", "--graph", str(graph), "--input", str(query), "--report"],
                 ["refine", "--graph", str(graph), "--episode", "12"],
                 ["refine", "--graph", str(graph), "--episode", "12"],
                 ["refine", "--graph", str(graph), "--episode", "3"],
                 ["stats", "--graph", str(graph)]):
        code, text, _ = run(capsys, *argv)
        assert code == 0
        out.append(text)
    return "".join(out), graph.read_bytes()


def test_cli_text_and_bytes_are_pinned(tmp_path, capsys):
    text, data = pinned_session(tmp_path, capsys)
    assert "desc: [20] [18] [12] [10] [14] [8] [11] [13] [15] [9] [32]\n" in text
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "39bbb7fb2352cc24fdedc99488630e4a0ba8343fdc3f7ea3418f9e6e48717ccc")
    assert hashlib.sha256(data).hexdigest() == (
        "1f19b9dd61070a18471f63a777b6c5dd5a0cc3afb3a431dbbc98cba432a40060")


def test_the_cg2_file_of_the_pinned_session_is_at_most_2940_bytes(tmp_path, capsys):
    """A size guard: a change that fattens the file format fails here.  The
    bound is 55% of the 5,346 bytes the same graph took in the cg1 format."""
    _, data = pinned_session(tmp_path, capsys)
    assert len(data) <= 2940


# Files of older formats, by version, each refused by its version.  The cg1
# and cg2 texts are documents of their savers; from cg3 on each is the graph
# over "ab" after `ingest("abab")`, and `older_text` derives it from today's
# file.
OLD_FILES = {
    "cg1": json.dumps({"version": "cg1", "alphabet": ["a", "b"], "concepts": [],
                       "digram_counts": []}),
    # A fresh graph over "ab" as the cg2 saver wrote it: a creation episode in
    # each concept row, and every float a string with 9 decimals.
    "cg2": (
        '{"alphabet":["a","b"],"assoc_counts":[],"concepts":[["primitive",0,"1.000000000","a"],'
        '["primitive",0,"1.000000000","b"],["affect",0,"1.000000000",1],'
        '["affect",0,"1.000000000",-1]],"config":{"assoc_threshold":3,"beam_base":4,'
        '"contrast_threshold":"1.000000000","decay":"0.900000000",'
        '"fast_path_threshold":"8.000000000","generalize_threshold":3,"pool_base":64,'
        '"repeat_threshold":2,"valence_decay":"0.500000000","valence_hop_cap":6},"episode":0,'
        '"raw_bits_total":"0.000000000","refinements":{},"run_observations":{},"version":"cg2"}\n'),
    # cg3 restated the episode counter, the pair counts and the raw-bit total.
    "cg3": (
        '{"alphabet":["a","b"],"assoc_counts":[],"concepts":[["primitive",1.9,"a"],'
        '["primitive",1.9,"b"],["affect",1.0,1],["affect",1.0,-1],["concat",1.9,[0,1]],'
        '["repeat",1.9,4,2]],"config":{"assoc_threshold":3,"beam_base":4,"contrast_threshold":1.0,'
        '"decay":0.9,"fast_path_threshold":8.0,"generalize_threshold":3,"pool_base":64,'
        '"repeat_threshold":2,"valence_decay":0.5,"valence_hop_cap":6},"episode":1,'
        '"raw_bits_total":9.0,"refinements":{"0":[[5]]},"run_observations":{"2":[4]},'
        '"version":"cg3"}\n'),
    # cg4 also held the contrast threshold and the parse fast path's, which the
    # engine never read.
    "cg4": (
        '{"alphabet":["a","b"],"concepts":[["primitive",1.9,"a"],["primitive",1.9,"b"],'
        '["affect",1.0,1],["affect",1.0,-1],["concat",1.9,[0,1]],["repeat",1.9,4,2]],'
        '"config":{"assoc_threshold":3,"beam_base":4,"contrast_threshold":1.0,"decay":0.9,'
        '"fast_path_threshold":8.0,"generalize_threshold":3,"pool_base":64,"repeat_threshold":2,'
        '"valence_decay":0.5,"valence_hop_cap":6},"refinements":[[[5]]],'
        '"run_observations":{"2":[4]},"version":"cg4"}\n'),
    # cg5 also held the valence decay and hop cap, which only
    # `propagate_valence` read.
    "cg5": (
        '{"alphabet":["a","b"],"concepts":[["primitive",1.9,"a"],["primitive",1.9,"b"],'
        '["affect",1.0,1],["affect",1.0,-1],["concat",1.9,[0,1]],["repeat",1.9,4,2]],'
        '"config":{"assoc_threshold":3,"beam_base":4,"decay":0.9,"generalize_threshold":3,'
        '"pool_base":64,"repeat_threshold":2,"valence_decay":0.5,"valence_hop_cap":6},'
        '"refinements":[[[5]]],"run_observations":{"2":[4]},"version":"cg5"}\n'),
    # cg6 also held the beam base, the states a parse kept per position.
    "cg6": (
        '{"alphabet":["a","b"],"concepts":[["primitive",1.9,"a"],["primitive",1.9,"b"],'
        '["affect",1.0,1],["affect",1.0,-1],["concat",1.9,[0,1]],["repeat",1.9,4,2]],'
        '"config":{"assoc_threshold":3,"beam_base":4,"decay":0.9,"generalize_threshold":3,'
        '"pool_base":64,"repeat_threshold":2},"refinements":[[[5]]],"run_observations":{"2":[4]},'
        '"version":"cg6"}\n'),
    # cg7 also held the pool base, the candidates that `ingest`'s parses ranked
    # down to.
    "cg7": (
        '{"alphabet":["a","b"],"concepts":[["primitive",1.9,"a"],["primitive",1.9,"b"],'
        '["affect",1.0,1],["affect",1.0,-1],["concat",1.9,[0,1]],["repeat",1.9,4,2]],'
        '"config":{"assoc_threshold":3,"decay":0.9,"generalize_threshold":3,"pool_base":64,'
        '"repeat_threshold":2},"refinements":[[[5]]],"run_observations":{"2":[4]},'
        '"version":"cg7"}\n'),
    # cg8 held the four thresholds that are now `core` and `inducer` constants.
    "cg8": (
        '{"alphabet":["a","b"],"concepts":[["primitive",1.9,"a"],["primitive",1.9,"b"],'
        '["affect",1.0,1],["affect",1.0,-1],["concat",1.9,[0,1]],["repeat",1.9,4,2]],'
        '"config":{"assoc_threshold":3,"decay":0.9,"generalize_threshold":3,'
        '"repeat_threshold":2},"refinements":[[[5]]],"run_observations":{"2":[4]},'
        '"version":"cg8"}\n'),
}

# How each older saver's file differs from the next newer one's: by version,
# the newer version and the edit that puts back what the newer one dropped.
OLDER = {
    "cg8": ("cg9", lambda t: t.replace(
        '"refinements":', '"config":{"assoc_threshold":3,"decay":0.9,"generalize_threshold":3,'
        '"repeat_threshold":2},"refinements":')),
    "cg7": ("cg8", lambda t: t.replace('"generalize_threshold":3,',
                                       '"generalize_threshold":3,"pool_base":64,')),
    "cg6": ("cg7", lambda t: t.replace('"assoc_threshold":3,',
                                       '"assoc_threshold":3,"beam_base":4,')),
    "cg5": ("cg6", lambda t: t.replace(
        '"repeat_threshold":2}', '"repeat_threshold":2,"valence_decay":0.5,"valence_hop_cap":6}')),
    "cg4": ("cg5", lambda t: t.replace('"beam_base":4,', '"beam_base":4,"contrast_threshold":1.0,')
            .replace('"decay":0.9,', '"decay":0.9,"fast_path_threshold":8.0,')),
    "cg3": ("cg4", lambda t: t.replace('"concepts":', '"assoc_counts":[],"concepts":').replace(
        '"refinements":[[[5]]]', '"episode":1,"raw_bits_total":9.0,"refinements":{"0":[[5]]}')),
}


def ab_after_abab() -> str:
    """Today's file of the graph over "ab" after `ingest("abab")`."""
    g = ConceptGraph("ab")
    ingest(g, "abab")
    return dumps(g)


def older_text(version: str) -> str:
    """The file of the graph over "ab" after `ingest("abab")` as the `version`
    saver wrote it: today's file, then each older version's edit in turn."""
    newer, edit = OLDER[version]
    text = ab_after_abab() if newer == "cg9" else older_text(newer)
    return edit(text).replace(f'"version":"{newer}"', f'"version":"{version}"')


@pytest.mark.parametrize("version", list(OLD_FILES))
def test_an_old_file_is_a_version_mismatch(tmp_path, version):
    """The reader reads cg9 alone: an older file is refused by its version,
    and its bytes are kept.  From cg3 on, the old file is today's file of
    the same graph with what later formats dropped put back, and what a cg3
    file restated is what a load derives from the chains."""
    old = OLD_FILES[version]
    graph = tmp_path / "g.cg"
    graph.write_text(old)
    proc = run_cli("stats", "--graph", str(graph))
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", f"error: expected 'cg9', got '{version}'\n")
    assert graph.read_text() == old
    if version in OLDER:
        assert older_text(version) == old
    if version == "cg3":
        doc, g = json.loads(old), graph_from_json(json.loads(ab_after_abab()))
        assert (g.episode, g.assoc_counts, graph_report(g).raw_bits) == (
            doc["episode"], dict(doc["assoc_counts"]), doc["raw_bits_total"]) == (1, {}, 9.0)
