import json
from pathlib import Path

import pytest

from euclid.cli import build_parser, main
from euclid.closure import Budget
from euclid.corpus import entry
from euclid.dsl import recorded_answers, run
from euclid.field import Tower
from euclid.game import DEFAULT_MAX_MOVES
from euclid.net import DEFAULT_MAX_ITERATIONS

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
AB = str(CONFIGS / "ab.cfg")
CIRCLE_ONLY = str(CONFIGS / "circle-only.cfg")
DENSIFY = str(CONFIGS / "densify.cfg")
MIDPOINT = str(Path(__file__).resolve().parent.parent / "src" / "euclid"
               / "corpus_programs" / "midpoint.construct")


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# wantzel

def test_wantzel_preset(capsys):
    code, out, _ = invoke(capsys, "wantzel", "cube-doubling")
    assert code == 0
    assert out == "NotConstructible: irreducible degree 3 is not a power " \
        "of 2\n"


def test_wantzel_passes_a_quadratic(capsys):
    code, out, _ = invoke(capsys, "wantzel", "x^2 - 2")
    assert code == 0
    assert out.startswith("NecessaryConditionHolds: degree 2")


def test_wantzel_reducible_is_an_input_error(capsys):
    code, out, err = invoke(capsys, "wantzel", "x^2 - 1")
    assert code == 2
    assert out == ""
    assert "not irreducible" in err and "(x + 1)" in err


def test_wantzel_parse_error(capsys):
    code, _, err = invoke(capsys, "wantzel", "3y + 1")
    assert code == 2
    assert "error" in err


def test_wantzel_json(capsys):
    code, out, _ = invoke(capsys, "wantzel", "trisect-60", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "NotConstructible"
    assert doc["degree"] == 3
    assert doc["polynomial"] == "8x^3 - 6x - 1"


@pytest.mark.parametrize("polynomial, code, err", [
    ("x^65 + 1", 2, "error: degree 65 exceeds MAX_DEGREE=64\n"),
    ("720720x^3 + x + 720720", 3,
     "resource limit: rational root search exceeds "
     "ROOT_SEARCH_BUDGET=100000 steps\n"),
], ids=["degree", "root-search"])
def test_wantzel_bounds_name_themselves(capsys, polynomial, code, err):
    assert invoke(capsys, "wantzel", polynomial) == (code, "", err)


# ---------------------------------------------------------------------------
# run

def test_run_corpus_name_prints_exact_output(capsys):
    code, out, _ = invoke(capsys, "run", "midpoint", AB)
    assert code == 0
    assert out == "M = (1, 0)\n"


def test_run_program_file(capsys):
    code, out, _ = invoke(capsys, "run", MIDPOINT, AB)
    assert code == 0
    assert out == "M = (1, 0)\n"


def test_run_unknown_program(capsys):
    code, _, err = invoke(capsys, "run", "heptagon_please", AB)
    assert code == 2
    assert "no program file or corpus entry" in err


def test_run_json_trace(capsys):
    code, out, _ = invoke(capsys, "run", "midpoint", AB, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["outputs"] == [
        {"name": "M", "type": "point", "x": "1", "y": "0"}]
    assert [(ev["kind"], ev["text"]) for ev in doc["trace"]] == [
        ("input", "A = (<0 ~ 0>, <0 ~ 0>)"),
        ("input", "B = (<2 ~ 2>, <0 ~ 0>)"),
        ("circle", "c1 = circle(A; A, B)"),
        ("circle", "c2 = circle(B; A, B)"),
        ("intersect", "[P, Q] = intersect(c1, c2)"),
        ("line", "l = line(P, Q)"),
        ("line", "ab = line(A, B)"),
        ("intersect", "[M] = intersect(l, ab)")]


def test_run_writes_deterministic_svg(capsys, tmp_path):
    one, two = tmp_path / "a.svg", tmp_path / "b.svg"
    assert invoke(capsys, "run", "midpoint", AB, "--svg", str(one))[0] == 0
    assert invoke(capsys, "run", "midpoint", AB, "--svg", str(two))[0] == 0
    data = one.read_bytes()
    assert data == two.read_bytes()
    assert data.count(b'class="target"') == 1


def test_run_script_oracle_replays_a_recorded_run(capsys, tmp_path):
    cfg = tmp_path / "circle.cfg"
    cfg.write_text("circle k = center (0, 0) r2 1\n", encoding="utf-8")
    e = entry("circle_center")
    from euclid.field import Tower
    result = run(e.program(), e.canonical_inputs(Tower()))
    script = ";".join(f"{p.x.as_rational()},{p.y.as_rational()}"
                      for p in recorded_answers(result.trace))
    code, out, _ = invoke(capsys, "run", "circle_center", str(cfg),
                          "--oracle", f"script:{script}")
    assert code == 0
    assert out == "O = (0, 0)\n"


def test_run_script_oracle_violation_aborts(capsys, tmp_path):
    cfg = tmp_path / "circle.cfg"
    cfg.write_text("circle k = center (0, 0) r2 1\n", encoding="utf-8")
    code, out, _ = invoke(capsys, "run", "circle_center", str(cfg),
                          "--oracle", "script:5,5;6,6")
    assert code == 1
    assert out.startswith("abort: oracle-violation")


def test_run_script_oracle_reads_exact_literals(capsys, tmp_path):
    cfg = tmp_path / "origin.cfg"
    cfg.write_text("point A = (0, 0)\n", encoding="utf-8")
    prog = tmp_path / "pick.construct"
    prog.write_text("construction pick(point A) {\n"
                    "  let P = arbitrary in_disk(A, 4);\n"
                    "  return P;\n}\n", encoding="utf-8")
    code, out, _ = invoke(capsys, "run", str(prog), str(cfg),
                          "--oracle", "script:0,sqrt(2)")
    assert code == 0
    assert out == "P = (0, ~1.414214)\n"


@pytest.mark.parametrize("script, message", [
    ("script:0,sqrt(", "bad oracle script entry '0,sqrt('"),
    ("script:1/0,0", "bad oracle script entry '1/0,0'"),
    ("script:sqrt(-1),0", "bad oracle script entry 'sqrt(-1),0'"),
    ("script:1,2,3", "bad oracle script entry '1,2,3'"),
    ("script:", "empty oracle script"),
])
def test_run_bad_oracle_script(capsys, script, message):
    code, out, err = invoke(capsys, "run", "midpoint", AB,
                            "--oracle", script)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_scene_past_the_height_cap_is_a_resource_error(capsys, monkeypatch,
                                                       tmp_path):
    monkeypatch.setenv("EUCLID_HEIGHT_CAP", "1")
    cfg = tmp_path / "roots.cfg"
    cfg.write_text("point A = (0, 0)\npoint B = (sqrt(1 + sqrt(2)), 0)\n",
                   encoding="utf-8")
    code, out, err = invoke(capsys, "run", "midpoint", str(cfg))
    assert code == 3
    assert out == ""
    assert err == "resource limit: tower height cap 1 exceeded\n"


def test_run_bad_oracle_spec(capsys):
    code, _, err = invoke(capsys, "run", "midpoint", AB,
                          "--oracle", "dice")
    assert code == 2
    assert "bad oracle spec" in err


def test_run_missing_config(capsys):
    code, _, err = invoke(capsys, "run", "midpoint", "/nosuch/scene.cfg")
    assert code == 2
    assert "error" in err


def test_height_cap_env_is_respected(capsys, monkeypatch):
    monkeypatch.setenv("EUCLID_HEIGHT_CAP", "0")
    code, _, err = invoke(capsys, "run", "midpoint", AB)
    assert code == 3
    assert "resource limit" in err


@pytest.mark.parametrize("value", ["abc", "-1"])
def test_malformed_height_cap_env_is_a_usage_error(capsys, monkeypatch,
                                                   value):
    monkeypatch.setenv("EUCLID_HEIGHT_CAP", value)
    code, out, err = invoke(capsys, "run", "midpoint", AB)
    assert code == 2
    assert out == ""
    assert err == ("error: EUCLID_HEIGHT_CAP must be a nonnegative "
                   f"integer, got {value!r}\n")


# ---------------------------------------------------------------------------
# closure

def test_closure_fixed_point_verdict(capsys):
    code, out, _ = invoke(capsys, "closure", CIRCLE_ONLY, "--rounds", "5",
                          "--target", "center")
    assert code == 0
    assert out == "NoWithinBudget (fixed point at round 0)\n"


def test_closure_derivable_verdict(capsys, tmp_path):
    cfg = tmp_path / "ext.cfg"
    cfg.write_text("point A = (0, 0)\npoint B = (1, 0)\n"
                   "target point X = (2, 0)\n", encoding="utf-8")
    code, out, _ = invoke(capsys, "closure", str(cfg), "--rounds", "3",
                          "--target", "X")
    assert code == 0
    assert out == "Derivable (round 1)\n"


def test_closure_summary_and_json_agree(capsys):
    code, out, _ = invoke(capsys, "closure", AB, "--rounds", "1")
    assert code == 0
    assert out.endswith("after 1 rounds (budget exhausted)\n")
    code, out, _ = invoke(capsys, "closure", AB, "--rounds", "1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["complete"] is False
    assert doc["rounds"] == 1
    rules = {e["rule"] for e in doc["trace"]}
    assert rules == {"given", "line", "circle", "intersect"}


def test_closure_object_budget_is_a_resource_error(capsys):
    code, _, err = invoke(capsys, "closure", AB, "--rounds", "3",
                          "--max-objects", "20")
    assert code == 3
    assert "resource limit" in err


def test_closure_unknown_target(capsys):
    code, _, err = invoke(capsys, "closure", AB, "--rounds", "1",
                          "--target", "Z")
    assert code == 2
    assert "no object 'Z'" in err


# ---------------------------------------------------------------------------
# game

def test_game_scripted_alice_wins(capsys):
    code, out, _ = invoke(capsys, "game", AB, "--target", "M",
                          "--alice", "corpus:midpoint",
                          "--bob", "sampling:0", "--max-moves", "20")
    assert code == 0
    assert out == "AliceWins after 6 moves\n"


def test_game_certificate_bob(capsys):
    code, out, _ = invoke(capsys, "game", AB, "--target", "M",
                          "--alice", "corpus:midpoint",
                          "--bob", "certificate:rational-plane")
    assert code == 0
    assert out == "AliceWins after 6 moves\n"


# The midpoint play on configs/ab.cfg, byte for byte.  It requests no
# point, so both adversaries see the same six moves.
_MIDPOINT_TRANSCRIPT = (
    "move 1: ALICE circle center (<0 ~ 0>, <0 ~ 0>) radius |(<0 "
    "~ 0>, <0 ~ 0>) (<2 ~ 2>, <0 ~ 0>)| / BOB - / POSITION "
    "+Circle(Point(<0 ~ 0>, <0 ~ 0>), r2=<4 ~ 4>)\n"
    "move 2: ALICE circle center (<2 ~ 2>, <0 ~ 0>) radius |(<0 "
    "~ 0>, <0 ~ 0>) (<2 ~ 2>, <0 ~ 0>)| / BOB - / POSITION "
    "+Circle(Point(<2 ~ 2>, <0 ~ 0>), r2=<4 ~ 4>)\n"
    "move 3: ALICE intersect Circle(Point(<0 ~ 0>, <0 ~ 0>), "
    "r2=<4 ~ 4>) with Circle(Point(<2 ~ 2>, <0 ~ 0>), r2=<4 ~ "
    "4>) / BOB - / POSITION +(<1 ~ 1>, <-1/2*sqrt(12) ~ "
    "-1.73205>); (<1 ~ 1>, <1/2*sqrt(12) ~ 1.73205>)\n"
    "move 4: ALICE line (<1 ~ 1>, <-1/2*sqrt(12) ~ -1.73205>) "
    "(<1 ~ 1>, <1/2*sqrt(12) ~ 1.73205>) / BOB - / POSITION "
    "+Line(<1 ~ 1>, <0 ~ 0>, <-1 ~ -1>)\n"
    "move 5: ALICE line (<0 ~ 0>, <0 ~ 0>) (<2 ~ 2>, <0 ~ 0>) / "
    "BOB - / POSITION +Line(<0 ~ 0>, <1 ~ 1>, <0 ~ 0>)\n"
    "move 6: ALICE intersect Line(<1 ~ 1>, <0 ~ 0>, <-1 ~ -1>) "
    "with Line(<0 ~ 0>, <1 ~ 1>, <0 ~ 0>) / BOB - / POSITION "
    "+(<1 ~ 1>, <0 ~ 0>)\n"
    "outcome: AliceWins(moves=6)\n"
    "AliceWins after 6 moves\n")

_MIDPOINT_JSON = (
    '{\n'
    '  "command": "game",\n'
    '  "outcome": {\n'
    '    "kind": "AliceWins",\n'
    '    "text": "AliceWins after 6 moves"\n'
    '  },\n'
    '  "moves": [\n'
    '    {\n'
    '      "index": 1,\n'
    '      "text": "move 1: ALICE circle center (<0 ~ 0>, <0 ~ '
    '0>) radius |(<0 ~ 0>, <0 ~ 0>) (<2 ~ 2>, <0 ~ 0>)| / BOB - '
    '/ POSITION +Circle(Point(<0 ~ 0>, <0 ~ 0>), r2=<4 ~ 4>)"\n'
    '    },\n'
    '    {\n'
    '      "index": 2,\n'
    '      "text": "move 2: ALICE circle center (<2 ~ 2>, <0 ~ '
    '0>) radius |(<0 ~ 0>, <0 ~ 0>) (<2 ~ 2>, <0 ~ 0>)| / BOB - '
    '/ POSITION +Circle(Point(<2 ~ 2>, <0 ~ 0>), r2=<4 ~ 4>)"\n'
    '    },\n'
    '    {\n'
    '      "index": 3,\n'
    '      "text": "move 3: ALICE intersect Circle(Point(<0 ~ '
    '0>, <0 ~ 0>), r2=<4 ~ 4>) with Circle(Point(<2 ~ 2>, <0 ~ '
    '0>), r2=<4 ~ 4>) / BOB - / POSITION +(<1 ~ 1>, '
    '<-1/2*sqrt(12) ~ -1.73205>); (<1 ~ 1>, <1/2*sqrt(12) ~ '
    '1.73205>)"\n'
    '    },\n'
    '    {\n'
    '      "index": 4,\n'
    '      "text": "move 4: ALICE line (<1 ~ 1>, <-1/2*sqrt(12) '
    '~ -1.73205>) (<1 ~ 1>, <1/2*sqrt(12) ~ 1.73205>) / BOB - / '
    'POSITION +Line(<1 ~ 1>, <0 ~ 0>, <-1 ~ -1>)"\n'
    '    },\n'
    '    {\n'
    '      "index": 5,\n'
    '      "text": "move 5: ALICE line (<0 ~ 0>, <0 ~ 0>) (<2 ~ '
    '2>, <0 ~ 0>) / BOB - / POSITION +Line(<0 ~ 0>, <1 ~ 1>, <0 '
    '~ 0>)"\n'
    '    },\n'
    '    {\n'
    '      "index": 6,\n'
    '      "text": "move 6: ALICE intersect Line(<1 ~ 1>, <0 ~ '
    '0>, <-1 ~ -1>) with Line(<0 ~ 0>, <1 ~ 1>, <0 ~ 0>) / BOB - '
    '/ POSITION +(<1 ~ 1>, <0 ~ 0>)"\n'
    '    }\n'
    '  ]\n'
    '}\n')


def test_game_transcript_and_json(capsys):
    for bob in ("sampling:0", "certificate:rational-plane"):
        for flag, expected in (("--transcript", _MIDPOINT_TRANSCRIPT),
                               ("--json", _MIDPOINT_JSON)):
            code, out, _ = invoke(capsys, "game", AB, "--target", "M",
                                  "--alice", "corpus:midpoint",
                                  "--bob", bob, flag)
            assert (code, out) == (0, expected), (bob, flag)


def test_game_scripted_abort_keeps_its_reason(capsys, tmp_path):
    cfg = tmp_path / "parallels.cfg"
    cfg.write_text("point A = (0, 0)\npoint B = (2, 0)\npoint C = (0, 1)\n"
                   "point D = (2, 1)\ntarget point T = (9, 9)\n",
                   encoding="utf-8")
    script = tmp_path / "parallels.construct"
    script.write_text("""
        construction parallels(point A, point B, point C, point D) {
            let g = line(A, B);
            let h = line(C, D);
            let [X] = intersect(g, h);
            return X;
        }
    """, encoding="utf-8")
    code, out, _ = invoke(capsys, "game", str(cfg), "--target", "T",
                          "--alice", f"script:{script}",
                          "--bob", "sampling:0")
    assert code == 1
    assert out == "Aborted (intersection-count-mismatch): intersect(g, h) " \
        "gave 0 points, statement binds 1\n"


def test_game_bad_bob_spec(capsys):
    code, _, err = invoke(capsys, "game", AB, "--target", "M",
                          "--alice", "corpus:midpoint", "--bob", "psychic")
    assert code == 2
    assert "bad bob spec" in err


def test_game_unknown_corpus_alice(capsys):
    code, _, err = invoke(capsys, "game", AB, "--target", "M",
                          "--alice", "corpus:heptagon",
                          "--bob", "sampling:0")
    assert code == 2
    assert "unknown corpus entry" in err


# ---------------------------------------------------------------------------
# densify

def test_densify_reaches_the_scene_target(capsys):
    code, out, _ = invoke(capsys, "densify", DENSIFY, "--target", "T",
                          "--eps", "1/64")
    assert code == 0
    assert out.startswith("reached (3/2, 5/4) after ")
    assert "straightedge steps" in out


def test_densify_field_element_count(capsys, monkeypatch):
    # the count is exact and box-independent: 3,849 elements while
    # `side` and `contains` built their values through the operators,
    # 2,825 with both on term pairs, and 1,170 since rational lines
    # join and meet in plain integers and `from_frame` runs on term pairs
    made = [0]
    make = Tower._make

    def counted(self, t):
        made[0] += 1
        return make(self, t)

    monkeypatch.setattr(Tower, "_make", counted)
    code, _, _ = invoke(capsys, "densify", DENSIFY, "--target", "T",
                        "--eps", "1/64")
    assert code == 0
    assert made[0] <= 1170


def test_densify_json_lists_straightedge_steps(capsys):
    code, out, _ = invoke(capsys, "densify", DENSIFY, "--target", "T",
                          "--eps", "1/64", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["point"] == {"type": "point", "x": "3/2", "y": "5/4"}
    assert doc["steps"] == len(doc["trace"])
    assert {s["op"] for s in doc["trace"]} == {"line", "intersect"}


def test_densify_iteration_cap_is_a_resource_error(capsys, tmp_path):
    cfg = tmp_path / "deep.cfg"
    cfg.write_text("point A = (0, 0)\npoint B = (4, 0)\npoint C = (0, 4)\n"
                   "point D = (1, 1)\ntarget point T = (1/250, 1/250)\n",
                   encoding="utf-8")
    code, _, err = invoke(capsys, "densify", str(cfg), "--target", "T",
                          "--eps", "1/1099511627776", "--max-iterations",
                          "3")
    assert code == 3
    assert "resource limit" in err


def test_densify_needs_a_four_point_scaffold(capsys, tmp_path):
    cfg = tmp_path / "thin.cfg"
    cfg.write_text("point A = (0, 0)\npoint B = (4, 0)\n"
                   "target point T = (1, 1)\n", encoding="utf-8")
    code, _, err = invoke(capsys, "densify", str(cfg), "--target", "T",
                          "--eps", "1/4")
    assert code == 2
    assert "four scene points" in err


def test_densify_outside_scope_is_an_input_error(capsys, tmp_path):
    cfg = tmp_path / "outside.cfg"
    cfg.write_text("point A = (0, 0)\npoint B = (4, 0)\npoint C = (0, 4)\n"
                   "point D = (1, 1)\ntarget point T = (3, 3)\n",
                   encoding="utf-8")
    code, _, err = invoke(capsys, "densify", str(cfg), "--target", "T",
                          "--eps", "1/4")
    assert code == 2
    assert "strictly inside" in err


def test_densify_bad_eps(capsys):
    code, _, err = invoke(capsys, "densify", DENSIFY, "--target", "T",
                          "--eps", "tiny")
    assert code == 2
    assert "bad eps" in err


# ---------------------------------------------------------------------------
# verify-corpus

def test_verify_corpus_single_entry(capsys):
    code, out, _ = invoke(capsys, "verify-corpus", "sqrt3",
                          "--input-samples", "2", "--oracle-seeds", "2")
    assert code == 0
    assert out == "PASS: sqrt3 (6 trials)\n"


def test_verify_corpus_expected_failure_is_ok(capsys):
    code, out, _ = invoke(capsys, "verify-corpus", "incenter_broken",
                          "--input-samples", "1", "--oracle-seeds", "2")
    assert code == 0
    assert out == "FAIL: incenter_broken (4 trials) (expected failure)\n"


def test_verify_corpus_json_failures_carry_witnesses(capsys):
    code, out, _ = invoke(capsys, "verify-corpus", "incenter_broken",
                          "--input-samples", "0", "--oracle-seeds", "1",
                          "--json")
    assert code == 0
    doc = json.loads(out)
    report = doc["reports"][0]
    assert report["expect_fail"] is True and report["ok"] is True
    assert report["failures"][0]["kind"] in ("abort", "postcondition")


@pytest.mark.parametrize("flags", [("--oracle-seeds", "0"),
                                   ("--oracle-seeds", "-1")])
def test_verify_corpus_that_would_run_nothing_is_a_usage_error(capsys,
                                                               flags):
    code, out, err = invoke(capsys, "verify-corpus", "midpoint", *flags)
    assert code == 2
    assert out == ""
    assert "oracle_seeds >= 1" in err


def test_verify_corpus_unknown_entry(capsys):
    code, _, err = invoke(capsys, "verify-corpus", "nonagon")
    assert code == 2
    assert "unknown corpus entry" in err


# ---------------------------------------------------------------------------
# wiring

@pytest.mark.parametrize("argv, flag", [
    (("closure", AB, "--rounds", "-2"), "--rounds"),
    (("closure", AB, "--rounds", "1", "--max-objects", "-1"),
     "--max-objects"),
    (("game", AB, "--target", "M", "--alice", "corpus:midpoint",
      "--bob", "sampling:0", "--max-moves", "-1"), "--max-moves"),
    (("densify", DENSIFY, "--target", "T", "--eps", "1/64",
      "--max-iterations", "-1"), "--max-iterations"),
    (("verify-corpus", "midpoint", "--input-samples", "-1"),
     "--input-samples"),
])
def test_negative_budgets_are_usage_errors(capsys, argv, flag):
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: must be >= 0" in captured.err


def test_budget_flag_defaults_are_the_library_bounds():
    parse = build_parser().parse_args
    assert parse(["closure", AB, "--rounds", "1"]).max_objects == \
        Budget.max_objects
    assert parse(["game", AB, "--target", "M", "--alice", "corpus:midpoint",
                  "--bob", "sampling:0"]).max_moves == DEFAULT_MAX_MOVES
    assert parse(["densify", DENSIFY, "--target", "T", "--eps", "1/64"]
                 ).max_iterations == DEFAULT_MAX_ITERATIONS


def test_budget_flags_keep_the_int_message(capsys):
    with pytest.raises(SystemExit) as info:
        main(["closure", AB, "--rounds", "two"])
    assert info.value.code == 2
    assert "argument --rounds: invalid int value: 'two'" in \
        capsys.readouterr().err


def test_no_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


def test_json_output_is_deterministic(capsys):
    first = invoke(capsys, "closure", AB, "--rounds", "1", "--json")
    second = invoke(capsys, "closure", AB, "--rounds", "1", "--json")
    assert first == second
