"""Tests for the command-line interface: verbs, formats, exit codes."""

import argparse
import ast
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import eclab
from eclab import cli
from eclab.cli import main
from eclab.graphs import parse_edge_list


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEc:
    def test_family_json(self, capsys):
        code, out, _ = run_cli(capsys, "ec", "--family", "path:6", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["ec"] == 4
        assert list(payload) == ["ec", "blocks", "justification", "mode"]
        assert payload["mode"] == "exact"

    def test_text_output(self, capsys):
        code, out, _ = run_cli(capsys, "ec", "--family", "cycle:5")
        assert code == 0
        assert out.startswith("EC 5")

    def test_text_output_marks_full_edges(self, capsys):
        code, out, _ = run_cli(capsys, "ec", "--family", "star:3")
        assert code == 0
        assert out.splitlines() == [
            "EC 3",
            "  block 0: [0]  (full edge)",
            "  block 1: [1]  (full edge)",
            "  block 2: [2]  (full edge)",
        ]

    def test_graph_file_input(self, capsys, tmp_path):
        path = tmp_path / "g.el"
        path.write_text("4 3\n0 1\n1 2\n2 3\n")
        code, out, _ = run_cli(capsys, "ec", "--graph", str(path), "--format", "json")
        assert code == 0
        assert json.loads(out)["ec"] == 3

    def test_budget_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "ec", "--family", "path:6", "--max-edges", "3")
        assert code == 3
        assert "exact-mode cap 3" in err and "--lower-bound" in err

    def test_env_cap_override(self, capsys, monkeypatch):
        monkeypatch.setenv("ECLAB_MAX_EDGES", "3")
        code, _, err = run_cli(capsys, "ec", "--family", "path:6")
        assert code == 3
        assert "exact-mode cap 3" in err and "--lower-bound" in err
        monkeypatch.setenv("ECLAB_MAX_EDGES", "8")
        code, out, _ = run_cli(capsys, "ec", "--family", "path:6", "--format", "json")
        assert code == 0 and json.loads(out)["ec"] == 4

    @pytest.mark.parametrize("mode", [[], ["--lower-bound"]], ids=["exact", "lower"])
    def test_malformed_env_cap_is_usage_error(self, capsys, monkeypatch, mode):
        monkeypatch.setenv("ECLAB_MAX_EDGES", "abc")
        code, out, err = run_cli(capsys, "ec", "--family", "path:4", *mode)
        assert (code, out) == (2, "")
        assert err == "error: ECLAB_MAX_EDGES must be an integer, got 'abc'\n"

    @pytest.mark.parametrize("mode", [[], ["--lower-bound"]], ids=["exact", "lower"])
    def test_negative_env_cap_is_usage_error(self, capsys, monkeypatch, mode):
        monkeypatch.setenv("ECLAB_MAX_EDGES", "-4")
        code, out, err = run_cli(capsys, "ec", "--family", "path:3", *mode)
        assert (code, out) == (2, "")
        assert err == "error: ECLAB_MAX_EDGES must not be negative, got '-4'\n"

    @pytest.mark.parametrize(
        "spec, m",
        [
            # The path cases are named by n alone.
            pytest.param("path:100000", 99_999, id="100000"),
            pytest.param("path:1000000", 999_999, id="1000000"),
            pytest.param("cycle:1000000", 1_000_000, id="cycle:1000000"),
            pytest.param("star:1000000", 1_000_000, id="star:1000000"),
            pytest.param("dstar:500000,500000", 1_000_001, id="dstar:500000,500000"),
            pytest.param("complete:100000", 4_999_950_000, id="complete:100000"),
            pytest.param("kbip:100000,100000", 10_000_000_000, id="kbip:100000,100000"),
        ],
    )
    def test_over_cap_family_refused_before_the_graph_is_built(self, capsys, spec, m):
        # P1000000 used to cost 432 MiB and 3 s of graph building before exit 3.
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, "ec", "--family", spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (code, out) == (3, "")
        assert err == (
            f"error: graph has m={m} edges, above the exact-mode cap 16; raise the cap "
            "(--max-edges or ECLAB_MAX_EDGES) or use lower-bound mode (--lower-bound)\n"
        )
        assert peak < 2**20, f"traced peak {peak / 2**20:.1f} MiB"

    def test_lower_bound_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, "ec", "--family", "path:6", "--lower-bound", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["mode"] == "lower_bound"
        assert payload["ec"] >= 4

    def test_jobs_option_is_usage_error(self, capsys):
        # No option selects a search route; there is one, in one process.
        with pytest.raises(SystemExit) as exc:
            main(["ec", "--family", "path:3", "--jobs", "2"])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-5", "two"])
    def test_jobs_below_one_is_usage_error(self, capsys, jobs):
        # Values that were invalid while --jobs existed stay usage errors.
        with pytest.raises(SystemExit) as exc:
            main(["ec", "--family", "path:3", "--jobs", jobs])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    @pytest.mark.parametrize("budget", ["nan", "inf", "-inf", "-1"])
    def test_negative_or_non_finite_budget_is_usage_error(self, capsys, budget):
        with pytest.raises(SystemExit) as exc:
            main(["ec", "--family", "path:3", "--lower-bound", f"--time-budget={budget}"])
        assert exc.value.code == 2
        assert "--time-budget" in capsys.readouterr().err

    def test_zero_budget_is_budget_exit(self, capsys):
        code, _, err = run_cli(
            capsys, "ec", "--family", "path:3", "--lower-bound", "--time-budget", "0"
        )
        assert code == 3
        assert err.startswith("error:")


@pytest.mark.parametrize("verb", ["ec", "gamma", "verify", "bounds"])
def test_dot_format_is_usage_error_outside_ecg(capsys, verb):
    # Only ecg renders DOT; the other verbs would silently print text.
    with pytest.raises(SystemExit) as exc:
        main([verb, "--family", "path:4", "--format", "dot"])
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err


class TestGamma:
    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "gamma", "--family", "complete:4", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["gamma_prime"] == 2
        assert len(payload["witness"]) == 2

    def test_text(self, capsys):
        assert run_cli(capsys, "gamma", "--family", "path:4") == (
            0, "gamma' 1\nwitness [1]\n", ""
        )


class TestVerify:
    def test_negative_singleton(self, capsys, tmp_path):
        path = tmp_path / "p6.el"
        code, out, _ = run_cli(capsys, "generate", "--family", "path:6", "--output", str(path))
        assert code == 0
        code, out, _ = run_cli(
            capsys,
            "verify",
            "--graph",
            str(path),
            "--partition",
            "[[0],[1],[2],[3],[4]]",
        )
        assert code == 1
        assert out.strip() == "block 2 has no partner"

    def test_negative_dominating_block(self, capsys):
        # Edges 1 and 3 of P6 dominate all five edges together.
        code, out, _ = run_cli(
            capsys, "verify", "--family", "path:6", "--partition", "[[1,3],[0],[2],[4]]"
        )
        assert code == 1
        assert out.strip() == "block 0 is a dominating set with more than one edge"

    def test_positive(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify",
            "--family",
            "path:6",
            "--partition",
            "[[0,4],[1],[2],[3]]",
        )
        assert code == 0
        assert "order 4" in out

    @pytest.mark.parametrize(
        "partition, code, payload",
        [
            (
                "[[0,4],[1],[2],[3]]",
                0,
                {"valid": True, "order": 4, "blocks": [[0, 4], [1], [2], [3]]},
            ),
            ("[[0],[1],[2],[3],[4]]", 1, {"valid": False, "block": 2, "reason": "no_partner"}),
            (
                "[[1,3],[0],[2],[4]]",
                1,
                {"valid": False, "block": 0, "reason": "non_singleton_dominating"},
            ),
        ],
        ids=["positive", "negative", "dominating"],
    )
    def test_json(self, capsys, partition, code, payload):
        assert run_cli(
            capsys, "verify", "--family", "path:6", "--format", "json", "--partition", partition
        ) == (code, json.dumps(payload) + "\n", "")

    def test_invalid_partition_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--family", "path:6", "--partition", "[[0],[1]]"
        )
        assert code == 2
        assert "not covered" in err

    def test_bool_indices_are_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--family", "path:3", "--partition", "[[true],[false]]"
        )
        assert code == 2
        assert out == ""
        assert "nonexistent edge" in err

    @pytest.mark.parametrize("verb", ["verify", "ecg"])
    def test_nested_block_member_is_usage_error(self, capsys, verb):
        code, out, err = run_cli(
            capsys, verb, "--family", "path:3", "--partition", "[[[0]],[1]]"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "edge indices" in err

    @pytest.mark.parametrize(
        "partition, kind",
        [("{}", "dict"), ('"012"', "str"), ('[[0, 1], "2"]', "str")],
        ids=["dict", "str", "str-block"],
    )
    def test_partition_of_wrong_type_is_usage_error(self, capsys, partition, kind):
        # Read as keys or letters, these said "not covered" or named edge '0'.
        code, out, err = run_cli(
            capsys, "verify", "--family", "path:4", "--partition", partition
        )
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.endswith(f"got a {kind}\n")

    def test_bad_json_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--family", "path:6", "--partition", "nope")
        assert code == 2

    def test_preset_on_wrong_graph(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--family", "path:6", "--partition-id", "pi1")
        assert code == 2

    @pytest.mark.parametrize("verb, pid", [("verify", "pi6"), ("ecg", "pi1")])
    def test_preset_on_other_graph_with_six_vertices_and_eight_edges(
        self, capsys, tmp_path, verb, pid
    ):
        # C6 plus the chords 0-3 and 1-4 has the shape (6, 8) of kbip:2,4,
        # but the presets name edge indices of kbip:2,4 alone.
        path = tmp_path / "c6_chords.el"
        path.write_text("6 8\n0 1\n1 2\n2 3\n3 4\n4 5\n0 5\n0 3\n1 4\n")
        code, out, err = run_cli(capsys, verb, "--graph", str(path), "--partition-id", pid)
        assert code == 2
        assert out == ""
        assert "apply to the graph kbip:2,4 only" in err

    def test_preset_on_generated_kbip_file(self, capsys, tmp_path):
        path = tmp_path / "k24.el"
        assert main(["generate", "--family", "kbip:2,4", "--output", str(path)]) == 0
        code, out, _ = run_cli(capsys, "verify", "--graph", str(path), "--partition-id", "pi6")
        assert code == 0
        assert out == "valid ec-partition of order 4\n"


class TestEcg:
    def test_dot_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "ecg", "--family", "kbip:2,4", "--partition-id", "pi6", "--format", "dot"
        )
        assert code == 0
        assert out.startswith("graph {")
        assert out.count("--") == 6  # K4
        assert "B0" in out

    def test_edge_list_output(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "ecg",
            "--family",
            "path:6",
            "--partition",
            "[[0,4],[1],[2],[3]]",
            "--format",
            "text",
        )
        assert code == 0
        g = parse_edge_list(out)
        assert g.n == 4 and g.m == 4

    def test_json_output(self, capsys):
        assert run_cli(
            capsys, "ecg", "--family", "path:6", "--partition", "[[0,4],[1],[2],[3]]",
            "--format", "json",
        ) == (0, '{"n": 4, "edges": [[0, 1], [0, 2], [0, 3], [1, 3]]}\n', "")

    def test_isolated_vertices_listed_in_dot(self, capsys):
        code, out, _ = run_cli(
            capsys, "ecg", "--family", "star:3", "--partition", "[[0],[1],[2]]",
            "--format", "dot",
        )
        assert code == 0
        for name in ("B0", "B1", "B2"):
            assert f"{name};" in out

    def test_rejected_partition_is_negative_exit(self, capsys):
        code, _, err = run_cli(
            capsys, "ecg", "--family", "path:6",
            "--partition", "[[0],[1],[2],[3],[4]]",
        )
        assert code == 1
        assert "no partner" in err


class TestInputBoundary:
    """Bad input, unreadable input files and unwritable outputs exit 2 with one message."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["verify", "--family", "kbip:2,4", "--partition", "[[0]]", "--partition-id", "pi6"],
                "not allowed with argument",
            ),
            (["verify", "--family", "kbip:2,4"], "--partition --partition-id is required"),
            (["verify", "--family", "kbip:2,4", "--partition-id", ""], "unknown partition id ''"),
            (["ecg", "--family", "path:6", "--partition", "5"], "edge indices"),
            (["ecg", "--family", "path:6", "--partition", '{"a": [0]}'], "got a dict"),
            (["verify", "--family", "path:3", "--partition", "[[" + "9" * 5000 + "]]"], "not valid JSON"),
            (["verify", "--family", "path:3", "--partition", "[" * 100_000], "not valid JSON"),
            (["ec", "--graph", "{tmp}/missing.el"], "{tmp}/missing.el"),
            (["generate", "--family", "path:4", "--output", "{tmp}"], "{tmp}"),
            (["generate", "--family", "path:4", "--output", "{tmp}/no/x.el"], "{tmp}/no/x.el"),
            (["corpus", "--max-vertices", "3", "--out-dir", "{tmp}/file"], "{tmp}/file"),
            (
                ["ec", "--graph", "{tmp}/xy.el"],
                "error: cannot parse {tmp}/xy.el: expected header 'n m', got 'x y'\n",
            ),
            (
                ["ec", "--family", "path:4", "--lower-bound", "--time-budget", "abc"],
                "argument --time-budget: must be a finite number of seconds, got 'abc'",
            ),
            (
                ["ec", "--family", "path:6", "--time-budget", "5"],
                "error: --time-budget applies only with --lower-bound\n",
            ),
            (
                ["ec", "--family", "path:6", "--lower-bound", "--max-edges", "20"],
                "error: --max-edges applies to exact mode only, not with --lower-bound\n",
            ),
            (
                ["corpus", "--classes", "trees", "--max-vertices", "-1", "--out-dir", "{tmp}/d"],
                "error: max_vertices must be a nonnegative int, got -1\n",
            ),
            (
                ["ec", "--family", "path:3", "--max-edges", "-1"],
                "argument --max-edges: must not be negative, got '-1'",
            ),
            (
                ["ec", "--family", "path:3", "--max-edges", "x"],
                "argument --max-edges: must be an integer, got 'x'",
            ),
        ],
    )
    def test_usage_error(self, capsys, tmp_path, argv, message):
        (tmp_path / "file").write_text("")
        (tmp_path / "xy.el").write_text("x y\n")
        try:
            code = main([arg.replace("{tmp}", str(tmp_path)) for arg in argv])
        except SystemExit as exc:  # argparse reports its own usage errors
            code = exc.code
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "error:" in captured.err
        assert message.replace("{tmp}", str(tmp_path)) in captured.err
        assert "Traceback" not in captured.err


class TestBounds:
    def test_text_table(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--family", "cycle:7")
        assert code == 0
        assert "twice-gamma-minus-one" in out
        assert "size-upper" in out

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--family", "star:5", "--format", "json")
        assert code == 0
        entries = json.loads(out)
        assert all(list(e) == ["source", "kind", "value", "applicable", "reason"] for e in entries)
        by_source = {e["source"]: e for e in entries}
        assert not by_source["twice-gamma-minus-one"]["applicable"]


class TestGenerateAndCorpus:
    def test_generate_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "--family", "kbip:2,4")
        assert code == 0
        g = parse_edge_list(out)
        assert g.n == 6 and g.m == 8

    def test_generate_bad_spec(self, capsys):
        code, _, _ = run_cli(capsys, "generate", "--family", "path:1")
        assert code == 2

    def test_corpus_export(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys,
            "corpus",
            "--classes",
            "trees",
            "--max-vertices",
            "5",
            "--out-dir",
            str(tmp_path),
        )
        assert code == 0
        files = sorted(p.name for p in tmp_path.iterdir())
        assert len(files) == 8  # 1+1+1+2+3 trees
        assert "trees_5_2.el" in files

    def test_corpus_over_cap(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "corpus", "--classes", "all", "--max-vertices", "10",
            "--out-dir", str(tmp_path),
        )
        assert code == 3

    def test_corpus_unknown_class_is_usage_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "corpus", "--classes", "widgets", "--max-vertices", "4",
            "--out-dir", str(tmp_path),
        )
        assert code == 2
        assert "unknown corpus class 'widgets'" in err

    def test_corpus_repeated_class_is_usage_error(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "corpus", "--classes", "trees,trees", "--max-vertices", "5",
            "--out-dir", str(tmp_path),
        )
        assert code == 2
        assert out == ""
        assert "'trees' is listed more than once" in err
        assert not any(tmp_path.iterdir())


class TestTheorems:
    def test_single_cheap_tag(self, capsys):
        code, out, _ = run_cli(capsys, "theorems", "--only", "cycles-closed-form")
        assert code == 0
        assert "PASS" in out and "cycles-closed-form" in out

    def test_unknown_tag_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "theorems", "--only", "nonsense")
        assert code == 2
        assert "unknown check tags" in err

    @pytest.mark.parametrize("only, tags", [("", "''"), (",", "'', ''")], ids=["empty", "comma"])
    def test_empty_tags_are_usage_errors(self, capsys, only, tags):
        code, out, err = run_cli(capsys, "theorems", "--only", only)
        assert (code, out) == (2, "")
        assert err == f"error: unknown check tags: {tags}\n"

    def test_repeated_tag_is_usage_error(self, capsys):
        # Unchecked, the check runs once and reports 1/1 checks passed.
        only = "cycles-closed-form,cycles-closed-form"
        code, out, err = run_cli(capsys, "theorems", "--only", only)
        assert (code, out) == (2, "")
        assert err == "error: check tag 'cycles-closed-form' is listed more than once\n"

    def test_full_suite_output(self, capsys):
        # Criteria 9 and 11 fail on purpose: both refute claims of the paper.
        code, out, err = run_cli(capsys, "theorems")
        assert code == 1
        assert err == ""
        assert out.splitlines() == THEOREMS_STDOUT


THEOREMS_STDOUT = [
    "PASS  paths-closed-form            paths n=2..14 match; P_13 witness has 6 blocks",
    "PASS  cycles-closed-form           cycles n=3..12 match",
    "PASS  stars-and-double-stars       stars n=1..8 and 25 double stars match",
    "PASS  complete-graphs              K_2..K_5 attain m; EC(K_6) = 13 < 15; K_4 sharp at 2(n-1)",
    "PASS  complete-bipartite           K_2,2 = 4; K_2,3 = 6 >= 6; K_2,4 = 8 >= 8",
    "PASS  small-ec-classes             31 graphs classified consistently",
    "PASS  trees-phi                    94 trees agree with the recognizer",
    "PASS  unicyclic-theta              143 unicyclic graphs agree",
    "FAIL  bound-suite                  2 violations, e.g. "
    "((0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (3, 6)): twice-gamma-minus-one=5 vs EC=4; "
    "((0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (2, 6), (3, 7), (4, 8)): "
    "twice-gamma-minus-one=7 vs EC=4",
    "PASS  partner-cap                  1571 blocks within the partner cap",
    "FAIL  coalition-graph-theorems     self-coalition census differs from the expected "
    "two-graph answer: extra hits [((0, 1), (1, 2), (0, 2), (0, 3), (0, 4), (1, 5), (2, 6))], "
    "missing []",
    "PASS  oracle-equivalence           269 graphs agree with the oracle",
    "PASS  singleton-ec-spot-checks     3 spot checks and 15 dense graphs consistent",
    "PASS  gamma-prime-identity         269 graphs plus K_n/K_r,r cases agree",
    "12/14 checks passed",
]


_VERB_NAMES = ["ec", "gamma", "verify", "ecg", "bounds", "generate", "corpus", "theorems"]


def _outcome(capsys, argv):
    """Exit status, stdout and stderr of ``main(argv)``, argparse exits included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerbParser:
    """``main`` builds only the named verb's subparser, and no output shows it."""

    @pytest.mark.parametrize(
        "argv",
        [[], ["-h"], ["--help"], ["bogus"], ["e"], ["-h", "ec"]]
        + [[verb] for verb in _VERB_NAMES]
        + [[verb, "-h"] for verb in _VERB_NAMES]
        + [
            ["ec", "--family", "path:5", "extra"],
            ["ec", "--family", "path:5", "--graph", "x"],
            ["ec", "--fam", "path:4"],
            ["ec", "--jobs", "2"],
            ["ec", "--format", "dot"],
            ["ec", "--max-edges", "-1"],
            ["ec", "--lower-bound", "--time-budget", "nan"],
            ["theorems", "--only"],
        ],
        ids=lambda argv: " ".join(argv) or "no-args",
    )
    def test_same_outcome_as_the_full_parser(self, capsys, monkeypatch, argv):
        # Compared with this interpreter's argparse, not with literal help
        # text, whose wording differs across Python versions.
        narrowed = _outcome(capsys, argv)
        full = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda verb=None: full())
        assert _outcome(capsys, argv) == narrowed

    @pytest.mark.parametrize(
        "argv, parsers",
        [
            (["ec", "--family", "path:4"], 2),
            (["theorems", "--only", "paths-closed-form"], 2),
            (["--help"], 9),
        ],
        ids=["ec", "theorems", "help"],
    )
    def test_argument_parsers_built(self, capsys, monkeypatch, argv, parsers):
        # The top-level parser and the verb's, or all nine for the full help.
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert _outcome(capsys, argv)[0] == 0
        assert len(built) == parsers

    def test_missing_verb_is_reported_as_verb(self, capsys):
        # Only a narrowed parser lists every verb name as the metavar.
        code, out, err = _outcome(capsys, [])
        assert (code, out) == (2, "")
        assert err.endswith("error: the following arguments are required: verb\n")

    def test_unknown_verb_is_refused(self):
        with pytest.raises(ValueError, match="unknown verb 'e'"):
            cli.build_parser("e")


def test_only_the_cli_writes_to_stdout():
    # The library returns results; printing them is the front end's job.
    package = Path(eclab.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id == "print":
                    offenders.append(f"{path.name}:{node.lineno} print")
            elif isinstance(node, ast.Attribute) and node.attr == "stdout":
                offenders.append(f"{path.name}:{node.lineno} .stdout")
    assert len(list(package.glob("*.py"))) > 5, "no modules found"
    assert offenders == []


def test_all_lists_exactly_the_public_names_the_package_imports():
    # A stale entry would make `from eclab import *` raise AttributeError.
    tree = ast.parse(Path(eclab.__file__).read_text())
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    ]
    assert [name for name in eclab.__all__ if not hasattr(eclab, name)] == []
    assert sorted(eclab.__all__) == sorted(imported)


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "eclab.cli", "ec", "--family", "star:4", "--format", "json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ec"] == 4


def test_import_loads_no_process_machinery():
    # Every run pays for what importing the CLI loads.
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, eclab.cli; "
            "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_closed_stdout_pipe_exits_141(fmt):
    proc = subprocess.Popen(
        [sys.executable, "-m", "eclab.cli", "ec", "--family", "path:13", "--format", fmt],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    proc.stdout.close()  # the reader hangs up before anything is written
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 141
    assert err == b""
