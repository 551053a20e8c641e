"""tools/ab_pairs.py summarizes canned results; no benchmark is started."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "ab_pairs.py"
_spec = importlib.util.spec_from_file_location("ab_pairs", TOOL)
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)


def result(pass_s, failed=0, rss=20.0):
    return {"correct": failed == 0, "attempted": 6, "failed": failed, "metrics": {
        "pass_s": {"value": pass_s, "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }}


def line(obj):
    return f"workload float-wide\n  pass_s 1 s\n{json.dumps(obj)}\n"


class TestParseResult:
    def test_reads_the_last_line(self):
        assert ab_pairs.parse_result(line(result(0.5))) == result(0.5)

    @pytest.mark.parametrize("stdout", [
        "", "\n", "Traceback (most recent call last):\n  boom\n",
        line(result(0.5)) + "trailing text\n", '{"failed": 0}\n', '[1, 2]\n',
        '{"failed": "0", "metrics": {}}\n',
    ])
    def test_malformed_output_is_no_result(self, stdout):
        assert ab_pairs.parse_result(stdout) is None


class TestProblem:
    def test_good_run(self):
        assert ab_pairs.problem(0, result(0.5)) is None

    def test_failed_cases(self):
        assert ab_pairs.problem(1, result(0.5, failed=2)) == "exit code 1"
        assert ab_pairs.problem(0, result(0.5, failed=2)) == "2 of 6 cases failed"

    def test_no_result(self):
        assert ab_pairs.problem(0, None) == "no result on the last line (exit code 0)"


class TestSummarize:
    def test_ties_count_for_neither_side(self):
        pairs = [(result(1.0), result(0.8)), (result(1.0), result(1.0)),
                 (result(1.2), result(1.3)), (result(1.1), result(0.9))]
        pass_line, rss_line = ab_pairs.summarize(pairs)
        assert pass_line == (
            "pass_s (s): parent 1.05 [1, 1.125], change 0.95 [0.875, 1.075], "
            "-9.5 %, change lower in 2 of 4"
        )
        assert rss_line.endswith("+0.0 %, change lower in 0 of 4")

    def test_one_pair(self):
        (pass_line, _) = ab_pairs.summarize([(result(2.0), result(1.0))])
        assert pass_line == (
            "pass_s (s): parent 2 [2, 2], change 1 [1, 1], -50.0 %, change lower in 1 of 1"
        )


class TestMain:
    def run_main(self, monkeypatch, capsys, outputs, pairs):
        # outputs: (exit code, stdout) per run, in the order the tool runs them
        calls = []

        def fake(tree, args):
            calls.append(tree.name)
            code, stdout = outputs[len(calls) - 1]
            return code, ab_pairs.parse_result(stdout)

        monkeypatch.setattr(ab_pairs, "run", fake)
        status = ab_pairs.main(["--parent", "p", "--change", "c", "--workload",
                                "float-wide", "--pairs", str(pairs), "--seconds", "1"])
        return status, calls, capsys.readouterr()

    def test_sides_alternate_and_good_runs_exit_0(self, monkeypatch, capsys):
        outputs = [(0, line(result(v))) for v in (1.0, 0.9, 0.8, 1.1, 1.0, 1.0)]
        status, calls, out = self.run_main(monkeypatch, capsys, outputs, 3)
        assert status == 0 and calls == ["p", "c", "c", "p", "p", "c"]
        assert "pass_s (s): parent 1 [1, 1.05], change 0.9 [0.85, 0.95]" in out.out
        assert "change lower in 2 of 3" in out.out

    def test_a_failed_run_exits_1(self, monkeypatch, capsys):
        outputs = [(0, line(result(1.0))), (1, line(result(0.9, failed=1)))]
        status, _, out = self.run_main(monkeypatch, capsys, outputs, 1)
        assert status == 1
        assert "pair 1 change: BAD, exit code 1" in out.out

    def test_a_malformed_line_exits_1(self, monkeypatch, capsys):
        outputs = [(0, line(result(1.0))), (0, "no json here\n"),
                   (0, line(result(0.9))), (0, line(result(1.0)))]
        status, _, out = self.run_main(monkeypatch, capsys, outputs, 2)
        assert status == 1
        assert "pair 1 change: BAD, no result on the last line (exit code 0)" in out.out
        assert "change lower in 1 of 1" in out.out

    def test_runs_the_tree_s_own_runner(self, tmp_path):
        # a stand-in perfbench/run.py that echoes its arguments as a result
        (tmp_path / "perfbench").mkdir()
        (tmp_path / "perfbench" / "run.py").write_text(
            "import json, sys\n"
            "print(json.dumps({'failed': 0, 'metrics': {'argv': "
            "{'value': len(sys.argv), 'unit': ' '.join(sys.argv[1:])}}}))\n"
        )
        args = ab_pairs.argparse.Namespace(workload="float-wide", seed=7, seconds=2.0)
        code, got = ab_pairs.run(tmp_path, args)
        assert code == 0 and got["metrics"]["argv"]["unit"] == (
            "--workload float-wide --seed 7 --seconds 2.0 --trace 0"
        )
