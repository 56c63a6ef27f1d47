"""``repro sweep`` / ``repro query`` end-to-end through the CLI mains."""

import json

import pytest

from repro.store.cli import query_main, sweep_main


@pytest.fixture(scope="module")
def swept_store(tmp_path_factory):
    root = tmp_path_factory.mktemp("store")
    code = sweep_main(
        [
            "resnet2_2_fwd",
            "--store", str(root),
            "--grid", "4",
            "--k-steps", "4",
            "--engine", "analytic",
        ]
    )
    assert code == 0
    return root


class TestSweepMain:
    def test_unknown_kernel_exits_2(self, tmp_path, capsys):
        assert sweep_main(["nope", "--store", str(tmp_path)]) == 2
        assert "nope" in capsys.readouterr().err

    def test_rerun_reuses_stored_points(self, swept_store, capsys):
        code = sweep_main(
            [
                "resnet2_2_fwd",
                "--store", str(swept_store),
                "--grid", "4",
                "--k-steps", "4",
                "--engine", "analytic",
            ]
        )
        assert code == 0
        assert "swept 16 points, 0 simulated" in capsys.readouterr().out

    def test_summary_line(self, swept_store, tmp_path, capsys):
        code = sweep_main(
            [
                "resnet2_2_fwd",
                "--store", str(tmp_path),
                "--grid", "2",
                "--k-steps", "4",
                "--engine", "analytic",
                "--machine", "baseline",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "swept 4 points" in out
        assert "baseline-2vpu@1.7" in out


class TestQueryMain:
    def test_count(self, swept_store, capsys):
        assert query_main([str(swept_store), "--count"]) == 0
        assert capsys.readouterr().out.strip() == "16"

    def test_range_filter(self, swept_store, capsys):
        code = query_main(
            [str(swept_store), "--bs", "0.0:0.3", "--count"]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "8"

    def test_bad_range_exits_2(self, swept_store, capsys):
        with pytest.raises(SystemExit) as excinfo:
            query_main([str(swept_store), "--bs", "wat"])
        assert excinfo.value.code == 2

    def test_csv_format(self, swept_store, capsys):
        assert query_main([str(swept_store), "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "kernel,machine,engine,mechanism,metric,bs,nbs,value"
        assert len(lines) == 17

    def test_json_format(self, swept_store, capsys):
        assert query_main([str(swept_store), "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 16
        assert rows[0]["kernel"] == "resnet2_2_fwd"

    def test_text_format_row_count_footer(self, swept_store, capsys):
        assert query_main([str(swept_store)]) == 0
        out = capsys.readouterr().out
        assert "(16 rows)" in out

    def test_list(self, swept_store, capsys):
        assert query_main([str(swept_store), "--list"]) == 0
        out = capsys.readouterr().out
        assert "resnet2_2_fwd" in out
        assert "rows=16" in out
        assert "complete" in out

    def test_no_match_filters(self, swept_store, capsys):
        assert query_main(
            [str(swept_store), "--kernel", "absent", "--count"]
        ) == 0
        assert capsys.readouterr().out.strip() == "0"


class TestQueryAggregation:
    def test_group_by_count(self, swept_store, capsys):
        code = query_main(
            [str(swept_store), "--group-by", "mechanism", "--reduce", "count"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mechanism=save  count=16" in out
        assert "(1 groups)" in out

    def test_group_by_two_columns_mean(self, swept_store, capsys):
        code = query_main(
            [str(swept_store), "--group-by", "kernel,bs"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[-1] == "(4 groups)"
        assert all("mean=" in line for line in lines[:-1])
        assert all(line.startswith("kernel=resnet2_2_fwd") for line in lines[:-1])

    def test_group_by_json(self, swept_store, capsys):
        code = query_main(
            [
                str(swept_store), "--group-by", "bs", "--reduce", "max",
                "--format", "json",
            ]
        )
        assert code == 0
        groups = json.loads(capsys.readouterr().out)
        assert len(groups) == 4
        assert all(group["reduce"] == "max" for group in groups)

    def test_group_by_respects_filters(self, swept_store, capsys):
        code = query_main(
            [
                str(swept_store), "--group-by", "bs", "--reduce", "count",
                "--bs", "0.0:0.3",
            ]
        )
        assert code == 0
        assert "(2 groups)" in capsys.readouterr().out

    def test_unknown_column_exits_2(self, swept_store, capsys):
        code = query_main([str(swept_store), "--group-by", "flavour"])
        assert code == 2
        assert "flavour" in capsys.readouterr().err
