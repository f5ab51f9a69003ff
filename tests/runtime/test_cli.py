"""Tests for the command-line interface."""

from repro.cli import main


class TestCli:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "Tesla K20c" in out
        assert "DOP window [26624" in out

    def test_apps(self, capsys):
        assert main(["apps"]) == 0
        out = capsys.readouterr().out
        assert "sumRows" in out and "pagerank" in out

    def test_map(self, capsys):
        assert main(["map", "sumRows", "R=1024", "C=4096"]) == 0
        out = capsys.readouterr().out
        assert "mapping: L0[" in out
        assert "[hard/local]" in out
        assert "occupancy" in out

    def test_map_with_strategy(self, capsys):
        assert main(["map", "sumRows", "--strategy", "1d"]) == 0
        out = capsys.readouterr().out
        assert "[seq]" in out

    def test_cuda(self, capsys):
        assert main(["cuda", "sumRows", "R=256", "C=256"]) == 0
        out = capsys.readouterr().out
        assert "__global__" in out

    def test_cuda_with_host(self, capsys):
        assert main(["cuda", "sumRows", "R=256", "C=256", "--host"]) == 0
        out = capsys.readouterr().out
        assert "int main()" in out

    def test_cuda_to_file(self, tmp_path, capsys):
        target = tmp_path / "k.cu"
        assert main(
            ["cuda", "sumRows", "R=64", "C=64", "-o", str(target)]
        ) == 0
        assert "__global__" in target.read_text()

    def test_figures_single(self, capsys):
        assert main(["figures", "fig7"]) == 0
        out = capsys.readouterr().out
        assert "Figure 7" in out

    def test_experiments_written(self, tmp_path, capsys):
        target = tmp_path / "EXP.md"
        assert main(["experiments", "-o", str(target)]) == 0
        text = target.read_text()
        assert "Figure 3" in text and "Figure 17" in text

    def test_unknown_app(self, capsys):
        assert main(["map", "nosuchapp"]) == 2
        err = capsys.readouterr().err
        assert "unknown app" in err

    def test_bad_size_binding(self, capsys):
        assert main(["map", "sumRows", "R:64"]) == 2
        err = capsys.readouterr().err
        assert "k=v" in err

    def test_report(self, capsys):
        assert main(["report", "sumCols", "R=65536", "C=1024"]) == 0
        out = capsys.readouterr().out
        assert "# Compilation report: sumCols" in out
        assert "Why this mapping" in out
        assert "```cuda" in out

    def test_report_to_file(self, tmp_path, capsys):
        target = tmp_path / "report.md"
        assert main(
            ["report", "sumRows", "R=256", "C=256", "-o", str(target)]
        ) == 0
        assert "Simulated cost" in target.read_text()


class TestObservabilityCli:
    def test_trace_writes_perfetto_loadable_file(self, tmp_path, capsys):
        import json

        from repro.observability import validate_chrome_trace

        target = tmp_path / "trace.json"
        assert main(["trace", "sumCols", "R=64", "C=64", "-o", str(target)]) == 0
        out = capsys.readouterr().out
        assert "Perfetto" in out
        with open(target) as handle:
            doc = json.load(handle)
        assert validate_chrome_trace(doc) == []
        stages = {
            e["name"] for e in doc["traceEvents"] if e.get("ph") == "X"
        }
        # The issue's acceptance bar: at least six distinct pipeline stages.
        assert len(stages) >= 6
        assert {"compile", "search", "codegen", "interpret"} <= stages

    def test_trace_app_name_is_case_insensitive(self, tmp_path):
        target = tmp_path / "trace.json"
        assert main(["trace", "sumcols", "-o", str(target)]) == 0
        assert target.exists()

    def test_trace_writes_provenance_artifact(self, tmp_path, capsys):
        from repro.observability.provenance import load_provenance

        trace = tmp_path / "trace.json"
        prov_path = tmp_path / "prov.json"
        assert main(["trace", "sumCols", "R=64", "C=64", "-o", str(trace),
                     "--provenance", str(prov_path)]) == 0
        prov = load_provenance(str(prov_path))
        assert prov.program == "sumCols"
        assert prov.kernels

    def test_stats_renders_counters(self, tmp_path, capsys):
        assert main(["stats", "sumCols", "R=64", "C=64"]) == 0
        out = capsys.readouterr().out
        assert "counters:" in out
        assert "compile.runs" in out
        assert "stage_ms." in out

    def test_stats_json(self, capsys):
        import json

        assert main(["stats", "sumCols", "R=64", "C=64", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["counters"]["compile.runs"] == 1
        assert "histograms" in data

    def test_explain_renders_saved_artifact(self, tmp_path, capsys):
        prov_path = tmp_path / "prov.json"
        assert main(["trace", "sumCols", "R=64", "C=64",
                     "-o", str(tmp_path / "t.json"),
                     "--provenance", str(prov_path)]) == 0
        capsys.readouterr()
        assert main(["explain", str(prov_path)]) == 0
        out = capsys.readouterr().out
        assert "Mapping provenance: sumCols" in out
        assert "winner:" in out

    def test_explain_bad_artifact_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["explain", str(bad)]) == 2
        assert main(["explain", str(tmp_path / "missing.json")]) == 2

    def test_chaos_trace_flag(self, tmp_path, capsys):
        import json

        from repro.observability import validate_chrome_trace

        target = tmp_path / "chaos-trace.json"
        assert main(["chaos", "sumCols", "--stage", "codegen",
                     "--trace", str(target)]) == 0
        with open(target) as handle:
            assert validate_chrome_trace(json.load(handle)) == []

    def test_difftest_trace_flag(self, tmp_path, capsys):
        import json

        from repro.observability import validate_chrome_trace

        target = tmp_path / "difftest-trace.json"
        assert main(["difftest", "--budget", "2", "--seed", "7",
                     "--trace", str(target)]) == 0
        with open(target) as handle:
            doc = json.load(handle)
        assert validate_chrome_trace(doc) == []
        names = {e["name"] for e in doc["traceEvents"]}
        assert "difftest.campaign" in names
