import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_query_scaling_plotdata_smoke(tmp_path, capsys):
    out = tmp_path / "q.csv"
    script = _load("query_scaling_plotdata")
    assert script.main(["--n", "12", "--ells", "4,6", "--trials", "5", "--out", str(out)]) == 0
    assert str(out) in capsys.readouterr().out
    lines = out.read_text().splitlines()
    header = lines[0].split()
    assert header[:3] == ["#", "n=12", "trials=5"]
    assert [f.split("=")[0] for f in header[3:]] == ["forward_enum_slope", "meet_in_middle_slope"]
    assert lines[1] == "strategy,l,mean_queries,success_rate"
    rows = [line.split(",") for line in lines[2:]]
    assert [(r[0], r[1]) for r in rows] == [("forward_enum", "4"), ("forward_enum", "6"),
                                            ("meet_in_middle", "4"), ("meet_in_middle", "6")]
    for _, _, mean_queries, success in rows:
        assert float(mean_queries) > 0
        assert 0 <= float(success) <= 1
