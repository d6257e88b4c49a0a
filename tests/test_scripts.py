import importlib.util
import math
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


def test_schedule_energy_demo_smoke(tmp_path, capsys):
    out = tmp_path / "e.csv"
    script = _load("schedule_energy_demo")
    assert script.main(["--n", "3", "--out", str(out)]) == 0
    assert "using 0.3" in capsys.readouterr().out  # the 3-site chain's OTOC floor is above 0.1
    lines = out.read_text().splitlines()
    assert lines[0] == "schedule,l,T,energy"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["fixed l=2 m=2", "fixed l=4 m=2", "fixed l=2 m=4",
                                    "randomized A", "randomized B"]
    for _, ell, total_time, energy in rows:
        assert int(ell) >= 1 and float(total_time) > 0 and math.isfinite(float(energy))


def test_query_scaling_plotdata_package_error_exits_2(tmp_path, capsys):
    # one depth leaves nothing to fit a slope to
    script = _load("query_scaling_plotdata")
    assert script.main(["--n", "10", "--ells", "4", "--trials", "3",
                        "--out", str(tmp_path / "q.csv")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_schedule_energy_demo_package_error_exits_2(tmp_path, capsys):
    script = _load("schedule_energy_demo")
    assert script.main(["--n", "0", "--out", str(tmp_path / "e.csv")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
