import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ipowdm
from helpers import mk_topo
from ipowdm.cli import main
from ipowdm.dimensioning import network_cost, network_power
from ipowdm.experiment import (
    CSV_COLUMNS,
    BlockingError,
    ExperimentConfig,
    RunResult,
    average_rows,
    compare,
    rows_from_csv,
    rows_to_csv,
    run_experiment,
    run_single,
)
from ipowdm.topology import TopologyError, load_named_topology
from ipowdm.traffic import generate_traffic, load_scenario

TOY = mk_topo("toy", [("a", "b", 100), ("b", "c", 200), ("a", "c", 400)])
TS1 = load_scenario("TS1")

# flag, file bytes, the error after "ipowdm: error: " ({} is the file)
MALFORMED_INPUTS = [
    ("--power-config", b"", "power config {}: invalid JSON: Expecting value"),
    ("--scenario", b"", "scenario file {}: invalid JSON: Expecting value"),
    ("--modes", b"", "catalog {}: invalid JSON: Expecting value"),
    ("--topology", b"{", "topology {}: invalid JSON: Expecting property name"),
    *((flag, b"\xff\xfe", f"{what} {{}}: invalid JSON: 'utf-8' codec can't decode byte 0xff")
      for flag, what in (("--power-config", "power config"), ("--scenario", "scenario file"),
                         ("--modes", "catalog"), ("--topology", "topology"))),
]


def _cli_env():
    """The environment of a CLI subprocess: no inherited Python or locale
    settings, this ipowdm on the path, and no bytecode written into it, so
    that running the tests leaves the source tree as it was."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "LC_", "LANG"))}
    env["PYTHONPATH"] = str(Path(ipowdm.__file__).parents[1])
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def test_cli_subprocesses_write_no_bytecode():
    done = subprocess.run([sys.executable, "-c", "import sys; print(sys.dont_write_bytecode)"],
                          env=_cli_env(), capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (0, "True\n", "")


@pytest.fixture()
def toy_path(tmp_path):
    path = tmp_path / "toy.json"
    path.write_text(TOY.to_json())
    return str(path)


class TestRunner:
    def test_row_matches_state(self):
        row, state = run_single(TOY, "TrIP", TS1, 0)
        cost = network_cost(state)
        _, total = network_power(state)
        assert row.module_cost == cost.module_cost
        assert row.router_ports == cost.router_ports
        assert row.power_total == pytest.approx(
            total.zr_zrplus + total.ip_router + total.optical
        )
        assert row.power_total == pytest.approx(
            row.power_zr + row.power_ip + row.power_optical
        )
        assert row.blocked == 0

    def test_strict_mode_raises_on_blocking(self):
        cramped = mk_topo("tight", [("a", "b", 100), ("b", "c", 100)], channels=1)
        blocking_seed = next(
            s
            for s in range(50)
            if any(
                d.rate_gbps > 400
                for d in generate_traffic(cramped, TS1, s).demands
            )
        )
        with pytest.raises(BlockingError):
            run_single(cramped, "TrIP", TS1, blocking_seed)
        row, _ = run_single(cramped, "TrIP", TS1, blocking_seed, strict=False)
        assert row.blocked > 0

    def test_grid_ordering_and_size(self):
        cfg = ExperimentConfig(topologies=[TOY], scenarios=[TS1], seeds=[0, 1])
        rows = run_experiment(cfg)
        assert len(rows) == 4 * 1 * 2
        keys = [(r.arch, r.seed) for r in rows]
        assert keys == [(a, s) for a in cfg.archs for s in (0, 1)]


class TestReporting:
    def test_csv_round_trip(self):
        rows = run_experiment(
            ExperimentConfig(topologies=[TOY], scenarios=[TS1], seeds=[0])
        )
        back = rows_from_csv(rows_to_csv(rows))
        assert len(back) == len(rows)
        for a, b in zip(rows, back):
            for field in dataclasses.fields(a):
                va, vb = getattr(a, field.name), getattr(b, field.name)
                if isinstance(va, float):
                    # floats survive at the 4-decimal CSV precision
                    assert vb == pytest.approx(va, abs=5e-5)
                else:
                    assert vb == va
        # a comma in a name is quoted, not read back as a column break
        odd = dataclasses.replace(back[0], topology="net, v2")
        assert rows_from_csv(rows_to_csv([odd])) == [odd]

    def test_csv_header_checked(self):
        with pytest.raises(ValueError, match="unexpected CSV header"):
            rows_from_csv("nope,nope\n1,2\n")
        with pytest.raises(ValueError, match="row 1 has 2 fields"):
            rows_from_csv(",".join(CSV_COLUMNS) + "\n1,2\n")
        # a run repeated, whatever its values, would count twice in its means
        rows = [["j14", "TrIP", "TS1", seed] + [value] * (len(CSV_COLUMNS) - 4)
                for seed, value in (("0", "1"), ("1", "1"), ("0", "2"))]
        text = "\n".join(",".join(r) for r in (CSV_COLUMNS, *rows)) + "\n"
        with pytest.raises(ValueError, match="^CSV rows 1 and 3 both hold run j14/TrIP/TS1 seed 0$"):
            rows_from_csv(text)

    @pytest.mark.parametrize("column, value, kind", [
        ("zr_count", "abc", "int"), ("seed", "1.5", "int"), ("power_total", "x", "float"),
        # a mean over such rows would be nan or inf, or a saving past 100%
        ("power_total", "nan", "finite non-negative float"),
        ("power_zr", "inf", "finite non-negative float"),
        ("module_cost", "-0.5", "finite non-negative float"),
        ("blocked", "-1", "finite non-negative int")])
    def test_csv_bad_value_names_row_and_column(self, column, value, kind):
        good = ["j14", "TrIP", "TS1", "0"] + ["1"] * (len(CSV_COLUMNS) - 4)
        bad = [value if c == column else v for c, v in zip(CSV_COLUMNS, good)]
        text = "\n".join(",".join(r) for r in (CSV_COLUMNS, good, bad)) + "\n"
        with pytest.raises(ValueError) as exc:
            rows_from_csv(text)
        assert str(exc.value) == f"CSV row 2 column {column!r}: expected {kind}, got {value!r}"

    def test_csv_seed_may_be_negative(self):
        # `--seed -1` is a valid run, so its rows read back
        row = ["j14", "TrIP", "TS1", "-1"] + ["0"] * (len(CSV_COLUMNS) - 4)
        (back,) = rows_from_csv("\n".join(",".join(r) for r in (CSV_COLUMNS, row)) + "\n")
        assert back.seed == -1 and back.power_total == 0.0

    def test_average_rows_means(self):
        rows = run_experiment(
            ExperimentConfig(
                topologies=[TOY], archs=["TrIP"], scenarios=[TS1], seeds=[0, 1]
            )
        )
        (entry,) = average_rows(rows)
        assert entry["runs"] == 2
        assert entry["power_total"] == pytest.approx(
            (rows[0].power_total + rows[1].power_total) / 2
        )
        assert set(entry) == {"topology", "arch", "scenario", "runs", *CSV_COLUMNS[4:]}

    def test_average_rows_sums_left_to_right(self):
        # ten 0.1s add up to 0.9999999999999999 left to right; sum() of
        # floats compensates from Python 3.12 on and gives 1.0, which made
        # averages.json depend on the Python version
        row = dataclasses.replace(RunResult("t", "TrIP", "TS1", 0, *[0] * 10), power_total=0.1)
        (entry,) = average_rows([row] * 10)
        assert entry["power_total"] == 0.9999999999999999 / 10

    def test_compare_savings(self):
        rows = run_experiment(
            ExperimentConfig(topologies=[TOY], scenarios=[TS1], seeds=[0])
        )
        averages = average_rows(rows)
        table = compare(averages, "OpIP")
        by_arch = {e["arch"]: e for e in table}
        assert by_arch["OpIP"]["saving_power_total_pct"] == 0.0
        opip = next(e for e in averages if e["arch"] == "OpIP")
        trip = next(e for e in averages if e["arch"] == "TrIP")
        expected = 100.0 * (opip["power_total"] - trip["power_total"]) / opip["power_total"]
        assert by_arch["TrIP"]["saving_power_total_pct"] == pytest.approx(expected)
        with pytest.raises(ValueError, match="architectures present: none"):
            compare([], "OpIP")


class TestCli:
    def test_builtin_topologies_load(self):
        assert load_named_topology("j14").name == "j14"
        assert load_named_topology("G17").name == "g17"
        with pytest.raises((TopologyError, OSError)):
            load_named_topology("nope")

    def test_gen_traffic_deterministic(self, toy_path, capsys):
        main(["gen-traffic", "--topology", toy_path, "--scenario", "TS1", "--seed", "3"])
        first = capsys.readouterr().out
        main(["gen-traffic", "--topology", toy_path, "--scenario", "TS1", "--seed", "3"])
        assert capsys.readouterr().out == first
        assert first == generate_traffic(TOY, TS1, 3).to_csv()

    def test_plan_writes_json(self, toy_path, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(
            ["plan", "--topology", toy_path, "--arch", "TrZR", "--out", str(out)]
        )
        assert rc == 0
        (plan_file,) = out.glob("plan_*.json")
        doc = json.loads(plan_file.read_text())
        assert "summary" in doc and doc["summary"]["blocked"] == 0
        assert doc["summary"]["router_ports"] >= 2

    def test_power_csv_totals(self, toy_path, capsys):
        main(["power", "--topology", toy_path, "--arch", "OpIP"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "node,power_zr,power_ip,power_optical,power_total"
        *node_lines, total_line = lines[1:]
        cols = [line.split(",") for line in node_lines]
        total = total_line.split(",")
        assert total[0] == "TOTAL"
        for i in range(1, 5):
            assert float(total[i]) == pytest.approx(sum(float(c[i]) for c in cols))

    def test_power_csv_quotes_node_names(self, tmp_path, capsys):
        path = tmp_path / "comma.json"
        path.write_text(mk_topo("comma", [("Frankfurt, Main", "b", 100), ("b", "c", 200),
                                          ("Frankfurt, Main", "c", 400)]).to_json())
        assert main(["power", "--topology", str(path), "--arch", "TrIP"]) == 0
        header, *records = csv.reader(io.StringIO(capsys.readouterr().out))
        assert header == ["node", "power_zr", "power_ip", "power_optical", "power_total"]
        assert [r[0] for r in records] == ["Frankfurt, Main", "b", "c", "TOTAL"]
        assert all(len(r) == len(header) for r in records)
        *nodes, total = records
        for i in range(1, 5):
            assert float(total[i]) == pytest.approx(sum(float(r[i]) for r in nodes))

    def test_non_ascii_names_give_the_same_bytes_under_the_ascii_locale(self, tmp_path):
        # inputs are read and outputs written as UTF-8 whatever the locale,
        # so a run under the ASCII locale (no coercion, no UTF-8 mode) gives
        # the bytes of a run under C.UTF-8
        topo = mk_topo("netz-süd", [("münchen", "köln", 100), ("köln", "nürnberg", 200),
                                    ("münchen", "nürnberg", 400)])
        path = tmp_path / "netz.json"
        path.write_bytes(json.dumps(topo.to_dict(), ensure_ascii=False).encode())
        env = {**_cli_env(), "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}

        def run(locale, *args):
            done = subprocess.run([sys.executable, "-X", "utf8=0", "-m", "ipowdm.cli", *args],
                                  env={**env, "LC_ALL": locale}, capture_output=True)
            assert (done.returncode, done.stderr) == (0, b"")
            return done.stdout

        outputs = {}
        for locale in ("C.UTF-8", "C"):
            out = tmp_path / locale
            run(locale, "experiment", "--topology", str(path), "--runs", "1", "--out", str(out))
            outputs[locale] = (run(locale, "power", "--topology", str(path), "--arch", "TrIP"),
                               (out / "rows.csv").read_bytes(),
                               (out / "averages.csv").read_bytes())
        assert outputs["C"] == outputs["C.UTF-8"]
        power, rows, _ = outputs["C"]
        assert "münchen".encode() in power and "netz-süd".encode() in rows

    @pytest.mark.parametrize("name", ["/../../escaped", "nul\0byte"])
    def test_plan_out_refuses_a_topology_name_that_is_not_one_file_name(
            self, tmp_path, capsys, name):
        # plan --out names its file after the topology: a name holding a
        # separator would write outside DIR, so it is refused before DIR is made
        path = tmp_path / "topo.json"
        path.write_text(dataclasses.replace(TOY, name=name).to_json())
        rc = main(["plan", "--topology", str(path), "--arch", "TrIP",
                   "--out", str(tmp_path / "po" / "deep")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"ipowdm: error: plan file name for topology {name!r} and scenario 'TS1' "
            "is not one file name this file system can encode\n")
        assert [p.name for p in tmp_path.iterdir()] == ["topo.json"]

    def test_plan_out_refuses_a_topology_name_the_ascii_locale_cannot_encode(self, tmp_path):
        # under the ASCII locale (no coercion, no UTF-8 mode) the file system
        # encoding cannot hold "netz-süd": one error line, and no DIR
        path = tmp_path / "netz.json"
        path.write_bytes(json.dumps(dataclasses.replace(TOY, name="netz-süd").to_dict(),
                                    ensure_ascii=False).encode())
        env = {**_cli_env(), "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
        done = subprocess.run([sys.executable, "-X", "utf8=0", "-m", "ipowdm.cli", "plan",
                               "--topology", str(path), "--arch", "TrIP",
                               "--out", str(tmp_path / "out")], env=env, capture_output=True)
        assert done.returncode == 2
        # stderr escapes what the ASCII locale cannot print
        assert done.stderr == (b"ipowdm: error: plan file name for topology 'netz-s\\xfcd' "
                               b"and scenario 'TS1' is not one file name this file system "
                               b"can encode\n")
        assert [p.name for p in tmp_path.iterdir()] == ["netz.json"]

    def test_experiment_outputs_and_reproducibility(self, toy_path, tmp_path, capsys):
        argv = [
            "experiment", "--topology", toy_path, "--scenario", "TS1",
            "--runs", "2",
        ]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(argv + ["--out", str(out_a)]) == 0
        assert main(argv + ["--out", str(out_b)]) == 0
        capsys.readouterr()
        for name in ("rows.csv", "averages.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        rows = rows_from_csv((out_a / "rows.csv").read_text())
        assert len(rows) == 4 * 2
        assert {r.arch for r in rows} == {"OpIP", "TrIP", "TrZR", "TrIPandZR"}

    @pytest.mark.parametrize("runs", ["0", "-1"])
    def test_experiment_runs_below_one_is_one_line_error(self, toy_path, tmp_path, capsys,
                                                         runs):
        out = tmp_path / "out"
        rc = main(["experiment", "--topology", toy_path, "--runs", runs, "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"ipowdm: error: runs must be >= 1, got {runs}\n"
        assert not out.exists()

    def test_missing_modes_file_is_one_line_error(self, toy_path, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        rc = main(["plan", "--topology", toy_path, "--arch", "TrIP", "--modes", str(missing)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("ipowdm: error: ") and str(missing) in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("flag, content, message", MALFORMED_INPUTS,
                             ids=[f"{flag}-{message}" for flag, _, message in MALFORMED_INPUTS])
    def test_malformed_json_input_is_one_line_error_naming_the_file(
            self, toy_path, tmp_path, capsys, flag, content, message):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        rc = main(["plan", "--topology", toy_path, "--arch", "TrIP", flag, str(path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("ipowdm: error: " + message.format(path))
        assert len(err.splitlines()) == 1

    def test_scenario_name_null_is_one_line_error(self, toy_path, tmp_path, capsys):
        path = tmp_path / "null.json"
        path.write_text(json.dumps({"name": None, "weights": {"100": 1.0}}))
        rc = main(["plan", "--topology", toy_path, "--arch", "TrIP", "--scenario", str(path)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "ipowdm: error: scenario field 'name' must be a string, got None\n")

    def test_malformed_topology_is_one_line_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "t", "nodes": ["a", "b"],
                                    "links": [{"a": "a", "b": "b", "length_km": None}]}))
        rc = main(["plan", "--topology", str(path), "--arch", "TrIP"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "ipowdm: error: link #0 field 'length_km' must be a number, got None\n")

    # a 401-digit count, whose dimensioning once ended in an OverflowError
    # traceback, and a power entry whose total overflows to inf
    @pytest.mark.parametrize("command, file, doc, message", [
        ("power", "--topology", "big-grid",
         "channel_count must be <= 2**53, got 999"),
        ("power", "--power-config", {"dimensioning": {"iroadm_slots": int("9" * 401)}},
         "dimensioning entry iroadm_slots must be <= 2**53, got 999"),
        ("power", "--power-config", {"power": {"zr": 1e308}},
         "power entry zr = 1e+308 overflows the power total of j14/TrIP to inf\n"),
        ("experiment", "--power-config", {"power": {"zr": 1e308}},
         "power entry zr = 1e+308 overflows the power total of j14/TrIP to inf\n"),
    ], ids=["channel-count", "iroadm-slots", "power-inf", "experiment-power-inf"])
    def test_oversized_input_is_one_line_error(self, tmp_path, capsys, command, file, doc,
                                               message):
        topology = "j14"
        if doc == "big-grid":
            doc = load_named_topology("j14").to_dict()
            doc["grid"]["channel_count"] = int("9" * 401)
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        if file == "--topology":
            topology = str(path)
        argv = [command, "--topology", topology, "--arch", "TrIP", "--out", str(tmp_path / "o")]
        if file != "--topology":
            argv += [file, str(path)]
        if command == "experiment":
            argv += ["--scenario", "TS1", "--runs", "1"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("ipowdm: error: " + message)
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "o").exists()

    def test_strict_blocking_is_one_line_error(self, tmp_path, capsys):
        path = tmp_path / "tight.json"
        path.write_text(mk_topo("tight", [("a", "b", 100), ("b", "c", 100)], channels=1).to_json())
        rc = main(["plan", "--topology", str(path), "--arch", "TrIP", "--seed", "0", "--strict"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("ipowdm: error: ")
        assert "blocked demands on tight/TrIP/TS1/seed 0" in err
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err

    def test_gen_traffic_rejects_planning_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen-traffic", "--topology", "j14", "--k", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --k 3" in capsys.readouterr().err

    def test_compare_subcommand(self, toy_path, tmp_path, capsys):
        out = tmp_path / "runs"
        main(
            ["experiment", "--topology", toy_path, "--scenario", "TS1",
             "--runs", "1", "--out", str(out)]
        )
        capsys.readouterr()
        rc = main(["compare", "--in", str(out / "rows.csv"), "--baseline", "OpIP"])
        assert rc == 0
        text = capsys.readouterr().out
        header = text.splitlines()[0].split(",")
        assert "saving_power_total_pct" in header
        assert "baseline" in header

    def test_compare_into_a_closed_pipe_exits_quietly(self, toy_path, tmp_path, monkeypatch,
                                                       capsys):
        # a reader that left (``ipowdm compare ... | head -c 0``): no error
        # line, exit code 1, and stdout's descriptor now on devnull, so the
        # interpreter's exit flush writes nowhere
        out = tmp_path / "runs"
        main(["experiment", "--topology", toy_path, "--scenario", "TS1",
              "--runs", "1", "--out", str(out)])
        capsys.readouterr()
        sink = tmp_path / "stdout"
        fd = os.open(sink, os.O_WRONLY | os.O_CREAT)

        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def fileno(self):
                return fd

        monkeypatch.setattr("sys.stdout", ClosedPipe())
        try:
            rc = main(["compare", "--in", str(out / "rows.csv"), "--baseline", "OpIP"])
            os.write(fd, b"flushed at exit")
        finally:
            os.close(fd)
        assert rc == 1
        assert capsys.readouterr().err == ""
        assert sink.read_bytes() == b""

    def test_small_report_into_a_closed_pipe_exits_quietly(self, toy_path):
        # a report smaller than stdout's buffer meets the closed pipe when it
        # is flushed: that flush happens in main, not at interpreter exit
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run([sys.executable, "-m", "ipowdm.cli", "power", "--topology",
                                   toy_path, "--arch", "TrIP"],
                                  env=_cli_env(), stdout=write_end, stderr=subprocess.PIPE)
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (1, b"")

    def test_compare_non_utf8_rows_is_one_line_error_naming_the_file(self, tmp_path, capsys):
        path = tmp_path / "rows.csv"
        path.write_bytes(b"\xff\xfe")
        assert main(["compare", "--in", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"ipowdm: error: rows CSV {path}: not UTF-8: ")
        assert len(err.splitlines()) == 1

    def test_compare_absent_baseline_is_one_line_error(self, toy_path, tmp_path, capsys):
        out = tmp_path / "runs"
        main(["experiment", "--topology", toy_path, "--scenario", "TS1",
              "--arch", "OpIP", "--arch", "TrIP", "--runs", "1", "--out", str(out)])
        capsys.readouterr()
        rc = main(["compare", "--in", str(out / "rows.csv"), "--baseline", "TrZR"])
        assert rc == 2
        assert capsys.readouterr() == ("", (
            "ipowdm: error: baseline TrZR has no rows; architectures present: OpIP, TrIP\n"))

    def test_compare_partial_baseline_is_one_line_error(self, tmp_path, capsys):
        # every architecture on toy, toy2 without the baseline: no cell is
        # dropped without a word
        toy2 = dataclasses.replace(TOY, name="toy2")
        rows = run_experiment(ExperimentConfig(topologies=[TOY, toy2], scenarios=[TS1],
                                               seeds=[0]))
        rows = [r for r in rows if (r.topology, r.arch) != ("toy2", "TrIP")]
        with pytest.raises(ValueError, match="^baseline TrIP has no rows for toy2/TS1$"):
            compare(average_rows(rows), "TrIP")
        path = tmp_path / "rows.csv"
        path.write_text(rows_to_csv(rows))
        rc = main(["compare", "--in", str(path), "--baseline", "TrIP"])
        assert rc == 2
        assert capsys.readouterr() == (
            "", "ipowdm: error: baseline TrIP has no rows for toy2/TS1\n")

    def test_compare_bad_value_is_one_line_error(self, toy_path, tmp_path, capsys):
        out = tmp_path / "runs"
        main(["experiment", "--topology", toy_path, "--scenario", "TS1",
              "--runs", "1", "--out", str(out)])
        capsys.readouterr()
        rows = (out / "rows.csv").read_text().splitlines()
        fields = rows[3].split(",")
        fields[CSV_COLUMNS.index("zr_count")] = "abc"
        rows[3] = ",".join(fields)
        (out / "rows.csv").write_text("\n".join(rows) + "\n")
        rc = main(["compare", "--in", str(out / "rows.csv"), "--baseline", "OpIP"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "ipowdm: error: CSV row 3 column 'zr_count': expected int, got 'abc'\n")
