import contextlib
import csv
import dataclasses
import io
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carriersim.abm import AbmConfig, simulate_day
from carriersim.datamodel import (
    _CHUNK,
    TRAFFIC_KPIS,
    DatasetPaths,
    HourlyRows,
    MeasurementReports,
    TrafficModel,
    apply_overrides,
    draw_inputs,
    fit_traffic_model,
    parse_datasets,
    parse_energy,
    parse_engineering,
    parse_kpis,
    parse_mrs,
    write_datasets,
    write_energy,
    write_kpis,
    write_mrs,
)
from carriersim.errors import (
    BadReferenceError,
    ConfigError,
    MalformedRowError,
    MissingColumnError,
    NoSamplesError,
)

from carriersim.harness import ScenarioSpec, generate_scenario

from conftest import (assert_same_reports, assert_same_rows, make_energy,
                      make_handover, make_kpi, make_network, make_reports,
                      make_traffic, report_pairs, stack)


def full_day_kpis(cell_ids, days=3):
    rows = []
    for cell in cell_ids:
        for day in range(1, days + 1):
            for hour in range(1, 25):
                rows.append(make_kpi(cell_id=cell, day=day, hour=hour,
                                     rrc_ues=5.0 + hour + day,
                                     dl_prbs=20.0 + hour,
                                     ul_prbs=8.0 + 0.5 * hour))
    return stack(rows)


def write_fixture(tmp_path, cfg=None, kpis=None, energies=None, mrs=None):
    cfg = cfg or make_network(n_capacity=1, n_coverage=1)
    if kpis is None:
        kpis = full_day_kpis([c.id for c in cfg.cells])
    if energies is None:
        energies = stack(make_energy(r.id, 1, h, 500.0 + h)
                         for r in cfg.radio_units for h in range(1, 25))
    if mrs is None:
        # pairs in cell-id order, the order write_mrs writes
        mrs = make_reports([("2024-03-04T13:00:05", "u1", "c1",
                             {"b1": -95.0, "c1": -90.0})])
    return write_datasets(tmp_path, cfg, kpis, energies, mrs), (cfg, kpis, energies, mrs)


class TestParsing:
    def test_round_trip_two_cell_fixture(self, tmp_path):
        paths, (cfg, kpis, energies, mrs) = write_fixture(tmp_path)
        parsed_cfg, parsed_kpis, parsed_energy, parsed_mrs = parse_datasets(tmp_path)
        assert len(parsed_cfg.cells) == 2
        assert parsed_cfg == cfg
        assert_same_rows(parsed_kpis, kpis)
        assert_same_rows(parsed_energy, energies)
        assert_same_reports(parsed_mrs, mrs)

    def test_parse_serialize_parse_identity(self, tmp_path):
        write_fixture(tmp_path / "a")
        first = parse_datasets(tmp_path / "a")
        write_datasets(tmp_path / "b", *first)
        second = parse_datasets(tmp_path / "b")
        assert first[0] == second[0]
        assert_same_rows(first[1], second[1])
        assert_same_rows(first[2], second[2])
        assert_same_reports(first[3], second[3])
        for name in ("engineering.csv", "kpi.csv", "energy.csv", "mr.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes()

    def test_pairing_to_unknown_cell_is_bad_reference(self, tmp_path):
        cfg = make_network()
        paths, _ = write_fixture(tmp_path, cfg=cfg)
        text = paths.engineering.read_text()
        paths.engineering.write_text(text.replace(",b1,", ",zz,"))
        with pytest.raises(BadReferenceError):
            parse_datasets(tmp_path)

    def test_numpy_float_fields_round_trip(self, tmp_path):
        f = np.float64
        kpis = make_kpi(rrc_ues=f(5.0), dl_prbs=f(20.5), ul_prbs=f(0.1),
                        dl_bits=f(1e8), dl_bits_lastslot=f(2e7),
                        dl_active_time_s=f(2.0),
                        rate_bins=[f(10.0)] * 15, cs_minutes=f(0.0))
        energies = make_energy("ru1", 1, 1, f(512.25))
        mrs = make_reports([("2024-03-04T13:00:05", "u1", "c1",
                             {"b1": np.float32(-95.5), "c1": f(-90.1)})])
        write_kpis(tmp_path / "kpi.csv", kpis)
        write_energy(tmp_path / "energy.csv", energies)
        write_mrs(tmp_path / "mr.csv", mrs)
        assert_same_rows(parse_kpis(tmp_path / "kpi.csv"), kpis)
        assert_same_rows(parse_energy(tmp_path / "energy.csv"), energies)
        assert_same_reports(parse_mrs(tmp_path / "mr.csv"), mrs)
        # written as the repr of the equal Python float
        assert ",20.5,0.1," in (tmp_path / "kpi.csv").read_text()
        assert "b1:-95.5|c1:-90.1" in (tmp_path / "mr.csv").read_text()

    def test_kpi_bits_invariant_violation_is_malformed_row(self, tmp_path):
        bad = make_kpi(dl_bits=1.0, dl_bits_lastslot=5.0)
        path = tmp_path / "kpi.csv"
        write_kpis(path, stack([make_kpi(), bad]))
        with pytest.raises(MalformedRowError) as err:
            parse_kpis(path)
        assert err.value.row_index == 2

    def test_missing_column(self, tmp_path):
        paths, _ = write_fixture(tmp_path)
        lines = paths.kpi.read_text().splitlines()
        header = lines[0].replace("rrc_ues,", "")
        rows = [line.split(",", 4)[0] + "," + line.split(",", 4)[4]
                for line in lines[1:]]
        paths.kpi.write_text("\n".join([header] + rows))
        with pytest.raises(MissingColumnError):
            parse_kpis(paths.kpi)

    def test_unknown_columns_ignored(self, tmp_path):
        paths, _ = write_fixture(tmp_path)
        lines = paths.mr.read_text().splitlines()
        patched = [lines[0] + ",vendor_extra"] + [l + ",1" for l in lines[1:]]
        paths.mr.write_text("\n".join(patched))
        parsed = parse_datasets(tmp_path)
        assert parsed[3].ue_ids == ["u1"]

    def test_mr_without_serving_rsrp_rejected(self, tmp_path):
        paths, _ = write_fixture(tmp_path)
        paths.mr.write_text(MR_HEADER + "2024-03-04T13:00:05,u1,c1,b1:-95.0\n")
        with pytest.raises(MalformedRowError):
            parse_datasets(tmp_path)

    @pytest.mark.parametrize("text", ["nan", "inf"])
    def test_non_finite_kpi_counter_rejected(self, tmp_path, text):
        path = tmp_path / "kpi.csv"
        write_kpis(path, stack([make_kpi(), make_kpi(hour=2, rrc_ues=7.25)]))
        path.write_text(path.read_text().replace("7.25", text))
        with pytest.raises(MalformedRowError) as err:
            parse_kpis(path)
        assert err.value.row_index == 2
        assert "kpi.csv" in str(err.value)

    @pytest.mark.parametrize("text", ["nan", "inf"])
    def test_non_finite_energy_rejected(self, tmp_path, text):
        paths, _ = write_fixture(tmp_path)
        lines = paths.energy.read_text().splitlines()
        lines[3] = lines[3].rsplit(",", 1)[0] + "," + text
        paths.energy.write_text("\n".join(lines))
        with pytest.raises(MalformedRowError) as err:
            parse_energy(paths.energy)
        assert err.value.row_index == 3

    @pytest.mark.parametrize("column", ["frequency_mhz", "entry_dl_prb",
                                        "a4_hysteresis_db",
                                        "a4_cell_offsets_db"])
    def test_non_finite_engineering_value_rejected(self, tmp_path, column):
        paths, _ = write_fixture(tmp_path)
        lines = paths.engineering.read_text().splitlines()
        header = lines[0].split(",")
        row = lines[2].split(",")      # the capacity cell
        assert row[header.index("role")] == "capacity"
        row[header.index(column)] = ("b1:nan" if column.endswith("offsets_db")
                                     else "nan")
        lines[2] = ",".join(row)
        paths.engineering.write_text("\n".join(lines))
        with pytest.raises(MalformedRowError) as err:
            parse_engineering(paths.engineering)
        assert err.value.row_index == 2

    @pytest.mark.parametrize("column", ["a4_freq_offsets_db",
                                        "a4_cell_offsets_db"])
    @pytest.mark.parametrize("text, message", [
        ("b1:1.0|b1:2.0", "repeated cell id in pair field 'b1:2.0'"),
        ("b1:1.0| b1 :2.0", "repeated cell id in pair field ' b1 :2.0'"),
        ("b1:1.0|:2.0", "empty cell id in pair field ':2.0'"),
    ])
    def test_repeated_or_empty_a4_offset_cell_rejected(self, tmp_path, column,
                                                       text, message):
        paths, _ = write_fixture(tmp_path)
        lines = paths.engineering.read_text().splitlines()
        header, row = lines[0].split(","), lines[2].split(",")
        row[header.index(column)] = text
        lines[2] = ",".join(row)
        paths.engineering.write_text("\n".join(lines))
        with pytest.raises(MalformedRowError) as err:
            parse_engineering(paths.engineering)
        assert (err.value.row_index, err.value.message) == (2, message)

    @pytest.mark.parametrize("row", [1, 2])   # the coverage and capacity cell
    @pytest.mark.parametrize("column, extra", [("radio_type", ",64T"),
                                               ("leave_ul_prb", ",1")])
    def test_engineering_row_longer_than_the_header_rejected(
            self, tmp_path, row, column, extra):
        paths, _ = write_fixture(tmp_path)
        lines = paths.engineering.read_text().splitlines()
        header, fields = lines[0].split(","), lines[row].split(",")
        fields[header.index(column)] += extra   # an unquoted comma
        lines[row] = ",".join(fields)
        paths.engineering.write_text("\n".join(lines))
        with pytest.raises(MalformedRowError) as err:
            parse_engineering(paths.engineering)
        assert (err.value.row_index, err.value.message) \
            == (row, "23 fields, the header has 22")

    @pytest.mark.parametrize("stamp", ["2024-03-04T24:00:05",
                                       "2024-03-04 13:00:05",
                                       "2024-03-04T1:00:05", "13:00",
                                       "2024-13-04T13:00:05", ""])
    def test_malformed_mr_timestamp_rejected(self, tmp_path, stamp):
        path = tmp_path / "mr.csv"
        path.write_text(MR_HEADER + "2024-03-04T23:59:59,u0,c1,c1:-90.0\n"
                        + f"{stamp},u1,c1,c1:-90.0\n")
        with pytest.raises(MalformedRowError) as err:
            parse_mrs(path)
        assert err.value.row_index == 2

    def test_dataset_paths_in_dir(self, tmp_path):
        paths = DatasetPaths.in_dir(tmp_path)
        assert paths.kpi.name == "kpi.csv"


MR_HEADER = "timestamp,ue_id,serving_cell,rsrp_dbm\n"
MR_GOOD = ("2024-03-04T13:00:05,u0,c1,c1:-90.0|b1:-95.0\n"
           "2024-03-04T13:00:05,u1,c1,c1:-91.0\n")


class TestColumns:
    """The KPI rows and reports as arrays, written and read back."""

    @pytest.mark.parametrize("spec, seed", [
        (ScenarioSpec(6, 3, 2), 11),
        (ScenarioSpec(3, 2, 2, peak_capacity_ues=1.0, traffic_noise=1.5), 11),
        (ScenarioSpec(375, 282, 1, reports_per_cell_hour=4), 404),
    ], ids=["golden", "sparse", "criterion-11"])
    def test_parse_then_write_reproduces_the_files(self, tmp_path, spec, seed):
        data = tmp_path / "data"
        generate_scenario(spec, data, seed)
        write_mrs(tmp_path / "mr.csv", parse_mrs(data / "mr.csv"))
        assert (tmp_path / "mr.csv").read_bytes() \
            == (data / "mr.csv").read_bytes()
        for name, parse, write in (
                ("kpi.csv", parse_kpis, write_kpis),
                ("kpi_biased.csv", parse_kpis, write_kpis),
                ("energy.csv", parse_energy, write_energy),
                ("energy_biased.csv", parse_energy, write_energy)):
            write(tmp_path / name, parse(data / name))
            assert (tmp_path / name).read_bytes() == (data / name).read_bytes()

    def test_reports_keep_their_pair_order_and_write_it_by_cell_id(
            self, tmp_path):
        rows = [("2024-03-04T13:00:05", "u1", "c1",
                 {"c1": -90.0, "b2": -95.5, "a1": -0.0}),
                ("2024-03-04T00:59:59", "u2", "b2", {"b2": -70.0}),
                ("2024-03-05T23:00:00", "u3", "zz", {"b2": -101.25, "zz": -80.0})]
        reports = make_reports(rows)
        assert len(reports) == 3
        assert reports.cells == ("a1", "b2", "c1", "zz")
        assert reports.timestamps == [r[0] for r in rows]
        assert reports.ue_ids == ["u1", "u2", "u3"]
        assert [reports.cells[k] for k in reports.serving.tolist()] \
            == ["c1", "b2", "zz"]
        assert reports.offsets.tolist() == [0, 3, 4, 6]
        pairs = report_pairs(reports)
        assert [list(p.items()) for p in pairs] \
            == [list(r[3].items()) for r in rows]
        assert [math.copysign(1.0, v) for v in pairs[0].values()] \
            == [-1.0, -1.0, -1.0]
        assert reports.hour.tolist() == [14, 1, 24]
        write_mrs(tmp_path / "mr.csv", reports)
        assert (tmp_path / "mr.csv").read_text().splitlines()[1:] == [
            "2024-03-04T13:00:05,u1,c1,a1:-0.0|b2:-95.5|c1:-90.0",
            "2024-03-04T00:59:59,u2,b2,b2:-70.0",
            "2024-03-05T23:00:00,u3,zz,b2:-101.25|zz:-80.0"]
        parsed = parse_mrs(tmp_path / "mr.csv")
        assert [list(p) for p in report_pairs(parsed)] \
            == [["a1", "b2", "c1"], ["b2"], ["b2", "zz"]]

    def test_kpi_and_energy_rows_write_and_parse_back(self, tmp_path):
        kpis = stack([make_kpi(), make_kpi(hour=2, rrc_ues=7.25,
                                           cs_minutes=60.0)])
        assert len(kpis) == 2
        assert kpis.values.shape == (2, 25) and kpis.values.dtype == float
        assert kpis.column("cs_minutes").tolist() == [0.0, 60.0]
        later = kpis.select(kpis.hour > 1)
        assert later.ids == ["c1"] and later.day.tolist() == [1]
        assert later.column("rrc_ues").tolist() == [7.25]
        write_kpis(tmp_path / "kpi.csv", kpis)
        assert_same_rows(parse_kpis(tmp_path / "kpi.csv"), kpis)
        energies = stack([make_energy("ru-c1", 1, 1, 500.0),
                          make_energy("ru-b1", 2, 24, -0.0)])
        assert energies.values.shape == (2, 1)
        assert energies.column("energy_wh").tolist() == [500.0, -0.0]
        write_energy(tmp_path / "energy.csv", energies)
        assert (tmp_path / "energy.csv").read_text().splitlines() == [
            "radio_unit,day,hour,energy_wh", "ru-c1,1,1,500.0",
            "ru-b1,2,24,-0.0"]
        assert_same_rows(parse_energy(tmp_path / "energy.csv"), energies)

    # each message as the record-by-record parser gave it, the bad row at
    # row `at` after good ones (1,536 rows are read and checked at a time)
    @pytest.mark.parametrize("row, message, at", [
        ("2024-03-04T24:00:05,u2,c1,c1:-90.0",
         "timestamp '2024-03-04T24:00:05' is not YYYY-MM-DDTHH:MM:SS with "
         "hour 00-23", 3),
        ("2024-03-04T13:00:05,u2,c1,c1:-90.0|b1", "bad pair field 'b1'", 3),
        ("2024-03-04T13:00:05,u2,c1,c1:abc|b1:-95.0",
         "bad pair field 'c1:abc'", 3),
        ("2024-03-04T13:00:05,u2,c1,c1:-90.0|b1:inf",
         "bad pair field 'b1:inf'", 3),
        ("2024-03-04T13:00:05,u2,c1,b1:-95.0",
         "serving cell has no RSRP entry", 3),
        ("2024-03-04T13:00:05,u2,c1,", "serving cell has no RSRP entry", 3),
        # a repeated or empty cell id (the last value or a cell '' was kept)
        ("2024-03-04T13:00:05,u2,c1,c1:-90.0|b1:-95.0|b1:-80.0",
         "repeated cell id in pair field 'b1:-80.0'", 3),
        ("2024-03-04T13:00:05,u2,c1,c1:-90.0| b1 :-95.0|b1:-80.0",
         "repeated cell id in pair field 'b1:-80.0'", 3),
        ("2024-03-04T13:00:05,u2,c1,c1:-90.0|:-80.0",
         "empty cell id in pair field ':-80.0'", 3),
        ("2024-03-04T13:00:05,u2,c1,c1:-90.0|c1:-90.0|b1",
         "repeated cell id in pair field 'c1:-90.0'", 3),
        ("2024-03-04T13:00:05,u2,c1, :-80.0|c1:x",
         "empty cell id in pair field ':-80.0'", 3),
        # past a chunk boundary, and at its edges
        ("2024-03-04T13:00:05,u2,c1,c1:-90.0|b1",
         "bad pair field 'b1'", 1536),
        ("2024-03-04T13:00:05,u2,c1,b1:-95.0",
         "serving cell has no RSRP entry", 1537),
        ("2024-03-04T1:00:05,u2,c1,c1:-90.0",
         "timestamp '2024-03-04T1:00:05' is not YYYY-MM-DDTHH:MM:SS with "
         "hour 00-23", 1537),
        ("2024-03-04T13:00:05,u2,c1,c1:-90.0|b1:-95.0|c1:-80.0",
         "repeated cell id in pair field 'c1:-80.0'", 3100),
        ("2024-03-04T13:00:05,u2,c1", "3 fields, the header has 4", 3100),
        # a bad row before a short one read with it
        ("2024-03-04T13:00:05,u2,c1,b1:-95.0\n2024-03-04T13:00:05,u2,c1",
         "serving cell has no RSRP entry", 3100),
        # a row longer than the header: an unquoted comma between pairs
        ("2024-03-04T13:00:05,u2,c1,c1:-90.0,b1:-95.0",
         "5 fields, the header has 4", 3),
        ("2024-03-04T13:00:05,u2,c1,c1:-90.0|b1:-95.0,",
         "5 fields, the header has 4", 1537),
        ("2024-03-04T13:00:05,u2,c1,c1:-90.0,b1:-95.0",
         "5 fields, the header has 4", 3100),
        ("2024-03-04T13:00:05,u2,c1,b1:-95.0\n"
         "2024-03-04T13:00:05,u2,c1,c1:-90.0,b1:-95.0",
         "serving cell has no RSRP entry", 3100),
    ])
    def test_malformed_report_errors_name_file_row_and_message(
            self, tmp_path, row, message, at):
        path = tmp_path / "mr.csv"
        good = MR_GOOD.splitlines(keepends=True)
        path.write_text(MR_HEADER + "".join(good[k % 2] for k in range(at - 1))
                        + row + "\n" + MR_GOOD)
        with pytest.raises(MalformedRowError) as err:
            parse_mrs(path)
        assert (err.value.path, err.value.row_index, err.value.message) \
            == (str(path), at, message)
        assert str(err.value) == f"{path}, row {at}: {message}"

    @pytest.mark.parametrize("row", [
        "2024-03-04T13:00:05,u1, c1 ,c1:-90.0|b1:-95.0",
        "2024-03-04T13:00:05,u1,c1, c1 :-90.0|b1:-95.0",
    ], ids=["serving", "pair"])
    def test_serving_and_pair_cell_ids_are_stripped_alike(self, tmp_path,
                                                          row):
        path = tmp_path / "mr.csv"
        path.write_text(MR_HEADER + row + "\n")
        reports = parse_mrs(path)
        assert reports.cells == ("b1", "c1")
        assert [reports.cells[k] for k in reports.serving.tolist()] == ["c1"]
        assert [dict(p) for p in report_pairs(reports)] \
            == [{"c1": -90.0, "b1": -95.0}]

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_write_then_parse_round_trips(self, data):
        # distinct ids that sort otherwise than drawn, so write_mrs reorders
        ids = data.draw(st.permutations(["c10", "c9", "B", "b", "a_1", "zz"]))
        reports = []
        for i in range(data.draw(st.integers(0, 30))):
            cells = data.draw(st.lists(st.sampled_from(ids), min_size=1,
                                       max_size=5, unique=True))
            rsrp = data.draw(st.lists(
                st.sampled_from([0.0, -0.0]) | st.floats(-140.0, -40.0),
                min_size=len(cells), max_size=len(cells)))
            reports.append((f"2024-03-04T{data.draw(st.integers(0, 23)):02d}"
                            ":15:00", f"u{i}", data.draw(st.sampled_from(cells)),
                            dict(zip(cells, rsrp))))
        given_order = make_reports(reports)
        # written pairs are in cell-id order; so parsed back, then written
        # again, they are the same reports in the same bytes
        by_id = make_reports([(*r[:3], dict(sorted(r[3].items())))
                              for r in reports])
        with tempfile.TemporaryDirectory() as directory:
            first, second = Path(directory) / "1.csv", Path(directory) / "2.csv"
            write_mrs(first, given_order)
            parsed = parse_mrs(first)
            assert_same_reports(parsed, by_id)
            write_mrs(second, parsed)
            assert second.read_bytes() == first.read_bytes()
        assert [[v.hex() for v in p.values()] for p in report_pairs(parsed)] \
            == [[float(v).hex() for _, v in sorted(r[3].items())]
                for r in reports]


KPI_COLUMNS = (["cell_id", "day", "hour", "rrc_ues", "dl_prbs_used",
                "ul_prbs_used", "dl_bits", "dl_bits_lastslot",
                "dl_active_time_s", "ul_bits", "dl_total_time_s", "ul_time_s"]
               + [f"rate_bin_{g:02d}" for g in range(1, 16)] + ["cs_minutes"])
KPI_GOOD = dict(zip(KPI_COLUMNS, ["c1", "1", "1", "5.0", "20.0", "10.0",
                                  "100000000.0", "20000000.0", "2.0", "0.0",
                                  "0.0", "0.0"] + ["10.0"] * 15 + ["0.0"]))
ENERGY_COLUMNS = ["radio_unit", "day", "hour", "energy_wh"]
ENERGY_GOOD = dict(zip(ENERGY_COLUMNS, ["ru-c1", "1", "1", "500.0"]))


def hourly_text(columns, good, patches):
    """A header and one row per patch of the `good` row's fields, row k on
    day k unless its patch sets the day, so that no key repeats by chance."""
    return "\n".join([",".join(columns)] + [
        ",".join({**good, "day": str(k), **patch}[c] for c in columns)
        for k, patch in enumerate(patches, start=1)]) + "\n"


REPEAT = "repeats an earlier row's "


INT = "invalid literal for int() with base 10: "
FLOAT = "could not convert string to float: "
BITS = "dl_bits must be >= dl_bits_lastslot >= 0"
CS = "cs_minutes outside [0, 60]"


# texts csv.writer must quote (a comma, quote or line break) and non-ASCII
WRITER_TEXTS = st.text(st.sampled_from(list('ab1 ,"\r\n|:\u00e9\u20ac')),
                       max_size=5)
WRITER_FLOATS = st.sampled_from(
    [0.0, -0.0, 5e-324, 1e16, 3.0, 60.0, 0.1, math.nan, math.inf, -math.inf]
) | st.floats()
WRITER_INTS = st.sampled_from([0, 1, 24, 25, -1]) | st.integers(-2**63,
                                                               2**63 - 1)
# around and across the chunk boundaries of the writers
WRITER_ROWS = st.sampled_from([0, 1, 5, _CHUNK - 1, _CHUNK, _CHUNK + 1,
                               2 * _CHUNK + 7])
STAMPS = ["2024-03-04T13:00:05", "2024-12-31T23:59:59"]


def csv_writer_bytes(header, rows):
    """The bytes csv.writer writes for `header` and `rows`, UTF-8."""
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows(rows)
    return text.getvalue().encode("utf-8")


def draw_pools(data, parseable):
    """Pools of ids, floats and ints to build rows from; with `parseable`
    only floats in [0, 60] and ints in 1..24, which every parser accepts."""
    ids = data.draw(st.lists(WRITER_TEXTS, min_size=1, max_size=6))
    floats = data.draw(st.lists(WRITER_FLOATS, min_size=1, max_size=8))
    ints = data.draw(st.lists(WRITER_INTS, min_size=1, max_size=4))
    if parseable:
        floats = [v for v in floats if 0 <= v <= 60] or [0.0]
        ints = [v for v in ints if 1 <= v <= 24] or [1]
    return ids, np.array(floats), np.array(ints, dtype=np.int64)


class TestColumnWriter:
    """write_kpis, write_energy and write_mrs write the bytes csv.writer
    writes, on both sides of a chunk boundary, and parse back wherever the
    parsers accept what they wrote."""

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_hourly_files_match_csv_writer(self, data):
        parseable = data.draw(st.booleans())
        ids, floats, ints = draw_pools(data, parseable)
        n = data.draw(WRITER_ROWS)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        values = floats[rng.integers(len(floats), size=(n, 25))]
        # dl_bits >= dl_bits_lastslot where both are finite
        values[:, 3] = np.fmax(values[:, 3], values[:, 4])
        rows = [ids[k] for k in rng.integers(len(ids), size=n)]
        day, hour = ints[rng.integers(len(ints), size=(2, n))]
        if parseable:   # a day per row: no (id, day, hour) key repeats
            day = np.arange(1, n + 1)
        distinct = len(set(zip(rows, day.tolist(), hour.tolist()))) == n
        with tempfile.TemporaryDirectory() as directory:
            for name, columns, width, parse, write in (
                    ("kpi.csv", KPI_COLUMNS, 25, parse_kpis, write_kpis),
                    ("energy.csv", ENERGY_COLUMNS, 1, parse_energy,
                     write_energy)):
                path = Path(directory) / name
                table = HourlyRows(rows, day, hour, values[:, :width].copy())
                write(path, table)
                assert path.read_bytes() == csv_writer_bytes(columns, zip(
                    rows, day.tolist(), hour.tolist(),
                    *table.values.T.tolist()))
                v = table.values
                kpi_checks = width == 1 or ((v[:, 4] <= v[:, 3]).all()
                                            and (v[:, -1] <= 60).all())
                if (np.isfinite(v).all() and (v >= 0).all()
                        and ((hour >= 1) & (hour <= 24)).all() and kpi_checks
                        and distinct):
                    assert_same_rows(parse(path), table)
                else:
                    with pytest.raises(MalformedRowError):
                        parse(path)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_measurement_reports_match_csv_writer(self, data):
        parseable = data.draw(st.booleans())
        ids, floats, _ = draw_pools(data, False)
        stamps = data.draw(st.lists(st.sampled_from(STAMPS) | WRITER_TEXTS,
                                    min_size=1, max_size=3))
        if parseable:   # pair ids parse back, stamps match, RSRPs finite
            ids = [c for c in ids if c and c == c.strip()
                   and not set(c) & {"|", ":"}] or ["c1"]
            stamps = [t for t in stamps if t in STAMPS] or STAMPS
            floats = floats[np.isfinite(floats)] if np.isfinite(
                floats).any() else np.array([-90.0])
        cells = tuple(sorted(set(ids)))
        n = data.draw(WRITER_ROWS)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        # each report's neighbours, distinct, its serving cell among them
        # if parseable
        picks = [rng.permutation(len(cells))[:rng.integers(
            int(parseable), len(cells) + 1)] for _ in range(n)]
        serving = np.array([p[rng.integers(len(p))] if parseable
                            else rng.integers(len(cells)) for p in picks],
                           dtype=np.int64)
        counts = [len(p) for p in picks]
        reports = MeasurementReports(
            cells, [stamps[k] for k in rng.integers(len(stamps), size=n)],
            [ids[k] for k in rng.integers(len(ids), size=n)], serving,
            np.cumsum([0] + counts),
            np.concatenate([np.empty(0, dtype=np.int64)] + picks),
            floats[rng.integers(len(floats), size=sum(counts))])
        pairs = report_pairs(reports)
        expected = csv_writer_bytes(
            ["timestamp", "ue_id", "serving_cell", "rsrp_dbm"],
            [(stamp, ue, cells[k], "|".join(
                f"{c}:{v!r}" for c, v in sorted(p.items())))
             for stamp, ue, k, p in zip(reports.timestamps, reports.ue_ids,
                                        serving.tolist(), pairs)])
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "mr.csv"
            write_mrs(path, reports)
            assert path.read_bytes() == expected
            if not parseable:
                return
            parsed = parse_mrs(path)
            write_mrs(Path(directory) / "again.csv", parsed)
            assert (Path(directory) / "again.csv").read_bytes() == expected
        assert (parsed.timestamps, parsed.ue_ids) \
            == (reports.timestamps, reports.ue_ids)
        assert [parsed.cells[k] for k in parsed.serving.tolist()] \
            == [cells[k] for k in serving.tolist()]
        assert [sorted((c, v.hex()) for c, v in p.items())
                for p in report_pairs(parsed)] \
            == [sorted((c, v.hex()) for c, v in p.items()) for p in pairs]


class TestHourlyFileErrors:
    """Every malformed kpi.csv and energy.csv row the parsers reject, with
    the type, file, row and message the record-by-record parser gave."""

    # rows 1 and the last are good; the patches make rows 2, 3, ...
    @pytest.mark.parametrize("patches, row, message", [
        ([{"day": "x"}], 2, INT + "'x'"),
        ([{"hour": "1.5"}], 2, INT + "'1.5'"),
        ([{"rrc_ues": "abc"}], 2, FLOAT + "'abc'"),
        ([{"rate_bin_07": ""}], 2, FLOAT + "''"),
        ([{"dl_bits": "nan"}], 2, "non-finite value 'nan'"),
        ([{"cs_minutes": "-inf"}], 2, "non-finite value '-inf'"),
        ([{"hour": "0"}], 2, "hour 0 outside 1..24"),
        ([{"hour": "25"}], 2, "hour 25 outside 1..24"),
        ([{"dl_bits": "1.0"}], 2, BITS),
        ([{"dl_bits_lastslot": "-1.0", "dl_bits": "-2.0"}], 2, BITS),
        ([{"cs_minutes": "60.5"}], 2, CS),
        ([{"cs_minutes": "-1.0"}], 2, CS),
        ([{"rrc_ues": "-1.0"}], 2, "negative counter"),
        ([{"rate_bin_15": "-0.5"}], 2, "negative counter"),
        ([{"ul_time_s": "-2.0"}], 2, "negative counter"),
        # within a row: conversions in column order, then the checks
        ([{"hour": "25", "rrc_ues": "nan"}], 2, "non-finite value 'nan'"),
        ([{"rrc_ues": "abc", "dl_bits": "nan"}], 2, FLOAT + "'abc'"),
        ([{"day": "x", "rrc_ues": "nan"}], 2, INT + "'x'"),
        ([{"dl_bits": "1.0", "rrc_ues": "-1.0"}], 2, BITS),
        ([{"hour": "0", "cs_minutes": "61"}], 2, "hour 0 outside 1..24"),
        ([{"cs_minutes": "61", "rrc_ues": "-1"}], 2, CS),
        # across rows: the first bad row, whatever fails in it
        ([{"rrc_ues": "-1.0"}, {"rrc_ues": "nan"}], 2, "negative counter"),
        ([{"rrc_ues": "nan"}, {"rrc_ues": "-1.0"}], 2,
         "non-finite value 'nan'"),
        ([{}] * 2498 + [{"rrc_ues": "nan"}] + [{}] * 200 + [{"hour": "0"}],
         2500, "non-finite value 'nan'"),
        ([{}] * 1799 + [{"cs_minutes": "99"}], 1801, CS),
        # a row longer than the header: an unquoted comma in a value
        ([{"rrc_ues": "5,5"}], 2, "29 fields, the header has 28"),
        ([{"cs_minutes": "0.0,"}], 2, "29 fields, the header has 28"),
        ([{"hour": "0"}, {"rrc_ues": "5,5"}], 2, "hour 0 outside 1..24"),
        ([{"rrc_ues": "5,5"}, {"hour": "0"}], 2,
         "29 fields, the header has 28"),
        ([{}] * 1700 + [{"dl_bits": "1,0e8"}], 1702,
         "29 fields, the header has 28"),
        # a (cell_id, day, hour) that an earlier row has, in or across
        # chunks, after the row's other checks
        ([{"day": "1"}], 2, REPEAT + "cell_id, day, hour"),
        ([{}] * 1799 + [{"day": "1000"}], 1801, REPEAT + "cell_id, day, hour"),
        ([{"day": "1", "rrc_ues": "-1.0"}], 2, "negative counter"),
        ([{"day": "1", "hour": "0"}], 2, "hour 0 outside 1..24"),
        ([{"day": "1", "cell_id": "c2"}, {"day": "1"}], 3,
         REPEAT + "cell_id, day, hour"),
    ])
    def test_kpi_errors(self, tmp_path, patches, row, message):
        path = tmp_path / "kpi.csv"
        path.write_text(hourly_text(KPI_COLUMNS, KPI_GOOD,
                                    [{}] + patches + [{}]))
        with pytest.raises(MalformedRowError) as err:
            parse_kpis(path)
        assert type(err.value) is MalformedRowError
        assert (err.value.path, err.value.row_index, err.value.message) \
            == (str(path), row, message)
        assert str(err.value) == f"{path}, row {row}: {message}"

    @pytest.mark.parametrize("patch, message", [
        ({"day": "x"}, INT + "'x'"),
        ({"hour": "a"}, INT + "'a'"),
        ({"energy_wh": "abc"}, FLOAT + "'abc'"),
        ({"energy_wh": "nan"}, "non-finite value 'nan'"),
        ({"energy_wh": "inf"}, "non-finite value 'inf'"),
        ({"energy_wh": "-1.0"}, "negative energy"),
        ({"energy_wh": "500,5"}, "5 fields, the header has 4"),
        ({"day": "1"}, REPEAT + "radio_unit, day, hour"),
    ])
    def test_energy_errors(self, tmp_path, patch, message):
        path = tmp_path / "energy.csv"
        path.write_text(hourly_text(ENERGY_COLUMNS, ENERGY_GOOD,
                                    [{}, patch, {}]))
        with pytest.raises(MalformedRowError) as err:
            parse_energy(path)
        assert (err.value.path, err.value.row_index, err.value.message) \
            == (str(path), 2, message)

    @pytest.mark.parametrize("hour", ["0", "25"])
    def test_energy_hour_outside_the_day_rejected(self, tmp_path, hour):
        path = tmp_path / "energy.csv"
        path.write_text(hourly_text(ENERGY_COLUMNS, ENERGY_GOOD,
                                    [{}, {"hour": hour, "energy_wh": "-1.0"}]))
        with pytest.raises(MalformedRowError) as err:
            parse_energy(path)
        assert (err.value.row_index, err.value.message) \
            == (2, f"hour {hour} outside 1..24")

    @pytest.mark.parametrize("parse, columns, missing, message", [
        (parse_kpis, KPI_COLUMNS, ["rrc_ues"], "missing column(s) rrc_ues"),
        (parse_kpis, KPI_COLUMNS, ["rrc_ues", "cs_minutes"],
         "missing column(s) rrc_ues, cs_minutes"),
        (parse_energy, ENERGY_COLUMNS, ["energy_wh"],
         "missing column(s) energy_wh"),
        (parse_kpis, [], [], "empty file"),
    ])
    def test_missing_columns(self, tmp_path, parse, columns, missing,
                             message):
        path = tmp_path / "hourly.csv"
        path.write_text(",".join(c for c in columns if c not in missing)
                        + "\n" if columns else "")
        with pytest.raises(MissingColumnError) as err:
            parse(path)
        assert str(err.value) == f"{path}: {message}"

    def test_blank_lines_are_not_rows(self, tmp_path):
        path = tmp_path / "kpi.csv"
        good = hourly_text(KPI_COLUMNS, KPI_GOOD, [{}])
        bad = hourly_text(KPI_COLUMNS, KPI_GOOD, [{"hour": "0"}])
        path.write_text(good + "\n\n" + bad.split("\n", 1)[1])
        with pytest.raises(MalformedRowError) as err:
            parse_kpis(path)
        assert err.value.row_index == 2

    def test_a_bad_row_before_a_short_one_read_with_it_raises_first(
            self, tmp_path):
        path = tmp_path / "kpi.csv"
        path.write_text(hourly_text(KPI_COLUMNS, KPI_GOOD,
                                    [{}, {"hour": "0"}, {}])
                        + ",".join(KPI_GOOD[c] for c in KPI_COLUMNS[:-1]))
        with pytest.raises(MalformedRowError) as err:
            parse_kpis(path)
        assert (err.value.row_index, err.value.message) \
            == (2, "hour 0 outside 1..24")

    def test_day_and_hour_must_fit_64_bits(self, tmp_path):
        path = tmp_path / "kpi.csv"
        path.write_text(hourly_text(KPI_COLUMNS, KPI_GOOD,
                                    [{}, {"day": "9" * 23}]))
        with pytest.raises(MalformedRowError) as err:
            parse_kpis(path)
        assert (err.value.row_index, err.value.message) \
            == (2, f"integer '{'9' * 23}' outside the 64-bit range")

    @pytest.mark.parametrize("name", ["engineering.csv", "kpi.csv",
                                      "energy.csv", "mr.csv"])
    def test_row_shorter_than_the_header_rejected(self, tmp_path, name):
        paths, _ = write_fixture(tmp_path)
        path = tmp_path / name
        lines = path.read_text().splitlines()
        n_fields = len(lines[0].split(","))
        lines[1] = ",".join(lines[1].split(",")[:n_fields - 1])
        path.write_text("\n".join(lines) + "\n")
        parse = {"engineering.csv": parse_engineering, "kpi.csv": parse_kpis,
                 "energy.csv": parse_energy, "mr.csv": parse_mrs}[name]
        with pytest.raises(MalformedRowError) as err:
            parse(path)
        assert (err.value.path, err.value.row_index, err.value.message) \
            == (str(path), 1,
                f"{n_fields - 1} fields, the header has {n_fields}")

    def test_parse_kpis_reads_rows_as_it_goes(self, tmp_path):
        # ScenarioSpec(30, 20, 5), seed 5: 6,000 rows, 1.4 MB of columns.
        # tracemalloc peaks measured at about 7.0 MB, and at 20.0 MB for
        # the record-by-record parser that read the whole file first.
        generate_scenario(ScenarioSpec(30, 20, 5), tmp_path, seed=5)
        tracemalloc.start()
        try:
            rows = parse_kpis(tmp_path / "kpi.csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(rows) == 6000
        assert peak < 12e6


class TestOverrides:
    @pytest.mark.parametrize("overrides, field", [
        ({"thresholds": {"c1": {"entry_dl_prb": "120"}}}, "entry_dl_prb"),
        ({"thresholds": {"c1": {"leave_ue": True}}}, "leave_ue"),
        ({"thresholds": {"c1": {"entry_ue": float("nan")}}}, "entry_ue"),
        ({"a4": {"c1": {"threshold_dbm": "abc"}}}, "threshold_dbm"),
        ({"a4": {"c1": {"hysteresis_db": float("inf")}}}, "hysteresis_db"),
        ({"a4": {"c1": {"freq_offset_db": 3.0}}}, "freq_offset_db"),
        ({"a4": {"c1": {"cell_offset_db": ["b1", 2.0]}}}, "cell_offset_db"),
        ({"a4": {"c1": {"cell_offset_db": {"b1": None}}}}, "cell_offset_db"),
    ])
    def test_bad_values_name_cell_and_field(self, overrides, field):
        with pytest.raises(ConfigError) as err:
            apply_overrides(make_network(), overrides)
        assert "'c1'" in str(err.value) and repr(field) in str(err.value)

    def test_numeric_patches_apply(self):
        cfg = apply_overrides(make_network(), {
            "thresholds": {"c1": {"entry_dl_prb": 120, "leave_dl_prb": 85.0}},
            "a4": {"c1": {"threshold_dbm": -95.0,
                          "cell_offset_db": {"b1": 2.0}}}})
        assert cfg.energy_saving["c1"].entry_dl_prb == 120
        assert cfg.energy_saving["c1"].leave_dl_prb == 85.0
        assert cfg.mobility["c1"].threshold_dbm == -95.0
        assert cfg.mobility["c1"].cell_offset_db == {"b1": 2.0}


UES, DL, UL = (TRAFFIC_KPIS.index(k) for k in ("ues", "dl_prbs", "ul_prbs"))


class TestTrafficFit:
    def test_zero_variance_floored(self):
        kpis = [make_kpi(day=d, hour=h, rrc_ues=10.0)
                for d in (1, 2, 3) for h in range(1, 25)]
        tm = fit_traffic_model(stack(kpis), sigma_floor=1e-6)
        assert tm.mean[0, 0, UES] == 10.0
        assert tm.std[0, 0, UES] == 1e-6

    def test_two_sample_std_uses_n_minus_one(self):
        # samples {0, 20}: mean 10, std sqrt(2 * 100 / 1) = sqrt(200)
        kpis = [make_kpi(day=d, hour=h, rrc_ues=v)
                for (d, v) in ((1, 0.0), (2, 20.0)) for h in range(1, 25)]
        tm = fit_traffic_model(stack(kpis))
        assert tm.mean[2, 0, UES] == 10.0
        assert tm.std[2, 0, UES] == pytest.approx(math.sqrt(200.0), rel=1e-12)
        assert tm.std[2, 0, UES] == pytest.approx(14.142135623730951,
                                                  rel=1e-12)

    def test_missing_hour_raises_no_samples(self):
        kpis = [make_kpi(day=1, hour=h) for h in range(1, 24)]  # hour 24 absent
        with pytest.raises(NoSamplesError) as err:
            fit_traffic_model(stack(kpis))
        assert err.value.hour == 24

    def test_single_sample_uses_floor(self):
        kpis = [make_kpi(day=1, hour=h, rrc_ues=7.5) for h in range(1, 25)]
        tm = fit_traffic_model(stack(kpis), sigma_floor=1e-3)
        assert tm.std[4, 0, UES] == 1e-3

    @given(st.lists(st.floats(min_value=0, max_value=1e4,
                              allow_nan=False), min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_mean_matches_sample_mean(self, values):
        kpis = [make_kpi(day=d, hour=h, rrc_ues=v)
                for d, v in enumerate(values, start=1) for h in range(1, 25)]
        tm = fit_traffic_model(stack(kpis))
        expected = math.fsum(values) / len(values)
        got = tm.mean[0, 0, UES]
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)


def _row_by_row_fit(kpis, sigma_floor=1e-6):
    """fit_traffic_model as a loop over the rows: each (cell, hour)'s
    samples in row order, math.fsum means and n-1 stds."""
    grouped, cells = {}, {}
    for cell, hour, sample in zip(kpis.ids, kpis.hour.tolist(),
                                  kpis.values[:, :3].tolist()):
        cells.setdefault(cell)
        grouped.setdefault((cell, hour), []).append(sample)
    mean = np.empty((24, len(cells), 3))
    std = np.empty_like(mean)
    for k, cell in enumerate(cells):
        for hour in range(1, 25):
            for m, values in enumerate(zip(*grouped[(cell, hour)])):
                n = len(values)
                mu = math.fsum(values) / n
                sd = (math.sqrt(math.fsum((v - mu) ** 2 for v in values)
                                / (n - 1)) if n > 1 else 0.0)
                mean[hour - 1, k, m], std[hour - 1, k, m] = \
                    mu, max(sd, sigma_floor)
    return tuple(cells), mean, std


class TestRepeatedRows:
    """A generated file with one row written twice is rejected, naming the
    file and the second row, instead of weighing the row twice or failing
    in the network's own check."""

    @pytest.mark.parametrize("name, prefix", [
        ("kpi.csv", "cov001,1,1,"), ("kpi_biased.csv", "cov001,1,1,"),
        ("energy.csv", "ru-cov001,1,1,"), ("engineering.csv", "cap002,")])
    def test_a_repeated_row_is_rejected(self, tmp_path, name, prefix):
        generate_scenario(ScenarioSpec(2, 1, 3), tmp_path, seed=3)
        path = tmp_path / name
        lines = path.read_text().splitlines()
        k = next(k for k, line in enumerate(lines) if line.startswith(prefix))
        path.write_text("\n".join(lines[:k + 1] + lines[k:]) + "\n")
        parse = {"kpi.csv": parse_kpis, "kpi_biased.csv": parse_kpis,
                 "energy.csv": parse_energy,
                 "engineering.csv": parse_engineering}[name]
        key = {"engineering.csv": "cell_id", "energy.csv":
               "radio_unit, day, hour"}.get(name, "cell_id, day, hour")
        with pytest.raises(MalformedRowError) as err:
            parse(path)
        assert type(err.value) is MalformedRowError
        assert (err.value.path, err.value.row_index, err.value.message) \
            == (str(path), k + 1, REPEAT + key)


class TestTrafficFitOnFiles:
    @pytest.mark.parametrize("spec", [
        ScenarioSpec(6, 3, 2),
        ScenarioSpec(3, 2, 2, peak_capacity_ues=1.0, traffic_noise=1.5),
    ], ids=["golden", "sparse"])
    def test_bit_identical_to_the_row_by_row_fit(self, tmp_path, spec):
        generate_scenario(spec, tmp_path, seed=11)
        kpis = parse_kpis(tmp_path / "kpi.csv")
        # rows in reverse: the groups must not depend on the row order
        backwards = HourlyRows(kpis.ids[::-1], kpis.day[::-1],
                               kpis.hour[::-1], kpis.values[::-1])
        cells, mean, std = _row_by_row_fit(kpis)
        for rows in (kpis, backwards):
            tm = fit_traffic_model(rows)
            assert set(tm.cells) == set(cells)
            order = [cells.index(c) for c in tm.cells]
            for got, want in ((tm.mean, mean[:, order]),
                              (tm.std, std[:, order])):
                assert [x.hex() for x in got.ravel().tolist()] \
                    == [x.hex() for x in want.ravel().tolist()]
        assert fit_traffic_model(kpis).cells == cells


class TestDrawInputs:
    def test_degenerate_distribution_returns_mean(self, rng):
        kpis = [make_kpi(day=1, hour=h, rrc_ues=5.0) for h in range(1, 25)]
        tm = fit_traffic_model(stack(kpis))
        draw = draw_inputs(tm, 1, rng)
        assert draw.shape == (1, 3)
        assert draw[0, UES] == 5.0

    def test_negative_mean_truncated_to_zero(self, rng):
        # fabricate a negative-mean Gaussian directly through fitted values
        kpis = [make_kpi(day=d, hour=h, rrc_ues=v)
                for d, v in ((1, 0.0), (2, 0.0)) for h in range(1, 25)]
        tm = fit_traffic_model(stack(kpis))
        # mean 0, tiny sigma: every draw rounds to 0 and never goes negative
        draws = [draw_inputs(tm, 2, np.random.default_rng(s))[0, UES]
                 for s in range(20)]
        assert all(d == 0 for d in draws)

    def test_seeded_draws_reproducible(self):
        kpis = [make_kpi(day=d, hour=h, rrc_ues=10.0 + 3 * d, dl_prbs=30.0 + d)
                for d in (1, 2, 3, 4) for h in range(1, 25)]
        tm = fit_traffic_model(stack(kpis))
        a = draw_inputs(tm, 7, np.random.default_rng(99))
        b = draw_inputs(tm, 7, np.random.default_rng(99))
        assert a.tobytes() == b.tobytes()
        # frozen expected value for seed 99 (pinned after first run)
        assert a[0, UES] == 18
        assert a[0, DL] == pytest.approx(31.90043840440342, rel=0, abs=0)

    def test_prb_draw_clamped_to_capacity(self):
        cfg = make_network()
        kpis = []
        for cell in ("c1", "b1"):
            for d in (1, 2):
                for h in range(1, 25):
                    kpis.append(make_kpi(cell_id=cell, day=d, hour=h,
                                         dl_prbs=5000.0, ul_prbs=5000.0))
        tm = fit_traffic_model(stack(kpis))
        draw = draw_inputs(tm, 1, np.random.default_rng(0), cfg=cfg)
        assert tm.cells == ("c1", "b1")
        assert draw[0, DL] == 270.0
        assert draw[1, DL] == 100.0

    def test_truncation_negligible_mean_statistics(self):
        # mu >> 5 sigma: sample mean of 1e5 draws within 4 sigma / sqrt(n) of mu
        mu, sigma, n = 200.0, 10.0, 100_000
        kpis = []
        gen = np.random.default_rng(5)
        days = gen.normal(mu, sigma, size=8)
        for d, v in enumerate(days, start=1):
            for h in range(1, 25):
                kpis.append(make_kpi(day=d, hour=h, dl_prbs=max(v, 0.0)))
        tm = fit_traffic_model(stack(kpis))
        mean, std = tm.mean[0, 0, DL], tm.std[0, 0, DL]
        rng = np.random.default_rng(7)
        samples = np.array([
            max(0.0, rng.normal(mean, std)) for _ in range(n)])
        assert abs(samples.mean() - mean) < 4 * std / math.sqrt(n)

    def test_bad_hour_rejected(self, rng):
        kpis = [make_kpi(day=1, hour=h) for h in range(1, 25)]
        tm = fit_traffic_model(stack(kpis))
        with pytest.raises(ValueError):
            draw_inputs(tm, 0, rng)


def _scalar_draw(tm, hour, rng, cfg=None):
    """draw_inputs written as one scalar rng.normal call per cell and KPI."""
    rows = []
    for k, cell in enumerate(tm.cells):
        ues, dl, ul = (max(0.0, rng.normal(tm.mean[hour - 1, k, m],
                                           tm.std[hour - 1, k, m]))
                       for m in range(3))
        if cfg is not None:
            dl = min(dl, float(cfg.cell(cell).n_dl_prb))
            ul = min(ul, float(cfg.cell(cell).n_ul_prb))
        rows.append((float(int(np.rint(ues))), dl, ul))
    return np.array(rows)


class TestDrawInputsArrays:
    # b1 sits around zero (truncation), c2 above its PRB capacity (clamping)
    BASE = {"b1": (-1.0, -4.0, 1.0), "b2": (30.0, 60.0, 40.0),
            "c1": (12.0, 262.0, 130.0), "c2": (5.0, 400.0, 200.0)}

    def traffic(self):
        cfg = make_network(n_capacity=2, n_coverage=2)
        cells = tuple(c.id for c in cfg.cells)
        scale = 1.0 + np.arange(24)[:, None, None] / 24.0
        mean = scale * np.array([self.BASE[c] for c in cells])[None]
        return cfg, TrafficModel(cells=cells, mean=mean,
                                 std=np.full_like(mean, 6.0))

    @pytest.mark.parametrize("with_cfg", [False, True])
    def test_bit_identical_to_scalar_loop(self, with_cfg):
        cfg, tm = self.traffic()
        cfg = cfg if with_cfg else None
        truncated = clamped = 0
        for seed in (0, 1, 7, 99, 2024):
            for hour in (1, 5, 13, 24):
                got = draw_inputs(tm, hour, np.random.default_rng(seed), cfg)
                want = _scalar_draw(tm, hour, np.random.default_rng(seed), cfg)
                assert got.shape == (4, 3)
                assert got.tobytes() == want.tobytes()
                truncated += int((got == 0.0).sum())
                clamped += int((got[:, DL] == 270.0).sum())
        assert truncated > 0
        assert (clamped > 0) == with_cfg

    def test_consumes_same_stream_as_scalar_loop(self):
        _, tm = self.traffic()
        a, b = np.random.default_rng(3), np.random.default_rng(3)
        draw_inputs(tm, 9, a)
        _scalar_draw(tm, 9, b)
        assert a.random() == b.random()

    def test_rows_follow_cell_ids(self):
        _, tm = self.traffic()
        assert tm.rows(["c2", "b1"]).tolist() == [3, 0]
        for _ in range(2):  # a failed lookup caches nothing
            with pytest.raises(NoSamplesError) as err:
                tm.rows(["b1", "zz9"])
            assert (err.value.cell, err.value.hour) == ("zz9", 1)

    def test_rows_are_built_once_and_read_only(self):
        _, tm = self.traffic()
        rows = tm.rows(("c2", "b1"))
        assert tm.rows(["c2", "b1"]) is rows
        with pytest.raises(ValueError):
            rows[0] = 1

    def test_traffic_cell_missing_from_network_is_bad_reference(self):
        big = make_network(n_capacity=2)
        tm = make_traffic(big, {c.id: (3, 12, 5) for c in big.cells})
        cfg = make_network()
        with pytest.raises(BadReferenceError, match="'c2'"):
            draw_inputs(tm, 1, np.random.default_rng(0), cfg)
        with pytest.raises(BadReferenceError, match="'c2'"):
            simulate_day(tm, cfg, make_handover({"c1": {"b1": 1.0}}),
                         AbmConfig(runs=1))

    def test_missing_cell_is_reported_before_the_draw(self):
        big = make_network(n_capacity=2)
        tm = make_traffic(big, {c.id: (3, 12, 5) for c in big.cells})
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(BadReferenceError):
            draw_inputs(tm, 1, rng, make_network())
        assert rng.bit_generator.state == state


class TestTrafficModelChecks:
    def good(self):
        return np.ones((24, 2, 3)), np.ones((24, 2, 3))

    @pytest.mark.parametrize("shape", [(23, 2, 3), (24, 3, 3), (24, 2),
                                       (24, 2, 4)])
    @pytest.mark.parametrize("which", ["mean", "std"])
    def test_bad_shape_rejected(self, which, shape):
        arrays = dict(zip(("mean", "std"), self.good()))
        arrays[which] = np.ones(shape)
        with pytest.raises(ConfigError, match="shape"):
            TrafficModel(cells=("a", "b"), **arrays)

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_bad_std_rejected(self, bad):
        mean, std = self.good()
        std[7, 1, 2] = bad
        with pytest.raises(ConfigError, match="std"):
            TrafficModel(cells=("a", "b"), mean=mean, std=std)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_mean_rejected(self, bad):
        mean, std = self.good()
        mean[0, 0, 0] = bad
        with pytest.raises(ConfigError, match="mean"):
            TrafficModel(cells=("a", "b"), mean=mean, std=std)

    def test_zero_sigma_floor_rejected(self):
        kpis = [make_kpi(day=1, hour=h) for h in range(1, 25)]
        with pytest.raises(ConfigError):
            fit_traffic_model(stack(kpis), sigma_floor=0.0)


class TestCellsOnFrequency:
    def test_ids_in_cell_order(self):
        cfg = make_network(n_capacity=2, n_coverage=3)
        cfg = dataclasses.replace(cfg, cells=tuple(reversed(cfg.cells)))
        assert list(cfg.cells_on_frequency(800.0)) == ["b3", "b2", "b1"]
        assert list(cfg.cells_on_frequency(3500.0)) == ["c2", "c1"]
        assert list(cfg.cells_on_frequency(1800.0)) == []

    def test_changing_the_result_does_not_change_the_next_call(self):
        cfg = make_network(n_capacity=1, n_coverage=2)
        ids = cfg.cells_on_frequency(800.0)
        with contextlib.suppress(AttributeError, TypeError):
            ids.append("zz9")  # a tuple refuses; a copied list may change
        with contextlib.suppress(AttributeError, TypeError):
            ids[0] = "zz9"
        assert list(cfg.cells_on_frequency(800.0)) == ["b1", "b2"]
