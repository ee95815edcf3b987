"""Report artifact tests: CSV layout, aggregation, SVG structure."""

import xml.etree.ElementTree as ET

import numpy as np
import pytest

from eegdrive.errors import DataError
from eegdrive.metrics import mean_and_std, metrics_from_confusion
from eegdrive.report import (
    METRIC_NAMES,
    RunScore,
    confusion_csv_name,
    emit_report,
    read_run_score,
    write_confusion_csvs,
    write_metrics_csv,
    write_run_score,
    write_summary_csv,
)


def _score(rng, model, horizon, run_id):
    cm = rng.integers(0, 40, size=(5, 5)).astype(np.int64)
    return RunScore(model, horizon, run_id, metrics_from_confusion(cm))


@pytest.fixture
def runs():
    rng = np.random.default_rng(0)
    return [
        _score(rng, model, horizon, f"run-{k}")
        for model in ("linear", "shallow")
        for horizon in (0, 300, 1000)
        for k in range(3)
    ]


def _data_lines(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("#")
    return lines[1:]


class TestRunScore:
    def test_round_trip(self, tmp_path, runs):
        p = tmp_path / "s.json"
        write_run_score(p, runs[0])
        back = read_run_score(p)
        assert back.model == runs[0].model
        assert back.horizon_ms == runs[0].horizon_ms
        assert back.run_id == runs[0].run_id
        assert np.array_equal(back.result.confusion, runs[0].result.confusion)
        assert back.result.macro_f1 == runs[0].result.macro_f1

    def test_scalars_rederived_from_confusion(self, tmp_path, runs):
        # only the confusion matrix is stored; metrics cannot drift from it
        p = tmp_path / "s.json"
        write_run_score(p, runs[0])
        assert '"confusion"' in p.read_text()
        assert "macro_f1" not in p.read_text()

    def test_malformed_json_rejected(self, tmp_path):
        p = tmp_path / "s.json"
        p.write_text("{nope")
        with pytest.raises(DataError, match="cannot read"):
            read_run_score(p)

    def test_missing_field_rejected(self, tmp_path):
        p = tmp_path / "s.json"
        p.write_text('{"model": "linear"}')
        with pytest.raises(DataError, match="malformed"):
            read_run_score(p)


class TestMetricsCsv:
    def test_cardinality_and_order(self, tmp_path, runs):
        p = tmp_path / "metrics.csv"
        write_metrics_csv(p, runs)
        lines = _data_lines(p)
        assert lines[0] == "model,horizon_ms,run_id,metric,value"
        body = lines[1:]
        assert len(body) == len(runs) * len(METRIC_NAMES)
        keys = [tuple(line.split(",")[:3]) for line in body]
        assert keys == sorted(keys, key=lambda k: (k[0], int(k[1]), k[2]))

    def test_values_match_source(self, tmp_path, runs):
        p = tmp_path / "metrics.csv"
        write_metrics_csv(p, runs)
        by_key = {(r.model, str(r.horizon_ms), r.run_id): r for r in runs}
        for line in _data_lines(p)[1:]:
            model, horizon, run_id, metric, value = line.split(",")
            want = by_key[(model, horizon, run_id)].metric(metric)
            assert float(value) == pytest.approx(want, abs=1e-12)

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(DataError, match="no evaluation runs"):
            write_metrics_csv(tmp_path / "m.csv", [])


class TestSummaryCsv:
    def test_mean_and_std_pooled_per_cell(self, tmp_path, runs):
        p = tmp_path / "summary.csv"
        write_summary_csv(p, runs)
        lines = _data_lines(p)
        assert lines[0] == "model,horizon_ms,n_runs,metric,mean,std"
        body = lines[1:]
        assert len(body) == 2 * 3 * len(METRIC_NAMES)
        for line in body:
            model, horizon, n_runs, metric, mean, std = line.split(",")
            vals = [
                r.metric(metric)
                for r in runs
                if r.model == model and r.horizon_ms == int(horizon)
            ]
            assert int(n_runs) == len(vals)
            want_mean, want_std = mean_and_std(vals)
            assert float(mean) == pytest.approx(want_mean, abs=1e-12)
            assert float(std) == pytest.approx(want_std, abs=1e-12)

    def test_single_run_std_zero(self, tmp_path, runs):
        p = tmp_path / "summary.csv"
        write_summary_csv(p, runs[:1])
        line = _data_lines(p)[1]
        assert line.split(",")[2] == "1"
        assert float(line.split(",")[5]) == 0.0


class TestConfusionCsvs:
    def test_counts_summed_over_runs(self, tmp_path, runs):
        paths = write_confusion_csvs(tmp_path, runs)
        assert len(paths) == 6
        for model in ("linear", "shallow"):
            for horizon in (0, 300, 1000):
                p = tmp_path / confusion_csv_name(model, horizon)
                assert p in paths
                want = sum(
                    r.result.confusion
                    for r in runs
                    if r.model == model and r.horizon_ms == horizon
                )
                lines = _data_lines(p)
                assert lines[0] == "true\\pred,0,1,2,3,4"
                got = np.array(
                    [[int(v) for v in line.split(",")[1:]] for line in lines[1:]]
                )
                assert np.array_equal(got, want)

    def test_cells_no_longer_reported_are_removed(self, tmp_path, runs):
        emit_report(runs, tmp_path)
        one_cell = [r for r in runs if (r.model, r.horizon_ms) == ("linear", 0)]
        paths = emit_report(one_cell, tmp_path)
        names = ["metrics.csv", "summary.csv", "f1_vs_horizon.svg", "confusion_linear_0.csv"]
        assert [p.name for p in paths] == names
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)


class TestF1Svg:
    def test_valid_xml_with_one_polyline_per_model(self, tmp_path, runs):
        paths = emit_report(runs, tmp_path)
        svg = next(p for p in paths if p.suffix == ".svg")
        root = ET.fromstring(svg.read_text())
        ns = "{http://www.w3.org/2000/svg}"
        polylines = root.findall(f".//{ns}polyline")
        assert len(polylines) == 2
        texts = [t.text for t in root.findall(f".//{ns}text")]
        for label in ("linear", "shallow", "0", "300", "1000", "0.5"):
            assert label in texts

    def test_polyline_heights_track_f1(self, tmp_path, runs):
        emit_report(runs, tmp_path)
        root = ET.fromstring((tmp_path / "f1_vs_horizon.svg").read_text())
        ns = "{http://www.w3.org/2000/svg}"
        for mi, model in enumerate(("linear", "shallow")):
            pts = root.findall(f".//{ns}polyline")[mi].attrib["points"].split()
            assert len(pts) == 3
            ys = [float(p.split(",")[1]) for p in pts]
            means = []
            for horizon in (0, 300, 1000):
                vals = [
                    r.metric("macro_f1")
                    for r in runs
                    if r.model == model and r.horizon_ms == horizon
                ]
                means.append(mean_and_std(vals)[0])
            # SVG y grows downward: larger F1 must sit higher on the canvas
            order = np.argsort(means)
            assert list(np.argsort(ys)[::-1]) == list(order)

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(DataError, match="no evaluation runs"):
            emit_report([], tmp_path)


class TestDeterminism:
    def test_emit_twice_byte_identical(self, tmp_path, runs):
        a = emit_report(runs, tmp_path / "a")
        b = emit_report(list(reversed(runs)), tmp_path / "b")
        assert [p.name for p in a] == [p.name for p in b]
        for pa, pb in zip(a, b):
            assert pa.read_bytes() == pb.read_bytes(), pa.name
