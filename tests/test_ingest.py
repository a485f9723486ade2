"""Raw parsing, imputation, outlier repair, and the z-score the features apply."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsda.errors import ProtocolError
from hsda.features import kinematic_features
from hsda.features.kinematics import zscore
from hsda.ingest import (
    LABEL_TO_INDEX,
    RawRecord,
    StrokeSequence,
    impute_missing,
    merge_duplicate_times,
    parse_raw,
    preprocess,
    remove_outliers,
)


def write(tmp_path, text, name="raw.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def make_record(n=20, seed=0, **overrides):
    rng = np.random.default_rng(seed)
    kw = dict(
        subject_id="s1",
        task_id=1,
        label="HC",
        t=np.arange(n, dtype=np.float64) * 5.0,
        x=rng.normal(size=n),
        y=rng.normal(size=n),
        p=rng.uniform(0.2, 1.0, size=n),
    )
    kw.update(overrides)
    return RawRecord(**kw)


class TestParse:
    def test_single_record_single_sample(self, tmp_path):
        recs = parse_raw(write(tmp_path, "17,1,AD\n0,100,200,512\n"))
        assert len(recs) == 1
        r = recs[0]
        assert (r.subject_id, r.task_id, r.label) == ("17", 1, "AD")
        assert len(r) == 1
        assert (r.t[0], r.x[0], r.y[0], r.p[0]) == (0.0, 100.0, 200.0, 512.0)

    def test_empty_field_becomes_missing(self, tmp_path):
        recs = parse_raw(write(tmp_path, "s,2,HC\n0,1,2,3\n5,,210,500\n"))
        r = recs[0]
        assert np.isnan(r.x[1])
        assert r.y[1] == 210.0

    def test_unparseable_field_becomes_missing(self, tmp_path):
        recs = parse_raw(write(tmp_path, "s,2,HC\n0,abc,2,3\n1,4,5,6\n"))
        assert np.isnan(recs[0].x[0])

    def test_two_blocks_stable_order(self, tmp_path):
        text = "a,1,AD\n0,1,1,1\n1,2,2,2\n\nb,1,HC\n0,3,3,3\n"
        recs = parse_raw(write(tmp_path, text))
        assert [r.subject_id for r in recs] == ["a", "b"]

    def test_malformed_header_reports_line(self, tmp_path):
        path = write(tmp_path, "only,two\n0,1,2,3\n")
        with pytest.raises(ProtocolError, match="^%s:1: expected header" % re.escape(str(path))):
            parse_raw(path)

    def test_malformed_sample_reports_line(self, tmp_path):
        path = write(tmp_path, "s,1,HC\n0,1,2,3\n1,2,3\n")
        with pytest.raises(ProtocolError, match="^%s:3: expected 't_ms,x,y,p'" % re.escape(str(path))):
            parse_raw(path)

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(ProtocolError, match="no records"):
            parse_raw(write(tmp_path, "\n\n"))

    def test_task_id_range_enforced(self, tmp_path):
        with pytest.raises(ProtocolError, match="task_id"):
            parse_raw(write(tmp_path, "s,26,HC\n0,1,2,3\n"))

    def test_unknown_label_rejected(self, tmp_path):
        with pytest.raises(ProtocolError, match="label"):
            parse_raw(write(tmp_path, "s,1,XX\n0,1,2,3\n"))

    def test_header_refusal_names_its_line(self, tmp_path):
        text = "a,1,HC\n0,1,2,3\n\nb,30,AD\n0,1,2,3\n\nc,2,XX\n0,1,2,3\n"
        path = re.escape(str(tmp_path / "raw.csv"))
        with pytest.raises(ProtocolError, match=r"^%s:4: task_id 30 outside 1\.\.25$" % path):
            parse_raw(write(tmp_path, text))
        with pytest.raises(ProtocolError, match=r"^%s:7: label 'XX' not one of" % path):
            parse_raw(write(tmp_path, text.replace("b,30", "b,3")))

    def test_directory_reads_every_csv_in_name_order(self, tmp_path):
        write(tmp_path, "b,1,HC\n0,1,1,1\n\nc,1,AD\n0,2,2,2\n", "2.csv")
        write(tmp_path, "a,1,HC\n0,3,3,3\n", "1.csv")
        write(tmp_path, "not,csv,v1,at,all\n", "notes.txt")
        assert [r.subject_id for r in parse_raw(tmp_path)] == ["a", "b", "c"]
        (tmp_path / "empty").mkdir()
        with pytest.raises(ProtocolError, match="no .csv files in"):
            parse_raw(tmp_path / "empty")

    def test_directory_error_names_its_file(self, tmp_path):
        # a signal CSV that preprocess wrote into the directory it read
        write(tmp_path, "s,1,HC\n0,1,2,3\n", "raw.csv")
        write(tmp_path, "x,y,p,speed\n0.1,0.2,0.3,0.4\n", "s_task01.csv")
        with pytest.raises(ProtocolError) as info:
            parse_raw(tmp_path)
        assert str(info.value).startswith("%s:1: expected header" % (tmp_path / "s_task01.csv"))

    def test_byte_order_mark_skipped(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfs1,1,HC\n0,1,2,3\n")
        (r,) = parse_raw(path)
        assert (r.subject_id, r.task_id, r.label) == ("s1", 1, "HC")

    def test_rows_sorted_by_timestamp(self, tmp_path):
        recs = parse_raw(write(tmp_path, "s,1,HC\n10,2,2,2\n0,1,1,1\n5,3,3,3\n"))
        np.testing.assert_array_equal(recs[0].t, [0.0, 5.0, 10.0])
        np.testing.assert_array_equal(recs[0].x, [1.0, 3.0, 2.0])

    def test_shuffled_block_parses_like_the_sorted_one(self, tmp_path):
        # csv-v1 asks for non-decreasing timestamps; a shuffled block is
        # repaired by a stable sort, so rows sharing a timestamp keep file order
        rng = np.random.default_rng(4)
        t = np.sort(rng.choice(40, size=30))  # repeats some timestamps
        rows = ["%d,%s,%.3f,%.3f" % (ti, "" if i == 7 else "%.3f" % rng.normal(), rng.normal(), rng.uniform())
                for i, ti in enumerate(t)]
        shuffled = [rows[i] for i in rng.permutation(len(rows))]
        ordered = sorted(shuffled, key=lambda row: int(row.split(",")[0]))  # stable
        assert shuffled != ordered
        a = parse_raw(write(tmp_path, "s,1,HC\n" + "\n".join(shuffled) + "\n", "shuffled.csv"))[0]
        b = parse_raw(write(tmp_path, "s,1,HC\n" + "\n".join(ordered) + "\n", "ordered.csv"))[0]
        for name in ("t", "x", "y", "p"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_row_without_timestamp_dropped(self, tmp_path):
        recs = parse_raw(write(tmp_path, "s,1,HC\n0,1,1,1\n,9,9,9\n2,2,2,2\n"))
        assert len(recs[0]) == 2

    def test_determinism(self, tmp_path):
        text = "s,1,HC\n0,1.5,2.5,3.5\n1,2.5,3.5,4.5\n"
        a = parse_raw(write(tmp_path, text, "a.csv"))[0]
        b = parse_raw(write(tmp_path, text, "b.csv"))[0]
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.t, b.t)


class TestImpute:
    def test_linear_midpoint(self):
        r = make_record(3, t=np.array([0.0, 1.0, 2.0]), x=np.array([1.0, np.nan, 3.0]))
        out = impute_missing(r)
        np.testing.assert_allclose(out.x, [1.0, 2.0, 3.0])

    def test_leading_gap_nearest_value(self):
        r = make_record(3, t=np.array([0.0, 1.0, 2.0]), x=np.array([np.nan, 4.0, 6.0]))
        np.testing.assert_allclose(impute_missing(r).x, [4.0, 4.0, 6.0])

    def test_trailing_gap_nearest_value(self):
        r = make_record(3, t=np.array([0.0, 1.0, 2.0]), x=np.array([4.0, 6.0, np.nan]))
        np.testing.assert_allclose(impute_missing(r).x, [4.0, 6.0, 6.0])

    def test_interpolation_follows_timestamps(self):
        r = make_record(3, t=np.array([0.0, 3.0, 4.0]), x=np.array([0.0, np.nan, 4.0]))
        np.testing.assert_allclose(impute_missing(r).x, [0.0, 3.0, 4.0])

    def test_dense_record_unchanged(self):
        r = make_record(10)
        out = impute_missing(r)
        assert out is r

    def test_too_few_valid_values(self):
        r = make_record(3, x=np.array([1.0, np.nan, np.nan]))
        with pytest.raises(ProtocolError, match=r"subject s1 task 1 channel x"):
            impute_missing(r)


class TestOutliers:
    def test_spike_replaced_by_interpolation(self):
        n = 40
        t = np.arange(n, dtype=np.float64)
        x = np.sin(t / 8.0)
        x[20] = 1e6
        r = make_record(n, t=t, x=x)
        out = remove_outliers(r, z_max=6.0)
        expect = 0.5 * (x[19] + x[21])
        assert abs(out.x[20] - expect) < 1e-9
        np.testing.assert_array_equal(np.delete(out.x, 20), np.delete(x, 20))

    def test_clean_trace_unchanged(self):
        r = make_record(30)
        assert remove_outliers(r, z_max=6.0) is r

    def test_constant_channel_no_removals(self):
        r = make_record(30, p=np.full(30, 0.5))
        out = remove_outliers(r, z_max=6.0)
        np.testing.assert_array_equal(out.p, r.p)

    def test_heavy_contamination_warns(self, caplog):
        n = 20
        x = np.zeros(n)
        x[:6] = 1e5
        x[6:] = np.linspace(0, 1, n - 6)
        r = make_record(n, x=x)
        remove_outliers(r, z_max=6.0)
        assert [rec.getMessage() for rec in caplog.records] == ["s1 task 01: 6 of 20 samples flagged as outliers"]
        assert caplog.records[0].levelname == "WARNING"

    def test_flags_leaving_fewer_than_two_samples_raise(self, caplog):
        # x, y and p each flag a different stretch; together they cover all 40 samples
        rng = np.random.default_rng(3)
        x, y, p = rng.normal(scale=1e-3, size=(3, 40))
        x[:18] += 100.0
        y[18:36] += 100.0
        p[36:] += 100.0
        r = make_record(40, x=x, y=y, p=p)
        with pytest.raises(ProtocolError, match="^outlier repair flags 40 of 40 samples, fewer than 2 left"):
            remove_outliers(r, z_max=6.0)
        assert "s1 task 01: 40 of 40 samples flagged as outliers" in caplog.text

    def test_flagged_sample_blanked_on_all_channels(self):
        # the spike is on x only, but the whole sample is re-interpolated
        n = 30
        t = np.arange(n, dtype=np.float64)
        x = np.cos(t / 5.0)
        y = np.linspace(0.0, 2.0, n)
        x[10] = 500.0
        y_orig = y[10]
        r = make_record(n, t=t, x=x, y=y)
        out = remove_outliers(r, z_max=6.0)
        assert out.x[10] != 500.0
        assert abs(out.y[10] - y_orig) < 1e-9  # y is linear, interp restores it


class TestStandardize:
    def test_known_zscores(self):
        np.testing.assert_allclose(zscore(np.array([1.0, 2.0, 3.0])), [-1.2247, 0.0, 1.2247], atol=1e-4)

    def test_constant_channel_maps_to_zeros(self):
        np.testing.assert_array_equal(zscore(np.full(5, 0.7)), np.zeros(5))

    def test_idempotent(self):
        once = zscore(make_record(50, seed=3).x)
        np.testing.assert_allclose(zscore(once), once, atol=1e-6)

    def test_rejects_missing_values(self):
        r = make_record(5, x=np.array([1.0, np.nan, 3.0, 4.0, 5.0]))
        with pytest.raises(ProtocolError, match="non-finite x channel in subject s1 task 1"):
            StrokeSequence(r.subject_id, r.task_id, r.label, r.t, r.x, r.y, r.p)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (dict(task_id=0), "task_id 0 outside 1..25"),
            (dict(label="XX"), "label 'XX' not one of"),
            (dict(p=np.ones(4)), r"channel lengths disagree: \[4, 5\]"),
            (dict(t=np.array([0.0, 5.0, 3.0, 8.0, 9.0])), "timestamps decrease in subject s1 task 1"),
        ],
    )
    def test_refuses_what_a_raw_record_refuses(self, overrides, message):
        fields = dict(vars(make_record(5)), **overrides)
        for cls in (RawRecord, StrokeSequence):
            with pytest.raises(ProtocolError, match="^" + message):
                cls(**fields)

    @given(st.integers(0, 2**32 - 1), st.integers(6, 200))
    @settings(max_examples=30, deadline=None)
    def test_moments_property(self, seed, n):
        rng = np.random.default_rng(seed)
        for v in (rng.normal(5, 3, size=n), rng.uniform(-10, 10, size=n), rng.uniform(0, 1, size=n)):
            z = zscore(v)
            assert abs(z.mean()) < 1e-6
            assert abs(z.std() - 1.0) < 1e-6


class TestDropIncomplete:
    def test_short_record_dropped_others_kept(self):
        good = make_record(20, task_id=1)
        short = make_record(3, task_id=8)
        kept = preprocess([good, short])
        assert [s.task_id for s in kept] == [1]

    def test_unsalvageable_channel_dropped(self):
        bad = make_record(10, x=np.full(10, np.nan))
        assert preprocess([bad, make_record(10, task_id=2)]) != []
        assert len(preprocess([bad])) == 0

    def test_record_blanked_by_outlier_repair_dropped(self, caplog):
        # x, y and p each flag a different stretch; together they cover all 40 samples
        rng = np.random.default_rng(3)
        x, y, p = rng.normal(scale=1e-3, size=(3, 40))
        x[:18] += 100.0
        y[18:36] += 100.0
        p[36:] += 100.0
        blanked = make_record(40, task_id=2, x=x, y=y, p=p + 0.5)
        kept = preprocess([make_record(20, task_id=1), blanked])
        assert [s.task_id for s in kept] == [1]
        assert [rec.getMessage() for rec in caplog.records] == [
            "s1 task 02: 40 of 40 samples flagged as outliers",
            "s1 task 02: dropped (outlier repair flags 40 of 40 samples, fewer than 2 left to refill from)",
        ]

    def test_identity_when_complete(self):
        recs = [make_record(10, seed=i, task_id=i + 1) for i in range(3)]
        kept = preprocess(recs)
        assert len(kept) == len(recs)
        for seq, r in zip(kept, recs):
            np.testing.assert_array_equal(seq.t, r.t)

    def test_empty_input(self):
        assert preprocess([]) == []


class TestRepeatedBlocks:
    def test_repeat_dropped_and_the_first_block_kept(self, caplog):
        from hsda.train import build_dataset

        first, again = make_record(20, seed=0), make_record(20, seed=1)
        kept = preprocess([first, again, make_record(20, seed=2, task_id=2)])
        assert [s.task_id for s in kept] == [1, 2]
        np.testing.assert_array_equal(kept[0].x, first.x)
        assert [rec.getMessage() for rec in caplog.records] == ["s1 task 01: dropped (repeats an earlier block)"]
        assert len(build_dataset(preprocess([first, again]), canvas_size=16)) == 1

    def test_repeat_of_a_dropped_block_also_dropped(self, caplog):
        kept = preprocess([make_record(3), make_record(20)])
        assert kept == []
        assert [rec.getMessage() for rec in caplog.records] == [
            "s1 task 01: dropped (too few valid samples)",
            "s1 task 01: dropped (repeats an earlier block)",
        ]

    def test_same_task_of_another_subject_kept(self):
        assert len(preprocess([make_record(20), make_record(20, subject_id="s2")])) == 2


class TestDuplicateTimes:
    def test_repeated_timestamp_merged_by_finite_mean(self):
        r = make_record(
            n=6,
            t=np.array([0.0, 5.0, 5.0, 5.0, 10.0, 15.0]),
            x=np.array([0.0, 1.0, 2.0, np.nan, 4.0, 5.0]),
            y=np.array([0.0, np.nan, np.nan, np.nan, 4.0, 5.0]),
        )
        merged = merge_duplicate_times(r)
        np.testing.assert_array_equal(merged.t, [0.0, 5.0, 10.0, 15.0])
        np.testing.assert_array_equal(merged.x, [0.0, 1.5, 4.0, 5.0])
        # no finite value at t=5: left missing for impute_missing
        assert np.isnan(merged.y[1])
        np.testing.assert_array_equal(merged.p, [r.p[0], r.p[1:4].mean(), r.p[4], r.p[5]])

    def test_strictly_increasing_record_unchanged(self):
        r = make_record()
        assert merge_duplicate_times(r) is r

    def test_repeated_timestamp_reaches_the_dataset(self, tmp_path):
        from hsda.features import kinematic_features
        from hsda.train import build_dataset

        lines = ["s8,2,HC"]
        rng = np.random.default_rng(2)
        for i in range(30):
            t = 5 * (i - 1) if i == 7 else 5 * i  # sample 7 repeats sample 6's time
            lines.append("%d,%.3f,%.3f,%.3f" % (t, rng.normal(), rng.normal(), rng.uniform(0, 1)))
        seqs = preprocess(parse_raw(write(tmp_path, "\n".join(lines) + "\n")))
        assert len(seqs) == 1 and len(seqs[0]) == 29
        assert np.all(np.diff(seqs[0].t) > 0)
        signal = kinematic_features(seqs[0])
        assert np.all(np.isfinite(signal.channels))
        (sample,) = build_dataset([seqs[0]], canvas_size=16)
        assert sample.signal.shape == (9, 29) and sample.label == 0


class TestNearTheFloatLimit:
    SPIKE = [0.0, 0.001, 0.002, 1e308, 0.004, 0.005, 0.006]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "rows,kept_x",
        [
            # the mean of two finite duplicates overflows; the neighbours refill it
            (
                ["0,5.807057466192068e+307,0,0.5", "0,1.216987388243109e+308,0,0.5"]
                + ["%d,%.1f,%.1f,0.5" % (5 * i, 0.1 * i, 0.2 * i) for i in range(1, 9)],
                [0.1, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8],
            ),
            (["0,5.807057466192068e+307,0,0", "0,1.216987388243109e+308,0,0"], None),
            # the median of the two middle values overflows
            (
                ["%d,%r,%d,0.5" % (5 * i, v, i) for i, v in enumerate([1.7e308] * 3 + [1.6e308, -1e308, 0.0])],
                [1.7e308] * 3 + [1.6e308, -1e308, 0.0],
            ),
            # the spike's robust z-score overflows, and the spike is still repaired
            (["%d,%r,%d,0.5" % (5 * i, v, i) for i, v in enumerate(SPIKE)], [0.001 * i for i in range(7)]),
        ],
        ids=["duplicate-sum", "duplicates-only", "median", "spike"],
    )
    def test_block_becomes_a_sample_or_a_drop(self, tmp_path, rows, kept_x):
        (record,) = parse_raw(write(tmp_path, "b,1,HC\n" + "\n".join(rows) + "\n"))
        kept = preprocess([record])
        if kept_x is None:
            assert kept == []
        else:
            np.testing.assert_array_equal(kept[0].x, kept_x)


class TestPipeline:
    def test_end_to_end_dense_standardized(self, tmp_path):
        lines = ["s7,3,AD"]
        rng = np.random.default_rng(1)
        for i in range(40):
            x = "" if i == 11 else "%.3f" % rng.normal()
            lines.append("%d,%s,%.3f,%.3f" % (i * 5, x, rng.normal(), rng.uniform(0, 1)))
        path = write(tmp_path, "\n".join(lines) + "\n")
        (raw,) = parse_raw(path)
        seqs = preprocess([raw])
        assert len(seqs) == 1
        s = seqs[0]
        assert LABEL_TO_INDEX[s.label] == 1
        # the trace keeps its recorded units; the model inputs are standardized
        assert np.isfinite(s.x[11])
        np.testing.assert_array_equal(np.delete(s.x, 11), np.delete(raw.x, 11))
        np.testing.assert_array_equal(s.y, raw.y)
        np.testing.assert_array_equal(s.p, raw.p)
        for row in kinematic_features(s).channels:
            assert abs(row.mean()) < 1e-6
