"""CLI argument handling, report/plot formats, end-to-end runs, exit codes."""

import errno
import io
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wavequant
from wavequant import MetricsRecord, RgbImage, pipeline, read_image, write_image
from wavequant.cli import main, parse_args, write_plot_data, write_report
from conftest import natural_image


def record(image="photo", wavelet="db2", levels=3, psnr=34.45, size=37069):
    return MetricsRecord(image, wavelet, levels, psnr, size)


@pytest.fixture()
def corpus(tmp_path):
    paths = []
    for i, seed in enumerate((31, 32)):
        img = natural_image(16, seed=seed)
        path = tmp_path / f"img{i}.ppm"
        path.write_bytes(write_image(img))
        paths.append(path)
    return paths


# --- parse_args ---

def test_defaults(corpus):
    args = parse_args([str(corpus[0])])
    assert args.inputs == [corpus[0]]
    assert args.wavelets == [
        "db2", "db4", "db6", "db8", "coif1", "coif2", "coif3", "coif4", "coif5"
    ]
    assert args.levels == [3, 5, 7]
    assert args.depth == 1
    assert args.report == Path("report.csv")
    assert args.plot is None and args.emit_images is None


def test_explicit_grid(corpus):
    args = parse_args(
        ["--wavelets", "db2,coif5", "--levels", "3", "--report", "r.csv",
         str(corpus[0])]
    )
    assert args.wavelets == ["db2", "coif5"]
    assert args.levels == [3]
    assert args.report == Path("r.csv")


def test_invalid_level_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        parse_args(["--levels", "4", "--report", "r.csv", "x.ppm"])
    assert exc.value.code == 2
    assert "levels must be in {3, 5, 7}" in capsys.readouterr().err


@pytest.mark.parametrize("text, bad", [("x", "x"), ("3, x ", "x"), ("3,,5", ""), ("", "")])
def test_non_integer_level_is_usage_error(capsys, text, bad):
    with pytest.raises(SystemExit) as exc:
        parse_args(["--levels", text, "--report", "r.csv", "x.ppm"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"invalid level {bad!r}; levels must be in {{3, 5, 7}}" in err
    assert err.startswith("usage: ")


def test_module_entry_point_runs_main():
    env = dict(os.environ, PYTHONPATH=str(Path(wavequant.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "wavequant.cli", "--levels", "4", "x.ppm"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert "levels must be in {3, 5, 7}" in proc.stderr


def test_package_entry_point_runs_main(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(wavequant.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "wavequant", "--levels", "4", "x.ppm"],
        capture_output=True, text=True, env=env, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode == 2
    assert "levels must be in {3, 5, 7}" in proc.stderr
    assert proc.stderr.startswith("usage: wavequant")


def test_invalid_wavelet_lists_supported_names(capsys):
    with pytest.raises(SystemExit) as exc:
        parse_args(["--wavelets", "db3", "--report", "r.csv", "x.ppm"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "db3" in err and "coif5" in err


def test_repeated_wavelet_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        parse_args(["--wavelets", "db2,coif1,DB2", "--report", "r.csv", "x.ppm"])
    assert exc.value.code == 2
    assert "wavelet db2 is repeated" in capsys.readouterr().err


def test_repeated_level_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        parse_args(["--levels", "3,5,3", "--report", "r.csv", "x.ppm"])
    assert exc.value.code == 2
    assert "level 3 is repeated" in capsys.readouterr().err


def test_unknown_flag_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        parse_args(["--bogus", "--report", "r.csv", "x.ppm"])
    assert exc.value.code == 2


def test_missing_inputs_rejected(capsys):
    with pytest.raises(SystemExit):
        parse_args(["--report", "r.csv"])


def test_parse_args_requires_positive_depth(capsys):
    with pytest.raises(SystemExit):
        parse_args(["--depth", "0", "--report", "r.csv", "x.ppm"])


# --- write_report ---

def test_report_single_row_format():
    assert write_report([record()]) == (
        b"image,wavelet,levels,psnr_db,size_bytes\n"
        b"photo,db2,3,34.45,37069\n"
    )


def test_report_infinity_sentinel():
    assert b"photo,db2,3,inf,37069" in write_report([record(psnr=float("inf"))])


def test_report_line_count_and_endings():
    records = [
        record(wavelet=w, levels=lvl)
        for w in ("db2", "db4", "db6", "db8", "coif1", "coif2", "coif3", "coif4", "coif5")
        for lvl in (3, 5, 7)
    ]
    data = write_report(records)
    assert data.count(b"\n") == 28
    assert b"\r" not in data


def test_report_roundtrips_through_csv():
    import csv

    records = [
        record(levels=3),
        record(wavelet="coif4", levels=7, psnr=41.0, size=10),
        record(image='c,d "e"'),
    ]
    text = write_report(records).decode("utf-8")
    rows = list(csv.DictReader(io.StringIO(text, newline="")))
    assert len(rows) == 3
    for rec, row in zip(records, rows):
        assert row["image"] == rec.image_id
        assert row["wavelet"] == rec.wavelet
        assert int(row["levels"]) == rec.levels
        assert float(row["psnr_db"]) == pytest.approx(rec.psnr_db, abs=0.005)
        assert int(row["size_bytes"]) == rec.size_bytes


def test_report_rejects_empty():
    with pytest.raises(ValueError, match="no records"):
        write_report([])


# --- write_plot_data ---

def full_grid(image="photo"):
    names = ("db2", "db4", "db6", "db8", "coif1", "coif2", "coif3", "coif4", "coif5")
    return [
        record(image=image, wavelet=w, levels=lvl, psnr=30.0 + i + lvl)
        for i, w in enumerate(names)
        for lvl in (3, 5, 7)
    ]


def test_plot_data_full_grid():
    lines = write_plot_data(full_grid()).decode("utf-8").splitlines()
    assert len(lines) == 4
    assert lines[0].split() == [
        "level", "db2", "db4", "db6", "db8",
        "coif1", "coif2", "coif3", "coif4", "coif5",
    ]
    assert lines[1].split()[0] == "3"
    assert lines[3].split() == ["7", "37.00", "38.00", "39.00", "40.00", "41.00",
                                "42.00", "43.00", "44.00", "45.00"]


def test_plot_data_single_wavelet_grid():
    records = [record(wavelet="db4", levels=lvl) for lvl in (3, 5, 7)]
    lines = write_plot_data(records).decode("utf-8").splitlines()
    assert lines[0].split() == ["level", "db4"]
    assert all(len(line.split()) == 2 for line in lines[1:])


def test_plot_data_missing_combination():
    records = [r for r in full_grid() if not (r.wavelet == "coif2" and r.levels == 5)]
    with pytest.raises(ValueError, match="coif2/5"):
        write_plot_data(records)


def test_plot_data_rejects_multiple_images():
    records = full_grid("a") + full_grid("b")
    with pytest.raises(ValueError, match="one image"):
        write_plot_data(records)


def test_plot_data_rejects_empty():
    with pytest.raises(ValueError, match="no records to plot"):
        write_plot_data([])


# --- end to end ---

def test_main_writes_report_and_plot(tmp_path, corpus, capsys):
    report = tmp_path / "out.csv"
    plot = tmp_path / "out.dat"
    rc = main([
        "--wavelets", " DB2,Coif1", "--levels", "3,5",
        "--report", str(report), "--plot", str(plot), str(corpus[0]),
    ])
    assert rc == 0
    lines = report.read_text().splitlines()
    assert lines[0] == "image,wavelet,levels,psnr_db,size_bytes"
    assert len(lines) == 5
    assert all(line.startswith("img0,") for line in lines[1:])
    assert [line.split(",")[1] for line in lines[1:]] == ["db2", "db2", "coif1", "coif1"]
    assert len(plot.read_text().splitlines()) == 3  # header + levels 3 and 5


def test_main_multiple_inputs_concatenate_in_order(tmp_path, corpus):
    report = tmp_path / "out.csv"
    rc = main(["--wavelets", "db2", "--levels", "3", "--report", str(report),
               str(corpus[0]), str(corpus[1])])
    assert rc == 0
    rows = report.read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["img0", "img1"]


def test_main_emit_images(tmp_path, corpus):
    out_dir = tmp_path / "recon"
    rc = main(["--wavelets", "db2", "--levels", "3,7",
               "--report", str(tmp_path / "r.csv"),
               "--emit-images", str(out_dir), str(corpus[0])])
    assert rc == 0
    names = sorted(p.name for p in out_dir.iterdir())
    assert names == ["img0_db2_L3.ppm", "img0_db2_L7.ppm"]
    emitted = read_image((out_dir / "img0_db2_L3.ppm").read_bytes())
    assert (emitted.width, emitted.height) == (16, 16)


def test_main_missing_input_fails_with_diagnostic(tmp_path, capsys):
    rc = main(["--report", str(tmp_path / "r.csv"), str(tmp_path / "nope.ppm")])
    assert rc == 1
    assert "nope.ppm" in capsys.readouterr().err


def test_main_malformed_image_fails(tmp_path, capsys):
    bad = tmp_path / "bad.ppm"
    bad.write_bytes(b"P6\n4 4\n65535\n" + bytes(48))
    rc = main(["--report", str(tmp_path / "r.csv"), str(bad)])
    assert rc == 1
    assert "maxval" in capsys.readouterr().err


def test_main_trailing_bytes_fail_naming_the_file(tmp_path, capsys):
    two = tmp_path / "two.ppm"
    one = write_image(RgbImage(np.zeros((4, 4, 3), dtype=np.uint8)))
    two.write_bytes(one + one)
    rc = main(["--report", str(tmp_path / "r.csv"), str(two)])
    assert rc == 1
    assert f"{two}: {len(one)} bytes after the raster" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


def test_main_indivisible_image_fails_with_context(tmp_path, capsys):
    arr = np.zeros((6, 6, 3), dtype=np.uint8)  # 6x6: not divisible by 2^2
    odd = tmp_path / "odd.ppm"
    odd.write_bytes(write_image(RgbImage(arr)))
    rc = main(["--depth", "2", "--report", str(tmp_path / "r.csv"), str(odd)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "odd" in err and "divisible" in err


def test_main_plot_with_multiple_inputs_fails(tmp_path, corpus, capsys):
    rc = main(["--wavelets", "db2", "--levels", "3",
               "--report", str(tmp_path / "r.csv"),
               "--plot", str(tmp_path / "p.dat"),
               str(corpus[0]), str(corpus[1])])
    assert rc == 1
    assert "--plot" in capsys.readouterr().err


# --- fail fast: every input is checked before any compute or output ---

def assert_nothing_written(tmp_path, out_dir):
    assert not (tmp_path / "r.csv").exists()
    assert not out_dir.exists() or not any(out_dir.iterdir())


def test_main_rejects_duplicate_stems_naming_both_paths(tmp_path, corpus, capsys):
    other = tmp_path / "b" / "img0.ppm"
    other.parent.mkdir()
    other.write_bytes(corpus[1].read_bytes())
    out_dir = tmp_path / "recon"
    rc = main(["--wavelets", "db2", "--levels", "3", "--report", str(tmp_path / "r.csv"),
               "--emit-images", str(out_dir), str(corpus[0]), str(other)])
    assert rc == 1
    err = capsys.readouterr().err
    assert str(corpus[0]) in err and str(other) in err and "img0" in err
    assert_nothing_written(tmp_path, out_dir)


def test_main_truncated_later_input_fails_before_any_output(tmp_path, corpus, capsys):
    trunc = tmp_path / "trunc.ppm"
    trunc.write_bytes(corpus[1].read_bytes()[:-10])
    out_dir = tmp_path / "recon"
    rc = main(["--report", str(tmp_path / "r.csv"), "--emit-images", str(out_dir),
               str(corpus[0]), str(trunc)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "trunc.ppm" in err and "truncated" in err
    assert_nothing_written(tmp_path, out_dir)


def test_main_indivisible_later_input_fails_before_any_output(tmp_path, corpus, capsys):
    odd = tmp_path / "odd.ppm"
    odd.write_bytes(write_image(RgbImage(np.zeros((12, 12, 3), dtype=np.uint8))))
    out_dir = tmp_path / "recon"
    rc = main(["--depth", "3", "--report", str(tmp_path / "r.csv"),
               "--emit-images", str(out_dir), str(corpus[0]), str(odd)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "odd.ppm" in err and "divisible by 2^depth = 8" in err
    assert_nothing_written(tmp_path, out_dir)


# --- outputs: staged beside their destination before any compute, then replaced ---

@pytest.mark.parametrize(
    "outputs, message",
    ((["--report", "out.csv", "--emit-images", "out.csv"],
      "--report and --emit-images both name out.csv"),
     (["--report", "r.csv", "--plot", "r.csv"], "--report and --plot both name r.csv"),
     (["--report", "r.csv", "--plot", "p.dat", "--emit-images", "sub/../p.dat"],
      "--plot and --emit-images both name sub/../p.dat"),
     (["--report", "r.csv", "--emit-images", "a.ppm"],
      "cannot create --emit-images directory a.ppm: "),
     # a.ppm is also an input: no output may replace one
     (["--report", "a.ppm", "a.ppm"], "an input and --report both name a.ppm"),
     (["--report", "r.csv", "--plot", "sub/../a.ppm", "a.ppm"],
      "an input and --plot both name sub/../a.ppm"),
     (["--report", "r.csv", "--emit-images", "a.ppm", "a.ppm"],
      "an input and --emit-images both name a.ppm"),
     ),
    ids=("report-is-emit", "report-is-plot", "plot-is-emit", "emit-is-a-file",
         "report-is-input", "plot-is-input", "emit-is-input"),
)
def test_main_unusable_output_paths_fail_before_any_compute(
    tmp_path, corpus, capsys, monkeypatch, outputs, message
):
    (tmp_path / "a.ppm").write_bytes(b"kept")
    calls = []
    monkeypatch.setattr(pipeline, "dwt2d", lambda *args: calls.append(args))
    monkeypatch.chdir(tmp_path)
    rc = main(["--wavelets", "db2", "--levels", "3", *outputs, str(corpus[0])])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert calls == []
    # no report, plot data, emit directory or staged temp file is left
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.ppm", "img0.ppm", "img1.ppm"]
    assert (tmp_path / "a.ppm").read_bytes() == b"kept"


@pytest.mark.parametrize(
    "outputs, inputs, message",
    ((["--report", "img0.ppm"], ["img0.ppm"], "an input and --report both name img0.ppm"),
     (["--report", "r.csv", "--plot", "./img0.ppm"], ["img0.ppm"],
      "an input and --plot both name img0.ppm"),
     (["--report", "link.csv"], ["img0.ppm"], "an input and --report both name link.csv"),
     (["--report", "r.csv", "--emit-images", "."], ["img1.ppm", "img1_db2_L3.ppm"],
      "an input and --emit-images both name img1_db2_L3.ppm"),
     (["--report", "img0_db2_L3.ppm", "--emit-images", "."], ["img0.ppm"],
      "--report and --emit-images both name img0_db2_L3.ppm")),
    ids=("report", "plot", "report-symlink", "emitted-image", "report-is-emitted-image"),
)
def test_main_output_that_would_replace_an_input_fails_before_any_compute(
    tmp_path, corpus, capsys, monkeypatch, outputs, inputs, message
):
    (tmp_path / "img1_db2_L3.ppm").write_bytes(corpus[1].read_bytes())
    (tmp_path / "link.csv").symlink_to("img0.ppm")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    calls = []
    monkeypatch.setattr(pipeline, "dwt2d", lambda *args: calls.append(args))
    monkeypatch.chdir(tmp_path)
    rc = main(["--wavelets", "db2", "--levels", "3", *outputs, *inputs])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert calls == []
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_main_emitted_image_path_that_is_a_directory_fails_before_any_compute(
    tmp_path, corpus, capsys, monkeypatch
):
    out_dir = tmp_path / "out"
    blocked = out_dir / "img0_db4_L3.ppm"
    blocked.mkdir(parents=True)
    calls = []
    monkeypatch.setattr(pipeline, "dwt2d", lambda *args: calls.append(args))
    rc = main(["--wavelets", "db2,db4", "--levels", "3", "--report", str(tmp_path / "r.csv"),
               "--emit-images", str(out_dir), str(corpus[0])])
    assert rc == 1
    assert f"cannot write --emit-images {blocked}: is a directory" in capsys.readouterr().err
    assert calls == []
    # no emitted image, report or staged temp file
    assert list(out_dir.iterdir()) == [blocked] and not any(blocked.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == ["img0.ppm", "img1.ppm", "out"]


def test_main_failed_sweep_leaves_the_emit_directory_as_it_was(
    tmp_path, corpus, capsys, monkeypatch
):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    (out_dir / "older.ppm").write_bytes(b"older")
    idwt2d = pipeline.idwt2d

    def failing_on_db4(dec, fb):
        if fb.name == "db4":
            raise ValueError("injected")
        return idwt2d(dec, fb)

    monkeypatch.setattr(pipeline, "idwt2d", failing_on_db4)
    rc = main(["--wavelets", "db2,db4", "--levels", "3", "--report", str(tmp_path / "r.csv"),
               "--emit-images", str(out_dir), str(corpus[0])])
    assert rc == 1
    assert "processing failed for image=img0 wavelet=db4" in capsys.readouterr().err
    # db2's image was delivered before the failure, yet only staged: none is left
    assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == {"older.ppm": b"older"}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["img0.ppm", "img1.ppm", "out"]
    assert list(tmp_path.rglob("*.tmp")) == []


def test_main_failed_sweep_removes_the_emit_directories_it_made(
    tmp_path, corpus, capsys, monkeypatch
):
    kept = tmp_path / "kept"
    kept.mkdir()
    (kept / "older.ppm").write_bytes(b"older")

    def failing(dec, fb):
        raise ValueError("injected")

    monkeypatch.setattr(pipeline, "idwt2d", failing)
    rc = main(["--wavelets", "db2", "--levels", "3", "--report", str(tmp_path / "r.csv"),
               "--emit-images", str(kept / "new" / "deeper"), str(corpus[0])])
    assert rc == 1
    assert "processing failed for image=img0 wavelet=db2" in capsys.readouterr().err
    # kept/new and kept/new/deeper are gone; kept existed and keeps its file
    assert {p.name: p.read_bytes() for p in kept.iterdir()} == {"older.ppm": b"older"}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["img0.ppm", "img1.ppm", "kept"]


def test_main_successful_run_keeps_the_emit_directories_it_made(tmp_path, corpus):
    out_dir = tmp_path / "new" / "deeper"
    rc = main(["--wavelets", "db2", "--levels", "3", "--report", str(tmp_path / "r.csv"),
               "--emit-images", str(out_dir), str(corpus[0])])
    assert rc == 0
    assert [p.name for p in out_dir.iterdir()] == ["img0_db2_L3.ppm"]
    assert list(tmp_path.rglob("*.tmp")) == []


def test_main_input_whose_image_id_is_not_utf8_fails_before_any_compute(
    tmp_path, corpus, capsys, monkeypatch
):
    # a name byte that is not UTF-8 decodes to a lone surrogate, which the report cannot encode
    bad = tmp_path / os.fsdecode(b"\xff\xfe.ppm")
    try:
        bad.write_bytes(corpus[0].read_bytes())
    except OSError:
        pytest.skip("the filesystem refuses a file name that is not UTF-8")
    calls = []
    monkeypatch.setattr(pipeline, "dwt2d", lambda *args: calls.append(args))
    rc = main(["--wavelets", "db2", "--levels", "3", "--report", str(tmp_path / "r.csv"),
               "--emit-images", str(tmp_path / "em"), str(corpus[1]), str(bad)])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"input {os.fsencode(bad)!r}: its image id is not UTF-8" in err
    assert calls == []
    # no report, emit directory or staged temp file
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["img0.ppm", "img1.ppm", bad.name]
    )


@pytest.mark.parametrize("dest", ("missing/r.csv", "existing_dir"))
def test_main_unwritable_report_fails_before_any_output(tmp_path, corpus, capsys, dest):
    (tmp_path / "existing_dir").mkdir()
    report = tmp_path / dest
    out_dir = tmp_path / "recon"
    rc = main(["--wavelets", "db2", "--levels", "3", "--report", str(report),
               "--emit-images", str(out_dir), str(corpus[0])])
    assert rc == 1
    assert f"cannot write report {report}" in capsys.readouterr().err
    assert not out_dir.exists()


def test_main_unwritable_plot_keeps_existing_report(tmp_path, corpus, capsys):
    report = tmp_path / "r.csv"
    assert main(["--wavelets", "db2", "--levels", "3", "--report", str(report),
                 str(corpus[0])]) == 0
    before = report.read_bytes()
    plot = tmp_path / "missing" / "p.dat"
    rc = main(["--wavelets", "db4", "--levels", "5", "--report", str(report),
               "--plot", str(plot), str(corpus[0])])
    assert rc == 1
    assert f"cannot write plot data {plot}" in capsys.readouterr().err
    assert report.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["img0.ppm", "img1.ppm", "r.csv"]


# --- a failed make, write or move names the destination and changes no output ---

OLD_OUTPUTS = {"r.csv": b"old report", "p.dat": b"old plot", "out/img0_db2_L3.ppm": b"old image"}


def run_over_old_outputs(tmp_path, corpus):
    """main over OLD_OUTPUTS, written first, with every output of one db2/L3 run."""
    (tmp_path / "out").mkdir()
    for name, data in OLD_OUTPUTS.items():
        (tmp_path / name).write_bytes(data)
    return main(["--wavelets", "db2", "--levels", "3", "--report", str(tmp_path / "r.csv"),
                 "--plot", str(tmp_path / "p.dat"), "--emit-images", str(tmp_path / "out"),
                 str(corpus[0])])


@pytest.mark.parametrize(
    "name, what",
    (("r.csv", "report"), ("p.dat", "plot data"), ("out/img0_db2_L3.ppm", "--emit-images")),
    ids=("report", "plot", "emitted-image"),
)
def test_main_failed_write_names_the_destination(
    tmp_path, corpus, capsys, monkeypatch, name, what
):
    dest = tmp_path / name
    open_ = Path.open

    def open_on_a_full_disk(self, mode="r", *args, **kwargs):
        # dest's staged temp file is made, but writing to it fails
        if "w" in mode and self.name.startswith(f".{dest.name}."):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return open_(self, mode, *args, **kwargs)

    monkeypatch.setattr(Path, "open", open_on_a_full_disk)
    assert run_over_old_outputs(tmp_path, corpus) == 1
    assert f"cannot write {what} {dest}: [Errno 28] " in capsys.readouterr().err
    assert list(tmp_path.rglob("*.tmp")) == []
    assert {name: (tmp_path / name).read_bytes() for name in OLD_OUTPUTS} == OLD_OUTPUTS


def test_main_failed_move_names_the_destination(tmp_path, corpus, capsys, monkeypatch):
    dest = tmp_path / "out" / "img0_db2_L3.ppm"
    replace = os.replace

    def replace_failing_on_dest(src, dst):
        if Path(dst) == dest:
            raise OSError(errno.EIO, os.strerror(errno.EIO))
        replace(src, dst)

    monkeypatch.setattr(os, "replace", replace_failing_on_dest)
    assert run_over_old_outputs(tmp_path, corpus) == 1
    assert f"cannot write --emit-images {dest}: [Errno 5] " in capsys.readouterr().err
    # the emitted images move first, so the report and the plot data stay staged
    assert list(tmp_path.rglob("*.tmp")) == []
    assert {name: (tmp_path / name).read_bytes() for name in OLD_OUTPUTS} == OLD_OUTPUTS


@pytest.mark.parametrize("old", (b"old", None), ids=("existing-target", "dangling-link"))
def test_main_outputs_named_through_a_symlink_are_written_to_its_target(tmp_path, corpus, old):
    links = {"link.csv": "data/r.csv", "link.dat": "data/p.dat",
             "out/img0_db2_L3.ppm": "../data/img0_db2_L3.ppm"}
    (tmp_path / "data").mkdir()
    (tmp_path / "out").mkdir()
    for link, target in links.items():
        (tmp_path / link).symlink_to(target)
        if old is not None:
            (tmp_path / link).write_bytes(old)
    grid = ["--wavelets", "db2", "--levels", "3", str(corpus[0])]
    assert main(["--report", str(tmp_path / "link.csv"), "--plot", str(tmp_path / "link.dat"),
                 "--emit-images", str(tmp_path / "out"), *grid]) == 0
    plain = tmp_path / "plain"
    plain.mkdir()
    assert main(["--report", str(plain / "r.csv"), "--plot", str(plain / "p.dat"),
                 "--emit-images", str(plain), *grid]) == 0
    for link, target in links.items():
        assert os.readlink(tmp_path / link) == target
        name = Path(target).name
        assert (tmp_path / "data" / name).read_bytes() == (plain / name).read_bytes()
    assert list(tmp_path.rglob("*.tmp")) == []


def test_main_temp_file_left_by_a_killed_run_does_not_block_the_next(tmp_path, corpus):
    # a killed run leaves its temp file; a later process may get the same pid
    stale = tmp_path / f".r.csv.{os.getpid()}.tmp"
    stale.write_bytes(b"left behind")
    report = tmp_path / "r.csv"
    assert main(["--wavelets", "db2", "--levels", "3", "--report", str(report),
                 str(corpus[0])]) == 0
    assert report.read_bytes().startswith(b"image,wavelet,levels,psnr_db,size_bytes\n")
    assert stale.read_bytes() == b"left behind"


def test_main_outputs_have_the_mode_the_umask_gives(tmp_path, corpus):
    umask = os.umask(0o027)
    try:
        rc = run_over_old_outputs(tmp_path, corpus)
    finally:
        os.umask(umask)
    assert rc == 0
    # replaced, not rewritten: each output is a new file, made under the umask
    assert {name: stat.S_IMODE((tmp_path / name).stat().st_mode) for name in OLD_OUTPUTS} == {
        name: 0o666 & ~0o027 for name in OLD_OUTPUTS
    }


# --- each path is resolved once, before any input is read ---


def test_main_output_is_written_to_the_target_checked_though_its_link_changed_since(
    tmp_path, corpus, monkeypatch
):
    (tmp_path / "data").mkdir()
    (tmp_path / "a.ppm").write_bytes(corpus[0].read_bytes())
    link = tmp_path / "link.csv"
    link.symlink_to("data/r.csv")
    read_input = wavequant.cli._read_input

    def read_then_retarget(path, depth):
        img = read_input(path, depth)
        link.unlink()
        link.symlink_to("a.ppm")  # now it names the input, which the check refused
        return img

    monkeypatch.setattr(wavequant.cli, "_read_input", read_then_retarget)
    monkeypatch.chdir(tmp_path)
    assert main(["--wavelets", "db2", "--levels", "3", "--report", "link.csv", "a.ppm"]) == 0
    assert (tmp_path / "a.ppm").read_bytes() == corpus[0].read_bytes()
    assert (tmp_path / "data" / "r.csv").read_bytes().startswith(
        b"image,wavelet,levels,psnr_db,size_bytes\na,db2,3,"
    )
    assert list(tmp_path.rglob("*.tmp")) == []


def tree(root):
    """Every path under root: a link's target, a file's bytes, or None for a directory."""
    return {
        str(p.relative_to(root)): os.readlink(p) if p.is_symlink()
        else None if p.is_dir() else p.read_bytes()
        for p in root.rglob("*")
    }


@pytest.mark.parametrize(
    "outputs, link, what",
    ((["--report", "a.csv", "--emit-images", "new"], "a.csv", "report"),
     (["--report", "r.csv", "--plot", "a.csv", "--emit-images", "new"], "a.csv", "plot data"),
     (["--report", "r.csv", "--emit-images", "out"], "out/img0_db2_L3.ppm", "--emit-images")),
    ids=("report", "plot", "emitted-image"),
)
def test_main_output_named_through_a_symlink_loop_fails_before_any_compute(
    tmp_path, corpus, capsys, monkeypatch, outputs, link, what
):
    first = tmp_path / link
    second = first.with_stem("b")  # first -> second -> first
    first.parent.mkdir(exist_ok=True)
    first.symlink_to(second.name)
    second.symlink_to(first.name)
    before = tree(tmp_path)
    calls = []
    monkeypatch.setattr(pipeline, "dwt2d", lambda *args: calls.append(args))
    monkeypatch.chdir(tmp_path)
    rc = main(["--wavelets", "db2", "--levels", "3", *outputs, str(corpus[0])])
    assert rc == 1
    assert f"wavequant: error: cannot write {what} {link}: symlink loop\n" in (
        capsys.readouterr().err
    )
    assert calls == []
    # both links as they were; no report, emit directory or staged temp file
    assert tree(tmp_path) == before


def test_main_input_named_through_a_symlink_loop_fails_before_any_compute(
    tmp_path, capsys, monkeypatch
):
    (tmp_path / "c.ppm").symlink_to("c.ppm")
    calls = []
    monkeypatch.setattr(pipeline, "dwt2d", lambda *args: calls.append(args))
    monkeypatch.chdir(tmp_path)
    rc = main(["--wavelets", "db2", "--levels", "3", "--report", "r.csv", "c.ppm"])
    assert rc == 1
    assert "wavequant: error: cannot read c.ppm: " in capsys.readouterr().err
    assert calls == []
    assert tree(tmp_path) == {"c.ppm": "c.ppm"}
