"""End-to-end checks of the experiment runner: exit codes, artifacts, manifests."""

import json
import os
import platform
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import unitdist.grids
from unitdist.cli import main, run_config
from unitdist.measure import _ATOM_BYTES
from unitdist.intervals import IntervalUnion


def _write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def _manifest(out):
    return json.loads((out / "manifest.json").read_text())


# ---------------------------------------------------------------------------
# happy paths, one per experiment kind
# ---------------------------------------------------------------------------


def test_count_triangle(tmp_path):
    cfg = _write(tmp_path / "c.json", {"set": {"kind": "triangle"}, "census": True})
    out = tmp_path / "run"
    assert main(["count", "--config", cfg, "--out", str(out)]) == 0

    header, row = (out / "counts.csv").read_text().splitlines()
    assert header == "label,d,n,eps,brute_count,grid_count,normalized"
    fields = row.split(",")
    assert fields[0] == "triangle"
    assert fields[4] == fields[5] == "6"

    census = json.loads((out / "census.json").read_text())
    assert census["edge_count"] == 6
    assert census["max_endpoint_fiber"] == 1

    man = _manifest(out)
    assert man["kind"] == "count"
    assert man["artifacts"] == ["census.json", "counts.csv"]
    assert man["config"]["set"] == {"kind": "triangle"}
    assert set(man["versions"]) == {"unitdist", "numpy", "python"}
    assert "threads" not in man
    assert man["exit_code"] == 0 and man["error"] is None
    assert man["wall_time_s"] >= 0.0


def test_frames_small(tmp_path):
    cfg = _write(tmp_path / "f.json", {"kind": "frames", "d": 2, "count": 50})
    out = tmp_path / "run"
    assert main(["frames", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["frames"] == 50
    assert summary["max_solutions"] <= 2
    assert summary["worst_residual"] <= 1e-9
    lines = (out / "frames.csv").read_text().splitlines()
    assert lines[0] == "index,d,section_offset,n_solutions,max_residual"
    assert len(lines) == 51  # header + rows


def test_frames_residual_checks_every_step(tmp_path, monkeypatch):
    # a solver whose last row b_d = b_1 + a_{d-1} leaves the unit sphere
    # must fail the residual gate
    import unitdist.cli as cli

    solve = cli.unit_frame_batch

    def last_row_off(A):
        sols = solve(A)
        sols.b[:, :, -1] *= 1.0 + 1e-6  # NaN past each frame's count stays NaN
        return sols

    monkeypatch.setattr(cli, "unit_frame_batch", last_row_off)
    cfg = _write(tmp_path / "f.json", {"kind": "frames", "d": 3, "count": 50})
    out = tmp_path / "run"
    assert main(["frames", "--config", cfg, "--out", str(out)]) == 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["worst_residual"] == pytest.approx(1e-6, rel=1e-3)


def test_cantor_stage_report(tmp_path):
    cfg = _write(
        tmp_path / "c.json", {"p": 1, "q": 2, "stage": 3, "delta": "2^-8"}
    )
    out = tmp_path / "run"
    assert main(["cantor", "--config", cfg, "--out", str(out)]) == 0
    stats = json.loads((out / "stats.json").read_text())
    assert stats["intervals"] == 8
    assert stats["total_length"] == "1/8"
    assert stats["dimension"] == 0.5
    # delta is below half the smallest gap, so fattening cannot merge anything
    assert stats["fattened_intervals"] == 8
    assert stats["fattened_length"] == "3/16"
    assert (out / "intervals.txt").read_text().strip()
    assert (out / "fattened.txt").exists()


def test_cantor_non_dyadic_writes_over_form(tmp_path):
    # C(2,3) has gaps of 1/6: its lattice is 1/(3 * 2^(3 stage))
    cfg = _write(tmp_path / "c.json", {"p": 2, "q": 3, "stage": 2, "delta": "2^-10"})
    out = tmp_path / "run"
    assert main(["cantor", "--config", cfg, "--out", str(out)]) == 0
    stats = json.loads((out / "stats.json").read_text())
    text = (out / "intervals.txt").read_text()
    assert text.splitlines()[0] == "intervals 16 over 192"
    fat = IntervalUnion.from_text((out / "fattened.txt").read_text())
    assert fat.n_intervals == stats["fattened_intervals"] == 16
    assert str(fat.total_length) == stats["fattened_length"]
    assert IntervalUnion.from_text(text).total_length == Fraction(stats["total_length"])


def test_sweep_in_bounds(tmp_path):
    cfg = _write(
        tmp_path / "s.json",
        {
            "axes": [
                {"kind": "cantor", "p": 1, "q": 2},
                {"kind": "interval", "lo": 0, "hi": 2},
            ],
            "deltas": ["2^-6", "2^-7", "2^-8", "2^-9"],
            "method": "grid",
            "alpha": 1.5,
        },
    )
    out = tmp_path / "run"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["withinBounds"] is True
    assert 1.8 <= verdict["dimEstimate"] <= 2.2
    assert verdict["fit"]["n_points"] >= 2
    assert (out / "scaling.csv").read_text().startswith(
        "label,d,alpha,delta,value,value_low,value_high"
    )


def test_one_axis_product_sweep_with_a_band_reaching_below_0(tmp_path):
    # at delta = 1/2, w = 2.5 the band 1 +- 5/4 starts at 0
    cfg = _write(
        tmp_path / "s.json",
        {
            "axes": [{"kind": "cantor", "p": 1, "q": 2, "shift": 1}],
            "deltas": ["2^-1", "2^-2", "2^-3"],
            "method": "product",
            "width_multiplier": 2.5,
        },
    )
    out = tmp_path / "run"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "scaling.csv").read_text().splitlines()
    assert rows[1] == "sweep,1,0.5,0.5,8.4375,8.4375,8.4375"


def test_sweep_escape_exits_2(tmp_path):
    # the full square carries far more unit pairs than a 2-dimensional
    # alpha-regular set is allowed to: the verdict must escape the bounds
    cfg = _write(
        tmp_path / "s.json",
        {
            "axes": [
                {"kind": "interval", "lo": 0, "hi": 1},
                {"kind": "interval", "lo": 0, "hi": 1},
            ],
            "deltas": ["2^-5", "2^-6", "2^-7", "2^-8"],
            "method": "grid",
        },
    )
    out = tmp_path / "run"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["withinBounds"] is False


def test_alpha_verify_threshold(tmp_path):
    base = {"p": 1, "q": 2, "delta": "2^-10", "samples": 500}
    ok = _write(tmp_path / "ok.json", {**base, "max_ratio": 8.0})
    bad = _write(tmp_path / "bad.json", {**base, "max_ratio": 0.001})
    assert main(["alpha-verify", "--config", ok, "--out", str(tmp_path / "a")]) == 0
    assert main(["alpha-verify", "--config", bad, "--out", str(tmp_path / "b")]) == 2
    rep = json.loads((tmp_path / "a" / "report.json").read_text())
    assert 0 < rep["sup_ratio"] <= 8.0
    assert rep["samples_tested"] == 500
    assert rep["alpha"] == 0.5


def test_spectral_run(tmp_path):
    cfg = _write(
        tmp_path / "s.json",
        {"p": 1, "q": 2, "delta_exps": [8, 10], "r_exps": [6], "max_abs_slope": 0.5},
    )
    out = tmp_path / "run"
    assert main(["spectral", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["scales"] == 2
    assert abs(summary["ratio_log_slope"]) <= 0.5
    assert (out / "energy.csv").read_text().count("\n") == 3
    assert (out / "convolution.csv").exists()


def test_spectral_slope_escape_exits_2(tmp_path):
    # at alpha = 0.3 the energy ratio of C(1,2) drifts with delta
    cfg = _write(
        tmp_path / "s.json",
        {"p": 1, "q": 2, "alpha": 0.3, "delta_exps": [8, 10, 12], "max_abs_slope": 0.05},
    )
    out = tmp_path / "run"
    assert main(["spectral", "--config", cfg, "--out", str(out)]) == 2
    summary = json.loads((out / "summary.json").read_text())
    assert abs(summary["ratio_log_slope"]) > 0.05


@pytest.mark.parametrize("delta_exps", [[8], []])
def test_spectral_with_fewer_than_two_scales_has_no_slope(tmp_path, delta_exps):
    # no fit: the slope is null, and a slope gate fails instead of passing
    spec = {"p": 1, "q": 2, "delta_exps": delta_exps}
    plain = _write(tmp_path / "a.json", spec)
    gated = _write(tmp_path / "b.json", {**spec, "max_abs_slope": 0.0})
    assert main(["spectral", "--config", plain, "--out", str(tmp_path / "a")]) == 0
    assert main(["spectral", "--config", gated, "--out", str(tmp_path / "b")]) == 2
    for out in (tmp_path / "a", tmp_path / "b"):
        summary = json.loads((out / "summary.json").read_text())
        assert summary["ratio_log_slope"] is None
        assert summary["scales"] == len(delta_exps)


def test_spectral_has_no_slope_over_one_repeated_scale(tmp_path, capsys):
    # two rows at one delta are not two scales: no line fits them
    cfg = _write(tmp_path / "c.json", {"p": 1, "q": 2, "delta_exps": [8, 8]})
    assert main(["spectral", "--config", cfg, "--out", str(tmp_path / "r")]) == 1
    assert capsys.readouterr().err == "error: a fit needs two distinct scales\n"


def test_failing_run_leaves_a_manifest_with_its_error(tmp_path, capsys):
    # counts.csv is written before the census hits its tuple cap
    cfg = _write(
        tmp_path / "c.json",
        {"set": {"kind": "two_circles", "n": 40, "seed": 3}, "census": True},
    )
    out = tmp_path / "run"
    assert main(["count", "--config", cfg, "--out", str(out)]) == 1
    assert "exceeds cap" in capsys.readouterr().err
    man = _manifest(out)
    assert man["artifacts"] == ["counts.csv"]
    assert sorted(p.name for p in out.iterdir()) == ["counts.csv", "manifest.json"]
    assert man["exit_code"] == 1
    assert "distinct-tuple enumeration" in man["error"]
    assert "exceeds cap" in man["error"]


def test_unexpected_error_leaves_a_manifest_and_propagates(tmp_path, monkeypatch):
    # an error the CLI does not report as a run error (here the certified
    # FFT counts' FloatingPointError) is re-raised, after the manifest
    import unitdist.cli as cli

    def runner(cfg, run):
        run.path("partial.csv").write_text("x\n1\n")
        raise FloatingPointError("FFT pair counts are not within 0.25 of integers")

    monkeypatch.setitem(cli._RUNNERS, "count", runner)
    cfg = _write(tmp_path / "c.json", {"set": {"kind": "triangle"}})
    out = tmp_path / "run"
    with pytest.raises(FloatingPointError):
        main(["count", "--config", cfg, "--out", str(out)])
    man = _manifest(out)
    assert man["artifacts"] == ["partial.csv"]
    assert man["exit_code"] == 1
    assert man["error"] == (
        "FloatingPointError: FFT pair counts are not within 0.25 of integers"
    )


def test_config_error_manifest_names_the_field(tmp_path):
    cases = [
        ("cantor", {"p": 1, "stage": 3}, "missing required field 'q'"),
        # the config's out is read before the run starts; --out still
        # gives the manifest a directory
        ("frames", {"d": 2, "count": 3, "out": 5}, "field 'out' in frames config"),
    ]
    for k, (kind, spec, message) in enumerate(cases):
        cfg = _write(tmp_path / f"c{k}.json", spec)
        out = tmp_path / f"run{k}"
        assert main([kind, "--config", cfg, "--out", str(out)]) == 1
        man = _manifest(out)
        assert man["artifacts"] == [] and man["exit_code"] == 1
        assert message in man["error"]


def test_empty_points_axis_is_refused_before_any_scale_runs(tmp_path, capsys, monkeypatch):
    import unitdist.cli as cli

    monkeypatch.setattr(cli, "sweep", lambda *a, **k: pytest.fail("the sweep ran"))
    spec = {
        "axes": [{"kind": "points", "at": []}, _cantor(1, 2)],
        "deltas": ["2^-5", "2^-6"],
        "method": "product",
    }
    out = tmp_path / "run"
    assert main(["sweep", "--config", _write(tmp_path / "c.json", spec), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: field 'at' in sweep.axes[0]: ")
    assert _manifest(out)["artifacts"] == []


def test_incidence_run(tmp_path):
    cfg = _write(
        tmp_path / "i.json",
        {
            "axes": [
                {"kind": "cantor", "p": 1, "q": 2},
                {"kind": "interval", "lo": 0, "hi": 1},
            ],
            "delta": "2^-6",
        },
    )
    out = tmp_path / "run"
    assert main(["incidence", "--config", cfg, "--out", str(out)]) == 0
    census = json.loads((out / "incidence.json").read_text())
    assert census["j_size"] > 0
    assert census["center_count"] > 0
    assert census["tuple_count"] >= census["j_size"]
    assert (out / "sections.csv").exists()


def test_report_verdicts(tmp_path):
    header = "label,d,alpha,delta,value,value_low,value_high"

    def series_csv(name, slope):
        rows = [header]
        for e in range(4, 9):
            delta = 2.0**-e
            v = delta**slope
            rows.append(f"planted,2,1.5,{delta!r},{v!r},{v!r},{v!r}")
        path = tmp_path / name
        path.write_text("\n".join(rows) + "\n")
        return str(path)

    good = _write(
        tmp_path / "g.json",
        {"series_csv": series_csv("good.csv", 1.9)},
    )
    out = tmp_path / "rung"
    assert main(["report", "--config", good, "--out", str(out)]) == 0
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["withinBounds"] is True
    assert verdict["dimEstimate"] == pytest.approx(2.1, abs=1e-9)

    bad = _write(
        tmp_path / "b.json",
        {"series_csv": series_csv("bad.csv", 5.0)},
    )
    assert main(["report", "--config", bad, "--out", str(tmp_path / "runb")]) == 2


def test_report_reads_quoted_labels(tmp_path):
    # emit_csv quotes a label holding a comma; report must read it back
    cfg = _write(
        tmp_path / "s.json",
        {
            "axes": [
                {"kind": "cantor", "p": 1, "q": 2},
                {"kind": "interval", "lo": 0, "hi": 2},
            ],
            "deltas": ["2^-5", "2^-6", "2^-7"],
            "method": "grid",
            "alpha": 1.5,
            "label": "a,b",
        },
    )
    swept = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--out", str(swept)]) == 0
    assert '"a,b",2,' in (swept / "scaling.csv").read_text()
    report_cfg = _write(tmp_path / "r.json", {"series_csv": str(swept / "scaling.csv")})
    out = tmp_path / "report"
    assert main(["report", "--config", report_cfg, "--out", str(out)]) == 0
    sweep_verdict = json.loads((swept / "verdict.json").read_text())
    assert json.loads((out / "verdict.json").read_text()) == sweep_verdict


def test_planted_product_sweep_and_report_agree(tmp_path):
    cfg = _write(
        tmp_path / "s.json",
        {
            "axes": [
                {"kind": "cantor", "p": 1, "q": 2, "shift": 1},
                {"kind": "cantor", "p": 1, "q": 2},
            ],
            "deltas": [f"2^-{e}" for e in range(8, 15)],
            "method": "product",
        },
    )
    swept = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--out", str(swept)]) == 0
    report_cfg = _write(tmp_path / "r.json", {"series_csv": str(swept / "scaling.csv")})
    assert main(["report", "--config", report_cfg, "--out", str(tmp_path / "r")]) == 0


def test_report_names_unreadable_series(tmp_path, capsys):
    short = tmp_path / "short.csv"
    short.write_text("label,d,alpha,delta,value,value_low,value_high\nx,2,1.5,0.5\n")
    cfg = _write(tmp_path / "a.json", {"series_csv": str(short)})
    assert main(["report", "--config", cfg, "--out", str(tmp_path / "r1")]) == 1
    assert "line 2 has 4 fields" in capsys.readouterr().err

    absent = _write(tmp_path / "b.json", {"series_csv": str(tmp_path / "no.csv")})
    assert main(["report", "--config", absent, "--out", str(tmp_path / "r2")]) == 1
    assert "cannot read series_csv" in capsys.readouterr().err


def test_report_names_the_line_and_column_of_a_bad_number(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text(
        "label,d,alpha,delta,value,value_low,value_high\n"
        "x,2,1.5,0.5,0.25,0.2,0.3\n"
        "x,2,1.5,0.25,abc,0.05,0.07\n"
    )
    cfg = _write(tmp_path / "a.json", {"series_csv": str(bad)})
    assert main(["report", "--config", cfg, "--out", str(tmp_path / "r")]) == 1
    err = capsys.readouterr().err
    assert f"field 'value' in '{bad}' line 3: 'abc' is not a number" in err


def test_report_refuses_a_series_whose_rows_disagree_on_d(tmp_path, capsys):
    mixed = tmp_path / "mixed.csv"
    mixed.write_text(
        "label,d,alpha,delta,value,value_low,value_high\n"
        "x,2,1.5,0.5,0.25,0.2,0.3\n"
        "x,3,1.5,0.25,0.06,0.05,0.07\n"
    )
    cfg = _write(tmp_path / "a.json", {"series_csv": str(mixed)})
    assert main(["report", "--config", cfg, "--out", str(tmp_path / "r")]) == 1
    err = capsys.readouterr().err
    assert f"field 'd' in '{mixed}' line 3: '3' differs from line 2's '2'" in err


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda v: v.pop("bounds"), "KeyError: 'bounds'"),
        (lambda v: v.update(alpha=0.5), "for d=2, alpha=0.5; the series has d=2, alpha=1.0"),
        (lambda v: v.update(d=3), "for d=3, alpha=1.0; the series has d=2, alpha=1.0"),
        (lambda v: v["bounds"].update({"pair_trivial:upper": float("nan")}), "ValueError"),
        (lambda v: v["bounds"].update({"pair_trivial:upper": "x"}), "TypeError"),
    ],
)
def test_report_refuses_a_recorded_table_it_cannot_use(tmp_path, capsys, edit, message):
    # report judges by the table the sweep recorded beside the series; one
    # that is missing or made for another d or alpha is refused, not ignored
    _, spec = GOLDEN_CASES["sweep_product"]
    swept = tmp_path / "sweep"
    assert main(["sweep", "--config", _write(tmp_path / "s.json", spec), "--out", str(swept)]) == 0
    verdict = json.loads((swept / "verdict.json").read_text())
    edit(verdict)
    (swept / "verdict.json").write_text(json.dumps(verdict))
    cfg = _write(tmp_path / "r.json", {"series_csv": str(swept / "scaling.csv")})
    assert main(["report", "--config", cfg, "--out", str(tmp_path / "r")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: bound table '{swept / 'verdict.json'}': ")
    assert message in err


def test_atoms_past_the_memory_budget_end_the_sweep_with_a_manifest(tmp_path, monkeypatch):
    # the atoms route's difference arrays triple per translate factor; past
    # the memory budget the sweep refuses instead of building them
    monkeypatch.setattr(unitdist.grids, "MEMORY_BUDGET", 1000 * _ATOM_BYTES)
    cfg = _write(
        tmp_path / "s.json",
        {
            "axes": [_cantor(1, 2, shift=1), _cantor(1, 2)],
            "deltas": ["2^-18", "2^-19"],
            "method": "product",
        },
    )
    out = tmp_path / "r"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 1
    manifest = _manifest(out)
    assert manifest["exit_code"] == 1
    # refused at 2^-18, before either union's atoms are built
    assert "at delta=3.8147e-06: difference atoms: " in manifest["error"]
    budget = f"bytes predicted, over the memory budget of {1000 * _ATOM_BYTES} bytes"
    assert budget in manifest["error"]


@pytest.mark.parametrize(
    "deltas, message",
    [
        # 2^-5 fits the budget; 2^-12's cells do not
        (["2^-5", "2^-12"], "sweep failed at delta=0.000244141: rasterize: "),
        # an error of the whole series, at no one scale
        (["2^-6", "2^-5"], "sweep failed: deltas must be strictly decreasing"),
    ],
)
def test_a_failed_sweep_says_so_once(tmp_path, capsys, monkeypatch, deltas, message):
    monkeypatch.setattr(unitdist.grids, "MEMORY_BUDGET", 24 * 1000)
    spec = {"axes": [_cantor(1, 2), {"kind": "interval", "lo": 0, "hi": 2}], "deltas": deltas}
    out = tmp_path / "r"
    assert main(["sweep", "--config", _write(tmp_path / "s.json", spec), "--out", str(out)]) == 1
    error = _manifest(out)["error"]
    assert error.startswith(message)
    assert error.count("sweep failed") == 1
    assert capsys.readouterr().err == f"error: {error}\n"


_C12 = {"kind": "cantor", "p": 1, "q": 2}
_BUDGET_PROBE = """
import resource, sys
import unitdist.grids
from unitdist.cli import run_config
baseline = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
unitdist.grids.MEMORY_BUDGET = 64 << 20
code = run_config(sys.argv[2], kind=sys.argv[1], out_override=sys.argv[3])
print(code, baseline, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


@pytest.mark.parametrize(
    "kind, cfg",
    [
        (
            "sweep",
            {
                "axes": [{**_C12, "shift": 1}, _C12],
                "deltas": ["2^-27", "2^-28"],
                "method": "product",
            },
        ),
        ("incidence", {"axes": [_C12] * 3, "delta": "2^-5"}),
        ("spectral", {"p": 1, "q": 2, "delta_exps": [21]}),
    ],
)
def test_a_small_memory_budget_refuses_each_route_before_it_allocates(tmp_path, kind, cfg):
    # each run takes GiBs or hundreds of MiB past its refused step; under a
    # 64 MiB budget it exits 1 with the predicted bytes in its manifest, and
    # the child's own peak (RUSAGE_SELF, in KiB) stays below its import
    # baseline plus the budget
    src = str(Path(unitdist.grids.__file__).parents[1])
    out = tmp_path / "r"
    code, baseline, peak = map(
        int,
        subprocess.run(
            [sys.executable, "-c", _BUDGET_PROBE, kind, _write(tmp_path / "c.json", cfg), out],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": src},
        ).stdout.split(),
    )
    assert code == 1
    error = _manifest(out)["error"]
    assert f"bytes predicted, over the memory budget of {64 << 20} bytes" in error
    assert peak - baseline < 64 << 10


# ---------------------------------------------------------------------------
# byte identity: artifacts against golden bytes from an earlier release
# ---------------------------------------------------------------------------

GOLDEN = Path(__file__).with_name("golden")


def _cantor(p, q, **extra):
    return {"kind": "cantor", "p": p, "q": q, **extra}


GOLDEN_CASES = {
    "cantor_c12": ("cantor", {"p": 1, "q": 2, "stage": 3}),
    "cantor_c12_delta": ("cantor", {"p": 1, "q": 2, "stage": 3, "delta": "2^-8"}),
    "cantor_c13": ("cantor", {"p": 1, "q": 3, "stage": 2}),
    # 2 delta exceeds the stage-2 gap, so siblings merge
    "cantor_c13_delta": ("cantor", {"p": 1, "q": 3, "stage": 2, "delta": "2^-4"}),
    "sweep_grid": (
        "sweep",
        {
            "axes": [_cantor(1, 2), {"kind": "interval", "lo": 0, "hi": 2}],
            "deltas": ["2^-5", "2^-6", "2^-7"],
            "method": "grid",
        },
    ),
    "sweep_product": (
        "sweep",
        {
            "axes": [_cantor(1, 2, shift=1), _cantor(1, 2)],
            "deltas": ["2^-6", "2^-7", "2^-8"],
            "method": "product",
        },
    ),
    # dense scales where most correlogram lags are zero (37% live at 2^-16)
    "sweep_product_deep": (
        "sweep",
        {
            "axes": [_cantor(1, 2, shift=1), _cantor(1, 2)],
            "deltas": ["2^-14", "2^-16"],
            "method": "product",
            "width_multiplier": 2.5,
        },
    ),
    # atoms-route scales: the structured difference atoms must reproduce
    # the generic ones' values byte for byte
    "sweep_product_atoms": (
        "sweep",
        {
            "axes": [_cantor(1, 2, shift=1), _cantor(1, 2)],
            "deltas": ["2^-18", "2^-22"],
            "method": "product",
            "width_multiplier": 2.0,
        },
    ),
    # odd exponents, where W vanishes on the most kink-free pieces
    "sweep_product_atoms_odd": (
        "sweep",
        {
            "axes": [_cantor(1, 2, shift=1), _cantor(1, 2)],
            "deltas": ["2^-19", "2^-21"],
            "method": "product",
            "width_multiplier": 2.5,
        },
    ),
    # one points axis: the exact one-axis pair_band_mass path
    "sweep_points_product": (
        "sweep",
        {
            "axes": [{"kind": "points", "at": [0, 1]}],
            "deltas": ["2^-5", "2^-6", "2^-7", "2^-8"],
            "method": "product",
        },
    ),
    "count_two_circles": (
        "count",
        {"set": {"kind": "two_circles", "n": 6, "seed": 3}, "census": True},
    ),
    "alpha_verify": ("alpha-verify", {"p": 1, "q": 2, "delta": "2^-10", "samples": 500}),
    # r = 2^-20 is below every delta and is skipped
    "spectral": (
        "spectral",
        {"p": 1, "q": 2, "delta_exps": [8, 10, 12], "r_exps": [4, 6, 8, 20]},
    ),
    "incidence": ("incidence", {"axes": [_cantor(1, 2), _cantor(1, 2)], "delta": "2^-5"}),
    # three points, not a Minkowski sum of two-point sets: the atoms route's
    # generic N^2 differences
    "sweep_points_cantor_atoms": (
        "sweep",
        {
            "axes": [{"kind": "points", "at": [0, "1/3", 1]}, _cantor(1, 2)],
            "deltas": ["2^-18", "2^-19", "2^-20"],
            "method": "product",
        },
    ),
    "sweep_grid_3d": (
        "sweep",
        {
            "axes": [_cantor(1, 2), _cantor(1, 2), _cantor(2, 3)],
            "deltas": ["2^-3", "2^-4", "2^-5", "2^-6"],
            "method": "grid",
        },
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_artifacts_match_golden_bytes(tmp_path, case):
    kind, spec = GOLDEN_CASES[case]
    cfg = _write(tmp_path / "c.json", spec)
    out = tmp_path / "run"
    assert main([kind, "--config", cfg, "--out", str(out)]) == 0
    want = sorted(p.name for p in (GOLDEN / case).iterdir())
    assert sorted(_manifest(out)["artifacts"]) == want
    for name in want:
        assert (out / name).read_bytes() == (GOLDEN / case / name).read_bytes(), name


_GOLDEN_PROBE = """
import json, sys
from pathlib import Path
from unitdist.cli import main
cases, golden, out = json.loads(sys.argv[1]), Path(sys.argv[2]), Path(sys.argv[3])
for case, (kind, spec) in sorted(cases.items()):
    cfg = out / (case + ".json")
    cfg.write_text(json.dumps(spec))
    assert main([kind, "--config", str(cfg), "--out", str(out / case)]) == 0, case
    for want in sorted((golden / case).iterdir()):
        if (out / case / want.name).read_bytes() != want.read_bytes():
            print(case + "/" + want.name)
"""


def _coretype_skip_reason() -> str | None:
    """Why OPENBLAS_CORETYPE cannot change NumPy's kernels here, if it cannot."""
    if platform.machine().lower() not in ("x86_64", "amd64", "i386", "i686"):
        return f"OPENBLAS_CORETYPE selects x86 kernels; this machine is {platform.machine()}"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "this NumPy does not report how its BLAS was built"
    if "DYNAMIC_ARCH" not in blas.get("openblas configuration", ""):
        return f"NumPy's BLAS ({blas.get('name')}) is not an OpenBLAS built with DYNAMIC_ARCH"
    return None


@pytest.mark.parametrize("coretype", ["Haswell", "Prescott"])
def test_golden_bytes_under_other_openblas_kernels(tmp_path, coretype):
    # no BLAS or LAPACK kernel decides a written digit: forcing OpenBLAS's
    # CPU dispatch to another core type leaves every golden artifact as is
    reason = _coretype_skip_reason()
    if reason:
        pytest.skip(reason)
    src = str(Path(unitdist.grids.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _GOLDEN_PROBE, json.dumps(GOLDEN_CASES), str(GOLDEN), str(tmp_path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src, "OPENBLAS_CORETYPE": coretype},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("case", sorted(c for c in GOLDEN_CASES if c.startswith("sweep_")))
def test_report_repeats_the_sweep_verdict_on_golden_series(tmp_path, case):
    # one verdict path: report on a sweep's scaling.csv judges by the table
    # the sweep recorded, with d and alpha from the CSV
    _, spec = GOLDEN_CASES[case]
    cfg = _write(tmp_path / "s.json", spec)
    swept = tmp_path / "sweep"
    code = main(["sweep", "--config", cfg, "--out", str(swept)])
    report_cfg = _write(tmp_path / "r.json", {"series_csv": str(swept / "scaling.csv")})
    out = tmp_path / "report"
    assert main(["report", "--config", report_cfg, "--out", str(out)]) == code
    assert (out / "verdict.json").read_bytes() == (swept / "verdict.json").read_bytes()


# ---------------------------------------------------------------------------
# config validation and error reporting
# ---------------------------------------------------------------------------


def test_missing_required_field_names_it(tmp_path, capsys):
    cfg = _write(tmp_path / "c.json", {"p": 1, "stage": 3})
    assert main(["cantor", "--config", cfg, "--out", str(tmp_path / "r")]) == 1
    err = capsys.readouterr().err
    assert "missing required field 'q'" in err
    assert err.startswith("error:")


def test_unknown_field_rejected(tmp_path, capsys):
    cfg = _write(tmp_path / "c.json", {"set": "triangle", "bogus": 1})
    assert main(["count", "--config", cfg, "--out", str(tmp_path / "r")]) == 1
    assert "unknown field 'bogus'" in capsys.readouterr().err


def test_unknown_set_kind(tmp_path, capsys):
    cfg = _write(tmp_path / "c.json", {"set": {"kind": "pentagon"}})
    assert main(["count", "--config", cfg, "--out", str(tmp_path / "r")]) == 1
    assert "pentagon" in capsys.readouterr().err


def test_malformed_config_files(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert run_config(str(broken), kind="count") == 1
    assert "not valid JSON" in capsys.readouterr().err

    assert run_config(str(tmp_path / "absent.json"), kind="count") == 1
    assert "cannot read config" in capsys.readouterr().err

    array = tmp_path / "array.json"
    array.write_text("[1, 2]")
    assert run_config(str(array), kind="count") == 1
    assert "must be a JSON object" in capsys.readouterr().err


def test_kind_mismatch(tmp_path, capsys):
    cfg = _write(tmp_path / "c.json", {"kind": "frames", "d": 2})
    assert main(["count", "--config", cfg, "--out", str(tmp_path / "r")]) == 1
    assert "does not match subcommand" in capsys.readouterr().err


def test_bad_scale_string(tmp_path, capsys):
    cfg = _write(tmp_path / "c.json", {"p": 1, "q": 2, "stage": 2, "delta": "3^-4"})
    assert main(["cantor", "--config", cfg, "--out", str(tmp_path / "r")]) == 1
    err = capsys.readouterr().err
    assert "bad scale" in err
    assert "field 'delta' in cantor config" in err


@pytest.mark.parametrize("delta", ["1/0", float("inf"), float("nan"), "2^x", "abc"])
def test_bad_scale_names_the_field(tmp_path, capsys, delta):
    # JSON carries inf and nan as Infinity and NaN
    cfg = _write(tmp_path / "c.json", {"p": 1, "q": 2, "stage": 2, "delta": delta})
    assert main(["cantor", "--config", cfg, "--out", str(tmp_path / "r")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: field 'delta' in cantor config: bad scale")


_AXES = [{"kind": "interval", "lo": 0, "hi": 1}]


@pytest.mark.parametrize(
    "kind, cfg, field, where",
    [
        ("count", {"set": {"kind": "random", "n": "ten", "d": 2}}, "n", "count.set"),
        ("frames", {"d": float("inf")}, "d", "frames config"),
        ("sweep", {"axes": _AXES, "deltas": ["2^-5"], "tol": "x"}, "tol", "sweep config"),
        ("sweep", {"axes": _AXES, "deltas": ["2^-5", "1/0"]}, "deltas", "sweep config"),
        (
            "sweep",
            {"axes": [{"kind": "interval", "lo": "x", "hi": 1}], "deltas": ["2^-5"]},
            "lo",
            "sweep.axes[0]",
        ),
        ("spectral", {"p": 1, "q": 2, "delta_exps": ["six"]}, "delta_exps", "spectral config"),
        ("spectral", {"p": 1, "q": 2, "delta_exps": [0]}, "delta_exps", "spectral config"),
        (
            "spectral",
            {"p": 1, "q": 2, "delta_exps": [6], "alpha": 1.5},
            "alpha",
            "spectral config",
        ),
        ("frames", {"d": 2, "count": -1}, "count", "frames config"),
        (
            "alpha-verify",
            {"p": 1, "q": 2, "delta": "2^-6", "samples": 0},
            "samples",
            "alpha-verify config",
        ),
        ("sweep", {"axes": _AXES, "deltas": ["2^-4"], "method": "foo"}, "method", "sweep config"),
        # every float field refuses NaN and +-inf (JSON NaN and Infinity)
        ("count", {"set": "triangle", "eps": float("nan")}, "eps", "count config"),
        ("sweep", {"axes": _AXES, "deltas": ["2^-5"], "tol": float("nan")}, "tol", "sweep config"),
        (
            "sweep",
            {"axes": _AXES, "deltas": ["2^-5"], "width_multiplier": float("inf")},
            "width_multiplier",
            "sweep config",
        ),
        ("sweep", {"axes": _AXES, "deltas": ["2^-5"], "alpha": float("nan")}, "alpha", "sweep config"),
        (
            "alpha-verify",
            {"p": 1, "q": 2, "delta": "2^-6", "max_ratio": float("nan")},
            "max_ratio",
            "alpha-verify config",
        ),
        (
            "alpha-verify",
            {"p": 1, "q": 2, "delta": "2^-6", "alpha": float("-inf")},
            "alpha",
            "alpha-verify config",
        ),
        (
            "spectral",
            {"p": 1, "q": 2, "delta_exps": [6], "max_abs_slope": float("nan")},
            "max_abs_slope",
            "spectral config",
        ),
        (
            "incidence",
            {"axes": _AXES, "delta": "2^-4", "lam": float("nan")},
            "lam",
            "incidence config",
        ),
        ("incidence", {"axes": _AXES, "delta": "2^-4", "c": float("inf")}, "c", "incidence config"),
        # d and alpha come from the CSV, which must hold one of each
        ("report", {"series_csv": "mixed.csv"}, "alpha", "'mixed.csv' line 3"),
        ("report", {"series_csv": "s.csv", "tol": float("inf")}, "tol", "report config"),
        # census is a JSON boolean, not a truthy value
        ("count", {"set": "triangle", "census": "false"}, "census", "count config"),
        ("count", {"set": "triangle", "census": 0.5}, "census", "count config"),
        # scale and float fields refuse JSON booleans, as integer fields do
        ("cantor", {"p": 1, "q": 2, "stage": 2, "delta": True}, "delta", "cantor config"),
        (
            "sweep",
            {"axes": _AXES, "deltas": ["2^-5"], "width_multiplier": True},
            "width_multiplier",
            "sweep config",
        ),
        ("sweep", {"axes": _AXES, "deltas": ["2^-5"], "tol": True}, "tol", "sweep config"),
        (
            "alpha-verify",
            {"p": 1, "q": 2, "delta": "2^-6", "max_ratio": False},
            "max_ratio",
            "alpha-verify config",
        ),
        (
            "sweep",
            {"axes": [{"kind": "interval", "lo": 0, "hi": True}], "deltas": ["2^-5"]},
            "hi",
            "sweep.axes[0]",
        ),
        ("count", {"set": "triangle", "eps": False}, "eps", "count config"),
        # paths and kinds are JSON strings only
        ("report", {"series_csv": 0}, "series_csv", "report config"),
        ("report", {"series_csv": ["a"]}, "series_csv", "report config"),
        ("count", {"set": {"kind": []}}, "kind", "count.set"),
        ("count", {"set": []}, "kind", "count.set"),
        ("sweep", {"axes": [{"kind": 1}], "deltas": ["2^-5"]}, "kind", "sweep.axes[0]"),
        (
            "incidence",
            {"axes": [{"kind": ["cantor"]}], "delta": "2^-4"},
            "kind",
            "incidence.axes[0]",
        ),
        # float fields take JSON numbers only; scale fields keep "1/64" and "2^-6"
        ("count", {"set": "triangle", "eps": "1e-9"}, "eps", "count config"),
        ("sweep", {"axes": _AXES, "deltas": ["2^-5"], "tol": "0.2"}, "tol", "sweep config"),
        (
            "spectral",
            {"p": 1, "q": 2, "delta_exps": [6], "alpha": "0.5"},
            "alpha",
            "spectral config",
        ),
        # a sweep label is a JSON string, as every other label and kind
        ("sweep", {"axes": _AXES, "deltas": ["2^-5"], "label": ["x"]}, "label", "sweep config"),
        # list fields take JSON lists only; a string is not a list of its characters
        ("sweep", {"axes": 5, "deltas": ["2^-5"]}, "axes", "sweep config"),
        ("sweep", {"axes": None, "deltas": ["2^-5"]}, "axes", "sweep config"),
        ("incidence", {"axes": _AXES[0], "delta": "2^-4"}, "axes", "incidence config"),
        ("sweep", {"axes": _AXES, "deltas": "2^-5"}, "deltas", "sweep config"),
        (
            "sweep",
            {
                "axes": [{"kind": "points", "at": "01"}],
                "deltas": ["2^-5", "2^-6"],
                "method": "product",
            },
            "at",
            "sweep.axes[0]",
        ),
        ("spectral", {"p": 1, "q": 2, "delta_exps": 6}, "delta_exps", "spectral config"),
        (
            "spectral",
            {"p": 1, "q": 2, "delta_exps": [6], "r_exps": "45"},
            "r_exps",
            "spectral config",
        ),
        # an output directory is a JSON string, read even when --out wins
        ("count", {"set": "triangle", "out": 5}, "out", "count config"),
        ("frames", {"d": 2, "count": 3, "out": ["r"]}, "out", "frames config"),
        # a fit needs two scales, so one is refused before it is measured
        ("sweep", {"axes": _AXES, "deltas": ["2^-30"]}, "deltas", "sweep config"),
    ],
)
def test_bad_values_name_the_field(tmp_path, capsys, monkeypatch, kind, cfg, field, where):
    monkeypatch.chdir(tmp_path)  # where the mixed.csv case finds its series
    (tmp_path / "mixed.csv").write_text(
        "label,d,alpha,delta,value,value_low,value_high\n"
        "x,2,1.5,0.5,0.25,0.2,0.3\n"
        "x,2,1,0.25,0.06,0.05,0.07\n"
    )
    path = _write(tmp_path / "c.json", cfg)
    assert main([kind, "--config", path, "--out", str(tmp_path / "r")]) == 1
    assert capsys.readouterr().err.startswith(f"error: field '{field}' in {where}: ")


_SPECTRAL = {"p": 1, "q": 2, "delta_exps": [6, 7]}


@pytest.mark.parametrize(
    "kind, cfg, field, where",
    [
        ("cantor", {"p": 1, "q": 2, "stage": 2.9}, "stage", "cantor config"),
        ("cantor", {"p": True, "q": 2, "stage": 2}, "p", "cantor config"),
        ("cantor", {"p": 1, "q": "2", "stage": 2}, "q", "cantor config"),
        ("count", {"set": {"kind": "random", "n": 10.5, "d": 2}}, "n", "count.set"),
        (
            "count",
            {"set": {"kind": "random", "n": 10, "d": 2, "seed": 0.5}},
            "seed",
            "count.set",
        ),
        ("frames", {"d": 2, "count": False}, "count", "frames config"),
        (
            "alpha-verify",
            {"p": 1, "q": 2, "delta": "2^-6", "samples": 99.5},
            "samples",
            "alpha-verify config",
        ),
        ("spectral", {**_SPECTRAL, "delta_exps": [6, -7]}, "delta_exps", "spectral config"),
        ("spectral", {**_SPECTRAL, "delta_exps": [6.5]}, "delta_exps", "spectral config"),
        ("spectral", {**_SPECTRAL, "r_exps": [4, -1]}, "r_exps", "spectral config"),
        ("spectral", {**_SPECTRAL, "r_exps": [True]}, "r_exps", "spectral config"),
    ],
)
def test_integer_fields_refuse_fractions_booleans_and_negative_exponents(
    tmp_path, capsys, kind, cfg, field, where
):
    path = _write(tmp_path / "c.json", cfg)
    assert main([kind, "--config", path, "--out", str(tmp_path / "r")]) == 1
    assert capsys.readouterr().err.startswith(f"error: field '{field}' in {where}: ")


def test_integral_float_is_an_integer(tmp_path):
    outs = []
    for stage in (2, 2.0):
        cfg = _write(tmp_path / "c.json", {"p": 1, "q": 2, "stage": stage})
        outs.append(tmp_path / f"r{stage!r}")
        assert main(["cantor", "--config", cfg, "--out", str(outs[-1])]) == 0
    assert _manifest(outs[1])["config"]["stage"] == 2.0
    a, b = ((out / "intervals.txt").read_bytes() for out in outs)
    assert a == b


def test_subcommand_required():
    assert main([]) == 1


def test_help_lists_the_subcommands_in_order(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "{count,frames,cantor,sweep,alpha-verify,spectral,incidence,report}" in out


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sweep"], "the following arguments are required: --config"),
        (["bogus"], "invalid choice: 'bogus'"),
        (["count", "--config", "c.json", "--seed", "abc"], "invalid int value: 'abc'"),
    ],
)
def test_usage_errors_exit_1(capsys, argv, message):
    # 2 is kept for "ran fine, but a bound was violated"
    assert main(argv) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["cantor", "sweep", "spectral", "incidence", "report"])
def test_seed_is_offered_only_where_a_config_has_one(tmp_path, capsys, kind):
    cfg = _write(tmp_path / "c.json", {})
    assert main([kind, "--config", cfg, "--seed", "3"]) == 1
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err


def test_seed_override_is_refused_by_a_builtin_set(tmp_path, capsys):
    cfg = _write(tmp_path / "c.json", {"set": "triangle"})
    assert main(["count", "--config", cfg, "--out", str(tmp_path / "r"), "--seed", "3"]) == 1
    assert "unknown field 'seed' in count.set" in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind, cfg",
    [
        ("frames", {"d": 2, "count": 3}),
        ("alpha-verify", {"p": 1, "q": 2, "delta": "2^-6", "samples": 20}),
    ],
)
def test_seed_override_reaches_a_top_level_seed(tmp_path, kind, cfg):
    path, out = _write(tmp_path / "c.json", cfg), tmp_path / "r"
    assert main([kind, "--config", path, "--out", str(out), "--seed", "7"]) == 0
    assert _manifest(out)["config"]["seed"] == 7


# ---------------------------------------------------------------------------
# reproducibility and overrides
# ---------------------------------------------------------------------------


def test_runs_are_deterministic(tmp_path):
    spec = {"set": {"kind": "random", "n": 40, "d": 2, "seed": 3}, "census": True}
    cfg = _write(tmp_path / "c.json", spec)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["count", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["count", "--config", cfg, "--out", str(out2)]) == 0

    assert (out1 / "counts.csv").read_bytes() == (out2 / "counts.csv").read_bytes()
    assert (out1 / "census.json").read_bytes() == (out2 / "census.json").read_bytes()

    m1, m2 = _manifest(out1), _manifest(out2)
    m1.pop("wall_time_s"), m2.pop("wall_time_s")
    m1["config"].pop("out"), m2["config"].pop("out")
    assert m1 == m2


def test_seed_override_reaches_set(tmp_path):
    cfg = _write(tmp_path / "c.json", {"set": {"kind": "random", "n": 30, "d": 2}})
    out = tmp_path / "r"
    assert main(["count", "--config", cfg, "--out", str(out), "--seed", "7"]) == 0
    assert _manifest(out)["config"]["set"]["seed"] == 7


def test_out_override_wins_over_the_config_out(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = _write(tmp_path / "c.json", {"d": 2, "count": 3, "out": "from_config"})
    assert main(["frames", "--config", cfg, "--out", "from_flag"]) == 0
    assert _manifest(tmp_path / "from_flag")["config"]["out"] == "from_flag"
    assert not (tmp_path / "from_config").exists()
    # without --out the config's out is used, and null means the default
    assert main(["frames", "--config", cfg]) == 0
    assert _manifest(tmp_path / "from_config")["config"]["out"] == "from_config"
    cfg = _write(tmp_path / "c.json", {"d": 2, "count": 3, "out": None})
    assert main(["frames", "--config", cfg]) == 0
    assert _manifest(tmp_path / "runs" / "frames")["config"]["out"] == "runs/frames"
