"""End-to-end checks of the command-line surface against library calls."""
import hashlib
import json
import math
import platform
from pathlib import Path

import numpy as np
import pytest

import stochcone.cli as cli
import stochcone.transport as transport
from stochcone import (
    MeanConfig,
    OrderTolerance,
    dominates_by_coupling,
    karcher_residual,
    measure_from_json,
    thompson_distance,
    tuple_mean,
    wasserstein,
    wasserstein_inf,
)
from stochcone.order import DominanceVerdict

DATA = Path(__file__).resolve().parent / "data" / "sample.json"


def run(capsys, *argv):
    code = cli.main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------- thompson


def test_thompson_matches_library(capsys):
    code, out, _ = run(capsys, "thompson", DATA, "id", "spread")
    ds = cli.load_dataset(str(DATA))
    want = thompson_distance(ds.matrix("id"), ds.matrix("spread"))
    assert code == 0
    assert float(out.strip()) == want


def test_thompson_identity_prints_zero(capsys):
    code, out, _ = run(capsys, "thompson", DATA, "twice", "twice")
    assert code == 0
    assert abs(float(out.strip())) <= 1e-12


def test_thompson_log2(capsys):
    code, out, _ = run(capsys, "thompson", DATA, "id", "twice")
    assert code == 0
    assert abs(float(out.strip()) - math.log(2.0)) <= 1e-12


def test_thompson_missing_name_exits_2(capsys):
    code, _, err = run(capsys, "thompson", DATA, "id", "ghost")
    assert code == 2
    assert "ghost" in err


# ---------------------------------------------------------------- dominates


def test_dominates_holds_exit_0(capsys):
    code, out, _ = run(capsys, "dominates", DATA, "low", "high", "--method", "both")
    assert code == 0
    doc = json.loads(out)
    assert doc["holds"] is True
    assert doc["certificate"]["type"] == "coupling"


def test_dominates_fails_exit_1_with_upper_set(capsys):
    code, out, _ = run(capsys, "dominates", DATA, "high", "low", "--method", "enum")
    assert code == 1
    doc = json.loads(out)
    assert doc["holds"] is False
    cert = doc["certificate"]
    assert cert["type"] == "upper_set"
    assert cert["mu_mass"] > cert["nu_mass"] + 1e-9


def test_dominates_json_matches_library(capsys):
    code, out, _ = run(capsys, "dominates", DATA, "low", "high")
    ds = cli.load_dataset(str(DATA))
    verdict = dominates_by_coupling(ds.measure("low"), ds.measure("high"),
                                    1e-9, OrderTolerance(1e-10))
    doc = json.loads(out)
    assert code == 0
    assert doc["holds"] == verdict.holds
    assert doc["certificate"]["weights"] == [
        [float(v) for v in row] for row in verdict.certificate.weights
    ]


def test_dominates_self_exit_0(capsys):
    code, out, _ = run(capsys, "dominates", DATA, "low", "low", "--method", "both")
    assert code == 0
    assert json.loads(out)["holds"] is True


def test_dominates_disagreement_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(cli, "dominates_by_upper_sets",
                        lambda *a, **k: DominanceVerdict(False, None))
    code, out, err = run(capsys, "dominates", DATA, "low", "high", "--method", "both")
    assert code == 3
    assert "disagree" in err
    doc = json.loads(out)
    assert doc["disagreement"] == {"flow": True, "enum": False}


# -------------------------------------------------------------- wasserstein


def test_internal_failure_exits_4_with_one_line(capsys, monkeypatch):
    def fail(*_args):
        raise RuntimeError("optimality certificate failed: forced")

    monkeypatch.setattr(transport, "_certify", fail)
    code, out, err = run(capsys, "wasserstein", DATA, "low", "high", "--p", "2")
    assert code == 4
    assert out == ""
    assert err.splitlines() == ["error: optimality certificate failed: forced"]


def test_wasserstein_matches_library(capsys):
    code, out, _ = run(capsys, "wasserstein", DATA, "low", "high", "--p", "2")
    ds = cli.load_dataset(str(DATA))
    want, _ = wasserstein(ds.measure("low"), ds.measure("high"), 2.0)
    assert code == 0
    assert float(out.strip()) == want


def test_wasserstein_self_zero(capsys):
    code, out, _ = run(capsys, "wasserstein", DATA, "high", "high")
    assert code == 0
    assert abs(float(out.strip())) <= 1e-11


def test_wasserstein_dirac_is_thompson(capsys):
    code, out, _ = run(capsys, "wasserstein", DATA, "pt_id", "pt_spread")
    ds = cli.load_dataset(str(DATA))
    want = thompson_distance(ds.matrix("id"), ds.matrix("spread"))
    assert code == 0
    assert float(out.strip()) == want


def test_wasserstein_plan_file(capsys, tmp_path):
    out_path = tmp_path / "plan.json"
    code, out, _ = run(capsys, "wasserstein", DATA, "low", "high",
                       "--p", "inf", "--plan", out_path)
    assert code == 0
    doc = json.loads(out_path.read_text(encoding="utf-8"))
    ds = cli.load_dataset(str(DATA))
    want, plan = wasserstein_inf(ds.measure("low"), ds.measure("high"))
    assert doc["p"] == "inf"
    assert doc["distance"] == want
    assert float(out.strip()) == want
    assert np.allclose(doc["weights"], plan.weights, atol=1e-12)
    marg = np.asarray(doc["weights"], dtype=float)
    assert np.allclose(marg.sum(axis=1), ds.measure("low").weights, atol=1e-8)


def test_wasserstein_bad_p_exits_2(capsys):
    for bad in ("0.5", "zero", "nan"):
        code, _, err = run(capsys, "wasserstein", DATA, "low", "high", "--p", bad)
        assert code == 2
        assert "error" in err
    # leading dash needs the = form so argparse passes it through
    code, _, err = run(capsys, "wasserstein", DATA, "low", "high", "--p=-inf")
    assert code == 2


# --------------------------------------------------------------------- mean


def test_mean_karcher_matrix_mode(capsys):
    code, out, _ = run(capsys, "mean", "karcher", DATA, "id", "big", "spread")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "karcher"
    assert doc["dim"] == 2
    ds = cli.load_dataset(str(DATA))
    mats = [ds.matrix(n) for n in ("id", "big", "spread")]
    want = tuple_mean("karcher", mats, MeanConfig())
    assert np.array_equal(np.asarray(doc["matrix"]).reshape(2, 2), want.a)
    assert doc["residual"] <= 1e-10 * 3
    assert doc["residual"] == karcher_residual(want, mats)


def test_mean_power_t_parsed(capsys):
    code, out, _ = run(capsys, "mean", "power:-0.5", DATA, "id", "big")
    assert code == 0
    doc = json.loads(out)
    ds = cli.load_dataset(str(DATA))
    want = tuple_mean("power", [ds.matrix("id"), ds.matrix("big")],
                      MeanConfig(power_t=-0.5))
    assert np.array_equal(np.asarray(doc["matrix"]).reshape(2, 2), want.a)
    assert "residual" not in doc


def test_mean_single_input_is_itself(capsys):
    code, out, _ = run(capsys, "mean", "arith", DATA, "spread")
    doc = json.loads(out)
    assert code == 0
    assert doc["matrix"] == [2.0, 1.0, 1.0, 2.0]


def test_mean_measure_mode_round_trips(capsys):
    code, out, _ = run(capsys, "mean", "harm", DATA, "-m", "low", "high")
    assert code == 0
    got = measure_from_json(out)
    ds = cli.load_dataset(str(DATA))
    from stochcone import measure_mean
    want = measure_mean("harm", [ds.measure("low"), ds.measure("high")], MeanConfig())
    assert got.size == want.size
    for (p, w), (q, v) in zip(got.atoms, want.atoms):
        assert np.array_equal(p.a, q.a)
        assert w == v


def test_mean_unknown_kind_exits_2(capsys):
    code, _, err = run(capsys, "mean", "median", DATA, "id")
    assert code == 2
    assert "median" in err


def test_mean_bad_power_order_exits_2(capsys):
    code, _, err = run(capsys, "mean", "power:two", DATA, "id", "big")
    assert code == 2
    code2, _, err2 = run(capsys, "mean", "power:0", DATA, "id", "big")
    assert code2 == 2


# ------------------------------------------------------------ input errors


def test_missing_dataset_exits_2(capsys):
    code, _, err = run(capsys, "thompson", "/nonexistent.json", "a", "b")
    assert code == 2
    assert "error" in err


def test_malformed_json_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, _, err = run(capsys, "thompson", bad, "a", "b")
    assert code == 2
    assert "malformed" in err


def test_non_pd_matrix_in_dataset_exits_2(capsys, tmp_path):
    doc = {"dim": 2, "matrices": {"bad": [1.0, 2.0, 2.0, 1.0]}, "measures": {}}
    path = tmp_path / "ds.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run(capsys, "thompson", path, "bad", "bad")
    assert code == 2


def test_wrong_entry_count_exits_2(capsys, tmp_path):
    doc = {"dim": 2, "matrices": {"short": [1.0, 0.0, 1.0]}, "measures": {}}
    path = tmp_path / "ds.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run(capsys, "thompson", path, "short", "short")
    assert code == 2
    assert "short" in err


def test_unknown_experiment_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["experiment", "nope"])
    assert exc.value.code == 2


# -------------------------------------------------------------- experiment


def test_experiment_same_seed_byte_identical(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(capsys, "experiment", "agh", "--seed", 42, "--count", 2,
               "--out", a)[0] == 0
    assert run(capsys, "experiment", "agh", "--seed", 42, "--count", 2,
               "--out", b)[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_experiment_manifest_header(capsys, tmp_path):
    out = tmp_path / "run.csv"
    run(capsys, "experiment", "closedness", "--seed", 3, "--count", 1, "--out", out)
    lines = out.read_text(encoding="utf-8").split("\n")
    assert lines[0].startswith("# manifest: ")
    manifest = json.loads(lines[0][len("# manifest: "):])
    assert manifest["seed"] == 3
    assert manifest["version"]
    assert "tolerances" in manifest
    assert lines[1].split(",")[0] == "instance"
    assert not out.read_bytes().count(b"\r")


def test_experiment_jobs_invariant(capsys, tmp_path):
    a, b = tmp_path / "j1.csv", tmp_path / "j2.csv"
    run(capsys, "experiment", "monotone-chain", "--seed", 5, "--count", 2,
        "--out", a, "--jobs", 1)
    run(capsys, "experiment", "monotone-chain", "--seed", 5, "--count", 2,
        "--out", b, "--jobs", 2)
    assert a.read_bytes() == b.read_bytes()


def test_experiment_env_seed(capsys, tmp_path, monkeypatch):
    a, b = tmp_path / "env.csv", tmp_path / "flag.csv"
    monkeypatch.setenv("STOCHCONE_SEED", "11")
    run(capsys, "experiment", "agh", "--count", 1, "--out", a)
    monkeypatch.delenv("STOCHCONE_SEED")
    run(capsys, "experiment", "agh", "--seed", 11, "--count", 1, "--out", b)
    assert a.read_bytes() == b.read_bytes()


def test_experiment_bad_env_seed_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("STOCHCONE_SEED", "eleven")
    code, _, err = run(capsys, "experiment", "agh", "--count", 1)
    assert code == 2


def test_experiment_stdout_when_no_out(capsys):
    code, out, _ = run(capsys, "experiment", "agh", "--seed", 1, "--count", 1)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("# manifest: ")
    assert lines[1] == "instance,dim,n_measures,product_atoms,h_le_g,g_le_a"
    assert len(lines) == 3
    cells = lines[2].split(",")
    assert cells[4] == "true" and cells[5] == "true"


def test_experiment_failure_would_exit_1(capsys, monkeypatch):
    import stochcone.experiments as exps

    class FakeResult:
        name = "agh"
        columns = ("instance",)
        rows = ((0,),)
        ok = False

    monkeypatch.setattr(cli, "run_experiment", lambda *a, **k: FakeResult())
    code, out, _ = run(capsys, "experiment", "agh", "--count", 1)
    assert code == 1


# SHA-256 of `experiment <name> --seed 42 --out <file>` (default counts) at
# the commit before the hinge functional was shared between the
# monotone-functional probe and the chain experiment.  Float bytes depend
# on the numpy/BLAS/LAPACK build, so the digests hold for the build they
# were recorded with (numpy 2.4.6 on x86_64 Linux, OpenBLAS).
PARENT_DIGESTS = {
    "closedness": "3954091484ae9c1f6a16218fff9adb7c3b58ed53a4d8b87c5e524b1ba1cd1fc7",
    "monotone-chain": "a76ea3e3a2f486ebff71561e59fae15a43b15405d72a927a3380da5d790be0cf",
    "agh": "6b478bbb02b5ef62d46a6df438c365498502d4edd9b14338df6d92debe94e2d8",
}


@pytest.mark.parametrize("name", sorted(PARENT_DIGESTS))
def test_experiment_csv_bytes_match_recorded_digest(capsys, tmp_path, name):
    if np.__version__ != "2.4.6" or platform.machine() != "x86_64":
        pytest.skip("digests were recorded with numpy 2.4.6 on x86_64")
    out = tmp_path / f"{name}.csv"
    assert run(capsys, "experiment", name, "--seed", 42, "--out", out)[0] == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PARENT_DIGESTS[name]
