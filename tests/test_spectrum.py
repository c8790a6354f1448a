"""Band/gap scans, pointwise classification, sheet verdicts."""

import json

import numpy as np
import pytest

from manakov_spectra import (
    ClassificationConflictWarning,
    ConfigError,
    Potential,
    classify,
    scan,
    sheet_count,
)
from manakov_spectra.cli import main
from conftest import CONST_JSON, cli_csv_rows


def test_zero_potential_all_bands(pot_zero):
    sc = scan(pot_zero, -5.0, 5.0, step=0.01)
    assert sc.gaps == []
    assert np.all(sc.multiplicity == 3)
    assert np.all(sc.unimodular == 3)
    assert np.abs(sc.disc).max() <= 1e-12
    assert sc.conflicts == 0


def test_constant_gap_endpoints(pot_const):
    # reduced 2x2 flow with |u| = 0.9 opens exactly (-0.9, 0.9)
    sc = scan(pot_const, -7.0, 7.0, step=0.01)
    assert len(sc.gaps) == 1
    a, b = sc.gaps[0]
    assert abs(a + 0.9) <= 1e-8
    assert abs(b - 0.9) <= 1e-8
    assert sc.kissing_points == []
    assert sc.conflicts == 0
    # grid points inside the gap carry multiplicity 1, outside 3
    inside = (sc.lam > a + 0.05) & (sc.lam < b - 0.05)
    outside = (sc.lam < a - 0.05) | (sc.lam > b + 0.05)
    assert np.all(sc.multiplicity[inside] == 1)
    assert np.all(sc.multiplicity[outside] == 3)


def test_classify_points(pot_const):
    mid = classify(pot_const, 0.0)
    assert mid.multiplicity == 1
    assert mid.unimodular == 1
    assert not mid.boundary
    band = classify(pot_const, 2.0)
    assert band.multiplicity == 3
    assert band.unimodular == 3
    edge = classify(pot_const, 0.9)
    assert edge.boundary


def test_scan_classify_agree(pot_two_mode):
    sc = scan(pot_two_mode, -5.0, 5.0, step=0.01)
    idx = [137, 400, 612, 800, 903]
    for k in idx:
        c = classify(pot_two_mode, float(sc.lam[k]))
        if not c.boundary:
            assert c.multiplicity == sc.multiplicity[k]


def test_two_mode_gap_structure(pot_two_mode):
    sc = scan(pot_two_mode, -5.0, 5.0, step=0.01)
    assert len(sc.gaps) == 2
    widths = [b - a for a, b in sc.gaps]
    assert min(widths) > 0.1
    assert sc.conflicts == 0


def test_kissing_point_and_conflict_reporting(pot_two_mode):
    # the wider window contains a near-degenerate crossing; the scan must
    # surface it as a kissing point / conflict instead of silently choosing
    with pytest.warns(ClassificationConflictWarning):
        sc = scan(pot_two_mode, -7.5, 7.5, step=0.01)
    assert len(sc.kissing_points) >= 1
    assert sc.conflicts >= 1
    assert any("conflict" in w for w in sc.warnings)


def test_sheet_verdicts(pot_const, pot_two_mode, rank_one_family):
    sc = scan(pot_const, -7.0, 7.0, step=0.01)
    v = sheet_count(pot_const, sc)
    assert v.sheets == 2
    assert v.evidence["is_rank_one"]
    assert v.evidence["sup_phi"] <= v.evidence["phi_threshold"]

    sc2 = scan(pot_two_mode, -5.0, 5.0, step=0.01)
    v2 = sheet_count(pot_two_mode, sc2)
    assert v2.sheets == 3
    assert v2.evidence["b1"] > 0.01
    assert not v2.evidence["is_rank_one"]

    for p in rank_one_family:
        spr = scan(p, -5.0, 5.0, step=0.01)
        assert sheet_count(p, spr).sheets == 2


def test_scan_determinism(pot_two_mode):
    a = scan(pot_two_mode, -2.5, 2.5, step=0.01)
    b = scan(pot_two_mode, -2.5, 2.5, step=0.01)
    assert np.array_equal(a.disc, b.disc)
    assert np.array_equal(a.trace, b.trace)
    assert a.gaps == b.gaps


def test_scan_validation():
    p = Potential.zero(64)
    with pytest.raises(ConfigError):
        scan(p, 3.0, -3.0)
    with pytest.raises(ConfigError):
        scan(p, -3.0, 3.0, step=0.0)
    with pytest.raises(ConfigError):
        scan(p, -3.0, 3.0, step=2.0)  # coarser than the allowed ceiling


def test_scan_serialization(pot_const, capsys):
    sc = scan(pot_const, -2.0, 2.0, step=0.01)
    argv = ["scan", "--potential", CONST_JSON, "--interval", "-2", "2", "--step", "0.01"]
    rows = cli_csv_rows(argv, capsys)
    header, body = rows[0], rows[1:]
    assert header == ["lam", "disc", "phi", "multiplicity"]
    assert len(body) == len(sc.lam)
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["interval"] == [-2.0, 2.0]
    assert len(doc["gaps"]) == len(sc.gaps)
