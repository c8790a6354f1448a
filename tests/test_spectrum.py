"""Band/gap scans, pointwise classification, sheet verdicts."""

import json
import warnings

import numpy as np
import pytest

from manakov_spectra import (
    ConfigError,
    Potential,
    scan,
    sheet_count,
)
from manakov_spectra import spectrum
from manakov_spectra.cli import load_potential, main
from conftest import CONST_JSON, cli_csv_rows, random_potential
import oracles


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


def test_gaps_reaching_past_the_interval_ends(pot_const):
    # the gap (-0.9, 0.9) cut by the scan interval ends at the interval's own ends
    left = "gap continues past the left end of the scan interval"
    right = "gap continues past the right end of the scan interval"
    sc = scan(pot_const, -0.5, 2.0, step=0.01)
    assert len(sc.gaps) == 1 and sc.gaps[0][0] == -0.5
    assert abs(sc.gaps[0][1] - 0.9) <= 1e-8
    assert sc.notes == [left]
    sc = scan(pot_const, -2.0, 0.5, step=0.01)
    assert len(sc.gaps) == 1 and sc.gaps[-1][1] == 0.5
    assert abs(sc.gaps[-1][0] + 0.9) <= 1e-8
    assert sc.notes == [right]
    sc = scan(pot_const, -0.5, 0.5, step=0.01)
    assert sc.gaps == [(-0.5, 0.5)]
    assert sc.notes == [left, right]


def test_scan_bookkeeping_matches_the_point_loops(monkeypatch, pot_const, pot_two_mode, rng):
    # the scan's masks give the gaps, edge notes and kissing points of the
    # per-point loops, bit for bit
    seen = []
    refine = spectrum._refine_sign_changes

    def recording(p, *brackets):
        seen.append(refine(p, *brackets))
        return seen[-1]

    monkeypatch.setattr(spectrum, "_refine_sign_changes", recording)
    cases = [(pot_const, -0.5, 2.0), (pot_const, -2.0, 0.5), (pot_const, -0.5, 0.5)]
    # three gaps and a kissing point, then two gaps cut by both ends
    cases += [(pot_two_mode, -7.5, 7.5), (pot_two_mode, -3.1, 3.0)]
    cases += [(random_potential(rng), -6.0, 6.0) for _ in range(3)]
    for p, a, b in cases:
        sc = scan(p, a, b, step=0.01)
        gaps, notes, kissing = oracles.scan_bookkeeping(sc, seen[-1])
        assert sc.gaps == gaps
        assert [n for n in sc.notes if "continues past" in n] == notes
        assert sc.kissing_points == kissing


def test_classify_points(pot_const):
    mid = oracles.classify(pot_const, 0.0)
    assert mid.multiplicity == 1
    assert mid.unimodular == 1
    assert not mid.boundary
    band = oracles.classify(pot_const, 2.0)
    assert band.multiplicity == 3
    assert band.unimodular == 3
    edge = oracles.classify(pot_const, 0.9)
    assert edge.boundary


def test_scan_classify_agree(pot_two_mode, rng):
    # the scan's multiplicities against the pointwise oracle, on every
    # seventh grid point that the oracle does not call a boundary
    cases = [(pot_two_mode, 5.0)] + [(random_potential(rng), 6.0) for _ in range(4)]
    for p, half in cases:
        sc = scan(p, -half, half, step=0.01)
        ks = range(0, sc.lam.size, 7)
        points = [oracles.classify(p, float(sc.lam[k])) for k in ks]
        pairs = [
            (c.multiplicity, sc.multiplicity[k]) for k, c in zip(ks, points) if not c.boundary
        ]
        oracle, scanned = np.array(pairs).T
        assert np.array_equal(oracle, scanned)
        assert set(scanned) == {1, 3}


def test_two_mode_gap_structure(pot_two_mode):
    sc = scan(pot_two_mode, -5.0, 5.0, step=0.01)
    assert len(sc.gaps) == 2
    widths = [b - a for a, b in sc.gaps]
    assert min(widths) > 0.1
    assert sc.conflicts == 0


def test_kissing_point_and_conflict_reporting(pot_two_mode):
    # the wider window contains a near-degenerate crossing; the scan must
    # surface it as a kissing point / conflict instead of silently choosing;
    # the conflict is one of the scan's warnings, never a Python warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sc = scan(pot_two_mode, -7.5, 7.5, step=0.01)
    assert len(sc.kissing_points) >= 1
    assert sc.conflicts >= 1
    conflict = [w for w in sc.warnings if w.startswith("classification-conflict")]
    assert len(conflict) == 1
    assert conflict[0].startswith(f"classification-conflict at {sc.conflicts} grid points")


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
    with pytest.raises(ConfigError):
        scan(p, -1e308, 1e308)  # finite ends, but their distance overflows


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


# ----------------------------------------------------------------------------
# speculative bisection: the plain bisection's endpoints in fewer engine calls
# ----------------------------------------------------------------------------

REFINE_INPUTS = {
    # the golden step input
    "golden-step": (
        '{"kind":"piecewise","breakpoints":[0.0,0.25,0.75,1.0],'
        '"values":[[[0.3,0.1],[0.0,0.2]],[[0.1,0.0],[0.4,0.0]],'
        '[[0.0,0.0],[0.2,-0.1]]],"resolution":64}'
    ),
    # two of the benchmark's small inputs, non-dyadic and dyadic
    "non-dyadic-step": (
        '{"kind":"piecewise","breakpoints":[0.0,0.428514,0.732159,1.0],"values":'
        "[[[-0.19192162710244262,-0.013618740767788781],[0.05747993847496977,"
        "-0.26658743420064185]],[[-0.2144821108066412,0.03176796410224302],"
        "[0.3107493980053129,-0.20241551696170068]],[[-0.06509348593893693,"
        "0.32104522102783895],[-0.34272411256917096,-0.31529274077656183]]]}"
    ),
    "dyadic-step": (
        '{"kind":"piecewise","breakpoints":[0.0,0.8125,1.0],"values":'
        "[[[0.2929344268863049,0.18905658597040093],[0.421859046944926,"
        "-0.42139656967331657]],[[-0.597528119148613,0.04028235238165074],"
        "[-0.05509731182339014,0.20864344169305632]]]}"
    ),
    # rank one, 32 runs
    "rank-one-fourier": (
        '{"kind":"fourier","resolution":32,"modes":{"2":[[-0.06989414456051281,'
        "-0.1105117889577312],[-0.1291961539503003,-0.10689437197342963]],"
        '"0":[[0.18607783623116292,-0.10700452119579844],[0.18423920477036493,'
        "-0.20451646353054115]]}}"
    ),
    # the 512-run reference potential
    "fourier-512": (
        '{"kind":"fourier","resolution":512,'
        '"modes":{"1":[[0.25,0.0],[0.1,0.0]],"-1":[[0.0,0.0],[0.2,0.0]]}}'
    ),
}


def _float_bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def _counting_disc(monkeypatch):
    """Record the size of every discriminant call, production and oracle alike."""
    sizes = []
    disc_only = spectrum._disc_only

    def counting(p, lam):
        sizes.append(len(lam))
        return disc_only(p, lam)

    monkeypatch.setattr(spectrum, "_disc_only", counting)
    monkeypatch.setattr(oracles, "_disc_only", counting)
    return sizes


def _same_endpoints(p, brackets, monkeypatch):
    """Both refinements of ``brackets``: endpoints compared bit for bit, call sizes returned."""
    sizes = _counting_disc(monkeypatch)
    got = spectrum._refine_sign_changes(p, *brackets)
    new_sizes = sizes[:]
    sizes.clear()
    want = oracles.refine_sign_changes(p, *brackets)
    assert np.array_equal(_float_bits(got), _float_bits(want))
    return new_sizes, sizes[:]


@pytest.mark.parametrize("name", sorted(REFINE_INPUTS))
def test_speculative_bisection_keeps_every_endpoint_bit(monkeypatch, name):
    p = load_potential(REFINE_INPUTS[name])
    seen = []
    refine = spectrum._refine_sign_changes

    def recording(p, *brackets):
        seen.append(brackets)
        return refine(p, *brackets)

    monkeypatch.setattr(spectrum, "_refine_sign_changes", recording)
    scan(p, -10.0, 10.0, step=0.01)
    (brackets,) = seen
    lo, _, disc_lo = brackets
    assert {1, -1} <= set(np.sign(disc_lo))  # gaps open and close inside the window
    new_sizes, old_sizes = _same_endpoints(p, brackets, monkeypatch)
    if len(p.canonical().runs()[1]) < 512:
        # a deeper tree takes several halvings a call
        assert 3 * len(new_sizes) <= len(old_sizes)
    else:
        # one tree level per call: the very points of the plain bisection
        assert all(n <= lo.size for n in new_sizes)
        assert sum(new_sizes) == sum(old_sizes)


def _brackets(p, ends):
    lo, hi = np.array(ends).T
    return lo, hi, spectrum._disc_only(p, lo)


@pytest.mark.parametrize("depth", [None, 1, 5, 9])
def test_speculative_bisection_groups_and_exact_zeros(monkeypatch, pot_const, depth):
    # brackets of three widths in one list: each halves until its own width
    # is done (28, 26 and 24 halvings for widths 0.2, 0.04 and 0.01), and at
    # lam = 0.9, the midpoint of (0.8, 1.0), the discriminant is exactly
    # zero; fixed tree depths end some rounds in the middle of a tree, where
    # some brackets are done and others are not
    if depth is not None:
        monkeypatch.setattr(spectrum, "_tree_depth", lambda *args: depth)
    p = pot_const
    assert 0.5 * (0.8 + 1.0) == 0.9
    assert spectrum._disc_only(p, np.array([0.9]))[0] == 0.0
    brackets = _brackets(p, [(0.8, 1.0), (-0.92, -0.88), (-0.905, -0.895)])
    assert brackets[2][0] != 0.0
    new_sizes, old_sizes = _same_endpoints(p, brackets, monkeypatch)
    if depth == 1:
        assert new_sizes == old_sizes  # one level a call is the plain bisection
    else:
        assert len(new_sizes) < len(old_sizes)
    assert spectrum._refine_sign_changes(p, [], [], []).shape == (0,)


def test_endpoint_bits_do_not_depend_on_other_brackets(pot_const):
    # the gap edge -0.9 of the constant 0.9, refined alone and beside a
    # wider bracket around the same edge
    p = pot_const
    alone = spectrum._refine_sign_changes(p, *_brackets(p, [(-0.905, -0.895)]))
    pair = _brackets(p, [(-0.92, -0.88), (-0.905, -0.895)])
    beside = spectrum._refine_sign_changes(p, *pair)
    assert _float_bits(alone[0]) == _float_bits(beside[1])
