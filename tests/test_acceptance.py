"""Acceptance suite: every criterion at full sample counts, zero tolerance.

Each test prints its own pass/fail line (run with ``pytest -s`` to watch).
The underlying checks live in ``widthcalc.selftest`` so the command line
``selftest`` subcommand and this module can never drift apart.
"""

import time

import pytest

from widthcalc import moves, selftest


def _run(check):
    t0 = time.time()
    result = check(fast=False)
    elapsed = time.time() - t0
    print(f"{result.line()}  [{elapsed:.1f}s]")
    return result, elapsed


def test_criterion_01_trivial_index_table():
    result, elapsed = _run(selftest.check_trivial_index_table)
    assert result.ok, result.detail
    assert elapsed < 1.0


def test_criterion_02_compression_identity():
    result, elapsed = _run(selftest.check_compression_identity)
    assert result.ok, result.detail
    assert elapsed < 10.0


def test_criterion_03_consolidation_identity():
    result, _ = _run(selftest.check_consolidation_identity)
    assert result.ok, result.detail


def test_criterion_04_untelescope_identities():
    result, _ = _run(selftest.check_untelescope_identities)
    assert result.ok, result.detail


def test_criterion_05_index_nonnegative():
    result, elapsed = _run(selftest.check_index_nonnegative)
    assert result.ok, result.detail
    assert elapsed < 60.0


def test_criterion_06_monotone_decrease():
    result, _ = _run(selftest.check_monotone_decrease)
    assert result.ok, result.detail


def test_criterion_06_applies_each_accepted_move_once(monkeypatch):
    """The check keeps the result its candidate loop built: in fast mode
    ``apply_move`` accepts exactly one move per counted move, and the line
    it reports is unchanged."""
    accepted = []
    apply_move = moves.apply_move

    def counted(cx, move):
        out = apply_move(cx, move)
        accepted.append(move)
        return out

    monkeypatch.setattr(moves, "apply_move", counted)
    monkeypatch.setattr(selftest, "apply_move", counted)
    result = selftest.check_monotone_decrease(fast=True)
    assert result == selftest.CheckResult(
        "monotone-decrease", True,
        "500 accepted moves, kinds [('Consolidate', 16), ('Destabilize', 187), "
        "('UndoRemovable', 46), ('Unperturb', 85), ('Untelescope', 166)]")
    assert len(accepted) == 500


def test_criterion_07_termination():
    result, _ = _run(selftest.check_termination)
    assert result.ok, result.detail


def test_criterion_08_worked_example():
    result, _ = _run(selftest.check_worked_example)
    assert result.ok, result.detail


def test_criterion_09_oracles():
    result, _ = _run(selftest.check_oracles)
    assert result.ok, result.detail


def test_criterion_10_reversal_duality():
    result, _ = _run(selftest.check_reversal_duality)
    assert result.ok, result.detail
