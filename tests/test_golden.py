"""Byte-for-byte golden reports.

The files under ``tests/golden/`` were recorded at commit
34c16612d5a61f5b2c64f9a87fdd5e2104d56700 with

    jordconf verify all --order 3
    jordconf verify all --order 3 --format json
    jordconf verify all --order 3 --mu 2/3 --nu -5/7
    jordconf tables --which 1
    jordconf tables --which 2
    jordconf matrix R

and ``verify_hopf_space_order5.txt`` at commit
8fa4629c9de826366a4dc579343ed02d38d3fb44 with

    jordconf verify hopf --family space --order 5

whose universal-R products are deeper than those of the order-3 reports,
and ``verify_algebra_mu2-3_nu-5-7.txt`` and ``verify_twist_mu2-3_nu-5-7.txt``
at commit 580a0cf45c12d90b23481a9c628bed27d0f631ab with

    jordconf verify algebra --mu 2/3 --nu -5/7
    jordconf verify twist --mu 2/3 --nu -5/7

the truncated products of the contraction sweep at the default order N=6,
with rational coefficients that have nontrivial denominators; each of these
exits 0.  A change to the engine must reproduce them exactly;
a deliberate change of a report replaces the file in the same commit.  The
universal-R ``conjugation[*]`` anchors were re-recorded when that contract
rose from order N-2 to order N ("to order 3" at N=3, "to order 5" at N=5).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from jordconf.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = [
    (("verify", "all", "--order", "3"), "verify_all_order3.txt"),
    (("verify", "all", "--order", "3", "--format", "json"), "verify_all_order3.json"),
    (("verify", "all", "--order", "3", "--mu", "2/3", "--nu", "-5/7"),
     "verify_all_order3_mu2-3_nu-5-7.txt"),
    (("tables", "--which", "1"), "tables_1.txt"),
    (("tables", "--which", "2"), "tables_2.txt"),
    (("matrix", "R"), "matrix_R.txt"),
    (("verify", "hopf", "--family", "space", "--order", "5"),
     "verify_hopf_space_order5.txt"),
    (("verify", "algebra", "--mu", "2/3", "--nu", "-5/7"),
     "verify_algebra_mu2-3_nu-5-7.txt"),
    (("verify", "twist", "--mu", "2/3", "--nu", "-5/7"),
     "verify_twist_mu2-3_nu-5-7.txt"),
]


@pytest.mark.parametrize("argv,name", CASES, ids=[name for _, name in CASES])
def test_report_matches_golden(argv, name, capsys):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / name).read_text()
