import itertools
import json
import tracemalloc

import numpy as np
import pytest

import ranksat as rs
from ranksat import oracle
from ranksat.cli import main
from ranksat.cnf import (
    MAX_EXACT_CLAUSES,
    SCORE_BLOCK_CELLS,
    _block_rows,
    d_max,
    load_instance_file,
)
from ranksat.harness import regenerate_g_histogram, run_sample
from ranksat.qsim import AngleVector, prepare_state, sample
from ranksat.shaping import CostHistogram, QuantileSet, cost_histogram, h_histogram

from conftest import all_assignments, random_formula, scored
from dense_reference import bit_planes, divergence, eval_clause, g_cost, to_dimacs

ZEROS5 = [0, 0, 0, 0, 0]
SOLUTION = [1, 1, 1, 0, 0]


# -- parsing ---------------------------------------------------------------

def test_parse_minimal():
    f = rs.parse_dimacs("p cnf 3 1\n1 -2 3 0")
    assert f.n == 3 and f.m == 1
    assert [lit.signed for lit in f.clauses[0].literals] == [1, -2, 3]


def test_parse_clause_spanning_lines_and_comments():
    text = "c header comment\np cnf 3 2\nc mid comment\n1 2\n3 0 -1\n-2 -3 0\n"
    f = rs.parse_dimacs(text)
    assert f.m == 2
    assert [lit.signed for lit in f.clauses[0].literals] == [1, 2, 3]
    assert [lit.signed for lit in f.clauses[1].literals] == [-1, -2, -3]


def test_parse_satlib_trailer():
    text = "p cnf 2 1\n1 -2 0\n%\n0\n\n"
    f = rs.parse_dimacs(text)
    assert f.m == 1


@pytest.mark.parametrize(
    "text,fragment,line",
    [
        ("p dnf 3 1\n1 2 0", "expected header", 1),
        ("p cnf x 1\n1 2 0", "non-integer counts", 1),
        ("1 2 0", "expected header", 1),
        ("c nothing here\nc at all\n", "missing 'p cnf' header", 2),
        ("p cnf 3 2\n1 2 0", "clause count mismatch", 2),
        ("p cnf 3 1\n1 2 0\n3 0", "clause count mismatch", 3),
        ("p cnf 3 1\n1 4 0", "out of range", 2),
        ("p cnf 3 1\n1 1 2 0", "duplicate variable 1", 2),
        ("p cnf 3 1\n1 -1 2 0", "duplicate variable 1", 2),
        ("p cnf 3 1\n1 2", "unterminated final clause", 2),
        ("p cnf 3 2\n1 0 0", "empty clause", 2),
    ],
)
def test_parse_errors(text, fragment, line):
    with pytest.raises(rs.DimacsError) as err:
        rs.parse_dimacs(text)
    assert fragment in str(err.value)
    assert f"line {line}" in str(err.value)


def test_parse_error_line_number_with_comments():
    text = "c one\nc two\np cnf 2 2\n1 2 0\nc gap\n1 1 0"
    with pytest.raises(rs.DimacsError, match="line 6"):
        rs.parse_dimacs(text)


def test_round_trip_widget(widget):
    assert rs.parse_dimacs(to_dimacs(widget)) == widget


def test_round_trip_random_formulas():
    rng = np.random.default_rng(11)
    for _ in range(20):
        f = random_formula(rng)
        assert rs.parse_dimacs(to_dimacs(f)) == f


def test_json_instance_rejects_weights(tmp_path, capsys):
    text = '{"n": 3, "clauses": [{"lits": [3]}, {"lits": [1, -2], "w": 2.5}]}'
    with pytest.raises(rs.DimacsError, match="clause 2: clause weights are not supported"):
        rs.parse_json_instance(text)
    path = tmp_path / "weighted.json"
    path.write_text(text)
    assert main(["validate", str(path)]) == 2
    assert "weights are not supported" in capsys.readouterr().err


def test_json_instance_malformed():
    with pytest.raises(rs.DimacsError):
        rs.parse_json_instance('{"clauses": []}')
    with pytest.raises(rs.DimacsError):
        rs.parse_json_instance('{"n": 2, "clauses": [{"lits": [1, 1]}]}')


@pytest.mark.parametrize("doc", [
    {"n": 3.9, "clauses": [{"lits": [1, -2]}]},
    {"n": 3, "clauses": [{"lits": [1, -2.7]}]},
    {"n": 3, "clauses": [{"lits": [1.0, 2]}]},
    {"n": 3, "clauses": [{"lits": [True, 3]}]},
    {"n": True, "clauses": [{"lits": [1]}]},
    {"n": "3", "clauses": [{"lits": [1]}]},
], ids=["float-n", "float-lit", "integral-float-lit", "bool-lit", "bool-n", "string-n"])
def test_json_instance_rejects_non_integers(tmp_path, doc, capsys):
    # int() would truncate 3.9 to 3 and read true as variable 1
    with pytest.raises(rs.DimacsError, match="expected a JSON integer"):
        rs.parse_json_instance(json.dumps(doc))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 2
    assert "expected a JSON integer" in capsys.readouterr().err


def test_load_instance_file_dispatch(tmp_path, widget):
    cnf = tmp_path / "a.cnf"
    cnf.write_text(to_dimacs(widget))
    assert load_instance_file(str(cnf)) == widget
    js = tmp_path / "a.json"
    js.write_text(json.dumps(
        {"n": widget.n,
         "clauses": [{"lits": [l.signed for l in c.literals]} for c in widget.clauses]}
    ))
    assert load_instance_file(str(js)) == widget


# -- domain type invariants -------------------------------------------------

def test_clause_invariants():
    # the formula checks each clause, named by its position, on whatever path built it
    with pytest.raises(ValueError, match="clause 2 is empty"):
        rs.CnfFormula(n=2, clauses=(rs.Clause((rs.Literal(1),)), rs.Clause(())))
    with pytest.raises(ValueError, match="clause 1 mentions variable 1 twice"):
        rs.CnfFormula.from_signed(2, [[1, -1]])
    with pytest.raises(ValueError, match="clause 2 uses variable 3 > n=2"):
        rs.CnfFormula.from_signed(2, [[1], [-2, 3]])
    with pytest.raises(ValueError, match="clause 1 uses variable 0 < 1"):
        rs.CnfFormula(n=2, clauses=(rs.Clause((rs.Literal(0),)),))
    with pytest.raises(ValueError, match="clause terminator"):
        rs.Literal.from_signed(0)


# -- scoring ----------------------------------------------------------------

def test_eval_clause_examples(widget):
    assert eval_clause(widget.clauses[0], SOLUTION) is True
    assert eval_clause(widget.clauses[0], ZEROS5) is False
    # clause 9 is (v1 | v5 | ~v4): the negated literal carries it on all zeros
    assert eval_clause(widget.clauses[8], ZEROS5) is True


def test_h_count_widget(widget):
    assert rs.h_count(widget, SOLUTION) == 0
    assert rs.h_count(widget, ZEROS5) == 2  # clauses 1 and 8


def test_h_count_empty_formula():
    empty = rs.CnfFormula(n=3, clauses=())
    assert rs.h_count(empty, [0, 1, 0]) == 0


def test_h_count_rejects_bad_length(widget):
    with pytest.raises(ValueError, match="length"):
        rs.h_count(widget, [0, 0, 0])


def test_divergence(widget):
    assert divergence(widget, SOLUTION) == 0
    assert divergence(widget, ZEROS5) == 1 + 64
    single = rs.CnfFormula.from_signed(1, [[1]])
    assert divergence(single, [0]) == 1


def test_g_cost_widget(widget):
    params = rs.default_params(widget)
    assert (params.zeta, params.vartheta) == (386.0, 1.0)
    assert g_cost(widget, SOLUTION) == 0.0
    assert g_cost(widget, ZEROS5) == 386 * 2 + 65


def test_g_cost_dominance_bound():
    # one unsatisfied clause at the last index still costs less than any h=2
    f = rs.CnfFormula.from_signed(1, [[1], [1], [1], [-1]])
    params = rs.default_params(f)
    g = g_cost(f, [1])
    assert g == d_max(4) + 1 + 16
    assert g < 2 * params.zeta


def test_default_params_values():
    assert rs.default_params(rs.CnfFormula(n=1, clauses=())).zeta == 1.0
    assert d_max(10) == 385
    assert d_max(91) == 255_346
    f91 = rs.CnfFormula.from_signed(1, [[1]] * 91)
    assert rs.default_params(f91) == rs.CostParams(zeta=255_347.0, vartheta=1.0)


def _g_max(m):
    # the largest cost default_params can give: every clause unsatisfied
    return (d_max(m) + 1) * m + d_max(m)


def test_default_params_refuses_inexact_costs(tmp_path, capsys, monkeypatch):
    assert _g_max(MAX_EXACT_CLAUSES) <= 2**53 < _g_max(MAX_EXACT_CLAUSES + 1)
    clause = [1, -2, 3]
    accepted = rs.CnfFormula.from_signed(3, [clause] * MAX_EXACT_CLAUSES)
    assert rs.default_params(accepted).zeta == d_max(MAX_EXACT_CLAUSES) + 1
    refused = rs.CnfFormula.from_signed(3, [clause] * (MAX_EXACT_CLAUSES + 1))
    with pytest.raises(ValueError, match="limit of 12820"):
        rs.default_params(refused)

    # the same limit on every g path: the report sample at g level (an h-level sample
    # artifact regenerated), cost_histogram, and exact_shaped_cost, which refuses before
    # building a table
    path = tmp_path / "big.cnf"
    path.write_text(to_dimacs(refused))
    angles, levels = AngleVector.zeros(1), QuantileSet.default()
    params = rs.CostParams(zeta=float(d_max(refused.m) + 1), vartheta=1.0)
    shots = sample(prepare_state(refused.n, angles), 4, np.random.default_rng(0))
    artifact = run_sample(str(path), angles, 4, 0)
    builds = []
    monkeypatch.setattr(oracle, "_unsat_table", lambda *args: builds.append(args))
    for refuse in (
        lambda: regenerate_g_histogram(artifact),
        lambda: rs.cost_histogram(refused, shots, params),
        lambda: rs.exact_shaped_cost(refused, angles, params, levels),
    ):
        with pytest.raises(ValueError, match="limit of 12820"):
            refuse()
    assert builds == []

    argv = ["optimize", str(path), "--generations", "0", "--out", str(tmp_path / "r.json")]
    assert main(argv) == 2
    assert "limit of 12820" in capsys.readouterr().err


# -- properties ---------------------------------------------------------------

def test_property_h_plus_satisfied_is_m():
    rng = np.random.default_rng(5)
    for _ in range(30):
        f = random_formula(rng)
        a = rng.integers(0, 2, size=f.n)
        satisfied = sum(eval_clause(c, a) for c in f.clauses)
        assert rs.h_count(f, a) + satisfied == f.m


def test_property_divergence_zero_iff_h_zero():
    rng = np.random.default_rng(6)
    for _ in range(30):
        f = random_formula(rng)
        a = rng.integers(0, 2, size=f.n)
        assert (divergence(f, a) == 0) == (rs.h_count(f, a) == 0)


def test_property_g_hierarchy_exhaustive():
    rng = np.random.default_rng(7)
    for _ in range(10):
        f = random_formula(rng, n=int(rng.integers(3, 7)))
        params = rs.default_params(f)
        bits = all_assignments(f.n)
        h = scored(f, bits)[0]
        for level in range(int(h.max())):
            lower, upper = bits[h == level], bits[h == level + 1]
            if lower.size and upper.size:
                lower = cost_histogram(f, lower, params).values
                assert lower.max() < cost_histogram(f, upper, params).values.min()


MIXED_WIDTHS = [
    # clause widths 1-4 in one formula, variables 1 and n, both signs
    rs.CnfFormula.from_signed(
        6, [[1], [-6, 2], [3, -4, 6], [-1, 5, -2, 4], [6, -3], [-5, 1, 3, -6]]
    ),
    rs.CnfFormula.from_signed(5, [[-5, 4, -1, 2], [5], [-1], [3, -2], [1, -3, 5]]),
    rs.CnfFormula(n=3, clauses=()),
]


def test_batch_matches_scalar():
    rng = np.random.default_rng(9)
    cases = [(f, all_assignments(f.n)) for f in MIXED_WIDTHS]
    for _ in range(10):
        f = random_formula(rng)
        cases.append((f, rng.integers(0, 2, size=(16, f.n)).astype(np.uint8)))
    # packed edge cases: rows short of a byte, one bit past it; rows of 1 and of 9 bytes
    for n, rows in itertools.product((1, 9), (1, 7, 9)):
        f = random_formula(rng, n=n, m=3 * n + 2)
        cases.append((f, rng.integers(0, 2, size=(rows, n)).astype(np.uint8)))
    # at the ga-n200 size, rows spanning two full slices and a remainder of d's slice and of
    # the h block
    f = random_formula(rng, n=200, m=852)
    blocks = [_block_rows(SCORE_BLOCK_CELLS, f.m), f.arrays.rows]
    rows = 2 * max(blocks) + 5
    assert all(rows // block >= 2 and rows % block for block in blocks)
    cases.append((f, rng.integers(0, 2, size=(rows, f.n)).astype(np.uint8)))
    for f, bits in cases:
        params = rs.default_params(f)
        h = [rs.h_count(f, row) for row in bits.tolist()]
        d = [divergence(f, row) for row in bits.tolist()]
        assert [x.tolist() for x in scored(f, bits)] == [h, d]
        hist = cost_histogram(f, bits, params)
        expected = CostHistogram.from_samples([params.zeta * k + dk for k, dk in zip(h, d)])
        assert hist.values.tolist() == expected.values.tolist()
        assert hist.counts.tolist() == expected.counts.tolist()


@pytest.mark.parametrize("s,groups", [(250, 7), (250, 12), (1500, 2), (1, 13), (7, 401)])
def test_h_counts_is_one_pass_of_unsat_matrix(s, groups):
    # h_d_sums gives the h counts and each group's d-sum from one unsat block. At m=852 it
    # reads slices of 2456 rows for s = 250 and 1500, and of 32*s rows for s = 1 and 7: 7
    # groups of 250 fit in one slice, and a slice edge cuts a group of 250 (of 12), 1500 or 7
    # rows; groups of 250 and 7 rows also end inside bytes, several groups of 7 or 1 share a
    # byte, and 13 rows leave pad bits
    rng = np.random.default_rng(10)
    f = random_formula(rng, n=200, m=852)
    bits = rng.integers(0, 2, size=(groups * s, f.n)).astype(np.uint8)
    packed = f.arrays.unsat_matrix(bit_planes(bits), len(bits))
    h, d_sums = f.arrays.h_d_sums(packed, len(bits), s)
    assert packed.shape == (f.m, -(-len(bits) // 8)) and packed.dtype == np.uint8
    assert f.arrays.rows == 2456
    assert not np.unpackbits(packed, axis=1, bitorder="little")[:, len(bits):].any()  # pad bits
    unsat = np.unpackbits(packed, axis=1, count=len(bits), bitorder="little").T
    assert h.dtype == np.uint16 and h.tolist() == unsat.sum(axis=1).tolist()
    d = unsat.astype(np.int64) @ np.arange(1, f.m + 1, dtype=np.int64) ** 2
    assert all(type(x) is int for x in d_sums)
    assert d_sums == d.reshape(groups, s).sum(axis=1).tolist()
    with pytest.raises(ValueError, match="groups of"):
        f.arrays.h_d_sums(packed, len(bits), s + 1)


def test_h_d_sums_exact_over_two_blocks_at_the_clause_limit():
    # every clause fails on every row, and one group of rows + 1 rows spans two slices
    f = rs.CnfFormula.from_signed(1, [[1]] * MAX_EXACT_CLAUSES)
    rows = f.arrays.rows
    u = f.arrays.unsat_matrix(bit_planes(np.zeros((rows + 1, 1), np.uint8)), rows + 1)
    h, d_sums = f.arrays.h_d_sums(u, rows + 1, rows + 1)
    assert h.tolist() == [MAX_EXACT_CLAUSES] * (rows + 1)
    assert d_sums == [(rows + 1) * d_max(MAX_EXACT_CLAUSES)]
    assert type(d_sums[0]) is int


def test_g_exact_at_clause_limit():
    # the one-row weight product at the exactness limit, where the top cost needs 53 bits
    accepted = rs.CnfFormula.from_signed(3, [[1, -2, 3]] * MAX_EXACT_CLAUSES)
    top = _g_max(MAX_EXACT_CLAUSES)
    assert top.bit_length() == 53
    bits = np.array([[0, 1, 0], [1, 0, 0]], dtype=np.uint8)
    hist = cost_histogram(accepted, bits, rs.default_params(accepted))
    assert hist.values.tolist() == [0, top] and hist.counts.tolist() == [1, 1]


NON_BINARY = [
    np.array([[2, 0]], dtype=np.uint8),
    np.array([[2, 0]]),
    np.array([[0.7, 1.0]]),
    np.array([[1, -1]]),
    np.array([[np.nan, 0.0]]),
]


@pytest.mark.parametrize("bits", NON_BINARY, ids=lambda b: f"{b.dtype}-{b[0].tolist()}")
def test_scorers_refuse_non_binary_bits(bits):
    # [2, 0] once gave h_count 1 but batch h 0, and 0.7 was truncated to 0
    f = rs.CnfFormula.from_signed(2, [[1, 2], [-1, -2]])
    # the scorers read planes; every path from a bit matrix builds them with planes_of
    for refuse in (lambda: rs.h_count(f, bits[0].tolist()), lambda: f.arrays.planes_of(bits),
                   lambda: cost_histogram(f, bits, rs.default_params(f)),
                   lambda: h_histogram(f, bits)):
        with pytest.raises(ValueError, match="0 or 1"):
            refuse()


def test_scorers_accept_any_binary_dtype():
    f = rs.CnfFormula.from_signed(2, [[1, 2], [-1, -2]])
    rows = [[0, 0], [1, 0], [1, 1]]
    for dtype, order in itertools.product((np.uint8, np.int64, np.float64, np.bool_), "CF"):
        bits = np.array(rows, dtype=dtype, order=order)
        planes = f.arrays.planes_of(bits)
        assert planes.tolist() == bit_planes(rows).tolist()
        assert f.arrays.scores(planes, len(bits)).tolist() == [1, 0, 1]
        assert h_histogram(f, bits).counts.tolist() == [1, 2]


def _scorer(f, method, bits):
    """The scoring call named ``method`` on the rows of ``bits``, with its planes, unsat block
    and row indices built beforehand: "h" and "unsat_matrix" as the report samples call them,
    "d" and "h_d_sums" (as one group of all rows and as one group per row) as the GA's fitness
    pass does on a whole generation's block, and "g" through cost_histogram."""
    s, planes = len(bits), bit_planes(bits)
    u, index = f.arrays.unsat_matrix(planes, s), np.arange(s)
    return {
        "unsat_matrix": lambda: f.arrays.unsat_matrix(planes, s),
        "h": lambda: f.arrays.scores(planes, s),
        "d": lambda: f.arrays.d(u, index),
        "h_d_sums": lambda: (f.arrays.h_d_sums(u, s, s), f.arrays.h_d_sums(u, s, 1)),
        "g": lambda: cost_histogram(f, bits, rs.default_params(f)),
    }[method]


def _traced_peak(score) -> int:
    tracemalloc.start()
    try:
        score()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("method", ["unsat_matrix", "h", "g"])
def test_scoring_memory_bound(method):
    # scoring never holds an (s, m, width) gather; unsat_matrix packs 8 rows per byte, so even
    # one whole (s, m) bool matrix exceeds its bound
    s, rng = 2000, np.random.default_rng(4)
    f = random_formula(rng, n=100, m=426)
    bits = rng.integers(0, 2, size=(s, f.n)).astype(np.uint8)
    score = _scorer(f, method, bits)
    score()
    assert _traced_peak(score) < (1 if method == "unsat_matrix" else 4) * s * f.m


@pytest.mark.parametrize("method", ["h", "d", "g", "h_d_sums"])
def test_scoring_peak_does_not_grow_with_rows(method):
    # a whole (s, m) bool matrix plus its reductions needed about 3.25*s*m bytes (28 MB here);
    # one block or slice alive at a time stays under 3 MB (a second one put h at 3.6 MB).
    # h_d_sums takes all s rows as one group, which spans many slices, and then each row as a
    # group of its own, whose int64 d-sum product once took 23 MB in one piece
    s, rng = 20_000, np.random.default_rng(4)
    f = random_formula(rng, n=100, m=426)
    f.arrays
    bits = rng.integers(0, 2, size=(s, f.n)).astype(np.uint8)
    assert _traced_peak(_scorer(f, method, bits)) < 3 * 2**20
