import itertools
import math
import tracemalloc

import numpy as np
import pytest

import ranksat as rs

from ranksat.qsim import (
    AngleVector,
    QuantumState,
    SAMPLE_BLOCK_CELLS,
    bits_from_ranks,
    draw_planes,
    p_one_rows,
    prepare_state,
    sample,
)

from conftest import random_formula, scored
from dense_reference import (
    bit_planes,
    block_shots,
    dense_state,
    probability,
    product_state_loop,
    rank_of,
)


def test_rank_of_examples():
    assert rank_of([0] * 8) == 0
    assert rank_of([1, 0, 1]) == 5
    assert rank_of([1] * 20) == 2**20 - 1 == 1_048_575


def test_rank_of_rejects():
    with pytest.raises(ValueError):
        rank_of([0, 2, 0])
    with pytest.raises(ValueError):
        rank_of([0] * 63)


def test_bits_from_ranks_roundtrip():
    rng = np.random.default_rng(0)
    ranks = rng.integers(0, 2**16, size=50)
    bits = bits_from_ranks(ranks, 16)
    assert [rank_of(row) for row in bits] == list(ranks)


def test_angle_vector_validation():
    with pytest.raises(ValueError):
        AngleVector(betas=(0.1,), gammas=(0.1, 0.2))
    with pytest.raises(ValueError):
        AngleVector(betas=(), gammas=())
    av = AngleVector.zeros(3)
    assert av.depth == 3
    assert AngleVector.from_json_obj(av.to_json_obj()) == av


def test_zero_angles_uniform():
    state = prepare_state(20, AngleVector.zeros(2))
    assert np.all(state.p1 == 0.5)
    a = [1, 0] * 10
    assert probability(state, a) == pytest.approx(2.0**-20, rel=1e-12)


def test_depth1_closed_form_examples():
    st = prepare_state(1, AngleVector(betas=(math.pi / 4,), gammas=(math.pi / 2,)))
    assert probability(st, [1]) == pytest.approx(1.0, abs=1e-12)
    assert probability(st, [0]) == pytest.approx(0.0, abs=1e-12)
    st = prepare_state(1, AngleVector(betas=(math.pi / 4,), gammas=(math.pi,)))
    assert probability(st, [0]) == pytest.approx(0.5, abs=1e-12)


def test_depth1_closed_form_per_qubit():
    # p1_j = (1 + sin(2*beta) * sin(gamma * 2**j)) / 2 at depth 1, documented in ranksat.qsim
    rng = np.random.default_rng(1)
    for n in (3, 40, 62):
        for _ in range(20):
            beta, gamma = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
            p1 = prepare_state(n, AngleVector(betas=(beta,), gammas=(gamma,))).p1
            expected = [(1 + math.sin(2 * beta) * math.sin(gamma * 2**j)) / 2 for j in range(n)]
            np.testing.assert_allclose(p1, expected, rtol=0, atol=1e-15)


def test_per_qubit_normalization_every_layer():
    # after every layer, each qubit's marginal of the normalized dense state is p1
    rng = np.random.default_rng(2)
    for _ in range(20):
        depth = int(rng.integers(1, 5))
        angles = AngleVector(
            betas=tuple(rng.uniform(0, math.pi, depth)),
            gammas=tuple(rng.uniform(0, 2 * math.pi, depth)),
        )
        # applying prefixes of the layer list exercises "after every layer"
        for upto in range(1, depth + 1):
            prefix = AngleVector(angles.betas[:upto], angles.gammas[:upto])
            state = prepare_state(6, prefix)
            dense = np.abs(dense_state(6, prefix.betas, prefix.gammas)) ** 2
            assert dense.sum() == pytest.approx(1.0, abs=1e-12)
            marginals = bits_from_ranks(np.arange(1 << 6), 6).T @ dense
            np.testing.assert_allclose(state.p1, marginals, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [8, 12])
def test_probabilities_sum_to_one(n):
    rng = np.random.default_rng(3)
    angles = AngleVector(
        betas=tuple(rng.uniform(0, math.pi, 2)),
        gammas=tuple(rng.uniform(0, 2 * math.pi, 2)),
    )
    state = prepare_state(n, angles)
    probs = _all_probabilities(state, bits_from_ranks(np.arange(1 << n), n))
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_probability_is_squared_amplitude():
    rng = np.random.default_rng(4)
    angles = AngleVector(
        betas=tuple(rng.uniform(0, math.pi, 3)),
        gammas=tuple(rng.uniform(0, 2 * math.pi, 3)),
    )
    state = prepare_state(5, angles)
    dense = dense_state(5, angles.betas, angles.gammas)
    for _ in range(10):
        a = rng.integers(0, 2, size=5)
        assert probability(state, a) == pytest.approx(abs(dense[rank_of(a)]) ** 2, rel=1e-12)


def test_phase_eigenstructure():
    # with beta = 0 the circuit only phases each rank: <x|state> = 2^{-n/2} e^{-i*gamma*rank}
    rng = np.random.default_rng(5)
    for n in (1, 4, 6):
        gamma = float(rng.uniform(0, 2 * math.pi))
        state = prepare_state(n, AngleVector(betas=(0.0,), gammas=(gamma,)))
        assert np.all(state.p1 == 0.5)
        for r in range(1 << n):
            bits = [(r >> j) & 1 for j in range(n)]
            expected = 2 ** (-n / 2) * np.exp(-1j * gamma * r)
            assert abs(probability(state, bits) - abs(expected) ** 2) < 1e-12


def test_dense_equivalence_unit():
    rng = np.random.default_rng(6)
    for _ in range(5):
        n = int(rng.integers(1, 7))
        depth = int(rng.integers(1, 4))
        betas = tuple(rng.uniform(0, math.pi, depth))
        gammas = tuple(rng.uniform(0, 2 * math.pi, depth))
        state = prepare_state(n, AngleVector(betas, gammas))
        dense = dense_state(n, betas, gammas)
        for r in range(1 << n):
            bits = [(r >> j) & 1 for j in range(n)]
            assert abs(probability(state, bits) - abs(dense[r]) ** 2) < 1e-12


def _all_probabilities(state, bits):
    return np.where(bits == 1, state.p1, 1 - state.p1).prod(axis=1)


def test_gamma_2pi_and_beta_pi_periodicity():
    # exhaustive over all assignments up to n = 8
    rng = np.random.default_rng(7)
    for n in (2, 5, 8):
        bits = bits_from_ranks(np.arange(1 << n), n)
        for _ in range(5):
            betas = tuple(rng.uniform(0, math.pi, 2))
            gammas = tuple(rng.uniform(0, 2 * math.pi, 2))
            base = _all_probabilities(prepare_state(n, AngleVector(betas, gammas)), bits)
            shifted_g = _all_probabilities(
                prepare_state(n, AngleVector(betas, (gammas[0] + 2 * math.pi, gammas[1]))),
                bits,
            )
            shifted_b = _all_probabilities(
                prepare_state(n, AngleVector((betas[0] + math.pi, betas[1]), gammas)),
                bits,
            )
            np.testing.assert_allclose(shifted_g, base, atol=1e-12)
            np.testing.assert_allclose(shifted_b, base, atol=1e-12)


def test_sample_deterministic():
    state = prepare_state(6, AngleVector(betas=(0.3, 0.9), gammas=(1.1, 0.4)))
    a = sample(state, 250, np.random.default_rng(42))
    b = sample(state, 250, np.random.default_rng(42))
    c = sample(state, 250, np.random.default_rng(43))
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sample_deterministic_state():
    pinned = QuantumState(p1=np.ones(4))
    shots = sample(pinned, 100, np.random.default_rng(0))
    assert shots.shape == (100, 4)
    np.testing.assert_array_equal(shots, 1)


def test_sample_chi_square_against_exact():
    from scipy import stats

    n = 5
    state = prepare_state(n, AngleVector(betas=(0.4, 1.1), gammas=(0.7, 2.3)))
    shots = sample(state, 100_000, np.random.default_rng(11))
    ranks = shots @ (1 << np.arange(n))
    observed = np.bincount(ranks, minlength=1 << n)
    expected = _all_probabilities(state, bits_from_ranks(np.arange(1 << n), n)) * len(shots)
    keep = expected >= 5  # chi-square validity; lump tiny bins together
    obs = np.append(observed[keep], observed[~keep].sum())
    exp = np.append(expected[keep], expected[~keep].sum())
    if exp[-1] == 0:
        obs, exp = obs[:-1], exp[:-1]
    _, pvalue = stats.chisquare(obs, exp * obs.sum() / exp.sum())
    assert pvalue > 6.33e-5  # 4-sigma two-sided


def test_sample_validates():
    state = prepare_state(2, AngleVector.zeros(1))
    for s in (0, -3):  # draw_planes' check, which sample leaves to it
        with pytest.raises(ValueError, match="shot count must be >= 1, got"):
            sample(state, s, np.random.default_rng(0))
    with pytest.raises(ValueError):
        probability(state, [0])


def test_p_one_rows_bit_identical_to_single_states():
    # every operation is elementwise, so a row's bytes cannot depend on P or n
    rng = np.random.default_rng(21)
    for n in (1, 2, 3, 5, 20, 33, 62, 200, 1000):
        for depth in (1, 2, 3):
            for size in (1, 2, 7, 26, 30, 61):
                betas = rng.uniform(0, math.pi, (size, depth))
                gammas = rng.uniform(0, 2 * math.pi, (size, depth))
                rows = p_one_rows(n, betas, gammas)
                assert rows.shape == (size, n)
                for b, g, row in zip(betas.tolist(), gammas.tolist(), rows):
                    single = prepare_state(n, AngleVector(betas=tuple(b), gammas=tuple(g)))
                    assert row.tobytes() == single.p1.tobytes()


def test_p_one_rows_match_the_complex_reference():
    rng = np.random.default_rng(22)
    for n in (1, 5, 20, 40, 62, 200, 1000):
        for depth in (1, 2, 3):
            betas = rng.uniform(0, math.pi, (5, depth))
            gammas = rng.uniform(0, 2 * math.pi, (5, depth))
            for b, g, row in zip(betas.tolist(), gammas.tolist(), p_one_rows(n, betas, gammas)):
                amps = product_state_loop(n, AngleVector(betas=tuple(b), gammas=tuple(g)))
                np.testing.assert_allclose(row, np.abs(amps[:, 1]) ** 2, rtol=0, atol=2e-15)


def test_p_one_rows_stay_in_the_unit_interval():
    # unclipped, rounding puts 83 of these cells below 0, by up to 1.1e-16
    grid = np.arange(16) * math.pi / 16
    for depth in (1, 2, 3):
        gammas = np.array(list(itertools.product(grid, repeat=depth)))
        for beta in grid:
            p1 = p_one_rows(64, np.full_like(gammas, beta), gammas)
            assert p1.min() >= 0.0 and p1.max() <= 1.0


def test_p_one_rows_validates():
    with pytest.raises(ValueError):
        p_one_rows(0, np.zeros((1, 1)), np.zeros((1, 1)))
    with pytest.raises(ValueError):
        p_one_rows(3, np.zeros((2, 1)), np.zeros((2, 2)))


def test_phase_overflow_is_refused():
    # 1.1*2**j overflows from qubit 1024 and 0*2**1024 is NaN; both once left p1 NaN, and every
    # such qubit silently read 0
    for gamma, n in ((1.1, 1100), (0.0, 1025)):
        with pytest.raises(ValueError, match="layer 0 is not finite from qubit 1024"):
            prepare_state(n, AngleVector((0.3,), (gamma,)))
    with pytest.raises(ValueError, match="layer 1 is not finite from qubit 1022"):
        p_one_rows(1023, np.full((2, 2), 0.3), np.array([[1.0, 4.0], [1.0, 1.0]]))
    # below 2*pi, the phases of 1000 qubits still fit float64
    p1 = prepare_state(1000, AngleVector((0.3,), (2 * math.pi - 1e-9,))).p1
    assert np.isfinite(p1).all() and p1.min() >= 0.0 and p1.max() <= 1.0
    for bad in (np.nan, -1e-3):
        with pytest.raises(ValueError, match="NaN or < 0"):
            draw_planes([0.5, bad], 4, np.random.default_rng(0))


def _block_words(n, count, rng):
    """The (n, count) 16-bit words of a block of ``count`` shots drawn first from ``rng``."""
    raw = rng.bit_generator.random_raw(-(-count * n // 4))
    return raw.astype("<u8").view("<u2")[:count * n].reshape(n, count)


def test_sample_blocks_draw_like_one_draw():
    # a block's words are drawn qubit-major about SAMPLE_BLOCK_CELLS at a time, in runs of 4
    # qubits; these sizes take several draws, and at n = 999 and 7 the last one ends inside a
    # 64-bit word
    angles = AngleVector(betas=(0.4, 1.1), gammas=(0.7, 2.3))
    for n, s in ((1000, 3001), (999, 3001), (7, 3 * (SAMPLE_BLOCK_CELLS // 7) + 18)):
        assert n * s > 2 * SAMPLE_BLOCK_CELLS and (n * s % 4 > 0) == (n != 1000)
        state = prepare_state(n, angles)
        shots = sample(state, s, np.random.default_rng(5))
        one_draw = block_shots(state.p1, s, np.random.default_rng(5))
        assert shots.dtype == np.uint8 and shots.shape == (s, n)
        np.testing.assert_array_equal(shots, one_draw)
        planes = draw_planes(state.p1, s, np.random.default_rng(5))
        np.testing.assert_array_equal(planes, bit_planes(one_draw))
    # grouped biases: each qubit's words cross every group of 100 shots. All groups share the
    # threshold 30000, but a tie reads 0 in group 0 (no fraction left) and almost surely 1 in
    # the others (fraction 0.999).
    n, s = 999, 100
    p1 = np.full((5, n), 30000.999 / 65536)
    p1[0] = 30000 / 65536
    planes = draw_planes(p1, 5 * s, np.random.default_rng(6))
    bits = block_shots(p1, s, np.random.default_rng(6))
    np.testing.assert_array_equal(planes, bit_planes(bits))
    tied = _block_words(n, 5 * s, np.random.default_rng(6)) == 30000
    assert not bits.T[:, :s][tied[:, :s]].any() and bits.T[:, s:][tied[:, s:]].any()
    # one bias row is the (n,) path, and rows that split unevenly are refused
    one = draw_planes(p1[1:2], s, np.random.default_rng(6))
    np.testing.assert_array_equal(one, draw_planes(p1[1], s, np.random.default_rng(6)))
    np.testing.assert_array_equal(one, bit_planes(block_shots(p1[1], s, np.random.default_rng(6))))
    with pytest.raises(ValueError, match="groups"):
        draw_planes(p1[:2], 7, np.random.default_rng(0))


def _tied_at_shot_5(n, rows, seed):
    """A bias row whose thresholds are the words of shot 5 of the first block of ``rows``
    shots drawn from ``seed``, plus a half: that shot ties in every qubit and settles to
    about half ones. Even qubits instead get p < 2**-16 (threshold 0), so each of their 1s is
    a settled tie in every block."""
    p1 = (_block_words(n, rows, np.random.default_rng(seed))[:, 5] + 0.5) / 65536
    p1[::2] = 0.9 * 2.0**-16
    return p1


def _per_block_reference(p1, count, rng, rows):
    """The shots of ``count`` shots drawn in blocks of ``rows``: ``block_shots`` of each block
    in turn, from one rng."""
    return np.vstack([block_shots(p1, min(rows, count - start), rng)
                      for start in range(0, count, rows)])


def _report_blocks(n, m, seed, zeta):
    """A report sample as the harness scores it, ``ClauseArrays.scores`` calling a draw of
    ``draw_planes``, over two whole blocks of ``f.arrays.rows`` shots and a remainder that cuts
    a byte, with the thresholds of ``_tied_at_shot_5``; its scores must equal those of the
    per-block reference shots. Returns the formula, those shots, the count asked of each
    draw, a copy of each block's planes as drawn and the planes themselves, kept uncopied."""
    f = random_formula(np.random.default_rng(n), n=n, m=m)
    rows = f.arrays.rows
    s = 2 * rows + rows // 2 + 3
    p1 = _tied_at_shot_5(n, rows, seed)
    expected = _per_block_reference(p1, s, np.random.default_rng(seed), rows)
    rng, counts, copies, kept = np.random.default_rng(seed), [], [], []

    def draw(count):
        counts.append(count)
        kept.append(draw_planes(p1, count, rng))
        copies.append(kept[-1].copy())
        return kept[-1]

    zeta = rs.default_params(f).zeta if zeta else None
    got = f.arrays.scores(draw, s, zeta)
    h, d = scored(f, expected)
    np.testing.assert_array_equal(got, h if zeta is None else zeta * h + d)
    return f, expected, counts, copies, kept


def test_shot_blocks_settle_ties_in_bounded_chunks():
    # each block draws its own words and then settles its own ties, so the shots depend on
    # the block size; the scorer asks for blocks of f.arrays.rows shots in order, none longer,
    # and every block equals the per-block reference as it is drawn. Each block is its own
    # planes array, so the remainder need not be whole bytes of shots
    for n, m, rows in ((999, 2100, 1024), (101, 426, 4920)):
        f, expected, counts, copies, _ = _report_blocks(n, m, 3, zeta=False)
        assert f.arrays.rows == rows and counts == [rows, rows, rows // 2 + 3]
        assert 0 < expected[5, 1::2].sum() < n // 2  # shot 5 ties in every odd qubit
        for k, planes in enumerate(copies):
            block = expected[k * rows:(k + 1) * rows]
            assert block[:, ::2].any()  # a settled tie in every block
            np.testing.assert_array_equal(planes, bit_planes(block))


def test_shot_blocks_are_final_when_yielded():
    # blocks kept as they are handed to the scorer, uncopied, are never written again, by the
    # scorer or by a later block's draw; the g path draws the same blocks
    for n, m in ((999, 2100), (101, 426)):
        f, expected, counts, _, kept = _report_blocks(n, m, 7, zeta=True)
        rows = f.arrays.rows
        assert counts == [rows, rows, rows // 2 + 3]
        for k, planes in enumerate(kept):
            np.testing.assert_array_equal(planes, bit_planes(expected[k * rows:(k + 1) * rows]))


def test_shot_draws_leave_rng_where_one_draw_does():
    # rng ends where each block's words, then its rng.random(k) for the block's k ties, leave
    # it; a buffered 32-bit half word, which random_raw and random do not use, stays buffered
    n, count, rows = 100, 200, 64

    def stream():
        rng = np.random.default_rng(8)
        rng.integers(10, dtype=np.uint32)
        assert rng.bit_generator.state["has_uint32"] == 1
        return rng

    def tied(block):
        """Thresholds at shot 5 of the first block of ``block`` shots of ``stream()``."""
        return (_block_words(n, block, stream())[:, 5] + 0.5) / 65536

    p1 = tied(count)
    reference = stream()
    expected = block_shots(p1, count, reference)
    drawn = stream()
    np.testing.assert_array_equal(sample(QuantumState(p1), count, drawn), expected)
    assert 0 < expected[5].sum() < n
    assert drawn.bit_generator.state == reference.bit_generator.state
    p1 = tied(rows)
    reference = stream()
    expected = _per_block_reference(p1, count, reference, rows)
    drawn = stream()
    got = [draw_planes(p1, min(rows, count - start), drawn)
           for start in range(0, count, rows)]
    assert 0 < expected[5].sum() < n
    assert drawn.bit_generator.state == reference.bit_generator.state
    np.testing.assert_array_equal(np.hstack(got), bit_planes(expected))
    # the draw needs nothing of the bit generator beyond random_raw and random
    for make in (np.random.MT19937, np.random.Philox):
        reference, drawn = np.random.Generator(make(0)), np.random.Generator(make(0))
        p1 = (_block_words(n, 8, np.random.Generator(make(0)))[:, 5] + 0.5) / 65536
        expected = block_shots(p1, 8, reference)
        assert 0 < expected[5].sum() < n
        np.testing.assert_array_equal(sample(QuantumState(p1), 8, drawn), expected)
        after = [rng.bit_generator.random_raw(4).tolist() for rng in (drawn, reference)]
        assert after[0] == after[1]


def test_fill_shots_threshold_multiples_are_the_word_compare():
    # p = k/65536 leaves no fraction, so a tied word reads 0 like any word >= k
    k = np.array([0, 1, 2, 255, 32768, 40000, 65535])
    s = 20_000
    bits = sample(QuantumState(k / 65536), s, np.random.default_rng(9))
    words = _block_words(k.size, s, np.random.default_rng(9))
    np.testing.assert_array_equal(bits, (words < k[:, None]).T)


def test_fill_shots_edges_are_certain():
    # 300k cells per column: about 4.6 ties each, which the refinement must settle
    p1 = np.array([0.0, 1.0, 1.0 + 2.0**-52])
    bits = sample(QuantumState(p1), 300_000, np.random.default_rng(2))
    assert not bits[:, 0].any()
    assert bits[:, 1:].all()


def test_fill_shots_below_a_word_step_uses_the_tie_path():
    # p < 2**-16 gives threshold 0, so every 1 is a tied word refined by a uniform
    p, shape = 3 * 2.0**-19, (4096, 4096)
    planes = draw_planes(np.full(shape[1], p), shape[0], np.random.default_rng(4))
    cells = shape[0] * shape[1]
    ones = int(np.bitwise_count(planes).sum())
    assert abs(ones - cells * p) < 4 * math.sqrt(cells * p * (1 - p))
    words = _block_words(shape[1], shape[0], np.random.default_rng(4))
    assert ones <= np.count_nonzero(words == 0)


def test_sample_memory_is_the_bits_plus_a_block():
    # one (s, n) float64 draw would need 8 bytes per shot-bit on top of the bits
    s, n = 20_000, 1000
    state = prepare_state(n, AngleVector(betas=(0.4,), gammas=(0.7,)))
    tracemalloc.start()
    try:
        sample(state, s, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * s * n
