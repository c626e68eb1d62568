import itertools
import math
import tracemalloc

import numpy as np
import pytest

from ranksat.qsim import (
    AngleVector,
    QuantumState,
    SAMPLE_BLOCK_CELLS,
    bits_from_ranks,
    draw_shots,
    p_one_rows,
    prepare_state,
    sample,
    shot_blocks,
)
from ranksat.cnf import _block_rows

from dense_reference import (
    dense_state,
    probability,
    product_state_loop,
    rank_of,
    raw_word_shots,
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
    for s in (0, -3):  # shot_blocks' check, which sample leaves to it
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
            draw_shots([0.5, bad], 4, np.random.default_rng(0))


def test_sample_blocks_draw_like_one_draw():
    angles = AngleVector(betas=(0.4, 1.1), gammas=(0.7, 2.3))
    for n in (1000, 999, 7):
        state = prepare_state(n, angles)
        s = 3 * (SAMPLE_BLOCK_CELLS // n) + 17  # three full draws and a remainder
        shots = sample(state, s, np.random.default_rng(5))
        one_draw = raw_word_shots(state.p1, s, np.random.default_rng(5))
        assert shots.dtype == np.uint8
        np.testing.assert_array_equal(shots, one_draw)
    # grouped biases: n=999 gives draws of 256 rows, so the first boundary falls inside
    # group 2 of 100 rows. All groups share the threshold 30000, but a tie reads 0 in
    # group 0 (no fraction left) and almost surely 1 in the others (fraction 0.999).
    n, s = 999, 100
    p1 = np.full((5, n), 30000.999 / 65536)
    p1[0] = 30000 / 65536
    assert _block_rows(SAMPLE_BLOCK_CELLS, n) % s
    bits = draw_shots(p1, 5 * s, np.random.default_rng(6))
    np.testing.assert_array_equal(bits, raw_word_shots(p1, s, np.random.default_rng(6)))
    words = np.random.default_rng(6).bit_generator.random_raw(-(-bits.size // 4))
    tied = np.flatnonzero(words.astype("<u8").view("<u2")[:bits.size] == 30000)
    assert np.any(bits.reshape(-1)[tied[tied >= s * n]] == 1)
    # one bias row is the (n,) path, and rows that split unevenly are refused
    one = draw_shots(p1[1:2], s, np.random.default_rng(6))
    np.testing.assert_array_equal(one, raw_word_shots(p1[1], s, np.random.default_rng(6)))
    with pytest.raises(ValueError, match="groups"):
        draw_shots(p1[:2], 7, np.random.default_rng(0))


def test_shot_blocks_settle_ties_in_bounded_chunks():
    # thresholds at row 5's own words tie every cell of that row, and about 15 rows hold a
    # tie; each block comes once, settled, and no block is longer than asked
    n, s = 999, 1000
    raw = np.random.default_rng(3).bit_generator.random_raw(-(-s * n // 4))
    words = raw.astype("<u8").view("<u2")[:s * n].reshape(s, n)
    p1 = (words[5] + 0.5) / 65536
    tie_rows = np.flatnonzero((words == words[5]).any(axis=1))
    assert len(tie_rows) > 8
    expected = raw_word_shots(p1, s, np.random.default_rng(3))
    assert 0 < expected[5].sum() < n
    for rows in (8, 64, 1000, 1008):
        got, sizes = np.full((s, n), 2, dtype=np.uint8), []
        for index, bits in shot_blocks(p1, s, np.random.default_rng(3), rows):
            got[index] = bits
            sizes.append(len(bits))
        np.testing.assert_array_equal(got, expected)
        assert max(sizes) <= rows and sum(sizes) == s
    for rows in (0, 12):
        with pytest.raises(ValueError, match="multiple of 8"):
            next(shot_blocks(p1, s, np.random.default_rng(3), rows))


def _tie_in_every_8_rows(n, groups, seed):
    """Grouped biases of 8 rows per group, each group biased at one of its own rows' words
    plus a half: that row ties in every cell and settles to about half ones."""
    raw = np.random.default_rng(seed).bit_generator.random_raw(-(-groups * 8 * n // 4))
    words = raw.astype("<u8").view("<u2")[:groups * 8 * n].reshape(groups, 8, n)
    return (words[np.arange(groups), np.arange(groups) % 8] + 0.5) / 65536


def test_shot_blocks_are_final_when_yielded():
    # every 8-row block holds a tied row, so a block read as it comes shows unsettled ties
    n, groups = 999, 125
    p1 = _tie_in_every_8_rows(n, groups, 7)
    expected = raw_word_shots(p1, 8, np.random.default_rng(7))
    for rows in (8, 64, 1000, 1008):
        blocks = [(index, bits.copy()) for index, bits in
                  shot_blocks(p1, groups * 8, np.random.default_rng(7), rows)]
        for index, bits in blocks:
            np.testing.assert_array_equal(bits, expected[index])
        assert [index.start for index, _ in blocks] == list(range(0, groups * 8, rows))


def test_shot_draws_leave_rng_where_one_draw_does():
    # the words are skipped by advance, which alone would drop a buffered 32-bit half word
    n, groups = 100, 25
    p1 = _tie_in_every_8_rows(n, groups, 8)

    def stream():
        rng = np.random.default_rng(8)
        rng.integers(10, dtype=np.uint32)
        assert rng.bit_generator.state["has_uint32"] == 1
        return rng

    reference = stream()
    raw_word_shots(p1, 8, reference)
    drawn = stream()
    draw_shots(p1, groups * 8, drawn)
    assert drawn.bit_generator.state == reference.bit_generator.state
    drawn = stream()
    for _ in shot_blocks(p1, groups * 8, drawn, 16):
        pass
    assert drawn.bit_generator.state == reference.bit_generator.state
    # MT19937 has no advance, and Philox's advances its counter, four words a step
    for bit_generator in (np.random.MT19937(0), np.random.Philox(0)):
        with pytest.raises(ValueError, match="PCG64"):
            sample(QuantumState(np.full(3, 0.5)), 8, np.random.Generator(bit_generator))


def test_fill_shots_threshold_multiples_are_the_word_compare():
    # p = k/65536 leaves no fraction, so a tied word reads 0 like any word >= k
    k = np.array([0, 1, 2, 255, 32768, 40000, 65535])
    s = 20_000
    bits = draw_shots(k / 65536, s, np.random.default_rng(9))
    raw = np.random.default_rng(9).bit_generator.random_raw(-(-s * k.size // 4))
    words = raw.astype("<u8").view("<u2")[:s * k.size].reshape(s, k.size)
    np.testing.assert_array_equal(bits, words < k)


def test_fill_shots_edges_are_certain():
    # 300k cells per column: about 4.6 ties each, which the refinement must settle
    p1 = np.array([0.0, 1.0, 1.0 + 2.0**-52])
    bits = draw_shots(p1, 300_000, np.random.default_rng(2))
    assert not bits[:, 0].any()
    assert bits[:, 1:].all()


def test_fill_shots_below_a_word_step_uses_the_tie_path():
    # p < 2**-16 gives threshold 0, so every 1 is a tied word refined by a uniform
    p, shape = 3 * 2.0**-19, (4096, 4096)
    bits = draw_shots(np.full(shape[1], p), shape[0], np.random.default_rng(4))
    cells = shape[0] * shape[1]
    assert abs(int(bits.sum()) - cells * p) < 4 * math.sqrt(cells * p * (1 - p))


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
