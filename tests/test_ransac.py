import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twoview.eightpoint import SolverBreakdown, build_monomial_matrix
from twoview.epipolar import (
    _epipolar_terms,
    pose_angular_errors,
    recover_pose,
    symmetric_epipolar_distances,
)
from twoview import ransac
from twoview.ransac import (
    SAMPLE_SIZE,
    InsufficientCorrespondences,
    RansacConfig,
    _distances_batch,
    _draw_octets,
    _required_iterations,
    _scan_chunk,
    _score_hypotheses,
    _scoring_workspace,
    ransac_essential,
    ransac_postprocess,
)
from twoview.synthdata import SceneConfig, generate_pair


def essential_error(E, E_gt):
    return min(np.linalg.norm(E - E_gt), np.linalg.norm(E + E_gt))


class TestRansacEssential:
    def test_noise_free_no_outliers(self):
        pair = generate_pair(SceneConfig(n=100, outlier_ratio=0.0, pixel_noise=0.0, seed=0))
        res = ransac_essential(pair.correspondences, RansacConfig(seed=0))
        assert res.mask.all()
        assert essential_error(res.essential, pair.essential) < 1e-6

    def test_half_outliers_recovers_pose_and_inliers(self):
        for seed in range(5):
            pair = generate_pair(SceneConfig(n=256, outlier_ratio=0.5, pixel_noise=0.0,
                                             seed=10 + seed))
            res = ransac_essential(pair.correspondences, RansacConfig(seed=seed))
            est = recover_pose(res.essential, pair.correspondences, res.mask.astype(float))
            rot, trans = pose_angular_errors(est, pair.pose())
            assert rot < 1.0 and trans < 1.0
            exact = symmetric_epipolar_distances(pair.essential, pair.correspondences) < 1e-12
            assert np.all(res.mask[exact])  # every true inlier recovered

    def test_non_finite_correspondence_rejected(self):
        pair = generate_pair(SceneConfig(n=64, outlier_ratio=0.3, pixel_noise=0.5, seed=23))
        C = pair.correspondences.copy()
        C[5] = np.nan
        with pytest.raises(ValueError, match="finite"):
            ransac_essential(C, RansacConfig(seed=0))

    def test_overflowing_gram_is_a_solver_breakdown(self):
        pair = generate_pair(SceneConfig(n=64, outlier_ratio=0.3, pixel_noise=0.5, seed=24))
        with pytest.raises(SolverBreakdown, match="not finite"):
            ransac_essential(pair.correspondences * 1e80, RansacConfig(seed=0))

    def test_eigensolver_failure_is_a_solver_breakdown(self, monkeypatch):
        def no_convergence(G):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", no_convergence)
        pair = generate_pair(SceneConfig(n=64, outlier_ratio=0.3, pixel_noise=0.5, seed=24))
        with pytest.raises(SolverBreakdown, match="did not converge"):
            ransac_essential(pair.correspondences, RansacConfig(seed=0))

    def test_too_few_correspondences(self):
        with pytest.raises(InsufficientCorrespondences):
            ransac_essential(np.zeros((7, 4)), RansacConfig(seed=0))

    def test_deterministic_under_seed(self):
        pair = generate_pair(SceneConfig(n=128, outlier_ratio=0.4, pixel_noise=0.5, seed=20))
        r1 = ransac_essential(pair.correspondences, RansacConfig(seed=3))
        r2 = ransac_essential(pair.correspondences, RansacConfig(seed=3))
        assert np.array_equal(r1.essential, r2.essential)
        assert np.array_equal(r1.mask, r2.mask)
        assert r1.iterations == r2.iterations

    def test_mask_matches_model_distances(self):
        pair = generate_pair(SceneConfig(n=128, outlier_ratio=0.4, pixel_noise=0.5, seed=21))
        cfg = RansacConfig(seed=4)
        res = ransac_essential(pair.correspondences, cfg)
        d = symmetric_epipolar_distances(res.essential, pair.correspondences)
        assert np.array_equal(res.mask, d < cfg.threshold)

    def test_early_exit_bounds_iterations(self):
        pair = generate_pair(SceneConfig(n=256, outlier_ratio=0.1, pixel_noise=0.0, seed=22))
        res = ransac_essential(pair.correspondences, RansacConfig(seed=5))
        assert res.iterations < 100  # high inlier ratio exits almost immediately

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RansacConfig(threshold=0.0)
        with pytest.raises(ValueError):
            RansacConfig(max_iterations=0)


def reference_scan(valid, losses, counts, best, seen, n, confidence):
    """The per-hypothesis early-exit loop that _scan_chunk replaces; best is (loss, count) or None."""
    used, new_best = 0, -1
    for j in range(len(valid)):
        used += 1
        if not valid[j]:
            continue
        seen += 1
        if best is None or losses[j] < best[0]:
            best = (losses[j], int(counts[j]))
            new_best = j
        if best[1] >= SAMPLE_SIZE:
            if seen >= _required_iterations(best[1] / n, confidence):
                return used, seen, new_best, best, True
    return used, seen, new_best, best, False


def reference_distances_batch(models, X, p1, p2):
    """_distances_batch as it was before it wrote into a shared workspace."""
    K = len(models)
    residual = models.swapaxes(1, 2).reshape(K, 9) @ X.T
    Ep1 = (models[:, :2, :].reshape(2 * K, 3) @ p1.T).reshape(K, 2, -1)
    Etp2 = (models.swapaxes(1, 2)[:, :2, :].reshape(2 * K, 3) @ p2.T).reshape(K, 2, -1)
    den = Ep1[:, 0] ** 2 + Ep1[:, 1] ** 2 + Etp2[:, 0] ** 2 + Etp2[:, 1] ** 2
    ok = den >= ransac.EPIPOLE_DENOM_MIN
    out = np.full(den.shape, np.inf)
    np.divide(residual ** 2, den, out=out, where=ok)
    return out


def reference_scores(models, X, p1, p2, threshold):
    """Inlier counts and MSAC losses from freshly allocated arrays."""
    dists = reference_distances_batch(models, X, p1, p2)
    return (dists < threshold).sum(axis=1), np.minimum(dists, threshold).sum(axis=1)


def reference_ransac(C, cfg):
    """ransac_essential with the per-hypothesis loop and fixed-size chunks it had before."""
    C = np.asarray(C, dtype=np.float64)
    N = len(C)
    rng = np.random.default_rng(cfg.seed)
    X = build_monomial_matrix(C)
    p1 = np.column_stack([C[:, 0], C[:, 1], np.ones(N)])
    p2 = np.column_stack([C[:, 2], C[:, 3], np.ones(N)])
    best, valid_hypotheses, iterations, done = None, 0, 0, False
    while iterations < cfg.max_iterations and not done:
        chunk = min(ransac._CHUNK, cfg.max_iterations - iterations)
        octets = np.stack([rng.choice(N, size=SAMPLE_SIZE, replace=False) for _ in range(chunk)])
        models, valid = ransac._solve_hypotheses(X[octets])
        counts, losses = reference_scores(models, X, p1, p2, cfg.threshold)
        for j in range(chunk):
            iterations += 1
            if not valid[j]:
                continue
            valid_hypotheses += 1
            if best is None or losses[j] < best[0]:
                best = (losses[j], int(counts[j]), models[j])
            if best[1] >= SAMPLE_SIZE:
                if valid_hypotheses >= _required_iterations(best[1] / N, cfg.confidence):
                    done = True
                    break
    E_final = ransac.project_to_essential(best[2])
    refit = ransac._irls_refit(C, symmetric_epipolar_distances(best[2], C), cfg.threshold)
    if refit is not None:
        E_refit = ransac.project_to_essential(refit)
        d_refit = symmetric_epipolar_distances(E_refit, C)
        d_hyp = symmetric_epipolar_distances(E_final, C)
        if np.minimum(d_refit, cfg.threshold).sum() <= np.minimum(d_hyp, cfg.threshold).sum():
            E_final = E_refit
    return E_final, symmetric_epipolar_distances(E_final, C) < cfg.threshold, iterations


class TestEarlyExit:
    def test_scan_matches_per_hypothesis_loop(self):
        rng = np.random.default_rng(61)
        n, confidence = 40, 0.99
        seen_cases = set()
        for trial in range(3000):
            chunk = int(rng.integers(1, 48))
            valid = rng.uniform(size=chunk) >= rng.choice([0.0, 0.3, 1.0], p=[0.4, 0.5, 0.1])
            # few distinct losses, so ties with the best so far occur too
            losses = rng.integers(0, 30, size=chunk) * 0.25
            counts = rng.integers(0, n + 1, size=chunk)
            best = None if trial % 4 == 0 else (float(rng.integers(5, 30)) * 0.25,
                                                int(rng.integers(0, n + 1)))
            seen = int(rng.integers(0, 30))
            used, seen_after, j, best_after, stop = reference_scan(
                valid, losses, counts, best, seen, n, confidence)
            needed = (_required_iterations(best[1] / n, confidence)
                      if best is not None and best[1] >= SAMPLE_SIZE else np.inf)
            got = _scan_chunk(valid, losses, counts, np.inf if best is None else best[0],
                              needed, seen, n, confidence)
            needed_after = (_required_iterations(best_after[1] / n, confidence)
                            if best_after is not None and best_after[1] >= SAMPLE_SIZE else np.inf)
            assert got == (used, seen_after - seen, j, needed_after, stop), trial
            if not valid.all():
                seen_cases.add("degenerate octets")
            if not valid.any():
                seen_cases.add("all degenerate")
            if stop:
                seen_cases.add("stop")
            if j >= 0 and best is not None and best_after[1] < best[1]:
                seen_cases.add("best count falls")
        assert seen_cases == {"degenerate octets", "all degenerate", "stop", "best count falls"}

    @pytest.mark.parametrize("outliers, noise, max_iterations", [
        (0.6, 0.5, 2000), (0.4, 0.5, 2000), (0.5, 0.0, 2000), (0.4, 0.5, 300), (0.1, 0.0, 2000)])
    def test_same_result_as_per_hypothesis_loop(self, outliers, noise, max_iterations):
        for seed in range(3):
            pair = generate_pair(SceneConfig(n=128, outlier_ratio=outliers, pixel_noise=noise,
                                             seed=70 + seed))
            C = pair.correspondences.copy()
            C[100:] = C[:28]  # repeated rows give degenerate octets
            cfg = RansacConfig(seed=seed, max_iterations=max_iterations)
            res = ransac_essential(C, cfg)
            E, mask, iterations = reference_ransac(C, cfg)
            assert np.array_equal(res.essential, E)
            assert np.array_equal(res.mask, mask)
            assert res.iterations == iterations and type(res.iterations) is int


    def test_no_hypothesis_solved_past_the_stop(self, monkeypatch):
        # after the first chunk each one is capped at what the bound still needs
        solved = []
        solve = ransac._solve_hypotheses
        monkeypatch.setattr(ransac, "_solve_hypotheses", lambda X: solved.append(len(X)) or solve(X))
        for outliers, noise in ((0.4, 0.5), (0.5, 0.0)):
            for seed in range(3):
                solved.clear()
                pair = generate_pair(SceneConfig(n=128, outlier_ratio=outliers, pixel_noise=noise,
                                                 seed=70 + seed))
                res = ransac_essential(pair.correspondences, RansacConfig(seed=seed))
                assert ransac._CHUNK < res.iterations < 2000
                assert sum(solved) == res.iterations


class TestBatchedHypotheses:
    def test_distances_match_scalar_path(self):
        pair = generate_pair(SceneConfig(n=64, outlier_ratio=0.3, pixel_noise=0.5, seed=40))
        E = pair.essential
        # epipoles: E e1 = 0 and E^T e2 = 0; a row sitting on both has a zero denominator
        e1 = np.linalg.svd(E)[2][-1]
        e2 = np.linalg.svd(E.T)[2][-1]
        e1, e2 = e1 / e1[2], e2 / e2[2]
        C = pair.correspondences.copy()
        C[0] = [e1[0], e1[1], e2[0], e2[1]]
        C[1] = [e1[0], e1[1], C[1, 2], C[1, 3]]  # on the first epipole only: finite
        rng = np.random.default_rng(41)
        models = np.stack([E, -2.0 * E, rng.normal(size=(3, 3)), np.zeros((3, 3)),
                           E.reshape(9)[::-1].reshape(3, 3)])
        p1, p2 = (np.column_stack([C[:, i], C[:, i + 1], np.ones(len(C))]) for i in (0, 2))
        X = build_monomial_matrix(C)
        batch = _distances_batch(models, X, p1, p2, _scoring_workspace(len(models), len(C)))
        assert batch.shape == (len(models), len(C))
        # the epipole rows and the zero model too, bit for bit
        assert np.array_equal(batch, reference_distances_batch(models, X, p1, p2))
        for k, model in enumerate(models):
            scalar = symmetric_epipolar_distances(model, C)
            assert np.array_equal(np.isinf(batch[k]), np.isinf(scalar))
            finite = np.isfinite(scalar)
            if not finite.any():
                continue
            # A point near its epipolar line has a residual made of rounding in
            # either evaluation order, so the error is relative to the size of
            # the terms p2^T E p1 sums, not to the distance itself.
            _, den = _epipolar_terms(model, C[finite])
            terms = np.einsum("na,ab,nb->n", np.abs(p2[finite]), np.abs(model), np.abs(p1[finite]))
            rel = (np.abs(np.sqrt(batch[k, finite]) - np.sqrt(scalar[finite]))
                   / (terms / np.sqrt(den) + np.sqrt(scalar[finite])))
            assert np.all(rel < 1e-12)
        assert np.isinf(batch[0, 0]) and np.isinf(batch[1, 0])
        assert np.isfinite(batch[0, 1])
        assert np.isinf(batch[3]).all()

    @staticmethod
    def _chunk(seed, n, k):
        pair = generate_pair(SceneConfig(n=n, outlier_ratio=0.6, pixel_noise=1.0, seed=seed))
        C = pair.correspondences
        X = build_monomial_matrix(C)
        p1, p2 = (np.column_stack([C[:, i], C[:, i + 1], np.ones(n)]) for i in (0, 2))
        models, _ = ransac._solve_hypotheses(X[_draw_octets(np.random.default_rng(seed), n, k)])
        return models, X, p1, p2

    def test_scores_match_fresh_arrays_on_real_chunks(self):
        threshold = RansacConfig().threshold
        for seed, n in ((42, 512), (43, 64), (44, 16)):
            models, X, p1, p2 = self._chunk(seed, n, ransac._CHUNK)
            models[3] = 0.0  # a zero model: every distance is +inf
            work = _scoring_workspace(ransac._CHUNK, n)
            dists = _distances_batch(models, X, p1, p2, work)
            assert np.array_equal(dists, reference_distances_batch(models, X, p1, p2))
            assert np.isinf(dists[3]).all()
            counts, losses = _score_hypotheses(models, X, p1, p2, threshold, work)
            ref_counts, ref_losses = reference_scores(models, X, p1, p2, threshold)
            assert np.array_equal(counts, ref_counts) and np.array_equal(losses, ref_losses)
            assert counts.max() >= SAMPLE_SIZE  # some hypotheses found real support

    def test_shorter_chunk_reuses_the_workspace_cleanly(self):
        threshold = RansacConfig().threshold
        full, X, p1, p2 = self._chunk(45, 128, ransac._CHUNK)
        short = self._chunk(46, 128, 37)[0]
        work = _scoring_workspace(ransac._CHUNK, 128)
        _score_hypotheses(full, X, p1, p2, threshold, work)
        counts, losses = _score_hypotheses(short, X, p1, p2, threshold, work)
        ref_counts, ref_losses = reference_scores(short, X, p1, p2, threshold)
        assert counts.shape == losses.shape == (37,)
        assert np.array_equal(counts, ref_counts) and np.array_equal(losses, ref_losses)
        dists = _distances_batch(short, X, p1, p2, work)
        assert np.array_equal(dists, reference_distances_batch(short, X, p1, p2))

    @pytest.mark.parametrize("n", [8, 9, 100, 512, 1000])
    def test_bit_identical_at_every_chunk_size(self, n):
        # a chunk of one hypothesis goes through its own two-row product: numpy sends a
        # one-row product through GEMV, which rounds differently from GEMM
        threshold = RansacConfig().threshold
        work = _scoring_workspace(ransac._CHUNK, n)
        for k in [*range(1, 18), 255, 256]:
            models, X, p1, p2 = self._chunk(500 + k, n, k)
            dists = _distances_batch(models, X, p1, p2, work)
            assert np.array_equal(dists, reference_distances_batch(models, X, p1, p2)), k
            counts, losses = _score_hypotheses(models, X, p1, p2, threshold, work)
            ref_counts, ref_losses = reference_scores(models, X, p1, p2, threshold)
            assert np.array_equal(counts, ref_counts) and np.array_equal(losses, ref_losses), k

    @pytest.mark.parametrize("max_iterations", [1, 257])
    def test_final_chunk_of_one_hypothesis_matches_the_reference(self, max_iterations):
        pair = generate_pair(SceneConfig(n=200, outlier_ratio=0.6, pixel_noise=1.0, seed=47))
        for seed in range(2):
            cfg = RansacConfig(seed=seed, max_iterations=max_iterations)
            res = ransac_essential(pair.correspondences, cfg)
            E, mask, iterations = reference_ransac(pair.correspondences, cfg)
            assert res.iterations == iterations == max_iterations
            assert np.array_equal(res.essential, E) and np.array_equal(res.mask, mask)

    def test_workspace_arrays_stay_below_the_huge_page_size(self):
        # numpy madvises arrays of 4 MiB or more for transparent huge pages,
        # whose cost depends on the host's memory rather than on the program
        work = _scoring_workspace(ransac._CHUNK, 512)
        assert max(a.nbytes for a in work) < 4 * 2 ** 20


class TestOctetDraw:
    @settings(max_examples=150, deadline=None)
    @given(N=st.integers(SAMPLE_SIZE, 2 ** 40), k=st.integers(1, ransac._CHUNK),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(N=8, k=256, seed=0)  # the first Floyd draw is from [0, 0] and uses no bits
    @example(N=2 ** 32 + 4, k=64, seed=1)  # bounds on both sides of 2**32: 32- and 64-bit draws
    @example(N=3 * 10 ** 9, k=256, seed=2)  # bounded draws rejected about 30% of the time
    def test_same_octets_and_state_as_choice(self, N, k, seed):
        expected, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        octets = np.stack([expected.choice(N, size=SAMPLE_SIZE, replace=False) for _ in range(k)])
        got = _draw_octets(rng, N, k)
        assert got.dtype == octets.dtype and np.array_equal(got, octets)
        assert rng.bit_generator.state == expected.bit_generator.state


class TestRansacPostprocess:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weights_rejected(self, bad):
        pair = generate_pair(SceneConfig(n=64, outlier_ratio=0.3, pixel_noise=0.5, seed=37))
        for w in (np.where(np.arange(64) == 5, bad, 1.0), np.full(64, bad)):
            with pytest.raises(ValueError, match="weights must be finite"):
                ransac_postprocess(pair.correspondences, w, RansacConfig(seed=0))

    def test_oracle_weights_do_not_hurt(self):
        for seed in range(3):
            pair = generate_pair(SceneConfig(n=256, outlier_ratio=0.5, pixel_noise=1.0,
                                             seed=30 + seed))
            cfg = RansacConfig(seed=seed)
            plain = ransac_essential(pair.correspondences, cfg)
            post = ransac_postprocess(pair.correspondences, pair.labels.astype(float), cfg)
            err_plain = max(pose_angular_errors(
                recover_pose(plain.essential, pair.correspondences,
                             plain.mask.astype(float)), pair.pose()))
            err_post = max(pose_angular_errors(
                recover_pose(post.essential, pair.correspondences,
                             post.mask.astype(float)), pair.pose()))
            assert err_post <= err_plain + 0.5

    def test_all_zero_weights_falls_back(self):
        pair = generate_pair(SceneConfig(n=64, outlier_ratio=0.3, pixel_noise=0.5, seed=33))
        res = ransac_postprocess(pair.correspondences, np.zeros(64), RansacConfig(seed=0))
        assert res.fallback

    def test_all_positive_weights_equal_plain(self):
        pair = generate_pair(SceneConfig(n=64, outlier_ratio=0.3, pixel_noise=0.5, seed=34))
        cfg = RansacConfig(seed=1)
        plain = ransac_essential(pair.correspondences, cfg)
        post = ransac_postprocess(pair.correspondences, np.full(64, 0.5), cfg)
        assert not post.fallback
        assert np.array_equal(plain.essential, post.essential)
        assert np.array_equal(plain.mask, post.mask)

    def test_mask_reported_on_full_set(self):
        pair = generate_pair(SceneConfig(n=64, outlier_ratio=0.3, pixel_noise=0.5, seed=36))
        w = pair.labels.astype(float)
        cfg = RansacConfig(seed=3)
        res = ransac_postprocess(pair.correspondences, w, cfg)
        assert len(res.mask) == 64
        d = symmetric_epipolar_distances(res.essential, pair.correspondences)
        assert np.array_equal(res.mask, d < cfg.threshold)
