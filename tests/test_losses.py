"""Tests for SI-SDR, SI-SDR improvement, and permutation-invariant loss."""

import itertools

import numpy as np
import pytest

from monosep import autodiff as ad
from monosep import losses
from monosep.config import preset
from monosep.errors import ConfigError, InvalidReferenceError, NumericalError
from monosep.model import build_model, separate
from monosep.synth import synth_dataset


def reference_si_sdr(est, ref, eps=1e-8):
    """Independent plain-numpy reimplementation used as a cross-check."""
    est = est - est.mean()
    ref = ref - ref.mean()
    alpha = np.dot(est, ref) / (np.dot(ref, ref) + eps)
    target = alpha * ref
    noise = est - target
    return 10.0 * np.log10(
        (np.dot(target, target) + eps) / (np.dot(noise, noise) + eps)
    )


def composed_si_sdr(est, ref, eps=1e-8):
    """SI-SDR as the graph of tape primitives it used to be built from;
    the fused primitive must reproduce its float64 value bit for bit."""
    def centered(x):
        x = ad.as_tensor(x)
        return ad.sub(x, ad.mean_all(x))

    def energy(x):
        return ad.sum_all(ad.mul(x, x))

    est_c, ref_c = centered(est), centered(ref)
    alpha = ad.div(ad.sum_all(ad.mul(est_c, ref_c)),
                   ad.add(energy(ref_c), eps))
    target = ad.mul(alpha, ref_c)
    residual = ad.sub(est_c, target)
    ratio = ad.div(ad.add(energy(target), eps),
                   ad.add(energy(residual), eps))
    return ad.mul(ad.log(ratio), losses._DB_SCALE)


class TestSiSdr:
    @pytest.mark.parametrize("n,noise,eps", [
        (2, 0.5, 1e-8), (97, 0.01, 1e-8), (4000, 0.7, 1e-8), (4000, 3.0, 0.0),
    ])
    def test_float64_value_equals_composed_graph_bitwise(self, n, noise, eps):
        rng = np.random.default_rng(n)
        ref = rng.normal(size=n)
        est = -1.7 * ref + noise * rng.normal(size=n)
        got = losses.si_sdr(est, ref, eps=eps).data
        want = composed_si_sdr(est, ref, eps=eps).data
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()

    def test_hand_case_zero_db(self):
        # after centering the estimate is the zero vector: both the target
        # and the residual energies vanish and the eps guard gives exactly 1
        out = losses.si_sdr(np.array([1.0, 1.0]), np.array([1.0, 0.0]))
        assert out.item() == 0.0

    def test_perfect_estimate_large(self):
        rng = np.random.default_rng(0)
        ref = rng.normal(size=4000)
        assert losses.si_sdr(ref.copy(), ref).item() >= 60.0

    def test_matches_reference_impl(self):
        rng = np.random.default_rng(1)
        ref = rng.normal(size=500)
        est = ref + 0.3 * rng.normal(size=500)
        got = losses.si_sdr(est, ref).item()
        assert abs(got - reference_si_sdr(est, ref)) < 1e-12

    @pytest.mark.parametrize("a", [0.1, 2.0, 100.0])
    def test_scale_invariance(self, a):
        rng = np.random.default_rng(2)
        ref = rng.normal(size=2000)
        est = ref + 0.2 * rng.normal(size=2000)
        base = losses.si_sdr(est, ref, eps=0.0).item()
        scaled = losses.si_sdr(a * est, ref, eps=0.0).item()
        assert abs(scaled - base) < 1e-10

    def test_sign_flip_invariance(self):
        rng = np.random.default_rng(3)
        ref = rng.normal(size=800)
        est = ref + 0.5 * rng.normal(size=800)
        assert (losses.si_sdr(-est, ref).item()
                == pytest.approx(losses.si_sdr(est, ref).item(), abs=1e-12))

    def test_zero_reference_rejected(self):
        with pytest.raises(InvalidReferenceError, match="constant"):
            losses.si_sdr(np.ones(10), np.full(10, 3.0))

    def test_shape_mismatch(self):
        with pytest.raises(ConfigError, match="matching"):
            losses.si_sdr(np.ones(10), np.ones(11))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        ref = rng.normal(size=64)
        store = ad.ParamStore()
        store.add("est", ref + 0.4 * rng.normal(size=64))

        def f(p):
            return ad.neg(losses.si_sdr(p["est"], ref))

        assert ad.gradient_check(f, store, h=1e-5) < 1e-6


class TestSiSdri:
    def test_unprocessed_mixture_is_zero(self):
        rng = np.random.default_rng(5)
        ref = rng.normal(size=300)
        mix = ref + rng.normal(size=300)
        assert losses.si_sdri(mix, mix, ref).item() == 0.0

    def test_perfect_estimate_improves(self):
        rng = np.random.default_rng(6)
        ref = rng.normal(size=300)
        mix = ref + rng.normal(size=300)
        assert losses.si_sdri(ref.copy(), mix, ref).item() > 40.0


class TestPitLoss:
    def test_identity_assignment(self):
        rng = np.random.default_rng(7)
        refs = [rng.normal(size=200) for _ in range(2)]
        loss, perm = losses.pit_loss([r.copy() for r in refs], refs)
        assert perm == (0, 1)
        assert loss.item() <= -60.0

    def test_swapped_assignment(self):
        rng = np.random.default_rng(8)
        refs = [rng.normal(size=200) for _ in range(2)]
        straight, _ = losses.pit_loss([r.copy() for r in refs], refs)
        swapped, perm = losses.pit_loss([refs[1].copy(), refs[0].copy()], refs)
        assert perm == (1, 0)
        assert swapped.item() == pytest.approx(straight.item(), abs=1e-12)

    def test_invariance_under_any_estimate_shuffle(self):
        rng = np.random.default_rng(9)
        refs = [rng.normal(size=150) for _ in range(3)]
        ests = [r + 0.1 * rng.normal(size=150) for r in refs]
        base, _ = losses.pit_loss(ests, refs)
        for shuffle in itertools.permutations(range(3)):
            loss, perm = losses.pit_loss([ests[s] for s in shuffle], refs)
            assert loss.item() == pytest.approx(base.item(), abs=1e-12)
            # perm must undo the shuffle: estimate perm[i] is original i
            assert tuple(shuffle[p] for p in perm) == (0, 1, 2)

    def test_three_speakers_match_bruteforce_reimpl(self):
        rng = np.random.default_rng(10)
        refs = [rng.normal(size=120) for _ in range(3)]
        ests = [rng.normal(size=120) for _ in range(3)]
        loss, perm = losses.pit_loss(ests, refs)

        best = None
        for cand in itertools.permutations(range(3)):  # lexicographic
            mean = np.mean(
                [reference_si_sdr(ests[cand[i]], refs[i]) for i in range(3)]
            )
            if best is None or mean > best[0]:
                best = (mean, cand)
        assert perm == best[1]
        assert loss.item() == pytest.approx(-best[0], abs=1e-10)

    def test_too_many_speakers(self):
        sig = [np.random.default_rng(11).normal(size=50) for _ in range(5)]
        with pytest.raises(ConfigError, match="at most 4"):
            losses.pit_loss(sig, sig)

    def test_no_speakers_rejected(self):
        with pytest.raises(ConfigError, match="at least one speaker"):
            losses.pit_loss([], [])

    def test_count_mismatch(self):
        rng = np.random.default_rng(12)
        with pytest.raises(ConfigError, match="estimates"):
            losses.pit_loss([rng.normal(size=50)],
                            [rng.normal(size=50), rng.normal(size=50)])

    @pytest.mark.parametrize("side", ["estimate", "reference"])
    def test_non_finite_input_names_first_pair(self, side):
        rng = np.random.default_rng(14)
        refs = [rng.normal(size=50) for _ in range(2)]
        ests = [r + 0.1 * rng.normal(size=50) for r in refs]
        (ests if side == "estimate" else refs)[1][3] = np.nan
        # pairs are scanned estimate-major: (0, 0), (0, 1), (1, 0), ...
        pair = ("estimate 1 against reference 0" if side == "estimate"
                else "estimate 0 against reference 1")
        with pytest.raises(NumericalError, match=pair):
            losses.pit_loss(ests, refs)

    def test_gradient_flows_only_to_winners(self):
        rng = np.random.default_rng(13)
        refs = [rng.normal(size=80) for _ in range(2)]
        store = ad.ParamStore()
        e0 = store.add("e0", refs[1] + 0.1 * rng.normal(size=80))
        e1 = store.add("e1", refs[0] + 0.1 * rng.normal(size=80))

        def f(p):
            return losses.pit_loss([p["e0"], p["e1"]], refs)[0]

        assert ad.gradient_check(f, store, h=1e-5) < 1e-6

    def test_float32_model_gets_float32_gradients(self):
        # synth_dataset sources are float64; the loss must not push a
        # float64 gradient into a float32 model
        model = build_model(preset("tiny"))
        mixture, sources = synth_dataset(3, 1, 2, 600)[0]
        assert sources[0].dtype == np.float64
        model.store.zero_grad()
        with ad.Tape() as tape:
            ests = separate(model, mixture, rng=np.random.default_rng(0))
            loss, _ = losses.pit_loss(ests, sources)
            tape.backward(loss)
        assert all(t.grad.dtype == np.float32 for _, t in model.store.items())
        # backward keeps no gradient of a non-leaf tensor, so the estimates'
        # own gradients are read from float32 leaves holding the same values
        leaves = [ad.Tensor(e.data, requires_grad=True) for e in ests]
        assert all(e.dtype == np.float32 for e in leaves)
        with ad.Tape() as tape:
            loss, _ = losses.pit_loss(leaves, sources)
            tape.backward(loss)
        assert all(e.grad.dtype == np.float32 for e in leaves)
