"""Acceptance gates for the whole package.

One test per criterion; each registers a PASS/FAIL line that the terminal
summary prints. The desk-scale experiments (criteria 7 and 8) train real
models and dominate the runtime of this file (a few minutes total).
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import record_criterion
from test_classifier import supcon_reference
from test_features import ORACLE_CORPUS, oracle_vector, sample

from factfusion import autograd as ag
from factfusion.autograd import Tensor
from factfusion.classifier import LossConfig, cross_entropy, supcon_loss, total_loss
from factfusion.config import RunConfig
from factfusion.data import synthesize
from factfusion.ensemble import EnsembleSpec, ProbMatrix, blend, tune
from factfusion.features import FEATURE_DIM, raw_feature_vector
from factfusion.fusion import CoAttentionBlock, FusionStack
from factfusion.gradcheck import check_gradients
from factfusion.metrics import weighted_f1, weighted_f1_batch
from factfusion.model import VerificationModel
from factfusion.training import train


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        record_criterion(number, description, False)
        raise
    else:
        record_criterion(number, description, True)


# -- criterion 1: gradient suite ----------------------------------------------


def _p(rng, *shape):
    return Tensor.param(rng.standard_normal(shape), dtype=np.float64)


def _pos(rng, *shape, lo=0.5, hi=2.0):
    return Tensor.param(rng.uniform(lo, hi, shape), dtype=np.float64)


def _op_cases(rng):
    """(fn, params) pairs covering every differentiable operation.

    Each op output is scalarized against a weight tensor drawn once per
    case, so repeated evaluations measure the same function and every output
    element contributes a distinct coefficient.
    """
    cases = []

    def case(build, params):
        w = Tensor.constant(
            rng.standard_normal(build().shape), dtype=np.float64
        )
        cases.append((lambda: (build() * w).sum(), params))

    a, b = _p(rng, 3, 4), _p(rng, 4)
    case(lambda: a + b, {"add.a": a, "add.b": b})

    c, d = _p(rng, 3, 4), _p(rng, 3, 4)
    case(lambda: c - d, {"sub.a": c, "sub.b": d})
    e = _p(rng, 2, 5)
    case(lambda: -e, {"neg.x": e})

    f, g = _p(rng, 3, 4), _p(rng, 4)
    case(lambda: f * g, {"mul.a": f, "mul.b": g})
    h = _p(rng, 3, 3)
    case(lambda: 2.5 * h, {"scale.x": h})

    num = _p(rng, 3, 4)
    den = Tensor.param(
        rng.uniform(0.5, 1.5, (3, 4)) * rng.choice([-1.0, 1.0], (3, 4)),
        dtype=np.float64,
    )
    case(lambda: num / den, {"div.num": num, "div.den": den})

    m1, m2 = _p(rng, 3, 4), _p(rng, 4, 2)
    case(lambda: m1 @ m2, {"matmul.a": m1, "matmul.b": m2})
    b1, b2 = _p(rng, 2, 3, 4), _p(rng, 2, 4, 2)
    case(lambda: b1 @ b2, {"batched_matmul.a": b1, "batched_matmul.b": b2})

    # |x| >= 0.5 keeps the cubic's finite-difference truncation error small.
    pw_raw = rng.standard_normal((3, 3))
    pw = Tensor.param(
        np.sign(pw_raw) * (np.abs(pw_raw) + 0.5), dtype=np.float64
    )
    case(lambda: ag.power(pw, 3), {"power3.x": pw})
    ph = _pos(rng, 3, 3)
    case(lambda: ag.power(ph, 0.5), {"power_half.x": ph})

    ex = _p(rng, 2, 4)
    case(lambda: ag.exp(ex), {"exp.x": ex})
    lg = _pos(rng, 2, 4)
    case(lambda: ag.log(lg), {"log.x": lg})
    sq = _pos(rng, 2, 4)
    case(lambda: ag.sqrt(sq), {"sqrt.x": sq})

    # Interior and exterior points, all at least 0.1 from the clamp bounds.
    base = rng.uniform(-0.9, 0.9, (3, 4))
    shift = rng.choice([-2.0, 0.0, 2.0], (3, 4))
    cl = Tensor.param(base + shift, dtype=np.float64)
    case(lambda: ag.clamp(cl, -1.0, 1.0), {"clamp.x": cl})

    rl = _p(rng, 3, 4)
    case(lambda: ag.relu(rl), {"relu.x": rl})

    sm = _p(rng, 3, 5)
    case(lambda: ag.softmax(sm, axis=-1), {"softmax.x": sm})

    ln_x, ln_g, ln_b = _p(rng, 3, 4), _pos(rng, 4), _p(rng, 4)
    case(
        lambda: ag.layer_norm(ln_x, ln_g, ln_b),
        {"ln.x": ln_x, "ln.gain": ln_g, "ln.bias": ln_b},
    )

    dr = _p(rng, 4, 4)
    mask_seed = int(rng.integers(1 << 30))
    case(
        lambda: ag.dropout(dr, 0.3, rng=np.random.default_rng(mask_seed)),
        {"dropout.x": dr},
    )

    rs = _p(rng, 3, 4)
    case(lambda: rs.reshape(2, 6), {"reshape.x": rs})
    tr = _p(rng, 2, 3, 4)
    case(lambda: tr.transpose((1, 0, 2)), {"transpose.x": tr})
    t2 = _p(rng, 3, 4)
    case(lambda: t2.T, {"T.x": t2})

    c1, c2 = _p(rng, 2, 4), _p(rng, 3, 4)
    case(lambda: ag.concat([c1, c2], axis=0), {"concat0.a": c1, "concat0.b": c2})
    c3, c4 = _p(rng, 3, 2), _p(rng, 3, 4)
    case(lambda: ag.concat([c3, c4], axis=1), {"concat1.a": c3, "concat1.b": c4})

    s1 = _p(rng, 3, 4)
    cases.append((lambda: s1.sum(), {"sum_all.x": s1}))
    s2 = _p(rng, 3, 4)
    case(lambda: s2.sum(axis=0), {"sum_axis.x": s2})
    s3 = _p(rng, 3, 4)
    case(lambda: s3.sum(axis=1, keepdims=True), {"sum_keep.x": s3})
    mn = _p(rng, 3, 4)
    case(lambda: mn.mean(axis=1), {"mean_axis.x": mn})

    # Elements separated by 0.1 so the argmax never moves under the probe.
    mx = Tensor.param(
        rng.permutation(np.arange(12) * 0.1).reshape(3, 4), dtype=np.float64
    )
    case(lambda: ag.tensor_max(mx, axis=1), {"max.x": mx})

    gi = _p(rng, 4, 3)
    case(lambda: gi[1:3], {"slice.x": gi})
    gf = _p(rng, 4, 3)
    fancy = np.array([0, 0, 2])
    case(lambda: gf[fancy], {"fancy_index.x": gf})

    # Two packed samples in two heads; the first one's last key row is padding.
    aq, ak, av = _p(rng, 5, 6), _p(rng, 6, 6), _p(rng, 6, 6)
    att_seed = int(rng.integers(1 << 30))
    q_segs, k_segs = ((0, 2, 2), (2, 5, 3)), ((0, 4, 3), (4, 6, 2))
    case(
        lambda: ag.attention_core(
            aq, ak, av, 2, 0.6, q_segs, k_segs, 0.3,
            np.random.default_rng(att_seed),
        ),
        {"attention.q": aq, "attention.k": ak, "attention.v": av},
    )

    # 1-, 3- and 1-row samples packed into 5 rows; the guard skips any probe
    # that moves a hidden unit across the ReLU kink.
    fx, fw1, fb1 = _p(rng, 5, 4), _p(rng, 4, 6), _p(rng, 6)
    fw2, fb2 = _p(rng, 6, 3), _p(rng, 3)
    ffn_seed = int(rng.integers(1 << 30))
    case(
        lambda: ag.feed_forward(
            fx, fw1, fb1, fw2, fb2, 0.3, np.random.default_rng(ffn_seed)
        ),
        {"ffn.x": fx, "ffn.W1": fw1, "ffn.b1": fb1, "ffn.W2": fw2, "ffn.b2": fb2},
    )
    return cases


def _e2e_case(seed: int):
    cfg = RunConfig(
        d=8, heads=2, ff_inner=16, d_m=8, dropout=0.0, max_seq_len=8,
        adapter_scope="all", alpha=0.7,
    )
    bd = 4
    model = VerificationModel(
        cfg, bd, rng=np.random.default_rng(5000 + seed), dtype=np.float64
    )
    rng = np.random.default_rng(6000 + seed)
    batch = [
        {
            s: Tensor.constant(rng.standard_normal((int(rng.integers(2, 5)), bd)))
            for s in model.streams
        }
        for _ in range(2)
    ]
    feats = rng.standard_normal((2, FEATURE_DIM))
    labels = rng.integers(0, 5, size=2)
    loss_cfg = LossConfig(alpha=0.7, tau=0.3)

    def fn():
        probs, hidden = model.forward_batch(batch, feats, training=False)
        return total_loss(probs, hidden, labels, loss_cfg).total

    return fn, model.trainable_parameters()


def test_criterion_1_gradient_suite():
    with criterion(
        1, "gradients: per-op rel err < 1e-4, composed net < 1e-3, 10 seeds, < 60 s"
    ):
        start = time.perf_counter()
        for seed in range(10):
            for fn, params in _op_cases(np.random.default_rng(seed)):
                check_gradients(fn, params, rtol=1e-4)
        for seed in range(10):
            fn, params = _e2e_case(seed)
            # The deep composition has large third derivatives; a smaller
            # probe keeps float64 truncation error well inside the budget.
            report = check_gradients(
                fn,
                params,
                h=3e-5,
                rtol=1e-3,
                sample_per_param=3,
                rng=np.random.default_rng(900 + seed),
            )
            assert report.checked > 0
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"


# -- criterion 2: fusion invariants -------------------------------------------


def test_criterion_2_fusion_invariants():
    with criterion(
        2,
        "fusion: attention rows sum to 1, shared-weight symmetry exact, "
        "12+4 outputs, masked keys get zero, < 10 s",
    ):
        start = time.perf_counter()
        rng = np.random.default_rng(0)
        block = CoAttentionBlock(8, 2, 16, np.random.default_rng(1), dropout_rate=0.0)
        a = Tensor.constant(rng.standard_normal((5, 8)).astype(np.float32))
        b = Tensor.constant(rng.standard_normal((3, 8)).astype(np.float32))

        out_ab, out_ba, w_ab, w_ba = block.co_attend(a, b, return_weights=True)
        assert w_ab.shape == (2, 5, 3) and w_ba.shape == (2, 3, 5)
        np.testing.assert_allclose(w_ab.data.sum(axis=-1), 1.0, atol=1e-6)
        np.testing.assert_allclose(w_ba.data.sum(axis=-1), 1.0, atol=1e-6)

        # Swapping the argument order must swap the outputs bit for bit:
        # both directions run through one shared set of parameters.
        sw_ba, sw_ab, sw_w_ba, sw_w_ab = block.co_attend(b, a, return_weights=True)
        np.testing.assert_array_equal(out_ab.data, sw_ab.data)
        np.testing.assert_array_equal(out_ba.data, sw_ba.data)
        np.testing.assert_array_equal(w_ab.data, sw_w_ab.data)
        np.testing.assert_array_equal(w_ba.data, sw_w_ba.data)

        stack = FusionStack(8, 2, 16, np.random.default_rng(2), dropout_rate=0.0)
        embedded = {
            s: Tensor.constant(rng.standard_normal((4, 8)).astype(np.float32))
            for s in ("CT", "CI", "DT", "DI")
        }
        fused = stack.fuse(embedded)
        assert len(fused.contexts) == 12
        assert len(fused.streams) == 4
        assert len(fused.all_vectors()) == 16

        # Pad b with garbage rows; the mask must zero them exactly and the
        # remaining weights must match attention over the truncated input.
        padded = Tensor.constant(
            np.vstack([b.data, 99.0 * np.ones((2, 8), dtype=np.float32)])
        )
        _, _, w_pad, _ = block.co_attend(a, padded, b_len=3, return_weights=True)
        assert np.all(w_pad.data[:, :, 3:] == 0.0)
        np.testing.assert_allclose(w_pad.data.sum(axis=-1), 1.0, atol=1e-6)
        np.testing.assert_allclose(w_pad.data[:, :, :3], w_ab.data, atol=1e-6)

        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"fusion invariants took {elapsed:.1f}s"


# -- criterion 3: ensemble lattice --------------------------------------------


def test_criterion_3_ensemble_lattice():
    with criterion(
        3,
        "ensemble: unified reproduces average/weighted/power bit-for-bit; "
        "tuned spec F1 >= best single model, < 30 s",
    ):
        start = time.perf_counter()
        rng = np.random.default_rng(3)
        n = 40
        mats = [
            ProbMatrix(
                f"m{i}",
                [f"s{j}" for j in range(n)],
                rng.dirichlet(np.ones(5) * 0.6, size=n),
            )
            for i in range(3)
        ]

        eq = (1 / 3,) * 3
        w = (0.2, 0.5, 0.9)
        np.testing.assert_array_equal(
            blend(mats, EnsembleSpec("unified", eq, (1.0,) * 3)),
            blend(mats, EnsembleSpec("weighted", eq, (1.0,) * 3)),
        )
        np.testing.assert_array_equal(
            blend(mats, EnsembleSpec("unified", w, (1.0,) * 3)),
            blend(mats, EnsembleSpec("weighted", w, (1.0,) * 3)),
        )
        np.testing.assert_array_equal(
            blend(mats, EnsembleSpec("unified", w, (0.5,) * 3)),
            blend(mats, EnsembleSpec("power", w, (0.5,) * 3)),
        )
        avg = blend(mats, EnsembleSpec.average(3))
        np.testing.assert_array_equal(
            blend(mats, EnsembleSpec("unified", eq, (1.0,) * 3)), avg
        )

        # An always-right and an always-wrong model: every tunable variant
        # must end at least as good as the better member.
        labels = rng.integers(0, 5, size=n)
        right = np.full((n, 5), 0.05)
        right[np.arange(n), labels] = 0.8
        wrong = np.full((n, 5), 0.05)
        wrong[np.arange(n), (labels + 2) % 5] = 0.8
        pair = [
            ProbMatrix("wrong", [f"s{j}" for j in range(n)], wrong),
            ProbMatrix("right", [f"s{j}" for j in range(n)], right),
        ]
        best_single = max(
            weighted_f1(labels, m.probs.argmax(axis=1), 5)[0] for m in pair
        )
        for variant in ("weighted", "power", "unified"):
            result = tune(pair, labels, variant, budget=3000, seed=0)
            assert result.f1 >= best_single, variant

        # Same guarantee on unconstructed random matrices.
        singles = [weighted_f1(labels, m.probs.argmax(axis=1), 5)[0] for m in mats]
        tuned = tune(mats, labels, "unified", budget=5000, seed=0)
        assert tuned.f1 >= max(singles)

        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"ensemble lattice took {elapsed:.1f}s"


# -- criterion 4: loss oracles ------------------------------------------------


def test_criterion_4_loss_oracles():
    with criterion(
        4,
        "losses: contrastive matches double loop < 1e-6; CE(uniform) = ln 5; "
        "alpha=1 reduces to plain CE exactly",
    ):
        for seed in range(6):
            rng = np.random.default_rng(seed)
            for n in range(2, 9):
                hidden = Tensor.constant(rng.standard_normal((n, 6)))
                labels = rng.integers(0, 3, size=n)
                got = supcon_loss(hidden, labels, tau=0.3).item()
                want = supcon_reference(hidden.data, labels, tau=0.3)
                assert abs(got - want) < 1e-6, (seed, n)

        uniform = Tensor.constant(np.full((4, 5), 0.2))
        ce = cross_entropy(uniform, np.array([0, 1, 2, 3])).item()
        assert abs(ce - np.log(5.0)) < 1e-6

        rng = np.random.default_rng(0)
        probs = Tensor.constant(rng.dirichlet(np.ones(5), size=6))
        hidden = Tensor.constant(rng.standard_normal((6, 4)))
        labels = rng.integers(0, 5, size=6)
        parts = total_loss(probs, hidden, labels, LossConfig(alpha=1.0, tau=0.3))
        assert parts.total is parts.cross_entropy
        assert parts.contrastive.item() == 0.0


# -- criterion 5: metric oracle -----------------------------------------------


def _brute_weighted_f1(y_true, y_pred, k):
    per_class = []
    for c in range(k):
        tp = sum(1 for t, p in zip(y_true, y_pred) if t == c and p == c)
        pred = sum(1 for p in y_pred if p == c)
        true = sum(1 for t in y_true if t == c)
        per_class.append(2.0 * tp / (pred + true) if pred + true else 0.0)
    total = len(y_true)
    wf1 = sum(
        f * sum(1 for t in y_true if t == c) / total
        for c, f in enumerate(per_class)
    )
    return wf1, per_class


def test_criterion_5_metric_oracle():
    with criterion(
        5, "weighted F1 equals brute-force computation on 25 random matrices"
    ):
        for seed in range(25):
            rng = np.random.default_rng(100 + seed)
            n = int(rng.integers(5, 40))
            y_true = rng.integers(0, 5, size=n)
            y_pred = rng.integers(0, 5, size=n)
            got, got_per_class = weighted_f1(y_true, y_pred, 5)
            want, want_per_class = _brute_weighted_f1(y_true, y_pred, 5)
            assert abs(got - want) < 1e-12
            np.testing.assert_allclose(got_per_class, want_per_class, atol=1e-12)


# -- criterion 6: feature extractor -------------------------------------------


def test_criterion_6_feature_extractor():
    with criterion(
        6, "features match the 10-sample hand oracle exactly; width always 32"
    ):
        assert len(ORACLE_CORPUS) == 10
        assert FEATURE_DIM == 32
        for fields, expected in ORACLE_CORPUS:
            got = raw_feature_vector(sample(**fields))
            assert got.shape == (32,)
            np.testing.assert_array_equal(got, oracle_vector(expected))
        rng = np.random.default_rng(0)
        alphabet = list("abc DE.!@# http://x.y 0123\né\U0001f600")
        for _ in range(20):
            text = "".join(rng.choice(alphabet, size=int(rng.integers(0, 60))))
            vec = raw_feature_vector(sample(claim_text=text, doc_ocr=text[::-1]))
            assert vec.shape == (32,)


# -- criteria 7 and 8: desk-scale experiments ---------------------------------

DESK = dict(
    d=64, heads=4, ff_inner=128, d_m=32, epochs=10, batch_size=24,
    learning_rate=2e-3, tail_learning_rate=2e-3, max_seq_len=64,
)


def test_criterion_7_desk_experiment(tmp_path):
    with criterion(
        7,
        "desk run: seed-42 F1 >= 0.90; unified tune >= best single >= "
        "average; >= 5 F1 points over text-only; < 10 min",
    ):
        start = time.perf_counter()
        train_man = synthesize(100, 32, 42, tmp_path, "train")
        val_man = synthesize(20, 32, 42, tmp_path, "val")
        assert len(train_man.records) == 500
        assert len(val_man.records) == 100

        runs = {
            seed: train(
                RunConfig(**DESK, seed=seed),
                train_man,
                val_man,
                run_dir=tmp_path / f"s{seed}",
                model_id=f"seed{seed}",
            )
            for seed in (42, 43, 44)
        }
        assert runs[42].best_f1 >= 0.90, f"seed 42 reached {runs[42].best_f1:.4f}"

        labels = val_man.labels()
        mats = [runs[s].prob_matrix for s in (42, 43, 44)]
        singles = [
            float(weighted_f1_batch(labels, m.probs.argmax(axis=1)[None, :], 5)[0])
            for m in mats
        ]
        unified = tune(mats, labels, "unified", budget=130_000, seed=0)
        average = tune(mats, labels, "average", budget=130_000, seed=0)
        assert unified.f1 >= max(singles), (unified.f1, singles)
        assert unified.f1 >= average.f1, (unified.f1, average.f1)

        text_run = train(
            RunConfig(**DESK, seed=42, text_only=True),
            train_man,
            val_man,
            run_dir=tmp_path / "text_only",
            model_id="text_only",
        )
        gap = runs[42].best_f1 - text_run.best_f1
        assert gap >= 0.05, f"full-vs-text gap only {gap:+.4f}"

        elapsed = time.perf_counter() - start
        assert elapsed < 600.0, f"desk experiment took {elapsed:.0f}s"


def test_criterion_8_adapter_regime(tmp_path):
    with criterion(
        8,
        "adapter scope: host-FFN gradients identically zero; trainable tail "
        "count = bd^2 + 2 bd; adapter training >= frozen tail",
    ):
        bd = 16
        cfg = RunConfig(
            d=32, heads=2, ff_inner=64, d_m=16, epochs=35, batch_size=16,
            learning_rate=2e-3, tail_learning_rate=2e-3, max_seq_len=64,
            seed=43,
        )

        model = VerificationModel(cfg, bd, rng=np.random.default_rng(0))
        rng = np.random.default_rng(1)
        batch = [
            {
                s: Tensor.constant(
                    rng.standard_normal((4, bd)).astype(np.float32)
                )
                for s in model.streams
            }
            for _ in range(3)
        ]
        feats = rng.standard_normal((3, FEATURE_DIM)).astype(np.float32)
        probs, hidden = model.forward_batch(batch, feats, training=False)
        parts = total_loss(probs, hidden, np.array([0, 1, 2]), LossConfig())
        parts.total.backward()
        for name, p in model.tail.parameters().items():
            if name.startswith("ffn."):
                assert not p.requires_grad
                assert p.grad is None or not np.any(p.grad), name
            else:
                assert p.requires_grad and p.grad is not None, name
                assert np.any(p.grad), name

        tail_trainables = model.tail.trainable_parameters()
        count = sum(p.data.size for p in tail_trainables.values())
        assert count == bd * bd + 2 * bd

        train_man = synthesize(30, 16, 5, tmp_path, "train")
        val_man = synthesize(10, 16, 5, tmp_path, "val")
        adapter = train(
            cfg, train_man, val_man, run_dir=tmp_path / "adapter", model_id="adapter"
        )
        frozen = train(
            cfg.updated(adapter_scope="frozen"),
            train_man,
            val_man,
            run_dir=tmp_path / "frozen",
            model_id="frozen",
        )
        assert adapter.best_f1 >= frozen.best_f1, (
            f"adapter {adapter.best_f1:.4f} < frozen {frozen.best_f1:.4f}"
        )
