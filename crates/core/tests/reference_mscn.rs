//! An f64 reference MSCN, written from the paper's equations (§3.2): the
//! oracle for the training forward and backward that a pinned fingerprint
//! cannot be. The pin proves a change moved no bit; it cannot prove the
//! bits are right.
//!
//! # The reference
//!
//! Plain f64 Rust with none of the production machinery — no kernels, no
//! CSR, no shared or constant rows, no shards. Per query and per set,
//! every element's `FeaturizedQuery` row goes through its set's two-layer
//! ReLU MLP; the outputs are mean-pooled (an empty set pools to zeros),
//! the three pooled vectors are concatenated, and the output MLP ends in
//! a sigmoid. The backward is written by hand, element by element. It is
//! seeded with the production `∂L/∂w_out` (`grad_pred`), which keeps the
//! loss — and the libm `exp` inside the q-error — out of the comparison.
//!
//! # The bound
//!
//! Production computes in f32 with unit roundoff `u = 2⁻²⁴`: every fused
//! multiply-add, addition, multiplication and division rounds once,
//! `fl(x ∘ y) = (x ∘ y)(1 + δ)` with `|δ| ≤ u`. The reference is exact
//! up to f64 rounding, which `U` below adds to `u`.
//!
//! 1. *Fixed masks.* With every ReLU mask fixed, the forward up to the
//!    logit and the backward from the sigmoid gate on are sums of
//!    products of the inputs, weights, biases, `1/len` and the seed. Each
//!    product term of a computed value picks up at most `K` factors
//!    `(1 + δ)`, where `K` is the number of roundings on the longest
//!    chain that produces it, so (Higham, *Accuracy and Stability of
//!    Numerical Algorithms*, §3.1)
//!    `|computed − exact| ≤ γ_K · |the same program on absolute values|`,
//!    `γ_K = K·u / (1 − K·u)`. The absolute program replaces every input,
//!    weight, bias and seed by its magnitude and keeps the masks; that is
//!    [`forward`] and [`backward`] run on [`Net::abs`].
//! 2. *Chain lengths.* With input width `w`, hidden width `d`, `n`
//!    queries, at most `L` elements in one set of one query and at most
//!    `E` elements in one module of the shard, the forward chains are:
//!    the sparse gather (`≤ w`), the set MLP's second layer (`d`), the
//!    pooling sum, reciprocal and scaling (`L + 2`), and the output
//!    MLP's layers (`3d`, `d`): `K_f = w + 5d + L + 2`. The backward
//!    chains are: both output weight gradients, accumulated over the
//!    shard (`2n`), the one-wide input gradient of the output layer
//!    (`1`), the concatenation's gradient (`d`), the `1/len` scaling and
//!    the sum over a row's elements (`2 + E`), the hidden gradient (`d`),
//!    and the set weight and bias gradients, accumulated over rows
//!    (`2E`): `K_b = 2n + 2d + 3E + 3`. A product of a forward value and
//!    a backward value carries the factors of both, so every entry is
//!    covered by `K = K_f + K_b`.
//! 3. *The sigmoid.* Production's `w_out` comes from f32 `exp`, within
//!    one ulp (`2u`); with the rounding of `1 + e` and of the division,
//!    the f32 sigmoid is within `4u` of the exact sigmoid of its f32
//!    logit, which in turn is within `γ_{K_f} · logit_abs` of the exact
//!    logit by (1). The sigmoid is ¼-Lipschitz, so
//!    `|Δp| ≤ γ_{K_f} · logit_abs / 4 + 5u` (one `u` of slack) — the
//!    prediction bound. The gate `g · p(1 − p)`, with its three
//!    roundings, then differs from the exact one by at most
//!    `E_q = |g|·(D + γ₃·(p(1 − p) + D))` with `D = |Δp|·(|1 − 2p| + |Δp|)`.
//!    Every gradient is linear in the gate, so the gate's error adds the
//!    absolute program seeded with `E_q`.
//! 4. *Masks.* A ReLU unit whose exact pre-activation `z` lies within its
//!    forward bound, `|z| ≤ γ_{K_f} · z_abs`, may fall on either side in
//!    f32. Such a unit is *ambiguous*. Production and reference can
//!    differ there by every product term that passes through it, which is
//!    at most the absolute program with ambiguous units open minus the
//!    one with them closed (all its terms are non-negative). The forward
//!    bound of (1) holds either way, since ReLU is 1-Lipschitz.
//!
//! Per gradient entry, with `S_q = |g|·p(1 − p) + E_q` and `A_on`/`A_off`
//! the absolute backward with ambiguous units open/closed:
//!
//! `|production − reference| ≤ γ_K · A_on(S) + A_on(E) + (A_on(S) − A_off(S))`.
//!
//! Shards of 1, 32, 64 and 65 queries from the `common` pool, in all four
//! feature modes, drawn with replacement so rows repeat. CI runs this
//! file at `PROPTEST_CASES=1024`.

mod common;

use proptest::prelude::*;

use common::{grad_values, pool, shard_strategy};
use lc_core::featurize::FeaturizedQuery;
use lc_core::{MscnModel, MscnScratch, RaggedBatch};
use lc_nn::{Linear, LossKind, SparseRows};

/// Unit roundoff of the f32 production code, plus that of the f64
/// reference so the bound also covers the reference's own rounding.
const U: f64 = 1.0 / (1u64 << 24) as f64 + f64::EPSILON / 2.0;

/// `γ_k = k·u / (1 − k·u)`.
fn gamma(k: usize) -> f64 {
    let ku = k as f64 * U;
    assert!(ku < 0.5, "chain of {k} roundings too long for a bound");
    ku / (1.0 - ku)
}

/// One dense layer in f64, `W` row-major `[in × out]`.
#[derive(Clone)]
struct Layer {
    w: Vec<f64>,
    b: Vec<f64>,
}

impl Layer {
    fn of(l: &Linear) -> Self {
        let widen = |v: &[f32]| v.iter().map(|&x| f64::from(x)).collect();
        Layer { w: widen(l.weights().data()), b: widen(l.bias()) }
    }

    fn abs(&self) -> Self {
        let abs = |v: &[f64]| v.iter().map(|x| x.abs()).collect();
        Layer { w: abs(&self.w), b: abs(&self.b) }
    }

    /// `x·W + b`.
    fn apply(&self, x: &[f64]) -> Vec<f64> {
        let out = self.b.len();
        let mut z = self.b.clone();
        for (k, &xk) in x.iter().enumerate() {
            for (zj, &w) in z.iter_mut().zip(&self.w[k * out..(k + 1) * out]) {
                *zj += xk * w;
            }
        }
        z
    }

    /// Accumulate `∂W += x ⊗ dz` and `∂b += dz`; return `∂/∂x = W·dz`.
    fn backprop(&self, x: &[f64], dz: &[f64], (gw, gb): &mut (Vec<f64>, Vec<f64>)) -> Vec<f64> {
        let out = dz.len();
        for (k, &xk) in x.iter().enumerate() {
            for (g, &dzj) in gw[k * out..(k + 1) * out].iter_mut().zip(dz) {
                *g += xk * dzj;
            }
        }
        gb.iter_mut().zip(dz).for_each(|(g, &dzj)| *g += dzj);
        (0..x.len())
            .map(|k| self.w[k * out..(k + 1) * out].iter().zip(dz).map(|(w, d)| w * d).sum())
            .collect()
    }
}

/// The four MLPs, two layers each, in canonical order (table, join,
/// predicate, output).
struct Net([[Layer; 2]; 4]);

impl Net {
    fn of(model: &MscnModel) -> Self {
        Net(model.mlps().map(|mlp| mlp.layers().map(Layer::of)))
    }

    fn abs(&self) -> Self {
        Net(self.0.each_ref().map(|mlp| mlp.each_ref().map(Layer::abs)))
    }
}

/// A query's set elements: per set, one dense row per element.
type Sets = [Vec<Vec<f64>>; 3];

fn sets_of(q: &FeaturizedQuery) -> Sets {
    let dense = |rows: &SparseRows| -> Vec<Vec<f64>> {
        (0..rows.rows())
            .map(|r| {
                let mut x = vec![0.0; rows.cols()];
                let (indices, values) = rows.row(r);
                indices.iter().zip(values).for_each(|(&j, &v)| x[j as usize] = f64::from(v));
                x
            })
            .collect()
    };
    [dense(&q.tables), dense(&q.joins), dense(&q.preds)]
}

/// One set element's forward: its input row, and each layer's ReLU
/// output with its mask.
struct Element {
    x: Vec<f64>,
    h1: Vec<f64>,
    on1: Vec<bool>,
    h2: Vec<f64>,
    on2: Vec<bool>,
}

/// One query's forward.
struct Activations {
    sets: [Vec<Element>; 3],
    concat: Vec<f64>,
    hidden: Vec<f64>,
    on: Vec<bool>,
    logit: f64,
}

/// ReLU through `gate`, which is given each unit's number (in forward
/// order) and pre-activation, and says whether the unit passes; every
/// pre-activation is recorded in `zs`.
fn relu(
    z: Vec<f64>,
    gate: &mut impl FnMut(usize, f64) -> bool,
    zs: &mut Vec<f64>,
) -> (Vec<f64>, Vec<bool>) {
    let on: Vec<bool> = z
        .iter()
        .map(|&v| {
            zs.push(v);
            gate(zs.len() - 1, v)
        })
        .collect();
    (z.iter().zip(&on).map(|(&v, &on)| if on { v } else { 0.0 }).collect(), on)
}

/// The forward of every query, and every unit's pre-activation.
fn forward(
    net: &Net,
    queries: &[Sets],
    mut gate: impl FnMut(usize, f64) -> bool,
) -> (Vec<Activations>, Vec<f64>) {
    let mut zs = Vec::new();
    let acts = queries
        .iter()
        .map(|sets| {
            let mut concat = Vec::new();
            let sets = [0, 1, 2].map(|m| {
                let [l1, l2] = &net.0[m];
                let elements: Vec<Element> = sets[m]
                    .iter()
                    .map(|x| {
                        let (h1, on1) = relu(l1.apply(x), &mut gate, &mut zs);
                        let (h2, on2) = relu(l2.apply(&h1), &mut gate, &mut zs);
                        Element { x: x.clone(), h1, on1, h2, on2 }
                    })
                    .collect();
                let mut pooled = vec![0.0; l2.b.len()];
                for e in &elements {
                    pooled.iter_mut().zip(&e.h2).for_each(|(p, &v)| *p += v);
                }
                let len = elements.len().max(1) as f64;
                concat.extend(pooled.iter().map(|p| p / len));
                elements
            });
            let [o1, o2] = &net.0[3];
            let (hidden, on) = relu(o1.apply(&concat), &mut gate, &mut zs);
            let logit = o2.apply(&hidden)[0];
            Activations { sets, concat, hidden, on, logit }
        })
        .collect();
    (acts, zs)
}

/// Per module and layer, `(∂W, ∂b)`.
type Grads = [[(Vec<f64>, Vec<f64>); 2]; 4];

fn masked(g: Vec<f64>, on: &[bool]) -> Vec<f64> {
    g.into_iter().zip(on).map(|(g, &on)| if on { g } else { 0.0 }).collect()
}

/// The backward of every query from `∂L/∂logit = seeds[q]`, one element
/// at a time, summed over the queries.
fn backward(net: &Net, acts: &[Activations], seeds: &[f64]) -> Grads {
    let mut g: Grads = net
        .0
        .each_ref()
        .map(|mlp| mlp.each_ref().map(|l| (vec![0.0; l.w.len()], vec![0.0; l.b.len()])));
    for (a, &seed) in acts.iter().zip(seeds) {
        let [o1, o2] = &net.0[3];
        let d_hidden = masked(o2.backprop(&a.hidden, &[seed], &mut g[3][1]), &a.on);
        let d_concat = o1.backprop(&a.concat, &d_hidden, &mut g[3][0]);
        for (m, elements) in a.sets.iter().enumerate() {
            let [l1, l2] = &net.0[m];
            let d = l2.b.len();
            let len = elements.len() as f64;
            for e in elements {
                let d_pooled = d_concat[m * d..(m + 1) * d].iter().map(|v| v / len).collect();
                let dz2 = masked(d_pooled, &e.on2);
                let dz1 = masked(l2.backprop(&e.h1, &dz2, &mut g[m][1]), &e.on1);
                l1.backprop(&e.x, &dz1, &mut g[m][0]);
            }
        }
    }
    g
}

/// Every gradient entry in canonical order (module, layer, weights then
/// bias) — the order of the production `MscnGrads` tensors.
fn flat(g: &Grads) -> Vec<f64> {
    g.iter().flatten().flat_map(|(w, b)| w.iter().chain(b)).copied().collect()
}

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// One training shard of pool queries `picks` in feature mode `mode`:
/// production predictions and gradients against the reference.
fn check_shard(mode: usize, picks: &[usize]) -> Result<(), TestCaseError> {
    let trained = &pool().modes[mode];
    let model = trained.f32.model();
    let n = picks.len();

    let mut shard = RaggedBatch::empty();
    shard.assemble_into(&trained.feats, &trained.corpus, picks);
    let (mut s, mut grads) = (MscnScratch::new(), model.new_grads());
    model.forward_scratch(&shard, &mut s);
    s.grad_pred.resize(n, 0.0);
    LossKind::MeanQError.loss_and_grad_scaled(&s.preds, &shard.targets, 3.0, n, &mut s.grad_pred);
    model.backward_scratch(&shard, &mut s, &mut grads);

    let queries: Vec<Sets> = picks.iter().map(|&i| sets_of(&trained.feats[i])).collect();
    let ((tw, jw, pw), d) = (model.input_dims(), model.hidden());
    let w = tw.max(jw).max(pw);
    let longest = queries.iter().flat_map(|q| q.iter().map(Vec::len)).max().unwrap_or(0);
    let elements = (0..3).map(|m| queries.iter().map(|q| q[m].len()).sum()).max().unwrap_or(0);
    let k_fwd = w + 5 * d + longest + 2;
    let k = k_fwd + 2 * n + 2 * d + 3 * elements + 3;
    let gamma_fwd = gamma(k_fwd);

    let net = Net::of(model);
    let (exact, z) = forward(&net, &queries, |_, z| z > 0.0);
    let abs_net = net.abs();
    let abs = |rows: &Vec<Vec<f64>>| -> Vec<Vec<f64>> {
        rows.iter().map(|x| x.iter().map(|v| v.abs()).collect()).collect()
    };
    let abs_queries: Vec<Sets> = queries.iter().map(|q| q.each_ref().map(abs)).collect();
    let ambiguous = |u: usize, z_abs: f64| z[u].abs() <= gamma_fwd * z_abs;
    let (open, z_abs) = forward(&abs_net, &abs_queries, |u, za| z[u] > 0.0 || ambiguous(u, za));
    let closed_gate = |u: usize, _| z[u] > 0.0 && !ambiguous(u, z_abs[u]);
    let (closed, _) = forward(&abs_net, &abs_queries, closed_gate);

    // Predictions, and the seeds of the exact and the absolute backward.
    let mut seeds = Vec::with_capacity(n);
    let (mut seed_abs, mut gate_err) = (Vec::with_capacity(n), Vec::with_capacity(n));
    for q in 0..n {
        let p = sigmoid(exact[q].logit);
        let dp = gamma_fwd * open[q].logit / 4.0 + 5.0 * U;
        let got = f64::from(s.preds[q]);
        prop_assert!(
            (got - p).abs() <= dp,
            "query {}: prediction {} vs reference {} (bound {})",
            q,
            got,
            p,
            dp
        );
        let g = f64::from(s.grad_pred[q]);
        let gate = p * (1.0 - p);
        let dgate = dp * ((1.0 - 2.0 * p).abs() + dp);
        let e = g.abs() * (dgate + gamma(3) * (gate + dgate));
        seeds.push(g * gate);
        seed_abs.push(g.abs() * gate + e);
        gate_err.push(e);
    }

    let reference = flat(&backward(&net, &exact, &seeds));
    let a_open = flat(&backward(&abs_net, &open, &seed_abs));
    let a_gate = flat(&backward(&abs_net, &open, &gate_err));
    let a_closed = flat(&backward(&abs_net, &closed, &seed_abs));
    let production = grad_values(&grads);
    prop_assert_eq!(production.len(), reference.len(), "gradient entries");
    let gamma_k = gamma(k);
    for (i, (&got, &want)) in production.iter().zip(&reference).enumerate() {
        let bound = gamma_k * a_open[i] + a_gate[i] + (a_open[i] - a_closed[i]);
        let got = f64::from(got);
        prop_assert!(
            (got - want).abs() <= bound,
            "gradient entry {} of {}: {} vs reference {} (bound {}, {} queries)",
            i,
            reference.len(),
            got,
            want,
            bound,
            n
        );
    }
    Ok(())
}

proptest! {
    #[test]
    fn training_matches_the_f64_reference((mode, picks) in shard_strategy()) {
        check_shard(mode, &picks)?;
    }
}
