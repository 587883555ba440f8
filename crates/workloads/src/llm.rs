//! LLaMA2-style INT8 transformer workloads: inference and training.
//!
//! Both are built from the dominant tensor kernels of `llama2.c` quantized to
//! INT8 (the paper quantizes because the SSD compute resources have no
//! native floating point): matrix–vector products for the
//! attention/FFN projections, element-wise residual additions, and (for
//! training) gradient accumulation and weight updates.
//!
//! * **Inference** streams each layer's weights exactly once (average reuse
//!   ≈1.8) and is roughly half multiplies, half additions (53%/47% in
//!   Table 3). About 30% of the work (sampling, KV-cache management, control)
//!   stays scalar.
//! * **Training** re-touches weights and gradients in the forward, backward
//!   and optimizer-update phases (reuse ≈5.2) and is dominated by additions
//!   (88% medium / 12% high), with ≈40% scalar work (data loading, loss,
//!   bookkeeping).

use conduit_types::OpType;
use conduit_vectorizer::{ArrayDecl, ArrayHandle, Expr, Kernel, Loop, Statement};

use crate::Scale;

fn load(a: ArrayHandle, off: i64) -> Expr {
    Expr::load(a.at(off))
}

fn add(a: Expr, b: Expr) -> Expr {
    Expr::binary(OpType::Add, a, b)
}

fn mul(a: Expr, b: Expr) -> Expr {
    Expr::binary(OpType::Mul, a, b)
}

fn push_scalar_control_loop(
    k: &mut Kernel,
    array: ArrayHandle,
    name: &str,
    vector_ops: u64,
    scalar_fraction: f64,
) {
    let ops_per_iter = 16u64;
    let ratio = scalar_fraction / (1.0 - scalar_fraction);
    let trip = (vector_ops as f64 * ratio / ops_per_iter as f64) as u64;
    let mut e = load(array, 0);
    for i in 0..ops_per_iter {
        e = add(e, load(array, i as i64 % 8));
    }
    k.push_loop(
        Loop::new(name, trip.max(1))
            .with_statement(Statement::new(array.at(0), e))
            .with_complex_control_flow(),
    );
}

/// Builds the LLaMA2 INT8 inference kernel.
pub fn inference_kernel(scale: Scale) -> Kernel {
    let hidden = 32_768 * scale.data as u64;
    let layers = 4 * scale.steps as u64;

    let mut k = Kernel::new("LlaMA2 Inference");
    let x = k.declare_array(ArrayDecl::new("activations", hidden, 8));
    let out = k.declare_array(ArrayDecl::new("out", hidden, 8));

    let mut vector_ops = 0u64;
    for layer in 0..layers {
        // Eight projection matrices per transformer block (Q, K, V, O and
        // the four FFN tiles), each streamed exactly once.
        let weights: Vec<ArrayHandle> = (0..8)
            .map(|w| k.declare_array(ArrayDecl::new(format!("w{layer}_{w}"), hidden, 8)))
            .collect();
        // out[i] = Σ_k w_k[i] * x[i]  (a blocked INT8 mat-vec slice):
        // 8 multiplies + 7 additions per element → 47% high / 53% medium.
        let partial = |a: ArrayHandle, b: ArrayHandle| {
            add(mul(load(a, 0), load(x, 0)), mul(load(b, 0), load(x, 0)))
        };
        let acc = add(
            add(
                partial(weights[0], weights[1]),
                partial(weights[2], weights[3]),
            ),
            add(
                partial(weights[4], weights[5]),
                partial(weights[6], weights[7]),
            ),
        );
        k.push_loop(
            Loop::new(format!("layer{layer}_matvec"), hidden)
                .with_statement(Statement::new(out.at(0), acc)),
        );
        vector_ops += 15 * hidden;
    }

    // Sampling, KV-cache bookkeeping and other control-heavy host-style code.
    push_scalar_control_loop(&mut k, out, "sampling_control", vector_ops, 0.30);
    k
}

/// Builds the LLaMA2 INT8 training-step kernel.
pub fn training_kernel(scale: Scale) -> Kernel {
    let hidden = 32_768 * scale.data as u64;
    let layers = 4 * scale.steps as u64;
    let batches = 2u64;

    let mut k = Kernel::new("LLM Training");
    let x = k.declare_array(ArrayDecl::new("activations", hidden, 8));

    let mut vector_ops = 0u64;
    for layer in 0..layers {
        let w = k.declare_array(ArrayDecl::new(format!("w{layer}"), hidden, 8));
        let g = k.declare_array(ArrayDecl::new(format!("grad{layer}"), hidden, 8));
        let d = k.declare_array(ArrayDecl::new(format!("delta{layer}"), hidden, 8));
        let act = k.declare_array(ArrayDecl::new(format!("act{layer}"), hidden, 8));

        // Forward: act = w*x + x (projection + residual) — 1 mul, 2 adds.
        let forward = add(add(mul(load(w, 0), load(x, 0)), load(x, 0)), load(x, 0));
        // Backward: g = g + (d + act) + d — pure accumulation, 3 adds.
        let backward = add(add(load(g, 0), add(load(d, 0), load(act, 0))), load(d, 0));
        // Optimizer update: w = w + (g + d) — 2 adds.
        let update = add(load(w, 0), add(load(g, 0), load(d, 0)));
        // Delta propagation: d = (d + x) + (g + act) — 3 adds.
        let delta = add(add(load(d, 0), load(x, 0)), add(load(g, 0), load(act, 0)));

        k.push_loop(
            Loop::new(format!("layer{layer}_step"), hidden)
                .with_statement(Statement::new(act.at(0), forward))
                .with_statement(Statement::new(g.at(0), backward))
                .with_statement(Statement::new(w.at(0), update))
                .with_statement(Statement::new(d.at(0), delta))
                .with_repeat(batches),
        );
        vector_ops += 11 * hidden * batches;
    }

    // Data loading, loss computation and other control-heavy work.
    push_scalar_control_loop(&mut k, x, "data_and_loss", vector_ops, 0.40);
    k
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characterize;
    use conduit_vectorizer::Vectorizer;

    #[test]
    fn inference_matches_table3_shape() {
        let out = Vectorizer::default()
            .vectorize(&inference_kernel(Scale::test()))
            .unwrap();
        let p = characterize(&out.program);
        assert!(p.low_pct < 0.01);
        assert!((p.med_pct - 0.53).abs() < 0.1, "med = {}", p.med_pct);
        assert!((p.high_pct - 0.47).abs() < 0.1, "high = {}", p.high_pct);
        assert!(p.avg_reuse < 5.0, "reuse = {}", p.avg_reuse);
        assert!(
            (p.vectorizable_pct - 0.70).abs() < 0.1,
            "vectorizable = {}",
            p.vectorizable_pct
        );
    }

    #[test]
    fn training_matches_table3_shape() {
        let out = Vectorizer::default()
            .vectorize(&training_kernel(Scale::test()))
            .unwrap();
        let p = characterize(&out.program);
        assert!(p.low_pct < 0.01);
        assert!((p.med_pct - 0.88).abs() < 0.1, "med = {}", p.med_pct);
        assert!((p.high_pct - 0.12).abs() < 0.1, "high = {}", p.high_pct);
        assert!(
            p.avg_reuse > 2.0 && p.avg_reuse < 12.0,
            "reuse = {}",
            p.avg_reuse
        );
        assert!(
            (p.vectorizable_pct - 0.60).abs() < 0.1,
            "vectorizable = {}",
            p.vectorizable_pct
        );
    }

    #[test]
    fn training_reuses_weights_more_than_inference() {
        let inf = Vectorizer::default()
            .vectorize(&inference_kernel(Scale::test()))
            .unwrap();
        let tr = Vectorizer::default()
            .vectorize(&training_kernel(Scale::test()))
            .unwrap();
        assert!(characterize(&tr.program).avg_reuse > characterize(&inf.program).avg_reuse);
    }

    #[test]
    fn inference_has_thousands_of_instructions_at_scale_8x2() {
        let out = Vectorizer::default()
            .vectorize(&inference_kernel(Scale::new(8, 2)))
            .unwrap();
        assert!(out.program.len() > 5_000, "len = {}", out.program.len());
    }
}
