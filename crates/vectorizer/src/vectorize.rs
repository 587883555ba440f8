//! The loop auto-vectorization pass.
//!
//! Transforms each loop of a [`Kernel`] into page-aligned SIMD instructions:
//!
//! * fully vectorizable loops are emitted in strips of the configured vector
//!   width (4096 lanes by default, i.e. one 16 KiB flash page of 32-bit
//!   elements),
//! * partially vectorizable loops are strip-mined down to their dependence
//!   distance,
//! * non-vectorizable loops (and left-over scalar tails that are too small to
//!   be worth a SIMD operation) become [`OpType::Scalar`] regions that the
//!   runtime can only place on general-purpose cores.
//!
//! Every emitted instruction carries the metadata (loop id, strip index,
//! reuse hint) that the paper's compile-time pass embeds in the optimized IR.

use std::collections::HashMap;

use conduit_types::{
    ConduitError, InstMetadata, OpType, Operand, Result, VectorInst, VectorProgram,
};

use crate::analysis::{DependenceAnalysis, LoopClass};
use crate::kernel::{Expr, Kernel, Loop};

/// Summary of what the vectorizer did to a kernel, mirroring the
/// "Vectorizable Code %" characterization of Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct VectorizationReport {
    /// Number of loops examined.
    pub loops_total: usize,
    /// Loops vectorized at full width.
    pub loops_vectorized: usize,
    /// Loops vectorized at a reduced (strip-mined) width.
    pub loops_partial: usize,
    /// Loops left scalar.
    pub loops_scalar: usize,
    /// SIMD instructions emitted.
    pub vector_insts: usize,
    /// Scalar-region instructions emitted.
    pub scalar_insts: usize,
    /// Fraction of the kernel's scalar operations covered by SIMD
    /// instructions.
    pub vectorized_fraction: f64,
}

/// The result of vectorizing a kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct VectorizerOutput {
    /// The emitted vector program (the "binary" shipped to the SSD).
    pub program: VectorProgram,
    /// Vectorization statistics.
    pub report: VectorizationReport,
}

/// The auto-vectorizer.
///
/// # Examples
///
/// See the crate-level documentation for a complete example.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Vectorizer {
    /// Target vector width in lanes (`-force-vector-width` in the paper).
    pub vector_width: u32,
}

impl Default for Vectorizer {
    fn default() -> Self {
        Vectorizer { vector_width: 4096 }
    }
}

impl Vectorizer {
    /// Creates a vectorizer with an explicit vector width (used by the
    /// vector-width ablation).
    pub fn with_width(vector_width: u32) -> Self {
        Vectorizer {
            vector_width: vector_width.max(1),
        }
    }

    /// Vectorizes a kernel into a [`VectorProgram`].
    ///
    /// # Errors
    ///
    /// Returns [`ConduitError::InvalidProgram`] if the kernel has no loops or
    /// the emitted program fails validation (which would indicate a bug in
    /// the pass itself).
    pub fn vectorize(&self, kernel: &Kernel) -> Result<VectorizerOutput> {
        if kernel.loops().is_empty() {
            return Err(ConduitError::invalid_program(format!(
                "kernel `{}` has no loops to vectorize",
                kernel.name()
            )));
        }
        let mut program = VectorProgram::new(kernel.name());
        let mut report = VectorizationReport {
            loops_total: kernel.loops().len(),
            ..VectorizationReport::default()
        };
        let mut vectorized_ops = 0u64;
        let total_ops = kernel.total_scalar_ops().max(1);

        for (loop_id, l) in kernel.loops().iter().enumerate() {
            let class = DependenceAnalysis::classify(l);
            let strip = match &class {
                LoopClass::FullyVectorizable => {
                    report.loops_vectorized += 1;
                    self.vector_width as u64
                }
                LoopClass::PartiallyVectorizable { max_strip } => {
                    report.loops_partial += 1;
                    (*max_strip).min(self.vector_width as u64)
                }
                LoopClass::NotVectorizable { .. } => {
                    report.loops_scalar += 1;
                    self.emit_scalar_loop(&mut program, kernel, l, loop_id as u32, &mut report);
                    continue;
                }
            };
            vectorized_ops += l.scalar_ops();
            self.emit_vector_loop(&mut program, kernel, l, loop_id as u32, strip, &mut report);
        }

        report.vectorized_fraction = vectorized_ops as f64 / total_ops as f64;
        program.vectorized_fraction = report.vectorized_fraction;
        program.validate().map_err(ConduitError::invalid_program)?;
        Ok(VectorizerOutput { program, report })
    }

    fn emit_vector_loop(
        &self,
        program: &mut VectorProgram,
        kernel: &Kernel,
        l: &Loop,
        loop_id: u32,
        strip: u64,
        report: &mut VectorizationReport,
    ) {
        // Reuse hints: how many times each array is referenced per iteration
        // of the loop body (times the repeat count).
        let mut ref_counts: HashMap<usize, u32> = HashMap::new();
        for stmt in &l.body {
            for r in stmt.expr.reads() {
                *ref_counts.entry(r.array.0).or_insert(0) += 1;
            }
        }

        for rep in 0..l.repeat {
            let mut strip_index = 0u32;
            let mut start = 0u64;
            while start < l.trip_count {
                let lanes = strip.min(l.trip_count - start) as u32;
                let meta = InstMetadata {
                    loop_id: Some(loop_id),
                    strip_index: Some(strip_index + (rep as u32) * 1_000_000),
                    reuse_hint: l.repeat as u32,
                };
                for stmt in &l.body {
                    let elem_bits = kernel.array(stmt.target.array).elem_bits;
                    let result = self.emit_expr(
                        program, kernel, &stmt.expr, start, lanes, elem_bits, meta, report,
                    );
                    // The statement's final value is stored to the target
                    // array; rewrite the producing instruction (or emit a
                    // copy for bare loads/constants) so it carries dst_page.
                    let dst_elem = (start as i64 + stmt.target.offset).max(0) as u64;
                    let dst_page = kernel.page_of(stmt.target.array, dst_elem);
                    match result {
                        Operand::Result(_) => {
                            // Attach the store to the just-emitted producer.
                            let last = program.last_mut().expect("an instruction was just emitted");
                            last.dst_page = Some(dst_page);
                        }
                        src => {
                            let copy = VectorInst::unary(0, OpType::Copy, src)
                                .lanes(lanes)
                                .elem_bits(elem_bits)
                                .store_to(dst_page)
                                .meta(meta);
                            program.push(copy);
                            report.vector_insts += 1;
                        }
                    }
                }
                start += strip;
                strip_index += 1;
            }
        }
    }

    /// Emits the instruction tree for an expression and returns the operand
    /// that holds its value.
    #[allow(clippy::too_many_arguments)]
    fn emit_expr(
        &self,
        program: &mut VectorProgram,
        kernel: &Kernel,
        expr: &Expr,
        start: u64,
        lanes: u32,
        elem_bits: u32,
        meta: InstMetadata,
        report: &mut VectorizationReport,
    ) -> Operand {
        match expr {
            Expr::Const(v) => Operand::Immediate(*v),
            Expr::Load(r) => {
                let elem = (start as i64 + r.offset).max(0) as u64;
                Operand::Page(kernel.page_of(r.array, elem))
            }
            Expr::Unary(op, a) => {
                let a = self.emit_expr(program, kernel, a, start, lanes, elem_bits, meta, report);
                let inst = VectorInst::unary(0, *op, a)
                    .lanes(lanes)
                    .elem_bits(elem_bits)
                    .meta(meta);
                let id = program.push(inst);
                report.vector_insts += 1;
                Operand::Result(id)
            }
            Expr::Binary(op, a, b) => {
                let a = self.emit_expr(program, kernel, a, start, lanes, elem_bits, meta, report);
                let b = self.emit_expr(program, kernel, b, start, lanes, elem_bits, meta, report);
                let inst = VectorInst::binary(0, *op, a, b)
                    .lanes(lanes)
                    .elem_bits(elem_bits)
                    .meta(meta);
                let id = program.push(inst);
                report.vector_insts += 1;
                Operand::Result(id)
            }
        }
    }

    fn emit_scalar_loop(
        &self,
        program: &mut VectorProgram,
        kernel: &Kernel,
        l: &Loop,
        loop_id: u32,
        report: &mut VectorizationReport,
    ) {
        // The scalar region is chunked so that each Scalar instruction covers
        // at most `vector_width` iterations of scalar work; this keeps the
        // instruction count bounded while preserving the total work.
        let total_iters = l.trip_count * l.repeat;
        let chunk = self.vector_width as u64;
        let target_array = l
            .body
            .first()
            .map(|s| s.target)
            .unwrap_or_else(|| crate::kernel::ArrayHandle(0).at(0));
        let elem_bits = kernel
            .arrays()
            .get(target_array.array.0)
            .map_or(32, |a| a.elem_bits);
        let mut start = 0u64;
        let mut strip_index = 0u32;
        while start < total_iters {
            let lanes = chunk.min(total_iters - start) as u32;
            let page = kernel
                .arrays()
                .get(target_array.array.0)
                .map(|_| {
                    kernel.page_of(
                        target_array.array,
                        (start % l.trip_count.max(1))
                            .min(kernel.array(target_array.array).len.saturating_sub(1)),
                    )
                })
                .unwrap_or(conduit_types::LogicalPageId::new(0));
            let inst = VectorInst::unary(0, OpType::Scalar, Operand::Page(page))
                .lanes(lanes)
                .elem_bits(elem_bits)
                .meta(InstMetadata {
                    loop_id: Some(loop_id),
                    strip_index: Some(strip_index),
                    reuse_hint: 1,
                });
            program.push(inst);
            report.scalar_insts += 1;
            start += chunk;
            strip_index += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{ArrayDecl, Statement};
    use conduit_types::LatencyClass;

    fn vec_add_kernel(n: u64) -> Kernel {
        let mut k = Kernel::new("vec_add");
        let a = k.declare_array(ArrayDecl::new("a", n, 32));
        let b = k.declare_array(ArrayDecl::new("b", n, 32));
        let c = k.declare_array(ArrayDecl::new("c", n, 32));
        k.push_loop(Loop::new("add", n).with_statement(Statement::new(
            c.at(0),
            Expr::binary(OpType::Add, Expr::load(a.at(0)), Expr::load(b.at(0))),
        )));
        k
    }

    #[test]
    fn empty_kernel_is_rejected() {
        let k = Kernel::new("empty");
        assert!(Vectorizer::default().vectorize(&k).is_err());
    }

    #[test]
    fn full_width_strips() {
        let out = Vectorizer::default()
            .vectorize(&vec_add_kernel(8192))
            .unwrap();
        assert_eq!(out.program.len(), 2);
        assert!(out.program.iter().all(|i| i.lanes == 4096));
        assert!(out.program.iter().all(|i| i.dst_page.is_some()));
        assert_eq!(out.report.loops_vectorized, 1);
        assert!((out.report.vectorized_fraction - 1.0).abs() < 1e-9);
        assert!(out.program.validate().is_ok());
    }

    #[test]
    fn tail_strip_has_fewer_lanes() {
        let out = Vectorizer::default()
            .vectorize(&vec_add_kernel(5000))
            .unwrap();
        assert_eq!(out.program.len(), 2);
        assert_eq!(out.program.insts()[0].lanes, 4096);
        assert_eq!(out.program.insts()[1].lanes, 904);
    }

    #[test]
    fn custom_width_changes_strip_count() {
        let out = Vectorizer::with_width(1024)
            .vectorize(&vec_add_kernel(8192))
            .unwrap();
        assert_eq!(out.program.len(), 8);
        assert!(out.program.iter().all(|i| i.lanes == 1024));
    }

    #[test]
    fn expression_trees_become_dependent_instructions() {
        let mut k = Kernel::new("fma");
        let a = k.declare_array(ArrayDecl::new("a", 4096, 32));
        let b = k.declare_array(ArrayDecl::new("b", 4096, 32));
        let c = k.declare_array(ArrayDecl::new("c", 4096, 32));
        let d = k.declare_array(ArrayDecl::new("d", 4096, 32));
        // d[i] = a[i] * b[i] + c[i]
        k.push_loop(Loop::new("fma", 4096).with_statement(Statement::new(
            d.at(0),
            Expr::binary(
                OpType::Add,
                Expr::binary(OpType::Mul, Expr::load(a.at(0)), Expr::load(b.at(0))),
                Expr::load(c.at(0)),
            ),
        )));
        let out = Vectorizer::default().vectorize(&k).unwrap();
        assert_eq!(out.program.len(), 2);
        let add = &out.program.insts()[1];
        assert_eq!(add.op, OpType::Add);
        assert!(
            add.src_results().count() == 1,
            "add consumes the mul result"
        );
        assert!(add.dst_page.is_some());
        assert_eq!(out.program.insts()[0].latency_class(), LatencyClass::High);
    }

    #[test]
    fn non_vectorizable_loops_become_scalar_regions() {
        let mut k = Kernel::new("scan");
        let a = k.declare_array(ArrayDecl::new("a", 8192, 32));
        k.push_loop(Loop::new("scan", 8192).with_statement(Statement::new(
            a.at(0),
            Expr::binary(OpType::Add, Expr::load(a.at(-1)), Expr::Const(1)),
        )));
        let out = Vectorizer::default().vectorize(&k).unwrap();
        assert_eq!(out.report.loops_scalar, 1);
        assert!(out.program.iter().all(|i| i.op == OpType::Scalar));
        assert!(out.report.vectorized_fraction < 1e-9);
    }

    #[test]
    fn mixed_kernel_reports_partial_fraction() {
        let mut k = Kernel::new("mixed");
        let a = k.declare_array(ArrayDecl::new("a", 8192, 32));
        let b = k.declare_array(ArrayDecl::new("b", 8192, 32));
        // Vectorizable loop.
        k.push_loop(Loop::new("v", 8192).with_statement(Statement::new(
            b.at(0),
            Expr::binary(OpType::Xor, Expr::load(a.at(0)), Expr::Const(7)),
        )));
        // Scalar loop of equal work.
        k.push_loop(
            Loop::new("s", 8192)
                .with_statement(Statement::new(
                    a.at(0),
                    Expr::binary(OpType::Add, Expr::load(a.at(0)), Expr::Const(1)),
                ))
                .with_complex_control_flow(),
        );
        let out = Vectorizer::default().vectorize(&k).unwrap();
        assert!((out.report.vectorized_fraction - 0.5).abs() < 1e-9);
        assert_eq!(out.report.loops_vectorized, 1);
        assert_eq!(out.report.loops_scalar, 1);
        assert!(out.report.scalar_insts > 0);
        assert!(out.report.vector_insts > 0);
    }

    #[test]
    fn strip_mined_loop_uses_reduced_width() {
        let mut k = Kernel::new("strided");
        let a = k.declare_array(ArrayDecl::new("a", 8192, 32));
        k.push_loop(Loop::new("strided", 8192).with_statement(Statement::new(
            a.at(0),
            Expr::binary(OpType::Add, Expr::load(a.at(-1024)), Expr::Const(1)),
        )));
        let out = Vectorizer::default().vectorize(&k).unwrap();
        assert_eq!(out.report.loops_partial, 1);
        assert!(out.program.iter().all(|i| i.lanes == 1024));
    }

    #[test]
    fn repeats_multiply_instruction_count_and_reuse_pages() {
        let mut k = vec_add_kernel(4096);
        k = {
            // Rebuild with repeat = 4.
            let mut k2 = Kernel::new("vec_add");
            let a = k2.declare_array(ArrayDecl::new("a", 4096, 32));
            let b = k2.declare_array(ArrayDecl::new("b", 4096, 32));
            let c = k2.declare_array(ArrayDecl::new("c", 4096, 32));
            k2.push_loop(
                Loop::new("add", 4096)
                    .with_statement(Statement::new(
                        c.at(0),
                        Expr::binary(OpType::Add, Expr::load(a.at(0)), Expr::load(b.at(0))),
                    ))
                    .with_repeat(4),
            );
            let _ = k;
            k2
        };
        let out = Vectorizer::default().vectorize(&k).unwrap();
        assert_eq!(out.program.len(), 4);
        // All four instructions read the same pages.
        let first = &out.program.insts()[0];
        assert!(first.srcs.iter().all(|src| src.as_page().is_some()));
        assert!(out.program.iter().all(|inst| inst.srcs == first.srcs));
    }

    #[test]
    fn metadata_carries_loop_and_strip_ids() {
        let out = Vectorizer::default()
            .vectorize(&vec_add_kernel(8192))
            .unwrap();
        let first = &out.program.insts()[0];
        let second = &out.program.insts()[1];
        assert_eq!(first.meta.loop_id, Some(0));
        assert_eq!(first.meta.strip_index, Some(0));
        assert_eq!(second.meta.strip_index, Some(1));
    }
}
