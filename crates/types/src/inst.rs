//! Vectorized instructions and vector programs.
//!
//! The output of Conduit's compile-time preprocessing stage (§4.3.1) is a
//! sequence of wide SIMD instructions whose vector width matches a NAND flash
//! page (4096 × 32-bit lanes = 16 KiB), each carrying lightweight metadata
//! (operation type, operand references, element size, vector length) that the
//! runtime offloader uses to make per-instruction offloading decisions.
//!
//! [`VectorInst`] is one such instruction; [`VectorProgram`] is the ordered
//! sequence produced for a whole application ("the binary" transferred to the
//! SSD in the paper).

use crate::addr::LogicalPageId;
use crate::op::{LatencyClass, OpType};
use std::collections::BTreeSet;
use std::fmt;

/// The default number of lanes produced by the auto-vectorizer
/// (`-force-vector-width=4096` in the paper).
pub const DEFAULT_LANES: u32 = 4096;

/// The default element width in bits (the paper quantizes to INT8 for LLM
/// workloads but uses 32-bit lanes as the vectorization unit; 32 is the
/// default, workloads override it).
pub const DEFAULT_ELEM_BITS: u32 = 32;

/// The widest lane element, in bits: [`VectorProgram::validate`] accepts
/// element widths in `1..=MAX_ELEM_BITS`.
pub const MAX_ELEM_BITS: u32 = 64;

/// Identifier of a vector instruction within a [`VectorProgram`].
///
/// Instruction ids are dense indices assigned in program order, which lets
/// the runtime track dependences and completion with flat vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct InstId(u32);

impl InstId {
    /// Creates an instruction id from its program-order index.
    pub const fn new(index: u32) -> Self {
        InstId(index)
    }

    /// The program-order index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for InstId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i{}", self.0)
    }
}

impl From<u32> for InstId {
    fn from(v: u32) -> Self {
        InstId(v)
    }
}

/// A source operand of a vector instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// A vector whose bytes live at a logical page in the SSD (the page is
    /// the *first* page of the vector; a full-width vector spans
    /// [`crate::addr::PAGES_PER_VECTOR`] consecutive pages).
    Page(LogicalPageId),
    /// The result produced by an earlier instruction in the same program.
    Result(InstId),
    /// A broadcast immediate value (no data movement needed).
    Immediate(i64),
}

impl Operand {
    /// Convenience constructor for a page operand.
    pub fn page(index: u64) -> Operand {
        Operand::Page(LogicalPageId::new(index))
    }

    /// Convenience constructor for a result operand.
    pub fn result(id: impl Into<InstId>) -> Operand {
        Operand::Result(id.into())
    }

    /// The logical page, if this operand is page-backed.
    pub fn as_page(self) -> Option<LogicalPageId> {
        match self {
            Operand::Page(p) => Some(p),
            _ => None,
        }
    }

    /// The producing instruction, if this operand is a prior result.
    pub fn as_result(self) -> Option<InstId> {
        match self {
            Operand::Result(id) => Some(id),
            _ => None,
        }
    }

    /// Whether this operand requires data (pages or a prior result), as
    /// opposed to an immediate.
    pub fn needs_data(self) -> bool {
        !matches!(self, Operand::Immediate(_))
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Page(p) => write!(f, "{p}"),
            Operand::Result(id) => write!(f, "%{id}"),
            Operand::Immediate(v) => write!(f, "#{v}"),
        }
    }
}

/// Lightweight metadata embedded by the compile-time pass to guide runtime
/// offloading decisions (§4.3.1, third customization).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct InstMetadata {
    /// The source loop this instruction was vectorized from, if any.
    pub loop_id: Option<u32>,
    /// The strip-mined iteration index within the loop, if any.
    pub strip_index: Option<u32>,
    /// Hint: expected number of future uses of this instruction's result
    /// (drives data-reuse behaviour; derived from the compile-time
    /// dependence graph).
    pub reuse_hint: u32,
}

/// One vectorized (SIMD) instruction with embedded offloading metadata.
///
/// # Examples
///
/// ```
/// use conduit_types::{OpType, Operand, VectorInst};
///
/// let x = VectorInst::binary(0, OpType::Xor, Operand::page(0), Operand::page(4));
/// assert_eq!(x.srcs.len(), 2);
/// assert_eq!(x.vector_bytes(), 16 * 1024);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct VectorInst {
    /// Program-order identifier.
    pub id: InstId,
    /// The operation performed.
    pub op: OpType,
    /// Number of SIMD lanes.
    pub lanes: u32,
    /// Width of each lane in bits (8, 16, 32 or 64; validated to
    /// `1..=`[`MAX_ELEM_BITS`]).
    pub elem_bits: u32,
    /// Source operands (length matches `op.arity()` for well-formed
    /// instructions; validated by [`VectorProgram::validate`]).
    pub srcs: Vec<Operand>,
    /// If set, the result is committed to this logical page range (a store);
    /// otherwise the result stays in the producing resource until another
    /// instruction or the host needs it (lazy coherence).
    pub dst_page: Option<LogicalPageId>,
    /// Compile-time metadata.
    pub meta: InstMetadata,
}

impl VectorInst {
    /// Creates a full-width binary instruction with default lane count and
    /// element width.
    pub fn binary(id: u32, op: OpType, a: Operand, b: Operand) -> Self {
        VectorInst {
            id: InstId::new(id),
            op,
            lanes: DEFAULT_LANES,
            elem_bits: DEFAULT_ELEM_BITS,
            srcs: vec![a, b],
            dst_page: None,
            meta: InstMetadata::default(),
        }
    }

    /// Creates a full-width unary instruction with default lane count and
    /// element width.
    pub fn unary(id: u32, op: OpType, a: Operand) -> Self {
        VectorInst {
            id: InstId::new(id),
            op,
            lanes: DEFAULT_LANES,
            elem_bits: DEFAULT_ELEM_BITS,
            srcs: vec![a],
            dst_page: None,
            meta: InstMetadata::default(),
        }
    }

    /// Creates an instruction with explicit operands.
    pub fn with_srcs(id: u32, op: OpType, srcs: Vec<Operand>) -> Self {
        VectorInst {
            id: InstId::new(id),
            op,
            lanes: DEFAULT_LANES,
            elem_bits: DEFAULT_ELEM_BITS,
            srcs,
            dst_page: None,
            meta: InstMetadata::default(),
        }
    }

    /// Builder-style: sets the lane count.
    pub fn lanes(mut self, lanes: u32) -> Self {
        self.lanes = lanes;
        self
    }

    /// Builder-style: sets the element width in bits.
    pub fn elem_bits(mut self, bits: u32) -> Self {
        self.elem_bits = bits;
        self
    }

    /// Builder-style: sets the destination page (store).
    pub fn store_to(mut self, page: LogicalPageId) -> Self {
        self.dst_page = Some(page);
        self
    }

    /// Builder-style: sets the metadata.
    pub fn meta(mut self, meta: InstMetadata) -> Self {
        self.meta = meta;
        self
    }

    /// The total number of data bytes one full vector operand occupies.
    pub fn vector_bytes(&self) -> u64 {
        (self.lanes as u64) * (self.elem_bits as u64) / 8
    }

    /// The latency class of the operation (for workload characterization).
    pub fn latency_class(&self) -> LatencyClass {
        self.op.latency_class()
    }

    /// Iterator over the logical pages referenced by the source operands.
    pub fn src_pages(&self) -> impl Iterator<Item = LogicalPageId> + '_ {
        self.srcs.iter().filter_map(|s| s.as_page())
    }

    /// Iterator over the instruction results this instruction depends on.
    pub fn src_results(&self) -> impl Iterator<Item = InstId> + '_ {
        self.srcs.iter().filter_map(|s| s.as_result())
    }
}

impl fmt::Display for VectorInst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "%{} = {} <{} x i{}>",
            self.id, self.op, self.lanes, self.elem_bits
        )?;
        for s in &self.srcs {
            write!(f, " {s}")?;
        }
        if let Some(p) = self.dst_page {
            write!(f, " -> {p}")?;
        }
        Ok(())
    }
}

/// Errors detected when validating a [`VectorProgram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramError {
    /// An instruction's id does not match its position in the program.
    IdMismatch {
        /// Position in the instruction list.
        position: usize,
        /// The id stored in the instruction.
        found: InstId,
    },
    /// An instruction references the result of an instruction that does not
    /// precede it.
    ForwardReference {
        /// The referencing instruction.
        inst: InstId,
        /// The referenced (not-yet-defined) instruction.
        operand: InstId,
    },
    /// An instruction has the wrong number of source operands for its op.
    ArityMismatch {
        /// The offending instruction.
        inst: InstId,
        /// Expected operand count.
        expected: usize,
        /// Actual operand count.
        found: usize,
    },
    /// An instruction's element width is outside `1..=`[`MAX_ELEM_BITS`].
    ElemBitsOutOfRange {
        /// The offending instruction.
        inst: InstId,
        /// The element width it declares.
        elem_bits: u32,
    },
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::IdMismatch { position, found } => {
                write!(f, "instruction at position {position} has id {found}")
            }
            ProgramError::ForwardReference { inst, operand } => {
                write!(
                    f,
                    "instruction {inst} references later instruction {operand}"
                )
            }
            ProgramError::ArityMismatch {
                inst,
                expected,
                found,
            } => write!(
                f,
                "instruction {inst} has {found} operands, expected {expected}"
            ),
            ProgramError::ElemBitsOutOfRange { inst, elem_bits } => write!(
                f,
                "instruction {inst} has {elem_bits}-bit elements, expected 1..={MAX_ELEM_BITS}"
            ),
        }
    }
}

impl std::error::Error for ProgramError {}

/// An ordered sequence of vector instructions — the "binary" the compile-time
/// stage transfers to the SSD.
///
/// # Examples
///
/// ```
/// use conduit_types::{OpType, Operand, VectorProgram};
///
/// let mut prog = VectorProgram::new("demo");
/// let a = prog.push_binary(OpType::Add, Operand::page(0), Operand::page(4));
/// let _ = prog.push_binary(OpType::Mul, Operand::result(a), Operand::page(8));
/// assert_eq!(prog.len(), 2);
/// assert!(prog.validate().is_ok());
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct VectorProgram {
    name: String,
    insts: Vec<VectorInst>,
    /// Fraction of the original application's dynamic work that was
    /// vectorized (Table 3 "Vectorizable Code %"). Set by the vectorizer.
    pub vectorized_fraction: f64,
}

impl VectorProgram {
    /// Creates an empty program with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        VectorProgram {
            name: name.into(),
            insts: Vec::new(),
            vectorized_fraction: 1.0,
        }
    }

    /// The program name (workload identifier).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The number of instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// The instructions, in program order.
    pub fn insts(&self) -> &[VectorInst] {
        &self.insts
    }

    /// Iterator over the instructions in program order.
    pub fn iter(&self) -> std::slice::Iter<'_, VectorInst> {
        self.insts.iter()
    }

    /// Mutable access to the most recently pushed instruction (used by the
    /// vectorizer to attach a store destination to an emitted producer).
    pub fn last_mut(&mut self) -> Option<&mut VectorInst> {
        self.insts.last_mut()
    }

    /// Appends an already-built instruction, reassigning its id to keep ids
    /// dense and in program order. Returns the assigned id.
    pub fn push(&mut self, mut inst: VectorInst) -> InstId {
        let id = InstId::new(self.insts.len() as u32);
        inst.id = id;
        self.insts.push(inst);
        id
    }

    /// Appends a full-width binary instruction. Returns the assigned id.
    pub fn push_binary(&mut self, op: OpType, a: Operand, b: Operand) -> InstId {
        let id = self.insts.len() as u32;
        self.push(VectorInst::binary(id, op, a, b))
    }

    /// Appends a full-width unary instruction. Returns the assigned id.
    pub fn push_unary(&mut self, op: OpType, a: Operand) -> InstId {
        let id = self.insts.len() as u32;
        self.push(VectorInst::unary(id, op, a))
    }

    /// The set of distinct logical pages referenced by the program (sources
    /// and destinations), i.e. its storage footprint in pages.
    pub fn footprint_pages(&self) -> BTreeSet<LogicalPageId> {
        let mut pages = BTreeSet::new();
        for inst in &self.insts {
            pages.extend(inst.src_pages());
            if let Some(d) = inst.dst_page {
                pages.insert(d);
            }
        }
        pages
    }

    /// Total bytes of distinct logical pages touched by the program.
    pub fn footprint_bytes(&self) -> u64 {
        self.footprint_pages().len() as u64 * crate::addr::PAGE_BYTES
    }

    /// Checks structural well-formedness: dense ids, no forward references,
    /// correct operand arity, element widths in `1..=`[`MAX_ELEM_BITS`].
    ///
    /// # Errors
    ///
    /// Returns the first [`ProgramError`] found.
    pub fn validate(&self) -> std::result::Result<(), ProgramError> {
        for (pos, inst) in self.insts.iter().enumerate() {
            if inst.id.index() != pos {
                return Err(ProgramError::IdMismatch {
                    position: pos,
                    found: inst.id,
                });
            }
            if !(1..=MAX_ELEM_BITS).contains(&inst.elem_bits) {
                return Err(ProgramError::ElemBitsOutOfRange {
                    inst: inst.id,
                    elem_bits: inst.elem_bits,
                });
            }
            let expected = inst.op.arity();
            if inst.srcs.len() != expected {
                return Err(ProgramError::ArityMismatch {
                    inst: inst.id,
                    expected,
                    found: inst.srcs.len(),
                });
            }
            for dep in inst.src_results() {
                if dep.index() >= pos {
                    return Err(ProgramError::ForwardReference {
                        inst: inst.id,
                        operand: dep,
                    });
                }
            }
        }
        Ok(())
    }
}

impl<'a> IntoIterator for &'a VectorProgram {
    type Item = &'a VectorInst;
    type IntoIter = std::slice::Iter<'a, VectorInst>;
    fn into_iter(self) -> Self::IntoIter {
        self.insts.iter()
    }
}

impl Extend<VectorInst> for VectorProgram {
    fn extend<T: IntoIterator<Item = VectorInst>>(&mut self, iter: T) {
        for inst in iter {
            self.push(inst);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operand_accessors() {
        assert_eq!(Operand::page(3).as_page(), Some(LogicalPageId::new(3)));
        assert_eq!(Operand::page(3).as_result(), None);
        assert_eq!(Operand::result(2u32).as_result(), Some(InstId::new(2)));
        assert!(!Operand::Immediate(7).needs_data());
        assert!(Operand::page(0).needs_data());
    }

    #[test]
    fn inst_builders_and_accessors() {
        let inst = VectorInst::binary(5, OpType::Add, Operand::page(1), Operand::result(3u32))
            .lanes(2048)
            .elem_bits(8)
            .store_to(LogicalPageId::new(9));
        assert_eq!(inst.vector_bytes(), 2048);
        assert_eq!(inst.src_pages().count(), 1);
        assert_eq!(inst.src_results().count(), 1);
        assert_eq!(inst.dst_page, Some(LogicalPageId::new(9)));
        assert_eq!(inst.latency_class(), LatencyClass::Medium);
    }

    #[test]
    fn program_push_assigns_dense_ids() {
        let mut prog = VectorProgram::new("p");
        let a = prog.push_binary(OpType::And, Operand::page(0), Operand::page(1));
        let b = prog.push_unary(OpType::Not, Operand::result(a));
        assert_eq!(a, InstId::new(0));
        assert_eq!(b, InstId::new(1));
        assert!(prog.validate().is_ok());
        assert_eq!(prog.name(), "p");
        assert!(!prog.is_empty());
    }

    #[test]
    fn validate_detects_forward_reference() {
        let mut prog = VectorProgram::new("bad");
        prog.push(VectorInst::binary(
            0,
            OpType::Add,
            Operand::result(5u32),
            Operand::page(0),
        ));
        assert!(matches!(
            prog.validate(),
            Err(ProgramError::ForwardReference { .. })
        ));
    }

    #[test]
    fn validate_detects_arity_mismatch() {
        let mut prog = VectorProgram::new("bad");
        prog.push(VectorInst::with_srcs(
            0,
            OpType::Add,
            vec![Operand::page(0)],
        ));
        assert!(matches!(
            prog.validate(),
            Err(ProgramError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn validate_detects_element_widths_out_of_range() {
        for bits in [0, MAX_ELEM_BITS + 1, 65_537, u32::MAX] {
            let mut prog = VectorProgram::new("bad");
            prog.push_binary(OpType::Add, Operand::page(0), Operand::page(4));
            prog.push(
                VectorInst::binary(1, OpType::Xor, Operand::page(0), Operand::page(4))
                    .elem_bits(bits),
            );
            assert_eq!(
                prog.validate(),
                Err(ProgramError::ElemBitsOutOfRange {
                    inst: InstId::new(1),
                    elem_bits: bits
                })
            );
        }
        for bits in [1, 8, MAX_ELEM_BITS] {
            let mut prog = VectorProgram::new("ok");
            prog.push(
                VectorInst::binary(0, OpType::Xor, Operand::page(0), Operand::page(4))
                    .elem_bits(bits),
            );
            assert!(prog.validate().is_ok(), "{bits}-bit elements");
        }
    }

    #[test]
    fn footprint_counts_distinct_pages() {
        let mut prog = VectorProgram::new("fp");
        let a = prog.push_binary(OpType::Add, Operand::page(0), Operand::page(1));
        prog.push(
            VectorInst::binary(1, OpType::Mul, Operand::result(a), Operand::page(1))
                .store_to(LogicalPageId::new(2)),
        );
        assert_eq!(prog.footprint_pages().len(), 3);
        assert_eq!(prog.footprint_bytes(), 3 * crate::addr::PAGE_BYTES);
    }

    #[test]
    fn display_renders_ir_like_text() {
        let inst = VectorInst::binary(0, OpType::Xor, Operand::page(0), Operand::Immediate(3));
        let text = inst.to_string();
        assert!(text.contains("xor"));
        assert!(text.contains("<4096 x i32>"));
        assert!(text.contains("#3"));
    }
}
