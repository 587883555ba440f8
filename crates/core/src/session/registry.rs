//! The program registry: content-addressed, append-only storage of
//! validated programs, and its compact serialization.

use std::collections::HashMap;
use std::sync::Arc;

use conduit_types::bytes::{put_u16, put_u32, Reader};
use conduit_types::{ConduitError, Result, VectorProgram};

/// Magic bytes identifying a serialized [`ProgramRegistry`].
pub const REGISTRY_MAGIC: [u8; 4] = *b"CPR1";

/// Current registry serialization format version.
pub const REGISTRY_FORMAT_VERSION: u16 = 1;

/// Handle to a program registered in a [`Session`](crate::Session)'s [`ProgramRegistry`].
///
/// Ids are dense indices in registration order, so they stay valid across
/// [`Session::export_registry`](crate::Session::export_registry) /
/// [`Session::import_registry`](crate::Session::import_registry) round trips
/// into a fresh session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProgramId(pub(super) u32);

impl ProgramId {
    /// The dense registration-order index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for ProgramId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// An ordered, **content-addressed** collection of validated, reusable
/// [`VectorProgram`]s.
///
/// Programs are stored behind [`Arc`] so batch fan-out shares them across
/// worker threads without copying instruction streams. Registration dedupes
/// by content: registering (or importing) a program whose serialized bytes
/// match an already-registered one returns the existing [`ProgramId`]
/// instead of storing a second copy, so a fleet of sessions importing the
/// same program store converges on one entry per distinct program.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProgramRegistry {
    pub(super) programs: Vec<Arc<VectorProgram>>,
    /// Content hash (FNV-1a over [`VectorProgram::to_bytes`]) → ids with
    /// that hash. Collisions are resolved by comparing the programs.
    by_hash: HashMap<u64, Vec<ProgramId>>,
}

/// FNV-1a over a program's compact serialization: the content address used
/// by [`ProgramRegistry`] deduplication (the shared workspace hash, also
/// behind [`SsdConfig::fingerprint`]).
fn content_hash(bytes: &[u8]) -> u64 {
    conduit_types::bytes::fnv1a(bytes)
}

impl ProgramRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        ProgramRegistry::default()
    }

    /// Validates and registers a program, returning its handle. If an
    /// identical program (same serialized content) is already registered,
    /// its existing handle is returned and nothing is stored.
    ///
    /// # Errors
    ///
    /// Returns [`ConduitError::InvalidProgram`] if the program fails
    /// [`VectorProgram::validate`].
    pub fn register(&mut self, program: VectorProgram) -> Result<ProgramId> {
        program.validate().map_err(ConduitError::invalid_program)?;
        Ok(self.insert_deduped(Arc::new(program)))
    }

    /// Stores `program` unless an identical one already exists; returns the
    /// canonical id either way.
    pub(super) fn insert_deduped(&mut self, program: Arc<VectorProgram>) -> ProgramId {
        let hash = content_hash(&program.to_bytes());
        if let Some(candidates) = self.by_hash.get(&hash) {
            for &id in candidates {
                if *self.programs[id.index()] == *program {
                    return id;
                }
            }
        }
        let id = ProgramId(self.programs.len() as u32);
        self.programs.push(program);
        self.by_hash.entry(hash).or_default().push(id);
        id
    }

    /// Stores `program` unconditionally at the next id. Used when decoding
    /// a serialized registry: version-1 byte streams written before content
    /// addressing may legally contain duplicates, and callers that
    /// persisted [`ProgramId`]s alongside the bytes rely on ids staying
    /// positional — deduplication happens at the [`Session`](crate::Session)
    /// boundary ([`Session::import_registry`](crate::Session::import_registry)),
    /// which returns the id mapping.
    fn insert_positional(&mut self, program: Arc<VectorProgram>) {
        let hash = content_hash(&program.to_bytes());
        let id = ProgramId(self.programs.len() as u32);
        self.programs.push(program);
        self.by_hash.entry(hash).or_default().push(id);
    }

    /// The program behind a handle, if registered.
    pub fn get(&self, id: ProgramId) -> Option<&Arc<VectorProgram>> {
        self.programs.get(id.index())
    }

    /// Number of registered programs.
    pub fn len(&self) -> usize {
        self.programs.len()
    }

    /// Whether no programs are registered.
    pub fn is_empty(&self) -> bool {
        self.programs.is_empty()
    }

    /// Iterator over `(id, program)` pairs in registration order.
    pub fn iter(&self) -> impl Iterator<Item = (ProgramId, &VectorProgram)> {
        self.programs
            .iter()
            .enumerate()
            .map(|(i, p)| (ProgramId(i as u32), p.as_ref()))
    }

    /// Serializes every registered program into one compact byte stream
    /// (magic + version + count, then each program via
    /// [`VectorProgram::to_bytes`] behind a `u32` length).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&REGISTRY_MAGIC);
        put_u16(&mut out, REGISTRY_FORMAT_VERSION);
        put_u32(&mut out, self.programs.len() as u32);
        for program in &self.programs {
            let bytes = program.to_bytes();
            put_u32(&mut out, bytes.len() as u32);
            out.extend_from_slice(&bytes);
        }
        out
    }

    /// Decodes a registry serialized by [`ProgramRegistry::to_bytes`].
    /// Programs keep their serialized positions (ids are stable even for
    /// pre-content-addressing streams that contain duplicates); merging
    /// with deduplication is [`Session::import_registry`](crate::Session::import_registry)'s job.
    ///
    /// # Errors
    ///
    /// Returns [`ConduitError::InvalidProgram`] for a bad magic/version,
    /// truncation, trailing bytes, or any embedded program that fails to
    /// decode.
    pub fn from_bytes(bytes: &[u8]) -> Result<ProgramRegistry> {
        let corrupt =
            |reason: &str| ConduitError::invalid_program(format!("serialized registry: {reason}"));
        if bytes.len() < 4 || bytes[..4] != REGISTRY_MAGIC {
            return Err(corrupt("bad magic"));
        }
        // The shared Reader reports truncation as CorruptCheckpoint; this
        // decoder's contract is InvalidProgram for any malformed input.
        let mut r = Reader::new(&bytes[4..]);
        let mut decode = || -> Result<ProgramRegistry> {
            let version = r.u16()?;
            if version != REGISTRY_FORMAT_VERSION {
                return Err(corrupt("unsupported format version"));
            }
            let count = r.u32()? as usize;
            let mut registry = ProgramRegistry::new();
            for _ in 0..count {
                let len = r.u32()? as usize;
                let program = VectorProgram::from_bytes(r.take(len)?)?;
                registry.insert_positional(Arc::new(program));
            }
            if !r.finished() {
                return Err(corrupt("trailing bytes"));
            }
            Ok(registry)
        };
        decode().map_err(|e| match e {
            ConduitError::CorruptCheckpoint { .. } => corrupt("truncated"),
            other => other,
        })
    }
}
