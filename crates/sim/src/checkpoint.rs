//! The versioned checkpoint container.
//!
//! A checkpoint is the deterministic byte serialization of a live
//! [`crate::Session`], wrapped in a self-validating envelope:
//!
//! ```text
//! magic "VCFRCKP1"
//! u32   format version (CHECKPOINT_VERSION)
//! u64   context fingerprint (FNV-1a 64 of the run's configuration)
//! bytes payload — the session state, itself a "VCFRSES1" wire stream
//! u64   FNV-1a 64 hash of the payload bytes
//! ```
//!
//! **Version policy:** the payload layout is frozen per version. Any
//! change to what the engine saves (a new counter, a reordered field)
//! must bump [`CHECKPOINT_VERSION`]; readers reject other versions
//! outright rather than guessing. The context fingerprint ties a
//! checkpoint to the exact configuration, workload and fault plan it was
//! taken under — resuming it against anything else is refused, because a
//! resumed run must be bit-identical to an uninterrupted one.

use std::fmt;
use vcfr_isa::wire::{Reader, WireError, Writer};

/// Current checkpoint format version.
///
/// Version 2 appended `contention_stall_cycles` to the [`crate::SimStats`]
/// wire form, extended the hierarchy stream with the shared-port state,
/// and added the engine-kind-specific session payloads (OoO, multicore).
/// Version 3 gave the OoO payload the stack-slot state (bitmap and slot
/// maps) of the mediation layer it now shares with the in-order core;
/// in-order and multicore payloads are unchanged.
pub const CHECKPOINT_VERSION: u32 = 3;

/// Magic prefix of the checkpoint envelope.
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"VCFRCKP1";

/// Magic prefix of the session payload inside the envelope.
pub(crate) const PAYLOAD_MAGIC: [u8; 8] = *b"VCFRSES1";

/// Why a checkpoint was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// The byte stream is truncated or structurally malformed.
    Wire(WireError),
    /// The checkpoint was written by a different format version.
    Version {
        /// The version found in the envelope.
        found: u32,
    },
    /// The checkpoint belongs to a different run configuration (config,
    /// workload or fault plan differ from the session resuming it).
    ContextMismatch,
    /// The payload hash does not match — the bytes were corrupted.
    Corrupt,
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Wire(e) => write!(f, "malformed checkpoint: {e}"),
            CheckpointError::Version { found } => write!(
                f,
                "unsupported checkpoint version {found} (this build reads version {CHECKPOINT_VERSION})"
            ),
            CheckpointError::ContextMismatch => {
                write!(f, "checkpoint belongs to a different run configuration")
            }
            CheckpointError::Corrupt => write!(f, "checkpoint payload hash mismatch (corrupt)"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WireError> for CheckpointError {
    fn from(e: WireError) -> CheckpointError {
        CheckpointError::Wire(e)
    }
}

/// FNV-1a 64 over `bytes` (the same function `vcfr-obs` uses for
/// manifest fingerprints, here over raw bytes).
pub(crate) fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(0x1_0000_0000_01b3);
    }
    h
}

/// FNV-1a 64 over a textual run description (config + workload + fault
/// plan), producing the context fingerprint stored in the envelope.
pub(crate) fn context_fingerprint(description: &str) -> u64 {
    fnv64(description.as_bytes())
}

/// Envelope bytes around the payload: magic, version, context, the
/// payload's length prefix, and its hash.
pub(crate) const ENVELOPE_BYTES: usize = 8 + 4 + 8 + 8 + 8;

/// Builds a sealed checkpoint in one buffer: `write_payload` writes the
/// session payload (after its magic, which this writes) straight into
/// the envelope, and the length prefix and hash are filled in after.
/// The bytes are exactly [`seal`]'s for the same payload, without a
/// separate payload buffer to copy. `payload_hint` is the payload's
/// expected length, so the buffer is allocated once; a short hint only
/// costs the buffer a regrowth.
pub(crate) fn seal_with(
    context: u64,
    payload_hint: usize,
    write_payload: impl FnOnce(&mut Writer),
) -> Vec<u8> {
    let mut w = Writer::with_magic_and_capacity(CHECKPOINT_MAGIC, ENVELOPE_BYTES + payload_hint);
    w.u32(CHECKPOINT_VERSION);
    w.u64(context);
    let mark = w.begin_bytes();
    w.raw(&PAYLOAD_MAGIC);
    write_payload(&mut w);
    let hash = fnv64(w.end_bytes(mark));
    w.u64(hash);
    w.into_bytes()
}

/// Wraps a prebuilt session payload in the versioned, hash-sealed
/// envelope: the reference [`seal_with`] is held to.
#[cfg(test)]
pub(crate) fn seal(context: u64, payload: &[u8]) -> Vec<u8> {
    let mut w = Writer::with_magic(CHECKPOINT_MAGIC);
    w.u32(CHECKPOINT_VERSION);
    w.u64(context);
    w.bytes(payload);
    w.u64(fnv64(payload));
    w.into_bytes()
}

/// Validates the envelope and returns the payload bytes.
///
/// # Errors
///
/// [`CheckpointError::Wire`] on a truncated/foreign stream,
/// [`CheckpointError::Version`] on a version mismatch,
/// [`CheckpointError::ContextMismatch`] when the fingerprint differs
/// from `context`, and [`CheckpointError::Corrupt`] when the payload
/// hash does not check out.
pub(crate) fn open(buf: &[u8], context: u64) -> Result<&[u8], CheckpointError> {
    let mut r = Reader::with_magic(buf, CHECKPOINT_MAGIC)?;
    let version = r.u32()?;
    if version != CHECKPOINT_VERSION {
        return Err(CheckpointError::Version { found: version });
    }
    let found_context = r.u64()?;
    let payload = r.bytes()?;
    let hash = r.u64()?;
    if !r.is_exhausted() {
        return Err(CheckpointError::Wire(WireError::Truncated));
    }
    if hash != fnv64(payload) {
        return Err(CheckpointError::Corrupt);
    }
    if found_context != context {
        return Err(CheckpointError::ContextMismatch);
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_open_roundtrip() {
        let payload = b"session state bytes".to_vec();
        let sealed = seal(42, &payload);
        assert_eq!(open(&sealed, 42).unwrap(), payload);
    }

    #[test]
    fn sealing_in_place_matches_sealing_a_prebuilt_payload() {
        let write = |w: &mut Writer| {
            w.u64(0x0123_4567_89ab_cdef);
            w.bytes(&[7; 300]);
        };
        let mut payload = Writer::with_magic(PAYLOAD_MAGIC);
        write(&mut payload);
        let payload = payload.into_bytes();
        // Exact, short and generous hints all give the same bytes.
        for hint in [payload.len(), 0, 4 * payload.len()] {
            let sealed = seal_with(42, hint, write);
            assert_eq!(sealed, seal(42, &payload), "hint {hint}");
        }
        assert_eq!(open(&seal_with(42, 0, write), 42).unwrap(), payload);
    }

    #[test]
    fn wrong_context_is_rejected() {
        let sealed = seal(42, b"x");
        assert_eq!(open(&sealed, 43), Err(CheckpointError::ContextMismatch));
    }

    #[test]
    fn corrupted_payload_is_rejected() {
        let mut sealed = seal(7, b"payload-bytes");
        // Flip a bit inside the payload region (past magic+version+context
        // + length prefix).
        sealed[8 + 4 + 8 + 8 + 2] ^= 0x40;
        assert_eq!(open(&sealed, 7), Err(CheckpointError::Corrupt));
    }

    #[test]
    fn future_version_is_rejected() {
        let mut w = Writer::with_magic(CHECKPOINT_MAGIC);
        w.u32(CHECKPOINT_VERSION + 1);
        w.u64(0);
        w.bytes(b"");
        w.u64(fnv64(b""));
        let buf = w.into_bytes();
        assert_eq!(
            open(&buf, 0),
            Err(CheckpointError::Version { found: CHECKPOINT_VERSION + 1 })
        );
    }

    #[test]
    fn truncation_and_foreign_magic_are_wire_errors() {
        let sealed = seal(1, b"abc");
        assert!(matches!(open(&sealed[..10], 1), Err(CheckpointError::Wire(_))));
        assert!(matches!(open(b"NOTMAGIC", 1), Err(CheckpointError::Wire(_))));
    }

    #[test]
    fn fingerprint_is_stable() {
        assert_eq!(context_fingerprint("abc"), context_fingerprint("abc"));
        assert_ne!(context_fingerprint("abc"), context_fingerprint("abd"));
    }
}
