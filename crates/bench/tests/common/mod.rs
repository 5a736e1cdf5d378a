//! Helpers shared by this crate's integration tests.

/// FNV-1a-64, as `golden_wire_bytes` hashes the wire corpus: the pins
/// on `reproduce`, `trace_doctor --json` and sampled reports use it.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}
