//! protocol-contract: key namespaces must be disjoint. Plain tracked keys
//! are u32 read ids, batch keys sit in [2^32, 2^40), takeover keys at
//! 2^40. The const assertion (as beside the real constants) fails to
//! compile (E0080) when they overlap.
pub const TAKEOVER_KEY_BASE: u64 = 1 << 40;
pub const BATCH_KEY_BASE: u64 = 1 << 40;

const _: () = assert!(
    BATCH_KEY_BASE > u32::MAX as u64 && BATCH_KEY_BASE < TAKEOVER_KEY_BASE,
    "batch keys must sit above the u32 read ids and below the takeover keys"
);
