//! Disjoint key namespaces pass the const assertion.
pub const TAKEOVER_KEY_BASE: u64 = 1 << 40;
pub const BATCH_KEY_BASE: u64 = 1 << 32;

const _: () = assert!(
    BATCH_KEY_BASE > u32::MAX as u64 && BATCH_KEY_BASE < TAKEOVER_KEY_BASE,
    "batch keys must sit above the u32 read ids and below the takeover keys"
);
