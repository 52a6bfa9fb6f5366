//! Event identities.

/// Opaque handle to a scheduled event, usable to cancel it before it fires.
///
/// Identifiers are unique within one [`crate::KeyedQueue`] / [`crate::Simulator`] and are
/// never reused.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EventId(pub(crate) u64);

impl EventId {
    /// The raw sequence number backing this identifier.
    pub fn raw(self) -> u64 {
        self.0
    }
}
