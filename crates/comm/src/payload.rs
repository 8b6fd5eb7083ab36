//! Message payloads with wire-size accounting.

/// A value that can travel between ranks.
///
/// Payloads are moved through channels rather than serialized;
/// [`Payload::byte_len`] reports the size the message would occupy on a
/// real wire so the cost model ([`CommCost`](crate::CommCost)) sees realistic traffic.
/// Implementations should count payload data only (frame headers are
/// priced by the cost model's per-message latency term, not accounted as
/// bytes).
pub trait Payload: Send + 'static {
    /// Bytes this payload would occupy serialized on a wire.
    fn byte_len(&self) -> usize;
}

impl Payload for () {
    fn byte_len(&self) -> usize {
        0
    }
}

impl Payload for u64 {
    fn byte_len(&self) -> usize {
        8
    }
}

impl Payload for f64 {
    fn byte_len(&self) -> usize {
        8
    }
}

impl Payload for Vec<u8> {
    fn byte_len(&self) -> usize {
        self.len()
    }
}

impl Payload for Vec<f32> {
    fn byte_len(&self) -> usize {
        self.len() * 4
    }
}

impl Payload for Vec<f64> {
    fn byte_len(&self) -> usize {
        self.len() * 8
    }
}

impl<A: Payload, B: Payload> Payload for (A, B) {
    fn byte_len(&self) -> usize {
        self.0.byte_len() + self.1.byte_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_sizes() {
        assert_eq!(().byte_len(), 0);
        assert_eq!(7u64.byte_len(), 8);
        assert_eq!(1.5f64.byte_len(), 8);
    }

    #[test]
    fn vector_sizes() {
        assert_eq!(vec![0u8; 10].byte_len(), 10);
        assert_eq!(vec![0f32; 10].byte_len(), 40);
        assert_eq!(vec![0f64; 10].byte_len(), 80);
    }

    #[test]
    fn tuple_sums_parts() {
        assert_eq!((3u64, vec![0f32; 2]).byte_len(), 16);
    }
}
