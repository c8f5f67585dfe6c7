//! Messages travelling on the NoC.

/// One extrinsic-information message.
///
/// In the decoder, a message carries the payload `lambda_{i,j}` from the PE
/// that produced it to the PE that will consume it, together with the memory
/// location `t'_{i,j}` where it must be stored at the destination (paper
/// Fig. 1).  The simulator does not need the payload value itself, only its
/// source, destination, location and timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Message {
    /// Source PE / node index.
    pub src: usize,
    /// Destination PE / node index.
    pub dst: usize,
    /// Destination memory location `t'` (used for statistics and for
    /// checking delivery ordering constraints).
    pub location: usize,
    /// Sequence number within the source PE's injection list.
    pub sequence: usize,
}

impl Message {
    /// Creates a message.
    pub fn new(src: usize, dst: usize, location: usize, sequence: usize) -> Self {
        Message {
            src,
            dst,
            location,
            sequence,
        }
    }

    /// Whether the message is local (source and destination coincide).
    pub fn is_local(&self) -> bool {
        self.src == self.dst
    }
}

/// A message in flight, tracked by the test-only reference loop.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct InFlight {
    /// The message itself.
    pub message: Message,
    /// Cycle at which it was injected into the network.
    pub injected_at: u64,
    /// Number of hops traversed so far.
    pub hops: usize,
}

#[cfg(test)]
impl InFlight {
    /// Wraps a message at injection time.
    pub fn new(message: Message, injected_at: u64) -> Self {
        InFlight {
            message,
            injected_at,
            hops: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locality() {
        assert!(Message::new(3, 3, 0, 0).is_local());
        assert!(!Message::new(3, 4, 0, 0).is_local());
    }

    #[test]
    fn in_flight_starts_with_zero_hops() {
        let m = Message::new(0, 1, 5, 7);
        let f = InFlight::new(m, 42);
        assert_eq!(f.hops, 0);
        assert_eq!(f.injected_at, 42);
        assert_eq!(f.message, m);
    }
}
