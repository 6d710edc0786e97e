//! Message envelopes and MPI-style (source, tag) matching.
//!
//! Each rank has one [`Mailbox`]: the FIFO queue of [`NetMsg`] envelopes
//! that senders have posted to it and no receive has consumed yet — what
//! an MPI implementation calls its unexpected-message queue. There is one
//! communicator, the world, so the match key is `(source, tag)`: a receive
//! names a source (or any) and an exact tag and takes the *earliest*
//! queued envelope that fits, so order is FIFO per (source, tag) and an
//! any-source receive sees physical posting order. Traffic of different
//! layers stays apart by tag range alone (see `ncd_core`'s `coll_tag`).
//!
//! Nothing here blocks. The mailboxes live in the scheduler's control
//! block (see [`crate::sched`]): a sender pushes straight into the
//! destination's queue, and a receive that finds no match parks the
//! rank's task until a covering envelope is pushed.
//!
//! A queue holds memory only for what is queued, plus a floor of
//! [`RELEASE_FLOOR`] envelopes. Sends are eager, so a rank that runs late
//! can find hundreds of envelopes queued behind it; once a receive
//! drains its queue, a buffer grown past the floor goes back to the
//! allocator instead of staying with the rank for the rest of the run.

use std::collections::VecDeque;

use crate::time::SimTime;

/// An MPI-style message tag.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tag(pub u32);

/// A message in flight: payload plus the simulated arrival timestamp
/// computed by the sender (departure clock + latency + serialization).
#[derive(Clone, Debug)]
pub struct NetMsg {
    pub src: usize,
    pub tag: Tag,
    pub data: Vec<u8>,
    /// Simulated time at which the last byte is available at the receiver.
    pub arrival: SimTime,
    /// Sender-assigned correlation id (monotone per sending rank), so a
    /// traced receive can be paired with the exact send that produced it
    /// when building the happens-before graph (see [`crate::analysis`]).
    pub seq: u64,
}

impl NetMsg {
    /// Whether a receive naming `(src, tag)` — `None` being any source —
    /// takes this envelope.
    pub(crate) fn matches(&self, src: Option<usize>, tag: Tag) -> bool {
        tag == self.tag && src.is_none_or(|s| s == self.src)
    }
}

/// The most envelopes a drained [`Mailbox`] keeps room for: a receive
/// that empties a queue whose buffer holds more drops the buffer.
pub const RELEASE_FLOOR: usize = 16;

/// The envelopes posted to one rank and not yet received, in posting
/// order.
#[derive(Default)]
pub struct Mailbox {
    queue: VecDeque<NetMsg>,
}

impl Mailbox {
    /// Post an envelope (called on the sender's behalf; never blocks —
    /// sends are eager).
    pub fn push(&mut self, msg: NetMsg) {
        self.queue.push_back(msg);
    }

    /// Take the earliest queued envelope matching `(src, tag)`, or `None`
    /// when no such envelope has been posted yet. This is the matching
    /// half of a *posted* receive — the request layer holds the posted
    /// receive and asks the mailbox for its envelope when it needs to make
    /// progress.
    pub fn try_match(&mut self, src: Option<usize>, tag: Tag) -> Option<NetMsg> {
        let pos = self.queue.iter().position(|m| m.matches(src, tag))?;
        let msg = self.queue.remove(pos);
        if self.queue.is_empty() && self.queue.capacity() > RELEASE_FLOOR {
            self.queue = VecDeque::new();
        }
        msg
    }

    /// Number of envelopes currently queued.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestRunner;

    /// The mailbox before a drained queue gave its buffer back: the
    /// oracle [`Mailbox`] must match envelope for envelope.
    #[derive(Default)]
    struct Retaining(VecDeque<NetMsg>);

    impl Retaining {
        fn push(&mut self, msg: NetMsg) {
            self.0.push_back(msg);
        }

        fn try_match(&mut self, src: Option<usize>, tag: Tag) -> Option<NetMsg> {
            let pos = self.0.iter().position(|m| m.matches(src, tag))?;
            self.0.remove(pos)
        }
    }

    fn msg(src: usize, tag: u32, byte: u8) -> NetMsg {
        NetMsg {
            src,
            tag: Tag(tag),
            data: vec![byte],
            arrival: SimTime::ZERO,
            seq: 0,
        }
    }

    #[test]
    fn matches_exact_and_wildcards() {
        let m = msg(3, 9, 0);
        assert!(m.matches(Some(3), Tag(9)));
        assert!(m.matches(None, Tag(9)));
        assert!(!m.matches(Some(2), Tag(9)));
        assert!(!m.matches(Some(3), Tag(8)));
        assert!(!m.matches(None, Tag(8)));
    }

    #[test]
    fn out_of_order_arrivals_are_matched_fifo_per_source_and_tag() {
        let mut mb = Mailbox::default();
        mb.push(msg(1, 5, b'a'));
        mb.push(msg(2, 7, b'b'));
        mb.push(msg(1, 5, b'c'));

        // Ask for tag 7 first: the two tag-5 messages stay queued.
        assert_eq!(mb.try_match(Some(2), Tag(7)).unwrap().data, vec![b'b']);
        assert_eq!(mb.len(), 2);

        // Tag-5 messages from rank 1 must come back in FIFO order.
        assert_eq!(mb.try_match(Some(1), Tag(5)).unwrap().data, vec![b'a']);
        assert_eq!(mb.try_match(Some(1), Tag(5)).unwrap().data, vec![b'c']);
        assert!(mb.is_empty());
    }

    #[test]
    fn any_source_matches_earliest_queued() {
        let mut mb = Mailbox::default();
        mb.push(msg(4, 1, b'x'));
        mb.push(msg(5, 1, b'y'));
        let m = mb.try_match(None, Tag(1)).unwrap();
        assert_eq!((m.src, m.data[0]), (4, b'x'));
    }

    #[test]
    fn try_match_returns_none_without_blocking() {
        let mut mb = Mailbox::default();
        assert!(mb.try_match(Some(1), Tag(5)).is_none());
        mb.push(msg(1, 5, b'a'));
        mb.push(msg(2, 5, b'c'));
        assert_eq!(mb.try_match(Some(1), Tag(5)).unwrap().data, vec![b'a']);
        assert!(mb.try_match(Some(1), Tag(5)).is_none());
        assert_eq!(mb.len(), 1, "rank 2's message stays queued");
        assert_eq!(mb.try_match(None, Tag(5)).unwrap().data, vec![b'c']);
    }

    #[test]
    fn a_drained_mailbox_gives_its_buffer_back() {
        let mut mb = Mailbox::default();
        for i in 0..1024 {
            mb.push(msg(i % 4, 1, i as u8));
        }
        assert!(mb.queue.capacity() >= 1024);
        for i in 0..1024 {
            assert_eq!(mb.try_match(None, Tag(1)).unwrap().data, vec![i as u8]);
        }
        assert!(mb.is_empty());
        assert!(
            mb.queue.capacity() <= RELEASE_FLOOR,
            "{}",
            mb.queue.capacity()
        );
    }

    #[test]
    fn a_queue_within_the_floor_keeps_its_buffer() {
        let mut mb = Mailbox::default();
        mb.push(msg(0, 1, 0));
        let kept = mb.queue.capacity();
        assert!(mb.try_match(Some(0), Tag(1)).is_some());
        assert_eq!(mb.queue.capacity(), kept);
    }

    /// One step of a mailbox's life: a post, or a receive naming a
    /// source (or any) and a tag.
    #[derive(Clone, Debug)]
    enum Step {
        Push { src: usize, tag: u32 },
        Match { src: Option<usize>, tag: u32 },
    }

    /// Bursts of posts deep enough to pass the floor, interleaved with
    /// longer bursts of receives, half of them any-source, over few
    /// sources and tags: most receives match and queues often drain.
    fn steps() -> impl Strategy<Value = Vec<Step>> {
        let push = (0..3usize, 0..2u32, 1..64usize)
            .prop_map(|(src, tag, n)| vec![Step::Push { src, tag }; n]);
        let recv = (0..6usize, 0..2u32, 1..128usize).prop_map(|(src, tag, n)| {
            let src = (src < 3).then_some(src);
            vec![Step::Match { src, tag }; n]
        });
        proptest::collection::vec(prop_oneof![push, recv], 1..24).prop_map(|bursts| bursts.concat())
    }

    #[test]
    fn matching_is_unchanged_by_releases() {
        let mut releases = 0;
        let mut runner = TestRunner::new(ProptestConfig::with_cases(256));
        runner.run(&steps(), |steps| {
            let (mut mb, mut oracle) = (Mailbox::default(), Retaining::default());
            let last = steps.len() - 1;
            for (seq, step) in steps.into_iter().enumerate() {
                match step {
                    Step::Push { src, tag } => {
                        let m = NetMsg {
                            seq: seq as u64,
                            ..msg(src, tag, 0)
                        };
                        mb.push(m.clone());
                        oracle.push(m);
                    }
                    Step::Match { src, tag } => {
                        let deep = mb.queue.capacity() > RELEASE_FLOOR;
                        let key = |m: NetMsg| (m.src, m.tag, m.seq);
                        let got = mb.try_match(src, Tag(tag)).map(key);
                        prop_assert_eq!(got, oracle.try_match(src, Tag(tag)).map(key));
                        releases += usize::from(deep && mb.queue.capacity() == 0 && seq < last);
                    }
                }
                prop_assert_eq!(mb.len(), oracle.0.len());
            }
            Ok(())
        });
        // Queues must drain from past the floor mid-sequence, or nothing
        // above compared a release against the oracle.
        assert!(releases >= 64, "{releases} releases in 256 cases");
    }
}
