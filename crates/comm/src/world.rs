//! SPMD world: ranks, point-to-point messaging, traffic stats.
//!
//! A [`World`] runs one thread per rank and uses channels for wires;
//! each rank talks to its peers through its [`Comm`] endpoint.

use crate::payload::Payload;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use std::time::Duration;

/// Deadline on a single blocking receive. Honest protocol traffic between
/// in-process ranks arrives in microseconds; waiting this long means a
/// peer died or the protocol deadlocked, and crashing with context beats
/// hanging the whole world (see the STK005 lint rule).
const RECV_DEADLINE: Duration = Duration::from_secs(30);

/// An addressed message in flight.
struct Envelope<P> {
    from: usize,
    tag: u32,
    payload: P,
}

/// Per-rank traffic accounting, filled in as the rank communicates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RankStats {
    /// Messages sent by this rank (excluding self-sends).
    pub msgs_sent: usize,
    /// Payload bytes sent by this rank (excluding self-sends).
    pub bytes_sent: usize,
    /// Messages received from other ranks.
    pub msgs_recv: usize,
    /// Payload bytes received from other ranks.
    pub bytes_recv: usize,
}

impl RankStats {
    /// Fold another rank's stats into a world-level aggregate.
    #[cfg(test)]
    pub(crate) fn merge(&mut self, other: &RankStats) {
        self.msgs_sent += other.msgs_sent;
        self.bytes_sent += other.bytes_sent;
        self.msgs_recv += other.msgs_recv;
        self.bytes_recv += other.bytes_recv;
    }
}

/// One rank's endpoint: its identity plus the channels to every peer.
///
/// A `Comm` is owned by exactly one thread. Sends never block (channels
/// are unbounded); receives block until a matching message arrives, with
/// out-of-order arrivals parked in a local buffer. Messages between a
/// fixed (sender, receiver) pair are delivered in send order; there is no
/// global order across senders, which is why receives select on
/// `(from, tag)`.
pub struct Comm<P: Payload> {
    rank: usize,
    size: usize,
    /// Senders to every peer; `None` at this rank's own slot (self-sends
    /// bypass the channel so that a rank never keeps its *own* inbox open,
    /// which would turn protocol deadlocks into silent hangs).
    peers: Vec<Option<Sender<Envelope<P>>>>,
    inbox: Receiver<Envelope<P>>,
    pending: Vec<Envelope<P>>,
    stats: RankStats,
}

impl<P: Payload> Comm<P> {
    /// This rank's id, in `0..size`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the world.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Traffic accounted so far on this rank.
    pub fn stats(&self) -> RankStats {
        self.stats
    }

    /// Send `payload` to rank `to` under `tag`. Never blocks.
    ///
    /// Self-sends are delivered (a rank may uniformly "send" to everyone,
    /// itself included) but are not counted as network traffic.
    ///
    /// # Panics
    /// Panics if `to` is out of range or the destination rank has already
    /// finished (its inbox is closed) — both are protocol bugs.
    pub fn send(&mut self, to: usize, tag: u32, payload: P) {
        assert!(
            to < self.size,
            "rank {to} out of range (size {})",
            self.size
        );
        let env = Envelope {
            from: self.rank,
            tag,
            payload,
        };
        if to == self.rank {
            // Instant local delivery, not network traffic.
            self.pending.push(env);
            return;
        }
        self.stats.msgs_sent += 1;
        self.stats.bytes_sent += env.payload.byte_len();
        self.peers[to]
            .as_ref()
            .expect("non-self slot always has a sender")
            .send(env)
            .expect("destination rank finished before receiving");
    }

    /// Blocking selective receive: the next message from `from` with `tag`.
    ///
    /// Non-matching arrivals are buffered and stay available to later
    /// receives (in arrival order per sender).
    ///
    /// # Panics
    /// Panics if every sender has finished and no matching message can
    /// ever arrive — a deadlocked protocol is a bug worth crashing on.
    pub fn recv(&mut self, from: usize, tag: u32) -> P {
        if let Some(i) = self
            .pending
            .iter()
            .position(|e| e.from == from && e.tag == tag)
        {
            return self.take_pending(i);
        }
        loop {
            let env = self.recv_inbox(&format!("tag {tag} from rank {from}"));
            if env.from == from && env.tag == tag {
                return self.account_recv(env);
            }
            self.pending.push(env);
        }
    }

    /// Receive one message with `tag` from *any* rank; returns
    /// `(from, payload)`.
    pub fn recv_any(&mut self, tag: u32) -> (usize, P) {
        if let Some(i) = self.pending.iter().position(|e| e.tag == tag) {
            let from = self.pending[i].from;
            return (from, self.take_pending(i));
        }
        loop {
            let env = self.recv_inbox(&format!("tag {tag} from any rank"));
            if env.tag == tag {
                let from = env.from;
                return (from, self.account_recv(env));
            }
            self.pending.push(env);
        }
    }

    /// One inbox receive with the [`RECV_DEADLINE`] applied.
    ///
    /// # Panics
    /// Panics — with the rank, what it was waiting for, and how many
    /// non-matching messages are buffered — when the deadline expires or
    /// every sender is gone. Both mean the protocol can never make
    /// progress, and a diagnosed crash is the designed response.
    fn recv_inbox(&mut self, wanted: &str) -> Envelope<P> {
        match self.inbox.recv_timeout(RECV_DEADLINE) {
            Ok(env) => env,
            Err(e) => {
                let why = match e {
                    RecvTimeoutError::Timeout => "deadline expired (dead peer or deadlock)",
                    RecvTimeoutError::Disconnected => "every sending rank already finished",
                };
                panic!(
                    "rank {}: receive of {wanted} cannot complete: {why} \
                     ({} buffered non-matching message(s), {:?} deadline)",
                    self.rank,
                    self.pending.len(),
                    RECV_DEADLINE,
                )
            }
        }
    }

    fn take_pending(&mut self, i: usize) -> P {
        let env = self.pending.remove(i);
        self.account_recv(env)
    }

    fn account_recv(&mut self, env: Envelope<P>) -> P {
        if env.from != self.rank {
            self.stats.msgs_recv += 1;
            self.stats.bytes_recv += env.payload.byte_len();
        }
        env.payload
    }
}

/// Everything a finished world returns: per-rank closure outputs and
/// traffic stats, indexed by rank.
#[derive(Debug)]
pub struct WorldOutput<T> {
    /// The value returned by each rank's closure.
    pub outputs: Vec<T>,
    /// Traffic accounted on each rank.
    pub stats: Vec<RankStats>,
}

#[cfg(test)]
impl<T> WorldOutput<T> {
    /// World-aggregate traffic.
    pub(crate) fn total_stats(&self) -> RankStats {
        let mut agg = RankStats::default();
        for s in &self.stats {
            agg.merge(s);
        }
        agg
    }
}

/// Mirror per-rank traffic stats into the global metrics registry as
/// `stkde_comm_*_total{rank="<i>"}` counters.
///
/// Counters stay monotone because successive runs *add*, which is what a
/// scraping monitor expects.
fn record_rank_stats(stats: &[RankStats]) {
    use stkde_obs::names;
    let registry = stkde_obs::global();
    for (rank, s) in stats.iter().enumerate() {
        let r = rank.to_string();
        let labels: &[(&str, &str)] = &[("rank", r.as_str())];
        registry
            .counter(names::COMM_MSGS_SENT, labels)
            .add(s.msgs_sent as u64);
        registry
            .counter(names::COMM_BYTES_SENT, labels)
            .add(s.bytes_sent as u64);
        registry
            .counter(names::COMM_MSGS_RECV, labels)
            .add(s.msgs_recv as u64);
        registry
            .counter(names::COMM_BYTES_RECV, labels)
            .add(s.bytes_recv as u64);
    }
}

/// A fixed-size SPMD world.
///
/// ```
/// use stkde_comm::World;
///
/// // Ring shift: every rank passes its id to the right and sums what it got.
/// let out = World::new(4).run::<u64, _, _>(|comm| {
///     let right = (comm.rank() + 1) % comm.size();
///     comm.send(right, 0, comm.rank() as u64);
///     let left = (comm.rank() + comm.size() - 1) % comm.size();
///     comm.recv(left, 0)
/// });
/// assert_eq!(out.outputs, vec![3, 0, 1, 2]);
/// assert_eq!(out.stats.iter().map(|s| s.msgs_sent).sum::<usize>(), 4);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct World {
    size: usize,
}

impl World {
    /// A world of `size` ranks.
    ///
    /// # Panics
    /// Panics if `size` is zero.
    pub fn new(size: usize) -> Self {
        assert!(size > 0, "world size must be > 0");
        Self { size }
    }

    /// Run `f` on every rank (one OS thread each) and collect outputs.
    ///
    /// A panic on any rank propagates to the caller after the remaining
    /// ranks have been joined or have panicked themselves — no output is
    /// silently dropped.
    pub fn run<P, T, F>(&self, f: F) -> WorldOutput<T>
    where
        P: Payload,
        T: Send,
        F: Fn(&mut Comm<P>) -> T + Sync,
    {
        let (senders, receivers): (Vec<_>, Vec<_>) =
            (0..self.size).map(|_| unbounded::<Envelope<P>>()).unzip();
        let f = &f;

        let mut comms: Vec<Comm<P>> = receivers
            .into_iter()
            .enumerate()
            .map(|(rank, inbox)| Comm {
                rank,
                size: self.size,
                peers: senders
                    .iter()
                    .enumerate()
                    .map(|(to, s)| (to != rank).then(|| s.clone()))
                    .collect(),
                inbox,
                pending: Vec::new(),
                stats: RankStats::default(),
            })
            .collect();
        // Drop the original sender handles so inboxes close when every
        // peer Comm is gone — that is what turns a protocol deadlock into
        // a crash instead of a hang.
        drop(senders);

        let results: Vec<(T, RankStats)> = std::thread::scope(|scope| {
            let handles: Vec<_> = comms
                .drain(..)
                .map(|mut comm| {
                    scope.spawn(move || {
                        let out = f(&mut comm);
                        (out, comm.stats())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(v) => v,
                    // Re-raise with the rank's original payload so the
                    // caller sees the real failure, not "a rank died".
                    Err(e) => std::panic::resume_unwind(e),
                })
                .collect()
        });

        let (outputs, stats) = results.into_iter().unzip();
        let out = WorldOutput { outputs, stats };
        record_rank_stats(&out.stats);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rank_world_runs() {
        let out = World::new(1).run::<(), _, _>(|c| {
            assert_eq!(c.rank(), 0);
            assert_eq!(c.size(), 1);
            7
        });
        assert_eq!(out.outputs, vec![7]);
        assert_eq!(out.total_stats(), RankStats::default());
    }

    #[test]
    fn ring_pass_delivers_in_order() {
        // Each rank sends two numbered messages to its right neighbor.
        let out = World::new(4).run::<u64, _, _>(|c| {
            let right = (c.rank() + 1) % c.size();
            let left = (c.rank() + c.size() - 1) % c.size();
            c.send(right, 0, (c.rank() * 10) as u64);
            c.send(right, 0, (c.rank() * 10 + 1) as u64);
            let a = c.recv(left, 0);
            let b = c.recv(left, 0);
            (a, b)
        });
        for (rank, &(a, b)) in out.outputs.iter().enumerate() {
            let left = (rank + 3) % 4;
            assert_eq!(a, (left * 10) as u64, "first message from {left}");
            assert_eq!(b, (left * 10 + 1) as u64, "per-pair order preserved");
        }
        let agg = out.total_stats();
        assert_eq!(agg.msgs_sent, 8);
        assert_eq!(agg.msgs_recv, 8);
        assert_eq!(agg.bytes_sent, 64);
    }

    #[test]
    fn selective_recv_buffers_out_of_order_tags() {
        let out = World::new(2).run::<u64, _, _>(|c| {
            if c.rank() == 0 {
                // Send tag 2 first; receiver asks for tag 1 first.
                c.send(1, 2, 222);
                c.send(1, 1, 111);
                0
            } else {
                let first = c.recv(0, 1);
                let second = c.recv(0, 2);
                first * 1000 + second
            }
        });
        assert_eq!(out.outputs[1], 111_222);
    }

    #[test]
    fn recv_any_takes_from_all_senders() {
        let out = World::new(4).run::<u64, _, _>(|c| {
            if c.rank() == 0 {
                let mut sum = 0;
                let mut froms = Vec::new();
                for _ in 0..3 {
                    let (from, v) = c.recv_any(9);
                    froms.push(from);
                    sum += v;
                }
                froms.sort_unstable();
                assert_eq!(froms, vec![1, 2, 3]);
                sum
            } else {
                c.send(0, 9, c.rank() as u64);
                0
            }
        });
        assert_eq!(out.outputs[0], 6);
    }

    #[test]
    fn self_send_is_free() {
        let out = World::new(2).run::<u64, _, _>(|c| {
            c.send(c.rank(), 0, 42);
            c.recv(c.rank(), 0)
        });
        assert_eq!(out.outputs, vec![42, 42]);
        assert_eq!(out.total_stats().msgs_sent, 0);
        assert_eq!(out.total_stats().bytes_sent, 0);
    }

    #[test]
    fn pairwise_exchange_cannot_deadlock() {
        // Everyone sends to everyone, then receives from everyone —
        // the classic deadlock with blocking sends; fine here.
        let n = 6;
        let out = World::new(n).run::<u64, _, _>(|c| {
            for to in 0..c.size() {
                c.send(to, 0, c.rank() as u64);
            }
            let mut sum = 0;
            for from in 0..c.size() {
                sum += c.recv(from, 0);
            }
            sum
        });
        let expect = (0..n as u64).sum::<u64>();
        assert!(out.outputs.iter().all(|&v| v == expect));
    }

    #[test]
    fn byte_accounting_matches_payload_len() {
        let out = World::new(2).run::<Vec<f32>, _, _>(|c| {
            if c.rank() == 0 {
                c.send(1, 0, vec![0.0f32; 100]);
            } else {
                let v = c.recv(0, 0);
                assert_eq!(v.len(), 100);
            }
        });
        assert_eq!(out.stats[0].bytes_sent, 400);
        assert_eq!(out.stats[1].bytes_recv, 400);
        assert_eq!(out.stats[1].bytes_sent, 0);
    }

    #[test]
    fn merge_sums_traffic() {
        let s = RankStats {
            msgs_sent: 1,
            bytes_sent: 2,
            msgs_recv: 3,
            bytes_recv: 4,
        };
        let mut agg = RankStats::default();
        agg.merge(&s);
        agg.merge(&s);
        assert_eq!((agg.msgs_sent, agg.bytes_recv), (2, 8));
    }

    #[test]
    #[should_panic(expected = "world size")]
    fn zero_size_world_panics() {
        let _ = World::new(0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn send_to_invalid_rank_panics() {
        World::new(1).run::<(), _, _>(|c| c.send(5, 0, ()));
    }
}
