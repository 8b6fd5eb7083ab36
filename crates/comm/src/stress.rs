//! Randomized stress of the message-passing substrate: arbitrary traffic
//! matrices with mixed tags must deliver every payload exactly once with
//! exact byte accounting.

use crate::{RankStats, World};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every message of a random traffic plan arrives exactly once, from
    /// the advertised sender, with its payload intact.
    #[test]
    fn random_traffic_matrix_delivers_everything(
        size in 2usize..6,
        // plan[i] = list of (dest, tag, words) rank i sends.
        raw_plan in proptest::collection::vec(
            proptest::collection::vec((0usize..6, 0u32..3, 1usize..20), 0..12),
            6,
        ),
    ) {
        let plan: Vec<Vec<(usize, u32, usize)>> = raw_plan
            .into_iter()
            .take(size)
            .map(|sends| {
                sends
                    .into_iter()
                    .map(|(to, tag, words)| (to % size, tag, words))
                    .collect()
            })
            .collect();
        let plan = &plan;

        let out = World::new(size).run::<Vec<f64>, _, _>(|comm| {
            let me = comm.rank();
            // Payload: [sender, checksum_words...]; checksum is the word
            // count so the receiver can verify payloads arrived intact.
            for &(to, tag, words) in &plan[me] {
                let payload: Vec<f64> = std::iter::once(me as f64)
                    .chain((0..words).map(|_| 1.0))
                    .collect();
                comm.send(to, tag, payload);
            }
            // Receive everything the plan says is due, tag by tag.
            let mut got_words = 0.0f64;
            let mut got_msgs = 0usize;
            for tag in 0..3u32 {
                let due = plan
                    .iter()
                    .flatten()
                    .filter(|&&(to, t, _)| to == me && t == tag)
                    .count();
                for _ in 0..due {
                    let (from, payload) = comm.recv_any(tag);
                    assert_eq!(payload[0] as usize, from, "sender stamp");
                    got_words += payload[1..].iter().sum::<f64>();
                    got_msgs += 1;
                }
            }
            vec![got_words, got_msgs as f64]
        });

        // Per-receiver delivery counts and payload checksums match the plan.
        for me in 0..size {
            let due_words: usize = plan
                .iter()
                .flatten()
                .filter(|&&(to, _, _)| to == me)
                .map(|&(_, _, words)| words)
                .sum();
            let due_msgs = plan.iter().flatten().filter(|&&(to, _, _)| to == me).count();
            prop_assert_eq!(out.outputs[me][0], due_words as f64, "rank {} words", me);
            prop_assert_eq!(out.outputs[me][1], due_msgs as f64, "rank {} msgs", me);
        }

        // Global byte accounting: sent == received == planned (self-sends
        // are delivered but never billed).
        let agg: RankStats = out.total_stats();
        let planned_bytes: usize = plan
            .iter()
            .enumerate()
            .flat_map(|(from, sends)| {
                sends
                    .iter()
                    .filter(move |&&(to, _, _)| to != from)
                    .map(|&(_, _, words)| (words + 1) * 8)
            })
            .sum();
        prop_assert_eq!(agg.bytes_sent, planned_bytes);
        prop_assert_eq!(agg.bytes_sent, agg.bytes_recv);
        prop_assert_eq!(agg.msgs_sent, agg.msgs_recv);
    }
}
