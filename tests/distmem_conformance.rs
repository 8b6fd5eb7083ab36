//! Cross-backend conformance for the distributed STKDE extension.
//!
//! The same seeded problems run four ways — sequential PB-SYM, the
//! simulated in-process `World`, and the multi-process `ProcessWorld` at
//! 2 and 4 ranks — and must agree within 1e-12 (f64) across slab counts,
//! decompositions (both exchange strategies), and kernels. The
//! distributed-KDE literature's failure mode is exactly here: merge and
//! exchange steps that are *almost* right pass eyeball tests and diverge
//! silently; this suite makes the divergence structural to catch.
//!
//! Beyond density agreement the suite checks two stronger invariants:
//!
//! * **bit-identity across backends** — halo application is ordered by
//!   sender rank, so the thread-backed and process-backed runs of the
//!   same spec produce byte-identical grids;
//! * **traffic-shape identity** — per-rank (msgs, bytes) accounting is a
//!   property of the protocol, not the transport, and must match between
//!   backends exactly.

#![cfg(unix)]

use std::path::Path;
use std::time::Duration;
use stkde::core::distmem::spec::{DistSpec, KernelChoice};
use stkde::core::distmem::{self, DistStrategy};
use stkde::rank::run_distmem_process;
use stkde_kernels::{Epanechnikov, Quartic, TruncatedGaussian};

const RANK_EXE: &str = env!("CARGO_BIN_EXE_stkde-rank");
const TOLERANCE: f64 = 1e-12;

fn configs() -> Vec<DistSpec> {
    let base = DistSpec {
        gx: 20,
        gy: 18,
        gt: 24,
        hs: 3.0,
        ht: 2.0,
        n: 60,
        seed: 21,
        kernel: KernelChoice::Epanechnikov,
        strategy: DistStrategy::HaloExchange,
    };
    vec![
        base.clone(),
        // Wide temporal bandwidth: halos reach past immediate neighbors.
        DistSpec {
            gx: 16,
            gy: 16,
            gt: 20,
            hs: 2.5,
            ht: 5.0,
            n: 40,
            seed: 7,
            kernel: KernelChoice::TruncatedGaussian,
            ..base
        },
        // Point-exchange decomposition with a third kernel.
        DistSpec {
            gx: 24,
            gy: 12,
            gt: 16,
            hs: 3.5,
            ht: 1.5,
            n: 80,
            seed: 99,
            kernel: KernelChoice::Quartic,
            strategy: DistStrategy::PointExchange,
        },
    ]
}

fn run_simulated(spec: &DistSpec, ranks: usize) -> distmem::DistResult<f64> {
    let problem = spec.problem();
    let points = spec.points();
    match spec.kernel {
        KernelChoice::Epanechnikov => {
            distmem::run::<f64, _>(&problem, &Epanechnikov, &points, ranks, spec.strategy)
        }
        KernelChoice::TruncatedGaussian => distmem::run::<f64, _>(
            &problem,
            &TruncatedGaussian::default(),
            &points,
            ranks,
            spec.strategy,
        ),
        KernelChoice::Quartic => {
            distmem::run::<f64, _>(&problem, &Quartic, &points, ranks, spec.strategy)
        }
    }
    .expect("simulated run succeeds")
}

fn run_process(spec: &DistSpec, ranks: usize, chunk: usize) -> distmem::DistResult<f64> {
    run_distmem_process(Path::new(RANK_EXE), spec, ranks, |w| {
        w.timeout(Duration::from_secs(30))
            .run_timeout(Duration::from_secs(120))
            .chunk(chunk)
    })
    .expect("process run succeeds")
}

#[test]
fn all_backends_agree_on_every_config() {
    for spec in configs() {
        let reference = spec.sequential_reference();
        for ranks in [2usize, 4] {
            let sim = run_simulated(&spec, ranks);
            // A 1 KiB chunk forces every ghost-layer and gather message
            // through multi-frame reassembly.
            let proc = run_process(&spec, ranks, 1024);

            let sim_diff = reference.max_rel_diff(&sim.grid, 1e-15);
            let proc_diff = reference.max_rel_diff(&proc.grid, 1e-15);
            assert!(
                sim_diff < TOLERANCE,
                "{} ranks={ranks} kernel={:?}: simulated deviates by {sim_diff:e}",
                spec.strategy,
                spec.kernel
            );
            assert!(
                proc_diff < TOLERANCE,
                "{} ranks={ranks} kernel={:?}: process deviates by {proc_diff:e}",
                spec.strategy,
                spec.kernel
            );

            // Determinized exchange: the two backends agree bit for bit.
            assert_eq!(
                sim.grid.as_slice(),
                proc.grid.as_slice(),
                "{} ranks={ranks}: backends not bit-identical",
                spec.strategy
            );

            // The protocol fully determines the traffic shape; frames
            // are transport-specific and excluded.
            for (rank, (s, p)) in sim.stats.iter().zip(&proc.stats).enumerate() {
                assert_eq!(
                    s.traffic(),
                    p.traffic(),
                    "{} ranks={ranks} rank {rank}: traffic shapes differ",
                    spec.strategy
                );
            }
            assert_eq!(sim.processed, proc.processed, "work distribution differs");

            // The chunked transport really did chunk: big layer messages
            // occupy multiple frames, so frames must exceed messages.
            if spec.strategy == DistStrategy::HaloExchange {
                let total = proc.stats.iter().fold((0usize, 0usize), |acc, s| {
                    (acc.0 + s.msgs_sent, acc.1 + s.frames_sent)
                });
                assert!(
                    total.1 > total.0,
                    "ghost layers should span multiple 1 KiB chunks ({} msgs, {} frames)",
                    total.0,
                    total.1
                );
            }
        }
    }
}

#[test]
fn single_rank_process_world_matches_sequential() {
    let spec = DistSpec {
        strategy: DistStrategy::HaloExchange,
        ..configs().remove(0)
    };
    let reference = spec.sequential_reference();
    let proc = run_process(&spec, 1, 4096);
    let diff = reference.max_rel_diff(&proc.grid, 1e-15);
    assert!(
        diff < TOLERANCE,
        "one-rank process run deviates by {diff:e}"
    );
    // One rank exchanges nothing.
    assert_eq!(proc.stats[0].msgs_sent, 0);
    assert_eq!(proc.stats[0].bytes_sent, 0);
}
