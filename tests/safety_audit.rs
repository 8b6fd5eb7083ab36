//! Runtime validation of the disjoint-write safety arguments behind the
//! workspace's `unsafe` shared-grid writes.
//!
//! The parallel algorithms write a shared grid without synchronization,
//! justified by three claims (see `stkde_grid::shared`):
//!
//! 1. **DD**: clipped writes of distinct subdomains are disjoint;
//! 2. **PD (phased)**: same-parity subdomains have disjoint halos;
//! 3. **PD-SCHED/REP**: the coloring-oriented DAG never runs adjacent
//!    subdomains concurrently, and non-adjacent subdomains have disjoint
//!    halos under the ≥2·bandwidth adjustment.
//!
//! These tests *execute* the same concurrency structure with a
//! [`WriteAudit`] recording claimed regions, and fail on any overlap.

use stkde::prelude::*;
use stkde_data::{binning, synth};
use stkde_grid::{Decomposition, SubdomainId, WriteAudit};
use stkde_sched::{run_dag, StencilGraph, TaskDag};

use rayon::prelude::*;

/// A pool of exactly `threads` workers for the DAG executions.
fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap()
}

fn setup(
    k: usize,
    n: usize,
) -> (
    Domain,
    Bandwidth,
    stkde_grid::VoxelBandwidth,
    Decomposition,
    PointSet,
) {
    let domain = Domain::from_dims(GridDims::new(48, 40, 24));
    let bw = Bandwidth::new(2.0, 2.0);
    let vbw = domain.voxel_bandwidth(bw);
    let decomp = Decomposition::adjusted(domain.dims(), Decomp::cubic(k), vbw);
    let points = synth::uniform(n, domain.extent(), 7);
    (domain, bw, vbw, decomp, points)
}

#[test]
fn dd_clipped_writes_never_overlap() {
    let (domain, _bw, vbw, _, points) = setup(6, 300);
    // DD uses an *unadjusted* decomposition; build one directly.
    let decomp = Decomposition::new(domain.dims(), Decomp::cubic(6));
    let bins = binning::bin_points_replicated(&domain, &decomp, points.as_slice(), vbw);
    let audit = WriteAudit::new();
    (0..decomp.count()).into_par_iter().for_each(|sd| {
        let id = SubdomainId(sd);
        let clip = decomp.voxel_range(id);
        if !bins.points_of(id).is_empty() {
            assert!(
                audit.claim(sd, clip),
                "DD subdomain {sd} overlapped a concurrent region"
            );
            // Simulate some work so overlaps would actually interleave.
            std::thread::yield_now();
            audit.release(sd);
        }
    });
    assert_eq!(audit.violations(), 0);
    assert!(audit.claims() > 0);
}

#[test]
fn pd_phased_same_class_halos_never_overlap() {
    let (domain, _bw, vbw, decomp, points) = setup(8, 400);
    let bins = binning::bin_points(&domain, &decomp, points.as_slice());
    let audit = WriteAudit::new();
    let mut classes: Vec<Vec<usize>> = vec![Vec::new(); 8];
    for id in decomp.ids() {
        classes[decomp.parity_class(id)].push(id.0);
    }
    for class in &classes {
        class.par_iter().for_each(|&sd| {
            let id = SubdomainId(sd);
            if !bins.points_of(id).is_empty() {
                let halo = decomp.halo(id, vbw);
                assert!(
                    audit.claim(sd, halo),
                    "PD phase: subdomain {sd} halo overlapped concurrently"
                );
                std::thread::yield_now();
                audit.release(sd);
            }
        });
    }
    assert_eq!(audit.violations(), 0);
}

#[test]
fn pd_sched_dag_execution_never_overlaps_halos() {
    let (domain, _bw, vbw, decomp, points) = setup(8, 500);
    let bins = binning::bin_points(&domain, &decomp, points.as_slice());
    let graph = StencilGraph::from_decomposition(&decomp);
    let weights: Vec<f64> = bins.counts().iter().map(|&c| c as f64 + 1.0).collect();
    let order = stkde_sched::order_by_weight_desc(&weights);
    let coloring = stkde_sched::greedy_coloring(&graph, &order);
    let dag = TaskDag::from_coloring(&graph, &coloring, weights.clone());
    // Repeat to shake out racy interleavings.
    for _ in 0..5 {
        let audit = WriteAudit::new();
        pool(4).install(|| {
            run_dag(&dag, &weights, |task| {
                let id = SubdomainId(task);
                let halo = decomp.halo(id, vbw);
                assert!(
                    audit.claim(task, halo),
                    "PD-SCHED: task {task} halo overlapped a concurrent task"
                );
                std::thread::yield_now();
                audit.release(task);
            })
        });
        assert_eq!(audit.violations(), 0);
    }
}

#[test]
fn pd_rep_expanded_dag_anchors_never_overlap() {
    use stkde_sched::replication::{expand_dag, RepNode, RepPlan};
    let (domain, _bw, vbw, decomp, points) = setup(6, 600);
    let bins = binning::bin_points(&domain, &decomp, points.as_slice());
    let graph = StencilGraph::from_decomposition(&decomp);
    let weights: Vec<f64> = bins.counts().iter().map(|&c| c as f64 + 1.0).collect();
    let coloring =
        stkde_sched::greedy_coloring(&graph, &stkde_sched::order_by_weight_desc(&weights));
    let dag = TaskDag::from_coloring(&graph, &coloring, weights);
    // Force replication of the three heaviest subdomains.
    let mut replicas = vec![1usize; dag.n()];
    let mut heavy: Vec<usize> = (0..dag.n()).collect();
    heavy.sort_by(|&a, &b| dag.weights()[b].partial_cmp(&dag.weights()[a]).unwrap());
    for &h in heavy.iter().take(3) {
        replicas[h] = 3;
    }
    let plan = RepPlan { replicas };
    let merge: Vec<f64> = (0..dag.n()).map(|_| 0.5).collect();
    let ex = expand_dag(&dag, &plan, &merge);
    for _ in 0..5 {
        let audit = WriteAudit::new();
        pool(4).install(|| {
            run_dag(&ex.dag, ex.dag.weights(), |node| match ex.nodes[node] {
                // Anchor nodes (process + merge) write the shared grid halo;
                // replicas write private buffers and claim nothing.
                RepNode::Process(v) | RepNode::Merge(v) => {
                    let halo = decomp.halo(SubdomainId(v), vbw);
                    assert!(
                        audit.claim(node, halo),
                        "PD-REP: anchor of subdomain {v} overlapped concurrently"
                    );
                    std::thread::yield_now();
                    audit.release(node);
                }
                RepNode::Replica { .. } => {
                    std::thread::yield_now();
                }
            })
        });
        assert_eq!(audit.violations(), 0);
    }
}
