//! Moldable-task replication for `PB-SYM-PD-REP` (paper §5.2).
//!
//! When the critical path of the subdomain DAG is long — typically because
//! one heavily clustered subdomain dominates — the paper replicates the
//! offending tasks: the points of a replicated subdomain are split into `r`
//! parts that accumulate into *private* buffers (and therefore run free of
//! all stencil constraints), followed by a cheap merge task that adds the
//! buffers into the shared grid under the original stencil constraints.
//! This trades extra work (buffer init + merge, like a localized
//! `PB-SYM-DR`) for a shorter critical path:
//!
//! > “As long as the critical path is longer than n/(2P), the tasks on the
//! > path are replicated an additional time and the critical path is
//! > recomputed.”
//!
//! [`plan_replication`] implements that fixed-point loop on weight
//! estimates; [`expand_dag`] materializes the transformed DAG
//! (replicas + merge nodes) for execution or simulation.

use crate::critical_path::critical_path;
use crate::dag::TaskDag;

/// Parameters of the replication planner.
#[derive(Debug, Clone, PartialEq)]
pub struct RepParams {
    /// Number of processors `P` the schedule targets.
    pub processors: usize,
    /// Estimated merge cost per task if it gets replicated (typically
    /// proportional to the subdomain halo volume).
    pub merge_weights: Vec<f64>,
    /// Upper bound on replicas per task (defaults to `processors` via
    /// [`RepParams::new`]).
    pub max_replicas: usize,
    /// Safety cap on planner iterations.
    pub max_rounds: usize,
}

impl RepParams {
    /// Standard parameters: replicas capped at `P`, 64 planner rounds.
    pub fn new(processors: usize, merge_weights: Vec<f64>) -> Self {
        Self {
            processors: processors.max(1),
            max_replicas: processors.max(1),
            merge_weights,
            max_rounds: 64,
        }
    }
}

/// The outcome of replication planning: a replica count per original task
/// (`1` = unreplicated).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepPlan {
    /// Replica count per task.
    pub replicas: Vec<usize>,
}

impl RepPlan {
    /// `true` if no task is replicated.
    #[cfg(test)]
    pub(crate) fn is_trivial(&self) -> bool {
        self.replicas.iter().all(|&r| r == 1)
    }

    /// Number of replicated tasks.
    #[cfg(test)]
    pub(crate) fn replicated_count(&self) -> usize {
        self.replicas.iter().filter(|&&r| r > 1).count()
    }

    /// Total extra tasks introduced (replicas beyond the first, plus one
    /// merge node per replicated task).
    #[cfg(test)]
    pub(crate) fn extra_tasks(&self) -> usize {
        self.replicas
            .iter()
            .filter(|&&r| r > 1)
            .copied() // (r replicas - 1 original) + 1 merge
            .sum()
    }

    /// Effective path-weight of each task under the plan:
    /// `w/r` for the longest replica plus the merge cost when replicated.
    pub(crate) fn effective_weights(&self, base: &[f64], merge: &[f64]) -> Vec<f64> {
        self.replicas
            .iter()
            .zip(base.iter().zip(merge))
            .map(|(&r, (&w, &m))| if r > 1 { w / r as f64 + m } else { w })
            .collect()
    }
}

/// Iteratively replicate critical-path tasks until the (estimated) critical
/// path drops below `T₁ / (2P)` or no further replication helps.
pub fn plan_replication(dag: &TaskDag, params: &RepParams) -> RepPlan {
    let n = dag.n();
    assert_eq!(
        params.merge_weights.len(),
        n,
        "merge weights length mismatch"
    );
    let base = dag.weights().to_vec();
    let mut plan = RepPlan {
        replicas: vec![1; n],
    };
    if n == 0 {
        return plan;
    }
    let p = params.processors;
    let mut scratch = dag.clone();
    for _ in 0..params.max_rounds {
        let eff = plan.effective_weights(&base, &params.merge_weights);
        scratch.set_weights(eff);
        let cp = critical_path(&scratch);
        // T1 under the plan: all replica work plus merge overhead.
        let t1: f64 = base
            .iter()
            .zip(&plan.replicas)
            .zip(&params.merge_weights)
            .map(|((&w, &r), &m)| if r > 1 { w + m } else { w })
            .sum();
        if cp.length <= t1 / (2.0 * p as f64) {
            break;
        }
        let mut progressed = false;
        for &v in &cp.tasks {
            // Only replicate tasks whose split would actually shorten the
            // path: real work remaining and below the replica cap.
            if plan.replicas[v] < params.max_replicas
                && base[v] / plan.replicas[v] as f64 > params.merge_weights[v]
            {
                plan.replicas[v] += 1;
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }
    plan
}

/// A node of an [`expand_dag`]-transformed DAG.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepNode {
    /// The original, unreplicated task.
    Process(usize),
    /// Part `part` of `parts` of a replicated task: accumulates into a
    /// private buffer, free of stencil constraints.
    Replica {
        /// Original task index.
        task: usize,
        /// Which replica (0-based).
        part: usize,
        /// Total replicas of this task.
        parts: usize,
    },
    /// The merge of a replicated task's buffers into the shared grid;
    /// inherits the original task's stencil constraints.
    Merge(usize),
}

#[cfg(test)]
impl RepNode {
    /// The original task this node derives from.
    fn task(&self) -> usize {
        match *self {
            RepNode::Process(t) | RepNode::Merge(t) => t,
            RepNode::Replica { task, .. } => task,
        }
    }
}

/// The materialized replication transformation of a task DAG.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpandedDag {
    /// The transformed DAG.
    pub dag: TaskDag,
    /// What each node of [`ExpandedDag::dag`] represents.
    pub nodes: Vec<RepNode>,
}

/// Materialize `plan` over `dag`: each replicated task `v` becomes `r`
/// unconstrained replica nodes of weight `w(v)/r` plus one merge node of
/// weight `merge_weights[v]` that carries `v`'s original dependencies;
/// unreplicated tasks keep their edges (re-targeted at merge nodes where a
/// neighbor was replicated).
pub fn expand_dag(dag: &TaskDag, plan: &RepPlan, merge_weights: &[f64]) -> ExpandedDag {
    let n = dag.n();
    assert_eq!(plan.replicas.len(), n, "plan length mismatch");
    assert_eq!(merge_weights.len(), n, "merge weights length mismatch");

    let mut nodes = Vec::new();
    let mut weights = Vec::new();
    // anchor[v] = node index carrying v's stencil dependencies
    // (Process node, or Merge node when replicated).
    let mut anchor = vec![0usize; n];
    let mut replica_ids: Vec<Vec<usize>> = vec![Vec::new(); n];

    for v in 0..n {
        let r = plan.replicas[v];
        if r <= 1 {
            anchor[v] = nodes.len();
            nodes.push(RepNode::Process(v));
            weights.push(dag.weights()[v]);
        } else {
            for part in 0..r {
                replica_ids[v].push(nodes.len());
                nodes.push(RepNode::Replica {
                    task: v,
                    part,
                    parts: r,
                });
                weights.push(dag.weights()[v] / r as f64);
            }
            anchor[v] = nodes.len();
            nodes.push(RepNode::Merge(v));
            weights.push(merge_weights[v]);
        }
    }

    let mut edges = Vec::new();
    for v in 0..n {
        // Stencil edges, re-anchored.
        for &s in dag.succs(v) {
            edges.push((anchor[v], anchor[s as usize]));
        }
        // Replica → merge edges.
        for &rid in &replica_ids[v] {
            edges.push((rid, anchor[v]));
        }
    }

    ExpandedDag {
        dag: TaskDag::from_edges(nodes.len(), weights, &edges),
        nodes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::critical_path::critical_path;
    use crate::list_schedule::list_schedule;

    /// A hub-dominated DAG: one huge task in a chain of light ones.
    fn skewed_chain() -> TaskDag {
        TaskDag::from_edges(4, vec![1.0, 100.0, 1.0, 1.0], &[(0, 1), (1, 2), (2, 3)])
    }

    #[test]
    fn trivial_when_already_balanced() {
        let dag = TaskDag::from_edges(8, vec![1.0; 8], &[]);
        let plan = plan_replication(&dag, &RepParams::new(4, vec![0.1; 8]));
        assert!(plan.is_trivial());
        assert_eq!(plan.extra_tasks(), 0);
    }

    #[test]
    fn replicates_dominant_task() {
        let dag = skewed_chain();
        let plan = plan_replication(&dag, &RepParams::new(4, vec![0.5; 4]));
        assert!(
            plan.replicas[1] > 1,
            "heavy task should replicate: {plan:?}"
        );
        assert!(plan.replicated_count() >= 1);
    }

    #[test]
    fn effective_weights_account_for_merge() {
        let plan = RepPlan {
            replicas: vec![1, 4],
        };
        let eff = plan.effective_weights(&[10.0, 100.0], &[0.0, 2.0]);
        assert_eq!(eff[0], 10.0);
        assert_eq!(eff[1], 100.0 / 4.0 + 2.0);
    }

    #[test]
    fn planner_respects_replica_cap() {
        let dag = skewed_chain();
        let mut params = RepParams::new(16, vec![0.01; 4]);
        params.max_replicas = 3;
        let plan = plan_replication(&dag, &params);
        assert!(plan.replicas.iter().all(|&r| r <= 3));
    }

    #[test]
    fn planner_skips_tasks_where_merge_dominates() {
        // Splitting a task whose merge cost exceeds its share is useless.
        let dag = TaskDag::from_edges(1, vec![4.0], &[]);
        let plan = plan_replication(&dag, &RepParams::new(8, vec![10.0]));
        assert!(plan.is_trivial());
    }

    #[test]
    fn expansion_preserves_task_coverage() {
        let dag = skewed_chain();
        let plan = RepPlan {
            replicas: vec![1, 3, 1, 1],
        };
        let ex = expand_dag(&dag, &plan, &[0.5; 4]);
        // 3 process + 3 replicas + 1 merge = 7 nodes.
        assert_eq!(ex.dag.n(), 7);
        let mut coverage = [0.0f64; 4];
        for (i, node) in ex.nodes.iter().enumerate() {
            if !matches!(node, RepNode::Merge(_)) {
                coverage[node.task()] += ex.dag.weights()[i];
            }
        }
        for (v, &w) in dag.weights().iter().enumerate() {
            assert!((coverage[v] - w).abs() < 1e-9, "task {v} work lost");
        }
    }

    #[test]
    fn expansion_shortens_critical_path() {
        let dag = skewed_chain();
        let params = RepParams::new(4, vec![0.5; 4]);
        let plan = plan_replication(&dag, &params);
        let ex = expand_dag(&dag, &plan, &params.merge_weights);
        let before = critical_path(&dag).length;
        let after = critical_path(&ex.dag).length;
        assert!(
            after < before * 0.6,
            "critical path {before} -> {after}: not shortened enough"
        );
    }

    #[test]
    fn expansion_improves_simulated_makespan() {
        let dag = skewed_chain();
        let params = RepParams::new(4, vec![0.5; 4]);
        let plan = plan_replication(&dag, &params);
        let ex = expand_dag(&dag, &plan, &params.merge_weights);
        let before = list_schedule(&dag, 4, dag.weights()).makespan;
        let after = list_schedule(&ex.dag, 4, ex.dag.weights()).makespan;
        assert!(
            after < before,
            "simulated makespan should improve: {before} -> {after}"
        );
    }

    #[test]
    fn expansion_replicas_have_no_external_deps() {
        let dag = skewed_chain();
        let plan = RepPlan {
            replicas: vec![1, 2, 1, 1],
        };
        let ex = expand_dag(&dag, &plan, &[0.1; 4]);
        for (i, node) in ex.nodes.iter().enumerate() {
            if let RepNode::Replica { .. } = node {
                assert!(ex.dag.preds(i).is_empty(), "replica {i} has preds");
                assert_eq!(ex.dag.succs(i).len(), 1, "replica {i} must feed merge only");
                let m = ex.dag.succs(i)[0] as usize;
                assert!(matches!(ex.nodes[m], RepNode::Merge(t) if t == node.task()));
            }
        }
    }

    #[test]
    fn expansion_merge_inherits_stencil_edges() {
        let dag = skewed_chain(); // chain 0 -> 1 -> 2 -> 3
        let plan = RepPlan {
            replicas: vec![1, 2, 1, 1],
        };
        let ex = expand_dag(&dag, &plan, &[0.1; 4]);
        let merge = ex
            .nodes
            .iter()
            .position(|n| matches!(n, RepNode::Merge(1)))
            .unwrap();
        let proc0 = ex
            .nodes
            .iter()
            .position(|n| matches!(n, RepNode::Process(0)))
            .unwrap();
        let proc2 = ex
            .nodes
            .iter()
            .position(|n| matches!(n, RepNode::Process(2)))
            .unwrap();
        assert!(ex.dag.preds(merge).contains(&(proc0 as u32)));
        assert!(ex.dag.succs(merge).contains(&(proc2 as u32)));
    }

    #[test]
    fn empty_dag_plans_trivially() {
        let dag = TaskDag::from_edges(0, vec![], &[]);
        let plan = plan_replication(&dag, &RepParams::new(4, vec![]));
        assert!(plan.is_trivial());
        let ex = expand_dag(&dag, &plan, &[]);
        assert_eq!(ex.dag.n(), 0);
    }
}
