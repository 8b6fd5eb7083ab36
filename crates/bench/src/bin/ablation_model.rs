//! Ablation — does the parametric model pick the right algorithm?
//!
//! The paper's conclusion (§6.5) calls for "a parametric model for the
//! problem that will take into account memory availability, cost of
//! memory initialization, expected cost of computing the kernel density"
//! so the best strategy can be chosen per instance. `stkde_core::model`
//! implements that model and `Algorithm::Auto` uses it; this harness
//! scores it: for every instance it measures each parallel strategy,
//! finds the empirical winner, and reports the *regret* of the model's
//! pick (its time over the winner's — 1.00 means the model chose the
//! actual best).

use stkde_bench::{prepare_instances, runner, time_best, HarnessOpts, Table};
use stkde_core::{model, Algorithm};
use stkde_grid::Decomp;

fn main() {
    let opts = HarnessOpts::from_args();
    let prepared = prepare_instances(&opts);
    let threads = opts.threads.last().copied().unwrap_or(2);
    let decomp = Decomp::cubic(8);
    println!("== Ablation: parametric-model algorithm selection (threads = {threads}) ==\n");

    let candidates = [
        Algorithm::PbSym,
        Algorithm::PbSymDr,
        Algorithm::PbSymDd { decomp },
        Algorithm::PbSymPdSched { decomp },
        Algorithm::PbSymPdSchedRep { decomp },
    ];
    let mut table = Table::new(&["Instance", "model pick", "measured best", "regret", "hit"]);
    let mut hits = 0usize;
    let mut total_regret = 0.0f64;

    for p in &prepared {
        let points = runner::pointset(p);
        let picked = model::select(&p.problem, threads, usize::MAX);

        // The pick is timed as picked — on its own lattice — beside the
        // sweep, so regret is what `Auto` costs, not what its family costs
        // on the sweep's lattice.
        let mut measured: Vec<(Algorithm, f64)> = Vec::new();
        for alg in candidates
            .into_iter()
            .chain((!candidates.contains(&picked)).then_some(picked))
        {
            let (t, _) = time_best(opts.reps, || {
                runner::measure(p, &points, alg, threads).expect("no memory cap in this sweep")
            });
            measured.push((alg, t));
        }
        let &(best_alg, best_t) = measured
            .iter()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("non-empty candidate set");
        let picked_t = measured
            .iter()
            .find(|(a, _)| *a == picked)
            .expect("the pick was timed")
            .1;
        let regret = picked_t / best_t.max(1e-12);
        let hit = picked.name() == best_alg.name();
        hits += hit as usize;
        total_regret += regret;
        table.row(vec![
            p.name(),
            picked.name().to_string(),
            best_alg.name().to_string(),
            format!("{regret:.2}"),
            if hit { "*".into() } else { "".into() },
        ]);
    }
    table.print();
    println!(
        "\nmodel accuracy: {hits}/{} exact picks, mean regret {:.2}",
        prepared.len(),
        total_regret / prepared.len().max(1) as f64
    );
    println!("Expected shape: regret near 1.0 throughout — mispicks are cheap");
    println!("when strategies tie (Figure 15 shows several near-ties per instance).");
}
