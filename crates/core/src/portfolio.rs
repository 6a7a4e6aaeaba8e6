//! Parallel portfolio search: independent seeded restart chains on scoped
//! worker threads, reduced deterministically.
//!
//! The paper's search is "several trials ... random moves, bounded uphill
//! acceptance" — a randomized multi-trial scheme that is embarrassingly
//! parallel across *restarts* (the parallel-chains split of the parallel
//! simulated-annealing literature, as opposed to parallel-moves). Each
//! chain is a pure function of its seed on the transactional move engine,
//! so chains share no mutable state.
//!
//! **Worker model.** `seeds` chains occupy slots `0..seeds`; worker `w` of
//! `K` owns slots `w, w+K, w+2K, ...` and runs them in slot order. Every
//! chain clones the (deterministic) initial allocation once and then runs
//! improve → polish entirely on the undo-journal engine — no cross-thread
//! mutation of bindings, no locks on the hot path.
//!
//! **Every chain completes; reduce by `(cost, slot)`.** No chain stops
//! early because of another, so every slot returns the same cost and
//! binding under any schedule and any worker count. The winner is the
//! slot minimizing `(cost, slot)` — equivalently `(cost, seed)`, since
//! slot seeds are `base_seed + slot` — so the winner, and every byte of a
//! canonical report but the worker count it records, is the same at any
//! thread count by construction.
//! With `threads == 1` the single worker runs inline on the calling
//! thread: the sequential multi-seed loop.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::improve::{improve_traced, SearchExit};
use crate::trace::TraceRecorder;
use crate::{
    initial_binding, polish, AllocContext, AllocError, Binding, ImproveConfig, ImproveStats,
    InitialBinding,
};

/// Tuning knobs of the parallel portfolio driver.
#[derive(Debug, Clone, Default)]
pub struct PortfolioConfig {
    /// Worker threads. `None` uses [`std::thread::available_parallelism`].
    /// The worker count changes only wall time, never the result.
    pub threads: Option<usize>,
}

impl PortfolioConfig {
    /// The worker count this configuration resolves to.
    pub fn effective_threads(&self) -> usize {
        self.threads
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
            .max(1)
    }
}

/// Per-chain outcome statistics, one row of the portfolio report table.
#[derive(Debug, Clone)]
pub struct ChainStat {
    /// Restart slot.
    pub slot: usize,
    /// The chain's RNG seed.
    pub seed: u64,
    /// Trials executed.
    pub trials: usize,
    /// Moves attempted.
    pub attempted: usize,
    /// Final (polished) cost.
    pub best_cost: u64,
    /// Search throughput of this chain.
    pub moves_per_sec: f64,
    /// Wall-clock time of this chain, nanoseconds.
    pub wall_nanos: u64,
}

/// Aggregate statistics of one portfolio run.
#[derive(Debug, Clone, Default)]
pub struct PortfolioStats {
    /// Worker threads used.
    pub threads: usize,
    /// Per-chain rows in slot order.
    pub chains: Vec<ChainStat>,
    /// Slot of the winning chain.
    pub winner_slot: usize,
    /// Wall-clock time of the whole portfolio, nanoseconds.
    pub wall_nanos: u64,
    /// Counter totals merged over every chain.
    pub aggregate: ImproveStats,
}

impl PortfolioStats {
    /// Always `0`: every chain runs to completion. Kept only because
    /// perfbench's `core.search.chains_cutoff` metric reads it.
    pub fn abandoned(&self) -> usize {
        0
    }

    /// Parallel speedup actually realized: total per-chain search time
    /// over portfolio wall time (1.0 when sequential).
    pub fn speedup(&self) -> f64 {
        let total: u64 = self.chains.iter().map(|c| c.wall_nanos).sum();
        if self.wall_nanos == 0 {
            1.0
        } else {
            total as f64 / self.wall_nanos as f64
        }
    }
}

/// One finished or cancelled chain, before reduction.
pub(crate) struct ChainRun<'a> {
    pub(crate) stat: ChainStat,
    /// Raw improvement counters (merged into the aggregate).
    pub(crate) improve: ImproveStats,
    /// The full-trajectory result; `None` only for a cancelled chain.
    pub(crate) result: Option<(u64, Binding<'a>)>,
}

/// The outcome of [`portfolio_search`]: the winning allocation and the
/// statistics of every chain that ran.
pub struct PortfolioOutcome<'a> {
    /// The winning binding (lowest `(cost, seed)` over every chain).
    pub binding: Binding<'a>,
    /// The winning chain's search statistics.
    pub stats: ImproveStats,
    /// The winning cost.
    pub cost: u64,
    /// How the shared starting binding was produced (constructive, or
    /// seeded/guided by a warm-start spec). Every chain starts from the
    /// same initial, so this is a portfolio-wide fact.
    pub initial: InitialBinding,
    /// Portfolio-wide statistics.
    pub portfolio: PortfolioStats,
}

/// Runs one chain: clone the initial allocation, improve, polish unless
/// cancelled. The one chain runner: the portfolio and the audit's
/// recording re-run (which passes a `rec`) both walk their chains through
/// it. Neither the cancellation polls nor the recorder touch the RNG, so
/// a chain that completes walks the same trajectory under either.
pub(crate) fn run_chain<'a>(
    initial: &Binding<'a>,
    config: &ImproveConfig,
    seed: u64,
    slot: usize,
    mut rec: Option<&mut TraceRecorder>,
) -> ChainRun<'a> {
    let start = Instant::now();
    let mut binding = initial.clone();
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut stats, exit) =
        improve_traced(&mut binding, config, &mut rng, rec.as_deref_mut());
    let result = if exit != SearchExit::Completed {
        None
    } else {
        if let Some(rec) = rec {
            rec.searched_cost = stats.final_cost;
        }
        stats.final_cost = polish(&mut binding, &config.weights, &config.move_set);
        Some((stats.final_cost, binding))
    };
    let wall_nanos = start.elapsed().as_nanos() as u64;
    ChainRun {
        stat: ChainStat {
            slot,
            seed,
            trials: stats.trials,
            attempted: stats.attempted,
            best_cost: stats.final_cost,
            moves_per_sec: stats.moves_per_sec(),
            wall_nanos,
        },
        improve: stats,
        result,
    }
}

/// Runs the portfolio: `seeds` primary chains with seeds
/// `base_seed..base_seed + seeds`, on up to `config.threads` workers, and
/// reduces deterministically to the `(cost, seed)`-minimal chain.
///
/// # Errors
///
/// Returns [`AllocError::Cancelled`] when the improve configuration's
/// [`CancelToken`](crate::CancelToken) trips before the portfolio
/// finishes. Cancellation is all-or-nothing: a cancelled portfolio never
/// returns a partial reduction, because *which* chains completed before
/// the deadline depends on scheduling and would break the
/// identical-inputs-identical-winner contract.
///
/// # Panics
///
/// Panics if `seeds == 0`.
pub fn portfolio_search<'a>(
    ctx: &'a AllocContext<'a>,
    improve_config: &ImproveConfig,
    config: &PortfolioConfig,
    base_seed: u64,
    seeds: usize,
) -> Result<PortfolioOutcome<'a>, AllocError> {
    assert!(seeds > 0, "at least one chain is required");
    let start = Instant::now();
    let threads = config.effective_threads().min(seeds);
    let (initial, initial_origin) = initial_binding(ctx, improve_config.warm.as_deref());
    let cancelled = || improve_config.cancel.as_ref().is_some_and(|t| t.is_cancelled());

    // Worker `w` of `K` runs slots `w, w+K, w+2K, ...` in slot order; a
    // single worker runs inline on the calling thread.
    let worker = |w: usize| {
        let mut runs = Vec::new();
        for slot in (w..seeds).step_by(threads) {
            if cancelled() {
                break;
            }
            let seed = base_seed.wrapping_add(slot as u64);
            runs.push(run_chain(&initial, improve_config, seed, slot, None));
        }
        runs
    };
    let mut runs: Vec<ChainRun<'a>> = if threads == 1 {
        worker(0)
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> =
                (0..threads).map(|w| scope.spawn(move || worker(w))).collect();
            handles.into_iter().flat_map(|h| h.join().expect("portfolio worker")).collect()
        })
    };
    // Slot order: the reduction and the report table are independent of
    // worker interleaving.
    runs.sort_by_key(|r| r.stat.slot);

    // Cancellation is abortive: even if some chains finished before the
    // token tripped, *which* ones did depends on scheduling — returning a
    // partial reduction would make a deadline-racing job nondeterministic.
    if cancelled() {
        return Err(AllocError::Cancelled);
    }

    // Deterministic reduction: minimal (cost, slot). `runs` is in slot
    // order and `min_by_key` keeps the first of equal keys.
    let winner_index = (0..runs.len())
        .min_by_key(|&i| runs[i].stat.best_cost)
        .expect("at least one chain");

    let mut aggregate = ImproveStats::default();
    for run in &runs {
        aggregate.merge(&run.improve);
    }
    let chains: Vec<ChainStat> = runs.iter().map(|r| r.stat.clone()).collect();
    let winner_slot = runs[winner_index].stat.slot;
    let stats = runs[winner_index].improve;
    let winner = runs.swap_remove(winner_index);
    let (cost, binding) = winner.result.expect("an uncancelled chain completes");

    Ok(PortfolioOutcome {
        binding,
        stats,
        cost,
        initial: initial_origin,
        portfolio: PortfolioStats {
            threads,
            chains,
            winner_slot,
            wall_nanos: start.elapsed().as_nanos() as u64,
            aggregate,
        },
    })
}
