//! Parallel portfolio search: independent seeded restart chains on scoped
//! worker threads, pruned by a shared best-bound, reduced deterministically.
//!
//! The paper's search is "several trials ... random moves, bounded uphill
//! acceptance" — a randomized multi-trial scheme that is embarrassingly
//! parallel across *restarts* (the parallel-chains split of the parallel
//! simulated-annealing literature, as opposed to parallel-moves). Each
//! chain is a pure function of its seed on the transactional move engine,
//! so chains share nothing but a single [`SearchBound`]: an `AtomicU64`
//! holding the best cost any primary chain has achieved so far.
//!
//! **Worker model.** `seeds` chains occupy slots `0..seeds`; worker `w` of
//! `K` owns slots `w, w+K, w+2K, ...` and runs them in slot order. Every
//! chain clones the (deterministic) initial allocation once and then runs
//! improve → polish entirely on the undo-journal engine — no cross-thread
//! mutation of bindings, no locks on the hot path.
//!
//! **Best-bound cutoff.** At every trial boundary a chain publishes its
//! best-so-far cost into the bound (`fetch_min`) and, once past
//! `min_trials`, abandons itself when it has fallen `cutoff_factor` behind
//! the global best. An abandoned chain is recorded as such and contributes
//! *nothing* to the result; its worker moves on to its next slot.
//!
//! **Deterministic reduction.** Results are collected per slot and the
//! winner is the completed slot minimizing `(cost, slot)` — equivalently
//! `(cost, seed)`, since slot seeds are `base_seed + slot`. Two properties
//! make the reduction scheduling-invariant even though the cutoff reads
//! the bound racily:
//!
//! 1. *All-or-nothing slots*: a chain either completes its full
//!    deterministic trajectory (same result in every schedule) or is
//!    excluded entirely — the cutoff affects only *when* a chain stops,
//!    never what a completing chain returns.
//! 2. *Bound dominance*: every published value is some primary chain's
//!    achieved cost, hence `>=` that chain's final cost, hence `>=` the
//!    best final cost `W`. A chain is abandoned only when its best-so-far
//!    exceeds `cutoff_factor * bound >= cutoff_factor * W` — so the
//!    winning chain survives every schedule as long as it never trails
//!    `cutoff_factor * W` after `min_trials` (the *headroom invariant*,
//!    validated across thread counts by the portfolio property tests).
//!
//! With `threads == 1` the single worker runs inline, unwatched (no bound,
//! no cutoff): every chain completes, and the result is the sequential
//! multi-seed loop's.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::improve::{improve_traced, SearchExit, SearchWatch};
use crate::trace::TraceRecorder;
use crate::{
    initial_binding, polish, AllocContext, AllocError, Binding, ImproveConfig, ImproveStats,
    InitialBinding,
};

/// The shared lower envelope of the portfolio: the best cost any primary
/// chain has achieved so far. Plain relaxed atomics — the value is a
/// monotonically decreasing hint, and the determinism argument (module
/// docs) never depends on *when* an update becomes visible.
#[derive(Debug)]
pub(crate) struct SearchBound(AtomicU64);

impl SearchBound {
    /// A bound with no published cost yet.
    pub(crate) fn new() -> Self {
        SearchBound(AtomicU64::new(u64::MAX))
    }

    /// Lowers the bound to `cost` if it improves on the current value.
    pub(crate) fn publish(&self, cost: u64) {
        self.0.fetch_min(cost, Ordering::Relaxed);
    }

    /// Returns `true` if `cost` trails the bound by more than `factor`
    /// (never before the first publish).
    pub(crate) fn exceeded_by(&self, cost: u64, factor: f64) -> bool {
        let bound = self.0.load(Ordering::Relaxed);
        bound != u64::MAX && cost as f64 > bound as f64 * factor.max(1.0)
    }
}

/// Tuning knobs of the parallel portfolio driver.
#[derive(Debug, Clone)]
pub struct PortfolioConfig {
    /// Worker threads. `None` uses [`std::thread::available_parallelism`].
    /// An effective count of 1 reproduces the sequential multi-seed loop
    /// exactly (no bound, no cutoff).
    pub threads: Option<usize>,
    /// A chain abandons when its best-so-far exceeds `cutoff_factor` times
    /// the global best. Values are clamped to `>= 1.0`; larger is more
    /// conservative (more headroom for the eventual winner, less pruning).
    pub cutoff_factor: f64,
    /// Trials a chain must complete before its first cutoff check, so the
    /// noisy early descent cannot abandon an eventual winner.
    pub min_trials: usize,
}

impl Default for PortfolioConfig {
    fn default() -> Self {
        PortfolioConfig { threads: None, cutoff_factor: 1.25, min_trials: 2 }
    }
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
    /// `false` when the chain was abandoned by the best-bound cutoff.
    pub completed: bool,
    /// Trials executed before finishing or abandoning.
    pub trials: usize,
    /// Moves attempted.
    pub attempted: usize,
    /// Final cost (completed) or best-so-far at abandonment.
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
    /// Counter totals merged over every chain (completed and abandoned).
    pub aggregate: ImproveStats,
}

impl PortfolioStats {
    /// Chains that ran to completion.
    pub fn completed(&self) -> usize {
        self.chains.iter().filter(|c| c.completed).count()
    }

    /// Chains abandoned by the best-bound cutoff.
    pub fn abandoned(&self) -> usize {
        self.chains.iter().filter(|c| !c.completed).count()
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

/// One finished or abandoned chain, before reduction.
pub(crate) struct ChainRun<'a> {
    pub(crate) stat: ChainStat,
    /// Raw improvement counters (merged into the aggregate).
    pub(crate) improve: ImproveStats,
    /// `Some` only for completed chains: the full-trajectory result.
    pub(crate) result: Option<(u64, Binding<'a>)>,
}

/// The outcome of [`portfolio_search`]: the winning allocation and the
/// statistics of every chain that ran.
pub struct PortfolioOutcome<'a> {
    /// The winning binding (lowest `(cost, seed)` among completed chains).
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

/// Runs one chain: clone the initial allocation, improve under the watch,
/// polish if not abandoned. The one chain runner: the portfolio and the
/// audit's recording re-run (which passes a `rec`) both walk their
/// chains through it. Neither the watch, the cancellation polls nor the
/// recorder touch the RNG, so a chain that completes walks the same
/// trajectory under any of them.
pub(crate) fn run_chain<'a>(
    initial: &Binding<'a>,
    config: &ImproveConfig,
    seed: u64,
    slot: usize,
    watch: Option<&SearchWatch<'_>>,
    mut rec: Option<&mut TraceRecorder>,
) -> ChainRun<'a> {
    let start = Instant::now();
    let mut binding = initial.clone();
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut stats, exit) =
        improve_traced(&mut binding, config, &mut rng, watch, rec.as_deref_mut());
    let result = if exit != SearchExit::Completed {
        None
    } else {
        if let Some(rec) = rec {
            rec.searched_cost = stats.final_cost;
        }
        stats.final_cost = polish(&mut binding, &config.weights, &config.move_set);
        if let Some(watch) = watch {
            watch.bound.publish(stats.final_cost);
        }
        Some((stats.final_cost, binding))
    };
    let wall_nanos = start.elapsed().as_nanos() as u64;
    ChainRun {
        stat: ChainStat {
            slot,
            seed,
            completed: result.is_some(),
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
/// reduces deterministically to the `(cost, seed)`-minimal completed chain.
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

    // One thread runs unwatched: no bound, no cutoff, every chain completes.
    let bound = SearchBound::new();
    let watch = (threads > 1).then_some(SearchWatch {
        bound: &bound,
        cutoff_factor: config.cutoff_factor,
        min_trials: config.min_trials,
    });
    // Worker `w` of `K` runs slots `w, w+K, w+2K, ...` in slot order; a
    // single worker runs inline on the calling thread.
    let worker = |w: usize| {
        let mut runs = Vec::new();
        for slot in (w..seeds).step_by(threads) {
            if cancelled() {
                break;
            }
            let seed = base_seed.wrapping_add(slot as u64);
            runs.push(run_chain(&initial, improve_config, seed, slot, watch.as_ref(), None));
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

    // Safety net: the chain holding the published bound can never abandon
    // itself (factor >= 1), so at least one chain completes; if a future
    // change breaks that, fall back to a deterministic unwatched chain 0.
    if !runs.iter().any(|r| r.result.is_some()) {
        runs.insert(0, run_chain(&initial, improve_config, base_seed, 0, None, None));
    }

    // Deterministic reduction: minimal (cost, slot) over completed slots.
    let winner_index = runs
        .iter()
        .enumerate()
        .filter_map(|(i, r)| r.result.as_ref().map(|(cost, _)| (*cost, r.stat.slot, i)))
        .min()
        .map(|(_, _, i)| i)
        .expect("at least one chain completes");

    let mut aggregate = ImproveStats::default();
    for run in &runs {
        aggregate.merge(&run.improve);
    }
    let chains: Vec<ChainStat> = runs.iter().map(|r| r.stat.clone()).collect();
    let winner_slot = runs[winner_index].stat.slot;
    let stats = runs[winner_index].improve;
    let winner = runs.swap_remove(winner_index);
    let (cost, binding) = winner.result.expect("winner completed");

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
