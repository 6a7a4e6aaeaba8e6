//! The iterative-improvement search of paper §4.
//!
//! Several *trials* (analogous to annealing temperature levels) each
//! attempt a number of random moves. Downhill and sideways moves are
//! always accepted; a bounded number of uphill moves per trial lets the
//! search jump to a different region of the configuration space before
//! descending to a local optimum. The best allocation seen anywhere is
//! recorded and returned. The search stops after a fixed number of trials
//! without improvement or a trial cap.
//!
//! The search runs in **two phases**: the traditional subset of the
//! configured move set first (whole-value register moves explore the
//! contiguous-binding basin efficiently), then the full configured set
//! (segments, copies, pass-throughs polish and extend from there). With
//! all eleven move kinds in one undifferentiated pool, the extended moves'
//! cost-neutral drift dilutes and derails the whole-value search; phasing
//! composes the strengths of both and guarantees the extended model never
//! loses to its own restriction.

use std::sync::Arc;

use rand::rngs::StdRng;

use salsa_datapath::CostWeights;

use crate::cancel::{CancelToken, CANCEL_POLL_PERIOD};
use crate::moves::{apply_proposal, propose_biased, MoveKind, MoveSet};
use crate::trace::TraceRecorder;
use crate::warm::WarmSpec;
use crate::Binding;

/// The weighted allocation cost — the one cost function every search stage
/// (improvement, polish, annealing) evaluates.
pub(crate) fn weighted_cost(weights: &CostWeights, binding: &Binding<'_>) -> u64 {
    weights.evaluate(&binding.breakdown())
}

/// In debug builds, every this-many attempted moves the rejected-move path
/// cross-checks journal rollback against a full pre-move snapshot. The
/// selection is a deterministic counter (never the search RNG), so debug
/// and release builds walk identical move trajectories.
#[cfg(debug_assertions)]
const CROSS_CHECK_PERIOD: usize = 64;

/// Tuning knobs of the improvement search.
#[derive(Debug, Clone)]
pub struct ImproveConfig {
    /// Maximum number of trials (per phase).
    pub max_trials: usize,
    /// Stop a phase after this many consecutive trials without improvement
    /// (the paper uses 3).
    pub stale_trials: usize,
    /// Moves attempted per trial. `None` scales with design size
    /// (`200 x ops`).
    pub moves_per_trial: Option<usize>,
    /// Uphill moves accepted per trial before the trial becomes
    /// downhill-only.
    pub max_uphill: usize,
    /// Largest cost increase a single uphill move may introduce. Keeps the
    /// per-trial perturbation local so the downhill phase can repair it.
    pub max_uphill_delta: u64,
    /// The move kinds in play (restrict for baselines/ablations).
    pub move_set: MoveSet,
    /// Cost weights.
    pub weights: CostWeights,
    /// Cooperative cancellation (per-job deadlines, shutdown drains).
    /// Polled at trial boundaries and every
    /// [`CANCEL_POLL_PERIOD`](crate::CANCEL_POLL_PERIOD) moves; a tripped
    /// token aborts the search, which the driver surfaces as
    /// [`AllocError::Cancelled`](crate::AllocError). `None` (the default)
    /// searches to completion.
    pub cancel: Option<CancelToken>,
    /// Warm-start seed: start the search from (or guided by) a prior
    /// winner's allocation and bias the first
    /// [`bias_trials`](crate::WarmSpec::bias_trials) trials' move draws
    /// toward the CDFG delta's focus set. Part of the chain's identity —
    /// the trace recorder and replayer derive the same initial binding
    /// from it, so warm-started results certify and audit exactly like
    /// cold ones. `None` (the default) is the cold path.
    pub warm: Option<Arc<WarmSpec>>,
}

impl Default for ImproveConfig {
    fn default() -> Self {
        ImproveConfig {
            max_trials: 12,
            stale_trials: 3,
            moves_per_trial: None,
            max_uphill: 12,
            max_uphill_delta: 24,
            move_set: MoveSet::full(),
            weights: CostWeights::default(),
            cancel: None,
            warm: None,
        }
    }
}

impl ImproveConfig {
    /// The move-set sequence the search runs: the traditional subset of the
    /// configured set (when the subset is proper), then the configured set.
    fn phases(&self) -> Vec<MoveSet> {
        let mut restricted = self.move_set.clone();
        for (kind, _) in MoveKind::all() {
            if !MoveSet::traditional().contains(kind) {
                restricted = restricted.without(kind);
            }
        }
        if restricted == self.move_set || restricted.is_drained() {
            vec![self.move_set.clone()]
        } else {
            vec![restricted, self.move_set.clone()]
        }
    }
}

/// Outcome statistics of one improvement run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ImproveStats {
    /// Cost of the initial allocation.
    pub initial_cost: u64,
    /// Cost of the best allocation found.
    pub final_cost: u64,
    /// Trials executed (all phases).
    pub trials: usize,
    /// Moves attempted (including infeasible proposals).
    pub attempted: usize,
    /// Moves applied (feasible proposals).
    pub applied: usize,
    /// Applied moves kept (downhill/sideways or within the uphill budget).
    pub accepted: usize,
    /// Uphill moves kept.
    pub uphill_accepted: usize,
    /// The trial (1-based, across phases) on which the returned best
    /// allocation was last improved; 0 when the initial allocation was
    /// never beaten. The warm-start convergence metric: a well-seeded
    /// chain reaches its best in a fraction of a cold chain's trials.
    pub trials_to_best: usize,
    /// Wall-clock time spent inside the search loops, in nanoseconds.
    pub elapsed_nanos: u64,
}

impl ImproveStats {
    /// Search throughput: attempted moves per wall-clock second. Returns
    /// 0.0 (never a division by zero or an absurd rate) for empty or
    /// sub-timer-resolution runs.
    pub fn moves_per_sec(&self) -> f64 {
        if self.attempted == 0 || self.elapsed_nanos == 0 {
            0.0
        } else {
            self.attempted as f64 * 1e9 / self.elapsed_nanos as f64
        }
    }

    /// Folds another run's statistics into this one, for aggregating
    /// per-chain stats across a portfolio: counters and elapsed time sum,
    /// `initial_cost` keeps the common (maximum) starting cost and
    /// `final_cost` the best outcome. Merging into a fresh
    /// [`Default`] value adopts `other` wholesale.
    pub fn merge(&mut self, other: &ImproveStats) {
        if self.trials == 0 && self.attempted == 0 {
            self.initial_cost = other.initial_cost;
            self.final_cost = other.final_cost;
            self.trials_to_best = other.trials_to_best;
        } else {
            if other.final_cost < self.final_cost {
                // The merged run found the better allocation; its
                // improvement trial, offset by the trials already folded
                // in, becomes the aggregate's trials-to-best.
                self.trials_to_best = self.trials + other.trials_to_best;
            }
            self.initial_cost = self.initial_cost.max(other.initial_cost);
            self.final_cost = self.final_cost.min(other.final_cost);
        }
        self.trials += other.trials;
        self.attempted += other.attempted;
        self.applied += other.applied;
        self.accepted += other.accepted;
        self.uphill_accepted += other.uphill_accepted;
        self.elapsed_nanos += other.elapsed_nanos;
    }
}

/// How an improvement run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchExit {
    /// Ran to natural convergence (trial cap or staleness).
    Completed,
    /// Aborted by the configured [`CancelToken`] (deadline or shutdown).
    Cancelled,
}

/// Runs iterative improvement in place, leaving `binding` at the best
/// allocation found.
///
/// If the configuration carries a [`CancelToken`] that trips mid-search,
/// the binding is left at the best allocation seen so far and the exit
/// condition is silently dropped — use the
/// [`Allocator`](crate::Allocator) driver, which surfaces
/// [`AllocError::Cancelled`](crate::AllocError), when the caller must
/// distinguish a cancelled run from a converged one.
pub fn improve(binding: &mut Binding<'_>, config: &ImproveConfig, rng: &mut StdRng) -> ImproveStats {
    improve_traced(binding, config, rng, None).0
}

/// [`improve`] under an optional move-trace recorder. Returns the
/// statistics and how the run ended: [`SearchExit::Cancelled`] means the
/// configured token tripped (the binding still holds its best-so-far
/// allocation).
///
/// Neither the cancellation polls nor the recorder touch the RNG or alter
/// control flow, so a chain that completes walks the exact same
/// trajectory as an unrecorded run with the same seed — the property
/// `record_slot_trace` relies on to record a portfolio winner after the
/// fact.
pub(crate) fn improve_traced(
    binding: &mut Binding<'_>,
    config: &ImproveConfig,
    rng: &mut StdRng,
    mut rec: Option<&mut TraceRecorder>,
) -> (ImproveStats, SearchExit) {
    let start = std::time::Instant::now();
    let mut stats = ImproveStats {
        initial_cost: weighted_cost(&config.weights, binding),
        ..ImproveStats::default()
    };
    let mut exit = SearchExit::Completed;
    for set in config.phases() {
        if let Some(stop) =
            run_phase(binding, config, &set, rng, &mut stats, rec.as_deref_mut())
        {
            exit = stop;
            break;
        }
    }
    stats.final_cost = weighted_cost(&config.weights, binding);
    stats.elapsed_nanos = start.elapsed().as_nanos() as u64;
    (stats, exit)
}

/// Runs one move-set phase; returns `Some` when the cancel token tripped
/// (the binding is left at its best-so-far allocation).
fn run_phase(
    binding: &mut Binding<'_>,
    config: &ImproveConfig,
    set: &MoveSet,
    rng: &mut StdRng,
    stats: &mut ImproveStats,
    mut rec: Option<&mut TraceRecorder>,
) -> Option<SearchExit> {
    let moves_per_trial = config
        .moves_per_trial
        .unwrap_or(200 * binding.ctx().graph.num_ops());

    let mut best = binding.clone();
    let mut best_cost = weighted_cost(&config.weights, binding);
    let mut current_cost = best_cost;
    let mut stale = 0;

    for trial in 0..config.max_trials {
        if config.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            binding.clone_from(&best);
            return Some(SearchExit::Cancelled);
        }
        stats.trials += 1;
        // Delta-local bias: for the first `bias_trials` trials of a
        // warm-started search, a drawn move that misses the CDFG delta's
        // focus set gets one focus-preferring re-draw. The window is
        // counted in global trials, so the trajectory stays a pure
        // function of `(config, seed)` across phases.
        let bias = config
            .warm
            .as_deref()
            .filter(|w| w.has_focus() && stats.trials <= w.bias_trials as usize);
        let mut uphill_left = config.max_uphill;
        let best_before = best_cost;
        if trial > 0 && current_cost > best_cost {
            // Iterated local search: when the previous trial drifted
            // uphill, restart the perturbation from the best allocation.
            // Equal-cost drift is kept — sideways wandering across cost
            // plateaus is how segment migrations and pass-through reuse
            // configurations are discovered. `clone_from` keeps the
            // binding's heap buffers (including the chain pool) alive
            // across the restore.
            binding.clone_from(&best);
            current_cost = best_cost;
            if let Some(r) = rec.as_deref_mut() {
                r.record_restore();
            }
        }

        for _ in 0..moves_per_trial {
            stats.attempted += 1;
            // Poll the deadline between transactions (never mid-journal),
            // at a stride that keeps the clock read off the hot path.
            if stats.attempted.is_multiple_of(CANCEL_POLL_PERIOD)
                && config.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
            {
                binding.clone_from(&best);
                return Some(SearchExit::Cancelled);
            }
            #[cfg(debug_assertions)]
            let cross_check =
                stats.attempted.is_multiple_of(CROSS_CHECK_PERIOD).then(|| binding.clone());
            binding.begin();
            // `propose` + `apply` rather than the combined `try_move`:
            // identical RNG draws and identical semantics (a fresh
            // proposal always applies), but the resolved proposal stays
            // in hand for the trace recorder. With `bias` unset the
            // biased draw is exactly `pick` + `propose`, so cold
            // trajectories are untouched.
            let proposal = match propose_biased(binding, set, rng, bias) {
                Some(proposal) => proposal,
                None => {
                    binding.rollback();
                    #[cfg(debug_assertions)]
                    if let Some(snapshot) = cross_check {
                        assert!(*binding == snapshot, "rollback of an infeasible move diverged");
                    }
                    continue;
                }
            };
            let applied = apply_proposal(binding, proposal);
            debug_assert!(applied, "a fresh proposal must apply: {proposal:?}");
            stats.applied += 1;
            let after = weighted_cost(&config.weights, binding);
            if after <= current_cost {
                stats.accepted += 1;
                current_cost = after;
            } else if uphill_left > 0 && after - current_cost <= config.max_uphill_delta {
                uphill_left -= 1;
                stats.accepted += 1;
                stats.uphill_accepted += 1;
                current_cost = after;
            } else {
                binding.rollback();
                #[cfg(debug_assertions)]
                if let Some(snapshot) = cross_check {
                    assert!(
                        *binding == snapshot,
                        "journal rollback diverged from the pre-move snapshot"
                    );
                }
                continue;
            }
            binding.commit();
            if let Some(r) = rec.as_deref_mut() {
                r.record_commit(proposal, current_cost);
            }
            if current_cost < best_cost {
                best_cost = current_cost;
                best.clone_from(binding);
                stats.trials_to_best = stats.trials;
            }
        }

        #[cfg(debug_assertions)]
        binding.check_consistency();

        if best_cost < best_before {
            stale = 0;
        } else {
            stale += 1;
            if stale >= config.stale_trials {
                break;
            }
        }
    }

    binding.clone_from(&best);
    if let Some(r) = rec {
        r.record_restore();
    }
    None
}
