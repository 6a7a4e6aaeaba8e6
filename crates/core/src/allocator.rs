//! The top-level allocation driver: pool sizing, initial allocation,
//! iterative improvement, lowering, verification, and mux merging.

use std::sync::Arc;

use salsa_cdfg::Cdfg;
use salsa_datapath::{
    merge_muxes, traffic_from_rtl, Claims, CostBreakdown, Datapath, MemConfig, MuxMergeResult,
    Rtl,
};
use salsa_sched::{FuClass, FuLibrary, Schedule};

use crate::{
    portfolio_search, AllocContext, AllocError, BindingParts, CancelToken, ImproveConfig,
    ImproveStats, InitialBinding, MoveKind, MovePlan, PortfolioConfig, PortfolioOutcome,
    PortfolioStats, WarmSpec,
};

/// Configurable allocation run. Build with [`Allocator::new`], adjust with
/// the chainable setters, execute with [`run`](Allocator::run).
///
/// Defaults follow the paper's Table 2/3 setup: the functional-unit pool is
/// the schedule's demand, the register pool is the schedule's register
/// demand (add more with [`extra_registers`](Allocator::extra_registers) to
/// trade storage against interconnect), and the full SALSA move set is in
/// play.
#[derive(Debug)]
pub struct Allocator<'a> {
    graph: &'a Cdfg,
    schedule: &'a Schedule,
    library: &'a FuLibrary,
    extra_registers: usize,
    config: ImproveConfig,
    seed: u64,
    restarts: usize,
    portfolio: PortfolioConfig,
    compiled_plan: Option<Arc<MovePlan>>,
    mem_moves: bool,
}

impl<'a> Allocator<'a> {
    /// Starts configuring an allocation of `graph` under `schedule`.
    /// `library` must be the library the schedule was produced with.
    pub fn new(graph: &'a Cdfg, schedule: &'a Schedule, library: &'a FuLibrary) -> Self {
        Allocator {
            graph,
            schedule,
            library,
            extra_registers: 0,
            config: ImproveConfig::default(),
            seed: 0,
            restarts: 1,
            portfolio: PortfolioConfig::default(),
            compiled_plan: None,
            mem_moves: true,
        }
    }

    /// Adds registers beyond the schedule's minimum (the Table 2 knob).
    pub fn extra_registers(mut self, extra: usize) -> Self {
        self.extra_registers = extra;
        self
    }

    /// Enables or disables the memory move family M1-M3 (on by default;
    /// only meaningful for graphs with arrays). With memory moves off the
    /// array→bank table and the access ports stay frozen at the initial
    /// greedy placement — the M-off ablation baseline.
    pub fn mem_moves(mut self, on: bool) -> Self {
        self.mem_moves = on;
        self
    }

    /// Replaces the improvement configuration (move set, trial counts,
    /// uphill budget, cost weights).
    pub fn config(mut self, config: ImproveConfig) -> Self {
        self.config = config;
        self
    }

    /// Seeds the random search (runs are reproducible per seed).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Runs the whole search `restarts` times with derived seeds and keeps
    /// the best result — "due to the random nature of the iterative
    /// improvement scheme, multiple trials are sometimes necessary to find
    /// the best result" (paper §5).
    ///
    /// # Panics
    ///
    /// Panics if `restarts == 0`.
    pub fn restarts(mut self, restarts: usize) -> Self {
        assert!(restarts > 0, "at least one run is required");
        self.restarts = restarts;
        self
    }

    /// Caps the portfolio worker threads. The default
    /// ([`PortfolioConfig::default`]) uses the machine's available
    /// parallelism. The count changes only wall time: every restart chain
    /// runs to completion, so the winner is the same at any count.
    pub fn threads(mut self, threads: usize) -> Self {
        self.portfolio.threads = Some(threads.max(1));
        self
    }

    /// Attaches a warm-start seed: the search starts from (or guided by)
    /// the seed's prior-winner allocation, with delta-local move bias
    /// for its first trials. The seed becomes part of the search
    /// identity — results, traces and replays are pure functions of
    /// `(inputs, seed, warm)` — so a serving layer must key caches on it.
    pub fn warm(mut self, spec: Arc<WarmSpec>) -> Self {
        self.config.warm = Some(spec);
        self
    }

    /// Reuses a previously compiled [`MovePlan`] instead of compiling one
    /// during [`prepare`](Allocator::prepare). The plan must have been
    /// compiled for this exact `(graph, schedule, library, pool)` — the
    /// admission-cache fast path for repeat designs. Plans never affect
    /// results, only wall-clock, so a stale-but-shape-compatible plan
    /// would be a correctness bug upstream, not here; the context checks
    /// dimensions defensively and recompiles on mismatch.
    pub fn compiled_plan(mut self, plan: Arc<MovePlan>) -> Self {
        self.compiled_plan = Some(plan);
        self
    }

    /// Attaches a cooperative [`CancelToken`]: the search polls it at
    /// trial boundaries (and every few hundred moves within a trial) and
    /// [`run`](Allocator::run) returns [`AllocError::Cancelled`] if it
    /// trips before the portfolio completes — the hook a serving layer
    /// uses for per-job deadlines and drain-then-exit shutdowns.
    pub fn cancel(mut self, token: CancelToken) -> Self {
        self.config.cancel = Some(token);
        self
    }

    /// Builds the allocation context (pool construction) and the resolved
    /// improvement configuration — the part of [`run`](Allocator::run)
    /// that precedes the search. Exposed so a caller can drive the stages
    /// itself: a benchmark times the search and
    /// [`complete`](Allocator::complete) separately, and the audit replays
    /// a recorded trace against the prepared context.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] if the pool cannot fit the schedule.
    pub fn prepare(&self) -> Result<(AllocContext<'a>, ImproveConfig), AllocError> {
        let fu_counts = self.schedule.fu_demand(self.graph, self.library);
        let regs = self.schedule.register_demand(self.graph, self.library) + self.extra_registers;
        let datapath = if self.graph.has_memory() {
            // One bank per array, each with as many ports as the
            // schedule's `Mem` demand: every bank can host every access,
            // so re-banking is always feasible and the search decides how
            // many banks the design actually pays for.
            let ports = fu_counts.get(&FuClass::Mem).copied().unwrap_or(1).max(1);
            let mem = MemConfig::uniform(self.graph.num_arrays().max(1), ports);
            Datapath::new_with_memory(&fu_counts, regs.max(1), &mem)
        } else {
            Datapath::new(&fu_counts, regs.max(1))
        };
        let ctx = AllocContext::new_with_plan(
            self.graph,
            self.schedule,
            self.library,
            datapath,
            self.compiled_plan.clone(),
        )?;

        let mut config = self.config.clone();
        // Memory graphs get the M family appended in `MoveKind::all()`
        // order, so `full()`-configured runs land exactly on
        // `MoveSet::with_memory()`.
        if self.mem_moves && self.graph.has_memory() {
            for (kind, _) in MoveKind::all() {
                if kind.is_memory() {
                    config.move_set = config.move_set.clone().with(kind);
                }
            }
        }
        Ok((ctx, config))
    }

    /// Finishes an allocation from a search outcome: lowering, end-to-end
    /// verification, and multiplexer merging. The counterpart of
    /// [`prepare`](Allocator::prepare); `outcome.binding` must have been
    /// produced against `ctx`.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::VerificationFailed`] if — in the event of an
    /// internal bug — the produced datapath fails verification.
    pub fn complete(
        &self,
        ctx: &AllocContext<'_>,
        outcome: PortfolioOutcome<'_>,
    ) -> Result<AllocResult, AllocError> {
        let (cost, binding, stats) = (outcome.cost, outcome.binding, outcome.stats);

        // The winner's context-free image: what a serving layer banks to
        // seed future near-duplicate jobs.
        let winner = binding.to_parts();
        let warm = self.config.warm.as_deref().map(|spec| WarmStart {
            mode: outcome.initial,
            source: spec.source,
            distance: spec.distance,
            bias_trials: spec.bias_trials,
        });

        let (rtl, claims, verdict) = crate::verify_lowered(&binding);
        if let Some(detail) = verdict.detail() {
            return Err(AllocError::VerificationFailed { detail: detail.to_string() });
        }
        let merged = merge_muxes(&traffic_from_rtl(&rtl));
        let breakdown = binding.breakdown();

        Ok(AllocResult {
            datapath: ctx.datapath.clone(),
            rtl,
            claims,
            breakdown,
            cost,
            merged,
            stats,
            portfolio: outcome.portfolio,
            winner,
            warm,
            verified: true,
        })
    }

    /// Executes the allocation: pool construction, constructive initial
    /// allocation, iterative improvement, lowering, end-to-end
    /// verification, and multiplexer merging.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] if the pool cannot fit the schedule, or — in
    /// the event of an internal bug — if the produced datapath fails
    /// verification.
    pub fn run(&self) -> Result<AllocResult, AllocError> {
        let (ctx, config) = self.prepare()?;

        // Restarts are a parallel portfolio: independent seeded chains on
        // scoped workers, reduced deterministically by (cost, seed) — see
        // the `portfolio` module.
        let outcome =
            portfolio_search(&ctx, &config, &self.portfolio, self.seed, self.restarts)?;
        self.complete(&ctx, outcome)
    }
}

/// The outcome of an allocation run: the datapath, its verified RTL
/// behaviour, measured costs and the mux-merging result.
#[derive(Debug, Clone)]
pub struct AllocResult {
    /// The resource pool allocated against.
    pub datapath: Datapath,
    /// The lowered register-transfer program (one schedule iteration).
    pub rtl: Rtl,
    /// The binding's storage claims.
    pub claims: Claims,
    /// Measured resource usage (point-to-point, pre-merge).
    pub breakdown: CostBreakdown,
    /// Weighted cost of the final allocation.
    pub cost: u64,
    /// Result of the multiplexer-merging post-pass (§4).
    pub merged: MuxMergeResult,
    /// Search statistics of the winning chain.
    pub stats: ImproveStats,
    /// Per-chain portfolio statistics (one row per restart chain).
    pub portfolio: PortfolioStats,
    /// The winning allocation's context-free image, for banking as a
    /// future warm-start seed.
    pub winner: BindingParts,
    /// Warm-start provenance, present exactly when the run was
    /// configured with a [`WarmSpec`].
    pub warm: Option<WarmStart>,
    /// Always `true`: results are verified before being returned.
    pub verified: bool,
}

/// How a warm-started run actually started, plus the seed's provenance
/// annotations (carried verbatim from the [`WarmSpec`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarmStart {
    /// The initial-binding path taken (seeded image, guided
    /// construction, or the constructive fallback).
    pub mode: InitialBinding,
    /// The base job's result-cache key (0 when unset).
    pub source: u128,
    /// Similarity-sketch distance between base and allocated design.
    pub distance: u64,
    /// Trials the delta-local move bias was configured for.
    pub bias_trials: u32,
}

impl AllocResult {
    /// Whether the result passed end-to-end verification (always true —
    /// failing results are returned as errors instead).
    pub fn verified(&self) -> bool {
        self.verified
    }

    /// Equivalent 2-1 multiplexers after the merging post-pass — the
    /// number reported in the paper's Tables 2 and 3.
    pub fn merged_mux_count(&self) -> usize {
        self.merged.post_merge
    }
}
