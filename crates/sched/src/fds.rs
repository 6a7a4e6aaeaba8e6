//! Time-constrained force-directed scheduling (Paulin/Knight style).
//!
//! Given a target latency, FDS fixes one operation at a time at the issue
//! step that best balances the per-class *distribution graphs* (expected
//! concurrency), which minimizes the number of functional units the
//! schedule demands. This regenerates the paper's experimental setup, where
//! "the schedule fixes the minimum number of functional units and
//! registers" (§5) for each latency/pipelining configuration of Tables 2-3.

use std::ops::ControlFlow;

use salsa_cdfg::Cdfg;

use crate::list::list_issue;
use crate::topology::Topology;
use crate::{asap, FuLibrary, Schedule, SchedError};

/// Scheduling objective options for [`fds_schedule_with`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FdsOptions {
    /// Weight of the schedule's register demand (maximum simultaneously
    /// live values) in the demand objective, relative to functional-unit
    /// area. `0` optimizes units only (the paper's setup, where the
    /// schedule's register minimum is simply measured); a small positive
    /// weight trades unit slack for fewer registers.
    pub register_weight: usize,
}

/// Schedules the graph into exactly `n_steps` control steps, minimizing
/// area-weighted functional-unit demand.
///
/// A portfolio of deterministic strategies is evaluated and the best result
/// returned:
///
/// 1. the plain ASAP schedule,
/// 2. a force-directed greedy pass (distribution-graph balancing with a
///    forced-occupancy demand bound),
/// 3. resource-limited list schedules for every unit-count combination up
///    to the ASAP demand that still meets the latency target.
///
/// Candidates are generated and polished one at a time, in that order, by a
/// chain-sliding local descent on realized demand, so the result is never
/// worse than ASAP. The best-pick stops as soon as a polished candidate
/// meets a lower bound on the demand every feasible table has: no later
/// candidate could replace it, so the stop never changes the result. Fully
/// deterministic.
///
/// # Errors
///
/// Returns [`SchedError::TooShort`] if `n_steps` is below the critical path.
pub fn fds_schedule(
    graph: &Cdfg,
    library: &FuLibrary,
    n_steps: usize,
) -> Result<Schedule, SchedError> {
    fds_schedule_with(graph, library, n_steps, &FdsOptions::default())
}

/// [`fds_schedule`] with a configurable demand objective — in particular
/// register-pressure balancing via [`FdsOptions::register_weight`].
///
/// # Errors
///
/// Returns [`SchedError::TooShort`] if `n_steps` is below the critical path.
pub fn fds_schedule_with(
    graph: &Cdfg,
    library: &FuLibrary,
    n_steps: usize,
    options: &FdsOptions,
) -> Result<Schedule, SchedError> {
    let early0 = asap(graph, library);
    if early0.length > n_steps {
        return Err(SchedError::TooShort {
            requested: n_steps,
            critical_path: early0.length,
        });
    }

    let topology = Topology::new(graph, library, n_steps);
    let bound = topology.demand_bound();
    let mut descent = Descent::new(&topology);
    let penalty = RegisterPenalty::new(graph, library, n_steps, options);
    let mut best: Option<(usize, Vec<usize>)> = None;
    let _ = candidates(&topology, |mut issue| {
        let score = descent.polish(&mut issue, penalty.as_ref());
        debug_assert!(score >= bound, "polished score {score} below the demand bound {bound}");
        if best.as_ref().is_none_or(|(b, _)| score < *b) {
            best = Some((score, issue));
        }
        // The best-pick keeps the first of equal scores, so once the bound
        // is met no later candidate can replace the incumbent.
        if score == bound {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    });
    let (_, issue) = best.expect("at least the ASAP candidate exists");
    Schedule::from_issue_times(graph, library, issue, n_steps)
}

/// Hands the starting points the descent polishes to `visit`, in the order
/// the best-pick scans them: ASAP, the force-directed greedy pass, then
/// resource-limited list schedules for every unit-count combination up to
/// the ASAP demand that meet the latency. A table equal to an earlier one is
/// dropped: polishing is deterministic and the best-pick keeps the first of
/// equal scores, so a repeat could never win. Candidates are built lazily,
/// so a `Break` from `visit` also skips the work of building the rest.
fn candidates(
    topology: &Topology,
    mut visit: impl FnMut(Vec<usize>) -> ControlFlow<()>,
) -> ControlFlow<()> {
    let mut seen: Vec<Vec<usize>> = Vec::new();
    let mut offer = |issue: Vec<usize>| {
        if seen.contains(&issue) {
            return ControlFlow::Continue(());
        }
        seen.push(issue.clone());
        visit(issue)
    };
    offer(topology.asap.clone())?;
    offer(Greedy::new(topology).run())?;

    // A class the ASAP table never occupies stays unconstrained.
    let mut load = Load::new(topology);
    load.reset(topology, &topology.asap);
    let demand = load.peak.map(|(peak, _)| peak);
    let range = |c: usize| 1..=demand[c].max(1);
    let limit = |c: usize, units: usize| if demand[c] > 0 { units } else { usize::MAX };
    for alu in range(0) {
        for mul in range(1) {
            for mem in range(2) {
                let limits = [limit(0, alu), limit(1, mul), limit(2, mem)];
                if let Some(issue) = list_issue(topology, limits, Some(topology.n_steps)) {
                    offer(issue)?;
                }
            }
        }
    }
    ControlFlow::Continue(())
}

/// The force-directed greedy pass: fixes the most-constrained operation at
/// the step minimizing (forced demand, distribution-graph imbalance), until
/// every operation is fixed. Its buffers are reused by every trial.
struct Greedy<'t> {
    topology: &'t Topology,
    /// The pinned issue step of each fixed operation.
    fixed: Vec<Option<usize>>,
    /// Frames under the current fixations, under the trial being scored,
    /// and under the best trial so far.
    early: Vec<usize>,
    late: Vec<usize>,
    trial_early: Vec<usize>,
    trial_late: Vec<usize>,
    best_early: Vec<usize>,
    best_late: Vec<usize>,
    /// Per class and step: forced occupancy and expected concurrency.
    forced: [Vec<usize>; 3],
    distribution: [Vec<f64>; 3],
}

impl<'t> Greedy<'t> {
    fn new(topology: &'t Topology) -> Self {
        let n = topology.class.len();
        let n_steps = topology.n_steps;
        Greedy {
            topology,
            fixed: vec![None; n],
            early: topology.asap.clone(),
            late: topology.alap.clone(),
            trial_early: vec![0; n],
            trial_late: vec![0; n],
            best_early: vec![0; n],
            best_late: vec![0; n],
            forced: std::array::from_fn(|_| vec![0; n_steps]),
            distribution: std::array::from_fn(|_| vec![0.0; n_steps]),
        }
    }

    /// Runs the pass and returns the fixed table.
    fn run(mut self) -> Vec<usize> {
        loop {
            // The mobile operation with the narrowest frame, lowest index
            // first.
            let mobile = (0..self.fixed.len()).filter(|&op| self.fixed[op].is_none());
            let Some(op) = mobile.min_by_key(|&op| (self.late[op] - self.early[op], op)) else {
                return self.early;
            };

            // Try every feasible step for this op. Primary criterion:
            // realized area-weighted demand of the operations placed so far
            // (expected densities alone understate saturation — E[X]^2 <=
            // E[X^2] — and would park chains under already-full steps).
            // Secondary criterion: distribution-graph balance of the
            // still-mobile remainder, the force-directed ingredient. Final
            // tie-break: earliest step.
            let mut best: Option<(usize, f64, usize)> = None;
            for t in self.early[op]..=self.late[op] {
                self.fixed[op] = Some(t);
                let feasible =
                    self.topology.frames(&self.fixed, &mut self.trial_early, &mut self.trial_late);
                self.fixed[op] = None;
                if !feasible {
                    continue;
                }
                let demand = self.forced_demand();
                // A higher demand loses whatever its balance.
                if best.is_some_and(|(bd, _, _)| demand > bd) {
                    continue;
                }
                let balance = self.balance();
                let better = match best {
                    None => true,
                    Some((bd, bb, _)) => demand < bd || balance + 1e-9 < bb,
                };
                if better {
                    best = Some((demand, balance, t));
                    std::mem::swap(&mut self.best_early, &mut self.trial_early);
                    std::mem::swap(&mut self.best_late, &mut self.trial_late);
                }
            }
            let (_, _, t) = best.expect("at least the ASAP step is feasible");
            self.fixed[op] = Some(t);
            std::mem::swap(&mut self.early, &mut self.best_early);
            std::mem::swap(&mut self.late, &mut self.best_late);
        }
    }

    /// Area-weighted *forced-occupancy* lower bound on the trial frames'
    /// functional-unit demand.
    ///
    /// An operation with frame `[e..l]` and occupancy `o` occupies the
    /// steps `l..e+o` under **every** feasible choice (empty when its
    /// mobility exceeds its occupancy). Counting those forced steps sees
    /// consequences of a fixation before the affected successors are
    /// themselves placed — the signal pure expected-density balancing
    /// lacks.
    fn forced_demand(&mut self) -> usize {
        let topology = self.topology;
        for series in &mut self.forced {
            series.fill(0);
        }
        for op in 0..self.fixed.len() {
            let end = (self.trial_early[op] + topology.occupancy[op]).min(topology.n_steps);
            let start = self.trial_late[op].min(end);
            for slot in &mut self.forced[topology.class[op]][start..end] {
                *slot += 1;
            }
        }
        (0..3).map(|c| topology.area[c] * self.forced[c].iter().copied().max().unwrap_or(0)).sum()
    }

    /// Balance score of the trial frames' per-class distribution graphs
    /// (expected concurrency): area-weighted sum of squared expected
    /// concurrency, plus a strong per-class penalty on the graph's *peak*.
    /// The peak term matters because expected density understates realized
    /// concurrency (E[X]^2 <= E[X^2]): without it the search happily parks
    /// operations under an already-saturated step.
    ///
    /// Each step's expected concurrency is summed in operation order: the
    /// greedy's `1e-9` tie-break sees the rounding, so the order is part of
    /// the result.
    fn balance(&mut self) -> f64 {
        let topology = self.topology;
        let n_steps = topology.n_steps;
        for series in &mut self.distribution {
            series.fill(0.0);
        }
        for op in 0..self.fixed.len() {
            let (e, l) = (self.trial_early[op], self.trial_late[op]);
            let share = 1.0 / (l - e + 1) as f64;
            let series = &mut self.distribution[topology.class[op]];
            for t in e..=l {
                for slot in &mut series[t..(t + topology.occupancy[op]).min(n_steps)] {
                    *slot += share;
                }
            }
        }
        let mut total = 0.0;
        for (series, &area) in self.distribution.iter().zip(&topology.area) {
            let area = area as f64;
            let mut peak = 0.0f64;
            for &v in series {
                total += area * v * v;
                peak = peak.max(v);
            }
            total += area * peak * peak * n_steps as f64;
        }
        total
    }
}

impl Topology {
    /// The issue steps the descent tries for `op`: its static frame,
    /// clipped so the op's occupancy fits the schedule. Moving `op` to any
    /// step in this range and sliding its cone stays feasible, and moving
    /// it outside cannot: a later slide overruns exactly when `t` passes
    /// the op's ALAP, an earlier one underruns exactly when `t` drops below
    /// its ASAP.
    fn steps(&self, op: usize) -> std::ops::RangeInclusive<usize> {
        self.asap[op]..=self.alap[op].min(self.n_steps.saturating_sub(self.occupancy[op]))
    }

    /// A lower bound on [`Load::score`] over every precedence-feasible
    /// table, from the static frames alone.
    ///
    /// For a class and a window `[a, b)` of `len` steps, let `W` be the sum
    /// over the class's operations of their least overlap with the window.
    /// An operation's overlap is unimodal in its issue step, so the least
    /// over the frame `[asap, alap]` sits at one of its ends. Every table
    /// puts at least `W` occupied unit-steps in the window, so its peak is
    /// at least `P = ⌈W / len⌉`. A higher peak costs at least `n_steps`
    /// more than `n_steps · P + len`; a peak of exactly `P` leaves at least
    /// `W − (P − 1) · len` window steps at the peak. The class's score term
    /// is therefore at least `n_steps · P + W − (P − 1) · len` on every
    /// window with `W > 0`, and the bound takes the best window per class.
    /// Windows end by `n_steps`, so the histogram's clipping at the schedule
    /// end never hides an occupied step.
    fn demand_bound(&self) -> usize {
        let n_steps = self.n_steps;
        let mut bound = 0;
        for class in 0..3 {
            let ops: Vec<usize> =
                (0..self.class.len()).filter(|&op| self.class[op] == class).collect();
            let mut term = 0;
            for a in 0..n_steps {
                for b in a + 1..=n_steps {
                    let len = b - a;
                    let overlap = |op: usize, t: usize| {
                        (t + self.occupancy[op]).min(b).saturating_sub(t.max(a))
                    };
                    let work: usize = ops
                        .iter()
                        .map(|&op| overlap(op, self.asap[op]).min(overlap(op, self.alap[op])))
                        .sum();
                    if work > 0 {
                        let peak = work.div_ceil(len);
                        term = term.max(n_steps * peak + work - (peak - 1) * len);
                    }
                }
            }
            bound += self.area[class] * term;
        }
        bound
    }
}

/// Per-class functional-unit occupancy of one issue table, with each
/// class's `(peak, steps at peak)` kept current so that a move rescores
/// only the classes it touches.
struct Load {
    /// `histogram[class][step]`: operations occupying a unit of the class.
    histogram: [Vec<usize>; 3],
    /// Per class: the histogram's `(peak, steps at peak)`.
    peak: [(usize, usize); 3],
}

impl Load {
    /// An empty load; [`reset`](Self::reset) fills it from a table.
    fn new(topology: &Topology) -> Self {
        let n_steps = topology.n_steps;
        Load {
            histogram: [vec![0; n_steps], vec![0; n_steps], vec![0; n_steps]],
            peak: [(0, 0); 3],
        }
    }

    fn reset(&mut self, topology: &Topology, issue: &[usize]) {
        for series in &mut self.histogram {
            series.fill(0);
        }
        for (op, &start) in issue.iter().enumerate() {
            self.occupy(topology, op, start, true);
        }
        for class in 0..3 {
            self.rescore(class);
        }
    }

    /// Adds (or removes) the steps `op` occupies when issued at `start`.
    fn occupy(&mut self, topology: &Topology, op: usize, start: usize, add: bool) {
        let end = (start + topology.occupancy[op]).min(topology.n_steps);
        for slot in &mut self.histogram[topology.class[op]][start..end] {
            if add {
                *slot += 1;
            } else {
                *slot -= 1;
            }
        }
    }

    fn rescore(&mut self, class: usize) {
        let series = &self.histogram[class];
        let peak = series.iter().copied().max().unwrap_or(0);
        let at_peak = series.iter().filter(|&&v| v == peak && peak > 0).count();
        self.peak[class] = (peak, at_peak);
    }

    /// Area-weighted realized functional-unit demand, refined by how many
    /// steps sit at the peak: `sum over classes of area * (n_steps * peak +
    /// steps_at_peak)`. The refinement lets the descent accept moves that
    /// thin out a saturated peak even when a single move cannot yet lower
    /// it — escaping the plateau where two chained operations must both
    /// leave a step.
    fn score(&self, topology: &Topology) -> usize {
        (0..3)
            .map(|c| {
                let (peak, at_peak) = self.peak[c];
                topology.area[c] * (topology.n_steps * peak + at_peak)
            })
            .sum()
    }
}

/// Local-descent post-pass with its scratch state, reused across every
/// candidate of one [`fds_schedule_with`] call: a move allocates nothing.
struct Descent<'t> {
    topology: &'t Topology,
    load: Load,
    /// Operations the pending move changed, with their previous issue step.
    moved: Vec<(usize, usize)>,
    /// Cone operations waiting to be settled: bit `r` is set iff the
    /// operation of walk rank `r` is queued. Every push ranks strictly
    /// above the operation being settled, so one upward scan settles the
    /// whole cone in walk order, each operation once.
    frontier: Vec<u64>,
    /// Per class: whether the pending move touched it, and its
    /// `(peak, steps at peak)` before the move.
    touched: [bool; 3],
    saved: [(usize, usize); 3],
}

impl<'t> Descent<'t> {
    fn new(topology: &'t Topology) -> Self {
        let n = topology.class.len();
        Descent {
            topology,
            load: Load::new(topology),
            moved: Vec::with_capacity(n),
            frontier: vec![0; n.div_ceil(64)],
            touched: [false; 3],
            saved: [(0, 0); 3],
        }
    }

    /// Repeatedly moves single operations — sliding dependent chains along
    /// with them when necessary — whenever that strictly reduces the
    /// realized area-weighted demand plus the register `penalty`, if any.
    /// Operations are tried in index order, each at ascending steps; the
    /// first strict improvement is kept and the scan moves on to the next
    /// operation. Runs to a fixpoint and returns the final score; the
    /// result is never worse than its input, which must be a feasible
    /// table.
    ///
    /// Without a penalty, a move none of whose operations leaves a step at
    /// its class's peak cannot lower the score (DESIGN §16), so it is
    /// rejected before rescoring; debug builds rescore it anyway and check
    /// that.
    fn polish(&mut self, issue: &mut [usize], penalty: Option<&RegisterPenalty>) -> usize {
        let topology = self.topology;
        let peaks_decide = penalty.is_none();
        let penalty = |issue: &[usize]| penalty.map_or(0, |p| p.score(issue));
        self.load.reset(topology, issue);
        let mut best = self.load.score(topology) + penalty(issue);
        loop {
            let mut improved = false;
            for op in 0..issue.len() {
                let current = issue[op];
                for t in topology.steps(op) {
                    if t == current {
                        continue;
                    }
                    self.slide(issue, op, t);
                    let futile = peaks_decide && !self.vacates_a_peak();
                    if futile && !cfg!(debug_assertions) {
                        self.unslide(issue);
                        continue;
                    }
                    self.rescore_moved(issue);
                    let score = self.load.score(topology) + penalty(issue);
                    debug_assert!(
                        !futile || score >= best,
                        "a move that vacates no peak step scored {score}, below {best}"
                    );
                    if score < best {
                        best = score;
                        improved = true;
                        break;
                    }
                    self.revert(issue);
                }
            }
            if !improved {
                return best;
            }
        }
    }

    /// Moves `op` to `t` (a step of its static frame) and slides its cone
    /// just enough to stay feasible: descendants are pushed later when `op`
    /// moves later, ancestors pulled earlier when it moves earlier. Only
    /// operations whose step actually changes propagate further. Records
    /// every change in `moved`.
    fn slide(&mut self, issue: &mut [usize], op: usize, t: usize) {
        let topology = self.topology;
        let later = t > issue[op];
        let last = issue.len() - 1;
        // Walk order: topological when sliding later, reverse topological
        // when sliding earlier, so an operation is settled only after every
        // neighbour that can move it.
        let rank = |o: usize| if later { o } else { last - o };
        let cone = |o: usize| if later { &topology.succs[o] } else { &topology.preds[o] };

        self.moved.clear();
        self.moved.push((op, issue[op]));
        issue[op] = t;
        self.enqueue(cone(op), rank);
        let mut word = rank(op) / 64;
        while word < self.frontier.len() {
            let bits = self.frontier[word];
            if bits == 0 {
                word += 1;
                continue;
            }
            self.frontier[word] = bits & (bits - 1);
            let o = rank(word * 64 + bits.trailing_zeros() as usize);
            let step = if later {
                let ready = topology.preds[o].iter().map(|&p| issue[p] + topology.delay[p]);
                ready.fold(issue[o], usize::max)
            } else {
                let delay = topology.delay[o];
                let needed = topology.succs[o].iter().map(|&s| issue[s]);
                needed.fold(issue[o] + delay, usize::min) - delay
            };
            if step != issue[o] {
                self.moved.push((o, issue[o]));
                issue[o] = step;
                self.enqueue(cone(o), rank);
            }
        }
    }

    /// Whether the pending move, not yet applied to the histograms, takes
    /// some operation off a step where its class sits at its peak.
    fn vacates_a_peak(&self) -> bool {
        let topology = self.topology;
        self.moved.iter().any(|&(op, old)| {
            let class = topology.class[op];
            let end = (old + topology.occupancy[op]).min(topology.n_steps);
            let peak = self.load.peak[class].0;
            self.load.histogram[class][old..end].contains(&peak)
        })
    }

    /// Undoes a pending move that was never applied to the histograms.
    fn unslide(&self, issue: &mut [usize]) {
        for &(op, old) in self.moved.iter().rev() {
            issue[op] = old;
        }
    }

    /// Adds operations to the current move's frontier.
    fn enqueue(&mut self, ops: &[usize], rank: impl Fn(usize) -> usize) {
        for &o in ops {
            let r = rank(o);
            self.frontier[r / 64] |= 1 << (r % 64);
        }
    }

    /// Applies the pending move to the histograms and rescores the classes
    /// it touched.
    fn rescore_moved(&mut self, issue: &[usize]) {
        let topology = self.topology;
        self.touched = [false; 3];
        for &(op, old) in &self.moved {
            let class = topology.class[op];
            if !self.touched[class] {
                self.touched[class] = true;
                self.saved[class] = self.load.peak[class];
            }
            self.load.occupy(topology, op, old, false);
            self.load.occupy(topology, op, issue[op], true);
        }
        for class in 0..3 {
            if self.touched[class] {
                self.load.rescore(class);
            }
        }
    }

    /// Undoes the pending move in the issue table and the histograms.
    fn revert(&mut self, issue: &mut [usize]) {
        let topology = self.topology;
        for &(op, old) in self.moved.iter().rev() {
            self.load.occupy(topology, op, issue[op], false);
            self.load.occupy(topology, op, old, true);
            issue[op] = old;
        }
        for class in 0..3 {
            if self.touched[class] {
                self.load.peak[class] = self.saved[class];
            }
        }
    }
}

/// The descent score's register term: weighted register demand of an issue
/// assignment, scaled like [`Load::score`]'s peak term so the two compose.
struct RegisterPenalty<'g> {
    graph: &'g Cdfg,
    library: &'g FuLibrary,
    n_steps: usize,
    weight: usize,
}

impl<'g> RegisterPenalty<'g> {
    /// The penalty `options` ask for, or `None` when its weight is zero.
    fn new(
        graph: &'g Cdfg,
        library: &'g FuLibrary,
        n_steps: usize,
        options: &FdsOptions,
    ) -> Option<Self> {
        let weight = options.register_weight;
        (weight > 0).then_some(RegisterPenalty { graph, library, n_steps, weight })
    }

    fn score(&self, issue: &[usize]) -> usize {
        let schedule =
            Schedule::from_issue_times(self.graph, self.library, issue.to_vec(), self.n_steps)
                .expect("descent candidates are precedence-feasible");
        self.weight * self.n_steps * schedule.register_demand(self.graph, self.library)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FuClass;
    use salsa_cdfg::benchmarks::{ar_lattice, dct, diffeq, ewf, fir16};

    #[test]
    fn ewf_fds_is_valid_at_all_paper_latencies() {
        let g = ewf();
        for (lib, steps) in [
            (FuLibrary::standard(), 17),
            (FuLibrary::standard(), 19),
            (FuLibrary::standard(), 21),
            (FuLibrary::pipelined(), 17),
            (FuLibrary::pipelined(), 19),
        ] {
            let s = fds_schedule(&g, &lib, steps).unwrap();
            s.validate(&g, &lib).unwrap();
            assert_eq!(s.n_steps(), steps);
        }
    }

    #[test]
    fn ewf_relaxation_reduces_fu_demand() {
        let g = ewf();
        let lib = FuLibrary::standard();
        let tight = fds_schedule(&g, &lib, 17).unwrap().fu_demand(&g, &lib);
        let loose = fds_schedule(&g, &lib, 21).unwrap().fu_demand(&g, &lib);
        let total =
            |d: &std::collections::BTreeMap<FuClass, usize>| d[&FuClass::Alu] + d[&FuClass::Mul];
        assert!(
            total(&loose) <= total(&tight),
            "relaxed schedule must not need more units ({loose:?} vs {tight:?})"
        );
    }

    #[test]
    fn ewf_pipelining_reduces_multiplier_demand() {
        let g = ewf();
        let np = fds_schedule(&g, &FuLibrary::standard(), 17)
            .unwrap()
            .fu_demand(&g, &FuLibrary::standard())[&FuClass::Mul];
        let pp = fds_schedule(&g, &FuLibrary::pipelined(), 17)
            .unwrap()
            .fu_demand(&g, &FuLibrary::pipelined())[&FuClass::Mul];
        assert!(pp <= np, "pipelined demand {pp} > non-pipelined {np}");
    }

    #[test]
    fn fds_beats_or_matches_asap_demand() {
        let lib = FuLibrary::standard();
        for g in [dct(), diffeq(), ar_lattice(), fir16()] {
            let cp = asap(&g, &lib).length;
            let asap_sched = Schedule::from_issue_times(
                &g,
                &lib,
                asap(&g, &lib).issue,
                cp,
            )
            .unwrap();
            let fds = fds_schedule(&g, &lib, cp).unwrap();
            let total = |s: &Schedule| {
                let d = s.fu_demand(&g, &lib);
                d[&FuClass::Alu] * lib.spec(FuClass::Alu).area
                    + d[&FuClass::Mul] * lib.spec(FuClass::Mul).area
            };
            assert!(
                total(&fds) <= total(&asap_sched),
                "{}: FDS demand {} > ASAP demand {}",
                g.name(),
                total(&fds),
                total(&asap_sched)
            );
        }
    }

    #[test]
    fn memory_benchmarks_schedule_with_port_limits() {
        // The three-class sweep must produce valid schedules for the
        // memory-bound kernels, and the Mem demand column must be live.
        let lib = FuLibrary::standard();
        for g in [salsa_cdfg::benchmarks::fir_array(), salsa_cdfg::benchmarks::matmul()] {
            let cp = asap(&g, &lib).length;
            for steps in [cp, cp + 2] {
                let s = fds_schedule(&g, &lib, steps).unwrap();
                s.validate(&g, &lib).unwrap();
                let d = s.fu_demand(&g, &lib);
                assert!(d[&FuClass::Mem] >= 1, "{}: memory demand missing", g.name());
            }
            // Squeezing memory ports via a list-schedule limit stretches the
            // schedule but keeps per-step access counts within the limit.
            let mut limits = std::collections::BTreeMap::new();
            limits.insert(FuClass::Mem, 1);
            let listed = crate::list_schedule(&g, &lib, &limits).unwrap();
            listed.validate(&g, &lib).unwrap();
            assert!(listed.fu_demand(&g, &lib)[&FuClass::Mem] <= 1);
        }
    }

    #[test]
    fn too_short_is_rejected() {
        let g = dct();
        let lib = FuLibrary::standard();
        assert!(matches!(
            fds_schedule(&g, &lib, 7),
            Err(SchedError::TooShort { critical_path: 8, .. })
        ));
    }

    #[test]
    fn deterministic() {
        let g = dct();
        let lib = FuLibrary::standard();
        let a = fds_schedule(&g, &lib, 10).unwrap();
        let b = fds_schedule(&g, &lib, 10).unwrap();
        assert_eq!(a, b);
    }
}

#[cfg(test)]
mod demand_tests {
    use super::*;
    use crate::FuClass;
    use salsa_cdfg::benchmarks::dct;

    #[test]
    fn dct_critical_path_fds_demand_is_optimal_shape() {
        // At the 8-step critical path the odd-part multiplies saturate two
        // steps at 8 concurrent multipliers; FDS must not exceed that, and
        // it can save ALUs relative to ASAP.
        let g = dct();
        let lib = FuLibrary::standard();
        let fds = fds_schedule(&g, &lib, 8).unwrap();
        let d = fds.fu_demand(&g, &lib);
        assert_eq!(d[&FuClass::Mul], 8);
        assert!(d[&FuClass::Alu] <= 8);
    }
}

#[cfg(test)]
mod register_balance_tests {
    use super::*;
    use salsa_cdfg::benchmarks::{ar_lattice, dct, ewf};

    #[test]
    fn register_weight_never_increases_register_demand() {
        let lib = FuLibrary::standard();
        for g in [ewf(), dct(), ar_lattice()] {
            let cp = asap(&g, &lib).length;
            for steps in [cp + 1, cp + 3] {
                let plain = fds_schedule(&g, &lib, steps).unwrap();
                let balanced = fds_schedule_with(
                    &g,
                    &lib,
                    steps,
                    &FdsOptions { register_weight: 2 },
                )
                .unwrap();
                balanced.validate(&g, &lib).unwrap();
                assert!(
                    balanced.register_demand(&g, &lib) <= plain.register_demand(&g, &lib),
                    "{} @ {steps}: balancing must not increase register demand",
                    g.name()
                );
            }
        }
    }

    #[test]
    fn zero_weight_reproduces_default() {
        let lib = FuLibrary::standard();
        let g = dct();
        let a = fds_schedule(&g, &lib, 10).unwrap();
        let b = fds_schedule_with(&g, &lib, 10, &FdsOptions::default()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn balanced_schedules_can_save_registers() {
        // On at least one benchmark/latency the register-aware objective
        // strictly reduces register demand.
        let lib = FuLibrary::standard();
        let mut saved = false;
        for g in [ewf(), dct(), ar_lattice()] {
            let cp = asap(&g, &lib).length;
            for steps in [cp + 1, cp + 2, cp + 3] {
                let plain = fds_schedule(&g, &lib, steps).unwrap();
                let balanced =
                    fds_schedule_with(&g, &lib, steps, &FdsOptions { register_weight: 2 })
                        .unwrap();
                if balanced.register_demand(&g, &lib) < plain.register_demand(&g, &lib) {
                    saved = true;
                }
            }
        }
        assert!(saved, "register balancing should pay off somewhere");
    }
}

#[cfg(test)]
mod descent_properties {
    use super::*;
    use proptest::prelude::*;
    use salsa_cdfg::{random_cdfg, RandomCdfgConfig};

    /// Realized demand of a table, scored from scratch.
    fn realized(topology: &Topology, issue: &[usize]) -> usize {
        let mut load = Load::new(topology);
        load.reset(topology, issue);
        load.score(topology)
    }

    /// Every distinct candidate, in the best-pick's order.
    fn all_candidates(topology: &Topology) -> Vec<Vec<usize>> {
        let mut all = Vec::new();
        let _ = candidates(topology, |issue| {
            all.push(issue);
            ControlFlow::Continue(())
        });
        all
    }

    /// Area-weighted functional-unit demand of a schedule.
    fn unit_area(graph: &Cdfg, library: &FuLibrary, schedule: &Schedule) -> usize {
        let demand = schedule.fu_demand(graph, library);
        demand.iter().map(|(&class, &count)| library.spec(class).area * count).sum()
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// Polishing keeps every candidate feasible, never raises its
        /// realized demand, and reports the score a from-scratch rescoring
        /// of its result gives; the portfolio's pick never needs more unit
        /// area than ASAP.
        #[test]
        fn descent_never_worsens_a_candidate(
            seed in 0u64..10_000,
            ops in 4usize..=40,
            arrays in 0usize..=2,
            pipelined in any::<bool>(),
            slack in 0usize..=4,
        ) {
            let config = RandomCdfgConfig { ops, arrays, ..RandomCdfgConfig::default() };
            let graph = random_cdfg(&config, seed);
            let library = if pipelined { FuLibrary::pipelined() } else { FuLibrary::standard() };
            let early = asap(&graph, &library);
            let n_steps = early.length + slack;
            let topology = Topology::new(&graph, &library, n_steps);
            let mut descent = Descent::new(&topology);
            for input in all_candidates(&topology) {
                let mut polished = input.clone();
                let score = descent.polish(&mut polished, None);
                Schedule::from_issue_times(&graph, &library, polished.clone(), n_steps)
                    .map_err(|e| TestCaseError::fail(format!("polished table invalid: {e}")))?;
                prop_assert_eq!(score, realized(&topology, &polished));
                prop_assert!(score <= realized(&topology, &input));
            }
            let fds = fds_schedule(&graph, &library, n_steps).expect("slack over ASAP");
            let asap_schedule =
                Schedule::from_issue_times(&graph, &library, early.issue, n_steps).unwrap();
            prop_assert!(
                unit_area(&graph, &library, &fds) <= unit_area(&graph, &library, &asap_schedule)
            );
        }
    }

    /// Checks one design, shaped like the `large-random` benchmark's,
    /// against a best-pick over every candidate: the demand bound never
    /// exceeds the realized demand of a candidate, before or after
    /// polishing, and stopping at it picks exactly what the full best-pick
    /// picks.
    fn check_early_stop(
        seed: u64,
        ops: usize,
        arrays: usize,
        which_library: usize,
        slack: usize,
        register_weight: usize,
    ) -> Result<(), TestCaseError> {
        let config = RandomCdfgConfig {
            ops,
            inputs: 4,
            states: 4,
            arrays,
            mem_ratio: 0.15,
            ..RandomCdfgConfig::default()
        };
        let graph = random_cdfg(&config, seed);
        let library = FuLibrary::for_tests(which_library);
        let early = asap(&graph, &library);
        let n_steps = early.length + slack;
        let options = FdsOptions { register_weight };
        let topology = Topology::new(&graph, &library, n_steps);
        let bound = topology.demand_bound();
        let mut descent = Descent::new(&topology);
        let penalty = RegisterPenalty::new(&graph, &library, n_steps, &options);
        let mut best: Option<(usize, Vec<usize>)> = None;
        for mut issue in all_candidates(&topology) {
            prop_assert!(bound <= realized(&topology, &issue));
            let score = descent.polish(&mut issue, penalty.as_ref());
            prop_assert!(bound <= realized(&topology, &issue));
            if best.as_ref().is_none_or(|(b, _)| score < *b) {
                best = Some((score, issue));
            }
        }
        let (_, full) = best.expect("at least the ASAP candidate exists");
        let fds = fds_schedule_with(&graph, &library, n_steps, &options).expect("slack over ASAP");
        prop_assert_eq!(fds.issue_times(), &full[..]);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

        /// The early stop on unit demand alone, up to the benchmark's
        /// largest scalar designs. As in that benchmark, designs with
        /// arrays are capped at 69 operations: their list sweep yields well
        /// over a hundred candidates, each polished twice here.
        #[test]
        fn early_stop_matches_a_full_best_pick(
            seed in 0u64..10_000,
            ops in 4usize..=120,
            arrays in 0usize..=2,
            which_library in 0usize..3,
            slack in 0usize..=4,
        ) {
            let ops = if arrays > 0 { ops.min(69) } else { ops };
            check_early_stop(seed, ops, arrays, which_library, slack, 0)?;
        }

        /// The early stop under register weight 2. Every tried move then
        /// rebuilds the schedule's lifetimes, so the designs stay small.
        #[test]
        fn early_stop_matches_a_full_best_pick_with_register_weight(
            seed in 0u64..10_000,
            ops in 4usize..=30,
            arrays in 0usize..=2,
            which_library in 0usize..3,
            slack in 0usize..=4,
        ) {
            check_early_stop(seed, ops, arrays, which_library, slack, 2)?;
        }
    }

    /// The early stop on array designs of 100–164 operations, the sizes
    /// the benchmark's 69-operation cap leaves out, at ASAP+2 under the
    /// standard library. Too slow for a debug build: run it with
    /// `cargo test --release -p salsa-sched -- --ignored`.
    #[test]
    #[ignore = "release-only sweep of large array designs"]
    fn early_stop_matches_on_large_array_designs() {
        for (seed, ops) in (100..=164).step_by(8).enumerate() {
            for arrays in 1..=2 {
                check_early_stop(seed as u64, ops, arrays, 0, 2, 0)
                    .unwrap_or_else(|e| panic!("{ops} ops, {arrays} arrays: {e}"));
            }
        }
    }
}
