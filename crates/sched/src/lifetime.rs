//! Value lifetime analysis: which control steps each value must be stored.
//!
//! This is the substrate for the SALSA model's *value segments*: a stored
//! lifetime of `k` steps is exactly `k` one-step segments, each of which the
//! extended binding model may place in a different register.
//!
//! Storage rules (see DESIGN.md §2):
//!
//! * a value is stored from its **birth** step through its **last read**;
//! * a value that feeds a loop-carried state stays stored through the final
//!   step, so it can be transferred into the state's register at the
//!   iteration boundary;
//! * a value born exactly at the boundary (`birth == n_steps`) has no
//!   same-iteration storage — its producer writes straight into the state's
//!   step-0 register (or, for a pure output, into a register observed at
//!   step 0 of the next iteration, represented as a wrapped segment);
//! * constants are never stored.

use salsa_cdfg::{Cdfg, ValueId};

use crate::{FuLibrary, Schedule};

/// The stored lifetime of one value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lifetime {
    value: ValueId,
    birth: usize,
    steps: Vec<usize>,
    feeds: Vec<ValueId>,
}

impl Lifetime {
    /// The value this lifetime describes.
    pub fn value(&self) -> ValueId {
        self.value
    }

    /// Birth step (may equal `n_steps` for boundary-born values).
    pub fn birth(&self) -> usize {
        self.birth
    }

    /// The chronological sequence of control steps during which the value is
    /// stored. Each entry is one *segment* in the SALSA model. Usually
    /// contiguous `birth..=end`; a boundary-born output contributes the
    /// single wrapped step `0`.
    pub fn steps(&self) -> &[usize] {
        &self.steps
    }

    /// States fed from this value at the iteration boundary.
    pub fn feeds(&self) -> &[ValueId] {
        &self.feeds
    }

    /// `true` if the value requires no same-iteration storage (boundary-born
    /// pure feedback source).
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Number of segments.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// `true` if the value is stored during `step`.
    pub fn live_at(&self, step: usize) -> bool {
        self.steps.contains(&step)
    }

    /// First stored step, if any.
    pub fn first_step(&self) -> Option<usize> {
        self.steps.first().copied()
    }
}

/// Lifetimes of all stored values of a scheduled CDFG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lifetimes {
    per_value: Vec<Option<Lifetime>>,
    live_per_step: Vec<usize>,
}

impl Lifetimes {
    /// The lifetime of a value (`None` for constants).
    ///
    /// # Panics
    ///
    /// Panics if `value` is out of range.
    pub fn get(&self, value: ValueId) -> Option<&Lifetime> {
        self.per_value[value.index()].as_ref()
    }

    /// Iterates over all stored lifetimes.
    pub fn iter(&self) -> impl Iterator<Item = &Lifetime> + '_ {
        self.per_value.iter().filter_map(|l| l.as_ref())
    }

    /// Number of values stored during `step`.
    ///
    /// # Panics
    ///
    /// Panics if `step` is out of range.
    pub fn live_at(&self, step: usize) -> usize {
        self.live_per_step[step]
    }

    /// The maximum number of simultaneously stored segments — the minimum
    /// register count the schedule admits.
    pub fn max_live(&self) -> usize {
        self.live_per_step.iter().copied().max().unwrap_or(0)
    }

    /// Per-step live counts.
    pub fn live_profile(&self) -> &[usize] {
        &self.live_per_step
    }
}

/// Computes the stored lifetime of every value of a scheduled CDFG.
///
/// # Panics
///
/// Panics if the schedule is inconsistent with the graph (callers validate
/// schedules first).
pub fn lifetimes(graph: &Cdfg, schedule: &Schedule, library: &FuLibrary) -> Lifetimes {
    let n = schedule.n_steps();
    let mut per_value: Vec<Option<Lifetime>> = vec![None; graph.num_values()];
    let mut live_per_step = vec![0usize; n];

    // Which values feed which states.
    let mut feeds: Vec<Vec<ValueId>> = vec![Vec::new(); graph.num_values()];
    for (src, state) in graph.feedback_sources() {
        feeds[src.index()].push(state);
    }

    for value in graph.values() {
        let Some(birth) = schedule.birth(graph, library, value.id()) else {
            continue; // constant
        };
        assert!(birth <= n, "value {} born after the schedule ends", value.id());
        let last_read = schedule.last_read(graph, value.id());
        let value_feeds = std::mem::take(&mut feeds[value.id().index()]);

        let steps: Vec<usize> = if graph.is_store_token(value.id()) {
            // A store's placeholder token is never observable: the write
            // happens inside the memory bank, so the token needs no
            // register at any step.
            Vec::new()
        } else if !value_feeds.is_empty() {
            // Hold until the boundary transfer at the end of step n-1.
            if birth == n {
                Vec::new()
            } else {
                (birth..n).collect()
            }
        } else if birth == n {
            // Boundary-born pure output: observed in a register during
            // step 0 of the next iteration (wrapped segment).
            debug_assert!(value.is_output(), "boundary-born value must be output or feedback");
            vec![0]
        } else {
            let end = last_read.unwrap_or(birth).max(birth);
            (birth..=end).collect()
        };

        for &s in &steps {
            live_per_step[s] += 1;
        }
        per_value[value.id().index()] =
            Some(Lifetime { value: value.id(), birth, steps, feeds: value_feeds });
    }

    Lifetimes { per_value, live_per_step }
}

#[cfg(test)]
mod tests {
    use super::*;
    use salsa_cdfg::CdfgBuilder;

    /// x(in) -> m = x*k at step 0 (born 2), y = m + s at step 2 (born 3),
    /// s is a state fed from y, n = 3.
    fn looped() -> (Cdfg, Schedule, FuLibrary) {
        let mut b = CdfgBuilder::new("loop");
        let x = b.input("x");
        let s = b.state("s");
        let k = b.constant(3);
        let m = b.mul(x, k);
        let y = b.add(m, s);
        b.feedback(s, y);
        b.mark_output(y, "y");
        let g = b.finish().unwrap();
        let lib = FuLibrary::standard();
        let sched = Schedule::from_issue_times(&g, &lib, vec![0, 2], 3).unwrap();
        (g, sched, lib)
    }

    #[test]
    fn boundary_born_feedback_source_has_empty_lifetime() {
        let (g, sched, lib) = looped();
        let lt = lifetimes(&g, &sched, &lib);
        let y = g.output_values().next().unwrap();
        let y_lt = lt.get(y).unwrap();
        // y is born at step 3 == n: written straight into the state's
        // step-0 register.
        assert_eq!(y_lt.birth(), 3);
        assert!(y_lt.is_empty());
        assert_eq!(y_lt.feeds().len(), 1);
    }

    #[test]
    fn state_lives_from_zero_to_last_read() {
        let (g, sched, lib) = looped();
        let lt = lifetimes(&g, &sched, &lib);
        let s = g.state_values().next().unwrap();
        let s_lt = lt.get(s).unwrap();
        assert_eq!(s_lt.steps(), &[0, 1, 2], "state read at step 2");
        assert!(s_lt.live_at(1));
        assert!(!s_lt.is_empty());
        assert_eq!(s_lt.len(), 3);
    }

    #[test]
    fn input_lives_to_last_read_and_const_is_unstored() {
        let (g, sched, lib) = looped();
        let lt = lifetimes(&g, &sched, &lib);
        let x = g.values().find(|v| v.label() == "x").unwrap().id();
        assert_eq!(lt.get(x).unwrap().steps(), &[0], "x read only at step 0");
        let k = g.values().find(|v| v.is_const()).unwrap().id();
        assert!(lt.get(k).is_none());
    }

    #[test]
    fn intermediate_value_spans_birth_to_read() {
        let (g, sched, lib) = looped();
        let lt = lifetimes(&g, &sched, &lib);
        let m = g.ops().next().unwrap().output();
        assert_eq!(lt.get(m).unwrap().steps(), &[2], "m born step 2, read step 2");
    }

    #[test]
    fn live_profile_and_demand() {
        let (g, sched, lib) = looped();
        let lt = lifetimes(&g, &sched, &lib);
        // step 0: x, s           -> 2
        // step 1: s              -> 1
        // step 2: s, m           -> 2
        assert_eq!(lt.live_profile(), &[2, 1, 2]);
        assert_eq!(lt.max_live(), 2);
        assert_eq!(sched.register_demand(&g, &lib), 2);
    }

    #[test]
    fn feedback_source_read_early_still_held_to_boundary() {
        // y = m + s issued at step 2; if instead the feedback source were
        // born earlier it must be held to the boundary. Use a 5-step
        // schedule: y born at 3+... reschedule: issue add at 2 in n=5.
        let mut b = CdfgBuilder::new("hold");
        let x = b.input("x");
        let s = b.state("s");
        let y = b.add(x, s);
        let z = b.add(y, x);
        b.feedback(s, y);
        b.mark_output(z, "z");
        let g = b.finish().unwrap();
        let lib = FuLibrary::standard();
        let sched = Schedule::from_issue_times(&g, &lib, vec![0, 1], 4).unwrap();
        let lt = lifetimes(&g, &sched, &lib);
        let y_id = g.ops().next().unwrap().output();
        // y born at 1, read at 1... wait, z reads y at step 1; y feeds s,
        // so y is stored through step 3 (the final step).
        assert_eq!(lt.get(y_id).unwrap().steps(), &[1, 2, 3]);
    }

    #[test]
    fn store_token_has_no_stored_steps() {
        let mut b = CdfgBuilder::new("tok");
        let x = b.input("x");
        let a = b.array("buf", 4);
        let addr = b.constant(0);
        let y = b.add(x, x);
        b.store(a, addr, y);
        b.mark_output(y, "y");
        let g = b.finish().unwrap();
        let lib = FuLibrary::standard();
        // add at 0 (y born 1), store at 1 -> token born 2, n = 2.
        let sched = Schedule::from_issue_times(&g, &lib, vec![0, 1], 2).unwrap();
        let lt = lifetimes(&g, &sched, &lib);
        let token = g.ops().find(|o| o.kind() == salsa_cdfg::OpKind::Store).unwrap().output();
        let tok_lt = lt.get(token).unwrap();
        assert!(tok_lt.is_empty(), "store token must not occupy a register");
        // y itself is stored from birth through its store-read at step 1.
        assert_eq!(lt.get(y).unwrap().steps(), &[1]);
    }

    #[test]
    fn boundary_born_pure_output_wraps_to_step_zero() {
        let mut b = CdfgBuilder::new("wrap");
        let x = b.input("x");
        let y = b.add(x, x);
        b.mark_output(y, "y");
        let g = b.finish().unwrap();
        let lib = FuLibrary::standard();
        let sched = Schedule::from_issue_times(&g, &lib, vec![0], 1).unwrap();
        let lt = lifetimes(&g, &sched, &lib);
        let y_id = g.ops().next().unwrap().output();
        let y_lt = lt.get(y_id).unwrap();
        assert_eq!(y_lt.birth(), 1);
        assert_eq!(y_lt.steps(), &[0], "wrapped segment at step 0");
    }
}
