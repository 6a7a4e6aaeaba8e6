//! The validated CDFG container.

use std::collections::HashMap;
use std::fmt;

use crate::{
    ArrayDecl, ArrayId, CdfgError, OpId, OpKind, Operation, Use, Value, ValueId, ValueSource,
};

/// A validated, immutable control/data flow graph.
///
/// Operations are stored in topological order (the builder can only refer to
/// values that already exist; loop feedback is expressed by
/// [`Value::feedback_from`] rather than by graph cycles), so simple forward
/// iteration is a valid evaluation order.
///
/// Construct one with [`CdfgBuilder`](crate::CdfgBuilder) or take a benchmark
/// from [`benchmarks`](crate::benchmarks).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cdfg {
    pub(crate) name: String,
    pub(crate) ops: Vec<Operation>,
    pub(crate) values: Vec<Value>,
    pub(crate) arrays: Vec<ArrayDecl>,
}

impl Cdfg {
    /// The graph's name (used in reports and DOT output).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of operations.
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// Number of values (including constants).
    pub fn num_values(&self) -> usize {
        self.values.len()
    }

    /// Number of declared memory arrays.
    pub fn num_arrays(&self) -> usize {
        self.arrays.len()
    }

    /// Looks up an array declaration.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn array(&self, id: ArrayId) -> &ArrayDecl {
        &self.arrays[id.index()]
    }

    /// Iterates over all array declarations.
    pub fn arrays(&self) -> impl ExactSizeIterator<Item = &ArrayDecl> + '_ {
        self.arrays.iter()
    }

    /// Iterates over all array ids.
    pub fn array_ids(&self) -> impl ExactSizeIterator<Item = ArrayId> {
        (0..self.arrays.len()).map(ArrayId::from_index)
    }

    /// `true` when the graph declares at least one memory array.
    pub fn has_memory(&self) -> bool {
        !self.arrays.is_empty()
    }

    /// Iterates over the memory operations (loads and stores) in id order.
    pub fn memory_ops(&self) -> impl Iterator<Item = &Operation> + '_ {
        self.ops.iter().filter(|o| o.kind().is_memory())
    }

    /// `true` if `value` is the token output of a [`OpKind::Store`]:
    /// a placeholder that is never stored, read, fed back, or observed.
    pub fn is_store_token(&self, value: ValueId) -> bool {
        self.values[value.index()]
            .source
            .op()
            .is_some_and(|op| self.ops[op.index()].kind == OpKind::Store)
    }

    /// Looks up an operation.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn op(&self, id: OpId) -> &Operation {
        &self.ops[id.index()]
    }

    /// Looks up a value.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn value(&self, id: ValueId) -> &Value {
        &self.values[id.index()]
    }

    /// Iterates over all operations in topological order.
    pub fn ops(&self) -> impl ExactSizeIterator<Item = &Operation> + '_ {
        self.ops.iter()
    }

    /// Iterates over all values in creation order.
    pub fn values(&self) -> impl ExactSizeIterator<Item = &Value> + '_ {
        self.values.iter()
    }

    /// Iterates over all operation ids.
    pub fn op_ids(&self) -> impl ExactSizeIterator<Item = OpId> {
        (0..self.ops.len()).map(OpId::from_index)
    }

    /// Iterates over all value ids.
    pub fn value_ids(&self) -> impl ExactSizeIterator<Item = ValueId> {
        (0..self.values.len()).map(ValueId::from_index)
    }

    /// The ids of all loop-carried state values.
    pub fn state_values(&self) -> impl Iterator<Item = ValueId> + '_ {
        self.values.iter().filter(|v| v.is_state()).map(|v| v.id)
    }

    /// The ids of all primary-output values.
    pub fn output_values(&self) -> impl Iterator<Item = ValueId> + '_ {
        self.values.iter().filter(|v| v.is_output).map(|v| v.id)
    }

    /// Values that feed a state value at the iteration boundary, with the
    /// states they feed. One value may feed several states.
    pub fn feedback_sources(&self) -> impl Iterator<Item = (ValueId, ValueId)> + '_ {
        self.values
            .iter()
            .filter_map(|v| v.feedback_from.map(|src| (src, v.id)))
    }

    /// Returns `true` if `value` is the feedback source of at least one
    /// state value (and must therefore stay live through the end of the
    /// schedule).
    pub fn feeds_state(&self, value: ValueId) -> bool {
        self.values.iter().any(|v| v.feedback_from == Some(value))
    }

    /// Operation counts by kind plus value-category counts.
    pub fn stats(&self) -> CdfgStats {
        let mut by_kind = HashMap::new();
        for op in &self.ops {
            *by_kind.entry(op.kind).or_insert(0usize) += 1;
        }
        CdfgStats {
            ops: self.ops.len(),
            ops_by_kind: by_kind,
            values: self.values.len(),
            inputs: self
                .values
                .iter()
                .filter(|v| v.source == ValueSource::Input && !v.is_state())
                .count(),
            states: self.values.iter().filter(|v| v.is_state()).count(),
            consts: self.values.iter().filter(|v| v.is_const()).count(),
            outputs: self.values.iter().filter(|v| v.is_output).count(),
            arrays: self.arrays.len(),
        }
    }

    /// Checks all structural invariants. The builder calls this from
    /// [`finish`](crate::CdfgBuilder::finish); it is public so that tests and
    /// tools that mutate graphs can re-validate.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant; see [`CdfgError`].
    pub fn validate(&self) -> Result<(), CdfgError> {
        if self.ops.is_empty() {
            return Err(CdfgError::Empty);
        }
        let n_values = self.values.len();
        for op in &self.ops {
            for input in op.inputs {
                if input.index() >= n_values {
                    return Err(CdfgError::UnknownValue { value: input });
                }
                if input == op.output {
                    return Err(CdfgError::SelfLoop { op: op.id });
                }
            }
            if op.output.index() >= n_values {
                return Err(CdfgError::UnknownValue { value: op.output });
            }
            if self.values[op.output.index()].source != ValueSource::Op(op.id) {
                return Err(CdfgError::ProducerMismatch { value: op.output });
            }
        }
        for value in &self.values {
            if let ValueSource::Op(op) = value.source {
                if op.index() >= self.ops.len() || self.ops[op.index()].output != value.id {
                    return Err(CdfgError::ProducerMismatch { value: value.id });
                }
            }
            if let Some(src) = value.feedback_from {
                if src.index() >= n_values {
                    return Err(CdfgError::UnknownValue { value: src });
                }
                if self.values[src.index()].is_const() {
                    return Err(CdfgError::FeedbackFromConst { state: value.id });
                }
                if value.source != ValueSource::Input {
                    return Err(CdfgError::FeedbackIntoNonState { value: value.id });
                }
            }
            if value.is_const() && value.is_output {
                return Err(CdfgError::ConstOutput { value: value.id });
            }
            let fed_back = self.feeds_state(value.id);
            if self.is_store_token(value.id) {
                // Store tokens are pure placeholders: they must stay
                // unobservable (and are therefore exempt from the dead-value
                // rule — an empty lifetime is their defining property).
                if !value.uses.is_empty() || value.is_output || fed_back {
                    return Err(CdfgError::StoreTokenUsed { value: value.id });
                }
            } else if !value.is_const()
                && value.uses.is_empty()
                && !value.is_output
                && !fed_back
            {
                return Err(CdfgError::DeadValue { value: value.id });
            }
        }
        for array in &self.arrays {
            if array.len == 0 || array.init.len() > array.len {
                return Err(CdfgError::BadArrayShape { array: array.id });
            }
        }
        let mut reads = vec![0usize; self.arrays.len()];
        let mut writes = vec![0usize; self.arrays.len()];
        for op in &self.ops {
            match (op.kind.is_memory(), op.array) {
                (true, Some(array)) => {
                    if array.index() >= self.arrays.len() {
                        return Err(CdfgError::UnknownArray { op: op.id });
                    }
                    if op.kind == OpKind::Load {
                        reads[array.index()] += 1;
                    } else {
                        writes[array.index()] += 1;
                    }
                }
                (false, None) => {}
                _ => return Err(CdfgError::ArrayOpMismatch { op: op.id }),
            }
        }
        for array in &self.arrays {
            let (r, w) = (reads[array.id.index()], writes[array.id.index()]);
            if r > 0 && w > 0 {
                // Read-XOR-write per iteration keeps every access order
                // semantically equivalent, so scheduling needs no
                // memory-dependence edges.
                return Err(CdfgError::ArrayReadWrite { array: array.id });
            }
            if r == 0 && w == 0 {
                return Err(CdfgError::DeadArray { array: array.id });
            }
        }
        Ok(())
    }

    /// Recomputes the per-value use lists from the operation table. Used by
    /// the builder; exposed for tools that edit graphs in place.
    pub fn rebuild_uses(&mut self) {
        for value in &mut self.values {
            value.uses.clear();
        }
        for op_index in 0..self.ops.len() {
            let op = self.ops[op_index].clone();
            for (port, input) in op.inputs.into_iter().enumerate() {
                self.values[input.index()].uses.push(Use { op: op.id, port });
            }
        }
    }
}

impl fmt::Display for Cdfg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "cdfg {} ({})", self.name, self.stats())?;
        for op in &self.ops {
            writeln!(f, "  {op}")?;
        }
        for (src, state) in self.feedback_sources() {
            writeln!(f, "  {state} <= {src}  (loop feedback)")?;
        }
        Ok(())
    }
}

/// Summary statistics of a CDFG, as reported by [`Cdfg::stats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CdfgStats {
    /// Total operation count.
    pub ops: usize,
    /// Operation count per kind.
    pub ops_by_kind: HashMap<OpKind, usize>,
    /// Total value count (including constants).
    pub values: usize,
    /// Primary inputs that are not loop-carried states.
    pub inputs: usize,
    /// Loop-carried state values.
    pub states: usize,
    /// Constant values.
    pub consts: usize,
    /// Primary outputs.
    pub outputs: usize,
    /// Declared memory arrays.
    pub arrays: usize,
}

impl CdfgStats {
    /// Count of operations of one kind.
    pub fn count(&self, kind: OpKind) -> usize {
        self.ops_by_kind.get(&kind).copied().unwrap_or(0)
    }
}

impl fmt::Display for CdfgStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ops [{} add, {} sub, {} mul, {} cmp], {} in, {} state, {} const, {} out",
            self.ops,
            self.count(OpKind::Add),
            self.count(OpKind::Sub),
            self.count(OpKind::Mul),
            self.count(OpKind::Lt),
            self.inputs,
            self.states,
            self.consts,
            self.outputs,
        )?;
        if self.arrays > 0 {
            write!(
                f,
                ", {} array [{} ld, {} st]",
                self.arrays,
                self.count(OpKind::Load),
                self.count(OpKind::Store),
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CdfgBuilder;

    fn tiny() -> Cdfg {
        let mut b = CdfgBuilder::new("tiny");
        let x = b.input("x");
        let s = b.state("s");
        let k = b.constant(2);
        let m = b.mul(x, k);
        let y = b.add(m, s);
        b.feedback(s, y);
        b.mark_output(y, "y");
        b.finish().expect("tiny graph is valid")
    }

    #[test]
    fn stats_and_accessors() {
        let g = tiny();
        let st = g.stats();
        assert_eq!(st.ops, 2);
        assert_eq!(st.count(OpKind::Mul), 1);
        assert_eq!(st.count(OpKind::Add), 1);
        assert_eq!(st.inputs, 1);
        assert_eq!(st.states, 1);
        assert_eq!(st.consts, 1);
        assert_eq!(st.outputs, 1);
        assert_eq!(g.state_values().count(), 1);
        assert_eq!(g.output_values().count(), 1);
        assert_eq!(g.feedback_sources().count(), 1);
        assert!(!st.to_string().is_empty());
        assert!(g.to_string().contains("loop feedback"));
    }

    #[test]
    fn uses_are_derived() {
        let g = tiny();
        let x = g.values().find(|v| v.label() == "x").unwrap();
        assert_eq!(x.uses().len(), 1);
        assert_eq!(x.uses()[0].port, 0);
        let y = g.output_values().next().unwrap();
        assert!(g.feeds_state(y));
    }

    #[test]
    fn validate_detects_dead_value() {
        let mut g = tiny();
        // Forge a dead value.
        let id = ValueId::from_index(g.values.len());
        g.values.push(Value {
            id,
            source: ValueSource::Input,
            label: "dead".into(),
            uses: Vec::new(),
            feedback_from: None,
            is_output: false,
        });
        assert_eq!(g.validate(), Err(CdfgError::DeadValue { value: id }));
    }

    #[test]
    fn validate_detects_producer_mismatch() {
        let mut g = tiny();
        let first_out = g.ops[0].output;
        g.values[first_out.index()].source = ValueSource::Input;
        assert!(matches!(g.validate(), Err(CdfgError::ProducerMismatch { .. })));
    }
}
