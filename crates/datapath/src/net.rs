//! Point-to-point connections and incremental multiplexer accounting.

use std::collections::BTreeSet;
use std::fmt;

use crate::{FuId, Port, RegId};

/// A driving module output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Source {
    /// A functional unit's result output.
    FuOut(FuId),
    /// A register's output.
    RegOut(RegId),
}

impl fmt::Display for Source {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Source::FuOut(fu) => write!(f, "{fu}.out"),
            Source::RegOut(r) => write!(f, "{r}.out"),
        }
    }
}

/// A driven module input: the place a multiplexer sits in the point-to-point
/// interconnection style.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Sink {
    /// A functional unit operand port.
    FuIn(FuId, Port),
    /// A register's data input.
    RegIn(RegId),
}

impl fmt::Display for Sink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Sink::FuIn(fu, port) => write!(f, "{fu}.{port}"),
            Sink::RegIn(r) => write!(f, "{r}.in"),
        }
    }
}

/// Per-sink connection state: one use-count slot per possible source.
///
/// Sources are dense (`FuId`/`RegId` index spaces), so a sink's incoming
/// connections live in two flat refcount vectors indexed by source id,
/// grown on demand. `fanin` caches the number of distinct live sources.
#[derive(Debug, Default)]
struct SinkRow {
    /// Use count per `Source::FuOut(fu)`, indexed by `fu.index()`.
    fu_uses: Vec<u32>,
    /// Use count per `Source::RegOut(r)`, indexed by `r.index()`.
    reg_uses: Vec<u32>,
    /// Distinct sources with a nonzero use count.
    fanin: u32,
}

impl Clone for SinkRow {
    fn clone(&self) -> Self {
        SinkRow { fu_uses: self.fu_uses.clone(), reg_uses: self.reg_uses.clone(), fanin: self.fanin }
    }

    /// Reuses the destination's use-count buffers.
    fn clone_from(&mut self, source: &Self) {
        self.fu_uses.clone_from(&source.fu_uses);
        self.reg_uses.clone_from(&source.reg_uses);
        self.fanin = source.fanin;
    }
}

impl SinkRow {
    fn count(&self, source: Source) -> u32 {
        match source {
            Source::FuOut(fu) => self.fu_uses.get(fu.index()).copied().unwrap_or(0),
            Source::RegOut(r) => self.reg_uses.get(r.index()).copied().unwrap_or(0),
        }
    }

    fn slot_mut(&mut self, source: Source) -> &mut u32 {
        let (uses, idx) = match source {
            Source::FuOut(fu) => (&mut self.fu_uses, fu.index()),
            Source::RegOut(r) => (&mut self.reg_uses, r.index()),
        };
        if uses.len() <= idx {
            uses.resize(idx + 1, 0);
        }
        &mut uses[idx]
    }

    /// Exchanges the `FuOut(a)` and `FuOut(z)` columns. The row's
    /// distinct-source count is unchanged.
    fn swap_fu_sources(&mut self, a: usize, z: usize) {
        let (lo, hi) = (a.min(z), a.max(z));
        if lo >= self.fu_uses.len() {
            return;
        }
        if hi >= self.fu_uses.len() {
            self.fu_uses.resize(hi + 1, 0);
        }
        self.fu_uses.swap(lo, hi);
    }

    fn live_sources(&self) -> impl Iterator<Item = (Source, usize)> + '_ {
        let fus = self
            .fu_uses
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (Source::FuOut(FuId::from_index(i)), n as usize));
        let regs = self
            .reg_uses
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (Source::RegOut(RegId::from_index(i)), n as usize));
        fus.chain(regs)
    }
}

/// Refcounted set of (source, sink) connections with running
/// equivalent-2-1-multiplexer and connection counts.
///
/// Every data transfer of an allocation asserts one connection use; a sink
/// with `k` distinct sources costs `k - 1` equivalent 2-1 multiplexers
/// (paper Tables 2-3 report this unit). Sinks and sources are dense id
/// spaces known from the `Datapath` pool, so storage is flat and
/// index-keyed: `add`/`remove`/`fanin`/`contains` are O(1) array
/// operations and `sources_of` walks only the queried sink's row, which
/// keeps the allocator's per-move connection accounting off every hot
/// path profile.
#[derive(Debug, Default)]
pub struct ConnectionMatrix {
    /// Rows for `Sink::FuIn(fu, port)`, indexed by `2 * fu + port`.
    fu_sinks: Vec<SinkRow>,
    /// Rows for `Sink::RegIn(r)`, indexed by `r`.
    reg_sinks: Vec<SinkRow>,
    connections: usize,
    mux_equiv: usize,
}

impl Clone for ConnectionMatrix {
    fn clone(&self) -> Self {
        ConnectionMatrix {
            fu_sinks: self.fu_sinks.clone(),
            reg_sinks: self.reg_sinks.clone(),
            connections: self.connections,
            mux_equiv: self.mux_equiv,
        }
    }

    /// Reuses every row buffer of the destination, so restoring a search's
    /// best binding ([`Clone::clone_from`] on the binding) allocates
    /// nothing once the rows have grown.
    fn clone_from(&mut self, source: &Self) {
        self.fu_sinks.clone_from(&source.fu_sinks);
        self.reg_sinks.clone_from(&source.reg_sinks);
        self.connections = source.connections;
        self.mux_equiv = source.mux_equiv;
    }
}

fn fu_sink_index(fu: FuId, port: Port) -> usize {
    2 * fu.index() + port.index()
}

impl ConnectionMatrix {
    /// An empty matrix.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty matrix with rows pre-sized for a datapath pool of
    /// `fus` functional units and `regs` registers, so the per-move hot
    /// path never grows the row tables.
    pub fn with_capacity(fus: usize, regs: usize) -> Self {
        let mut m = Self::default();
        m.fu_sinks.resize_with(2 * fus, SinkRow::default);
        m.reg_sinks.resize_with(regs, SinkRow::default);
        m
    }

    fn row(&self, sink: Sink) -> Option<&SinkRow> {
        match sink {
            Sink::FuIn(fu, port) => self.fu_sinks.get(fu_sink_index(fu, port)),
            Sink::RegIn(r) => self.reg_sinks.get(r.index()),
        }
    }

    fn row_mut(&mut self, sink: Sink) -> &mut SinkRow {
        let (rows, idx) = match sink {
            Sink::FuIn(fu, port) => (&mut self.fu_sinks, fu_sink_index(fu, port)),
            Sink::RegIn(r) => (&mut self.reg_sinks, r.index()),
        };
        if rows.len() <= idx {
            rows.resize_with(idx + 1, SinkRow::default);
        }
        &mut rows[idx]
    }

    /// Asserts one use of the connection `source -> sink`.
    pub fn add(&mut self, source: Source, sink: Sink) {
        let fanin_after = {
            let row = self.row_mut(sink);
            let count = row.slot_mut(source);
            *count += 1;
            if *count > 1 {
                return;
            }
            row.fanin += 1;
            row.fanin
        };
        self.connections += 1;
        if fanin_after >= 2 {
            self.mux_equiv += 1;
        }
    }

    /// Retracts one use of the connection `source -> sink`.
    ///
    /// # Panics
    ///
    /// Panics if the connection has no outstanding uses (an allocator
    /// bookkeeping bug).
    pub fn remove(&mut self, source: Source, sink: Sink) {
        let fanin_before = {
            let row = self.row_mut(sink);
            let count = row.slot_mut(source);
            if *count == 0 {
                panic!("removing unknown connection {source} -> {sink}");
            }
            *count -= 1;
            if *count > 0 {
                return;
            }
            let before = row.fanin;
            row.fanin -= 1;
            before
        };
        self.connections -= 1;
        if fanin_before >= 2 {
            self.mux_equiv -= 1;
        }
    }

    /// Relabels unit `a` as `z` and `z` as `a` in every connection: the
    /// `FuIn` rows of the two units trade places, and so do their
    /// `FuOut` columns in every row. Fan-ins, the connection count and
    /// the mux count are unchanged, so no running total moves. Swapping
    /// twice is the identity.
    pub fn swap_fus(&mut self, a: FuId, z: FuId) {
        let hi = a.index().max(z.index());
        if self.fu_sinks.len() < 2 * hi + 2 {
            self.fu_sinks.resize_with(2 * hi + 2, SinkRow::default);
        }
        for port in 0..2 {
            self.fu_sinks.swap(2 * a.index() + port, 2 * z.index() + port);
        }
        for row in self.fu_sinks.iter_mut().chain(&mut self.reg_sinks) {
            row.swap_fu_sources(a.index(), z.index());
        }
    }

    /// Total equivalent 2-1 multiplexers: `sum over sinks of (fanin - 1)`.
    pub fn mux_equiv(&self) -> usize {
        self.mux_equiv
    }

    /// The largest fan-in of any sink — the widest multiplexer.
    pub fn max_fanin(&self) -> usize {
        self.fu_sinks
            .iter()
            .chain(&self.reg_sinks)
            .map(|row| row.fanin as usize)
            .max()
            .unwrap_or(0)
    }

    /// Worst-case multiplexer depth on any operand/load path, in 2-1 mux
    /// levels (`ceil(log2(max fan-in))`): a proxy for the interconnect
    /// delay the controller must accommodate (cf. Huang & Wolf, "How
    /// Datapath Allocation Affects Controller Delay").
    pub fn mux_depth(&self) -> u32 {
        match self.max_fanin() {
            0 | 1 => 0,
            k => (k as u32).next_power_of_two().trailing_zeros(),
        }
    }

    /// Number of distinct connections (wires).
    pub fn connections(&self) -> usize {
        self.connections
    }

    /// Distinct fan-in of one sink.
    pub fn fanin(&self, sink: Sink) -> usize {
        self.row(sink).map_or(0, |row| row.fanin as usize)
    }

    /// Returns `true` if the connection exists (with any use count).
    pub fn contains(&self, source: Source, sink: Sink) -> bool {
        self.uses(source, sink) > 0
    }

    /// The outstanding uses of the connection `source -> sink` (0 when
    /// it does not exist).
    pub fn uses(&self, source: Source, sink: Sink) -> usize {
        self.row(sink).map_or(0, |row| row.count(source) as usize)
    }

    /// The distinct sources driving a sink. A per-sink row walk, not a
    /// scan of every connection in the matrix.
    pub fn sources_of(&self, sink: Sink) -> BTreeSet<Source> {
        self.row(sink)
            .into_iter()
            .flat_map(|row| row.live_sources().map(|(src, _)| src))
            .collect()
    }

    /// Live cells sorted by `(Source, Sink)` — the old map ordering, kept
    /// so display/dot output stays deterministic.
    fn cells(&self) -> Vec<(Source, Sink, usize)> {
        let fu_rows = self.fu_sinks.iter().enumerate().map(|(i, row)| {
            let sink = Sink::FuIn(FuId::from_index(i / 2), Port::from_index(i % 2));
            (sink, row)
        });
        let reg_rows = self
            .reg_sinks
            .iter()
            .enumerate()
            .map(|(i, row)| (Sink::RegIn(RegId::from_index(i)), row));
        let mut cells: Vec<(Source, Sink, usize)> = fu_rows
            .chain(reg_rows)
            .flat_map(|(sink, row)| row.live_sources().map(move |(src, n)| (src, sink, n)))
            .collect();
        cells.sort_unstable_by_key(|&(src, sink, _)| (src, sink));
        cells
    }

    /// Iterates over distinct connections with their use counts, ordered
    /// by `(Source, Sink)`.
    pub fn iter(&self) -> impl Iterator<Item = (Source, Sink, usize)> + '_ {
        self.cells().into_iter()
    }

    /// The incremental mux cost of using `source -> sink`: 0 if the
    /// connection already exists or the sink is currently undriven, 1 if a
    /// new mux input would be required. Used by constructive allocators to
    /// pick cheap bindings.
    pub fn added_mux_cost(&self, source: Source, sink: Sink) -> usize {
        match self.row(sink) {
            Some(row) if row.fanin > 0 => usize::from(row.count(source) == 0),
            _ => 0,
        }
    }
}

/// Logical equality: two matrices are equal when they hold the same live
/// connections with the same use counts, regardless of how far their row
/// tables have grown. (A matrix that asserted and fully retracted a
/// high-indexed sink compares equal to a fresh one.)
impl PartialEq for ConnectionMatrix {
    fn eq(&self, other: &Self) -> bool {
        self.connections == other.connections
            && self.mux_equiv == other.mux_equiv
            && self.cells() == other.cells()
    }
}

impl Eq for ConnectionMatrix {}

impl fmt::Display for ConnectionMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} connections, {} equivalent 2-1 muxes",
            self.connections(),
            self.mux_equiv()
        )?;
        for (src, sink, n) in self.iter() {
            writeln!(f, "  {src} -> {sink} (x{n})")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: usize) -> RegId {
        RegId::from_index(i)
    }
    fn f(i: usize) -> FuId {
        FuId::from_index(i)
    }

    #[test]
    fn mux_counting_is_fanin_minus_one() {
        let mut m = ConnectionMatrix::new();
        let sink = Sink::FuIn(f(0), Port::Left);
        m.add(Source::RegOut(r(0)), sink);
        assert_eq!(m.mux_equiv(), 0, "single source needs no mux");
        m.add(Source::RegOut(r(1)), sink);
        assert_eq!(m.mux_equiv(), 1);
        m.add(Source::RegOut(r(2)), sink);
        assert_eq!(m.mux_equiv(), 2, "3-input mux = two 2-1 muxes");
        assert_eq!(m.connections(), 3);
        assert_eq!(m.fanin(sink), 3);
    }

    #[test]
    fn fanin_width_and_depth() {
        let mut m = ConnectionMatrix::new();
        let sink = Sink::RegIn(r(9));
        assert_eq!(m.mux_depth(), 0);
        m.add(Source::RegOut(r(0)), sink);
        assert_eq!((m.max_fanin(), m.mux_depth()), (1, 0), "direct wire");
        m.add(Source::RegOut(r(1)), sink);
        assert_eq!((m.max_fanin(), m.mux_depth()), (2, 1));
        m.add(Source::RegOut(r(2)), sink);
        assert_eq!((m.max_fanin(), m.mux_depth()), (3, 2), "ceil(log2 3) = 2");
        m.add(Source::RegOut(r(3)), sink);
        m.add(Source::RegOut(r(4)), sink);
        assert_eq!((m.max_fanin(), m.mux_depth()), (5, 3), "ceil(log2 5) = 3");
    }

    #[test]
    fn refcounting_keeps_shared_connections() {
        let mut m = ConnectionMatrix::new();
        let sink = Sink::RegIn(r(3));
        m.add(Source::FuOut(f(1)), sink);
        m.add(Source::FuOut(f(1)), sink); // second use of the same wire
        m.add(Source::RegOut(r(0)), sink);
        assert_eq!(m.mux_equiv(), 1);
        assert_eq!(m.uses(Source::FuOut(f(1)), sink), 2);
        assert_eq!(m.uses(Source::FuOut(f(2)), sink), 0);
        assert_eq!(m.uses(Source::FuOut(f(1)), Sink::RegIn(r(99))), 0, "ungrown row");
        m.remove(Source::FuOut(f(1)), sink);
        assert_eq!(m.mux_equiv(), 1, "one use remains, wire persists");
        m.remove(Source::FuOut(f(1)), sink);
        assert_eq!(m.mux_equiv(), 0);
        assert_eq!(m.connections(), 1);
        m.remove(Source::RegOut(r(0)), sink);
        assert_eq!(m.connections(), 0);
        assert_eq!(m, ConnectionMatrix::new(), "fully retracted matrix is empty");
    }

    #[test]
    #[should_panic(expected = "removing unknown connection")]
    fn removing_unknown_panics() {
        let mut m = ConnectionMatrix::new();
        m.remove(Source::RegOut(r(0)), Sink::RegIn(r(1)));
    }

    #[test]
    fn sources_of_and_added_cost() {
        let mut m = ConnectionMatrix::new();
        let sink = Sink::FuIn(f(0), Port::Right);
        assert_eq!(m.added_mux_cost(Source::RegOut(r(0)), sink), 0, "undriven sink is free");
        m.add(Source::RegOut(r(0)), sink);
        assert_eq!(m.added_mux_cost(Source::RegOut(r(0)), sink), 0, "existing wire is free");
        assert_eq!(m.added_mux_cost(Source::RegOut(r(1)), sink), 1, "new mux input");
        m.add(Source::RegOut(r(1)), sink);
        let srcs = m.sources_of(sink);
        assert_eq!(srcs.len(), 2);
        assert!(srcs.contains(&Source::RegOut(r(0))));
        assert!(m.to_string().contains("->"));
    }

    #[test]
    fn sources_of_is_per_sink() {
        let mut m = ConnectionMatrix::new();
        // Heavy traffic on unrelated sinks must not leak into the query,
        // and the queried sink's row reports exactly its own live sources.
        for i in 0..20 {
            m.add(Source::RegOut(r(i)), Sink::RegIn(r(100)));
            m.add(Source::FuOut(f(i)), Sink::FuIn(f(50), Port::Left));
        }
        let sink = Sink::FuIn(f(3), Port::Right);
        assert!(m.sources_of(sink).is_empty(), "undriven sink has no sources");
        m.add(Source::RegOut(r(7)), sink);
        m.add(Source::FuOut(f(2)), sink);
        m.add(Source::FuOut(f(2)), sink); // duplicate use, one distinct source
        let srcs = m.sources_of(sink);
        assert_eq!(
            srcs.into_iter().collect::<Vec<_>>(),
            vec![Source::FuOut(f(2)), Source::RegOut(r(7))]
        );
        m.remove(Source::FuOut(f(2)), sink);
        assert_eq!(m.sources_of(sink).len(), 2, "refcount still live");
        m.remove(Source::FuOut(f(2)), sink);
        assert_eq!(
            m.sources_of(sink).into_iter().collect::<Vec<_>>(),
            vec![Source::RegOut(r(7))],
            "fully retracted source disappears from the row"
        );
        assert_eq!(m.sources_of(Sink::RegIn(r(100))).len(), 20, "neighbours unaffected");
    }

    #[test]
    fn equality_ignores_grown_empty_rows() {
        let mut grown = ConnectionMatrix::new();
        grown.add(Source::RegOut(r(40)), Sink::RegIn(r(60)));
        grown.remove(Source::RegOut(r(40)), Sink::RegIn(r(60)));
        grown.add(Source::FuOut(f(1)), Sink::RegIn(r(0)));
        let mut fresh = ConnectionMatrix::with_capacity(4, 4);
        fresh.add(Source::FuOut(f(1)), Sink::RegIn(r(0)));
        assert_eq!(grown, fresh);
        fresh.add(Source::FuOut(f(1)), Sink::RegIn(r(0)));
        assert_ne!(grown, fresh, "use counts participate in equality");
    }

    #[test]
    fn swap_fus_relabels_rows_and_columns() {
        let relabel = |fu: FuId| match fu.index() {
            1 => f(3),
            3 => f(1),
            _ => fu,
        };
        let wires = [
            (Source::RegOut(r(0)), Sink::FuIn(f(1), Port::Left)),
            (Source::RegOut(r(2)), Sink::FuIn(f(1), Port::Left)),
            (Source::RegOut(r(1)), Sink::FuIn(f(1), Port::Right)),
            (Source::FuOut(f(1)), Sink::RegIn(r(4))),
            (Source::FuOut(f(1)), Sink::RegIn(r(4))),
            (Source::FuOut(f(3)), Sink::RegIn(r(4))),
            (Source::FuOut(f(1)), Sink::FuIn(f(3), Port::Left)),
            (Source::FuOut(f(0)), Sink::FuIn(f(3), Port::Right)),
            (Source::RegOut(r(0)), Sink::FuIn(f(2), Port::Left)),
        ];
        let mut m = ConnectionMatrix::new();
        let mut expected = ConnectionMatrix::new();
        for &(src, sink) in &wires {
            m.add(src, sink);
            let src = match src {
                Source::FuOut(fu) => Source::FuOut(relabel(fu)),
                other => other,
            };
            let sink = match sink {
                Sink::FuIn(fu, port) => Sink::FuIn(relabel(fu), port),
                other => other,
            };
            expected.add(src, sink);
        }
        let before = m.clone();
        m.swap_fus(f(1), f(3));
        assert_eq!(m, expected, "swap relabels every FuIn row and FuOut column");
        assert_eq!(
            (m.connections(), m.mux_equiv(), m.max_fanin()),
            (before.connections(), before.mux_equiv(), before.max_fanin()),
            "totals are relabel-invariant"
        );
        assert_eq!(m.fanin(Sink::FuIn(f(3), Port::Left)), 2);
        m.swap_fus(f(3), f(1));
        assert_eq!(m, before, "swapping twice is the identity");
    }

    #[test]
    fn swap_fus_grows_rows_that_were_never_grown() {
        // Only unit 0 and register 0 have rows; unit 5 has neither a sink
        // row nor a source column anywhere.
        let mut m = ConnectionMatrix::new();
        m.add(Source::FuOut(f(0)), Sink::RegIn(r(0)));
        m.add(Source::RegOut(r(0)), Sink::FuIn(f(0), Port::Right));
        let before = m.clone();
        m.swap_fus(f(0), f(5));
        assert!(m.contains(Source::FuOut(f(5)), Sink::RegIn(r(0))));
        assert!(m.contains(Source::RegOut(r(0)), Sink::FuIn(f(5), Port::Right)));
        assert_eq!(m.fanin(Sink::FuIn(f(0), Port::Right)), 0);
        assert_eq!((m.connections(), m.mux_equiv()), (2, 0));
        m.swap_fus(f(5), f(0));
        assert_eq!(m, before);

        // Two units beyond every grown table: a no-op on the totals.
        m.swap_fus(f(7), f(9));
        assert_eq!(m, before);
        // A unit swapped with itself is untouched.
        m.swap_fus(f(0), f(0));
        assert_eq!(m, before);
    }

    #[test]
    fn display_order_is_deterministic() {
        let mut m = ConnectionMatrix::new();
        m.add(Source::RegOut(r(1)), Sink::RegIn(r(0)));
        m.add(Source::FuOut(f(0)), Sink::RegIn(r(0)));
        let s1 = m.to_string();
        let s2 = m.clone().to_string();
        assert_eq!(s1, s2);
    }
}
