//! Similarity-keyed warm-start seeding: a renumbering-invariant design
//! sketch, the nearest-winner lookup over the result cache (and the
//! exact-sketch index that serves it), and the label-based delta
//! matching that turns a near-hit into a [`WarmSpec`].
//!
//! The exact result cache only fires when canonical text and knobs agree
//! byte-for-byte. Incremental design flows rarely repeat exactly — they
//! resubmit a design with two operations swapped, one value renamed, a
//! coefficient changed. Every result-cache entry banks its job's winning
//! [`BindingParts`] with the design's structural [`Sketch`] (a
//! [`SeedEntry`]); when a new design lands within
//! [`SEED_DISTANCE_PERMILLE`] of a cached one, the server builds a
//! [`WarmSpec`] from the prior winner (image, label-remapped preferences
//! and delta focus set) and the search starts from the old answer
//! instead of the constructive initial allocation.
//!
//! The sketch must be invariant under op/value *renumbering* — two
//! spellings of the same structure must land at distance 0 — so it is
//! built purely from multisets: the op-kind histogram and the
//! (producer kind, consumer kind) histogram of every def-use edge.
//! Neither consults an id or a label. `tests/warmstart.rs` pins the
//! invariance property.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use salsa_alloc::{BindingParts, WarmSpec};
use salsa_cdfg::{Cdfg, OpKind};

use crate::cache::{Index, JobEntry, ResultCache};

/// Accept a similarity seed when `distance * 1000 <= weight *
/// SEED_DISTANCE_PERMILLE` — i.e. the designs differ in at most 40% of
/// their sketch mass. Beyond that the prior winner's structure says
/// little about the new design and a cold start is the honest default.
pub const SEED_DISTANCE_PERMILLE: u64 = 400;

/// The six op kinds, in a fixed order for histogram indexing.
const KINDS: [OpKind; 6] =
    [OpKind::Add, OpKind::Sub, OpKind::Mul, OpKind::Lt, OpKind::Load, OpKind::Store];

fn kind_index(kind: OpKind) -> usize {
    KINDS.iter().position(|&k| k == kind).expect("kind in KINDS")
}

/// A renumbering-invariant structural summary of a design: the op-kind
/// multiset, the (producer kind, consumer kind) multiset over every
/// def-use edge, and the array count. Producer slot 0 means "external"
/// (an input, constant or state boundary feeds the read); slots 1..=6
/// are the producing op's kind.
///
/// Memory accesses participate through their own histogram slots and the
/// array count, so a memory design never sketches close to a scalar one
/// of the same arithmetic shape — their winners bind incompatible
/// resources (bank tables, memory ports) and must not seed each other.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Sketch {
    kinds: [u32; 6],
    edges: [u32; 7 * 6],
    arrays: u32,
}

impl Sketch {
    /// Builds the sketch from graph structure alone (no ids, no labels).
    pub fn of(graph: &Cdfg) -> Sketch {
        let mut kinds = [0u32; 6];
        let mut edges = [0u32; 7 * 6];
        for op in graph.ops() {
            let consumer = kind_index(op.kind());
            kinds[consumer] += 1;
            for operand in op.inputs() {
                let producer = match graph.value(operand).source().op() {
                    Some(p) => 1 + kind_index(graph.op(p).kind()),
                    None => 0,
                };
                edges[producer * 6 + consumer] += 1;
            }
        }
        Sketch { kinds, edges, arrays: graph.num_arrays() as u32 }
    }

    /// L1 distance between two sketches.
    pub fn distance(&self, other: &Sketch) -> u64 {
        let l1 = |a: &[u32], b: &[u32]| -> u64 {
            a.iter().zip(b).map(|(&x, &y)| u64::from(x.abs_diff(y))).sum()
        };
        l1(&self.kinds, &other.kinds)
            + l1(&self.edges, &other.edges)
            + u64::from(self.arrays.abs_diff(other.arrays))
    }

    /// Total sketch mass (ops + edges + arrays), the denominator of the
    /// acceptance threshold.
    pub fn weight(&self) -> u64 {
        self.kinds.iter().map(|&c| u64::from(c)).sum::<u64>()
            + self.edges.iter().map(|&c| u64::from(c)).sum::<u64>()
            + u64::from(self.arrays)
    }

    /// Whether `distance` is close enough to seed from, relative to this
    /// (the new design's) sketch weight.
    pub fn accepts(&self, distance: u64) -> bool {
        distance * 1000 <= self.weight() * SEED_DISTANCE_PERMILLE
    }
}

/// One banked winner (a [`JobEntry`]'s seed): the job's identity, its
/// design, and the allocation that won.
pub struct SeedEntry {
    /// The base job's result-cache key (the `source` provenance of any
    /// spec built from this entry, and the `reallocate` verb's handle).
    pub key: u128,
    /// The base design, canonicalized (label matching runs against it),
    /// shared with its admission artifact rather than copied.
    pub graph: Arc<Cdfg>,
    /// The winning allocation image.
    pub parts: BindingParts,
    /// The winning cost, for operator-facing logging.
    pub cost: u64,
    /// The base design's sketch, shared like `graph`.
    pub sketch: Arc<Sketch>,
}

/// The result cache's exact-sketch index: each design sketch maps to
/// the keys of the cached jobs with that sketch, oldest first. Buckets
/// are keyed by the jobs' shared `Arc<Sketch>`, so no sketch is copied
/// per job, and an emptied bucket is dropped, so the index is bounded
/// by the cache.
#[derive(Default)]
pub struct SketchIndex {
    buckets: HashMap<Arc<Sketch>, VecDeque<u128>>,
}

impl SketchIndex {
    /// The key of the oldest cached job with exactly this sketch.
    fn oldest(&self, sketch: &Sketch) -> Option<u128> {
        self.buckets.get(sketch).and_then(|keys| keys.front().copied())
    }
}

impl Index<JobEntry> for SketchIndex {
    fn insert(&mut self, key: u128, job: &JobEntry) {
        self.buckets.entry(Arc::clone(&job.seed.sketch)).or_default().push_back(key);
    }

    fn evict(&mut self, key: u128, job: &JobEntry) {
        // FIFO eviction drops the cache's oldest job, which is also the
        // oldest in its bucket.
        let sketch: &Sketch = &job.seed.sketch;
        if let Some(keys) = self.buckets.get_mut(sketch) {
            debug_assert_eq!(keys.front(), Some(&key), "evicted job is its bucket's oldest");
            keys.pop_front();
            if keys.is_empty() {
                self.buckets.remove(sketch);
            }
        }
    }
}

impl ResultCache {
    /// The cached job whose design is nearest to `sketch` and passes the
    /// acceptance threshold, with its distance (transparent similarity
    /// seeding; `reallocate` peeks its base by key instead). Not counted
    /// as a cache hit or miss. Deterministic: lowest distance wins, ties
    /// break toward the *oldest* entry (insertion order), so the same
    /// cache contents always seed the same way.
    ///
    /// When a cached job shares the sketch exactly, the answer is the
    /// oldest job in that sketch's bucket at distance 0 (the minimum,
    /// always accepted), read off the [`SketchIndex`] without a scan.
    /// Only a sketch no cached job shares (a fresh design, whose miss
    /// then pays for a search) scans every entry.
    pub fn nearest(&self, sketch: &Sketch) -> Option<(Arc<JobEntry>, u64)> {
        if let Some(twin) = self.find(|index| index.oldest(sketch)) {
            return Some((twin, 0));
        }
        let mut best: Option<(Arc<JobEntry>, u64)> = None;
        self.scan(|entry| {
            let d = sketch.distance(&entry.seed.sketch);
            if best.as_ref().is_none_or(|(_, bd)| d < *bd) {
                best = Some((Arc::clone(entry), d));
            }
        });
        best.filter(|(_, d)| sketch.accepts(*d))
    }

    /// Distinct design sketches among the cached jobs (at most
    /// [`len`](Self::len)).
    pub fn sketches(&self) -> usize {
        self.read_index(|index| index.buckets.len())
    }
}

/// Builds the [`WarmSpec`] seeding `new` from a prior winner: the base
/// image (attached when dimensions even permit it — [`Binding::from_parts`]
/// revalidates structurally at seed time), per-op/per-value preferences
/// remapped across the delta by **label**, and the focus set of
/// ops/values the delta actually touched.
///
/// Label matching is the bridge between the two numberings: canonical
/// text preserves user-visible names, so an op that survived the edit
/// keeps its label even when renumbered, while added/renamed entities
/// match nothing and land in the focus set.
///
/// [`Binding::from_parts`]: salsa_alloc::Binding::from_parts
pub fn build_warm_spec(base: &SeedEntry, new: &Cdfg, distance: u64) -> WarmSpec {
    let mut spec = WarmSpec::new();
    spec.source = base.key;
    spec.distance = distance;

    let base_ops: HashMap<&str, salsa_cdfg::OpId> =
        base.graph.ops().map(|o| (o.label(), o.id())).collect();
    let base_values: HashMap<&str, salsa_cdfg::ValueId> =
        base.graph.values().map(|v| (v.label(), v.id())).collect();

    for op in new.ops() {
        let matched = base_ops.get(op.label()).copied().filter(|&b| {
            let bop = base.graph.op(b);
            bop.kind() == op.kind()
                && bop.inputs().iter().map(|&v| base.graph.value(v).label()).collect::<Vec<_>>()
                    == op.inputs().iter().map(|&v| new.value(v).label()).collect::<Vec<_>>()
        });
        match matched {
            Some(b) => {
                if let Some(&fu) = base.parts.op_fu.get(b.index()) {
                    spec.op_fu.push((op.id().index() as u32, fu.index() as u32));
                }
            }
            None => spec.focus_ops.push(op.id().index() as u32),
        }
    }
    for value in new.values() {
        let matched = base_values.get(value.label()).copied().filter(|&b| {
            let source_label = |g: &Cdfg, v: &salsa_cdfg::Value| {
                v.source().op().map(|p| g.op(p).label().to_string())
            };
            source_label(&base.graph, base.graph.value(b)) == source_label(new, value)
        });
        match matched {
            Some(b) => {
                // Prefer the register the base winner stored this value
                // in first: the head of its first live chain slot.
                let reg = base.parts.chains.get(b.index()).and_then(|chains| {
                    chains.iter().flatten().next().and_then(|(_, regs)| regs.first())
                });
                if let Some(reg) = reg {
                    spec.value_reg.push((value.id().index() as u32, reg.index() as u32));
                }
            }
            None => spec.focus_values.push(value.id().index() as u32),
        }
    }

    // The image is only meaningful when the dimensions survived the
    // delta; `from_parts` still revalidates structurally at seed time.
    if base.graph.num_ops() == new.num_ops() && base.graph.num_values() == new.num_values() {
        spec.parts = Some(base.parts.clone());
    }

    // `new.ops()`/`new.values()` iterate in id order, so the tables the
    // core binary-searches are already sorted.
    debug_assert!(spec.focus_ops.is_sorted() && spec.focus_values.is_sorted());
    spec
}

#[cfg(test)]
mod tests {
    use super::*;
    use salsa_cdfg::parse_cdfg;

    const BASE: &str = "cdfg t\ninput a\ninput b\nop x = add a b\nop y = mul x a\noutput y\n";

    fn entry(key: u128, text: &str) -> SeedEntry {
        let graph = parse_cdfg(text).unwrap();
        let sketch = Arc::new(Sketch::of(&graph));
        SeedEntry {
            key,
            graph: Arc::new(graph),
            parts: BindingParts {
                op_fu: Vec::new(),
                op_swap: Vec::new(),
                chains: Vec::new(),
                use_chain: Vec::new(),
                passes: Vec::new(),
                array_banks: Vec::new(),
            },
            cost: 100,
            sketch,
        }
    }

    #[test]
    fn identical_structure_lands_at_distance_zero() {
        let a = parse_cdfg(BASE).unwrap();
        // Same structure, every label different: renaming must not move
        // the sketch at all.
        let b = parse_cdfg(
            "cdfg u\ninput p\ninput q\nop m = add p q\nop n = mul m p\noutput n\n",
        )
        .unwrap();
        assert_eq!(Sketch::of(&a).distance(&Sketch::of(&b)), 0);
    }

    #[test]
    fn a_small_edit_moves_the_sketch_a_little_a_big_one_a_lot() {
        // The acceptance threshold is *relative* to sketch weight, so the
        // base needs realistic size: on a 2-op design any edit is a large
        // fraction of the mass and a cold start is correct.
        let wide = "cdfg t\ninput a\ninput b\n\
                    op x1 = add a b\nop x2 = add x1 a\nop x3 = add x2 b\n\
                    op x4 = mul x3 x1\nop x5 = add x4 x2\nop x6 = add x5 x3\n\
                    op x7 = add x6 x1\noutput x7\n";
        let base = Sketch::of(&parse_cdfg(wide).unwrap());
        // One op-kind flip on the tail op.
        let tweaked = Sketch::of(&parse_cdfg(&wide.replace("x7 = add", "x7 = sub")).unwrap());
        let rebuilt = Sketch::of(
            &parse_cdfg("cdfg t\ninput a\nop x = lt a a\nop y = lt x x\nop z = lt y y\noutput z\n")
                .unwrap(),
        );
        let small = base.distance(&tweaked);
        let large = base.distance(&rebuilt);
        assert!(small > 0 && small < large, "small={small} large={large}");
        assert!(base.accepts(small));
        assert!(!base.accepts(large));
    }

    fn job(key: u128, text: &str) -> Arc<JobEntry> {
        let payload = Arc::new(salsa_wire::frame::Payload::new(crate::json::Json::Null));
        Arc::new(JobEntry { payload, seed: entry(key, text), cert: None })
    }

    #[test]
    fn index_serves_nearest_with_deterministic_ties_and_fifo_eviction() {
        let cache = ResultCache::new(2);
        assert!(cache.nearest(&Sketch::of(&parse_cdfg(BASE).unwrap())).is_none());
        cache.insert(1, job(1, BASE));
        // Same structure under different labels: distance 0, and the
        // *older* of two equal entries wins.
        let twin = "cdfg u\ninput p\ninput q\nop m = add p q\nop n = mul m p\noutput n\n";
        cache.insert(2, job(2, twin));
        let probe = Sketch::of(&parse_cdfg(BASE).unwrap());
        let (hit, d) = cache.nearest(&probe).expect("seed");
        assert_eq!((hit.seed.key, d), (1, 0));
        assert!(cache.peek(1).is_some());

        // Capacity 2: a third insert evicts the oldest, seed included.
        cache.insert(3, job(3, BASE));
        assert_eq!(cache.len(), 2);
        assert!(cache.peek(1).is_none());
        assert_eq!(cache.nearest(&probe).unwrap().0.seed.key, 2);
        assert_eq!((cache.hits(), cache.misses()), (0, 0), "seeding is not a cache lookup");
    }

    /// The seeding lookup as a linear scan over every entry: the oracle
    /// `nearest` must agree with (lowest distance, oldest on ties).
    fn scan_nearest(cache: &ResultCache, sketch: &Sketch) -> Option<(u128, u64)> {
        let mut best: Option<(u128, u64)> = None;
        cache.scan(|entry| {
            let d = sketch.distance(&entry.seed.sketch);
            if best.is_none_or(|(_, bd)| d < bd) {
                best = Some((entry.seed.key, d));
            }
        });
        best.filter(|&(_, d)| sketch.accepts(d))
    }

    #[test]
    fn sketch_index_agrees_with_the_scan_under_inserts_reinserts_and_evictions() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        const WIDE: &str = "cdfg w\ninput a\ninput b\nconst k = 3\n\
                            op x1 = add a b\nop x2 = add x1 k\nop x3 = add x2 b\n\
                            op x4 = mul x3 x1\nop x5 = add x4 x2\nop x6 = add x5 x3\n\
                            op x7 = add x6 x1\noutput x7\n";
        let designs = [
            BASE.to_string(),
            // Exact-sketch twins of BASE with different graphs: a relabel
            // and two constant operands differing only in value.
            "cdfg u\ninput p\ninput q\nop m = add p q\nop n = mul m p\noutput n\n".into(),
            "cdfg c\ninput a\nconst k = 3\nop x = add a k\nop y = mul x a\noutput y\n".into(),
            "cdfg c\ninput a\nconst k = 5\nop x = add a k\nop y = mul x a\noutput y\n".into(),
            WIDE.into(),
            WIDE.replace("k = 3", "k = 4"),
            WIDE.replace('x', "z"),
            // Near sketches of WIDE: one op flipped, one added (both
            // seedable), two flipped (beyond the threshold).
            WIDE.replace("x7 = add", "x7 = sub"),
            WIDE.replace("x7 = add", "x7 = sub").replace("x5 = add", "x5 = sub"),
            WIDE.replace("output x7", "op x8 = add x7 a\noutput x8"),
            // Far from everything else.
            "cdfg f\ninput a\nop x = lt a a\nop y = lt x x\nop z = lt y y\noutput z\n".into(),
        ];
        let graphs: Vec<Arc<Cdfg>> =
            designs.iter().map(|text| Arc::new(parse_cdfg(text).unwrap())).collect();
        let sketches: Vec<Sketch> = graphs.iter().map(|g| Sketch::of(g)).collect();
        assert_eq!(sketches[0], sketches[3], "const edit keeps the sketch");
        assert_ne!(graphs[0], graphs[1], "twins differ in graph");
        let seedable = |i: usize| sketches[i].accepts(sketches[i].distance(&sketches[4]));
        assert!(seedable(7) && !seedable(8) && seedable(9));

        // A key names one design, as a cache key hashes its canonical
        // text; keys `k` and `k + designs.len()` are two knob sets of one
        // design (same graph, same sketch).
        let key_space = 2 * designs.len() as u64 - 4;
        let job_for = |key: u128| {
            let design = key as usize % designs.len();
            let mut seed = entry(key, BASE);
            seed.graph = Arc::clone(&graphs[design]);
            // A fresh `Arc` per job, as each admission builds its own.
            seed.sketch = Arc::new(sketches[design].clone());
            let payload = Arc::new(salsa_wire::frame::Payload::new(crate::json::Json::Null));
            Arc::new(JobEntry { payload, seed, cert: None })
        };

        let mut rng = StdRng::seed_from_u64(0x5ca1);
        for stream in 0..64 {
            let cache = ResultCache::new(rng.gen_range(1..=8));
            for step in 0..48 {
                let mut live = Vec::new();
                cache.scan(|entry| live.push(entry.seed.key));
                let key = if !live.is_empty() && rng.gen_bool(0.3) {
                    live[rng.gen_range(0..live.len())]
                } else {
                    u128::from(rng.gen_range(0..key_space))
                };
                cache.insert(key, job_for(key));

                for (i, probe) in sketches.iter().enumerate() {
                    let got = cache.nearest(probe).map(|(job, d)| (job.seed.key, d));
                    assert_eq!(
                        got,
                        scan_nearest(&cache, probe),
                        "stream {stream} step {step}: probe {i} after inserting {key}"
                    );
                }
                let listed: Vec<(Arc<Sketch>, u128)> = cache.read_index(|index| {
                    index
                        .buckets
                        .iter()
                        .flat_map(|(s, keys)| keys.iter().map(|&k| (Arc::clone(s), k)))
                        .collect()
                });
                assert_eq!(listed.len(), cache.len(), "stream {stream} step {step}");
                for (sketch, key) in listed {
                    let job = cache.peek(key).expect("the index names only cached keys");
                    assert_eq!(*job.seed.sketch, *sketch, "key {key} listed under its sketch");
                }
                assert!(cache.sketches() <= cache.len());
            }
        }
    }

    #[test]
    fn warm_spec_matches_by_label_and_focuses_the_delta() {
        use salsa_datapath::FuId;
        let mut base = entry(9, BASE);
        base.parts.op_fu = vec![FuId::from_index(1), FuId::from_index(0)];
        // One op added, one untouched; `x` feeds the new op so its own
        // entry survives but `z`/`w` are new.
        let new = parse_cdfg(
            "cdfg t\ninput a\ninput b\nop x = add a b\nop y = mul x a\nop w = add y x\noutput w\n",
        )
        .unwrap();
        let spec = build_warm_spec(&base, &new, 5);
        assert_eq!(spec.source, 9);
        assert_eq!(spec.distance, 5);
        assert!(spec.parts.is_none(), "dimensions changed; no image");
        let x = new.ops().find(|o| o.label() == "x").unwrap().id().index() as u32;
        let w = new.ops().find(|o| o.label() == "w").unwrap().id().index() as u32;
        assert!(spec.op_fu.iter().any(|&(o, f)| o == x && f == 1), "{:?}", spec.op_fu);
        assert!(spec.focus_ops.contains(&w));
        assert!(!spec.focus_ops.contains(&x));
        let wv = new.values().find(|v| v.label() == "w").unwrap().id().index() as u32;
        assert!(spec.focus_values.contains(&wv));
    }
}
