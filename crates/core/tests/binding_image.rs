//! The binding image across the canonical text boundary: an allocation's
//! winner, imaged with `to_parts`, encoded, decoded and rebuilt with
//! `Binding::from_parts` in a context derived independently from the
//! design's canonical text, reproduces the exact cost. Warm seeds cross
//! this boundary: the service banks a winner's image and rebuilds it
//! against a design it parsed again.

use salsa_alloc::{Allocator, Binding, BindingParts};
use salsa_cdfg::benchmarks::{dct, ewf, fir_array, paper_example};
use salsa_cdfg::parse_cdfg;
use salsa_sched::{fds_schedule, FuLibrary};

#[test]
fn binding_images_survive_the_canonical_text_boundary() {
    let library = FuLibrary::standard();
    for (graph, steps, seed) in [
        (ewf(), 19usize, 7u64),
        (dct(), 10, 42),
        (paper_example(), 4, 3),
        // Memory design: the bank table crosses the boundary too.
        (fir_array(), 8, 7),
    ] {
        let text = graph.canonical_text();

        // Sender: allocate on the parsed canonical text and image the
        // winner.
        let sent = parse_cdfg(&text).expect("canonical text parses");
        let schedule = fds_schedule(&sent, &library, steps).expect("schedulable");
        let result = Allocator::new(&sent, &schedule, &library)
            .seed(seed)
            .threads(1)
            .run()
            .expect("allocation succeeds");
        assert_eq!(result.winner.array_banks.len(), sent.num_arrays());
        let image = result.winner.encode();

        // Receiver: the image decoded and rebuilt in an independent
        // context derived the same way from the same text.
        let decoded = BindingParts::decode(&image).expect("image decodes");
        assert_eq!(decoded, result.winner);
        let received = parse_cdfg(&text).expect("canonical text parses");
        let schedule = fds_schedule(&received, &library, steps).expect("schedulable");
        let allocator = Allocator::new(&received, &schedule, &library).seed(seed);
        let (ctx, config) = allocator.prepare().expect("the pool fits the schedule");
        let rebuilt = Binding::from_parts(&ctx, &decoded)
            .expect("image rebuilds across the canonical text boundary");
        assert_eq!(
            config.weights.evaluate(&rebuilt.breakdown()),
            result.cost,
            "{}: the rebuilt binding must reproduce the winner's cost",
            graph.name()
        );
    }
}
