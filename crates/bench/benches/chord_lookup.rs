//! The DHT substrate cost: `Map()` routing hops and latency vs ring size
//! (Chord's O(log S), which every CLASH probe pays).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use clash_chord::id::ChordId;
use clash_chord::net::SimNet;
use clash_keyspace::hash::HashSpace;
use clash_simkernel::rng::DetRng;

fn bench_lookup_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("chord find_successor");
    for &n in &[64usize, 256, 1000] {
        let mut rng = DetRng::new(1);
        let mut net = SimNet::with_random_nodes(HashSpace::PAPER, n, &mut rng);
        net.build_stable();
        let starts = net.node_ids();
        let mut i = 0usize;
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                i = (i + 1) % starts.len();
                let h = (i as u64).wrapping_mul(0x9E37_79B9) & 0xFF_FFFF;
                black_box(net.route(starts[i], h))
            })
        });
    }
    group.finish();
}

fn bench_stabilization_round(c: &mut Criterion) {
    let mut rng = DetRng::new(2);
    let mut net = SimNet::with_random_nodes(HashSpace::PAPER, 256, &mut rng);
    net.build_stable();
    c.bench_function("chord stabilize_round (256 nodes, converged)", |b| {
        b.iter(|| black_box(net.stabilize_round()))
    });
}

/// Routing with the ring changing underneath it: a membership event has
/// to leave lookups as fast as it found them *and* cost its own
/// neighbourhood only — an index rebuilt (or a cache refilled) after
/// every event shows up here as milliseconds per iteration.
fn bench_route_under_churn(c: &mut Criterion) {
    let space = HashSpace::PAPER;
    let mut rng = DetRng::new(3);
    let mut net = SimNet::with_random_nodes(space, 4096, &mut rng);
    net.stabilize_direct();
    let route_64 = |net: &SimNet, rng: &mut DetRng| {
        for _ in 0..64 {
            let start = net.random_alive(rng);
            black_box(net.route(start, rng.next_u64() & space.mask()));
        }
    };
    c.bench_function(
        "chord route under churn (4096 nodes; join + 64 routes + fail + 64 routes)",
        |b| {
            b.iter(|| {
                let bootstrap = net.random_alive(&mut rng);
                net.join(ChordId::new(rng.next_u64(), space), bootstrap);
                net.stabilize_direct();
                route_64(&net, &mut rng);
                let victim = net.random_alive(&mut rng);
                net.fail(victim);
                net.stabilize_direct();
                route_64(&net, &mut rng);
            })
        },
    );
}

criterion_group!(
    benches,
    bench_lookup_scaling,
    bench_stabilization_round,
    bench_route_under_churn
);
criterion_main!(benches);
