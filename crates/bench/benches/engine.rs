//! Microbenchmarks of the DES kernel: event-queue throughput and the
//! random streams — the per-event costs everything else multiplies.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use ibsim_engine::queue::CalendarQueue;
use ibsim_engine::rng::Rng;
use ibsim_engine::time::{Time, TimeDelta};

fn queue_benches(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue");
    for &depth in &[64usize, 1024, 16384] {
        g.throughput(Throughput::Elements(depth as u64));
        g.bench_function(format!("churn_depth_{depth}"), |b| {
            // Steady-state: keep `depth` pending events, pop one,
            // schedule one — the hot pattern of a running simulation.
            let mut q = CalendarQueue::new();
            let mut rng = Rng::new(7);
            for _ in 0..depth {
                q.schedule(Time(rng.next_below(1_000_000)), 0u64);
            }
            b.iter(|| {
                for _ in 0..depth {
                    let (t, _) = q.pop().unwrap();
                    q.schedule(t + TimeDelta(1 + rng.next_below(1000)), 0u64);
                }
            });
        });
    }
    g.finish();
}

fn rng_benches(c: &mut Criterion) {
    let mut g = c.benchmark_group("rng");
    g.throughput(Throughput::Elements(1024));
    g.bench_function("next_u64_x1024", |b| {
        let mut rng = Rng::new(1);
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..1024 {
                acc ^= rng.next_u64();
            }
            black_box(acc)
        });
    });
    g.bench_function("next_below_x1024", |b| {
        let mut rng = Rng::new(1);
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..1024 {
                acc += rng.next_below(647);
            }
            black_box(acc)
        });
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = queue_benches, rng_benches
}
criterion_main!(benches);
