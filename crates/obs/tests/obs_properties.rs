//! Property and stress tests for the obs instruments (ISSUE 5 satellite):
//! histogram quantile correctness within the bucket error bound, counter
//! contention from 8 threads, and snapshot determinism under the virtual
//! clock. No test here touches `std::time`.

use std::sync::Arc;
use std::thread;

use samzasql_obs::{
    bucket_index, bucket_upper_bound, render_json_lines, render_prometheus, render_text, Histogram,
    ManualTime, MetricsRegistry, Stopwatch, Tracer,
};
use samzasql_testkit::cases;

/// Exact quantile with the same rank convention the estimator uses:
/// the rank-`ceil(q*n)` order statistic (1-based), clamped to `[1, n]`.
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let n = sorted.len() as u64;
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    sorted[(rank - 1) as usize]
}

/// For any recorded sample and any quantile, the estimate lands in the
/// same log bucket as the exact order statistic and never undershoots it:
/// `exact <= estimate <= bucket_upper_bound(bucket(exact))`.
#[test]
fn quantile_estimates_stay_within_bucket_error() {
    cases(256, 1, |rng| {
        let values: Vec<u64> = (0..rng.gen_range(1..400))
            .map(|_| rng.gen_range(0u64..=1_000_000_000))
            .collect();
        let qs: Vec<f64> = (0..rng.gen_range(1..8))
            .map(|_| rng.gen_range(0u32..=1000) as f64 / 1000.0)
            .collect();
        let h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let snap = h.snapshot();
        let mut sorted = values.clone();
        sorted.sort_unstable();

        assert_eq!(snap.count, values.len() as u64);
        assert_eq!(snap.max, *sorted.last().unwrap());
        assert_eq!(snap.sum, values.iter().sum::<u64>());

        for &q in &qs {
            let exact = exact_quantile(&sorted, q);
            let est = snap.quantile(q);
            assert!(
                est >= exact,
                "estimate {est} undershoots exact {exact} at q={q}"
            );
            assert!(
                est <= bucket_upper_bound(bucket_index(exact)),
                "estimate {est} beyond bucket bound of exact {exact} at q={q}"
            );
            assert_eq!(bucket_index(est), bucket_index(exact));
        }
    });
}

/// Bucket arithmetic round-trips: every value falls in the bucket whose
/// bounds contain it.
#[test]
fn bucket_bounds_contain_their_values() {
    cases(256, 2, |rng| {
        // Shifted right by a random amount, so every magnitude is drawn.
        let v = rng.next_u64() >> rng.gen_range(0..64);
        let i = bucket_index(v);
        assert!(v <= bucket_upper_bound(i), "{v}");
        if i > 0 {
            assert!(v > bucket_upper_bound(i - 1), "{v}");
        }
    });
}

#[test]
fn counter_contention_8_threads() {
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 100_000;
    let registry = MetricsRegistry::new();
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let c = registry.counter("contended.total", &[]);
            thread::spawn(move || {
                for _ in 0..PER_THREAD {
                    c.inc();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(
        registry.snapshot().counter("contended.total", &[]),
        Some(THREADS as u64 * PER_THREAD)
    );
}

#[test]
fn histogram_contention_preserves_count_and_sum() {
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 50_000;
    let h = Histogram::new();
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let h = h.clone();
            thread::spawn(move || {
                for i in 0..PER_THREAD {
                    h.record(t * PER_THREAD + i);
                }
            })
        })
        .collect();
    for j in handles {
        j.join().unwrap();
    }
    let snap = h.snapshot();
    let n = THREADS * PER_THREAD;
    assert_eq!(snap.count, n);
    assert_eq!(snap.sum, n * (n - 1) / 2);
    assert_eq!(snap.max, n - 1);
}

/// The same workload replayed against a fresh registry under the virtual
/// clock yields byte-identical snapshots in all three exporter formats.
#[test]
fn snapshots_are_deterministic_under_virtual_clock() {
    fn run_workload() -> (String, String, String) {
        let clock = Arc::new(ManualTime::new());
        let r = &MetricsRegistry::new();

        r.counter("kafka.broker.messages_in", &[("broker", "0")])
            .add(128);
        r.gauge("kafka.throttle.credits", &[]).set(4096);
        let lat = r.histogram("samza.task.process_ns", &[("task", "orders-0")]);
        let mut sw = Stopwatch::start(clock.clone());
        for step in [5u64, 50, 500, 5000, 50_000] {
            clock.advance_nanos(step);
            lat.record(sw.lap_nanos());
        }

        let tracer = Tracer::new(clock.clone());
        let mut span = tracer.span("job");
        clock.advance_nanos(1_000);
        span.event("caught up");
        span.finish();

        let snap = r.snapshot();
        (
            render_text(&snap),
            render_json_lines(&snap),
            render_prometheus(&snap) + &tracer.dump_json_lines(),
        )
    }

    let (t1, j1, p1) = run_workload();
    let (t2, j2, p2) = run_workload();
    assert_eq!(t1, t2);
    assert_eq!(j1, j2);
    assert_eq!(p1, p2);
    // And the rendered prometheus output is structurally valid.
    samzasql_obs::validate_prometheus(p1.split("{\"id\"").next().unwrap()).unwrap();
}
