//! Criterion benches: whack planning and monitor snapshot-diffing —
//! the costs of attack and defence.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rpki_attacks::{plan_whack, Monitor, MonitorSnapshot};
use rpki_objects::Moment;
use rpki_risk::ModelRpki;

fn bench_whack_planning(c: &mut Criterion) {
    let mut group = c.benchmark_group("whack");
    group.sample_size(20);
    let w = ModelRpki::build();
    let view = w.continental_view();
    let clean_target = w.covering_roa_file();
    let mbb_target = w.customer_roa_file();

    group.bench_function("view_from_repos", |b| b.iter(|| black_box(w.continental_view())));
    group.bench_function("plan_clean_carve", |b| {
        b.iter(|| black_box(plan_whack(std::slice::from_ref(&view), &clean_target).unwrap()))
    });
    group.bench_function("plan_make_before_break", |b| {
        b.iter(|| black_box(plan_whack(std::slice::from_ref(&view), &mbb_target).unwrap()))
    });
    group.finish();
}

fn bench_monitor(c: &mut Criterion) {
    let mut group = c.benchmark_group("monitor");
    group.sample_size(20);
    let mut w = ModelRpki::build();
    w.publish_all(Moment(5));
    let snap1 = MonitorSnapshot::capture(&w.repos, Moment(5));
    w.publish_all(Moment(6)); // CRL/manifest churn
    let snap2 = MonitorSnapshot::capture(&w.repos, Moment(6));

    group.bench_function("capture_snapshot", |b| {
        b.iter(|| black_box(MonitorSnapshot::capture(&w.repos, Moment(7))))
    });
    group.bench_function("diff_and_classify", |b| {
        b.iter(|| {
            let mut m = Monitor::new();
            m.observe(snap1.clone());
            black_box(m.observe(snap2.clone()).len())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_whack_planning, bench_monitor);
criterion_main!(benches);
