//! Criterion benches for the mitigation passes and MEM post-processing.

use criterion::{criterion_group, criterion_main, Criterion};
use vaqem_ansatz::micro::dd_window_circuit;
use vaqem_bench::alap;
use vaqem_mitigation::dd::{DdPass, DdSequence};
use vaqem_mitigation::mem::MeasurementMitigator;
use vaqem_mitigation::scheduling::GsPass;
use vaqem_sim::counts::Counts;

fn bench_dd_pass(c: &mut Criterion) {
    let scheduled = alap(&dd_window_circuit(200).expect("builds"));
    let pass = DdPass::new(DdSequence::Xy4, 35.56);
    c.bench_function("dd_pass_apply_uniform_8", |b| {
        b.iter(|| pass.apply_uniform(&scheduled, 8))
    });
}

fn bench_gs_pass(c: &mut Criterion) {
    let scheduled = alap(&dd_window_circuit(200).expect("builds"));
    let pass = GsPass::new(35.56);
    c.bench_function("gs_pass_apply_mid", |b| {
        b.iter(|| pass.apply_uniform(&scheduled, 0.5))
    });
}

fn bench_mem(c: &mut Criterion) {
    let m = MeasurementMitigator::from_error_rates(&[(0.02, 0.05); 6]);
    let mut counts = Counts::new(6);
    for i in 0..64 {
        counts.record_index_n(i, (i as u64 % 7) * 13 + 1);
    }
    c.bench_function("mem_mitigate_6q", |b| b.iter(|| m.mitigate(&counts)));
}

criterion_group!(benches, bench_dd_pass, bench_gs_pass, bench_mem);
criterion_main!(benches);
