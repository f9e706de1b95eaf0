//! Criterion benches of the matching kernel: how fast the cycle-level
//! machine and the functional simulator chew through input, per
//! processing rate. (Simulation speed of this model, not modeled hardware
//! throughput — that is Figure 8's analytic number.)

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use sunder_arch::{SunderConfig, SunderMachine};
use sunder_automata::InputView;
use sunder_sim::{NullSink, Simulator};
use sunder_transform::{PipelineConfig, Rate};
use sunder_workloads::{Benchmark, Scale};

fn bench_machine_rates(c: &mut Criterion) {
    let scale = Scale {
        state_fraction: 0.02,
        input_len: 64 * 1024,
    };
    let w = Benchmark::Snort.build(scale);
    let mut group = c.benchmark_group("machine_kernel");
    group.sample_size(10);
    group.throughput(Throughput::Bytes(w.input.len() as u64));
    for rate in Rate::ALL {
        let (strided, _) = PipelineConfig::from(rate).apply(&w.nfa).expect("transform");
        let view = InputView::new(&w.input, 4, rate.nibbles_per_cycle()).expect("view");
        group.bench_with_input(
            BenchmarkId::new("snort", rate.bits_per_cycle()),
            &rate,
            |b, _| {
                b.iter(|| {
                    let config = SunderConfig::with_rate(rate).fifo(true);
                    let mut machine = SunderMachine::new(&strided, config).expect("place");
                    black_box(machine.run(&view, &mut NullSink))
                })
            },
        );
    }
    group.finish();
}

fn bench_functional_sim(c: &mut Criterion) {
    let scale = Scale {
        state_fraction: 0.02,
        input_len: 64 * 1024,
    };
    let mut group = c.benchmark_group("functional_sim");
    group.sample_size(10);
    for bench in [Benchmark::Snort, Benchmark::Brill, Benchmark::ClamAv] {
        let w = bench.build(scale);
        let view = InputView::new(&w.input, 8, 1).expect("view");
        group.throughput(Throughput::Bytes(w.input.len() as u64));
        group.bench_function(BenchmarkId::new("byte", bench.name()), |b| {
            b.iter(|| {
                let mut sim = Simulator::new(&w.nfa);
                let mut sink = NullSink;
                sim.run(&view, &mut sink);
                black_box(sim.cycle())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_machine_rates, bench_functional_sim);
criterion_main!(benches);
