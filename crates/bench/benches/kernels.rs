//! Micro-benchmarks of the simulation kernels themselves: the golden
//! reference convolution, the cycle-stepped FlexFlow PE array, the
//! baselines' functional pipelines, the factor search, the analytic
//! schedule, and each architecture's recorded cycle timeline against
//! its plain cost model on a large layer. These gate the cost of the
//! repository's own machinery (not a paper figure).

use flexflow::analytic::schedule_default;
use flexflow::array::PeArray;
use flexflow::FlexFlow;
use flexsim_arch::Accelerator;
use flexsim_baselines::{Mapping2d, Systolic, TilingArray};
use flexsim_dataflow::search::{best_unroll, plan_network};
use flexsim_model::{reference, workloads, ConvLayer};
use flexsim_obs::cycles::{CycleRecorder, SinkHandle};
use flexsim_testkit::bench::Harness;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

fn bench(c: &mut Harness) {
    let net = workloads::lenet5();
    let c1 = net.conv_layer("C1").unwrap().clone();
    let (input, kernels) = reference::random_layer_data(&c1, 1);
    let choice = best_unroll(&c1, 16, None);

    let mut group = c.benchmark_group("kernels");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(5));

    group.bench_function("reference_conv_lenet_c1", |b| {
        b.iter(|| black_box(reference::conv(&c1, &input, &kernels)));
    });

    group.bench_function("flexflow_array_lenet_c1", |b| {
        b.iter(|| {
            let mut array = PeArray::new(16);
            black_box(array.run_layer(&c1, choice.unroll, &input, &kernels));
        });
    });

    group.bench_function("systolic_pipeline_lenet_c1", |b| {
        let sys = Systolic::dc_cnn();
        b.iter(|| black_box(sys.forward(&c1, &input, &kernels)));
    });

    group.bench_function("mapping2d_forward_lenet_c1", |b| {
        let m2d = Mapping2d::shidiannao();
        b.iter(|| black_box(m2d.forward(&c1, &input, &kernels)));
    });

    group.bench_function("tiling_forward_lenet_c1", |b| {
        let til = TilingArray::diannao();
        b.iter(|| black_box(til.forward(&c1, &input, &kernels)));
    });

    group.bench_function("plan_network_lenet", |b| {
        b.iter(|| black_box(plan_network(&net, 16)));
    });

    let vgg = workloads::vgg11();
    group.bench_function("plan_network_vgg11", |b| {
        b.iter(|| black_box(plan_network(&vgg, 16)));
    });

    group.bench_function("schedule_lenet_c1", |b| {
        b.iter(|| black_box(schedule_default(&c1, choice.unroll, 16)));
    });

    // Recording cost must not grow with layer size: the same large
    // layer with and without a cycle recorder attached.
    let large = ConvLayer::new("L", 128, 128, 510, 3);
    group.bench_function("flexflow_record_plain_m128_s510", |b| {
        let mut ff = FlexFlow::paper_config();
        b.iter(|| black_box(ff.run_conv(&large)));
    });

    group.bench_function("flexflow_record_recorded_m128_s510", |b| {
        let mut ff = FlexFlow::paper_config();
        b.iter(|| {
            let rec = Arc::new(CycleRecorder::new());
            ff.attach_sink(SinkHandle::new(rec.clone()));
            black_box(ff.run_conv(&large));
            black_box(rec.take())
        });
    });

    // The same for the baselines, each on a layer whose step grid is
    // tens of thousands of steps: 147 m-groups × 1024 input maps,
    // 256 × 256 output tiles, 256 × 256 (m-tile, n-tile) pairs.
    let baselines: [(&str, Box<dyn Accelerator>, ConvLayer); 3] = [
        (
            "systolic",
            Box::new(Systolic::dc_cnn()),
            ConvLayer::new("L", 1024, 1024, 56, 3),
        ),
        (
            "mapping2d",
            Box::new(Mapping2d::shidiannao()),
            ConvLayer::new("L", 16, 16, 4096, 3),
        ),
        (
            "tiling",
            Box::new(TilingArray::diannao()),
            ConvLayer::new("L", 4096, 4096, 14, 3),
        ),
    ];
    for (arch, mut acc, layer) in baselines {
        group.bench_function(&format!("{arch}_record_plain"), |b| {
            b.iter(|| black_box(acc.run_conv(&layer)));
        });
        group.bench_function(&format!("{arch}_record_recorded"), |b| {
            b.iter(|| {
                let rec = Arc::new(CycleRecorder::new());
                acc.attach_sink(SinkHandle::new(rec.clone()));
                black_box(acc.run_conv(&layer));
                black_box(rec.take())
            });
        });
    }

    group.finish();
}

flexsim_testkit::bench_main!(bench);
