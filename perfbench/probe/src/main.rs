//! In-process probe for the perfbench harness (`perfbench/run.py`).
//!
//! The functional executors, cost models, planner, lint and `.ffnet`
//! resolver have no CLI of their own, so the harness starts this
//! program once per run and drives it over stdin, one command per line,
//! one JSON reply per line:
//!
//! * `iter` runs one pass of the functional executors (the
//!   `functional_exec` iteration); the harness reads this process's
//!   CPU time around it.
//! * `trace functional` runs the same pass with one span per call.
//! * `trace layers` times the untraced cost models on the six Table 1
//!   networks and on the `--ffnet` network, `plan_network`,
//!   `flexcheck::check_network` and `WorkloadRegistry::resolve`, one
//!   span per call.
//!
//! Before the first command it prints a `ready` line. Inputs come from
//! `--seed`: the Table 1 layers get seeded data, and four layers are
//! generated from it. Every executor output is compared with the
//! golden reference; a mismatch or a panic is a failed operation.
//!
//! ```text
//! perfprobe --seed 7 --ffnet net.ffnet --example examples/dilated.ffnet
//! ```

use flexcheck::{check_network, has_errors, ArchParams};
use flexflow::array::PeArray;
use flexflow::{Compiler, FlexFlow, Program};
use flexsim_baselines::{Mapping2d, Systolic, TilingArray};
use flexsim_dataflow::search::{best_unroll, plan_network};
use flexsim_dataflow::Unroll;
use flexsim_experiments::arches::ArchSet;
use flexsim_model::tensor::KernelSet;
use flexsim_model::{reference, workloads, ConvLayer, Network, Tensor3, WorkloadRegistry};
use flexsim_testkit::rng::SplitMix64;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::io::{BufRead, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Engine side of every simulated array (the paper's 16×16 scale).
const D: usize = 16;

/// MACs aimed at per generated layer, so the seed changes the shapes
/// and not the amount of work.
const GENERATED_MACS: usize = 40_000;

/// Cost-model span names, in `ARCH_NAMES` order.
const COST: [&str; 4] = [
    "baselines.systolic_cost",
    "baselines.mapping2d_cost",
    "baselines.tiling_cost",
    "core.flexflow_cost",
];
const COST_RN: [&str; 4] = [
    "baselines.systolic_cost_rn",
    "baselines.mapping2d_cost_rn",
    "baselines.tiling_cost_rn",
    "core.flexflow_cost_rn",
];

/// One CONV layer with its seeded operands and reference output.
struct LayerCase {
    layer: ConvLayer,
    input: Tensor3,
    kernels: KernelSet,
    want: Tensor3,
    unroll: Unroll,
    /// Stride 1 and dilation 1: Systolic and 2D-Mapping run it too.
    plain: bool,
}

/// One whole network for `FlexFlow::execute` and `reference::network`.
struct NetCase {
    net: Network,
    program: Program,
    input: Tensor3,
    kernels: Vec<KernelSet>,
    want: Tensor3,
}

/// One timed call.
struct Span {
    name: &'static str,
    subject: String,
    start_us: f64,
    dur_us: f64,
    macs: u64,
}

/// Outcome of one command: operation counts, plus spans when traced.
struct Tally {
    t0: Instant,
    traced: bool,
    spans: Vec<Span>,
    ops: u64,
    failed: u64,
    macs: u64,
    mismatches: BTreeMap<&'static str, u64>,
}

impl Tally {
    fn new(traced: bool) -> Tally {
        Tally {
            t0: Instant::now(),
            traced,
            spans: Vec::new(),
            ops: 0,
            failed: 0,
            macs: 0,
            mismatches: BTreeMap::new(),
        }
    }

    /// Runs `f`, recording a span when traced.
    fn time<T>(
        &mut self,
        name: &'static str,
        subject: &str,
        macs: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.traced {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.spans.push(Span {
            name,
            subject: subject.to_owned(),
            start_us: start.duration_since(self.t0).as_secs_f64() * 1e6,
            dur_us: end.duration_since(start).as_secs_f64() * 1e6,
            macs,
        });
        out
    }

    /// Counts one operation; `ok` is false on a panic or a wrong result.
    fn op(&mut self, ok: bool) {
        self.ops += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Runs one executor on one layer or network and checks its output
    /// against `want`. Reference runs do not count towards the
    /// simulated MACs.
    fn exec(
        &mut self,
        name: &'static str,
        subject: &str,
        macs: u64,
        want: &Tensor3,
        f: impl FnOnce() -> Tensor3,
    ) {
        let out = self.time(name, subject, macs, || catch_unwind(AssertUnwindSafe(f)));
        let ok = out.is_ok_and(|got| got == *want);
        self.op(ok);
        *self.mismatches.entry(name).or_default() += u64::from(!ok);
        if !name.starts_with("model.") {
            self.macs += macs;
        }
    }

    fn json(&self, extra: &str) -> String {
        let mut s = format!(
            "{{\"ops\":{},\"failed\":{},\"macs\":{}",
            self.ops, self.failed, self.macs
        );
        if self.traced {
            s.push_str(",\"mismatches\":{");
            for (i, (name, n)) in self.mismatches.iter().enumerate() {
                let sep = if i > 0 { "," } else { "" };
                let _ = write!(s, "{sep}\"{name}\":{n}");
            }
            s.push_str("},\"spans\":[");
            for (i, sp) in self.spans.iter().enumerate() {
                let sep = if i > 0 { "," } else { "" };
                let _ = write!(
                    s,
                    "{sep}{{\"name\":\"{}\",\"subject\":{},\"start_us\":{:.3},\"dur_us\":{:.3},\"macs\":{}}}",
                    sp.name,
                    quote(&sp.subject),
                    sp.start_us,
                    sp.dur_us,
                    sp.macs
                );
            }
            s.push(']');
        }
        s.push_str(extra);
        s.push('}');
        s
    }
}

fn quote(text: &str) -> String {
    let mut s = String::from("\"");
    for c in text.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(s, "\\u{:04x}", u32::from(c));
            }
            c => s.push(c),
        }
    }
    s.push('"');
    s
}

/// The Table 1 layers small enough for the cycle-stepped executors,
/// plus four layers generated from `seed`: two plain, one strided and
/// one dilated, with odd output sides so tiles have ragged edges.
fn layer_set(seed: u64) -> Vec<ConvLayer> {
    let pick = |net: Network, name: &str| {
        net.conv_layer(name)
            .unwrap_or_else(|| panic!("{} has no layer {name}", net.name()))
            .clone()
    };
    let mut layers = vec![
        pick(workloads::lenet5(), "C1"),
        pick(workloads::lenet5(), "C3"),
        pick(workloads::pv(), "C7"),
        pick(workloads::fr(), "C3"),
        pick(workloads::hg(), "C3"),
    ];
    let mut rng = SplitMix64::seed_from_u64(seed);
    for i in 0..4 {
        let k = rng.gen_range(2usize..=5);
        let s = [7usize, 9, 11, 13][rng.gen_range(0usize..=3)];
        let n = rng.gen_range(2usize..=6);
        let m = (GENERATED_MACS / (n * s * s * k * k)).clamp(1, 32);
        let layer = ConvLayer::new(format!("G{i}"), m, n, s, k);
        layers.push(match i {
            2 => layer.with_stride(2),
            3 => layer.with_dilation(2),
            _ => layer,
        });
    }
    layers
}

struct Probe {
    layers: Vec<LayerCase>,
    nets: Vec<NetCase>,
    table1: Vec<Network>,
    ffnet: String,
}

impl Probe {
    fn new(seed: u64, ffnet: String, examples: &[String]) -> Result<Probe, String> {
        let layers = layer_set(seed)
            .into_iter()
            .enumerate()
            .map(|(i, layer)| {
                let (input, kernels) = reference::random_layer_data(&layer, seed ^ (i as u64 + 1));
                let want = reference::conv(&layer, &input, &kernels);
                let unroll = best_unroll(&layer, D, None).unroll;
                let plain = layer.stride() == 1 && layer.dilation() == 1;
                LayerCase {
                    layer,
                    input,
                    kernels,
                    want,
                    unroll,
                    plain,
                }
            })
            .collect();
        let registry = WorkloadRegistry::new();
        let mut nets = Vec::new();
        for (i, path) in examples.iter().enumerate() {
            let net = registry.resolve(path).map_err(|e| e.to_string())?;
            let (input, kernels) = reference::random_network_data(&net, seed ^ (0x100 + i as u64));
            let want = reference::network(&net, &input, &kernels);
            let program = Compiler::new(D).compile(&net);
            nets.push(NetCase {
                net,
                program,
                input,
                kernels,
                want,
            });
        }
        registry.resolve(&ffnet).map_err(|e| e.to_string())?;
        Ok(Probe {
            layers,
            nets,
            table1: workloads::all(),
            ffnet,
        })
    }

    fn functional(&self, t: &mut Tally) {
        for c in &self.layers {
            let (l, name, macs) = (&c.layer, c.layer.name(), c.layer.macs());
            let (input, kernels) = (&c.input, &c.kernels);
            t.exec("model.reference_conv", name, macs, &c.want, || {
                reference::conv(l, input, kernels)
            });
            t.exec("core.pe_array", name, macs, &c.want, || {
                PeArray::new(D)
                    .run_layer(l, c.unroll, input, kernels)
                    .output
            });
            if c.plain {
                t.exec("baselines.systolic_forward", name, macs, &c.want, || {
                    Systolic::dc_cnn().forward(l, input, kernels)
                });
                t.exec("baselines.mapping2d_forward", name, macs, &c.want, || {
                    Mapping2d::shidiannao().forward(l, input, kernels)
                });
            }
            t.exec("baselines.tiling_forward", name, macs, &c.want, || {
                TilingArray::diannao().forward(l, input, kernels)
            });
        }
        for n in &self.nets {
            let macs = n.net.conv_macs();
            t.exec("core.execute_network", n.net.name(), macs, &n.want, || {
                FlexFlow::new(D)
                    .execute(&n.program, &n.net, n.input.clone(), &n.kernels)
                    .output
            });
            t.exec(
                "model.reference_network",
                n.net.name(),
                macs,
                &n.want,
                || reference::network(&n.net, &n.input, &n.kernels),
            );
        }
    }

    /// Times the layers below the CLI; returns the `--ffnet` network's
    /// cycles per architecture for the harness to check.
    fn layers(&self, t: &mut Tally) -> Vec<u64> {
        for net in &self.table1 {
            let name = net.name();
            t.time("dataflow.plan_network", name, 0, || {
                black_box(plan_network(net, D))
            });
            let diags = t.time("flexcheck.check_network", name, 0, || {
                check_network(net, &ArchParams::flexflow(D))
            });
            t.op(!has_errors(&diags));
            for (idx, span) in COST.into_iter().enumerate() {
                let mut acc = ArchSet::builder().lint(false).build_one(net, idx);
                let cycles = t.time(span, name, net.conv_macs(), || {
                    acc.run_network(net).cycles()
                });
                t.op(cycles > 0);
            }
        }
        let resolved = t.time("model.ffnet_resolve", &self.ffnet, 0, || {
            WorkloadRegistry::new().resolve(&self.ffnet)
        });
        t.op(resolved.is_ok());
        let Ok(rn) = resolved else {
            return Vec::new();
        };
        COST_RN
            .into_iter()
            .enumerate()
            .map(|(idx, span)| {
                let mut acc = ArchSet::builder().lint(false).build_one(&rn, idx);
                t.time(span, rn.name(), rn.conv_macs(), || {
                    acc.run_network(&rn).cycles()
                })
            })
            .collect()
    }
}

fn args() -> Result<(u64, String, Vec<String>), String> {
    let mut seed = None;
    let mut ffnet = None;
    let mut examples = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--ffnet" => ffnet = Some(value),
            "--example" => examples.push(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok((
        seed.ok_or("--seed is required")?,
        ffnet.ok_or("--ffnet is required")?,
        examples,
    ))
}

fn main() {
    let probe = match args().and_then(|(seed, ffnet, examples)| Probe::new(seed, ffnet, &examples))
    {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfprobe: {e}");
            std::process::exit(2);
        }
    };
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    writeln!(out, "{{\"ready\":true}}")
        .and_then(|()| out.flush())
        .expect("stdout closed");
    for line in std::io::stdin().lock().lines() {
        let line = line.expect("stdin unreadable");
        let reply = match line.trim() {
            "iter" => {
                let mut t = Tally::new(false);
                probe.functional(&mut t);
                t.json("")
            }
            "trace functional" => {
                let mut t = Tally::new(true);
                probe.functional(&mut t);
                t.json("")
            }
            "trace layers" => {
                let mut t = Tally::new(true);
                let cycles = probe.layers(&mut t);
                let list: Vec<String> = cycles.iter().map(u64::to_string).collect();
                t.json(&format!(",\"rn_cycles\":[{}]", list.join(",")))
            }
            other => format!("{{\"error\":{}}}", quote(other)),
        };
        writeln!(out, "{reply}")
            .and_then(|()| out.flush())
            .expect("stdout closed");
    }
}
