//! Fixed calibration kernel for the perfbench harness (`perfbench/run.py`).
//!
//! The benchmark host is shared, and its speed drifts by tens of
//! percent over minutes. The harness therefore runs this kernel between
//! the steps it times and scales each step's CPU time by how fast the
//! kernel ran next to it. The kernel uses only `std`, so its code does
//! not change when the repository's crates do.
//!
//! One unit mixes the kinds of work the simulator does: an integer
//! convolution, a branchy cycle loop over a small PE array, ordered and
//! hashed maps built and probed afresh, decimal formatting, strided and
//! dependent loads over an 8 MiB buffer, and events recorded into a
//! fresh vector, folded into an ordered map and rendered. Without the
//! memory and event parts, the kernel slowed down less than the large
//! `flexsim` runs did under neighbours' load. A unit takes about 1.6 ms
//! of CPU on the 2-vCPU Xeon host the benchmark was written on. The
//! harness writes a unit count per line on stdin; the kernel runs that
//! many units and answers with a checksum line.
//!
//! ```text
//! perfcal        # prints `ready`, then answers `40` with a checksum
//! ```

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::hint::black_box;
use std::io::{BufRead, Write};

const H: usize = 12;
const K: usize = 3;
const CI: usize = 8;
const CO: usize = 8;
const PES: usize = 256;
/// 8 MiB of `u32`, past the last-level cache share a process gets.
const BIG: usize = 1 << 21;
/// Events recorded per unit, into a vector allocated afresh.
const EVENTS: usize = 6_000;

/// One recorded event, shaped like a simulator's cycle record.
struct Event {
    cycle: u64,
    pe: u32,
    kind: u8,
    value: i64,
}

struct Kernel {
    input: Vec<i32>,
    weights: Vec<i32>,
    out: Vec<i64>,
    acc: Vec<i64>,
    state: Vec<u8>,
    text: String,
    big: Vec<u32>,
}

impl Kernel {
    fn new() -> Kernel {
        Kernel {
            input: (0..H * H * CI).map(|i| (i as i32 * 7) % 13 - 6).collect(),
            weights: (0..K * K * CI * CO).map(|i| (i as i32 * 5) % 11 - 5).collect(),
            out: vec![0; (H - K + 1) * (H - K + 1) * CO],
            acc: vec![0; PES],
            state: vec![0; PES],
            text: String::new(),
            big: (0..BIG as u32).collect(),
        }
    }

    fn conv(&mut self) -> i64 {
        let o = H - K + 1;
        let (input, weights) = (black_box(&self.input), black_box(&self.weights));
        for m in 0..CO {
            for y in 0..o {
                for x in 0..o {
                    let mut s = 0i64;
                    for c in 0..CI {
                        for i in 0..K {
                            for j in 0..K {
                                s += (input[(c * H + y + i) * H + x + j] * weights[((m * CI + c) * K + i) * K + j]) as i64;
                            }
                        }
                    }
                    self.out[(m * o + y) * o + x] = s;
                }
            }
        }
        self.out.iter().sum()
    }

    fn cycles(&mut self, seed: u64) -> i64 {
        let mut s = seed | 1;
        for _ in 0..24 {
            for p in 0..PES {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                match self.state[p] {
                    0 if s & 3 == 0 => self.state[p] = 1,
                    1 => {
                        self.acc[p] += (s >> 40) as i64 & 255;
                        if s & 7 == 0 {
                            self.state[p] = 2;
                        }
                    }
                    2 => {
                        self.acc[(p + 1) % PES] -= 1;
                        self.state[p] = 0;
                    }
                    _ => {}
                }
            }
        }
        self.acc.iter().sum()
    }

    fn maps(&mut self, seed: u64) -> u64 {
        let mut ordered = BTreeMap::new();
        let mut hashed = HashMap::new();
        for i in 0..256u64 {
            let k = (i.wrapping_mul(0x9E37_79B9) ^ seed) & 1023;
            *ordered.entry(k).or_insert(0u64) += i;
            hashed.insert(k, vec![i; 4]);
        }
        let mut sum = 0u64;
        for i in 0..512u64 {
            sum = sum.wrapping_add(ordered.get(&i).copied().unwrap_or(1));
            sum = sum.wrapping_add(hashed.get(&i).map_or(0, |v| v[0]));
        }
        sum
    }

    fn format(&mut self, seed: u64) -> usize {
        self.text.clear();
        for (i, a) in self.acc.iter().take(96).enumerate() {
            let _ = write!(self.text, "{{\"pe\":{},\"acc\":{},\"r\":{:.3}}},", i, a, (*a as f64) / (seed as f64 + 1.0));
        }
        self.text.len()
    }

    fn memory(&mut self, seed: u64) -> u64 {
        let n = BIG;
        let start = (seed as usize * 4096) % n;
        let mut sum = 0u64;
        for i in 0..8192 {
            let j = (start + i * 16) % n;
            self.big[j] = self.big[j].wrapping_add(1);
            sum = sum.wrapping_add(self.big[(self.big[j] as usize).wrapping_mul(2_654_435_761) % n] as u64);
        }
        sum
    }

    /// Records events, folds them per (PE, kind) and renders the totals.
    fn events(&mut self, seed: u64) -> usize {
        let mut s = seed | 1;
        let mut events = Vec::new();
        for cycle in 0..EVENTS as u64 {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            events.push(Event {
                cycle,
                pe: (s % PES as u64) as u32,
                kind: (s >> 8) as u8 % 7,
                value: (s >> 20) as i64 & 1023,
            });
        }
        let mut totals: BTreeMap<(u32, u8), (u64, i64)> = BTreeMap::new();
        for e in &events {
            let t = totals.entry((e.pe, e.kind)).or_insert((0, 0));
            t.0 += 1;
            t.1 += e.value + (e.cycle & 1) as i64;
        }
        self.text.clear();
        for ((pe, kind), (count, sum)) in &totals {
            let _ = write!(self.text, "{{\"pe\":{pe},\"kind\":{kind},\"n\":{count},\"sum\":{sum}}},");
        }
        self.text.len()
    }

    fn unit(&mut self, seed: u64) -> u64 {
        let mut sum = self.conv() as u64 + self.memory(seed) + self.events(seed) as u64;
        for r in 0..2 {
            sum = sum.wrapping_add(self.cycles(seed + r) as u64);
        }
        sum = sum.wrapping_add(self.maps(seed));
        sum.wrapping_add(self.format(seed) as u64)
    }
}

fn main() {
    let mut kernel = Kernel::new();
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let _ = writeln!(out, "ready");
    let _ = out.flush();
    for line in std::io::stdin().lock().lines() {
        let Ok(line) = line else { break };
        let units: u64 = line.trim().parse().unwrap_or(0);
        let mut sum = 0u64;
        for u in 0..units {
            sum = sum.wrapping_add(kernel.unit(black_box(u)));
        }
        let _ = writeln!(out, "{sum}");
        let _ = out.flush();
    }
}
