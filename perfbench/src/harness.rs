//! The measurement loop every workload shares: seeded inputs, repeated
//! set-up + drive samples against a time budget, output checks and the
//! result line.

use crate::{reference, stats};
use eqc_core::EqcError;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Command-line settings of one run.
#[derive(Clone, Debug)]
pub struct Env {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// The least untraced sample count for which the tail percentile (ten
/// samples beyond it) exists.
const MIN_FOR_TAIL: usize = stats::TAIL_SAMPLES_BEYOND + 1;
/// Traced samples a traced run always collects.
const MIN_TRACED: usize = 3;
/// Hard stop for the sampling loop, whatever the minimum counts say, so
/// a run always ends well inside its time limit.
const HARD_STOP: Duration = Duration::from_secs(120);

/// SplitMix64 finalizer: a well-mixed 64-bit hash.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An independent seed for one input role (devices, tenants, arrivals)
/// and index within input set `input`, derived from the workload seed
/// alone.
pub fn derive(seed: u64, input: usize, role: u64, index: u64) -> u64 {
    mix(mix(mix(mix(seed) ^ input as u64) ^ role) ^ index)
}

/// Seed roles.
pub const DEVICES: u64 = 1;
pub const TENANTS: u64 = 2;
pub const ARRIVALS: u64 = 3;

/// The simulated outcome of one drive: deterministic per seed, so a
/// pure performance change leaves every field bit-identical.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Sim {
    /// The paper's training speed: epochs per virtual hour, pooled over
    /// tenants (epochs summed over tenant hours summed).
    pub epochs_per_h: f64,
    /// Mean over tenants of the error against the exact optimum, %.
    pub final_error_pct: f64,
    /// Total tenant queue wait, virtual hours.
    pub queue_wait_h: f64,
    /// Share of deadline-carrying tenants that missed their deadline.
    pub slo_miss_frac: f64,
}

/// What one drive produced.
#[derive(Clone, Debug)]
pub struct Output {
    /// Byte-identity key: the `Debug` rendering of every report and
    /// outcome field the drive is deterministic in.
    pub fingerprint: String,
    /// Epochs trained, summed over tenants.
    pub epochs: usize,
    /// Output-check failures (under-trained or unretired tenants).
    pub defects: Vec<String>,
    pub sim: Sim,
}

/// The samples and checks of one run. Times are rescaled to the
/// reference host (see [`reference`]) unless named `raw_`.
#[derive(Debug, Default)]
pub struct Measured {
    pub setup_s: Vec<f64>,
    pub run_s: Vec<f64>,
    /// Peak resident set of each untraced set-up + drive, MiB.
    pub rss_mb: Vec<f64>,
    pub traced_run_s: Vec<f64>,
    /// Wall-clock set-up and drive times of the untraced samples.
    pub raw_setup_s: Vec<f64>,
    pub raw_run_s: Vec<f64>,
    /// Every timing of the reference kernel, in run order.
    pub reference_s: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// The first output of each input set: its byte-identity reference
    /// and its simulated metrics.
    pub references: Vec<Option<Output>>,
    pub problems: Vec<String>,
}

impl Measured {
    /// Files one attempted drive of input set `input`: a set-up or
    /// drive error, an output defect or a mismatch against that input's
    /// reference all count it failed. The first good output of an input
    /// set becomes its reference.
    pub fn check(&mut self, what: &str, input: usize, out: Result<Output, EqcError>) -> bool {
        self.attempted += 1;
        let reference = &mut self.references[input];
        let problem = match out {
            Err(e) => format!("{what}: {e}"),
            Ok(out) if !out.defects.is_empty() => format!("{what}: {}", out.defects.join("; ")),
            Ok(out) => match reference {
                None => {
                    *reference = Some(out);
                    return true;
                }
                Some(r) if r.fingerprint == out.fingerprint => return true,
                Some(_) => format!("{what}: output of input {input} differs from its first drive"),
            },
        };
        self.failed += 1;
        if self.problems.len() < 8 {
            self.problems.push(problem);
        }
        false
    }

    /// Whether every input set has a reference and every attempted
    /// drive passed its checks.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.references.iter().all(Option::is_some)
    }

    /// Epochs of one drive (the same budget on every input set).
    pub fn epochs(&self) -> Option<usize> {
        self.references.first()?.as_ref().map(|r| r.epochs)
    }

    /// The simulated metrics averaged over the input sets; `None` until
    /// every input set has a reference.
    pub fn sim(&self) -> Option<Sim> {
        let n = self.references.len() as f64;
        let mut sim = Sim::default();
        for r in &self.references {
            let r = &r.as_ref()?.sim;
            sim.epochs_per_h += r.epochs_per_h / n;
            sim.final_error_pct += r.final_error_pct / n;
            sim.queue_wait_h += r.queue_wait_h / n;
            sim.slo_miss_frac += r.slo_miss_frac / n;
        }
        Some(sim)
    }
}

/// Runs one untimed warm-up drive, then set-up + drive samples cycling
/// through `inputs` input sets until the time budget is spent, every
/// input set has been driven and the tail has ten samples beyond it.
/// The reference kernel runs between samples; each sample is rescaled
/// by the mean of the reference times just before and just after it.
/// Traced runs interleave untraced and traced samples of each input,
/// untraced first, so both see the same host conditions and every
/// traced output is compared with an untraced one.
/// `setup(input, traced)` and `drive(state, input, traced)` are timed
/// separately.
pub fn measure<S>(
    env: &Env,
    inputs: usize,
    mut setup: impl FnMut(usize, bool) -> Result<S, EqcError>,
    mut drive: impl FnMut(S, usize, bool) -> Result<Output, EqcError>,
) -> Measured {
    let mut m = Measured {
        references: vec![None; inputs],
        ..Measured::default()
    };
    let warm = setup(0, false).and_then(|s| drive(s, 0, false));
    if !m.check("warm-up", 0, warm) {
        return m;
    }
    reference::time_kernel();
    let mut reference_before = reference::time_kernel();
    m.reference_s.push(reference_before);
    let start = Instant::now();
    let budget = Duration::from_secs_f64(env.seconds);
    let min_untraced = MIN_FOR_TAIL.max(inputs);
    let min_traced = if env.trace { MIN_TRACED } else { 0 };
    let mut step = 0usize;
    loop {
        let elapsed = start.elapsed();
        let minimums_met = m.run_s.len() >= min_untraced && m.traced_run_s.len() >= min_traced;
        if (minimums_met && elapsed >= budget) || elapsed >= HARD_STOP {
            break;
        }
        let (traced, input) = if env.trace {
            (step % 2 == 1, (step / 2) % inputs)
        } else {
            (false, step % inputs)
        };
        step += 1;
        reset_peak_rss();
        let t0 = Instant::now();
        let state = match setup(input, traced) {
            Ok(s) => s,
            Err(e) => {
                m.check("set-up", input, Err(e));
                continue;
            }
        };
        let setup_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let out = drive(state, input, traced);
        let run_s = t1.elapsed().as_secs_f64();
        let rss_mb = peak_rss_mb();
        let label = if traced { "traced drive" } else { "drive" };
        let passed = m.check(label, input, out);
        let reference_after = reference::time_kernel();
        m.reference_s.push(reference_after);
        let rescale = |t| reference::rescale(t, reference_before, reference_after);
        if passed {
            if traced {
                m.traced_run_s.push(rescale(run_s));
            } else {
                m.setup_s.push(rescale(setup_s));
                m.run_s.push(rescale(run_s));
                m.raw_setup_s.push(setup_s);
                m.raw_run_s.push(run_s);
                m.rss_mb.extend(rss_mb);
            }
        }
        reference_before = reference_after;
    }
    m
}

/// One named metric with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Collects metrics in output order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }
}

/// Resets the process's peak resident set to its current one, so the
/// next [`peak_rss_mb`] reads the peak of what ran in between. Where the
/// kernel does not support it the peak stays process-wide.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process since the last reset, MiB
/// (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The end-to-end metrics every workload reports, from its samples.
/// `None` when a sample set is empty.
pub fn end_to_end(m: &Measured) -> Option<Metrics> {
    let epochs = m.epochs()?;
    let run_s = stats::median(&m.run_s)?;
    // Below the minimum count (hard stop) the slowest sample stands in
    // for the tail.
    let tail = stats::tail(&m.run_s)
        .map(|(_, v)| v)
        .or_else(|| m.run_s.iter().copied().reduce(f64::max))?;
    let mut out = Metrics::default();
    out.push("setup_s", stats::median(&m.setup_s)?, "s");
    out.push("run_s", run_s, "s");
    out.push("run_s_tail", tail, "s");
    // Epochs of one drive over the median drive: a mean would let a
    // few samples caught by a neighbour's burst set the rate.
    out.push("epochs_per_s", epochs as f64 / run_s, "1/s");
    out.push("peak_rss_mb", stats::median(&m.rss_mb)?, "MiB");
    let sim = m.sim()?;
    out.push("sim_epochs_per_h", sim.epochs_per_h, "1/h");
    out.push("final_error_pct", sim.final_error_pct, "%");
    out.push("sim_queue_wait_h", sim.queue_wait_h, "h");
    Some(out)
}

/// Prints the human-readable summary lines (stdout, before the result
/// line).
pub fn print_samples(m: &Measured) {
    let fmt = |v: &[f64]| {
        let med = stats::median(v).unwrap_or(f64::NAN);
        let q = stats::quartiles(v).unwrap_or([f64::NAN; 3]);
        let spread = stats::relative_spread(v).unwrap_or(f64::NAN);
        format!(
            "n={} median={med:.4}s q1={:.4}s q3={:.4}s iqr/median={spread:.3}",
            v.len(),
            q[0],
            q[2]
        )
    };
    println!("# setup (rescaled): {}", fmt(&m.setup_s));
    println!("# drive (rescaled): {}", fmt(&m.run_s));
    println!("# setup (wall clock): {}", fmt(&m.raw_setup_s));
    println!("# drive (wall clock): {}", fmt(&m.raw_run_s));
    println!(
        "# reference kernel: {} (rescaled to {}s)",
        fmt(&m.reference_s),
        reference::REFERENCE_S
    );
    let list = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!(
        "# drive samples (rescaled s, in run order): {}",
        list(&m.run_s)
    );
    if let Some((p, v)) = stats::tail(&m.run_s) {
        println!("# drive tail: p{p:.1} = {v:.4}s (10 samples beyond)");
    }
    if !m.traced_run_s.is_empty() {
        println!("# traced drive (rescaled): {}", fmt(&m.traced_run_s));
        println!(
            "# traced samples (rescaled s, in run order): {}",
            list(&m.traced_run_s)
        );
    }
    for p in &m.problems {
        println!("# FAILED {p}");
    }
}

/// Prints a "where the time goes" table: each row's busy time per
/// drive and its share of the drive wall time.
pub fn print_breakdown(title: &str, wall_s: f64, rows: &[(&str, f64)]) {
    println!("# where the time goes — {title} (per drive, wall {wall_s:.4} s)");
    println!("#   {:<44} {:>12} {:>8}", "span", "busy_s", "share");
    for (name, busy) in rows {
        println!(
            "#   {name:<44} {busy:>12.6} {:>7.2}%",
            100.0 * busy / wall_s
        );
    }
}

/// The result line: one JSON object, the last line of stdout.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.0.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // `+ 0.0` prints an empty float sum (-0.0) as 0.
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            m.value + 0.0,
            m.unit
        );
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_are_deterministic_and_distinct() {
        assert_eq!(derive(1, 0, DEVICES, 0), derive(1, 0, DEVICES, 0));
        assert_ne!(derive(1, 0, DEVICES, 0), derive(2, 0, DEVICES, 0));
        assert_ne!(derive(1, 0, DEVICES, 0), derive(1, 1, DEVICES, 0));
        assert_ne!(derive(1, 0, DEVICES, 0), derive(1, 0, TENANTS, 0));
        assert_ne!(derive(1, 0, TENANTS, 0), derive(1, 0, TENANTS, 1));
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut m = Metrics::default();
        m.push("run_s", 1.25, "s");
        m.push("setup_s", 0.5, "s");
        m.push("queued_h", -0.0, "h");
        assert_eq!(
            result_json(true, 3, 0, &m),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"run_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"queued_h\": {\"value\": 0, \"unit\": \"h\"}}}"
        );
    }
}
