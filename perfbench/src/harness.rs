//! Pieces every workload shares: run parameters, the model-load chain,
//! repeated set-up, the timed round loop and its summary statistics.

use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

use xtuml_core::bc::BcProgram;
use xtuml_core::code::CompiledProgram;
use xtuml_core::model::Domain;
use xtuml_exec::{SchedPolicy, Simulation};

use crate::report::Outcome;
use crate::spans::Tracer;

/// How one workload run is configured.
#[derive(Debug, Clone)]
pub struct Params {
    /// Workload seed: inputs are a pure function of it.
    pub seed: u64,
    /// Length of the measured phase, seconds.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Tiny sizes for the benchmark's own tests.
    pub tiny: bool,
    /// Where the span file goes.
    pub out_dir: PathBuf,
}

/// Runs the model-load chain on `text` with a span around every layer
/// call: parse, validate, frame compile, bytecode lowering, effect
/// analysis and simulation load.
///
/// # Errors
///
/// Returns the first parse or validation error, rendered.
pub fn load(text: &str, tr: &mut Tracer) -> Result<Domain, String> {
    let (domain, _spans) = tr
        .span("lang.parse", || xtuml_lang::parse_domain_for_lint(text))
        .map_err(|e| e.to_string())?;
    tr.span("core.validate", || xtuml_core::validate::validate(&domain))
        .map_err(|e| e.to_string())?;
    let program = tr.span("core.compile", || CompiledProgram::new(&domain));
    black_box(tr.span("core.bc_lower", || BcProgram::new(&domain, &program)));
    black_box(tr.span("core.effects", || xtuml_core::effects::analyze(&domain)));
    black_box(tr.span("exec.load", || {
        Simulation::with_policy(&domain, SchedPolicy::default())
    }));
    Ok(domain)
}

/// Copies the load-chain span totals into per-layer metrics.
pub fn load_metrics(tr: &Tracer, bytes: usize, out: &mut Outcome) {
    for (span, metric) in [
        ("lang.parse", "lang.parse_s"),
        ("core.validate", "core.validate_s"),
        ("core.compile", "core.compile_s"),
        ("core.bc_lower", "core.bc_lower_s"),
        ("core.effects", "core.effects_s"),
        ("exec.load", "exec.load_s"),
    ] {
        out.add(metric, tr.total_s(span));
    }
    out.add("lang.bytes", bytes as f64);
}

/// How often set-up is timed again during the measured pass, seconds.
const SETUP_EVERY_S: f64 = 1.0;

/// Set-up timings spread over the run: several at the start, then one
/// about every [`SETUP_EVERY_S`] through the measured pass. A shared
/// host changes speed for seconds at a time (by up to 1.5x on the 2-vCPU
/// VM the benchmark was tuned on), so set-ups timed back to back all
/// meet one speed; spread out, they meet the mix the rest of the run
/// meets.
pub struct SetupTimes<'s> {
    again: Box<dyn FnMut() -> bool + 's>,
    samples: Vec<f64>,
    failed: u64,
    last: Instant,
}

impl SetupTimes<'_> {
    /// Times one more set-up if [`SETUP_EVERY_S`] has passed since the
    /// last one; its result is dropped.
    pub fn tick(&mut self) {
        if self.last.elapsed().as_secs_f64() < SETUP_EVERY_S {
            return;
        }
        let t0 = Instant::now();
        if (self.again)() {
            self.samples.push(t0.elapsed().as_secs_f64());
        } else {
            self.failed += 1;
        }
        self.last = Instant::now();
    }

    /// Sets `setup_s` to the median of the samples and counts every
    /// timed set-up as a checked operation.
    pub fn finish(self, out: &mut Outcome) {
        let mut samples = self.samples;
        out.note("setup_samples", samples.len());
        for _ in 0..samples.len() {
            out.check(true);
        }
        out.set("setup_s", median(&mut samples));
        for _ in 0..self.failed {
            out.check(false);
        }
    }
}

/// Runs `setup` `reps` times and keeps the last result; returns it with
/// the set-up timer, which can run `setup` again later. Only the last of
/// the first repetitions records spans.
///
/// # Errors
///
/// Returns the first set-up error.
pub fn repeat_setup<'s, T>(
    reps: usize,
    tr: &mut Tracer,
    mut setup: impl FnMut(&mut Tracer) -> Result<T, String> + 's,
) -> Result<(T, SetupTimes<'s>), String> {
    let mut samples = Vec::with_capacity(reps);
    let mut last = None;
    for rep in 0..reps {
        drop(last.take());
        let mut local = Tracer::new(tr.enabled() && rep + 1 == reps, tr.epoch(), 0);
        let open = local.begin("bench.setup");
        let t0 = Instant::now();
        let value = setup(&mut local)?;
        samples.push(t0.elapsed().as_secs_f64());
        local.end(open);
        if rep + 1 == reps {
            tr.absorb(local);
        }
        last = Some(value);
    }
    let again = move || {
        let mut quiet = Tracer::new(false, Instant::now(), 0);
        setup(&mut quiet).is_ok()
    };
    let times = SetupTimes {
        again: Box::new(again),
        samples,
        failed: 0,
        last: Instant::now(),
    };
    Ok((last.expect("reps >= 1"), times))
}

/// One timed operation.
#[derive(Debug, Clone, Copy, Default)]
pub struct JobOut {
    /// Host time of the operation, excluding the benchmark's own checks.
    pub wall_ns: u64,
    /// Model signals the operation dispatched.
    pub signals: u64,
    /// The operation's output matched its reference.
    pub ok: bool,
}

/// One pass of the round loop.
#[derive(Debug, Default)]
pub struct Pass {
    /// Jobs per round, in order.
    pub rounds: Vec<Vec<JobOut>>,
    /// Wall time of the whole pass, seconds.
    pub elapsed_s: f64,
}

impl Pass {
    /// Every job of the pass.
    pub fn jobs(&self) -> impl Iterator<Item = &JobOut> {
        self.rounds.iter().flatten()
    }
}

/// Runs rounds of `per_round` jobs until `seconds` have passed (or
/// exactly `rounds` rounds when given). A round always completes, so
/// every round covers the same inputs.
pub fn run_rounds(
    per_round: usize,
    seconds: f64,
    rounds: Option<usize>,
    mut job: impl FnMut(usize, usize) -> JobOut,
) -> Pass {
    let t0 = Instant::now();
    let mut pass = Pass::default();
    loop {
        let r = pass.rounds.len();
        match rounds {
            Some(n) if r >= n => break,
            None if r > 0 && t0.elapsed().as_secs_f64() >= seconds => break,
            _ => {}
        }
        pass.rounds
            .push((0..per_round).map(|j| job(r, j)).collect());
    }
    pass.elapsed_s = t0.elapsed().as_secs_f64();
    pass
}

/// Runs the measured phase. One untimed warm-up round comes first; the
/// peak resident set after it is the run's `peak_rss_mb` (every round
/// runs the same inputs, so later rounds reach no higher, and the
/// benchmark's own sample buffers, which grow with the run, stay out of
/// it). Untraced: one pass of `params.seconds`, with set-up timed again
/// between rounds (outside every job's time). Traced: an untraced pass
/// of half the time, then a traced pass over the same rounds; their
/// wall-time difference is the tracing overhead. Returns the pass whose
/// jobs carry the numbers to report.
pub fn measure(
    params: &Params,
    per_round: usize,
    tr: &mut Tracer,
    mut job: impl FnMut(&mut Tracer, usize, usize) -> JobOut,
    setup: &mut SetupTimes<'_>,
    out: &mut Outcome,
) -> Pass {
    let mut quiet = Tracer::new(false, Instant::now(), 0);
    let warm = run_rounds(per_round, 0.0, Some(1), |r, j| job(&mut quiet, r, j));
    count(&warm, out);
    out.set("peak_rss_mb", peak_rss_mb());
    if !params.trace {
        let pass = run_rounds(per_round, params.seconds, None, |r, j| {
            if j == 0 {
                setup.tick();
            }
            job(&mut quiet, r, j)
        });
        count(&pass, out);
        return pass;
    }
    let plain = run_rounds(per_round, params.seconds / 2.0, None, |r, j| {
        job(&mut quiet, r, j)
    });
    count(&plain, out);
    let traced = run_rounds(per_round, 0.0, Some(plain.rounds.len()), |r, j| {
        tr.set_op((r * per_round + j) as u64);
        let open = tr.begin("bench.job");
        let o = job(tr, r, j);
        tr.end(open);
        o
    });
    count(&traced, out);
    out.set(
        "obs.overhead_frac",
        (traced.elapsed_s - plain.elapsed_s) / plain.elapsed_s,
    );
    traced
}

fn count(pass: &Pass, out: &mut Outcome) {
    for j in pass.jobs() {
        out.check(j.ok);
    }
}

/// Band of round-time percentiles whose mean the batch metrics are
/// read from. A shared host changes speed for seconds to minutes at a
/// time (by up to 1.5x on the 2-vCPU VM the benchmark was tuned on), and
/// its slow and fast spells fall differently into each run. Any single
/// percentile of round time jumped by up to a fifth between runs on some
/// stretch of host behaviour (the median with the share of fast spells,
/// the 90th percentile with the depth of the slowest one); the mean of
/// the 50th to 90th percentile band moved least over every stretch
/// recorded.
pub const ROUND_BAND: (f64, f64) = (0.5, 0.9);

/// Mean of the sorted samples between the two percentiles of `band`
/// (at least one sample); 0 for no samples.
pub fn band_mean(sorted: &[u64], band: (f64, f64)) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    let lo = ((band.0 * n as f64) as usize).min(n - 1);
    let hi = ((band.1 * n as f64) as usize).clamp(lo + 1, n);
    sorted[lo..hi].iter().sum::<u64>() as f64 / (hi - lo) as f64
}

/// The batch end-to-end metrics of an untraced pass. A round runs every
/// input of the workload once, so its time is the workload's latency:
/// `latency_ms` is the [`ROUND_BAND`] mean of round time, and the rates
/// are one round's signals and jobs over that time. The median and the
/// tail of round time (`p50_ms`, `p99_ms`) go in the summary, unbounded.
pub fn batch_metrics(pass: &Pass, out: &mut Outcome) {
    let mut rounds: Vec<u64> = pass
        .rounds
        .iter()
        .map(|r| r.iter().map(|j| j.wall_ns).sum())
        .collect();
    out.set("p99_ms", windowed_p99_ms(&rounds));
    rounds.sort_unstable();
    let round_s = band_mean(&rounds, ROUND_BAND) * 1e-9;
    // Every round runs the same inputs.
    let first = pass.rounds.first().map_or(&[][..], Vec::as_slice);
    let signals: u64 = first.iter().map(|j| j.signals).sum();
    out.set("latency_ms", round_s * 1e3);
    out.set("signals_per_s", signals as f64 / round_s);
    out.set("ops_per_s", first.len() as f64 / round_s);
    out.set("p50_ms", percentile(&rounds, 0.5) as f64 * 1e-6);
    out.note("rounds", rounds.len());
    out.note(
        "round_ms_p10_p50_p75_p90",
        [0.1, 0.5, 0.75, 0.9]
            .map(|p| format!("{:.3}", percentile(&rounds, p) as f64 * 1e-6))
            .join(" "),
    );
}

/// p99 of latency samples in time order, robust to one stalled stretch:
/// the samples are cut into up to four consecutive windows of at least
/// 1000 (so each window's p99 has ten samples beyond it), and the median
/// of the window p99s is returned, in ms.
pub fn windowed_p99_ms(samples: &[u64]) -> f64 {
    let windows = (samples.len() / 1000).clamp(1, 4);
    let size = samples.len().div_ceil(windows).max(1);
    let mut p99s: Vec<f64> = samples
        .chunks(size)
        .map(|w| {
            let mut w = w.to_vec();
            w.sort_unstable();
            percentile(&w, 0.99) as f64 * 1e-6
        })
        .collect();
    median(&mut p99s)
}

/// Median (sorts in place); 0 for no samples.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of sorted samples; 0 for no samples.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Peak resident set size of this process (VmHWM), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Spans written to the span file. The in-memory spans all feed the
/// per-layer numbers; the file holds the first ones (set-up and the
/// first operations) because `obs::check_chrome_trace` takes time
/// quadratic in the document's size.
pub const SPAN_FILE_LIMIT: usize = 2000;

/// Writes the span file and checks it; returns its path.
///
/// # Errors
///
/// Returns an I/O error or the trace checker's complaint.
pub fn write_spans(params: &Params, workload: &str, tr: &Tracer) -> Result<PathBuf, String> {
    let json = tr.to_chrome_json(&format!("perfbench {workload}"), SPAN_FILE_LIMIT);
    xtuml_obs::check_chrome_trace(&json)?;
    std::fs::create_dir_all(&params.out_dir).map_err(|e| e.to_string())?;
    let path = params
        .out_dir
        .join(format!("spans-{workload}-{}.json", params.seed));
    std::fs::write(&path, json).map_err(|e| e.to_string())?;
    Ok(path)
}

/// Ends a traced run: per-layer self time from every span, and the span
/// file (a file that fails the trace check fails the run).
pub fn finish_trace(params: &Params, workload: &str, tr: &Tracer, out: &mut Outcome) {
    for (layer, s) in crate::spans::layer_self_s(tr.spans()) {
        out.set(&format!("self_s.{layer}"), s);
    }
    out.note("spans", tr.spans().len());
    let written = write_spans(params, workload, tr);
    out.check(written.is_ok());
    match written {
        Ok(path) => out.note("span_file", path.display()),
        Err(e) => out.note("span_file_error", e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_and_medians() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        // One stalled window out of four does not move the p99.
        let mut lat = vec![1_000_000u64; 4000];
        lat[10..60].fill(50_000_000);
        assert_eq!(windowed_p99_ms(&lat), 1.0);
    }

    #[test]
    fn band_mean_averages_the_band() {
        let v: Vec<u64> = (1..=10).collect();
        // The 50th to 90th percentile band of 1..=10 is 6, 7, 8, 9.
        assert_eq!(band_mean(&v, (0.5, 0.9)), 7.5);
        assert_eq!(band_mean(&[4], (0.5, 0.9)), 4.0);
        assert_eq!(band_mean(&[], (0.5, 0.9)), 0.0);
    }

    #[test]
    fn rounds_complete_and_respect_counts() {
        let pass = run_rounds(3, 0.0, Some(4), |_, _| JobOut {
            wall_ns: 10,
            signals: 5,
            ok: true,
        });
        assert_eq!(pass.rounds.len(), 4);
        assert!(pass.rounds.iter().all(|r| r.len() == 3));
        let mut out = Outcome::default();
        batch_metrics(&pass, &mut out);
        // 15 signals and 3 jobs per 30 ns round.
        assert!((out.metrics["signals_per_s"] - 5.0e8).abs() < 1.0);
        assert!((out.metrics["ops_per_s"] - 1.0e8).abs() < 1.0);
        assert!((out.metrics["latency_ms"] - 3.0e-5).abs() < 1e-12);
    }
}
