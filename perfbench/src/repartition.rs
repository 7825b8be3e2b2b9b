//! `repartition`: the paper's mark sweep. For a pipeline and a fan-out
//! model, every hardware/software mark set over their classes is parsed,
//! compiled to a design, instantiated as a co-simulated system, fed the
//! model's stimuli, run to quiescence and checked for observable
//! equivalence against the model trace computed once in set-up.
//!
//! The co-simulation counts (hardware and CPU cycles, bus messages and
//! beats) are deterministic: the first run of every mark set, in set-up,
//! fixes them, and every timed run must reproduce them exactly.

use std::time::Instant;

use xtuml_core::model::Domain;
use xtuml_cosim::CosimStats;
use xtuml_exec::{ObservableEvent, SchedPolicy};
use xtuml_mda::{CompiledDesign, ModelCompiler};
use xtuml_obs::{Clock, Recorder};
use xtuml_verify::TestCase;

use crate::harness::{self, JobOut, Params};
use crate::models::{self, Case};
use crate::report::Outcome;
use crate::spans::{Open, Tracer};

/// One model of the sweep with its spaced stimuli and reference trace.
pub struct Model {
    case: Case,
    domain: Domain,
    reference: Vec<ObservableEvent>,
}

/// One mark set of one model, with its exact co-simulation counts.
pub struct Partition {
    model: usize,
    marks: String,
    expect: Option<CosimStats>,
}

/// The two models for `seed`, their stimuli spaced `gap` hardware
/// cycles apart: far enough that one fan-out burst settles before the
/// next, on every partition, and that no default-depth FIFO overflows.
pub fn cases(seed: u64, tiny: bool) -> Vec<(Case, u64)> {
    let (feeds, bursts) = if tiny { (2, 2) } else { (6, 2) };
    vec![
        (models::pipeline(seed, 4, feeds), 64),
        (models::fanout(seed, 2, bursts), 1200),
    ]
}

/// Every subset of the model's classes, as mark-file text.
pub fn mark_sets(domain: &Domain) -> Vec<String> {
    let n = domain.classes.len();
    (0..1u32 << n)
        .map(|mask| {
            let mut text = format!("marks for {};\n", domain.name);
            for (k, class) in domain.classes.iter().enumerate() {
                if mask >> k & 1 == 1 {
                    text.push_str(&format!("mark class {} isHardware = true;\n", class.name));
                }
            }
            text
        })
        .collect()
}

fn spaced(tc: &TestCase, gap: u64) -> TestCase {
    let mut tc = tc.clone();
    for (i, s) in tc.stimuli.iter_mut().enumerate() {
        s.time = i as u64 * gap;
    }
    tc
}

/// The compile-phase spans `compile_obs` records, by metric.
const MDA_PHASES: [(&str, &str, &str); 5] = [
    ("partition", "mda.partition", "mda.partition_s"),
    ("interface", "mda.interface", "mda.interface_s"),
    ("cgen", "mda.cgen", "mda.cgen_s"),
    ("vgen", "mda.vgen", "mda.vgen_s"),
    ("icd", "mda.icd", "mda.icd_s"),
];

/// Per-layer tallies of the traced pass.
#[derive(Debug, Default)]
struct Tally {
    c_lines: u64,
    vhdl_lines: u64,
    stats: CosimStats,
}

fn compile<'d>(
    tr: &mut Tracer,
    domain: &'d Domain,
    marks_text: &str,
) -> Result<CompiledDesign<'d>, String> {
    let (_, marks) = tr
        .span("lang.parse_marks", || xtuml_lang::parse_marks(marks_text))
        .map_err(|e| e.to_string())?;
    let open = tr.begin("mda.compile");
    if !tr.enabled() {
        let design = ModelCompiler::new().compile(domain, &marks);
        tr.end(open);
        return design.map_err(|e| e.to_string());
    }
    let base = tr.clock_ns();
    let mut rec = Recorder::with_spans(Clock::start());
    let design = ModelCompiler::new().compile_obs(&mut rec, domain, &marks);
    tr.end(open);
    mirror_phases(tr, open, &rec, base);
    design.map_err(|e| e.to_string())
}

/// Copies `compile_obs`'s phase spans under `parent`.
fn mirror_phases(tr: &mut Tracer, parent: Open, rec: &Recorder, base_ns: u64) {
    let Some(buf) = rec.spans() else { return };
    for ev in buf.events() {
        if let Some((_, name, _)) = MDA_PHASES.iter().find(|(p, _, _)| *p == ev.name) {
            let start = base_ns + ev.ts_us * 1000;
            tr.record(parent, name, start, start + ev.dur_us * 1000);
        }
    }
}

/// Compiles and co-simulates one partition; returns the observables and
/// the co-simulation counts.
fn run_partition(
    tr: &mut Tracer,
    model: &Model,
    marks: &str,
    tally: &mut Tally,
) -> Result<(Vec<ObservableEvent>, CosimStats), String> {
    let design = compile(tr, &model.domain, marks)?;
    if tr.enabled() {
        tally.c_lines += design.c_lines() as u64;
        tally.vhdl_lines += design.vhdl_lines() as u64;
    }
    let mut sys = tr.span("mda.instantiate", || design.instantiate());
    let tc = &model.case.tc;
    let mut insts = Vec::with_capacity(tc.creates.len());
    for class in &tc.creates {
        insts.push(sys.create(class).map_err(|e| e.to_string())?);
    }
    for (a, b, assoc) in &tc.relates {
        sys.relate(insts[*a], insts[*b], assoc)
            .map_err(|e| e.to_string())?;
    }
    for s in &tc.stimuli {
        sys.inject(s.time, insts[s.inst], &s.event, s.args.clone())
            .map_err(|e| e.to_string())?;
    }
    let stats = tr
        .span("cosim.run", || sys.run_to_quiescence())
        .map_err(|e| e.to_string())?;
    if tr.enabled() {
        let t = &mut tally.stats;
        t.hw_cycles += stats.hw_cycles;
        t.cpu_cycles += stats.cpu_cycles;
        t.msgs_sw_to_hw += stats.msgs_sw_to_hw;
        t.msgs_hw_to_sw += stats.msgs_hw_to_sw;
        t.bus_beats += stats.bus_beats;
    }
    Ok((sys.observables(), stats))
}

/// Loads both models and computes their reference traces.
fn setup(params: &Params, tr: &mut Tracer) -> Result<(Vec<Model>, Vec<Partition>), String> {
    let mut models = Vec::new();
    let mut partitions = Vec::new();
    for (mi, (mut case, gap)) in cases(params.seed, params.tiny).into_iter().enumerate() {
        let domain = harness::load(&case.text, tr)?;
        case.tc = spaced(&case.tc, gap);
        for marks in mark_sets(&domain) {
            partitions.push(Partition {
                model: mi,
                marks,
                expect: None,
            });
        }
        models.push(Model {
            case,
            domain,
            reference: Vec::new(),
        });
    }
    Ok((models, partitions))
}

/// Runs the workload.
///
/// # Errors
///
/// Returns a set-up failure (a generated model that does not load).
pub fn run(params: &Params) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut tr = Tracer::new(params.trace, Instant::now(), 0);
    let ((mut models, mut partitions), mut setup) =
        harness::repeat_setup(7, &mut tr, |t| setup(params, t))?;

    // The model trace each partition must reproduce: the abstract model
    // run, itself checked against the closed-form expectation.
    for m in &mut models {
        let reference = tr.span("verify.ref", || {
            xtuml_verify::run_model(&m.domain, SchedPolicy::seeded(params.seed), &m.case.tc)
        });
        let ok = reference
            .as_ref()
            .is_ok_and(|r| m.case.observables_match(r));
        out.check(ok);
        m.reference = reference.unwrap_or_default();
    }
    // First run of every mark set fixes its exact co-simulation counts.
    let mut scratch = Tally::default();
    let mut quiet = Tracer::new(false, Instant::now(), 0);
    for p in &mut partitions {
        let first = run_partition(&mut quiet, &models[p.model], &p.marks, &mut scratch);
        out.check(first.is_ok());
        p.expect = first.ok().map(|(_, stats)| stats);
    }

    let mut tally = Tally::default();
    let pass = harness::measure(
        params,
        partitions.len(),
        &mut tr,
        |t, _round, j| {
            let p = &partitions[j];
            let model = &models[p.model];
            let t0 = Instant::now();
            let ran = run_partition(t, model, &p.marks, &mut tally);
            let wall_ns = t0.elapsed().as_nanos() as u64;
            let ok = t.span("verify.check", || match &ran {
                Ok((obs, stats)) => {
                    Some(*stats) == p.expect
                        && xtuml_verify::check_equivalence(&model.reference, obs).is_equivalent()
                }
                Err(_) => false,
            });
            JobOut {
                wall_ns,
                signals: model.case.dispatches,
                ok,
            }
        },
        &mut setup,
        &mut out,
    );
    setup.finish(&mut out);

    if params.trace {
        let bytes = models.iter().map(|m| m.case.text.len()).sum();
        harness::load_metrics(&tr, bytes, &mut out);
        let rounds = pass.rounds.len().max(1) as f64;
        out.set("mda.compile_s", tr.total_s("mda.compile"));
        for (_, span, metric) in MDA_PHASES {
            out.set(metric, tr.total_s(span));
        }
        out.set("mda.instantiate_s", tr.total_s("mda.instantiate"));
        out.set("mda.c_lines", tally.c_lines as f64 / rounds);
        out.set("mda.vhdl_lines", tally.vhdl_lines as f64 / rounds);
        let cosim_s = tr.total_s("cosim.run");
        let s = &tally.stats;
        out.set("cosim.run_s", cosim_s);
        out.set(
            "cosim.ns_per_hw_cycle",
            cosim_s * 1e9 / s.hw_cycles.max(1) as f64,
        );
        out.set("cosim.hw_cycles", s.hw_cycles as f64 / rounds);
        out.set("cosim.cpu_cycles", s.cpu_cycles as f64 / rounds);
        out.set(
            "cosim.bus_msgs",
            (s.msgs_sw_to_hw + s.msgs_hw_to_sw) as f64 / rounds,
        );
        out.set("cosim.bus_beats", s.bus_beats as f64 / rounds);
        out.set("verify.ref_s", tr.total_s("verify.ref"));
        out.set("verify.check_s", tr.total_s("verify.check"));
        harness::finish_trace(params, "repartition", &tr, &mut out);
    } else {
        harness::batch_metrics(&pass, &mut out);
    }
    Ok(out)
}

/// Exact per-round counts for the benchmark's own tests: C and VHDL
/// lines and co-simulation counts summed over every mark set.
///
/// # Errors
///
/// Returns the first set-up, compile or co-simulation error.
pub fn round_counts(params: &Params) -> Result<(u64, u64, CosimStats), String> {
    let mut quiet = Tracer::new(true, Instant::now(), 0);
    let (models, partitions) = setup(params, &mut Tracer::new(false, Instant::now(), 0))?;
    let mut tally = Tally::default();
    for p in &partitions {
        run_partition(&mut quiet, &models[p.model], &p.marks, &mut tally)?;
    }
    Ok((tally.c_lines, tally.vhdl_lines, tally.stats))
}
