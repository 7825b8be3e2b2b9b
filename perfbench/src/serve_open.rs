//! `serve_open`: an in-process `xtuml serve` daemon on loopback under
//! open-loop session arrivals.
//!
//! Sessions arrive on a fixed schedule; each then runs closed-loop over
//! one connection: create → stimulate×n → step → (snapshot → restore) →
//! trace → close. Most creates reuse a few model texts (daemon cache
//! hits); every `miss_every`-th session sends fuzz-generated text under a
//! fresh domain name, which the daemon must parse. Idle eviction is on,
//! and every `park_every`-th session pauses after its step until its
//! client has run another session, so its next touch revives it from the
//! spool. Two client threads, one connection each, generate the load.
//!
//! Latency is timed from when a request was due: a session's first
//! request is due at its arrival time, each later one when the previous
//! reply came back. Every reply must be `ok`, and every trace reply must
//! equal the reply of an in-process run of the same script.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use xtuml_core::value::Value;
use xtuml_exec::{SchedPolicy, Simulation};
use xtuml_serve::{Client, Request, ServeConfig, Server, SessionCfg, Store};

use crate::harness::{self, median, percentile, Params};
use crate::models::{self, Rng};
use crate::report::{spec_num, Outcome};
use crate::spans::Tracer;

/// Client threads (and connections): at most the two cores assumed.
pub const CLIENTS: usize = 2;

/// Rungs the ladder walk probes at most (each up to twice).
const MAX_PROBES: usize = 8;

/// Consecutive replies of the back-to-back stretch that make one
/// sustained-rate sample.
const SAT_CHUNK: usize = 500;

/// Request kinds, for per-verb latency.
pub const VERBS: [&str; 8] = [
    "create_hit",
    "create_miss",
    "stimulate",
    "step",
    "trace",
    "snapshot",
    "restore",
    "close",
];
const CREATE_HIT: usize = 0;
const CREATE_MISS: usize = 1;
const STIMULATE: usize = 2;
const STEP: usize = 3;
const TRACE: usize = 4;
const SNAPSHOT: usize = 5;
const RESTORE: usize = 6;
const CLOSE: usize = 7;
const SPAN_NAMES: [&str; 8] = [
    "serve.create_hit",
    "serve.create_miss",
    "serve.stimulate",
    "serve.step",
    "serve.trace",
    "serve.snapshot",
    "serve.restore",
    "serve.close",
];

/// The workload's fixed settings, from `spec.json`.
#[derive(Debug, Clone)]
pub struct Settings {
    /// Offered request rate of the fixed-rate segment.
    pub fixed_rps: f64,
    /// The p99 latency limit of the capacity search, ms.
    pub p99_limit_ms: f64,
    /// First rung of the rate ladder, requests/s.
    pub ladder_start_rps: f64,
    /// Ratio between rungs (below 1.1: steps finer than a tenth).
    pub ladder_ratio: f64,
    /// Rungs on the ladder.
    pub ladder_rungs: usize,
    /// Share of the run spent at the fixed rate; the rest searches.
    pub fixed_share: f64,
    /// Every n-th session sends fresh model text.
    pub miss_every: u64,
    /// Every n-th session pauses after its step.
    pub park_every: u64,
    /// Daemon idle-eviction threshold, request ticks.
    pub idle_evict: u64,
}

impl Settings {
    /// Reads the settings from `spec.json`.
    pub fn from_spec() -> Settings {
        let n = |k: &str| spec_num(&format!("serve_open/{k}"));
        Settings {
            fixed_rps: n("fixed_rps"),
            p99_limit_ms: n("p99_limit_ms"),
            ladder_start_rps: n("ladder/start_rps"),
            ladder_ratio: n("ladder/ratio"),
            ladder_rungs: n("ladder/rungs") as usize,
            fixed_share: n("fixed_share"),
            miss_every: n("miss_every") as u64,
            park_every: n("park_every") as u64,
            idle_evict: n("idle_evict") as u64,
        }
    }

    /// The offered request rate of rung `k`.
    pub fn rung(&self, k: usize) -> f64 {
        self.ladder_start_rps * self.ladder_ratio.powi(k as i32)
    }
}

/// One `stimulate` request: instance handle, event, arguments.
type Stimulus = (usize, String, Vec<Value>);

/// A model text with the setup script and stimuli sessions send it.
struct SessionModel {
    text: String,
    setup: String,
    stimuli: Vec<Stimulus>,
}

/// One session script: a model, its setup, stimuli and options.
#[derive(Debug, Clone)]
struct Script {
    model: String,
    setup: String,
    stimuli: Vec<Stimulus>,
    seed: u64,
    snapshot: bool,
    /// The trace reply an in-process run of this script gives.
    expect_trace: String,
}

impl Script {
    fn requests(&self) -> usize {
        // create, stimuli, step, trace, close (+ snapshot, restore).
        4 + self.stimuli.len() + if self.snapshot { 2 } else { 0 }
    }
}

/// One scheduled session.
#[derive(Debug, Clone, Copy)]
struct Plan {
    script: usize,
    miss: Option<u64>,
    park: bool,
}

impl Plan {
    /// The verb a request counts under: creates of fresh text are misses.
    fn verb(self, verb: usize) -> usize {
        if verb == CREATE_HIT && self.miss.is_some() {
            CREATE_MISS
        } else {
            verb
        }
    }
}

fn arg_json(v: &Value) -> String {
    match v {
        Value::Int(i) => i.to_string(),
        Value::Bool(b) => b.to_string(),
        Value::Real(r) => format!("{r:?}"),
        other => format!("\"{}\"", xtuml_obs::escape(&other.to_string())),
    }
}

fn create_body(model: &str, setup: &str, seed: u64) -> String {
    format!(
        "{{\"verb\": \"create\", \"model\": \"{}\", \"setup\": \"{}\", \"seed\": {seed}}}",
        xtuml_obs::escape(model),
        xtuml_obs::escape(setup)
    )
}

fn stimulate_body(id: u64, (inst, event, args): &Stimulus, time: u64) -> String {
    let args: Vec<String> = args.iter().map(arg_json).collect();
    format!(
        "{{\"verb\": \"stimulate\", \"session\": {id}, \"inst\": {inst}, \"event\": \"{event}\", \"args\": [{}], \"time\": {time}}}",
        args.join(", ")
    )
}

fn verb_body(verb: &str, id: u64) -> String {
    format!("{{\"verb\": \"{verb}\", \"session\": {id}}}")
}

fn field<'a>(reply: &'a str, key: &str) -> Option<&'a str> {
    let at = reply.find(&format!("\"{key}\": "))? + key.len() + 4;
    let rest = &reply[at..];
    if let Some(s) = rest.strip_prefix('"') {
        return s.find('"').map(|end| &s[..end]);
    }
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(&rest[..end])
}

fn is_ok(reply: &str) -> bool {
    reply.starts_with("{\"ok\": true")
}

fn is_refusal(reply: &str) -> bool {
    reply.contains("\"error\": \"backpressure") || reply.contains("\"error\": \"session table full")
}

/// Renames the generated domain so the text misses the daemon's cache.
fn fresh_text(text: &str, tag: u64) -> String {
    match text.split_once(';') {
        Some((head, rest)) => format!("{head}u{tag};{rest}"),
        None => text.to_owned(),
    }
}

/// Sends the first half of a script over `send` (which returns the
/// reply): create, stimuli, step. Creates go out as `CREATE_HIT`;
/// callers that sent fresh text count them as misses. Returns the
/// session id from the create reply.
fn drive_head<F>(
    script: &Script,
    create: &str,
    send: &mut F,
    replies: &mut Vec<String>,
) -> Option<u64>
where
    F: FnMut(usize, &str) -> String,
{
    let created = send(CREATE_HIT, create);
    let id = field(&created, "session").and_then(|s| s.parse::<u64>().ok());
    replies.push(created);
    let id = id?;
    for (k, stim) in script.stimuli.iter().enumerate() {
        replies.push(send(STIMULATE, &stimulate_body(id, stim, 10 * k as u64)));
    }
    replies.push(send(STEP, &verb_body("step", id)));
    Some(id)
}

/// Sends the second half: snapshot and restore (when scripted), trace,
/// close.
fn drive_tail<F>(script: &Script, id: u64, send: &mut F, replies: &mut Vec<String>)
where
    F: FnMut(usize, &str) -> String,
{
    if script.snapshot {
        let snap = send(SNAPSHOT, &verb_body("snapshot", id));
        let hex = field(&snap, "bytes").unwrap_or("").to_owned();
        replies.push(snap);
        replies.push(send(
            RESTORE,
            &format!("{{\"verb\": \"restore\", \"session\": {id}, \"bytes\": \"{hex}\"}}"),
        ));
    }
    replies.push(send(TRACE, &verb_body("trace", id)));
    replies.push(send(CLOSE, &verb_body("close", id)));
}

/// Sends a whole script; returns every reply.
fn drive<F>(script: &Script, create: &str, mut send: F) -> Vec<String>
where
    F: FnMut(usize, &str) -> String,
{
    let mut replies = Vec::new();
    if let Some(id) = drive_head(script, create, &mut send, &mut replies) {
        drive_tail(script, id, &mut send, &mut replies);
    }
    replies
}

/// A session whose tail waits until its client has run the next session.
struct Parked {
    index: usize,
    id: u64,
    replies: Vec<String>,
}

/// Hit-model texts and setups: doorbell, pipeline, fan-out, many-core.
fn hit_models(seed: u64) -> Vec<SessionModel> {
    let mut rng = Rng::new(seed, 31);
    let mut out = Vec::new();
    let doorbell = include_str!("../../models/doorbell.xtuml").to_owned();
    out.push(SessionModel {
        text: doorbell,
        setup: "create btn Button\ncreate chm Chimer\nrelate btn chm R1\n".to_owned(),
        stimuli: (0..4).map(|_| (0, "Press".to_owned(), vec![])).collect(),
    });
    let pipe = models::pipeline(seed, 4, 1);
    let mut setup = String::new();
    for k in 0..4 {
        setup.push_str(&format!("create s{k} Stage{k}\n"));
    }
    for k in 1..4 {
        setup.push_str(&format!("relate s{} s{k} R{k}\n", k - 1));
    }
    let feeds = (0..4)
        .map(|_| {
            (
                0,
                "Feed".to_owned(),
                vec![Value::Int(rng.below(1000) as i64)],
            )
        })
        .collect();
    out.push(SessionModel {
        text: pipe.text,
        setup,
        stimuli: feeds,
    });
    let fan = models::fanout(seed, 2, 1);
    let setup = "create d Dispatcher\ncreate w0 Worker0\ncreate w1 Worker1\ncreate c Collector\n\
                 relate d w0 RW0\nrelate d w1 RW1\nrelate w0 c RC0\nrelate w1 c RC1\n"
        .to_owned();
    let bursts = (0..4)
        .map(|_| {
            (
                0,
                "Burst".to_owned(),
                vec![Value::Int(rng.below(1000) as i64)],
            )
        })
        .collect();
    out.push(SessionModel {
        text: fan.text,
        setup,
        stimuli: bursts,
    });
    let mut setup = String::new();
    for k in 0..8 {
        setup.push_str(&format!("create c{k} Core\n"));
    }
    let ticks = (0..4)
        .map(|k| {
            (
                k,
                "Tick".to_owned(),
                vec![Value::Int(8), Value::Int(rng.below(100) as i64)],
            )
        })
        .collect();
    out.push(SessionModel {
        text: models::manycore_text(),
        setup,
        stimuli: ticks,
    });
    out
}

/// Fuzz-generated miss models: text, setup and stimuli. Only cases with
/// four classes and four stimuli whose text is 1.8 to 2.3 KB are kept,
/// so every seed's pool costs about the same to parse and run.
fn miss_models(seed: u64, n: usize) -> Vec<SessionModel> {
    let mut out = Vec::new();
    let mut s = seed.wrapping_mul(100_000);
    while out.len() < n {
        s += 1;
        let spec = xtuml_fuzz::generate(s);
        if spec.classes.len() != 4 || spec.stimuli.len() < 4 {
            continue;
        }
        let Ok(domain) = spec.lower() else { continue };
        let text = xtuml_lang::print_domain(&domain);
        if !(1800..=2300).contains(&text.len()) {
            continue;
        }
        let tc = spec.testcase();
        let mut setup = String::new();
        for (i, class) in tc.creates.iter().enumerate() {
            setup.push_str(&format!("create i{i} {class}\n"));
        }
        for (a, b, assoc) in &tc.relates {
            setup.push_str(&format!("relate i{a} i{b} {assoc}\n"));
        }
        let stimuli: Vec<_> = tc
            .stimuli
            .iter()
            .take(4)
            .map(|st| (st.inst, st.event.clone(), st.args.clone()))
            .collect();
        out.push(SessionModel {
            text,
            setup,
            stimuli,
        });
    }
    out
}

/// Runs a script through an in-process store; returns every reply and
/// the time each parse + apply took, by verb.
fn replay(
    store: &mut Store,
    script: &Script,
    create: &str,
    apply_ns: &mut [Vec<u64>],
) -> Vec<String> {
    drive(script, create, |verb, body| {
        let t0 = Instant::now();
        let reply = match Request::parse(body) {
            Ok(req) => store.apply(&req),
            Err(e) => e,
        };
        apply_ns[verb].push(t0.elapsed().as_nanos() as u64);
        reply
    })
}

fn session_cfg(settings: &Settings, spool: PathBuf) -> SessionCfg {
    SessionCfg {
        idle_evict: settings.idle_evict,
        spool,
        ..SessionCfg::default()
    }
}

/// The workload's inputs: scripts (hits first, then misses).
struct Inputs {
    scripts: Vec<Script>,
    hits: usize,
    creates: Vec<String>,
}

/// The session models for `params`: the hit models and a pool of fresh
/// fuzz-generated ones.
fn session_models(params: &Params) -> (Vec<SessionModel>, Vec<SessionModel>) {
    let miss_pool = if params.tiny { 2 } else { 48 };
    (hit_models(params.seed), miss_models(params.seed, miss_pool))
}

/// The timed set-up: every session model through the load chain, and the
/// session scripts over them.
fn build_inputs(
    params: &Params,
    hits: &[SessionModel],
    misses: &[SessionModel],
    tr: &mut Tracer,
) -> Result<Inputs, String> {
    let hit_scripts = if params.tiny { 8 } else { 32 };
    for m in hits.iter().chain(misses) {
        harness::load(&m.text, tr)?;
    }
    // Script shapes depend on the index only; the seed picks values.
    let mut rng = Rng::new(params.seed, 32);
    let mut scripts = Vec::new();
    for i in 0..hit_scripts {
        let m = &hits[i % hits.len()];
        let n = 1 + (i / hits.len()) % m.stimuli.len();
        scripts.push(Script {
            model: m.text.clone(),
            setup: m.setup.clone(),
            stimuli: m.stimuli[..n].to_vec(),
            seed: rng.next_u64() % 1000,
            snapshot: (i + i / hits.len()) % 4 == 1,
            expect_trace: String::new(),
        });
    }
    for (i, m) in misses.iter().enumerate() {
        scripts.push(Script {
            model: m.text.clone(),
            setup: m.setup.clone(),
            stimuli: m.stimuli.clone(),
            seed: rng.next_u64() % 1000,
            snapshot: i % 2 == 0,
            expect_trace: String::new(),
        });
    }
    let creates = scripts
        .iter()
        .map(|s| create_body(&s.model, &s.setup, s.seed))
        .collect();
    Ok(Inputs {
        scripts,
        hits: hit_scripts,
        creates,
    })
}

/// Session plans for one segment (`salt` separates segments). Scripts
/// are used round-robin in a seeded order, so every seed offers the
/// same mix.
fn plans(
    settings: &Settings,
    inputs: &Inputs,
    seed: u64,
    salt: u64,
    n: usize,
    tag0: u64,
) -> Vec<Plan> {
    let mut rng = Rng::new(seed, 100 + salt);
    let misses = (inputs.scripts.len() - inputs.hits) as u64;
    let mut order: Vec<usize> = (0..inputs.hits).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    (0..n as u64)
        .map(|i| {
            let miss = (i + 1) % settings.miss_every == 0 && misses > 0;
            let script = if miss {
                inputs.hits + ((i / settings.miss_every) % misses) as usize
            } else {
                order[i as usize % order.len()]
            };
            Plan {
                script,
                miss: miss.then_some(tag0 + i),
                park: (i + 3) % settings.park_every == 0,
            }
        })
        .collect()
}

fn mean_requests(inputs: &Inputs, plans: &[Plan]) -> f64 {
    let total: usize = plans
        .iter()
        .map(|p| inputs.scripts[p.script].requests())
        .sum();
    total as f64 / plans.len().max(1) as f64
}

/// What one open-loop segment measured.
#[derive(Debug, Default)]
struct Segment {
    /// (due offset, latency, verb) per request, ns.
    lat: Vec<(u64, u64, usize)>,
    /// Session start lateness, ns.
    late: Vec<u64>,
    backlog_max: u64,
    attempted: u64,
    failed: u64,
    refused: u64,
    signals: u64,
    elapsed_s: f64,
}

impl Segment {
    fn merge(&mut self, o: Segment) {
        self.lat.extend(o.lat);
        self.late.extend(o.late);
        self.backlog_max = self.backlog_max.max(o.backlog_max);
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.refused += o.refused;
        self.signals += o.signals;
    }
}

/// When sessions fall due: session `i` at `start + i * period`. No
/// session starts after `stop`.
struct Schedule {
    next: AtomicUsize,
    start: Instant,
    period: Duration,
    stop: Option<Instant>,
}

/// Sends one request and records its latency from `due`, which then
/// moves to the reply time (the next request of a session is due when
/// the previous reply arrives).
#[allow(clippy::too_many_arguments)]
fn timed_send(
    client: &mut Client,
    start: Instant,
    plan: Plan,
    verb: usize,
    body: &str,
    due: &mut Instant,
    seg: &mut Segment,
    tr: &mut Tracer,
) -> String {
    let verb = plan.verb(verb);
    let open = tr.begin(SPAN_NAMES[verb]);
    let reply = client
        .request(body)
        .unwrap_or_else(|e| format!("io error: {e}"));
    tr.end(open);
    let now = Instant::now();
    seg.lat.push((
        due.saturating_duration_since(start).as_nanos() as u64,
        now.saturating_duration_since(*due).as_nanos() as u64,
        verb,
    ));
    *due = now;
    reply
}

/// Checks a finished session's replies: each `ok`, the trace reply equal
/// to the reference, refusals counted apart.
fn tally(script: &Script, replies: &[String], seg: &mut Segment) {
    let trace_at = replies.len().checked_sub(2);
    for (k, r) in replies.iter().enumerate() {
        seg.attempted += 1;
        if is_refusal(r) {
            seg.refused += 1;
            seg.failed += 1;
        } else if !is_ok(r) || (Some(k) == trace_at && *r != script.expect_trace) {
            seg.failed += 1;
        }
        if let Some(steps) = field(r, "steps").and_then(|s| s.parse::<u64>().ok()) {
            seg.signals += steps;
        }
    }
}

/// One client thread's session loop.
fn client_loop(
    addr: SocketAddr,
    inputs: &Inputs,
    plans: &[Plan],
    sched: &Schedule,
    tr: &mut Tracer,
) -> Segment {
    let (start, period) = (sched.start, sched.period);
    let mut seg = Segment::default();
    let Ok(mut client) = Client::connect(addr) else {
        seg.attempted = 1;
        seg.failed = 1;
        return seg;
    };
    let mut parked: Option<Parked> = None;
    let finish = |p: Parked, client: &mut Client, seg: &mut Segment, tr: &mut Tracer| {
        let plan = plans[p.index];
        let script = &inputs.scripts[plan.script];
        let mut replies = p.replies;
        let mut due = Instant::now();
        tr.set_op(p.index as u64);
        let mut send = |v: usize, b: &str| timed_send(client, start, plan, v, b, &mut due, seg, tr);
        drive_tail(script, p.id, &mut send, &mut replies);
        tally(script, &replies, seg);
    };
    loop {
        let i = sched.next.fetch_add(1, Ordering::SeqCst);
        if i >= plans.len() || sched.stop.is_some_and(|stop| Instant::now() >= stop) {
            break;
        }
        let due = start + period * i as u32;
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let began = Instant::now();
        seg.late
            .push(began.saturating_duration_since(due).as_nanos() as u64);
        let due_now = (began.saturating_duration_since(start).as_nanos() / period.as_nanos().max(1))
            as u64
            + 1;
        seg.backlog_max = seg.backlog_max.max(due_now.saturating_sub(i as u64 + 1));

        let plan = plans[i];
        let script = &inputs.scripts[plan.script];
        let create = match plan.miss {
            Some(tag) => create_body(&fresh_text(&script.model, tag), &script.setup, script.seed),
            None => inputs.creates[plan.script].clone(),
        };
        tr.set_op(i as u64);
        let mut replies = Vec::new();
        let mut at = due;
        let mut send =
            |v: usize, b: &str| timed_send(&mut client, start, plan, v, b, &mut at, &mut seg, tr);
        let id = drive_head(script, &create, &mut send, &mut replies);
        match id {
            // Held back: the tail goes out after this client's next
            // session, long enough idle for the daemon to spool it.
            Some(id) if plan.park && parked.is_none() => {
                parked = Some(Parked {
                    index: i,
                    id,
                    replies,
                });
                continue;
            }
            Some(id) => drive_tail(script, id, &mut send, &mut replies),
            None => {}
        }
        tally(script, &replies, &mut seg);
        if let Some(p) = parked.take() {
            finish(p, &mut client, &mut seg, tr);
        }
    }
    if let Some(p) = parked.take() {
        finish(p, &mut client, &mut seg, tr);
    }
    seg
}

/// Runs one open-loop segment of `plans` at `rps` requests per second
/// (`f64::INFINITY`: back to back), starting no session after `stop_s`.
fn segment(
    addr: SocketAddr,
    inputs: &Inputs,
    plans: &[Plan],
    rps: f64,
    stop_s: Option<f64>,
    tracers: &mut [Tracer],
) -> Segment {
    let session_rate = rps / mean_requests(inputs, plans);
    let start = Instant::now() + Duration::from_millis(2);
    let sched = Schedule {
        next: AtomicUsize::new(0),
        start,
        period: Duration::from_secs_f64(1.0 / session_rate),
        stop: stop_s.map(|s| start + Duration::from_secs_f64(s)),
    };
    let parts: Vec<Segment> = std::thread::scope(|s| {
        let handles: Vec<_> = tracers
            .iter_mut()
            .map(|tr| {
                let sched = &sched;
                s.spawn(move || client_loop(addr, inputs, plans, sched, tr))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut seg = Segment::default();
    for p in parts {
        seg.merge(p);
    }
    seg.elapsed_s = start.elapsed().as_secs_f64();
    seg
}

/// The back-to-back request rate of a segment: its replies in completion
/// order, cut into runs of [`SAT_CHUNK`] (fewer when the segment is
/// short), each giving a rate (replies over the time they took); the
/// median of those rates. Returns the rate and the number of runs.
fn sustained_rate(seg: &Segment) -> (f64, usize) {
    let mut done: Vec<u64> = seg.lat.iter().map(|&(due, lat, _)| due + lat).collect();
    done.sort_unstable();
    let chunk = SAT_CHUNK.min(done.len() / 4).max(2);
    let mut rates: Vec<f64> = done
        .chunks_exact(chunk)
        .map(|c| (chunk - 1) as f64 * 1e9 / (c[chunk - 1] - c[0]).max(1) as f64)
        .collect();
    (median(&mut rates), rates.len())
}

/// A probe of the rate ladder passes when nothing failed, the achieved
/// request rate kept up with the offered one (no growing backlog), and
/// the p99 latency met the limit in at least three of its four windows
/// (by due time): one short host stall does not fail a probe.
fn passes(settings: &Settings, seg: &Segment, rps: f64) -> bool {
    let span_ns = seg.lat.iter().map(|x| x.0).max().unwrap_or(0) + 1;
    let mut windows = vec![Vec::new(); 4];
    for &(due, lat, _) in &seg.lat {
        windows[(due * 4 / span_ns) as usize].push(lat);
    }
    let met = windows
        .into_iter()
        .filter(|w| {
            let mut w = w.clone();
            w.sort_unstable();
            percentile(&w, 0.99) as f64 * 1e-6 <= settings.p99_limit_ms
        })
        .count();
    seg.failed == 0 && met >= 3 && seg.lat.len() as f64 / seg.elapsed_s >= 0.95 * rps
}

/// Runs the workload.
///
/// # Errors
///
/// Returns a set-up failure (a model that does not load, a reference
/// script the daemon rejects, or a loopback socket that cannot bind).
pub fn run(params: &Params) -> Result<Outcome, String> {
    let settings = Settings::from_spec();
    let mut out = Outcome::default();
    let mut tr = Tracer::new(params.trace, Instant::now(), 0);
    // Generating the fuzz models is the benchmark's own work, outside the
    // timed set-up; loading them is the program's.
    let (hits, misses) = session_models(params);
    let (mut inputs, mut setup) =
        harness::repeat_setup(7, &mut tr, |t| build_inputs(params, &hits, &misses, t))?;

    let spool = params.out_dir.join(format!("spool-{}", std::process::id()));
    // Reference replies: each script on a fresh in-process store.
    let mut scratch = vec![Vec::new(); VERBS.len()];
    for (k, script) in inputs.scripts.iter_mut().enumerate() {
        let mut store = Store::new(session_cfg(&settings, spool.join("ref")));
        let replies = replay(&mut store, script, &inputs.creates[k], &mut scratch);
        let ok = replies.iter().all(|r| is_ok(r));
        out.check(ok);
        if !ok {
            return Err(format!("reference run of script {k} failed: {replies:?}"));
        }
        script.expect_trace = replies[replies.len() - 2].clone();
    }

    let server = Server::start(ServeConfig {
        port: 0,
        session: session_cfg(&settings, spool.clone()),
    })
    .map_err(|e| format!("cannot start the daemon: {e}"))?;
    let addr = server.addr();
    // Warm the model cache with every hit model.
    let warm: Vec<Plan> = (0..inputs.hits)
        .map(|script| Plan {
            script,
            miss: None,
            park: false,
        })
        .collect();
    let mut quiet: Vec<Tracer> = (0..CLIENTS)
        .map(|i| Tracer::new(false, tr.epoch(), i as u32 + 1))
        .collect();
    let w = segment(addr, &inputs, &warm, settings.fixed_rps, None, &mut quiet);
    out.attempted += w.attempted;
    out.failed += w.failed;
    setup.tick();

    let fixed_s = if params.trace {
        params.seconds / 2.0
    } else {
        params.seconds * settings.fixed_share
    };
    let n_fixed = |secs: f64, salt: u64| {
        let probe = plans(&settings, &inputs, params.seed, salt, 64, 0);
        let per = mean_requests(&inputs, &probe);
        ((settings.fixed_rps / per * secs) as usize).max(4)
    };
    let mut tag = 1u64 << 32;

    if params.trace {
        let n = n_fixed(fixed_s / 2.0, 1);
        let p = plans(&settings, &inputs, params.seed, 1, n, tag);
        tag += n as u64;
        let plain = segment(addr, &inputs, &p, settings.fixed_rps, None, &mut quiet);
        let mut tracers: Vec<Tracer> = (0..CLIENTS)
            .map(|i| Tracer::new(true, tr.epoch(), i as u32 + 1))
            .collect();
        let p2 = plans(&settings, &inputs, params.seed, 1, n, tag);
        let traced = segment(addr, &inputs, &p2, settings.fixed_rps, None, &mut tracers);
        let mean =
            |s: &Segment| s.lat.iter().map(|x| x.1 as f64).sum::<f64>() / s.lat.len().max(1) as f64;
        out.set(
            "obs.overhead_frac",
            (mean(&traced) - mean(&plain)) / mean(&plain),
        );
        for seg in [&plain, &traced] {
            out.attempted += seg.attempted;
            out.failed += seg.failed;
        }
        let mut rtt = vec![Vec::new(); VERBS.len()];
        for &(_, lat, verb) in &traced.lat {
            rtt[verb].push(lat);
        }
        // The same stream in-process: parse + apply per request.
        let mut apply = vec![Vec::new(); VERBS.len()];
        let mut store = Store::new(session_cfg(&settings, spool.join("replay")));
        let revives = replay_stream(&settings, &inputs, &p2, &mut store, &mut apply);
        for (v, verb) in VERBS.iter().enumerate() {
            rtt[v].sort_unstable();
            apply[v].sort_unstable();
            let r = percentile(&rtt[v], 0.5) as f64 * 1e-6;
            let a = percentile(&apply[v], 0.5) as f64 * 1e-6;
            out.set(&format!("serve.rtt_ms.{verb}"), r);
            out.set(&format!("serve.apply_ms.{verb}"), a);
            out.set(&format!("serve.wire_ms.{verb}"), r - a);
        }
        out.set("serve.evictions", store.evictions as f64);
        out.set("serve.revives", revives as f64);
        out.set("serve.refused", traced.refused as f64);
        let mut late = traced.late.clone();
        late.sort_unstable();
        out.set("loadgen.late_ms", percentile(&late, 0.99) as f64 * 1e-6);
        out.set("loadgen.backlog_max", traced.backlog_max as f64);
        snapshot_metrics(&inputs, &mut out);
        let bytes = inputs.scripts.iter().map(|s| s.model.len()).sum();
        harness::load_metrics(&tr, bytes, &mut out);
        for t in tracers {
            tr.absorb(t);
        }
        harness::finish_trace(params, "serve_open", &tr, &mut out);
    } else {
        let n = n_fixed(fixed_s, 1);
        let p = plans(&settings, &inputs, params.seed, 1, n, tag);
        tag += n as u64;
        let fixed = segment(addr, &inputs, &p, settings.fixed_rps, None, &mut quiet);
        out.attempted += fixed.attempted;
        out.failed += fixed.failed;
        let mut lat: Vec<u64> = fixed.lat.iter().map(|x| x.1).collect();
        out.set("p99_ms", harness::windowed_p99_ms(&lat));
        lat.sort_unstable();
        out.set("latency_ms", percentile(&lat, 0.5) as f64 * 1e-6);
        out.set("signals_per_s", fixed.signals as f64 / fixed.elapsed_s);
        out.set("ops_per_s", lat.len() as f64 / fixed.elapsed_s);
        out.set("peak_rss_mb", harness::peak_rss_mb());
        out.note("requests", lat.len());
        out.note("refused", fixed.refused);

        setup.tick();
        let (sustained, slo) = capacity(
            &settings, &inputs, params, addr, &mut quiet, &mut tag, &mut setup, &mut out,
        );
        out.set("sustained_rps", sustained);
        out.set("slo_rps", slo);
    }
    setup.finish(&mut out);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&spool);
    Ok(out)
}

/// The sustained request rate and the highest rung of the rate ladder
/// that passes ([`passes`]). A third of the search time runs sessions
/// back to back, and [`sustained_rate`] reads the sustained rate from
/// its replies. The ladder walk then starts at the highest rung below
/// 0.9 of it (open-loop arrivals queue up before the closed-loop rate)
/// and moves one rung at
/// a time, probing at most [`MAX_PROBES`] rungs. A failing probe is
/// repeated once, so one host stall does not fail a rung: a rung fails
/// only when both probes fail.
#[allow(clippy::too_many_arguments)]
fn capacity(
    settings: &Settings,
    inputs: &Inputs,
    params: &Params,
    addr: SocketAddr,
    quiet: &mut [Tracer],
    tag: &mut u64,
    setup: &mut harness::SetupTimes<'_>,
    out: &mut Outcome,
) -> (f64, f64) {
    let budget = params.seconds * (1.0 - settings.fixed_share);
    let sample = plans(settings, inputs, params.seed, 2, 64, 0);
    let per_session = mean_requests(inputs, &sample);
    let top = settings.rung(settings.ladder_rungs - 1);
    let sat_n = ((top / per_session) * budget) as usize + 8;
    let p = plans(settings, inputs, params.seed, 2, sat_n, *tag);
    *tag += sat_n as u64;
    let sat = segment(addr, inputs, &p, f64::INFINITY, Some(budget / 3.0), quiet);
    out.attempted += sat.attempted;
    out.failed += sat.failed;
    let (sustained, chunks) = sustained_rate(&sat);
    out.note("sat_chunks", chunks);

    let probe_s = budget * 2.0 / 3.0 / 6.0;
    let mut probes = 0;
    let mut probe = |k: usize, out: &mut Outcome| -> bool {
        setup.tick();
        probes += 1;
        let rps = settings.rung(k);
        let sessions = ((rps / per_session) * probe_s).max(8.0) as usize;
        (0..2).any(|attempt| {
            let salt = 2 * (2 + probes) + attempt;
            let p = plans(settings, inputs, params.seed, salt, sessions, *tag);
            *tag += sessions as u64;
            let seg = segment(addr, inputs, &p, rps, None, quiet);
            out.attempted += seg.attempted;
            out.failed += seg.failed;
            passes(settings, &seg, rps)
        })
    };
    let mut k = (0..settings.ladder_rungs)
        .rev()
        .find(|&k| settings.rung(k) <= 0.9 * sustained)
        .unwrap_or(0);
    let mut log = vec![format!("sustained {sustained:.0}")];
    let mut best = None;
    let mut climbing = None;
    for _ in 0..MAX_PROBES {
        let ok = probe(k, out);
        log.push(format!(
            "{:.0}:{}",
            settings.rung(k),
            if ok { "pass" } else { "fail" }
        ));
        if ok {
            best = Some(k);
        }
        // The first verdict picks the direction; the walk ends at the
        // first rung that reverses it.
        let up = *climbing.get_or_insert(ok);
        if ok != up || (up && k + 1 == settings.ladder_rungs) || (!up && k == 0) {
            break;
        }
        k = if up { k + 1 } else { k - 1 };
    }
    out.note("ladder", log.join(" "));
    let slo = best.map_or(settings.rung(0) / settings.ladder_ratio, |k| {
        settings.rung(k)
    });
    (sustained, slo)
}

/// Replays a segment's sessions in-process in one client's order
/// (a parked session's tail after the next session); returns how many
/// requests touched a spooled session, by the daemon's tick rule.
fn replay_stream(
    settings: &Settings,
    inputs: &Inputs,
    plans: &[Plan],
    store: &mut Store,
    apply: &mut [Vec<u64>],
) -> u64 {
    let mut tick = 0u64;
    let mut revives = 0u64;
    let mut last_used: std::collections::HashMap<usize, u64> = Default::default();
    let mut parked: Option<Parked> = None;
    let mut send_for = |index: usize, verb: usize, body: &str| {
        let verb = plans[index].verb(verb);
        if let Some(last) = last_used.get(&index) {
            if verb != CLOSE && tick - last >= settings.idle_evict {
                revives += 1;
            }
        }
        let t0 = Instant::now();
        let reply = match Request::parse(body) {
            Ok(req) => store.apply(&req),
            Err(e) => e,
        };
        apply[verb].push(t0.elapsed().as_nanos() as u64);
        tick += 1;
        last_used.insert(index, tick);
        reply
    };
    let tail = |p: Parked, send_for: &mut dyn FnMut(usize, usize, &str) -> String| {
        let script = &inputs.scripts[plans[p.index].script];
        let mut replies = p.replies;
        let mut send = |v: usize, b: &str| send_for(p.index, v, b);
        drive_tail(script, p.id, &mut send, &mut replies);
    };
    for (i, &plan) in plans.iter().enumerate() {
        let script = &inputs.scripts[plan.script];
        let create = match plan.miss {
            Some(tag) => create_body(&fresh_text(&script.model, tag), &script.setup, script.seed),
            None => inputs.creates[plan.script].clone(),
        };
        let mut replies = Vec::new();
        let mut send = |v: usize, b: &str| send_for(i, v, b);
        match drive_head(script, &create, &mut send, &mut replies) {
            Some(id) if plan.park && parked.is_none() => {
                parked = Some(Parked {
                    index: i,
                    id,
                    replies,
                });
                continue;
            }
            Some(id) => drive_tail(script, id, &mut send, &mut replies),
            None => {}
        }
        if let Some(p) = parked.take() {
            tail(p, &mut send_for);
        }
    }
    if let Some(p) = parked.take() {
        tail(p, &mut send_for);
    }
    revives
}

/// Snapshot, restore and trace-render costs, measured on each hit
/// script's finished simulation by calling the engine directly.
fn snapshot_metrics(inputs: &Inputs, out: &mut Outcome) {
    let (mut snap_ns, mut restore_ns, mut render_ns, mut bytes) = (0u64, 0u64, 0u64, 0u64);
    for script in &inputs.scripts[..inputs.hits] {
        let Ok(domain) = xtuml_lang::parse_domain(&script.model) else {
            out.check(false);
            continue;
        };
        let mut sim = Simulation::with_policy(&domain, SchedPolicy::seeded(script.seed));
        let mut names = Vec::new();
        let mut handles = Vec::new();
        let mut ok = true;
        for line in script.setup.lines() {
            let toks: Vec<&str> = line.split_whitespace().collect();
            match toks.as_slice() {
                ["create", name, class] => match sim.create(class) {
                    Ok(h) => {
                        names.push(*name);
                        handles.push(h);
                    }
                    Err(_) => ok = false,
                },
                ["relate", a, b, assoc] => {
                    let find = |n: &str| names.iter().position(|x| *x == n);
                    match (find(a), find(b)) {
                        (Some(a), Some(b)) => {
                            ok &= sim.relate(handles[a], handles[b], assoc).is_ok()
                        }
                        _ => ok = false,
                    }
                }
                _ => {}
            }
        }
        for (k, (inst, event, args)) in script.stimuli.iter().enumerate() {
            ok &= handles
                .get(*inst)
                .is_some_and(|h| sim.inject(10 * k as u64, *h, event, args.clone()).is_ok());
        }
        ok &= sim.run_to_quiescence().is_ok();
        let t0 = Instant::now();
        let snap = std::hint::black_box(sim.snapshot());
        let t1 = Instant::now();
        let restored = Simulation::restore(&domain, &snap);
        let t2 = Instant::now();
        let rendered = std::hint::black_box(sim.trace().render(&domain));
        let t3 = Instant::now();
        ok &= restored.is_ok_and(|r| r.snapshot() == snap) && !rendered.is_empty();
        out.check(ok);
        snap_ns += (t1 - t0).as_nanos() as u64;
        restore_ns += (t2 - t1).as_nanos() as u64;
        render_ns += (t3 - t2).as_nanos() as u64;
        bytes += snap.len() as u64;
    }
    out.set("exec.snapshot_s", snap_ns as f64 * 1e-9);
    out.set("exec.restore_s", restore_ns as f64 * 1e-9);
    out.set("exec.render_s", render_ns as f64 * 1e-9);
    out.set("exec.snapshot_bytes", bytes as f64);
}
