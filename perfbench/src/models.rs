//! Seeded model-text generators and their closed-form expectations.
//!
//! Every model the benchmark runs is produced here as `.xtuml` text and
//! parsed by the program during set-up. The seed varies payload values
//! and stimulus times; it never varies model sizes or stimulus counts,
//! so runs on different seeds do comparable work.
//!
//! Each generator returns a [`Case`]: the model text, the population,
//! the stimuli and what a correct run must produce, computed in closed
//! form from the generator's own parameters and never by running the
//! engine under test. The closed forms use the engine's time rule: a
//! dispatch takes one time unit, a signal sent during a dispatch at `t`
//! is dispatched no earlier than `t + 1`, a delayed signal sent at `t`
//! with delay `d` is due at `t + d`, and an idle engine jumps to the
//! next due time.

use xtuml_core::value::Value;
use xtuml_exec::ObservableEvent;
use xtuml_verify::TestCase;

/// The `models/` fixtures the `timers` family replicates.
const DOORBELL: &str = include_str!("../../models/doorbell.xtuml");
const ELEVATOR: &str = include_str!("../../models/elevator.xtuml");

/// SplitMix64: the benchmark's own input generator, independent of the
/// program's scheduler PRNG so that a change there cannot move inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `(seed, salt)`; distinct salts give unrelated streams.
    pub fn new(seed: u64, salt: u64) -> Rng {
        let mut r = Rng(seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// How observables are compared with the expectation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Order {
    /// Per actor, the same sequence.
    Sequence,
    /// The same multiset: the model lets concurrent instances report in
    /// any order, so only the set of reports is fixed.
    Multiset,
}

/// One generated model plus its inputs and expected outputs.
#[derive(Debug, Clone)]
pub struct Case {
    /// Family name (`pipeline`, `fanout`, ...).
    pub family: &'static str,
    /// Model source text.
    pub text: String,
    /// Population, links and stimuli.
    pub tc: TestCase,
    /// Expected observable signals.
    pub expect: Vec<ObservableEvent>,
    /// How `expect` is compared.
    pub order: Order,
    /// Exact number of state-machine dispatches a correct run makes.
    pub dispatches: u64,
    /// Exact simulated time at quiescence.
    pub final_time: u64,
}

impl Case {
    /// True when `got` matches the expectation under the case's order.
    pub fn observables_match(&self, got: &[ObservableEvent]) -> bool {
        match self.order {
            Order::Sequence => xtuml_verify::check_equivalence(&self.expect, got).is_equivalent(),
            Order::Multiset => sorted_keys(&self.expect) == sorted_keys(got),
        }
    }
}

/// Observables as sortable keys (multiset comparison).
pub fn sorted_keys(events: &[ObservableEvent]) -> Vec<String> {
    let mut keys: Vec<String> = events.iter().map(|e| e.to_string()).collect();
    keys.sort_unstable();
    keys
}

fn obs(actor: &str, event: &str, args: Vec<i64>) -> ObservableEvent {
    ObservableEvent {
        actor: actor.to_owned(),
        event: event.to_owned(),
        args: args.into_iter().map(Value::Int).collect(),
    }
}

/// The E3 pipeline: `stages` chained classes forwarding an incremented
/// token; `feeds` tokens enter stage 0, one per time unit.
pub fn pipeline(seed: u64, stages: usize, feeds: usize) -> Case {
    let mut text = String::from("domain Pipe;\nactor SINK { signal out(v: int); }\n");
    for k in 0..stages {
        let body = if k + 1 < stages {
            format!(
                "self.seen = self.seen + 1; nexts = self -> Stage{n}[R{n}]; \
                 gen Feed(rcvd.v + 1) to any(nexts);",
                n = k + 1
            )
        } else {
            "self.seen = self.seen + 1; gen out(rcvd.v) to SINK;".to_owned()
        };
        text.push_str(&format!(
            "class Stage{k} {{ attr seen: int = 0; event Feed(v: int); initial Waiting; \
             state Waiting {{ }} state Forwarding {{ {body} }} \
             on Waiting: Feed -> Forwarding; on Forwarding: Feed -> Forwarding; }}\n"
        ));
    }
    for k in 1..stages {
        text.push_str(&format!(
            "assoc R{k}: Stage{} one -- Stage{k} one;\n",
            k - 1
        ));
    }
    let mut tc = TestCase::new("pipeline");
    for k in 0..stages {
        tc.create(&format!("Stage{k}"));
    }
    for k in 1..stages {
        tc.relate(k - 1, k, &format!("R{k}"));
    }
    let mut rng = Rng::new(seed, 1);
    let mut expect = Vec::with_capacity(feeds);
    for i in 0..feeds {
        let v = rng.below(1_000_000) as i64;
        tc.inject(i as u64, 0, "Feed", vec![Value::Int(v)]);
        expect.push(obs("SINK", "out", vec![v + stages as i64 - 1]));
    }
    Case {
        family: "pipeline",
        text,
        tc,
        expect,
        order: Order::Sequence,
        dispatches: (stages * feeds) as u64,
        // Feed `i` arrives at `i`, never after the engine ran `i` dispatches,
        // so the engine is busy from the first feed to the last dispatch.
        final_time: (stages * feeds) as u64,
    }
}

/// Fan-out: a dispatcher navigates to `workers` worker classes and sends
/// each a share of every burst; a collector reports one sum per burst.
/// A burst is `2 * workers + 1` dispatches; bursts are spaced wider than
/// that so they never overlap.
pub fn fanout(seed: u64, workers: usize, bursts: usize) -> Case {
    let burst = 2 * workers as u64 + 1;
    let gap = burst + 1;
    let mut text = String::from("domain Fan;\nactor SINK { signal out(v: int); }\n");
    let mut sends = String::from("n = rcvd.v; ");
    for k in 0..workers {
        sends.push_str(&format!(
            "w{k} = any(self -> Worker{k}[RW{k}]); gen Work(n + {k}) to w{k}; "
        ));
    }
    text.push_str(&format!(
        "class Dispatcher {{ event Burst(v: int); initial Idle; state Idle {{ }} \
         state Bursting {{ {sends}}} on Idle: Burst -> Bursting; on Bursting: Burst -> Bursting; }}\n"
    ));
    for k in 0..workers {
        text.push_str(&format!(
            "class Worker{k} {{ attr acc: int = 0; event Work(v: int); initial Wait; state Wait {{ }} \
             state Working {{ self.acc = self.acc + rcvd.v; c = any(self -> Collector[RC{k}]); \
             gen Done(rcvd.v * 2) to c; }} on Wait: Work -> Working; on Working: Work -> Working; }}\n"
        ));
    }
    text.push_str(&format!(
        "class Collector {{ attr subtotal: int = 0; attr seen: int = 0; event Done(v: int); \
         initial Open; state Open {{ }} state Counting {{ self.subtotal = self.subtotal + rcvd.v; \
         self.seen = self.seen + 1; if (self.seen == {workers}) {{ gen out(self.subtotal) to SINK; \
         self.seen = 0; self.subtotal = 0; }} }} on Open: Done -> Counting; \
         on Counting: Done -> Counting; }}\n"
    ));
    for k in 0..workers {
        text.push_str(&format!(
            "assoc RW{k}: Dispatcher one -- Worker{k} one;\nassoc RC{k}: Worker{k} one -- Collector many;\n"
        ));
    }
    let mut tc = TestCase::new("fanout");
    let d = tc.create("Dispatcher");
    let ws: Vec<usize> = (0..workers)
        .map(|k| tc.create(&format!("Worker{k}")))
        .collect();
    let c = tc.create("Collector");
    for (k, w) in ws.iter().enumerate() {
        tc.relate(d, *w, &format!("RW{k}"));
        tc.relate(*w, c, &format!("RC{k}"));
    }
    let mut rng = Rng::new(seed, 2);
    let w = workers as i64;
    let mut expect = Vec::with_capacity(bursts);
    for b in 0..bursts {
        let v = rng.below(1_000_000) as i64;
        tc.inject(b as u64 * gap, d, "Burst", vec![Value::Int(v)]);
        expect.push(obs("SINK", "out", vec![2 * w * v + w * (w - 1)]));
    }
    Case {
        family: "fanout",
        text,
        tc,
        expect,
        order: Order::Sequence,
        dispatches: bursts as u64 * burst,
        final_time: (bursts as u64 - 1) * gap + burst,
    }
}

/// Ring: `nodes` classes pass a decrementing token; each of `tokens`
/// tokens starts at a seeded node with `hops` hops and reports where it
/// stopped. Tokens are spaced so that one stops before the next starts.
pub fn ring(seed: u64, nodes: usize, tokens: usize, hops: i64) -> Case {
    let mut text = String::from("domain Ring;\nactor SINK { signal stopped(at: int); }\n");
    for k in 0..nodes {
        let next = (k + 1) % nodes;
        text.push_str(&format!(
            "class Node{k} {{ event Token(v: int); initial Idle; state Idle {{ }} \
             state Passing {{ if (rcvd.v > 0) {{ nx = any(self -> Node{next}[RN{k}]); \
             gen Token(rcvd.v - 1) to nx; }} else {{ gen stopped({k}) to SINK; }} }} \
             on Idle: Token -> Passing; on Passing: Token -> Passing; }}\n"
        ));
    }
    for k in 0..nodes {
        text.push_str(&format!(
            "assoc RN{k}: Node{k} one -- Node{} one;\n",
            (k + 1) % nodes
        ));
    }
    let mut tc = TestCase::new("ring");
    for k in 0..nodes {
        tc.create(&format!("Node{k}"));
    }
    for k in 0..nodes {
        tc.relate(k, (k + 1) % nodes, &format!("RN{k}"));
    }
    let mut rng = Rng::new(seed, 3);
    let mut expect = Vec::with_capacity(tokens);
    let chain = hops as u64 + 1;
    let gap = chain + 1;
    for t in 0..tokens {
        let start = rng.below(nodes as u64) as usize;
        tc.inject(t as u64 * gap, start, "Token", vec![Value::Int(hops)]);
        let stop = (start as i64 + hops) % nodes as i64;
        expect.push(obs("SINK", "stopped", vec![stop]));
    }
    Case {
        family: "ring",
        text,
        tc,
        expect,
        order: Order::Sequence,
        dispatches: tokens as u64 * chain,
        final_time: (tokens as u64 - 1) * gap + chain,
    }
}

/// The many-core model text: one `Core` class whose `Tick(v, k)` folds
/// `v*v + k` into an accumulator and self-sends a countdown. Cores touch
/// only their own state, so the model is shard-safe.
pub fn manycore_text() -> String {
    "domain Cores;\nactor SINK { signal out(v: int); }\n\
     class Core { attr acc: int = 0; event Tick(v: int, k: int); initial Idle; \
     state Idle { } state Crunching { self.acc = self.acc + rcvd.v * rcvd.v + rcvd.k; \
     if (rcvd.v > 0) { gen Tick(rcvd.v - 1, rcvd.k) to self; } \
     else { gen out(self.acc) to SINK; } } \
     on Idle: Tick -> Crunching; on Crunching: Tick -> Crunching; }\n"
        .to_owned()
}

/// Many-core: `cores` instances, each started `rounds` times (100 time
/// units apart) on a countdown of `work` ticks with a seeded constant.
/// A core's self-sent ticks go before a new round's stimulus, so every
/// report is the accumulator after a whole number of rounds.
pub fn manycore(seed: u64, cores: usize, rounds: usize, work: i64) -> Case {
    let mut tc = TestCase::new("manycore");
    for _ in 0..cores {
        tc.create("Core");
    }
    let mut rng = Rng::new(seed, 4);
    let sum_sq = work * (work + 1) * (2 * work + 1) / 6;
    let mut expect = Vec::with_capacity(cores * rounds);
    for c in 0..cores {
        let k = rng.below(1000) as i64;
        for r in 0..rounds {
            tc.inject(
                r as u64 * 100,
                c,
                "Tick",
                vec![Value::Int(work), Value::Int(k)],
            );
            expect.push(obs(
                "SINK",
                "out",
                vec![(r as i64 + 1) * (sum_sq + (work + 1) * k)],
            ));
        }
    }
    let per_round = cores as u64 * (work as u64 + 1);
    let final_time = (0..rounds as u64).fold(0, |end, r| end.max(r * 100) + per_round);
    Case {
        family: "manycore",
        text: manycore_text(),
        tc,
        expect,
        order: Order::Multiset,
        dispatches: per_round * rounds as u64,
        final_time,
    }
}

/// Renames whole-word identifiers of `src` through `map`.
fn rename_idents(src: &str, map: &[(&str, String)]) -> String {
    let mut out = String::with_capacity(src.len() + src.len() / 8);
    let mut word = String::new();
    let flush = |word: &mut String, out: &mut String| {
        match map.iter().find(|(from, _)| *from == word.as_str()) {
            Some((_, to)) => out.push_str(to),
            None => out.push_str(word),
        }
        word.clear();
    };
    for ch in src.chars() {
        if ch.is_ascii_alphanumeric() || ch == '_' {
            word.push(ch);
        } else {
            flush(&mut word, &mut out);
            out.push(ch);
        }
    }
    flush(&mut word, &mut out);
    out
}

/// Timers: `models/doorbell` replicated by instance (`pairs` button and
/// chimer pairs, `presses` presses each) beside `models/elevator`
/// replicated by class (`cars` independent banks, `calls` calls each).
/// Both run on `after` delays. Replicas take turns in seeded order, and
/// each stimulus waits until the previous chain has gone quiet, so the
/// timeline, and with it the final time, has a closed form.
pub fn timers(seed: u64, pairs: usize, presses: usize, cars: usize, calls: usize) -> Case {
    let doorbell_body = DOORBELL
        .split_once(';')
        .expect("doorbell model starts with a domain line")
        .1;
    let (elevator_head, elevator_classes) = ELEVATOR
        .split_once("\nclass ")
        .expect("elevator model declares classes");
    let lobby = elevator_head
        .split_once(';')
        .expect("elevator model starts with a domain line")
        .1;
    let mut text = format!("domain Timers;\n{doorbell_body}\n{lobby}\n");
    for r in 0..cars {
        let map = [
            ("Bank", format!("Bank{r}")),
            ("Job", format!("Job{r}")),
            ("Car", format!("Car{r}")),
            ("DoorMotor", format!("DoorMotor{r}")),
            ("R1", format!("RB{r}")),
            ("R2", format!("RD{r}")),
        ];
        text.push_str("\nclass ");
        text.push_str(&rename_idents(elevator_classes, &map));
    }

    let mut tc = TestCase::new("timers");
    let mut buttons = Vec::with_capacity(pairs);
    for _ in 0..pairs {
        let b = tc.create("Button");
        let c = tc.create("Chimer");
        tc.relate(b, c, "R1");
        buttons.push(b);
    }
    let mut banks = Vec::with_capacity(cars);
    for r in 0..cars {
        let bank = tc.create(&format!("Bank{r}"));
        let car = tc.create(&format!("Car{r}"));
        let motor = tc.create(&format!("DoorMotor{r}"));
        tc.relate(bank, car, &format!("RB{r}"));
        tc.relate(car, motor, &format!("RD{r}"));
        banks.push(bank);
    }

    // Every stimulus in one seeded order: (replica, is_elevator).
    let mut rng = Rng::new(seed, 5);
    let mut turns: Vec<(usize, bool)> = (0..pairs)
        .flat_map(|p| std::iter::repeat_n((p, false), presses))
        .chain((0..cars).flat_map(|r| std::iter::repeat_n((r, true), calls)))
        .collect();
    for i in (1..turns.len()).rev() {
        turns.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut rings = vec![0i64; pairs];
    let mut floors = vec![0i64; cars];
    let (mut expect, mut dispatches, mut t) = (Vec::new(), 0u64, 0u64);
    for (replica, elevator) in turns {
        t += rng.below(50);
        if elevator {
            // Call, GoTo, one Step per floor (at least one), Open,
            // Timeout, DoorShut, CarFreed; the car is back at rest
            // 300 per step plus 505 after the call.
            let target = rng.below(10) as i64;
            let steps = (target - floors[replica]).unsigned_abs().max(1);
            tc.inject(t, banks[replica], "Call", vec![Value::Int(target)]);
            expect.push(obs("LOBBY", "arrived", vec![0, target]));
            dispatches += 6 + steps;
            floors[replica] = target;
            t += 300 * steps + 505;
        } else {
            // Press, Ring, then Quiet 250 after the Ring.
            rings[replica] += 1;
            tc.inject(t, buttons[replica], "Press", vec![]);
            expect.push(obs("SPEAKER", "chime", vec![rings[replica]]));
            dispatches += 3;
            t += 252;
        }
    }
    Case {
        family: "timers",
        text,
        tc,
        expect,
        order: Order::Sequence,
        dispatches,
        final_time: t,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rename_is_whole_word() {
        let map = [("Car", "Car3".to_owned())];
        assert_eq!(
            rename_idents("gen CarFreed() to Car; x = Car;", &map),
            "gen CarFreed() to Car3; x = Car3;"
        );
    }

    #[test]
    fn seeds_change_values_not_sizes() {
        let a = pipeline(1, 4, 10);
        let b = pipeline(2, 4, 10);
        assert_eq!(a.text, b.text);
        assert_eq!(a.dispatches, b.dispatches);
        assert_ne!(a.expect, b.expect);
        let (ta, tb) = (timers(1, 2, 3, 2, 3), timers(2, 2, 3, 2, 3));
        assert_eq!(ta.text, tb.text);
        assert_eq!(ta.expect.len(), tb.expect.len());
    }
}
