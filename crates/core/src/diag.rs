//! The unified diagnostics subsystem.
//!
//! The paper's promise is that executable models are *specifications* you
//! verify **before** translation (§2). That is only credible if the static
//! checks behave like a real compiler front end: every finding carries a
//! **stable code** (`X0001`..), a **severity**, a **source span**, and both
//! a rustc-style human rendering and a machine-readable JSON form. All
//! passes — the type checker ([`crate::typeck`]), structural validation
//! ([`crate::validate`]), the whole-model lints ([`crate::lint`]) and the
//! mark/partition lints in `xtuml-mda` — *accumulate* into one
//! [`Diagnostics`] sink instead of bailing on the first error.
//!
//! Severities can be promoted or demoted per code (`--deny`/`--allow` on
//! the CLI) via [`LintLevels`].

use crate::error::{CoreError, Pos};
use std::collections::BTreeMap;
use std::fmt;

// ---------------------------------------------------------------------------
// Lint codes
// ---------------------------------------------------------------------------

/// A stable diagnostic code. Codes are append-only: once published, a code
/// never changes meaning (tooling and CI gates key off them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Code {
    /// `X0001` — a name declared twice in one scope.
    DuplicateDefinition,
    /// `X0002` — a reference to a name that does not exist.
    UnresolvedReference,
    /// `X0003` — a static type error in an action block.
    TypeError,
    /// `X0004` — an attribute default that does not match its declared type.
    BadDefault,
    /// `X0005` — a state no transition chain from the initial state reaches.
    UnreachableState,
    /// `X0006` — an event no transition row of its class consumes.
    DeadEvent,
    /// `X0007` — a transition whose trigger no action ever generates (and
    /// which is not an environment entry point on the initial state).
    DeadTransition,
    /// `X0008` — an attribute whose value is never read by any action.
    WriteOnlyAttribute,
    /// `X0009` — an attribute read by actions but never written: every read
    /// yields the declared default.
    ConstantAttribute,
    /// `X0010` — two machines signal the same target class with
    /// order-sensitive events; the causality rule does not order them.
    SignalRace,
    /// `X0011` — a cycle in the dispatch graph in which every participant
    /// re-generates on receipt: potential livelock or unbounded queue
    /// growth under the execution scheduler.
    SignalCycle,
    /// `X0012` — a mark that names a model element that does not exist.
    UnknownMarkTarget,
    /// `X0013` — a class marked `isHardware` carrying string-typed events
    /// or attributes, which the VHDL generator cannot synthesize.
    HardwareStringPayload,
    /// `X0014` — an event that crosses the hardware/software partition with
    /// a payload the interface generator cannot marshal: no ICD entry can
    /// exist for it.
    UnmarshallableChannel,
    /// `X0015` — a state action using a construct the sharded executor
    /// cannot run in parallel (`create`/`delete`/`relate`/`unrelate` or a
    /// non-self attribute access): `--shards N` falls back to sequential
    /// execution.
    ShardUnsafe,
    /// `X0016` — a state action the bytecode lowering cannot encode (it
    /// exceeds the 16-bit operand encoding): the model loads, and
    /// dispatching that (class, state, event) pair raises this error.
    BcUnsupported,
    /// `X0017` — two state actions access the same written attribute
    /// through receiver shapes the effect analysis cannot reconcile to
    /// one shard: a genuine cross-shard write race, reported with a
    /// two-action witness path.
    CrossShardRace,
}

/// Every code, in ascending order — the lint catalogue.
pub const ALL_CODES: &[Code] = &[
    Code::DuplicateDefinition,
    Code::UnresolvedReference,
    Code::TypeError,
    Code::BadDefault,
    Code::UnreachableState,
    Code::DeadEvent,
    Code::DeadTransition,
    Code::WriteOnlyAttribute,
    Code::ConstantAttribute,
    Code::SignalRace,
    Code::SignalCycle,
    Code::UnknownMarkTarget,
    Code::HardwareStringPayload,
    Code::UnmarshallableChannel,
    Code::ShardUnsafe,
    Code::BcUnsupported,
    Code::CrossShardRace,
];

impl Code {
    /// The stable code string, e.g. `"X0003"`.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::DuplicateDefinition => "X0001",
            Code::UnresolvedReference => "X0002",
            Code::TypeError => "X0003",
            Code::BadDefault => "X0004",
            Code::UnreachableState => "X0005",
            Code::DeadEvent => "X0006",
            Code::DeadTransition => "X0007",
            Code::WriteOnlyAttribute => "X0008",
            Code::ConstantAttribute => "X0009",
            Code::SignalRace => "X0010",
            Code::SignalCycle => "X0011",
            Code::UnknownMarkTarget => "X0012",
            Code::HardwareStringPayload => "X0013",
            Code::UnmarshallableChannel => "X0014",
            Code::ShardUnsafe => "X0015",
            Code::BcUnsupported => "X0016",
            Code::CrossShardRace => "X0017",
        }
    }

    /// The human-oriented lint name, e.g. `"signal-race"`, accepted by
    /// `--deny`/`--allow` interchangeably with the code string.
    pub fn name(self) -> &'static str {
        match self {
            Code::DuplicateDefinition => "duplicate-definition",
            Code::UnresolvedReference => "unresolved-reference",
            Code::TypeError => "type-error",
            Code::BadDefault => "bad-default",
            Code::UnreachableState => "unreachable-state",
            Code::DeadEvent => "dead-event",
            Code::DeadTransition => "dead-transition",
            Code::WriteOnlyAttribute => "write-only-attribute",
            Code::ConstantAttribute => "constant-attribute",
            Code::SignalRace => "signal-race",
            Code::SignalCycle => "signal-cycle",
            Code::UnknownMarkTarget => "unknown-mark-target",
            Code::HardwareStringPayload => "hardware-string-payload",
            Code::UnmarshallableChannel => "unmarshallable-channel",
            Code::ShardUnsafe => "shard-unsafe",
            Code::BcUnsupported => "bc-unsupported",
            Code::CrossShardRace => "cross-shard-race",
        }
    }

    /// The severity a finding of this code carries before any
    /// [`LintLevels`] promotion.
    pub fn default_severity(self) -> Severity {
        match self {
            Code::DuplicateDefinition
            | Code::UnresolvedReference
            | Code::TypeError
            | Code::BadDefault
            | Code::UnmarshallableChannel
            | Code::BcUnsupported => Severity::Error,
            Code::UnreachableState
            | Code::DeadEvent
            | Code::DeadTransition
            | Code::WriteOnlyAttribute
            | Code::SignalRace
            | Code::SignalCycle
            | Code::UnknownMarkTarget
            | Code::HardwareStringPayload
            | Code::CrossShardRace => Severity::Warning,
            Code::ConstantAttribute | Code::ShardUnsafe => Severity::Note,
        }
    }

    /// Parses a code from either the stable string (`"X0010"`) or the
    /// lint name (`"signal-race"`).
    pub fn parse(s: &str) -> Option<Code> {
        ALL_CODES
            .iter()
            .copied()
            .find(|c| c.as_str().eq_ignore_ascii_case(s) || c.name() == s)
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

// ---------------------------------------------------------------------------
// Severity
// ---------------------------------------------------------------------------

/// How serious a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational; never fails a build.
    Note,
    /// Suspicious but legal; fails builds only under `--deny`.
    Warning,
    /// A defect; the model (or model+marks) is rejected.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        };
        write!(f, "{s}")
    }
}

// ---------------------------------------------------------------------------
// Diagnostic
// ---------------------------------------------------------------------------

/// One finding: a code, a severity, a span and a message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The stable lint code.
    pub code: Code,
    /// Severity (the code's default until [`LintLevels::apply`] runs).
    pub severity: Severity,
    /// Source position; [`Pos::UNKNOWN`] when the element was built
    /// programmatically.
    pub pos: Pos,
    /// The model element the finding is about, as a human-readable path
    /// (e.g. `"class Chimer, state Chiming"`); may be empty.
    pub element: String,
    /// The primary message.
    pub message: String,
    /// Secondary notes rendered under the snippet.
    pub notes: Vec<String>,
    /// Which file the span refers to: `None` for the model file, or the
    /// name of a secondary file (e.g. the mark file).
    pub file: Option<String>,
}

impl Diagnostic {
    /// Creates a diagnostic with the code's default severity.
    pub fn new(code: Code, pos: Pos, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            severity: code.default_severity(),
            pos,
            element: String::new(),
            message: message.into(),
            notes: Vec::new(),
            file: None,
        }
    }

    /// Attaches the element path.
    #[must_use]
    pub fn with_element(mut self, element: impl Into<String>) -> Diagnostic {
        self.element = element.into();
        self
    }

    /// Appends a secondary note.
    #[must_use]
    pub fn with_note(mut self, note: impl Into<String>) -> Diagnostic {
        self.notes.push(note.into());
        self
    }

    /// Attributes the span to a secondary file (e.g. the mark file).
    #[must_use]
    pub fn in_file(mut self, file: impl Into<String>) -> Diagnostic {
        self.file = Some(file.into());
        self
    }

    /// Converts a [`CoreError`] surfaced by a check pass into a diagnostic,
    /// using `fallback` when the error carries no position of its own.
    pub fn from_core_error(err: &CoreError, fallback: Pos) -> Diagnostic {
        let (code, pos) = match err {
            CoreError::Lex { pos, .. } | CoreError::Parse { pos, .. } => {
                (Code::UnresolvedReference, *pos)
            }
            CoreError::Type { pos, .. } => {
                let p = if pos.line == 0 { fallback } else { *pos };
                (Code::TypeError, p)
            }
            CoreError::Unresolved { .. } => (Code::UnresolvedReference, fallback),
            CoreError::Duplicate { .. } => (Code::DuplicateDefinition, fallback),
            CoreError::Validate { .. }
            | CoreError::Runtime { .. }
            | CoreError::CantHappen { .. } => (Code::UnresolvedReference, fallback),
        };
        Diagnostic::new(code, pos, err.to_string())
    }
}

// ---------------------------------------------------------------------------
// Accumulator
// ---------------------------------------------------------------------------

/// An ordered accumulation of diagnostics — the sink every check pass
/// writes into.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Diagnostics {
    list: Vec<Diagnostic>,
}

impl Diagnostics {
    /// Creates an empty sink.
    pub fn new() -> Diagnostics {
        Diagnostics::default()
    }

    /// Appends a diagnostic.
    pub fn push(&mut self, d: Diagnostic) {
        self.list.push(d);
    }

    /// All diagnostics, in emission (then sorted, if [`Diagnostics::sort`]
    /// was called) order.
    pub fn iter(&self) -> impl Iterator<Item = &Diagnostic> {
        self.list.iter()
    }

    /// Number of diagnostics.
    pub fn len(&self) -> usize {
        self.list.len()
    }

    /// True when nothing was reported.
    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }

    /// True if any diagnostic is [`Severity::Error`].
    pub fn has_errors(&self) -> bool {
        self.list.iter().any(|d| d.severity == Severity::Error)
    }

    /// Counts diagnostics of the given severity.
    pub fn count(&self, severity: Severity) -> usize {
        self.list.iter().filter(|d| d.severity == severity).count()
    }

    /// Pins every diagnostic with an implicit file (`file: None`) to
    /// `primary`, the model file's name.
    ///
    /// Without this, [`Diagnostics::sort`] orders by the *internal*
    /// attribution — `None` sorts before every `Some(...)` — so findings
    /// that render under the same file name can interleave differently
    /// depending on which pass produced them. Call this before `sort`
    /// whenever diagnostics from several files are mixed (e.g. model +
    /// marks) and the output order must be a pure function of the
    /// rendered (file, position, code) key.
    pub fn resolve_files(&mut self, primary: &str) {
        for d in &mut self.list {
            if d.file.is_none() {
                d.file = Some(primary.to_owned());
            }
        }
    }

    /// Stable-sorts by file, position, then code, for deterministic output.
    pub fn sort(&mut self) {
        self.list.sort_by(|a, b| {
            (&a.file, a.pos, a.code, &a.message).cmp(&(&b.file, b.pos, b.code, &b.message))
        });
    }

    /// Renders every diagnostic in rustc style, with source snippets.
    ///
    /// `files` maps file names to their source text; the first entry is the
    /// primary (model) file used for diagnostics with `file: None`.
    pub fn render_human(&self, files: &[(&str, &str)]) -> String {
        let mut out = String::new();
        for d in &self.list {
            render_one(&mut out, d, files);
        }
        let errors = self.count(Severity::Error);
        let warnings = self.count(Severity::Warning);
        let notes = self.count(Severity::Note);
        if self.list.is_empty() {
            out.push_str("no diagnostics\n");
        } else {
            out.push_str(&format!(
                "{errors} error(s), {warnings} warning(s), {notes} note(s)\n"
            ));
        }
        out
    }

    /// Renders every diagnostic as a JSON document:
    /// `{"file": ..., "diagnostics": [...]}`.
    pub fn render_json(&self, primary_file: &str) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"file\": ");
        json_string(&mut out, primary_file);
        out.push_str(",\n  \"diagnostics\": [");
        for (i, d) in self.list.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\"code\": ");
            json_string(&mut out, d.code.as_str());
            out.push_str(", \"name\": ");
            json_string(&mut out, d.code.name());
            out.push_str(", \"severity\": ");
            json_string(&mut out, &d.severity.to_string());
            out.push_str(", \"file\": ");
            json_string(&mut out, d.file.as_deref().unwrap_or(primary_file));
            out.push_str(&format!(
                ", \"line\": {}, \"col\": {}, \"element\": ",
                d.pos.line, d.pos.col
            ));
            json_string(&mut out, &d.element);
            out.push_str(", \"message\": ");
            json_string(&mut out, &d.message);
            out.push_str(", \"notes\": [");
            for (j, n) in d.notes.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                json_string(&mut out, n);
            }
            out.push_str("]}");
        }
        if !self.list.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

fn render_one(out: &mut String, d: &Diagnostic, files: &[(&str, &str)]) {
    use std::fmt::Write as _;
    let _ = writeln!(out, "{}[{}]: {}", d.severity, d.code, d.message);
    let (fname, src) = match &d.file {
        None => files.first().copied().unwrap_or(("<model>", "")),
        Some(name) => files
            .iter()
            .find(|(n, _)| n == name)
            .copied()
            .unwrap_or((name.as_str(), "")),
    };
    let loc = if d.pos.line == 0 {
        fname.to_owned()
    } else {
        format!("{fname}:{}:{}", d.pos.line, d.pos.col)
    };
    if d.element.is_empty() {
        let _ = writeln!(out, "  --> {loc}");
    } else {
        let _ = writeln!(out, "  --> {loc} ({})", d.element);
    }
    if d.pos.line > 0 {
        if let Some(line) = src.lines().nth(d.pos.line as usize - 1) {
            let gutter = d.pos.line.to_string();
            let pad = " ".repeat(gutter.len());
            let _ = writeln!(out, "  {pad} |");
            let _ = writeln!(out, "  {gutter} | {line}");
            let caret_at = (d.pos.col as usize).saturating_sub(1);
            let _ = writeln!(out, "  {pad} | {}^", " ".repeat(caret_at));
        }
    }
    for n in &d.notes {
        let _ = writeln!(out, "  = note: {n}");
    }
}

/// Appends `s` to `out` as a JSON string literal.
fn json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------------
// Lint levels (--deny / --allow)
// ---------------------------------------------------------------------------

/// Per-code severity overrides, built from `--deny`/`--allow` flags.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LintLevels {
    /// `Some(sev)` forces the severity; `None` suppresses the code.
    overrides: BTreeMap<Code, Option<Severity>>,
    /// Promote every warning to an error (`--deny all`).
    deny_all_warnings: bool,
}

impl LintLevels {
    /// No overrides: every code keeps its default severity.
    pub fn new() -> LintLevels {
        LintLevels::default()
    }

    /// Promotes a code to [`Severity::Error`].
    pub fn deny(&mut self, code: Code) -> &mut Self {
        self.overrides.insert(code, Some(Severity::Error));
        self
    }

    /// Promotes every warning-level finding to an error.
    pub fn deny_all(&mut self) -> &mut Self {
        self.deny_all_warnings = true;
        self
    }

    /// Suppresses a code entirely.
    pub fn allow(&mut self, code: Code) -> &mut Self {
        self.overrides.insert(code, None);
        self
    }

    /// Applies the overrides: rewrites severities and drops allowed codes.
    pub fn apply(&self, diags: &mut Diagnostics) {
        diags
            .list
            .retain_mut(|d| match self.overrides.get(&d.code) {
                Some(None) => false,
                Some(Some(sev)) => {
                    d.severity = *sev;
                    true
                }
                None => {
                    if self.deny_all_warnings && d.severity == Severity::Warning {
                        d.severity = Severity::Error;
                    }
                    true
                }
            });
    }
}

// ---------------------------------------------------------------------------
// Source map
// ---------------------------------------------------------------------------

/// Maps model-element paths to source positions.
///
/// The metamodel ([`crate::model`]) is deliberately position-free — models
/// may be built programmatically and compared structurally — so the parser
/// records element spans *beside* the model, keyed by canonical path
/// strings. Lint passes look spans up here; a missing entry yields
/// [`Pos::UNKNOWN`], which renders without a snippet.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SourceMap {
    map: BTreeMap<String, Pos>,
}

impl SourceMap {
    /// Creates an empty map (all lookups yield [`Pos::UNKNOWN`]).
    pub fn new() -> SourceMap {
        SourceMap::default()
    }

    /// Records the position of an element.
    pub fn record(&mut self, key: String, pos: Pos) {
        self.map.entry(key).or_insert(pos);
    }

    /// Looks a position up; [`Pos::UNKNOWN`] when absent.
    pub fn get(&self, key: &str) -> Pos {
        self.map.get(key).copied().unwrap_or(Pos::UNKNOWN)
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if no spans were recorded.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Canonical key for a class declaration.
    pub fn class_key(class: &str) -> String {
        format!("class {class}")
    }

    /// Canonical key for a state declaration.
    pub fn state_key(class: &str, state: &str) -> String {
        format!("class {class}::state {state}")
    }

    /// Canonical key for an event declaration.
    pub fn event_key(class: &str, event: &str) -> String {
        format!("class {class}::event {event}")
    }

    /// Canonical key for an attribute declaration.
    pub fn attr_key(class: &str, attr: &str) -> String {
        format!("class {class}::attr {attr}")
    }

    /// Canonical key for a transition row (`on <state>: <event> ...`).
    pub fn transition_key(class: &str, state: &str, event: &str) -> String {
        format!("class {class}::on {state}:{event}")
    }

    /// Canonical key for an actor declaration.
    pub fn actor_key(actor: &str) -> String {
        format!("actor {actor}")
    }

    /// Canonical key for an association declaration.
    pub fn assoc_key(assoc: &str) -> String {
        format!("assoc {assoc}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_round_trip_by_string_and_name() {
        for c in ALL_CODES {
            assert_eq!(Code::parse(c.as_str()), Some(*c));
            assert_eq!(Code::parse(c.name()), Some(*c));
        }
        assert_eq!(Code::parse("X9999"), None);
        assert_eq!(Code::parse("x0010"), Some(Code::SignalRace));
    }

    #[test]
    fn human_rendering_has_snippet_and_caret() {
        let mut diags = Diagnostics::new();
        diags.push(
            Diagnostic::new(Code::TypeError, Pos::new(2, 5), "bad thing")
                .with_element("class C, state S")
                .with_note("because reasons"),
        );
        let out = diags.render_human(&[("m.xtuml", "line one\nline two here\n")]);
        assert!(out.contains("error[X0003]: bad thing"));
        assert!(out.contains("--> m.xtuml:2:5 (class C, state S)"));
        assert!(out.contains("2 | line two here"));
        assert!(out.contains("    ^"));
        assert!(out.contains("= note: because reasons"));
        assert!(out.contains("1 error(s), 0 warning(s), 0 note(s)"));
    }

    #[test]
    fn unknown_pos_renders_without_snippet() {
        let mut diags = Diagnostics::new();
        diags.push(Diagnostic::new(
            Code::UnknownMarkTarget,
            Pos::UNKNOWN,
            "no such class",
        ));
        let out = diags.render_human(&[("m.xtuml", "src")]);
        assert!(out.contains("--> m.xtuml\n"));
        assert!(!out.contains(" | "));
    }

    #[test]
    fn json_escapes_and_lists() {
        let mut diags = Diagnostics::new();
        diags.push(
            Diagnostic::new(Code::SignalRace, Pos::new(1, 2), "say \"hi\"\n").with_note("n1"),
        );
        let json = diags.render_json("a\\b.xtuml");
        assert!(json.contains(r#""code": "X0010""#));
        assert!(json.contains(r#""name": "signal-race""#));
        assert!(json.contains(r#""message": "say \"hi\"\n""#));
        assert!(json.contains(r#""file": "a\\b.xtuml""#));
        assert!(json.contains(r#""notes": ["n1"]"#));
    }

    #[test]
    fn levels_promote_and_suppress() {
        let mut diags = Diagnostics::new();
        diags.push(Diagnostic::new(Code::SignalRace, Pos::UNKNOWN, "race"));
        diags.push(Diagnostic::new(
            Code::ConstantAttribute,
            Pos::UNKNOWN,
            "const",
        ));
        assert!(!diags.has_errors());

        let mut levels = LintLevels::new();
        levels.deny(Code::SignalRace).allow(Code::ConstantAttribute);
        let mut promoted = diags.clone();
        levels.apply(&mut promoted);
        assert_eq!(promoted.len(), 1);
        assert!(promoted.has_errors());

        let mut all = diags.clone();
        LintLevels::new().deny_all().apply(&mut all);
        // deny-all only promotes warnings; the note stays a note.
        assert_eq!(all.count(Severity::Error), 1);
        assert_eq!(all.count(Severity::Note), 1);
    }

    #[test]
    fn sort_orders_by_position() {
        let mut diags = Diagnostics::new();
        diags.push(Diagnostic::new(Code::DeadEvent, Pos::new(9, 1), "later"));
        diags.push(Diagnostic::new(Code::DeadEvent, Pos::new(2, 1), "earlier"));
        diags.sort();
        let msgs: Vec<&str> = diags.iter().map(|d| d.message.as_str()).collect();
        assert_eq!(msgs, ["earlier", "later"]);
    }

    #[test]
    fn source_map_lookup_and_keys() {
        let mut sm = SourceMap::new();
        sm.record(SourceMap::state_key("C", "S"), Pos::new(4, 5));
        assert_eq!(sm.get("class C::state S"), Pos::new(4, 5));
        assert_eq!(sm.get("class C::state T"), Pos::UNKNOWN);
        assert!(!sm.is_empty());
        assert_eq!(sm.len(), 1);
    }

    #[test]
    fn from_core_error_maps_codes_and_positions() {
        let e = CoreError::Type {
            pos: Pos::new(3, 7),
            msg: "bad".into(),
        };
        let d = Diagnostic::from_core_error(&e, Pos::new(1, 1));
        assert_eq!(d.code, Code::TypeError);
        assert_eq!(d.pos, Pos::new(3, 7));

        let e = CoreError::unresolved("attribute", "C.x");
        let d = Diagnostic::from_core_error(&e, Pos::new(5, 2));
        assert_eq!(d.code, Code::UnresolvedReference);
        assert_eq!(d.pos, Pos::new(5, 2));
    }
}
