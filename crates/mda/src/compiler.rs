//! The model compiler: repeatable mapping rules from marked model to
//! implementation (paper §4).

use crate::analysis;
use crate::host::{Actions, PCore};
use crate::hw::HwPartition;
use crate::interface::InterfaceSpec;
use crate::partition::{Partition, Side};
use crate::swpart::SwPartition;
use crate::system::CompiledSystem;
use crate::{cgen, icd, vgen, MdaError, Result};
use std::collections::BTreeMap;
use std::rc::Rc;
use xtuml_core::ids::ClassId;
use xtuml_core::marks::{keys, ElemRef, MarkSet};
use xtuml_core::model::Domain;
use xtuml_cosim::{Bridge, CoClock};

/// Platform parameters resolved from domain-level marks (with defaults).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlatformParams {
    /// CPU clock (kHz); mark `cpuKhz`, default 100 MHz.
    pub cpu_khz: u64,
    /// Hardware clock (kHz); mark `hwKhz`, default 50 MHz.
    pub hw_khz: u64,
    /// One-way bus latency in hw cycles; mark `busLatency`, default 4.
    pub bus_latency: u64,
    /// Bridge FIFO depth; mark `fifoDepth`, default 64.
    pub fifo_depth: usize,
    /// Hardware cycles per model time unit (µs): `hw_khz / 1000`.
    pub cycles_per_unit: u64,
    /// Per-class hardware event-FIFO depths (mark `queueDepth`).
    pub class_depth: BTreeMap<ClassId, usize>,
    /// Per-class software priorities (mark `priority`).
    pub prio: BTreeMap<ClassId, u8>,
    /// Default hardware event-FIFO depth.
    pub default_depth: usize,
}

impl PlatformParams {
    /// Resolves platform parameters from marks.
    pub fn from_marks(domain: &Domain, marks: &MarkSet) -> PlatformParams {
        let dref = ElemRef::domain();
        let cpu_khz = marks.get_int_or(&dref, keys::CPU_KHZ, 100_000).max(1) as u64;
        let hw_khz = marks.get_int_or(&dref, keys::HW_KHZ, 50_000).max(1) as u64;
        let bus_latency = marks.get_int_or(&dref, keys::BUS_LATENCY, 4).max(0) as u64;
        let fifo_depth = marks.get_int_or(&dref, "fifoDepth", 64).max(1) as usize;
        let mut class_depth = BTreeMap::new();
        let mut prio = BTreeMap::new();
        for (i, class) in domain.classes.iter().enumerate() {
            let cref = ElemRef::class(&class.name);
            let id = ClassId::new(i as u32);
            if let Some(d) = marks.get(&cref, keys::QUEUE_DEPTH).and_then(|v| v.as_int()) {
                class_depth.insert(id, d.max(1) as usize);
            }
            if let Some(p) = marks.get(&cref, keys::PRIORITY).and_then(|v| v.as_int()) {
                prio.insert(id, p.clamp(1, 255) as u8);
            }
        }
        PlatformParams {
            cpu_khz,
            hw_khz,
            bus_latency,
            fifo_depth,
            cycles_per_unit: (hw_khz / 1000).max(1),
            class_depth,
            prio,
            default_depth: 16,
        }
    }
}

/// The output of one model-compilation: partition, interface, generated
/// text, and the ability to instantiate an executable system.
#[derive(Debug)]
pub struct CompiledDesign<'d> {
    /// The compiled domain.
    pub domain: &'d Domain,
    /// The mark-derived partition.
    pub partition: Partition,
    /// The generated interface (single source of truth for both halves).
    pub interface: InterfaceSpec,
    /// Resolved platform parameters.
    pub params: PlatformParams,
    /// The generated C translation unit for the software half.
    pub c_code: String,
    /// The generated VHDL for the hardware half (entities + bridge).
    pub vhdl_code: String,
    /// The generated Interface Control Document (markdown).
    pub icd: String,
    /// The options the design was compiled with.
    pub options: CompilerOptions,
}

impl<'d> CompiledDesign<'d> {
    /// Instantiates the executable co-simulated system (the same lowering
    /// the generated text describes). The domain's actions are compiled
    /// and lowered once, and both partitions run them on the bytecode VM.
    pub fn instantiate(&self) -> CompiledSystem<'d> {
        let actions = Rc::new(Actions::new(self.domain));
        let core = |side| {
            PCore::new(
                self.domain,
                Rc::clone(&actions),
                side,
                self.partition.clone(),
                self.params.cycles_per_unit,
            )
        };
        let hw = HwPartition::new(
            core(Side::Hw),
            self.interface.clone(),
            self.params.default_depth,
            self.params.class_depth.clone(),
        );
        let bridge_cfg = self
            .interface
            .to_bridge_config(self.params.fifo_depth, self.params.bus_latency);
        let mut sw = SwPartition::new(
            core(Side::Sw),
            self.interface.clone(),
            &bridge_cfg,
            self.params.cpu_khz,
            self.params.prio.clone(),
        );
        if self.options.scramble_bridge_rx {
            sw.set_scramble_rx(true);
        }
        let bridge = Bridge::new(&bridge_cfg);
        let clock = CoClock::new(self.params.hw_khz, self.params.cpu_khz);
        CompiledSystem::new(self.domain, self.partition.clone(), hw, sw, bridge, clock)
    }

    /// Lines of generated C (codegen size metric, experiment E6).
    pub fn c_lines(&self) -> usize {
        self.c_code.lines().count()
    }

    /// Lines of generated VHDL (codegen size metric, experiment E6).
    pub fn vhdl_lines(&self) -> usize {
        self.vhdl_code.lines().count()
    }
}

/// Compiler options.
///
/// The single option exists for experiment E5's sake: a deliberately
/// *broken* mapping that fails to preserve per-pair signal order across
/// the bridge. The paper requires the model compiler to preserve "the
/// desired sequencing specified in the models"; compiling with
/// `scramble_bridge_rx` demonstrates that the verification layer catches
/// a compiler that does not.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompilerOptions {
    /// Break per-pair order for bridge-delivered events (E5 ablation).
    pub scramble_bridge_rx: bool,
}

/// The model compiler. Stateless: mapping rules are repeatable by
/// construction — compiling the same model and marks twice yields
/// identical output.
#[derive(Debug, Clone, Copy, Default)]
pub struct ModelCompiler {
    options: CompilerOptions,
}

impl ModelCompiler {
    /// Creates a compiler with the stock mapping rules.
    pub fn new() -> ModelCompiler {
        ModelCompiler::default()
    }

    /// Creates a compiler with explicit options (E5 ablations).
    pub fn with_options(options: CompilerOptions) -> ModelCompiler {
        ModelCompiler { options }
    }

    /// Compiles a domain under a mark set.
    ///
    /// # Errors
    ///
    /// Returns [`MdaError::Mapping`] on mapping-rule violations (see the
    /// crate docs) and propagates analysis errors.
    pub fn compile<'d>(&self, domain: &'d Domain, marks: &MarkSet) -> Result<CompiledDesign<'d>> {
        let partition = Partition::from_marks(domain, marks);
        self.check_locality(domain, &partition)?;
        let interface = InterfaceSpec::derive(domain, &partition)?;
        let params = PlatformParams::from_marks(domain, marks);
        let c_code = cgen::generate_c(domain, &partition, &interface, &params);
        let vhdl_code = vgen::generate_vhdl(domain, &partition, &interface, &params);
        let icd = icd::generate_icd(domain, &partition, &interface, &params);
        Ok(CompiledDesign {
            domain,
            partition,
            interface,
            params,
            c_code,
            vhdl_code,
            icd,
            options: self.options,
        })
    }

    /// [`ModelCompiler::compile`] with telemetry: one `mda_compiles`
    /// count per invocation, plus per-phase spans (`partition`,
    /// `interface`, `cgen`, `vgen`, `icd`) on the sink's track so a
    /// profile shows where compile time goes.
    ///
    /// # Errors
    ///
    /// Exactly the errors of [`ModelCompiler::compile`].
    pub fn compile_obs<'d>(
        &self,
        sink: &mut dyn xtuml_obs::Sink,
        domain: &'d Domain,
        marks: &MarkSet,
    ) -> Result<CompiledDesign<'d>> {
        if sink.enabled() {
            sink.count(xtuml_obs::Counter::MdaCompiles, 1);
        }
        if !sink.spans_enabled() {
            return self.compile(domain, marks);
        }
        let track = sink.track();
        let phase = |sink: &mut dyn xtuml_obs::Sink, name: &str| {
            sink.span_end(track);
            sink.span_begin(track, "mda", name);
        };
        sink.span_begin(track, "mda", "mda.compile");
        sink.span_begin(track, "mda", "partition");
        let partition = Partition::from_marks(domain, marks);
        let locality = self.check_locality(domain, &partition);
        phase(sink, "interface");
        let interface = InterfaceSpec::derive(domain, &partition);
        phase(sink, "cgen");
        let params = PlatformParams::from_marks(domain, marks);
        let (c_code, interface) = match (locality, interface) {
            (Err(e), _) | (_, Err(e)) => {
                sink.span_end(track);
                sink.span_end(track);
                return Err(e);
            }
            (Ok(()), Ok(i)) => {
                let c = cgen::generate_c(domain, &partition, &i, &params);
                (c, i)
            }
        };
        phase(sink, "vgen");
        let vhdl_code = vgen::generate_vhdl(domain, &partition, &interface, &params);
        phase(sink, "icd");
        let icd = icd::generate_icd(domain, &partition, &interface, &params);
        sink.span_end(track);
        sink.span_end(track);
        Ok(CompiledDesign {
            domain,
            partition,
            interface,
            params,
            c_code,
            vhdl_code,
            icd,
            options: self.options,
        })
    }

    /// Mapping rule: create/delete/select/relate must be partition-local.
    fn check_locality(&self, domain: &Domain, partition: &Partition) -> Result<()> {
        for (ci, class) in domain.classes.iter().enumerate() {
            let id = ClassId::new(ci as u32);
            let my_side = partition.side(id);
            let usage = analysis::analyze_class(domain, id)?;
            let check = |set: &std::collections::BTreeSet<ClassId>, what: &str| -> Result<()> {
                for t in set {
                    if partition.side(*t) != my_side {
                        return Err(MdaError::mapping(format!(
                            "class {} ({my_side}) {what} class {} ({}); \
                             {what} must be partition-local",
                            class.name,
                            domain.class(*t).name,
                            partition.side(*t),
                        )));
                    }
                }
                Ok(())
            };
            check(&usage.creates, "creates")?;
            check(&usage.deletes, "deletes")?;
            check(&usage.selects, "selects")?;
            check(&usage.relates, "relates")?;
        }
        let _ = Side::Hw;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtuml_core::builder::DomainBuilder;
    use xtuml_core::model::Multiplicity;
    use xtuml_core::value::DataType;

    fn ping_pong() -> Domain {
        let mut b = DomainBuilder::new("pp");
        b.actor("SINK").event("out", &[("v", DataType::Int)]);
        b.class("Ping")
            .attr("count", DataType::Int)
            .event("Start", &[("n", DataType::Int)])
            .event("Pong", &[("v", DataType::Int)])
            .state("Idle", "")
            .state(
                "Serving",
                "self.count = rcvd.n;\n\
                 q = any(self -> Pong_[R1]);\n\
                 gen Ping_(self.count) to q;",
            )
            .state(
                "Rally",
                "if (rcvd.v > 0) {\n\
                     q = any(self -> Pong_[R1]);\n\
                     gen Ping_(rcvd.v) to q;\n\
                 }\n\
                 else {\n\
                     gen out(rcvd.v) to SINK;\n\
                 }",
            )
            .initial("Idle")
            .transition("Idle", "Start", "Serving")
            .transition("Serving", "Pong", "Rally")
            .transition("Rally", "Pong", "Rally");
        b.class("Pong_")
            .event("Ping_", &[("v", DataType::Int)])
            .state("Wait", "")
            .state(
                "Return",
                "p = any(self -> Ping[R1]);\n\
                 gen Pong(rcvd.v - 1) to p;",
            )
            .initial("Wait")
            .transition("Wait", "Ping_", "Return")
            .transition("Return", "Ping_", "Return");
        b.association("R1", "Ping", Multiplicity::One, "Pong_", Multiplicity::One);
        b.build().unwrap()
    }

    #[test]
    fn compile_homogeneous_sw() {
        let d = ping_pong();
        let design = ModelCompiler::new().compile(&d, &MarkSet::new()).unwrap();
        assert!(design.interface.channels.is_empty());
        assert!(design.c_code.contains("Ping"));
        assert!(design.partition.is_homogeneous());
    }

    #[test]
    fn compile_split_generates_channels_and_text() {
        let d = ping_pong();
        let mut m = MarkSet::new();
        m.mark_hardware("Pong_");
        let design = ModelCompiler::new().compile(&d, &m).unwrap();
        assert_eq!(design.interface.channels.len(), 2);
        assert!(design.c_lines() > 20);
        assert!(design.vhdl_lines() > 20);
        assert!(design.vhdl_code.contains("entity"));
        assert!(design.c_code.contains("#include"));
    }

    #[test]
    fn compilation_is_repeatable() {
        let d = ping_pong();
        let mut m = MarkSet::new();
        m.mark_hardware("Pong_");
        let c = ModelCompiler::new();
        let d1 = c.compile(&d, &m).unwrap();
        let d2 = c.compile(&d, &m).unwrap();
        assert_eq!(d1.c_code, d2.c_code);
        assert_eq!(d1.vhdl_code, d2.vhdl_code);
        assert_eq!(d1.interface, d2.interface);
    }

    #[test]
    fn split_system_runs_and_matches_rally_count() {
        let d = ping_pong();
        let mut m = MarkSet::new();
        m.mark_hardware("Pong_");
        let design = ModelCompiler::new().compile(&d, &m).unwrap();
        let mut sys = design.instantiate();
        let ping = sys.create("Ping").unwrap();
        let pong = sys.create("Pong_").unwrap();
        sys.relate(ping, pong, "R1").unwrap();
        sys.inject(0, ping, "Start", vec![xtuml_core::Value::Int(5)])
            .unwrap();
        let stats = sys.run_to_quiescence().unwrap();
        let obs = sys.observables();
        assert_eq!(obs.len(), 1);
        assert_eq!(obs[0].actor, "SINK");
        assert_eq!(obs[0].args, vec![xtuml_core::Value::Int(0)]);
        // 5 rallies = 5 sw→hw messages + 5 hw→sw replies... plus the
        // serve: 6 crossings toward hw, 6 back minus the terminal one.
        assert!(stats.msgs_sw_to_hw >= 5);
        assert!(stats.msgs_hw_to_sw >= 5);
        assert!(stats.hw_cycles > 0);
    }

    #[test]
    fn all_software_system_runs_too() {
        let d = ping_pong();
        let design = ModelCompiler::new().compile(&d, &MarkSet::new()).unwrap();
        let mut sys = design.instantiate();
        let ping = sys.create("Ping").unwrap();
        let pong = sys.create("Pong_").unwrap();
        sys.relate(ping, pong, "R1").unwrap();
        sys.inject(0, ping, "Start", vec![xtuml_core::Value::Int(3)])
            .unwrap();
        let stats = sys.run_to_quiescence().unwrap();
        assert_eq!(stats.msgs_sw_to_hw, 0);
        let obs = sys.observables();
        assert_eq!(obs.len(), 1);
    }

    #[test]
    fn all_hardware_system_runs_too() {
        let d = ping_pong();
        let mut m = MarkSet::new();
        m.mark_hardware("Ping");
        m.mark_hardware("Pong_");
        let design = ModelCompiler::new().compile(&d, &m).unwrap();
        let mut sys = design.instantiate();
        let ping = sys.create("Ping").unwrap();
        let pong = sys.create("Pong_").unwrap();
        sys.relate(ping, pong, "R1").unwrap();
        sys.inject(0, ping, "Start", vec![xtuml_core::Value::Int(4)])
            .unwrap();
        sys.run_to_quiescence().unwrap();
        let obs = sys.observables();
        assert_eq!(obs.len(), 1);
        assert_eq!(obs[0].args, vec![xtuml_core::Value::Int(0)]);
    }

    #[test]
    fn cross_partition_create_rejected() {
        let mut b = DomainBuilder::new("bad");
        b.class("Maker")
            .event("Go", &[])
            .state("S", "x = create Widget;")
            .initial("S")
            .transition("S", "Go", "S");
        b.class("Widget");
        let d = b.build().unwrap();
        let mut m = MarkSet::new();
        m.mark_hardware("Widget");
        let err = ModelCompiler::new().compile(&d, &m).unwrap_err();
        assert!(err.to_string().contains("creates"));
        // Same model with both on one side is fine.
        assert!(ModelCompiler::new().compile(&d, &MarkSet::new()).is_ok());
    }

    #[test]
    fn cross_partition_select_rejected() {
        let mut b = DomainBuilder::new("bad");
        b.class("Finder")
            .event("Go", &[])
            .state("S", "select many xs from Widget;")
            .initial("S")
            .transition("S", "Go", "S");
        b.class("Widget");
        let d = b.build().unwrap();
        let mut m = MarkSet::new();
        m.mark_hardware("Finder");
        let err = ModelCompiler::new().compile(&d, &m).unwrap_err();
        assert!(err.to_string().contains("selects"));
    }

    #[test]
    fn platform_params_resolve_marks() {
        let d = ping_pong();
        let mut m = MarkSet::new();
        m.set(ElemRef::domain(), keys::CPU_KHZ, 200_000i64);
        m.set(ElemRef::domain(), keys::BUS_LATENCY, 9i64);
        m.set(ElemRef::class("Ping"), keys::PRIORITY, 2i64);
        m.set(ElemRef::class("Pong_"), keys::QUEUE_DEPTH, 4i64);
        let p = PlatformParams::from_marks(&d, &m);
        assert_eq!(p.cpu_khz, 200_000);
        assert_eq!(p.hw_khz, 50_000);
        assert_eq!(p.bus_latency, 9);
        assert_eq!(p.prio[&d.class_id("Ping").unwrap()], 2);
        assert_eq!(p.class_depth[&d.class_id("Pong_").unwrap()], 4);
    }
}
