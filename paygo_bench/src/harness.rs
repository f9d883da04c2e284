//! The measuring loop shared by the workloads: one client, closed loop,
//! a deadline, per-op clocks, and the layer accumulator of the traced run.

use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::{Duration, Instant};

use vada_common::{Durability, Evaluation, Obs, Parallelism, QueryCaching, Result, Sharding};
use vada_core::{RunReport, Wrangler};

use crate::calib;
use crate::probe::Probe;

/// Every knob a workload pins through the public `Wrangler` setters.
#[derive(Debug, Clone, Copy)]
pub struct Knobs {
    pub evaluation: Evaluation,
    pub parallelism: Parallelism,
    pub sharding: Sharding,
    pub query_caching: QueryCaching,
}

impl Knobs {
    /// The defaults of a clean environment.
    pub const DEFAULT: Knobs = Knobs {
        evaluation: Evaluation::Full,
        parallelism: Parallelism::Sequential,
        sharding: Sharding::Off,
        query_caching: QueryCaching::Off,
    };

    pub fn describe(&self) -> String {
        format!(
            "evaluation={:?} durability=Off parallelism={:?} sharding={:?} query_caching={:?} \
             query_mode=Undirected",
            self.evaluation, self.parallelism, self.sharding, self.query_caching
        )
    }
}

/// A wrangler under test: plain, or traced (timing decorator over the
/// fleet plus a live counter registry).
pub struct Subject {
    pub w: Wrangler,
    pub probe: Option<Rc<Probe>>,
}

impl Subject {
    /// A fresh wrangler with `knobs` pinned, traced into `probe` when one
    /// is given.
    pub fn new(knobs: Knobs, probe: Option<Rc<Probe>>) -> Result<Subject> {
        let mut w = match &probe {
            Some(p) => Wrangler::with_transducers(p.fleet()),
            None => Wrangler::new(),
        };
        if probe.is_some() {
            w.set_obs(Obs::enabled());
        }
        w.set_evaluation(knobs.evaluation);
        w.set_parallelism(knobs.parallelism);
        w.set_sharding(knobs.sharding);
        w.set_query_caching(knobs.query_caching);
        w.set_durability(Durability::Off)?;
        Ok(Subject { w, probe })
    }

    pub fn traced(&self) -> bool {
        self.probe.is_some()
    }
}

/// The clock of one op: mutator time, `run` time, the first result, and
/// paused stretches (the simulated user's own work) that do not count.
pub struct OpClock {
    start: Instant,
    paused_ms: f64,
    pub write_ms: f64,
    pub run_ms: f64,
    pub steps: usize,
    first_ms: Option<f64>,
}

impl OpClock {
    pub fn start() -> OpClock {
        OpClock {
            start: Instant::now(),
            paused_ms: 0.0,
            write_ms: 0.0,
            run_ms: 0.0,
            steps: 0,
            first_ms: None,
        }
    }

    fn elapsed_ms(&self) -> f64 {
        self.start.elapsed().as_secs_f64() * 1e3 - self.paused_ms
    }

    /// A mutator call into the knowledge base through the `Wrangler`.
    pub fn write<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.write_ms += ms_since(t);
        out
    }

    /// `Wrangler::run`; the first one of the op marks the first result.
    pub fn run(&mut self, w: &mut Wrangler) -> Result<RunReport> {
        let t = Instant::now();
        let report = w.run();
        self.run_ms += ms_since(t);
        if self.first_ms.is_none() {
            self.first_ms = Some(self.elapsed_ms());
        }
        let report = report?;
        self.steps += report.executed;
        Ok(report)
    }

    /// Work that is not the system's: excluded from the op's time.
    pub fn untimed<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.paused_ms += ms_since(t);
        out
    }
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// What the traced ops did, summed over ops.
#[derive(Debug, Default)]
pub struct Layers {
    pub ops: u64,
    pub run_ms: f64,
    pub write_ms: f64,
    pub steps: u64,
    pub journal_events: u64,
    pub counters: BTreeMap<String, u64>,
    /// Measured after the timed phase on the settled knowledge base.
    pub replay: BTreeMap<&'static str, f64>,
}

/// One run of one workload.
pub struct Harness {
    pub trace: bool,
    deadline: Instant,
    pub setup_s: Vec<f64>,
    pub op_ms: Vec<f64>,
    pub first_ms: Vec<f64>,
    /// Per cycle of the workload, the mean `op_ms` and `first_ms` of its
    /// untraced ops, each in units of the reference kernel's time around
    /// its block (see `calib`).
    pub op_ref: Vec<f64>,
    pub first_ref: Vec<f64>,
    /// Every reference kernel call's time.
    pub kernel_ms: Vec<f64>,
    /// The kernel calls that ended the last block, the current block's
    /// untraced ops as (`op_ms`, `first_ms`), and the current cycle's ops
    /// so far in `ref` units.
    kernel_before: Vec<f64>,
    block: Vec<(f64, f64)>,
    cycle: Vec<(f64, f64)>,
    pub traced_op_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub layers: Layers,
    pub f1: Option<f64>,
    /// Shared by every traced subject of the run.
    pub probe: Rc<Probe>,
}

impl Harness {
    pub fn new(trace: bool, seconds: u64) -> Harness {
        Harness {
            trace,
            deadline: Instant::now() + Duration::from_secs(seconds),
            setup_s: Vec::new(),
            op_ms: Vec::new(),
            first_ms: Vec::new(),
            op_ref: Vec::new(),
            first_ref: Vec::new(),
            kernel_ms: Vec::new(),
            kernel_before: Vec::new(),
            block: Vec::new(),
            cycle: Vec::new(),
            traced_op_ms: Vec::new(),
            attempted: 0,
            failed: 0,
            layers: Layers::default(),
            f1: None,
            probe: Rc::default(),
        }
    }

    pub fn past_deadline(&self) -> bool {
        Instant::now() >= self.deadline
    }

    /// Time one set-up.
    pub fn setup<T>(&mut self, f: impl FnOnce() -> Result<T>) -> Result<T> {
        let t = Instant::now();
        let out = f()?;
        self.setup_s.push(t.elapsed().as_secs_f64());
        Ok(out)
    }

    /// Run one op on `s` and record it. An op that errs counts as failed
    /// and its error is returned, since the subject's state is then unknown.
    pub fn op(
        &mut self,
        s: &mut Subject,
        f: impl FnOnce(&mut Wrangler, &mut OpClock) -> Result<()>,
    ) -> Result<()> {
        self.attempted += 1;
        let traced = s.traced();
        let before = traced.then(|| Before::take(s));
        if !traced && self.kernel_before.is_empty() {
            self.kernel_before = calib::sample(calib::WARM_UP_MS);
            self.kernel_ms.extend(&self.kernel_before);
        }
        if let Some(p) = &s.probe {
            p.arm(true);
        }
        let mut clock = OpClock::start();
        let outcome = f(&mut s.w, &mut clock);
        let op_ms = clock.elapsed_ms();
        if let Some(p) = &s.probe {
            p.arm(false);
        }
        if let Err(e) = outcome {
            self.fail(format!("op {} failed: {e}", self.attempted));
            return Err(e);
        }
        if let Some(before) = before {
            self.traced_op_ms.push(op_ms);
            before.settle(s, &clock, &mut self.layers);
        } else {
            let first_ms = clock.first_ms.unwrap_or(op_ms);
            self.op_ms.push(op_ms);
            self.first_ms.push(first_ms);
            self.block.push((op_ms, first_ms));
        }
        Ok(())
    }

    /// End the current block of ops: the kernel runs for `calib::SHARE` of
    /// the block's op time, and the block's ops are converted to units of
    /// the kernel's mean time on both sides of the block.
    pub fn end_block(&mut self) {
        if self.block.is_empty() {
            return;
        }
        let block_ms: f64 = self.block.iter().map(|b| b.0).sum();
        let after = calib::sample(calib::SHARE * block_ms);
        let calls = (self.kernel_before.len() + after.len()) as f64;
        let unit = self.kernel_before.iter().chain(&after).sum::<f64>() / calls;
        for (op_ms, first_ms) in self.block.drain(..) {
            self.cycle.push((op_ms / unit, first_ms / unit));
        }
        self.kernel_ms.extend(&after);
        self.kernel_before = after;
    }

    /// End the workload's current cycle, the unit of the per-run medians:
    /// a session, or an epoch's edits or feedback rounds. It ends the
    /// current block and records the cycle's mean op in `ref` units.
    pub fn end_cycle(&mut self) {
        self.end_block();
        if self.cycle.is_empty() {
            return;
        }
        let n = self.cycle.len() as f64;
        let (op, first) = self
            .cycle
            .drain(..)
            .fold((0.0, 0.0), |(a, b), (op, first)| (a + op, b + first));
        self.op_ref.push(op / n);
        self.first_ref.push(first / n);
    }

    /// Record a failed output check against the last op.
    pub fn fail(&mut self, problem: String) {
        eprintln!("paygo_bench: {problem}");
        self.failed = (self.failed + 1).min(self.attempted.max(1));
    }

    /// Record the outcome of an output check.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.fail(problem());
        }
    }
}

/// Counter and version readings taken before a traced op.
struct Before {
    counters: BTreeMap<String, u64>,
    version: u64,
}

impl Before {
    fn take(s: &Subject) -> Before {
        Before {
            counters: s.w.obs().counters(),
            version: s.w.kb().version(),
        }
    }

    fn settle(self, s: &Subject, clock: &OpClock, layers: &mut Layers) {
        layers.ops += 1;
        layers.run_ms += clock.run_ms;
        layers.write_ms += clock.write_ms;
        layers.steps += clock.steps as u64;
        layers.journal_events += s.w.kb().version() - self.version;
        for (name, v) in s.w.obs().counters() {
            let delta = v - self.counters.get(&name).copied().unwrap_or(0);
            *layers.counters.entry(name).or_default() += delta;
        }
    }
}
