//! The outside-in layer probe: a timing decorator over the transducer
//! fleet, so the time inside `vada-core`'s orchestrator splits into
//! transducer `run` (each component), transducer `ready` (the knowledge
//! base's dependency queries) and the orchestrator's own remainder.
//!
//! Nothing here reaches into the program: the decorator sits between
//! [`Wrangler::with_transducers`](vada_core::Wrangler::with_transducers)
//! and [`default_transducers`], forwarding every trait method.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use vada_common::{Evaluation, Obs, Parallelism, QueryCaching, Result, Sharding};
use vada_core::{default_transducers, Activity, RunOutcome, Transducer};
use vada_kb::KnowledgeBase;

/// Time and calls spent in one kind of call.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    pub ms: f64,
    pub calls: u64,
}

impl Tally {
    fn add(&mut self, ms: f64) {
        self.ms += ms;
        self.calls += 1;
    }
}

/// Per-transducer `run` and `ready` tallies, collected only while armed so
/// set-up wrangles and untimed checks stay out of the per-op figures.
#[derive(Debug, Default)]
pub struct Probe {
    armed: Cell<bool>,
    run: RefCell<BTreeMap<String, Tally>>,
    ready: RefCell<BTreeMap<String, Tally>>,
}

impl Probe {
    /// The default fleet, each transducer wrapped in the timing decorator.
    pub fn fleet(self: &Rc<Self>) -> Vec<Box<dyn Transducer>> {
        default_transducers()
            .into_iter()
            .map(|inner| {
                Box::new(Timed {
                    inner,
                    probe: Rc::clone(self),
                }) as Box<dyn Transducer>
            })
            .collect()
    }

    pub fn arm(&self, on: bool) {
        self.armed.set(on);
    }

    /// `run` tallies by transducer name.
    pub fn runs(&self) -> BTreeMap<String, Tally> {
        self.run.borrow().clone()
    }

    /// `ready` tallies by transducer name.
    pub fn readies(&self) -> BTreeMap<String, Tally> {
        self.ready.borrow().clone()
    }

    fn record(&self, table: &RefCell<BTreeMap<String, Tally>>, name: &str, started: Instant) {
        if self.armed.get() {
            let ms = started.elapsed().as_secs_f64() * 1e3;
            table
                .borrow_mut()
                .entry(name.to_string())
                .or_default()
                .add(ms);
        }
    }
}

/// A transducer that times its inner transducer's `run` and `ready`.
struct Timed {
    inner: Box<dyn Transducer>,
    probe: Rc<Probe>,
}

impl Transducer for Timed {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn activity(&self) -> Activity {
        self.inner.activity()
    }

    fn input_dependency(&self) -> &str {
        self.inner.input_dependency()
    }

    fn input_aspects(&self) -> &'static [&'static str] {
        self.inner.input_aspects()
    }

    fn ready(&self, kb: &KnowledgeBase) -> Result<bool> {
        let started = Instant::now();
        let ready = self.inner.ready(kb);
        self.probe
            .record(&self.probe.ready, self.inner.name(), started);
        ready
    }

    fn set_parallelism(&mut self, parallelism: Parallelism) {
        self.inner.set_parallelism(parallelism);
    }

    fn set_evaluation(&mut self, evaluation: Evaluation) {
        self.inner.set_evaluation(evaluation);
    }

    fn set_sharding(&mut self, sharding: Sharding) {
        self.inner.set_sharding(sharding);
    }

    fn set_obs(&mut self, obs: Obs) {
        self.inner.set_obs(obs);
    }

    fn set_query_caching(&mut self, caching: QueryCaching) {
        self.inner.set_query_caching(caching);
    }

    fn run(&mut self, kb: &mut KnowledgeBase) -> Result<RunOutcome> {
        let started = Instant::now();
        let outcome = self.inner.run(kb);
        self.probe
            .record(&self.probe.run, self.inner.name(), started);
        outcome
    }
}
