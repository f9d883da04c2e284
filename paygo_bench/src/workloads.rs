//! The three workloads. Each drives the public `Wrangler` API from one
//! client thread, closed loop: the next op starts when the last returned.

use std::rc::Rc;

use vada_common::{csv, Evaluation, Relation, Result, Tuple, VadaError, Value};
use vada_core::Wrangler;
use vada_extract::sources::target_schema;
use vada_extract::{score_result, Oracle, Scenario, ScenarioConfig, UniverseConfig};
use vada_kb::{ContextKind, PairwiseStatement};

use crate::harness::{Harness, Knobs, OpClock, Subject};
use crate::replay;
use crate::rng::{mix, Rng};

/// Properties in the `paygo_session` universe.
pub const SESSION_PROPERTIES: usize = 5000;
/// Properties in the universe behind the wrangled knowledge base of
/// `source_edits` and `feedback_rounds`.
pub const KB_PROPERTIES: usize = 2000;
/// Cells the simulated user annotates in step 3 of a session.
pub const SESSION_FEEDBACK: usize = 40;
/// Stream tag of the session's annotations. They are drawn from the
/// scenario seed, not the oracle seed: the session is the paper's fixed
/// unit of account. Drawn per oracle seed, a quarter of the seeds make
/// feedback reopen mapping quality, and the session takes half as long
/// again, a spread between runs that no bound absorbs.
const SESSION_USER: u64 = 0x5e55;
/// Set-ups of `paygo_session` per run (the median is `setup_s`).
pub const SESSION_SETUPS: usize = 3;
/// Rows each source edit touches.
pub const EDIT_ROWS: usize = 8;
/// Edits per `source_edits` epoch: one cycle of the four kinds over both
/// sources.
pub const EDITS_PER_EPOCH: usize = 8;
/// Cells the simulated user annotates per feedback round.
pub const ROUND_CELLS: usize = 10;
/// Rounds per `feedback_rounds` epoch.
pub const ROUNDS_PER_EPOCH: usize = 400;
/// Rounds between reference kernel samples in `feedback_rounds`: an epoch
/// lasts seconds, longer than the host keeps one speed.
pub const ROUNDS_PER_BLOCK: usize = 50;
/// Set-ups made and discarded before the first epoch, so that `setup_s`
/// is a median of at least three.
pub const WARM_UP_SETUPS: usize = 2;

/// The knobs of `source_edits`; the other workloads keep the defaults.
/// The WAL stays off: with it on, fsync latency on a shared VM made
/// `op_ms_p50` differ by 40% between runs (127–178 ms, against 113–135 ms
/// without it, in interleaved runs).
pub const EDIT_KNOBS: Knobs = Knobs {
    evaluation: Evaluation::Incremental,
    ..Knobs::DEFAULT
};

/// The scenario (the data set) every run wrangles unless told otherwise:
/// `--seed` varies what the simulated user does to it, not its size or
/// shape, so runs with different seeds measure the same amount of work.
pub const DEFAULT_SCENARIO_SEED: u64 = 42;

/// The input seeds. The program receives only what they generate.
#[derive(Debug, Clone, Copy)]
pub struct Seeds {
    pub scenario: u64,
    pub oracle: u64,
    pub edit: u64,
}

/// Values an output check compares, recorded per seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quality {
    pub rows: usize,
    pub f1: f64,
}

/// The values recorded for the seeds (see `expected.tsv`): the session's
/// depend on the scenario seed alone, the rounds' on the oracle seed too.
#[derive(Debug, Clone, Copy, Default)]
pub struct Expected {
    pub session: Option<Quality>,
    pub rounds: Option<Quality>,
}

fn scenario(properties: usize, seed: u64) -> Scenario {
    Scenario::generate(ScenarioConfig {
        universe: UniverseConfig { properties, seed },
        seed: mix(seed, 0x5ce7a),
        ..ScenarioConfig::default()
    })
}

/// The paper's Fig 2(d) user context (step 4).
fn user_context() -> Vec<PairwiseStatement> {
    let s = |more: &str, less: &str, strength: &str| PairwiseStatement {
        more_important: more.into(),
        less_important: less.into(),
        strength: strength.into(),
    };
    vec![
        s(
            "completeness(crimerank)",
            "accuracy(property.type)",
            "very strongly",
        ),
        s(
            "consistency(property)",
            "completeness(property.bedrooms)",
            "strongly",
        ),
        s(
            "completeness(property.street)",
            "completeness(property.postcode)",
            "moderately",
        ),
    ]
}

fn result(w: &Wrangler) -> Result<&Relation> {
    w.result()
        .ok_or_else(|| VadaError::Other("no result materialised".into()))
}

fn result_csv(w: &Wrangler) -> String {
    w.result().map(csv::write_relation).unwrap_or_default()
}

fn quality(w: &Wrangler, sc: &Scenario) -> Result<Quality> {
    let rel = result(w)?;
    Ok(Quality {
        rows: rel.len(),
        f1: score_result(&sc.universe, rel).f1,
    })
}

/// Step 1: register the sources and the target, then run.
fn bootstrap(w: &mut Wrangler, c: &mut OpClock, sc: &Scenario) -> Result<()> {
    let sources = c.untimed(|| {
        [
            sc.rightmove.clone(),
            sc.onthemarket.clone(),
            sc.deprivation.clone(),
        ]
    });
    c.write(|| {
        for rel in sources {
            w.add_source(rel);
        }
        w.set_target(target_schema());
    });
    c.run(w)?;
    Ok(())
}

/// Step 2: the address list as reference data context, then run.
fn data_context(w: &mut Wrangler, c: &mut OpClock, sc: &Scenario) -> Result<()> {
    let address = c.untimed(|| sc.address.clone());
    c.write(|| {
        w.add_data_context(
            address,
            ContextKind::Reference,
            &[("street", "street"), ("postcode", "postcode")],
        )
    })?;
    c.run(w)?;
    Ok(())
}

/// The paper's four steps on a fresh wrangler.
fn session(w: &mut Wrangler, c: &mut OpClock, sc: &Scenario) -> Result<()> {
    bootstrap(w, c, sc)?;
    data_context(w, c, sc)?;
    let records = {
        let shown = result(w)?;
        let seed = mix(sc.config.universe.seed, SESSION_USER);
        c.untimed(|| Oracle::new(&sc.universe).annotate(shown, SESSION_FEEDBACK, seed))
    };
    c.write(|| w.add_feedback(records));
    c.run(w)?;
    c.write(|| w.set_user_context(user_context()));
    c.run(w)?;
    Ok(())
}

fn check_expected(h: &mut Harness, what: &str, got: Quality, want: Option<Quality>) {
    if let Some(want) = want {
        h.check(got == want, || {
            format!("{what}: got {got:?}, recorded {want:?}")
        });
    }
}

/// `paygo_session`: one op is a whole four-step session on a fresh
/// wrangler over a 5000-property scenario, every knob at its default.
pub fn paygo_session(h: &mut Harness, seeds: &Seeds, expected: Expected) -> Result<()> {
    let mut setup = None;
    for _ in 0..SESSION_SETUPS {
        setup = Some(h.setup(|| {
            let sc = scenario(SESSION_PROPERTIES, seeds.scenario);
            let mut s = Subject::new(Knobs::DEFAULT, None)?;
            session(&mut s.w, &mut OpClock::start(), &sc)?;
            let reference = (result_csv(&s.w), quality(&s.w, &sc)?);
            Ok((sc, reference))
        })?);
    }
    let (sc, (reference_csv, reference)) = setup.expect("at least one set-up");
    check_expected(h, "paygo_session reference", reference, expected.session);
    h.f1 = Some(reference.f1);

    let mut last_traced = None;
    let mut i = 0usize;
    while i < 2 || !h.past_deadline() {
        let traced = h.trace && i % 2 == 1;
        let probe = traced.then(|| Rc::clone(&h.probe));
        let mut s = Subject::new(Knobs::DEFAULT, probe)?;
        let done = h.op(&mut s, |w, c| session(w, c, &sc));
        h.end_cycle();
        if done.is_ok() {
            let same = result_csv(&s.w) == reference_csv;
            h.check(same, || {
                format!("session {i}: result differs from the reference session")
            });
        }
        if traced {
            last_traced = Some(s);
        }
        i += 1;
    }
    if let Some(mut s) = last_traced {
        let edit = edit_script(seeds.edit)[0];
        replay::replay(h, &mut s, &edit)?;
    }
    Ok(())
}

/// The kinds of source edit, cycled in this order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EditKind {
    Remove,
    Append,
    TailRewrite,
    MidRewrite,
}

/// One scripted edit: its kind, its source, and the seed that picks rows.
#[derive(Debug, Clone, Copy)]
pub struct Edit {
    pub kind: EditKind,
    pub source: &'static str,
    seed: u64,
}

/// The seeded edit script of one epoch: alternating sources, cycling
/// remove, append, tail rewrite and mid-relation rewrite.
pub fn edit_script(seed: u64) -> Vec<Edit> {
    const KINDS: [EditKind; 4] = [
        EditKind::Remove,
        EditKind::Append,
        EditKind::TailRewrite,
        EditKind::MidRewrite,
    ];
    (0..EDITS_PER_EPOCH)
        .map(|i| Edit {
            kind: KINDS[(i / 2) % 4],
            source: if i % 2 == 0 {
                "rightmove"
            } else {
                "onthemarket"
            },
            seed: mix(seed, i as u64),
        })
        .collect()
}

/// A row derived from `row`: the free-text column (the last one) is
/// rewritten, so the row is new while its keys still align.
fn edited(row: &Tuple, tag: u64, k: usize) -> Tuple {
    let mut values: Vec<Value> = row.iter().cloned().collect();
    let last = values.len() - 1;
    values[last] = Value::str(format!("listing revised {tag:x}.{k}"));
    Tuple::new(values)
}

impl Edit {
    /// Apply the edit through the `Wrangler`'s mutators. Rows are picked
    /// from the edit's seed and the source's current length, so the same
    /// edit on the same state makes the same change.
    pub fn apply(&self, w: &mut Wrangler, c: &mut OpClock) -> Result<()> {
        let rel = w.kb().relation(self.source)?;
        let n = rel.len();
        if n < 4 * EDIT_ROWS {
            return Err(VadaError::Other(format!(
                "`{}` too small to edit",
                self.source
            )));
        }
        let mut rng = Rng::new(self.seed);
        match self.kind {
            EditKind::Remove => {
                let mut rows = rng.distinct(EDIT_ROWS, n);
                rows.sort_unstable();
                c.write(|| w.remove_source_rows(self.source, &rows))?;
            }
            EditKind::Append => {
                let grown = c.untimed(|| {
                    let mut grown = rel.clone();
                    for k in 0..EDIT_ROWS {
                        let template = &rel.tuples()[rng.below(n)];
                        grown.push(edited(template, self.seed, k))?;
                    }
                    Ok::<_, VadaError>(grown)
                })?;
                c.write(|| w.add_source(grown));
            }
            EditKind::TailRewrite | EditKind::MidRewrite => {
                let start = match self.kind {
                    EditKind::TailRewrite => n - EDIT_ROWS,
                    _ => n / 4 + rng.below(n / 2),
                };
                let edits: Vec<(usize, Tuple)> = (start..start + EDIT_ROWS)
                    .enumerate()
                    .map(|(k, row)| (row, edited(&rel.tuples()[row], self.seed, k)))
                    .collect();
                c.write(|| w.update_source_rows(self.source, &edits))?;
            }
        }
        Ok(())
    }
}

/// The `source_edits` epoch check, untimed: the maintained result equals a
/// fresh, full wrangle over the edited sources.
fn check_maintained(h: &mut Harness, s: &Subject, epoch: usize) -> Result<()> {
    let mut fresh = Subject::new(Knobs::DEFAULT, None)?;
    let mut sink = OpClock::start();
    for name in ["rightmove", "onthemarket", "deprivation"] {
        let rel = s.w.kb().relation(name)?.clone();
        sink.write(|| fresh.w.add_source(rel));
    }
    fresh.w.set_target(target_schema());
    sink.run(&mut fresh.w)?;
    let same = result_csv(&fresh.w) == result_csv(&s.w);
    h.check(same, || {
        format!("epoch {epoch}: maintained result differs from a fresh full wrangle")
    });

    Ok(())
}

/// Set up the subjects of one epoch: a plain one, plus a traced one in a
/// traced run, each wrangled by `prepare` over a freshly generated scenario.
fn epoch_setup(
    h: &mut Harness,
    knobs: Knobs,
    seeds: &Seeds,
    prepare: fn(&mut Wrangler, &Scenario) -> Result<()>,
) -> Result<(Scenario, Vec<Subject>)> {
    let kinds: &[bool] = if h.trace { &[false, true] } else { &[false] };
    let probe = Rc::clone(&h.probe);
    h.setup(|| {
        let sc = scenario(KB_PROPERTIES, seeds.scenario);
        let mut subjects = Vec::new();
        for &traced in kinds {
            let probe = traced.then(|| Rc::clone(&probe));
            let mut s = Subject::new(knobs, probe)?;
            prepare(&mut s.w, &sc)?;
            subjects.push(s);
        }
        Ok((sc, subjects))
    })
}

/// `source_edits`: a wrangled 2000-property knowledge base under
/// incremental evaluation takes the edit script, one `run()` after each
/// edit.
pub fn source_edits(h: &mut Harness, seeds: &Seeds) -> Result<()> {
    let prepare: fn(&mut Wrangler, &Scenario) -> Result<()> =
        |w, sc| bootstrap(w, &mut OpClock::start(), sc);
    for _ in 0..WARM_UP_SETUPS {
        epoch_setup(h, EDIT_KNOBS, seeds, prepare)?;
    }
    let script = edit_script(seeds.edit);
    let mut last_traced = None;
    let mut epoch = 0usize;
    while epoch == 0 || !h.past_deadline() {
        let (sc, mut subjects) = epoch_setup(h, EDIT_KNOBS, seeds, prepare)?;
        for edit in &script {
            for s in subjects.iter_mut() {
                h.op(s, |w, c| {
                    edit.apply(w, c)?;
                    c.run(w)?;
                    Ok(())
                })?;
            }
        }
        h.end_cycle();
        for s in subjects.iter_mut() {
            check_maintained(h, s, epoch)?;
            h.f1 = Some(quality(&s.w, &sc)?.f1);
        }
        last_traced = subjects.into_iter().find(Subject::traced);
        epoch += 1;
    }
    if let Some(mut s) = last_traced {
        replay::replay(h, &mut s, &script[0])?;
    }
    Ok(())
}

/// `feedback_rounds`: a wrangled 2000-property knowledge base with data
/// context takes rounds of simulated annotation, each followed by `run()`.
pub fn feedback_rounds(h: &mut Harness, seeds: &Seeds, expected: Expected) -> Result<()> {
    let prepare: fn(&mut Wrangler, &Scenario) -> Result<()> = |w, sc| {
        let mut c = OpClock::start();
        bootstrap(w, &mut c, sc)?;
        data_context(w, &mut c, sc)
    };
    for _ in 0..WARM_UP_SETUPS {
        epoch_setup(h, Knobs::DEFAULT, seeds, prepare)?;
    }
    let mut last_traced = None;
    let mut first: Option<Quality> = None;
    let mut epoch = 0usize;
    while epoch == 0 || !h.past_deadline() {
        let (sc, mut subjects) = epoch_setup(h, Knobs::DEFAULT, seeds, prepare)?;
        let mut oracles: Vec<Oracle> = subjects.iter().map(|_| Oracle::new(&sc.universe)).collect();
        for round in 0..ROUNDS_PER_EPOCH {
            for (s, oracle) in subjects.iter_mut().zip(oracles.iter_mut()) {
                // the simulated user's annotation is generated outside the op
                let seed = mix(seeds.oracle, round as u64 + 1);
                let records = oracle.annotate(result(&s.w)?, ROUND_CELLS, seed);
                h.op(s, |w, c| {
                    c.write(|| w.add_feedback(records));
                    c.run(w)?;
                    Ok(())
                })?;
            }
            if (round + 1) % ROUNDS_PER_BLOCK == 0 {
                h.end_block();
            }
        }
        h.end_cycle();
        for s in subjects.iter_mut() {
            let q = quality(&s.w, &sc)?;
            check_expected(h, "feedback_rounds", q, expected.rounds);
            let want = *first.get_or_insert(q);
            h.check(q == want, || {
                format!("epoch {epoch}: {q:?} differs from the first epoch's {want:?}")
            });
            h.f1 = Some(q.f1);
        }
        last_traced = subjects.into_iter().find(Subject::traced);
        epoch += 1;
    }
    if let Some(mut s) = last_traced {
        replay::replay(h, &mut s, &edit_script(seeds.edit)[0])?;
    }
    Ok(())
}

/// The check values of one seed: a session, and one epoch of rounds.
pub fn record(seeds: &Seeds) -> Result<Expected> {
    let sc = scenario(SESSION_PROPERTIES, seeds.scenario);
    let mut s = Subject::new(Knobs::DEFAULT, None)?;
    session(&mut s.w, &mut OpClock::start(), &sc)?;
    let session = quality(&s.w, &sc)?;

    let sc = scenario(KB_PROPERTIES, seeds.scenario);
    let mut s = Subject::new(Knobs::DEFAULT, None)?;
    let mut c = OpClock::start();
    bootstrap(&mut s.w, &mut c, &sc)?;
    data_context(&mut s.w, &mut c, &sc)?;
    let mut oracle = Oracle::new(&sc.universe);
    for round in 0..ROUNDS_PER_EPOCH {
        let records = oracle.annotate(
            result(&s.w)?,
            ROUND_CELLS,
            mix(seeds.oracle, round as u64 + 1),
        );
        s.w.add_feedback(records);
        s.w.run()?;
    }
    Ok(Expected {
        session: Some(session),
        rounds: Some(quality(&s.w, &sc)?),
    })
}
