//! Replays on the settled knowledge base after the timed phase: the
//! mapping executors of `vada-map` and the engine of `vada-datalog`,
//! timed from outside over each candidate mapping.

use std::time::Instant;

use vada_common::{csv, Result, Tuple, Value};
use vada_datalog::{parse_program, Database, Engine, EngineConfig};
use vada_kb::{KnowledgeBase, MappingDef};
use vada_map::{execute_mapping, ExecuteConfig, IncrementalExecutor};

use crate::harness::{ms_since, Harness, OpClock, Subject};
use crate::workloads::Edit;

/// The outward code of a postcode-shaped value (letters and digits).
fn district(value: &str) -> Option<&str> {
    let outward = value.split_whitespace().next()?;
    let alpha = outward.chars().any(|c| c.is_ascii_alphabetic());
    let digit = outward.chars().any(|c| c.is_ascii_digit());
    (alpha && digit && value.contains(' ')).then_some(outward)
}

/// The input a mapping runs over: its source relations plus the
/// `postcode_district(full, district)` helper facts of every
/// postcode-shaped value, as the mapping executor builds it.
fn input_db(mapping: &MappingDef, kb: &KnowledgeBase) -> Result<Database> {
    let mut db = Database::new();
    for source in &mapping.sources {
        let rel = kb.relation(source)?;
        db.insert_relation(rel);
        for value in rel.iter().flat_map(|t| t.iter()) {
            if let Value::Str(s) = value {
                if let Some(d) = district(s) {
                    db.insert(
                        "postcode_district",
                        Tuple::new(vec![Value::str(s), Value::str(d)]),
                    );
                }
            }
        }
    }
    Ok(db)
}

/// Time `execute_mapping` and `Engine::run` over every candidate, then an
/// `IncrementalExecutor` across one scripted edit of the selected mapping.
pub fn replay(h: &mut Harness, s: &mut Subject, edit: &Edit) -> Result<()> {
    let cfg = ExecuteConfig::default();
    let candidates: Vec<MappingDef> = s.w.kb().mappings().cloned().collect();
    let (mut execute_ms, mut run_ms, mut facts) = (0.0, 0.0, 0usize);
    for m in &candidates {
        let kb = s.w.kb();
        let t = Instant::now();
        std::hint::black_box(execute_mapping(&cfg, m, kb)?);
        execute_ms += ms_since(t);

        let program = parse_program(&m.rules)?;
        let db = input_db(m, kb)?;
        let t = Instant::now();
        let out = Engine::new(EngineConfig::default()).run(&program, db)?;
        run_ms += ms_since(t);
        facts += out.total_facts();
    }
    let n = candidates.len().max(1) as f64;
    let replay = &mut h.layers.replay;
    replay.insert("map.candidates", candidates.len() as f64);
    replay.insert("map.execute_ms", execute_ms / n);
    replay.insert("datalog.run_ms", run_ms / n);
    replay.insert("datalog.facts", facts as f64 / n);

    let selected =
        s.w.kb()
            .selected_mapping()
            .and_then(|id| s.w.kb().get_mapping(id))
            .cloned();
    let Some(selected) = selected else {
        h.fail("replay: no selected mapping".into());
        return Ok(());
    };
    let mut executor = IncrementalExecutor::default();
    executor.execute(&cfg, &selected, s.w.kb())?;
    edit.apply(&mut s.w, &mut OpClock::start())?;
    let t = Instant::now();
    let maintained = executor.execute(&cfg, &selected, s.w.kb())?;
    h.layers.replay.insert("map.incremental_ms", ms_since(t));
    let fresh = execute_mapping(&cfg, &selected, s.w.kb())?;
    let same = csv::write_relation(&maintained) == csv::write_relation(&fresh);
    h.check(same, || {
        "replay: incremental execution differs from a fresh execution".into()
    });
    Ok(())
}
