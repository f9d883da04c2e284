//! Mapping execution: run the Vadalog program against the source
//! relations and coerce the answers into the typed target schema.

use std::collections::HashMap;
use std::sync::Arc;

use vada_common::obs::{key as obs_key, Obs};
use vada_common::{AttrType, QueryCaching, Relation, Result, Schema, Tuple, VadaError, Value};
use vada_datalog::ast::{Atom, HeadTerm, Literal, Rule, Term};
use vada_datalog::cache::IndexCache;
use vada_datalog::engine::{Database, Engine, EngineConfig, FactSet};
use vada_datalog::parse_program;
use vada_kb::{KnowledgeBase, MappingDef};

/// Execution configuration.
#[derive(Debug, Clone, Default)]
pub struct ExecuteConfig {
    /// Engine limits.
    pub engine: EngineConfig,
    /// Whether a directed one-shot execution probes a caller-held
    /// [`IndexCache`] (see [`execute_mapping_cached`]) instead of building
    /// per-run indexes. Defaults to the `VADA_QUERY_CACHE` override.
    pub query_caching: QueryCaching,
}

/// Extract the outward code (district) of a postcode-shaped string.
pub(crate) fn district_of(postcode: &str) -> Option<&str> {
    let outward = postcode.split_whitespace().next()?;
    let has_alpha = outward.chars().any(|c| c.is_ascii_alphabetic());
    let has_digit = outward.chars().any(|c| c.is_ascii_digit());
    (has_alpha && has_digit).then_some(outward)
}

/// Normalise a raw extracted value into the target attribute type.
/// Currency symbols and thousands separators are stripped for numeric
/// targets; unparseable values become null (the defect stays visible as
/// missing data rather than corrupt data).
pub fn coerce_value(v: &Value, ty: AttrType) -> Value {
    if v.is_null() {
        return Value::Null;
    }
    match ty {
        AttrType::Str => match v {
            Value::Str(_) => v.clone(),
            _ => Value::str(v.to_string()),
        },
        AttrType::Int | AttrType::Float => {
            let direct = v.coerce(ty);
            if let Ok(x) = direct {
                return x;
            }
            if let Value::Str(s) = v {
                let cleaned: String = s
                    .chars()
                    .filter(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
                    .collect();
                if !cleaned.is_empty() {
                    if let Ok(parsed) = Value::parse_as(&cleaned, ty) {
                        return parsed;
                    }
                    // ints rendered with decimals, e.g. "250000.0"
                    if ty == AttrType::Int {
                        if let Ok(f) = cleaned.parse::<f64>() {
                            if f.fract() == 0.0 {
                                return Value::Int(f as i64);
                            }
                        }
                    }
                }
            }
            Value::Null
        }
        AttrType::Bool => v.coerce(AttrType::Bool).unwrap_or(Value::Null),
    }
}

/// The predicate of the helper facts every mapping input carries.
pub(crate) const POSTCODE_DISTRICT: &str = "postcode_district";

/// The `postcode_district(full, district)` helper facts one row
/// contributes, in value order; `full` shares the cell's string. The
/// single definition of the helper-fact condition: the incremental delta
/// planner must mirror the scratch input construction exactly, so both
/// paths call this.
pub(crate) fn district_facts(row: &Tuple) -> impl Iterator<Item = (Value, Value)> + '_ {
    row.iter().filter_map(|v| {
        let Value::Str(s) = v else {
            return None;
        };
        let district = district_of(s)?;
        s.contains(' ').then(|| (v.clone(), Value::str(district)))
    })
}

/// The version stamp a [`MappingInputs`] pool is valid for: the journal
/// lineage and the versions of every aspect a relation can change under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct KbStamp {
    lineage: u64,
    versions: [u64; 3],
}

impl KbStamp {
    fn of(kb: &KnowledgeBase) -> KbStamp {
        KbStamp {
            lineage: kb.journal().lineage(),
            versions: ["relations", "intermediates", "result"].map(|a| kb.aspect_version(a)),
        }
    }
}

/// One source relation as engine facts: its rows, and the
/// `postcode_district` helper facts of its values.
#[derive(Debug)]
struct SourceFacts {
    rows: Arc<FactSet>,
    districts: Arc<FactSet>,
}

/// Mapping inputs built once and shared. Each distinct source relation
/// is turned into fact sets on first use (`map.input.scans` counts these
/// scans), and every later mapping over it shares them copy-on-write: a
/// mapping whose rules derive into a source predicate copies that set in
/// its own database and leaves the pool untouched. A pool is valid for one
/// knowledge-base state: it empties itself when the journal lineage or the
/// `relations`, `intermediates` or `result` aspect version moves.
///
/// [`vada_map::execute_mapping_cached`](crate::execute_mapping_cached)
/// takes a pool, so a caller executing several mappings against an
/// unchanged knowledge base (a quality round over the candidates) scans
/// each source once; the other entry points use a throwaway pool.
#[derive(Debug, Default)]
pub struct MappingInputs {
    stamp: Option<KbStamp>,
    sources: HashMap<String, SourceFacts>,
}

impl MappingInputs {
    /// An empty pool.
    pub fn new() -> MappingInputs {
        MappingInputs::default()
    }

    /// The execution database of `mapping`: its source relations plus the
    /// `postcode_district(full, district)` helper facts of every
    /// postcode-shaped value in them, merged in source order. Facts and
    /// insertion order equal inserting each source's rows and then its
    /// helper facts, source by source.
    pub(crate) fn database(
        &mut self,
        mapping: &MappingDef,
        kb: &KnowledgeBase,
        obs: &Obs,
    ) -> Result<Database> {
        let stamp = KbStamp::of(kb);
        if self.stamp != Some(stamp) {
            self.sources.clear();
            self.stamp = Some(stamp);
        }
        let mut db = Database::new();
        for source in &mapping.sources {
            if !self.sources.contains_key(source) {
                let rel = kb.relation(source)?;
                obs.incr(obs_key::MAP_INPUT_SCANS);
                self.sources.insert(source.clone(), SourceFacts::scan(rel));
            }
            let facts = &self.sources[source];
            db.share_fact_set(source, &facts.rows);
            if !facts.districts.is_empty() {
                db.share_fact_set(POSTCODE_DISTRICT, &facts.districts);
            }
        }
        Ok(db)
    }
}

impl SourceFacts {
    fn scan(rel: &Relation) -> SourceFacts {
        let mut rows = FactSet::default();
        let mut districts = FactSet::default();
        for t in rel.iter() {
            rows.insert(t.clone());
            for (full, district) in district_facts(t) {
                districts.insert(Tuple::new(vec![full, district]));
            }
        }
        SourceFacts { rows: Arc::new(rows), districts: Arc::new(districts) }
    }
}

/// Execute a mapping and return the result in the target schema.
pub fn execute_mapping(
    cfg: &ExecuteConfig,
    mapping: &MappingDef,
    kb: &KnowledgeBase,
) -> Result<Relation> {
    execute_mapping_impl(cfg, mapping, kb, None, &mut MappingInputs::new())
}

/// [`execute_mapping`] with a caller-held persistent [`IndexCache`]:
/// under [`ExecuteConfig::query_caching`] + directed mode the demanded
/// run's hash indexes survive into the next call instead of dying with it.
/// The cache is validated against the knowledge base's journal identity —
/// indexes are reused only at an unchanged `(lineage, version)`, where the
/// input database this call builds is byte-identical to the one they
/// cover; any other identity drops them (`magic.cache.*` counters record
/// the outcome). The input database comes from the caller's
/// [`MappingInputs`] pool, so a caller executing several mappings against
/// one knowledge-base state scans each source once. The result is
/// byte-identical to the uncached call.
pub fn execute_mapping_cached(
    cfg: &ExecuteConfig,
    mapping: &MappingDef,
    kb: &KnowledgeBase,
    cache: &mut IndexCache,
    inputs: &mut MappingInputs,
) -> Result<Relation> {
    execute_mapping_impl(cfg, mapping, kb, Some(cache), inputs)
}

fn execute_mapping_impl(
    cfg: &ExecuteConfig,
    mapping: &MappingDef,
    kb: &KnowledgeBase,
    cache: Option<&mut IndexCache>,
    inputs: &mut MappingInputs,
) -> Result<Relation> {
    let target: &Schema = kb
        .target_schema()
        .ok_or_else(|| VadaError::Kb("no target schema registered".into()))?;
    if target.name != mapping.target {
        return Err(VadaError::Kb(format!(
            "mapping `{}` targets `{}` but the registered target is `{}`",
            mapping.id, mapping.target, target.name
        )));
    }
    let program = parse_program(&mapping.rules)?;
    cfg.engine.obs.incr(obs_key::MAP_FULL);
    // wraps input build + engine run: the engine's stratum spans nest
    // underneath
    let span = cfg.engine.obs.span("map/execute");
    span.attr("mapping", &mapping.id);
    span.attr("target", &mapping.target);
    let input = inputs.database(mapping, kb, &cfg.engine.obs)?;
    let engine = Engine::new(cfg.engine.clone());
    // A mapping run demands its *entire* target relation — an all-free
    // access pattern — so under QueryMode::Directed the magic rewrite
    // resolves to the identity program and the demanded fixpoint equals
    // the full one; routing through run_directed keeps the knob live
    // end-to-end while the result stays byte-identical by construction.
    let output = if cfg.engine.query_mode.is_directed() {
        let query = all_free_query(&target.name, target.arity());
        match cache {
            // the cache only pays off (and is only sound to consult) on
            // the directed path with the knob on; the `ensure` key pins
            // reuse to an input database byte-identical to the one the
            // surviving indexes were built over
            Some(cache) if cfg.query_caching.is_enabled() => {
                let warm = cache.ensure(kb.journal().lineage(), kb.version());
                cfg.engine.obs.incr(if warm {
                    obs_key::MAGIC_CACHE_HITS
                } else {
                    obs_key::MAGIC_CACHE_MISSES
                });
                engine.run_directed_cached(&program, input, &query, cache)?
            }
            _ => engine.run_directed(&program, input, &query)?,
        }
    } else {
        engine.run(&program, input)?
    };

    let mut rel = Relation::empty(target.clone());
    for t in output.facts(&target.name) {
        rel.push(coerce_fact(t, target, &mapping.id)?)?;
    }
    Ok(rel)
}

/// The query "every row of `pred`": one positive atom with `arity`
/// distinct free variables. This is the access pattern a mapping
/// materialization has — no bound arguments anywhere — which the demand
/// analysis rewrites to the identity program.
fn all_free_query(pred: &str, arity: usize) -> Rule {
    let names: Vec<String> = (0..arity).map(|i| format!("C{i}")).collect();
    let terms: Vec<Term> =
        names.iter().enumerate().map(|(i, n)| Term::Var(i, n.clone())).collect();
    Rule {
        head_pred: "__query".into(),
        head_terms: terms.iter().map(|t| HeadTerm::Term(t.clone())).collect(),
        body: vec![Literal::Pos(Atom { pred: pred.to_string(), terms })],
        var_count: arity,
        var_names: names,
    }
}

/// Coerce one derived target fact into the typed target schema, shared by
/// the from-scratch and incremental execution paths.
pub(crate) fn coerce_fact(t: &Tuple, target: &Schema, mapping_id: &str) -> Result<Tuple> {
    if t.arity() != target.arity() {
        return Err(VadaError::Eval(format!(
            "mapping `{mapping_id}` produced arity {} for target arity {}",
            t.arity(),
            target.arity()
        )));
    }
    Ok(Tuple::new(
        t.iter()
            .zip(target.attributes())
            .map(|(v, a)| coerce_value(v, a.ty))
            .collect::<Vec<Value>>(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vada_common::tuple;

    fn kb() -> KnowledgeBase {
        let mut kb = KnowledgeBase::new();
        let mut rm = Relation::empty(Schema::all_str(
            "rightmove",
            &["price", "street", "postcode"],
        ));
        rm.push(tuple!["£250,000", "12 high st", "M1 1AA"]).unwrap();
        rm.push(tuple!["300000", "9 park rd", "EH1 1AA"]).unwrap();
        rm.push(Tuple::new(vec![Value::str("bad price"), Value::str("1 mill ln"), Value::Null]))
            .unwrap();
        kb.register_source(rm);
        let mut dep = Relation::empty(Schema::all_str("deprivation", &["postcode", "crime"]));
        dep.push(tuple!["M1", "500"]).unwrap();
        kb.register_source(dep);
        kb.register_target_schema(
            Schema::new(
                "property",
                [
                    ("street", AttrType::Str),
                    ("postcode", AttrType::Str),
                    ("price", AttrType::Int),
                    ("crimerank", AttrType::Int),
                ],
            )
            .unwrap(),
        );
        kb
    }

    fn mapping(rules: &str, sources: &[&str]) -> MappingDef {
        MappingDef {
            id: "m".into(),
            target: "property".into(),
            rules: rules.into(),
            sources: sources.iter().map(|s| s.to_string()).collect(),
            matches_used: vec![],
        }
    }

    #[test]
    fn projection_mapping_coerces_types() {
        let m = mapping(
            "property(S, PC, P, null) :- rightmove(P, S, PC).",
            &["rightmove"],
        );
        let rel = execute_mapping(&ExecuteConfig::default(), &m, &kb()).unwrap();
        assert_eq!(rel.len(), 3);
        let by_street = |s: &str| {
            rel.iter()
                .find(|t| t[0] == Value::str(s))
                .cloned()
                .unwrap()
        };
        // pretty price parsed
        assert_eq!(by_street("12 high st")[2], Value::Int(250_000));
        // plain price parsed
        assert_eq!(by_street("9 park rd")[2], Value::Int(300_000));
        // unparseable price → null, not garbage
        assert!(by_street("1 mill ln")[2].is_null());
    }

    #[test]
    fn left_outer_district_join() {
        let rules = r#"
            property(S, PC, P, C) :- rightmove(P, S, PC), postcode_district(PC, D), deprivation(D, C).
            property(S, PC, P, null) :- rightmove(P, S, PC), not has_crime(PC).
            has_crime(PC) :- postcode_district(PC, D), deprivation(D, _).
        "#;
        let m = mapping(rules, &["rightmove", "deprivation"]);
        let rel = execute_mapping(&ExecuteConfig::default(), &m, &kb()).unwrap();
        let crime_of = |s: &str| {
            rel.iter()
                .find(|t| t[0] == Value::str(s))
                .map(|t| t[3].clone())
                .unwrap()
        };
        // M1 1AA matches deprivation M1
        assert_eq!(crime_of("12 high st"), Value::Int(500));
        // EH1 1AA has no deprivation row: kept with null crimerank
        assert!(crime_of("9 park rd").is_null());
        assert_eq!(rel.len(), 3);
    }

    #[test]
    fn wrong_target_rejected() {
        let m = MappingDef {
            id: "m".into(),
            target: "other".into(),
            rules: "other(X) :- rightmove(X, _, _).".into(),
            sources: vec!["rightmove".into()],
            matches_used: vec![],
        };
        assert!(execute_mapping(&ExecuteConfig::default(), &m, &kb()).is_err());
    }

    #[test]
    fn arity_mismatch_rejected() {
        let m = mapping("property(S) :- rightmove(_, S, _).", &["rightmove"]);
        assert!(execute_mapping(&ExecuteConfig::default(), &m, &kb()).is_err());
    }

    #[test]
    fn coerce_value_cases() {
        assert_eq!(coerce_value(&Value::str("£1,250"), AttrType::Int), Value::Int(1250));
        assert_eq!(coerce_value(&Value::str("3"), AttrType::Int), Value::Int(3));
        assert_eq!(coerce_value(&Value::str("x"), AttrType::Int), Value::Null);
        assert_eq!(coerce_value(&Value::Null, AttrType::Int), Value::Null);
        assert_eq!(coerce_value(&Value::Int(5), AttrType::Str), Value::str("5"));
        assert_eq!(coerce_value(&Value::str("M1 1AA"), AttrType::Str), Value::str("M1 1AA"));
        assert_eq!(
            coerce_value(&Value::str("2.5"), AttrType::Float),
            Value::Float(2.5)
        );
    }

    #[test]
    fn cached_directed_execution_matches_and_reuses_indexes() {
        use vada_common::QueryMode;

        let rules = r#"
            property(S, PC, P, C) :- rightmove(P, S, PC), postcode_district(PC, D), deprivation(D, C).
            property(S, PC, P, null) :- rightmove(P, S, PC), not has_crime(PC).
            has_crime(PC) :- postcode_district(PC, D), deprivation(D, _).
        "#;
        let m = mapping(rules, &["rightmove", "deprivation"]);
        let mut kb = kb();
        let obs = Obs::enabled();
        let mut cfg = ExecuteConfig {
            query_caching: QueryCaching::Persistent,
            ..ExecuteConfig::default()
        };
        cfg.engine.query_mode = QueryMode::Directed;
        cfg.engine.obs = obs.clone();
        let mut cache = IndexCache::new();
        let mut inputs = MappingInputs::new();

        let cold = execute_mapping_cached(&cfg, &m, &kb, &mut cache, &mut inputs).unwrap();
        assert_eq!(obs.get(obs_key::MAGIC_CACHE_MISSES), 1);
        let builds_after_cold = obs.get(obs_key::INDEX_BUILDS);

        // unchanged kb: warm reuse, byte-identical result, zero new builds
        let warm = execute_mapping_cached(&cfg, &m, &kb, &mut cache, &mut inputs).unwrap();
        assert_eq!(warm.tuples(), cold.tuples());
        assert_eq!(obs.get(obs_key::MAGIC_CACHE_HITS), 1);
        assert_eq!(obs.get(obs_key::INDEX_BUILDS), builds_after_cold);

        // a kb edit changes the journal identity: the cache is dropped and
        // the run matches the uncached path on the new state
        let mut grown = kb.relation("deprivation").unwrap().clone();
        grown.push(tuple!["EH1", "900"]).unwrap();
        kb.register_source(grown);
        let edited = execute_mapping_cached(&cfg, &m, &kb, &mut cache, &mut inputs).unwrap();
        assert_eq!(obs.get(obs_key::MAGIC_CACHE_MISSES), 2);
        let plain = execute_mapping(&cfg, &m, &kb).unwrap();
        assert_eq!(edited.tuples(), plain.tuples());
    }

    /// A deterministic generator for the seeded differential test.
    struct Lcg(u64);

    impl Lcg {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (self.0 >> 33) % n
        }
    }

    /// Sources `a(price, street, postcode)` and `b(street, postcode, beds)`
    /// drawing postcodes from one small pool (so they share postcodes and
    /// repeat rows), and `c(district, crime)` whose values are never
    /// postcode-shaped.
    fn random_kb(seed: u64) -> KnowledgeBase {
        const POSTCODES: [&str; 6] = ["M1 1AA", "M1 2BB", "EH1 1AA", "EH8 9AB", "n/a", "M13"];
        let mut rng = Lcg(seed);
        let postcode = |rng: &mut Lcg| match rng.below(7) {
            6 => Value::Null,
            i => Value::str(POSTCODES[i as usize]),
        };
        let mut kb = KnowledgeBase::new();
        let mut a = Relation::empty(Schema::all_str("a", &["price", "street", "postcode"]));
        for _ in 0..4 + rng.below(12) {
            let street = Value::str(format!("{} high st", rng.below(6)));
            let price = Value::str(format!("£{},000", 100 + rng.below(3)));
            a.push(Tuple::new(vec![price, street, postcode(&mut rng)])).unwrap();
        }
        let mut b = Relation::empty(Schema::all_str("b", &["street", "postcode", "beds"]));
        for _ in 0..4 + rng.below(12) {
            let street = Value::str(format!("{} park rd", rng.below(6)));
            b.push(Tuple::new(vec![street, postcode(&mut rng), Value::Int(rng.below(4) as i64)]))
                .unwrap();
        }
        let mut c = Relation::empty(Schema::all_str("c", &["district", "crime"]));
        for d in ["M1", "EH8", "LS2"] {
            c.push(Tuple::new(vec![Value::str(d), Value::Int(rng.below(900) as i64)])).unwrap();
        }
        kb.register_source(a);
        kb.register_source(b);
        kb.register_source(c);
        kb.register_target_schema(
            Schema::new(
                "property",
                [
                    ("street", AttrType::Str),
                    ("postcode", AttrType::Str),
                    ("price", AttrType::Int),
                    ("crimerank", AttrType::Int),
                ],
            )
            .unwrap(),
        );
        kb
    }

    /// The input database built the straightforward way: each source's
    /// rows, then its helper facts, inserted one by one in source order.
    fn reference_input(m: &MappingDef, kb: &KnowledgeBase) -> Database {
        let mut db = Database::new();
        for source in &m.sources {
            let rel = kb.relation(source).unwrap();
            db.insert_relation(rel);
            for t in rel.iter() {
                for (full, district) in district_facts(t) {
                    db.insert(POSTCODE_DISTRICT, Tuple::new(vec![full, district]));
                }
            }
        }
        db
    }

    /// Every predicate's facts, in insertion order, as debug text.
    fn dump(db: &Database) -> Vec<String> {
        db.predicates().iter().map(|p| format!("{p}: {:?}", db.facts(p))).collect()
    }

    #[test]
    fn pooled_inputs_match_fresh_execution() {
        let district_join = "
            property(S, PC, P, C) :- a(P, S, PC), postcode_district(PC, D), c(D, C).
            property(S, PC, P, null) :- a(P, S, PC), not has_crime(PC).
            has_crime(PC) :- postcode_district(PC, D), c(D, _).";
        let mappings = [
            mapping("property(S, PC, P, null) :- a(P, S, PC).", &["a"]),
            mapping(
                "property(S, PC, P, null) :- a(P, S, PC).
                 property(S, PC, null, null) :- b(S, PC, _).",
                &["a", "b"],
            ),
            mapping(district_join, &["a", "c"]),
            // a repeated source, and the sources in another order
            mapping(district_join, &["c", "a", "c", "a"]),
            // rules deriving into a source and into the helper predicate:
            // the shared sets are copied in this mapping's database only
            mapping(
                "a(P, S, PC) :- b(S, PC, P).
                 postcode_district(S, S) :- b(S, _, _).
                 property(S, PC, P, C) :- a(P, S, PC), postcode_district(PC, D), c(D, C).",
                &["b", "a", "c"],
            ),
            mapping("property(S, PC, P, null) :- a(P, S, PC).", &["a"]),
        ];
        let csv = |r: &Relation| vada_common::csv::write_relation(r);
        for seed in 0..12 {
            let mut kb = random_kb(seed);
            let obs = Obs::enabled();
            let mut pooled_cfg = ExecuteConfig::default();
            pooled_cfg.engine.obs = obs.clone();
            let fresh_cfg = ExecuteConfig::default();
            let mut inputs = MappingInputs::new();
            for round in 0..2u64 {
                for m in &mappings {
                    let ctx = format!("seed {seed}, round {round}, sources {:?}", m.sources);
                    let want = dump(&reference_input(m, &kb));
                    assert_eq!(dump(&inputs.database(m, &kb, &obs).unwrap()), want, "{ctx}");
                    let pooled = execute_mapping_cached(
                        &pooled_cfg,
                        m,
                        &kb,
                        &mut IndexCache::new(),
                        &mut inputs,
                    )
                    .unwrap();
                    let fresh = execute_mapping(&fresh_cfg, m, &kb).unwrap();
                    assert_eq!(csv(&pooled), csv(&fresh), "{ctx}");
                    // the pool is untouched by what the mapping derived
                    let pool = inputs.database(m, &kb, &Obs::disabled()).unwrap();
                    assert_eq!(dump(&pool), want, "{ctx}");
                }
                // one scan per distinct source and round: the edit below
                // empties the pool
                assert_eq!(obs.get(obs_key::MAP_INPUT_SCANS), 3 * (round + 1), "seed {seed}");
                let row = Tuple::new(vec![
                    Value::str("£999,000"),
                    Value::str(format!("edited {round}")),
                    Value::str("EH8 9AB"),
                ]);
                kb.update_source("a", &[(0, row)]).unwrap();
            }
        }
    }

    #[test]
    fn district_of_shapes() {
        assert_eq!(district_of("M13 9PL"), Some("M13"));
        assert_eq!(district_of("EH8 9AB"), Some("EH8"));
        assert_eq!(district_of("hello world"), None);
        assert_eq!(district_of(""), None);
    }
}
