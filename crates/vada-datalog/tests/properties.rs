//! Property-based tests for the Datalog engine: the fixpoint must agree
//! with an independently computed reference closure, positive programs must
//! be monotone in their input, and evaluation must be deterministic.

use std::sync::Arc;

use proptest::prelude::*;

use vada_common::obs::key as obs_key;
use vada_common::{tuple, Obs, Tuple};
use vada_datalog::engine::FactSet;
use vada_datalog::{parse_program, Database, Engine, EngineConfig};

fn edges_db(edges: &[(u8, u8)]) -> Database {
    let mut db = Database::new();
    for &(a, b) in edges {
        db.insert("edge", tuple![a as i64, b as i64]);
    }
    db
}

const TC_PROGRAM: &str = "tc(X, Y) :- edge(X, Y). tc(X, Z) :- tc(X, Y), edge(Y, Z).";

/// Reference transitive closure via iterated composition over pair sets.
fn reference_tc(edges: &[(u8, u8)]) -> std::collections::BTreeSet<(u8, u8)> {
    let mut tc: std::collections::BTreeSet<(u8, u8)> = edges.iter().copied().collect();
    loop {
        let mut added = Vec::new();
        for &(a, b) in &tc {
            for &(c, d) in edges {
                if b == c && !tc.contains(&(a, d)) {
                    added.push((a, d));
                }
            }
        }
        if added.is_empty() {
            break;
        }
        tc.extend(added);
    }
    tc
}

/// A small fact domain with mixed arities and value types, so scripts
/// revisit the same facts often.
fn script_fact(v: u8) -> Tuple {
    match v % 3 {
        0 => tuple![(v / 3) as i64],
        1 => tuple![(v / 3) as i64, format!("s{}", v / 3)],
        _ => tuple![format!("s{}", v / 3), (v % 5) as f64 + 0.5, v.is_multiple_of(2)],
    }
}

/// Run `src` over `db` with telemetry on; returns the result, the counters
/// and the `delta_passes` attribute of every `datalog/stratum` span.
fn run_observed(src: &str, db: Database) -> (Database, Obs, Vec<String>) {
    let obs = Obs::enabled();
    let engine = Engine::new(EngineConfig { obs: obs.clone(), ..EngineConfig::default() });
    let out = engine.run(&parse_program(src).unwrap(), db).unwrap();
    let passes = obs
        .report()
        .spans
        .iter()
        .filter(|s| s.name == "datalog/stratum")
        .flat_map(|s| s.attrs.iter().filter(|(k, _)| k == "delta_passes").map(|(_, v)| v.clone()))
        .collect();
    (out, obs, passes)
}

#[test]
fn non_recursive_stratum_runs_exactly_one_delta_pass() {
    // no rule reads a predicate its stratum derives, so the delta stays
    // empty; the loop is still driven by every new fact, so a stratum that
    // derived anything runs one (empty) delta pass, as it did when the
    // delta held every predicate
    let mut db = Database::new();
    db.insert("p", tuple![1]);
    db.insert("p", tuple![2]);
    let (out, obs, passes) = run_observed("q(X) :- p(X). r(X) :- p(X), X > 1.", db);
    assert_eq!(passes, vec!["1".to_string()]);
    assert_eq!(obs.get(obs_key::DELTA_PASSES), 1);
    assert_eq!(obs.get(obs_key::STRATUM_PASSES), 1);
    assert_eq!(out.facts("q"), &[tuple![1], tuple![2]]);
    assert_eq!(out.facts("r"), &[tuple![2]]);

    // a stratum that derives nothing runs no delta pass
    let (_, obs, passes) = run_observed("q(X) :- p(X).", Database::new());
    assert_eq!(passes, vec!["0".to_string()]);
    assert_eq!(obs.get(obs_key::DELTA_PASSES), 0);
}

#[test]
fn recursive_stratum_delta_passes_and_order_are_unchanged() {
    // a chain of 5 edges: the initial pass already derives paths of
    // length 1 and 2 (the step rule sees the base rule's facts), then one
    // productive delta pass per length 3..=5 plus the final empty one
    let chain: Vec<(u8, u8)> = (0..5).map(|i| (i, i + 1)).collect();
    let (out, obs, passes) = run_observed(TC_PROGRAM, edges_db(&chain));
    assert_eq!(passes, vec!["4".to_string()]);
    assert_eq!(obs.get(obs_key::DELTA_PASSES), 4);
    let order: Vec<(i64, i64)> =
        out.facts("tc").iter().map(|t| (t[0].as_int().unwrap(), t[1].as_int().unwrap())).collect();
    let mut expected: Vec<(i64, i64)> = Vec::new();
    for len in 1..=5 {
        expected.extend((0..=5 - len).map(|a| (a, a + len)));
    }
    assert_eq!(order, expected);

    // a non-recursive head re-fired by the delta passes in the same
    // stratum keeps the loop going exactly as before: `out(0)` is new in
    // the last productive pass, so one more (empty) pass follows
    let src = format!("{TC_PROGRAM} out(X) :- tc(X, Y), Y >= 5.");
    let (out, _, passes) = run_observed(&src, edges_db(&chain));
    assert_eq!(passes, vec!["5".to_string()]);
    // shorter paths reach 5 first, so `out` fills from 4 down to 0
    assert_eq!(out.facts("out"), &[tuple![4], tuple![3], tuple![2], tuple![1], tuple![0]]);
}

proptest! {
    #[test]
    fn factset_matches_a_naive_vec_model(
        script in proptest::collection::vec((0u8..8, 0u8..30), 0..200)
    ) {
        // kinds 0-2 insert, 3-4 contains, 5-6 remove, 7 remove_all of a
        // three-fact set (which may name absent facts)
        let mut fs = FactSet::default();
        let mut model: Vec<Tuple> = Vec::new();
        for &(kind, v) in &script {
            let t = script_fact(v);
            match kind {
                0..=2 => {
                    let new = !model.contains(&t);
                    if new {
                        model.push(t.clone());
                    }
                    prop_assert_eq!(fs.insert(t), new);
                }
                3 | 4 => prop_assert_eq!(fs.contains(&t), model.contains(&t)),
                5 | 6 => {
                    let pos = model.iter().position(|x| *x == t);
                    if let Some(pos) = pos {
                        model.remove(pos);
                    }
                    prop_assert_eq!(fs.remove(&t), pos.is_some());
                }
                _ => {
                    let gone: std::collections::HashSet<Tuple> =
                        [v, v.wrapping_add(1) % 30, v.wrapping_add(7) % 30]
                            .into_iter()
                            .map(script_fact)
                            .collect();
                    let before = model.len();
                    model.retain(|x| !gone.contains(x));
                    prop_assert_eq!(fs.remove_all(&gone), before - model.len());
                }
            }
            prop_assert_eq!(fs.len(), model.len());
        }
        prop_assert_eq!(fs.tuples(), model.as_slice());
        prop_assert_eq!(fs.is_empty(), model.is_empty());
        for v in 0..30u8 {
            let t = script_fact(v);
            prop_assert_eq!(fs.contains(&t), model.contains(&t), "membership of {}", t);
        }
        // a clone is an independent, equal set
        let mut copy = fs.clone();
        prop_assert_eq!(copy.tuples(), fs.tuples());
        if let Some(first) = model.first() {
            prop_assert!(copy.remove(first));
            prop_assert!(fs.contains(first));
        }
    }

    #[test]
    fn extend_from_matches_one_by_one_inserts(
        first in proptest::collection::vec(0u8..30, 0..40),
        second in proptest::collection::vec(0u8..30, 0..40)
    ) {
        let mut fs = FactSet::default();
        let mut model: Vec<Tuple> = Vec::new();
        let mut other = FactSet::default();
        for &v in &first {
            fs.insert(script_fact(v));
            if !model.contains(&script_fact(v)) {
                model.push(script_fact(v));
            }
        }
        for &v in &second {
            other.insert(script_fact(v));
        }
        let mut db = Database::new();
        for t in fs.tuples() {
            db.insert("p", t.clone());
        }
        fs.extend_from(&other);
        for t in other.tuples() {
            if !model.contains(t) {
                model.push(t.clone());
            }
        }
        prop_assert_eq!(fs.tuples(), model.as_slice());
        for v in 0..30u8 {
            let t = script_fact(v);
            prop_assert_eq!(fs.contains(&t), model.contains(&t), "membership of {}", t);
        }
        // sharing into a database merges the same way, and leaves the
        // shared set as it was
        let other = Arc::new(other);
        let before = other.tuples().to_vec();
        db.share_fact_set("p", &other);
        prop_assert_eq!(db.facts("p"), model.as_slice());
        prop_assert_eq!(other.tuples(), before.as_slice());
        prop_assert_eq!(db.epoch("p"), 0);
    }

    #[test]
    fn shared_fact_sets_are_copy_on_write(
        base in proptest::collection::vec(0u8..30, 0..40),
        writes in proptest::collection::vec((0u8..5, 0u8..30), 1..30)
    ) {
        // one fact set held by a pool, shared into `a`; `b` is a clone of
        // `a`. Writes to `b` must leave the pool and `a` untouched.
        let mut pool = FactSet::default();
        for &v in &base {
            pool.insert(script_fact(v));
        }
        let pool = Arc::new(pool);
        let mut a = Database::new();
        a.share_fact_set("p", &pool);
        a.insert("q", tuple![1]);
        let snapshot = pool.tuples().to_vec();
        let mut b = a.clone();
        let mut model = snapshot.clone();
        for &(kind, v) in &writes {
            let t = script_fact(v);
            match kind {
                0 | 1 => {
                    if !model.contains(&t) {
                        model.push(t.clone());
                    }
                    b.insert("p", t);
                }
                2 => {
                    model.retain(|x| *x != t);
                    b.remove("p", &t);
                }
                3 => {
                    let gone: std::collections::HashSet<Tuple> =
                        [v, v.wrapping_add(3) % 30].into_iter().map(script_fact).collect();
                    model.retain(|x| !gone.contains(x));
                    b.remove_facts("p", &gone);
                }
                _ => {
                    model.clear();
                    b.clear_predicate("p");
                }
            }
            prop_assert_eq!(b.facts("p"), model.as_slice());
        }
        prop_assert_eq!(pool.tuples(), snapshot.as_slice());
        prop_assert_eq!(a.facts("p"), snapshot.as_slice());
        prop_assert_eq!(a.facts("q"), &[tuple![1]]);
        prop_assert_eq!(a.epoch("p"), 0);
        for &v in &base {
            prop_assert!(a.contains("p", &script_fact(v)));
        }
        // writing `a` afterwards still leaves the pool alone
        a.insert("p", tuple![99]);
        a.remove("p", &tuple![99]);
        prop_assert_eq!(pool.tuples(), snapshot.as_slice());
    }

    #[test]
    fn seminaive_matches_reference_closure(
        edges in proptest::collection::vec((0u8..12, 0u8..12), 0..40)
    ) {
        let program = parse_program(TC_PROGRAM).unwrap();
        let db = Engine::default().run(&program, edges_db(&edges)).unwrap();
        let got: std::collections::BTreeSet<(u8, u8)> = db
            .facts("tc")
            .iter()
            .map(|t| (t[0].as_int().unwrap() as u8, t[1].as_int().unwrap() as u8))
            .collect();
        prop_assert_eq!(got, reference_tc(&edges));
    }

    #[test]
    fn fixpoint_is_idempotent(
        edges in proptest::collection::vec((0u8..10, 0u8..10), 0..30)
    ) {
        // the engine's output is a fixpoint: feeding it back in as the
        // input database and re-running the same program adds no facts
        let program = parse_program(TC_PROGRAM).unwrap();
        let once = Engine::default().run(&program, edges_db(&edges)).unwrap();
        let twice = Engine::default().run(&program, once.clone()).unwrap();
        let preds: std::collections::BTreeSet<&str> =
            once.predicates().into_iter().chain(twice.predicates()).collect();
        for pred in preds {
            prop_assert_eq!(
                twice.facts(pred).len(),
                once.facts(pred).len(),
                "re-running to fixpoint changed the fact count for {}", pred
            );
            for t in twice.facts(pred) {
                prop_assert!(once.contains(pred, t), "re-run invented fact {}({})", pred, t);
            }
        }
    }

    #[test]
    fn positive_programs_are_monotone(
        edges in proptest::collection::vec((0u8..10, 0u8..10), 0..30),
        extra in proptest::collection::vec((0u8..10, 0u8..10), 0..10)
    ) {
        let program = parse_program(TC_PROGRAM).unwrap();
        let small = Engine::default().run(&program, edges_db(&edges)).unwrap();
        let mut all = edges.clone();
        all.extend(&extra);
        let large = Engine::default().run(&program, edges_db(&all)).unwrap();
        for t in small.facts("tc") {
            prop_assert!(large.contains("tc", t), "lost fact {t} after adding inputs");
        }
    }

    #[test]
    fn evaluation_is_deterministic(
        edges in proptest::collection::vec((0u8..10, 0u8..10), 0..30)
    ) {
        let src = format!(
            "{TC_PROGRAM}\n\
             deg(X, count(Y)) :- edge(X, Y).\n\
             invented(X, Z) :- deg(X, N), N >= 2."
        );
        let program = parse_program(&src).unwrap();
        let a = Engine::default().run(&program, edges_db(&edges)).unwrap();
        let b = Engine::default().run(&program, edges_db(&edges)).unwrap();
        for pred in a.predicates() {
            let fa: Vec<&Tuple> = a.facts(pred).iter().collect();
            let fb: Vec<&Tuple> = b.facts(pred).iter().collect();
            prop_assert_eq!(fa, fb, "nondeterministic facts for {}", pred);
        }
    }

    #[test]
    fn negation_complements_positive(
        edges in proptest::collection::vec((0u8..8, 0u8..8), 0..20)
    ) {
        // every (x, y) node pair is in exactly one of reach / noreach
        let src = "
            node(X) :- edge(X, _).
            node(Y) :- edge(_, Y).
            reach(X, Y) :- edge(X, Y).
            reach(X, Z) :- reach(X, Y), edge(Y, Z).
            noreach(X, Y) :- node(X), node(Y), not reach(X, Y).
        ";
        let program = parse_program(src).unwrap();
        let db = Engine::default().run(&program, edges_db(&edges)).unwrap();
        let nodes: Vec<i64> = db.facts("node").iter().map(|t| t[0].as_int().unwrap()).collect();
        for &x in &nodes {
            for &y in &nodes {
                let pair = tuple![x, y];
                let in_reach = db.contains("reach", &pair);
                let in_noreach = db.contains("noreach", &pair);
                prop_assert!(in_reach ^ in_noreach,
                    "pair ({x},{y}) reach={in_reach} noreach={in_noreach}");
            }
        }
    }

    #[test]
    fn counting_invariants_hold_under_retraction(
        rows in proptest::collection::vec((0u8..6, 0u8..12), 1..30),
        links in proptest::collection::vec((0u8..6, 0u8..12), 1..20),
        kills in proptest::collection::vec((0u8..2, 0u8..30), 1..8)
    ) {
        // a two-level non-recursive program maintained by counting: q has
        // one derivation per matching r row, wide multiplies q by w
        use vada_datalog::incremental::{DeltaMode, IncrementalSession};
        use vada_datalog::EngineConfig;
        let src = "q(X) :- r(X, _). wide(X, Z) :- q(X), w(X, Z).";
        let mut input = Database::new();
        for &(x, y) in &rows {
            input.insert("r", tuple![x as i64, y as i64]);
        }
        for &(x, z) in &links {
            input.insert("w", tuple![x as i64, z as i64]);
        }
        let mut session = IncrementalSession::new(EngineConfig::default(), src).unwrap();
        session.run_full(input.clone()).unwrap();

        // retract a random subset of existing facts (structural pick)
        let mut removals: Vec<(String, Tuple)> = Vec::new();
        for &(which, nth) in &kills {
            let pred = if which == 0 { "r" } else { "w" };
            let facts = input.facts(pred);
            if facts.is_empty() {
                continue;
            }
            removals.push((pred.to_string(), facts[nth as usize % facts.len()].clone()));
        }
        let mut shrunk = Database::new();
        for pred in input.predicates() {
            for t in input.facts(pred) {
                if !removals.iter().any(|(p, d)| p == pred && d == t) {
                    shrunk.insert(pred, t.clone());
                }
            }
        }
        session.retract(removals).unwrap();
        prop_assert_eq!(
            session.last_outcome().unwrap().mode,
            DeltaMode::Incremental,
            "counting never falls back on this program: {:?}",
            session.last_outcome()
        );

        // reference: the scratch fixpoint over the shrunk input, with
        // derivation counts re-enumerated per rule
        let program = parse_program(src).unwrap();
        let scratch = Engine::default().run(&program, shrunk.clone()).unwrap();
        for pred in ["q", "wide"] {
            let counts = session.derivation_counts(pred).unwrap();
            // zero iff the fact left the fixpoint (counts drop their zero
            // entries, so the key set IS the positive-count set)
            let alive: std::collections::BTreeSet<&Tuple> = counts.keys().collect();
            let expect: std::collections::BTreeSet<&Tuple> = scratch.facts(pred).iter().collect();
            prop_assert_eq!(alive, expect, "count support drifted for {}", pred);
            prop_assert_eq!(
                session.database().facts(pred),
                scratch.facts(pred),
                "facts or order drifted for {}", pred
            );
        }
    }

    #[test]
    fn dred_restores_exactly_the_still_derivable_facts(
        edges in proptest::collection::vec((0u8..8, 0u8..8), 1..24),
        kills in proptest::collection::vec(0u8..24, 1..5)
    ) {
        // recursive closure under deletion: DRed over-deletes everything
        // reachable from the removed edges, then re-derives what survives.
        // Whatever the path taken (pure removal commits; any restoration
        // falls back), the result must equal the scratch fixpoint — i.e.
        // phase 2 restored exactly the still-derivable over-deletions.
        use vada_datalog::incremental::{DeltaMode, IncrementalSession};
        use vada_datalog::EngineConfig;
        let mut input = edges_db(&edges);
        let mut session = IncrementalSession::new(EngineConfig::default(), TC_PROGRAM).unwrap();
        session.run_full(input.clone()).unwrap();

        let mut removals: Vec<(String, Tuple)> = Vec::new();
        for &nth in &kills {
            let facts = input.facts("edge");
            removals.push(("edge".to_string(), facts[nth as usize % facts.len()].clone()));
        }
        for (_, t) in &removals {
            input.remove("edge", t);
        }
        session.retract(removals).unwrap();

        let program = parse_program(TC_PROGRAM).unwrap();
        let scratch = Engine::default().run(&program, input.clone()).unwrap();
        prop_assert_eq!(
            session.database().facts("tc"),
            scratch.facts("tc"),
            "tc diverged from scratch after retraction ({:?})",
            session.last_outcome().map(|o| o.mode)
        );
        prop_assert_eq!(session.database().facts("edge"), scratch.facts("edge"));
        let out = session.last_outcome().unwrap();
        match out.mode {
            // pure removal: nothing re-derived, every removed tc fact is
            // genuinely underivable (it is absent from scratch)
            DeltaMode::Incremental => prop_assert_eq!(out.rederived_facts, 0, "{:?}", out),
            // a restoration happened: the fallback reason names DRed
            DeltaMode::FullFallback => prop_assert!(
                out.fallback_reason.as_deref().unwrap().contains("re-derived"),
                "{:?}", out
            ),
            DeltaMode::Bootstrap => prop_assert!(false, "unexpected bootstrap"),
        }
    }

    #[test]
    fn magic_restriction_equals_full_on_demanded_atoms(
        edges in proptest::collection::vec((0u8..10, 0u8..10), 1..40),
        start in 0u8..10
    ) {
        // the demand-restricted fixpoint, projected onto the demanded
        // atoms, must equal the undirected fixpoint projected onto the
        // same atoms — and since the directed run keeps exactly the
        // demanded atoms, its database IS that projection of the full run
        // (same facts, same insertion order)
        use vada_datalog::parser::parse_query;
        let program = parse_program(TC_PROGRAM).unwrap();
        let query = parse_query(&format!("tc({start}, Y)")).unwrap();
        let engine = Engine::default();
        let demand = engine.demand(&program, &edges_db(&edges), &query).unwrap();
        prop_assert!(!demand.is_unrestricted(), "{:?}", demand.fallback_reason());
        let full = engine.run(&program, edges_db(&edges)).unwrap();
        let directed = engine.run_directed(&program, edges_db(&edges), &query).unwrap();
        let kept: Vec<&Tuple> =
            full.facts("tc").iter().filter(|t| demand.keeps("tc", t)).collect();
        let got: Vec<&Tuple> = directed.facts("tc").iter().collect();
        prop_assert_eq!(got, kept, "directed run drifted from the demand projection");
        prop_assert_eq!(
            engine.eval_query(&query, &directed).unwrap(),
            engine.eval_query(&query, &full).unwrap()
        );
    }

    #[test]
    fn all_free_query_rewrites_to_identity(
        edges in proptest::collection::vec((0u8..8, 0u8..8), 1..30)
    ) {
        // a query with no bound arguments demands everything: the rewrite
        // reports the identity fallback and the directed run is
        // byte-identical to the undirected one, every predicate included
        use vada_datalog::parser::parse_query;
        let program = parse_program(TC_PROGRAM).unwrap();
        let query = parse_query("tc(X, Y)").unwrap();
        let engine = Engine::default();
        let demand = engine.demand(&program, &edges_db(&edges), &query).unwrap();
        prop_assert!(demand.is_unrestricted());
        prop_assert!(
            demand.fallback_reason().unwrap().contains("identity"),
            "{:?}", demand.fallback_reason()
        );
        let full = engine.run(&program, edges_db(&edges)).unwrap();
        let directed = engine.run_directed(&program, edges_db(&edges), &query).unwrap();
        let preds: std::collections::BTreeSet<&str> =
            full.predicates().into_iter().chain(directed.predicates()).collect();
        for pred in preds {
            prop_assert_eq!(directed.facts(pred), full.facts(pred), "drift in {}", pred);
        }
    }

    #[test]
    fn aggregate_counts_match_manual_grouping(
        pairs in proptest::collection::vec((0u8..6, 0i64..100), 1..40)
    ) {
        let mut db = Database::new();
        for &(g, v) in &pairs {
            db.insert("item", tuple![g as i64, v]);
        }
        let program = parse_program("cnt(G, count(V)) :- item(G, V).").unwrap();
        let out = Engine::default().run(&program, db.clone()).unwrap();
        // manual set-semantics grouping
        let mut groups: std::collections::BTreeMap<i64, std::collections::BTreeSet<i64>> =
            Default::default();
        for t in db.facts("item") {
            groups.entry(t[0].as_int().unwrap()).or_default().insert(t[1].as_int().unwrap());
        }
        prop_assert_eq!(out.facts("cnt").len(), groups.len());
        for t in out.facts("cnt") {
            let g = t[0].as_int().unwrap();
            prop_assert_eq!(t[1].as_int().unwrap() as usize, groups[&g].len());
        }
    }
}
