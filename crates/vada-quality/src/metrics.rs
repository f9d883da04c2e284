//! Quality metrics: the evidence the user context trades off
//! (paper §2.2: completeness can be estimated from non-null fractions,
//! consistency needs CFDs learned from the data context, accuracy needs a
//! reference population).

use std::collections::HashSet;
use std::fmt::Write;

use vada_common::text::normalize_append;
use vada_common::{Relation, Result, Value};
use vada_kb::CfdRule;

use crate::violations::{detect_violations, violating_row_count};

/// Consistency of a relation w.r.t. a CFD set: `1 − violating rows / rows`.
/// An empty relation is vacuously consistent.
pub fn consistency(rel: &Relation, cfds: &[CfdRule]) -> f64 {
    if rel.is_empty() {
        return 1.0;
    }
    let violations = detect_violations(rel, cfds);
    1.0 - violating_row_count(&violations) as f64 / rel.len() as f64
}

/// Syntactic accuracy of `attr` against a reference population: the
/// fraction of non-null values that appear in the reference column
/// (compared on normal forms). Returns 1.0 when the column has no values.
/// Builds the population on every call; to score several relations against
/// one column, build a [`ReferencePopulation`] once instead.
pub fn accuracy_against_reference(
    rel: &Relation,
    attr: &str,
    reference: &Relation,
    ref_attr: &str,
) -> Result<f64> {
    rel.schema().require(attr)?;
    ReferencePopulation::new(reference, ref_attr)?.accuracy(rel, attr)
}

/// Reused buffers for the normal form of a cell's rendering, so scoring a
/// column allocates nothing per cell.
#[derive(Default)]
struct NormalForm {
    rendered: String,
    normal: String,
}

impl NormalForm {
    /// The normal form of `v` as `Display` renders it: a string cell is
    /// read in place, any other value is rendered into a reused buffer.
    fn of(&mut self, v: &Value) -> &str {
        let text = match v {
            Value::Str(s) => &**s,
            other => {
                self.rendered.clear();
                write!(self.rendered, "{other}").expect("writing to a String cannot fail");
                &self.rendered
            }
        };
        self.normal.clear();
        normalize_append(text, &mut self.normal);
        &self.normal
    }
}

/// The normal forms of the non-null values in column `col` of `rel`.
fn normal_forms(rel: &Relation, col: usize) -> HashSet<String> {
    let mut buf = NormalForm::default();
    let mut set = HashSet::new();
    for t in rel.iter().filter(|t| !t[col].is_null()) {
        let normal = buf.of(&t[col]);
        if !set.contains(normal) {
            set.insert(normal.to_string());
        }
    }
    set
}

/// The normal forms of a reference column's non-null values: the
/// population [`accuracy_against_reference`] compares against.
#[derive(Debug, Clone)]
pub struct ReferencePopulation(HashSet<String>);

impl ReferencePopulation {
    /// Normalize the non-null values of `reference.ref_attr`.
    pub fn new(reference: &Relation, ref_attr: &str) -> Result<ReferencePopulation> {
        let ref_col = reference.schema().require(ref_attr)?;
        Ok(ReferencePopulation(normal_forms(reference, ref_col)))
    }

    /// Syntactic accuracy of `rel.attr` against this population; see
    /// [`accuracy_against_reference`].
    pub fn accuracy(&self, rel: &Relation, attr: &str) -> Result<f64> {
        let col = rel.schema().require(attr)?;
        let mut buf = NormalForm::default();
        let mut total = 0usize;
        let mut hits = 0usize;
        for t in rel.iter() {
            if t[col].is_null() {
                continue;
            }
            total += 1;
            if self.0.contains(buf.of(&t[col])) {
                hits += 1;
            }
        }
        Ok(if total == 0 { 1.0 } else { hits as f64 / total as f64 })
    }
}

/// Coverage of master data: the fraction of distinct master keys present
/// in the relation (the completeness notion master data licenses).
pub fn master_coverage(
    rel: &Relation,
    attr: &str,
    master: &Relation,
    master_attr: &str,
) -> Result<f64> {
    let col = rel.schema().require(attr)?;
    let m_col = master.schema().require(master_attr)?;
    let keys = normal_forms(master, m_col);
    if keys.is_empty() {
        return Ok(1.0);
    }
    // the distinct master keys the relation's values hit
    let mut buf = NormalForm::default();
    let mut present: HashSet<&str> = HashSet::new();
    for t in rel.iter().filter(|t| !t[col].is_null()) {
        if let Some(key) = keys.get(buf.of(&t[col])) {
            present.insert(key);
        }
    }
    Ok(present.len() as f64 / keys.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vada_common::{tuple, Schema};
    use vada_kb::CfdRule;

    fn fd(lhs: &str, rhs: &str) -> CfdRule {
        CfdRule {
            id: "c".into(),
            relation: "r".into(),
            lhs: vec![(lhs.into(), None)],
            rhs: (rhs.into(), None),
            support: 5,
        }
    }

    #[test]
    fn consistency_counts_violating_rows() {
        let rel = Relation::from_tuples(
            Schema::all_str("r", &["pc", "city"]),
            vec![
                tuple!["M1", "manchester"],
                tuple!["M1", "manchester"],
                tuple!["M1", "leeds"],
                tuple!["EH1", "edinburgh"],
            ],
        )
        .unwrap();
        let c = consistency(&rel, &[fd("pc", "city")]);
        assert!((c - 0.75).abs() < 1e-12, "{c}");
        let empty = Relation::empty(Schema::all_str("r", &["pc", "city"]));
        assert_eq!(consistency(&empty, &[fd("pc", "city")]), 1.0);
    }

    #[test]
    fn normal_form_matches_normalizing_the_rendering() {
        let mut buf = NormalForm::default();
        for v in [
            Value::str("  12,  High-St. "),
            Value::Int(-42),
            Value::Float(2.5),
            Value::Float(1e21),
            Value::Bool(true),
            Value::Null,
        ] {
            let want = vada_common::text::normalize(&v.to_string());
            assert_eq!(buf.of(&v), want, "{v:?}");
        }
    }

    #[test]
    fn accuracy_checks_population_membership() {
        let rel = Relation::from_tuples(
            Schema::all_str("r", &["pc"]),
            vec![tuple!["M1 1AA"], tuple!["BOGUS"], tuple!["EH1 1AA"]],
        )
        .unwrap();
        let reference = Relation::from_tuples(
            Schema::all_str("ref", &["postcode"]),
            vec![tuple!["M1 1AA"], tuple!["EH1 1AA"]],
        )
        .unwrap();
        let a = accuracy_against_reference(&rel, "pc", &reference, "postcode").unwrap();
        assert!((a - 2.0 / 3.0).abs() < 1e-12);
        assert!(accuracy_against_reference(&rel, "nope", &reference, "postcode").is_err());

        // a population built once scores like the one-shot wrapper, bit for bit
        let population = ReferencePopulation::new(&reference, "postcode").unwrap();
        assert_eq!(population.accuracy(&rel, "pc").unwrap().to_bits(), a.to_bits());
        assert!(population.accuracy(&rel, "nope").is_err());
        assert!(ReferencePopulation::new(&reference, "nope").is_err());
    }

    #[test]
    fn master_coverage_measures_recall_of_keys() {
        let rel = Relation::from_tuples(
            Schema::all_str("r", &["street"]),
            vec![tuple!["1 high st"], tuple!["1 high st"]],
        )
        .unwrap();
        let master = Relation::from_tuples(
            Schema::all_str("m", &["street"]),
            vec![tuple!["1 high st"], tuple!["2 park rd"]],
        )
        .unwrap();
        let c = master_coverage(&rel, "street", &master, "street").unwrap();
        assert!((c - 0.5).abs() < 1e-12);
    }
}
