//! The function registry: scalar/table-valued UDFs and user-defined aggregates.

use std::collections::BTreeMap;
use std::sync::Arc;

use decorr_algebra::RelExpr;
use decorr_common::{normalize_ident, DataType, Error, Result};

use crate::analysis::analyze_body;
use crate::ast::{AggregateDefinition, UdfDefinition};

/// Holds every registered user-defined function and aggregate.
///
/// The registry is shared by the interpreter (which executes UDF bodies iteratively),
/// the rewriter (which merges each UDF's algebraic form into calling queries), and
/// schema inference (which needs return types). A UDF's entry holds its definition and
/// the [`UdfRecord`] registration derives from the body, so no query re-derives it.
///
/// Every registration bumps a monotonic [`generation`](FunctionRegistry::generation)
/// counter. The optimizer's plan cache folds the generation into its cache key, so a
/// `CREATE OR REPLACE` of a UDF makes every plan optimized against the old definition
/// unreachable — the cache can never serve a plan built from a stale UDF body. Storing
/// a record does not bump it: a record changes with its definition, or with table DDL,
/// which moves the catalog's DDL generation every cache also keys on.
#[derive(Debug, Default, Clone)]
pub struct FunctionRegistry {
    /// Shared, so copying the registry copies a pointer per UDF, not bodies and forms.
    udfs: BTreeMap<String, (Arc<UdfDefinition>, Arc<UdfRecord>)>,
    aggregates: BTreeMap<String, AggregateDefinition>,
    generation: u64,
}

/// What registration derives from one UDF body.
#[derive(Debug, Clone, PartialEq)]
pub struct UdfRecord {
    /// The algebraic form (Sections IV and VII): a plan whose free parameters are the
    /// UDF's formals and whose output is `retval` (or the result table's columns); or
    /// why the body falls outside the decorrelatable class.
    pub form: Result<RelExpr>,
    /// The auxiliary aggregates `form` calls, registered in this registry, in loop order.
    pub aux_aggregates: Vec<String>,
    /// Every table the body can read, transitively through its callees. `None` is an
    /// open set: some reachable callee is not registered, so its reads are unknown.
    pub reads: Option<Vec<String>>,
}

impl FunctionRegistry {
    pub fn new() -> FunctionRegistry {
        FunctionRegistry::default()
    }

    /// Registers a UDF, replacing any previous definition with the same name
    /// (`CREATE OR REPLACE` semantics) together with its record and auxiliary
    /// aggregates. Bumps the registry generation so cached plans derived from a previous
    /// definition become unreachable. The new record declines until
    /// [`set_form`](FunctionRegistry::set_form) stores a form. Every record's read set is
    /// derived again, since a callee's reads are its callers' too.
    pub fn register_udf(&mut self, udf: UdfDefinition) {
        self.generation += 1;
        let record = UdfRecord {
            form: Err(Error::Rewrite("no algebraic form derived yet".into())),
            aux_aggregates: vec![],
            reads: None,
        };
        let name = udf.name.clone();
        if let Some((_, replaced)) = self.udfs.insert(name, (Arc::new(udf), Arc::new(record))) {
            for aux in &replaced.aux_aggregates {
                self.aggregates.remove(aux);
            }
        }
        let reads: Vec<_> = self.udfs().map(|u| analyze_body(u, self).reads).collect();
        for ((_, record), reads) in self.udfs.values_mut().zip(reads) {
            if record.reads != reads {
                Arc::make_mut(record).reads = reads;
            }
        }
    }

    /// Registers a user-defined aggregate.
    pub fn register_aggregate(&mut self, agg: AggregateDefinition) {
        self.generation += 1;
        self.aggregates.insert(agg.name.clone(), agg);
    }

    /// Stores a registered UDF's algebraic form and registers the auxiliary aggregates it
    /// calls in place of the previous form's — or stores the reason it has none. A form
    /// whose aggregate name another function holds is stored as a decline instead.
    pub fn set_form(&mut self, name: &str, form: Result<(RelExpr, Vec<AggregateDefinition>)>) {
        let key = normalize_ident(name);
        let Some((udf, old)) = self.udfs.get(&key).cloned() else {
            return;
        };
        for aux in &old.aux_aggregates {
            self.aggregates.remove(aux);
        }
        let taken = |a: &&AggregateDefinition| self.has_udf(&a.name) || self.has_aggregate(&a.name);
        let form = form.and_then(|(plan, aux)| match aux.iter().find(taken) {
            Some(a) => Err(Error::Rewrite(format!(
                "the auxiliary aggregate name '{}' is taken by another function",
                a.name
            ))),
            None => Ok((plan, aux)),
        });
        let (form, aux_aggregates) = match form {
            Ok((plan, aux)) => (Ok(plan), aux),
            Err(reason) => (Err(reason), vec![]),
        };
        let record = UdfRecord {
            form,
            aux_aggregates: aux_aggregates.iter().map(|a| a.name.clone()).collect(),
            reads: old.reads.clone(),
        };
        self.aggregates
            .extend(aux_aggregates.into_iter().map(|a| (a.name.clone(), a)));
        self.udfs.insert(key, (udf, Arc::new(record)));
    }

    /// Monotonic mutation counter: incremented by every [`register_udf`] and
    /// [`register_aggregate`] call. Plan caches key on this value so redefinitions
    /// invalidate stale entries.
    ///
    /// [`register_udf`]: FunctionRegistry::register_udf
    /// [`register_aggregate`]: FunctionRegistry::register_aggregate
    pub fn generation(&self) -> u64 {
        self.generation
    }

    pub fn udf(&self, name: &str) -> Result<&UdfDefinition> {
        self.udfs
            .get(&normalize_ident(name))
            .map(|(udf, _)| udf.as_ref())
            .ok_or_else(|| Error::Catalog(format!("unknown function '{name}'")))
    }

    /// What registration derived from a registered UDF's body.
    pub fn record(&self, name: &str) -> Option<&UdfRecord> {
        self.udfs
            .get(&normalize_ident(name))
            .map(|(_, record)| record.as_ref())
    }

    pub fn aggregate(&self, name: &str) -> Result<&AggregateDefinition> {
        self.aggregates
            .get(&normalize_ident(name))
            .ok_or_else(|| Error::Catalog(format!("unknown aggregate '{name}'")))
    }

    pub fn has_udf(&self, name: &str) -> bool {
        self.udfs.contains_key(&normalize_ident(name))
    }

    pub fn has_aggregate(&self, name: &str) -> bool {
        self.aggregates.contains_key(&normalize_ident(name))
    }

    /// Return type of a scalar UDF or aggregate (for schema inference).
    pub fn return_type(&self, name: &str) -> Option<DataType> {
        let key = normalize_ident(name);
        self.udfs
            .get(&key)
            .map(|(udf, _)| udf.return_type)
            .or_else(|| self.aggregates.get(&key).map(|a| a.return_type))
    }

    /// Every registered UDF, in name order.
    pub fn udfs(&self) -> impl Iterator<Item = &UdfDefinition> {
        self.udfs.values().map(|(udf, _)| udf.as_ref())
    }

    /// Every registered UDF's record, by name, in name order.
    pub fn records(&self) -> impl Iterator<Item = (&String, &UdfRecord)> {
        self.udfs
            .iter()
            .map(|(name, (_, record))| (name, record.as_ref()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Statement, UdfParameter};
    use decorr_algebra::ScalarExpr as E;
    use decorr_common::Value;

    fn sample_udf(name: &str) -> UdfDefinition {
        UdfDefinition::new(
            name,
            vec![UdfParameter::new("x", DataType::Int)],
            DataType::Int,
            vec![Statement::Return {
                expr: Some(E::param("x")),
            }],
        )
    }

    fn sample_agg(name: &str) -> AggregateDefinition {
        AggregateDefinition {
            name: name.into(),
            state: vec![("s".into(), DataType::Int, Value::Int(0))],
            params: vec![UdfParameter::new("v", DataType::Int)],
            accumulate: vec![],
            terminate: E::param("s"),
            return_type: DataType::Int,
        }
    }

    #[test]
    fn register_and_lookup() {
        let mut reg = FunctionRegistry::new();
        reg.register_udf(sample_udf("Identity"));
        reg.register_aggregate(sample_agg("myagg"));
        assert!(reg.has_udf("identity"));
        assert!(reg.has_aggregate("MYAGG"));
        assert_eq!(reg.return_type("identity"), Some(DataType::Int));
        assert_eq!(reg.return_type("myagg"), Some(DataType::Int));
        assert_eq!(reg.return_type("nosuch"), None);
        assert_eq!(reg.udf("nosuch").unwrap_err().kind(), "catalog");
        assert_eq!(
            reg.udfs().map(|u| u.name.as_str()).collect::<Vec<_>>(),
            ["identity"]
        );
        // A UDF has a record from registration on: its read set, and a decline until a
        // form is stored.
        let pending = reg.record("identity").unwrap();
        assert!(pending.form.is_err());
        assert_eq!(pending.reads, Some(vec![]));
        reg.set_form("Identity", Ok((RelExpr::Single, vec![])));
        let record = reg.record("IDENTITY").unwrap();
        assert_eq!(record.form, Ok(RelExpr::Single));
        assert_eq!(record.reads, Some(vec![]));
        assert_eq!(reg.records().count(), 1);
        assert_eq!(reg.record("nosuch"), None);
    }

    #[test]
    fn a_replaced_body_takes_its_aggregates_with_it() {
        let mut reg = FunctionRegistry::new();
        reg.register_udf(sample_udf("f"));
        reg.set_form("f", Ok((RelExpr::Single, vec![sample_agg("aux_agg_f")])));
        assert_eq!(reg.record("f").unwrap().aux_aggregates, ["aux_agg_f"]);
        assert!(reg.has_aggregate("aux_agg_f"));
        let generation = reg.generation();
        reg.register_udf(sample_udf("f"));
        assert!(!reg.has_aggregate("aux_agg_f"));
        assert!(reg.record("f").unwrap().aux_aggregates.is_empty());
        assert_eq!(reg.generation(), generation + 1);
    }

    #[test]
    fn a_form_whose_aggregate_name_is_taken_declines() {
        let mut reg = FunctionRegistry::new();
        reg.register_udf(sample_udf("aux_agg_g"));
        reg.register_udf(sample_udf("g"));
        reg.set_form("g", Ok((RelExpr::Single, vec![sample_agg("aux_agg_g")])));
        let reason = reg.record("g").unwrap().form.clone().unwrap_err();
        assert_eq!(
            reason.to_string(),
            "rewrite error: the auxiliary aggregate name 'aux_agg_g' is taken by another function"
        );
        assert!(!reg.has_aggregate("aux_agg_g"));
        // A user aggregate holds a name just the same; re-deriving a form keeps its own.
        reg.register_aggregate(sample_agg("aux_agg_h"));
        reg.register_udf(sample_udf("h"));
        reg.set_form("h", Ok((RelExpr::Single, vec![sample_agg("aux_agg_h")])));
        assert!(reg.record("h").unwrap().form.is_err());
        reg.register_udf(sample_udf("k"));
        for _ in 0..2 {
            reg.set_form("k", Ok((RelExpr::Single, vec![sample_agg("aux_agg_k")])));
            assert!(reg.record("k").unwrap().form.is_ok());
        }
    }

    #[test]
    fn registering_a_callee_updates_its_callers_read_sets() {
        let mut reg = FunctionRegistry::new();
        let calls_g = |name: &str| {
            let mut udf = sample_udf(name);
            udf.body = vec![Statement::Return {
                expr: Some(E::udf("g", vec![E::param("x")])),
            }];
            udf
        };
        reg.register_udf(calls_g("f"));
        assert_eq!(reg.record("f").unwrap().reads, None, "g is unknown");
        let mut g = sample_udf("g");
        g.body.insert(
            0,
            Statement::SelectInto {
                query: RelExpr::scan("T"),
                targets: vec!["x".into()],
            },
        );
        reg.register_udf(g);
        let reads = Some(vec!["t".to_string()]);
        assert_eq!(reg.record("f").unwrap().reads, reads);
        // A record whose read set does not move is shared with the previous registry.
        let before = reg.clone();
        reg.register_udf(calls_g("h"));
        assert!(Arc::ptr_eq(&before.udfs["f"].1, &reg.udfs["f"].1));
        assert_eq!(reg.record("h").unwrap().reads, reads);
    }

    #[test]
    fn re_registration_replaces() {
        let mut reg = FunctionRegistry::new();
        reg.register_udf(sample_udf("f"));
        let mut replacement = sample_udf("f");
        replacement.return_type = DataType::Str;
        reg.register_udf(replacement);
        assert_eq!(reg.return_type("f"), Some(DataType::Str));
    }

    #[test]
    fn every_mutation_bumps_the_generation() {
        let mut reg = FunctionRegistry::new();
        assert_eq!(reg.generation(), 0);
        reg.register_udf(sample_udf("f"));
        assert_eq!(reg.generation(), 1);
        // Replacing an existing definition still counts: the body changed.
        reg.register_udf(sample_udf("f"));
        assert_eq!(reg.generation(), 2);
        reg.register_aggregate(sample_agg("a"));
        assert_eq!(reg.generation(), 3);
        // Derived records are not definitions.
        reg.set_form("f", Ok((RelExpr::Single, vec![])));
        assert_eq!(reg.generation(), 3);
        // Clones carry the generation so cached plans stay valid across clones.
        assert_eq!(reg.clone().generation(), 3);
    }
}
