//! The function registry: scalar/table-valued UDFs and user-defined aggregates.

use std::collections::BTreeMap;

use decorr_common::{normalize_ident, DataType, Error, Result};

use crate::ast::{AggregateDefinition, UdfDefinition};

/// Holds every registered user-defined function and aggregate.
///
/// The registry is shared by the interpreter (which executes UDF bodies iteratively),
/// the rewriter (which algebraizes them and registers synthesised auxiliary aggregates),
/// and schema inference (which needs return types).
///
/// Every mutation bumps a monotonic [`generation`](FunctionRegistry::generation)
/// counter. The optimizer's plan cache folds the generation into its cache key, so a
/// `CREATE OR REPLACE` of a UDF makes every plan optimized against the old definition
/// unreachable — the cache can never serve a plan built from a stale UDF body.
#[derive(Debug, Default, Clone)]
pub struct FunctionRegistry {
    udfs: BTreeMap<String, UdfDefinition>,
    aggregates: BTreeMap<String, AggregateDefinition>,
    generation: u64,
}

impl FunctionRegistry {
    pub fn new() -> FunctionRegistry {
        FunctionRegistry::default()
    }

    /// Registers a UDF, replacing any previous definition with the same name
    /// (`CREATE OR REPLACE` semantics). Bumps the registry generation so cached plans
    /// derived from a previous definition become unreachable.
    pub fn register_udf(&mut self, udf: UdfDefinition) {
        self.generation += 1;
        self.udfs.insert(udf.name.clone(), udf);
    }

    /// Registers a user-defined aggregate (including synthesised auxiliary aggregates).
    pub fn register_aggregate(&mut self, agg: AggregateDefinition) {
        self.generation += 1;
        self.aggregates.insert(agg.name.clone(), agg);
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
            .ok_or_else(|| Error::Catalog(format!("unknown function '{name}'")))
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
            .map(|u| u.return_type)
            .or_else(|| self.aggregates.get(&key).map(|a| a.return_type))
    }

    /// Every registered UDF, in name order.
    pub fn udfs(&self) -> impl Iterator<Item = &UdfDefinition> {
        self.udfs.values()
    }

    /// Generates a name for an auxiliary aggregate derived from `udf_name` that does not
    /// collide with anything already registered.
    pub fn fresh_aggregate_name(&self, udf_name: &str) -> String {
        let base = format!("aux_agg_{}", normalize_ident(udf_name));
        if !self.has_aggregate(&base) && !self.has_udf(&base) {
            return base;
        }
        let mut i = 2;
        loop {
            let candidate = format!("{base}_{i}");
            if !self.has_aggregate(&candidate) && !self.has_udf(&candidate) {
                return candidate;
            }
            i += 1;
        }
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
    }

    #[test]
    fn fresh_aggregate_names_avoid_collisions() {
        let mut reg = FunctionRegistry::new();
        assert_eq!(reg.fresh_aggregate_name("totalloss"), "aux_agg_totalloss");
        reg.register_aggregate(sample_agg("aux_agg_totalloss"));
        assert_eq!(reg.fresh_aggregate_name("totalloss"), "aux_agg_totalloss_2");
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
        // Clones carry the generation so cached plans stay valid across clones.
        assert_eq!(reg.clone().generation(), 3);
    }
}
