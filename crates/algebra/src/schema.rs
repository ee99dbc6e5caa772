//! Schema inference for logical plans.
//!
//! Types are best-effort: a reference that cannot be resolved (e.g. a correlation
//! variable referring to the outer query, or a parameter bound by an enclosing
//! Apply-bind) infers as [`DataType::Null`] rather than failing, because the
//! transformation rules only need attribute *names* while the executor re-infers types
//! once correlations are in scope.

use std::collections::HashMap;
use std::rc::Rc;

use decorr_common::{normalize_ident, Column, DataType, Error, FnvBuildHasher, Result, Schema};

use crate::expr::{AggCall, AggFunc, BinaryOp, ScalarExpr, UnaryOp};
use crate::plan::{ApplyKind, JoinKind, ProjectItem, RelExpr};

/// Source of base-table schemas (implemented by the storage catalog; a map-backed
/// implementation is provided for tests).
pub trait SchemaProvider {
    /// Returns the schema of a base table, or a catalog error if it does not exist.
    fn table_schema(&self, table: &str) -> Result<Schema>;

    /// Declared return type of a scalar UDF, if known. Used to type projection items
    /// that still contain UDF invocations.
    fn udf_return_type(&self, _name: &str) -> Option<DataType> {
        None
    }

    /// The value a user-defined aggregate produces over an *empty* input (its initialised
    /// state passed through `terminate`). The scalar-aggregate decorrelation rule uses it
    /// to coalesce NULLs introduced by the outer join so that set-oriented execution
    /// matches iterative execution on empty groups.
    fn aggregate_empty_value(&self, _name: &str) -> Option<decorr_common::Value> {
        None
    }
}

/// A [`SchemaProvider`] with no tables — useful for plans built purely from `Single`,
/// `Values` and projections.
#[derive(Debug, Default, Clone)]
pub struct EmptyProvider;

impl SchemaProvider for EmptyProvider {
    fn table_schema(&self, table: &str) -> Result<Schema> {
        Err(Error::Catalog(format!("unknown table '{table}'")))
    }
}

/// A simple map-backed [`SchemaProvider`] for tests and examples.
#[derive(Debug, Default, Clone)]
pub struct MapProvider {
    tables: HashMap<String, Schema>,
    udf_types: HashMap<String, DataType>,
}

impl MapProvider {
    /// An empty provider.
    pub fn new() -> MapProvider {
        MapProvider::default()
    }

    /// Registers a table schema (builder style).
    pub fn with_table(mut self, name: &str, schema: Schema) -> MapProvider {
        self.tables.insert(normalize_ident(name), schema);
        self
    }

    /// Registers a scalar UDF return type (builder style).
    pub fn with_udf(mut self, name: &str, return_type: DataType) -> MapProvider {
        self.udf_types.insert(normalize_ident(name), return_type);
        self
    }
}

impl SchemaProvider for MapProvider {
    fn table_schema(&self, table: &str) -> Result<Schema> {
        self.tables
            .get(&normalize_ident(table))
            .cloned()
            .ok_or_else(|| Error::Catalog(format!("unknown table '{table}'")))
    }

    fn udf_return_type(&self, name: &str) -> Option<DataType> {
        self.udf_types.get(&normalize_ident(name)).copied()
    }
}

fn group_by_name(expr: &ScalarExpr, position: usize) -> (Option<String>, String) {
    match expr {
        ScalarExpr::Column(c) => (c.qualifier.clone(), c.name.clone()),
        _ => (None, format!("group{position}")),
    }
}

/// The output schema of a projection of `items` over `input`. The executor builds its
/// result schemas with this same function, so the schema a plan is validated against is
/// the schema its execution produces.
pub fn project_schema(
    items: &[ProjectItem],
    input: &Schema,
    provider: &dyn SchemaProvider,
) -> Schema {
    SchemaMemo::new().project_schema(items, input, provider)
}

/// The output schema of an aggregation over `input`: the group-by columns, then one
/// column per aggregate call (see [`project_schema`]).
pub fn aggregate_schema(
    group_by: &[ScalarExpr],
    aggregates: &[AggCall],
    input: &Schema,
    provider: &dyn SchemaProvider,
) -> Schema {
    SchemaMemo::new().aggregate_schema(group_by, aggregates, input, provider)
}

/// Infers the output schema of a logical plan.
pub fn infer_schema(plan: &RelExpr, provider: &dyn SchemaProvider) -> Result<Schema> {
    SchemaMemo::new()
        .infer(plan, provider)
        .map(|schema| (*schema).clone())
}

/// A per-plan-tree memo for repeated schema inference.
///
/// Schema inference recurses over the whole subtree, so callers that infer schemas at
/// every level of a plan walk (like the static plan validator) pay quadratic work
/// without one. The memo keys on node addresses and hands out [`Rc`]-shared schemas so
/// repeated lookups cost a refcount bump, not a column-vector clone: use one instance
/// per plan tree and drop it before the tree is mutated or freed.
#[derive(Default)]
pub struct SchemaMemo {
    cache: HashMap<*const RelExpr, Result<Rc<Schema>>, FnvBuildHasher>,
}

impl SchemaMemo {
    /// An empty memo.
    pub fn new() -> SchemaMemo {
        SchemaMemo::default()
    }

    /// Infers the type of a scalar expression against an input schema. Unresolvable
    /// references infer as [`DataType::Null`]. Subquery schemas resolve through the
    /// memo, so typing many expressions over the same tree does not re-walk shared
    /// subqueries.
    pub fn expr_type(
        &mut self,
        expr: &ScalarExpr,
        input: &Schema,
        provider: &dyn SchemaProvider,
    ) -> DataType {
        match expr {
            ScalarExpr::Literal(v) => v.data_type(),
            ScalarExpr::Column(c) => input
                .find(c.qualifier.as_deref(), &c.name)
                .map(|i| input.column(i).data_type)
                .unwrap_or(DataType::Null),
            ScalarExpr::Param(_) => DataType::Null,
            ScalarExpr::Binary { op, left, right } => {
                if op.is_comparison() || op.is_logical() {
                    DataType::Bool
                } else if matches!(op, BinaryOp::Concat) {
                    DataType::Str
                } else {
                    let lt = self.expr_type(left, input, provider);
                    let rt = self.expr_type(right, input, provider);
                    lt.unify(rt).unwrap_or(DataType::Float)
                }
            }
            ScalarExpr::Unary { op, expr } => match op {
                UnaryOp::Not | UnaryOp::IsNull | UnaryOp::IsNotNull => DataType::Bool,
                UnaryOp::Neg => self.expr_type(expr, input, provider),
            },
            ScalarExpr::Case {
                branches,
                else_expr,
            } => {
                let mut ty = DataType::Null;
                for (_, e) in branches {
                    ty = ty
                        .unify(self.expr_type(e, input, provider))
                        .unwrap_or(DataType::Str);
                }
                if let Some(e) = else_expr {
                    ty = ty.unify(self.expr_type(e, input, provider)).unwrap_or(ty);
                }
                ty
            }
            ScalarExpr::Cast { data_type, .. } => *data_type,
            ScalarExpr::Coalesce(args) => {
                let mut ty = DataType::Null;
                for a in args {
                    ty = ty.unify(self.expr_type(a, input, provider)).unwrap_or(ty);
                }
                ty
            }
            ScalarExpr::ScalarSubquery(q) => self
                .infer(q, provider)
                .ok()
                .and_then(|s| s.columns.first().map(|c| c.data_type))
                .unwrap_or(DataType::Null),
            ScalarExpr::Exists(_) | ScalarExpr::InSubquery { .. } => DataType::Bool,
            ScalarExpr::UdfCall { name, .. } => {
                provider.udf_return_type(name).unwrap_or(DataType::Null)
            }
        }
    }

    fn agg_output_type(
        &mut self,
        func: &AggFunc,
        args: &[ScalarExpr],
        input: &Schema,
        provider: &dyn SchemaProvider,
    ) -> DataType {
        match func {
            AggFunc::Count | AggFunc::CountStar => DataType::Int,
            AggFunc::Avg => DataType::Float,
            AggFunc::Sum | AggFunc::Min | AggFunc::Max => args
                .first()
                .map(|a| self.expr_type(a, input, provider))
                .unwrap_or(DataType::Null),
            AggFunc::UserDefined(name) => provider.udf_return_type(name).unwrap_or(DataType::Null),
        }
    }

    /// Memoized [`project_schema`].
    pub fn project_schema(
        &mut self,
        items: &[ProjectItem],
        input: &Schema,
        provider: &dyn SchemaProvider,
    ) -> Schema {
        let columns = items
            .iter()
            .enumerate()
            .map(|(i, item)| {
                let name = item.output_name(i);
                let data_type = self.expr_type(&item.expr, input, provider);
                // Plain unaliased column references keep their qualifier so later joins can
                // still disambiguate them.
                let qualifier = match (&item.alias, &item.expr) {
                    (None, ScalarExpr::Column(c)) => c.qualifier.clone().or_else(|| {
                        input
                            .find(None, &c.name)
                            .and_then(|i| input.column(i).qualifier.clone())
                    }),
                    _ => None,
                };
                Column {
                    qualifier,
                    name,
                    data_type,
                    nullable: true,
                }
            })
            .collect();
        Schema::new(columns)
    }

    /// Memoized [`aggregate_schema`].
    pub fn aggregate_schema(
        &mut self,
        group_by: &[ScalarExpr],
        aggregates: &[AggCall],
        input: &Schema,
        provider: &dyn SchemaProvider,
    ) -> Schema {
        let mut columns = vec![];
        for (i, g) in group_by.iter().enumerate() {
            let (qualifier, name) = group_by_name(g, i);
            columns.push(Column {
                qualifier,
                name,
                data_type: self.expr_type(g, input, provider),
                nullable: true,
            });
        }
        for a in aggregates {
            columns.push(Column {
                qualifier: None,
                name: a.alias.clone(),
                data_type: self.agg_output_type(&a.func, &a.args, input, provider),
                nullable: true,
            });
        }
        Schema::new(columns)
    }

    /// Memoized [`infer_schema`]: each distinct node of the tree is inferred once.
    pub fn infer(&mut self, plan: &RelExpr, provider: &dyn SchemaProvider) -> Result<Rc<Schema>> {
        let key = plan as *const RelExpr;
        if let Some(cached) = self.cache.get(&key) {
            return cached.clone();
        }
        let result = self.infer_node(plan, provider);
        self.cache.insert(key, result.clone());
        result
    }

    fn infer_node(&mut self, plan: &RelExpr, provider: &dyn SchemaProvider) -> Result<Rc<Schema>> {
        match plan {
            RelExpr::Single => Ok(Rc::new(Schema::empty())),
            RelExpr::Scan { table, alias } => {
                let schema = provider.table_schema(table)?;
                let qualifier = alias.clone().unwrap_or_else(|| table.clone());
                Ok(Rc::new(schema.with_qualifier(&qualifier)))
            }
            RelExpr::Values { schema, .. } => Ok(Rc::new(schema.clone())),
            RelExpr::Select { input, .. }
            | RelExpr::Sort { input, .. }
            | RelExpr::Limit { input, .. } => self.infer(input, provider),
            RelExpr::Project { input, items, .. } => {
                let input_schema = self.infer(input, provider)?;
                Ok(Rc::new(self.project_schema(items, &input_schema, provider)))
            }
            RelExpr::Aggregate {
                input,
                group_by,
                aggregates,
            } => {
                let input_schema = self.infer(input, provider)?;
                Ok(Rc::new(self.aggregate_schema(
                    group_by,
                    aggregates,
                    &input_schema,
                    provider,
                )))
            }
            RelExpr::Join {
                left, right, kind, ..
            } => {
                let l = self.infer(left, provider)?;
                if kind.left_only() {
                    return Ok(l);
                }
                let r = self.infer(right, provider)?;
                let r = if matches!(kind, JoinKind::LeftOuter) {
                    Rc::new(r.as_nullable())
                } else {
                    r
                };
                Ok(Rc::new(l.join(&r)))
            }
            RelExpr::Union { left, .. } => self.infer(left, provider),
            RelExpr::Rename { input, alias } => {
                Ok(Rc::new(self.infer(input, provider)?.with_qualifier(alias)))
            }
            RelExpr::Apply {
                left, right, kind, ..
            } => {
                let l = self.infer(left, provider)?;
                if kind.left_only() {
                    return Ok(l);
                }
                let r = self.infer(right, provider)?;
                let r = if matches!(kind, ApplyKind::LeftOuter) {
                    Rc::new(r.as_nullable())
                } else {
                    r
                };
                Ok(Rc::new(l.join(&r)))
            }
            RelExpr::ApplyMerge {
                left,
                right,
                assignments,
            } => {
                // The output schema is the left schema; assigned attributes take the type of
                // their source attribute in the right schema when it can be resolved.
                let mut l = (*self.infer(left, provider)?).clone();
                let r = self.infer(right, provider)?;
                let assignments = if assignments.is_empty() {
                    // Default: merge all attributes common to both sides.
                    r.columns
                        .iter()
                        .filter(|rc| l.find(None, &rc.name).is_some())
                        .map(|rc| {
                            crate::plan::MergeAssignment::new(rc.name.clone(), rc.name.clone())
                        })
                        .collect()
                } else {
                    assignments.clone()
                };
                for a in &assignments {
                    if let (Some(li), Some(ri)) = (l.find(None, &a.target), r.find(None, &a.source))
                    {
                        l.columns[li].data_type = r.column(ri).data_type;
                    }
                }
                Ok(Rc::new(l))
            }
            RelExpr::ConditionalApplyMerge {
                left, then_branch, ..
            } => {
                // Same shape as ApplyMerge: the outer schema, with merged attribute types
                // taken from the then-branch when resolvable.
                let mut l = (*self.infer(left, provider)?).clone();
                if let Ok(t) = self.infer(then_branch, provider) {
                    for tc in &t.columns {
                        if let Some(li) = l.find(None, &tc.name) {
                            l.columns[li].data_type = tc.data_type;
                        }
                    }
                }
                Ok(Rc::new(l))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{AggCall, ScalarExpr as E};
    use crate::plan::{MergeAssignment, ParamBinding};
    use decorr_common::Value;

    fn provider() -> MapProvider {
        MapProvider::new()
            .with_table(
                "customer",
                Schema::new(vec![
                    Column::new("custkey", DataType::Int),
                    Column::new("name", DataType::Str),
                ]),
            )
            .with_table(
                "orders",
                Schema::new(vec![
                    Column::new("orderkey", DataType::Int),
                    Column::new("custkey", DataType::Int),
                    Column::new("totalprice", DataType::Float),
                ]),
            )
            .with_udf("discount", DataType::Float)
    }

    #[test]
    fn scan_schema_is_qualified() {
        let s = infer_schema(&RelExpr::scan_as("customer", "c"), &provider()).unwrap();
        assert_eq!(s.index_of(Some("c"), "custkey").unwrap(), 0);
        assert_eq!(s.column(1).data_type, DataType::Str);
    }

    #[test]
    fn project_types_and_names() {
        let plan = RelExpr::Project {
            input: Box::new(RelExpr::scan("orders")),
            items: vec![
                ProjectItem::new(E::column("orderkey")),
                ProjectItem::aliased(
                    E::binary(BinaryOp::Mul, E::column("totalprice"), E::literal(0.15)),
                    "disc",
                ),
                ProjectItem::new(E::udf("discount", vec![E::column("totalprice")])),
            ],
            distinct: false,
        };
        let s = infer_schema(&plan, &provider()).unwrap();
        assert_eq!(s.names(), vec!["orderkey", "disc", "col2"]);
        assert_eq!(s.column(0).data_type, DataType::Int);
        assert_eq!(s.column(1).data_type, DataType::Float);
        assert_eq!(s.column(2).data_type, DataType::Float); // from udf_return_type
    }

    #[test]
    fn aggregate_schema() {
        let plan = RelExpr::Aggregate {
            input: Box::new(RelExpr::scan("orders")),
            group_by: vec![E::column("custkey")],
            aggregates: vec![
                AggCall::new(AggFunc::Sum, vec![E::column("totalprice")], "totalbusiness"),
                AggCall::new(AggFunc::CountStar, vec![], "n"),
            ],
        };
        let s = infer_schema(&plan, &provider()).unwrap();
        assert_eq!(s.names(), vec!["custkey", "totalbusiness", "n"]);
        assert_eq!(s.column(1).data_type, DataType::Float);
        assert_eq!(s.column(2).data_type, DataType::Int);
    }

    #[test]
    fn left_outer_join_makes_right_nullable() {
        let plan = RelExpr::Join {
            left: Box::new(RelExpr::scan_as("customer", "c")),
            right: Box::new(RelExpr::scan_as("orders", "o")),
            kind: JoinKind::LeftOuter,
            condition: Some(E::eq(
                E::qualified_column("c", "custkey"),
                E::qualified_column("o", "custkey"),
            )),
        };
        let s = infer_schema(&plan, &provider()).unwrap();
        assert_eq!(s.len(), 5);
        assert!(s.column(2).nullable);
    }

    #[test]
    fn semi_join_keeps_left_only() {
        let plan = RelExpr::Join {
            left: Box::new(RelExpr::scan("customer")),
            right: Box::new(RelExpr::scan("orders")),
            kind: JoinKind::LeftSemi,
            condition: None,
        };
        assert_eq!(infer_schema(&plan, &provider()).unwrap().len(), 2);
    }

    #[test]
    fn apply_merge_schema_keeps_left_shape() {
        // r has (totalbusiness, level); right computes v; assignment totalbusiness=v.
        let left = RelExpr::Project {
            input: Box::new(RelExpr::Single),
            items: vec![
                ProjectItem::aliased(E::literal(Value::Null), "totalbusiness"),
                ProjectItem::aliased(E::literal(Value::Null), "level"),
            ],
            distinct: false,
        };
        let right = RelExpr::Aggregate {
            input: Box::new(RelExpr::scan("orders")),
            group_by: vec![],
            aggregates: vec![AggCall::new(
                AggFunc::Sum,
                vec![E::column("totalprice")],
                "v",
            )],
        };
        let plan = RelExpr::ApplyMerge {
            left: Box::new(left),
            right: Box::new(right),
            assignments: vec![MergeAssignment::new("totalbusiness", "v")],
        };
        let s = infer_schema(&plan, &provider()).unwrap();
        assert_eq!(s.names(), vec!["totalbusiness", "level"]);
        assert_eq!(s.column(0).data_type, DataType::Float);
    }

    #[test]
    fn apply_schema_concatenates() {
        let plan = RelExpr::Apply {
            left: Box::new(RelExpr::scan_as("customer", "c")),
            right: Box::new(RelExpr::Project {
                input: Box::new(RelExpr::Single),
                items: vec![ProjectItem::aliased(E::param("ckey"), "retval")],
                distinct: false,
            }),
            kind: ApplyKind::Cross,
            bindings: vec![ParamBinding::new(
                "ckey",
                E::qualified_column("c", "custkey"),
            )],
        };
        let s = infer_schema(&plan, &provider()).unwrap();
        assert_eq!(s.names(), vec!["custkey", "name", "retval"]);
    }

    #[test]
    fn unknown_table_errors() {
        assert!(infer_schema(&RelExpr::scan("nosuch"), &provider()).is_err());
        assert!(EmptyProvider.table_schema("x").is_err());
    }
}
