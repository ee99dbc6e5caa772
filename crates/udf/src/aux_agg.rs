//! Synthesis of auxiliary user-defined aggregates (Section VII-A, Example 6).
//!
//! When the body of a cursor loop has cyclic data dependences, the statements from the
//! first cyclic node onwards (`Lc`) cannot be expressed as a set-oriented algebraic
//! expression directly. The paper captures them as a user-defined aggregate function
//! whose `accumulate` method contains exactly those statements, provided
//!
//! 1. the initial values of all variables written in `Lc` are statically determinable,
//!    and
//! 2. the cursor query does not require an enforced order.
//!
//! [`synthesize_aux_aggregate`] performs that construction and reports *why* it fails
//! when the conditions do not hold.

use std::collections::HashSet;

use decorr_algebra::ScalarExpr;
use decorr_common::{DataType, Error, Result, Value};

use crate::analysis::{statement_reads, statement_writes};
use crate::ast::{AggregateDefinition, Statement, UdfParameter};

/// The name of the auxiliary aggregate synthesised for the `ordinal`-th (from 1) cursor
/// loop of UDF `udf`: `aux_agg_<udf>` for the first loop, `aux<k>_agg_<udf>` for the
/// k-th. Distinct (UDF, ordinal) pairs get distinct names: only a first loop's name
/// starts with `aux_`, and the digits before `_agg_` fix the ordinal of any other.
pub fn aux_aggregate_name(udf: &str, ordinal: usize) -> String {
    let udf = decorr_common::normalize_ident(udf);
    match ordinal {
        1 => format!("aux_agg_{udf}"),
        k => format!("aux{k}_agg_{udf}"),
    }
}

/// True for a name of the shape [`aux_aggregate_name`] mints (`aux_agg_…`,
/// `aux<digits>_agg_…`). `CREATE FUNCTION` refuses such names whatever is registered,
/// so the rule does not depend on the order functions are registered or restored in.
pub fn is_aux_aggregate_name(name: &str) -> bool {
    let name = decorr_common::normalize_ident(name);
    name.strip_prefix("aux").is_some_and(|rest| {
        rest.trim_start_matches(|c: char| c.is_ascii_digit())
            .starts_with("_agg_")
    })
}

/// Synthesises an auxiliary aggregate for the cyclic suffix `cyclic_stmts` of a cursor
/// loop body. Its parameters are the variables the accumulate step reads but does not
/// modify, in name order: the call's arguments.
///
/// * `name` — name to give the aggregate (see [`aux_aggregate_name`]).
/// * `cyclic_stmts` — the statements `Li … Lk` of the loop body.
/// * `known_vars` — every variable in scope inside the loop (locals, parameters, fetch
///   variables).
/// * `initial_values` — statically known initial values of variables (from declarations
///   and literal assignments preceding the loop).
/// * `var_types` — declared types of variables, used for state/parameter typing.
/// * `live_out` — the variable whose value is used after the loop (the aggregate's
///   result). The caller determines liveness from the statements that follow the loop.
pub fn synthesize_aux_aggregate(
    name: &str,
    cyclic_stmts: &[Statement],
    known_vars: &HashSet<String>,
    initial_values: &[(String, Value)],
    var_types: &[(String, DataType)],
    live_out: &str,
) -> Result<AggregateDefinition> {
    if cyclic_stmts.is_empty() {
        return Err(Error::Rewrite(
            "cannot synthesise an aggregate from an empty statement list".into(),
        ));
    }
    // Written variables become aggregate state.
    let mut written: Vec<String> = vec![];
    for s in cyclic_stmts {
        for w in statement_writes(s) {
            if !written.contains(&w) {
                written.push(w);
            }
        }
    }
    // Condition 1: every state variable needs a statically determinable initial value.
    let mut state = vec![];
    for var in &written {
        let init = initial_values
            .iter()
            .find(|(n, _)| n == var)
            .map(|(_, v)| v.clone())
            .ok_or_else(|| {
                Error::Rewrite(format!(
                    "cannot create auxiliary aggregate '{name}': initial value of \
                     variable '{var}' is not statically determinable"
                ))
            })?;
        let ty = lookup_type(var_types, var).unwrap_or_else(|| init.data_type());
        state.push((var.clone(), ty, init));
    }
    // Loops must not contain further query execution inside the cyclic part — queries in
    // an aggregate's accumulate method would reintroduce per-row query execution.
    if cyclic_stmts.iter().any(|s| s.contains_query()) {
        return Err(Error::Rewrite(format!(
            "cannot create auxiliary aggregate '{name}': the cyclic part of the loop \
             still executes queries (loop fission required)"
        )));
    }
    if cyclic_stmts.iter().any(|s| s.contains_loop()) {
        return Err(Error::Rewrite(format!(
            "cannot create auxiliary aggregate '{name}': nested loops inside the cyclic \
             part are not supported"
        )));
    }
    // Read-but-not-written variables become the accumulate parameters.
    let mut arg_names: Vec<String> = vec![];
    for s in cyclic_stmts {
        for r in statement_reads(s, known_vars) {
            if !written.contains(&r) && !arg_names.contains(&r) {
                arg_names.push(r);
            }
        }
    }
    arg_names.sort();
    let params: Vec<UdfParameter> = arg_names
        .iter()
        .map(|n| {
            UdfParameter::new(
                n.clone(),
                lookup_type(var_types, n).unwrap_or(DataType::Float),
            )
        })
        .collect();
    // The result is the live-out variable, which must be part of the state.
    if !written.contains(&live_out.to_string()) {
        return Err(Error::Rewrite(format!(
            "cannot create auxiliary aggregate '{name}': live-out variable '{live_out}' \
             is not written inside the loop"
        )));
    }
    Ok(AggregateDefinition {
        name: decorr_common::normalize_ident(name),
        state,
        params,
        accumulate: cyclic_stmts.to_vec(),
        terminate: ScalarExpr::param(live_out),
        return_type: lookup_type(var_types, live_out).unwrap_or(DataType::Float),
    })
}

fn lookup_type(var_types: &[(String, DataType)], name: &str) -> Option<DataType> {
    var_types
        .iter()
        .find(|(n, _)| n.eq_ignore_ascii_case(name))
        .map(|(_, t)| *t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use decorr_algebra::{BinaryOp, ScalarExpr as E};

    fn vars(names: &[&str]) -> HashSet<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    /// `if (profit < 0) total_loss = total_loss - profit;` — the cyclic node of the
    /// paper's Example 5.
    fn cyclic_node() -> Vec<Statement> {
        vec![Statement::If {
            condition: E::lt(E::param("profit"), E::literal(0)),
            then_branch: vec![Statement::Assign {
                name: "total_loss".into(),
                expr: E::binary(BinaryOp::Sub, E::param("total_loss"), E::param("profit")),
            }],
            else_branch: vec![],
        }]
    }

    #[test]
    fn synthesises_example6_aggregate() {
        let agg = synthesize_aux_aggregate(
            "aux_agg",
            &cyclic_node(),
            &vars(&["profit", "total_loss"]),
            &[("total_loss".into(), Value::Int(0))],
            &[
                ("total_loss".into(), DataType::Int),
                ("profit".into(), DataType::Float),
            ],
            "total_loss",
        )
        .unwrap();
        assert_eq!(agg.name, "aux_agg");
        assert_eq!(
            agg.state,
            vec![("total_loss".into(), DataType::Int, Value::Int(0))]
        );
        assert_eq!(agg.params, [UdfParameter::new("profit", DataType::Float)]);
        assert_eq!(agg.return_type, DataType::Int);
        assert_eq!(agg.terminate, E::param("total_loss"));
        // The accumulate body is exactly the cyclic statements (Example 6).
        assert_eq!(agg.accumulate, cyclic_node());
        let rendered = agg.to_string();
        assert!(rendered.contains("state:"));
        assert!(rendered.contains("accumulate:"));
    }

    #[test]
    fn aggregate_names_are_injective_stable_identifiers() {
        assert_eq!(aux_aggregate_name("TotalLoss", 1), "aux_agg_totalloss");
        assert_eq!(aux_aggregate_name("f", 2), "aux2_agg_f");
        // `f`'s second loop and `f_2`'s first loop no longer collide.
        assert_ne!(aux_aggregate_name("f", 2), aux_aggregate_name("f_2", 1));
        let mut seen = HashSet::new();
        for udf in ["f", "f_2", "agg_f", "2_agg_f", "aux_agg_f", "aux2_agg_f"] {
            for ordinal in 1..=12 {
                let name = aux_aggregate_name(udf, ordinal);
                assert!(seen.insert(name.clone()), "{name} minted twice");
                assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'));
                assert!(name.starts_with(|c: char| c.is_ascii_alphabetic()));
                assert!(is_aux_aggregate_name(&name), "{name}");
            }
        }
        for plain in [
            "aux",
            "auxiliary",
            "aux_total",
            "aux2agg_f",
            "agg_aux_f",
            "xaux_agg_f",
        ] {
            assert!(!is_aux_aggregate_name(plain), "{plain}");
        }
        assert!(is_aux_aggregate_name("AUX_AGG_F"));
    }

    #[test]
    fn missing_initial_value_is_rejected() {
        let err = synthesize_aux_aggregate(
            "aux_agg",
            &cyclic_node(),
            &vars(&["profit", "total_loss"]),
            &[], // no statically known initial value for total_loss
            &[],
            "total_loss",
        )
        .unwrap_err();
        assert_eq!(err.kind(), "rewrite");
        assert!(err.to_string().contains("statically determinable"));
    }

    #[test]
    fn queries_inside_cyclic_part_are_rejected() {
        let stmts = vec![Statement::SelectInto {
            query: decorr_algebra::RelExpr::scan("orders"),
            targets: vec!["total_loss".into()],
        }];
        let err = synthesize_aux_aggregate(
            "aux_agg",
            &stmts,
            &vars(&["total_loss"]),
            &[("total_loss".into(), Value::Int(0))],
            &[],
            "total_loss",
        )
        .unwrap_err();
        assert!(err.to_string().contains("loop fission"));
    }

    #[test]
    fn live_out_must_be_written() {
        let err = synthesize_aux_aggregate(
            "aux_agg",
            &cyclic_node(),
            &vars(&["profit", "total_loss"]),
            &[("total_loss".into(), Value::Int(0))],
            &[],
            "unrelated",
        )
        .unwrap_err();
        assert!(err.to_string().contains("live-out"));
    }
}
