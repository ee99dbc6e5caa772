//! Scalar expression evaluation.

use decorr_algebra::{BinaryOp, ScalarExpr, UnaryOp};
use decorr_common::{Error, Result, Value};

use crate::env::Env;
use crate::executor::Executor;

impl Executor {
    /// Evaluates a scalar expression in the given environment.
    ///
    /// Correlated constructs are handled here: column references fall through to outer
    /// scopes, scalar subqueries and EXISTS/IN subqueries are executed with the current
    /// environment as their outer context, and UDF invocations run through the
    /// interpreter (this is the paper's iterative execution baseline).
    pub fn eval_expr(&self, expr: &ScalarExpr, env: &Env) -> Result<Value> {
        match expr {
            ScalarExpr::Literal(v) => Ok(v.clone()),
            ScalarExpr::Column(c) => match env.column(c.qualifier.as_deref(), &c.name)? {
                Some(v) => Ok(v),
                None => env.param(&c.name).ok_or_else(|| {
                    Error::Binding(format!("cannot resolve column reference '{c}'"))
                }),
            },
            ScalarExpr::Param(p) => match env.param(p) {
                Some(v) => Ok(v),
                None => env
                    .column(None, p)?
                    .ok_or_else(|| Error::Binding(format!("unbound parameter ':{p}'"))),
            },
            ScalarExpr::Binary { op, left, right } => self.eval_binary(*op, left, right, env),
            ScalarExpr::Unary { op, expr } => {
                let v = self.eval_expr(expr, env)?;
                match op {
                    UnaryOp::Neg => {
                        if v.is_null() {
                            Ok(Value::Null)
                        } else {
                            Value::Int(0)
                                .sub(&v)
                                .or_else(|_| Ok(Value::Float(-v.as_float()?)))
                        }
                    }
                    UnaryOp::Not => match v.as_bool()? {
                        Some(b) => Ok(Value::Bool(!b)),
                        None => Ok(Value::Null),
                    },
                    UnaryOp::IsNull => Ok(Value::Bool(v.is_null())),
                    UnaryOp::IsNotNull => Ok(Value::Bool(!v.is_null())),
                }
            }
            ScalarExpr::Case {
                branches,
                else_expr,
            } => {
                for (cond, value) in branches {
                    let c = self.eval_expr(cond, env)?;
                    if c.as_bool()? == Some(true) {
                        return self.eval_expr(value, env);
                    }
                }
                match else_expr {
                    Some(e) => self.eval_expr(e, env),
                    None => Ok(Value::Null),
                }
            }
            ScalarExpr::Cast { expr, data_type } => self.eval_expr(expr, env)?.cast(*data_type),
            ScalarExpr::Coalesce(args) => {
                for a in args {
                    let v = self.eval_expr(a, env)?;
                    if !v.is_null() {
                        return Ok(v);
                    }
                }
                Ok(Value::Null)
            }
            ScalarExpr::ScalarSubquery(q) => {
                self.stats.add_subqueries_executed(1);
                let rs = self.execute_with_env(q, env)?;
                rs.scalar()
            }
            ScalarExpr::Exists(q) => {
                self.stats.add_subqueries_executed(1);
                let rs = self.execute_with_env(q, env)?;
                Ok(Value::Bool(!rs.is_empty()))
            }
            ScalarExpr::InSubquery {
                expr,
                subquery,
                negated,
            } => {
                self.stats.add_subqueries_executed(1);
                let needle = self.eval_expr(expr, env)?;
                if needle.is_null() {
                    return Ok(Value::Null);
                }
                let rs = self.execute_with_env(subquery, env)?;
                let mut found = false;
                for row in &rs.rows {
                    if let Some(v) = row.values.first() {
                        if needle.sql_eq(v) == Some(true) {
                            found = true;
                            break;
                        }
                    }
                }
                Ok(Value::Bool(found != *negated))
            }
            ScalarExpr::UdfCall { name, args } => {
                if self.registry.has_udf(name) {
                    let arg_values: Result<Vec<Value>> =
                        args.iter().map(|a| self.eval_expr(a, env)).collect();
                    self.call_udf(name, arg_values?)
                } else {
                    Err(Error::Catalog(format!("unknown function '{name}'")))
                }
            }
        }
    }

    /// Evaluates a predicate with SQL three-valued logic: NULL (unknown) is treated as
    /// *not satisfied*.
    pub fn eval_predicate(&self, predicate: &ScalarExpr, env: &Env) -> Result<bool> {
        let v = self.eval_expr(predicate, env)?;
        Ok(v.as_bool()? == Some(true))
    }

    fn eval_binary(
        &self,
        op: BinaryOp,
        left: &ScalarExpr,
        right: &ScalarExpr,
        env: &Env,
    ) -> Result<Value> {
        // AND / OR get SQL three-valued logic with short-circuiting.
        if matches!(op, BinaryOp::And | BinaryOp::Or) {
            let l = self.eval_expr(left, env)?.as_bool()?;
            match (op, l) {
                (BinaryOp::And, Some(false)) => return Ok(Value::Bool(false)),
                (BinaryOp::Or, Some(true)) => return Ok(Value::Bool(true)),
                _ => {}
            }
            let r = self.eval_expr(right, env)?.as_bool()?;
            let result = match op {
                BinaryOp::And => match (l, r) {
                    (Some(false), _) | (_, Some(false)) => Some(false),
                    (Some(true), Some(true)) => Some(true),
                    _ => None,
                },
                BinaryOp::Or => match (l, r) {
                    (Some(true), _) | (_, Some(true)) => Some(true),
                    (Some(false), Some(false)) => Some(false),
                    _ => None,
                },
                _ => unreachable!(),
            };
            return Ok(result.map(Value::Bool).unwrap_or(Value::Null));
        }
        let l = self.eval_expr(left, env)?;
        let r = self.eval_expr(right, env)?;
        match op {
            BinaryOp::Add => l.add(&r),
            BinaryOp::Sub => l.sub(&r),
            BinaryOp::Mul => l.mul(&r),
            BinaryOp::Div => l.div(&r),
            BinaryOp::Mod => l.modulo(&r),
            BinaryOp::Concat => l.concat(&r),
            BinaryOp::Eq
            | BinaryOp::NotEq
            | BinaryOp::Lt
            | BinaryOp::LtEq
            | BinaryOp::Gt
            | BinaryOp::GtEq => {
                let cmp = l.sql_cmp(&r);
                let result = cmp.map(|ord| match op {
                    BinaryOp::Eq => ord == std::cmp::Ordering::Equal,
                    BinaryOp::NotEq => ord != std::cmp::Ordering::Equal,
                    BinaryOp::Lt => ord == std::cmp::Ordering::Less,
                    BinaryOp::LtEq => ord != std::cmp::Ordering::Greater,
                    BinaryOp::Gt => ord == std::cmp::Ordering::Greater,
                    BinaryOp::GtEq => ord != std::cmp::Ordering::Less,
                    _ => unreachable!(),
                });
                Ok(result.map(Value::Bool).unwrap_or(Value::Null))
            }
            BinaryOp::And | BinaryOp::Or => unreachable!("handled above"),
        }
    }
}
