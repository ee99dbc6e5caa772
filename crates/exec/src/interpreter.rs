//! The procedural UDF interpreter — the paper's *iterative invocation* baseline.
//!
//! When the engine executes a query without decorrelation, every UDF call in the select
//! list or WHERE clause lands here: the function body is executed statement by
//! statement, and every embedded SQL query runs as a fresh (index-assisted) query
//! against the catalog — once per outer tuple, exactly the behaviour whose cost the
//! paper sets out to eliminate.
//!
//! The interpreter also provides the initialize/accumulate/terminate protocol for
//! user-defined aggregates (Section VII / Example 6), which the hash-aggregation
//! operator invokes per input row.

use std::collections::HashMap;

use decorr_common::{Error, Result, Row, Value};
use decorr_udf::{Statement, UdfDefinition};

use crate::env::Env;
use crate::executor::{Executor, ResultSet};
use crate::memo::{fingerprint_invocation, MemoValue, Reservation};

/// Safety bound on `WHILE` loop iterations inside UDFs.
const MAX_LOOP_ITERATIONS: usize = 10_000_000;

/// A cache answered a scalar call with rows or a table call with a value: two
/// executors with different registries share one memo without epochs.
fn cached_kind_mismatch(name: &str) -> Error {
    Error::Execution(format!(
        "cached result of function '{name}' does not match its declared kind"
    ))
}

/// Result of executing a list of statements: either control flow ran off the end, or a
/// `RETURN` was executed with the given value.
enum Flow {
    Continue,
    Return(Value),
}

impl Executor {
    /// Runs one UDF body. A `counted` run books an invocation and its wall clock, which
    /// the engine's feedback loop turns into learned invocation costs. An uncounted run
    /// is a worker that took over a dedup reservation (see
    /// [`ReservationGuard::took_over`](crate::memo::ReservationGuard::took_over)) and
    /// re-evaluates a tuple another worker already evaluated: counting it would make
    /// `udf_invocations` and the learned costs depend on scheduling, so it books as a
    /// hit instead.
    fn run_body<T>(&self, key: &str, counted: bool, body: impl FnOnce() -> Result<T>) -> Result<T> {
        if !counted {
            self.stats.add_udf_dedup_hits(1);
            self.udf_runtime.update(key, |r| r.hits += 1);
            return body();
        }
        self.stats.add_udf_invocations(1);
        let started = std::time::Instant::now();
        let result = body();
        let elapsed = started.elapsed();
        self.udf_runtime.update(key, |r| {
            r.invocations += 1;
            r.total += elapsed;
        });
        result
    }

    /// The invocation path of a pure UDF with a cache attached: look the argument tuple
    /// up (racing workers coalesce onto one evaluation there — one runs the body, the
    /// rest wait for its result) and on a miss run `body` and publish what it returned.
    /// A hit is never counted as an invocation, in `ExecStats` or in the timing
    /// collector, so the invocation counter equals the number of distinct evaluations
    /// even under races, and learned costs stay per-evaluation.
    fn call_cached(
        &self,
        key: &str,
        args: &[Value],
        body: impl FnOnce() -> Result<MemoValue>,
    ) -> Result<MemoValue> {
        let caches = &self.udf_caches;
        let fingerprint = fingerprint_invocation(key, args);
        let reservation = match caches.lookup(key, fingerprint, args, &self.stats) {
            Reservation::Hit(value) => {
                self.udf_runtime.update(key, |r| r.hits += 1);
                return Ok(value);
            }
            Reservation::Reserved(guard) => Some(guard),
            Reservation::Bypass => None,
        };
        // An evaluation error drops the reservation, which abandons it and wakes any
        // waiters to take over.
        let counted = !reservation.as_ref().is_some_and(|r| r.took_over());
        let value = self.run_body(key, counted, body)?;
        caches.publish(key, fingerprint, args, &value, reservation);
        Ok(value)
    }

    fn run_scalar_body(&self, udf: &UdfDefinition, args: &[Value]) -> Result<Value> {
        let mut env = self.udf_env(udf, args)?;
        match self.exec_statements(&udf.body, &mut env, &mut None)? {
            Flow::Return(v) => Ok(v),
            Flow::Continue => Ok(Value::Null),
        }
    }

    /// Returns the rows the body inserted into its result table.
    fn run_table_body(&self, udf: &UdfDefinition, args: &[Value]) -> Result<Vec<Row>> {
        let mut env = self.udf_env(udf, args)?;
        let mut buffer = Some(vec![]);
        self.exec_statements(&udf.body, &mut env, &mut buffer)?;
        Ok(buffer.unwrap_or_default())
    }

    /// Invokes a scalar UDF with already-evaluated argument values. A volatile
    /// function, or any function on an executor with no cache attached, goes straight
    /// to its body: that is the path the paper's iterative baseline times, so it pays
    /// for no fingerprint and no [`MemoValue`] round trip.
    pub fn call_udf(&self, name: &str, args: Vec<Value>) -> Result<Value> {
        let udf = self.registry.udf(name)?;
        if udf.is_table_valued() {
            return Err(Error::Unsupported(format!(
                "table-valued function '{name}' used in a scalar context"
            )));
        }
        let key = decorr_common::normalize_ident(name);
        if !udf.pure || self.udf_caches.is_empty() {
            return self.run_body(&key, true, || self.run_scalar_body(udf, &args));
        }
        let body = || self.run_scalar_body(udf, &args).map(MemoValue::Scalar);
        match self.call_cached(&key, &args, body)? {
            MemoValue::Scalar(value) => Ok(value),
            MemoValue::Table(_) => Err(cached_kind_mismatch(name)),
        }
    }

    /// Invokes a table-valued UDF, returning the rows inserted into its result table.
    /// Pure table-valued UDFs memoize their emitted rows the same way scalar UDFs
    /// memoize their return value (this is what deduplicates repeated correlated
    /// `Apply` iterations over the same outer bindings).
    pub fn call_table_udf(&self, name: &str, args: Vec<Value>) -> Result<ResultSet> {
        let udf = self.registry.udf(name)?;
        let schema = udf
            .returns_table
            .clone()
            .ok_or_else(|| Error::TypeError(format!("function '{name}' is not table-valued")))?;
        let key = decorr_common::normalize_ident(name);
        let rows = if !udf.pure || self.udf_caches.is_empty() {
            self.run_body(&key, true, || self.run_table_body(udf, &args))?
        } else {
            let body = || self.run_table_body(udf, &args).map(MemoValue::Table);
            match self.call_cached(&key, &args, body)? {
                MemoValue::Table(rows) => rows,
                MemoValue::Scalar(_) => return Err(cached_kind_mismatch(name)),
            }
        };
        Ok(ResultSet { schema, rows })
    }

    fn udf_env(&self, udf: &UdfDefinition, args: &[Value]) -> Result<Env> {
        if udf.params.len() != args.len() {
            return Err(Error::Execution(format!(
                "function '{}' expects {} arguments, got {}",
                udf.name,
                udf.params.len(),
                args.len()
            )));
        }
        let mut params = HashMap::new();
        for (p, v) in udf.params.iter().zip(args.iter()) {
            if !v.is_null() && !p.data_type.is_compatible_with(v.data_type()) {
                return Err(Error::TypeError(format!(
                    "argument '{}' of '{}' expects {}, got {}",
                    p.name,
                    udf.name,
                    p.data_type,
                    v.data_type()
                )));
            }
            params.insert(p.name.clone(), v.clone());
        }
        Ok(Env::with_params(params))
    }

    /// Feeds one input row into a user-defined aggregate's accumulate method.
    pub fn accumulate_user_aggregate(
        &self,
        name: &str,
        state: &mut HashMap<String, Value>,
        args: &[Value],
    ) -> Result<()> {
        let def = self.registry.aggregate(name)?;
        if def.params.len() != args.len() {
            return Err(Error::Execution(format!(
                "aggregate '{name}' expects {} arguments, got {}",
                def.params.len(),
                args.len()
            )));
        }
        // The state map moves into the environment and back out: no per-row copy.
        let mut env = Env::with_params(std::mem::take(state));
        for (p, v) in def.params.iter().zip(args.iter()) {
            env.set_param(&p.name, v.clone());
        }
        let flow = self.exec_statements(&def.accumulate, &mut env, &mut None);
        *state = env.params;
        // Only the state variables carry over to the next row, not the arguments or
        // the locals the accumulate method declared.
        state.retain(|k, _| def.state.iter().any(|(var, _, _)| var == k));
        flow.map(|_| ())
    }

    /// Produces the final value of a user-defined aggregate from its state.
    pub fn terminate_user_aggregate(
        &self,
        name: &str,
        state: HashMap<String, Value>,
    ) -> Result<Value> {
        let def = self.registry.aggregate(name)?;
        let env = Env::with_params(state);
        self.eval_expr(&def.terminate, &env)
    }

    /// Executes a statement list. `result_buffer` collects `INSERT INTO <result table>`
    /// rows for table-valued UDFs.
    fn exec_statements(
        &self,
        stmts: &[Statement],
        env: &mut Env,
        result_buffer: &mut Option<Vec<Row>>,
    ) -> Result<Flow> {
        for stmt in stmts {
            match self.exec_statement(stmt, env, result_buffer)? {
                Flow::Return(v) => return Ok(Flow::Return(v)),
                Flow::Continue => {}
            }
        }
        Ok(Flow::Continue)
    }

    fn exec_statement(
        &self,
        stmt: &Statement,
        env: &mut Env,
        result_buffer: &mut Option<Vec<Row>>,
    ) -> Result<Flow> {
        match stmt {
            Statement::Declare {
                name,
                data_type,
                init,
            } => {
                let value = match init {
                    Some(e) => self.eval_expr(e, env)?,
                    None => data_type.uninitialized(),
                };
                env.set_param(name, value);
                Ok(Flow::Continue)
            }
            Statement::Assign { name, expr } => {
                let value = self.eval_expr(expr, env)?;
                env.set_param(name, value);
                Ok(Flow::Continue)
            }
            Statement::SelectInto { query, targets } => {
                let rs = self.execute_with_env(query, env)?;
                match rs.rows.len() {
                    0 => {
                        // No row: retain existing values (system-specific behaviour; see
                        // Section III). Uninitialised targets stay NULL.
                        for t in targets {
                            if env.param(t).is_none() {
                                env.set_param(t, Value::Null);
                            }
                        }
                    }
                    1 => {
                        let row = &rs.rows[0];
                        if row.len() < targets.len() {
                            return Err(Error::Execution(format!(
                                "SELECT INTO provides {} columns for {} targets",
                                row.len(),
                                targets.len()
                            )));
                        }
                        for (i, t) in targets.iter().enumerate() {
                            env.set_param(t, row.get(i).clone());
                        }
                    }
                    n => {
                        return Err(Error::Execution(format!(
                            "SELECT INTO returned {n} rows (expected at most one)"
                        )))
                    }
                }
                Ok(Flow::Continue)
            }
            Statement::If {
                condition,
                then_branch,
                else_branch,
            } => {
                let branch = if self.eval_predicate(condition, env)? {
                    then_branch
                } else {
                    else_branch
                };
                self.exec_statements(branch, env, result_buffer)
            }
            Statement::CursorLoop {
                query,
                fetch_vars,
                body,
            } => {
                let rs = self.execute_with_env(query, env)?;
                for row in &rs.rows {
                    if row.len() < fetch_vars.len() {
                        return Err(Error::Execution(format!(
                            "cursor provides {} columns for {} fetch variables",
                            row.len(),
                            fetch_vars.len()
                        )));
                    }
                    for (i, var) in fetch_vars.iter().enumerate() {
                        env.set_param(var, row.get(i).clone());
                    }
                    if let Flow::Return(v) = self.exec_statements(body, env, result_buffer)? {
                        return Ok(Flow::Return(v));
                    }
                }
                Ok(Flow::Continue)
            }
            Statement::While { condition, body } => {
                let mut iterations = 0usize;
                while self.eval_predicate(condition, env)? {
                    iterations += 1;
                    if iterations > MAX_LOOP_ITERATIONS {
                        return Err(Error::Execution(format!(
                            "WHILE loop exceeded {MAX_LOOP_ITERATIONS} iterations"
                        )));
                    }
                    if let Flow::Return(v) = self.exec_statements(body, env, result_buffer)? {
                        return Ok(Flow::Return(v));
                    }
                }
                Ok(Flow::Continue)
            }
            Statement::InsertIntoResult { values } => {
                let row_values: Result<Vec<Value>> =
                    values.iter().map(|v| self.eval_expr(v, env)).collect();
                match result_buffer {
                    Some(buffer) => buffer.push(Row::new(row_values?)),
                    None => {
                        return Err(Error::Unsupported(
                            "INSERT into a result table outside a table-valued function".into(),
                        ))
                    }
                }
                Ok(Flow::Continue)
            }
            Statement::Return { expr } => {
                let value = match expr {
                    Some(e) => self.eval_expr(e, env)?,
                    None => Value::Null,
                };
                Ok(Flow::Return(value))
            }
        }
    }
}
