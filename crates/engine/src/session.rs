//! The per-client handle: configuration overrides, queries and the statement surface.

use decorr_algebra::RelExpr;
use decorr_common::{Result, Schema};
use decorr_exec::{CatalogProvider, ExecConfig};
use decorr_optimizer::PassManager;
use decorr_parser::{parse_statements, plan_select, SqlStatement};
use decorr_rewrite::plan_to_sql;

use crate::engine::Engine;
use crate::pinned::Pinned;
use crate::{ExecutionStrategy, ExecutionSummary, QueryOptions, QueryResult, RewriteReport};

/// A per-client handle onto a shared [`Engine`].
///
/// Sessions are cheap (`Clone` copies an `Arc` handle plus the per-session config)
/// and carry only per-client state: an optional executor-config override and a
/// default [`ExecutionStrategy`]. All data, functions, caches and feedback live in
/// the engine and are shared across sessions.
///
/// Every statement a session executes pins a fresh consistent snapshot, so a session
/// always sees its own earlier writes (and any writes other sessions have committed
/// by then), while long-running queries are never torn by concurrent mutations.
#[derive(Debug, Clone)]
pub struct Session {
    engine: Engine,
    exec_config: Option<ExecConfig>,
    strategy: ExecutionStrategy,
}

impl Session {
    /// Opens a session on `engine` (equivalent to [`Engine::session`]).
    pub fn new(engine: Engine) -> Session {
        Session {
            engine,
            exec_config: None,
            strategy: ExecutionStrategy::default(),
        }
    }

    /// The shared engine this session runs against.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// This session with `config` as its executor-config override (the engine default
    /// otherwise). Only this session is affected.
    pub fn with_exec_config(mut self, config: ExecConfig) -> Session {
        self.exec_config = Some(config.normalized());
        self
    }

    /// This session with `strategy` as the default [`Session::query`] uses (per-query
    /// [`QueryOptions`] still win).
    pub fn with_strategy(mut self, strategy: ExecutionStrategy) -> Session {
        self.strategy = strategy;
        self
    }

    /// Pins a snapshot using this session's config override (unless the per-query
    /// options carry their own).
    pub(crate) fn pin(&self, options: &QueryOptions) -> Pinned {
        let config = options.exec_config.as_ref().or(self.exec_config.as_ref());
        self.engine.pin(config)
    }

    /// Runs a `SELECT` query with this session's default strategy.
    pub fn query(&self, sql: &str) -> Result<QueryResult> {
        self.query_with(
            sql,
            &QueryOptions {
                strategy: self.strategy,
                ..QueryOptions::default()
            },
        )
    }

    /// Runs a `SELECT` query with explicit options.
    pub fn query_with(&self, sql: &str, options: &QueryOptions) -> Result<QueryResult> {
        let select = decorr_parser::parse_query(sql)?;
        let plan = plan_select(&select)?;
        self.run_plan(&plan, options)
    }

    /// Runs an already-planned query against a freshly pinned snapshot.
    pub fn run_plan(&self, plan: &RelExpr, options: &QueryOptions) -> Result<QueryResult> {
        self.pin(options).run_plan(plan, options)
    }

    /// Executes one or more statements (DDL, DML, `CREATE FUNCTION`, or queries) and
    /// returns a summary per statement. Statements run sequentially; each pins a
    /// fresh snapshot, so later statements see earlier ones' effects.
    pub fn execute(&self, sql: &str) -> Result<Vec<ExecutionSummary>> {
        let statements = parse_statements(sql)?;
        let mut out = vec![];
        for stmt in statements {
            out.push(self.execute_statement(stmt)?);
        }
        Ok(out)
    }

    fn execute_statement(&self, stmt: SqlStatement) -> Result<ExecutionSummary> {
        match stmt {
            SqlStatement::CreateTable { name, columns } => {
                self.engine.create_table(&name, Schema::new(columns))?;
                Ok(ExecutionSummary::TableCreated(name))
            }
            SqlStatement::DropTable { name } => {
                self.engine.drop_table(&name)?;
                Ok(ExecutionSummary::TableDropped(name))
            }
            SqlStatement::CreateIndex { table, column } => {
                self.engine.create_index(&table, &column)?;
                Ok(ExecutionSummary::IndexCreated { table, column })
            }
            SqlStatement::Insert {
                table,
                columns,
                rows,
            } => {
                let pinned = self.pin(&QueryOptions::default());
                let materialized =
                    pinned.materialize_insert_rows(&table, columns.as_deref(), &rows)?;
                let n = self.engine.insert_rows(&table, materialized)?;
                Ok(ExecutionSummary::RowsInserted(n))
            }
            SqlStatement::CreateFunction(udf) => {
                let name = udf.name.clone();
                self.engine.register_udf_definition(udf)?;
                Ok(ExecutionSummary::FunctionCreated(name))
            }
            SqlStatement::Analyze { table } => {
                let tables = match table {
                    Some(name) => {
                        self.engine.analyze_table(&name)?;
                        vec![name]
                    }
                    None => self.engine.analyze(),
                };
                Ok(ExecutionSummary::Analyzed { tables })
            }
            SqlStatement::Query(select) => {
                let plan = plan_select(&select)?;
                let result = self.run_plan(
                    &plan,
                    &QueryOptions {
                        strategy: self.strategy,
                        ..QueryOptions::default()
                    },
                )?;
                Ok(ExecutionSummary::QueryRows(result.rows.len()))
            }
        }
    }

    /// Registers a UDF from its `CREATE FUNCTION` source (see
    /// [`Engine::register_function`]).
    pub fn register_function(&self, sql: &str) -> Result<()> {
        self.engine.register_function(sql)
    }

    /// The standalone rewrite-tool entry point (Figure 9): returns the rewritten SQL
    /// text and the auxiliary aggregate definitions, without executing anything.
    pub fn rewrite_sql(&self, sql: &str) -> Result<RewriteReport> {
        let select = decorr_parser::parse_query(sql)?;
        let plan = plan_select(&select)?;
        let pinned = self.pin(&QueryOptions::default());
        let provider = CatalogProvider::new(&pinned.catalog, &pinned.registry);
        let outcome = PassManager::rewrite_pipeline().optimize(
            &plan,
            &pinned.registry,
            &provider,
            Some(pinned.catalog.as_ref()),
        )?;
        Ok(RewriteReport {
            decorrelated: outcome.decorrelated,
            rewritten_sql: plan_to_sql(&outcome.plan),
            auxiliary_functions: outcome
                .aux_aggregates
                .iter()
                .map(|a| a.to_string())
                .collect(),
            applied_rules: outcome.applied_rules,
            notes: outcome.notes,
        })
    }
}
