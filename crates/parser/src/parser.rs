//! Recursive-descent parser for queries, DDL/DML and `CREATE FUNCTION` bodies.

use decorr_algebra::{BinaryOp, JoinKind, ScalarExpr, UnaryOp};
use decorr_common::{normalize_ident, Column, DataType, Error, Result, Schema, Value};
use decorr_udf::{Statement, UdfDefinition, UdfParameter};

use crate::ast::{
    FromItem, JoinClause, OrderByItem, SelectItem, SelectStatement, SqlStatement, TableRef,
};
use crate::lexer::{tokenize, Token};
use crate::planner::plan_select;

/// Parses a single top-level SQL statement.
pub fn parse_statement(sql: &str) -> Result<SqlStatement> {
    let mut statements = parse_statements(sql)?;
    match statements.len() {
        1 => Ok(statements.remove(0)),
        0 => Err(Error::Parse("empty statement".into())),
        n => Err(Error::Parse(format!("expected one statement, found {n}"))),
    }
}

/// Parses a script of one or more top-level statements separated by semicolons.
pub fn parse_statements(sql: &str) -> Result<Vec<SqlStatement>> {
    let tokens = tokenize(sql)?;
    let mut parser = Parser::new(tokens);
    let mut out = vec![];
    loop {
        parser.skip_semicolons();
        if parser.at_eof() {
            break;
        }
        let start = parser.pos;
        let mut stmt = parser.parse_top_level()?;
        // Stamp `CREATE FUNCTION` statements with replayable source text, whichever
        // entry point parsed them: durable engines re-register functions by feeding
        // this string back through the parser.
        if let SqlStatement::CreateFunction(udf) = &mut stmt {
            if udf.source.is_none() {
                udf.source = Some(render_tokens(&parser.tokens[start..parser.pos]));
            }
        }
        out.push(stmt);
    }
    Ok(out)
}

/// Renders a token slice back to parseable SQL (statement sources are recorded this
/// way when the original text spans several statements). String literals re-escape
/// embedded quotes; everything else round-trips through `Token`'s display form.
fn render_tokens(tokens: &[Token]) -> String {
    let mut out = String::new();
    for (i, token) in tokens.iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        match token {
            Token::Str(s) => {
                out.push('\'');
                out.push_str(&s.replace('\'', "''"));
                out.push('\'');
            }
            other => {
                use std::fmt::Write;
                let _ = write!(out, "{other}");
            }
        }
    }
    out
}

/// Parses a `SELECT` query.
pub fn parse_query(sql: &str) -> Result<SelectStatement> {
    let tokens = tokenize(sql)?;
    let mut parser = Parser::new(tokens);
    let select = parser.parse_select()?;
    parser.skip_semicolons();
    parser.expect_eof()?;
    Ok(select)
}

/// Parses a `CREATE FUNCTION` definition.
pub fn parse_function(sql: &str) -> Result<UdfDefinition> {
    match parse_statement(sql)? {
        SqlStatement::CreateFunction(mut udf) => {
            udf.source = Some(sql.trim().to_string());
            Ok(udf)
        }
        other => Err(Error::Parse(format!(
            "expected CREATE FUNCTION, found {}",
            other.kind()
        ))),
    }
}

/// Parses a scalar expression (used by tests and the rewrite tool's CLI).
pub fn parse_expression(sql: &str) -> Result<ScalarExpr> {
    let tokens = tokenize(sql)?;
    let mut parser = Parser::new(tokens);
    let e = parser.parse_expr()?;
    parser.expect_eof()?;
    Ok(e)
}

/// Keywords that cannot be used as implicit (AS-less) aliases.
const RESERVED: &[&str] = &[
    "from",
    "where",
    "group",
    "having",
    "order",
    "limit",
    "into",
    "union",
    "join",
    "inner",
    "left",
    "right",
    "full",
    "cross",
    "on",
    "as",
    "top",
    "and",
    "or",
    "not",
    "select",
    "case",
    "when",
    "then",
    "else",
    "end",
    "asc",
    "desc",
    "values",
    "set",
    "is",
    "null",
    "in",
    "exists",
    "begin",
    "if",
    "while",
    "return",
    "declare",
    "open",
    "fetch",
    "close",
    "deallocate",
    "distinct",
];

const AGG_NAMES: &[&str] = &["sum", "count", "min", "max", "avg"];

/// True if `name` is one of the built-in aggregate function names the planner folds into
/// an [`decorr_algebra::RelExpr::Aggregate`] node.
pub fn is_builtin_aggregate(name: &str) -> bool {
    AGG_NAMES.contains(&name.to_ascii_lowercase().as_str())
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

/// A cursor declaration seen while parsing a function body.
struct CursorDecl {
    name: String,
    query: SelectStatement,
    fetch_vars: Vec<String>,
}

impl Parser {
    fn new(tokens: Vec<Token>) -> Parser {
        Parser { tokens, pos: 0 }
    }

    fn peek(&self) -> &Token {
        self.tokens.get(self.pos).unwrap_or(&Token::Eof)
    }

    fn peek_at(&self, offset: usize) -> &Token {
        self.tokens.get(self.pos + offset).unwrap_or(&Token::Eof)
    }

    fn advance(&mut self) -> Token {
        let t = self.peek().clone();
        if self.pos < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek(), Token::Eof)
    }

    fn expect_eof(&self) -> Result<()> {
        if self.at_eof() {
            Ok(())
        } else {
            Err(Error::Parse(format!(
                "unexpected trailing input near '{}'",
                self.peek()
            )))
        }
    }

    fn skip_semicolons(&mut self) {
        while matches!(self.peek(), Token::Semicolon) {
            self.advance();
        }
    }

    fn at_keyword(&self, kw: &str) -> bool {
        self.peek().is_keyword(kw)
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.at_keyword(kw) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<()> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(Error::Parse(format!(
                "expected keyword '{kw}', found '{}'",
                self.peek()
            )))
        }
    }

    fn eat_token(&mut self, t: &Token) -> bool {
        if self.peek() == t {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect_token(&mut self, t: &Token) -> Result<()> {
        if self.eat_token(t) {
            Ok(())
        } else {
            Err(Error::Parse(format!(
                "expected '{t}', found '{}'",
                self.peek()
            )))
        }
    }

    fn expect_ident(&mut self) -> Result<String> {
        match self.advance() {
            Token::Ident(s) => Ok(normalize_ident(&s)),
            other => Err(Error::Parse(format!(
                "expected identifier, found '{other}'"
            ))),
        }
    }

    // ------------------------------------------------------------------ top level

    fn parse_top_level(&mut self) -> Result<SqlStatement> {
        if self.at_keyword("create") {
            match self.peek_at(1) {
                t if t.is_keyword("table") => self.parse_create_table(),
                t if t.is_keyword("index") || t.is_keyword("unique") => self.parse_create_index(),
                t if t.is_keyword("function") || t.is_keyword("or") => self.parse_create_function(),
                other => Err(Error::Parse(format!(
                    "unsupported CREATE statement near '{other}'"
                ))),
            }
        } else if self.at_keyword("drop") {
            self.advance();
            self.expect_keyword("table")?;
            let name = self.expect_ident()?;
            Ok(SqlStatement::DropTable { name })
        } else if self.at_keyword("insert") {
            self.parse_insert()
        } else if self.at_keyword("analyze") {
            self.advance();
            // `ANALYZE` alone covers every table; `ANALYZE t` one table.
            let table = match self.peek() {
                Token::Ident(_) => Some(self.expect_ident()?),
                _ => None,
            };
            Ok(SqlStatement::Analyze { table })
        } else if self.at_keyword("select") {
            Ok(SqlStatement::Query(self.parse_select()?))
        } else {
            Err(Error::Parse(format!(
                "unsupported statement starting with '{}'",
                self.peek()
            )))
        }
    }

    fn parse_data_type(&mut self) -> Result<DataType> {
        let name = self.expect_ident()?;
        let ty = match name.as_str() {
            "int" | "integer" | "bigint" | "smallint" => DataType::Int,
            "float" | "real" | "double" | "decimal" | "numeric" | "money" => DataType::Float,
            "char" | "varchar" | "string" | "text" | "nvarchar" => DataType::Str,
            "bool" | "boolean" | "bit" => DataType::Bool,
            other => {
                return Err(Error::Parse(format!("unknown data type '{other}'")));
            }
        };
        // Optional length/precision arguments: char(10), decimal(12,2).
        if self.eat_token(&Token::LParen) {
            while !self.eat_token(&Token::RParen) {
                if self.at_eof() {
                    return Err(Error::Parse("unterminated type arguments".into()));
                }
                self.advance();
            }
        }
        Ok(ty)
    }

    fn is_type_keyword(token: &Token) -> bool {
        matches!(
            token.ident().as_deref(),
            Some(
                "int"
                    | "integer"
                    | "bigint"
                    | "smallint"
                    | "float"
                    | "real"
                    | "double"
                    | "decimal"
                    | "numeric"
                    | "money"
                    | "char"
                    | "varchar"
                    | "string"
                    | "text"
                    | "nvarchar"
                    | "bool"
                    | "boolean"
                    | "bit"
            )
        )
    }

    fn parse_create_table(&mut self) -> Result<SqlStatement> {
        self.expect_keyword("create")?;
        self.expect_keyword("table")?;
        let name = self.expect_ident()?;
        self.expect_token(&Token::LParen)?;
        let mut columns = vec![];
        loop {
            let col_name = self.expect_ident()?;
            let data_type = self.parse_data_type()?;
            let mut column = Column::new(col_name, data_type);
            // Optional column constraints: NOT NULL / PRIMARY KEY (primary key implies
            // not null; both are accepted and otherwise ignored).
            loop {
                if self.eat_keyword("not") {
                    self.expect_keyword("null")?;
                    column = column.not_null();
                } else if self.eat_keyword("primary") {
                    self.expect_keyword("key")?;
                    column = column.not_null();
                } else {
                    break;
                }
            }
            columns.push(column);
            if !self.eat_token(&Token::Comma) {
                break;
            }
        }
        self.expect_token(&Token::RParen)?;
        Ok(SqlStatement::CreateTable { name, columns })
    }

    fn parse_create_index(&mut self) -> Result<SqlStatement> {
        self.expect_keyword("create")?;
        self.eat_keyword("unique");
        self.expect_keyword("index")?;
        // Optional index name.
        if !self.at_keyword("on") {
            self.expect_ident()?;
        }
        self.expect_keyword("on")?;
        let table = self.expect_ident()?;
        self.expect_token(&Token::LParen)?;
        let column = self.expect_ident()?;
        self.expect_token(&Token::RParen)?;
        Ok(SqlStatement::CreateIndex { table, column })
    }

    fn parse_insert(&mut self) -> Result<SqlStatement> {
        self.expect_keyword("insert")?;
        self.expect_keyword("into")?;
        let table = self.expect_ident()?;
        let mut columns = None;
        if self.eat_token(&Token::LParen) {
            let mut cols = vec![];
            loop {
                cols.push(self.expect_ident()?);
                if !self.eat_token(&Token::Comma) {
                    break;
                }
            }
            self.expect_token(&Token::RParen)?;
            columns = Some(cols);
        }
        self.expect_keyword("values")?;
        let mut rows = vec![];
        loop {
            self.expect_token(&Token::LParen)?;
            let mut row = vec![];
            loop {
                row.push(self.parse_expr()?);
                if !self.eat_token(&Token::Comma) {
                    break;
                }
            }
            self.expect_token(&Token::RParen)?;
            rows.push(row);
            if !self.eat_token(&Token::Comma) {
                break;
            }
        }
        Ok(SqlStatement::Insert {
            table,
            columns,
            rows,
        })
    }

    // ------------------------------------------------------------------ SELECT

    fn parse_select(&mut self) -> Result<SelectStatement> {
        self.expect_keyword("select")?;
        let mut select = SelectStatement::default();
        if self.eat_keyword("distinct") {
            select.distinct = true;
        }
        if self.eat_keyword("top") {
            select.limit = Some(self.parse_usize()?);
        }
        // Select list.
        loop {
            select.items.push(self.parse_select_item()?);
            if !self.eat_token(&Token::Comma) {
                break;
            }
        }
        // INTO targets (procedural contexts).
        if self.eat_keyword("into") {
            loop {
                let target = match self.advance() {
                    Token::NamedParam(p) => p,
                    Token::AtVariable(v) => v,
                    Token::Ident(s) => normalize_ident(&s),
                    other => {
                        return Err(Error::Parse(format!(
                            "expected INTO target variable, found '{other}'"
                        )))
                    }
                };
                select.into_targets.push(target);
                if !self.eat_token(&Token::Comma) {
                    break;
                }
            }
        }
        if self.eat_keyword("from") {
            loop {
                select.from.push(self.parse_from_item()?);
                if !self.eat_token(&Token::Comma) {
                    break;
                }
            }
        }
        if self.eat_keyword("where") {
            select.where_clause = Some(self.parse_expr()?);
        }
        if self.eat_keyword("group") {
            self.expect_keyword("by")?;
            loop {
                select.group_by.push(self.parse_expr()?);
                if !self.eat_token(&Token::Comma) {
                    break;
                }
            }
        }
        if self.eat_keyword("having") {
            select.having = Some(self.parse_expr()?);
        }
        if self.eat_keyword("order") {
            self.expect_keyword("by")?;
            loop {
                let expr = self.parse_expr()?;
                let ascending = if self.eat_keyword("desc") {
                    false
                } else {
                    self.eat_keyword("asc");
                    true
                };
                select.order_by.push(OrderByItem { expr, ascending });
                if !self.eat_token(&Token::Comma) {
                    break;
                }
            }
        }
        if self.eat_keyword("limit") {
            select.limit = Some(self.parse_usize()?);
        }
        Ok(select)
    }

    fn parse_usize(&mut self) -> Result<usize> {
        match self.advance() {
            Token::Int(i) if i >= 0 => Ok(i as usize),
            other => Err(Error::Parse(format!(
                "expected non-negative integer, found '{other}'"
            ))),
        }
    }

    fn parse_select_item(&mut self) -> Result<SelectItem> {
        if matches!(self.peek(), Token::Star) {
            self.advance();
            return Ok(SelectItem::Wildcard);
        }
        // t.* qualified wildcard
        if matches!(self.peek(), Token::Ident(_))
            && matches!(self.peek_at(1), Token::Dot)
            && matches!(self.peek_at(2), Token::Star)
        {
            let q = self.expect_ident()?;
            self.advance(); // .
            self.advance(); // *
            return Ok(SelectItem::QualifiedWildcard(q));
        }
        let expr = self.parse_expr()?;
        let mut alias = None;
        if self.eat_keyword("as") {
            alias = Some(self.expect_ident()?);
        } else if let Token::Ident(s) = self.peek() {
            if !RESERVED.contains(&s.to_ascii_lowercase().as_str()) {
                alias = Some(self.expect_ident()?);
            }
        }
        Ok(SelectItem::Expr { expr, alias })
    }

    fn parse_table_ref(&mut self) -> Result<TableRef> {
        let table = self.expect_ident()?;
        let mut alias = None;
        if self.eat_keyword("as") {
            alias = Some(self.expect_ident()?);
        } else if let Token::Ident(s) = self.peek() {
            if !RESERVED.contains(&s.to_ascii_lowercase().as_str()) {
                alias = Some(self.expect_ident()?);
            }
        }
        Ok(TableRef { table, alias })
    }

    fn parse_from_item(&mut self) -> Result<FromItem> {
        let base = self.parse_table_ref()?;
        let mut joins = vec![];
        loop {
            let kind = if self.at_keyword("join") || self.at_keyword("inner") {
                self.eat_keyword("inner");
                self.expect_keyword("join")?;
                JoinKind::Inner
            } else if self.at_keyword("left") {
                self.advance();
                self.eat_keyword("outer");
                self.expect_keyword("join")?;
                JoinKind::LeftOuter
            } else if self.at_keyword("cross") {
                self.advance();
                self.expect_keyword("join")?;
                JoinKind::Cross
            } else {
                break;
            };
            let table = self.parse_table_ref()?;
            let on = if self.eat_keyword("on") {
                Some(self.parse_expr()?)
            } else {
                None
            };
            joins.push(JoinClause { kind, table, on });
        }
        Ok(FromItem { base, joins })
    }

    // ------------------------------------------------------------------ expressions

    fn parse_expr(&mut self) -> Result<ScalarExpr> {
        self.parse_or()
    }

    fn parse_or(&mut self) -> Result<ScalarExpr> {
        let mut left = self.parse_and()?;
        while self.eat_keyword("or") {
            let right = self.parse_and()?;
            left = ScalarExpr::or(left, right);
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> Result<ScalarExpr> {
        let mut left = self.parse_not()?;
        while self.eat_keyword("and") {
            let right = self.parse_not()?;
            left = ScalarExpr::and(left, right);
        }
        Ok(left)
    }

    fn parse_not(&mut self) -> Result<ScalarExpr> {
        if self.eat_keyword("not") {
            let inner = self.parse_not()?;
            return Ok(ScalarExpr::not(inner));
        }
        self.parse_comparison()
    }

    fn parse_comparison(&mut self) -> Result<ScalarExpr> {
        let left = self.parse_additive()?;
        // IS [NOT] NULL
        if self.at_keyword("is") {
            self.advance();
            let negated = self.eat_keyword("not");
            self.expect_keyword("null")?;
            let op = if negated {
                UnaryOp::IsNotNull
            } else {
                UnaryOp::IsNull
            };
            return Ok(ScalarExpr::Unary {
                op,
                expr: Box::new(left),
            });
        }
        // [NOT] IN (subquery | list)
        let negated_in = if self.at_keyword("not") && self.peek_at(1).is_keyword("in") {
            self.advance();
            true
        } else {
            false
        };
        if self.at_keyword("in") {
            self.advance();
            self.expect_token(&Token::LParen)?;
            if self.at_keyword("select") {
                let sub = self.parse_select()?;
                self.expect_token(&Token::RParen)?;
                let plan = plan_select(&sub)?;
                return Ok(ScalarExpr::InSubquery {
                    expr: Box::new(left),
                    subquery: Box::new(plan),
                    negated: negated_in,
                });
            }
            // IN value list → chain of equality comparisons.
            let mut expr: Option<ScalarExpr> = None;
            loop {
                let v = self.parse_expr()?;
                let eq = ScalarExpr::eq(left.clone(), v);
                expr = Some(match expr {
                    Some(acc) => ScalarExpr::or(acc, eq),
                    None => eq,
                });
                if !self.eat_token(&Token::Comma) {
                    break;
                }
            }
            self.expect_token(&Token::RParen)?;
            let mut result = expr.ok_or_else(|| Error::Parse("empty IN list".into()))?;
            if negated_in {
                result = ScalarExpr::not(result);
            }
            return Ok(result);
        }
        let op = match self.peek() {
            Token::Eq => Some(BinaryOp::Eq),
            Token::NotEq => Some(BinaryOp::NotEq),
            Token::Lt => Some(BinaryOp::Lt),
            Token::LtEq => Some(BinaryOp::LtEq),
            Token::Gt => Some(BinaryOp::Gt),
            Token::GtEq => Some(BinaryOp::GtEq),
            _ => None,
        };
        if let Some(op) = op {
            self.advance();
            let right = self.parse_additive()?;
            return Ok(ScalarExpr::binary(op, left, right));
        }
        Ok(left)
    }

    fn parse_additive(&mut self) -> Result<ScalarExpr> {
        let mut left = self.parse_multiplicative()?;
        loop {
            let op = match self.peek() {
                Token::Plus => BinaryOp::Add,
                Token::Minus => BinaryOp::Sub,
                Token::Concat => BinaryOp::Concat,
                _ => break,
            };
            self.advance();
            let right = self.parse_multiplicative()?;
            left = ScalarExpr::binary(op, left, right);
        }
        Ok(left)
    }

    fn parse_multiplicative(&mut self) -> Result<ScalarExpr> {
        let mut left = self.parse_unary()?;
        loop {
            let op = match self.peek() {
                Token::Star => BinaryOp::Mul,
                Token::Slash => BinaryOp::Div,
                Token::Percent => BinaryOp::Mod,
                _ => break,
            };
            self.advance();
            let right = self.parse_unary()?;
            left = ScalarExpr::binary(op, left, right);
        }
        Ok(left)
    }

    fn parse_unary(&mut self) -> Result<ScalarExpr> {
        if self.eat_token(&Token::Minus) {
            let inner = self.parse_unary()?;
            return Ok(ScalarExpr::Unary {
                op: UnaryOp::Neg,
                expr: Box::new(inner),
            });
        }
        if self.eat_token(&Token::Plus) {
            return self.parse_unary();
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> Result<ScalarExpr> {
        match self.peek().clone() {
            Token::Int(i) => {
                self.advance();
                Ok(ScalarExpr::Literal(Value::Int(i)))
            }
            Token::Float(x) => {
                self.advance();
                Ok(ScalarExpr::Literal(Value::Float(x)))
            }
            Token::Str(s) => {
                self.advance();
                Ok(ScalarExpr::Literal(Value::Str(s)))
            }
            Token::NamedParam(p) => {
                self.advance();
                Ok(ScalarExpr::Param(p))
            }
            Token::AtVariable(v) => {
                self.advance();
                Ok(ScalarExpr::Param(v))
            }
            Token::Positional => {
                self.advance();
                Ok(ScalarExpr::Param("?1".to_string()))
            }
            Token::LParen => {
                self.advance();
                if self.at_keyword("select") {
                    let sub = self.parse_select()?;
                    self.expect_token(&Token::RParen)?;
                    let plan = plan_select(&sub)?;
                    return Ok(ScalarExpr::ScalarSubquery(Box::new(plan)));
                }
                let inner = self.parse_expr()?;
                self.expect_token(&Token::RParen)?;
                Ok(inner)
            }
            Token::Ident(name) => {
                let lower = name.to_ascii_lowercase();
                match lower.as_str() {
                    "null" => {
                        self.advance();
                        Ok(ScalarExpr::Literal(Value::Null))
                    }
                    "true" => {
                        self.advance();
                        Ok(ScalarExpr::Literal(Value::Bool(true)))
                    }
                    "false" => {
                        self.advance();
                        Ok(ScalarExpr::Literal(Value::Bool(false)))
                    }
                    "case" => self.parse_case(),
                    "cast" => self.parse_cast(),
                    "exists" => {
                        self.advance();
                        self.expect_token(&Token::LParen)?;
                        self.expect_keyword("select")
                            .map_err(|_| Error::Parse("EXISTS requires a subquery".into()))?;
                        // Back up one token: parse_select expects to consume SELECT.
                        self.pos -= 1;
                        let sub = self.parse_select()?;
                        self.expect_token(&Token::RParen)?;
                        let plan = plan_select(&sub)?;
                        Ok(ScalarExpr::Exists(Box::new(plan)))
                    }
                    _ => {
                        // Function call?
                        if matches!(self.peek_at(1), Token::LParen) {
                            return self.parse_function_call(&lower);
                        }
                        // Qualified or bare column reference.
                        self.advance();
                        if self.eat_token(&Token::Dot) {
                            let col = self.expect_ident()?;
                            Ok(ScalarExpr::qualified_column(lower, col))
                        } else {
                            Ok(ScalarExpr::column(lower))
                        }
                    }
                }
            }
            other => Err(Error::Parse(format!(
                "unexpected token '{other}' in expression"
            ))),
        }
    }

    fn parse_case(&mut self) -> Result<ScalarExpr> {
        self.expect_keyword("case")?;
        let mut branches = vec![];
        let mut else_expr = None;
        while self.eat_keyword("when") {
            let cond = self.parse_expr()?;
            self.expect_keyword("then")?;
            let value = self.parse_expr()?;
            branches.push((cond, value));
        }
        if self.eat_keyword("else") {
            else_expr = Some(Box::new(self.parse_expr()?));
        }
        self.expect_keyword("end")?;
        if branches.is_empty() {
            return Err(Error::Parse(
                "CASE requires at least one WHEN branch".into(),
            ));
        }
        Ok(ScalarExpr::Case {
            branches,
            else_expr,
        })
    }

    fn parse_cast(&mut self) -> Result<ScalarExpr> {
        self.expect_keyword("cast")?;
        self.expect_token(&Token::LParen)?;
        let expr = self.parse_expr()?;
        self.expect_keyword("as")?;
        let data_type = self.parse_data_type()?;
        self.expect_token(&Token::RParen)?;
        Ok(ScalarExpr::Cast {
            expr: Box::new(expr),
            data_type,
        })
    }

    fn parse_function_call(&mut self, name: &str) -> Result<ScalarExpr> {
        self.advance(); // name
        self.expect_token(&Token::LParen)?;
        // count(*) — and any agg(*) — parses as a call with no arguments.
        if matches!(self.peek(), Token::Star) && matches!(self.peek_at(1), Token::RParen) {
            self.advance();
            self.advance();
            return Ok(ScalarExpr::UdfCall {
                name: name.to_string(),
                args: vec![],
            });
        }
        let mut args = vec![];
        if !self.eat_token(&Token::RParen) {
            // Optional DISTINCT inside aggregate calls is accepted and ignored (bag
            // semantics are enough for every workload in the paper).
            self.eat_keyword("distinct");
            loop {
                args.push(self.parse_expr()?);
                if !self.eat_token(&Token::Comma) {
                    break;
                }
            }
            self.expect_token(&Token::RParen)?;
        }
        if name == "coalesce" {
            return Ok(ScalarExpr::Coalesce(args));
        }
        Ok(ScalarExpr::UdfCall {
            name: name.to_string(),
            args,
        })
    }

    // ------------------------------------------------------------------ CREATE FUNCTION

    fn parse_create_function(&mut self) -> Result<SqlStatement> {
        self.expect_keyword("create")?;
        if self.eat_keyword("or") {
            self.expect_keyword("replace")?;
        }
        self.expect_keyword("function")?;
        let name = self.expect_ident()?;
        self.expect_token(&Token::LParen)?;
        let mut params = vec![];
        if !self.eat_token(&Token::RParen) {
            loop {
                params.push(self.parse_udf_parameter()?);
                if !self.eat_token(&Token::Comma) {
                    break;
                }
            }
            self.expect_token(&Token::RParen)?;
        }
        self.expect_keyword("returns")?;
        let mut return_type = DataType::Null;
        let mut returns_table = None;
        let mut result_table_name: Option<String> = None;
        if self.at_keyword("table") {
            self.advance();
            returns_table = Some(self.parse_table_type()?);
        } else if Self::is_type_keyword(self.peek()) {
            return_type = self.parse_data_type()?;
        } else {
            // `returns tt table(…)` — named result table.
            let tname = self.expect_ident()?;
            result_table_name = Some(tname);
            self.expect_keyword("table")?;
            returns_table = Some(self.parse_table_type()?);
        }
        // Optional volatility clause before AS: `VOLATILE` opts out of the executor's
        // dedup/memo machinery, `DETERMINISTIC` spells out the default.
        let mut pure = true;
        let mut purity_declared = false;
        loop {
            if self.eat_keyword("volatile") {
                pure = false;
                purity_declared = true;
            } else if self.eat_keyword("deterministic") {
                pure = true;
                purity_declared = true;
            } else {
                break;
            }
        }
        self.expect_keyword("as")?;
        self.expect_keyword("begin")?;
        let mut ctx = BodyContext {
            result_table: result_table_name,
            cursors: vec![],
        };
        let body = self.parse_block(&mut ctx)?;
        let mut udf = UdfDefinition::new(name, params, return_type, body);
        udf.returns_table = returns_table;
        udf.pure = pure;
        udf.purity_declared = purity_declared;
        Ok(SqlStatement::CreateFunction(udf))
    }

    fn parse_udf_parameter(&mut self) -> Result<UdfParameter> {
        // The paper writes `int ckey`; T-SQL writes `@ckey int`. Accept type-first,
        // name-first and @-prefixed names.
        if Self::is_type_keyword(self.peek()) {
            let ty = self.parse_data_type()?;
            let name = match self.advance() {
                Token::Ident(s) => normalize_ident(&s),
                Token::AtVariable(v) => v,
                other => {
                    return Err(Error::Parse(format!(
                        "expected parameter name, found '{other}'"
                    )))
                }
            };
            Ok(UdfParameter::new(name, ty))
        } else {
            let name = match self.advance() {
                Token::Ident(s) => normalize_ident(&s),
                Token::AtVariable(v) => v,
                other => {
                    return Err(Error::Parse(format!(
                        "expected parameter name, found '{other}'"
                    )))
                }
            };
            let ty = self.parse_data_type()?;
            Ok(UdfParameter::new(name, ty))
        }
    }

    fn parse_table_type(&mut self) -> Result<Schema> {
        self.expect_token(&Token::LParen)?;
        let mut columns = vec![];
        loop {
            let col_name = self.expect_ident()?;
            let ty = self.parse_data_type()?;
            columns.push(Column::new(col_name, ty));
            if !self.eat_token(&Token::Comma) {
                break;
            }
        }
        self.expect_token(&Token::RParen)?;
        Ok(Schema::new(columns))
    }

    /// Parses statements until the matching `end`.
    fn parse_block(&mut self, ctx: &mut BodyContext) -> Result<Vec<Statement>> {
        let mut out = vec![];
        loop {
            self.skip_semicolons();
            if self.eat_keyword("end") {
                break;
            }
            if self.at_eof() {
                return Err(Error::Parse("unterminated BEGIN block".into()));
            }
            out.extend(self.parse_proc_statement(ctx)?);
        }
        Ok(out)
    }

    /// Parses a single procedural statement into the AST nodes it stands for: none for
    /// statements that are consumed but produce no node (cursor open/close/deallocate,
    /// the initial fetch), one `Declare` per variable of `int a = 1, b = 2`, and one
    /// node otherwise.
    fn parse_proc_statement(&mut self, ctx: &mut BodyContext) -> Result<Vec<Statement>> {
        // declare c cursor for <select>  |  declare x int [= expr]
        if self.at_keyword("declare") {
            if self.peek_at(2).is_keyword("cursor") {
                self.advance(); // declare
                let name = self.expect_ident()?;
                self.expect_keyword("cursor")?;
                self.expect_keyword("for")?;
                let query = self.parse_select()?;
                ctx.cursors.push(CursorDecl {
                    name,
                    query,
                    fetch_vars: vec![],
                });
                return Ok(vec![]);
            }
            self.advance(); // declare
            let name = self.parse_variable_name()?;
            let data_type = self.parse_data_type()?;
            let init = if self.eat_token(&Token::Eq) {
                Some(self.parse_expr()?)
            } else {
                None
            };
            return Ok(vec![Statement::Declare {
                name,
                data_type,
                init,
            }]);
        }
        // open / close / deallocate <cursor>
        if self.at_keyword("open") || self.at_keyword("close") || self.at_keyword("deallocate") {
            self.advance();
            self.expect_ident()?;
            return Ok(vec![]);
        }
        // fetch next from c into @a, @b
        if self.at_keyword("fetch") {
            let (cursor, vars) = self.parse_fetch()?;
            if let Some(c) = ctx.cursors.iter_mut().find(|c| c.name == cursor) {
                if c.fetch_vars.is_empty() {
                    c.fetch_vars = vars;
                }
            } else {
                return Err(Error::Parse(format!(
                    "fetch from undeclared cursor '{cursor}'"
                )));
            }
            return Ok(vec![]);
        }
        // while <cond> …
        if self.at_keyword("while") {
            return Ok(vec![self.parse_while(ctx)?]);
        }
        // if (<cond>) …
        if self.at_keyword("if") {
            return Ok(vec![self.parse_if(ctx)?]);
        }
        // return [expr]
        if self.eat_keyword("return") {
            if matches!(self.peek(), Token::Semicolon) || self.peek().is_keyword("end") {
                return Ok(vec![Statement::Return { expr: None }]);
            }
            // `return tt;` for a table-valued UDF returns no scalar expression.
            if let Token::Ident(id) = self.peek() {
                if ctx
                    .result_table
                    .as_deref()
                    .map(|t| t.eq_ignore_ascii_case(id))
                    .unwrap_or(false)
                {
                    self.advance();
                    return Ok(vec![Statement::Return { expr: None }]);
                }
            }
            // `return select …` — a scalar query as return value (Example 4).
            if self.at_keyword("select") {
                let select = self.parse_select()?;
                let plan = plan_select(&select)?;
                return Ok(vec![Statement::Return {
                    expr: Some(ScalarExpr::ScalarSubquery(Box::new(plan))),
                }]);
            }
            let expr = self.parse_expr()?;
            return Ok(vec![Statement::Return { expr: Some(expr) }]);
        }
        // select … into …
        if self.at_keyword("select") {
            let select = self.parse_select()?;
            if select.into_targets.is_empty() {
                return Err(Error::Parse(
                    "SELECT inside a function body must have an INTO clause".into(),
                ));
            }
            let targets = select.into_targets.clone();
            let plan = plan_select(&select)?;
            return Ok(vec![Statement::SelectInto {
                query: plan,
                targets,
            }]);
        }
        // insert into <result table> values (…)
        if self.at_keyword("insert") {
            self.advance();
            self.expect_keyword("into")?;
            let table = self.expect_ident()?;
            let inserts_into_result = ctx
                .result_table
                .as_deref()
                .map(|r| r.eq_ignore_ascii_case(&table))
                .unwrap_or(false);
            if !inserts_into_result {
                return Err(Error::Unsupported(format!(
                    "INSERT into base table '{table}' inside a UDF (side effects are not \
                     supported)"
                )));
            }
            self.expect_keyword("values")?;
            self.expect_token(&Token::LParen)?;
            let mut values = vec![];
            loop {
                values.push(self.parse_expr()?);
                if !self.eat_token(&Token::Comma) {
                    break;
                }
            }
            self.expect_token(&Token::RParen)?;
            return Ok(vec![Statement::InsertIntoResult { values }]);
        }
        // set x = expr
        if self.eat_keyword("set") {
            let name = self.parse_variable_name()?;
            self.expect_token(&Token::Eq)?;
            let expr = self.parse_expr()?;
            return Ok(vec![Statement::Assign { name, expr }]);
        }
        // <type> x [= expr][, y [= expr]]…   (C-style declarations used by the paper),
        // one `Declare` per variable in the enclosing block
        if Self::is_type_keyword(self.peek()) && !matches!(self.peek_at(1), Token::LParen) {
            let data_type = self.parse_data_type()?;
            let mut decls = vec![];
            loop {
                let name = self.parse_variable_name()?;
                let init = if self.eat_token(&Token::Eq) {
                    Some(self.parse_expr()?)
                } else {
                    None
                };
                decls.push(Statement::Declare {
                    name,
                    data_type,
                    init,
                });
                if !self.eat_token(&Token::Comma) {
                    break;
                }
            }
            return Ok(decls);
        }
        // assignment: x = expr   or   @x = expr
        if matches!(self.peek(), Token::Ident(_) | Token::AtVariable(_))
            && matches!(self.peek_at(1), Token::Eq)
        {
            let name = self.parse_variable_name()?;
            self.expect_token(&Token::Eq)?;
            let expr = self.parse_expr()?;
            return Ok(vec![Statement::Assign { name, expr }]);
        }
        Err(Error::Parse(format!(
            "unsupported statement in function body near '{}'",
            self.peek()
        )))
    }

    fn parse_variable_name(&mut self) -> Result<String> {
        match self.advance() {
            Token::Ident(s) => Ok(normalize_ident(&s)),
            Token::AtVariable(v) => Ok(v),
            Token::NamedParam(p) => Ok(p),
            other => Err(Error::Parse(format!(
                "expected variable name, found '{other}'"
            ))),
        }
    }

    /// Parses `fetch next from <cursor> into @a, @b, …` and returns (cursor, vars).
    fn parse_fetch(&mut self) -> Result<(String, Vec<String>)> {
        self.expect_keyword("fetch")?;
        self.eat_keyword("next");
        self.expect_keyword("from")?;
        let cursor = self.expect_ident()?;
        self.expect_keyword("into")?;
        let mut vars = vec![];
        loop {
            vars.push(self.parse_variable_name()?);
            if !self.eat_token(&Token::Comma) {
                break;
            }
        }
        Ok((cursor, vars))
    }

    fn parse_if(&mut self, ctx: &mut BodyContext) -> Result<Statement> {
        self.expect_keyword("if")?;
        let condition = if self.eat_token(&Token::LParen) {
            let c = self.parse_expr()?;
            self.expect_token(&Token::RParen)?;
            c
        } else {
            self.parse_expr()?
        };
        let then_branch = self.parse_branch(ctx)?;
        let mut else_branch = vec![];
        if self.eat_keyword("else") {
            if self.at_keyword("if") {
                else_branch = vec![self.parse_if(ctx)?];
            } else {
                else_branch = self.parse_branch(ctx)?;
            }
        }
        Ok(Statement::If {
            condition,
            then_branch,
            else_branch,
        })
    }

    /// Parses either a `begin … end` block or a single statement, as the body of an
    /// if/else arm.
    fn parse_branch(&mut self, ctx: &mut BodyContext) -> Result<Vec<Statement>> {
        if self.eat_keyword("begin") {
            return self.parse_block(ctx);
        }
        let stmts = self.parse_proc_statement(ctx)?;
        self.skip_semicolons();
        Ok(stmts)
    }

    fn parse_while(&mut self, ctx: &mut BodyContext) -> Result<Statement> {
        self.expect_keyword("while")?;
        let condition = if self.eat_token(&Token::LParen) {
            let c = self.parse_expr()?;
            self.expect_token(&Token::RParen)?;
            c
        } else {
            self.parse_expr()?
        };
        // Is this the cursor-loop idiom `while @@fetch_status = 0`?
        let is_cursor_loop = expr_mentions_fetch_status(&condition);
        if is_cursor_loop {
            let cursor = ctx
                .cursors
                .last()
                .ok_or_else(|| Error::Parse("cursor loop without a declared cursor".into()))?;
            let query = cursor.query.clone();
            let fetch_vars = cursor.fetch_vars.clone();
            if fetch_vars.is_empty() {
                return Err(Error::Parse(
                    "cursor loop without an initial FETCH … INTO".into(),
                ));
            }
            let body = self.parse_cursor_loop_body(ctx)?;
            let plan = plan_select(&query)?;
            return Ok(Statement::CursorLoop {
                query: plan,
                fetch_vars,
                body,
            });
        }
        // Plain while loop: body is a begin…end block or a single statement.
        let body = self.parse_branch(ctx)?;
        Ok(Statement::While { condition, body })
    }

    /// Parses the body of a `while @@fetch_status = 0` loop. The body either is a
    /// `begin … end` block, or (as in the paper's Example 5) runs until the `close`
    /// statement that follows the loop. Interior `fetch next` statements (the loop
    /// advance) are dropped.
    fn parse_cursor_loop_body(&mut self, ctx: &mut BodyContext) -> Result<Vec<Statement>> {
        let mut out = vec![];
        if self.eat_keyword("begin") {
            loop {
                self.skip_semicolons();
                if self.eat_keyword("end") {
                    break;
                }
                if self.at_eof() {
                    return Err(Error::Parse("unterminated cursor loop body".into()));
                }
                if self.at_keyword("fetch") {
                    self.parse_fetch()?;
                    continue;
                }
                out.extend(self.parse_proc_statement(ctx)?);
            }
            return Ok(out);
        }
        loop {
            self.skip_semicolons();
            if self.at_keyword("close") || self.at_keyword("deallocate") || self.at_keyword("end") {
                break;
            }
            if self.at_eof() {
                return Err(Error::Parse("unterminated cursor loop body".into()));
            }
            if self.at_keyword("fetch") {
                self.parse_fetch()?;
                continue;
            }
            // `return` terminates the loop body (it belongs to the statements after the
            // loop in the paper's layout).
            if self.at_keyword("return") {
                break;
            }
            out.extend(self.parse_proc_statement(ctx)?);
        }
        Ok(out)
    }
}

struct BodyContext {
    result_table: Option<String>,
    cursors: Vec<CursorDecl>,
}

fn expr_mentions_fetch_status(expr: &ScalarExpr) -> bool {
    match expr {
        ScalarExpr::Param(p) => p.contains("fetch_status"),
        ScalarExpr::Column(c) => c.name.contains("fetch_status"),
        other => other
            .children()
            .iter()
            .any(|c| expr_mentions_fetch_status(c)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analyze_statement_parses_with_and_without_a_table() {
        match parse_statement("analyze orders").unwrap() {
            SqlStatement::Analyze { table } => assert_eq!(table.as_deref(), Some("orders")),
            other => panic!("unexpected statement {other:?}"),
        }
        match parse_statement("ANALYZE").unwrap() {
            SqlStatement::Analyze { table } => assert_eq!(table, None),
            other => panic!("unexpected statement {other:?}"),
        }
        // Statement lists mix ANALYZE with other statements.
        let statements = parse_statements("create table t(x int); analyze t; analyze").unwrap();
        let kinds: Vec<&str> = statements.iter().map(|s| s.kind()).collect();
        assert_eq!(kinds, vec!["create-table", "analyze", "analyze"]);
    }
}
