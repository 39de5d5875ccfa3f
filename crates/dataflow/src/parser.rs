//! Parser for the Pig-Latin-like script language.
//!
//! The grammar covers the relational subset exercised by the paper's
//! evaluation scripts (§6, Fig. 8):
//!
//! ```text
//! stmt   := alias '=' LOAD 'file' AS '(' col (',' col)* ')' ';'
//!         | alias '=' FILTER src BY expr ';'
//!         | alias '=' GROUP src BY col ';'
//!         | alias '=' FOREACH src GENERATE gen (',' gen)* ';'
//!         | alias '=' JOIN src BY col ',' src BY col ';'
//!         | alias '=' UNION src ',' src ';'
//!         | alias '=' DISTINCT src ';'
//!         | alias '=' ORDER src BY col (ASC|DESC)? ';'
//!         | alias '=' LIMIT src int ';'
//!         | STORE src INTO 'file' ';'
//! gen    := expr (AS name)?
//! expr   := the usual precedence tower with OR/AND/NOT, comparisons,
//!           IS (NOT)? NULL, + - * / %, integer and 'string' literals,
//!           column names, and COUNT/SUM/AVG/MIN/MAX(alias(.field)?)
//! ```
//!
//! Keywords are case-insensitive; aliases and column names are
//! case-sensitive identifiers. An expression may nest at most
//! [`MAX_EXPR_DEPTH`] levels deep.

use std::collections::HashMap;

use crate::error::{ParseError, PlanError};
use crate::expr::{AggFunc, ArithOp, CmpOp, Expr};
use crate::op::SortOrder;
use crate::plan::{LogicalPlan, PlanBuilder, VertexId};
use crate::value::Schema;

/// How deep an expression may nest: its tree may be at most this many
/// nodes deep (a column or literal is one, each operator above it one
/// more, so `t` terms joined by `+` are `t` deep), and the expression
/// with the parenthesised groups, `NOT`s and unary minuses inside it may
/// nest at most this many levels. A script past either bound is a parse
/// error naming its line. The parser recurses once per level and every
/// consumer of an [`Expr`] (evaluation, folding, the batch kernels, its
/// drop) once per node, so the bound is what keeps one script from
/// overflowing the stack of the thread it runs on, a `cbftd` slot's
/// 2 MiB included: at the bound an unoptimized build's parser uses about
/// half of it, a release build's about a tenth.
pub(crate) const MAX_EXPR_DEPTH: usize = 128;

/// A parsed script, convertible into a [`LogicalPlan`].
///
/// # Examples
///
/// ```
/// use cbft_dataflow::Script;
///
/// let script = Script::parse(
///     "a = LOAD 'in' AS (x, y);
///      b = FILTER a BY x > 3 AND y IS NOT NULL;
///      STORE b INTO 'out';",
/// )?;
/// assert_eq!(script.plan().len(), 3);
/// # Ok::<(), cbft_dataflow::ParseError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Script {
    plan: LogicalPlan,
    source: String,
}

impl Script {
    /// Parses `source` into a script.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] carrying the offending line on syntax
    /// errors, references to undefined aliases or columns, and structural
    /// errors (e.g. a script with no `STORE`).
    pub fn parse(source: &str) -> Result<Script, ParseError> {
        let tokens = tokenize(source)?;
        let mut p = Parser {
            tokens,
            pos: 0,
            builder: PlanBuilder::new(),
            bag_elem: HashMap::new(),
            store_lines: HashMap::new(),
            depth: 0,
        };
        p.parse_script()?;
        let plan = p
            .builder
            .build()
            .map_err(|e| ParseError::new(e.to_string(), None))?;
        Ok(Script {
            plan,
            source: source.to_owned(),
        })
    }

    /// The logical plan of the script.
    pub fn plan(&self) -> &LogicalPlan {
        &self.plan
    }

    /// Consumes the script, returning its plan.
    pub fn into_plan(self) -> LogicalPlan {
        self.plan
    }

    /// The original source text.
    pub fn source(&self) -> &str {
        &self.source
    }
}

#[derive(Clone, Debug, PartialEq)]
enum Tok {
    Ident(String),
    Kw(Kw),
    Int(i64),
    Str(String),
    Sym(&'static str),
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kw {
    Load,
    As,
    Filter,
    By,
    Group,
    Foreach,
    Generate,
    Join,
    Union,
    Distinct,
    Order,
    Asc,
    Desc,
    Limit,
    Store,
    Into,
    And,
    Or,
    Not,
    Is,
    Null,
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

fn keyword(word: &str) -> Option<Kw> {
    Some(match word.to_ascii_uppercase().as_str() {
        "LOAD" => Kw::Load,
        "AS" => Kw::As,
        "FILTER" => Kw::Filter,
        "BY" => Kw::By,
        "GROUP" => Kw::Group,
        "FOREACH" => Kw::Foreach,
        "GENERATE" => Kw::Generate,
        "JOIN" => Kw::Join,
        "UNION" => Kw::Union,
        "DISTINCT" => Kw::Distinct,
        "ORDER" => Kw::Order,
        "ASC" => Kw::Asc,
        "DESC" => Kw::Desc,
        "LIMIT" => Kw::Limit,
        "STORE" => Kw::Store,
        "INTO" => Kw::Into,
        "AND" => Kw::And,
        "OR" => Kw::Or,
        "NOT" => Kw::Not,
        "IS" => Kw::Is,
        "NULL" => Kw::Null,
        "COUNT" => Kw::Count,
        "SUM" => Kw::Sum,
        "AVG" => Kw::Avg,
        "MIN" => Kw::Min,
        "MAX" => Kw::Max,
        _ => return None,
    })
}

// `group` is a schema column name after GROUP, so it is context-sensitive:
// the tokenizer emits Kw::Group and the expression parser converts it back
// to an identifier where a column is expected.
const GROUP_COLUMN: &str = "group";

#[derive(Clone, Debug)]
struct Spanned {
    tok: Tok,
    line: usize,
}

fn tokenize(source: &str) -> Result<Vec<Spanned>, ParseError> {
    let mut out = Vec::new();
    let mut line = 1usize;
    let bytes: Vec<char> = source.chars().collect();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '-' if bytes.get(i + 1) == Some(&'-') => {
                // Pig-style line comment.
                while i < bytes.len() && bytes[i] != '\n' {
                    i += 1;
                }
            }
            '\'' => {
                let start = i + 1;
                let mut j = start;
                while j < bytes.len() && bytes[j] != '\'' {
                    if bytes[j] == '\n' {
                        return Err(ParseError::new("unterminated string literal", Some(line)));
                    }
                    j += 1;
                }
                if j == bytes.len() {
                    return Err(ParseError::new("unterminated string literal", Some(line)));
                }
                out.push(Spanned {
                    tok: Tok::Str(bytes[start..j].iter().collect()),
                    line,
                });
                i = j + 1;
            }
            c if c.is_ascii_digit() => {
                let mut j = i;
                while j < bytes.len() && bytes[j].is_ascii_digit() {
                    j += 1;
                }
                let text: String = bytes[i..j].iter().collect();
                let n: i64 = text.parse().map_err(|_| {
                    ParseError::new(format!("integer literal too large: {text}"), Some(line))
                })?;
                out.push(Spanned {
                    tok: Tok::Int(n),
                    line,
                });
                i = j;
            }
            c if c.is_alphabetic() || c == '_' => {
                let mut j = i;
                while j < bytes.len() && (bytes[j].is_alphanumeric() || bytes[j] == '_') {
                    j += 1;
                }
                let word: String = bytes[i..j].iter().collect();
                let tok = match keyword(&word) {
                    Some(kw) => Tok::Kw(kw),
                    None => Tok::Ident(word),
                };
                out.push(Spanned { tok, line });
                i = j;
            }
            _ => {
                let two: String = bytes[i..(i + 2).min(bytes.len())].iter().collect();
                let sym2 = match two.as_str() {
                    "==" => Some("=="),
                    "!=" => Some("!="),
                    "<=" => Some("<="),
                    ">=" => Some(">="),
                    "::" => Some("::"),
                    _ => None,
                };
                if let Some(s) = sym2 {
                    out.push(Spanned {
                        tok: Tok::Sym(s),
                        line,
                    });
                    i += 2;
                    continue;
                }
                let sym1 = match c {
                    '=' => "=",
                    ';' => ";",
                    ',' => ",",
                    '(' => "(",
                    ')' => ")",
                    '<' => "<",
                    '>' => ">",
                    '+' => "+",
                    '-' => "-",
                    '*' => "*",
                    '/' => "/",
                    '%' => "%",
                    '.' => ".",
                    other => {
                        return Err(ParseError::new(
                            format!("unexpected character {other:?}"),
                            Some(line),
                        ))
                    }
                };
                out.push(Spanned {
                    tok: Tok::Sym(sym1),
                    line,
                });
                i += 1;
            }
        }
    }
    Ok(out)
}

struct Parser {
    tokens: Vec<Spanned>,
    pos: usize,
    builder: PlanBuilder,
    /// For GROUP vertices: the element schema of the bag column, needed to
    /// resolve `SUM(alias.field)` in a downstream FOREACH.
    bag_elem: HashMap<VertexId, Schema>,
    /// Source line of each STORE statement, by vertex id.
    store_lines: HashMap<usize, usize>,
    /// Parenthesised groups, `NOT`s and unary minuses open at the
    /// cursor (see [`MAX_EXPR_DEPTH`]).
    depth: usize,
}

impl Parser {
    fn parse_script(&mut self) -> Result<(), ParseError> {
        while self.pos < self.tokens.len() {
            self.parse_statement()?;
        }
        Ok(())
    }

    fn parse_statement(&mut self) -> Result<(), ParseError> {
        let line = self.tokens[self.pos].line;
        if self.eat_kw(Kw::Store) {
            let src = self.expect_alias()?;
            self.expect_kw(Kw::Into)?;
            let output = self.expect_str()?;
            self.expect_sym(";")?;
            let id = self.builder.add_store(src, &output).map_err(|e| {
                let mut message = e.to_string();
                if let PlanError::DuplicateStore { first, .. } = &e {
                    if let Some(first) = self.store_lines.get(first) {
                        message += &format!(" (the STORE statements on lines {first} and {line})");
                    }
                }
                ParseError::new(message, Some(line))
            })?;
            self.store_lines.insert(id.0, line);
            return Ok(());
        }
        let alias = self.expect_ident()?;
        self.expect_sym("=")?;
        let id = self.parse_rhs(&alias)?;
        self.expect_sym(";")?;
        self.builder
            .set_alias(id, &alias)
            .map_err(|e| self.err(e.to_string()))?;
        Ok(())
    }

    fn parse_rhs(&mut self, alias: &str) -> Result<VertexId, ParseError> {
        if self.eat_kw(Kw::Load) {
            let input = self.expect_str()?;
            self.expect_kw(Kw::As)?;
            self.expect_sym("(")?;
            let mut cols = vec![self.expect_ident()?];
            while self.eat_sym(",") {
                cols.push(self.expect_ident()?);
            }
            self.expect_sym(")")?;
            let refs: Vec<&str> = cols.iter().map(String::as_str).collect();
            return self
                .builder
                .add_load(&input, &refs)
                .map_err(|e| self.err(e.to_string()));
        }
        if self.eat_kw(Kw::Filter) {
            let src = self.expect_alias()?;
            self.expect_kw(Kw::By)?;
            let schema = self
                .builder
                .schema_of(src)
                .map_err(|e| self.err(e.to_string()))?
                .clone();
            let pred = self.parse_expr(&schema)?;
            return self
                .builder
                .add_filter(src, pred)
                .map_err(|e| self.err(e.to_string()));
        }
        if self.eat_kw(Kw::Group) {
            let src = self.expect_alias()?;
            self.expect_kw(Kw::By)?;
            let schema = self
                .builder
                .schema_of(src)
                .map_err(|e| self.err(e.to_string()))?
                .clone();
            let col = self.expect_column(&schema)?;
            let id = self
                .builder
                .add_group(src, col)
                .map_err(|e| self.err(e.to_string()))?;
            self.bag_elem.insert(id, schema);
            return Ok(id);
        }
        if self.eat_kw(Kw::Foreach) {
            let src = self.expect_alias()?;
            self.expect_kw(Kw::Generate)?;
            let schema = self
                .builder
                .schema_of(src)
                .map_err(|e| self.err(e.to_string()))?
                .clone();
            let elem = self.bag_elem.get(&src).cloned();
            let mut gens = Vec::new();
            loop {
                let expr = self.parse_gen_expr(&schema, elem.as_ref())?;
                let name = if self.eat_kw(Kw::As) {
                    self.expect_ident()?
                } else {
                    default_gen_name(&expr, &schema, gens.len())
                };
                gens.push((expr, name));
                if !self.eat_sym(",") {
                    break;
                }
            }
            return self
                .builder
                .add_project(src, gens)
                .map_err(|e| self.err(e.to_string()));
        }
        if self.eat_kw(Kw::Join) {
            let left = self.expect_alias()?;
            self.expect_kw(Kw::By)?;
            let ls = self
                .builder
                .schema_of(left)
                .map_err(|e| self.err(e.to_string()))?
                .clone();
            let lk = self.expect_column(&ls)?;
            self.expect_sym(",")?;
            let right = self.expect_alias()?;
            self.expect_kw(Kw::By)?;
            let rs = self
                .builder
                .schema_of(right)
                .map_err(|e| self.err(e.to_string()))?
                .clone();
            let rk = self.expect_column(&rs)?;
            return self
                .builder
                .add_join(left, lk, right, rk)
                .map_err(|e| self.err(e.to_string()));
        }
        if self.eat_kw(Kw::Union) {
            let left = self.expect_alias()?;
            self.expect_sym(",")?;
            let right = self.expect_alias()?;
            return self
                .builder
                .add_union(left, right)
                .map_err(|e| self.err(e.to_string()));
        }
        if self.eat_kw(Kw::Distinct) {
            let src = self.expect_alias()?;
            return self
                .builder
                .add_distinct(src)
                .map_err(|e| self.err(e.to_string()));
        }
        if self.eat_kw(Kw::Order) {
            let src = self.expect_alias()?;
            self.expect_kw(Kw::By)?;
            let schema = self
                .builder
                .schema_of(src)
                .map_err(|e| self.err(e.to_string()))?
                .clone();
            let col = self.expect_column(&schema)?;
            let order = if self.eat_kw(Kw::Desc) {
                SortOrder::Desc
            } else {
                self.eat_kw(Kw::Asc);
                SortOrder::Asc
            };
            return self
                .builder
                .add_order(src, col, order)
                .map_err(|e| self.err(e.to_string()));
        }
        if self.eat_kw(Kw::Limit) {
            let src = self.expect_alias()?;
            let n = self.expect_int()?;
            if n < 0 {
                return Err(self.err("LIMIT count must be non-negative"));
            }
            return self
                .builder
                .add_limit(src, n as u64)
                .map_err(|e| self.err(e.to_string()));
        }
        Err(self.err(format!("expected a relational operator after `{alias} =`")))
    }

    // --- expressions -----------------------------------------------------

    fn parse_expr(&mut self, schema: &Schema) -> Result<Expr, ParseError> {
        self.parse_gen_expr(schema, None)
    }

    fn parse_gen_expr(
        &mut self,
        schema: &Schema,
        elem: Option<&Schema>,
    ) -> Result<Expr, ParseError> {
        self.parse_or(schema, elem)
    }

    /// Opens one more level of recursion (the expression of a
    /// parenthesised group, a `NOT` or a unary minus operand), failing
    /// past [`MAX_EXPR_DEPTH`]; the caller closes it when the level parsed.
    fn descend(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > MAX_EXPR_DEPTH {
            return Err(self.too_deep());
        }
        Ok(())
    }

    /// `expr`, if its tree is at most [`MAX_EXPR_DEPTH`] deep. Its
    /// operands were checked when they were built, so `depth` recurses
    /// at most that far.
    fn bounded(&self, expr: Expr) -> Result<Expr, ParseError> {
        if expr.depth() > MAX_EXPR_DEPTH {
            return Err(self.too_deep());
        }
        Ok(expr)
    }

    fn too_deep(&self) -> ParseError {
        self.err(format!(
            "expression nested deeper than {MAX_EXPR_DEPTH} levels"
        ))
    }

    fn parse_or(&mut self, s: &Schema, e: Option<&Schema>) -> Result<Expr, ParseError> {
        self.descend()?;
        let mut lhs = self.parse_and(s, e)?;
        while self.eat_kw(Kw::Or) {
            let rhs = self.parse_and(s, e)?;
            lhs = self.bounded(Expr::Or(Box::new(lhs), Box::new(rhs)))?;
        }
        self.depth -= 1;
        Ok(lhs)
    }

    fn parse_and(&mut self, s: &Schema, e: Option<&Schema>) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_not(s, e)?;
        while self.eat_kw(Kw::And) {
            let rhs = self.parse_not(s, e)?;
            lhs = self.bounded(Expr::And(Box::new(lhs), Box::new(rhs)))?;
        }
        Ok(lhs)
    }

    fn parse_not(&mut self, s: &Schema, e: Option<&Schema>) -> Result<Expr, ParseError> {
        if self.eat_kw(Kw::Not) {
            self.descend()?;
            let inner = self.parse_not(s, e)?;
            self.depth -= 1;
            return self.bounded(Expr::Not(Box::new(inner)));
        }
        self.parse_cmp(s, e)
    }

    fn parse_cmp(&mut self, s: &Schema, e: Option<&Schema>) -> Result<Expr, ParseError> {
        let lhs = self.parse_add(s, e)?;
        if self.eat_kw(Kw::Is) {
            let negated = self.eat_kw(Kw::Not);
            self.expect_kw(Kw::Null)?;
            let test = Expr::IsNull(Box::new(lhs));
            return self.bounded(if negated {
                Expr::Not(Box::new(test))
            } else {
                test
            });
        }
        let op = match self.peek_sym() {
            Some("==") => CmpOp::Eq,
            Some("!=") => CmpOp::Ne,
            Some("<=") => CmpOp::Le,
            Some(">=") => CmpOp::Ge,
            Some("<") => CmpOp::Lt,
            Some(">") => CmpOp::Gt,
            _ => return Ok(lhs),
        };
        self.pos += 1;
        let rhs = self.parse_add(s, e)?;
        self.bounded(Expr::cmp(op, lhs, rhs))
    }

    fn parse_add(&mut self, s: &Schema, e: Option<&Schema>) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_mul(s, e)?;
        loop {
            let op = match self.peek_sym() {
                Some("+") => ArithOp::Add,
                Some("-") => ArithOp::Sub,
                _ => return Ok(lhs),
            };
            self.pos += 1;
            let rhs = self.parse_mul(s, e)?;
            lhs = self.bounded(Expr::arith(op, lhs, rhs))?;
        }
    }

    fn parse_mul(&mut self, s: &Schema, e: Option<&Schema>) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_primary(s, e)?;
        loop {
            let op = match self.peek_sym() {
                Some("*") => ArithOp::Mul,
                Some("/") => ArithOp::Div,
                Some("%") => ArithOp::Mod,
                _ => return Ok(lhs),
            };
            self.pos += 1;
            let rhs = self.parse_primary(s, e)?;
            lhs = self.bounded(Expr::arith(op, lhs, rhs))?;
        }
    }

    fn parse_primary(&mut self, s: &Schema, e: Option<&Schema>) -> Result<Expr, ParseError> {
        if self.eat_sym("(") {
            let inner = self.parse_or(s, e)?;
            self.expect_sym(")")?;
            return Ok(inner);
        }
        if let Some(agg) = self.peek_agg_kw() {
            self.pos += 1;
            self.expect_sym("(")?;
            let expr = self.parse_agg_args(agg, s, e)?;
            self.expect_sym(")")?;
            return Ok(expr);
        }
        if self.eat_kw(Kw::Null) {
            return Ok(Expr::NullLit);
        }
        if self.eat_sym("-") {
            // Unary minus: fold literals, otherwise negate via 0 - expr.
            self.descend()?;
            let inner = self.parse_primary(s, e)?;
            self.depth -= 1;
            return match inner {
                Expr::IntLit(n) => Ok(Expr::IntLit(n.wrapping_neg())),
                other => self.bounded(Expr::arith(ArithOp::Sub, Expr::IntLit(0), other)),
            };
        }
        match self.next_tok() {
            Some((Tok::Int(n), _)) => Ok(Expr::IntLit(n)),
            Some((Tok::Str(lit), _)) => Ok(Expr::StrLit(lit)),
            Some((Tok::Ident(name), line)) => {
                let name = self.qualified_name(name)?;
                match s.resolve(&name) {
                    Some(i) => Ok(Expr::Col(i)),
                    None => Err(ParseError::new(
                        format!("unknown column `{name}`"),
                        Some(line),
                    )),
                }
            }
            // Soft keywords double as column names.
            Some((ref tok, line)) if Self::soft_ident(tok).is_some() => {
                let name = Self::soft_ident(tok).expect("just checked");
                let name = self.qualified_name(name.to_owned())?;
                match s.resolve(&name) {
                    Some(i) => Ok(Expr::Col(i)),
                    None => Err(ParseError::new(
                        format!("unknown column `{name}`"),
                        Some(line),
                    )),
                }
            }
            // `group` is a keyword but also the key column name after GROUP.
            Some((Tok::Kw(Kw::Group), line)) => match s.resolve(GROUP_COLUMN) {
                Some(i) => Ok(Expr::Col(i)),
                None => Err(ParseError::new(
                    "`group` column only exists after a GROUP operator",
                    Some(line),
                )),
            },
            Some((other, line)) => Err(ParseError::new(
                format!("unexpected token {other:?} in expression"),
                Some(line),
            )),
            None => Err(self.err("unexpected end of script in expression")),
        }
    }

    fn parse_agg_args(
        &mut self,
        func: AggFunc,
        s: &Schema,
        elem: Option<&Schema>,
    ) -> Result<Expr, ParseError> {
        let bag_name = self.expect_ident()?;
        let bag_col = s
            .resolve(&bag_name)
            .ok_or_else(|| self.err(format!("unknown bag column `{bag_name}`")))?;
        let field = if self.eat_sym(".") {
            let field_name = self.expect_ident()?;
            let elem = elem.ok_or_else(|| {
                self.err(format!(
                    "`{bag_name}.{field_name}`: aggregate field access requires a GROUP input"
                ))
            })?;
            Some(elem.resolve(&field_name).ok_or_else(|| {
                self.err(format!("unknown field `{field_name}` in bag `{bag_name}`"))
            })?)
        } else {
            None
        };
        if field.is_none() && func != AggFunc::Count {
            return Err(self.err(format!(
                "{func:?} requires a field, e.g. SUM({bag_name}.column)"
            )));
        }
        Ok(Expr::Agg {
            func,
            bag_col,
            field,
        })
    }

    /// Consumes an optional `::`-qualified continuation of an identifier
    /// (e.g. `a::user`).
    fn qualified_name(&mut self, first: String) -> Result<String, ParseError> {
        if self.eat_sym("::") {
            let rest = self.expect_ident()?;
            Ok(format!("{first}::{rest}"))
        } else {
            Ok(first)
        }
    }

    // --- token helpers ----------------------------------------------------

    fn peek(&self) -> Option<&Spanned> {
        self.tokens.get(self.pos)
    }

    fn next_tok(&mut self) -> Option<(Tok, usize)> {
        let t = self.tokens.get(self.pos)?.clone();
        self.pos += 1;
        Some((t.tok, t.line))
    }

    fn peek_sym(&self) -> Option<&'static str> {
        match self.peek().map(|s| &s.tok) {
            Some(Tok::Sym(s)) => Some(s),
            _ => None,
        }
    }

    /// Aggregate names are *soft* keywords: `COUNT` is a function only when
    /// followed by `(`, so `avg` remains usable as an alias or column name.
    fn peek_agg_kw(&self) -> Option<AggFunc> {
        let func = match self.peek().map(|s| &s.tok) {
            Some(Tok::Kw(Kw::Count)) => AggFunc::Count,
            Some(Tok::Kw(Kw::Sum)) => AggFunc::Sum,
            Some(Tok::Kw(Kw::Avg)) => AggFunc::Avg,
            Some(Tok::Kw(Kw::Min)) => AggFunc::Min,
            Some(Tok::Kw(Kw::Max)) => AggFunc::Max,
            _ => return None,
        };
        match self.tokens.get(self.pos + 1).map(|s| &s.tok) {
            Some(Tok::Sym("(")) => Some(func),
            _ => None,
        }
    }

    /// The lowercase identifier spelling of a soft keyword, if the token is
    /// one (aggregate functions double as ordinary identifiers).
    fn soft_ident(tok: &Tok) -> Option<&'static str> {
        match tok {
            Tok::Kw(Kw::Count) => Some("count"),
            Tok::Kw(Kw::Sum) => Some("sum"),
            Tok::Kw(Kw::Avg) => Some("avg"),
            Tok::Kw(Kw::Min) => Some("min"),
            Tok::Kw(Kw::Max) => Some("max"),
            _ => None,
        }
    }

    fn eat_sym(&mut self, sym: &str) -> bool {
        if self.peek_sym() == Some(sym) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_kw(&mut self, kw: Kw) -> bool {
        if matches!(self.peek().map(|s| &s.tok), Some(Tok::Kw(k)) if *k == kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_sym(&mut self, sym: &'static str) -> Result<(), ParseError> {
        if self.eat_sym(sym) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{sym}`")))
        }
    }

    fn expect_kw(&mut self, kw: Kw) -> Result<(), ParseError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected keyword {kw:?}")))
        }
    }

    fn expect_ident(&mut self) -> Result<String, ParseError> {
        match self.next_tok() {
            Some((Tok::Ident(s), _)) => Ok(s),
            Some((ref tok, _)) if Self::soft_ident(tok).is_some() => {
                Ok(Self::soft_ident(tok).expect("just checked").to_owned())
            }
            Some((other, line)) => Err(ParseError::new(
                format!("expected identifier, found {other:?}"),
                Some(line),
            )),
            None => Err(self.err("expected identifier, found end of script")),
        }
    }

    fn expect_str(&mut self) -> Result<String, ParseError> {
        match self.next_tok() {
            Some((Tok::Str(s), _)) => Ok(s),
            Some((other, line)) => Err(ParseError::new(
                format!("expected 'string', found {other:?}"),
                Some(line),
            )),
            None => Err(self.err("expected 'string', found end of script")),
        }
    }

    fn expect_int(&mut self) -> Result<i64, ParseError> {
        match self.next_tok() {
            Some((Tok::Int(n), _)) => Ok(n),
            Some((other, line)) => Err(ParseError::new(
                format!("expected integer, found {other:?}"),
                Some(line),
            )),
            None => Err(self.err("expected integer, found end of script")),
        }
    }

    fn expect_alias(&mut self) -> Result<VertexId, ParseError> {
        let name = self.expect_ident()?;
        self.builder
            .alias_id(&name)
            .ok_or_else(|| self.err(format!("undefined alias `{name}`")))
    }

    fn expect_column(&mut self, schema: &Schema) -> Result<usize, ParseError> {
        let name = self.expect_ident()?;
        let name = self.qualified_name(name)?;
        schema
            .resolve(&name)
            .ok_or_else(|| self.err(format!("unknown column `{name}`")))
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        let line = self
            .tokens
            .get(self.pos.min(self.tokens.len().saturating_sub(1)))
            .map(|s| s.line);
        ParseError::new(message, line)
    }
}

/// A readable default output-column name when `AS` is omitted.
fn default_gen_name(expr: &Expr, schema: &Schema, position: usize) -> String {
    match expr {
        Expr::Col(i) => schema
            .columns()
            .get(*i)
            .cloned()
            .unwrap_or_else(|| format!("${position}")),
        _ => format!("${position}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Operator;

    #[test]
    fn parses_follower_analysis() {
        let s = Script::parse(
            "raw = LOAD 'twitter' AS (user, follower);
             clean = FILTER raw BY follower IS NOT NULL;
             grp = GROUP clean BY user;
             cnt = FOREACH grp GENERATE group, COUNT(clean) AS followers;
             STORE cnt INTO 'counts';",
        )
        .unwrap();
        let plan = s.plan();
        assert_eq!(plan.len(), 5);
        let names: Vec<&str> = plan.vertices().iter().map(|v| v.op().name()).collect();
        assert_eq!(names, vec!["Load", "Filter", "Group", "Project", "Store"]);
        // The projection's schema carries the AS name.
        let proj = &plan.vertices()[3];
        assert_eq!(proj.schema().columns(), &["group", "followers"]);
    }

    #[test]
    fn parses_two_hop_self_join() {
        let s = Script::parse(
            "a = LOAD 'twitter' AS (user, follower);
             b = LOAD 'twitter' AS (user, follower);
             j = JOIN a BY follower, b BY user;
             two = FOREACH j GENERATE a::user, b::follower;
             STORE two INTO 'twohop';",
        )
        .unwrap();
        let j = &s.plan().vertices()[2];
        assert_eq!(
            j.op(),
            &Operator::Join {
                left_key: 1,
                right_key: 0
            }
        );
        let proj = &s.plan().vertices()[3];
        assert_eq!(proj.schema().columns(), &["a::user", "b::follower"]);
    }

    #[test]
    fn parses_union_order_limit_distinct() {
        let s = Script::parse(
            "x = LOAD 'f' AS (airport, n);
             y = LOAD 'g' AS (airport, n);
             u = UNION x, y;
             d = DISTINCT u;
             o = ORDER d BY n DESC;
             top = LIMIT o 20;
             STORE top INTO 'out';",
        )
        .unwrap();
        let names: Vec<&str> = s.plan().vertices().iter().map(|v| v.op().name()).collect();
        assert_eq!(
            names,
            vec!["Load", "Load", "Union", "Distinct", "Order", "Limit", "Store"]
        );
    }

    #[test]
    fn parses_aggregates_with_fields() {
        let s = Script::parse(
            "w = LOAD 'weather' AS (station, date, temp);
             g = GROUP w BY station;
             avg = FOREACH g GENERATE group, AVG(w.temp) AS t, COUNT(w) AS n;
             STORE avg INTO 'o';",
        )
        .unwrap();
        let proj = &s.plan().vertices()[2];
        match proj.op() {
            Operator::Project { exprs, .. } => {
                assert_eq!(
                    exprs[1],
                    Expr::Agg {
                        func: AggFunc::Avg,
                        bag_col: 1,
                        field: Some(2)
                    }
                );
                assert_eq!(
                    exprs[2],
                    Expr::Agg {
                        func: AggFunc::Count,
                        bag_col: 1,
                        field: None
                    }
                );
            }
            other => panic!("expected Project, got {other:?}"),
        }
    }

    #[test]
    fn expression_precedence() {
        let s = Script::parse(
            "a = LOAD 'f' AS (x, y);
             b = FILTER a BY x + 1 * 2 == 3 AND NOT y IS NULL OR x > 10;
             STORE b INTO 'o';",
        )
        .unwrap();
        // OR binds loosest: (x+ (1*2) == 3 AND NOT (y IS NULL)) OR (x > 10).
        let filt = &s.plan().vertices()[1];
        match filt.op() {
            Operator::Filter {
                predicate: Expr::Or(_, _),
            } => {}
            other => panic!("expected top-level Or, got {other:?}"),
        }
    }

    #[test]
    fn comments_and_case_insensitive_keywords() {
        let s =
            Script::parse("-- a comment\n a = load 'f' As (x); -- trailing\n store a into 'o';")
                .unwrap();
        assert_eq!(s.plan().len(), 2);
    }

    #[test]
    fn error_on_undefined_alias() {
        let err = Script::parse("b = FILTER missing BY x > 1; STORE b INTO 'o';").unwrap_err();
        assert!(err.to_string().contains("undefined alias"), "{err}");
    }

    #[test]
    fn error_on_unknown_column_with_line() {
        let err =
            Script::parse("a = LOAD 'f' AS (x);\nb = FILTER a BY nope == 1;\nSTORE b INTO 'o';")
                .unwrap_err();
        assert!(err.to_string().contains("unknown column"), "{err}");
        assert_eq!(err.line(), Some(2));
    }

    #[test]
    fn error_on_missing_store() {
        let err = Script::parse("a = LOAD 'f' AS (x);").unwrap_err();
        assert!(err.to_string().contains("STORE"), "{err}");
    }

    #[test]
    fn error_on_sum_without_field() {
        let err = Script::parse(
            "a = LOAD 'f' AS (x);
             g = GROUP a BY x;
             s = FOREACH g GENERATE SUM(a);
             STORE s INTO 'o';",
        )
        .unwrap_err();
        assert!(err.to_string().contains("requires a field"), "{err}");
    }

    #[test]
    fn error_on_unterminated_string() {
        let err = Script::parse("a = LOAD 'oops AS (x);").unwrap_err();
        assert!(err.to_string().contains("unterminated"), "{err}");
    }

    #[test]
    fn group_column_reference_outside_group_fails() {
        let err = Script::parse(
            "a = LOAD 'f' AS (x);
             p = FOREACH a GENERATE group;
             STORE p INTO 'o';",
        )
        .unwrap_err();
        assert!(err.to_string().contains("GROUP"), "{err}");
    }

    #[test]
    fn a_second_store_into_one_output_fails_naming_both_statements() {
        let err = Script::parse(
            "a = LOAD 'e' AS (u, f);
             STORE a INTO 'x';
             b = FILTER a BY f IS NOT NULL;
             STORE b INTO 'x';",
        )
        .unwrap_err();
        assert_eq!(err.line(), Some(4));
        let text = err.to_string();
        assert!(text.contains("output 'x' is stored twice"), "{text}");
        assert!(text.contains("lines 2 and 4"), "{text}");
    }

    #[test]
    fn store_of_undefined_alias_fails() {
        let err = Script::parse("STORE nothing INTO 'o';").unwrap_err();
        assert!(err.to_string().contains("undefined alias"), "{err}");
    }
}

#[cfg(test)]
mod unary_minus_tests {
    use super::*;

    #[test]
    fn negative_literals_parse_and_fold() {
        let s = Script::parse(
            "a = LOAD 'f' AS (x);
             b = FILTER a BY x > -5 AND x != -9223372036854775807;
             c = FOREACH b GENERATE -x AS neg;
             STORE c INTO 'o';",
        )
        .unwrap();
        assert_eq!(s.plan().len(), 4);
    }
}

#[cfg(test)]
mod parser_corner_tests {
    use super::*;
    use crate::op::{Operator, SortOrder};

    #[test]
    fn qualified_columns_in_order_and_group_after_join() {
        let s = Script::parse(
            "a = LOAD 'e' AS (user, n);
             b = LOAD 'e' AS (user, n);
             j = JOIN a BY user, b BY user;
             o = ORDER j BY a::n DESC;
             g = GROUP j BY b::n;
             c = FOREACH g GENERATE group, COUNT(j);
             STORE o INTO 'x';
             STORE c INTO 'y';",
        )
        .unwrap();
        let ops: Vec<&str> = s.plan().vertices().iter().map(|v| v.op().name()).collect();
        assert!(ops.contains(&"Order") && ops.contains(&"Group"));
        let order = s
            .plan()
            .vertices()
            .iter()
            .find(|v| v.op().name() == "Order")
            .unwrap();
        assert_eq!(
            order.op(),
            &Operator::Order {
                key: 1,
                order: SortOrder::Desc
            }
        );
        let group = s
            .plan()
            .vertices()
            .iter()
            .find(|v| v.op().name() == "Group")
            .unwrap();
        assert_eq!(group.op(), &Operator::Group { key: 3 });
    }

    #[test]
    fn string_literals_and_modulo_in_predicates() {
        let s = Script::parse(
            "a = LOAD 'f' AS (name, n);
             b = FILTER a BY name == 'alice' OR n % 2 == 0;
             STORE b INTO 'o';",
        )
        .unwrap();
        assert_eq!(s.plan().len(), 3);
    }

    #[test]
    fn deeply_nested_parentheses() {
        let s = Script::parse(
            "a = LOAD 'f' AS (x);
             b = FILTER a BY ((((x > 1))) AND (x < 10 OR (x == 42)));
             STORE b INTO 'o';",
        )
        .unwrap();
        assert_eq!(s.plan().len(), 3);
    }

    /// `FILTER a BY` over an expression built from `body`, on line 2.
    fn filter_by(body: &str) -> Result<Script, ParseError> {
        Script::parse(&format!(
            "a = LOAD 'f' AS (k);\nb = FILTER a BY {body};\nSTORE b INTO 'o';"
        ))
    }

    fn assert_too_deep(result: Result<Script, ParseError>) {
        let err = result.expect_err("a too-deep expression is rejected");
        assert_eq!(err.line(), Some(2), "{err}");
        assert!(err.to_string().contains("nested deeper than 128"), "{err}");
    }

    #[test]
    fn nesting_past_the_depth_bound_is_a_parse_error() {
        let n = 20_000;
        assert_too_deep(filter_by(&format!(
            "{}k > 1{}",
            "(".repeat(n),
            ")".repeat(n)
        )));
    }

    #[test]
    fn a_unary_minus_chain_past_the_depth_bound_is_a_parse_error() {
        assert_too_deep(filter_by(&format!("{}k > 1", "- ".repeat(20_000))));
    }

    #[test]
    fn an_operator_chain_past_the_depth_bound_is_a_parse_error() {
        let terms = vec!["k"; 50_000].join(" + ");
        assert_too_deep(filter_by(&format!("{terms} > 1")));
    }

    #[test]
    fn expressions_just_inside_the_depth_bound_parse() {
        // One level for the predicate, one per parenthesis.
        let n = MAX_EXPR_DEPTH - 1;
        assert!(filter_by(&format!("{}k > 1{}", "(".repeat(n), ")".repeat(n))).is_ok());
        assert_too_deep(filter_by(&format!(
            "{}k > 1{}",
            "(".repeat(n + 1),
            ")".repeat(n + 1)
        )));
        // `t` terms make a `+` chain `t` nodes deep; `>` adds one.
        let terms = vec!["k"; MAX_EXPR_DEPTH - 1].join(" + ");
        assert!(filter_by(&format!("{terms} > 1")).is_ok());
        let terms = vec!["k"; MAX_EXPR_DEPTH].join(" + ");
        assert_too_deep(filter_by(&format!("{terms} > 1")));
    }

    #[test]
    fn chains_nested_in_the_left_operand_count_toward_the_bound() {
        // Each group's chain stacks on the one inside it: 16 groups of
        // 9 `*` make a tree over 128 deep, though no group nests deep.
        let mut body = "k".to_owned();
        for _ in 0..16 {
            body = format!("({body}{})", " * k".repeat(9));
        }
        assert_too_deep(filter_by(&format!("{body} > 1")));
    }

    #[test]
    fn empty_script_fails_with_no_store() {
        assert!(Script::parse("").is_err());
        assert!(Script::parse("   -- just a comment\n").is_err());
    }

    #[test]
    fn alias_shadowing_uses_the_latest_binding() {
        let s = Script::parse(
            "a = LOAD 'f' AS (x);
             a = FILTER a BY x > 1;
             STORE a INTO 'o';",
        )
        .unwrap();
        // The store consumes the filter, not the load.
        let store = &s.plan().vertices()[2];
        assert_eq!(store.parents(), &[crate::plan::VertexId(1)]);
    }
}
