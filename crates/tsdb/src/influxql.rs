//! Parser for the InfluxQL subset used by the paper (Listing 1).
//!
//! Supported grammar (case-insensitive keywords):
//!
//! ```text
//! select   := SELECT agg '(' ident ')' [AS ident]
//!             FROM source [WHERE cond (AND cond)*] [GROUP BY ident (, ident)*]
//! source   := '"' name '"' | ident | '(' select ')'
//! cond     := value (<>|!=|>|<) number
//!           | time (>=|<) timeexpr
//!           | ident = 'string'
//! timeexpr := now() [- duration] | integer
//! duration := integer (us|ms|s|m|h|d|w)
//! ```
//!
//! # Examples
//!
//! ```
//! use tsdb::influxql::parse;
//!
//! let select = parse(
//!     r#"SELECT SUM(epc) AS epc FROM
//!        (SELECT MAX(value) AS epc FROM "sgx/epc"
//!         WHERE value <> 0 AND time >= now() - 25s
//!         GROUP BY pod_name, nodename)
//!        GROUP BY nodename"#,
//! )?;
//! let empty = tsdb::Database::new();
//! assert!(empty.query(&select, des::SimTime::from_secs(30)).is_empty());
//! # Ok::<(), tsdb::TsdbError>(())
//! ```

use des::{SimDuration, SimTime};

use crate::error::TsdbError;
use crate::query::{Aggregate, Predicate, Select, TimeBound};

/// Parses an InfluxQL select statement into a [`Select`] AST.
///
/// # Errors
///
/// Returns [`TsdbError::Lex`] for unrecognised characters,
/// [`TsdbError::Parse`] for grammar violations (including subqueries
/// nested more than 16 selects deep), and
/// [`TsdbError::UnknownAggregate`] for unsupported aggregate functions.
pub fn parse(input: &str) -> Result<Select, TsdbError> {
    let tokens = lex(input)?;
    let mut parser = Parser { tokens, pos: 0 };
    let select = parser.parse_select(1)?;
    parser.expect_end()?;
    Ok(select)
}

// ---------------------------------------------------------------- lexer

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Ident(String),
    Str(String),
    Number(f64),
    Duration(SimDuration),
    LParen,
    RParen,
    Comma,
    Eq,
    Ne,
    Gt,
    Lt,
    Ge,
    Minus,
}

impl std::fmt::Display for Token {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "identifier `{s}`"),
            Token::Str(s) => write!(f, "string '{s}'"),
            Token::Number(n) => write!(f, "number {n}"),
            Token::Duration(d) => write!(f, "duration {d}"),
            Token::LParen => f.write_str("`(`"),
            Token::RParen => f.write_str("`)`"),
            Token::Comma => f.write_str("`,`"),
            Token::Eq => f.write_str("`=`"),
            Token::Ne => f.write_str("`<>`"),
            Token::Gt => f.write_str("`>`"),
            Token::Lt => f.write_str("`<`"),
            Token::Ge => f.write_str("`>=`"),
            Token::Minus => f.write_str("`-`"),
        }
    }
}

fn lex(input: &str) -> Result<Vec<Token>, TsdbError> {
    let bytes = input.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            c if c.is_whitespace() => i += 1,
            '(' => {
                tokens.push(Token::LParen);
                i += 1;
            }
            ')' => {
                tokens.push(Token::RParen);
                i += 1;
            }
            ',' => {
                tokens.push(Token::Comma);
                i += 1;
            }
            '=' => {
                tokens.push(Token::Eq);
                i += 1;
            }
            '-' => {
                tokens.push(Token::Minus);
                i += 1;
            }
            '<' => {
                if bytes.get(i + 1) == Some(&b'>') {
                    tokens.push(Token::Ne);
                    i += 2;
                } else {
                    tokens.push(Token::Lt);
                    i += 1;
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token::Ge);
                    i += 2;
                } else {
                    tokens.push(Token::Gt);
                    i += 1;
                }
            }
            '!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token::Ne);
                    i += 2;
                } else {
                    return Err(TsdbError::Lex {
                        position: i,
                        message: "expected `!=`".into(),
                    });
                }
            }
            '"' | '\'' => {
                let quote = c;
                let start = i + 1;
                let mut j = start;
                while j < bytes.len() && bytes[j] as char != quote {
                    j += 1;
                }
                if j == bytes.len() {
                    return Err(TsdbError::Lex {
                        position: i,
                        message: "unterminated string literal".into(),
                    });
                }
                tokens.push(Token::Str(input[start..j].to_string()));
                i = j + 1;
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < bytes.len() && ((bytes[i] as char).is_ascii_digit() || bytes[i] == b'.') {
                    i += 1;
                }
                let number: f64 = input[start..i].parse().map_err(|_| TsdbError::Lex {
                    position: start,
                    message: format!("invalid number `{}`", &input[start..i]),
                })?;
                // A unit suffix makes this a duration literal (e.g. `25s`).
                let unit_start = i;
                while i < bytes.len() && (bytes[i] as char).is_ascii_alphabetic() {
                    i += 1;
                }
                if unit_start == i {
                    tokens.push(Token::Number(number));
                } else {
                    let unit = &input[unit_start..i];
                    let micros_per_unit: f64 = match unit {
                        "u" | "us" | "µs" => 1.0,
                        "ms" => 1e3,
                        "s" => 1e6,
                        "m" => 60e6,
                        "h" => 3600e6,
                        "d" => 86_400e6,
                        "w" => 7.0 * 86_400e6,
                        _ => {
                            return Err(TsdbError::Lex {
                                position: unit_start,
                                message: format!("unknown duration unit `{unit}`"),
                            })
                        }
                    };
                    tokens.push(Token::Duration(SimDuration::from_micros(
                        (number * micros_per_unit).round() as u64,
                    )));
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len() {
                    let ch = bytes[i] as char;
                    if ch.is_ascii_alphanumeric() || ch == '_' || ch == '/' || ch == '.' {
                        i += 1;
                    } else {
                        break;
                    }
                }
                tokens.push(Token::Ident(input[start..i].to_string()));
            }
            other => {
                return Err(TsdbError::Lex {
                    position: i,
                    message: format!("unexpected character `{other}`"),
                })
            }
        }
    }
    Ok(tokens)
}

// --------------------------------------------------------------- parser

/// Selects a statement may nest (Listing 1 nests two). The parser, and
/// later the executor and `Drop`, recurse once per level, so the bound is
/// what keeps hostile input an error instead of a stack overflow.
const MAX_SELECT_DEPTH: usize = 16;

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn error(&self, expected: &str) -> TsdbError {
        match self.peek() {
            Some(t) => TsdbError::Parse {
                message: format!("expected {expected}, found {t}"),
            },
            None => TsdbError::Parse {
                message: format!("expected {expected}, found end of input"),
            },
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), TsdbError> {
        match self.peek() {
            Some(Token::Ident(s)) if s.eq_ignore_ascii_case(kw) => {
                self.pos += 1;
                Ok(())
            }
            _ => Err(self.error(&format!("keyword {kw}"))),
        }
    }

    fn keyword_is(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    fn expect(&mut self, token: Token, what: &str) -> Result<(), TsdbError> {
        if self.peek() == Some(&token) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(what))
        }
    }

    fn ident(&mut self, what: &str) -> Result<String, TsdbError> {
        match self.peek() {
            Some(Token::Ident(s)) => {
                let s = s.clone();
                self.pos += 1;
                Ok(s)
            }
            _ => Err(self.error(what)),
        }
    }

    fn expect_end(&self) -> Result<(), TsdbError> {
        if self.pos == self.tokens.len() {
            Ok(())
        } else {
            Err(self.error("end of input"))
        }
    }

    fn parse_select(&mut self, depth: usize) -> Result<Select, TsdbError> {
        self.expect_keyword("SELECT")?;

        let func = self.ident("aggregate function")?;
        let aggregate = Aggregate::from_name(&func).ok_or(TsdbError::UnknownAggregate(func))?;
        self.expect(Token::LParen, "`(` after aggregate")?;
        let _field = self.ident("aggregated field")?;
        self.expect(Token::RParen, "`)` after aggregate argument")?;
        if self.keyword_is("AS") {
            self.pos += 1;
            let _alias = self.ident("alias after AS")?;
        }

        self.expect_keyword("FROM")?;
        let mut select = match self.next() {
            Some(Token::Str(name)) => Select::from_measurement(name),
            Some(Token::Ident(name)) => Select::from_measurement(name),
            Some(Token::LParen) => {
                if depth == MAX_SELECT_DEPTH {
                    return Err(TsdbError::Parse {
                        message: format!("subqueries nest deeper than {MAX_SELECT_DEPTH} selects"),
                    });
                }
                let inner = self.parse_select(depth + 1)?;
                self.expect(Token::RParen, "`)` closing subquery")?;
                Select::from_subquery(inner)
            }
            _ => return Err(self.error("measurement name or `(` subquery")),
        };
        select = select.aggregate(aggregate);

        if self.keyword_is("WHERE") {
            self.pos += 1;
            loop {
                let predicate = self.parse_condition()?;
                select = select.filter(predicate);
                if self.keyword_is("AND") {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }

        if self.keyword_is("GROUP") {
            self.pos += 1;
            self.expect_keyword("BY")?;
            let mut keys = vec![self.ident("grouping tag")?];
            while self.peek() == Some(&Token::Comma) {
                self.pos += 1;
                keys.push(self.ident("grouping tag")?);
            }
            select = select.group_by(keys);
        }

        Ok(select)
    }

    fn parse_condition(&mut self) -> Result<Predicate, TsdbError> {
        let column = self.ident("condition column")?;
        if column.eq_ignore_ascii_case("value") {
            let op = self
                .next()
                .ok_or_else(|| self.error("comparison operator"))?;
            let number = match self.next() {
                Some(Token::Number(n)) => n,
                _ => return Err(self.error("number after value comparison")),
            };
            match op {
                Token::Ne => Ok(Predicate::ValueNe(number)),
                Token::Gt => Ok(Predicate::ValueGt(number)),
                Token::Lt => Ok(Predicate::ValueLt(number)),
                other => Err(TsdbError::Parse {
                    message: format!("unsupported value operator {other}"),
                }),
            }
        } else if column.eq_ignore_ascii_case("time") {
            let op = self
                .next()
                .ok_or_else(|| self.error("comparison operator"))?;
            let bound = self.parse_time_expr()?;
            match op {
                Token::Ge => Ok(Predicate::TimeAtLeast(bound)),
                Token::Lt => Ok(Predicate::TimeBefore(bound)),
                other => Err(TsdbError::Parse {
                    message: format!("unsupported time operator {other} (use >= or <)"),
                }),
            }
        } else {
            self.expect(Token::Eq, "`=` in tag condition")?;
            match self.next() {
                Some(Token::Str(v)) => Ok(Predicate::TagEq(column, v)),
                _ => Err(self.error("string literal in tag condition")),
            }
        }
    }

    fn parse_time_expr(&mut self) -> Result<TimeBound, TsdbError> {
        match self.next() {
            Some(Token::Ident(s)) if s.eq_ignore_ascii_case("now") => {
                self.expect(Token::LParen, "`(` after now")?;
                self.expect(Token::RParen, "`)` after now(")?;
                if self.peek() == Some(&Token::Minus) {
                    self.pos += 1;
                    match self.next() {
                        Some(Token::Duration(d)) => Ok(TimeBound::SinceNowMinus(d)),
                        _ => Err(self.error("duration literal after now() -")),
                    }
                } else {
                    Ok(TimeBound::SinceNowMinus(SimDuration::ZERO))
                }
            }
            Some(Token::Number(n)) => Ok(TimeBound::Absolute(SimTime::from_micros(n as u64))),
            Some(Token::Duration(d)) => {
                Ok(TimeBound::Absolute(SimTime::from_micros(d.as_micros())))
            }
            _ => Err(self.error("now() or absolute timestamp")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LISTING_1: &str = r#"SELECT SUM(epc) AS epc FROM
        (SELECT MAX(value) AS epc FROM "sgx/epc"
         WHERE value <> 0 AND time >= now() - 25s
         GROUP BY pod_name, nodename)
        GROUP BY nodename"#;

    fn max_of(measurement: &str) -> Select {
        Select::from_measurement(measurement).aggregate(Aggregate::Max)
    }

    #[test]
    fn parses_listing_1_exactly() {
        let per_pod = max_of("sgx/epc")
            .filter(Predicate::ValueNe(0.0))
            .filter(Predicate::TimeAtLeast(TimeBound::SinceNowMinus(
                SimDuration::from_secs(25),
            )))
            .group_by(["pod_name", "nodename"]);
        let per_node = Select::from_subquery(per_pod)
            .aggregate(Aggregate::Sum)
            .group_by(["nodename"]);
        assert_eq!(parse(LISTING_1).unwrap(), per_node);
    }

    #[test]
    fn parses_simple_select() {
        assert_eq!(
            parse("SELECT MEAN(value) FROM cpu WHERE host = 'web-1'").unwrap(),
            Select::from_measurement("cpu")
                .aggregate(Aggregate::Mean)
                .filter(Predicate::TagEq("host".into(), "web-1".into()))
        );
    }

    #[test]
    fn keywords_are_case_insensitive() {
        assert_eq!(
            parse("select count(value) from m group by a").unwrap(),
            Select::from_measurement("m")
                .aggregate(Aggregate::Count)
                .group_by(["a"])
        );
    }

    #[test]
    fn duration_units() {
        for (text, micros) in [
            ("500ms", 500_000u64),
            ("25s", 25_000_000),
            ("2m", 120_000_000),
            ("1h", 3_600_000_000),
        ] {
            let q = format!("SELECT MAX(value) FROM m WHERE time >= now() - {text}");
            assert_eq!(
                parse(&q).unwrap(),
                max_of("m").filter(Predicate::TimeAtLeast(TimeBound::SinceNowMinus(
                    SimDuration::from_micros(micros)
                ))),
                "for {text}"
            );
        }
    }

    #[test]
    fn value_operators() {
        assert_eq!(
            parse("SELECT MAX(value) FROM m WHERE value > 1.5 AND value < 9").unwrap(),
            max_of("m")
                .filter(Predicate::ValueGt(1.5))
                .filter(Predicate::ValueLt(9.0))
        );
        assert_eq!(
            parse("SELECT MAX(value) FROM m WHERE value != 0").unwrap(),
            max_of("m").filter(Predicate::ValueNe(0.0))
        );
    }

    #[test]
    fn unknown_aggregate_is_reported() {
        let err = parse("SELECT MEDIAN(value) FROM m").unwrap_err();
        assert_eq!(err, TsdbError::UnknownAggregate("MEDIAN".into()));
    }

    #[test]
    fn unterminated_string_is_a_lex_error() {
        let err = parse("SELECT MAX(value) FROM \"oops").unwrap_err();
        assert!(matches!(err, TsdbError::Lex { .. }));
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let err = parse("SELECT MAX(value) FROM m banana").unwrap_err();
        assert!(matches!(err, TsdbError::Parse { .. }));
    }

    #[test]
    fn missing_from_is_rejected() {
        let err = parse("SELECT MAX(value) WHERE value > 1").unwrap_err();
        assert!(matches!(err, TsdbError::Parse { .. }));
    }

    #[test]
    fn bad_time_operator_is_rejected() {
        let err = parse("SELECT MAX(value) FROM m WHERE time = now()").unwrap_err();
        assert!(matches!(err, TsdbError::Parse { .. }));
    }

    #[test]
    fn unexpected_character_is_a_lex_error() {
        let err = parse("SELECT MAX(value) FROM m WHERE value <> 0 ; DROP").unwrap_err();
        assert!(matches!(err, TsdbError::Lex { .. }));
    }

    /// `selects` nested SELECTs around one measurement.
    fn nested(selects: usize) -> String {
        let mut q = "SELECT MAX(value) FROM (".repeat(selects - 1);
        q.push_str("SELECT MAX(value) FROM m");
        q.push_str(&")".repeat(selects - 1));
        q
    }

    #[test]
    fn nesting_is_bounded() {
        let mut deepest = max_of("m");
        for _ in 1..MAX_SELECT_DEPTH {
            deepest = Select::from_subquery(deepest).aggregate(Aggregate::Max);
        }
        assert_eq!(parse(&nested(MAX_SELECT_DEPTH)).unwrap(), deepest);
        for selects in [MAX_SELECT_DEPTH + 1, 200_000] {
            let err = parse(&nested(selects)).unwrap_err();
            assert!(
                matches!(&err, TsdbError::Parse { message } if message.contains("16 selects")),
                "{selects}: {err}"
            );
        }
    }

    #[test]
    fn bare_now_means_zero_offset() {
        assert_eq!(
            parse("SELECT MAX(value) FROM m WHERE time >= now()").unwrap(),
            max_of("m").filter(Predicate::TimeAtLeast(TimeBound::SinceNowMinus(
                SimDuration::ZERO
            )))
        );
    }
}
