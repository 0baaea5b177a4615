//! A small query language for ad-hoc exploration.
//!
//! Grammar (case-insensitive keywords):
//!
//! ```text
//! query   := select [ "where" pred ( "and" pred )* ]
//! select  := "top" INT "producers"
//!          | "producers"
//!          | "count"
//! pred    := "height" "between" INT "and" INT
//!          | "time" "between" TIME "and" TIME
//!          | "producer" "=" STRING
//!          | "credit" ">=" NUMBER          (block credits, e.g. 1 = full)
//! TIME    := INT (unix seconds)
//!          | quoted timestamp, any form blockdec_chain::time::parse_timestamp
//!            reads ("2019-01-14", ISO 8601, BigQuery, integer secs or millis)
//! STRING  := 'single' | "double" quoted
//! ```
//!
//! Examples:
//!
//! ```text
//! top 5 producers
//! count where height between 556459 and 557000
//! producers where time between "2019-01-14" and "2019-01-15"
//! count where producer = "F2Pool" and credit >= 1
//! ```
//!
//! There is no `tx` predicate: `BlockStore::append_attributed`, the one
//! writer behind `blockdec load`, `ingest` and `follow`, stores no
//! transaction counts, so a query naming `tx` is a parse error that
//! says so.
//!
//! Producer names are resolved against the store's dictionary at parse
//! time, so a typo'd pool name is a parse error rather than an empty
//! result.

use crate::expr::Filter;
use crate::plan::Plan;
use blockdec_chain::time::parse_timestamp;
use blockdec_chain::ProducerRegistry;
use blockdec_store::row::weight_to_millis;

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Word(String),
    Number(String),
    Str(String),
    Eq,
    Ge,
}

fn tokenize(input: &str) -> Result<Vec<Token>, String> {
    let mut out = Vec::new();
    let mut chars = input.chars().peekable();
    while let Some(&c) = chars.peek() {
        match c {
            c if c.is_whitespace() => {
                chars.next();
            }
            '=' => {
                chars.next();
                out.push(Token::Eq);
            }
            '>' => {
                chars.next();
                if chars.next() != Some('=') {
                    return Err("expected '=' after '>'".into());
                }
                out.push(Token::Ge);
            }
            '\'' | '"' => {
                let quote = c;
                chars.next();
                let mut s = String::new();
                loop {
                    match chars.next() {
                        Some(ch) if ch == quote => break,
                        Some(ch) => s.push(ch),
                        None => return Err(format!("unterminated string {s:?}")),
                    }
                }
                out.push(Token::Str(s));
            }
            c if c.is_ascii_digit() => {
                let mut s = String::new();
                while let Some(&ch) = chars.peek() {
                    if ch.is_ascii_digit() || ch == '.' || ch == '_' {
                        if ch != '_' {
                            s.push(ch);
                        }
                        chars.next();
                    } else {
                        break;
                    }
                }
                out.push(Token::Number(s));
            }
            c if c.is_alphanumeric() || c == '_' => {
                let mut s = String::new();
                while let Some(&ch) = chars.peek() {
                    if ch.is_alphanumeric() || ch == '_' {
                        s.push(ch);
                        chars.next();
                    } else {
                        break;
                    }
                }
                out.push(Token::Word(s.to_ascii_lowercase()));
            }
            other => return Err(format!("unexpected character {other:?}")),
        }
    }
    Ok(out)
}

struct Parser<'a> {
    tokens: Vec<Token>,
    pos: usize,
    registry: &'a ProducerRegistry,
}

impl<'a> Parser<'a> {
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

    fn expect_word(&mut self, word: &str) -> Result<(), String> {
        match self.next() {
            Some(Token::Word(w)) if w == word => Ok(()),
            other => Err(format!("expected {word:?}, found {other:?}")),
        }
    }

    fn expect_int(&mut self) -> Result<u64, String> {
        match self.next() {
            Some(Token::Number(n)) => n.parse().map_err(|e| format!("bad integer {n:?}: {e}")),
            other => Err(format!("expected an integer, found {other:?}")),
        }
    }

    fn expect_time(&mut self) -> Result<i64, String> {
        match self.next() {
            Some(Token::Number(n)) => n.parse().map_err(|e| format!("bad time {n:?}: {e}")),
            Some(Token::Str(s)) => parse_timestamp(&s)
                .map(|t| t.secs())
                .ok_or_else(|| format!("unparseable timestamp {s:?}")),
            other => Err(format!("expected a timestamp, found {other:?}")),
        }
    }

    fn parse_pred(&mut self) -> Result<Filter, String> {
        match self.next() {
            Some(Token::Word(w)) => match w.as_str() {
                "height" => {
                    self.expect_word("between")?;
                    let lo = self.expect_int()?;
                    self.expect_word("and")?;
                    let hi = self.expect_int()?;
                    if lo > hi {
                        return Err(format!("empty height range {lo}..{hi}"));
                    }
                    Ok(Filter::HeightBetween(lo, hi))
                }
                "time" => {
                    self.expect_word("between")?;
                    let lo = self.expect_time()?;
                    self.expect_word("and")?;
                    let hi = self.expect_time()?;
                    if lo > hi {
                        return Err(format!("empty time range {lo}..{hi}"));
                    }
                    Ok(Filter::TimeBetween(lo, hi))
                }
                "producer" => {
                    match self.next() {
                        Some(Token::Eq) => {}
                        other => return Err(format!("expected '=', found {other:?}")),
                    }
                    let name = match self.next() {
                        Some(Token::Str(s)) => s,
                        other => return Err(format!("expected a quoted name, found {other:?}")),
                    };
                    let id = self
                        .registry
                        .get(&name)
                        .ok_or_else(|| format!("unknown producer {name:?}"))?;
                    Ok(Filter::ProducerIs(id.0))
                }
                "credit" => {
                    match self.next() {
                        Some(Token::Ge) => {}
                        other => return Err(format!("expected '>=', found {other:?}")),
                    }
                    let v = match self.next() {
                        Some(Token::Number(n)) => n
                            .parse::<f64>()
                            .map_err(|e| format!("bad credit {n:?}: {e}"))?,
                        other => return Err(format!("expected a number, found {other:?}")),
                    };
                    Ok(Filter::CreditAtLeast(weight_to_millis(v)))
                }
                "tx" => Err(
                    "the tx predicate was removed: stores written by load, ingest \
                             and follow hold no transaction counts, so it matched no row"
                        .into(),
                ),
                other => Err(format!("unknown predicate {other:?}")),
            },
            other => Err(format!("expected a predicate, found {other:?}")),
        }
    }

    fn parse_query(&mut self) -> Result<Plan, String> {
        let plan_kind = match self.next() {
            Some(Token::Word(w)) if w == "top" => {
                let k = self.expect_int()? as usize;
                if k == 0 {
                    return Err("top 0 selects nothing".into());
                }
                self.expect_word("producers")?;
                ("top", k)
            }
            Some(Token::Word(w)) if w == "producers" => ("producers", usize::MAX),
            Some(Token::Word(w)) if w == "count" => ("count", 0),
            other => return Err(format!("expected top/producers/count, found {other:?}")),
        };

        let mut filter = Filter::True;
        if let Some(Token::Word(w)) = self.peek() {
            if w == "where" {
                self.next();
                filter = self.parse_pred()?;
                while let Some(Token::Word(w)) = self.peek() {
                    if w != "and" {
                        break;
                    }
                    self.next();
                    filter = filter.and(self.parse_pred()?);
                }
            }
        }
        if let Some(extra) = self.peek() {
            return Err(format!("trailing input at {extra:?}"));
        }
        Ok(match plan_kind {
            ("top", k) => Plan::top_k(filter, k),
            ("producers", _) => Plan::producers(filter),
            _ => Plan::count(filter),
        })
    }
}

/// Parse a query string into a [`Plan`], resolving producer names against
/// the store's registry.
pub fn parse_query(input: &str, registry: &ProducerRegistry) -> Result<Plan, String> {
    let tokens = tokenize(input)?;
    if tokens.is_empty() {
        return Err("empty query".into());
    }
    Parser {
        tokens,
        pos: 0,
        registry,
    }
    .parse_query()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Aggregation;

    fn registry() -> ProducerRegistry {
        let mut r = ProducerRegistry::new();
        r.intern("F2Pool");
        r.intern("AntPool");
        r
    }

    #[test]
    fn parses_top_k() {
        let plan = parse_query("top 5 producers", &registry()).unwrap();
        assert_eq!(plan.aggregation, Aggregation::TopProducers { k: 5 });
        assert_eq!(plan.filter, Filter::True);
    }

    #[test]
    fn parses_count_with_height_range() {
        let plan = parse_query("count where height between 100 and 200", &registry()).unwrap();
        assert_eq!(plan.aggregation, Aggregation::TotalBlocks);
        assert_eq!(plan.filter, Filter::HeightBetween(100, 200));
    }

    #[test]
    fn parses_conjunctions() {
        let plan = parse_query(
            "producers where height between 1 and 9 and producer = 'AntPool' and credit >= 0.5",
            &registry(),
        )
        .unwrap();
        assert_eq!(
            plan.filter,
            Filter::And(vec![
                Filter::HeightBetween(1, 9),
                Filter::ProducerIs(1),
                Filter::CreditAtLeast(500),
            ])
        );
    }

    #[test]
    fn parses_time_range_with_dates() {
        let jan14 = 1_546_300_800 + 13 * 86_400;
        for q in [
            "count where time between \"2019-01-14\" and '2019-01-15'",
            "count where time between '2019-01-14T00:00:00.000Z' and '2019-01-15 00:00:00+00:00'",
        ] {
            let plan = parse_query(q, &registry()).unwrap();
            assert_eq!(
                plan.filter,
                Filter::TimeBetween(jan14, jan14 + 86_400),
                "{q}"
            );
        }
    }

    #[test]
    fn resolves_producer_names() {
        let plan = parse_query("count where producer = \"AntPool\"", &registry()).unwrap();
        assert_eq!(plan.filter, Filter::ProducerIs(1));
        let err = parse_query("count where producer = 'NoSuchPool'", &registry()).unwrap_err();
        assert!(err.contains("unknown producer"), "{err}");
    }

    #[test]
    fn keywords_are_case_insensitive() {
        let plan = parse_query("TOP 3 Producers WHERE Height BETWEEN 1 AND 2", &registry());
        assert!(plan.is_ok(), "{plan:?}");
    }

    #[test]
    fn numbers_allow_underscores() {
        let plan = parse_query(
            "count where height between 556_459 and 610_690",
            &registry(),
        )
        .unwrap();
        assert_eq!(plan.filter, Filter::HeightBetween(556_459, 610_690));
    }

    #[test]
    fn rejects_malformed_queries() {
        let r = registry();
        for q in [
            "",
            "select stuff",
            "top producers",
            "top 0 producers",
            "count where",
            "count where height between 5 and",
            "count where height between 9 and 5",
            "count where producer = unquoted",
            "count where time between 'nonsense' and '2019-01-02'",
            "top 5 producers garbage",
            "count where credit > 5",
            "count where height between 0 and 18446744073709551616",
        ] {
            assert!(parse_query(q, &r).is_err(), "accepted {q:?}");
        }
    }

    #[test]
    fn tx_is_a_removed_field() {
        for q in [
            "count where tx >= 1",
            "top 3 producers where credit >= 1 and tx >= 5",
        ] {
            let err = parse_query(q, &registry()).unwrap_err();
            assert!(
                err.starts_with("the tx predicate was removed"),
                "{q}: {err}"
            );
        }
    }

    #[test]
    fn unterminated_string_is_an_error() {
        assert!(parse_query("count where producer = 'oops", &registry()).is_err());
    }
}
