//! Never-panic property of `tsdb::influxql::parse`: whatever text
//! arrives — Listing 1 or a flat select with characters inserted,
//! deleted, replaced or cut off, a duration literal far beyond `u64`
//! microseconds, subqueries nested past the parser's bound — the answer
//! is `Ok` or a `TsdbError`, and what parses also executes.

use des::SimTime;
use proptest::prelude::*;
use tsdb::influxql::parse;
use tsdb::{Database, TsdbError};

const LISTING_1: &str = r#"SELECT SUM(epc) AS epc FROM
    (SELECT MAX(value) AS epc FROM "sgx/epc"
     WHERE value <> 0 AND time >= now() - 25s
     GROUP BY pod_name, nodename)
    GROUP BY nodename"#;

const FLAT: &str = "SELECT MEAN(value) FROM cpu WHERE host = 'web-1' AND time < 90s GROUP BY host";

/// What an edit may write: every character the lexer gives a meaning,
/// some it rejects, and two multi-byte ones.
const ALPHABET: &[char] = &[
    'S', 'e', 'm', 's', 'w', '_', '/', '.', '0', '9', ' ', '\n', '(', ')', ',', '=', '-', '<', '>',
    '!', '"', '\'', ';', '*', 'µ', 'é',
];

/// One edit of a char sequence: the operation, where, and what with.
type Edit = (u8, usize, usize);

fn apply(text: &mut Vec<char>, (op, at, with): Edit) {
    let with = ALPHABET[with % ALPHABET.len()];
    let at = at % (text.len() + 1);
    match op % 4 {
        0 => text.insert(at, with),
        1 if at < text.len() => drop(text.remove(at)),
        2 if at < text.len() => text[at] = with,
        3 => text.truncate(at),
        _ => {}
    }
}

/// Parses, and executes what parsed on an empty store.
fn parse_and_run(query: &str) -> Result<(), TsdbError> {
    let select = parse(query)?;
    Database::new().query(&select, SimTime::from_secs(60));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn edited_queries_never_panic(
        edits in prop::collection::vec((any::<u8>(), 0usize..400, 0usize..64), 1..12),
    ) {
        for base in [LISTING_1, FLAT] {
            let mut text: Vec<char> = base.chars().collect();
            for &edit in &edits {
                apply(&mut text, edit);
                let _ = parse_and_run(&text.iter().collect::<String>());
            }
        }
    }

    #[test]
    fn overlong_duration_literals_never_panic(
        digits in prop::collection::vec(0u8..10, 1..400),
        unit in 0usize..9,
        dot_at in 0usize..400,
    ) {
        let unit = ["us", "ms", "s", "m", "h", "d", "w", "y", ""][unit];
        let mut literal: String = digits.iter().map(|d| char::from(b'0' + d)).collect();
        if dot_at < literal.len() {
            literal.insert(dot_at, '.');
        }
        for query in [
            format!("SELECT MAX(value) FROM m WHERE time >= now() - {literal}{unit}"),
            format!("SELECT MAX(value) FROM m WHERE time < {literal}{unit}"),
            format!("SELECT MAX(value) FROM m WHERE value > {literal}"),
        ] {
            let _ = parse_and_run(&query);
        }
    }
}

/// The one abort 200,000 such inputs found at the parent commit: a
/// subquery per level of recursion, until the stack ran out. (The parser's
/// own unit test pins the bound; here the deepest accepted query also
/// executes, and an unbalanced one stops at the bound, not at the missing
/// `)` 200,000 levels down.)
#[test]
fn deep_nesting_is_an_error_not_a_stack_overflow() {
    let open = "SELECT MAX(value) FROM (";
    let deepest = format!(
        "{}SELECT MAX(value) FROM m{}",
        open.repeat(15),
        ")".repeat(15)
    );
    assert_eq!(parse_and_run(&deepest), Ok(()));
    assert!(matches!(
        parse(&open.repeat(200_000)),
        Err(TsdbError::Parse { .. })
    ));
}
