//! Malformed trace CSV is an error, never a panic. Random edits of a
//! valid file — characters inserted, deleted and replaced, fields
//! overwritten with runs of up to 30 digits — either still parse, and
//! then survive a `to_csv` round trip unchanged, or come back as a
//! `CsvError`.

use borg_trace::csv::{from_csv, to_csv};
use borg_trace::{JobId, Trace, TraceJob};
use des::{SimDuration, SimTime};
use proptest::prelude::*;

/// What an edit may put into the text: digits and the characters a
/// number or a record is made of, line breaks, and a few that neither
/// parser expects.
const ALPHABET: &[char] = &[
    '0', '1', '7', '9', ',', '.', '-', '+', 'e', 'E', 'i', 'n', 'f', 'N', 'a', ' ', '\t', '\n',
    '\r', '\0', 'é', '∞',
];

/// One edit of the text; positions are taken modulo its length.
#[derive(Debug, Clone)]
enum Edit {
    Insert(usize, char),
    Delete(usize),
    Replace(usize, char),
    /// Overwrite one field of one line (the header included) with a run
    /// of digits, as a fraction `0.…` when `fraction` is set.
    Field {
        line: usize,
        field: usize,
        digits: Vec<u8>,
        fraction: bool,
    },
}

impl Edit {
    fn apply(&self, text: String) -> String {
        let mut chars: Vec<char> = text.chars().collect();
        let at = |pos: usize, len: usize| pos % len.max(1);
        match *self {
            Edit::Insert(pos, c) => chars.insert(at(pos, chars.len() + 1), c),
            Edit::Delete(pos) if !chars.is_empty() => {
                chars.remove(at(pos, chars.len()));
            }
            Edit::Replace(pos, c) if !chars.is_empty() => {
                let pos = at(pos, chars.len());
                chars[pos] = c;
            }
            Edit::Field {
                line,
                field,
                ref digits,
                fraction,
            } => {
                let mut value: String = digits.iter().map(|d| char::from(b'0' + d)).collect();
                if fraction {
                    value.insert_str(0, "0.");
                }
                let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
                if lines.is_empty() {
                    return text;
                }
                let pos = at(line, lines.len());
                let mut fields: Vec<&str> = lines[pos].split(',').collect();
                let slot = at(field, fields.len());
                fields[slot] = &value;
                lines[pos] = fields.join(",");
                return lines.join("\n");
            }
            Edit::Delete(_) | Edit::Replace(..) => {}
        }
        chars.into_iter().collect()
    }
}

fn edit() -> impl Strategy<Value = Edit> {
    let symbol = || (0..ALPHABET.len()).prop_map(|i| ALPHABET[i]);
    prop_oneof![
        (any::<usize>(), symbol()).prop_map(|(pos, c)| Edit::Insert(pos, c)),
        any::<usize>().prop_map(Edit::Delete),
        (any::<usize>(), symbol()).prop_map(|(pos, c)| Edit::Replace(pos, c)),
        (
            any::<usize>(),
            any::<usize>(),
            prop::collection::vec(0u8..10, 1..=30),
            any::<bool>(),
        )
            .prop_map(|(line, field, digits, fraction)| Edit::Field {
                line,
                field,
                digits,
                fraction,
            }),
    ]
}

fn trace() -> impl Strategy<Value = Trace> {
    let job = (
        0u64..1_000,
        any::<u64>(),
        any::<u64>(),
        any::<f64>(),
        any::<f64>(),
    )
        .prop_map(|(id, submit, duration, assigned, max)| TraceJob {
            id: JobId::new(id),
            submit: SimTime::from_micros(submit),
            duration: SimDuration::from_micros(duration),
            assigned_mem_fraction: assigned,
            max_mem_fraction: max,
        });
    prop::collection::vec(job, 0..8).prop_map(|jobs| jobs.into_iter().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn edited_csv_parses_or_errors_and_every_parse_round_trips(
        trace in trace(),
        edits in prop::collection::vec(edit(), 0..6),
    ) {
        let valid = to_csv(&trace);
        prop_assert_eq!(from_csv(&valid), Ok(trace));
        let text = edits.iter().fold(valid, |text, edit| edit.apply(text));
        if let Ok(parsed) = from_csv(&text) {
            prop_assert_eq!(from_csv(&to_csv(&parsed)), Ok(parsed));
        }
    }
}
