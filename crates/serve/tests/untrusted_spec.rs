//! `JobSpec` decoding on untrusted bytes: every truncation of the golden
//! fixtures, and random byte overwrites of them, must decode to a spec or
//! a typed `BadRequest`, and never panic; a misspelled field is a
//! `BadRequest`, not a field silently left at its default.

use proptest::prelude::*;
use sprint_serve::jobs::JobSpec;
use sprint_serve::ServeError;

const FIXTURES: [&[u8]; 5] = [
    include_bytes!("testdata/jobspec_chaos_v1.json"),
    include_bytes!("testdata/jobspec_run_v1.json"),
    include_bytes!("testdata/jobspec_run_v2_deadline.json"),
    include_bytes!("testdata/jobspec_sweep_v1.json"),
    include_bytes!("testdata/legacy_sweep_spec.json"),
];

/// What an overwrite writes: JSON's own alphabet, so that a corrupted
/// document often stays well-formed and reaches the typed decoders, plus
/// control and non-UTF-8 bytes.
const ALPHABET: &[u8] = b"{}[]\":,.-+0123456789eEtrufalsn \t\n\\\x00\x7f\x80\xff";

/// Decode `bytes` as a request body would be: bytes that are not UTF-8
/// reach the parser with replacement characters. `Ok(true)` when it
/// decoded to a spec, `Ok(false)` when it was rejected as a bad request.
fn decode(bytes: &[u8]) -> Result<bool, String> {
    match JobSpec::parse_json(&String::from_utf8_lossy(bytes)) {
        Ok(_) => Ok(true),
        Err(ServeError::BadRequest(_)) => Ok(false),
        Err(other) => Err(format!("untyped rejection {other:?}")),
    }
}

#[test]
fn every_truncation_of_every_fixture_is_rejected_or_decoded() {
    for fixture in FIXTURES {
        // A prefix decodes exactly when it keeps the closing brace.
        let end = fixture.iter().rposition(|&b| b == b'}').unwrap() + 1;
        for cut in 0..=fixture.len() {
            assert_eq!(decode(&fixture[..cut]), Ok(cut >= end), "cut at {cut}");
        }
    }
}

#[test]
fn a_misspelled_field_is_a_bad_request_that_names_it() {
    // (fixture, text replaced, its replacement, the key to name): a
    // top-level typo; two nested in the sweep spec inside the job, a
    // required field and one that has a default; the same two in a
    // legacy sweep spec; a typo in a chaos partition's body; and an
    // extra key in a run job's body.
    let typos = [
        (
            FIXTURES[2],
            "\"deadline_ms\"",
            "\"deadline_mz\"",
            "deadline_mz",
        ),
        (FIXTURES[3], "\"epochs\"", "\"epoch\"", "epoch"),
        (
            FIXTURES[3],
            "\"stagger_epochs\"",
            "\"stagger_epoch\"",
            "stagger_epoch",
        ),
        (FIXTURES[4], "\"epochs\"", "\"epoch\"", "epoch"),
        (
            FIXTURES[4],
            "\"stagger_epochs\"",
            "\"stagger_epoch\"",
            "stagger_epoch",
        ),
        (FIXTURES[0], "\"start\"", "\"strat\"", "strat"),
        (
            FIXTURES[1],
            "\"spec\":",
            "\"priority\": 1, \"spec\":",
            "priority",
        ),
    ];
    for (fixture, from, to, key) in typos {
        let text = std::str::from_utf8(fixture).unwrap();
        assert_eq!(text.matches(from).count(), 1, "{from}");
        match JobSpec::parse_json(&text.replace(from, to)) {
            Err(ServeError::BadRequest(message)) => assert!(
                message.contains(&format!("unknown field `{key}`")),
                "{message}"
            ),
            other => panic!("{key}: {other:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]
    fn overwritten_fixture_bytes_are_rejected_or_decoded(
        fixture in 0usize..FIXTURES.len(),
        overwrites in prop::collection::vec(
            (0usize..2048, prop::sample::select(ALPHABET.to_vec())),
            1..4,
        ),
    ) {
        let mut bytes = FIXTURES[fixture].to_vec();
        for (at, byte) in overwrites {
            let at = at % bytes.len();
            bytes[at] = byte;
        }
        prop_assert!(decode(&bytes).is_ok(), "{:?}", String::from_utf8_lossy(&bytes));
    }
}
