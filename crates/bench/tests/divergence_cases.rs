//! Regression replay of every committed `.case` file, plus the end-to-end
//! self-validation of the divergence harness: the deliberately planted
//! fast-engine accounting bug must be caught, named field-precisely, and
//! the committed minimal case must really be minimal.

use std::path::PathBuf;

use htm_bench::divergence::{parse_case, render_case, run_case, shrink_case, CaseSpec};

fn cases_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/cases")
}

fn load_case(name: &str) -> CaseSpec {
    let path = cases_dir().join(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    parse_case(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn every_committed_case_replays_engine_exact() {
    let mut seen = 0;
    for entry in std::fs::read_dir(cases_dir()).expect("tests/cases exists") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("case") {
            continue;
        }
        seen += 1;
        let text = std::fs::read_to_string(&path).unwrap();
        let case = parse_case(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        // The textual form is canonical: re-rendering the parsed case and
        // parsing again is the identity (pins the format itself).
        assert_eq!(
            parse_case(&render_case(&case)).unwrap(),
            case,
            "{}: case text does not round trip",
            path.display()
        );
        let divergence = run_case(&case, false)
            .unwrap_or_else(|e| panic!("{}: simulation failed: {e}", path.display()));
        assert!(
            divergence.is_none(),
            "{}: healthy engines diverged: {divergence:?}",
            path.display()
        );
    }
    assert!(
        seen >= 2,
        "expected at least two committed cases, found {seen}"
    );
}

#[test]
fn committed_minimal_case_catches_the_injected_bug() {
    let case = load_case("injected_fast_accounting.case");
    let fast = run_case(&case, true)
        .expect("the committed case runs")
        .expect("the planted bug perturbs the fast engine");
    assert!(
        fast.fields.iter().any(|f| f.path.contains("useful_cycles")),
        "the field-wise diff must name the under-counted counter: {:?}",
        fast.fields
    );
}

#[test]
fn committed_minimal_case_is_actually_minimal() {
    let case = load_case("injected_fast_accounting.case");
    let shrunk = shrink_case(&case, |c| matches!(run_case(c, true), Ok(Some(_))));
    assert_eq!(
        shrunk.total_ops(),
        case.total_ops(),
        "the committed case can be shrunk further — re-commit the smaller one:\n{}",
        render_case(&shrunk)
    );
    assert_eq!(case.total_ops(), 1, "one compute op is the whole trigger");
}
