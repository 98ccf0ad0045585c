//! Golden histories for the four comparison schemes. HELCFL's fast IID
//! history is pinned by `indexed_golden.rs` and the ci.sh golden
//! checks; this suite pins Classic, FedCS, FEDL, and SL the same way,
//! byte for byte against `results/golden/history_fast_iid_{scheme}.csv`.
//!
//! The CSV prints accuracies to six decimals, which would hide a change
//! in the evaluation path that moves an accuracy by less than that. So
//! every evaluated round's `test_accuracy` is also compared by its exact
//! `f64` bits, against `results/golden/accuracy_bits_fast_iid.csv`
//! (`scheme,round,test_accuracy_bits`, the bits in hex).

use helcfl_bench::scenario::{PaperScenario, Setting};
use helcfl_bench::schemes::Scheme;

fn golden(name: &str) -> String {
    let path = format!("{}/../../results/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

/// Runs `scheme` on the fast IID scenario and compares its history
/// with the committed golden CSV and its accuracies with the committed
/// bits.
fn assert_matches_golden(scheme: Scheme) {
    let label = scheme.label();
    let scenario = PaperScenario::fast();
    let mut setup = scenario.setup(Setting::Iid).unwrap();
    let history = scheme.run(&mut setup, &scenario.training_config()).unwrap();
    assert_eq!(
        history.to_csv(),
        golden(&format!("history_fast_iid_{label}.csv")),
        "{label}: history diverged from the golden CSV"
    );
    let got: Vec<String> = history
        .records()
        .iter()
        .filter_map(|r| {
            r.test_accuracy.map(|a| format!("{label},{},{:016x}", r.round, a.to_bits()))
        })
        .collect();
    let prefix = format!("{label},");
    let bits = golden("accuracy_bits_fast_iid.csv");
    let want: Vec<&str> = bits.lines().filter(|l| l.starts_with(&prefix)).collect();
    assert!(!want.is_empty(), "{label}: no golden accuracy bits");
    assert_eq!(got, want, "{label}: test_accuracy bits diverged from the golden");
}

/// Pins every lineup scheme but HELCFL, so the pinned configurations
/// are the ones the experiments run.
#[test]
fn comparison_schemes_reproduce_their_golden_histories() {
    let schemes: Vec<Scheme> = Scheme::lineup()
        .into_iter()
        .filter(|s| !matches!(s, Scheme::Helcfl { .. }))
        .collect();
    assert_eq!(schemes.len(), 4);
    for scheme in schemes {
        assert_matches_golden(scheme);
    }
}
