//! Golden histories for the five lineup schemes, byte for byte against
//! `results/golden/history_fast_iid_{scheme}.csv`, under the default
//! config and under a round deadline that is armed every round but
//! never fires (so the zero-rate fault plan stays inert too).
//!
//! The CSV prints accuracies to six decimals, which would hide a change
//! in the evaluation path that moves an accuracy by less than that. So
//! every evaluated round's `test_accuracy` is also compared by its exact
//! `f64` bits, against `results/golden/accuracy_bits_fast_iid.csv`
//! (`scheme,round,test_accuracy_bits`, the bits in hex). That file pins
//! the four comparison schemes; HELCFL's bits are held to be the same
//! under both configs.
//!
//! `ci.sh` runs this suite once more with `HELCFL_SIMD=off`, so the
//! goldens pin the scalar kernels as well as the dispatched ones.

use fl_sim::faults::DegradationPolicy;
use fl_sim::runner::TrainingConfig;
use helcfl_bench::scenario::{PaperScenario, Setting};
use helcfl_bench::schemes::Scheme;
use mec_sim::units::Seconds;

fn golden(name: &str) -> String {
    let path = format!("{}/../../results/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

/// Runs `scheme` on the fast IID scenario under `config`, compares its
/// history with the committed golden CSV, and returns its accuracies'
/// bits as `scheme,round,bits` lines.
fn assert_matches_golden(scheme: &Scheme, config: &TrainingConfig) -> Vec<String> {
    let label = scheme.label();
    let mut setup = PaperScenario::fast().setup(Setting::Iid).unwrap();
    let history = scheme.run(&mut setup, config).unwrap();
    assert_eq!(
        history.to_csv(),
        golden(&format!("history_fast_iid_{label}.csv")),
        "{label}: history diverged from the golden CSV under {:?}",
        config.degradation
    );
    history
        .records()
        .iter()
        .filter_map(|r| {
            r.test_accuracy.map(|a| format!("{label},{},{:016x}", r.round, a.to_bits()))
        })
        .collect()
}

/// Pins every lineup scheme, so the pinned configurations are the ones
/// the experiments run.
#[test]
fn comparison_schemes_reproduce_their_golden_histories() {
    let base = PaperScenario::fast().training_config();
    let never_fires = TrainingConfig {
        degradation: DegradationPolicy {
            round_deadline: Some(Seconds::new(1.0e12)),
            ..DegradationPolicy::default()
        },
        ..base.clone()
    };
    let bits = golden("accuracy_bits_fast_iid.csv");
    for scheme in Scheme::lineup() {
        let label = scheme.label();
        let got = assert_matches_golden(&scheme, &base);
        let armed = assert_matches_golden(&scheme, &never_fires);
        assert_eq!(got, armed, "{label}: a never-firing deadline moved test_accuracy bits");
        if matches!(scheme, Scheme::Helcfl { .. }) {
            continue;
        }
        let prefix = format!("{label},");
        let want: Vec<&str> = bits.lines().filter(|l| l.starts_with(&prefix)).collect();
        assert!(!want.is_empty(), "{label}: no golden accuracy bits");
        assert_eq!(got, want, "{label}: test_accuracy bits diverged from the golden");
    }
}
