//! Error types for the MEC simulator.

use core::fmt;

use crate::units::Hertz;

/// Errors produced when constructing or operating MEC system models.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum MecError {
    /// A DVFS range was constructed with `f_min > f_max` or a
    /// non-positive bound.
    InvalidFrequencyRange {
        /// The offending lower bound.
        min: Hertz,
        /// The offending upper bound.
        max: Hertz,
    },
    /// A requested operating frequency lies outside the device's
    /// supported `[f_min, f_max]` range.
    FrequencyOutOfRange {
        /// The requested frequency.
        requested: Hertz,
        /// The supported lower bound.
        min: Hertz,
        /// The supported upper bound.
        max: Hertz,
    },
    /// A model parameter that must be strictly positive was not.
    NonPositiveParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// The offending value.
        value: f64,
    },
    /// An operation that needs at least one device was given none.
    EmptyDeviceSet,
    /// A device id or a cohort position does not fit the 32 bits the
    /// cohort order packs it into ([`crate::order::KEY_LIMIT`]).
    KeyOutOfRange {
        /// Name of the offending field.
        field: &'static str,
        /// The offending value.
        value: usize,
    },
}

impl fmt::Display for MecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidFrequencyRange { min, max } => {
                write!(f, "invalid DVFS frequency range [{min}, {max}]")
            }
            Self::FrequencyOutOfRange { requested, min, max } => {
                write!(
                    f,
                    "frequency {requested} outside supported range [{min}, {max}]"
                )
            }
            Self::NonPositiveParameter { name, value } => {
                write!(f, "parameter `{name}` must be positive, got {value}")
            }
            Self::EmptyDeviceSet => write!(f, "operation requires at least one device"),
            Self::KeyOutOfRange { field, value } => write!(
                f,
                "`{field}` {value} does not fit the cohort order's 32-bit keys (must be \
                 below {})",
                crate::order::KEY_LIMIT
            ),
        }
    }
}

impl std::error::Error for MecError {}

/// Convenience alias for results carrying a [`MecError`].
pub type Result<T> = core::result::Result<T, MecError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = MecError::InvalidFrequencyRange {
            min: Hertz::from_ghz(2.0),
            max: Hertz::from_ghz(1.0),
        };
        let msg = e.to_string();
        assert!(msg.starts_with("invalid DVFS"));
        assert!(msg.contains("2000000000 Hz"));

        let e = MecError::NonPositiveParameter { name: "pi", value: -1.0 };
        assert!(e.to_string().contains("`pi`"));

        assert_eq!(
            MecError::EmptyDeviceSet.to_string(),
            "operation requires at least one device"
        );
    }

    #[test]
    fn error_is_send_sync_static() {
        fn assert_traits<T: std::error::Error + Send + Sync + 'static>() {}
        assert_traits::<MecError>();
    }
}
