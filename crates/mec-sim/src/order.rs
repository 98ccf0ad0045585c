//! The cohort order: one exact sort behind every per-round ordering.
//!
//! Alg. 3 visits its cohort by compute delay at `f_max`, and the TDMA
//! channel serves uploads by compute finish; both break ties by
//! [`DeviceId`], then by input position. Each orders one key per
//! device, `(primary bits, id, input)`, where the primary is a
//! non-negative, non-NaN `f64` (whose bits sort like its value) or
//! `u64::MAX`. Packed into one `u128` — primary in the high 64 bits,
//! id and input in 32 bits each below it — the integer order of the
//! keys is the tuple order, so the kernel sorts plain integers.
//!
//! The input position makes every key unique, so every correct sort
//! returns the same order: the kernel can change no history.
//!
//! The kernel is an adaptive most-significant-digit bucket sort. A
//! pass over `n` keys finds the highest bit that varies among them and
//! distributes the keys by the `⌊log2(n/2)⌋ + 1` bits from there down,
//! into between `n/2` and `n` buckets. It recurses into every bucket of
//! more than 32 keys and insertion-sorts the rest. A run of equal
//! primaries (a cohort clamped to `f_min` with equal work) lands in one
//! bucket, and the recursion distributes that run by id.

use crate::device::{Device, DeviceId};
use crate::error::{MecError, Result};

/// Ids and input positions must lie below this bound to pack into a
/// key (the same rule the Alg. 2 index enforces for its ranks).
pub const KEY_LIMIT: usize = u32::MAX as usize;

/// Buckets of at most this many keys are insertion-sorted.
pub(crate) const INSERTION_CUTOFF: usize = 32;

/// Packs `(primary, id, input)` into a key whose integer order is the
/// tuple order.
///
/// # Errors
///
/// Returns [`MecError::KeyOutOfRange`] naming `device.id` or `input`
/// when the id or the input position does not lie below [`KEY_LIMIT`].
#[inline]
pub(crate) fn pack(primary: u64, id: DeviceId, input: usize) -> Result<u128> {
    if id.0 >= KEY_LIMIT {
        return Err(MecError::KeyOutOfRange { field: "device.id", value: id.0 });
    }
    if input >= KEY_LIMIT {
        return Err(MecError::KeyOutOfRange { field: "input", value: input });
    }
    Ok(u128::from(primary) << 64 | (id.0 as u128) << 32 | input as u128)
}

/// The primary bits of a packed key.
#[inline]
pub fn primary(key: u128) -> u64 {
    (key >> 64) as u64
}

/// The input position of a packed key.
#[inline]
pub fn input(key: u128) -> usize {
    key as u32 as usize
}

/// The keys of `devices` in ascending order, `primary_of(i, device)`
/// giving device `i`'s primary bits.
///
/// # Errors
///
/// Returns the first error of `primary_of`, or
/// [`MecError::KeyOutOfRange`] for an id or a position at or past
/// [`KEY_LIMIT`].
pub fn cohort_order(
    devices: &[Device],
    mut primary_of: impl FnMut(usize, &Device) -> Result<u64>,
) -> Result<Vec<u128>> {
    let mut keys = Vec::with_capacity(devices.len());
    for (i, dev) in devices.iter().enumerate() {
        keys.push(pack(primary_of(i, dev)?, dev.id(), i)?);
    }
    sort_keys(&mut keys);
    Ok(keys)
}

/// Sorts `keys` ascending.
pub(crate) fn sort_keys(keys: &mut [u128]) {
    if keys.len() <= INSERTION_CUTOFF {
        insertion_sort(keys);
    } else {
        distribute(keys, &mut vec![0; keys.len()]);
    }
}

/// One MSD pass over `keys` (more than [`INSERTION_CUTOFF`] of them),
/// with `scratch` of the same length, then the recursion into its
/// buckets.
fn distribute(keys: &mut [u128], scratch: &mut [u128]) {
    let n = keys.len();
    let (or, and) = keys.iter().fold((0, u128::MAX), |(o, a), &k| (o | k, a & k));
    let varying = or ^ and;
    if varying == 0 {
        return;
    }
    // Bits above `top` are equal in every key; bucket by the `width`
    // bits just below it.
    let top = u128::BITS - varying.leading_zeros();
    let width = (usize::BITS - (n / 2).leading_zeros()).min(top);
    let shift = top - width;
    let mask = (1usize << width) - 1;
    let bucket = |k: u128| (k >> shift) as usize & mask;

    // `ends[b]` starts as bucket b's first slot and ends one past its
    // last after the scatter.
    let mut ends = vec![0usize; mask + 1];
    for &k in keys.iter() {
        ends[bucket(k)] += 1;
    }
    let mut start = 0;
    for e in &mut ends {
        let count = *e;
        *e = start;
        start += count;
    }
    for &k in keys.iter() {
        let slot = &mut ends[bucket(k)];
        scratch[*slot] = k;
        *slot += 1;
    }
    keys.copy_from_slice(scratch);

    let mut lo = 0;
    for &hi in &ends {
        let run = &mut keys[lo..hi];
        if run.len() > INSERTION_CUTOFF {
            distribute(run, &mut scratch[lo..hi]);
        } else if run.len() > 1 {
            insertion_sort(run);
        }
        lo = hi;
    }
}

fn insertion_sort(keys: &mut [u128]) {
    for i in 1..keys.len() {
        let k = keys[i];
        let mut j = i;
        while j > 0 && keys[j - 1] > k {
            keys[j] = keys[j - 1];
            j -= 1;
        }
        keys[j] = k;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use detrand::Rng;

    /// The kernel against `sort_unstable` on the tuples it packs.
    fn check(tuples: &[(u64, usize, usize)]) {
        let mut keys: Vec<u128> = tuples
            .iter()
            .map(|&(p, id, input)| pack(p, DeviceId(id), input).unwrap())
            .collect();
        sort_keys(&mut keys);
        let got: Vec<(u64, DeviceId, usize)> = keys
            .iter()
            .map(|&k| (primary(k), DeviceId(tuples[input(k)].1), input(k)))
            .collect();
        let mut want: Vec<(u64, DeviceId, usize)> =
            tuples.iter().map(|&(p, id, input)| (p, DeviceId(id), input)).collect();
        want.sort_unstable();
        assert_eq!(got, want, "n {}", tuples.len());
    }

    /// `n` tuples whose input is their position, drawn by `draw`.
    fn tuples(n: usize, mut draw: impl FnMut(usize) -> (u64, usize)) -> Vec<(u64, usize, usize)> {
        (0..n)
            .map(|i| {
                let (p, id) = draw(i);
                (p, id, i)
            })
            .collect()
    }

    #[test]
    fn kernel_matches_the_tuple_sort() {
        let mut rng = Rng::seed_from_u64(0x50_47);
        let delay = |rng: &mut Rng| (0.5 + 40.0 * rng.next_f64()).to_bits();
        // Every size around the insertion cutoff and its first
        // recursion, then a stride to 3 000.
        for n in (0..=8 * INSERTION_CUTOFF).chain((8 * INSERTION_CUTOFF..=3_000).step_by(11)) {
            // Distinct delays and ids from a large universe.
            check(&tuples(n, |_| (delay(&mut rng), rng.below(1_000_000))));
            // All-equal primaries: the order is the id order.
            let p = delay(&mut rng);
            check(&tuples(n, |_| (p, rng.below(1_000_000))));
            // Repeated ids and a handful of primaries: full ties keep
            // input order.
            let few = [p, delay(&mut rng), delay(&mut rng)];
            check(&tuples(n, |_| (few[rng.below(3)], rng.below(1 + n / 8))));
            // Compute crashes sort last, at `u64::MAX`, among a tie run.
            check(&tuples(n, |_| {
                let p = match rng.below(4) {
                    0 => u64::MAX,
                    1 => delay(&mut rng),
                    _ => p,
                };
                (p, rng.below(1 + n))
            }));
            // One id everywhere: the input position decides.
            check(&tuples(n, |_| (p, 7)));
        }
        // Ids and primaries at their extremes.
        check(&tuples(500, |i| (u64::MAX - (i % 3) as u64, KEY_LIMIT - 1 - i % 5)));
        check(&tuples(500, |i| ((i % 2) as u64, i % 2)));
    }

    #[test]
    fn keys_past_the_u32_limit_are_refused_by_field() {
        assert!(pack(u64::MAX, DeviceId(KEY_LIMIT - 1), KEY_LIMIT - 1).is_ok());
        assert_eq!(
            pack(0, DeviceId(KEY_LIMIT), 0),
            Err(MecError::KeyOutOfRange { field: "device.id", value: KEY_LIMIT })
        );
        assert_eq!(
            pack(0, DeviceId(0), KEY_LIMIT),
            Err(MecError::KeyOutOfRange { field: "input", value: KEY_LIMIT })
        );
    }
}
