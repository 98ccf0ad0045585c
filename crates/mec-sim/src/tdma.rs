//! TDMA upload scheduling (the serialization shown in the paper's
//! Fig. 1).
//!
//! In the considered MEC system all `Z` resource blocks are granted to
//! one uploader at a time: when a device finishes its local model
//! update it may start uploading only if the channel is free, otherwise
//! it idles until the previous upload completes. That idle interval is
//! the *slack time* Alg. 3 converts into energy savings.


use crate::device::DeviceId;
use crate::units::Seconds;

/// An upload request: a device that finishes computing at
/// `compute_finish` (relative to the round start) and then needs the
/// channel for `upload_duration`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UploadRequest {
    /// The requesting device.
    pub device: DeviceId,
    /// When the device's local model update completes.
    pub compute_finish: Seconds,
    /// How long its model upload occupies the channel.
    pub upload_duration: Seconds,
}

/// A scheduled, serialized channel occupation for one device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UploadSlot {
    /// The uploading device.
    pub device: DeviceId,
    /// Position of this slot's request in the slice handed to
    /// [`TdmaSchedule::new`], so callers resolve a slot back to their
    /// own per-device data by index rather than by searching for the id.
    pub request: usize,
    /// When its local computation finished.
    pub compute_finish: Seconds,
    /// When its upload actually starts (≥ `compute_finish`).
    pub upload_start: Seconds,
    /// When its upload completes.
    pub upload_end: Seconds,
}

impl UploadSlot {
    /// The slack (idle wait) between compute completion and the start
    /// of the upload — the quantity Alg. 3 reclaims.
    #[inline]
    pub fn slack(&self) -> Seconds {
        self.upload_start - self.compute_finish
    }
}

/// The serialized TDMA schedule of one FL round.
#[derive(Debug, Clone, PartialEq)]
pub struct TdmaSchedule {
    slots: Vec<UploadSlot>,
}

impl TdmaSchedule {
    /// Schedules the given upload requests on a single shared channel.
    ///
    /// Devices are served in order of compute completion (FIFO at the
    /// channel, ties broken by [`DeviceId`]) — the discipline described
    /// in §VI-A: a device "must stop and wait for the previous user to
    /// finish uploading before starting to convey its model".
    ///
    /// The sort is stable, so requests that tie on both keys (a
    /// repeated id) keep their input order.
    ///
    /// An empty request set yields an empty schedule.
    pub fn new(requests: &[UploadRequest]) -> Self {
        let mut order: Vec<usize> = (0..requests.len()).collect();
        order.sort_by(|&a, &b| {
            let (a, b) = (&requests[a], &requests[b]);
            a.compute_finish
                .partial_cmp(&b.compute_finish)
                .expect("compute-finish times must not be NaN")
                .then_with(|| a.device.cmp(&b.device))
        });
        let mut slots = Vec::with_capacity(requests.len());
        let mut channel_free = Seconds::ZERO;
        for request in order {
            let req = &requests[request];
            let upload_start = req.compute_finish.max(channel_free);
            let upload_end = upload_start + req.upload_duration;
            channel_free = upload_end;
            slots.push(UploadSlot {
                device: req.device,
                request,
                compute_finish: req.compute_finish,
                upload_start,
                upload_end,
            });
        }
        Self { slots }
    }

    /// The scheduled slots in channel order.
    #[inline]
    pub fn slots(&self) -> &[UploadSlot] {
        &self.slots
    }

    /// Round makespan: when the last upload completes (zero if empty).
    pub fn makespan(&self) -> Seconds {
        self.slots.last().map_or(Seconds::ZERO, |s| s.upload_end)
    }

    /// Total slack across all devices — the energy-saving head-room
    /// observed in §VI-A.
    pub fn total_slack(&self) -> Seconds {
        self.slots.iter().map(UploadSlot::slack).sum()
    }

    /// The slot of a specific device, if scheduled.
    pub fn slot(&self, device: DeviceId) -> Option<&UploadSlot> {
        self.slots.iter().find(|s| s.device == device)
    }

    /// Total busy time of the channel (sum of upload durations).
    pub fn channel_busy(&self) -> Seconds {
        self.slots.iter().map(|s| s.upload_end - s.upload_start).sum()
    }

    /// Time the channel spends idle between round start and makespan.
    pub fn channel_idle(&self) -> Seconds {
        self.makespan() - self.channel_busy()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: usize, finish: f64, dur: f64) -> UploadRequest {
        UploadRequest {
            device: DeviceId(id),
            compute_finish: Seconds::new(finish),
            upload_duration: Seconds::new(dur),
        }
    }

    #[test]
    fn empty_schedule_has_zero_makespan() {
        let s = TdmaSchedule::new(&[]);
        assert!(s.slots().is_empty());
        assert_eq!(s.makespan(), Seconds::ZERO);
        assert_eq!(s.total_slack(), Seconds::ZERO);
        assert_eq!(s.channel_idle(), Seconds::ZERO);
    }

    #[test]
    fn single_upload_starts_immediately_after_compute() {
        let s = TdmaSchedule::new(&[req(0, 2.0, 5.0)]);
        let slot = &s.slots()[0];
        assert_eq!(slot.upload_start, Seconds::new(2.0));
        assert_eq!(slot.upload_end, Seconds::new(7.0));
        assert_eq!(slot.slack(), Seconds::ZERO);
        assert_eq!(s.makespan(), Seconds::new(7.0));
        // Channel idles while device 0 computes.
        assert_eq!(s.channel_idle(), Seconds::new(2.0));
    }

    #[test]
    fn fig1_scenario_second_device_waits_for_first_upload() {
        // Fig. 1: user 1 finishes computing first, uploads; user 2
        // finishes during user 1's upload and must wait.
        let s = TdmaSchedule::new(&[req(1, 2.0, 6.0), req(2, 4.0, 6.0)]);
        let first = s.slot(DeviceId(1)).unwrap();
        let second = s.slot(DeviceId(2)).unwrap();
        assert_eq!(first.upload_start, Seconds::new(2.0));
        assert_eq!(first.upload_end, Seconds::new(8.0));
        assert_eq!(second.upload_start, Seconds::new(8.0));
        assert_eq!(second.slack(), Seconds::new(4.0));
        assert_eq!(s.makespan(), Seconds::new(14.0));
        assert_eq!(s.total_slack(), Seconds::new(4.0));
    }

    #[test]
    fn service_order_follows_compute_finish_not_insertion() {
        let s = TdmaSchedule::new(&[req(0, 10.0, 1.0), req(1, 1.0, 1.0)]);
        assert_eq!(s.slots()[0].device, DeviceId(1));
        assert_eq!(s.slots()[1].device, DeviceId(0));
        // Device 0 finds the channel free at t = 10.
        assert_eq!(s.slots()[1].slack(), Seconds::ZERO);
    }

    #[test]
    fn ties_break_by_device_id() {
        let s = TdmaSchedule::new(&[req(5, 3.0, 1.0), req(2, 3.0, 1.0)]);
        assert_eq!(s.slots()[0].device, DeviceId(2));
        assert_eq!(s.slots()[1].device, DeviceId(5));
    }

    #[test]
    fn slots_record_their_request_position() {
        let reqs = [req(7, 4.0, 1.0), req(3, 1.0, 1.0), req(7, 2.0, 1.0), req(7, 2.0, 0.5)];
        let s = TdmaSchedule::new(&reqs);
        let order: Vec<usize> = s.slots().iter().map(|slot| slot.request).collect();
        // Finish order, then id; the two full ties keep input order.
        assert_eq!(order, vec![1, 2, 3, 0]);
        for slot in s.slots() {
            assert_eq!(slot.device, reqs[slot.request].device);
            assert_eq!(slot.compute_finish, reqs[slot.request].compute_finish);
        }
    }

    #[test]
    fn cascading_waits_accumulate() {
        // Three devices finish at t=0,1,2 but each upload takes 10.
        let s = TdmaSchedule::new(&[req(0, 0.0, 10.0), req(1, 1.0, 10.0), req(2, 2.0, 10.0)]);
        assert_eq!(s.slot(DeviceId(1)).unwrap().slack(), Seconds::new(9.0));
        assert_eq!(s.slot(DeviceId(2)).unwrap().slack(), Seconds::new(18.0));
        assert_eq!(s.makespan(), Seconds::new(30.0));
        assert_eq!(s.channel_busy(), Seconds::new(30.0));
        assert_eq!(s.channel_idle(), Seconds::ZERO);
    }

    #[test]
    fn makespan_never_below_any_single_device_span() {
        let reqs = vec![req(0, 3.0, 2.0), req(1, 0.5, 4.0), req(2, 6.0, 1.0)];
        let s = TdmaSchedule::new(&reqs);
        for r in &reqs {
            assert!(s.makespan() >= r.compute_finish + r.upload_duration);
        }
    }
}
