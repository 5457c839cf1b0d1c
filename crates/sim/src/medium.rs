//! Shared communication media (interface, memory, dedicated links).
//!
//! A medium serializes transfers FIFO at its bandwidth: a transfer
//! starting while the medium is busy waits for the in-flight transfers
//! to drain. This first-order contention model matches the analytical
//! model's aggregate-bandwidth bounds while producing realistic
//! transfer-level interleaving.

use crate::time::SimTime;
use lognic_model::units::{Bandwidth, Bytes};

/// A bandwidth-serialized communication resource.
#[derive(Debug, Clone)]
pub struct Medium {
    name: String,
    bandwidth: Bandwidth,
    next_free: SimTime,
    busy: SimTime,
    transferred: u64,
}

impl Medium {
    /// Creates a medium with the given aggregate bandwidth.
    pub fn new(name: &str, bandwidth: Bandwidth) -> Self {
        Medium {
            name: name.to_owned(),
            bandwidth,
            next_free: SimTime::ZERO,
            busy: SimTime::ZERO,
            transferred: 0,
        }
    }

    /// The medium's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The configured bandwidth.
    pub fn bandwidth(&self) -> Bandwidth {
        self.bandwidth
    }

    /// Reserves the medium for `bytes` starting no earlier than `now`
    /// and returns the completion time. `duration` is the transfer's
    /// [`transfer_duration`] at this medium's bandwidth, computed by
    /// the caller so the engine can keep durations per packet size.
    /// Zero-byte transfers complete immediately and zero-bandwidth
    /// media block forever ([`SimTime::MAX`]).
    ///
    /// The transfer is refused (`None`) when the medium's reservation
    /// backlog already extends more than `max_backlog` past `now`.
    /// This models the finite buffering in front of a saturated
    /// interconnect: without it, an overdriven medium would accumulate
    /// an unbounded queue and starve later pipeline stages of their
    /// share.
    pub(crate) fn try_reserve(
        &mut self,
        now: SimTime,
        bytes: Bytes,
        duration: SimTime,
        max_backlog: SimTime,
    ) -> Option<SimTime> {
        debug_assert_eq!(duration, transfer_duration(self.bandwidth, bytes));
        if bytes.get() == 0 {
            return Some(now);
        }
        if self.bandwidth.is_zero() {
            return Some(SimTime::MAX);
        }
        if self.next_free.since(now) > max_backlog {
            return None;
        }
        let start = now.max(self.next_free);
        let end = start + duration;
        self.next_free = end;
        self.busy += duration;
        self.transferred += bytes.get();
        Some(end)
    }

    /// Total bytes moved so far.
    pub fn transferred(&self) -> Bytes {
        Bytes::new(self.transferred)
    }

    /// Fraction of `elapsed` the medium spent transferring.
    pub fn utilization(&self, elapsed: SimTime) -> f64 {
        if elapsed == SimTime::ZERO {
            return 0.0;
        }
        (self.busy.as_secs() / elapsed.as_secs()).min(1.0)
    }
}

/// The time `bytes` occupy a medium of `bandwidth`, rounded to the
/// picosecond: zero for an empty transfer, [`SimTime::MAX`] when the
/// bandwidth is zero.
pub(crate) fn transfer_duration(bandwidth: Bandwidth, bytes: Bytes) -> SimTime {
    if bytes.get() == 0 {
        return SimTime::ZERO;
    }
    if bandwidth.is_zero() {
        return SimTime::MAX;
    }
    SimTime::from_secs(bandwidth.transfer_time(bytes).as_secs())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reserves `bytes` at the duration the engine computes for them.
    fn reserve(
        m: &mut Medium,
        now: SimTime,
        bytes: Bytes,
        max_backlog: SimTime,
    ) -> Option<SimTime> {
        let duration = transfer_duration(m.bandwidth(), bytes);
        m.try_reserve(now, bytes, duration, max_backlog)
    }

    /// An unbounded reservation, which is never refused.
    fn reserve_unbounded(m: &mut Medium, now: SimTime, bytes: Bytes) -> SimTime {
        reserve(m, now, bytes, SimTime::MAX).expect("an unbounded reservation is never refused")
    }

    #[test]
    fn transfer_time_at_bandwidth() {
        let mut m = Medium::new("intf", Bandwidth::gbps(8.0));
        // 1000 B at 8 Gb/s = 1 µs.
        let end = reserve_unbounded(&mut m, SimTime::ZERO, Bytes::new(1000));
        assert_eq!(end, SimTime::from_micros(1.0));
        assert_eq!(m.transferred(), Bytes::new(1000));
        assert_eq!(m.name(), "intf");
    }

    #[test]
    fn back_to_back_transfers_serialize() {
        let mut m = Medium::new("intf", Bandwidth::gbps(8.0));
        let e1 = reserve_unbounded(&mut m, SimTime::ZERO, Bytes::new(1000));
        // Second transfer issued at t=0 must wait for the first.
        let e2 = reserve_unbounded(&mut m, SimTime::ZERO, Bytes::new(1000));
        assert_eq!(e1, SimTime::from_micros(1.0));
        assert_eq!(e2, SimTime::from_micros(2.0));
    }

    #[test]
    fn idle_gap_is_not_charged() {
        let mut m = Medium::new("intf", Bandwidth::gbps(8.0));
        let _ = reserve_unbounded(&mut m, SimTime::ZERO, Bytes::new(1000));
        // Issued long after the medium went idle.
        let e2 = reserve_unbounded(&mut m, SimTime::from_micros(10.0), Bytes::new(1000));
        assert_eq!(e2, SimTime::from_micros(11.0));
        // Busy time is 2 µs over 11 µs elapsed.
        assert!((m.utilization(SimTime::from_micros(11.0)) - 2.0 / 11.0).abs() < 1e-9);
    }

    #[test]
    fn zero_bytes_complete_instantly() {
        let mut m = Medium::new("intf", Bandwidth::gbps(1.0));
        assert_eq!(
            reserve_unbounded(&mut m, SimTime::from_nanos(5.0), Bytes::new(0)),
            SimTime::from_nanos(5.0)
        );
        assert_eq!(m.transferred(), Bytes::new(0));
    }

    #[test]
    fn zero_bandwidth_blocks_forever() {
        let mut m = Medium::new("dead", Bandwidth::ZERO);
        assert_eq!(
            reserve_unbounded(&mut m, SimTime::ZERO, Bytes::new(1)),
            SimTime::MAX
        );
    }

    #[test]
    fn transfer_duration_edges() {
        let bw = Bandwidth::gbps(8.0);
        assert_eq!(
            transfer_duration(bw, Bytes::new(1000)),
            SimTime::from_micros(1.0)
        );
        // An empty transfer takes no time, even with no bandwidth.
        assert_eq!(transfer_duration(bw, Bytes::new(0)), SimTime::ZERO);
        assert_eq!(
            transfer_duration(Bandwidth::ZERO, Bytes::new(0)),
            SimTime::ZERO
        );
        assert_eq!(
            transfer_duration(Bandwidth::ZERO, Bytes::new(1)),
            SimTime::MAX
        );
    }

    #[test]
    fn reservation_refused_when_backlogged() {
        let mut m = Medium::new("intf", Bandwidth::gbps(8.0));
        // Fill 3 µs of backlog.
        for _ in 0..3 {
            let _ = reserve_unbounded(&mut m, SimTime::ZERO, Bytes::new(1000));
        }
        // A cap of 2 µs refuses; a cap of 5 µs admits.
        assert!(reserve(
            &mut m,
            SimTime::ZERO,
            Bytes::new(1000),
            SimTime::from_micros(2.0)
        )
        .is_none());
        let end = reserve(
            &mut m,
            SimTime::ZERO,
            Bytes::new(1000),
            SimTime::from_micros(5.0),
        );
        assert_eq!(end, Some(SimTime::from_micros(4.0)));
        // Refusal did not consume bandwidth.
        assert_eq!(m.transferred(), Bytes::new(4000));
    }

    #[test]
    fn utilization_capped_at_one() {
        let mut m = Medium::new("intf", Bandwidth::gbps(1.0));
        for _ in 0..10 {
            let _ = reserve_unbounded(&mut m, SimTime::ZERO, Bytes::new(1000));
        }
        assert_eq!(m.utilization(SimTime::from_micros(1.0)), 1.0);
        assert_eq!(m.utilization(SimTime::ZERO), 0.0);
    }
}
