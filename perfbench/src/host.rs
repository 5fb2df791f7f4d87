//! CPU time the hypervisor steals from this (virtual) machine.
//!
//! On a shared host, other tenants' load deschedules this machine's
//! virtual CPUs for milliseconds at a time. A request-response ping-pong
//! between client and daemon threads stalls whenever the thread it wakes
//! sits on a descheduled CPU, so a few percent of stolen time costs tens
//! of percent of throughput, in stretches that last seconds. The serving
//! workloads therefore sample the `steal` column of `/proc/stat` in short
//! windows and compute their figures over the windows with the least
//! stolen time; the share of the run those windows cover is reported.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Length of one sampling window.
pub const WINDOW: Duration = Duration::from_millis(100);
/// Least share of the run the selected windows cover.
pub const MIN_SHARE: f64 = 0.25;

/// Stolen time so far, summed over CPUs, in clock ticks.
pub fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    // cpu user nice system idle iowait irq softirq steal …
    stat.lines().next()?.split_whitespace().nth(8)?.parse().ok()
}

/// One sampling window.
#[derive(Clone, Copy, Debug)]
pub struct Window {
    pub start: Instant,
    pub end: Instant,
    /// Ticks stolen during the window.
    pub steal: u64,
}

/// Samples windows until `stop` or `deadline`. Where `/proc/stat` has
/// no steal column every window reads as steal-free.
pub fn sample(stop: &AtomicBool, deadline: Instant) -> Vec<Window> {
    let mut windows = Vec::new();
    let (mut start, mut before) = (Instant::now(), steal_ticks().unwrap_or(0));
    while !stop.load(Ordering::Relaxed) && Instant::now() < deadline {
        std::thread::sleep(WINDOW.min(deadline.saturating_duration_since(Instant::now())));
        let (end, after) = (Instant::now(), steal_ticks().unwrap_or(0));
        windows.push(Window {
            start,
            end,
            steal: after.saturating_sub(before),
        });
        (start, before) = (end, after);
    }
    windows
}

/// The windows a run's figures are computed over: those with the least
/// stolen time, extended in order of stolen time until they cover at
/// least [`MIN_SHARE`] of the run.
pub struct Selected {
    /// Selected windows in time order.
    windows: Vec<(Instant, Instant)>,
    /// Selected time over sampled time.
    pub share: f64,
    /// Stolen ticks per window over the whole run.
    pub steal_per_window: f64,
}

impl Selected {
    pub fn new(windows: &[Window]) -> Selected {
        let steals: Vec<f64> = windows.iter().map(|w| w.steal as f64).collect();
        let mut chosen: Vec<(Instant, Instant)> = least_stolen(&steals, 1)
            .into_iter()
            .map(|i| (windows[i].start, windows[i].end))
            .collect();
        chosen.sort();
        let total: f64 = windows
            .iter()
            .map(|w| (w.end - w.start).as_secs_f64())
            .sum();
        let selected: f64 = chosen.iter().map(|(s, e)| (*e - *s).as_secs_f64()).sum();
        Selected {
            share: selected / total,
            steal_per_window: steals.iter().sum::<f64>() / windows.len() as f64,
            windows: chosen,
        }
    }

    /// Number of selected windows.
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// The selected window instant `t` falls in.
    pub fn window_of(&self, t: Instant) -> Option<usize> {
        let i = self.windows.partition_point(|(start, _)| *start <= t);
        (i > 0 && t < self.windows[i - 1].1).then(|| i - 1)
    }

    /// Length of selected window `i`, in seconds.
    pub fn seconds(&self, i: usize) -> f64 {
        let (start, end) = self.windows[i];
        (end - start).as_secs_f64()
    }
}

/// Indices of the items with the least stolen time: every item with the
/// minimum, extended in order of stolen time to at least [`MIN_SHARE`]
/// of the items and at least `min` of them.
pub fn least_stolen(steals: &[f64], min: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..steals.len()).collect();
    order.sort_by(|&a, &b| steals[a].total_cmp(&steals[b]));
    let least = order.first().map_or(0.0, |&i| steals[i]);
    let wanted = ((steals.len() as f64 * MIN_SHARE).ceil() as usize).max(min);
    order
        .into_iter()
        .enumerate()
        .take_while(|&(rank, i)| steals[i] == least || rank < wanted)
        .map(|(_, i)| i)
        .collect()
}

/// Stolen ticks per window over the windows that overlap
/// `[start, end]`: a rate, so that a long interval does not rank as
/// more disturbed than a short one for overlapping more windows. NaN
/// when no window overlaps.
pub fn steal_rate(windows: &[Window], start: Instant, end: Instant) -> f64 {
    let overlapping: Vec<u64> = windows
        .iter()
        .filter(|w| w.start < end && start < w.end)
        .map(|w| w.steal)
        .collect();
    overlapping.iter().sum::<u64>() as f64 / overlapping.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn windows(steal: &[u64]) -> (Instant, Vec<Window>) {
        let t0 = Instant::now();
        let w = steal
            .iter()
            .enumerate()
            .map(|(i, &s)| Window {
                start: t0 + WINDOW * i as u32,
                end: t0 + WINDOW * (i as u32 + 1),
                steal: s,
            })
            .collect();
        (t0, w)
    }

    #[test]
    fn keeps_the_windows_with_least_steal() {
        let (t0, w) = windows(&[0, 3, 0, 5, 0, 0, 2, 0]);
        let s = Selected::new(&w);
        assert!((s.share - 5.0 / 8.0).abs() < 1e-9);
        assert_eq!(s.len(), 5);
        assert_eq!(s.window_of(t0 + Duration::from_millis(50)), Some(0));
        assert_eq!(s.window_of(t0 + Duration::from_millis(150)), None);
        assert_eq!(s.window_of(t0 + Duration::from_millis(450)), Some(2));
        assert_eq!(s.window_of(t0 + Duration::from_millis(799)), Some(4));
        assert_eq!(s.window_of(t0 + Duration::from_millis(800)), None);
        assert!((s.seconds(4) - 0.1).abs() < 1e-9);
    }

    #[test]
    fn covers_a_quarter_of_the_run_at_least() {
        let (_, w) = windows(&[4, 3, 9, 5, 6, 7, 8, 2]);
        let s = Selected::new(&w);
        // The two windows with the least steal: 2 and 3 ticks.
        assert!((s.share - 0.25).abs() < 1e-9);
        assert_eq!(s.steal_per_window, 5.5);
    }

    #[test]
    fn picks_items_and_intervals_by_stolen_time() {
        let mut picked = least_stolen(&[5.0, 0.0, 7.0, 0.0, 1.0, 9.0, 2.0, 3.0], 3);
        picked.sort();
        assert_eq!(picked, vec![1, 3, 4]);
        assert_eq!(least_stolen(&[0.0, 0.0, 0.0, 0.0, 4.0], 1).len(), 4);
        let (t0, w) = windows(&[1, 2, 4, 8]);
        let ms = |n| t0 + Duration::from_millis(n);
        assert_eq!(steal_rate(&w, ms(50), ms(250)), 7.0 / 3.0);
        assert_eq!(steal_rate(&w, ms(300), ms(400)), 8.0);
        assert!(steal_rate(&w, ms(500), ms(600)).is_nan());
    }

    #[test]
    fn a_long_interval_ranks_by_rate_not_by_length() {
        // Every window loses 2 ticks. A long interval overlaps six of
        // them, a short one one: same rate, so neither ranks below.
        let (t0, w) = windows(&[2; 8]);
        let ms = |n| t0 + Duration::from_millis(n);
        let long = steal_rate(&w, ms(10), ms(590));
        let short = steal_rate(&w, ms(610), ms(690));
        assert_eq!(long, short);
        // Ranked by total ticks (12, 0, 2), the long interval would be
        // dropped first; by rate it ties with the busy short one and,
        // first in time, is kept.
        let (t0, w) = windows(&[2, 2, 2, 2, 2, 2, 0, 2]);
        let ms = |n| t0 + Duration::from_millis(n);
        let rates = [
            steal_rate(&w, ms(10), ms(590)),
            steal_rate(&w, ms(610), ms(690)),
            steal_rate(&w, ms(710), ms(790)),
        ];
        assert_eq!(rates, [2.0, 0.0, 2.0]);
        let mut picked = least_stolen(&rates, 2);
        picked.sort();
        assert_eq!(picked, vec![0, 1]);
    }
}
