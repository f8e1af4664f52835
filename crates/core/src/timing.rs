//! The library's timing model: the constants the flow derives by STA on
//! small generated probe circuits (library preparation, §3.1.4).
//!
//! Three numbers are library invariants, independent of the design:
//!
//! * the typical-corner delay of one delay-element AND level, which sizes
//!   every region's matched delay element (control network) and feeds the
//!   handshake simulation (liveness guard);
//! * the selection overhead of the 8:1 tap multiplexer, in levels (muxed
//!   delay elements only);
//! * the liveness guard's [`ResponseModel`].
//!
//! [`LibraryTiming`] probes each at most once, on first use, and hands the
//! same value to every later caller. A [`crate::FlowContext`] owns one, so
//! a flow run probes once instead of once per region; a
//! [`crate::Desynchronizer`] shares one with every context it creates, so
//! a long-lived caller (the job server) probes once per process. Nothing
//! is probed up front: a flow that never reaches the control network pays
//! nothing.

use std::sync::OnceLock;

use drd_liberty::Library;

use crate::delay_element;
use crate::liveness::ResponseModel;
use crate::DesyncError;

/// Lazily probed timing constants of one library. Every call must pass
/// the same library; the first successful probe of each constant is kept.
#[derive(Debug, Default)]
pub struct LibraryTiming {
    level_delay_ns: OnceLock<f64>,
    mux_overhead_levels: OnceLock<usize>,
    response: OnceLock<ResponseModel>,
}

impl LibraryTiming {
    /// Typical-corner delay of one delay-element level (ns), see
    /// [`delay_element::level_delay_ns`].
    ///
    /// # Errors
    /// Propagates STA errors from the probe.
    pub fn level_delay_ns(&self, lib: &Library) -> Result<f64, DesyncError> {
        cached(&self.level_delay_ns, || delay_element::level_delay_ns(lib))
    }

    /// Levels the muxed delay element's tap tree is worth, see
    /// [`delay_element::mux_overhead_levels`].
    ///
    /// # Errors
    /// Propagates STA errors from the probe.
    pub fn mux_overhead_levels(&self, lib: &Library) -> Result<usize, DesyncError> {
        cached(&self.mux_overhead_levels, || {
            delay_element::mux_overhead_levels_at(lib, self.level_delay_ns(lib)?)
        })
    }

    /// The liveness guard's response model, see [`ResponseModel::probe`].
    ///
    /// # Errors
    /// As [`ResponseModel::probe`].
    pub fn response(&self, lib: &Library) -> Result<&ResponseModel, DesyncError> {
        if let Some(model) = self.response.get() {
            return Ok(model);
        }
        let model = ResponseModel::probe_at(lib, self.level_delay_ns(lib)?)?;
        Ok(self.response.get_or_init(|| model))
    }
}

/// The cached value, probing it first if no caller has yet. Racing first
/// callers may both probe; the probes are deterministic, so whichever
/// value is stored is the same.
fn cached<T: Copy>(
    cell: &OnceLock<T>,
    probe: impl FnOnce() -> Result<T, DesyncError>,
) -> Result<T, DesyncError> {
    if let Some(&v) = cell.get() {
        return Ok(v);
    }
    let v = probe()?;
    Ok(*cell.get_or_init(|| v))
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use drd_liberty::vlib90;

    #[test]
    fn cached_constants_equal_fresh_probes() {
        let lib = vlib90::high_speed();
        let timing = LibraryTiming::default();
        for _ in 0..2 {
            assert_eq!(
                timing.level_delay_ns(&lib).unwrap().to_bits(),
                delay_element::level_delay_ns(&lib).unwrap().to_bits()
            );
            assert_eq!(
                timing.mux_overhead_levels(&lib).unwrap(),
                delay_element::mux_overhead_levels(&lib).unwrap()
            );
            assert_eq!(
                timing.response(&lib).unwrap(),
                &ResponseModel::probe(&lib).unwrap()
            );
        }
    }
}
