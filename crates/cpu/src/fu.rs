//! The functional-unit pool.
//!
//! Table 1: *"4 INT add, 1 INT mult/div, 1 FP add, 1 FP mult/div"*. Every
//! unit is fully pipelined (an initiation interval of one cycle): an op
//! takes a unit of its class for its issue cycle only, and its result
//! appears after the op's latency. A unit taken at cycle `t` is therefore
//! free again at `t + 1`, and which unit of a class an op takes never
//! matters, so the pool only counts, per class, the units taken in the
//! current cycle.

use crate::isa::OpClass;
use aep_mem::Cycle;

/// Latency of one op class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpTiming {
    /// Cycles until the result is available.
    pub latency: u64,
}

/// Functional-unit pool configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuConfig {
    /// Number of integer ALUs.
    pub int_alu: usize,
    /// Number of integer multiplier/dividers.
    pub int_mul: usize,
    /// Number of FP adders.
    pub fp_add: usize,
    /// Number of FP multiplier/dividers.
    pub fp_mul: usize,
    /// Number of memory ports (load/store issue slots).
    pub mem_ports: usize,
}

impl FuConfig {
    /// Table 1's pool: 4/1/1/1, with 2 memory ports (SimpleScalar default).
    #[must_use]
    pub fn date2006() -> Self {
        FuConfig {
            int_alu: 4,
            int_mul: 1,
            fp_add: 1,
            fp_mul: 1,
            mem_ports: 2,
        }
    }
}

/// Unit classes: integer ALU (also branches), integer multiplier, FP
/// adder, FP multiplier, memory port.
const UNIT_CLASSES: usize = 5;

fn unit_class(class: OpClass) -> usize {
    match class {
        OpClass::IntAlu | OpClass::Branch => 0,
        OpClass::IntMul => 1,
        OpClass::FpAdd => 2,
        OpClass::FpMul => 3,
        OpClass::Load | OpClass::Store => 4,
    }
}

/// Per-class issue counters for the current cycle.
///
/// `now` must not decrease between calls: the counters describe the
/// latest cycle seen and reset when a later one arrives.
#[derive(Debug, Clone)]
pub struct FuPool {
    units: [usize; UNIT_CLASSES],
    taken: [usize; UNIT_CLASSES],
    cycle: Cycle,
}

impl FuPool {
    /// Builds the pool.
    ///
    /// # Panics
    ///
    /// Panics if any unit count is zero.
    #[must_use]
    pub fn new(cfg: &FuConfig) -> Self {
        let units = [
            cfg.int_alu,
            cfg.int_mul,
            cfg.fp_add,
            cfg.fp_mul,
            cfg.mem_ports,
        ];
        assert!(
            units.iter().all(|&n| n > 0),
            "every unit class needs at least one unit"
        );
        FuPool {
            units,
            taken: [0; UNIT_CLASSES],
            cycle: 0,
        }
    }

    /// SimpleScalar-style latencies per op class.
    #[must_use]
    pub fn timing(class: OpClass) -> OpTiming {
        let latency = match class {
            OpClass::IntAlu | OpClass::Branch => 1,
            OpClass::IntMul => 3,
            OpClass::FpAdd => 2,
            OpClass::FpMul => 4,
            // Memory latency comes from the hierarchy; the port is held
            // for the address-generation slot only.
            OpClass::Load | OpClass::Store => 1,
        };
        OpTiming { latency }
    }

    /// Tries to take a unit of `class` for cycle `now`; returns whether
    /// one was free.
    pub fn try_acquire(&mut self, class: OpClass, now: Cycle) -> bool {
        if now != self.cycle {
            self.cycle = now;
            self.taken = [0; UNIT_CLASSES];
        }
        let c = unit_class(class);
        if self.taken[c] < self.units[c] {
            self.taken[c] += 1;
            true
        } else {
            false
        }
    }

    /// Number of units of `class` free at `now`.
    #[must_use]
    pub fn free_units(&self, class: OpClass, now: Cycle) -> usize {
        let c = unit_class(class);
        if now == self.cycle {
            self.units[c] - self.taken[c]
        } else {
            self.units[c]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_int_alus_per_cycle() {
        let mut pool = FuPool::new(&FuConfig::date2006());
        for _ in 0..4 {
            assert!(pool.try_acquire(OpClass::IntAlu, 0));
        }
        assert!(!pool.try_acquire(OpClass::IntAlu, 0), "only 4 ALUs");
        assert!(pool.try_acquire(OpClass::IntAlu, 1), "freed next cycle");
    }

    #[test]
    fn single_multiplier_serialises() {
        let mut pool = FuPool::new(&FuConfig::date2006());
        assert!(pool.try_acquire(OpClass::IntMul, 0));
        assert!(!pool.try_acquire(OpClass::IntMul, 0));
    }

    #[test]
    fn branch_shares_int_alu() {
        let mut pool = FuPool::new(&FuConfig::date2006());
        for _ in 0..4 {
            assert!(pool.try_acquire(OpClass::Branch, 0));
        }
        assert!(!pool.try_acquire(OpClass::IntAlu, 0));
    }

    #[test]
    fn memory_ports_limit_loads() {
        let mut pool = FuPool::new(&FuConfig::date2006());
        assert!(pool.try_acquire(OpClass::Load, 0));
        assert!(pool.try_acquire(OpClass::Store, 0));
        assert!(!pool.try_acquire(OpClass::Load, 0), "2 mem ports");
        assert_eq!(pool.free_units(OpClass::Load, 1), 2);
    }

    #[test]
    fn free_units_agrees_with_try_acquire_across_a_cycle_boundary() {
        let mut pool = FuPool::new(&FuConfig::date2006());
        for now in [7, 8] {
            for class in [OpClass::IntAlu, OpClass::Load, OpClass::FpMul] {
                let free = pool.free_units(class, now);
                for taken in 0..free {
                    assert_eq!(pool.free_units(class, now), free - taken);
                    assert!(pool.try_acquire(class, now));
                }
                assert_eq!(pool.free_units(class, now), 0);
                assert!(!pool.try_acquire(class, now), "{class:?} exhausted");
                assert_eq!(pool.free_units(class, now + 1), free);
            }
        }
        assert_eq!(
            pool.free_units(OpClass::Branch, 8),
            0,
            "branches share the ALUs"
        );
        assert_eq!(
            pool.free_units(OpClass::Store, 8),
            0,
            "stores share the ports"
        );
        assert_eq!(pool.free_units(OpClass::IntMul, 8), 1);
    }

    #[test]
    fn timings_match_simplescalar_defaults() {
        assert_eq!(FuPool::timing(OpClass::IntAlu).latency, 1);
        assert_eq!(FuPool::timing(OpClass::IntMul).latency, 3);
        assert_eq!(FuPool::timing(OpClass::FpAdd).latency, 2);
        assert_eq!(FuPool::timing(OpClass::FpMul).latency, 4);
    }
}
