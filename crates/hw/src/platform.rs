//! FPGA platform descriptors.
//!
//! The paper targets the Xilinx Zynq-7000 SoC ZC706 (Sec. 7.1) and
//! additionally evaluates a Kintex-7 and a Virtex-7 board (Sec. 7.7). The
//! capacities below are the vendors' published totals for the parts on those
//! boards.

use std::fmt;

/// Four FPGA resource types the synthesizer budgets (Sec. 5, "Resource
/// Model"): exceeding *any one* means the design cannot be instantiated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResourceKind {
    /// Look-up tables.
    Lut,
    /// Flip-flops.
    Ff,
    /// Block RAM (36 Kb units; halves exist, hence f64 amounts).
    Bram,
    /// DSP slices.
    Dsp,
}

/// All four resource kinds, in display order.
pub const RESOURCE_KINDS: [ResourceKind; 4] = [
    ResourceKind::Lut,
    ResourceKind::Ff,
    ResourceKind::Bram,
    ResourceKind::Dsp,
];

impl fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResourceKind::Lut => write!(f, "LUT"),
            ResourceKind::Ff => write!(f, "FF"),
            ResourceKind::Bram => write!(f, "BRAM"),
            ResourceKind::Dsp => write!(f, "DSP"),
        }
    }
}

/// A bundle of amounts, one per resource kind.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ResourceVector {
    /// LUT count.
    pub lut: f64,
    /// FF count.
    pub ff: f64,
    /// BRAM (36 Kb units).
    pub bram: f64,
    /// DSP slices.
    pub dsp: f64,
}

impl ResourceVector {
    /// Creates a vector from the four amounts.
    pub fn new(lut: f64, ff: f64, bram: f64, dsp: f64) -> Self {
        Self { lut, ff, bram, dsp }
    }

    /// Amount of one kind.
    pub fn get(&self, kind: ResourceKind) -> f64 {
        match kind {
            ResourceKind::Lut => self.lut,
            ResourceKind::Ff => self.ff,
            ResourceKind::Bram => self.bram,
            ResourceKind::Dsp => self.dsp,
        }
    }

    /// Component-wise sum.
    pub fn plus(&self, o: &ResourceVector) -> ResourceVector {
        ResourceVector::new(
            self.lut + o.lut,
            self.ff + o.ff,
            self.bram + o.bram,
            self.dsp + o.dsp,
        )
    }

    /// Component-wise scale.
    pub fn times(&self, s: f64) -> ResourceVector {
        ResourceVector::new(self.lut * s, self.ff * s, self.bram * s, self.dsp * s)
    }

    /// `true` when every component fits within `capacity`.
    pub fn fits(&self, capacity: &ResourceVector) -> bool {
        RESOURCE_KINDS
            .iter()
            .all(|&k| self.get(k) <= capacity.get(k))
    }
}

/// An FPGA platform: capacities plus the design clock.
#[derive(Debug, Clone, PartialEq)]
pub struct FpgaPlatform {
    /// Human-readable name.
    pub name: &'static str,
    /// Total resources of the part.
    pub capacity: ResourceVector,
    /// Design clock frequency (MHz). The paper's designs run at 143 MHz.
    pub clock_mhz: f64,
}

impl FpgaPlatform {
    /// Xilinx Zynq-7000 SoC ZC706 (XC7Z045) — the paper's primary target.
    pub fn zc706() -> Self {
        Self {
            name: "Zynq-7000 ZC706",
            capacity: ResourceVector::new(218_600.0, 437_200.0, 545.0, 900.0),
            clock_mhz: 143.0,
        }
    }

    /// Xilinx Kintex-7 XC7K160T (Sec. 7.7).
    pub fn kintex7_160t() -> Self {
        Self {
            name: "Kintex-7 XC7K160T",
            capacity: ResourceVector::new(101_400.0, 202_800.0, 325.0, 600.0),
            clock_mhz: 143.0,
        }
    }

    /// Xilinx Virtex-7 XC7VX690T (Sec. 7.7).
    pub fn virtex7_690t() -> Self {
        Self {
            name: "Virtex-7 XC7VX690T",
            capacity: ResourceVector::new(433_200.0, 866_400.0, 1_470.0, 3_600.0),
            clock_mhz: 143.0,
        }
    }

    /// Utilization fraction (0..1+) of one resource kind for an absolute
    /// amount.
    pub fn utilization(&self, kind: ResourceKind, amount: f64) -> f64 {
        amount / self.capacity.get(kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zc706_capacities_match_part() {
        let p = FpgaPlatform::zc706();
        assert_eq!(p.capacity.dsp, 900.0);
        assert_eq!(p.capacity.lut, 218_600.0);
        // Table 2 sanity: 849 DSPs is 94.33 % of the part.
        let util = p.utilization(ResourceKind::Dsp, 849.0);
        assert!((util - 0.9433).abs() < 1e-3);
        let util = p.utilization(ResourceKind::Lut, 136_432.0);
        assert!((util - 0.6241).abs() < 1e-3);
    }

    #[test]
    fn fits_is_component_wise() {
        let cap = ResourceVector::new(100.0, 100.0, 10.0, 10.0);
        assert!(ResourceVector::new(99.0, 99.0, 10.0, 10.0).fits(&cap));
        assert!(!ResourceVector::new(101.0, 1.0, 1.0, 1.0).fits(&cap));
        assert!(!ResourceVector::new(1.0, 1.0, 1.0, 10.5).fits(&cap));
    }

    #[test]
    fn vector_arithmetic() {
        let a = ResourceVector::new(1.0, 2.0, 3.0, 4.0);
        let b = a.times(2.0).plus(&a);
        assert_eq!(b, ResourceVector::new(3.0, 6.0, 9.0, 12.0));
        assert_eq!(b.get(ResourceKind::Bram), 9.0);
    }

    #[test]
    fn boards_are_ordered_by_size() {
        let k = FpgaPlatform::kintex7_160t();
        let z = FpgaPlatform::zc706();
        let v = FpgaPlatform::virtex7_690t();
        assert!(k.capacity.dsp < z.capacity.dsp);
        assert!(z.capacity.dsp < v.capacity.dsp);
    }
}
