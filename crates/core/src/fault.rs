//! Control-plane fault model.
//!
//! The paper's Theorems 1–2 size the middle stage so the three-stage
//! network is nonblocking; the classic Clos sparing argument then says
//! that provisioning `m ≥ bound + f` keeps it nonblocking with up to `f`
//! failed middle switches. This module names the components that can
//! fail — middle switches, inter-stage links, wavelength-converter
//! banks, external ports — and collects them in a [`FaultSet`] the
//! routing layers consult.
//!
//! A fault here is a *control-plane* fact ("this component is dead,
//! route around it"), distinct from the physical-layer injection in
//! `wdm-fabric` (`break_gate`/`break_converter`) whose job is to show
//! that gate-level verification *detects* silent hardware damage. The
//! two layers meet operationally: detection promotes a physical fault to
//! a `FaultSet` entry, after which routing avoids it and a runtime can
//! heal the connections it carried.

use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// One failable component of a switching network.
///
/// Module/switch indices follow the three-stage geometry: `r` input and
/// output modules, `m` middle switches. For a single-stage crossbar only
/// [`Fault::Port`] and the converter-bank variants are meaningful (ports
/// double as "modules" there); the link and middle-switch variants are
/// accepted but touch nothing. The AWG-based Clos backend reuses the
/// same vocabulary: [`Fault::MiddleSwitch`] is a dead grating,
/// the link variants sever its fibers, the edge converter-bank faults
/// pin channel choice — and [`Fault::MiddleConverters`] names hardware
/// a passive AWG does not have, so it is recorded but routes nothing
/// differently there.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Fault {
    /// Middle switch `j` is dead: no connection may enter or leave it.
    MiddleSwitch(u32),
    /// The fiber from input module `module` to middle switch `middle` is
    /// severed (all `k` wavelengths).
    InputLink {
        /// Input-module index.
        module: u32,
        /// Middle-switch index.
        middle: u32,
    },
    /// The fiber from middle switch `middle` to output module `module`
    /// is severed (all `k` wavelengths).
    MiddleLink {
        /// Middle-switch index.
        middle: u32,
        /// Output-module index.
        module: u32,
    },
    /// The wavelength-converter bank of input module `module` is dark:
    /// signals pass through on their own wavelength only.
    InputConverters(u32),
    /// The converter bank of middle switch `j` is dark.
    MiddleConverters(u32),
    /// The converter bank of output module `module` is dark.
    OutputConverters(u32),
    /// External port `p` (both its input and output side) is dead.
    Port(u32),
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::MiddleSwitch(j) => write!(f, "middle switch {j}"),
            Fault::InputLink { module, middle } => {
                write!(f, "input link {module}→{middle}")
            }
            Fault::MiddleLink { middle, module } => {
                write!(f, "middle link {middle}→{module}")
            }
            Fault::InputConverters(a) => write!(f, "input-module {a} converters"),
            Fault::MiddleConverters(j) => write!(f, "middle-switch {j} converters"),
            Fault::OutputConverters(b) => write!(f, "output-module {b} converters"),
            Fault::Port(p) => write!(f, "port {p}"),
        }
    }
}

/// How many of each failable component a fabric has: the index range a
/// [`Fault`] must fall in to name real hardware. A crossbar has `ports`
/// modules (its converter banks sit at the ports) and no middle stage;
/// a graph fabric's nodes are both its modules and its middles.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultDomain {
    /// External ports.
    pub ports: u32,
    /// Input (and output) modules.
    pub modules: u32,
    /// Middle switches.
    pub middles: u32,
}

impl FaultDomain {
    /// `fault` names a component this fabric has.
    pub fn contains(&self, fault: &Fault) -> bool {
        match *fault {
            Fault::MiddleSwitch(j) | Fault::MiddleConverters(j) => j < self.middles,
            Fault::InputLink { module, middle } | Fault::MiddleLink { middle, module } => {
                module < self.modules && middle < self.middles
            }
            Fault::InputConverters(a) | Fault::OutputConverters(a) => a < self.modules,
            Fault::Port(p) => p < self.ports,
        }
    }
}

/// The set of currently failed components.
///
/// Purely a record: failing a component here does not tear anything
/// down. Routing layers query it to skip dead components, and a runtime
/// (which owns the live connections) is responsible for healing the
/// traffic a newly failed component carried.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultSet {
    failed: BTreeSet<Fault>,
}

impl FaultSet {
    /// An empty (fully healthy) fault set.
    pub fn new() -> Self {
        FaultSet::default()
    }

    /// Mark `fault` failed. Returns `true` if it was healthy before.
    pub fn fail(&mut self, fault: Fault) -> bool {
        self.failed.insert(fault)
    }

    /// Mark `fault` repaired. Returns `true` if it was failed before.
    pub fn repair(&mut self, fault: Fault) -> bool {
        self.failed.remove(&fault)
    }

    /// Is this exact fault on record?
    pub fn contains(&self, fault: &Fault) -> bool {
        self.failed.contains(fault)
    }

    /// Number of failed components.
    pub fn len(&self) -> usize {
        self.failed.len()
    }

    /// `true` when every component is healthy.
    pub fn is_empty(&self) -> bool {
        self.failed.is_empty()
    }

    /// Iterate over the failed components.
    pub fn iter(&self) -> impl Iterator<Item = &Fault> {
        self.failed.iter()
    }

    /// Repair everything.
    pub fn clear(&mut self) {
        self.failed.clear();
    }

    /// Middle switch `j` is dead.
    pub fn middle_down(&self, j: u32) -> bool {
        self.failed.contains(&Fault::MiddleSwitch(j))
    }

    /// The input-module→middle link `module→middle` is severed.
    pub fn input_link_down(&self, module: u32, middle: u32) -> bool {
        self.failed.contains(&Fault::InputLink { module, middle })
    }

    /// The middle→output-module link `middle→module` is severed.
    pub fn middle_link_down(&self, middle: u32, module: u32) -> bool {
        self.failed.contains(&Fault::MiddleLink { middle, module })
    }

    /// Input module `module`'s converter bank is dark.
    pub fn input_converters_down(&self, module: u32) -> bool {
        self.failed.contains(&Fault::InputConverters(module))
    }

    /// Middle switch `j`'s converter bank is dark.
    pub fn middle_converters_down(&self, j: u32) -> bool {
        self.failed.contains(&Fault::MiddleConverters(j))
    }

    /// Output module `module`'s converter bank is dark.
    pub fn output_converters_down(&self, module: u32) -> bool {
        self.failed.contains(&Fault::OutputConverters(module))
    }

    /// External port `p` is dead.
    pub fn port_down(&self, p: u32) -> bool {
        self.failed.contains(&Fault::Port(p))
    }

    /// Number of dead middle switches (the `f` of the sparing argument
    /// `m ≥ bound + f`).
    pub fn failed_middles(&self) -> usize {
        self.failed
            .iter()
            .filter(|f| matches!(f, Fault::MiddleSwitch(_)))
            .count()
    }
}

impl fmt::Display for FaultSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.failed.is_empty() {
            return write!(f, "no faults");
        }
        for (i, fault) in self.failed.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{fault}")?;
        }
        Ok(())
    }
}

impl FromIterator<Fault> for FaultSet {
    fn from_iter<I: IntoIterator<Item = Fault>>(iter: I) -> Self {
        FaultSet {
            failed: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fail_and_repair_roundtrip() {
        let mut fs = FaultSet::new();
        assert!(fs.is_empty());
        assert!(fs.fail(Fault::MiddleSwitch(3)));
        assert!(!fs.fail(Fault::MiddleSwitch(3)), "double fail is a no-op");
        assert!(fs.middle_down(3));
        assert!(!fs.middle_down(2));
        assert_eq!(fs.len(), 1);
        assert!(fs.repair(Fault::MiddleSwitch(3)));
        assert!(!fs.repair(Fault::MiddleSwitch(3)), "double repair no-op");
        assert!(fs.is_empty());
    }

    #[test]
    fn queries_distinguish_components() {
        let fs: FaultSet = [
            Fault::InputLink {
                module: 1,
                middle: 2,
            },
            Fault::MiddleLink {
                middle: 2,
                module: 1,
            },
            Fault::InputConverters(0),
            Fault::OutputConverters(0),
            Fault::Port(7),
        ]
        .into_iter()
        .collect();
        assert!(fs.input_link_down(1, 2));
        assert!(!fs.input_link_down(2, 1));
        assert!(fs.middle_link_down(2, 1));
        assert!(!fs.middle_link_down(1, 2));
        assert!(fs.input_converters_down(0));
        assert!(!fs.middle_converters_down(0));
        assert!(fs.output_converters_down(0));
        assert!(fs.port_down(7));
        assert_eq!(fs.failed_middles(), 0);
    }

    #[test]
    fn failed_middles_counts_only_middles() {
        let fs: FaultSet = [
            Fault::MiddleSwitch(0),
            Fault::MiddleSwitch(5),
            Fault::Port(0),
        ]
        .into_iter()
        .collect();
        assert_eq!(fs.failed_middles(), 2);
    }

    #[test]
    fn display_is_informative() {
        let mut fs = FaultSet::new();
        assert_eq!(fs.to_string(), "no faults");
        fs.fail(Fault::MiddleSwitch(4));
        fs.fail(Fault::InputLink {
            module: 0,
            middle: 4,
        });
        let s = fs.to_string();
        assert!(s.contains("middle switch 4"), "{s}");
        assert!(s.contains("input link 0→4"), "{s}");
    }

    #[test]
    fn serde_roundtrip() {
        let fs: FaultSet = [Fault::MiddleSwitch(2), Fault::Port(1)]
            .into_iter()
            .collect();
        let json = serde_json::to_string(&fs).unwrap();
        let back: FaultSet = serde_json::from_str(&json).unwrap();
        assert_eq!(back, fs);
    }
}
