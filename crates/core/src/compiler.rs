//! The FlexFlow compiler (Section 5).
//!
//! The compiler's workload analyzer ([`flexsim_dataflow::search`])
//! chooses the unrolling factors for every CONV layer under the engine
//! and IADP coupling constraints, then code generation lowers the
//! network to the [`crate::isa`] instruction stream the on-chip decoder
//! executes.

use crate::isa::{Instr, MAX_LAYERS};
use flexsim_dataflow::search::{best_unroll, plan_network, LayerChoice};
use flexsim_model::{Layer, Network};
use std::fmt;

/// A compiled network: the per-layer factor plan plus the instruction
/// stream.
#[derive(Clone, Debug, PartialEq)]
pub struct Program {
    name: String,
    d: usize,
    choices: Vec<LayerChoice>,
    instrs: Vec<Instr>,
}

impl Program {
    /// Assembles a program from parts, bypassing the compiler. The
    /// normal route is [`Compiler::compile`]; this exists so verifier
    /// harnesses (`flexcheck`'s mutation tests) can construct
    /// deliberately ill-formed programs the compiler would never emit.
    pub fn from_parts(
        name: impl Into<String>,
        d: usize,
        choices: Vec<LayerChoice>,
        instrs: Vec<Instr>,
    ) -> Self {
        Program {
            name: name.into(),
            d,
            choices,
            instrs,
        }
    }

    /// Workload name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Engine side the program was compiled for.
    pub fn d(&self) -> usize {
        self.d
    }

    /// The factor plan, one entry per CONV layer in network order.
    pub fn choices(&self) -> &[LayerChoice] {
        &self.choices
    }

    /// The instruction stream.
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// Encodes the stream to 64-bit words (what the decoder ingests).
    pub fn encode(&self) -> Vec<u64> {
        self.instrs.iter().map(Instr::encode).collect()
    }

    /// The "assemble language code" listing.
    pub fn disassemble(&self) -> String {
        self.to_string()
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "; {} on {}x{} FlexFlow", self.name, self.d, self.d)?;
        for (pc, i) in self.instrs.iter().enumerate() {
            writeln!(f, "{pc:4}: {i}")?;
        }
        Ok(())
    }
}

/// The compiler.
///
/// # Example
///
/// ```
/// use flexflow::Compiler;
/// use flexsim_model::workloads;
///
/// let program = Compiler::new(16).compile(&workloads::lenet5());
/// assert_eq!(program.choices().len(), 2);
/// assert!(program.disassemble().contains("conv"));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Compiler {
    d: usize,
}

impl Compiler {
    /// Creates a compiler targeting a `d×d` engine.
    ///
    /// # Panics
    ///
    /// Panics if `d` is zero.
    pub fn new(d: usize) -> Self {
        assert!(d > 0, "engine side must be non-zero");
        Compiler { d }
    }

    /// Target engine side.
    pub fn d(&self) -> usize {
        self.d
    }

    /// Compiles a network: plans factors, then lowers to instructions.
    ///
    /// # Panics
    ///
    /// Panics if the network has no CONV layers or has more than 256
    /// layers (the ISA's 8-bit layer index).
    pub fn compile(&self, net: &Network) -> Program {
        assert!(
            net.layers().len() <= MAX_LAYERS,
            "ISA supports at most {MAX_LAYERS} layers per program"
        );
        let mut conv_plan = plan_network(net, self.d).into_iter();
        let mut choices = Vec::new();
        let mut instrs = Vec::new();
        for step in net.steps() {
            let layer_u8 = u8::try_from(step.index).expect("layer count checked above");
            match step.layer {
                Layer::Conv(_) => {
                    // Invariant: `plan_network` returns one choice per
                    // CONV layer in network order (flexcheck FXC05
                    // cross-checks the pairing on the emitted program).
                    let choice = conv_plan.next().expect("plan covers every CONV layer");
                    instrs.push(Instr::Configure {
                        layer: layer_u8,
                        unroll: choice.unroll,
                    });
                    instrs.push(Instr::LoadKernels { layer: layer_u8 });
                    instrs.push(Instr::Conv { layer: layer_u8 });
                    instrs.push(Instr::SwapBuffers);
                    choices.push(choice);
                }
                Layer::Pool(_) => {
                    // Pooling subsamples in place on the output buffer,
                    // before the swap of the preceding CONV takes
                    // effect; the decoder reorders accordingly, so the
                    // stream is simply Pool.
                    instrs.push(Instr::Pool { layer: layer_u8 });
                }
                Layer::Fc(fc) => {
                    // FC layers run on the same engine as 1x1
                    // convolutions over a flattened input.
                    let view = fc.as_conv();
                    let choice = best_unroll(&view, self.d, None);
                    instrs.push(Instr::Configure {
                        layer: layer_u8,
                        unroll: choice.unroll,
                    });
                    instrs.push(Instr::LoadKernels { layer: layer_u8 });
                    instrs.push(Instr::Conv { layer: layer_u8 });
                    instrs.push(Instr::SwapBuffers);
                    choices.push(choice);
                }
            }
        }
        instrs.push(Instr::Halt);
        Program {
            name: net.name().to_owned(),
            d: self.d,
            choices,
            instrs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsim_model::workloads;

    #[test]
    fn lenet_program_shape() {
        let p = Compiler::new(16).compile(&workloads::lenet5());
        // 2 conv layers (4 instrs each) + 1 pool + halt.
        assert_eq!(p.instrs().len(), 2 * 4 + 1 + 1);
        assert_eq!(p.instrs().last(), Some(&Instr::Halt));
        assert_eq!(p.d(), 16);
    }

    #[test]
    fn program_encodes_and_decodes() {
        let p = Compiler::new(16).compile(&workloads::pv());
        let words = p.encode();
        for (w, i) in words.iter().zip(p.instrs()) {
            assert_eq!(Instr::decode(*w).unwrap(), *i);
        }
    }

    #[test]
    fn disassembly_lists_every_instr() {
        let p = Compiler::new(16).compile(&workloads::fr());
        let asm = p.disassemble();
        assert_eq!(asm.lines().count(), p.instrs().len() + 1); // + header
        assert!(asm.contains("cfg"));
        assert!(asm.contains("halt"));
    }

    #[test]
    fn choices_follow_network_conv_order() {
        let net = workloads::pv();
        let p = Compiler::new(16).compile(&net);
        let names: Vec<_> = p.choices().iter().map(|c| c.layer.as_str()).collect();
        assert_eq!(names, vec!["C1", "C3", "C5", "C6", "C7"]);
    }
}
