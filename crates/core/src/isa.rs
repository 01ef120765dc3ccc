//! The FlexFlow instruction set.
//!
//! Section 5: "We have developed a specialized compiler including a
//! workload analyzer, which determines the unrolling factors for each
//! layer and produces assemble language code to configure the FlexFlow."
//! This module defines that configuration ISA: a small set of 64-bit
//! instructions the on-chip decoder (Fig. 6) consumes.
//!
//! Encoding (64 bits): `[63:60]` opcode, `[59:52]` layer index, then
//! opcode-specific fields. `Configure` packs the six unrolling factors
//! minus one into 7-bit fields (factors 1–128).

use flexsim_dataflow::Unroll;
use std::fmt;

/// The most layers one program can address: every layer-bearing
/// instruction carries an 8-bit layer index (`[59:52]`).
pub const MAX_LAYERS: usize = 1 << 8;

/// One decoded instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Instr {
    /// Program the unrolling factors and IADP layouts for a layer.
    Configure {
        /// Index of the layer in the program.
        layer: u8,
        /// The unrolling factors.
        unroll: Unroll,
    },
    /// Stream a layer's kernels from DRAM into the kernel buffer (IADP
    /// format).
    LoadKernels {
        /// Index of the layer in the program.
        layer: u8,
    },
    /// Run the convolutional unit over the layer.
    Conv {
        /// Index of the layer in the program.
        layer: u8,
    },
    /// Run the pooling unit over the current output buffer.
    Pool {
        /// Index of the layer in the program.
        layer: u8,
    },
    /// Swap the ping-pong neuron buffers (end of layer).
    SwapBuffers,
    /// End of program.
    Halt,
}

const OP_CONFIGURE: u64 = 0x1;
const OP_LOAD_KERNELS: u64 = 0x2;
const OP_CONV: u64 = 0x3;
const OP_POOL: u64 = 0x4;
const OP_SWAP: u64 = 0x5;
const OP_HALT: u64 = 0xF;

/// Error decoding an instruction word.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DecodeInstrError(u64);

impl fmt::Display for DecodeInstrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid instruction word {:#018x}", self.0)
    }
}

impl std::error::Error for DecodeInstrError {}

impl Instr {
    /// Encodes to a 64-bit instruction word.
    ///
    /// # Panics
    ///
    /// Panics if an unrolling factor exceeds 128 (7-bit fields).
    pub fn encode(&self) -> u64 {
        match *self {
            Instr::Configure { layer, unroll } => {
                let f = [
                    unroll.tm, unroll.tn, unroll.tr, unroll.tc, unroll.ti, unroll.tj,
                ];
                let mut word = (OP_CONFIGURE << 60) | (u64::from(layer) << 52);
                for (idx, &v) in f.iter().enumerate() {
                    assert!(
                        (1..=128).contains(&v),
                        "unrolling factor {v} out of the 7-bit encode range"
                    );
                    word |= ((v as u64 - 1) & 0x7F) << (idx * 7);
                }
                word
            }
            Instr::LoadKernels { layer } => (OP_LOAD_KERNELS << 60) | (u64::from(layer) << 52),
            Instr::Conv { layer } => (OP_CONV << 60) | (u64::from(layer) << 52),
            Instr::Pool { layer } => (OP_POOL << 60) | (u64::from(layer) << 52),
            Instr::SwapBuffers => OP_SWAP << 60,
            Instr::Halt => OP_HALT << 60,
        }
    }

    /// Decodes a 64-bit instruction word.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeInstrError`] on an unknown opcode.
    pub fn decode(word: u64) -> Result<Instr, DecodeInstrError> {
        let opcode = word >> 60;
        let layer = ((word >> 52) & 0xFF) as u8;
        match opcode {
            OP_CONFIGURE => {
                let field = |idx: usize| ((word >> (idx * 7)) & 0x7F) as usize + 1;
                Ok(Instr::Configure {
                    layer,
                    unroll: Unroll::new(field(0), field(1), field(2), field(3), field(4), field(5)),
                })
            }
            OP_LOAD_KERNELS => Ok(Instr::LoadKernels { layer }),
            OP_CONV => Ok(Instr::Conv { layer }),
            OP_POOL => Ok(Instr::Pool { layer }),
            OP_SWAP => Ok(Instr::SwapBuffers),
            OP_HALT => Ok(Instr::Halt),
            _ => Err(DecodeInstrError(word)),
        }
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instr::Configure { layer, unroll } => write!(f, "cfg    L{layer} {unroll}"),
            Instr::LoadKernels { layer } => write!(f, "ldker  L{layer}"),
            Instr::Conv { layer } => write!(f, "conv   L{layer}"),
            Instr::Pool { layer } => write!(f, "pool   L{layer}"),
            Instr::SwapBuffers => write!(f, "swap"),
            Instr::Halt => write!(f, "halt"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_opcodes() {
        let instrs = [
            Instr::Configure {
                layer: 3,
                unroll: Unroll::new(16, 3, 1, 5, 2, 5),
            },
            Instr::LoadKernels { layer: 200 },
            Instr::Conv { layer: 0 },
            Instr::Pool { layer: 9 },
            Instr::SwapBuffers,
            Instr::Halt,
        ];
        for i in instrs {
            assert_eq!(Instr::decode(i.encode()).unwrap(), i, "{i}");
        }
    }

    #[test]
    fn factor_bounds_round_trip() {
        for v in [1usize, 2, 64, 128] {
            let i = Instr::Configure {
                layer: 0,
                unroll: Unroll::new(v, 1, 1, 1, 1, v),
            };
            assert_eq!(Instr::decode(i.encode()).unwrap(), i);
        }
    }

    #[test]
    #[should_panic(expected = "7-bit encode range")]
    fn oversized_factor_rejected() {
        let _ = Instr::Configure {
            layer: 0,
            unroll: Unroll::new(129, 1, 1, 1, 1, 1),
        }
        .encode();
    }

    #[test]
    fn unknown_opcode_errors() {
        assert!(Instr::decode(0x0).is_err());
        assert!(Instr::decode(0x7 << 60).is_err());
    }

    #[test]
    fn display_is_assembly_like() {
        let i = Instr::Conv { layer: 2 };
        assert_eq!(i.to_string(), "conv   L2");
    }
}
