//! Runtime-recovery stub generation (§III-C).
//!
//! MPass encodes the malware's code and data sections with additive keys
//! (`key = benign − original`, byte-wise wrapping) and injects a stub that
//! restores them at load time (`original = benign − key`), saves and
//! restores register context, and transfers control to the original entry
//! point. The stub is produced as a list of [`StubInstr`] — instructions
//! with *symbolic* jump targets — so the shuffle engine can permute the
//! physical layout and re-patch every relative displacement.

use mpass_vm::{Instr, Reg};
use serde::{Deserialize, Serialize};

/// One section region encoded with keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EncodedRegion {
    /// RVA of the encoded bytes.
    pub rva: u32,
    /// Length in bytes.
    pub len: u32,
    /// RVA of the key stream (same length).
    pub key_rva: u32,
}

/// A stub instruction with its control-flow intent made explicit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StubInstr {
    /// An ordinary instruction; any relative displacement it carries is
    /// meaningless (non-jump).
    Plain(Instr),
    /// A control transfer to another stub instruction, identified by its
    /// *index* in the stub sequence. The displacement in `template` is a
    /// placeholder to be patched by layout.
    JumpTo {
        /// Jump instruction whose displacement will be patched.
        template: Instr,
        /// Index of the target stub instruction.
        target_index: usize,
    },
    /// A control transfer to an absolute RVA outside the stub (the original
    /// entry point).
    JumpExternal {
        /// Jump instruction whose displacement will be patched.
        template: Instr,
        /// Absolute target RVA.
        target_rva: u32,
    },
}

impl StubInstr {
    /// The underlying instruction template.
    pub fn instr(&self) -> Instr {
        match *self {
            StubInstr::Plain(i) => i,
            StubInstr::JumpTo { template, .. } => template,
            StubInstr::JumpExternal { template, .. } => template,
        }
    }
}

/// Registers the stub clobbers and therefore context-saves around the
/// recovery loop (the paper's "restore contexts (e.g., registers)").
const CLOBBERED: [Reg; 5] = [Reg::R1, Reg::R2, Reg::R3, Reg::R4, Reg::R5];

/// Generate the recovery stub for `regions`, ending with a jump to
/// `original_entry`.
///
/// The decode loop per region is:
///
/// ```text
///     movi r1, region.rva      ; cursor over encoded bytes
///     movi r2, region.key_rva  ; cursor over keys
///     movi r3, region.len      ; remaining count
/// L:  jz   r3, end
///     ld8  r4, [r1]            ; b (benign byte currently on disk)
///     ld8  r5, [r2]            ; k (key)
///     sub  r4, r5              ; x = b - k   (paper's recovery equation)
///     st8  [r1], r4
///     addi r1, 1
///     addi r2, 1
///     addi r3, -1
///     jmp  L
/// end: ...
/// ```
///
/// Registers are pushed on entry and popped before the final external jump
/// so the original program starts with its expected context.
pub fn generate_recovery_stub(regions: &[EncodedRegion], original_entry: u32) -> Vec<StubInstr> {
    let mut out: Vec<StubInstr> = Vec::new();
    for r in CLOBBERED {
        out.push(StubInstr::Plain(Instr::Push(r)));
    }
    for region in regions {
        let loop_head = out.len() + 3; // index of the jz below
        out.push(StubInstr::Plain(Instr::Movi(Reg::R1, region.rva as i32)));
        out.push(StubInstr::Plain(Instr::Movi(Reg::R2, region.key_rva as i32)));
        out.push(StubInstr::Plain(Instr::Movi(Reg::R3, region.len as i32)));
        debug_assert_eq!(out.len(), loop_head);
        let end = loop_head + 9; // index one past the back-jump
        out.push(StubInstr::JumpTo { template: Instr::Jz(Reg::R3, 0), target_index: end });
        out.push(StubInstr::Plain(Instr::Ld8(Reg::R4, Reg::R1, 0)));
        out.push(StubInstr::Plain(Instr::Ld8(Reg::R5, Reg::R2, 0)));
        out.push(StubInstr::Plain(Instr::Sub(Reg::R4, Reg::R5)));
        out.push(StubInstr::Plain(Instr::St8(Reg::R4, Reg::R1, 0)));
        out.push(StubInstr::Plain(Instr::Addi(Reg::R1, 1)));
        out.push(StubInstr::Plain(Instr::Addi(Reg::R2, 1)));
        out.push(StubInstr::Plain(Instr::Addi(Reg::R3, -1)));
        out.push(StubInstr::JumpTo { template: Instr::Jmp(0), target_index: loop_head });
        debug_assert_eq!(out.len(), end);
    }
    for r in CLOBBERED.iter().rev() {
        out.push(StubInstr::Plain(Instr::Pop(*r)));
    }
    out.push(StubInstr::JumpExternal { template: Instr::Jmp(0), target_rva: original_entry });
    out
}

/// Compute the additive key stream for replacing `original` with `benign`:
/// `key[i] = benign[i] − original[i]` (wrapping), so that the stub's
/// `benign − key` restores `original`.
///
/// # Panics
///
/// Panics when lengths differ.
pub fn compute_keys(original: &[u8], benign: &[u8]) -> Vec<u8> {
    assert_eq!(original.len(), benign.len(), "key stream length mismatch");
    benign.iter().zip(original).map(|(&b, &x)| b.wrapping_sub(x)).collect()
}

/// Re-derive the key byte after the benign cover byte changed during
/// optimization: `key' = new_cover − original`.
pub fn rekey(new_cover: u8, original: u8) -> u8 {
    new_cover.wrapping_sub(original)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shuffle::layout_sequential;
    use mpass_vm::Vm;

    #[test]
    fn keys_invert() {
        let original: Vec<u8> = (0..=255u8).collect();
        let benign: Vec<u8> = (0..=255u8).map(|b| b.wrapping_mul(7).wrapping_add(3)).collect();
        let keys = compute_keys(&original, &benign);
        for i in 0..256 {
            assert_eq!(benign[i].wrapping_sub(keys[i]), original[i]);
            assert_eq!(rekey(benign[i], original[i]), keys[i]);
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn key_length_mismatch_panics() {
        let _ = compute_keys(&[1, 2], &[1]);
    }

    #[test]
    fn stub_structure() {
        let regions = [
            EncodedRegion { rva: 0x1000, len: 16, key_rva: 0x5000 },
            EncodedRegion { rva: 0x2000, len: 8, key_rva: 0x5010 },
        ];
        let stub = generate_recovery_stub(&regions, 0x1004);
        // 5 pushes + 2*(3 setup + 9 loop) + 5 pops + 1 external jump.
        assert_eq!(stub.len(), 5 + 2 * 12 + 5 + 1);
        assert!(matches!(stub.last(), Some(StubInstr::JumpExternal { target_rva: 0x1004, .. })));
        // All JumpTo targets are in range.
        for s in &stub {
            if let StubInstr::JumpTo { target_index, .. } = s {
                assert!(*target_index < stub.len());
            }
        }
    }

    /// End-to-end: encode a memory region, run the stub in the VM, verify
    /// the region is restored and control reaches the original entry.
    #[test]
    fn stub_recovers_region_in_vm() {
        // Memory image: "original program" at 0x100 is [movi r7, 42; halt].
        let mut image = vec![0u8; 0x1000];
        let prog: Vec<u8> = [Instr::Movi(Reg::R7, 42), Instr::Halt]
            .iter()
            .flat_map(|i| i.encode())
            .collect();
        let original = prog.clone();
        // Benign cover bytes at 0x100.
        let benign: Vec<u8> = (0..original.len()).map(|i| (i as u8).wrapping_mul(31)).collect();
        let keys = compute_keys(&original, &benign);
        image[0x100..0x100 + benign.len()].copy_from_slice(&benign);
        // Keys at 0x300.
        image[0x300..0x300 + keys.len()].copy_from_slice(&keys);
        // Stub at 0x500, jumping to 0x100 when done.
        let stub = generate_recovery_stub(
            &[EncodedRegion { rva: 0x100, len: original.len() as u32, key_rva: 0x300 }],
            0x100,
        );
        let stub_bytes = layout_sequential(&stub, 0x500);
        image[0x500..0x500 + stub_bytes.len()].copy_from_slice(&stub_bytes);

        let mut vm = Vm::from_image(image, 0x500);
        let exec = vm.run();
        assert!(exec.completed(), "outcome {:?}", exec.outcome);
        assert_eq!(vm.regs()[7], 42, "original program must have run");
        assert_eq!(&vm.memory()[0x100..0x100 + original.len()], &original[..]);
    }

    /// The stub restores register context before jumping on.
    #[test]
    fn stub_preserves_registers() {
        let mut image = vec![0u8; 0x1000];
        // Original entry at 0x100: halt immediately (registers inspectable).
        image[0x100..0x108].copy_from_slice(&Instr::Halt.encode());
        // One dummy region of 4 bytes at 0x200.
        let original = [9u8, 8, 7, 6];
        let benign = [1u8, 2, 3, 4];
        let keys = compute_keys(&original, &benign);
        image[0x200..0x204].copy_from_slice(&benign);
        image[0x300..0x304].copy_from_slice(&keys);
        let stub = generate_recovery_stub(
            &[EncodedRegion { rva: 0x200, len: 4, key_rva: 0x300 }],
            0x100,
        );
        let bytes = layout_sequential(&stub, 0x500);
        image[0x500..0x500 + bytes.len()].copy_from_slice(&bytes);
        let mut vm = Vm::from_image(image, 0x500);
        let exec = vm.run();
        assert!(exec.completed());
        // r1..r5 were pushed at entry (all zero) and popped before the jump.
        for r in 1..=5 {
            assert_eq!(vm.regs()[r], 0, "r{r} not restored");
        }
        assert_eq!(&vm.memory()[0x200..0x204], &original);
    }
}
