//! Property-style tests of the MVM ISA: encoding round-trips, don't-care
//! robustness, and interpreter safety on arbitrary byte soup. Cases are
//! drawn from a seeded ChaCha8 stream so every run explores the same
//! space deterministically.

use mpass_vm::{disassemble, Asm, Instr, Reg, Vm, INSTR_SIZE};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const CASES: u64 = 256;

fn arb_reg(rng: &mut ChaCha8Rng) -> Reg {
    Reg::from_index(rng.gen_range(0..8u32) as u8).expect("in range")
}

fn arb_instr(rng: &mut ChaCha8Rng) -> Instr {
    match rng.gen_range(0..19u32) {
        0 => Instr::Movi(arb_reg(rng), rng.gen::<i32>()),
        1 => Instr::Mov(arb_reg(rng), arb_reg(rng)),
        2 => Instr::Add(arb_reg(rng), arb_reg(rng)),
        3 => Instr::Sub(arb_reg(rng), arb_reg(rng)),
        4 => Instr::Xor(arb_reg(rng), arb_reg(rng)),
        5 => Instr::Mul(arb_reg(rng), arb_reg(rng)),
        6 => Instr::Addi(arb_reg(rng), rng.gen::<i32>()),
        7 => Instr::Ld8(arb_reg(rng), arb_reg(rng), rng.gen::<i32>()),
        8 => Instr::St8(arb_reg(rng), arb_reg(rng), rng.gen::<i32>()),
        9 => Instr::Jmp(rng.gen::<i32>()),
        10 => Instr::Jz(arb_reg(rng), rng.gen::<i32>()),
        11 => Instr::Jnz(arb_reg(rng), rng.gen::<i32>()),
        12 => Instr::CallApi(mpass_vm::ApiId(rng.gen::<u16>())),
        13 => Instr::Halt,
        14 => Instr::Nop,
        15 => Instr::Push(arb_reg(rng)),
        16 => Instr::Pop(arb_reg(rng)),
        17 => Instr::Call(rng.gen::<i32>()),
        _ => Instr::Ret,
    }
}

#[test]
fn encode_decode_round_trip() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x15A1);
    for _ in 0..CASES {
        let instr = arb_instr(&mut rng);
        let enc = instr.encode();
        assert_eq!(Instr::decode(&enc).unwrap(), instr);
    }
}

#[test]
fn dont_care_bytes_never_change_decoding() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x15A2);
    for _ in 0..CASES {
        let instr = arb_instr(&mut rng);
        let junk: Vec<u8> = (0..8).map(|_| rng.gen::<u8>()).collect();
        let mut enc = instr.encode();
        for (i, free) in instr.dont_care_mask().iter().enumerate() {
            if *free {
                enc[i] = junk[i];
            }
        }
        assert_eq!(Instr::decode(&enc).unwrap(), instr);
    }
}

#[test]
fn disassemble_round_trips_programs() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x15A3);
    for _ in 0..CASES {
        let n = rng.gen_range(1..64);
        let instrs: Vec<Instr> = (0..n).map(|_| arb_instr(&mut rng)).collect();
        let bytes: Vec<u8> = instrs.iter().flat_map(|i| i.encode()).collect();
        assert_eq!(disassemble(&bytes).unwrap(), instrs);
    }
}

/// The interpreter must never panic or loop forever on arbitrary memory
/// images — it either halts, faults or hits the step limit.
#[test]
fn interpreter_is_total_on_byte_soup() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x15A4);
    for _ in 0..CASES {
        let len = rng.gen_range(64..2048);
        let image: Vec<u8> = (0..len).map(|_| rng.gen::<u8>()).collect();
        let entry = rng.gen_range(0..2048u32);
        let exec = Vm::from_image(image, entry).with_step_limit(5_000).run();
        assert!(exec.steps <= 5_000);
        // Any outcome is acceptable; reaching here means no panic/hang.
        let _ = exec.outcome;
    }
}

/// Assembled straight-line programs (no jumps) always halt with one step
/// per instruction.
#[test]
fn straight_line_programs_halt() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x15A5);
    for _ in 0..CASES {
        let n = rng.gen_range(0..32);
        let instrs: Vec<Instr> = (0..n)
            .map(|_| match rng.gen_range(0..4u32) {
                0 => Instr::Movi(arb_reg(&mut rng), rng.gen::<i32>()),
                1 => Instr::Add(arb_reg(&mut rng), arb_reg(&mut rng)),
                2 => Instr::Xor(arb_reg(&mut rng), arb_reg(&mut rng)),
                _ => Instr::Nop,
            })
            .collect();
        let mut asm = Asm::new();
        for i in &instrs {
            asm.push(*i);
        }
        asm.push(Instr::Halt);
        let code = asm.assemble().unwrap();
        let mut mem = vec![0u8; 4096];
        mem[..code.len()].copy_from_slice(&code);
        let exec = Vm::from_image(mem, 0).run();
        assert!(exec.completed());
        assert_eq!(exec.steps as usize, instrs.len() + 1);
    }
}

/// Store-then-load through arbitrary in-bounds addresses is identity.
#[test]
fn memory_round_trip() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x15A6);
    for _ in 0..CASES {
        let addr = rng.gen_range(8u32..4000);
        let value = rng.gen::<u8>();
        let mut asm = Asm::new();
        asm.push(Instr::Movi(Reg::R0, value as i32));
        asm.push(Instr::Movi(Reg::R1, addr as i32));
        asm.push(Instr::St8(Reg::R0, Reg::R1, 0));
        asm.push(Instr::Ld8(Reg::R2, Reg::R1, 0));
        asm.push(Instr::Halt);
        let code = asm.assemble().unwrap();
        let mut mem = vec![0u8; 4096];
        // Keep the program clear of the store target.
        if !(addr as usize >= code.len() || (addr as usize) < 4096 - INSTR_SIZE) {
            continue;
        }
        mem[..code.len()].copy_from_slice(&code);
        let mut vm = Vm::from_image(mem, 0);
        let exec = vm.run();
        if addr as usize >= code.len() {
            assert!(exec.completed());
            assert_eq!(vm.regs()[2], value as u32);
        }
    }
}
