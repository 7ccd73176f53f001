"""Builtin CoreDSL descriptions available via ``import``.

The paper's examples start with ``import "RV32I.core_desc"``, which declares
the standard RISC-V architectural state: the general-purpose register field
``X`` (32 elements of ``unsigned<32>``), the program counter ``PC``, and the
byte-addressable main-memory address space ``MEM``.  The special roles are
marked with attributes (``[[is_main_reg]]``, ``[[is_pc]]``, ``[[is_main_mem]]``)
so later flow stages can pattern-match accesses to SCAIE-V sub-interfaces.

:data:`RV32IM_CORE_DESC` states the RV32IM base instructions themselves, the
one description the instruction-set simulator decodes and executes and the
assembler encodes.  It is not importable: an ISAX that extended it would
compile every base instruction to hardware, so ISAXes extend ``RV32I``.
"""

RV32I_CORE_DESC = """
InstructionSet RISCVBase {
  architectural_state {
    unsigned int XLEN = 32;
    register unsigned<XLEN> X[32] [[is_main_reg]];
    register unsigned<XLEN> PC [[is_pc]];
    extern unsigned<8> MEM[4294967296] [[is_main_mem]];
  }
}

InstructionSet RV32I extends RISCVBase {
}
"""

RV32IM_CORE_DESC = """
import "RV32I.core_desc"

// The RV32IM base instruction set: RV32I and its M extension.  Field names
// carry the assembler's operand rules: imm is a signed immediate or offset,
// uimm the unsigned upper immediate, shamt an unsigned shift amount.
InstructionSet RV32IM extends RV32I {
  instructions {
    lui { encoding: uimm[19:0] :: rd[4:0] :: 7'b0110111;
      behavior: X[rd] = uimm :: 12'd0; }
    auipc { encoding: uimm[19:0] :: rd[4:0] :: 7'b0010111;
      behavior: X[rd] = (unsigned<32>) (PC + (uimm :: 12'd0)); }
    jal { encoding: imm[20:20] :: imm[10:1] :: imm[11:11] :: imm[19:12] :: rd[4:0] :: 7'b1101111;
      behavior: { X[rd] = (unsigned<32>) (PC + 4); PC = (unsigned<32>) (PC + (signed<21>) imm); } }
    jalr { encoding: imm[11:0] :: rs1[4:0] :: 3'b000 :: rd[4:0] :: 7'b1100111;
      behavior: {
        // Not '& ~1': the complement of a 1-bit literal is 0.
        unsigned<32> target = (unsigned<32>) (X[rs1] + (signed<12>) imm) & 0xfffffffe;
        X[rd] = (unsigned<32>) (PC + 4);
        PC = target;
      } }

    beq { encoding: imm[12:12] :: imm[10:5] :: rs2[4:0] :: rs1[4:0] :: 3'b000
        :: imm[4:1] :: imm[11:11] :: 7'b1100011;
      behavior: if (X[rs1] == X[rs2]) PC = (unsigned<32>) (PC + (signed<13>) imm); }
    bne { encoding: imm[12:12] :: imm[10:5] :: rs2[4:0] :: rs1[4:0] :: 3'b001
        :: imm[4:1] :: imm[11:11] :: 7'b1100011;
      behavior: if (X[rs1] != X[rs2]) PC = (unsigned<32>) (PC + (signed<13>) imm); }
    blt { encoding: imm[12:12] :: imm[10:5] :: rs2[4:0] :: rs1[4:0] :: 3'b100
        :: imm[4:1] :: imm[11:11] :: 7'b1100011;
      behavior: if ((signed<32>) X[rs1] < (signed<32>) X[rs2])
                  PC = (unsigned<32>) (PC + (signed<13>) imm); }
    bge { encoding: imm[12:12] :: imm[10:5] :: rs2[4:0] :: rs1[4:0] :: 3'b101
        :: imm[4:1] :: imm[11:11] :: 7'b1100011;
      behavior: if ((signed<32>) X[rs1] >= (signed<32>) X[rs2])
                  PC = (unsigned<32>) (PC + (signed<13>) imm); }
    bltu { encoding: imm[12:12] :: imm[10:5] :: rs2[4:0] :: rs1[4:0] :: 3'b110
        :: imm[4:1] :: imm[11:11] :: 7'b1100011;
      behavior: if (X[rs1] < X[rs2]) PC = (unsigned<32>) (PC + (signed<13>) imm); }
    bgeu { encoding: imm[12:12] :: imm[10:5] :: rs2[4:0] :: rs1[4:0] :: 3'b111
        :: imm[4:1] :: imm[11:11] :: 7'b1100011;
      behavior: if (X[rs1] >= X[rs2]) PC = (unsigned<32>) (PC + (signed<13>) imm); }

    lb { encoding: imm[11:0] :: rs1[4:0] :: 3'b000 :: rd[4:0] :: 7'b0000011;
      behavior: { unsigned<32> a = (unsigned<32>) (X[rs1] + (signed<12>) imm);
                  X[rd] = (unsigned<32>) (signed<8>) MEM[a]; } }
    lh { encoding: imm[11:0] :: rs1[4:0] :: 3'b001 :: rd[4:0] :: 7'b0000011;
      behavior: { unsigned<32> a = (unsigned<32>) (X[rs1] + (signed<12>) imm);
                  X[rd] = (unsigned<32>) (signed<16>) MEM[a+1:a]; } }
    lw { encoding: imm[11:0] :: rs1[4:0] :: 3'b010 :: rd[4:0] :: 7'b0000011;
      behavior: { unsigned<32> a = (unsigned<32>) (X[rs1] + (signed<12>) imm);
                  X[rd] = MEM[a+3:a]; } }
    lbu { encoding: imm[11:0] :: rs1[4:0] :: 3'b100 :: rd[4:0] :: 7'b0000011;
      behavior: X[rd] = MEM[(unsigned<32>) (X[rs1] + (signed<12>) imm)]; }
    lhu { encoding: imm[11:0] :: rs1[4:0] :: 3'b101 :: rd[4:0] :: 7'b0000011;
      behavior: { unsigned<32> a = (unsigned<32>) (X[rs1] + (signed<12>) imm);
                  X[rd] = MEM[a+1:a]; } }
    sb { encoding: imm[11:5] :: rs2[4:0] :: rs1[4:0] :: 3'b000 :: imm[4:0] :: 7'b0100011;
      behavior: MEM[(unsigned<32>) (X[rs1] + (signed<12>) imm)] = X[rs2][7:0]; }
    sh { encoding: imm[11:5] :: rs2[4:0] :: rs1[4:0] :: 3'b001 :: imm[4:0] :: 7'b0100011;
      behavior: { unsigned<32> a = (unsigned<32>) (X[rs1] + (signed<12>) imm);
                  MEM[a+1:a] = X[rs2][15:0]; } }
    sw { encoding: imm[11:5] :: rs2[4:0] :: rs1[4:0] :: 3'b010 :: imm[4:0] :: 7'b0100011;
      behavior: { unsigned<32> a = (unsigned<32>) (X[rs1] + (signed<12>) imm);
                  MEM[a+3:a] = X[rs2]; } }

    addi { encoding: imm[11:0] :: rs1[4:0] :: 3'b000 :: rd[4:0] :: 7'b0010011;
      behavior: X[rd] = (unsigned<32>) (X[rs1] + (signed<12>) imm); }
    slti { encoding: imm[11:0] :: rs1[4:0] :: 3'b010 :: rd[4:0] :: 7'b0010011;
      behavior: X[rd] = (signed<32>) X[rs1] < (signed<12>) imm; }
    sltiu { encoding: imm[11:0] :: rs1[4:0] :: 3'b011 :: rd[4:0] :: 7'b0010011;
      behavior: X[rd] = X[rs1] < (unsigned<32>) (signed<12>) imm; }
    xori { encoding: imm[11:0] :: rs1[4:0] :: 3'b100 :: rd[4:0] :: 7'b0010011;
      behavior: X[rd] = X[rs1] ^ (unsigned<32>) (signed<12>) imm; }
    ori { encoding: imm[11:0] :: rs1[4:0] :: 3'b110 :: rd[4:0] :: 7'b0010011;
      behavior: X[rd] = X[rs1] | (unsigned<32>) (signed<12>) imm; }
    andi { encoding: imm[11:0] :: rs1[4:0] :: 3'b111 :: rd[4:0] :: 7'b0010011;
      behavior: X[rd] = X[rs1] & (unsigned<32>) (signed<12>) imm; }
    slli { encoding: 7'b0000000 :: shamt[4:0] :: rs1[4:0] :: 3'b001 :: rd[4:0] :: 7'b0010011;
      behavior: X[rd] = (unsigned<32>) (X[rs1] << shamt); }
    srli { encoding: 7'b0000000 :: shamt[4:0] :: rs1[4:0] :: 3'b101 :: rd[4:0] :: 7'b0010011;
      behavior: X[rd] = X[rs1] >> shamt; }
    srai { encoding: 7'b0100000 :: shamt[4:0] :: rs1[4:0] :: 3'b101 :: rd[4:0] :: 7'b0010011;
      behavior: X[rd] = (unsigned<32>) ((signed<32>) X[rs1] >> shamt); }

    add { encoding: 7'b0000000 :: rs2[4:0] :: rs1[4:0] :: 3'b000 :: rd[4:0] :: 7'b0110011;
      behavior: X[rd] = (unsigned<32>) (X[rs1] + X[rs2]); }
    sub { encoding: 7'b0100000 :: rs2[4:0] :: rs1[4:0] :: 3'b000 :: rd[4:0] :: 7'b0110011;
      behavior: X[rd] = (unsigned<32>) (X[rs1] - X[rs2]); }
    sll { encoding: 7'b0000000 :: rs2[4:0] :: rs1[4:0] :: 3'b001 :: rd[4:0] :: 7'b0110011;
      behavior: X[rd] = (unsigned<32>) (X[rs1] << X[rs2][4:0]); }
    slt { encoding: 7'b0000000 :: rs2[4:0] :: rs1[4:0] :: 3'b010 :: rd[4:0] :: 7'b0110011;
      behavior: X[rd] = (signed<32>) X[rs1] < (signed<32>) X[rs2]; }
    sltu { encoding: 7'b0000000 :: rs2[4:0] :: rs1[4:0] :: 3'b011 :: rd[4:0] :: 7'b0110011;
      behavior: X[rd] = X[rs1] < X[rs2]; }
    xor { encoding: 7'b0000000 :: rs2[4:0] :: rs1[4:0] :: 3'b100 :: rd[4:0] :: 7'b0110011;
      behavior: X[rd] = X[rs1] ^ X[rs2]; }
    srl { encoding: 7'b0000000 :: rs2[4:0] :: rs1[4:0] :: 3'b101 :: rd[4:0] :: 7'b0110011;
      behavior: X[rd] = X[rs1] >> X[rs2][4:0]; }
    sra { encoding: 7'b0100000 :: rs2[4:0] :: rs1[4:0] :: 3'b101 :: rd[4:0] :: 7'b0110011;
      behavior: X[rd] = (unsigned<32>) ((signed<32>) X[rs1] >> X[rs2][4:0]); }
    or { encoding: 7'b0000000 :: rs2[4:0] :: rs1[4:0] :: 3'b110 :: rd[4:0] :: 7'b0110011;
      behavior: X[rd] = X[rs1] | X[rs2]; }
    and { encoding: 7'b0000000 :: rs2[4:0] :: rs1[4:0] :: 3'b111 :: rd[4:0] :: 7'b0110011;
      behavior: X[rd] = X[rs1] & X[rs2]; }

    // M: a zero divisor is guarded, as the language's '/' and '%' raise on
    // it; the casts already give -2**31 / -1 and -2**31 % -1 their results.
    mul { encoding: 7'b0000001 :: rs2[4:0] :: rs1[4:0] :: 3'b000 :: rd[4:0] :: 7'b0110011;
      behavior: X[rd] = (unsigned<32>) (X[rs1] * X[rs2]); }
    mulh { encoding: 7'b0000001 :: rs2[4:0] :: rs1[4:0] :: 3'b001 :: rd[4:0] :: 7'b0110011;
      behavior: X[rd] = (unsigned<32>) (((signed<32>) X[rs1] * (signed<32>) X[rs2]) >> 32); }
    mulhsu { encoding: 7'b0000001 :: rs2[4:0] :: rs1[4:0] :: 3'b010 :: rd[4:0] :: 7'b0110011;
      behavior: X[rd] = (unsigned<32>) (((signed<32>) X[rs1] * X[rs2]) >> 32); }
    mulhu { encoding: 7'b0000001 :: rs2[4:0] :: rs1[4:0] :: 3'b011 :: rd[4:0] :: 7'b0110011;
      behavior: X[rd] = (unsigned<32>) ((X[rs1] * X[rs2]) >> 32); }
    div { encoding: 7'b0000001 :: rs2[4:0] :: rs1[4:0] :: 3'b100 :: rd[4:0] :: 7'b0110011;
      behavior: X[rd] = X[rs2] == 0 ? 0xffffffff
                        : (unsigned<32>) ((signed<32>) X[rs1] / (signed<32>) X[rs2]); }
    divu { encoding: 7'b0000001 :: rs2[4:0] :: rs1[4:0] :: 3'b101 :: rd[4:0] :: 7'b0110011;
      behavior: X[rd] = X[rs2] == 0 ? 0xffffffff : X[rs1] / X[rs2]; }
    rem { encoding: 7'b0000001 :: rs2[4:0] :: rs1[4:0] :: 3'b110 :: rd[4:0] :: 7'b0110011;
      behavior: X[rd] = X[rs2] == 0 ? X[rs1]
                        : (unsigned<32>) ((signed<32>) X[rs1] % (signed<32>) X[rs2]); }
    remu { encoding: 7'b0000001 :: rs2[4:0] :: rs1[4:0] :: 3'b111 :: rd[4:0] :: 7'b0110011;
      behavior: X[rd] = X[rs2] == 0 ? X[rs1] : X[rs1] % X[rs2]; }

    // A single hart: FENCE orders nothing.  FENCE matches on its opcode
    // alone and ECALL/EBREAK on bit 20; the simulator halts on the latter.
    fence { encoding: ordering[24:0] :: 7'b0001111;
      behavior: { unsigned<25> ignored = ordering; } }
    ecall { encoding: sys[23:13] :: 1'b0 :: sys[12:0] :: 7'b1110011;
      behavior: { unsigned<24> ignored = sys; } }
    ebreak { encoding: sys[23:13] :: 1'b1 :: sys[12:0] :: 7'b1110011;
      behavior: { unsigned<24> ignored = sys; } }
  }
}
"""

#: Import path -> CoreDSL source text.
BUILTIN_SOURCES = {
    "RV32I.core_desc": RV32I_CORE_DESC,
    "RISCVBase.core_desc": RV32I_CORE_DESC,
}
