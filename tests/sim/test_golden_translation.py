"""The golden model's translation: once per ISA, gone with its ISA, and
immune to CoreDSL names that look like the generated code's own."""

import copy
import gc
import random
import re
import weakref

from repro import compile_isax
from repro.frontend import elaborate
from repro.isaxes import SPARKLE, ZOL
from repro.scaiev.cores import CORES, EXPERIMENTAL_CORES
from repro.sim import ArchState, CoreDSLInterpreter, coredsl_interp
from repro.sim.compile import clear_compile_cache, compile_cache_stats
from repro.sim.cosim import verify_artifact


def test_cosim_on_every_core_translates_once(monkeypatch):
    translated = []
    translate = coredsl_interp._translate
    monkeypatch.setattr(coredsl_interp, "_translate",
                        lambda isa: translated.append(isa) or translate(isa))
    isa = copy.copy(elaborate(SPARKLE))
    for core in (*CORES, *EXPERIMENTAL_CORES):
        assert verify_artifact(compile_isax(isa, core), trials=2).passed
    assert translated == [isa]


def test_translation_dies_with_its_isa():
    isa = copy.copy(elaborate(ZOL))
    interp = CoreDSLInterpreter(isa)
    word = isa.instructions["setup_zol"].encoding.encode({"uimmL": 3})
    interp.execute_instruction(ArchState(isa), "setup_zol", word)
    assert isa in coredsl_interp._TRANSLATIONS
    alive = weakref.ref(isa)
    del isa, interp
    gc.collect()
    assert alive() is None


TEMPLATE = """
import "RV32I.core_desc"
InstructionSet names extends RV32I {
  architectural_state {
    unsigned int P = 3;
    register unsigned<32> R;
    register unsigned<16> Q[4];
    const unsigned<8> T[4] = {7, 11, 13, 17};
  }
  functions {
    unsigned<32> FA(unsigned<32> A1, unsigned<8> A2) {
      unsigned<32> L1 = (unsigned<32>) (A1 + A2 + P);
      return L1 ^ R;
    }
    void FB(unsigned<16> A1) {
      Q[P] = A1;
    }
  }
  instructions {
    OP {
      encoding: 7'd0 :: F1[4:0] :: F2[4:0] :: 3'b000 :: rd[4:0]
                :: 7'b0001011;
      behavior: {
        unsigned<32> L1 = X[F1];
        unsigned<8> L2 = T[F2[1:0]];
        for (unsigned<3> L3 = 0; L3 < 4; L3 += 1) {
          unsigned<32> L1 = FA(L1, L2);
          Q[L3] = (unsigned<16>) L1;
        }
        switch (F2) {
          case 1: R = L1; break;
          default: FB((unsigned<16>) L2); break;
        }
        X[rd] = FA(R, L2);
        spawn {
          R = (unsigned<32>) (R + P);
        }
      }
    }
  }
  always {
    TICK {
      if (R[0] == 0) { R = (unsigned<32>) (R + 1); }
    }
  }
}
"""
#: Names of the generated code's parameters, helpers, temporaries and
#: definitions, of its locals' and fields' prefixes, and Python keywords
#: and builtins, one for each CoreDSL name in the template.
CAPTURING = {"P": "sp", "R": "S", "Q": "E", "T": "_t0", "FA": "_div",
             "FB": "__import__", "A1": "F", "A2": "None", "L1": "lambda",
             "L2": "_v", "L3": "def", "F1": "_i", "F2": "e_rd", "OP": "a0",
             "TICK": "i0"}


def rename(text, names):
    return re.sub(r"\b(" + "|".join(names) + r")\b",
                  lambda match: names[match.group(1)], text)


def test_coredsl_names_cannot_capture_generated_ones():
    plain = elaborate(TEMPLATE)
    capturing = elaborate(rename(TEMPLATE, CAPTURING))
    back = {new: old for old, new in CAPTURING.items()}
    rng = random.Random(7)
    for trial in range(40):
        fields = {"F1": rng.randrange(32), "F2": trial % 5,
                  "rd": rng.randrange(32)}
        xregs = [0] + [rng.getrandbits(32) for _ in range(31)]
        r = rng.getrandbits(32) * (trial % 3 != 0)
        outcomes = []
        for isa, names in ((plain, {}), (capturing, CAPTURING)):
            state = ArchState(isa)
            state.xregs = list(xregs)
            state.custom[names.get("R", "R")] = [r]
            interp = CoreDSLInterpreter(isa)
            encoding = isa.instructions[names.get("OP", "OP")].encoding
            word = encoding.encode({names.get(k, k): v
                                    for k, v in fields.items()})
            effects = interp.execute_instruction(state, names.get("OP", "OP"),
                                                 word)
            effects += interp.execute_always(state, names.get("TICK", "TICK"))
            outcomes.append((
                [(e.kind, back.get(e.name, e.name), e.index, e.value,
                  e.width, e.spawned) for e in effects],
                state.xregs,
                {back.get(k, k): v for k, v in state.custom.items()}))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0], "the behavior recorded no effects"


SHARED = """
import "RV32I.core_desc"
InstructionSet {isa} extends RV32I {{
  architectural_state {{
    const unsigned<8> T[2] = {{{table}}};
  }}
  functions {{
    unsigned<32> mix(unsigned<32> x) {{
      return (unsigned<32>) ({body});
    }}
  }}
  instructions {{
    MIX {{
      encoding: 7'd0 :: rs2[4:0] :: rs1[4:0] :: 3'b000 :: rd[4:0]
                :: 7'b0001011;
      behavior: {{
        X[rd] = (unsigned<32>) (mix(X[rs1]) + T[X[rs2][0:0]]);
      }}
    }}
  }}
}}
"""


def test_isas_share_an_identical_instruction_but_not_its_callees():
    """The instruction's text is compiled once for both ISAs; each ISA's
    copy still calls its own ``mix`` and reads its own table."""
    isas = [elaborate(SHARED.format(isa="share_a", table="3, 5",
                                    body="x + 1")),
            elaborate(SHARED.format(isa="share_b", table="7, 9",
                                    body="x ^ 0xff"))]
    clear_compile_cache()
    results = []
    for isa in isas:
        state = ArchState(isa)
        state.xregs[1], state.xregs[2] = 0x100, 1
        word = isa.instructions["MIX"].encoding.encode(
            {"rs1": 1, "rs2": 2, "rd": 3})
        CoreDSLInterpreter(isa).execute_instruction(state, "MIX", word)
        results.append(state.xregs[3])
    assert results == [0x100 + 1 + 5, (0x100 ^ 0xff) + 9]
    stats = compile_cache_stats()
    assert (stats["compiles"], stats["code_hits"]) == (3, 1)
