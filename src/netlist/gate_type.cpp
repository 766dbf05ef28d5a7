#include "netlist/gate_type.h"

#include "common/contracts.h"

namespace netrev::netlist {

std::string_view gate_type_name(GateType type) {
  switch (type) {
    case GateType::kBuf: return "BUF";
    case GateType::kNot: return "NOT";
    case GateType::kAnd: return "AND";
    case GateType::kNand: return "NAND";
    case GateType::kOr: return "OR";
    case GateType::kNor: return "NOR";
    case GateType::kXor: return "XOR";
    case GateType::kXnor: return "XNOR";
    case GateType::kDff: return "DFF";
    case GateType::kConst0: return "CONST0";
    case GateType::kConst1: return "CONST1";
  }
  NETREV_ASSERT(false && "unreachable gate type");
  return {};
}

namespace {

// ASCII case-insensitive equality with an upper-case mnemonic.
bool equals_upper(std::string_view text, std::string_view upper) {
  if (text.size() != upper.size()) return false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if ((c >= 'a' && c <= 'z' ? static_cast<char>(c - 'a' + 'A') : c) !=
        upper[i])
      return false;
  }
  return true;
}

}  // namespace

std::optional<GateType> gate_type_from_name(std::string_view name) {
  // Dispatch on the first letter, then compare the few mnemonics sharing
  // it; no copy is made.  INV and BUFF are the common Verilog spellings.
  if (name.empty()) return std::nullopt;
  const auto is = [&](std::string_view upper) {
    return equals_upper(name, upper);
  };
  switch (name[0]) {
    case 'A': case 'a':
      if (is("AND")) return GateType::kAnd;
      break;
    case 'B': case 'b':
      if (is("BUF") || is("BUFF")) return GateType::kBuf;
      break;
    case 'C': case 'c':
      if (is("CONST0")) return GateType::kConst0;
      if (is("CONST1")) return GateType::kConst1;
      break;
    case 'D': case 'd':
      if (is("DFF")) return GateType::kDff;
      break;
    case 'I': case 'i':
      if (is("INV")) return GateType::kNot;
      break;
    case 'N': case 'n':
      if (is("NAND")) return GateType::kNand;
      if (is("NOR")) return GateType::kNor;
      if (is("NOT")) return GateType::kNot;
      break;
    case 'O': case 'o':
      if (is("OR")) return GateType::kOr;
      break;
    case 'X': case 'x':
      if (is("XOR")) return GateType::kXor;
      if (is("XNOR")) return GateType::kXnor;
      break;
    default:
      break;
  }
  return std::nullopt;
}

char gate_type_code(GateType type) {
  switch (type) {
    case GateType::kBuf: return 'B';
    case GateType::kNot: return 'I';
    case GateType::kAnd: return 'A';
    case GateType::kNand: return 'N';
    case GateType::kOr: return 'O';
    case GateType::kNor: return 'R';
    case GateType::kXor: return 'X';
    case GateType::kXnor: return 'Y';
    case GateType::kDff: return 'D';
    case GateType::kConst0: return '0';
    case GateType::kConst1: return '1';
  }
  NETREV_ASSERT(false && "unreachable gate type");
  return '?';
}

bool is_combinational(GateType type) {
  return type != GateType::kDff;
}

int min_arity(GateType type) {
  switch (type) {
    case GateType::kConst0:
    case GateType::kConst1: return 0;
    case GateType::kBuf:
    case GateType::kNot:
    case GateType::kDff: return 1;
    default: return 2;
  }
}

int max_arity(GateType type) {
  switch (type) {
    case GateType::kConst0:
    case GateType::kConst1: return 0;
    case GateType::kBuf:
    case GateType::kNot:
    case GateType::kDff: return 1;
    default: return 1 << 16;  // n-ary; bounded only for sanity
  }
}

std::optional<bool> controlling_value(GateType type) {
  switch (type) {
    case GateType::kAnd:
    case GateType::kNand: return false;
    case GateType::kOr:
    case GateType::kNor: return true;
    default: return std::nullopt;
  }
}

bool controlled_output(GateType type) {
  switch (type) {
    case GateType::kAnd: return false;   // controlling 0 -> output 0
    case GateType::kNand: return true;   // controlling 0 -> output 1
    case GateType::kOr: return true;     // controlling 1 -> output 1
    case GateType::kNor: return false;   // controlling 1 -> output 0
    default:
      NETREV_REQUIRE(false && "gate has no controlling value");
      return false;
  }
}

bool base_inversion(GateType type) {
  switch (type) {
    case GateType::kNot:
    case GateType::kNand:
    case GateType::kNor:
    case GateType::kXnor: return true;
    default: return false;
  }
}

bool eval_gate(GateType type, std::span<const bool> inputs) {
  const auto n = inputs.size();
  NETREV_REQUIRE(static_cast<int>(n) >= min_arity(type) &&
                 static_cast<int>(n) <= max_arity(type));
  switch (type) {
    case GateType::kBuf:
    case GateType::kDff: return inputs[0];
    case GateType::kNot: return !inputs[0];
    case GateType::kConst0: return false;
    case GateType::kConst1: return true;
    case GateType::kAnd:
    case GateType::kNand: {
      bool acc = true;
      for (bool v : inputs) acc = acc && v;
      return type == GateType::kAnd ? acc : !acc;
    }
    case GateType::kOr:
    case GateType::kNor: {
      bool acc = false;
      for (bool v : inputs) acc = acc || v;
      return type == GateType::kOr ? acc : !acc;
    }
    case GateType::kXor:
    case GateType::kXnor: {
      bool acc = false;
      for (bool v : inputs) acc = acc != v;
      return type == GateType::kXor ? acc : !acc;
    }
  }
  NETREV_ASSERT(false && "unreachable gate type");
  return false;
}

}  // namespace netrev::netlist
