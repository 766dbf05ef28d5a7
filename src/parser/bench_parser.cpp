#include "parser/bench_parser.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/atomic_file.h"
#include "common/text.h"
#include "common/thread_pool.h"
#include "exec/chaos.h"
#include "parser/lexer.h"

namespace netrev::parser {

namespace {

using netlist::GateType;
using netlist::Netlist;

// Inputs below this size are tokenised as one chunk on the calling thread,
// larger ones in kChunkBytes pieces on the global pool.  The floor sits
// above every family design (b18s is about 3 MB of text) and far above the
// serve-sized ones: a serve request thread is a top-level parallel_for
// caller, and top-level calls wait for one another on the pool.
constexpr std::size_t kParallelFloor = std::size_t{4} << 20;
constexpr std::size_t kChunkBytes = std::size_t{512} << 10;

constexpr const char* kGivingUp =
    "too many errors; giving up on the rest of the input";

// 1-based column of `sub` within the line buffer `base`.  Both views must
// point into the same underlying storage (substr/trim preserve this).
std::size_t column_of(std::string_view base, std::string_view sub) {
  return static_cast<std::size_t>(sub.data() - base.data()) + 1;
}

// A name as a view into the source text (which outlives the parse) plus its
// name-table hash, computed while tokenising so that interning only probes.
struct Name {
  std::string_view text;
  std::uint32_t hash = 0;
};

Name hashed(std::string_view text) { return {text, Netlist::name_hash(text)}; }

std::optional<GateType> function_type(std::string_view function) {
  if (auto type = netlist::gate_type_from_name(function)) return type;
  if (function == "VDD") return GateType::kConst1;
  if (function == "GND") return GateType::kConst0;
  return std::nullopt;
}

// What interning needs of one gate line.  Its output and then its arguments
// are the next 1 + arg_count entries of its chunk's name list.  The error
// paths re-read the line at `line_begin` for the function name and columns.
struct BenchLine {
  std::size_t line_begin = 0;   // source offset of the line
  std::size_t line_number = 0;  // counted from the chunk's first line
  std::size_t arg_count = 0;
  std::optional<GateType> type;  // nullopt: unknown function
};

// A malformed line, numbered from its chunk's first line.  The line adds no
// token, so the counts of the chunk's tokens before it are where the error
// budget cuts the chunk off if this error spends it.
struct LineError {
  std::string message;
  std::size_t line = 0;
  std::size_t column = 0;
  bool followed = false;  // another line follows it in the source
  std::size_t inputs = 0;
  std::size_t outputs = 0;
  std::size_t gates = 0;
};

// The tokens of one line-aligned piece of the source, in file order.
struct Chunk {
  std::vector<Name> inputs;
  std::vector<Name> outputs;
  std::vector<BenchLine> gates;
  std::vector<Name> names;  // each gate's output, then its arguments
  std::vector<LineError> errors;
  std::size_t lines = 0;       // lines tokenised
  std::size_t first_line = 0;  // file lines before the chunk (set on merge)
};

// What a gate line says beyond its names: the function (as written and as
// a gate type) and the file columns that diagnostics report.
struct GateText {
  std::string_view function;
  std::size_t output_column = 1;
  std::size_t function_column = 1;
  std::optional<GateType> type;
};

// Parses "NAME = FUNC(arg, arg, ...)", appending the output name and then
// the argument names to `names`.  `base` is the raw line as read from the
// file; `line` is its comment-stripped, trimmed view into the same buffer,
// so reported columns are real file columns.  On a ParseError the caller
// truncates `names` back to its size before the call.
GateText parse_gate_line(std::string_view base, std::string_view line,
                         std::size_t line_number, std::vector<Name>& names) {
  GateText parsed;
  const std::size_t eq = line.find('=');
  if (eq == std::string_view::npos)
    throw ParseError("expected '='", line_number, column_of(base, line));
  const std::string_view lhs = trim(line.substr(0, eq));
  names.push_back(hashed(lhs));
  parsed.output_column =
      lhs.empty() ? column_of(base, line) : column_of(base, lhs);
  std::string_view rhs = trim(line.substr(eq + 1));
  const std::size_t open = rhs.find('(');
  const std::size_t close = rhs.rfind(')');
  if (open == std::string_view::npos || close == std::string_view::npos ||
      close < open)
    throw ParseError("expected FUNC(args)", line_number,
                     rhs.empty() ? column_of(base, line) + eq + 1
                                 : column_of(base, rhs));
  const std::string_view func = trim(rhs.substr(0, open));
  parsed.function = func;
  parsed.type = function_type(func);
  parsed.function_column =
      func.empty() ? column_of(base, rhs) : column_of(base, func);
  const std::string_view arg_text = rhs.substr(open + 1, close - open - 1);
  if (!trim(arg_text).empty()) {
    std::size_t pos = 0;
    while (true) {
      const std::size_t comma = arg_text.find(',', pos);
      const std::string_view field =
          comma == std::string_view::npos ? arg_text.substr(pos)
                                          : arg_text.substr(pos, comma - pos);
      const auto arg = trim(field);
      if (arg.empty())
        throw ParseError("empty argument", line_number,
                         column_of(base, field));
      names.push_back(hashed(arg));
      if (comma == std::string_view::npos) break;
      pos = comma + 1;
    }
  }
  if (lhs.empty())
    throw ParseError("empty output name", line_number, parsed.output_column);
  return parsed;
}

// The line starting at `begin`, without its '\n', and its comment-stripped,
// trimmed content.
std::pair<std::string_view, std::string_view> line_at(std::string_view source,
                                                      std::size_t begin) {
  const std::size_t newline = source.find('\n', begin);
  const std::string_view base = source.substr(
      begin, (newline == std::string_view::npos ? source.size() : newline) -
                 begin);
  std::string_view line = base;
  const std::size_t hash = line.find('#');
  if (hash != std::string_view::npos) line = line.substr(0, hash);
  return {base, trim(line)};
}

// Re-reads a gate line that tokenised cleanly, for its diagnostics.
GateText reread_gate_line(std::string_view source, const BenchLine& gate,
                          std::size_t line_number) {
  const auto [base, line] = line_at(source, gate.line_begin);
  std::vector<Name> names;
  return parse_gate_line(base, line, line_number, names);
}

// Tokenises the lines from `begin` up to `end` (just past a '\n') into
// `chunk`; the last chunk runs to the end of the source instead, where a
// final newline ends one more, empty, line.  Stops after `max_errors`
// malformed lines: the error budget has run out by then.
void tokenise(std::string_view source, std::size_t begin, std::size_t end,
              bool last, std::size_t max_errors,
              const exec::Checkpoint& checkpoint, Chunk& chunk) {
  // A chunk has at most one gate per line and, per gate line, two names
  // plus one per comma; reserving that up front saves regrowing (and
  // re-touching) the token arrays.
  const std::string_view text = source.substr(begin, end - begin);
  const auto lines = static_cast<std::size_t>(
      std::count(text.begin(), text.end(), '\n') + 1);
  const auto commas =
      static_cast<std::size_t>(std::count(text.begin(), text.end(), ','));
  chunk.gates.reserve(lines);
  chunk.names.reserve(2 * lines + commas);
  for (std::size_t start = begin; last ? start <= end : start < end;) {
    const std::size_t line_begin = start;
    const auto [base, line] = line_at(source, line_begin);
    start = line_begin + base.size() + 1;
    ++chunk.lines;
    checkpoint.poll();
    if (line.empty()) continue;
    if (starts_with(line, "INPUT(") && line.back() == ')') {
      chunk.inputs.push_back(hashed(trim(line.substr(6, line.size() - 7))));
    } else if (starts_with(line, "OUTPUT(") && line.back() == ')') {
      chunk.outputs.push_back(hashed(trim(line.substr(7, line.size() - 8))));
    } else {
      const std::size_t names_before = chunk.names.size();
      try {
        const GateText gate =
            parse_gate_line(base, line, chunk.lines, chunk.names);
        chunk.gates.push_back({line_begin, chunk.lines,
                               chunk.names.size() - names_before - 1,
                               gate.type});
      } catch (const ParseError& err) {
        chunk.names.resize(names_before);
        chunk.errors.push_back({err.message(), err.line(), err.column(),
                                start <= source.size(), chunk.inputs.size(),
                                chunk.outputs.size(), chunk.gates.size()});
        if (chunk.errors.size() >= max_errors) return;
      }
    }
  }
}

// Offsets where chunks start: 0, then just past the first '\n' at least
// `chunk_bytes` into the previous chunk.
std::vector<std::size_t> chunk_starts(std::string_view source,
                                      std::size_t chunk_bytes) {
  std::vector<std::size_t> starts{0};
  while (source.size() - starts.back() > chunk_bytes) {
    const std::size_t newline = source.find('\n', starts.back() + chunk_bytes);
    if (newline == std::string_view::npos) break;
    starts.push_back(newline + 1);
  }
  return starts;
}

}  // namespace

namespace detail {

Netlist parse_bench_chunked(std::string_view source,
                            const ParseOptions& options,
                            diag::Diagnostics& diags,
                            std::size_t chunk_bytes) {
  exec::chaos_point("parse");
  const auto here = [&](std::size_t line, std::size_t column) {
    return diag::SourceLocation{options.filename, line, column};
  };

  if (source.size() > options.limits.max_file_bytes) {
    const std::string message =
        "input exceeds maximum file size (" + std::to_string(source.size()) +
        " > " + std::to_string(options.limits.max_file_bytes) + " bytes)";
    if (!options.permissive) throw ResourceLimitError(message);
    diags.fatal(message, here(0, 0));
    return Netlist("bench");
  }

  // Phase 1, in parallel: tokenise and hash names chunk by chunk.  Every
  // name is a view into `source`; nothing is copied until the netlist
  // interns it.
  std::vector<Chunk> chunks;
  std::size_t line_number = 1;  // the last line a serial pass would reach
  if (options.permissive && diags.at_error_limit()) {
    options.checkpoint.poll();
    diags.note(kGivingUp, here(line_number, 1));
  } else {
    // A strict parse throws at its first error; a permissive one gives up
    // once the sink's remaining error budget is spent.
    const std::size_t max_errors =
        options.permissive
            ? diags.max_errors() - diags.error_count() - diags.fatal_count()
            : 1;
    const std::vector<std::size_t> starts = chunk_starts(source, chunk_bytes);
    chunks.resize(starts.size());
    const auto run = [&](std::size_t i) {
      const bool last = i + 1 == starts.size();
      tokenise(source, starts[i], last ? source.size() : starts[i + 1], last,
               max_errors, options.checkpoint, chunks[i]);
    };
    if (chunks.size() == 1)
      run(0);
    else
      parallel_for(0, chunks.size(), run);

    // Report malformed lines in file order, exactly as a serial pass does,
    // and drop what follows the line that spends the error budget.
    line_number = 0;
    for (std::size_t c = 0; c < chunks.size(); ++c) {
      Chunk& chunk = chunks[c];
      chunk.first_line = line_number;
      line_number += chunk.lines;
      for (const LineError& err : chunk.errors) {
        const std::size_t line = chunk.first_line + err.line;
        if (!options.permissive)
          throw ParseError(err.message, line, err.column);
        diags.error(err.message + "; line skipped", here(line, err.column));
        if (!diags.at_error_limit()) continue;
        line_number = line;
        if (err.followed) diags.note(kGivingUp, here(++line_number, 1));
        chunk.inputs.resize(err.inputs);
        chunk.outputs.resize(err.outputs);
        chunk.gates.resize(err.gates);
        chunks.resize(c + 1);
        break;
      }
    }
  }

  // Phase 2, serial: intern names in first-appearance order and add gates.
  Netlist nl("bench");
  const auto over_limits = [&] {
    return nl.net_count() > options.limits.max_nets ||
           nl.gate_count() > options.limits.max_gates;
  };
  const auto limit_failure = [&](std::size_t line) {
    const std::string message =
        "netlist exceeds resource limits (" + std::to_string(nl.net_count()) +
        " nets, " + std::to_string(nl.gate_count()) + " gates)";
    if (!options.permissive) throw ResourceLimitError(message);
    diags.fatal(message, here(line, 1));
  };

  // Every net is named by an INPUT or gate-output line, except undriven
  // nets that only appear as arguments, so this is the net count of a
  // well-formed file (growth covers the rest).  Capped at the limits, which
  // abort the parse before the netlist outgrows them.
  std::size_t input_count = 0;
  std::size_t gate_count = 0;
  for (const Chunk& chunk : chunks) {
    input_count += chunk.inputs.size();
    gate_count += chunk.gates.size();
  }
  nl.reserve(std::min(input_count + gate_count, options.limits.max_nets),
             std::min(gate_count, options.limits.max_gates));
  for (const Chunk& chunk : chunks)
    for (const Name& name : chunk.inputs)
      nl.mark_primary_input(nl.find_or_add_net(name.text, name.hash));
  for (const Chunk& chunk : chunks)
    for (const Name& name : chunk.outputs)
      nl.mark_primary_output(nl.find_or_add_net(name.text, name.hash));
  if (over_limits()) {
    limit_failure(line_number);
    return nl;
  }
  // Interning waits on memory: each name's table slot and then its net are
  // prefetched this many names ahead.
  constexpr std::size_t kSlotAhead = 16;
  constexpr std::size_t kNetAhead = 8;
  std::vector<netlist::NetId> ins;  // reused by every gate
  for (const Chunk& chunk : chunks) {
    const std::vector<Name>& names = chunk.names;
    std::size_t next = 0;  // the gate's output in `names`
    for (const BenchLine& gate : chunk.gates) {
      const std::size_t at = next;
      next += 1 + gate.arg_count;
      const std::size_t line = chunk.first_line + gate.line_number;
      if (options.permissive && diags.at_error_limit()) {
        diags.note(kGivingUp, here(line, 1));
        return nl;
      }
      if (!gate.type) {
        const GateText text = reread_gate_line(source, gate, line);
        const std::string message =
            "unknown function '" + std::string(text.function) + "'";
        if (!options.permissive)
          throw ParseError(message, line, text.function_column);
        diags.error(message + "; gate dropped",
                    here(line, text.function_column));
        continue;
      }
      for (std::size_t i = at; i < next; ++i) {
        if (i + kSlotAhead < names.size())
          nl.prefetch_slot(names[i + kSlotAhead].hash);
        if (i + kNetAhead < names.size())
          nl.prefetch_net(names[i + kNetAhead].hash);
      }
      const auto out = nl.find_or_add_net(names[at].text, names[at].hash);
      ins.clear();
      for (std::size_t i = at + 1; i < next; ++i)
        ins.push_back(nl.find_or_add_net(names[i].text, names[i].hash));
      try {
        nl.add_gate(*gate.type, out, ins);
      } catch (const std::invalid_argument& err) {
        const std::size_t column =
            reread_gate_line(source, gate, line).output_column;
        if (!options.permissive) throw ParseError(err.what(), line, column);
        // Keep-first: a duplicate driver (or a gate driving a primary
        // input) drops the later gate; arity violations drop the malformed
        // gate.
        diags.warning(std::string(err.what()) + "; gate dropped",
                      here(line, column));
        continue;
      }
      if (over_limits()) {
        limit_failure(line);
        return nl;
      }
    }
  }
  return nl;
}

}  // namespace detail

Netlist parse_bench(std::string_view source, const ParseOptions& options,
                    diag::Diagnostics& diags) {
  return detail::parse_bench_chunked(
      source, options, diags,
      source.size() < kParallelFloor ? source.size() : kChunkBytes);
}

Netlist parse_bench(std::string_view source) {
  diag::Diagnostics diags;
  return parse_bench(source, ParseOptions{}, diags);
}

std::string write_bench(const Netlist& nl) {
  std::string out = "# " + nl.name() + "\n";
  for (netlist::NetId id : nl.primary_inputs())
    out += "INPUT(" + nl.net(id).name + ")\n";
  for (netlist::NetId id : nl.primary_outputs())
    out += "OUTPUT(" + nl.net(id).name + ")\n";
  for (netlist::GateId g : nl.gates_in_file_order()) {
    const netlist::Gate& gate = nl.gate(g);
    out += nl.net(gate.output).name + " = ";
    out += gate_type_name(gate.type);
    out += '(';
    for (std::size_t i = 0; i < gate.inputs.size(); ++i) {
      if (i > 0) out += ", ";
      out += nl.net(gate.inputs[i]).name;
    }
    out += ")\n";
  }
  return out;
}

void write_bench_file(const Netlist& nl, const std::string& path) {
  // Temp-file + rename: a crash mid-write never leaves a truncated .bench.
  io::write_file_atomic(path, write_bench(nl));
}

}  // namespace netrev::parser
