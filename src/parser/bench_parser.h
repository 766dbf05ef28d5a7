// Reader/writer for the ISCAS/ITC ".bench" netlist format:
//
//   # comment
//   INPUT(G0)
//   OUTPUT(G17)
//   G10 = NAND(G0, G1)
//   G11 = DFF(G10)
//   G12 = NOT(G11)
//
// Like the Verilog reader, line order is preserved as gate order.
//
// This layer parses SOURCE TEXT only (the writer still writes files).  File
// reading lives in netrev::Session::load_netlist (pipeline/session.h), which
// dispatches on the spec, caches the parse, and layers repair/validation on
// top — the former parse_bench_file entry points have been retired.
#pragma once

#include <string>
#include <string_view>

#include "common/diagnostics.h"
#include "netlist/netlist.h"
#include "parser/parse_options.h"

namespace netrev::parser {

// Strict parse: throws ParseError (with real line/column) on the first
// malformed construct, ResourceLimitError on oversized input.
netlist::Netlist parse_bench(std::string_view source);

// Configurable parse.  With options.permissive, malformed lines are skipped
// with a diagnostic and parsing continues; the recovered netlist may contain
// dangling nets (run netlist::repair() before using it).  Duplicate drivers
// are resolved keep-first with a warning.  Inputs of 4 MiB or more are
// tokenised on the global thread pool; the result does not depend on it.
netlist::Netlist parse_bench(std::string_view source,
                             const ParseOptions& options,
                             diag::Diagnostics& diags);

namespace detail {

// parse_bench with the chunk size chosen by the caller: the source is split
// into line-aligned chunks of about `chunk_bytes`, tokenised on the global
// pool and interned serially in file order.  The netlist and diagnostics
// are the same at any chunk size; parse_bench picks the size from the
// input's.  Exposed so that tests can force many small chunks.
netlist::Netlist parse_bench_chunked(std::string_view source,
                                     const ParseOptions& options,
                                     diag::Diagnostics& diags,
                                     std::size_t chunk_bytes);

}  // namespace detail

std::string write_bench(const netlist::Netlist& nl);
void write_bench_file(const netlist::Netlist& nl, const std::string& path);

}  // namespace netrev::parser
