/**
 * @file
 * WorkloadTrace binary serialization — the compact format the artifact
 * cache stores profiled traces in. Same information as the CSV
 * round-trip of trace_io.h, but a versioned binary frame (magic "MTRC",
 * little-endian POD fields, length-prefixed strings, trailing FNV
 * checksum) that loads one to two orders of magnitude faster than
 * strict CSV parsing. Loading re-validates every phase, so a corrupt
 * blob surfaces as a located mapp::InputError and the cache falls back
 * to re-profiling.
 */

#ifndef MAPP_ISA_TRACE_BINARY_H
#define MAPP_ISA_TRACE_BINARY_H

#include <string>

#include "isa/trace.h"

namespace mapp::isa {

/** Serialize a trace into a checksummed binary blob. */
std::string traceToBinary(const WorkloadTrace& trace);

/**
 * Parse a trace from a blob produced by traceToBinary.
 * @param source label for error messages (e.g. the blob's path)
 * @throws InputError on a short/garbled/wrong-magic/wrong-version blob
 *         or phases that fail validation.
 */
WorkloadTrace traceFromBinary(const std::string& blob,
                              const std::string& source = "");

}  // namespace mapp::isa

#endif  // MAPP_ISA_TRACE_BINARY_H
