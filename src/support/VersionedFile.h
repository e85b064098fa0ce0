//===- VersionedFile.h - Versioned JSONL file helpers -----------*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shared durability contract of every JSONL artifact the system
/// persists — checkpoints (search/Checkpoint) and the binding registry
/// (src/registry). One place implements it:
///
///  * Files carry a schema-version header record as their first line,
///    `{"format":"<tag>","version":N}`. The header is tolerated-if-
///    absent (pre-header files still load), but a header naming a
///    foreign format or a version above what the build knows is a typed
///    Store fault — never a silent misparse.
///  * Appends are open-append-close per record. A run killed mid-append
///    leaves at most one unterminated trailing line; the next append
///    starts on a fresh line so two records are never welded together,
///    and readers skip the torn line.
///  * Whole-file writes go through a temp file + rename, so a crash
///    mid-write leaves the old file intact.
///
/// Header and record lines go through the one line codec, support/Json.
/// A line that is not an object of exactly the two header fields is
/// simply not a header, which is the tolerance the record readers rely
/// on.
///
//===----------------------------------------------------------------------===//

#ifndef EXTRA_SUPPORT_VERSIONEDFILE_H
#define EXTRA_SUPPORT_VERSIONEDFILE_H

#include "support/Error.h"

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace extra {
namespace support {

/// Identity of one versioned file format: the header tag, the highest
/// version this build reads/writes, and the human noun used in fault
/// messages ("checkpoint", "binding registry").
struct FileFormat {
  const char *Tag;
  uint32_t Version;
  const char *Noun;
};

/// Renders a `{"format":"<tag>","version":N}` header line (no trailing
/// newline).
std::string versionHeaderLine(std::string_view Format, uint32_t Version);

/// Parses a header line: an object with exactly the keys "format" and
/// "version", the version all digits. Nullopt when \p Line is not a
/// version header (records and torn lines are not headers).
std::optional<std::pair<std::string, uint32_t>>
parseVersionHeader(std::string_view Line);

/// Reads every data line of the versioned file at \p Path, header lines
/// stripped after validation. A missing file reads as empty; blank lines
/// are dropped; an absent header is tolerated (the file is read as the
/// current version). A header naming a foreign format or a future
/// version is a typed Store fault ("'<path>' is a '<tag>' file, not a
/// <noun>" / "<noun> '<path>' is version N; this build reads up to
/// version M").
Expected<std::vector<std::string>> readVersionedLines(const std::string &Path,
                                                      const FileFormat &F);

/// Appends \p Line (one complete record, no trailing newline) to \p
/// Path, creating the file — stamped with the version header — on first
/// use. When the existing tail lacks its newline (a run killed
/// mid-append), the record starts on a fresh line. Store fault when the
/// file cannot be opened or the write fails.
Expected<bool> appendVersionedLine(const std::string &Path,
                                   const FileFormat &F,
                                   const std::string &Line);

/// Rewrites \p Path as header + \p Lines through a temp file + rename,
/// so a crash mid-write leaves the old file intact. Store fault on any
/// I/O failure.
Expected<bool> writeVersionedFile(const std::string &Path, const FileFormat &F,
                                  const std::vector<std::string> &Lines);

} // namespace support
} // namespace extra

#endif // EXTRA_SUPPORT_VERSIONEDFILE_H
