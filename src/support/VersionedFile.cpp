//===- VersionedFile.cpp - Versioned JSONL file helpers ---------*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//

#include "support/VersionedFile.h"

#include "support/Json.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>

using namespace extra;
using namespace extra::support;

namespace {

Fault storeFault(std::string Message) {
  return makeFault(FaultCategory::Store, std::move(Message));
}

/// No fault for a header naming \p F at a readable version; a typed Store
/// fault otherwise.
std::optional<Fault> checkHeader(const std::pair<std::string, uint32_t> &H,
                                 const FileFormat &F, const std::string &Path) {
  if (H.first != F.Tag)
    return storeFault("'" + Path + "' is a '" + H.first + "' file, not a " +
                      F.Noun);
  if (H.second > F.Version)
    return storeFault(std::string(F.Noun) + " '" + Path + "' is version " +
                      std::to_string(H.second) +
                      "; this build reads up to version " +
                      std::to_string(F.Version));
  return std::nullopt;
}

} // namespace

std::string support::versionHeaderLine(std::string_view Format,
                                       uint32_t Version) {
  return "{\"format\":\"" + jsonEscape(Format) +
         "\",\"version\":" + std::to_string(Version) + "}";
}

std::optional<std::pair<std::string, uint32_t>>
support::parseVersionHeader(std::string_view Line) {
  // A header has exactly the two members; an object carrying any other
  // is a record, and a line that does not parse is a torn tail.
  auto O = parseJsonObjectLine(Line);
  if (!O || O->Fields.size() != 2 || !O->Fields.count("format"))
    return std::nullopt;
  std::string Version = O->field("version");
  if (Version.empty() ||
      Version.find_first_not_of("0123456789") != std::string::npos)
    return std::nullopt;
  return std::make_pair(O->field("format"),
                        static_cast<uint32_t>(
                            std::strtoul(Version.c_str(), nullptr, 10)));
}

Expected<std::vector<std::string>>
support::readVersionedLines(const std::string &Path, const FileFormat &F) {
  std::vector<std::string> Out;
  std::ifstream In(Path);
  if (!In)
    return Out; // A missing file reads as empty.
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty())
      continue;
    if (auto Header = parseVersionHeader(Line)) {
      // Absent headers are tolerated, but a present header must name
      // this format at a version we can read.
      if (auto Bad = checkHeader(*Header, F, Path))
        return *Bad;
      continue;
    }
    Out.push_back(Line);
  }
  return Out;
}

Expected<bool> support::appendVersionedLine(const std::string &Path,
                                            const FileFormat &F,
                                            const std::string &Line) {
  // A run killed mid-append leaves an unterminated final line; appending
  // straight after it would weld two records into one garbage line. Start
  // on a fresh line whenever the existing tail lacks its newline.
  bool NeedLeadingNewline = false;
  bool Empty = true;
  {
    std::ifstream In(Path, std::ios::binary);
    if (In) {
      In.seekg(0, std::ios::end);
      std::streamoff Size = In.tellg();
      if (Size > 0) {
        Empty = false;
        In.seekg(Size - 1);
        NeedLeadingNewline = In.get() != '\n';
      }
    }
  }
  std::ofstream OS(Path, std::ios::app);
  if (!OS)
    return storeFault("cannot open " + std::string(F.Noun) + " '" + Path +
                      "' for append");
  if (NeedLeadingNewline)
    OS << "\n";
  if (Empty)
    OS << versionHeaderLine(F.Tag, F.Version) << "\n";
  OS << Line << "\n";
  OS.flush();
  if (!OS)
    return storeFault("write to " + std::string(F.Noun) + " '" + Path +
                      "' failed");
  return true;
}

Expected<bool> support::writeVersionedFile(const std::string &Path,
                                           const FileFormat &F,
                                           const std::vector<std::string> &Lines) {
  std::string Tmp = Path + ".tmp";
  {
    std::ofstream OS(Tmp, std::ios::trunc);
    if (!OS)
      return storeFault("cannot open '" + Tmp + "' for writing");
    OS << versionHeaderLine(F.Tag, F.Version) << "\n";
    for (const std::string &L : Lines)
      OS << L << "\n";
    OS.flush();
    if (!OS)
      return storeFault("write to '" + Tmp + "' failed");
  }
  if (std::rename(Tmp.c_str(), Path.c_str()) != 0) {
    std::remove(Tmp.c_str());
    return storeFault("cannot rename '" + Tmp + "' over '" + Path + "'");
  }
  return true;
}
