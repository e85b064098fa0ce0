# Writes OUT, a C++ source that defines analysis::shippedScripts(): the
# text of every *.script file in SCRIPTS_DIR, by file name. The
# extra_analysis build runs it whenever a script changes:
#
#   cmake -DSCRIPTS_DIR=<dir> -DOUT=<file.cpp> -P EmbedScripts.cmake

file(GLOB Scripts "${SCRIPTS_DIR}/*.script")
list(SORT Scripts)
set(Entries "")
foreach(Path IN LISTS Scripts)
  get_filename_component(Name "${Path}" NAME)
  file(READ "${Path}" Text)
  string(FIND "${Text}" ")script\"" Clash)
  if(NOT Clash EQUAL -1)
    message(FATAL_ERROR "${Path} contains the raw-string delimiter )script\"")
  endif()
  string(APPEND Entries "      {\"${Name}\", R\"script(${Text})script\"},\n")
endforeach()

file(WRITE "${OUT}" "\
// Generated from scripts/*.script by src/analysis/EmbedScripts.cmake.

#include \"analysis/Derivations.h\"

using namespace extra;

const analysis::ScriptFiles &analysis::shippedScripts() {
  static const ScriptFiles Files = {
${Entries}  };
  return Files;
}
")
