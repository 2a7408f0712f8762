#include "soc/soc_description.hpp"

#include <cctype>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>

#include "common/assert.hpp"
#include "common/errors.hpp"
#include "soc/meta_scan_builder.hpp"

namespace scandiag {

namespace {

[[noreturn]] void fail(int line, const std::string& msg) {
  throw ParseError(".soc", line, msg);
}

// Descriptions come from disk; a corrupted count must not be able to request a
// billion-gate synthetic circuit. The largest ISCAS-89 profile is ~24k gates.
constexpr unsigned long long kMaxCount = 1ull << 24;

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream is(line);
  std::string t;
  while (is >> t) tokens.push_back(t);
  return tokens;
}

std::size_t parseCount(const std::string& text, int line, const std::string& what) {
  // std::stoull silently wraps negative input; reject it explicitly.
  if (!text.empty() && text[0] == '-') fail(line, what + " must be positive, got '" + text + "'");
  try {
    std::size_t consumed = 0;
    const unsigned long long v = std::stoull(text, &consumed);
    if (consumed != text.size())
      fail(line, "expected a number for " + what + ", got '" + text + "'");
    if (v == 0) fail(line, what + " must be positive");
    if (v > kMaxCount) fail(line, what + " out of range: '" + text + "'");
    return static_cast<std::size_t>(v);
  } catch (const ParseError&) {
    throw;
  } catch (const std::invalid_argument&) {
    fail(line, "expected a number for " + what + ", got '" + text + "'");
  } catch (const std::out_of_range&) {
    fail(line, what + " out of range: '" + text + "'");
  }
}

}  // namespace

SocDescription parseSocDescription(std::istream& in) {
  SocDescription desc;
  std::string raw;
  int lineNo = 0;
  bool sawSoc = false;
  while (std::getline(in, raw)) {
    ++lineNo;
    const std::size_t hash = raw.find('#');
    if (hash != std::string::npos) raw.erase(hash);
    const std::vector<std::string> tokens = tokenize(raw);
    if (tokens.empty()) continue;

    if (tokens[0] == "soc") {
      if (tokens.size() != 2) fail(lineNo, "soc takes exactly one name");
      if (sawSoc) fail(lineNo, "duplicate soc line");
      desc.name = tokens[1];
      sawSoc = true;
    } else if (tokens[0] == "tam") {
      if (tokens.size() != 2) fail(lineNo, "tam takes exactly one width");
      desc.tamWidth = parseCount(tokens[1], lineNo, "tam width");
    } else if (tokens[0] == "core") {
      if (tokens.size() < 4) fail(lineNo, "core needs a name and attributes");
      CoreDescription core;
      core.instanceName = tokens[1];
      for (const CoreDescription& existing : desc.cores) {
        if (existing.instanceName == core.instanceName)
          fail(lineNo, "duplicate core instance '" + core.instanceName + "'");
      }
      if (tokens[2] == "profile") {
        if (tokens.size() != 4) fail(lineNo, "core ... profile takes one library name");
        try {
          core.profile = iscas89Profile(tokens[3]);
        } catch (const ParseError&) {
          throw;
        } catch (const std::invalid_argument& e) {
          fail(lineNo, e.what());
        }
      } else {
        // Explicit counts: inputs N outputs N dffs N gates N (any order).
        core.profile.name = core.instanceName;
        bool gotIn = false, gotOut = false, gotFf = false, gotGates = false;
        for (std::size_t i = 2; i + 1 < tokens.size(); i += 2) {
          const std::string& key = tokens[i];
          const std::size_t value = parseCount(tokens[i + 1], lineNo, key);
          if (key == "inputs") {
            core.profile.numInputs = value;
            gotIn = true;
          } else if (key == "outputs") {
            core.profile.numOutputs = value;
            gotOut = true;
          } else if (key == "dffs") {
            core.profile.numDffs = value;
            gotFf = true;
          } else if (key == "gates") {
            core.profile.numGates = value;
            gotGates = true;
          } else {
            fail(lineNo, "unknown core attribute '" + key + "'");
          }
        }
        if (tokens.size() % 2 != 0) fail(lineNo, "core attribute without a value");
        if (!(gotIn && gotOut && gotFf && gotGates))
          fail(lineNo, "explicit core needs inputs, outputs, dffs, and gates");
      }
      desc.cores.push_back(std::move(core));
    } else {
      fail(lineNo, "unknown directive '" + tokens[0] + "'");
    }
  }
  if (!sawSoc) fail(lineNo, "missing 'soc <name>' line");
  if (desc.cores.empty()) fail(lineNo, "SOC has no cores");
  return desc;
}

SocDescription parseSocDescriptionString(const std::string& text) {
  std::istringstream in(text);
  return parseSocDescription(in);
}

SocDescription parseSocDescriptionFile(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) throw FileNotFoundError(path);
  return parseSocDescription(in);
}

std::string writeSocDescription(const SocDescription& description) {
  std::ostringstream os;
  os << "# scandiag SOC description\n";
  os << "soc " << description.name << "\n";
  os << "tam " << description.tamWidth << "\n";
  for (const CoreDescription& core : description.cores) {
    os << "core " << core.instanceName;
    bool isLibrary = false;
    try {
      const Iscas89Profile& lib = iscas89Profile(core.profile.name);
      isLibrary = lib.numInputs == core.profile.numInputs &&
                  lib.numOutputs == core.profile.numOutputs &&
                  lib.numDffs == core.profile.numDffs && lib.numGates == core.profile.numGates;
    } catch (const std::invalid_argument&) {
    }
    if (isLibrary) {
      os << " profile " << core.profile.name;
    } else {
      os << " inputs " << core.profile.numInputs << " outputs " << core.profile.numOutputs
         << " dffs " << core.profile.numDffs << " gates " << core.profile.numGates;
    }
    os << "\n";
  }
  return os.str();
}

Soc buildSocFromDescription(const SocDescription& description) {
  std::vector<CoreInstance> cores;
  std::vector<std::size_t> cellCounts;
  std::size_t offset = 0;
  // Arena: instances referencing the same library profile share one netlist
  // (generateCircuit is deterministic in the profile).
  std::map<std::string, std::shared_ptr<const Netlist>> arena;
  for (const CoreDescription& cd : description.cores) {
    CoreInstance core;
    core.name = cd.instanceName;
    auto it = arena.find(cd.profile.name);
    if (it == arena.end()) {
      it = arena
               .emplace(cd.profile.name,
                        std::make_shared<const Netlist>(generateCircuit(cd.profile)))
               .first;
    }
    core.netlist = it->second;
    core.cellOffset = offset;
    offset += core.numCells();
    cellCounts.push_back(core.numCells());
    cores.push_back(std::move(core));
  }
  return Soc(description.name, std::move(cores),
             buildMetaChains(cellCounts, description.tamWidth));
}

}  // namespace scandiag
