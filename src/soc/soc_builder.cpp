#include "soc/soc_builder.hpp"

#include <charconv>
#include <map>
#include <optional>
#include <stdexcept>

#include "common/assert.hpp"
#include "common/thread_pool.hpp"
#include "soc/meta_scan_builder.hpp"

namespace scandiag {

namespace {

Soc assembleSoc(const std::string& socName, std::vector<CoreInstance> cores,
                std::size_t tamWidth) {
  std::vector<std::size_t> cellCounts;
  cellCounts.reserve(cores.size());
  std::size_t offset = 0;
  for (CoreInstance& core : cores) {
    core.cellOffset = offset;
    offset += core.numCells();
    cellCounts.push_back(core.numCells());
  }
  return Soc(socName, std::move(cores), buildMetaChains(cellCounts, tamWidth));
}

/// All of `text` as a decimal count; nullopt on a sign, spaces, trailing
/// characters, an empty field or overflow.
std::optional<std::size_t> parseCount(const std::string& text) {
  std::size_t value = 0;
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

}  // namespace

Soc buildSocFromModules(const std::string& socName, const std::vector<std::string>& modules,
                        std::size_t tamWidth) {
  // Arena: one generated netlist per distinct module name; repeated names
  // alias it (the generator is deterministic, so the dedup is exact). The
  // distinct names are generated on the pool, each into its own slot. Lanes
  // claim names one at a time, so the large cores do not queue behind each
  // other on one fixed chunk. An unknown name throws from its slot, and the
  // pool rethrows the lowest-index failure — the one a serial loop would
  // hit first.
  std::map<std::string, std::size_t> slotOf;
  std::vector<std::string> distinct;
  for (const std::string& m : modules) {
    if (slotOf.emplace(m, distinct.size()).second) distinct.push_back(m);
  }
  std::vector<std::shared_ptr<const Netlist>> arena(distinct.size());
  globalPool().parallelFor(distinct.size(), [&](std::size_t i) {
    arena[i] = std::make_shared<const Netlist>(generateNamedCircuit(distinct[i]));
  });
  std::vector<CoreInstance> cores;
  cores.reserve(modules.size());
  for (const std::string& m : modules) cores.push_back(CoreInstance{m, arena[slotOf.at(m)], 0});
  return assembleSoc(socName, std::move(cores), tamWidth);
}

Soc buildSoc1() {
  return buildSocFromModules("soc1", sixLargestIscas89(), /*tamWidth=*/1);
}

Soc buildD695() {
  return buildSocFromModules("d695", d695Iscas89Modules(), /*tamWidth=*/8);
}

Soc buildReplicatedSoc(const std::string& module, std::size_t replication,
                       std::size_t tamWidth) {
  SCANDIAG_REQUIRE(replication >= 1, "replication must be >= 1");
  const auto shared =
      std::make_shared<const Netlist>(generateNamedCircuit(module));
  std::vector<CoreInstance> cores;
  cores.reserve(replication);
  for (std::size_t k = 0; k < replication; ++k) {
    cores.push_back(CoreInstance{module + "#" + std::to_string(k), shared, 0});
  }
  return assembleSoc("rep-" + module + "x" + std::to_string(replication), std::move(cores),
                     tamWidth);
}

Soc buildSocFromSpec(const std::string& spec) {
  if (spec == "soc1") return buildSoc1();
  if (spec == "d695") return buildD695();
  if (spec.rfind("rep:", 0) == 0) {
    // rep:<module>x<R>[:w<W>]
    std::string body = spec.substr(4);
    std::size_t tamWidth = 1;
    const std::size_t colon = body.find(':');
    if (colon != std::string::npos) {
      const std::string w = body.substr(colon + 1);
      if (w.size() < 2 || w[0] != 'w') {
        throw std::invalid_argument("bad SOC spec '" + spec + "': expected ':w<W>' suffix");
      }
      const std::optional<std::size_t> width = parseCount(w.substr(1));
      if (!width || *width == 0) {
        throw std::invalid_argument("bad SOC spec '" + spec + "': TAM width must be a number >= 1");
      }
      tamWidth = *width;
      body = body.substr(0, colon);
    }
    const std::size_t x = body.rfind('x');
    if (x == std::string::npos || x == 0 || x + 1 == body.size()) {
      throw std::invalid_argument("bad SOC spec '" + spec +
                                  "': expected rep:<module>x<R>[:w<W>]");
    }
    const std::string module = body.substr(0, x);
    const std::optional<std::size_t> replication = parseCount(body.substr(x + 1));
    if (!replication) {
      throw std::invalid_argument("bad SOC spec '" + spec + "': replication is not a number");
    }
    if (*replication == 0) {
      throw std::invalid_argument("bad SOC spec '" + spec + "': replication must be >= 1");
    }
    return buildReplicatedSoc(module, *replication, tamWidth);
  }
  throw std::invalid_argument("unknown SOC spec '" + spec +
                              "' (expected soc1, d695, or rep:<module>x<R>[:w<W>])");
}

}  // namespace scandiag
