#include "soc/soc_builder.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "soc/core_class.hpp"

namespace scandiag {
namespace {

// Small custom SOC used by most tests to keep runtimes low.
Soc smallSoc(std::size_t tamWidth = 1) {
  return buildSocFromModules("mini", {"s298", "s344", "s526"}, tamWidth);
}

TEST(SocBuilder, OffsetsAreContiguous) {
  const Soc soc = smallSoc();
  std::size_t expected = 0;
  for (const CoreInstance& core : soc.cores()) {
    EXPECT_EQ(core.cellOffset, expected);
    expected += core.numCells();
  }
  EXPECT_EQ(soc.totalCells(), expected);
}

TEST(SocBuilder, CoreOfCellMapsBoundariesCorrectly) {
  const Soc soc = smallSoc();
  for (std::size_t k = 0; k < soc.coreCount(); ++k) {
    const CoreInstance& core = soc.core(k);
    EXPECT_EQ(soc.coreOfCell(core.cellOffset), k);
    EXPECT_EQ(soc.coreOfCell(core.cellOffset + core.numCells() - 1), k);
  }
  EXPECT_THROW(soc.coreOfCell(soc.totalCells()), std::invalid_argument);
}

TEST(SocBuilder, CoreIndexByName) {
  const Soc soc = smallSoc();
  EXPECT_EQ(soc.coreIndex("s344"), 1u);
  EXPECT_THROW(soc.coreIndex("sXXX"), std::invalid_argument);
}

TEST(SocBuilder, Soc1IsSixLargestSingleChain) {
  const Soc soc = buildSoc1();
  EXPECT_EQ(soc.coreCount(), 6u);
  EXPECT_EQ(soc.topology().numChains(), 1u);
  std::size_t dffSum = 0;
  for (const std::string& name : sixLargestIscas89()) dffSum += iscas89Profile(name).numDffs;
  EXPECT_EQ(soc.totalCells(), dffSum);
  EXPECT_EQ(soc.topology().maxChainLength(), dffSum);
}

TEST(SocBuilder, D695HasEightCoresOnEightChains) {
  const Soc soc = buildD695();
  EXPECT_EQ(soc.coreCount(), 8u);
  EXPECT_EQ(soc.topology().numChains(), 8u);
  EXPECT_EQ(soc.core(0).name, "s838");  // daisy-chain order of paper Fig. 4
  EXPECT_EQ(soc.core(3).name, "s38584");
}

TEST(SocBuilder, CoresOccupyContiguousPositionRuns) {
  const Soc soc = smallSoc(2);
  for (std::size_t k = 0; k < soc.coreCount(); ++k) {
    const CoreInstance& core = soc.core(k);
    // Collect this core's positions; they must form at most tamWidth runs
    // whose union is an interval per chain. Cheap check: position spread per
    // chain <= core cell count.
    std::vector<std::size_t> minPos(soc.topology().numChains(), static_cast<std::size_t>(-1));
    std::vector<std::size_t> maxPos(soc.topology().numChains(), 0);
    std::vector<std::size_t> perChain(soc.topology().numChains(), 0);
    for (std::size_t cell = core.cellOffset; cell < core.cellOffset + core.numCells(); ++cell) {
      const auto loc = soc.topology().location(cell);
      minPos[loc.chain] = std::min(minPos[loc.chain], loc.position);
      maxPos[loc.chain] = std::max(maxPos[loc.chain], loc.position);
      ++perChain[loc.chain];
    }
    for (std::size_t c = 0; c < perChain.size(); ++c) {
      if (perChain[c] == 0) continue;
      EXPECT_EQ(maxPos[c] - minPos[c] + 1, perChain[c])
          << "core " << core.name << " fragmented on chain " << c;
    }
  }
}

TEST(SocBuilder, ValidatesCoreNetlists) {
  const Soc soc = smallSoc();
  for (const CoreInstance& core : soc.cores()) EXPECT_NO_THROW(core.netlist->validate());
}

TEST(SocBuilder, SpecNumbersMustFillTheirField) {
  const Soc soc = buildSocFromSpec("rep:s27x2:w1");
  EXPECT_EQ(soc.coreCount(), 2u);
  for (const char* spec : {"rep:s27x2junk", "rep:s27x2:w1junk", "rep:s27x2:wabc", "rep:s27x-2",
                           "rep:s27x 2", "rep:s27x2:w0", "rep:s27x2:w+1"}) {
    try {
      buildSocFromSpec(spec);
      ADD_FAILURE() << spec << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("bad SOC spec"), std::string::npos)
          << spec << ": " << e.what();
    }
  }
}

TEST(SocBuilder, ParallelBuildIsThreadCountInvariant) {
  struct ThreadCountReset {
    ~ThreadCountReset() { setGlobalThreadCount(0); }
  } reset;
  const auto build = [](std::size_t threads, const std::vector<std::string>& modules) {
    setGlobalThreadCount(threads);
    return buildSocFromModules("mix", modules, 2);
  };
  const auto expectSameSoc = [](const Soc& a, const Soc& b) {
    ASSERT_EQ(a.coreCount(), b.coreCount()) << a.name();
    EXPECT_EQ(a.totalCells(), b.totalCells()) << a.name();
    for (std::size_t k = 0; k < a.coreCount(); ++k) {
      EXPECT_EQ(a.core(k).name, b.core(k).name) << a.name() << " core " << k;
      EXPECT_EQ(a.core(k).cellOffset, b.core(k).cellOffset) << a.name() << " core " << k;
      EXPECT_EQ(structuralNetlistHash(*a.core(k).netlist),
                structuralNetlistHash(*b.core(k).netlist))
          << a.name() << " core " << k;
    }
  };

  setGlobalThreadCount(1);
  const Soc soc1Serial = buildSoc1();
  const Soc d695Serial = buildD695();
  setGlobalThreadCount(4);
  expectSameSoc(soc1Serial, buildSoc1());
  expectSameSoc(d695Serial, buildD695());

  // Repeated names alias one netlist at every thread count: the core-class
  // fast path compares the pointers.
  const std::vector<std::string> repeated = {"s344", "s298", "s344", "s526", "s298", "s344"};
  const Soc serial = build(1, repeated);
  const Soc parallel = build(4, repeated);
  expectSameSoc(serial, parallel);
  for (const Soc* soc : {&serial, &parallel}) {
    for (std::size_t a = 0; a < soc->coreCount(); ++a) {
      for (std::size_t b = 0; b < soc->coreCount(); ++b) {
        EXPECT_EQ(soc->core(a).netlist == soc->core(b).netlist,
                  soc->core(a).name == soc->core(b).name)
            << "cores " << a << " and " << b;
      }
    }
  }

  // An unknown name fails the same way: the first unknown name's error.
  const std::vector<std::string> unknown = {"s298", "sNOPE", "s344", "sBAD"};
  std::vector<std::string> errors;
  for (const std::size_t threads : {1, 4}) {
    try {
      build(threads, unknown);
      ADD_FAILURE() << "unknown module accepted at " << threads << " threads";
    } catch (const std::invalid_argument& e) {
      errors.push_back(e.what());
    }
  }
  ASSERT_EQ(errors.size(), 2u);
  EXPECT_EQ(errors[0], errors[1]);
  EXPECT_NE(errors[0].find("sNOPE"), std::string::npos) << errors[0];
}

TEST(Soc, ConstructionInvariantsEnforced) {
  std::vector<CoreInstance> cores;
  CoreInstance c;
  c.name = "a";
  c.netlist = std::make_shared<const Netlist>(generateNamedCircuit("s298"));
  c.cellOffset = 5;  // wrong: must start at 0
  cores.push_back(std::move(c));
  EXPECT_THROW(Soc("bad", std::move(cores), ScanTopology::singleChain(14)),
               std::invalid_argument);
}

}  // namespace
}  // namespace scandiag
