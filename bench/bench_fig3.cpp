// Figure 3 — Candidate failing scan cells determined using a single
// partition, interval-based vs random-selection, on s953.
//
// Paper setup: one stuck-at fault in full-scan s953 (single chain), a
// randomly chosen detecting pattern set, one partition of 4 groups per
// scheme. The figure shows the interval partition confining the (clustered)
// failing cells to one group while random selection disperses them, so the
// interval candidate set is much smaller. This bench reproduces the figure
// statistically: over many single faults, the mean single-partition candidate
// count of interval-based partitioning is well below random selection's.

#include "bench_util.hpp"
#include "core/scandiag.hpp"

using namespace scandiag;
using namespace scandiag::benchutil;

int main() {
  banner("Figure 3: single-partition candidate sets, s953, 4 groups",
         "interval keeps clustered fails in one group -> far fewer suspects than random");

  BenchReport report("fig3");
  const Netlist nl = generateNamedCircuit("s953");
  const CircuitWorkload work = prepareWorkload(nl, presets::table1Workload());
  report.context("circuit", "s953");
  report.context("groups", 4);

  // Keep the figure's focus: faults with a small cluster of failing cells.
  std::vector<FaultResponse> clustered;
  for (const FaultResponse& r : work.responses) {
    if (r.failingCellCount() >= 2 && r.failingCellCount() <= 6)
      clustered.push_back(r);
  }
  row("%zu faults with 2-6 clustered failing cells (chain of %zu cells)", clustered.size(),
      work.topology.numCells());
  row("");

  const SessionEngine engine(work.topology, SessionConfig{SignatureMode::Exact, 200});
  const CandidateAnalyzer analyzer(work.topology);

  double sums[2] = {0, 0};
  int i = 0;
  for (SchemeKind scheme : {SchemeKind::IntervalBased, SchemeKind::RandomSelection}) {
    SchemeConfig cfg;
    auto gen = makeScheme(scheme, cfg, work.topology.maxChainLength(), 4);
    const PreparedPartitionSet prepared(std::vector<Partition>{gen->next()});
    for (const FaultResponse& r : clustered) {
      const GroupVerdicts v = engine.run(prepared, r);
      sums[i] += static_cast<double>(analyzer.analyze(prepared.partitions(), v).cellCount());
    }
    sums[i] /= static_cast<double>(clustered.size());
    ++i;
  }
  row("mean suspects, one interval-based partition : %6.2f cells", sums[0]);
  row("mean suspects, one random-selection partition: %6.2f cells", sums[1]);
  row("interval/random suspect ratio: %.2f (paper's example: 12 vs 39 suspects)",
      sums[0] / sums[1]);
  report.row({{"clustered_faults", clustered.size()},
              {"mean_suspects_interval", sums[0]},
              {"mean_suspects_random", sums[1]},
              {"suspect_ratio", sums[0] / sums[1]}});

  // And one concrete instance, exactly like the figure.
  const FaultResponse& r = clustered.front();
  row("");
  row("example fault %s, failing cells:", describeFault(nl, r.fault).c_str());
  std::string cells;
  for (std::size_t c : r.failingCells.toIndices()) cells += " " + std::to_string(c);
  row("  %s", cells.c_str());
  for (SchemeKind scheme : {SchemeKind::IntervalBased, SchemeKind::RandomSelection}) {
    SchemeConfig cfg;
    auto gen = makeScheme(scheme, cfg, work.topology.maxChainLength(), 4);
    const PreparedPartitionSet prepared(std::vector<Partition>{gen->next()});
    const GroupVerdicts v = engine.run(prepared, r);
    const CandidateSet cand = analyzer.analyze(prepared.partitions(), v);
    row("  %-17s -> %2zu suspect cells", schemeName(scheme).c_str(), cand.cellCount());
    report.row({{"example_scheme", schemeName(scheme)},
                {"example_suspects", cand.cellCount()}});
  }
  report.write();
  return 0;
}
