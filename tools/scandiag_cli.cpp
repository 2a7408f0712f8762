// scandiag — command-line front end.
//
// Subcommands:
//   info <circuit>                       circuit statistics and fault universe
//   emit <circuit> --o <file.bench>      write a synthetic circuit as .bench
//   diagnose <circuit> --fault <site>    diagnose one injected stuck-at fault
//   dr <circuit>                         DR experiment on one circuit
//   soc-dr <soc-spec>                    DR per failing core on a built-in SOC
//                                        (soc1|d695|rep:<module>x<R>[:w<W>]);
//                                        --shard/--report/--class-sweep (or a
//                                        rep: spec) switch to the class-sweep
//                                        protocol: each structural core class
//                                        is diagnosed once on its core-local
//                                        topology and the result transfers to
//                                        every sibling instance
//   merge-journals <j0> <j1> ... [--out F]  merge the N journals of a sharded
//                                        class sweep into one report,
//                                        byte-identical to the unsharded
//                                        `soc-dr --report` output
//   plan <circuit>                       calibrate (groups, partitions) for a DR target
//   offline --log <file> --cells N       diagnose from a tester session log
//   partitions <length>                  print a partition sequence
//   serve <circuit> --socket <path>      diagnosis-as-a-service daemon
//   serve-ledger --journal <file>        replay a serve request ledger
//
// <circuit> is either a .bench file path (contains '.' or '/') or a built-in
// ISCAS-89 profile name (s27, s953, ..., s38584).
//
// Common options:
//   --scheme interval|random|two-step|deterministic|adaptive  (default
//                     two-step; adaptive picks each next partition online per
//                     fault — dr/soc-dr/diagnose/plan only, and incompatible
//                     with --prune and the `partitions` command)
//   --partitions N    (default 8)      --groups N      (default 16)
//   --patterns N      (default 128)    --faults N      (default 500)
//   --chains N        (default 1)      --prune         (off by default)
//   --seed N          (fault-sample seed, default 0xFA17)
//   --threads N       (worker threads for the per-fault loops; default
//                      SCANDIAG_THREADS, else all hardware threads; results
//                      are bit-identical for every value)
//   --json            machine-readable output (diagnose, dr, plan)
//   --target X        DR target for plan (default 0.5)
//   --metrics F       write a pipeline metrics snapshot (counters, phase
//                     timers, worker utilization) to F as JSON after the
//                     command finishes (any command; written on exit codes
//                     0, 5, 6 and 8)
//
// Class-sweep / shard options (soc-dr, merge-journals):
//   --class-sweep     force the class-sweep protocol for soc1/d695 (rep:
//                     specs always use it)
//   --shard i/N       run fault-range shard i of N (0-based); requires
//                     --checkpoint (each shard owns its own journal)
//   --report F        write the class-sweep report JSON to F (atomic);
//                     unsharded runs only — shards publish via their journal
//   --no-dedup        disable structural dedup (every instance evaluated
//                     from scratch; the A/B baseline for dedup speedup)
//   --out F           merge-journals: write the merged report to F instead
//                     of stdout
//
// Crash safety / long-run options (dr, soc-dr):
//   --deadline-ms N   watchdog: cancel the run after N milliseconds of wall
//                     clock and exit 6 with whatever was journaled/flushed
//   --checkpoint F    journal every completed fault to F (fsync'd, CRC-framed);
//                     clean runs only — a journal keeps only DR numbers
//   --resume          continue from F instead of starting over; refuses a
//                     journal written for a different circuit/workload setup;
//                     final DR/counters are bit-identical to an uninterrupted
//                     run at any thread count
//
// Serve options (serve; it scores one partition at a time, so it takes no
// --prune and refuses --scheme adaptive):
//   --socket PATH     unix-domain socket to listen on (required)
//   --queue N         admission queue depth; one more connection is shed BUSY
//                     (default 16)
//   --handlers N      handler threads for framing I/O (default 2; compute runs
//                     on the --threads pool)
//   --sims N          FaultSimulator lease pool size (default 1)
//   --request-deadline-ms N   per-request watchdog; exceeding it degrades the
//                     reply to DEADLINE with a partial superset (default 0 = off)
//   --io-timeout-ms N whole-frame read/write deadline (slowloris bound,
//                     default 5000)
//   --drain-ms N      stage-one drain budget after SIGINT/SIGTERM; requests
//                     still running past it are cancelled ABORTED (default 5000)
//   --journal F       crash-safe request-accounting ledger (fsync'd, CRC-framed)
//   --metrics F       metrics snapshot written atomically at drain
//
// Defect-zoo options (dr, soc-dr):
//   --defects SPEC    diagnose k-fault union scenarios instead of single
//                     stuck-at faults. SPEC = k[,bridge][,open][,intermittent:p]
//                     [,seed:n] — e.g. "2,bridge,open" or "3,intermittent:0.5".
//                     dr: --faults N scenarios through the full
//                     detection -> union analysis -> refinement -> degradation
//                     ladder; soc-dr: k simultaneous failing cores (stuck-at
//                     only; bridge/open/intermittent are core-local models).
//                     Takes precedence over the noise flags. Incompatible with
//                     --scheme adaptive and with --checkpoint/--resume.
//   --refine-budget N extra interval sessions per scenario for active union
//                     refinement (default 96; 0 = passive superset only)
//   --atpg-budget N   PODEM mini-sessions per scenario when refinement stalls
//                     (default 16; 0 disables the stall breaker)
//   --samples N       full-schedule observations for intermittent scenarios
//                     (default 3)
//
// Noise / resilience options (diagnose, dr; the retry pair also soc-dr --defects):
//   --noise R         raw verdict-flip rate per session (both directions)
//   --intermittent R  intermittent fail->pass rate per failing session
//   --xmask R         per-position X-masking rate
//   --alias R         forced MISR aliasing rate per failing session
//   --noise-seed N    noise stream seed (default 0x7E57ED)
//   --retry-budget N  max extra sessions spent re-running suspect partitions
//   --max-retries N   re-runs per suspect partition (default 2)
//
// Exit codes:
//   0  success
//   1  internal/runtime failure
//   2  usage error (an option the command does not take, a non-numeric
//      value, unknown scheme, missing argument, incompatible options)
//   3  input file not found
//   4  input file failed to parse
//   5  diagnosis still inconsistent after the retry budget was exhausted
//      (a widened candidate superset was still printed)
//   6  interrupted (SIGINT/SIGTERM, or the --deadline-ms watchdog in any
//      dr/soc-dr mode); the checkpoint journal and any --metrics snapshot
//      were flushed and are valid; for serve: the drain completed, the
//      request ledger balances
//   7  server fatal (serve could not bind/listen or open its journal)
//   8  defect diagnosis resolved only to a guaranteed superset under the
//      defect budget (--defects: k exceeded the resolvable cluster budget,
//      the refinement/ATPG budget ran out, or intermittency degraded the
//      answer; the printed candidates are a sound superset with calibrated
//      confidence — degrade, never lie)

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "args.hpp"
#include "common/watchdog.hpp"
#include "core/scandiag.hpp"
#include "diagnosis/checkpoint.hpp"
#include "serve/accounting.hpp"
#include "serve/server.hpp"

using namespace scandiag;

namespace {

enum ExitCode {
  kExitOk = 0,
  kExitFailure = 1,
  kExitUsage = 2,
  kExitFileNotFound = 3,
  kExitParseError = 4,
  kExitInconsistent = 5,
  kExitInterrupted = 6,
  kExitServerFatal = 7,
  kExitDefectSuperset = 8,
};

using cli::Args;
using cli::parseCount;

/// Stderr line for exit 5: the diagnosis stayed inconsistent after recovery
/// (a widened superset was printed).
int inconsistent(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return kExitInconsistent;
}

/// Exit 8 when some defect scenario resolved only to a superset.
int defectExit(const DrReport& rep) {
  if (rep.unresolved == 0) return kExitOk;
  std::fprintf(stderr,
               "%zu of %zu scenario(s) resolved only to a guaranteed superset under the "
               "defect budget (candidates are sound; confidence is calibrated)\n",
               rep.unresolved, rep.faults);
  return kExitDefectSuperset;
}

Netlist loadCircuit(const std::string& spec) {
  if (spec.find('/') != std::string::npos || spec.find('.') != std::string::npos)
    return parseBenchFile(spec);
  return generateNamedCircuit(spec);
}

DiagnosisConfig configFrom(const Args& args) {
  DiagnosisConfig c;
  c.scheme = parseSchemeKind(args.get("scheme", "two-step"));
  c.numPartitions = args.getN("partitions", 8);
  c.groupsPerPartition = args.getN("groups", 16);
  c.numPatterns = args.getN("patterns", 128);
  c.pruning = args.getFlag("prune");
  return c;
}

/// Noise model requested on the command line; nullopt when no noise flag given.
std::optional<NoiseConfig> noiseFrom(const Args& args) {
  if (!args.has("noise") && !args.has("intermittent") && !args.has("xmask") && !args.has("alias"))
    return std::nullopt;
  NoiseConfig noise;
  noise.flipRate = args.getD("noise", 0.0);
  noise.intermittentRate = args.getD("intermittent", 0.0);
  noise.xMaskRate = args.getD("xmask", 0.0);
  noise.aliasRate = args.getD("alias", 0.0);
  noise.seed = args.getN("noise-seed", 0x7E57ED);
  return noise;
}

/// --retry-budget / --max-retries over `base` (the mode's own defaults).
RetryPolicy retryFrom(const Args& args, RetryPolicy base = {}) {
  base.sessionBudget = args.getN("retry-budget", base.sessionBudget);
  base.maxRetriesPerSession = args.getN("max-retries", base.maxRetriesPerSession);
  return base;
}

/// Journal setup digest: `tag`, the named circuit or SOC, then `pieces`, so
/// a journal can only be resumed against the setup that produced it.
std::uint64_t setupDigest(const std::string& tag, const char* what, const std::string& name,
                          std::initializer_list<std::pair<const char*, std::uint64_t>> pieces) {
  std::uint64_t digest = setupDigestPiece(what, name, fnv1a64(tag));
  for (const auto& [key, value] : pieces) digest = setupDigestPiece(key, value, digest);
  return digest;
}

/// Watchdog + checkpoint state for the long-running commands (dr, soc-dr).
/// Everything stays null/inert when the flags are absent.
struct CliRunState {
  std::unique_ptr<Watchdog> watchdog;
  std::unique_ptr<SweepCheckpoint> checkpoint;
  RunControl control() const { return RunControl{&globalCancelToken(), watchdog.get()}; }
};

/// Builds the run state from --deadline-ms / --checkpoint / --resume.
/// `setupDigest` must cover the circuit + workload (not the thread count) so
/// a journal can only be resumed against the setup that produced it.
CliRunState cliRunFrom(const Args& args, std::uint64_t setupDigest,
                       const std::string& setupInfo) {
  CliRunState state;
  const std::size_t deadlineMs = args.getN("deadline-ms", 0);
  if (deadlineMs > 0) {
    state.watchdog = std::make_unique<Watchdog>(
        globalCancelToken(),
        std::chrono::milliseconds(static_cast<long long>(deadlineMs)));
  }
  const std::string path = args.get("checkpoint", "");
  if (path.empty()) {
    if (args.getFlag("resume"))
      throw std::invalid_argument("--resume requires --checkpoint <file>");
    return state;
  }
  state.checkpoint = std::make_unique<SweepCheckpoint>(path, setupDigest, setupInfo,
                                                       args.getFlag("resume"));
  if (args.getFlag("resume")) {
    std::fprintf(stderr, "resuming from %s: %zu journaled fault records%s\n", path.c_str(),
                 state.checkpoint->loadedRecords(),
                 state.checkpoint->hadTruncatedTail() ? " (torn tail truncated)" : "");
  }
  return state;
}

int cmdInfo(const Args& args) {
  const Netlist nl = loadCircuit(args.positionalAt(1, "circuit"));
  const Levelization lev = levelize(nl);
  std::printf("circuit   %s\n", nl.name().c_str());
  std::printf("inputs    %zu\n", nl.inputs().size());
  std::printf("outputs   %zu\n", nl.outputs().size());
  std::printf("scancells %zu\n", nl.dffs().size());
  std::printf("gates     %zu (depth %zu)\n", nl.combGateCount(), lev.maxLevel);
  std::printf("faults    %zu collapsed / %zu uncollapsed\n",
              FaultList::enumerateCollapsed(nl).size(), FaultList::enumerateAll(nl).size());
  return kExitOk;
}

int cmdEmit(const Args& args) {
  const Netlist nl = loadCircuit(args.positionalAt(1, "circuit"));
  const std::string out = args.get("o", nl.name() + ".bench");
  writeBenchFile(nl, out);
  std::printf("wrote %s (%zu gates)\n", out.c_str(), nl.gateCount());
  return kExitOk;
}

/// diagnose's printer: cell names on a clean tester, cell ordinals plus the
/// ladder's outcome under noise.
void printDiagnosis(const Args& args, const Netlist& nl, const std::string& faultSpec,
                    const FaultResponse& response, const FaultDiagnosis& d, bool noisy) {
  const std::vector<std::size_t> candidates = d.candidates.cells.toIndices();
  const std::vector<std::size_t> actual = response.failingCells.toIndices();
  const auto cellName = [&](std::size_t c) -> const std::string& {
    return nl.gateName(nl.dffs()[c]);
  };
  const bool exact = candidates == actual;
  if (args.getFlag("json")) {
    JsonWriter json(std::cout);
    json.beginObject().field("circuit", nl.name()).field("fault", faultSpec).field("detected", true);
    if (noisy) {
      json.field("candidateCount", d.candidateCount)
          .field("actualCount", d.actualCount)
          .field("misdiagnosed", d.misdiagnosed)
          .field("confidence", d.confidence)
          .field("resolved", d.resolved)
          .field("inconsistencies", d.inconsistencies)
          .field("retrySessions", d.extraSessions)
          .field("injectedEvents", d.injectedEvents);
    } else {
      json.field("exact", exact);
      json.key("actualFailingCells").beginArray();
      for (std::size_t c : actual) json.value(cellName(c));
      json.endArray();
    }
    json.key("candidateCells").beginArray();
    for (std::size_t c : candidates) noisy ? json.value(c) : json.value(cellName(c));
    json.endArray().endObject();
    std::printf("\n");
    return;
  }
  if (noisy) {
    std::printf("fault %s under noise: %zu failing cells, %zu candidates "
                "(confidence %.3f, %zu injected events, %zu inconsistencies, "
                "%zu retry sessions)\n",
                faultSpec.c_str(), d.actualCount, d.candidateCount, d.confidence,
                d.injectedEvents, d.inconsistencies, d.extraSessions);
  } else {
    std::printf("fault %s: %zu failing cells, %zu candidates (%s)\n", faultSpec.c_str(),
                actual.size(), candidates.size(), exact ? "exact" : "superset");
  }
  std::printf("candidates:");
  for (std::size_t c : candidates)
    std::printf(" %s", noisy ? std::to_string(c).c_str() : cellName(c).c_str());
  std::printf("\n");
  if (!noisy) {
    std::printf("cost: %zu sessions, %llu clock cycles\n", d.cost.sessions,
                static_cast<unsigned long long>(d.cost.clockCycles));
  }
}

int cmdDiagnose(const Args& args) {
  const Netlist nl = loadCircuit(args.positionalAt(1, "circuit"));
  const std::string gate = args.get("fault", "");
  if (gate.empty()) throw std::invalid_argument("diagnose needs --fault <gate-name>");
  const GateId site = nl.findByName(gate);
  if (site == kInvalidGate) throw std::invalid_argument("no gate named '" + gate + "'");
  const bool sa = args.getN("sa", 1) != 0;
  const std::string faultSpec = gate + "/SA" + (sa ? "1" : "0");

  const DiagnosisConfig config = configFrom(args);
  const ScanTopology topology =
      ScanTopology::blockChains(nl.dffs().size(), std::max<std::size_t>(args.getN("chains", 1), 1));
  const PatternSet patterns = generatePatterns(nl, config.numPatterns, PrpgConfig{});
  const FaultResponse response =
      FaultSimulator(nl, patterns).simulate(FaultSite{site, FaultSite::kOutputPin, sa});
  if (!response.detected()) {
    std::printf("fault %s not detected by %zu patterns\n", faultSpec.c_str(),
                config.numPatterns);
    return kExitOk;
  }
  const std::optional<NoiseConfig> noise = noiseFrom(args);
  const DiagnosisPipeline pipeline(topology, config, noise.value_or(NoiseConfig{}),
                                   retryFrom(args));
  const FaultDiagnosis d = pipeline.diagnose(response);
  printDiagnosis(args, nl, faultSpec, response, d, noise.has_value());
  if (!d.resolved)
    return inconsistent("diagnosis of " + faultSpec +
                        " is still inconsistent after the retry budget (" +
                        std::to_string(d.extraSessions) +
                        " retry sessions spent); candidates were widened");
  return kExitOk;
}

/// dr's printer. `defects` is the mix of a --defects run; `noise` the noise
/// model of a noisy run; neither = the paper's clean DR.
void printDr(const Args& args, const std::string& circuit, const DiagnosisConfig& config,
             const DrReport& rep, const std::optional<DefectMix>& defects,
             const std::optional<NoiseConfig>& noise) {
  const std::string scheme = schemeName(config.scheme);
  if (args.getFlag("json")) {
    JsonWriter json(std::cout);
    json.beginObject().field("circuit", circuit).field("scheme", scheme);
    if (defects) {
      json.field("defects", describeDefectMix(*defects))
          .field("scenarios", rep.faults)
          .field("dr", rep.dr)
          .field("sumCandidates", rep.sumCandidates)
          .field("sumActual", rep.sumActual)
          .field("misdiagnosisRate", rep.misdiagnosisRate())
          .field("meanConfidence", rep.meanConfidence)
          .field("degraded", rep.unresolved)
          .field("inconsistencies", rep.inconsistencies)
          .field("unionSplits", rep.unionSplits)
          .field("atpgPatterns", rep.atpgPatterns)
          .field("extraSessions", rep.extraSessions);
    } else if (noise) {
      json.field("partitions", config.numPartitions)
          .field("groups", config.groupsPerPartition)
          .field("noiseFlipRate", noise->flipRate)
          .field("retryBudget", retryFrom(args).sessionBudget)
          .field("faults", rep.faults)
          .field("dr", rep.dr)
          .field("misdiagnosisRate", rep.misdiagnosisRate())
          .field("emptyRate", rep.emptyRate())
          .field("meanConfidence", rep.meanConfidence)
          .field("inconsistencies", rep.inconsistencies)
          .field("retrySessions", rep.extraSessions)
          .field("unresolved", rep.unresolved);
    } else {
      json.field("partitions", config.numPartitions)
          .field("groups", config.groupsPerPartition)
          .field("pruning", config.pruning)
          .field("faults", rep.faults)
          .field("sumCandidates", rep.sumCandidates)
          .field("sumActual", rep.sumActual)
          .field("dr", rep.dr);
    }
    json.endObject();
    std::printf("\n");
  } else if (defects) {
    std::printf("%s %s defects %s: DR = %.4f over %zu scenarios "
                "(misdiagnosis %.4f, confidence %.3f, %zu degraded, "
                "%zu union splits, %zu ATPG patterns, %zu extra sessions)\n",
                circuit.c_str(), scheme.c_str(), describeDefectMix(*defects).c_str(), rep.dr,
                rep.faults,
                rep.misdiagnosisRate(), rep.meanConfidence, rep.unresolved, rep.unionSplits,
                rep.atpgPatterns, rep.extraSessions);
  } else if (noise) {
    std::printf("%s %s under noise: DR = %.4f over %zu faults "
                "(misdiagnosis %.4f, empty %.4f, confidence %.3f, "
                "%zu inconsistencies, %zu retry sessions, %zu unresolved)\n",
                circuit.c_str(), scheme.c_str(), rep.dr, rep.faults, rep.misdiagnosisRate(),
                rep.emptyRate(), rep.meanConfidence, rep.inconsistencies, rep.extraSessions,
                rep.unresolved);
  } else {
    std::printf("%s %s: DR = %.4f over %zu detected faults "
                "(candidates %llu, actual %llu)\n",
                circuit.c_str(), scheme.c_str(), rep.dr, rep.faults,
                static_cast<unsigned long long>(rep.sumCandidates),
                static_cast<unsigned long long>(rep.sumActual));
  }
}

/// `scandiag dr`: single stuck-at faults on a clean or noisy tester, or
/// --defects k-fault union scenarios; every mode runs the same ladder under
/// the same watchdog. Degraded defect scenarios map to exit 8.
int cmdDr(const Args& args) {
  const Netlist nl = loadCircuit(args.positionalAt(1, "circuit"));
  const DiagnosisConfig config = configFrom(args);
  const std::size_t chains = args.getN("chains", 1);
  const std::optional<DefectMix> defects =
      args.has("defects") ? std::optional(parseDefectSpec(args.get("defects", ""))) : std::nullopt;
  const std::optional<NoiseConfig> noise = defects ? std::nullopt : noiseFrom(args);
  // A journal keeps only the DR numbers of each fault.
  if ((defects || noise) && (args.has("checkpoint") || args.getFlag("resume")))
    throw std::invalid_argument(std::string(defects ? "--defects" : "--noise") +
                                " does not support --checkpoint/--resume");
  const std::size_t faults = args.getN("faults", defects ? 100 : 500);

  const std::uint64_t digest =
      setupDigest("scandiag dr", "circuit", nl.name(),
                  {{"cells", nl.dffs().size()}, {"chains", chains},
                   {"patterns", config.numPatterns}, {"faults", faults},
                   {"seed", args.getN("seed", 0xFA17)}, {"schema", obs::kMetricsSchemaVersion}});
  const CliRunState run = cliRunFrom(args, digest, "scandiag dr " + nl.name());

  DrReport rep;
  if (defects) {
    if (config.scheme == SchemeKind::Adaptive)
      throw std::invalid_argument("--defects is incompatible with --scheme adaptive");
    const ScanTopology topology =
        ScanTopology::blockChains(nl.dffs().size(), std::max<std::size_t>(chains, 1));
    const PatternSet patterns = generatePatterns(nl, config.numPatterns, PrpgConfig{});
    const FaultSimulator sim(nl, patterns);
    const DefectScenarioGenerator generator(sim, *defects);
    std::vector<DefectScenario> scenarios;
    scenarios.reserve(faults);
    // Serial: generation fault-simulates on the shared simulator (diagnosis
    // below is the parallel part).
    for (std::size_t i = 0; i < faults; ++i) scenarios.push_back(generator.generate(i));
    DefectPolicy policy;
    policy.retry = retryFrom(args, policy.retry);
    policy.refineSessionBudget = args.getN("refine-budget", policy.refineSessionBudget);
    policy.atpgSessionBudget = args.getN("atpg-budget", policy.atpgSessionBudget);
    policy.intermittentSamples = args.getN("samples", policy.intermittentSamples);
    rep = DefectZooPipeline(sim, topology, config, policy).evaluate(scenarios, run.control());
  } else {
    WorkloadConfig wc;
    wc.numPatterns = config.numPatterns;
    wc.numFaults = faults;
    wc.faultSeed = args.getN("seed", 0xFA17);
    const CircuitWorkload work = prepareWorkload(nl, wc, chains);
    const DiagnosisPipeline pipeline(work.topology, config, noise.value_or(NoiseConfig{}),
                                     retryFrom(args));
    rep = pipeline.evaluate(work.responses, run.control(),
                            SweepJournal{run.checkpoint.get(), sweepIdFor(config)});
  }
  printDr(args, nl.name(), config, rep, defects, noise);
  return defects ? defectExit(rep) : kExitOk;
}

/// The class-sweep leg of soc-dr: structural dedup, optional --shard i/N,
/// optional --report. The journal's own digest mixes the shard spec (wrong
/// shard → refused resume); the unsharded base digest travels in the shard
/// meta record so merge-journals can match sibling journals.
int socClassSweepCmd(const Args& args, const std::string& spec, const Soc& soc,
                     const WorkloadConfig& workload, const DiagnosisConfig& config) {
  SocSweepOptions options;
  options.socSpec = spec;
  options.dedupClasses = !args.getFlag("no-dedup");
  const std::string shardText = args.get("shard", "");
  if (!shardText.empty()) options.shard = parseShardSpec(shardText);
  if (!shardText.empty() && args.get("checkpoint", "").empty())
    throw std::invalid_argument("--shard requires --checkpoint <file> (one journal per shard)");
  if (options.shard.count != 1 && args.options.count("report"))
    throw std::invalid_argument(
        "--report needs the full sweep; run unsharded, or merge the shard journals with "
        "merge-journals");

  const std::uint64_t base = setupDigest(
      "scandiag soc-class-sweep", "soc", spec,
      {{"cores", soc.coreCount()}, {"cells", soc.totalCells()},
       {"patterns", workload.numPatterns}, {"faults", workload.numFaults},
       {"fault_seed", workload.faultSeed}, {"config", sweepIdFor(config)},
       {"dedup", options.dedupClasses ? 1 : 0}, {"schema", obs::kMetricsSchemaVersion}});
  options.baseDigest = base;
  std::uint64_t digest = setupDigestPiece("shard_index", options.shard.index, base);
  digest = setupDigestPiece("shard_count", options.shard.count, digest);

  CliRunState run = cliRunFrom(args, digest,
                               "scandiag soc-dr " + spec + " --shard " +
                                   std::to_string(options.shard.index) + "/" +
                                   std::to_string(options.shard.count));
  MemoryRecordSink collector;
  const SocSweepResult result = runSocClassSweep(soc, workload, config, options, run.control(),
                                                 run.checkpoint.get(), &collector);

  std::printf("%s: %zu cores, %zu cells, %zu classes — %s%s, shard %u/%u%s\n",
              soc.name().c_str(), result.coreCount, result.totalCells, result.classCount,
              schemeName(config.scheme).c_str(), config.pruning ? " + pruning" : "",
              options.shard.index, options.shard.count,
              options.dedupClasses ? "" : ", no dedup");
  for (const SocClassRow& row : result.classes) {
    std::printf("  class %-9s x%-4zu DR = %8.3f (%zu of %zu faults)\n", row.className.c_str(),
                row.instanceCount, row.report.dr, row.report.faults, row.responseCount);
  }

  const std::string reportPath = args.get("report", "");
  if (!reportPath.empty()) {
    SocReportMeta meta;
    meta.soc = spec;
    meta.baseDigest = base;
    atomicWriteFile(reportPath, renderSocReport(meta, result.manifests, collector.records()));
    std::printf("report: %s\n", reportPath.c_str());
  }
  return kExitOk;
}

/// `scandiag soc-dr`. With --defects: k simultaneous failing cores (the
/// paper's multiple-spot-defect view) — union responses on the meta topology
/// through the ladder with the clean source and recovery on (the union
/// short-circuit included); any unresolved scenario maps to exit 8.
/// Bridge/open/intermittent components are core-local models — rejected
/// here; use `scandiag dr --defects` on a single circuit for those.
int cmdSocDr(const Args& args) {
  const std::string which = args.positionalAt(1, "soc spec");
  const Soc soc = buildSocFromSpec(which);
  WorkloadConfig workload = presets::socWorkload();
  workload.numFaults = args.getN("faults", 500);
  workload.numPatterns = args.getN("patterns", 128);
  const bool preset = which == "soc1" || which == "d695";
  DiagnosisConfig config =
      which == "soc1"   ? presets::soc1Config(parseSchemeKind(args.get("scheme", "two-step")),
                                              args.getFlag("prune"))
      : which == "d695" ? presets::d695Config(parseSchemeKind(args.get("scheme", "two-step")),
                                              args.getFlag("prune"))
                        : configFrom(args);
  config.numPartitions = args.getN("partitions", config.numPartitions);
  config.groupsPerPartition = args.getN("groups", config.groupsPerPartition);

  if (args.has("defects")) {
    const DefectMix mix = parseDefectSpec(args.get("defects", ""));
    if (args.has("checkpoint") || args.getFlag("resume"))
      throw std::invalid_argument("--defects does not support --checkpoint/--resume");
    if (mix.bridges || mix.opens || mix.intermittentP > 0.0)
      throw std::invalid_argument(
          "soc-dr --defects models k simultaneous failing cores (stuck-at only); "
          "bridge/open/intermittent are core-local — use `scandiag dr --defects`");
    if (mix.k > soc.coreCount())
      throw std::invalid_argument("soc-dr --defects: k=" + std::to_string(mix.k) +
                                  " exceeds " + std::to_string(soc.coreCount()) + " cores");
    if (config.scheme == SchemeKind::Adaptive)
      throw std::invalid_argument("--defects is incompatible with --scheme adaptive");
    const CliRunState run = cliRunFrom(args, 0, "");
    std::vector<std::size_t> failingCores(mix.k);
    std::iota(failingCores.begin(), failingCores.end(), std::size_t{0});
    const std::vector<FaultResponse> responses =
        socResponsesForFailingCores(soc, failingCores, workload);
    const DiagnosisPipeline pipeline(soc.topology(), config, NoiseConfig{},
                                     retryFrom(args, RetryPolicy{2, 256}));
    const DrReport rep = pipeline.evaluate(responses, run.control(), {}, /*unions=*/true);
    if (args.getFlag("json")) {
      JsonWriter json(std::cout);
      json.beginObject()
          .field("soc", soc.name())
          .field("scheme", schemeName(config.scheme))
          .field("failingCores", mix.k)
          .field("scenarios", rep.faults)
          .field("dr", rep.dr)
          .field("sumCandidates", rep.sumCandidates)
          .field("sumActual", rep.sumActual)
          .field("misdiagnosed", rep.misdiagnosed)
          .field("meanConfidence", rep.meanConfidence)
          .field("unresolved", rep.unresolved)
          .endObject();
      std::printf("\n");
    } else {
      std::printf("%s with %zu failing cores: DR = %.4f over %zu union scenarios "
                  "(misdiagnosed %zu, confidence %.3f, %zu unresolved)\n",
                  soc.name().c_str(), mix.k, rep.dr, rep.faults, rep.misdiagnosed,
                  rep.meanConfidence, rep.unresolved);
    }
    return defectExit(rep);
  }

  // rep: SOCs only make sense class-deduped; for the presets the legacy
  // per-failing-core protocol (paper Tables 3-4) stays the default.
  const bool classSweep = !preset || args.getFlag("class-sweep") || args.getFlag("no-dedup") ||
                          args.has("shard") || args.has("report");
  if (classSweep) return socClassSweepCmd(args, which, soc, workload, config);

  const std::uint64_t digest =
      setupDigest("scandiag soc-dr", "soc", which,
                  {{"cores", soc.coreCount()}, {"cells", soc.totalCells()},
                   {"patterns", workload.numPatterns}, {"faults", workload.numFaults},
                   {"fault_seed", workload.faultSeed}, {"schema", obs::kMetricsSchemaVersion}});
  const CliRunState run = cliRunFrom(args, digest, "scandiag soc-dr " + which);
  // Header after the sweep: a config the pipeline rejects leaves stdout empty.
  const std::vector<SocDrRow> rows =
      evaluateSocDr(soc, workload, config, run.control(), run.checkpoint.get());
  std::printf("%s: %zu cores, %zu cells, %zu meta chains — %s%s\n", soc.name().c_str(),
              soc.coreCount(), soc.totalCells(), soc.topology().numChains(),
              schemeName(config.scheme).c_str(), config.pruning ? " + pruning" : "");
  for (const SocDrRow& row : rows) {
    std::printf("  failing %-9s DR = %8.3f (%zu faults)\n", row.failingCore.c_str(),
                row.report.dr, row.report.faults);
  }
  return kExitOk;
}

int cmdMergeJournals(const Args& args) {
  if (args.positional.size() < 2)
    throw std::invalid_argument("merge-journals needs at least one journal path");
  const std::vector<std::string> paths(args.positional.begin() + 1, args.positional.end());
  const MergedJournals merged = mergeShardJournals(paths);
  SocReportMeta meta;
  meta.soc = merged.socSpec;
  meta.baseDigest = merged.baseDigest;
  const std::string report = renderSocReport(meta, merged.manifests, merged.records);
  const std::string out = args.get("out", "");
  if (out.empty()) {
    std::fputs(report.c_str(), stdout);
  } else {
    atomicWriteFile(out, report);
    std::printf("merged %zu journals (%llu fault records, %u shards) -> %s\n", paths.size(),
                static_cast<unsigned long long>(merged.faultRecordsMerged), merged.shardCount,
                out.c_str());
  }
  return kExitOk;
}

int cmdPlan(const Args& args) {
  const Netlist nl = loadCircuit(args.positionalAt(1, "circuit"));
  WorkloadConfig wc;
  wc.numPatterns = args.getN("patterns", 128);
  wc.numFaults = args.getN("faults", 200);
  const CircuitWorkload work = prepareWorkload(nl, wc, args.getN("chains", 1));

  PlanRequest request;
  request.targetDr = args.getD("target", 0.5);
  request.maxPartitions = args.getN("partitions", 16);
  request.scheme = parseSchemeKind(args.get("scheme", "two-step"));
  request.numPatterns = wc.numPatterns;
  const PlanResult plan = planDiagnosis(work.topology, work.responses, request);

  if (args.getFlag("json")) {
    JsonWriter json(std::cout);
    json.beginObject()
        .field("circuit", nl.name())
        .field("targetDr", request.targetDr)
        .field("feasible", plan.feasible);
    if (plan.feasible) {
      json.field("partitions", plan.config.numPartitions)
          .field("groups", plan.config.groupsPerPartition)
          .field("achievedDr", plan.achievedDr)
          .field("sessions", plan.cost.sessions)
          .field("clockCycles", plan.cost.clockCycles);
    }
    json.endObject();
    std::printf("\n");
    return kExitOk;
  }
  std::printf("rule-of-thumb group count for %zu positions: %zu\n",
              work.topology.maxChainLength(),
              recommendGroupCount(work.topology.maxChainLength()));
  if (!plan.feasible) {
    std::printf("no candidate configuration reaches DR <= %.3f within %zu partitions\n",
                request.targetDr, request.maxPartitions);
    return kExitFailure;
  }
  std::printf("cheapest plan for DR <= %.3f (%s): %zu partitions x %zu groups\n",
              request.targetDr, schemeName(request.scheme).c_str(),
              plan.config.numPartitions, plan.config.groupsPerPartition);
  std::printf("achieved DR %.3f at %zu sessions (%llu clock cycles)\n", plan.achievedDr,
              plan.cost.sessions, static_cast<unsigned long long>(plan.cost.clockCycles));
  return kExitOk;
}

int cmdOffline(const Args& args) {
  const std::string logPath = args.get("log", "");
  if (logPath.empty()) throw std::invalid_argument("offline needs --log <file>");
  const std::size_t cells = args.getN("cells", 0);
  if (cells == 0) throw std::invalid_argument("offline needs --cells <scan cell count>");
  const ScanTopology topology =
      ScanTopology::blockChains(cells, std::max<std::size_t>(args.getN("chains", 1), 1));
  const TesterLog log = parseTesterLogFile(logPath);
  DiagnosisConfig config = configFrom(args);
  config.numPartitions = args.getN("partitions", log.numPartitions);
  config.groupsPerPartition = args.getN("groups", log.groupsPerPartition);

  // A recorded log cannot be re-run, so an inconsistent session set can only
  // be degraded — DiagnosisRecovery with a null re-run callback drops the
  // offending partitions and applies leave-one-out widening, so corrupted
  // logs are reported instead of silently intersected away.
  const std::vector<Partition> partitions = buildPartitions(config, topology.maxChainLength());
  const DiagnosisRecovery recovery(topology, RetryPolicy{});
  const RecoveredDiagnosis recovered = recovery.recover(partitions, log.verdicts, nullptr);

  CandidateSet candidates;
  if (recovered.consistent()) {
    candidates = diagnoseFromLog(topology, config, log);
  } else {
    for (const InconsistencyReport& report : recovered.inconsistencies)
      std::fprintf(stderr, "inconsistency: %s\n", report.describe().c_str());
    candidates = recovered.candidates;
  }

  if (args.getFlag("json")) {
    JsonWriter json(std::cout);
    json.beginObject()
        .field("log", logPath)
        .field("cells", cells)
        .field("consistent", recovered.consistent())
        .field("inconsistencies", recovered.inconsistencies.size())
        .field("confidence", recovered.confidence)
        .field("candidateCount", candidates.cellCount());
    json.key("candidateCells").beginArray();
    for (std::size_t c : candidates.cells.toIndices()) json.value(c);
    json.endArray().endObject();
    std::printf("\n");
  } else {
    std::printf("%zu candidate failing cell(s):", candidates.cellCount());
    for (std::size_t c : candidates.cells.toIndices()) std::printf(" %zu", c);
    std::printf("\n");
  }
  if (!recovered.consistent())
    return inconsistent("session log " + logPath + " is inconsistent (" +
                        std::to_string(recovered.inconsistencies.size()) +
                        " inconsistency report(s)); a widened candidate superset was printed");
  return kExitOk;
}

int cmdPartitions(const Args& args) {
  const std::string& text = args.positionalAt(1, "chain length");
  const std::optional<std::uint64_t> length = parseCount(text);
  if (!length || *length == 0)
    throw std::invalid_argument("partitions needs a positive chain length, got '" + text + "'");
  DiagnosisConfig config = configFrom(args);
  const auto partitions = buildPartitions(config, *length);
  for (std::size_t p = 0; p < partitions.size(); ++p) {
    std::printf("partition %zu (%s):\n", p, schemeName(config.scheme).c_str());
    for (std::size_t g = 0; g < partitions[p].groupCount(); ++g) {
      std::printf("  group %2zu (%4zu cells):", g, partitions[p].groups[g].count());
      const auto idx = partitions[p].groups[g].toIndices();
      for (std::size_t i = 0; i < idx.size() && i < 16; ++i) std::printf(" %zu", idx[i]);
      if (idx.size() > 16) std::printf(" ...");
      std::printf("\n");
    }
  }
  return kExitOk;
}

int cmdServe(const Args& args) {
  const std::string socketPath = args.get("socket", "");
  if (socketPath.empty()) throw std::invalid_argument("serve needs --socket <path>");
  Netlist nl = loadCircuit(args.positionalAt(1, "circuit"));

  serve::ServiceConfig serviceConfig;
  serviceConfig.diagnosis = configFrom(args);
  serviceConfig.numChains = args.getN("chains", 1);
  serviceConfig.simulators = args.getN("sims", 1);

  serve::ServeOptions options;
  options.socketPath = socketPath;
  options.queueCapacity = args.getN("queue", 16);
  options.handlers = args.getN("handlers", 2);
  options.requestDeadlineMs = args.getN("request-deadline-ms", 0);
  options.ioTimeoutMs = args.getN("io-timeout-ms", 5000);
  options.drainBudgetMs = args.getN("drain-ms", 5000);
  options.journalPath = args.get("journal", "");
  options.metricsPath = args.get("metrics", "");
  options.metricsCircuit = args.positionalAt(1, "circuit");
  options.stopToken = &globalCancelToken();

  std::fprintf(stderr,
               "scandiag serve: warming %s (%zu cells, %zu partitions x %zu groups)...\n",
               nl.name().c_str(), nl.dffs().size(), serviceConfig.diagnosis.numPartitions,
               serviceConfig.diagnosis.groupsPerPartition);
  const serve::DiagnosisService service(std::move(nl), serviceConfig);
  serve::DiagnosisServer server(service, options);
  std::fprintf(stderr, "scandiag serve: listening on %s (queue %zu, %zu handlers)\n",
               socketPath.c_str(), options.queueCapacity, options.handlers);
  return server.run();
}

int cmdServeLedger(const Args& args) {
  const std::string path = args.get("journal", "");
  if (path.empty()) throw std::invalid_argument("serve-ledger needs --journal <file>");
  const serve::ServeLedger ledger = serve::replayLedger(path);
  if (args.getFlag("json")) {
    JsonWriter json(std::cout);
    json.beginObject()
        .field("journal", path)
        .field("accepted", ledger.accepted)
        .field("ok", ledger.ok)
        .field("shed", ledger.shed)
        .field("degraded", ledger.degraded)
        .field("aborted", ledger.aborted)
        .field("abortedInFlight", ledger.abortedInFlight)
        .field("truncatedTail", ledger.truncatedTail)
        .field("balanced", ledger.balanced())
        .endObject();
    std::printf("\n");
  } else {
    std::printf("ledger %s:%s\n", path.c_str(),
                ledger.truncatedTail ? " (torn tail truncated)" : "");
    std::printf("  accepted  %llu\n", static_cast<unsigned long long>(ledger.accepted));
    std::printf("  ok        %llu\n", static_cast<unsigned long long>(ledger.ok));
    std::printf("  shed      %llu\n", static_cast<unsigned long long>(ledger.shed));
    std::printf("  degraded  %llu\n", static_cast<unsigned long long>(ledger.degraded));
    std::printf("  aborted   %llu (%llu in flight at exit)\n",
                static_cast<unsigned long long>(ledger.aborted),
                static_cast<unsigned long long>(ledger.abortedInFlight));
    std::printf("  balance   %s\n", ledger.balanced() ? "exact" : "BROKEN");
  }
  // Replay books crash survivors as aborted, so an unbalanced ledger can only
  // mean the journal lied — surface it as a hard failure for the chaos CI job.
  return ledger.balanced() ? kExitOk : kExitFailure;
}

/// One CLI command: its name, the options it takes besides --threads and
/// --metrics (see Args::parse), and its handler.
struct Command {
  const char* name;
  std::string options;
  int (*run)(const Args&);
};

const std::vector<Command>& commands() {
  const std::string schedule = "scheme= partitions# groups# patterns# ";
  const std::string config = schedule + "prune ";
  const std::string noise = "noise% intermittent% xmask% alias% noise-seed# retry-budget# "
                            "max-retries# ";
  const std::string run = "deadline-ms# checkpoint= resume ";
  static const std::vector<Command> table = {
      {"info", "", cmdInfo},
      {"emit", "o=", cmdEmit},
      {"diagnose", config + noise + "fault= sa# chains# json", cmdDiagnose},
      {"dr",
       config + noise + run +
           "defects= refine-budget# atpg-budget# samples# chains# faults# seed# json",
       cmdDr},
      {"soc-dr",
       config + run +
           "faults# json defects= retry-budget# max-retries# class-sweep no-dedup shard= "
           "report=",
       cmdSocDr},
      {"merge-journals", "out=", cmdMergeJournals},
      {"plan", "scheme= partitions# patterns# faults# chains# target% json", cmdPlan},
      {"offline", config + "log= cells# chains# json", cmdOffline},
      {"partitions", config, cmdPartitions},
      {"serve",
       schedule + "socket= chains# sims# queue# handlers# request-deadline-ms# io-timeout-ms# "
                  "drain-ms# journal=",
       cmdServe},
      {"serve-ledger", "journal= json", cmdServeLedger},
  };
  return table;
}

int usage() {
  std::string names;
  for (const Command& c : commands()) names += (names.empty() ? "" : "|") + std::string(c.name);
  std::fprintf(stderr, "usage: scandiag <%s> ... (see header)\n", names.c_str());
  return kExitUsage;
}

void writeMetricsIfRequested(const Args& args) {
  const auto it = args.options.find("metrics");
  if (it == args.options.end()) return;
  obs::MetricsContext context;
  context.circuit = args.positional.size() > 1 ? args.positional[1] : "";
  context.scheme = args.get("scheme", "two-step");
  context.threads = globalPool().threadCount();
  obs::writeMetricsFile(it->second, context);
  std::fprintf(stderr, "wrote metrics to %s\n", it->second.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::optional<Args> parsed;
  try {
    installCancellationSignalHandlers();
    if (argc < 2) return usage();
    const auto command = std::find_if(commands().begin(), commands().end(),
                                      [&](const Command& c) { return c.name == std::string(argv[1]); });
    if (command == commands().end()) {
      std::fprintf(stderr, "error: unknown command '%s'\n", argv[1]);
      return usage();
    }
    parsed = Args::parse(argc, argv, command->options + " threads# metrics=", argv[1]);
    const Args& args = *parsed;
    if (args.has("threads")) setGlobalThreadCount(args.getN("threads", 0));
    const int rc = command->run(args);
    // Exits 5 and 8 completed their work (a superset was printed), so their
    // snapshot is valid. A failed or unknown command did no meaningful work;
    // don't let its snapshot clobber a previous valid one at the same path.
    if (rc == kExitOk || rc == kExitInconsistent || rc == kExitDefectSuperset)
      writeMetricsIfRequested(args);
    return rc;
  } catch (const OperationCancelled& e) {
    // The journal (if any) holds every completed fault; the counters reflect
    // the work actually done, so the snapshot is still worth flushing.
    std::fprintf(stderr, "interrupted: %s\n", e.what());
    if (parsed) {
      try {
        writeMetricsIfRequested(*parsed);
      } catch (const std::exception& flush) {
        std::fprintf(stderr, "error: metrics flush failed: %s\n", flush.what());
      }
    }
    return kExitInterrupted;
  } catch (const FileNotFoundError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return kExitFileNotFound;
  } catch (const ParseError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return kExitParseError;
  } catch (const serve::ServerFatalError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return kExitServerFatal;
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return kExitUsage;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return kExitFailure;
  }
}
