// pb_trace: the benchmark's in-process replay of each workload.
//
//   pb_trace replay --workload W --threads N --out SPANS.json
//                   [--pool-frames FRAMES --indices IDX]     (serve_mix)
//   pb_trace record-pool --out POOL.json
//
// replay re-runs one workload's work through the same public layer functions
// the CLI command calls, in the same order, and records one span per call with
// the obs counter deltas and pool busy time around it. run.py turns the spans
// into a Chrome Trace Event file and the per-layer table. For serve_mix it
// builds the daemon's DiagnosisService and calls handle() once per request of
// the stream, one span each, and returns every reply so run.py can compare
// them with the recorded oracle replies.
//
// record-pool writes the serve_mix request pool: InjectFault, TesterLog and
// DefectScenario requests on s9234, each with its ground-truth failing cells
// and the reply an in-process DiagnosisService::handle gives it. The pool is
// recorded once and committed, so run.py checks the daemon's socket replies
// with pb_loadgen, which links nothing from the tree.

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "core/scandiag.hpp"
#include "serve/frame.hpp"
#include "serve/service.hpp"
#include "soc/soc_builder.hpp"
#include "soc/soc_experiment_driver.hpp"

using namespace scandiag;

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t workerBusyNs(const obs::MetricsSnapshot& snap) {
  std::uint64_t total = 0;
  for (const obs::WorkerStat& w : snap.workers) total += w.busyNanos;
  return total;
}

/// In-memory span recorder. Spans nest by call order; the obs snapshot taken
/// at each boundary gives the counter deltas measured where the work ran.
class Tracer {
 public:
  template <class F>
  decltype(auto) span(const char* name, F&& body) {
    open(name);
    if constexpr (std::is_void_v<decltype(body())>) {
      body();
      close();
    } else {
      auto result = body();
      close();
      return result;
    }
  }

  void write(JsonWriter& json) const {
    json.key("spans").beginArray();
    for (const Span& s : spans_) {
      json.beginObject()
          .field("name", s.name)
          .field("parent", static_cast<std::int64_t>(s.parent))
          .field("start_ns", static_cast<std::uint64_t>((s.start - origin_).count()))
          .field("dur_ns", static_cast<std::uint64_t>((s.end - s.start).count()))
          .field("busy_ns", s.busyNs);
      json.key("counters").beginObject();
      for (std::size_t c = 0; c < obs::kNumCounters; ++c) {
        if (s.counters[c] != 0)
          json.field(obs::counterName(static_cast<obs::Counter>(c)), s.counters[c]);
      }
      json.endObject().endObject();
    }
    json.endArray();
  }

 private:
  struct Span {
    std::string name;
    int parent = -1;
    Clock::time_point start, end;
    obs::MetricsSnapshot before;
    std::array<std::uint64_t, obs::kNumCounters> counters{};
    std::uint64_t busyNs = 0;
  };

  void open(const char* name) {
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.before = obs::MetricsRegistry::instance().snapshot();
    s.start = Clock::now();
    stack_.push_back(static_cast<int>(spans_.size()));
    spans_.push_back(std::move(s));
  }

  void close() {
    const Clock::time_point end = Clock::now();
    Span& s = spans_[static_cast<std::size_t>(stack_.back())];
    stack_.pop_back();
    s.end = end;
    const obs::MetricsSnapshot after = obs::MetricsRegistry::instance().snapshot();
    for (std::size_t c = 0; c < obs::kNumCounters; ++c)
      s.counters[c] = after.counters[c] - s.before.counters[c];
    s.busyNs = workerBusyNs(after) - workerBusyNs(s.before);
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// The CLI's defaults for `dr`/`serve`: two-step, 8 partitions x 16 groups,
/// 128 patterns, no pruning (configFrom in tools/scandiag_cli.cpp).
DiagnosisConfig cliDefaultConfig() {
  DiagnosisConfig c;
  c.scheme = SchemeKind::TwoStep;
  c.numPartitions = 8;
  c.groupsPerPartition = 16;
  c.numPatterns = 128;
  c.pruning = false;
  return c;
}

serve::ServiceConfig serveConfig() {
  serve::ServiceConfig config;
  config.diagnosis = cliDefaultConfig();
  return config;
}

std::string hexOf(const std::string& bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  for (unsigned char b : bytes) {
    out.push_back(digits[b >> 4]);
    out.push_back(digits[b & 15]);
  }
  return out;
}

/// The reply as the daemon would encode it, minus the server-assigned id.
std::string replyBytes(serve::DiagnoseReply reply) {
  reply.requestId = 0;
  return serve::encodeDiagnoseReply(reply);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

/// `scandiag dr s38584` (Diagnoser construction, then evaluateResolution
/// with the CLI's default fault seed).
void replayDrCold(Tracer& t, JsonWriter& json) {
  const std::uint64_t seed = 0xFA17;
  const DiagnosisConfig config = cliDefaultConfig();
  const std::size_t faults = 500;
  t.span("dr_cold", [&] {
    const Netlist nl = t.span("netlist.generate", [] { return generateNamedCircuit("s38584"); });
    // The CLI levelizes inside Netlist::validate (netlist.generate) and inside
    // the FaultSimulator's LogicSimulator (sim.good_sim); this standalone call
    // prices one levelization. run.py keeps "probe:" spans out of the wall.
    t.span("probe:netlist.levelize", [&] { return levelize(nl); });
    const ScanTopology topology = ScanTopology::singleChain(nl.dffs().size());
    const PatternSet patterns = t.span(
        "bist.patterns", [&] { return generatePatterns(nl, config.numPatterns, PrpgConfig{}); });
    const auto sim = t.span("sim.good_sim",
                            [&] { return std::make_unique<FaultSimulator>(nl, patterns); });
    const auto pipeline = t.span("diagnosis.pipeline_build", [&] {
      return std::make_unique<DiagnosisPipeline>(topology, config);
    });
    const std::vector<FaultSite> candidates = t.span("sim.fault_list", [&] {
      const FaultList universe = FaultList::enumerateCollapsed(nl);
      return universe.sample(std::min(universe.size(), faults * 4), seed);
    });
    const std::vector<FaultResponse> responses =
        t.span("sim.grade", [&] { return sim->collectDetected(candidates, faults); });
    const DrReport rep = t.span("diagnosis.evaluate", [&] { return pipeline->evaluate(responses); });
    json.key("result").beginObject()
        .field("faults", rep.faults)
        .field("sumCandidates", rep.sumCandidates)
        .field("sumActual", rep.sumActual)
        .field("dr", rep.dr)
        .endObject();
  });
}

/// `scandiag soc-dr soc1 --scheme adaptive` (the per-failing-core driver).
void replaySocAdaptive(Tracer& t, JsonWriter& json) {
  t.span("soc_adaptive", [&] {
    const Soc soc = t.span("soc.build", [] { return buildSocFromSpec("soc1"); });
    WorkloadConfig workload = presets::socWorkload();
    workload.numFaults = 500;
    workload.numPatterns = 128;
    const DiagnosisConfig config = presets::soc1Config(SchemeKind::Adaptive, false);
    const std::vector<SocDrRow> rows =
        t.span("soc.sweep", [&] { return evaluateSocDr(soc, workload, config); });
    json.key("result").beginObject().key("rows").beginArray();
    for (const SocDrRow& row : rows) {
      json.beginObject()
          .field("core", row.failingCore)
          .field("dr", row.report.dr)
          .field("faults", row.report.faults)
          .endObject();
    }
    json.endArray().endObject();
  });
}

/// `scandiag dr s13207 --defects 2` (drDefects in the CLI).
void replayDefects(Tracer& t, JsonWriter& json) {
  const DiagnosisConfig config = cliDefaultConfig();
  t.span("defects_s13207", [&] {
    const DefectMix mix = parseDefectSpec("2");
    const Netlist nl = t.span("netlist.generate", [] { return generateNamedCircuit("s13207"); });
    // The CLI levelizes inside Netlist::validate (netlist.generate) and inside
    // the FaultSimulator's LogicSimulator (sim.good_sim); this standalone call
    // prices one levelization. run.py keeps "probe:" spans out of the wall.
    t.span("probe:netlist.levelize", [&] { return levelize(nl); });
    const ScanTopology topology = ScanTopology::singleChain(nl.dffs().size());
    const PatternSet patterns = t.span(
        "bist.patterns", [&] { return generatePatterns(nl, config.numPatterns, PrpgConfig{}); });
    const auto sim = t.span("sim.good_sim",
                            [&] { return std::make_unique<FaultSimulator>(nl, patterns); });
    const std::vector<DefectScenario> scenarios = t.span("inject.scenario_gen", [&] {
      const DefectScenarioGenerator generator(*sim, mix);
      std::vector<DefectScenario> out;
      for (std::size_t i = 0; i < 100; ++i) out.push_back(generator.generate(i));
      return out;
    });
    const auto zoo = t.span("diagnosis.pipeline_build", [&] {
      return std::make_unique<DefectZooPipeline>(*sim, topology, config, DefectPolicy{});
    });
    const DefectZooReport rep = t.span("inject.ladder", [&] { return zoo->evaluate(scenarios); });
    json.key("result").beginObject()
        .field("scenarios", rep.scenarios)
        .field("dr", rep.dr)
        .field("sumCandidates", rep.sumCandidates)
        .field("sumActual", rep.sumActual)
        .field("misdiagnosisRate", rep.misdiagnosisRate)
        .field("degraded", rep.degraded)
        .field("unionSplits", rep.totalUnionSplits)
        .field("atpgPatterns", rep.totalAtpgPatterns)
        .field("extraSessions", rep.totalExtraSessions)
        .endObject();
  });
}

/// `scandiag serve s9234` warm-up, then handle() for each request of the
/// stream in order (the daemon's per-request compute, without transport).
void replayServe(Tracer& t, JsonWriter& json, const std::string& framesPath,
                 const std::string& indicesPath) {
  std::vector<serve::DiagnoseRequest> pool;
  const std::string bytes = slurp(framesPath);
  for (std::size_t at = 0; at < bytes.size();) {
    std::size_t consumed = 0;
    const auto frame = serve::decodeFrame(std::string_view(bytes).substr(at), &consumed);
    if (!frame) throw std::runtime_error("truncated pool frames");
    pool.push_back(serve::decodeDiagnoseRequest(frame->payload));
    at += consumed;
  }
  const std::string raw = slurp(indicesPath);
  std::vector<std::uint32_t> stream;
  for (std::size_t at = 0; at + 4 <= raw.size(); at += 4) {
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i) v = (v << 8) | static_cast<unsigned char>(raw[at + i]);
    if (v >= pool.size()) throw std::runtime_error("index outside the pool");
    stream.push_back(v);
  }

  std::vector<std::string> replies(pool.size());
  t.span("serve_mix", [&] {
    Netlist nl = t.span("netlist.generate", [] { return generateNamedCircuit("s9234"); });
    const auto service = t.span("serve.service_build", [&] {
      return std::make_unique<serve::DiagnosisService>(std::move(nl), serveConfig());
    });
    for (std::uint32_t index : stream) {
      const serve::DiagnoseReply reply = t.span("serve.handle", [&] {
        return service->handle(pool[index], 0, std::chrono::milliseconds(0), nullptr);
      });
      replies[index] = hexOf(replyBytes(reply));
    }
  });
  json.key("replies").beginArray();
  for (const std::string& r : replies) json.value(r);
  json.endArray();
}

/// Picks detected faults of `sim` at random gate outputs, deterministically.
std::vector<FaultResponse> detectedFaults(const Netlist& nl, const FaultSimulator& sim,
                                          std::size_t count, std::uint64_t seed) {
  Xoroshiro128 rng(seed);
  std::vector<FaultResponse> out;
  while (out.size() < count) {
    const FaultSite site{static_cast<GateId>(rng.nextBelow(nl.gateCount())),
                         FaultSite::kOutputPin, rng.nextBelow(2) == 1};
    FaultResponse r = sim.simulate(site);
    if (r.detected()) out.push_back(std::move(r));
  }
  return out;
}

void writeEntry(JsonWriter& json, const serve::DiagnosisService& service,
                const serve::DiagnoseRequest& request, const BitVector& truth) {
  const serve::DiagnoseReply reply =
      service.handle(request, 0, std::chrono::milliseconds(0), nullptr);
  if (reply.status != serve::ReplyStatus::Ok)
    throw std::runtime_error("pool request not answered Ok: " + reply.message);
  json.beginObject();
  switch (request.kind) {
    case serve::DiagnoseRequest::Kind::InjectFault:
      json.field("kind", "inject").field("gate", request.gateName).field("sa1", request.stuckAt1);
      break;
    case serve::DiagnoseRequest::Kind::TesterLog:
      json.field("kind", "log").field("log", request.logText);
      break;
    case serve::DiagnoseRequest::Kind::DefectScenario:
      json.field("kind", "defect")
          .field("spec", request.defectSpec)
          .field("seed", request.defectSeed)
          .field("index", static_cast<std::uint64_t>(request.defectIndex));
      break;
  }
  json.key("truth").beginArray();
  for (std::size_t c : truth.toIndices()) json.value(static_cast<std::uint64_t>(c));
  json.endArray();
  json.field("reply", hexOf(replyBytes(reply)));
  json.endObject();
}

int recordPool(const std::string& outPath) {
  constexpr std::size_t kInject = 256, kLogs = 128, kDefects = 128;
  constexpr std::uint64_t kDefectSeed = 0x5E4E;
  const Netlist nl = generateNamedCircuit("s9234");
  const serve::DiagnosisService service(nl, serveConfig());
  const PatternSet patterns = generatePatterns(nl, serveConfig().diagnosis.numPatterns, PrpgConfig{});
  const FaultSimulator sim(nl, patterns);

  std::ofstream out(outPath);
  JsonWriter json(out, /*pretty=*/false);
  json.beginObject().field("circuit", "s9234").key("entries").beginArray();
  for (const FaultResponse& r : detectedFaults(nl, sim, kInject, 0x1A7EC7)) {
    serve::DiagnoseRequest request;
    request.kind = serve::DiagnoseRequest::Kind::InjectFault;
    request.gateName = nl.gateName(r.fault.gate);
    request.stuckAt1 = r.fault.stuckAt;
    writeEntry(json, service, request, r.failingCells);
  }
  const DiagnosisPipeline& pipeline = service.pipeline();
  for (const FaultResponse& r : detectedFaults(nl, sim, kLogs, 0x106106)) {
    serve::DiagnoseRequest request;
    request.kind = serve::DiagnoseRequest::Kind::TesterLog;
    request.logText = writeTesterLog(pipeline.engine().run(pipeline.prepared(), r));
    writeEntry(json, service, request, r.failingCells);
  }
  DefectMix mix = parseDefectSpec("2");
  mix.seed = kDefectSeed;
  const DefectScenarioGenerator generator(sim, mix);
  for (std::uint32_t i = 0; i < kDefects; ++i) {
    serve::DiagnoseRequest request;
    request.kind = serve::DiagnoseRequest::Kind::DefectScenario;
    request.defectSpec = "2";
    request.defectSeed = kDefectSeed;
    request.defectIndex = i;
    writeEntry(json, service, request, generator.generate(i).composed.failingCells);
  }
  json.endArray().endObject();
  out << "\n";
  return out ? 0 : 1;
}

std::map<std::string, std::string> parseOptions(int argc, char** argv) {
  std::map<std::string, std::string> kv;
  for (int i = 2; i + 1 < argc; i += 2) kv[argv[i]] = argv[i + 1];
  return kv;
}

std::string need(const std::map<std::string, std::string>& kv, const std::string& key) {
  const auto it = kv.find(key);
  if (it == kv.end()) throw std::invalid_argument("missing " + key);
  return it->second;
}

int replay(const std::map<std::string, std::string>& kv) {
  const std::string workload = need(kv, "--workload");
  const std::size_t threads = std::stoul(need(kv, "--threads"));
  setGlobalThreadCount(threads);
  std::ofstream out(need(kv, "--out"));
  JsonWriter json(out, /*pretty=*/false);
  json.beginObject()
      .field("workload", workload)
      .field("threads", static_cast<std::uint64_t>(globalPool().threadCount()));
  Tracer tracer;
  if (workload == "dr_cold") {
    replayDrCold(tracer, json);
  } else if (workload == "soc_adaptive") {
    replaySocAdaptive(tracer, json);
  } else if (workload == "defects_s13207") {
    replayDefects(tracer, json);
  } else if (workload == "serve_mix") {
    replayServe(tracer, json, need(kv, "--pool-frames"), need(kv, "--indices"));
  } else {
    throw std::invalid_argument("unknown workload " + workload);
  }
  tracer.write(json);
  json.endObject();
  out << "\n";
  return out ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2) throw std::invalid_argument("usage: pb_trace replay|record-pool ...");
    const std::string mode = argv[1];
    const auto kv = parseOptions(argc, argv);
    if (mode == "replay") return replay(kv);
    if (mode == "record-pool") return recordPool(need(kv, "--out"));
    throw std::invalid_argument("unknown mode " + mode);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pb_trace: %s\n", e.what());
    return 1;
  }
}
